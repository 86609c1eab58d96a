#!/usr/bin/env bash
# Byte-identity check: run one cyclerec command with the program of <ref> and
# with the program of this checkout, and compare what each wrote, stdout
# included.
#
#   scripts/byte_identity.sh <ref> [cyclerec command and options]
#
# Without a command it runs `run --config scripts/byte_identity.yaml`.
# `scripts/byte_identity_trim.yaml` is the same grid on long sessions and
# `max_seq_len` 5, so that rows are windows that stop nesting; a change to
# the encoder's layout should pass both configs. The command gets
# `--out <dir>` appended, so give every other option it needs; relative
# paths are read from the root of this checkout, by both sides.
# Examples:
#
#   scripts/byte_identity.sh HEAD~1
#   scripts/byte_identity.sh HEAD~1 run --config scripts/byte_identity.yaml --workers 2
#   scripts/byte_identity.sh HEAD~1 run --config scripts/byte_identity_trim.yaml
#   scripts/byte_identity.sh HEAD~1 preprocess --input clicks.csv --seed 1
#
# A click log reaches `run` only as the cycles.txt that `preprocess` writes,
# so check a change on that path in three steps:
#
#   1. write a log: python -c "from perfbench.clicklog import ClickLog, \
#        write_click_log; write_click_log('/tmp/clicks.csv', ClickLog(), 1)"
#   2. scripts/byte_identity.sh HEAD~1 preprocess --input /tmp/clicks.csv --seed 1
#   3. write cycles.txt with `cyclerec preprocess --input /tmp/clicks.csv --seed 1
#      --out /tmp/prepped`, point a config's `data: {cycles: ...}` at
#      /tmp/prepped/cycles.txt, and run
#      scripts/byte_identity.sh HEAD~1 run --config <that config>
#
# <ref> is exported with `git archive` into a temporary directory. Both sides
# run with one BLAS thread and write to the same path in turn, so paths that
# reach stdout match. Exits 0 and prints "identical" when the outputs are
# byte-identical, and non-zero with the `diff -r` output otherwise.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <ref> [cyclerec command and options]" >&2
    exit 1
fi
ref=$1
shift
[ $# -gt 0 ] || set -- run --config scripts/byte_identity.yaml

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

for side in ref change; do
    src=$root/src
    [ "$side" = ref ] && src=$tmp/ref/src
    (cd "$root" && OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=$src \
        python3 -m cyclerec.cli "$@" --out "$tmp/out" > "$tmp/stdout")
    mkdir "$tmp/$side.result"
    mv "$tmp/out" "$tmp/$side.result/out"
    mv "$tmp/stdout" "$tmp/$side.result/stdout"
done

diff -r "$tmp/ref.result" "$tmp/change.result"
echo identical
