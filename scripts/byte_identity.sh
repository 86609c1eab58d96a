#!/usr/bin/env bash
# Byte-identity check: run cyclerec commands with the program of <ref> and
# with the program of this checkout, and compare what each wrote, stdout
# included.
#
#   scripts/byte_identity.sh <ref> [cyclerec command and options]
#
# Without a command it runs the whole fixture set and prints one line per
# check, "identical" or the `diff -r` output:
#
#   - `run` on `scripts/byte_identity.yaml` (every method, two seeds, four
#     small cycles) at `--workers 1` and at `--workers 2`;
#   - `run` on `scripts/byte_identity_trim.yaml`, the same grid on long
#     sessions and `max_seq_len` 5, so that rows are windows that stop
#     nesting;
#   - `ablate` on `scripts/byte_identity.yaml`;
#   - `preprocess --seed 1` on the seed-1 benchmark click log
#     (`perfbench.clicklog`);
#   - `preprocess --seed 1 --max-seq-len 4 --validation-fraction 0.3` on
#     that log: its sessions run to 11-13 items, so many prefixes are
#     trimmed windows;
#   - a Joint + ADER + ER_loss + EWC `run` (d=16, `max_seq_len` 4, 2
#     epochs) on the `cycles.txt` that <ref>'s `preprocess` wrote: trimmed
#     rows over a larger vocabulary, and EWC's Fisher pass of one-row steps.
#
# It exits non-zero if any check differs. With a command it runs that one
# command: it gets `--out <dir>` appended, so give every other option it
# needs; relative paths are read from the root of this checkout, by both
# sides. Examples:
#
#   scripts/byte_identity.sh HEAD~1
#   scripts/byte_identity.sh HEAD~1 run --config scripts/byte_identity_trim.yaml --workers 2
#   scripts/byte_identity.sh HEAD~1 preprocess --input clicks.csv --seed 1
#
# <ref> is exported with `git archive` into a temporary directory. Both sides
# run with one BLAS thread and write to the same path in turn, so paths that
# reach stdout match.
set -euo pipefail

if [ $# -lt 1 ]; then
    echo "usage: $0 <ref> [cyclerec command and options]" >&2
    exit 1
fi
ref=$1
shift

root=$(git rev-parse --show-toplevel)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT
mkdir "$tmp/ref"
git -C "$root" archive "$ref" | tar -x -C "$tmp/ref"

# compare <cyclerec command and options>: run it on both sides; print "identical", or the diff and return 1
compare() {
    local side src
    for side in ref change; do
        src=$root/src
        [ "$side" = ref ] && src=$tmp/ref/src
        (cd "$root" && OPENBLAS_NUM_THREADS=1 OMP_NUM_THREADS=1 MKL_NUM_THREADS=1 PYTHONPATH=$src \
            python3 -m cyclerec.cli "$@" --out "$tmp/out" > "$tmp/stdout") || { echo "failed on the $side side"; return 1; }
        rm -rf "$tmp/$side.result"
        mkdir "$tmp/$side.result"
        mv "$tmp/out" "$tmp/$side.result/out"
        mv "$tmp/stdout" "$tmp/$side.result/stdout"
    done
    if diff -r "$tmp/ref.result" "$tmp/change.result"; then
        echo identical
    else
        return 1
    fi
}

if [ $# -gt 0 ]; then
    compare "$@"
    exit
fi

status=0
check() {  # check <label> <cyclerec command and options>
    printf '%s: ' "$1"
    shift
    compare "$@" || status=1
}
check "run byte_identity.yaml --workers 1" run --config scripts/byte_identity.yaml --workers 1
check "run byte_identity.yaml --workers 2" run --config scripts/byte_identity.yaml --workers 2
check "run byte_identity_trim.yaml" run --config scripts/byte_identity_trim.yaml
check "ablate byte_identity.yaml" ablate --config scripts/byte_identity.yaml
PYTHONPATH=$root python3 -c "import sys; from perfbench.clicklog import ClickLog, write_click_log
write_click_log(sys.argv[1], ClickLog(), 1)" "$tmp/clicks.csv"
check "preprocess --seed 1 (click log)" preprocess --input "$tmp/clicks.csv" --seed 1
cp "$tmp/ref.result/out/cycles.txt" "$tmp/cycles.txt"
check "preprocess --seed 1 --max-seq-len 4 --validation-fraction 0.3 (click log)" \
    preprocess --input "$tmp/clicks.csv" --seed 1 --max-seq-len 4 --validation-fraction 0.3
cat > "$tmp/clicklog.yaml" <<EOF
data: {cycles: $tmp/cycles.txt}
model: {embed_dim: 16, block_count: 2, attention_heads: 2, max_seq_len: 4}
training: {max_epochs: 2, patience: 1, batch_size: 128}
methods: [Joint, ADER, ER_loss, EWC]
seeds: [1]
exemplar_capacity: 200
EOF
check "run Joint/ADER/ER_loss/EWC on the click log's cycles.txt" run --config "$tmp/clicklog.yaml"
exit $status
