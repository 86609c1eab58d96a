"""Run one benchmark workload and print its result as the last line of stdout.

    python3 perfbench/run.py --workload ader_drift --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``
and scratch files go to ``.perfbench_out/``. ``--trace 0`` prints the
end-to-end metrics, ``--trace 1`` the per-layer ones.
"""

import os

# One BLAS thread, set before numpy loads: per-step matrices are small, so a
# second thread mostly adds synchronisation, and thread count changes the
# floating-point summation order and with it the trained models.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cyclerec" / "__init__.py").is_file():
        print(f"error: no program source at {ROOT / 'src' / 'cyclerec'}; run from a checkout", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench.bench import run_benchmark
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (choose from {sorted(WORKLOADS)})", file=sys.stderr)
        return 2
    workdir = ROOT / ".perfbench_out" / args.workload
    try:
        result = run_benchmark(WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), workdir)
    except RuntimeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
