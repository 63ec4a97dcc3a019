"""Run one benchmark workload and print its result as the last stdout line.

    python3 perfbench/run.py --workload line_deep --seed 0 --seconds 24 --trace 0

Run it from the root of a checkout: the ldme package is imported from the
checkout's ``src/`` and nowhere else, and scratch files go to
``.perfbench_out/``. BLAS is pinned to one thread before numpy is imported,
since ``cli_sweep`` runs two estimator threads on machines with few cores.
The line before the result records the environment. Exits 2 without a
result when ``src/ldme`` is missing.
"""

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def _parse(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # Internal: n divisor for self-tests, and the set-up-only child mode.
    parser.add_argument("--shrink", type=int, default=1, help=argparse.SUPPRESS)
    parser.add_argument("--setup-only", type=Path, help=argparse.SUPPRESS)
    return parser.parse_args(argv)


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = {k: blas.get(k) for k in ("name", "version", "openblas configuration")}
    except (TypeError, KeyError):
        blas = {"name": "unknown"}
    return {
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
    }


def main(argv=None) -> int:
    args = _parse(argv)
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    src = ROOT / "src"
    if not (src / "ldme" / "__init__.py").is_file():
        print(f"perfbench: no ldme package under {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(src), str(ROOT)]
    import ldme

    if Path(ldme.__file__).resolve().parent != (src / "ldme").resolve():
        print(f"perfbench: imported ldme from {ldme.__file__}, not {src}", file=sys.stderr)
        return 2
    from perfbench.measure import run_workload, set_up
    from perfbench.workloads import NAMES, make_workload

    if args.workload not in NAMES:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    if args.setup_only:
        # One set-up sample for the parent's setup_s: print its seconds only.
        args.setup_only.mkdir(parents=True, exist_ok=True)
        wl = make_workload(args.workload, shrink=args.shrink)
        print(set_up(wl, args.seed, args.setup_only, T_START))
        return 0
    result = run_workload(
        args.workload,
        args.seed,
        args.seconds,
        bool(args.trace),
        T_START,
        ROOT / ".perfbench_out",
        shrink=args.shrink,
    )
    print(json.dumps({"env": _environment()}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
