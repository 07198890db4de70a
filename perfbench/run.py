"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload decode --seed 1 --seconds 10 --trace 0

``--trace 0`` prints the end-to-end metrics, ``--trace 1`` the
per-layer ones from a separate instrumented run.  An untraced run also
prints its absolute latencies and rates, as ``info`` lines.  The last line of
standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  The lines before it give the provenance
header and every metric with its unit and clock.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORKLOADS = ("decode", "prefill", "serve-model", "serve-layer")


def _pin_environment() -> None:
    """Fix what the host would otherwise vary between runs; must run
    before NumPy is first imported.

    BLAS gets at most one thread per CPU this process may use.  NumPy's
    huge-page hint for large arrays is turned off: whether the kernel
    can back an array with huge pages depends on the host's memory
    fragmentation at that moment, which moved the prefill medians by
    up to 20% between otherwise identical runs.
    """
    nproc = len(os.sched_getaffinity(0))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        current = os.environ.get(var, "")
        wanted = min(int(current), nproc) if current.isdigit() and int(current) > 0 else nproc
        os.environ[var] = str(wanted)
    os.environ["NUMPY_MADVISE_HUGEPAGE"] = "0"


def parse_args(argv: "list[str] | None" = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv: "list[str] | None" = None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        print("run.py: --seconds must be positive", file=sys.stderr)
        return 2
    _pin_environment()
    if not (ROOT / "src" / "repro").is_dir():
        print(f"run.py: no package under test at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

    from perfbench import forward, serve
    from perfbench.report import provenance
    from perfbench.traced import END_TO_END, PER_LAYER, fill_missing

    trace = bool(args.trace)
    if args.workload in forward.FORWARD_WORKLOADS:
        config = {**forward.CONFIG, "rows": forward.FORWARD_WORKLOADS[args.workload][0]}
        result = forward.run_forward(args.workload, args.seed, args.seconds, trace)
    else:
        config = serve.CONFIG[args.workload]
        result = serve.run_serve(args.workload, args.seed, args.seconds, trace)
    if trace:
        fill_missing(result)
    names = [name for name, _ in (PER_LAYER if trace else END_TO_END)]
    missing = [name for name in names if name not in result.metrics]
    if missing:
        raise RuntimeError(f"workload {args.workload} reported no {missing}")
    header = provenance(args.workload, args.seed, config, trace)
    print(result.render(header, names), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
