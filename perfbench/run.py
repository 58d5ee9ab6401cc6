"""pnk benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all [--seed N] [--seconds S]

Runs one workload in this process against the pnk sources in ``src/`` of the
checkout that holds this file, checks every result against an independent
reference, and prints as its last line one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports
the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the per-layer ones.
``--workload all`` runs every workload, each in a fresh process, and prints
every end-to-end metric with its unit.

A run sets the workload up several times (``setup_s`` is the median), then
runs passes over the workload's operations until ``--seconds`` have passed,
at least one.  Each pass gets a fresh set-up, so no pass sees another's
memo, and an operation's time is its median over the passes.  Every time is
in reference seconds (see clock.py): the host's speed swings by up to 2x for
seconds at a time, and wall time alone is not steady from run to run.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
from pathlib import Path

from clock import Clock

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 5

END_TO_END_UNITS = {
    "wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB",
    "decisions_per_s": "1/s", "decision_ms_p50": "ms", "decision_ms_p90": "ms",
}


def _import_pnk() -> None:
    """Make the checkout's own pnk importable, and nothing else."""
    src = ROOT / "src"
    if not (src / "pnk" / "__init__.py").is_file():
        sys.exit(f"no pnk sources under {src}")
    sys.path[:0] = [str(src), str(HERE)]
    import pnk
    if Path(pnk.__file__).resolve().parent != src / "pnk":
        sys.exit(f"imported pnk from {pnk.__file__}, not from {src}")


def _run_pass(ops: list, clock: Clock, failed: set) -> tuple[list, list]:
    """Run every operation in turn; an operation that raises is failed."""
    stamps, results = [], []
    for i, op in enumerate(ops):
        ops[i] = None  # let the operation's kernel go once it is done
        t0 = clock.now()
        try:
            results.append(op())
        except Exception as exc:  # a failed operation, not a failed run
            results.append(exc)
            failed.add(i)
            print(f"operation {i} raised {exc!r}", file=sys.stderr)
        stamps.append((t0, clock.now()))
    # Converted afterwards, so each operation sees the probes on both sides.
    return [clock.seconds(a, b) for a, b in stamps], results


def _check(wl, results: list, failed: set) -> None:
    """Add the operations whose results disagree with the references.  The
    checks compare operations with each other, so when one raised none of
    the pass can be vouched for."""
    try:
        if not failed:
            failed.update(wl.check(results))
            return
    except Exception as exc:  # results of an unexpected shape fail the check
        print(f"check raised {exc!r}", file=sys.stderr)
    failed.update(range(len(results)))


def _setup(wl, seed: int, clock: Clock, setup_times: list) -> list:
    t0 = clock.now()
    ops = wl.setup(seed)
    setup_times.append(clock.seconds(t0, clock.now()))
    return ops


def _percentile(values: list, q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def measure(wl, seed: int, seconds: float, trace: bool) -> dict:
    setup_times: list[float] = []
    per_op: list[list[float]] = []
    attempted = failed = 0
    with Clock() as clock:
        for _ in range(SETUP_REPEATS):
            ops = _setup(wl, seed, clock, setup_times)
        started = clock.now()
        while not per_op or clock.now() - started < seconds:
            if per_op:
                gc.collect()
                ops = _setup(wl, seed, clock, setup_times)
            bad: set = set()
            times, results = _run_pass(ops, clock, bad)
            _check(wl, results, bad)
            del ops, results
            per_op = per_op or [[] for _ in times]
            for samples, t in zip(per_op, times):
                samples.append(t)
            attempted += len(times)
            failed += len(bad)
        op_times = [statistics.median(samples) for samples in per_op]
        wall = sum(op_times)

        if trace:
            from layertrace import Tracer, per_layer_units
            gc.collect()
            tracer = Tracer()
            with tracer.installed():
                ops = wl.setup(seed)
                bad = set()
                times, results = _run_pass(ops, clock, bad)
            _check(wl, results, bad)
            attempted += len(times)
            failed += len(bad)
            missing = wl.spans - {s for s, n in tracer.fired.items() if n}
            if missing:
                sys.exit(f"trace spans never fired on {wl.name}: {sorted(missing)}")
            metrics = tracer.metrics()
            metrics["trace.overhead_s"] = sum(times) - wall
            units = per_layer_units()
        else:
            metrics = {
                "wall_s": wall,
                "setup_s": statistics.median(setup_times),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                "decisions_per_s": len(op_times) / wall,
                "decision_ms_p50": 1e3 * statistics.median(op_times),
                "decision_ms_p90": 1e3 * _percentile(op_times, 90),
            }
            units = END_TO_END_UNITS
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }


def run_all(seed: int, seconds: float, names) -> int:
    """Every workload in a fresh process of its own, one after another."""
    status = 0
    for name in names:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        res = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: fail_share {res['failed'] / res['attempted']:.4f} "
              f"({res['failed']} of {res['attempted']} operations)")
        for metric, m in res["metrics"].items():
            print(f"  {metric:<16} {m['value']:>12.4f} {m['unit']}")
    return status


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=5)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    _import_pnk()
    from workloads import WORKLOADS
    if args.workload == "all":
        return run_all(args.seed, args.seconds, list(WORKLOADS))
    if args.workload not in WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; one of {', '.join(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    result = measure(wl, args.seed, args.seconds, bool(args.trace))
    print(f"{wl.name}: fail_share {result['failed'] / result['attempted']:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
