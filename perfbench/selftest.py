"""Self-tests of the benchmark itself (not of pnk).

    python3 perfbench/selftest.py

- ``abfattree(4)`` reproduces ``netlib.abfattree20()`` link for link.
- Each workload's expected trace spans fire on a few of its operations, and
  every patched binding is restored afterwards, also when the traced code
  raises.  A refactor that renames or bypasses a wrapped function fails here
  instead of reporting zero time for its layer.
- Every trace count repeats exactly: twice in this process and once in a
  child process with another string-hash seed.

Exits 0 when every check passes.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from pnk import netlib  # noqa: E402

import layertrace  # noqa: E402
from topo import abfattree  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SEED = 7
# A few cheap operations of each workload (indices into its setup's list).
SAMPLE_OPS = {
    "grid20-exact": [15],        # f10_0 at k=inf
    "abft45-inf-exact": [17],    # f10_35, first ingress row
    "equiv8-exact": list(range(8)),
    "latency20-float": [3],      # f10_0 delivery at p=1/10
}


def traced_sample(name: str) -> layertrace.Tracer:
    wl = WORKLOADS[name]
    tracer = layertrace.Tracer()
    with tracer.installed():
        ops = wl.setup(SEED)
        for i in SAMPLE_OPS[name]:
            ops[i]()
    return tracer


def check_generator() -> list[str]:
    a, b = abfattree(4), netlib.abfattree20()
    same = (a.links == b.links and a.layers == b.layers
            and a.agg_type == b.agg_type and a.switches == b.switches)
    return [] if same else ["abfattree(4) differs from netlib.abfattree20()"]


def check_spans(tracers: dict) -> list[str]:
    errors = []
    for name, tracer in tracers.items():
        missing = WORKLOADS[name].spans - {s for s, n in tracer.fired.items() if n}
        if missing:
            errors.append(f"{name}: spans never fired: {sorted(missing)}")
    return errors


def check_restore(pristine: list) -> list[str]:
    """Every binding is the original again after the traced samples, and
    after a block that the tracer leaves by an exception."""
    tracer = layertrace.Tracer()
    try:
        with tracer.installed():
            if layertrace.originals() == pristine:
                return ["installing the trace patched nothing"]
            raise KeyboardInterrupt  # leave the block the hard way
    except KeyboardInterrupt:
        pass
    after = layertrace.originals()
    return [f"{owner.__name__}.{attr} not restored"
            for (owner, attr, _), x, y in zip(layertrace.PATCHES, pristine, after)
            if x is not y]


def counts(tracers: dict) -> dict:
    return {name: t.counts for name, t in tracers.items()}


def child_counts() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="12345")
    out = subprocess.run([sys.executable, __file__, "--counts"], env=env,
                         capture_output=True, text=True, timeout=600, check=True)
    return json.loads(out.stdout)


def main(argv: list[str]) -> int:
    if argv == ["--counts"]:
        print(json.dumps(counts({n: traced_sample(n) for n in SAMPLE_OPS})))
        return 0
    pristine = layertrace.originals()
    first = {n: traced_sample(n) for n in SAMPLE_OPS}
    errors = check_generator() + check_spans(first) + check_restore(pristine)
    second = counts({n: traced_sample(n) for n in SAMPLE_OPS})
    for label, other in (("second run", second), ("child process", child_counts())):
        for name, c in counts(first).items():
            diff = {k: (v, other[name][k]) for k, v in c.items() if other[name][k] != v}
            if diff:
                errors.append(f"{name}: counts differ in the {label}: {diff}")
    for e in errors:
        print("FAIL", e)
    print("selftest", "failed" if errors else "passed")
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
