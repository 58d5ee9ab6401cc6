"""Command-line front door.

    pnk equiv FILE1 FILE2 [--inputs SPEC]      exit 0 equal / 1 not / 2 error
    pnk leq FILE1 FILE2 [--inputs SPEC]        exit 0 leq / 1 not / 2 error
    pnk dist FILE --on PACKETS                 print the output distribution
    pnk query FILE --on PACKETS --measure M    print a scalar measure
    pnk sample FILE --on PACKETS -n N          Monte Carlo estimate
    pnk casestudy NAME [--topo T --k ... --p ...]   only the flags NAME reads

Programs are files with an optional ``fields { ... }`` header; a universe
can also be supplied as JSON via --universe.  The library returns exact
numbers; the mode is how this front door prints them.  In exact mode (the
default, except for ``casestudy f10-latency``) a probability prints as a
reduced rational and decisions compare exactly.  In float mode (--float)
decisions compare within --tol, and each ``Fraction`` of the report prints
as the double nearest it.  Reports are JSON by default or CSV via --format
csv: the report's table, with every other entry as a constant column, or
else one key,value row per entry.  A report with two tables has no CSV
form: --format csv refuses it (exit 2).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
from fractions import Fraction

from . import casestudy as cs
from .analysis import (
    DEFAULT_STAR_DEPTH, DEFAULT_SUBSET_CAP, InputSpec, QuerySpec, equiv,
    estimate, leq, query,
)
from .bigstep import Kernel
from .errors import PnkError
from .netlib import TOPOLOGIES
from .parser import parse, parse_file_text
from .star import DEFAULT_STATE_BUDGET
from .universe import PacketUniverse

FLOAT_TOL = 1e-9  # the tolerance of float mode unless --tol sets one


def _rounded(x):
    """``x`` as float mode prints it: each ``Fraction`` in it replaced by
    the nearest double (the int 0 off a row's support stays)."""
    if isinstance(x, Fraction):
        return float(x)
    if isinstance(x, dict):
        return {k: _rounded(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_rounded(v) for v in x]
    return x


def _cell(x) -> str:
    """A CSV cell: a number to 12 digits (a ``Fraction`` exactly), a string
    as it is, anything else as compact JSON."""
    if isinstance(x, str):
        return x
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, (int, float)) and not isinstance(x, bool):
        return f"{float(x):.12g}"
    return json.dumps(_jsonable(x), separators=(",", ":"), sort_keys=True)


def _jsonable(x):
    if isinstance(x, Fraction):
        return str(x)
    if isinstance(x, float):
        return float(f"{x:.12g}")
    if isinstance(x, dict):
        return {str(k): _jsonable(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_jsonable(v) for v in x]
    return x


def _emit(obj, fmt: str, table: str | None = None) -> None:
    """Print the report ``obj``.  As CSV: its one table, with each other
    entry as a constant column, or one key,value row per entry if it has
    none.  ``table`` names the table; by default every entry that is a list
    of dicts is one, and a report with two has no CSV form."""
    if fmt == "json":
        print(json.dumps(_jsonable(obj), indent=2, sort_keys=True))
        return
    tables = [table] if table is not None else [
        k for k, v in obj.items()
        if isinstance(v, list) and v and isinstance(v[0], dict)]
    if len(tables) > 1:
        raise PnkError(f"--format csv writes one table, but this report has "
                       f"{len(tables)}: {', '.join(tables)}; use --format json")
    out = csv.writer(sys.stdout, lineterminator="\n")
    if tables:
        rows = obj[tables[0]]
        keys = list(rows[0].keys())
        consts = [(k, _cell(v)) for k, v in obj.items() if k != tables[0]]
        out.writerow(keys + [k for k, _ in consts])
        tail = [c for _, c in consts]
        out.writerows([_cell(r.get(k, "")) for k in keys] + tail for r in rows)
    else:
        out.writerows([k, _cell(v)] for k, v in obj.items())


def _verdict_report(verdict, universe, exact: bool) -> dict:
    obj = {"result": verdict.result, "exact": exact}
    if not exact:
        obj["tolerance"] = verdict.tolerance
    w = verdict.witness
    if w is not None:
        obj["witness"] = {
            "input": universe.set_to_records(w.input_set),
            "output": universe.set_to_records(w.output_set),
            "left_prob": str(w.left_prob if exact else _rounded(w.left_prob)),
            "right_prob": str(w.right_prob if exact else _rounded(w.right_prob)),
        }
    return obj


def _load_universe(args) -> PacketUniverse | None:
    if args.universe:
        with open(args.universe) as fh:
            return PacketUniverse.from_json(fh.read())
    return None


def _load_program(path: str, universe):
    with open(path) as fh:
        return parse_file_text(fh.read(), universe)


def _load_two(args):
    uni = _load_universe(args)
    uni1, p = _load_program(args.file1, uni)
    uni2, q = _load_program(args.file2, uni1)
    if uni1 != uni2:
        raise PnkError("the two programs use different universes")
    return uni1, p, q


def _input_spec(args, universe) -> InputSpec:
    spec = args.inputs
    if spec == "all":
        return InputSpec.full_universe(universe, cap=args.cap_subsets)
    with open(spec) as fh:
        obj = json.load(fh)
    if not isinstance(obj, dict):
        obj = {}
    if isinstance(obj.get("sets"), list):
        return InputSpec.of_sets(
            [universe.set_from_records(r) for r in obj["sets"]]
        )
    if "all_subsets_of" in obj:
        packets = universe.set_from_records(obj["all_subsets_of"])
        return InputSpec.all_subsets(packets, cap=args.cap_subsets)
    raise PnkError("an input spec is an object with a 'sets' list of packet sets "
                   "or an 'all_subsets_of' list of packet records")


def _packets_arg(text: str, universe):
    if os.path.exists(text):
        with open(text) as fh:
            text = fh.read()
    records = json.loads(text)
    return universe.set_from_records(records)


def _parse_measure(text: str, universe) -> QuerySpec:
    kind, *rest = text.split(":")
    if kind == "prob-nonempty" and not rest:
        return QuerySpec.prob_nonempty()
    if kind == "prob-satisfies" and 1 <= len(rest) <= 2:
        return QuerySpec.prob_satisfies(parse(rest[0], universe), *rest[1:])
    if kind == "expected" and len(rest) == 1:
        universe.field(rest[0])  # raises on an unknown field
        return QuerySpec.expected_field(rest[0])
    if kind == "cdf" and len(rest) == 2:
        universe.field(rest[0])
        return QuerySpec.field_cdf(rest[0], int(rest[1]))
    raise PnkError(f"bad measure {text!r}: expected prob-nonempty, "
                   "prob-satisfies:PRED[:all|some], expected:FIELD or cdf:FIELD:THRESHOLD")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        n = 0
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}")
    return n


def _fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational number, got {text!r}") from None


def _fractions(text: str) -> list[Fraction]:
    return [_fraction(x) for x in text.split(",")]


def _failure_bounds(text: str) -> list:
    try:
        return [cs._parse_k(x) for x in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated integers or inf, got {text!r}") from None


def _tolerance(text: str) -> float:
    try:
        tol = float(text)
    except ValueError:
        tol = math.nan
    if not 0 <= tol < math.inf:
        raise argparse.ArgumentTypeError(
            f"expected a finite non-negative number, got {text!r}")
    return tol


def _add_common(sub, *flags):
    """Registers --format and the shared ``flags`` on ``sub``, so that each
    subcommand takes only the flags it reads: "universe" (--universe),
    "engine" (--exact/--float, --max-states), "tol" and "cap-subsets"."""
    sub.add_argument("--format", choices=("json", "csv"), default="json")
    if "universe" in flags:
        sub.add_argument("--universe", help="universe JSON file")
    if "engine" in flags:
        # Tri-state: None means the per-command default (exact everywhere
        # except f10-latency, whose report is numbers only).
        sub.add_argument("--exact", dest="exact", action="store_true", default=None)
        sub.add_argument("--float", dest="exact", action="store_false")
        sub.add_argument("--max-states", type=_positive_int, default=DEFAULT_STATE_BUDGET,
                         help="pair-state budget per chain of a star whose "
                              f"body has a choice (default: {DEFAULT_STATE_BUDGET})")
    if "tol" in flags:
        sub.add_argument("--tol", type=_tolerance,
                         help=f"float mode only (default: {FLOAT_TOL})")
    if "cap-subsets" in flags:
        sub.add_argument("--cap-subsets", type=_positive_int, default=DEFAULT_SUBSET_CAP)


def _add_study(studies, name, *flags):
    """Registers case study ``name`` with the ``flags`` it reads, out of
    "topo", "k", "p" and "p-values", so that any other is an argparse
    error.  Each flag's dest is the ``run_casestudy`` keyword it sets."""
    c = studies.add_parser(name)
    if "topo" in flags:
        c.add_argument("--topo", dest="topo_name", default="abfattree20", choices=TOPOLOGIES)
    if "k" in flags:
        c.add_argument("--k", dest="ks", type=_failure_bounds, metavar="K",
                       help="comma-separated failure bounds, e.g. 0,1,2,inf")
    if "p" in flags:
        c.add_argument("--p", dest="p_fail", type=_fraction, default="1/4", metavar="P",
                       help="link failure probability")
    if "p-values" in flags:
        c.add_argument("--p-values", type=_fractions,
                       help="comma-separated sweep values for delivery tables")
    _add_common(c, "engine", "tol")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="pnk")
    subs = ap.add_subparsers(dest="cmd", required=True)

    s = subs.add_parser("equiv", help="decide program equivalence")
    s.add_argument("file1")
    s.add_argument("file2")
    s.add_argument("--inputs", default="all",
                   help="'all' or a JSON file with 'sets'/'all_subsets_of'")
    _add_common(s, "universe", "engine", "tol", "cap-subsets")

    s = subs.add_parser("leq", help="decide the program order")
    s.add_argument("file1")
    s.add_argument("file2")
    s.add_argument("--inputs", default="all")
    _add_common(s, "universe", "engine", "tol", "cap-subsets")

    s = subs.add_parser("dist", help="output distribution on one input")
    s.add_argument("file1")
    s.add_argument("--on", required=True, help="JSON packet-record list (or file)")
    _add_common(s, "universe", "engine")

    s = subs.add_parser("query", help="scalar measure of the output distribution")
    s.add_argument("file1")
    s.add_argument("--on", required=True)
    s.add_argument("--measure", required=True,
                   help="prob-nonempty | prob-satisfies:PRED[:all|some] | "
                        "expected:FIELD | cdf:FIELD:THRESHOLD")
    _add_common(s, "universe", "engine")

    s = subs.add_parser("sample", help="Monte Carlo estimate on one input")
    s.add_argument("file1")
    s.add_argument("--on", required=True)
    s.add_argument("-n", "--samples", type=_positive_int, default=10_000)
    s.add_argument("--star-depth", type=_positive_int, default=DEFAULT_STAR_DEPTH)
    s.add_argument("--seed", type=int, default=0)
    _add_common(s, "universe")

    s = subs.add_parser("casestudy", help="run a named case study")
    studies = s.add_subparsers(dest="name", required=True)
    _add_study(studies, "toy-overview")
    _add_study(studies, "f10-resilience", "topo", "k", "p")
    _add_study(studies, "f10-latency", "topo", "p", "p-values")

    args = ap.parse_args(argv)
    if "exact" in args:  # the mode: how to print, and the tolerance of decisions
        if args.exact is None:
            args.exact = getattr(args, "name", None) != "f10-latency"
        tol = getattr(args, "tol", None)
        if args.exact and tol is not None:
            subs.choices[args.cmd].error("argument --tol: needs --float "
                                         "(exact mode compares exactly)")
        args.tol = 0 if args.exact else FLOAT_TOL if tol is None else tol
    try:
        return _dispatch(args)
    except PnkError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except (OSError, json.JSONDecodeError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    fmt = args.format
    if args.cmd == "sample":
        uni, p = _load_program(args.file1, _load_universe(args))
        aset = _packets_arg(args.on, uni)
        est = estimate(p, aset, uni, args.samples, seed=args.seed,
                       star_depth=args.star_depth)
        _emit({
            "samples": args.samples,
            "completed": est.n_completed,
            "truncated": est.n_truncated,
            "support": [
                {"set": uni.set_to_records(b), "prob": est.prob(b)}
                for b in sorted(est.counts, key=sorted)
            ],
        }, fmt)
        return 0
    code, table = 0, None
    if args.cmd in ("equiv", "leq"):
        uni, p, q = _load_two(args)
        decide = equiv if args.cmd == "equiv" else leq
        verdict = decide(p, q, _input_spec(args, uni), uni, tol=args.tol,
                         state_budget=args.max_states)
        report = _verdict_report(verdict, uni, args.exact)
        code = 0 if verdict.holds() else 1
    elif args.cmd == "dist":
        uni, p = _load_program(args.file1, _load_universe(args))
        aset = _packets_arg(args.on, uni)
        row = Kernel(p, uni, state_budget=args.max_states).apply(aset)
        prob = str if args.exact else lambda x: repr(float(x))
        report = {"support": [{"set": uni.set_to_records(b), "prob": prob(x)}
                              for b, x in row.as_dict().items()],
                  "input": uni.set_to_records(aset)}
        table = "support"  # the input set is a list of packet records too
    elif args.cmd == "query":
        uni, p = _load_program(args.file1, _load_universe(args))
        aset = _packets_arg(args.on, uni)
        measure = _parse_measure(args.measure, uni)
        report = {"measure": args.measure,
                  "value": query(p, aset, measure, uni, state_budget=args.max_states)}
    else:
        study = {key: getattr(args, key) for key in
                 ("topo_name", "ks", "p_fail", "p_values") if key in args}
        report = cs.run_casestudy(args.name, tol=args.tol,
                                  state_budget=args.max_states, **study)
        if args.name == "f10-latency":
            report["mode"] = "exact" if args.exact else "float"
    _emit(report if args.exact else _rounded(report), fmt, table)
    return code


if __name__ == "__main__":
    sys.exit(main())
