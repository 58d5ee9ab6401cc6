import csv
import hashlib
import io
import json
from fractions import Fraction

import pytest

from pnk.casestudy import run_casestudy
from pnk.cli import FLOAT_TOL, main
from pnk.netlib import COUNTER_DOMAIN, toy
from pnk.syntax import pretty


@pytest.fixture
def progdir(tmp_path):
    def write(name, text):
        path = tmp_path / name
        path.write_text(text)
        return str(path)
    return write


LOOP = "fields { f : 2 }\nwhile !(f=0) do (skip +[1/2] f:=0)\n"
ASSIGN0 = "fields { f : 2 }\nf:=0\n"
ASSIGN1 = "fields { f : 2 }\nf:=1\n"
COIN = "fields { f : 2 }\nf:=0 +[1/2] f:=1\n"


def test_equiv_exit_codes(progdir, capsys):
    loop, a0, a1 = progdir("l.pnk", LOOP), progdir("a0.pnk", ASSIGN0), progdir("a1.pnk", ASSIGN1)
    assert main(["equiv", loop, a0]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["result"] == "equal"
    assert main(["equiv", a0, a1]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["witness"]["input"] == [{"f": 0}]


def test_equiv_error_exit_code(progdir, capsys):
    bad = progdir("bad.pnk", "fields { f : 2 }\nf=\n")
    good = progdir("g.pnk", ASSIGN0)
    assert main(["equiv", bad, good]) == 2
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["dist", "equiv"])
def test_deep_program_is_an_error(progdir, capsys, cmd):
    deep = progdir("deep.pnk", "fields { f : 2 }\n" + "(" * 200 + "f:=1" + ")" * 200)
    args = ["dist", deep, "--on", '[{"f":1}]'] if cmd == "dist" else [cmd, deep, deep]
    assert main(args) == 2
    assert capsys.readouterr().err.startswith("error: 2:")


def test_universe_mismatch_is_error(progdir, capsys):
    a = progdir("a.pnk", "fields { f : 2 }\nskip\n")
    b = progdir("b.pnk", "fields { f : 3 }\nskip\n")
    assert main(["equiv", a, b]) == 2


def test_star_equivalences(progdir, capsys):
    s1 = progdir("s1.pnk", "fields { f : 2 }\nskip*\n")
    s2 = progdir("s2.pnk", "fields { f : 2 }\nskip\n")
    assert main(["equiv", s1, s2]) == 0


def test_leq_exit_codes(progdir, capsys):
    d = progdir("d.pnk", "fields { f : 2 }\ndrop\n")
    s = progdir("s.pnk", "fields { f : 2 }\nskip\n")
    assert main(["leq", d, s]) == 0
    assert main(["leq", s, d]) == 1


def test_dist_output_is_stable(progdir, capsys):
    loop = progdir("l.pnk", LOOP)
    assert main(["dist", loop, "--on", '[{"f":1}]']) == 0
    first = capsys.readouterr().out
    assert main(["dist", loop, "--on", '[{"f":1}]']) == 0
    assert capsys.readouterr().out == first
    obj = json.loads(first)
    assert obj["support"] == [{"set": [{"f": 0}], "prob": "1"}]


def test_query_toy_delivery(progdir, capsys):
    net = toy()
    text = "fields { sw : 4 ; pt : 4 ; up2 : 2 ; up3 : 2 }\n" + pretty(
        net.wrapped(net.p, net.f2()))
    prog = progdir("naive.pnk", text)
    on = json.dumps([{"sw": 1, "pt": 1, "up2": 0, "up3": 0}])
    assert main(["query", prog, "--on", on, "--measure", "prob-nonempty"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["value"] == "4/5"


def test_sample_agrees_with_dist(progdir, capsys):
    coin = progdir("c.pnk", "fields { f : 2 }\nf:=0 +[1/2] f:=1\n")
    assert main(["sample", coin, "--on", '[{"f":0}]', "-n", "4000",
                 "--seed", "5"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["truncated"] == 0
    # exact probability 1/2 each; three standard errors ~ 0.024
    for entry in out["support"]:
        assert abs(entry["prob"] - 0.5) < 0.024


def test_casestudy_toy_overview(capsys):
    assert main(["casestudy", "toy-overview"]) == 0
    out = json.loads(capsys.readouterr().out)
    checks = out["checks"]
    assert checks["delivery_naive_f2"] == "4/5"
    assert checks["delivery_resilient_f2"] == "24/25"
    assert checks["model_eq_refined_f0"] == "equal"
    assert checks["naive_f1_eq_teleport"] == "not-equal"


def test_casestudy_toy_overview_float_honours_tol(capsys):
    # Under f1 the naive scheme drops the packet with probability 1/4, so it
    # is within a tolerance of 1/2 of teleportation, and not within 1e-9.
    for tol, verdict in (([], "not-equal"), (["--tol", "0.5"], "equal")):
        assert main(["casestudy", "toy-overview", "--float", *tol]) == 0
        assert json.loads(capsys.readouterr().out)["checks"]["naive_f1_eq_teleport"] == verdict


# Each subcommand's CSV, with COIN and A0 standing for two program files.
CSV_COMMANDS = {
    "dist": ["dist", "COIN", "--on", '[{"f": 0}]'],
    "sample": ["sample", "COIN", "--on", '[{"f": 0}]', "-n", "200"],
    "query": ["query", "COIN", "--on", '[{"f": 0}]', "--measure", "prob-nonempty"],
    "equiv": ["equiv", "A0", "COIN", "--float"],
    "leq": ["leq", "COIN", "A0"],
    "toy-overview": ["casestudy", "toy-overview"],
}


def _same(cell: str, value) -> bool:
    """Whether a CSV cell holds the value of the JSON report."""
    if isinstance(value, (dict, list, bool)) or value is None:
        return json.loads(cell) == value
    if isinstance(value, float):
        return float(cell) == value
    return cell == str(value)


def _assert_table_holds_report(rows, obj, table):
    """The CSV ``rows`` are the report's ``table``, one row per entry, and
    every other entry of the report is a constant column."""
    head, *body = rows
    consts = [k for k in obj if k != table]
    assert sorted(head) == sorted([*obj[table][0], *consts])
    assert len(body) == len(obj[table]) > 0
    for row, entry in zip(body, obj[table]):
        assert len(row) == len(head)
        cells = dict(zip(head, row))
        assert all(_same(cells[k], v) for k, v in entry.items())
        assert all(_same(cells[k], obj[k]) for k in consts)


@pytest.mark.parametrize("cmd", CSV_COMMANDS)
def test_csv_output_parses_to_the_json_report(progdir, capsys, cmd):
    files = {"COIN": progdir("c.pnk", COIN), "A0": progdir("a0.pnk", ASSIGN0)}
    argv = [files.get(a, a) for a in CSV_COMMANDS[cmd]]
    code = main(argv)
    obj = json.loads(capsys.readouterr().out)
    assert main(argv + ["--format", "csv"]) == code
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    if "support" in obj:  # a table: one row per outcome
        _assert_table_holds_report(rows, obj, "support")
        assert rows[0][:2] == ["set", "prob"]
    else:  # one key,value row per entry
        assert all(len(row) == 2 for row in rows)
        assert dict(rows).keys() == obj.keys()
        assert all(_same(cell, obj[key]) for key, cell in rows)


def test_casestudy_csv_keeps_every_entry(capsys):
    # f10-latency's hop CDF is a constant column of its delivery table.
    args = ["casestudy", "f10-latency", "--p-values", "1/2"]
    assert main(args) == 0
    obj = json.loads(capsys.readouterr().out)
    assert main(args + ["--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert "hop_cdf" in rows[0]
    _assert_table_holds_report(rows, obj, "delivery_vs_p")


def test_csv_refuses_a_report_with_two_tables(capsys):
    # The fattree20 grid comes with a second table, f10_0_eq_f10_3.
    args = ["casestudy", "f10-resilience", "--topo", "fattree20", "--k", "0"]
    assert main(args + ["--format", "csv"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "grid" in err and "f10_0_eq_f10_3" in err


def test_casestudy_csv_format(capsys):
    assert main(["casestudy", "f10-resilience", "--topo", "abfattree12",
                 "--k", "0,1", "--format", "csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0].startswith("k,f10_0")
    assert len(lines) == 3


def test_casestudy_on_the_k6_ab_fattree(capsys):
    args = ["casestudy", "f10-resilience", "--exact", "--topo", "abfattree45",
            "--k", "0,1", "--format", "csv"]
    assert main(args) == 0
    rows = [line.split(",") for line in capsys.readouterr().out.split()]
    head = rows[0]
    verdicts = [[row[head.index(s)] for s in ("f10_0", "f10_3", "f10_35")]
                for row in rows[1:]]
    assert verdicts == [["yes", "yes", "yes"], ["no", "yes", "yes"]]


def test_casestudy_float_verdicts_honour_tol(capsys):
    # Exact mode says f10_0 "no", f10_3 and f10_35 "yes" for this cell.
    # Float rows are the exact rows correctly rounded, so the f10_3 and
    # f10_35 rows deliver exactly 1.0 and float mode gives the exact grid
    # even at a tolerance of 0.  f10_0 rows miss teleportation by 3/7, so
    # a tolerance of 1/2 accepts them.
    args = ["casestudy", "f10-resilience", "--float", "--k", "2", "--p", "3/7"]
    for tol in ([], ["--tol", "0"]):
        assert main(args + tol) == 0
        (row,) = json.loads(capsys.readouterr().out)["grid"]
        assert (row["f10_0"], row["f10_3"], row["f10_35"]) == ("no", "yes", "yes")
    assert main(args + ["--tol", "0.5"]) == 0
    (row,) = json.loads(capsys.readouterr().out)["grid"]
    assert row["f10_0"] == "yes"


# The sha256 of two float case studies and of the exact fattree20 grid: of
# the CLI's JSON output, and of the exact report the library returns, which
# the CLI rounds in float mode.  Each float printed is an exact number
# correctly rounded, so a change to an exact row fails here.  The fattree20
# case is the one that reaches ``fattree_scheme_equivalence``.  The digests
# are the same on CPython 3.10 and 3.11.
PINNED_FLOAT_CASESTUDIES = [
    (["casestudy", "f10-latency"], {},
     "62248005af9fd5237c1e1ff318ed7e1c4036d67224f8b2861bcd96e2bd382470",
     "974a082fd9f2e8c4ec3c98bad13c258775fd3f6dda59f4a8b95ef381265ba930"),
    (["casestudy", "f10-resilience", "--float", "--k", "2", "--p", "3/7"],
     {"ks": [2], "p_fail": Fraction(3, 7), "tol": FLOAT_TOL},
     "3c94cc3abb7e6f8e888e8c9941dba448b63aec254c0c68745ffd644c1957430e",
     "c8a86c340bb89023de87e80407c7ef036a0efef2f4629d418c8193cb99f40c2a"),
    (["casestudy", "f10-resilience", "--exact", "--topo", "fattree20", "--k", "0,1,inf"],
     {"topo_name": "fattree20", "ks": [0, 1, None]},
     "0b27f7f607610d9632b2b0d3267549f2c47b010b43fd8468bfb4b799187d27a5",
     "e9eb15a1fbb43b04f9bdaac6b50ac0420ea731cff0e63066a766bd56e03c0c50"),
]


@pytest.mark.parametrize("args, kwargs, output_sha, report_sha", PINNED_FLOAT_CASESTUDIES,
                         ids=["f10-latency", "f10-resilience-float",
                              "f10-resilience-fattree20"])
def test_float_casestudy_output_is_pinned(capsys, args, kwargs, output_sha, report_sha):
    assert main(args) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == output_sha
    report = run_casestudy(args[1], **kwargs)
    assert hashlib.sha256(repr(report).encode()).hexdigest() == report_sha


# ``pnk dist --float`` on three inputs, as (program, packets, sha256 of the
# JSON output, sha256 of the CSV output): a coin, a two-packet input, and
# nested stars.  Each probability prints as a number, the double nearest
# the exact one to 12 digits, as every other float report prints one.
PINNED_FLOAT_DISTS = {
    "coin": (COIN, '[{"f": 0}]',
             "863b0ffaf5fc4b4e49c584859a4c54e8637983bd9281b1d6714407227c72c210",
             "21a935cb0cc72ddb05c44971a03cfa29586b2b5a57fe165a73df274541bea803"),
    "two-packets": (
        "fields { f : 3 ; g : 2 }\n(f:=1 +[1/3] (f:=2 +[2/5] drop)) ; (g:=1 +[1/7] skip)\n",
        '[{"f": 0, "g": 0}, {"f": 2, "g": 1}]',
        "eeac3fad07be6f30dea0c3f409eb01e89bc4e611ac986ad8738bb396ba985914",
        "8af25f54ddf35c4760f25f23204023c663891721fb19505a86c9ac9d6aff97fc"),
    "nested-stars": (
        "fields { f : 4 ; g : 2 }\n((f:=1 +[1/4] drop)* ; (g:=1 +[2/3] drop))*\n",
        '[{"f": 0, "g": 0}, {"f": 2, "g": 0}]',
        "cfd1e86c369d3b646a7edab676f2d958b318ab56eeb10e3bd7dd4b708eabc097",
        "18c86cc214b169bfecdc916fb9548fa81ba3f27f886734543cf35c44056a492e"),
}


@pytest.mark.parametrize("name", PINNED_FLOAT_DISTS)
def test_float_dist_output_is_pinned(progdir, capsys, name):
    text, on, json_sha, csv_sha = PINNED_FLOAT_DISTS[name]
    path = progdir("p.pnk", text)
    for fmt, sha in (("json", json_sha), ("csv", csv_sha)):
        assert main(["dist", path, "--on", on, "--float", "--format", fmt]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == sha


# Per case study: its arguments, the extra ones of float mode, and the
# number of floats in its float JSON.  For f10-latency, per scheme, a cdf
# point per counter value, the delivery and the expected hop count, and in
# the sweep a row of three per probability.
ROUNDED_CASESTUDIES = {
    "f10-latency": ([], [], 3 * (COUNTER_DOMAIN + 2) + 5 * 3),
    "f10-resilience": (["--k", "2", "--p", "3/7"], ["--tol", "0"], 3),
    "toy-overview": ([], [], 2),
}


@pytest.mark.parametrize("name", ROUNDED_CASESTUDIES)
def test_float_output_is_the_exact_output_rounded(capsys, name):
    # The float JSON is the exact JSON with each rational printed as its
    # nearest double to 12 digits.
    args, float_args, n_floats = ROUNDED_CASESTUDIES[name]
    assert main(["casestudy", name, *args, "--exact"]) == 0
    exact = json.loads(capsys.readouterr().out)
    assert main(["casestudy", name, *args, "--float", *float_args]) == 0
    rounded = json.loads(capsys.readouterr().out)
    if name == "f10-latency":
        assert (exact.pop("mode"), rounded.pop("mode")) == ("exact", "float")
    pairs, floats = [(exact, rounded)], 0
    while pairs:
        x, r = pairs.pop()
        if isinstance(r, dict):
            assert r.keys() == x.keys()
            pairs += [(x[k], r[k]) for k in r]
        elif isinstance(r, list):
            assert len(r) == len(x)
            pairs += zip(x, r)
        elif isinstance(r, float):
            assert r == float(f"{float(Fraction(x)):.12g}")
            floats += 1
        else:
            assert r == x
    assert floats == n_floats


def test_float_equiv_honours_tol(progdir, capsys):
    # The two coins differ by 1e-12, well inside the default tolerance.
    p = progdir("p.pnk", "fields { f : 2 }\nf:=0 +[1/2] f:=1\n")
    q = progdir("q.pnk", "fields { f : 2 }\nf:=0 +[500000000001/1000000000000] f:=1\n")
    assert main(["equiv", "--float", p, q]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "equal"
    for tol in ("0", "1e-13"):
        assert main(["equiv", "--float", "--tol", tol, p, q]) == 1
        out = json.loads(capsys.readouterr().out)
        assert out["result"] == "not-equal" and out["tolerance"] == float(tol)
        assert out["witness"]["input"] == [{"f": 0}]


def test_tol_needs_float_mode(progdir, capsys):
    # Exact mode compares exactly, so a tolerance there is an error rather
    # than ignored: these two differ by 2/3 and are within 0.5 nowhere.
    coin = progdir("c.pnk", "fields { f : 2 }\nf:=0 +[1/3] f:=1\n")
    a0 = progdir("a0.pnk", ASSIGN0)
    for argv in (["equiv", "--tol", "0.5", coin, a0],
                 ["casestudy", "toy-overview", "--tol", "0.5"]):
        with pytest.raises(SystemExit) as exit_:
            main(argv)
        assert exit_.value.code == 2
        assert "error: argument --tol" in capsys.readouterr().err
    assert main(["equiv", "--float", "--tol", "0.5", coin, a0]) == 1
    assert main(["casestudy", "f10-latency", "--p-values", "1/2", "--tol", "0.5"]) == 0


def test_float_leq_at_zero_tol_on_pair_129(progdir, capsys):
    # The exact up-set of the empty set is 1 on both sides; summed in
    # floats, the right side read 0.9999999999999999.
    fields = "fields { f : 2 ; g : 2 }\n"
    skip = progdir("skip.pnk", fields + "skip\n")
    p129 = progdir("p129.pnk", fields + "skip & ((f=0 +[1/3] g:=0) & (f=0 +[3/4] f:=1)) ; skip\n")
    assert main(["leq", "--float", "--tol", "0", skip, p129]) == 0
    assert json.loads(capsys.readouterr().out)["result"] == "leq"


@pytest.mark.parametrize("args", [
    ["casestudy", "f10-resilience", "--p", "1/0"],
    ["casestudy", "f10-latency", "--p-values", "1/10,1/0"],
    ["query", "COIN", "--on", '[{"f": 0}]', "--measure", "cdf:f"],
    ["query", "COIN", "--on", '[{"f": 0}]', "--measure", "expected"],
    ["query", "COIN", "--on", '[{"f": 0}]', "--measure", "expected:zz"],
    ["query", "COIN", "--on", '[{"f": 0}]', "--measure", "prob-nonempty:f"],
], ids=["p", "p-values", "cdf-arity", "expected-arity", "expected-field", "nonempty-arity"])
def test_malformed_arguments_are_errors(progdir, capsys, args):
    argv = [progdir("c.pnk", COIN) if a == "COIN" else a for a in args]
    try:
        code = main(argv)
    except SystemExit as exit_:  # argparse rejects it
        code = exit_.code
    assert code == 2
    assert "error: " in capsys.readouterr().err


def test_casestudy_rejects_out_of_range_failures(capsys):
    base = ["casestudy", "f10-resilience", "--topo", "abfattree12"]
    assert main(base + ["--k", "1", "--p", "3/2"]) == 2
    assert "failure probability" in capsys.readouterr().err
    assert main(base + ["--k", "-1"]) == 2
    assert "failure bound" in capsys.readouterr().err


def test_max_states_env(progdir, capsys):
    star = progdir("s.pnk", "fields { f : 2 }\n(f:=0 +[1/2] f:=1)*\n")
    skip = progdir("k.pnk", "fields { f : 2 }\nskip\n")
    assert main(["equiv", star, skip, "--max-states", "2"]) == 2
    err = capsys.readouterr().err
    assert "budget" in err
    assert "states reached" in err and "distinct accumulators" in err


def test_max_states_bounds_only_chains_of_stars_with_a_choice(progdir, capsys):
    # A loop whose body has no choice is its body's reachability closure:
    # it builds no pair chain, so a budget of 2 pair states does not bind.
    loop = progdir("w.pnk", "fields { f : 4 }\n"
                   "while !(f=3) do (if f=0 then f:=1 else (if f=1 then f:=2 else f:=3))\n")
    assert main(["dist", loop, "--on", '[{"f": 0}]', "--max-states", "2"]) == 0
    assert json.loads(capsys.readouterr().out)["support"] == [
        {"prob": "1", "set": [{"f": 3}]}]


def test_a_program_too_deep_once_desugared_says_so(progdir, capsys):
    # 61 nested loops are 62 levels deep as written, and each loop is built
    # as the core nodes it stands for, three or four levels deeper than its
    # body.
    deep = progdir("deep.pnk", "fields { f : 2 }\n" + "while f=0 do " * 61 + "f:=1\n")
    assert main(["dist", deep, "--on", '[{"f": 0}]']) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: program nests deeper than 150 levels")


# Explicit ids keep each case's name in the suite's output as cases come and go.
@pytest.mark.parametrize("args", [
    ["--max-states", "-5"],
    ["--max-states", "0"],
    ["--max-states", "abc"],
    ["--cap-subsets", "0"],
    ["sample", "-n", "-3"],
    ["sample", "--samples", "0"],
    ["sample", "--star-depth", "0"],
    ["sample", "--star-depth", "-1"],
], ids=[f"args{i}-None" for i in (0, 1, 2, 5, 6, 7, 8, 9)])
def test_counts_must_be_positive_integers(progdir, capsys, args):
    a0 = progdir("a0.pnk", ASSIGN0)
    if args[:1] == ["sample"]:
        argv = ["sample", a0, "--on", '[{"f": 0}]'] + args[1:]
    else:
        argv = ["equiv", a0, a0] + args
    with pytest.raises(SystemExit) as exit_:
        main(argv)
    assert exit_.value.code == 2
    assert "error: argument" in capsys.readouterr().err


@pytest.mark.parametrize("tol", ["inf", "nan", "-0.5", "abc"])
def test_tolerance_must_be_finite_and_non_negative(progdir, capsys, tol):
    a0 = progdir("a0.pnk", ASSIGN0)
    with pytest.raises(SystemExit) as exit_:
        main(["equiv", "--float", "--tol", tol, a0, a0])
    assert exit_.value.code == 2
    assert "error: argument --tol: expected a finite non-negative number" in capsys.readouterr().err


def test_seed_is_a_sample_flag_only(progdir, capsys):
    a0 = progdir("a0.pnk", ASSIGN0)
    with pytest.raises(SystemExit) as exit_:
        main(["equiv", a0, a0, "--seed", "1"])
    assert exit_.value.code == 2
    assert "unrecognized arguments: --seed 1" in capsys.readouterr().err


def test_flags_belong_to_the_subcommands_that_read_them(progdir, capsys):
    a0 = progdir("a0.pnk", ASSIGN0)
    on = ["--on", '[{"f": 0}]']
    for argv, flag in ((["sample", a0, *on], "--tol 0"), (["dist", a0, *on], "--p 1/2"),
                       (["casestudy", "toy-overview"], "--jobs 2")):
        with pytest.raises(SystemExit) as exit_:
            main(argv + flag.split())
        assert exit_.value.code == 2
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


def test_universe_file_flag(progdir, capsys, tmp_path):
    upath = tmp_path / "u.json"
    upath.write_text('{"fields":[{"name":"f","size":2}]}')
    p = progdir("p.pnk", "f:=0\n")
    q = progdir("q.pnk", "f:=0\n")
    assert main(["equiv", str(p), str(q), "--universe", str(upath)]) == 0


# Malformed packet records, for --on and in an --inputs file: each is an
# error (exit 2), never a traceback, and for equiv and leq never exit 1,
# which would read as "not equal" or "not leq".
MALFORMED_ON = ['{"f": 0}', "[1]", "5", '[{"f": "0"}]']
MALFORMED_INPUTS = ['{"sets": [{"f": 0}]}', '{"sets": [[{"f": "0"}]]}', "5"]


@pytest.mark.parametrize("cmd", ["dist", "query", "sample"])
@pytest.mark.parametrize("on", MALFORMED_ON)
def test_malformed_on_records_are_errors(progdir, capsys, cmd, on):
    extra = {"query": ["--measure", "prob-nonempty"], "sample": ["-n", "5"]}.get(cmd, [])
    assert main([cmd, progdir("c.pnk", COIN), "--on", on, *extra]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("cmd", ["equiv", "leq"])
@pytest.mark.parametrize("inputs", MALFORMED_INPUTS)
def test_malformed_input_files_are_errors(progdir, capsys, cmd, inputs):
    spec = progdir("inputs.json", inputs)
    assert main([cmd, progdir("c.pnk", COIN), progdir("a0.pnk", ASSIGN0),
                 "--inputs", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ")


@pytest.mark.parametrize("study, flag", [
    ("toy-overview", "--topo abfattree12"),
    ("toy-overview", "--k 0"),
    ("toy-overview", "--p 1/2"),
    ("toy-overview", "--p-values 1/2"),
    ("f10-latency", "--k 0"),
    ("f10-resilience", "--p-values 1/2"),
])
def test_a_case_study_rejects_the_flags_it_does_not_read(capsys, study, flag):
    with pytest.raises(SystemExit) as exit_:
        main(["casestudy", study, *flag.split()])
    assert exit_.value.code == 2
    assert f"unrecognized arguments: {flag}" in capsys.readouterr().err


# A universe of 2^71 packets and one of 128 in which the packets with f, g
# < 8 sort alike by index.  Over the huge one, any walk over the universe
# would overflow or hang; every command here must instead print what it
# prints over the small one.
HUGE = "fields { f : 1099511627776 ; g : 1073741824 ; h : 2 }\n"
SMALL = "fields { f : 8 ; g : 8 ; h : 2 }\n"
WALK = "(f=1 ; (f:=2 +[1/3] g:=5)) & (h=1 ; f:=7) & (!(f=1) ; (f:=0 +[1/2] f:={}))*\n"
ON = json.dumps([{"f": 1, "g": 0, "h": 0}, {"f": 3, "g": 2, "h": 1}])
ON_ONE = json.dumps([{"f": 3, "g": 2, "h": 1}])  # g and h constant on every outcome
INPUTS = json.dumps({"sets": [[], [{"f": 1, "g": 7, "h": 0}],
                              [{"f": 0, "g": 2, "h": 1}, {"f": 6, "g": 3, "h": 0}]]})
SUBSETS = json.dumps({"all_subsets_of": [{"f": 1, "g": 0, "h": 1}, {"f": 5, "g": 4, "h": 0}]})
HUGE_UNIVERSE_COMMANDS = {
    "dist": ["dist", "P", "--on", ON],
    "query": ["query", "P", "--on", ON, "--measure", "prob-satisfies:f=2"],
    "expected": ["query", "P", "--on", ON_ONE, "--measure", "expected:h"],
    "cdf": ["query", "P", "--on", ON_ONE, "--measure", "cdf:g:2"],
    "sample": ["sample", "P", "--on", ON, "-n", "300", "--seed", "4"],
    "equiv": ["equiv", "P", "Q", "--inputs", "INPUTS"],
    "equiv-subsets": ["equiv", "P", "Q", "--inputs", "SUBSETS"],
    "leq": ["leq", "P", "Q", "--inputs", "INPUTS"],
    "leq-subsets": ["leq", "Q", "P", "--inputs", "SUBSETS", "--float"],
}


@pytest.mark.parametrize("cmd", HUGE_UNIVERSE_COMMANDS)
def test_a_huge_universe_prints_what_a_small_one_does(progdir, capsys, cmd):
    outputs = []
    for name, header in (("huge", HUGE), ("small", SMALL)):
        files = {"P": progdir(f"{name}-p.pnk", header + WALK.format(1)),
                 "Q": progdir(f"{name}-q.pnk", header + WALK.format(3)),
                 "INPUTS": progdir("inputs.json", INPUTS),
                 "SUBSETS": progdir("subsets.json", SUBSETS)}
        code = main([files.get(a, a) for a in HUGE_UNIVERSE_COMMANDS[cmd]])
        outputs.append((code, capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert outputs[0][0] in (0, 1) and outputs[0][1].err == ""


def test_all_inputs_of_a_huge_universe_exceed_the_subset_cap(progdir, capsys):
    p = progdir("p.pnk", HUGE + WALK.format(1))
    assert main(["equiv", p, p, "--inputs", "all"]) == 2
    assert capsys.readouterr().err == ("error: all-subsets over 2361183241434822606848 "
                                       "packets exceeds the cap of 12\n")


def test_all_inputs_of_a_choice_free_pair_are_capped_by_rows(progdir, capsys):
    # A choice-free pair over 2,048 packets needs the empty set and the
    # 2,048 singletons as rows, within 2^12: it is decided at the default
    # cap, with the verdict and witness of an explicit spec of those rows.
    header = "fields { f : 32 ; g : 64 }\n"
    p = progdir("p.pnk", header + "(f=3 ; g:=5) & (f=7 ; g:=1)\n")
    q = progdir("q.pnk", header + "f=3 ; g:=5\n")
    sets = [[]] + [[{"f": i % 32, "g": i // 32}] for i in range(32 * 64)]
    explicit = progdir("rows.json", json.dumps({"sets": sets}))
    outputs = []
    for inputs in ("all", explicit):
        for cmd in ("equiv", "leq"):
            code = main([cmd, p, q, "--inputs", inputs])
            outputs.append((cmd, code, capsys.readouterr()))
    assert outputs[:2] == outputs[2:]
    assert [code for _, code, _ in outputs[:2]] == [1, 1]
    assert json.loads(outputs[0][2].out)["witness"]["input"] == [{"f": 7, "g": 0}]


def test_all_inputs_of_a_probabilistic_pair_keep_the_base_cap(progdir, capsys):
    # A pair with a choice needs all 2^16 subsets of 16 packets: over 2^12.
    p = progdir("p.pnk", "fields { f : 16 }\nf:=0 +[1/2] f:=1\n")
    assert main(["equiv", p, p, "--inputs", "all"]) == 2
    assert capsys.readouterr().err == "error: all-subsets over 16 packets exceeds the cap of 12\n"
    assert main(["equiv", p, p, "--inputs", "all", "--cap-subsets", "16"]) == 0


def test_an_explicit_base_over_the_cap_is_capped_by_rows(progdir, capsys):
    # All subsets of 13 packets, one over the default cap of 12: a
    # choice-free pair needs the empty set and the 13 singletons as rows and
    # is decided; a pair with a choice needs 2^13 rows and is refused.
    header = "fields { f : 16 }\n"
    base = progdir("base.json", json.dumps({"all_subsets_of": [{"f": i} for i in range(13)]}))
    p = progdir("p.pnk", header + "f=3 ; f:=5\n")
    q = progdir("q.pnk", header + "(f=3 ; f:=5) & (f=12 ; f:=5)\n")
    assert main(["equiv", p, p, "--inputs", base]) == 0
    capsys.readouterr()
    assert main(["equiv", p, q, "--inputs", base]) == 1
    assert json.loads(capsys.readouterr().out)["witness"]["input"] == [{"f": 12}]
    coin = progdir("coin.pnk", header + "f:=0 +[1/2] f:=1\n")
    assert main(["equiv", coin, coin, "--inputs", base]) == 2
    assert capsys.readouterr().err == "error: all-subsets over 13 packets exceeds the cap of 12\n"
