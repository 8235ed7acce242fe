"""The CLI is a thin adapter: outputs must match direct library calls."""

import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from _strategies import graphs
from lmss.bitset import bits
from lmss.cli import _json_text, _parse_gen_expr, build_parser, main
from lmss.graph import (
    MAX_EDGE_LIST_VERTICES,
    complete,
    edgeless,
    named_fixture,
    parse_graph6,
    path,
    random_graph,
    to_graph6,
)
from lmss.greedoid import EXCHANGE_FAIL, GreedoidVerdict, is_greedoid
from lmss.ops import zykov_sum
from lmss.stable import alpha, min_nonempty_size, psi
from lmss.theorems import sweep
from oracles import brute_psi, brute_verdict


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_psi_plain_matches_library(capsys):
    code, out, _ = run_cli(capsys, "psi", "--fixture", "W_FIG1")
    assert code == 0
    w = named_fixture("W_FIG1")
    fam = psi(w)
    lines = out.splitlines()
    assert f"alpha: {alpha(w)}" in lines
    assert f"psi_size: {len(fam)} (includes the empty set)" in lines
    assert f"psi_min_size: {min_nonempty_size(fam)}" in lines
    assert "{e,g}" in lines and "{d,g}" in lines
    assert "{d}" not in lines and "{g}" not in lines
    # one line per member, in canonical order
    member_lines = [ln for ln in lines if ln.startswith("{")]
    assert len(member_lines) == len(fam)


def test_psi_json_matches_library(capsys):
    code, out, _ = run_cli(capsys, "psi", "--fixture", "G4_FIG3", "--format", "json")
    assert code == 0
    data = json.loads(out)
    g = named_fixture("G4_FIG3")
    fam = psi(g)
    assert data["n"] == g.n
    assert data["alpha"] == alpha(g)
    assert data["family_size"] == len(fam)
    assert data["includes_empty"] is True
    assert data["members"] == [list(bits(m)) for m in fam]
    assert data["graph6"] == to_graph6(g).decode()


@given(st.one_of(graphs(max_n=10), graphs(min_n=11, max_n=14)))
@example(edgeless(0))
@example(edgeless(12))
@example(random_graph(14, 3, 10, 1))
@settings(max_examples=60, deadline=None)
def test_psi_json_bytes_match_json_dumps(g):
    # the members are written straight from their masks; the bytes are
    # json.dumps's, two-digit vertex names and 4,096 members included
    text = to_graph6(g).decode()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["psi", "--graph6", text, "--format", "json"]) == 0
    got = out.getvalue()
    fam = psi(g)
    want = json.dumps({
        "graph6": text,
        "n": g.n,
        "alpha": alpha(g),
        "family_size": len(fam),
        "includes_empty": True,
        "psi_min_size": min_nonempty_size(fam),
        "members": [list(bits(m)) for m in fam],
    }, sort_keys=True, indent=2) + "\n"
    # compare the common prefix's length, not the texts: pytest's line diff
    # of two texts with 4,096 members each takes minutes
    same = len(os.path.commonprefix([got, want]))
    assert (same, len(got)) == (len(want), len(want)), got[same:same + 80]


@given(st.one_of(graphs(max_n=10), st.integers(0, 10).map(edgeless), st.integers(1, 10).map(complete)))
@settings(max_examples=80, deadline=None)
def test_psi_prints_alpha_of_the_graph(g):
    # the alpha line is the size of the family's largest member
    text = to_graph6(g).decode()
    printed = []
    for fmt in ("plain", "json"):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["psi", "--graph6", text, "--format", fmt]) == 0
        printed.append(out.getvalue())
    plain, as_json = printed
    assert f"alpha: {alpha(g)}" in plain.splitlines()
    assert json.loads(as_json)["alpha"] == alpha(g)


def test_json_output_is_byte_deterministic(capsys):
    _, out1, _ = run_cli(capsys, "psi", "--gen", "gnp:9:0.3", "--seed", "5", "--format", "json")
    _, out2, _ = run_cli(capsys, "psi", "--gen", "gnp:9:0.3", "--seed", "5", "--format", "json")
    assert out1 == out2


_JSON_LEAVES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(),
    st.integers(min_value=-(10**40), max_value=10**40),
    st.floats(),
    st.text(),
)


@given(st.recursive(
    _JSON_LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(st.one_of(st.booleans(), st.integers()), max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.dictionaries(st.text(max_size=4), inner, max_size=4),
    ),
    max_leaves=20,
))
def test_json_writer_matches_indented_dumps(obj):
    assert _json_text(obj) == json.dumps(obj, sort_keys=True, indent=2)


def test_check_exit_codes_and_json(capsys):
    code, out, _ = run_cli(capsys, "check", "--fixture", "G4_FIG3", "--format", "json")
    assert code == 0
    assert json.loads(out)["status"] == "GREEDOID"
    code, out, _ = run_cli(capsys, "check", "--fixture", "W_FIG1", "--format", "json")
    assert code == 1
    data = json.loads(out)
    assert data == is_greedoid(psi(named_fixture("W_FIG1"))).as_dict()
    assert data["witness_x"] == [3, 5]


# Psi(G) failed accessibility, not exchange, on every seeded G(n, p) tried
# (n 7-14), so these pin accessibility witnesses; one greedoid pins exit 0
@pytest.mark.parametrize(
    "n,num,den,seed", [(11, 1, 5, 2), (12, 3, 10, 3), (13, 1, 5, 3), (14, 3, 10, 0), (13, 1, 5, 4)]
)
def test_check_json_matches_definitional_oracle(capsys, n, num, den, seed):
    expr = f"gnp:{n}:{num}/{den}"
    code, out, _ = run_cli(capsys, "check", "--gen", expr, "--seed", str(seed), "--format", "json")
    expected = brute_verdict(brute_psi(random_graph(n, num, den, seed)), n)
    assert json.loads(out) == expected
    assert code == (0 if expected["status"] == "GREEDOID" else 1)


def test_check_plain_output(capsys):
    code, out, _ = run_cli(capsys, "check", "--fixture", "Z_P3_P3_FIG4")
    assert code == 1
    assert "status: ACCESSIBILITY_FAIL" in out
    assert "witness_x:" in out


def test_check_reports_an_exchange_failure(capsys, monkeypatch):
    # no graph is known whose Psi is accessible but fails exchange, so the
    # verdict is planted to reach the witness_y line
    monkeypatch.setattr("lmss.cli.is_greedoid", lambda f: GreedoidVerdict(
        EXCHANGE_FAIL, 0b1001, 0b10, len(f), f.universe))
    code, out, _ = run_cli(capsys, "check", "--fixture", "W_FIG1")
    assert code == 1
    assert out.splitlines() == [
        "status: EXCHANGE_FAIL", "witness_x: {a,d}", "witness_y: {b}", "family_size: 13", "universe: 7"]
    code, out, _ = run_cli(capsys, "check", "--fixture", "W_FIG1", "--format", "json")
    assert code == 1 and json.loads(out)["witness_y"] == [1]


def test_chain_success(capsys):
    code, out, _ = run_cli(capsys, "chain", "--fixture", "G2_FIG3", "{a,b,c}")
    assert code == 0
    assert out.strip() == "{} < {a} < {a,b} < {a,b,c}"


def test_chain_failure_exit_1(capsys):
    code, out, _ = run_cli(capsys, "chain", "--fixture", "W_FIG1", "{d,f}")
    assert code == 1
    assert "no chain" in out


def test_chain_json_success(capsys):
    code, out, _ = run_cli(capsys, "chain", "--fixture", "G2_FIG3", "{a,b,c}", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"chain": [[], [0], [0, 3], [0, 3, 4]], "ok": True}


def test_chain_json_failure_exit_1(capsys):
    code, out, _ = run_cli(capsys, "chain", "--fixture", "W_FIG1", "{d,f}", "--format", "json")
    assert code == 1
    assert json.loads(out) == {
        "error": "no accessibility chain: stuck at member with vertices [3, 5]", "ok": False}


def test_chain_non_member_exit_1(capsys):
    code, out, _ = run_cli(capsys, "chain", "--fixture", "W_FIG1", "{d}")
    assert code == 1
    assert "not a member" in out


def test_chain_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "chain", "--fixture", "W_FIG1", "{zz}")
    assert code == 2
    assert "error:" in err


@pytest.mark.parametrize("token", ["1_0", "+1", "\u0663", "9" * 5000])
def test_chain_vertex_index_is_ascii_decimal_digits(capsys, token):
    # int() alone reads {1_0} as vertex 10, which path:12 has
    code, out, err = run_cli(capsys, "chain", "--gen", "path:12", "{" + token + "}")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


_FLAGS = ("--seed", "--sweep", "--count")


@pytest.mark.parametrize("argv", [
    ["verify", "T1_NT", "--sweep", "1_0"],
    ["verify", "T1_NT", "--sweep", "\u0663", "--count", "+2"],
    ["verify", "T1_NT", "--count", " 2"],
    ["gen", "path:3", "--count", "+2"],
    ["psi", "--gen", "path:3", "--seed", "1_0"],
] + [
    # past 2**64 - 1: the first is too long for int() under its digit limit
    ["verify", "T1_NT", flag, value]
    for value in ("9" * 5000, str(1 << 64), "-" + "9" * 5000) for flag in _FLAGS
])
def test_integer_flags_are_ascii_decimal_digits(capsys, argv):
    # int() alone reads the first five, so --sweep 1_0 would sweep size 10
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    flag = next(a for a in argv if a in _FLAGS)
    assert f"argument {flag}: " in err and "_decimal" not in err


def test_integer_flags_keep_a_leading_minus(capsys):
    code, out, err = run_cli(capsys, "gen", "path:3", "--count", "-2")
    assert code == 2 and out == "" and "--count must be positive" in err
    assert run_cli(capsys, "gen", "gnp:5:1/2", "--seed", "-7")[0] == 0
    # the largest value a flag takes; the seed is read mod 2**64
    code, out, _ = run_cli(capsys, "gen", "gnp:9:1/2", "--seed", str((1 << 64) - 1))
    assert code == 0 and parse_graph6(out.strip()) == random_graph(9, 1, 2, (1 << 64) - 1)


def test_compose_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "compose", "zykov", "gen:complete:2", "gen:path:3", "--format", "json"
    )
    assert code == 0
    data = json.loads(out)
    z = zykov_sum([parse_graph6(b"A_"), path(3)])
    assert data["graph6"] == to_graph6(z.graph).decode()
    assert data["offsets"] == [0, 2]
    assert data["part_of"] == [0, 0, 1, 1, 1]
    assert data["host_vertices"] == []


def test_compose_corona_plain(capsys):
    code, out, _ = run_cli(
        capsys, "compose", "corona",
        "gen:complete:2", "gen:complete:1", "gen:complete:1",
    )
    assert code == 0
    assert out.startswith("graph6: ")
    assert "host: [0, 1]" in out


# every compose op, byte for byte, in both output formats
@pytest.mark.parametrize("argv, plain, data", [
    pytest.param(["union", "gen:path:3", "gen:cycle:4"],
                 "graph6: FgCGg\npart 0: offset 0 size 3\npart 1: offset 3 size 4\n",
                 {"graph6": "FgCGg", "host_vertices": [], "n": 7, "offsets": [0, 3],
                  "part_of": [0, 0, 0, 1, 1, 1, 1], "index_in_part": [0, 1, 2, 0, 1, 2, 3]},
                 id="union"),
    pytest.param(["zykov", "gen:complete:2", "gen:path:3"],
                 "graph6: D~s\npart 0: offset 0 size 2\npart 1: offset 2 size 3\n",
                 {"graph6": "D~s", "host_vertices": [], "n": 5, "offsets": [0, 2],
                  "part_of": [0, 0, 1, 1, 1], "index_in_part": [0, 1, 0, 1, 2]},
                 id="zykov"),
    pytest.param(["corona", "gen:path:2", "gen:complete:1", "gen:path:2"],
                 "graph6: DqS\nhost: [0, 1]\npart 0: offset 2 size 1\npart 1: offset 3 size 2\n",
                 {"graph6": "DqS", "host_vertices": [0, 1], "n": 5, "offsets": [2, 3],
                  "part_of": [-1, -1, 0, 1, 1], "index_in_part": [0, 1, 0, 0, 1]},
                 id="corona"),
    pytest.param(["compose", "gen:path:3", "gen:complete:2", "gen:edgeless:1", "gen:path:2"],
                 "graph6: DxK\npart 0: offset 0 size 2\npart 1: offset 2 size 1\n"
                 "part 2: offset 3 size 2\n",
                 {"graph6": "DxK", "host_vertices": [], "n": 5, "offsets": [0, 2, 3],
                  "part_of": [0, 0, 1, 2, 2], "index_in_part": [0, 1, 0, 0, 1]},
                 id="compose"),
    pytest.param(["lex", "gen:path:3", "gen:complete:2"],
                 "graph6: E~Kw\npart 0: offset 0 size 2\npart 1: offset 2 size 2\n"
                 "part 2: offset 4 size 2\n",
                 {"graph6": "E~Kw", "host_vertices": [], "n": 6, "offsets": [0, 2, 4],
                  "part_of": [0, 0, 1, 1, 2, 2], "index_in_part": [0, 1, 0, 1, 0, 1]},
                 id="lex"),
])
def test_compose_outputs_are_pinned(capsys, argv, plain, data):
    assert run_cli(capsys, "compose", *argv) == (0, plain, "")
    expected_json = json.dumps(data, sort_keys=True, indent=2) + "\n"
    assert run_cli(capsys, "compose", *argv, "--format", "json") == (0, expected_json, "")


def test_compose_arity_error(capsys):
    code, _, err = run_cli(capsys, "compose", "lex", "gen:path:2")
    assert code == 2 and "lex needs exactly two graphs" in err


def test_verify_fixture_instance(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "P2_ZYKOV", "gen:complete:2", "gen:path:3", "--format", "json"
    )
    assert code == 0
    reports = json.loads(out)
    assert len(reports) == 1
    assert reports[0]["holds"] is True
    assert reports[0]["theorem"] == "P2_ZYKOV"


def test_verify_sweep_matches_library(capsys):
    code, out, _ = run_cli(
        capsys, "verify", "L4_ZYKOV_BOUND",
        "--sweep", "8", "--count", "6", "--seed", "11", "--format", "json",
    )
    assert code == 0
    expected = [r.as_dict() for r in sweep("L4_ZYKOV_BOUND", max_size=8, count=6, seed=11)]
    assert json.loads(out) == expected


def test_verify_plain_summary(capsys):
    code, out, _ = run_cli(capsys, "verify", "T2_TREE", "--sweep", "4", "--exhaustive")
    assert code == 0
    assert out.strip().endswith("21/21 hold")


def test_verify_t1_exhaustive_at_the_corpus_bound(capsys):
    code, out, _ = run_cli(capsys, "verify", "T1_NT", "--sweep", "7", "--exhaustive")
    assert code == 0
    assert out.endswith("\n1252/1252 hold\n")


@pytest.mark.parametrize("theorem, specs, message", [
    pytest.param("T1_NT", ["gen:path:2", "gen:path:3"], "T1_NT takes exactly one graph",
                 id="T1_NT"),
    pytest.param("P1_UNION", ["gen:path:2"], "P1_UNION takes at least two graphs",
                 id="P1_UNION"),
    pytest.param("T_CORONA", ["gen:path:2", "gen:complete:1"],
                 "host has 2 vertices but 1 satellites given", id="T_CORONA"),
    pytest.param("COR_CORONA", ["gen:path:2", "gen:path:2", "gen:path:2"],
                 "COR_CORONA takes a host and one satellite graph", id="COR_CORONA"),
    pytest.param("L3_CORONA", ["gen:complete:1", "gen:path:2"],
                 "lemma requires a host with at least 2 vertices", id="L3_CORONA"),
])
def test_verify_wrong_arity_exits_2(capsys, theorem, specs, message):
    code, _, err = run_cli(capsys, "verify", theorem, *specs)
    assert code == 2 and message in err


@pytest.mark.parametrize("argv, message", [
    (["T1_NT", "--count", "0"], "count must be at least 1"),
    (["T1_NT", "--count", "-3"], "count must be at least 1"),
    (["T2_TREE", "--sweep", "0", "--exhaustive"], "at least 1, got 0"),
    (["COR_CORONA", "--sweep", "5"], "at least 6, got 5"),
    # the T1_NT corpus stops at 7 vertices, and --sweep defaults to 10
    (["T1_NT", "--exhaustive"], "corpus covers 1..7 vertices, got 10"),
    (["T1_NT", "--sweep", "8", "--exhaustive"], "corpus covers 1..7 vertices, got 8"),
    (["P1_UNION", "--exhaustive"], "error: no exhaustive sweep defined for 'P1_UNION'"),
])
def test_verify_sweep_that_checks_nothing_exits_2(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and message in err and out == ""


@pytest.mark.parametrize("argv, message", [
    (["T2_TREE", "gen:path:3", "--sweep", "0", "--count", "0"],
     "sweep flags given with an explicit instance: --sweep, --count"),
    (["T2_TREE", "gen:path:3", "--count", "20"],
     "sweep flags given with an explicit instance: --count"),
    (["T1_NT", "gen:path:3", "--exhaustive"],
     "sweep flags given with an explicit instance: --exhaustive"),
    (["T2_TREE", "--sweep", "3", "--exhaustive", "--count", "0"],
     "--exhaustive checks every instance up to --sweep and takes no --count"),
])
def test_verify_rejects_sweep_flags_it_would_ignore(capsys, argv, message):
    code, out, err = run_cli(capsys, "verify", *argv)
    assert code == 2 and message in err and out == ""


def test_verify_sweep_defaults(capsys):
    code, out, _ = run_cli(capsys, "verify", "L4_ZYKOV_BOUND", "--format", "json")
    assert code == 0
    expected = [r.as_dict() for r in sweep("L4_ZYKOV_BOUND", max_size=10, count=20, seed=0)]
    assert json.loads(out) == expected
    # the CLI falls back to the library's defaults, not to a pair of its own
    assert json.loads(out) == [r.as_dict() for r in sweep("L4_ZYKOV_BOUND")]


@pytest.mark.parametrize("spec, message", [
    ("W_FIG1", "input spec 'W_FIG1' needs a prefix fixture:, g6:, file: or gen:"),
    ("zz:1", "unknown input spec prefix 'zz'"),
])
def test_verify_input_spec_errors_exit_2(capsys, spec, message):
    code, out, err = run_cli(capsys, "verify", "T1_NT", spec)
    assert code == 2 and message in err and out == ""


def test_verify_unknown_theorem(capsys):
    code, _, err = run_cli(capsys, "verify", "T9_NOPE")
    assert code == 2 and "unknown theorem" in err


def test_verify_tree_input_error(capsys):
    code, _, err = run_cli(capsys, "verify", "T2_TREE", "gen:cycle:4")
    assert code == 2 and "not a tree" in err


def test_gen_fixture_and_generators(capsys):
    code, out, _ = run_cli(capsys, "gen", "W_FIG1")
    assert code == 0
    assert parse_graph6(out.strip()) == named_fixture("W_FIG1")
    code, out, _ = run_cli(capsys, "gen", "gnp:10:0.25", "--seed", "3")
    assert parse_graph6(out.strip()) == random_graph(10, 1, 4, 3)


def test_gen_count_emits_distinct_seeded_graphs(capsys):
    code, out, _ = run_cli(capsys, "gen", "tree:7", "--seed", "1", "--count", "5")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 5
    _, out2, _ = run_cli(capsys, "gen", "tree:7", "--seed", "1", "--count", "5")
    assert out == out2


def test_gen_bad_expression(capsys):
    code, _, err = run_cli(capsys, "gen", "blob:3")
    assert code == 2 and "generator expression" in err
    code, _, err = run_cli(capsys, "gen", "gnp:5:1.5")
    assert code == 2
    for expr in ("gnp:5:1/0", "gnp:5:0/0", "edgeless:-1", "gnp:-3:0.5"):
        code, _, err = run_cli(capsys, "psi", "--gen", expr)
        assert code == 2 and "bad generator expression" in err, expr


# the probability forms the docs and tests use, pinned to the graph6 they gave
# when gnp's P was read by Fraction alone
@pytest.mark.parametrize("p, graph6", [
    ("0.2", "I@QA?O???"), ("0.25", r"I?ag_hC\W"), ("0.3", "IO~yA@?@?"),
    ("1/2", r"IA}mkhD\W"), ("1", "I~~~~~~~w"), ("0", "I????????"),
])
def test_gen_probability_forms(capsys, p, graph6):
    assert run_cli(capsys, "gen", f"gnp:10:{p}", "--seed", "3") == (0, graph6 + "\n", "")


@pytest.mark.parametrize("p", [
    "1e-30000000", "1e-2", "1_0/20", "\u0663/4", " 1/2", "+1/2", ".5", "1.", "1/", "1/2/3",
    "1/" + str(1 << 64), "0." + "0" * 19 + "1",
])
def test_gen_probability_is_ascii_decimal_digits(capsys, p):
    # Fraction alone reads every one but "1/" and "1/2/3" ("1_0/20" from 3.11 on),
    # and spent about 44 s building a graph from 1e-30000000
    start = time.monotonic()
    code, out, err = run_cli(capsys, "gen", f"gnp:5:{p}")
    assert code == 2 and out == "" and "edge probability must be NUM/DEN" in err
    assert time.monotonic() - start < 5


@pytest.mark.parametrize("expr", ["path:3_0", "path:+3", "path:\u0663", "gnp:1_0:1/2", "cycle: 5"])
def test_gen_size_is_ascii_decimal_digits(capsys, expr):
    # int() alone reads each of these as a count, so path:3_0 would build path:30
    code, out, err = run_cli(capsys, "gen", expr)
    assert code == 2 and out == ""
    assert "bad generator expression" in err and "decimal digits" in err


@pytest.mark.parametrize("expr", [
    f"{kind}:{MAX_EDGE_LIST_VERTICES + 1}" for kind in ("complete", "path", "cycle", "edgeless", "tree")
] + [f"gnp:{MAX_EDGE_LIST_VERTICES + 1}:1/2", "path:1000000000000"])
def test_gen_size_is_bounded(capsys, expr):
    # the bound is checked before anything is built, so no kind allocates
    code, out, err = run_cli(capsys, "gen", expr)
    assert code == 2 and out == ""
    assert f"vertex count must be in 0..{MAX_EDGE_LIST_VERTICES}" in err
    code, _, err = run_cli(capsys, "psi", "--gen", expr)
    assert code == 2 and "bad generator expression" in err


def test_gen_size_bound_is_inclusive():
    # built, not printed: its graph6 line alone is about 358 MB
    assert _parse_gen_expr(f"edgeless:{MAX_EDGE_LIST_VERTICES}", 0).n == MAX_EDGE_LIST_VERTICES


def test_file_and_stdin_inputs(tmp_path, capsys, monkeypatch):
    g6 = tmp_path / "g.g6"
    g6.write_text(to_graph6(named_fixture("G3_FIG3")).decode() + "\n")
    code, out1, _ = run_cli(capsys, "check", "--file", str(g6))
    assert code == 0
    edge = tmp_path / "g.txt"
    edge.write_text("# comment\nn 4\n0 1\n1 2\n2 3\n")
    code, out, _ = run_cli(capsys, "psi", "--file", str(edge), "--format", "json")
    assert code == 0
    assert json.loads(out)["members"] == [list(bits(m)) for m in psi(path(4))]
    monkeypatch.setattr(sys, "stdin", io.StringIO("Ch\n"))
    code, out2, _ = run_cli(capsys, "psi", "--file", "-", "--format", "json")
    assert code == 0
    assert json.loads(out2)["n"] == 4


def test_unreadable_input_file_exits_2(tmp_path, capsys):
    # a missing path and a directory: stderr is the OS message, as open gives it
    for path in (tmp_path / "missing.g6", tmp_path):
        with pytest.raises(OSError) as exc:
            open(path, encoding="ascii")
        code, out, err = run_cli(capsys, "psi", "--file", str(path))
        assert (code, out, err) == (2, "", f"error: {exc.value}\n")


def test_an_error_inside_a_command_is_no_input_error(capsys, monkeypatch):
    # TimeoutError is an OSError, as an alarm handler inside a command raises it
    def timed_out(g):
        raise TimeoutError

    monkeypatch.setattr("lmss.cli.psi", timed_out)
    with pytest.raises(TimeoutError):
        main(["psi", "--fixture", "W_FIG1"])


def test_graph6_file_holds_one_graph(tmp_path, capsys):
    two = tmp_path / "two.g6"
    two.write_text("Dhc\nGARBAGE!!\n")
    for argv in (("psi", "--file", str(two)), ("verify", "T1_NT", f"file:{two}")):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2 and out == "" and "got 2 non-blank lines" in err
    one = tmp_path / "one.g6"
    one.write_text("Dhc\n\n  \n")
    code, out, _ = run_cli(capsys, "psi", "--file", str(one), "--format", "json")
    assert code == 0 and json.loads(out)["n"] == 5


def test_exactly_one_input_source_required(capsys):
    code, _, err = run_cli(capsys, "psi")
    assert code == 2 and "exactly one" in err
    code, _, err = run_cli(capsys, "psi", "--fixture", "W_FIG1", "--graph6", "Ch")
    assert code == 2


def test_graph6_parse_error_exit_2(capsys):
    code, _, err = run_cli(capsys, "psi", "--graph6", "Chx")
    assert code == 2 and "byte offset" in err


def test_parser_is_built_once_and_reused(capsys):
    build_parser.cache_clear()
    first = run_cli(capsys, "psi", "--fixture", "W_FIG1", "--format", "json")
    assert run_cli(capsys, "check", "--fixture", "G4_FIG3")[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(["psi", "--format", "xml"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run_cli(capsys, "verify", "L4_ZYKOV_BOUND", "--sweep", "6", "--count", "2")[0] == 0
    assert run_cli(capsys, "psi", "--fixture", "W_FIG1", "--format", "json") == first
    assert build_parser.cache_info().misses == 1


def test_module_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "lmss", "check", "--fixture", "G1_FIG3"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "GREEDOID" in proc.stdout


def test_closed_stdout_exits_141_quietly():
    # psi of path:100 prints more than a pipe buffer holds, so the writer is
    # still writing when the reader closes the pipe after one line
    argv = ["psi", "--gen", "path:100"]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(argv) == 0
    assert len(out.getvalue()) > 1 << 16
    proc = subprocess.Popen([sys.executable, "-m", "lmss", *argv],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"graph: n=100 m=99\n"
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 141
    finally:
        proc.kill()
        proc.wait()
        proc.stderr.close()
    assert err == b""


def test_module_verify_matches_library():
    proc = subprocess.run(
        [sys.executable, "-m", "lmss", "verify", "L4_ZYKOV_BOUND",
         "--sweep", "8", "--count", "6", "--seed", "11", "--format", "json"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    expected = [r.as_dict() for r in sweep("L4_ZYKOV_BOUND", max_size=8, count=6, seed=11)]
    assert json.loads(proc.stdout) == expected
