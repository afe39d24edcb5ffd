"""CLI behaviour: flags, exit codes, deterministic machine-readable output."""

import importlib.util
import json
import os
import random
import subprocess
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import powspec.cli
from powspec.cli import _emit_json, main
from powspec.groups import GroupFamily, GroupSpec, delete_identity, power_graph_oracle
from powspec.joinstruct import Variant, build_join
from powspec.spectra import (
    Basis,
    UniversalParams,
    charpoly_exact,
    charpoly_roots,
    complement_params,
    hjoin_spectrum,
    quotient_matrix,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def flip_divisor_edge(monkeypatch, a=2, b=4):
    """Make ``build_join`` assemble a template with the a-b divisor edge
    flipped, which the real validator must refuse."""
    real = powspec.joinstruct.divisor_graph

    def flipped(divs):
        adj = real(divs)
        i, j = divs.index(a), divs.index(b)
        adj[i, j] = adj[j, i] = not adj[i, j]
        return adj

    monkeypatch.setattr("powspec.joinstruct.divisor_graph", flipped)


def test_spectrum_z4_laplacian(capsys):
    code, out, _ = run(capsys, "spectrum", "--group", "zn", "--n", "4", "--preset", "laplacian")
    assert code == 0
    report = json.loads(out)
    assert report["schema"] == 1
    assert report["route"] == "structural"
    assert report["order"] == 4
    spaces = [(e["value"], e["multiplicity"]) for e in report["eigenspaces"]]
    assert len(spaces) == 2
    assert abs(spaces[0][0] - 4) < 1e-10 and spaces[0][1] == 3
    assert abs(spaces[1][0]) < 1e-10 and spaces[1][1] == 1


def test_spectrum_d15_oracle_check(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--group", "dn", "--n", "15", "--preset", "laplacian",
        "--oracle-check",
    )
    assert code == 0
    report = json.loads(out)
    assert report["route"] == "structural"
    assert report["verification"]["passed"] is True
    assert report["verification"]["max_residual"] < 1e-8 * 60


def test_spectrum_alpha_zero_exit_1(capsys):
    code, _, err = run(capsys, "spectrum", "--group", "zn", "--n", "6", "--params", "0,1,0,0")
    assert code == 1
    assert "undefined" in err


def test_spectrum_qn6_structural(capsys):
    code, out, _ = run(
        capsys, "spectrum", "--group", "qn", "--n", "6", "--preset", "adjacency", "--oracle-check",
    )
    assert code == 0
    report = json.loads(out)
    assert report["route"] == "structural"
    assert "dicyclic-repeated-eigenvalue" in report["verification"]["checked"]
    assert report["verification"]["passed"] is True


def test_spectrum_qn_refused_structure_exit_2(capsys, monkeypatch):
    flip_divisor_edge(monkeypatch)
    code, out, err = run(
        capsys, "spectrum", "--group", "qn", "--n", "6", "--preset", "adjacency", "--oracle-check",
    )
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: join of qn n=6 (power) refused: a^2 ~ a^4 in the power graph, not in the join"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--group", "zn", "--n", "12", "--vectors"),
        ("spectrum", "--group", "zn", "--n", "12", "--variant", "proper", "--format", "csv"),
        ("verify", "--group", "zn", "--n", "12", "--seed", "3"),
        ("charpoly", "--group", "zn", "--n", "12", "--quotient", "--preset", "laplacian"),
        ("charpoly", "--group", "zn", "--n", "12", "--normalized", "--at", "1/2"),
    ],
    ids=["spectrum", "spectrum-proper", "verify", "charpoly-quotient", "charpoly-normalized"],
)
def test_refused_structure_exit_2(capsys, monkeypatch, argv):
    flip_divisor_edge(monkeypatch)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("error: join of zn n=12 (")
    assert lines[0].endswith(" refused: 2 ~ 4 in the power graph, not in the join")


def test_template_loop_on_several_cliques_exit_2(capsys, monkeypatch):
    # build_join cuts block 1 of Z_6 into single vertices and loops it; the
    # structure clears the loop, and the refusal names the oracle's pair
    real_block, real_graph = powspec.joinstruct.JoinBlock, powspec.joinstruct.divisor_graph

    def cut(block_label, members, clique):
        return real_block(block_label, members, 1 if block_label == 1 else clique)

    def looped(divs):
        adj = real_graph(divs)
        i = divs.index(1)
        adj[i, i] = True
        return adj

    monkeypatch.setattr("powspec.joinstruct.JoinBlock", cut)
    monkeypatch.setattr("powspec.joinstruct.divisor_graph", looped)
    code, out, err = run(capsys, "spectrum", "--group", "zn", "--n", "6", "--preset", "adjacency")
    assert code == 2
    assert out == ""
    assert err.splitlines() == [
        "error: join of zn n=6 (power) refused: 1 ~ 5 in the power graph, not in the join"
    ]


def test_spectrum_dicyclic_small_n_exit_1(capsys):
    code, _, err = run(capsys, "spectrum", "--group", "qn", "--n", "1", "--preset", "adjacency")
    assert code == 1


def test_spectrum_deterministic_output(capsys):
    argv = ["spectrum", "--group", "zn", "--n", "12", "--preset", "seidel", "--vectors"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2


def test_spectrum_seventeen_digit_floats(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--group", "zn", "--n", "6", "--preset", "adjacency", "--complement",
    )
    assert code == 0
    # sqrt(2) serialized round-trip-exactly
    assert "1.4142135623730951" in out


def test_spectrum_csv_format(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--group", "zn", "--n", "4", "--preset", "laplacian",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "value,multiplicity,provenance"
    assert len(lines) == 3


def test_spectrum_complement_flag(capsys):
    code, out, _ = run(
        capsys,
        "spectrum", "--group", "zn", "--n", "6", "--preset", "laplacian", "--complement",
    )
    assert code == 0
    report = json.loads(out)
    values = sorted(
        v for e in report["eigenspaces"] for v in [e["value"]] * e["multiplicity"]
    )
    # Laplacian of the two-edge graph {2,3},{3,4}: path P_3 plus isolated
    assert values == pytest.approx([0, 0, 0, 0, 1, 3], abs=1e-9)


def test_spectrum_oracle_check_mismatch_exit_2(capsys):
    # a tolerance far below rounding force-fails the dense cross-check
    code, _, err = run(
        capsys,
        "spectrum", "--group", "zn", "--n", "12", "--preset", "laplacian",
        "--oracle-check", "--tol", "1e-300",
    )
    assert code == 2
    assert "mismatch" in err


def test_verify_pass(capsys):
    code, out, _ = run(capsys, "verify", "--group", "zn", "--n", "30", "--seed", "7")
    assert code == 0
    assert out.strip().endswith("result: PASS")


def test_verify_qn6_structural(capsys):
    code, out, _ = run(capsys, "verify", "--group", "qn", "--n", "6", "--seed", "1", "--count", "2")
    assert code == 0
    assert "route=structural" in out
    assert "structural route refused" not in out
    assert out.strip().endswith("result: PASS")


def test_verify_bad_n_exit_1(capsys):
    code, _, err = run(capsys, "verify", "--group", "zn", "--n", "0")
    assert code == 1


def test_verify_deterministic(capsys):
    argv = ["verify", "--group", "dn", "--n", "6", "--seed", "3", "--count", "2"]
    _, out1, _ = run(capsys, *argv)
    _, out2, _ = run(capsys, *argv)
    assert out1 == out2


def test_verify_seed_is_argv_alone(capsys, monkeypatch):
    # --seed defaults to 0 whatever the environment holds
    argv = ["verify", "--group", "zn", "--n", "8", "--count", "1"]
    code, out, _ = run(capsys, *argv)
    assert code == 0
    assert "seed=0" in out
    monkeypatch.setenv("POWSPEC_SEED", "9")
    assert run(capsys, *argv)[:2] == (code, out)


def test_charpoly_quotient_d15(capsys):
    code, out, _ = run(
        capsys,
        "charpoly", "--group", "dn", "--n", "15", "--preset", "laplacian", "--quotient",
    )
    assert code == 0
    report = json.loads(out)
    assert report["degree"] == 5
    assert report["coefficients"][-1] == "0"


def test_charpoly_quotient_qn6(capsys):
    # Q_6: one block per divisor of 12 plus the coset block
    code, out, _ = run(
        capsys,
        "charpoly", "--group", "qn", "--n", "6", "--preset", "laplacian", "--quotient",
    )
    assert code == 0
    assert json.loads(out)["degree"] == 7


def test_charpoly_quotient_roots_match(capsys):
    code, out, _ = run(
        capsys,
        "charpoly", "--group", "zn", "--n", "6", "--preset", "adjacency", "--quotient",
    )
    assert code == 0
    coeffs = [Fraction(c) for c in json.loads(out)["coefficients"]]
    roots = charpoly_roots(coeffs)

    from powspec.groups import GroupFamily, GroupSpec, delete_identity, power_graph_oracle
    from powspec.joinstruct import Variant, build_join
    from powspec.spectra import UniversalParams, dense_eigen, multiset_gap, quotient_matrix

    js = build_join(GroupSpec(GroupFamily.CYCLIC, 6), Variant.POWER)
    k = quotient_matrix(js, UniversalParams.preset("adjacency"))
    assert multiset_gap(np.array(roots), dense_eigen(k)) < 1e-8


def test_charpoly_normalized_at_zero(capsys):
    code, out, _ = run(
        capsys,
        "charpoly", "--group", "zn", "--n", "4", "--normalized", "--at", "0",
    )
    assert code == 0
    assert json.loads(out)["value"] == 0


def test_charpoly_normalized_isolated_vertex_exit_1(capsys):
    code, _, err = run(
        capsys,
        "charpoly", "--group", "dn", "--n", "2", "--variant", "proper",
        "--normalized", "--at", "1",
    )
    assert code == 1
    assert "isolated" in err


@pytest.mark.parametrize("extra", [("--preset", "seidel"), ("--params", "0,1,1,1")])
def test_charpoly_normalized_rejects_params_and_preset(capsys, extra):
    # the normalized Laplacian fixes its own matrix; a given U is a usage error
    code, out, err = run(
        capsys,
        "charpoly", "--group", "zn", "--n", "12", "--normalized", "--at", "1/2", *extra,
    )
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and err.count("\n") == 1


def test_charpoly_normalized_proper_z60(capsys):
    code, out, _ = run(
        capsys,
        "charpoly", "--group", "zn", "--n", "60", "--variant", "proper",
        "--normalized", "--at", "5/4",
    )
    assert code == 0
    report = json.loads(out)
    assert report["kind"] == "normalized-laplacian-charpoly"
    assert report["at"] == 1.25
    # psi(X) = prod(mu - X) over the eigenvalues mu of D^-1/2 (D - A) D^-1/2
    g = delete_identity(power_graph_oracle(GroupSpec(GroupFamily.CYCLIC, 60)))
    s = 1.0 / np.sqrt(g.degrees().astype(float))
    lap = np.diag(g.degrees().astype(float)) - g.adj.astype(float)
    mu = np.linalg.eigvalsh(s[:, None] * lap * s[None, :])
    expected = float(np.prod(mu - 1.25))
    assert abs(report["value"] - expected) <= 1e-9 * abs(expected)


def test_charpoly_needs_exactly_one_mode(capsys):
    code, _, err = run(capsys, "charpoly", "--group", "zn", "--n", "4")
    assert code == 1
    code, _, err = run(
        capsys, "charpoly", "--group", "zn", "--n", "4", "--quotient", "--normalized", "--at", "1"
    )
    assert code == 1 and err.startswith("usage error: choose exactly one")
    # --normalized without its point, refused before the group is built
    code, out, err = run(capsys, "charpoly", "--group", "zn", "--n", "0", "--normalized")
    assert (code, out, err) == (1, "", "usage error: --normalized needs --at VALUE\n")


@pytest.mark.parametrize("command", [None, "spectrum", "verify", "charpoly", "graph"])
def test_help_returns_0_from_main(capsys, command):
    # argparse prints the help and exits; main returns that status instead
    prefix = [] if command is None else [command]
    for flag in ("-h", "--help"):
        code, out, err = run(capsys, *prefix, flag)
        assert (code, err) == (0, "")
        assert out.startswith(" ".join(["usage: powspec", *prefix, "[-h]"]))
        if command is None:
            assert out == powspec.cli.build_parser().format_help()
        else:
            assert "--group {zn,dn,qn}" in out and "--variant {power,proper}" in out


@pytest.mark.parametrize("extra", [(), ("--preset", "laplacian"), ("--complement",)])
def test_charpoly_quotient_refuses_at(capsys, extra):
    # --at is the point of --normalized; the quotient's polynomial has none
    code, out, err = run(
        capsys, "charpoly", "--group", "dn", "--n", "3", "--quotient", "--at", "1", *extra
    )
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: ") and "--at" in err and err.count("\n") == 1
    code, out, _ = run(capsys, "charpoly", "--group", "dn", "--n", "3", "--quotient", *extra)
    assert code == 0 and json.loads(out)["kind"] == "quotient-charpoly"


def test_charpoly_float_params_rejected(capsys):
    code, _, err = run(
        capsys,
        "charpoly", "--group", "zn", "--n", "6", "--params", "1.5,0,0,0", "--quotient",
    )
    # 1.5 parses as the exact rational 3/2, so this succeeds
    assert code == 0


def test_graph_z6_edges(capsys):
    code, out, _ = run(capsys, "graph", "--group", "zn", "--n", "6")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 13
    assert "2 3" not in lines and "3 4" not in lines


def test_graph_complement(capsys):
    code, out, _ = run(capsys, "graph", "--group", "zn", "--n", "6", "--complement")
    assert code == 0
    assert out.strip().splitlines() == ["2 3", "3 4"]


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "--preset", "laplacian"),
        ("verify", "--params", "1,0,0,0"),
        ("verify", "--complement"),
        ("graph", "--preset", "laplacian"),
        ("graph", "--params", "1,0,0,0"),
        ("graph", "--tol", "1e-6"),
        ("charpoly", "--quotient", "--tol", "1e-6"),
    ],
    ids=[
        "verify-preset", "verify-params", "verify-complement",
        "graph-preset", "graph-params", "graph-tol", "charpoly-tol",
    ],
)
def test_flag_the_subcommand_does_not_read_is_a_usage_error(capsys, argv):
    # a flag that would be ignored is refused rather than silently dropped
    code, out, err = run(capsys, argv[0], "--group", "zn", "--n", "6", *argv[1:])
    assert code == 1
    assert out == ""
    assert err.startswith("usage error: unrecognized arguments: ") and err.count("\n") == 1


def test_usage_error_unknown_group(capsys):
    code, _, err = run(capsys, "spectrum", "--group", "xx", "--n", "4")
    assert code == 1
    assert "usage error" in err


def test_preset_and_params_conflict(capsys):
    code, _, err = run(
        capsys,
        "spectrum", "--group", "zn", "--n", "4", "--preset", "laplacian",
        "--params", "1,0,0,0",
    )
    assert code == 1


@pytest.mark.parametrize(
    "head, flag, value",
    [
        (("spectrum", "--group", "zn", "--n", "4"), "--params", "-1,1,0,0"),
        (("spectrum", "--group", "qn", "--n", "3", "--vectors"), "--params", "-1/2,1,-3,2"),
        (("charpoly", "--group", "zn", "--n", "4", "--normalized"), "--at", "-1/2"),
        (("charpoly", "--group", "dn", "--n", "5", "--quotient"), "--params", "-2,0,-1,1"),
    ],
)
def test_negative_values_in_both_spellings(capsys, head, flag, value):
    code_sep, out_sep, _ = run(capsys, *head, flag, value)
    code_eq, out_eq, _ = run(capsys, *head, f"{flag}={value}")
    assert code_sep == code_eq == 0
    assert out_sep == out_eq


def test_memory_error_is_one_line_exit_1(capsys, monkeypatch):
    def no_memory(spec):
        raise MemoryError

    monkeypatch.setattr("powspec.cli.power_graph_oracle", no_memory)
    # only --vectors and --oracle-check build the N x N graph
    code, out, err = run(capsys, "spectrum", "--group", "zn", "--n", "60000", "--vectors")
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert "60000" in lines[0]
    assert lines[0].endswith("the dense arrays of a group of order 60000 do not fit")


def test_memory_error_of_the_certificate_names_it(capsys, monkeypatch):
    def no_memory(js):
        raise MemoryError

    monkeypatch.setattr("powspec.joinstruct.validate_structure", no_memory)
    # a plain spectrum builds no dense array: what ran out is the certificate
    code, out, err = run(capsys, "spectrum", "--group", "dn", "--n", "30")
    assert (code, out) == (1, "")
    assert err == (
        "error: out of memory for dn n=30: the join structure and certificate "
        "of a group of order 60 do not fit\n"
    )


@pytest.mark.parametrize(
    "argv",
    [
        ("charpoly", "--group", "zn", "--n", "60", "--normalized", "--at", "1000000"),
        ("spectrum", "--group", "zn", "--n", "6", "--params=1e400,0,0,0"),
        ("charpoly", "--group", "zn", "--n", "6", "--quotient", "--params=1e400,0,0,0"),
    ],
    ids=["normalized-value", "spectrum-params", "quotient-params"],
)
def test_value_beyond_float_is_one_line_exit_1(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.splitlines() == ["error: a value does not fit a float (beyond about 1.8e308)"]


def test_charpoly_quotient_needs_no_float_quotient(capsys):
    # the float quotient of these parameters does not fit a float; the
    # exact characteristic polynomial never reads it
    code, out, err = run(
        capsys, "charpoly", "--group", "zn", "--n", "6", "--quotient", "--params=1e308,1e308,0,0"
    )
    assert (code, err) == (0, "")
    js = build_join(GroupSpec(GroupFamily.CYCLIC, 6), Variant.POWER)
    p = UniversalParams(Fraction("1e308"), Fraction("1e308"), 0, 0)
    assert json.loads(out)["coefficients"] == [str(c) for c in charpoly_exact(js, p)]
    with np.errstate(over="ignore"), pytest.raises(OverflowError):
        quotient_matrix(js, p)


@pytest.mark.skipif(not hasattr(sys, "set_int_max_str_digits"), reason="no digit limit before Python 3.10.7")
def test_charpoly_prints_coefficients_beyond_the_int_str_limit(capsys):
    # 1e-400 is a Fraction with a 401-digit denominator, and the exact
    # coefficients outgrow Python's default of 4300 digits per int-to-str;
    # the caller's limit is back in place once main returns
    argv = (
        "charpoly", "--group", "qn", "--n", "12", "--complement",
        "--params=2,1e-400,1e300,-2", "--quotient",
    )
    before = sys.get_int_max_str_digits()
    try:
        for limit in (4300, 640):  # the default, and the least a caller may set
            sys.set_int_max_str_digits(limit)
            code, out, err = run(capsys, *argv)
            assert (code, err) == (0, "")
            assert sys.get_int_max_str_digits() == limit
            coeffs = json.loads(out)["coefficients"]
        sys.set_int_max_str_digits(0)
        js = build_join(GroupSpec(GroupFamily.DICYCLIC, 12), Variant.POWER)
        p = UniversalParams(2, Fraction("1e-400"), Fraction("1e300"), -2)
        expect = charpoly_exact(js, complement_params(p, js.order))
        assert coeffs == [str(c) for c in expect]
    finally:
        sys.set_int_max_str_digits(before)
    assert max(map(len, coeffs)) > 4300


def test_charpoly_prints_coefficients_without_the_int_str_limit_functions(capsys, monkeypatch):
    # Python 3.10.0 to 3.10.6 have neither function, and no limit to lift
    js = build_join(GroupSpec(GroupFamily.CYCLIC, 360), Variant.POWER)
    p = UniversalParams(Fraction(7, 2), Fraction(-5, 3), Fraction(8, 5), Fraction(-9, 7))
    expect = [str(c) for c in charpoly_exact(js, p)]
    for name in ("get_int_max_str_digits", "set_int_max_str_digits"):
        monkeypatch.delattr(sys, name, raising=False)
    code, out, err = run(capsys, "charpoly", "--group", "zn", "--n", "360", "--quotient", "--params=7/2,-5/3,8/5,-9/7")
    assert (code, err) == (0, "")
    assert json.loads(out)["coefficients"] == expect


# ---------------------------------------------------------------------------
# eigenvector serialization
# ---------------------------------------------------------------------------


def legacy_emit(obj, indent=0):
    """The reference emitter: ``json.dumps`` for a string or a key, one
    ``format(v, ".17g")`` per float."""
    pad, inner = "  " * indent, "  " * (indent + 1)
    if obj is None or isinstance(obj, (bool, str)):
        return json.dumps(obj)
    if isinstance(obj, (int, float)):
        return str(obj) if isinstance(obj, int) else format(obj, ".17g")
    if isinstance(obj, dict):
        parts = [f"{inner}{json.dumps(k)}: {legacy_emit(v, indent + 1)}" for k, v in obj.items()]
        return "{\n" + ",\n".join(parts) + f"\n{pad}}}" if obj else "{}"
    if not obj:
        return "[]"
    parts = [f"{inner}{legacy_emit(v, indent + 1)}" for v in obj]
    return "[\n" + ",\n".join(parts) + f"\n{pad}]"


# every kind of leaf and container a report holds, nested
LEAVES = {
    "quotes": 'say "hi"',
    "backslashes": "a\\b\\",
    "control": "\x00\x01\t\n\r\x1f\x7f",
    "non_ascii": "\u00e9\u2028\U0001f600",
    "empty_string": "",
    "bools_and_ints": [True, 1, False, 0, -7, 10**30],
    "floats": [-0.0, 0.0, 1e308, -1e308, 5e-324, 0.1, 3.0],
    "none": None,
    "empty": {"dict": {}, "list": [], "tuple": ()},
}


SPECIAL_FLOATS = [
    0.0, -0.0, 5e-324, 1e-310, float("inf"), -float("inf"), float("nan"), 1 / 3, 2.0, 1e300,
]


@pytest.mark.parametrize(
    "arr",
    [
        np.array(SPECIAL_FLOATS),
        np.array([SPECIAL_FLOATS, SPECIAL_FLOATS[::-1]]),
        np.array([SPECIAL_FLOATS[::2], [-x for x in SPECIAL_FLOATS[1::2]]]).T,
        np.array([]),
        np.zeros((0, 3)),
        np.zeros((2, 0)),
        np.random.default_rng(5).standard_normal((7, 11)).round(2),
        np.random.default_rng(6).standard_normal((4, 9)),
    ],
    ids=["special-1d", "special-2d", "special-transposed", "empty", "no-rows", "empty-rows",
         "random-repeats", "random"],
)
@pytest.mark.parametrize("indent", [0, 3])
def test_emit_json_array_matches_per_float_emitter(arr, indent):
    # an array reaches the emitter as a Basis of its rows, or as a list
    rows = arr if arr.ndim == 2 else arr[None]
    assert _emit_json(Basis.of_rows(rows), indent) == legacy_emit(rows.tolist(), indent)
    assert _emit_json(arr.tolist(), indent) == legacy_emit(arr.tolist(), indent)
    report = {"values": arr.tolist(), "leaves": LEAVES, "rows": [LEAVES, [arr.tolist(), {}]]}
    assert _emit_json(report, indent) == legacy_emit(report, indent)
    assert json.loads(_emit_json(LEAVES, indent))["non_ascii"] == LEAVES["non_ascii"]
    with pytest.raises(TypeError):
        _emit_json({"basis": arr}, indent)


def test_emit_json_array_keeps_nan_bit_patterns_apart():
    bits = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
    arr = np.concatenate([bits.view(np.float64), [-0.0, 0.0, -0.0]])
    assert _emit_json(Basis.of_rows(arr[None])) == legacy_emit([arr.tolist()])
    for refused in (arr, np.arange(3)):  # no report passes an ndarray
        with pytest.raises(TypeError):
            _emit_json(refused)


@pytest.mark.parametrize(
    "group, n, family", [("zn", 12, "CYCLIC"), ("dn", 6, "DIHEDRAL"), ("qn", 6, "DICYCLIC")]
)
def test_spectrum_vectors_tokens_and_bits(capsys, group, n, family):
    code, out, _ = run(
        capsys, "spectrum", "--group", group, "--n", str(n), "--params=3/2,-1/3,2,-5/7",
        "--vectors",
    )
    assert code == 0
    report = json.loads(out, parse_int=float)  # "-0" stays -0.0
    tokens = [line.split(": ")[-1].strip().rstrip(",") for line in out.splitlines()]
    numbers = [tok for tok in tokens if tok and tok[0] in "-0123456789"]
    assert len(numbers) > report["order"] ** 2  # every basis entry, and more
    for tok in numbers:
        assert tok == format(float(tok), ".17g")
    js = build_join(GroupSpec(GroupFamily[family], n), Variant.POWER)
    params = UniversalParams(Fraction(3, 2), Fraction(-1, 3), Fraction(2), Fraction(-5, 7))
    expect = hjoin_spectrum(js, params, want_vectors=True)
    assert len(report["eigenspaces"]) == len(expect.eigenspaces)
    for got, e in zip(report["eigenspaces"], expect.eigenspaces):
        basis = np.array(got["basis"], dtype=float)
        assert basis.shape == (e.multiplicity, js.order)
        assert basis.tobytes() == np.array(e.basis).tobytes()


def table_emit(arr, indent):
    """The array path of the emitter before compact bases, the reference:
    one table over every entry of the stacked basis, keyed by bit pattern."""
    bits, inv = np.unique(arr.view(np.int64).ravel(), return_inverse=True)
    table = [format(v, ".17g") for v in bits.view(np.float64).tolist()]

    def rows(idx, indent):
        if len(idx) == 0:
            return "[]"
        pad, inner = "  " * indent, "  " * (indent + 1)
        parts = map(table.__getitem__, idx.tolist()) if idx.ndim == 1 else (
            rows(row, indent + 1) for row in idx
        )
        return f"[\n{inner}" + f",\n{inner}".join(parts) + f"\n{pad}]"

    return rows(inv.reshape(arr.shape), indent)


def dense_form(basis):
    """The stacked dense vectors of a basis, built here from its segments."""
    out = np.zeros((len(basis), basis.dimension))
    row = 0
    for kind, (a, b) in basis.segments:
        for r in range(len(a)):
            if kind == Basis.SET:
                for i in a[r].tolist():
                    out[row, i] += 1.0
                for j in b[r].tolist():
                    out[row, j] -= 1.0
            elif kind == Basis.LIFT:
                out[row] = [a[r, l] for l in b.tolist()]
            row += 1
    return out


def load_workloads():
    path = Path(__file__).resolve().parent.parent / "powbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("powbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("seed", [1, 2])
def test_basis_emitter_matches_the_table_path_on_crosscheck_small(seed):
    workloads = load_workloads()
    families = {"zn": GroupFamily.CYCLIC, "dn": GroupFamily.DIHEDRAL, "qn": GroupFamily.DICYCLIC}
    bases = 0
    for req in workloads.crosscheck_small(random.Random(f"crosscheck-small:{seed}")):
        variant = Variant.PROPER if req.proper else Variant.POWER
        js = build_join(GroupSpec(families[req.family], req.n), variant)
        params = UniversalParams(*req.params)
        if req.complement:
            params = complement_params(params, js.order)
        for e in hjoin_spectrum(js, params, want_vectors=True).eigenspaces:
            stacked = dense_form(e.basis)
            assert np.array(e.basis).tobytes() == stacked.tobytes()
            assert _emit_json(e.basis, 3) == table_emit(stacked, 3)
            bases += 1
    assert bases > 1000


@pytest.mark.parametrize("trial", range(6))
def test_basis_emitter_matches_the_table_path_on_special_values(trial):
    rng = np.random.default_rng(trial)
    nans = np.array([0x7FF8000000000000, 0x7FF8000000000001, 0xFFF8000000000000], dtype=np.uint64)
    special = np.array(SPECIAL_FLOATS[1:] + [-5e-324, -1e-310]) if trial % 2 else (
        np.concatenate([nans.view(np.float64), [-0.0, 5e-324, -np.inf]])
    )
    dim = int(rng.integers(1, 14))
    # lifts are dense rows, over one block per vertex, in the first three
    # trials, and in the others block lifts over either of two block maps
    dense_rows = trial < 3
    maps = [np.arange(dim)] if dense_rows else [
        rng.integers(0, int(rng.integers(1, 4)), size=dim) for _ in range(2)
    ]
    segments = []
    for _ in range(int(rng.integers(1, 7))):
        count = int(rng.integers(1, 4))
        if dim > 1 and rng.random() < 0.3:  # sets of 1 to 3 distinct vertices each side
            size = int(rng.integers(1, min(3, dim // 2) + 1))
            members = np.array([rng.permutation(dim)[: 2 * size] for _ in range(count)])
            segments.append((Basis.SET, (members[:, :size], members[:, size:])))
        elif dense_rows:
            rows = np.zeros((count, dim))
            for row in rows:  # sparse rows, half-full rows and full rows
                hit = rng.random(dim) < rng.choice([0.1, 0.5, 1.0])
                row[hit] = rng.choice(special, size=int(hit.sum()))
            segments.append((Basis.LIFT, (rows, maps[0])))
        else:  # lifts whose blocks take special values
            block_of = maps[int(rng.integers(0, 2))]
            coeffs = rng.choice(special, size=(count, int(block_of.max()) + 1))
            coeffs[rng.random(coeffs.shape) < 0.3] = 0.0
            segments.append((Basis.LIFT, (coeffs, block_of)))
    basis = Basis(dim, segments)
    assert np.array(basis).tobytes() == dense_form(basis).tobytes()
    for indent in (0, 3):
        assert _emit_json(basis, indent) == table_emit(dense_form(basis), indent)
        assert _emit_json({"basis": basis}, indent) == _emit_json(
            {"basis": dense_form(basis).tolist()}, indent
        )
    assert _emit_json(Basis(4), 2) == "[]"


# ---------------------------------------------------------------------------
# what a request builds
# ---------------------------------------------------------------------------


def test_structural_spectrum_builds_no_dense_matrix(capsys, monkeypatch):
    calls = []
    real = powspec.cli.universal_matrix

    def counted(*args):
        calls.append(args)
        return real(*args)

    def refuse(*args):
        raise AssertionError("universal_matrix called")

    monkeypatch.setattr("powspec.cli.universal_matrix", refuse)
    for flags in ((), ("--complement",), ("--variant", "proper", "--format", "csv")):
        code, out, _ = run(capsys, "spectrum", "--group", "dn", "--n", "15", *flags)
        assert code == 0 and out

    monkeypatch.setattr("powspec.cli.universal_matrix", counted)
    code, out, _ = run(capsys, "spectrum", "--group", "zn", "--n", "12", "--vectors")
    assert code == 0 and len(calls) == 1
    assert json.loads(out)["verification"]["passed"] is True

    flip_divisor_edge(monkeypatch)
    code, out, _ = run(capsys, "spectrum", "--group", "zn", "--n", "12")
    assert code == 2 and out == "" and len(calls) == 1


def test_successive_main_calls_match_separate_processes(capsys):
    requests = [
        ("spectrum", "--group", "qn", "--n", "3", "--complement", "--vectors", "--params=-1,2,0,1"),
        ("spectrum", "--group", "zn", "--n", "10", "--format", "csv", "--preset", "seidel"),
        ("charpoly", "--group", "dn", "--n", "5", "--quotient", "--params", "-2,0,-1,1"),
        ("spectrum", "--group", "zn", "--n", "6", "--preset", "laplacian", "--oracle-check"),
        ("spectrum", "--group", "zn", "--n", "4", "--bogus"),
        ("graph", "--group", "dn", "--n", "3", "--variant", "proper"),
    ]
    in_process = [run(capsys, *argv)[:2] for argv in requests]

    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    for argv, (code, out) in zip(requests, in_process):
        done = subprocess.run(
            [sys.executable, "-m", "powspec.cli", *argv],
            env=env, capture_output=True, text=True, timeout=120,
        )
        assert (done.returncode, done.stdout) == (code, out), argv


def test_plain_requests_build_no_oracle(capsys, monkeypatch):
    def refuse(*args):
        raise ValueError("power_graph_oracle called")  # main turns it into exit 1

    monkeypatch.setattr("powspec.groups.power_graph_oracle", refuse)
    monkeypatch.setattr("powspec.cli.power_graph_oracle", refuse)
    for argv in (
        ("spectrum", "--group", "zn", "--n", "5040"),
        ("spectrum", "--group", "dn", "--n", "15", "--complement", "--variant", "proper"),
        ("spectrum", "--group", "qn", "--n", "6", "--format", "csv"),
        ("charpoly", "--group", "zn", "--n", "12", "--quotient", "--params=1,-1,2,3"),
        ("charpoly", "--group", "qn", "--n", "15", "--normalized", "--at", "1/2"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out, (argv, err)
    code, _, err = run(capsys, "spectrum", "--group", "zn", "--n", "12", "--vectors")
    assert code == 1 and "power_graph_oracle called" in err


def test_spectrum_beyond_the_oracle(capsys):
    code, out, _ = run(capsys, "spectrum", "--group", "zn", "--n", "27720")
    assert code == 0
    report = json.loads(out)
    assert report["order"] == 27720
    assert sum(e["multiplicity"] for e in report["eigenspaces"]) == 27720


@pytest.mark.parametrize(
    "argv, reason",
    [
        (("spectrum", "--tol", "nan"), "--tol must be finite and positive"),
        (("spectrum", "--tol", "inf"), "--tol must be finite and positive"),
        (("spectrum", "--tol", "0"), "--tol must be finite and positive"),
        (("spectrum", "--tol=-1e-8"), "--tol must be finite and positive"),
        (("verify", "--tol", "nan"), "--tol must be finite and positive"),
        (("verify", "--count", "-3"), "--count must be at least 1"),
        (("verify", "--count", "0"), "--count must be at least 1"),
        (("spectrum", "--params=1e-400,0,0,0"), "rounds to 0 as a float"),
        (("charpoly", "--quotient", "--params=-1e-400,1,0,0"), "rounds to 0 as a float"),
    ],
    ids=[
        "tol-nan", "tol-inf", "tol-zero", "tol-negative", "verify-tol-nan", "count-negative",
        "count-zero", "alpha-underflow", "quotient-alpha-underflow",
    ],
)
def test_inputs_that_would_pass_vacuously_exit_1(capsys, argv, reason):
    code, out, err = run(capsys, argv[0], "--group", "zn", "--n", "12", *argv[1:])
    assert code == 1
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("usage error: ") and reason in lines[0]


@pytest.mark.parametrize(
    "argv",
    [
        ("spectrum", "--group", "zn", "--n", "360", "--vectors"),
        ("verify", "--group", "zn", "--n", "60", "--count", "400"),
    ],
    ids=["spectrum", "verify"],
)
def test_closed_stdout_exits_quietly(argv):
    root = Path(__file__).resolve().parent.parent
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(root / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.Popen(
        [sys.executable, "-m", "powspec.cli", *argv],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    assert proc.stdout.readline()  # then the reader goes away, like "| head -1"
    proc.stdout.close()
    err = proc.stderr.read().decode()
    proc.stderr.close()
    assert proc.wait(timeout=120) == 1
    assert "Traceback" not in err and "BrokenPipeError" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "60", "--params=1e307,0,0,0"),
        ("--n", "60", "--params=1,0,0,1e307"),
        ("--n", "26", "--variant", "proper", "--params=2,-1e300,-3,0", "--tol", "1e300",
         "--vectors"),
        ("--n", "60", "--params=1e307,0,0,0", "--format", "csv"),
    ],
    ids=["nan-value", "inf-value", "inf-tolerance", "csv-nan-value"],
)
def test_non_finite_reports_exit_1(capsys, argv):
    code, out, err = run(capsys, "spectrum", "--group", "zn", *argv)
    assert code == 1
    assert out == ""
    lines = [line for line in err.splitlines() if not line.startswith("#")]
    assert lines == ["error: a value does not fit a float (beyond about 1.8e308)"]


EDGE_VALUES = [
    "nan", "inf", "-inf", "1e400", "-1e400", "1e-400", "-1e-400", "0", "1/0", "1e300", "-1e300",
    "1e307", "5e-324",
]
PLAIN_VALUES = ["1", "-2", "3/2", "-5/7", "0.25", "1e-30", "2", "7"]


def fuzz_value(rng):
    return rng.choice(EDGE_VALUES if rng.random() < 0.3 else PLAIN_VALUES)


def fuzz_argv(rng):
    """One argv drawn from the CLI grammar: every subcommand, family and
    variant, n up to 40 (and some invalid), presets, and --params, --tol,
    --count and --at values that reach the float range's edges."""
    command = rng.choice(["spectrum", "spectrum", "spectrum", "verify", "charpoly", "graph"])
    argv = [command, "--group", rng.choice(["zn", "dn", "qn"])]
    n = str(rng.randint(1, 40)) if rng.random() < 0.9 else rng.choice(["0", "-3", "x", "1e2"])
    argv.append(f"--n={n}")
    if rng.random() < 0.5:
        argv += ["--variant", rng.choice(["power", "proper"])]
    if command in ("spectrum", "charpoly", "graph") and rng.random() < 0.5:
        argv.append("--complement")
    normalized = command == "charpoly" and rng.random() < 0.5
    if command in ("spectrum", "charpoly") and not normalized:
        draw = rng.random()
        if draw < 0.3:
            argv += ["--preset", rng.choice(["adjacency", "laplacian", "signless", "seidel"])]
        elif draw < 0.9:
            values = ",".join(fuzz_value(rng) for _ in range(4 if rng.random() < 0.9 else 3))
            argv.append(f"--params={values}")
    if command in ("spectrum", "verify") and rng.random() < 0.4:
        argv.append(f"--tol={fuzz_value(rng)}")
    if command == "spectrum":
        for flag in ("--vectors", "--oracle-check"):
            if rng.random() < 0.3:
                argv.append(flag)
        if rng.random() < 0.3:
            argv += ["--format", rng.choice(["json", "csv"])]
    if command == "verify":
        count = rng.choice(EDGE_VALUES) if rng.random() < 0.3 else rng.choice(["1", "2"])
        argv.append(f"--count={count}")
        if rng.random() < 0.5:
            argv += ["--seed", str(rng.randint(0, 9))]
    if command == "charpoly":
        argv += ["--normalized", f"--at={fuzz_value(rng)}"] if normalized else ["--quotient"]
    return argv


def reject_constant(name):
    raise ValueError(f"{name} in JSON output")


def test_argv_fuzz_exits_cleanly(capsys):
    """Seeded argv draws end in exit 0, 1 or 2 without a traceback or a
    warning, and an exit 0 prints what its format promises: JSON without
    NaN or Infinity, or CSV rows of finite values.  Pytest records a
    warning rather than let it reach stderr, so the draws record them
    here; outside pytest numpy's RuntimeWarning would print two lines
    before the one-line error.  No exit 0 carries "passed": false: a failed
    check row, the residual row included, exits 2."""
    rng = random.Random("cli:argv-fuzz")
    codes = {0: 0, 1: 0, 2: 0}
    for _ in range(2000):
        argv = fuzz_argv(rng)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            try:
                code = main(argv)
            except (Exception, SystemExit) as exc:  # a traceback would end the process here
                pytest.fail(f"{' '.join(argv)} raised {exc!r}")
        assert not caught, (argv, [str(w.message) for w in caught])
        out, err = capsys.readouterr()
        assert code in codes, argv
        assert "Traceback" not in err, argv
        codes[code] += 1
        assert code != 0 or '"passed": false' not in out, argv
        if code != 0 or argv[0] in ("verify", "graph"):
            continue
        if "csv" in argv:
            for row in out.splitlines()[1:]:
                assert np.isfinite(float(row.split(",")[0])), argv
        else:
            json.loads(out, parse_constant=reject_constant)
    assert codes[0] > 800 and codes[1] > 400, codes
