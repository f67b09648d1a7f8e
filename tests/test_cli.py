import io
import json
import os
import tempfile
import time
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import sra
from sra.algebra import Algebra
from sra.cli import DOMAIN_ERRORS, main
from sra.group import cyclic_sp2
from sra.scalar import ETA_DEGREE_CAP, POWER_CAP
from sra.traces import InconsistentGLCError, gram, solve_glc


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_counts_doubled_a(capsys):
    code, out, _ = run(capsys, "counts", "--builtin", "doubled-A", "--rank", "3")
    assert code == 0
    assert "T = 1" in out and "S = 2" in out


def test_counts_json_deterministic(capsys):
    code1, out1, _ = run(capsys, "--json", "counts", "--builtin", "cyclic", "--n", "4")
    code2, out2, _ = run(capsys, "--json", "counts", "--builtin", "cyclic", "--n", "4")
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["traces"] == 3 and payload["supertraces"] == 3


def test_glc_cyclic2(capsys):
    code, out, _ = run(capsys, "glc", "--builtin", "cyclic", "--n", "2",
                       "--kappa", "-1")
    assert code == 0
    assert "-eta0*P0" in out


def test_group_info_and_save(tmp_path, capsys):
    path = tmp_path / "b2.json"
    code, out, _ = run(capsys, "group", "--builtin", "doubled-B", "--rank", "2",
                       "--save", str(path))
    assert code == 0
    assert "Klein operator: present" in out
    saved = json.loads(path.read_text())
    assert saved["N"] == 2
    # reload through the eval command
    code, out, _ = run(capsys, "eval", "--group", str(path), "--kappa", "-1",
                       "--expr", "a1*a2")
    assert code == 0


def test_eval_parse_error_exit_1(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({
        "name": "Z2", "N": 1, "cyclotomic_order": 2,
        "generators": [[["-1", "0"], ["0", "-1"]]],
    }))
    code, out, err = run(capsys, "eval", "--group", str(path), "--kappa", "-1",
                         "--expr", "a3")
    assert code == 1
    assert "out of range" in err and "position" in err


def test_usage_error_exit_2(capsys):
    with pytest.raises(SystemExit) as e:
        main(["glc", "--kappa", "7", "--builtin", "cyclic", "--n", "2"])
    assert e.value.code == 2


def test_missing_group_selection(capsys):
    code, _, err = run(capsys, "counts")
    assert code == 1
    assert "exactly one" in err


def test_eval_with_eta_assignment(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({
        "name": "Z2", "N": 1, "cyclotomic_order": 2,
        "generators": [[["-1", "0"], ["0", "-1"]]],
        "eta": {"R0": "1/2"},
    }))
    code, out, _ = run(capsys, "eval", "--group", str(path), "--kappa", "-1",
                       "--expr", "a1*a2")
    assert code == 0
    assert "at eta = (1/2)" in out
    # str(a1 a2) = (1 - eta^2)/2 -> 3/8 at eta = 1/2
    assert "3/8" in out


def test_eval_at_eta_line_in_parameter_order(tmp_path, capsys):
    path = tmp_path / "c12.json"
    assert run(capsys, "group", "--builtin", "cyclic", "--n", "12", "--save", str(path))[0] == 0
    content = json.loads(path.read_text())
    content["eta"] = {f"R{i}": "1" for i in range(11)}
    path.write_text(json.dumps(content))
    point = "at eta = (" + ", ".join(["1"] * 11) + "): "
    lines = {}
    for expr in ("a1*a2*g0 + g0^2", "g0^2 + g0^10 + g0^5", "a1*a2*g0"):
        code, out, _ = run(capsys, "eval", "--group", str(path), "--kappa", "1", "--expr", expr)
        assert code == 0
        lines[expr] = out.splitlines()[-1].strip()
    # the vanishing parameters are left out, the rest run P2 before P10
    assert lines["a1*a2*g0 + g0^2"] == point + "P7: 1"
    assert lines["g0^2 + g0^10 + g0^5"] == point + "P3: 1, P7: 1, P10: 1"
    assert lines["a1*a2*g0"] == point + "0"
    # the JSON keeps the vanishing values
    code, out, _ = run(capsys, "--json", "eval", "--group", str(path), "--kappa", "1",
                       "--expr", "a1*a2*g0 + g0^2")
    entry = json.loads(out)["kappa"]["1"]
    assert entry["eta_point"] == ["1"] * 11
    assert entry["value_at_eta"] == {f"P{i}": "1" if i == 7 else "0" for i in range(11)}


def test_eval_at_eta_keeps_a_symbolic_eta(tmp_path, capsys):
    # doubled B_2 with eta0 = 1/2 and eta1 left symbolic: only eta0 is
    # substituted, where a symbolic eta1 used to read as 0
    path = tmp_path / "b2.json"
    assert run(capsys, "group", "--builtin", "doubled-B", "--rank", "2",
               "--save", str(path))[0] == 0
    content = json.loads(path.read_text())
    lines = {}
    for r1 in ("symbolic", "0"):
        content["eta"] = {"R0": "1/2", "R1": r1}
        path.write_text(json.dumps(content))
        code, out, _ = run(capsys, "eval", "--group", str(path), "--kappa", "-1",
                           "--expr", "a1*a3")
        assert code == 0
        lines[r1] = out.splitlines()[-1].strip()
    assert lines["symbolic"] == "at eta = (1/2, symbolic): P0: -1/2*eta1, P1: 3/8 - 1/2*eta1^2"
    assert lines["0"] == "at eta = (1/2, 0): P1: 3/8"
    content["eta"] = {"R0": "1/2", "R1": "symbolic"}
    path.write_text(json.dumps(content))
    code, out, _ = run(capsys, "--json", "eval", "--group", str(path), "--kappa", "-1",
                       "--expr", "a1*a3")
    entry = json.loads(out)["kappa"]["-1"]
    assert entry["eta_point"] == ["1/2", "symbolic"]
    # the eta-polynomial schema of "value"
    assert [(t["exponent"], t["coeff"]["literal"]) for t in entry["value_at_eta"]["P1"]] \
        == [([0, 0], "3/8"), ([0, 2], "-1/2")]
    assert [(t["exponent"], t["coeff"]["literal"]) for t in entry["value_at_eta"]["P0"]] \
        == [([0, 1], "-1/2")]


@pytest.mark.parametrize("argv, option, text", [
    (("glc", "--builtin", "cyclic", "--n", "2", "--t", "1/0"), "--t", "1/0"),
    (("eval", "--builtin", "cyclic", "--n", "2", "--t", "one", "--expr", "a1"), "--t", "one"),
    (("gram", "--builtin", "cyclic", "--n", "2", "--assignment", "1/0"), "--assignment", "1/0"),
])
def test_bad_rational_option_names_the_option(capsys, argv, option, text):
    code, _, err = run(capsys, *argv)
    assert code == 1
    assert err == f"error: {option} needs a rational number, not {text!r}\n"


def test_gram_cli(capsys):
    code, out, _ = run(capsys, "gram", "--builtin", "cyclic", "--n", "2",
                       "--kappa", "-1", "--degree", "0")
    assert code == 0
    assert "det = 1 - eta0^2" in out
    assert "rational roots: -1, 1" in out


def test_oracle_check_cli(capsys):
    code, out, _ = run(capsys, "oracle-check", "--builtin", "cyclic", "--n", "3",
                       "--kappa", "both", "--max-degree", "2")
    assert code == 0
    assert "0 mismatches" in out


def test_selftest_cli(capsys):
    code, out, _ = run(capsys, "--json", "selftest", "--groups", "cyclic:2",
                       "--samples", "3", "--seed", "1")
    assert code == 0
    payload = json.loads(out)
    entry = payload["groups"]["cyclic:2"]
    assert entry["group_invariants"] is True
    assert entry["kappa+1"]["confluence"] is True


def test_product_builtin_cli(capsys):
    code, out, _ = run(capsys, "counts", "--builtin", "product",
                       "--factors", "cyclic:2,cyclic:3")
    assert code == 0
    assert "T = 2" in out and "S = 3" in out


def test_cap_exceeded_exit_1(tmp_path, capsys):
    path = tmp_path / "free.json"
    path.write_text(json.dumps({
        "name": "shear", "N": 1,
        "generators": [[["1", "1"], ["0", "1"]]],
        "allow_non_reflections": True,
    }))
    code, _, err = run(capsys, "counts", "--group", str(path), "--cap", "50")
    assert code == 1
    assert "cap" in err


def test_infinite_group_of_finite_order_generators_exit_1(tmp_path, capsys):
    # S and ST generate SL(2, Z); each has finite order and passes the
    # generator checks, so the closure meets the cap
    path = tmp_path / "sl2z.json"
    path.write_text(json.dumps({"N": 1, "generators": [[["0", "1"], ["-1", "0"]],
                                                       [["1", "1"], ["-1", "0"]]]}))
    code, out, err = run(capsys, "counts", "--group", str(path), "--cap", "50")
    assert (code, out, err) == (1, "", "error: group closure exceeds cap 50\n")


@pytest.mark.parametrize("group_args", [
    ("--builtin", "doubled-A", "--rank", "5"),
    ("--builtin", "product", "--factors", "cyclic:2,doubled-A:5"),
])
def test_builtin_cap_exceeded_exit_1(group_args, capsys):
    code, _, err = run(capsys, "counts", *group_args, "--cap", "50")
    assert code == 1
    assert "group closure exceeds cap 50" in err


@pytest.mark.parametrize("group_args", [
    ("--builtin", "doubled-A", "--rank", "9"),
    ("--builtin", "doubled-B", "--rank", "7"),
    ("--builtin", "doubled-B", "--rank", "1000000000"),
    ("--builtin", "dihedral", "--n", "60000"),
    ("--builtin", "product", "--factors", "doubled-A:8,doubled-B:4"),
], ids=["S9", "B7", "B-huge", "dihedral-60000", "S8xB4"])
def test_builtin_order_over_cap_is_refused_before_closure(group_args, capsys):
    # each order is known in closed form; a closure would take minutes
    start = time.perf_counter()
    code, out, err = run(capsys, "counts", *group_args)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err.startswith("error: group closure exceeds cap 100000: the group has order ")


@pytest.mark.parametrize("kappa, value, count", [
    ("both", "1", "kappa = -1 has 2"),
    ("both", "1,0", "kappa = +1 has 1"),
    ("-1", "1,0,0", "kappa = -1 has 2"),
])
def test_gram_assignment_arity_names_the_option_and_kappa(capsys, kappa, value, count):
    # S_3 has T = 1 trace and S = 2 supertraces, so under --kappa both no
    # assignment fits
    start = time.perf_counter()
    code, out, err = run(capsys, "gram", "--builtin", "doubled-A", "--rank", "3",
                         "--kappa", kappa, "--assignment", value)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    n = len(value.split(","))
    assert err == f"error: --assignment gives {n} value(s), but {count} free parameter(s)\n"


def test_negative_eta_label_exit_1(tmp_path, capsys):
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({
        "name": "Z2", "N": 1, "cyclotomic_order": 2,
        "generators": [[["-1", "0"], ["0", "-1"]]],
        "eta": {"R-1": "1/2"},
    }))
    code, _, err = run(capsys, "eval", "--group", str(path), "--expr", "a1*a2")
    assert code == 1
    assert "'R-1'" in err


def test_gram_cli_assignment_and_t(capsys):
    code, out, _ = run(capsys, "--json", "gram", "--builtin", "cyclic", "--n", "3",
                       "--degree", "2", "--assignment", "1,2,-1", "--t", "3/2")
    assert code == 0
    fn = solve_glc(Algebra(cyclic_sp2(3), Fraction(3, 2)), -1)
    report = gram(fn, 2, [Fraction(1), Fraction(2), Fraction(-1)])
    assert report.determinant is not None and not report.determinant.is_zero()
    assert json.loads(out)["kappa"]["-1"] == json.loads(json.dumps(report.to_dict()))


@pytest.mark.parametrize("argv, option, value", [
    (("eval", "--builtin", "cyclic", "--n", "2"), "--expr", "-a1*a2"),
    (("gram", "--builtin", "doubled-A", "--rank", "3"), "--assignment", "-1,0"),
    (("glc", "--builtin", "cyclic", "--n", "3"), "--t", "-1/2"),
], ids=["expr", "assignment", "t"])
def test_option_value_with_leading_minus(capsys, argv, option, value):
    spaced = run(capsys, *argv, option, value)
    assert spaced == run(capsys, *argv, f"{option}={value}")
    assert spaced[0] == 0


def test_gram_huge_degree_exit_1(capsys):
    # the basis size is bounded before any monomial is listed
    code, out, err = run(capsys, "gram", "--builtin", "cyclic", "--n", "2",
                         "--degree", "99999999")
    assert code == 1
    assert out == ""
    assert err.startswith("error: Gram basis at degree 99999999 exceeds cap")
    assert "Traceback" not in err


def test_eval_huge_power_exit_1(capsys):
    # the exponent is bounded before the first multiplication
    code, out, err = run(capsys, "eval", "--builtin", "cyclic", "--n", "2",
                         "--expr", "a1^99999999999")
    assert code == 1
    assert out == ""
    assert err.startswith(f"error: exponent 99999999999 exceeds cap {POWER_CAP}")
    assert "Traceback" not in err


def test_eval_eta_degree_cap_exit_1(capsys):
    # each ^64 multiplies the eta degree by 64, past ETA_DEGREE_CAP at the sixth,
    # a degree whose packed exponent would spill out of its 32-bit field
    start = time.perf_counter()
    code, out, err = run(capsys, "eval", "--builtin", "cyclic", "--n", "2",
                         "--expr", "((((((eta0^64)^64)^64)^64)^64)^64)")
    assert time.perf_counter() - start < 1
    assert code == 1
    assert out == ""
    assert err.startswith("error: eta degree ") and f" exceeds cap {ETA_DEGREE_CAP}" in err
    assert "Traceback" not in err
    code, out, _ = run(capsys, "eval", "--builtin", "cyclic", "--n", "2",
                       "--expr", "(eta0^64)^64")
    assert code == 0
    assert out == ("expr: eta0^4096\nkappa = +1: tr(expr) = -eta0^4097*P0\n"
                   "kappa = -1: str(expr) = eta0^4096*P0\n")


def test_eval_word_with_many_inversions(capsys):
    # 1024 inversions; normal ordering must not recurse once per swap
    code, out, err = run(capsys, "eval", "--builtin", "cyclic", "--n", "2",
                         "--expr", "a2^32*a1^32")
    assert code == 0, err
    assert "a1^32*a2^32" in out


@pytest.mark.parametrize("expr, code, result", [
    ("(" * 400 + "1" + ")" * 400, 1, "parentheses nested deeper than 100"),
    ("+".join(["1"] * 2000), 0, "expr: 2000"),
    ("*".join(["1"] * 2000), 0, "expr: 1"),
    ("-" * 3000 + "1", 0, "expr: 1"),
    ("-" * 2999 + "1", 0, "expr: -1"),
], ids=["parens-400", "sum-2000", "product-2000", "minus-3000", "minus-2999"])
def test_eval_deep_input_fails_closed(capsys, expr, code, result):
    # the tree is as deep as its parentheses, and those are capped before evaluation
    got, out, err = run(capsys, "eval", "--builtin", "cyclic", "--n", "2", f"--expr={expr}")
    assert got == code
    assert result in (out if code == 0 else err)


_EXPR_TOKENS = st.sampled_from(
    ["a1", "a2", "a3", "g0", "g1", "e", "z", "eta0", "eta1", "eta2", "0", "1", "2", "1/2", "2z",
     "+", "-", "*", "(", ")", "^", "^", "1/0", "$"])
_EXPONENT = st.sampled_from(["0", "1", "2", "3", "65", str(10 ** 12)])


@settings(max_examples=150, deadline=5000, derandomize=True)
@given(st.lists(st.one_of(_EXPR_TOKENS, _EXPONENT), max_size=12))
def test_expression_fuzz_fails_closed(tokens):
    # every expression ends in exit 0 or a domain error, at most 12 tokens on Z_3
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
        code = main(["eval", "--builtin", "cyclic", "--n", "3", f"--expr={' '.join(tokens)}"])
    assert code in (0, 1)


@pytest.mark.parametrize("argv,message", [
    (["oracle-check", "--builtin", "cyclic", "--n", "2", "--max-degree", "-1"],
     "degree cutoff must be >= 0"),
    (["selftest", "--groups", "cyclic:2", "--samples", "-1"], "--samples must be >= 1"),
    (["gram", "--builtin", "cyclic", "--n", "2", "--degree", "-2"],
     "degree cutoff must be >= 0"),
    (["selftest", "--groups", "cyclic:2", "--samples", "0"], "--samples must be >= 1"),
])
def test_negative_sizes_exit_1(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert message in err


@pytest.mark.parametrize("kind,param", [("cyclic", "n"), ("dihedral", "n"),
                                        ("doubled-A", "rank"), ("doubled-B", "rank"),
                                        ("product", "factors")])
def test_builtin_needs_its_parameter(capsys, kind, param):
    code, _, err = run(capsys, "counts", "--builtin", kind)
    assert code == 1
    assert f"--builtin {kind} needs --{param}" in err


def test_unknown_product_factor(capsys):
    code, _, err = run(capsys, "counts", "--builtin", "product", "--factors", "cyclic:2,product:2")
    assert code == 1
    assert "unknown product factor 'product:2'" in err


def test_domain_errors_are_value_errors():
    assert DOMAIN_ERRORS == (ValueError, OSError, ZeroDivisionError, InconsistentGLCError)
    for exc in (sra.NotSymplecticError, sra.NotReflectionError, sra.CapExceededError,
                sra.GroupMismatchError, sra.IndefiniteParityError,
                sra.KappaEigenvaluePresentError, sra.ParseError):
        assert issubclass(exc, ValueError)


_Z2 = [[["-1", "0"], ["0", "-1"]]]


@pytest.mark.parametrize("content,field", [
    ({"N": 1}, "'generators'"),
    ([], "object"),
    ("x", "object"),
    ({"N": 1, "generators": 5}, "'generators'"),
    ({"N": 1, "generators": [[[1, 0], [0, 1]]]}, "'generators'"),
    ({"N": 1, "generators": _Z2, "omega": 5}, "'omega'"),
    ({"N": 1, "generators": _Z2, "cyclotomic_order": None}, "'cyclotomic_order'"),
    ({"N": 1, "generators": _Z2, "eta": {"R0": None}}, "'eta'"),
    ({"N": 1, "generators": _Z2, "eta": [1]}, "'eta'"),
])
def test_malformed_group_file_exit_1(tmp_path, capsys, content, field):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(content))
    code, out, err = run(capsys, "counts", "--group", str(path))
    assert code == 1
    assert out == ""
    assert err.startswith("error:") and field in err


def test_group_file_is_a_directory_exit_1(tmp_path, capsys):
    code, _, err = run(capsys, "counts", "--group", str(tmp_path))
    assert code == 1
    assert err.startswith("error:") and "Is a directory" in err


def test_large_cyclotomic_order_exit_1_fast(tmp_path, capsys):
    # Q(zeta_100000) has degree 40000: refused before Phi_m or a power table is built
    path = tmp_path / "big.json"
    path.write_text(json.dumps({"N": 1, "cyclotomic_order": 100_000, "generators": _Z2}))
    for group_args in (("--group", str(path)), ("--builtin", "cyclic", "--n", "100000")):
        start = time.perf_counter()
        code, out, err = run(capsys, "counts", *group_args)
        assert time.perf_counter() - start < 1
        assert code == 1 and out == ""
        assert err.startswith("error: cyclotomic order 100000 exceeds the field degree cap 256")


def test_infinite_order_generator_exit_1_fast(tmp_path, capsys):
    # diag(2, 1/2) is symplectic and passes the reflection test, but its trace
    # 5/2 exceeds 2N = 2, so it has infinite order and the closure never ends
    path = tmp_path / "infinite.json"
    path.write_text(json.dumps({"N": 1, "generators": [[["2", "0"], ["0", "1/2"]]]}))
    start = time.perf_counter()
    code, out, err = run(capsys, "counts", "--group", str(path))
    assert time.perf_counter() - start < 5
    assert code == 1 and out == ""
    assert err.startswith("error: generator 0 has trace 5/2")


@pytest.mark.parametrize("value, need", [
    ("1/0", "a rational number"), ("abc", "a rational number"),
    ("1e99999999", "a rational number with an exponent of at most 999"),
])
def test_bad_eta_value_names_the_label_fast(tmp_path, capsys, value, need):
    # Fraction("1e99999999") alone takes more than 10 s
    path = tmp_path / "z2.json"
    path.write_text(json.dumps({"N": 1, "generators": _Z2, "eta": {"R0": value}}))
    start = time.perf_counter()
    code, out, err = run(capsys, "counts", "--group", str(path))
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: group file eta R0 needs {need}, not {value!r}\n"


@pytest.mark.parametrize("argv, message", [
    (("glc", "--builtin", "cyclic", "--n", "2", "--t", "1e99999999"),
     "--t needs a rational number with an exponent of at most 999, not '1e99999999'"),
    (("gram", "--builtin", "cyclic", "--n", "2", "--assignment", "1,1/0"),
     "--assignment needs a rational number, not '1/0'"),
    (("oracle-check", "--builtin", "cyclic", "--n", "2", "--max-degree", "100000"),
     "oracle comparison count at --max-degree 100000 exceeds cap 100000"),
    (("counts", "--builtin", "product", "--factors", "cyclic"),
     "product factor 'cyclic' is not of the form kind:N, such as 'cyclic:2'"),
    (("selftest", "--groups", "cyclic:2,doubled-A:"),
     "product factor 'doubled-A:' is not of the form kind:N, such as 'cyclic:2'"),
], ids=["t", "assignment", "max-degree", "factors", "selftest-groups"])
def test_outside_input_fails_closed_fast(capsys, argv, message):
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1
    assert code == 1 and out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize("group_args, comparisons", [
    (("cyclic", "--n", "300"), 2700), (("doubled-A", "--rank", "5"), 2569),
    (("doubled-B", "--rank", "4"), 7340), (("doubled-A", "--rank", "6"), 8481),
])
def test_oracle_check_runs_past_the_gram_cap(capsys, monkeypatch, group_args, comparisons):
    # one evaluation per comparison: at the default --max-degree 4 these run
    # more comparisons than GRAM_BASIS_CAP, and the oracle still runs them
    # (the stubs stand in for minutes of evaluations)
    monkeypatch.setattr(sra.cli, "solve_glc", lambda algebra, kappa, verify: algebra)
    monkeypatch.setattr(sra.cli, "oracle_mismatches",
                        lambda fn, exponents: (len(exponents) * len(fn.group.classes), []))
    code, out, err = run(capsys, "oracle-check", "--builtin", *group_args, "--kappa", "1")
    assert code == 0 and err == ""
    assert f"kappa = +1: {comparisons} comparisons, 0 mismatches" in out


@pytest.mark.parametrize("generator", [[["1", "0"], ["0", "1"]], [["-1", "0"], ["0", "-1"]],
                                       [["z", "0"], ["0", "z^5"]]])
def test_trace_on_the_bound_is_finite(tmp_path, capsys, generator):
    # |tr g| = 2N, and 2 cos(2 pi / 6) for zeta_6, are finite orders, never refused
    path = tmp_path / "finite.json"
    path.write_text(json.dumps({"N": 1, "cyclotomic_order": 6, "generators": [generator],
                                "allow_non_reflections": True}))
    code, _, err = run(capsys, "counts", "--group", str(path))
    assert code == 0, err


_LITERAL = st.sampled_from(["1", "-1", "0", "2", "-1/2", "z", "z^2", "1/2*z^3", "1 + z", "x", ""])
_LEAF = st.one_of(st.integers(-2, 6), st.text(max_size=3), st.none(), st.booleans(), _LITERAL)
_MATRIX = st.lists(st.lists(_LITERAL, min_size=2, max_size=2), min_size=2, max_size=2)
_VALUE = st.one_of(
    _LEAF, _MATRIX, st.lists(_MATRIX, max_size=2),
    st.recursive(_LEAF, lambda inner: st.lists(inner, max_size=3), max_leaves=8),
    st.dictionaries(st.sampled_from(["R0", "R1", "R-1", "x"]), _LEAF, max_size=2))


def _mostly(near):
    """Three draws in four from `near`, the fourth from any value."""
    return st.sampled_from([near, near, near, _VALUE]).flatmap(lambda s: s)


_GENERATOR = st.one_of(st.sampled_from([[["-1", "0"], ["0", "-1"]], [["0", "1"], ["-1", "0"]],
                                          [["z", "0"], ["0", "z^2"]], [["1", "1"], ["0", "1"]]]),
                       _MATRIX)
_FIELDS = {
    "N": _mostly(st.just(1)),
    "cyclotomic_order": _mostly(st.sampled_from([1, 2, 3, 4, 6])),
    "omega": _mostly(st.one_of(st.just([["0", "1"], ["-1", "0"]]), _MATRIX)),
    "generators": _mostly(st.lists(_GENERATOR, min_size=1, max_size=2)),
    "eta": _mostly(st.dictionaries(st.sampled_from(["R0", "R1", "R-1", "x"]),
                                   st.sampled_from(["1/2", "symbolic", "-3", "z", ""]),
                                   max_size=2)),
    "allow_non_reflections": _mostly(st.booleans()),
    "name": _mostly(st.text(max_size=3)),
}
# mostly objects near the group-file shape, some far from it, some not objects
_GROUP_FILE = _mostly(st.one_of(
    st.fixed_dictionaries({k: _FIELDS[k] for k in ("N", "generators")},
                          optional={k: v for k, v in _FIELDS.items()
                                    if k not in ("N", "generators")}),
    st.dictionaries(st.sampled_from(sorted(_FIELDS)), _VALUE, max_size=7)))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_GROUP_FILE)
def test_group_file_fuzz_fails_closed(content):
    # every group file that parses as JSON ends in exit 0 or a domain error
    fd, path = tempfile.mkstemp(suffix=".json")
    try:
        with os.fdopen(fd, "w") as fh:
            json.dump(content, fh)
        with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
            code = main(["--json", "counts", "--group", path, "--cap", "50"])
    finally:
        os.unlink(path)
    assert code in (0, 1)
