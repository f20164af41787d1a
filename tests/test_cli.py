"""Command-line interface behaviour."""

import json
import math

import pytest

from hessbound.cli import main
from hessbound.harness import random_function, write_corpus


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# -- eval -----------------------------------------------------------------

def test_eval_json_schema(capsys):
    code, out, _ = run(capsys, "eval", "--inline", "x1^2 + x2*exp(x2)",
                       "--vars", "2", "--box", "0,1;0,1",
                       "--method", "improved", "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"method", "value", "gradient", "eigen", "opCount"}
    assert data["method"] == "improved"
    assert math.isclose(data["eigen"][0], 2.0)
    assert math.isclose(data["eigen"][1], 3 * math.e)
    assert len(data["gradient"]) == 2
    assert isinstance(data["opCount"], int) and data["opCount"] > 0


# the engines' op counts, n^2 + 11n - 2 and 10n - 1 at n = 2; the
# interval-Hessian routes keep no count
METHODS = [
    ("original", 0.0, 4.0, 24),
    ("improved", 2.0, 2.0, 19),
    ("gershgorin", 2.0, 2.0, None),
    ("hertzrohn", 2.0, 2.0, None),
]


@pytest.mark.parametrize("method,lo,hi,ops", METHODS,
                         ids=[f"{m}-{lo}-{hi}" for m, lo, hi, _ in METHODS])
def test_eval_all_methods(capsys, method, lo, hi, ops):
    args = ("eval", "--inline", "x1^2 + x2^2", "--vars", "2", "--box", "0,1;0,1",
            "--method", method)
    code, out, _ = run(capsys, *args, "--json")
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"method", "value", "gradient", "eigen", "opCount"}
    assert math.isclose(data["eigen"][0], lo, abs_tol=1e-10)
    assert math.isclose(data["eigen"][1], hi, abs_tol=1e-10)
    assert data["opCount"] == ops
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert f"opCount:  {'n/a' if ops is None else ops}\n" in out


@pytest.mark.parametrize("method", ["gershgorin", "hertzrohn"])
def test_eval_interval_hessian_methods_run_no_engine(capsys, method):
    # both engines' λ bounds overflow here (λ_t and λ*), the interval Hessian's does not
    args = ("eval", "--inline", "(1e100*x1)*(1e100*x2)", "--vars", "2", "--box", "0,1;0,1",
            "--method", method)
    code, out, err = run(capsys, *args, "--json")
    assert (code, err) == (0, "")
    assert json.loads(out) == {"method": method, "value": [0.0, 1e200],
                               "gradient": [[0.0, 1e200], [0.0, 1e200]],
                               "eigen": [-1e200, 1e200], "opCount": None}
    code, out, _ = run(capsys, *args)
    assert code == 0 and "eigen:    [-1e+200, 1e+200]\nopCount:  n/a\n" in out
    for engine in ("original", "improved"):  # each names the line whose λ overflows
        code, _, err = run(capsys, *args[:-1], engine)
        assert (code, err) == (2, "error: non-finite endpoints [-inf, inf] at codelist line 5\n")


def test_eval_from_file(capsys, tmp_path):
    f = tmp_path / "fn.txt"
    f.write_text("x1*x2\n")
    code, out, _ = run(capsys, "eval", "--expr", str(f), "--vars", "2",
                       "--box", "0,1;0,1", "--json")
    assert code == 0
    assert json.loads(out)["eigen"] == [-1.0, 1.0]


def test_eval_bad_box_dimension(capsys):
    code, _, err = run(capsys, "eval", "--inline", "x1 + x2", "--vars", "2",
                       "--box", "0,1")
    assert code == 2 and "error" in err


def test_eval_malformed_box_component_names_it(capsys):
    code, out, err = run(capsys, "eval", "--inline", "x1", "--vars", "1",
                         "--box", "1,2,3")
    assert code == 2 and out == ""
    assert err == "error: box component 1 is '1,2,3', expected the form lo,hi\n"


def test_eval_malformed_box_number_names_its_component(capsys):
    code, out, err = run(capsys, "eval", "--inline", "x1", "--vars", "1",
                         "--box", "a,1")
    assert code == 2 and out == ""
    assert err == "error: box component 1 is 'a,1', expected the form lo,hi\n"


@pytest.mark.parametrize("opening", ["(", "exp("])
def test_eval_nesting_too_deep_is_one_error_line(capsys, opening):
    code, out, err = run(capsys, "eval", "--inline", opening * 400 + "x1" + ")" * 400,
                         "--vars", "1", "--box", "0,1")
    assert code == 2 and out == ""
    assert err.count("\n") == 1 and err.startswith("error: syntax error at position ")
    assert "nested deeper than" in err


def test_eval_domain_error_reported(capsys):
    code, _, err = run(capsys, "eval", "--inline", "ln(x1)", "--vars", "1",
                       "--box=-1,1")
    assert code == 2 and "error" in err


# -- compare --------------------------------------------------------------

def test_compare_writes_csv(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(str(corpus), [random_function(2, seed=s) for s in (1, 2)])
    out_file = tmp_path / "report.csv"
    code, out, _ = run(capsys, "compare", "--corpus", str(corpus),
                       "--boxes", "5", "--seed", "3", "--out", str(out_file))
    assert code == 0 and "wrote" in out
    text = out_file.read_text()
    assert text.startswith("method,n,bound,cases,")


def test_compare_malformed_corpus_file_is_one_error_line_naming_it(capsys, tmp_path):
    (tmp_path / "f.txt").write_text("vars: two\n# domain: 0,1;0,1\nx1*x2\n")
    code, out, err = run(capsys, "compare", "--corpus", str(tmp_path))
    assert code == 2 and out == ""
    assert err == "error: f.txt: vars: 'two' is not a whole number\n"


@pytest.mark.parametrize("text,error", [
    ("vars: 0\n# domain:\nx1\n", "f.txt: vars: 0 must be at least 1"),
    ("vars: 1\n# domain: 0,1\nx2\n", "f: x2 with n=1"),
])
def test_compare_names_the_corpus_entry_it_cannot_read_or_compile(capsys, tmp_path, text, error):
    (tmp_path / "f.txt").write_text(text)
    code, out, err = run(capsys, "compare", "--corpus", str(tmp_path))
    assert code == 2 and out == ""
    assert err == f"error: {error}\n"


def test_compare_rejects_a_file_that_is_not_utf8_and_a_box_count_below_zero(capsys, tmp_path):
    (tmp_path / "bad").mkdir()
    (tmp_path / "bad" / "f.txt").write_bytes(b"vars: 1\n# domain: 0,1\n\xff\xfe x1\n")
    code, out, err = run(capsys, "compare", "--corpus", str(tmp_path / "bad"))
    assert (code, out, err) == (2, "", "error: f.txt: not UTF-8 text (invalid start byte at byte 22)\n")
    write_corpus(str(tmp_path / "good"), [random_function(2, seed=7)])
    code, out, err = run(capsys, "compare", "--corpus", str(tmp_path / "good"),
                         "--boxes", "-3", "--format", "table")
    assert (code, out, err) == (2, "", "error: box count -3 is below 0\n")


@pytest.mark.parametrize("eps", ["-1", "nan"])
def test_compare_rejects_a_negative_or_nan_tolerance(capsys, tmp_path, eps):
    write_corpus(str(tmp_path), [random_function(2, seed=7)])
    code, out, err = run(capsys, "compare", "--corpus", str(tmp_path), "--boxes", "3",
                         f"--eps={eps}")
    assert (code, out, err) == (
        2, "", f"error: comparison tolerance {float(eps)!r} is not a finite number of 0 or more\n")


def test_compare_stdout_table(capsys, tmp_path):
    corpus = tmp_path / "corpus"
    write_corpus(str(corpus), [random_function(2, seed=7)])
    code, out, _ = run(capsys, "compare", "--corpus", str(corpus),
                       "--boxes", "3", "--format", "table")
    assert code == 0 and "method" in out


# -- underestimate --------------------------------------------------------

def test_underestimate_json(capsys):
    code, out, _ = run(capsys, "underestimate", "--inline", "x1*x2",
                       "--vars", "2", "--box", "0,1;0,1",
                       "--at", "0.5,0.5", "--json")
    assert code == 0
    data = json.loads(out)
    assert math.isclose(data["eigenLower"], -1.0)
    assert abs(data["value"]) < 1e-12


def test_underestimate_text(capsys):
    code, out, err = run(capsys, "underestimate", "--inline", "x1*x2",
                         "--vars", "2", "--box", "0,1;0,1", "--at", "0.5,0.5")
    assert (code, out, err) == (0, "eigenLower: -1\nvalue:      0\n", "")


def test_underestimate_point_of_the_wrong_length(capsys):
    code, out, err = run(capsys, "underestimate", "--inline", "x1*x2",
                         "--vars", "2", "--box", "0,1;0,1", "--at", "0.5")
    assert (code, out, err) == (2, "", "error: point has 1 components, expected 2\n")


def test_underestimate_malformed_point_names_its_component(capsys):
    code, out, err = run(capsys, "underestimate", "--inline", "x1*x2",
                         "--vars", "2", "--box", "0,1;0,1", "--at", "a,1")
    assert code == 2 and out == ""
    assert err == "error: point component 1 is 'a', expected a number\n"


def test_underestimate_point_outside(capsys):
    code, _, err = run(capsys, "underestimate", "--inline", "x1*x2",
                       "--vars", "2", "--box", "0,1;0,1", "--at", "2,2")
    assert code == 2 and "error" in err


def test_eval_overflow_is_clean_error(capsys):
    code, out, err = run(capsys, "eval", "--inline", "x1^2", "--vars", "1",
                         "--box", "1e200,1e201")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


def test_eval_overflowing_constant_fold_is_clean_error(capsys):
    code, out, err = run(capsys, "eval", "--inline", "2^2000*x1", "--vars", "1",
                         "--box", "0,1")
    assert code == 2 and out == ""
    assert err == ("error: syntax error at position 0: "
                   "constant fold of PowNat at 2.0 with m = 2000 is undefined\n")


# -- convexity ------------------------------------------------------------

def test_convexity_positive(capsys):
    code, out, _ = run(capsys, "convexity", "--inline", "x1^2 + x2^2",
                       "--vars", "2", "--box", "0,1;0,1")
    assert code == 0
    assert out.splitlines()[0] == "convex"


def test_convexity_negative(capsys):
    code, out, _ = run(capsys, "convexity", "--inline", "x1*x2",
                       "--vars", "2", "--box", "0,1;0,1")
    assert code == 1
    assert "not certified" in out
