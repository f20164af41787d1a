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


@pytest.mark.parametrize("method,lo,hi", [
    ("original", 0.0, 4.0),
    ("improved", 2.0, 2.0),
    ("gershgorin", 2.0, 2.0),
    ("hertzrohn", 2.0, 2.0),
])
def test_eval_all_methods(capsys, method, lo, hi):
    code, out, _ = run(capsys, "eval", "--inline", "x1^2 + x2^2",
                       "--vars", "2", "--box", "0,1;0,1",
                       "--method", method, "--json")
    assert code == 0
    data = json.loads(out)
    assert math.isclose(data["eigen"][0], lo, abs_tol=1e-10)
    assert math.isclose(data["eigen"][1], hi, abs_tol=1e-10)


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


def test_underestimate_point_outside(capsys):
    code, _, err = run(capsys, "underestimate", "--inline", "x1*x2",
                       "--vars", "2", "--box", "0,1;0,1", "--at", "2,2")
    assert code == 2 and "error" in err


def test_eval_overflow_is_clean_error(capsys):
    code, out, err = run(capsys, "eval", "--inline", "x1^2", "--vars", "1",
                         "--box", "1e200,1e201")
    assert code == 2 and out == ""
    assert err.startswith("error:") and "Traceback" not in err


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
