"""The names the span tracer of ``perfbench`` wraps must stay the ones the
package calls through; otherwise its per-layer metrics silently read 0."""

import importlib.util
import pickle
from pathlib import Path

import pytest

from hessbound import Box, Codelist, Interval, InvalidInterval, bounds, compile_expression, harness
from hessbound.interval import ONE


def _load_tracing():
    path = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_tracer_hook_resolves_to_a_callable():
    tracing = _load_tracing()
    for name, sites in tracing.HOOKS:
        for target, attr in sites:
            assert callable(getattr(tracing._resolve(target), attr, None)), (name, target, attr)


def test_compile_expression_analyses_once_through_the_class(monkeypatch):
    calls = []
    analyze = Codelist.analyze

    def counted(cl):
        calls.append(cl)
        return analyze(cl)

    monkeypatch.setattr(Codelist, "analyze", counted)
    cl = compile_expression("x1*x2 + exp(x1)", 2)
    assert calls == [cl]


@pytest.fixture
def constructions(monkeypatch):
    count = [0]
    post_init = Interval.__post_init__

    def counted(iv):
        count[0] += 1
        post_init(iv)

    monkeypatch.setattr(Interval, "__post_init__", counted)
    return count


def test_post_init_runs_once_per_interval_built(constructions):
    a, b = Interval(-1.0, 2.0), Interval(0.5, 3.0)
    assert constructions[0] == 2
    for build in (lambda: a + b, lambda: a * b, lambda: a.pow(2), lambda: a.pow(3)):
        before = constructions[0]
        assert type(build()) is Interval
        assert constructions[0] == before + 1
    # the trivial powers return an existing interval
    before = constructions[0]
    assert a.pow(1) is a and a.pow(0) is ONE
    assert constructions[0] == before


def test_post_init_still_validates_when_wrapped(constructions):
    with pytest.raises(InvalidInterval, match="lo > hi"):
        Interval(2.0, 1.0)
    assert constructions[0] == 1


def test_the_gradient_box_is_built_on_first_read(constructions):
    # every variable is in the gradient's support, so each entry is an Interval built
    cl = compile_expression("x1*x2 + x3*x4 + exp(x5*x6) + (x7 + x8)^2", 8)
    box = Box.from_bounds([(0.5, 1.0)] * 8)
    res = bounds.eval_original(cl, box)
    before = constructions[0]
    gradient = res.gradient
    assert constructions[0] == before + 8 and len(gradient) == 8
    assert res.gradient is gradient and constructions[0] == before + 8


def test_results_compare_by_their_fields_gradient_included():
    cl = compile_expression("x1*x2 + exp(x1)", 2)
    box = Box.from_bounds([(0.5, 1.0), (0.0, 2.0)])
    res = bounds.eval_original(cl, box)
    assert bounds.eval_original(cl, box) == res  # on the kept value pass
    assert bounds.eval_original(cl, Box.from_bounds([(0.5, 1.0), (0.0, 2.0)])) == res
    same = bounds.EvalResult(res.value, res.gradient, res.eigen, res.method, res.op_count)
    assert same == res and repr(same) == repr(res)
    assert repr(res).startswith(f"EvalResult(value={res.value!r}, gradient=Box(")
    other = Box([res.gradient[0], Interval(0.0, 0.0)])
    assert bounds.EvalResult(res.value, other, res.eigen, res.method, res.op_count) != res
    assert pickle.loads(pickle.dumps(res)) == res


def test_engines_call_the_lambda_operators_through_the_module(monkeypatch):
    calls = {}
    for name in ("lambda_s", "lambda_t", "lambda_star"):
        original = getattr(bounds, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(bounds, name, counted)
    # products of one-variable factors fire the 2x2 rule of the improved engine
    cl = compile_expression("exp(x1)*exp(x2) + x1*x3 + x2^2", 3)
    ranges = [(0.5, 1.0), (0.5, 1.5), (1.0, 2.0)]
    bounds.eval_original(cl, Box.from_bounds(ranges))
    assert calls.get("lambda_s", 0) > 0 and calls.get("lambda_t", 0) > 0
    calls.clear()
    bounds.eval_improved(cl, Box.from_bounds(ranges))
    assert calls.get("lambda_s", 0) > 0 and calls.get("lambda_t", 0) > 0
    assert calls.get("lambda_star", 0) > 0
    # every λ_s / λ_t block here has two or more variables, so the engine that
    # comes second on a box reads the first one's terms and calls neither
    cl = compile_expression("exp(x1 + x2)*(x2 + x3)", 3)
    for first, second in ((bounds.eval_original, bounds.eval_improved),
                          (bounds.eval_improved, bounds.eval_original)):
        box = Box.from_bounds(ranges)
        calls.clear()
        first(cl, box)
        assert calls == {"lambda_s": 1, "lambda_t": 1}
        calls.clear()
        second(cl, box)
        assert calls == {}


def test_run_compare_calls_the_references_through_the_harness(monkeypatch):
    calls = {}
    for name in ("interval_hessian", "gershgorin_bounds", "hertz_rohn_bounds"):
        original = getattr(harness, name)

        def counted(*args, _name=name, _original=original):
            calls[_name] = calls.get(_name, 0) + 1
            return _original(*args)

        monkeypatch.setattr(harness, name, counted)
    entry = harness.CorpusEntry("bilinear", 2, Box.from_bounds([(0.5, 1.0), (0.5, 1.5)]),
                                "x1*x2 + exp(x1)")
    result = harness.run_compare([entry], boxes_per_function=3, seed=0)
    assert len(result.records) == 6 and not result.skips
    assert calls == {"interval_hessian": 3, "gershgorin_bounds": 3, "hertz_rohn_bounds": 3}
