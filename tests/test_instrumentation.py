"""The names the span tracer of ``perfbench`` wraps must stay the ones the
package calls through; otherwise its per-layer metrics silently read 0."""

import importlib.util
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
    box = Box.from_bounds([(0.5, 1.0), (0.5, 1.5), (1.0, 2.0)])
    bounds.eval_original(cl, box)
    assert calls.get("lambda_s", 0) > 0 and calls.get("lambda_t", 0) > 0
    calls.clear()
    bounds.eval_improved(cl, box)
    assert calls.get("lambda_s", 0) > 0 and calls.get("lambda_t", 0) > 0
    assert calls.get("lambda_star", 0) > 0


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
