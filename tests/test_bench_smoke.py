"""The benchmark harness in bench/ still sets up and checks its cases."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
LIGHT = ["h-R3-TQ2-Z3", "h-A4-TQ3-F4", "h-R3-TD2-Z9", "c-R3-TQ3-Z",
         "s-R3-3-Z", "s-X9-2-Z3-noncoboundary"]


@pytest.fixture(scope="module")
def bench():
    # import without writing bytecode caches into bench/
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        import cases
        import runner
        import spans
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved
    return cases, runner, spans


def _run_light(cases, runner):
    ctx = cases.setup_homology(1)
    by_name = {c.name: c for c in ctx.cases}
    for name in LIGHT:
        case = by_name[name]
        status, _seconds, raw, error = runner.run_once(case)
        assert status == "ok", (name, error)
        assert case.checks, name
        for label, check in case.checks:
            assert check(raw) is None, (name, label)


def test_light_homology_cases_pass_their_checks(bench):
    cases, runner, _ = bench
    _run_light(cases, runner)


def test_traced_light_cases_reach_the_engine(bench):
    # the per-layer metrics wrap exactlin's public functions, so they
    # read 0 when the engine is entered through any other name
    cases, runner, spans = bench
    tracer = spans.Tracer()
    tracer.install()
    try:
        _run_light(cases, runner)
    finally:
        tracer.uninstall()
    metrics = spans.layer_metrics(tracer)
    assert metrics["exactlin.homology_segment.calls"] > 0
    assert metrics["exactlin.solve_linear.calls"] > 0
