"""The benchmark harness in bench/ still sets up and checks its cases."""

import os
import sys

import pytest

BENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))), "bench")
LIGHT = {
    "homology": ["h-R3-TQ2-Z3", "h-A4-TQ3-F4", "h-R3-TD2-Z9", "c-R3-TQ3-Z",
                 "s-R3-3-Z", "s-X9-2-Z3-noncoboundary"],
    "statesum": ["t-T2-6", "t-R3-7", "t-X9-4", "t-A4-5",
                 "cat-torus-mod2-modular", "cat-spun-hopf-t3"],
}


@pytest.fixture(scope="module")
def bench():
    # import without writing bytecode caches into bench/
    saved = sys.dont_write_bytecode
    sys.dont_write_bytecode = True
    sys.path.insert(0, BENCH)
    try:
        import cases
        import run
        import runner
        import spans
    finally:
        sys.path.remove(BENCH)
        sys.dont_write_bytecode = saved
    return cases, run, runner, spans


def _run_light(bench, workload):
    """Run the workload's light cases; each must pass its checks and, if
    pinned, match its digest in bench/pinned.json."""
    cases, run, runner, _ = bench
    ctx = cases.WORKLOADS[workload](1)
    pins = run.load_pins()[workload]
    by_name = {c.name: c for c in ctx.cases}
    for name in LIGHT[workload]:
        case = by_name[name]
        status, _seconds, raw, error = runner.run_once(case)
        assert status == "ok", (name, error)
        assert case.checks, name
        for label, check in case.checks:
            assert check(raw) is None, (name, label)
        if case.pin:
            assert run.digest(case.canon(raw)) == pins[name], name


def _traced(bench, workload):
    spans = bench[3]
    tracer = spans.Tracer()
    tracer.install()
    try:
        _run_light(bench, workload)
    finally:
        tracer.uninstall()
    return spans.layer_metrics(tracer)


def test_light_homology_cases_pass_their_checks(bench):
    _run_light(bench, "homology")


def test_light_statesum_cases_pass_their_checks(bench):
    _run_light(bench, "statesum")


def test_traced_light_cases_reach_the_engine(bench):
    # the per-layer metrics wrap exactlin's public functions, so they
    # read 0 when the engine is entered through any other name
    metrics = _traced(bench, "homology")
    assert metrics["exactlin.homology_segment.calls"] > 0
    assert metrics["exactlin.solve_linear.calls"] > 0


def test_traced_light_statesum_cases_count_colorings(bench):
    # knot.colorings.kept is counted around the public coloring functions
    assert _traced(bench, "statesum")["knot.colorings.kept"] > 0
