"""Running cases: time limits, child processes and passes.

Every loop is closed: one case runs at a time, and the cli workload has
at most one child process alive, so the load fits a two-core machine.
"""

import collections
import contextlib
import gc
import os
import signal
import statistics
import subprocess
import sys
import time

import gen

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
# a run stops starting cases after this long, so it ends within 180 s
RUN_BUDGET_S = 150.0
# every case has 1 + EXTRA_RUNS slots spread at random over a pass and
# runs in each of them until one run takes LIGHT_CASE_S or more; the time
# left after the last whole pass goes to rounds of these light cases
# alone.  A case counts with the median of its runs at the reference
# speed, so runs spread over the whole run average out the host's slow
# and fast stretches.
LIGHT_CASE_S = 0.3
EXTRA_RUNS = 3


class Result(collections.namedtuple(
        "Result", "status raw error first_seconds")):
    """A case in one pass: the first run's answer and time, and the
    failure of any run."""


class CaseTimeout(BaseException):
    """Raised by the alarm; a BaseException so `except Exception` in the
    program under test cannot swallow it."""


@contextlib.contextmanager
def time_limit(seconds):
    def fire(_signum, _frame):
        raise CaseTimeout()
    old = signal.signal(signal.SIGALRM, fire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, old)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    return env


def run_once(case):
    """Run a case once; returns (status, seconds, raw answer, error)."""
    gc.collect()
    raw, error, status = None, None, "ok"
    start = time.perf_counter()
    try:
        with time_limit(case.limit):
            raw = case.run()
    except CaseTimeout:
        status, error = "timeout", "no answer within %.0f s" % case.limit
    except Exception as exc:  # a crash of the program is the case's result
        status, error = "error", "%s: %s" % (type(exc).__name__,
                                             str(exc)[:200])
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
    return status, time.perf_counter() - start, raw, error


def run_cli(ctx, argv):
    """One twistq CLI process; returns (exit code, stdout, stderr).

    The child is reaped with wait4 for its own peak memory; a traced
    child runs under bench/cli_child.py and its spans are merged.
    """
    out_path = os.path.join(ctx.workdir, "stdout.txt")
    err_path = os.path.join(ctx.workdir, "stderr.txt")
    trace_path = os.path.join(ctx.workdir, "trace.json")
    if ctx.tracer is not None:
        cmd = [sys.executable, os.path.join(BENCH, "cli_child.py"),
               trace_path] + argv
        if os.path.exists(trace_path):
            os.remove(trace_path)
    else:
        cmd = [sys.executable, "-m", "twistq.cli"] + argv
    with open(out_path, "w") as out, open(err_path, "w") as err:
        proc = subprocess.Popen(cmd, stdout=out, stderr=err,
                                stdin=subprocess.DEVNULL, cwd=ctx.workdir,
                                env=ctx.env)
    try:
        _pid, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        os.wait4(proc.pid, 0)
        proc.returncode = -signal.SIGKILL
        raise
    proc.returncode = os.waitstatus_to_exitcode(status)
    ctx.child_maxrss_kb = max(ctx.child_maxrss_kb, usage.ru_maxrss)
    with open(out_path) as fh:
        out_text = fh.read()
    with open(err_path) as fh:
        err_text = fh.read()
    if ctx.tracer is not None and os.path.exists(trace_path):
        ctx.tracer.merge(trace_path)
    return proc.returncode, out_text, err_text


def run_pass(ctx, order, run_start, results=None):
    """Run the cases in the slots of `order`: {name: Result}.  Given the
    results of an earlier pass, the runs are added to them."""
    by_name = {c.name: c for c in ctx.cases}
    results = {} if results is None else results
    for name in order:
        done = results.get(name)
        if done is not None and (done.status != "ok"
                                 or done.first_seconds >= LIGHT_CASE_S):
            continue
        if time.perf_counter() - run_start > RUN_BUDGET_S:
            if done is None:
                results[name] = Result("timeout", None,
                                       "run budget exhausted", 0.0)
            continue
        if ctx.meter is not None:
            ctx.meter.sample()
        status, seconds, raw, error = run_once(by_name[name])
        if ctx.meter is not None:
            ctx.samples.setdefault(name, []).append(
                (time.perf_counter() - seconds, seconds, status))
        if done is None:
            results[name] = Result(status, raw, error, seconds)
        elif status != "ok":
            results[name] = done._replace(status=status, error=error)
    return results


def case_seconds(runs, meter):
    """A case's time in a run: the median of its runs, given as
    [(start, seconds, status)], at the reference speed (bench/speed.py);
    a run that hit its time limit counts as the limit."""
    return median([seconds if status == "timeout" else
                   (seconds - meter.inside(start, start + seconds))
                   * meter.scale(start, start + seconds)
                   for start, seconds, status in runs])


def wall_seconds(samples, meter):
    """One pass over the cases: the sum of the cases' times."""
    return sum(case_seconds(runs, meter) for runs in samples.values())


def run_passes(ctx, seed, deadline, run_start):
    """Whole passes while the next one is expected to end by `deadline`
    (a perf_counter value), and always at least one; then rounds of the
    light cases alone, added to the last pass, while a round still fits."""
    names = [c.name for c in ctx.cases]
    passes = []
    while True:
        start = time.perf_counter()
        passes.append(run_pass(
            ctx, gen.case_order(seed, len(passes), names, 1 + EXTRA_RUNS),
            run_start))
        now = time.perf_counter()
        if now + (now - start) > deadline or now - run_start > RUN_BUDGET_S:
            break
    last = passes[-1]
    light = [name for name, r in last.items()
             if r.status == "ok" and r.first_seconds < LIGHT_CASE_S]
    took = sum(last[name].first_seconds for name in light)
    rounds = 0
    while light:
        now = time.perf_counter()
        if now + took > deadline or now - run_start > RUN_BUDGET_S:
            break
        run_pass(ctx, gen.light_order(seed, rounds, light), run_start, last)
        rounds += 1
        took = time.perf_counter() - now
    return passes


def probe_setup(workload, seed, workdir):
    """Seconds from starting a fresh interpreter to the workload's
    inputs being ready (bench/probe.py)."""
    cmd = [sys.executable, os.path.join(BENCH, "probe.py"), workload,
           str(seed), workdir]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                            stdin=subprocess.DEVNULL, env=child_env(),
                            cwd=ROOT, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
    finally:
        proc.stdout.close()
        if proc.wait(timeout=60) != 0 or line.strip() != "ready":
            raise RuntimeError("set-up probe failed (exit %s)"
                               % proc.returncode)
    return elapsed


def median(values):
    return statistics.median(values) if values else 0.0
