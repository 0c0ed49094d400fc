"""The twistq benchmark.

Usage:
    python3 bench/run.py --workload {homology,statesum,cli} --seed N \\
        --seconds S --trace {0,1}

Runs whole passes over the workload's cases for about S seconds (at
least one pass), checks every answer, prints one line per case and every
metric by name with its unit, and ends with one JSON line:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 a
traced pass follows the untraced ones and the metrics are the per-layer
ones plus the tracing overhead.  Per-case records (revision, Python
version, status, answer digest) are written to .bench_results/.

Exit status: 0 when every answer is right, 1 when a check finds a wrong
answer, 2 when the twistq sources are missing.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import subprocess
import sys
import time

import gen
import runner
import spans
import speed

# the first statement of the benchmark process
START = time.perf_counter()

SETUP_PROBES = 9
END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "case_p50_s": "s",
                    "case_tail_s": "s", "peak_rss_mb": "MB",
                    "failed_ratio": "ratio"}
STATUS_RANK = {"ok": 0, "timeout": 1, "error": 2, "wrong": 3}


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py")
    p.add_argument("--workload", required=True,
                   choices=["homology", "statesum", "cli"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    return p.parse_args(argv)


def digest(answer):
    blob = json.dumps(answer, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def load_pins():
    with open(os.path.join(runner.BENCH, "pinned.json")) as fh:
        return json.load(fh)


def judge(case, result, pins):
    """(status, digest, detail) of one execution of a case; pins=None
    skips the comparison with the pinned digest."""
    status, raw = result.status, result.raw
    if status != "ok":
        return status, None, result.error
    try:
        answer = digest(case.canon(raw))
        for label, check in case.checks:
            msg = check(raw)
            if msg:
                return "wrong", answer, "%s: %s" % (label, msg)
    except Exception as exc:  # a malformed answer fails its check
        return "wrong", None, "check raised %s: %s" % (type(exc).__name__,
                                                       exc)
    if case.pin and pins is not None and pins.get(case.name) != answer:
        return "wrong", answer, "answer digest %s, pinned %s" % (
            answer, pins.get(case.name))
    return "ok", answer, None


def references(case):
    labels = [label for label, _check in case.checks]
    if case.pin:
        labels.append("pinned digest")
    return ", ".join(labels)


def revision():
    """(git revision or "unknown", digest of the package sources)."""
    rev = ""
    if os.path.isdir(os.path.join(runner.ROOT, ".git")):
        try:
            out = subprocess.run(["git", "rev-parse", "HEAD"],
                                 cwd=runner.ROOT, capture_output=True,
                                 text=True, timeout=20)
            rev = out.stdout.strip() if out.returncode == 0 else ""
        except (OSError, subprocess.TimeoutExpired):
            pass
    h = hashlib.sha256()
    pkg = os.path.join(runner.SRC, "twistq")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for fname in sorted(filenames):
            if fname.endswith((".py", ".json")):
                with open(os.path.join(dirpath, fname), "rb") as fh:
                    h.update(fname.encode() + b"\0" + fh.read())
    return rev or "unknown (not a git checkout)", h.hexdigest()[:16]


def percentile(values, p):
    """Harrell-Davis estimate of the p-quantile (0 < p < 1) of `values`,
    taken over their logarithms.

    It weighs every order statistic by the Beta(p(n+1), (1-p)(n+1))
    probability of its slot instead of picking one, so the noise of the
    cases next to the quantile averages out and the estimate does not
    jump when two of them trade places; on logarithms, a case far from
    the quantile, such as a 10 s one next to 0.1 s ones, cannot pull it.
    """
    xs = sorted(math.log(max(v, 1e-9)) for v in values)
    n = len(xs)
    if n == 1:
        return math.exp(xs[0])
    a, b = p * (n + 1), (1 - p) * (n + 1)
    # midpoint rule for the Beta density over the n slots [i/n, (i+1)/n]
    steps = 200
    weights = []
    for i in range(n):
        w = 0.0
        for j in range(steps):
            x = (i + (j + 0.5) / steps) / n
            w += math.exp((a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        weights.append(w)
    return math.exp(sum(w * x for w, x in zip(weights, xs)) / sum(weights))


def tail(times):
    """(value, percentile, samples): the highest percentile of the per-case
    times that still has ten samples above it."""
    n = len(times)
    k = max(n - 10, 1)
    return percentile(times, k / n), 100.0 * k / n, n


def unit_of(name):
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith("_bits"):
        return "bits"
    if name.endswith("_log2"):
        return "log2"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def main(argv=None):
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(runner.SRC, "twistq", "cli.py")):
        print("error: no twistq sources under %s; run the benchmark from "
              "the root of a checkout" % runner.SRC, file=sys.stderr)
        return 2
    sys.path.insert(0, runner.SRC)
    workdir = os.path.join(runner.ROOT, ".bench_work",
                           "%s-%d" % (args.workload, os.getpid()))
    os.makedirs(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, workdir):
    import cases
    tracer = spans.Tracer() if args.trace else None
    start = spans.clock()
    import twistq.cli  # noqa: F401
    if tracer is not None:
        tracer.add_span("cli.import", start, spans.clock())
        tracer.install()
    try:
        ctx = cases.WORKLOADS[args.workload](args.seed, workdir)
    finally:
        if tracer is not None:
            tracer.uninstall()
    ctx.env = runner.child_env()
    ctx.child_maxrss_kb = 0
    names = [c.name for c in ctx.cases]

    setups = []  # (start, seconds) of each fresh set-up
    meter = ctx.meter = speed.Meter()

    def probe(count):
        # half the set-ups before the passes and half after, to sample the
        # host at two times
        for _ in range(0 if args.trace else count):
            meter.sample()
            start = time.perf_counter()
            setups.append((start, runner.probe_setup(
                args.workload, args.seed,
                os.path.join(workdir, "probe%d" % len(setups)))))

    traced = None
    meter.start()
    try:
        probe_start = time.perf_counter()
        probe(SETUP_PROBES // 2)
        per_probe = (time.perf_counter() - probe_start) / max(len(setups), 1)
        # the untraced passes end when the run has lasted --seconds (half
        # of it when traced), less the time the remaining set-ups will take
        budget = args.seconds / 2 if args.trace else args.seconds
        deadline = START + budget - per_probe * (
            0 if args.trace else SETUP_PROBES - len(setups))
        passes = runner.run_passes(ctx, args.seed, deadline, START)
        probe(SETUP_PROBES - len(setups))
        if args.workload == "cli":
            peak_kb = ctx.child_maxrss_kb
        else:
            peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        if tracer is not None:
            # the traced pass's runs are kept apart: they give the tracing
            # overhead, not the case times
            untraced, ctx.samples = ctx.samples, {}
            ctx.tracer = tracer
            tracer.install()
            try:
                # one slot per case: every case runs once, so counts repeat
                traced = runner.run_pass(
                    ctx, gen.case_order(args.seed, len(passes), names), START)
            finally:
                tracer.uninstall()
                ctx.tracer = None
            traced_samples, ctx.samples = ctx.samples, untraced
    finally:
        meter.stop()
        ctx.meter = None

    pins = load_pins().get(args.workload, {})
    all_passes = passes + ([traced] if traced else [])
    rev, source = revision()
    records, attempted, failed, wrong, failed_untraced = [], 0, 0, 0, 0
    for case in ctx.cases:
        verdicts = [judge(case, p[case.name], pins) for p in all_passes]
        statuses = [v[0] for v in verdicts]
        attempted += len(statuses)
        failed += sum(s != "ok" for s in statuses)
        failed_untraced += sum(s != "ok" for s in statuses[:len(passes)])
        wrong += statuses.count("wrong")
        worst = max(verdicts, key=lambda v: STATUS_RANK[v[0]])
        records.append({
            "case": case.name, "status": worst[0], "statuses": statuses,
            "runs": len(ctx.samples.get(case.name, ())),
            "raw_seconds": runner.median(
                [t for _s, t, _st in ctx.samples.get(case.name, ())]),
            "seconds": runner.case_seconds(ctx.samples.get(case.name, ()),
                                           meter),
            "digest": next((v[1] for v in verdicts if v[1]), None),
            "references": references(case), "detail": worst[2],
            "revision": rev, "source_digest": source,
            "python": platform.python_version()})

    print("twistq benchmark  workload=%s seed=%d passes=%d trace=%d"
          % (args.workload, args.seed, len(passes), args.trace))
    print("revision %s  source %s  python %s"
          % (rev, source, platform.python_version()))
    for r in records:
        print("  %-34s %-8s %9.4f s  %-16s  %s" % (
            r["case"], r["status"], r["seconds"], r["digest"] or "-",
            r["references"]))
    failing = [r for r in records if r["status"] != "ok"]
    for r in failing:
        print("FAILED %s: %s (%s)" % (r["case"], r["status"], r["detail"]))

    wall = runner.wall_seconds(ctx.samples, meter)
    print("host speed: reference kernel %.4f ms median, %.4f ms fastest "
          "(%.4f ms is the reference speed)" % (
              1e3 * runner.median(meter.kernel), 1e3 * min(meter.kernel),
              1e3 * speed.REFERENCE_S))
    if args.trace:
        metrics = spans.layer_metrics(tracer)
        traced_wall = runner.wall_seconds(traced_samples, meter)
        metrics["trace.overhead_s"] = traced_wall - wall
        units = {k: unit_of(k) for k in metrics}
        print("tracing overhead: traced wall_s %.4f s, untraced %.4f s"
              % (traced_wall, wall))
    else:
        times = [r["seconds"] for r in records]
        tail_s, pct, samples = tail(times)
        metrics = {
            "setup_s": runner.median([seconds * meter.scale(start,
                                                            start + seconds)
                                      for start, seconds in setups]),
            "wall_s": wall,
            "case_p50_s": percentile(times, 0.5),
            "case_tail_s": tail_s,
            "peak_rss_mb": peak_kb / 1024.0,
            "failed_ratio": failed_untraced / (len(passes) * len(records)),
        }
        units = END_TO_END_UNITS
        print("case_tail_s is the p%.2f of %d case times; setup_s is the "
              "median of %d fresh set-ups" % (pct, samples, SETUP_PROBES))
    for name, value in metrics.items():
        print("%-36s %.6g %s" % (name, value, units[name]))

    out_dir = os.path.join(runner.ROOT, ".bench_results")
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                        % (args.workload, args.seed, args.trace))
    with open(path, "w") as fh:
        json.dump({"workload": args.workload, "seed": args.seed,
                   "passes": len(passes), "metrics": metrics,
                   "cases": records}, fh, indent=1)

    print(json.dumps({
        "correct": wrong == 0, "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in metrics.items()}}))
    return 1 if wrong else 0


if __name__ == "__main__":
    sys.exit(main())
