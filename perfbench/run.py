"""The hopfkit benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs a fixed, seeded job list through the public entry point
``hopfkit.cli.main(argv)`` in this process: a closed loop with one client,
one job after another, stdout and stderr captured.  Every job passes
``--threads 2``.  The inputs are definition files written by ``gen.py``
from the seed; the program sees only those files.

A run sets up three times (fresh import of ``hopfkit`` from ``src/``,
input generation, one warm-up job) and then executes a fixed number of
whole passes over the job list, with three more set-up rounds at each of
up to six points spread over them.  The pass count is ``--seconds`` over the workload's nominal
pass time in ``PASS_S``, so it depends on the arguments only, never on
how fast the program runs.  Each execution and set-up round is timed
between two probes and scaled to a quiet core (see ``scaled``); a job's
latency is the median of its scaled executions.  Every execution is
checked against an oracle that does not use hopfkit:

* the exit code predicted by the generator;
* identical output bytes for every execution of a job in the run;
* for the default seed, the inputs and every job's output bytes match
  the digests in ``expected.json``;
* for ``search``, the operator count is the known one and every listed
  operator satisfies the Rota-Baxter group identity.

With ``--trace 0`` the last line of stdout is the result with the
end-to-end metrics; with ``--trace 1`` half as many untraced and
span-traced passes alternate, each baseline job runs once under spans,
one counting pass follows (see ``layers.py``), and the result carries the
per-layer metrics.  The line before it holds details: input digest, error
rate, tail percentile, raw pass times, slowdown, machine, baseline spans.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import hashlib
import io
import json
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import time
import traceback
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
FIXTURES = os.path.join(ROOT, "docs", "fixtures")
WORK = os.path.join(ROOT, ".bench_build", "perfbench")
EXPECTED = os.path.join(HERE, "expected.json")

# Compiled modules go to a directory of the run's own, which starts empty:
# every run compiles once and its later set-up rounds load the same
# caches, whatever __pycache__ the checkout holds and whatever
# PYTHONDONTWRITEBYTECODE says.
PYCACHE = os.path.join(WORK, f"pycache-{os.getpid()}")
sys.pycache_prefix = PYCACHE
sys.dont_write_bytecode = False
atexit.register(shutil.rmtree, PYCACHE, True)
sys.path.insert(0, HERE)
import gen  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("monomial-q", "monomial-fp", "dense-q", "group-search")
DEFAULT_SEED = 1
SETUP_ROUNDS = 3         # set-up rounds at each set-up point
LATER_POINTS = 6         # set-up points after the first, at most
MIN_PASSES = 2
# Nominal seconds per pass: a run makes --seconds / PASS_S passes.  On the
# shared 2-core machine the benchmark was written on (Python 3.11), at its
# usual load, a pass takes about 4 s on monomial-q and dense-q, 2 s on
# monomial-fp and 0.5 s on group-search.  The first two get more passes
# than --seconds holds, because their 1-s jobs spread more; at
# --seconds 22 their runs take 35-45 s and the others' 20-25 s.
PASS_S = {"monomial-q": 2.75, "monomial-fp": 2.2, "dense-q": 2.75,
          "group-search": 0.55}
PROBE_REF_S = 0.0018     # seconds of probe() on a quiet core
TAIL_ABOVE = 10          # jobs that must lie above the tail percentile
SEARCH_SAMPLE = 512      # operators re-checked per search output at most
BASELINE_SPANS = ("hopf.verify_hopf", "groups.enumerate_rb_group_ops")


# -- set-up ---------------------------------------------------------------------

def import_cli():
    """Import hopfkit afresh from src/ and return ``hopfkit.cli``."""
    for name in [n for n in sys.modules
                 if n == "hopfkit" or n.startswith("hopfkit.")]:
        del sys.modules[name]
    if SRC not in sys.path:
        sys.path.insert(0, SRC)
    import hopfkit.cli
    return hopfkit.cli


def setup(workload, seed, workdir):
    """One set-up round: (seconds taken, cli module, timed jobs, baseline
    jobs, input digest)."""
    start = time.perf_counter()
    cli = import_cli()
    files, jobs = gen.generate(workload, seed, FIXTURES)
    digest = gen.write(files, workdir)
    for job in jobs:
        job["argv"] = [os.path.join(workdir, a) if a in files else a
                       for a in job["argv"]]
    baseline = [job for job in jobs if job.get("baseline")]
    jobs = [job for job in jobs if not job.get("baseline")]
    execute(cli.main, jobs[0]["argv"])     # warm-up
    return time.perf_counter() - start, cli, jobs, baseline, digest


# -- running and checking jobs ------------------------------------------------------

def execute(main, argv):
    """(seconds, exit code, stdout, stderr, exception) of one job."""
    out, err = io.StringIO(), io.StringIO()
    exc = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as stop:
            code = stop.code
        except Exception as caught:     # an uncaught exception fails the job
            code, exc = None, caught
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue(), exc


def check_search(job, text, rng):
    """Count and Rota-Baxter identity of a search output."""
    g = job["group"]
    lines = text.splitlines()
    head = f"group {g.name}: {job['count']} operators"
    if not lines or lines[0] != head:
        return f"expected {head!r}, got {lines[:1]!r}"
    tables = [tuple(int(x) for x in line.split()) for line in lines[1:]]
    if len(tables) != job["count"] or len(set(tables)) != len(tables):
        return "operator list has the wrong length or repeats"
    if tables != sorted(tables):
        return "operators are not sorted"
    sample = tables if len(tables) <= SEARCH_SAMPLE \
        else rng.sample(tables, SEARCH_SAMPLE)
    bad = next((t for t in sample if len(t) != g.n or not gen.is_rb(g, t)),
               None)
    return None if bad is None else f"{bad} is not a Rota-Baxter operator"


class Oracle:
    """Judges each execution; counts attempts and failures."""

    def __init__(self, recorded, seed):
        self.recorded = recorded            # job id -> digest, or None
        self.first = {}                     # job id -> digest of first run
        self.rng = random.Random(seed)
        self.attempted = 0
        self.failed = 0
        self.reasons = []

    def judge(self, job, code, out, err, exc):
        self.attempted += 1
        reason = None
        digest = hashlib.sha256(
            f"{code}\0{out}\0{err}".encode("utf-8")).hexdigest()
        if exc is not None:
            reason = "uncaught " + "".join(
                traceback.format_exception_only(type(exc), exc)).strip()
        elif code != job["expect"]:
            reason = f"exit code {code}, expected {job['expect']}"
        elif job["id"] in self.first:
            if digest != self.first[job["id"]]:
                reason = "output bytes differ from the first execution"
        elif self.recorded is not None and \
                self.recorded.get(job["id"]) != digest:
            reason = "output bytes differ from the recorded digest"
        elif "group" in job:
            reason = check_search(job, out, self.rng)
        self.first.setdefault(job["id"], digest)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < 20:
                self.reasons.append(f"{job['id']}: {reason}")


def probe():
    """Seconds of a fixed Fraction loop: the speed of the core at the
    moment.  It takes PROBE_REF_S on a quiet core."""
    start = time.perf_counter()
    total = Fraction(0)
    for i in range(1, 1000):
        total += Fraction(1, i % 97 + 1)
    return time.perf_counter() - start


def scaled(run):
    """(raw seconds, scaled seconds, result) of ``run()``, which returns
    its seconds first.  The scaled seconds are the raw ones times
    PROBE_REF_S over the mean of a probe just before and just after: what
    the run would take on a quiet core.  Other tenants of the machine slow
    a core by up to 2.4x, for stretches from a fraction of a second to
    minutes; the probes slow with it and the scaled time does not."""
    before = probe()
    result = run()
    after = probe()
    return result[0], result[0] * 2 * PROBE_REF_S / (before + after), result


def run_pass(cli, jobs, oracle, around=None):
    """Execute the job list once; (raw, scaled) seconds of each job."""
    latencies = []
    for job in jobs:
        if around is None:
            run = lambda j=job: execute(cli.main, j["argv"])
        else:
            run = lambda j=job: around(j, lambda: execute(cli.main, j["argv"]))
        raw, fair, result = scaled(run)
        latencies.append((raw, fair))
        oracle.judge(job, *result[1:])
    return latencies


def per_job(passes):
    """Each job's median scaled latency over the passes, in job order."""
    return [statistics.median(p[i][1] for p in passes)
            for i in range(len(passes[0]))]


# -- metrics --------------------------------------------------------------------------

def tail(latencies):
    """(value, percentile, samples): the highest percentile of the samples
    that still has TAIL_ABOVE samples above it."""
    s = sorted(latencies)
    n = len(s)
    if n <= TAIL_ABOVE:
        return s[-1], 100.0, n
    return s[n - TAIL_ABOVE - 1], 100.0 * (n - TAIL_ABOVE) / n, n


def metric(value, unit):
    return {"value": value, "unit": unit}


def machine():
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "implementation": platform.python_implementation(),
            "platform": platform.platform()}


def pass_count(workload, seconds):
    return max(MIN_PASSES, round(seconds / PASS_S[workload]))


def measure(set_up, cli, jobs, oracle, count):
    """``count`` untraced passes, with up to LATER_POINTS further set-up
    points spread over them: rounds spread over the run see the machine in
    more than one state."""
    later = {1 + k * (count - 1) // LATER_POINTS for k in range(LATER_POINTS)}
    passes = []
    for k in range(count):
        if k in later:
            cli, jobs = set_up()[:2]
        passes.append(run_pass(cli, jobs, oracle))
    return passes


def end_to_end(passes, setup_times):
    """A job's latency is the median of its scaled executions.  wall_s is
    their sum, the percentiles are over the jobs; raw pass times go to the
    details."""
    latencies = per_job(passes)
    tail_value, pct, n = tail(latencies)
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "wall_s": metric(sum(latencies), "s"),
        "job_s_p50": metric(statistics.median(latencies), "s"),
        "job_s_tail": metric(tail_value, "s"),
        "setup_s": metric(statistics.median(f for _, f in setup_times), "s"),
        "peak_rss_mb": metric(rss_kib / 1024.0, "MB"),
    }
    pass_s = [sum(r for r, _ in p) for p in passes]
    details = {"passes": len(passes), "pass_s": pass_s,
               "slowdown": sum(pass_s) / sum(f for p in passes for _, f in p),
               "job_s_tail": {"percentile": pct, "samples": n}}
    return metrics, details


def traced_pass(cli, jobs, oracle):
    """One pass under a span recorder; (latencies, recorder)."""
    spans = layers.Spans()
    with spans:
        latencies = run_pass(
            cli, jobs, oracle,
            around=lambda job, run: spans.job_span(job["id"], run))
    return latencies, spans


def per_layer(cli, jobs, baseline, oracle, count):
    """Alternate ``count`` untraced and span-traced passes, then run each
    baseline job once under spans, then one counting pass.  The longest
    spans in the baseline jobs of the two functions whose times ROADMAP
    quotes go to the details, with the job's raw over scaled time."""
    plain, traced, summaries = [], [], []
    for _ in range(count):
        plain.append(run_pass(cli, jobs, oracle))
        latencies, spans = traced_pass(cli, jobs, oracle)
        traced.append(latencies)
        summaries.append(spans.summary())
    longest = {}
    for job in baseline:
        [(raw, fair)], base = traced_pass(cli, [job], oracle)
        longest[job["id"]] = {f"{name}.longest_span_s": base.longest(name)
                              for name in BASELINE_SPANS}
        longest[job["id"]]["slowdown"] = raw / fair
    counts = layers.Counts()
    with counts:
        run_pass(cli, jobs, oracle,
                 around=lambda job, run: (counts.new_job(), run())[1])

    metrics = {}
    for name in layers.SPANNED:
        calls = [s.get(name, (0, 0.0))[0] for s in summaries]
        self_s = [s.get(name, (0, 0.0))[1] for s in summaries]
        if len(set(calls)) != 1:
            oracle.failed += 1
            oracle.reasons.append(f"{name}: call count varies {calls}")
        metrics[f"{name}.calls"] = metric(calls[0], "count")
        metrics[f"{name}.self_s"] = metric(statistics.median(self_s), "s")
    for name in layers.KERNELS:
        metrics[f"{name}.calls"] = metric(counts.calls[name], "count")
    for name in layers.REPEATED:
        metrics[f"{name}.repeat_calls"] = metric(counts.repeats[name], "count")
    metrics["groups.enumerate_rb_group_ops.yield"] = metric(
        counts.yield_per_mmul(), "ops/Mmul")
    metrics["trace.overhead_frac"] = metric(
        sum(per_job(traced)) / sum(per_job(plain)) - 1, "fraction")
    details = {"passes": {"untraced": len(plain), "traced": len(traced),
                          "counting": 1},
               "baseline": longest}
    return metrics, details, spans


# -- entry point -------------------------------------------------------------------------

def load_expected(workload, seed):
    if seed != DEFAULT_SEED or not os.path.exists(EXPECTED):
        return None
    with open(EXPECTED, encoding="utf-8") as fh:
        return json.load(fh)["workloads"].get(workload)


def record(cli, jobs, digest, workload):
    """Store the input digest and every job's output digest for the
    default seed in expected.json."""
    data = {"seed": DEFAULT_SEED, "workloads": {}}
    if os.path.exists(EXPECTED):
        with open(EXPECTED, encoding="utf-8") as fh:
            data = json.load(fh)
    oracle = Oracle(None, DEFAULT_SEED)
    run_pass(cli, jobs, oracle)
    if oracle.failed:
        raise SystemExit("not recording: " + "; ".join(oracle.reasons))
    data["workloads"][workload] = {"inputs": digest, "outputs": oracle.first}
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true",
                        help="store the default seed's output digests "
                             "instead of measuring")
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "hopfkit", "cli.py")) or \
            not os.path.isdir(FIXTURES):
        print(f"error: no hopfkit sources under {ROOT}", file=sys.stderr)
        return 2
    if args.record and args.seed != DEFAULT_SEED:
        parser.error(f"--record stores the default seed {DEFAULT_SEED} only")

    workdir = os.path.join(WORK, f"{args.workload}-{args.seed}-{os.getpid()}")
    setup_times = []

    def set_up():
        for _ in range(SETUP_ROUNDS):
            raw, fair, result = scaled(lambda: setup(args.workload, args.seed,
                                                     workdir))
            setup_times.append((raw, fair))
        return result[1:]

    try:
        cli, jobs, baseline, digest = set_up()
        if args.record:
            record(cli, jobs + baseline, digest, args.workload)
            return 0
        expected = load_expected(args.workload, args.seed)
        oracle = Oracle(expected and expected["outputs"], args.seed)
        if expected is not None and expected["inputs"] != digest:
            oracle.failed += 1
            oracle.reasons.append("inputs differ from the recorded digest")
        if args.trace:
            count = max(1, pass_count(args.workload, args.seconds) // 2)
            metrics, details, spans = per_layer(cli, jobs, baseline, oracle,
                                                count)
            os.makedirs(WORK, exist_ok=True)
            with open(os.path.join(WORK, f"spans-{args.workload}-{args.seed}"
                                   ".json"), "w", encoding="utf-8") as fh:
                json.dump(spans.records(), fh)
        else:
            passes = measure(set_up, cli, jobs, oracle,
                             pass_count(args.workload, args.seconds))
            metrics, details = end_to_end(passes, setup_times)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    for reason in oracle.reasons:
        print(f"FAILED {reason}", file=sys.stderr)
    details.update({"workload": args.workload, "seed": args.seed,
                    "trace": args.trace, "inputs_sha256": digest,
                    "jobs_per_pass": len(jobs), "setup_s": setup_times,
                    "error_rate": metric(oracle.failed / oracle.attempted,
                                         "fraction"),
                    "machine": machine()})
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({"correct": oracle.failed == 0,
                      "attempted": oracle.attempted,
                      "failed": oracle.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
