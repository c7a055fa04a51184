"""Benchmark of the balayage command line, run in-process as a closed loop.

    python3 perfbench/run.py --workload sweep_dense --seed 1 --seconds 15 --trace 0

One client runs one CLI job after another through ``balayage.cli.main(argv)``
(no threads).  Each round runs every job of the workload's catalogue once, in
an order drawn from --seed; rounds repeat until --seconds have elapsed and at
least MIN_JOBS jobs ran.  Every report is checked against the reference values
in perfbench/reference/ and against its own oracle fields.

--trace 0 prints the end-to-end metrics; --trace 1 runs one round untraced and
the same round traced (perfbench/layers.py) and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  Inputs, reports and scratch files live in
.perfbench/ at the repository root; results and spans are kept in
.perfbench/results/.
"""

import argparse
import contextlib
import gzip
import hashlib
import io
import json
import math
import os
import platform
import random
import re
import resource
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import catalogue
import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench"
MIN_JOBS = 100
SETUP_STARTS = 5      # timed interpreter starts, after one warm-up start
MAX_LOOP_S = 120.0    # stop adding rounds after this, whatever --seconds says
CAL_EVERY_S = 0.25    # seconds between calibration samples in the timed loop
CAL_WINDOW_S = 1.5    # a job's speed is read from the samples this close to it
# Seconds of one calibrate() at the reference speed: a round figure near its
# median on the machine that defined the benchmark (README.md).
CAL_REF_S = 0.003
SYSTEM_EXIT, CRASH = -1, -2  # exit codes recorded for jobs that never returned one


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"]
                                    if env.get("PYTHONPATH") else "")
    return env


def fresh_import(extra=()):
    """Run `import balayage.cli` in a fresh interpreter; wall seconds, stderr."""
    t0 = time.perf_counter()
    proc = subprocess.run([sys.executable, *extra, "-c", "import balayage.cli"],
                          cwd=ROOT, env=child_env(), capture_output=True, text=True,
                          timeout=120)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise RuntimeError(f"import balayage.cli failed: {proc.stderr.strip()[-300:]}")
    return wall, proc.stderr


def setup_seconds():
    fresh_import()
    return statistics.median(fresh_import()[0] for _ in range(SETUP_STARTS))


def import_profile():
    """Median over three `-X importtime` starts: total import seconds,
    scipy.integrate's cumulative seconds, the balayage modules' own seconds,
    and the number of modules imported."""
    runs = []
    for _ in range(3):
        total, scipy_s, own, n = 0, 0, 0, 0
        for line in fresh_import(["-X", "importtime"])[1].splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+(\d+) \|\s*(\S+)", line)
            if m:
                total += int(m.group(1))
                n += 1
                if m.group(3) == "scipy.integrate":
                    scipy_s = int(m.group(2))
                if m.group(3).split(".")[0] == "balayage":
                    own += int(m.group(1))
        runs.append((total, scipy_s, own, n))
    total, scipy_s, own, n = sorted(runs)[1]
    return {"import.total_s": total * 1e-6, "import.scipy_integrate_s": scipy_s * 1e-6,
            "import.calls": n, "import.self_s": own * 1e-6, "import.failed": 0}


def setup_record_static():
    """Versions, processor count and commit of this checkout."""
    import numpy
    import scipy
    commit = "unknown"
    with contextlib.suppress(OSError, subprocess.SubprocessError):
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10,
                              env={**os.environ, "GIT_CEILING_DIRECTORIES": str(ROOT.parent)})
        if proc.returncode == 0:
            commit = proc.stdout.strip()
    return {"commit": commit, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "machine": platform.machine()}


def setup_record(args, bench):
    why = {w["name"]: w["why"] for w in bench["workloads"]}
    return {"workload": args.workload, "why": why.get(args.workload), "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, **setup_record_static()}


# ---------------------------------------------------------------------------
# Jobs


class Runner:
    """Writes a catalogue's inputs once and runs its jobs through cli.main."""

    def __init__(self, cli, slots, tmp):
        self.cli = cli
        self.tmp = Path(tmp)
        self.inputs = {}
        self.count = 0
        for slot in slots:
            for job in slot:
                paths = {}
                for name, obj in job.inputs.items():
                    path = self.tmp / f"{job.id}.{name}.json"
                    path.write_text(json.dumps(obj))
                    paths[f"@{name}"] = str(path)
                self.inputs[job.id] = paths

    def run(self, job):
        """(exit code, wall seconds, output path, last stderr line)."""
        self.count += 1
        out = self.tmp / f"out{self.count:06d}.json"
        paths = {**self.inputs[job.id], "@out": str(out)}
        argv = [paths.get(a, a) for a in job.argv]
        err = io.StringIO()
        t0 = time.perf_counter()
        try:
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
                rc = self.cli.main(argv)
        except SystemExit as exc:
            rc, err = SYSTEM_EXIT, io.StringIO(f"SystemExit {exc.code}")
        except Exception as exc:  # a job that crashes is a failed job
            rc, err = CRASH, io.StringIO(f"{type(exc).__name__}: {exc}")
        wall = time.perf_counter() - t0
        lines = err.getvalue().strip().splitlines()
        return rc, wall, out, lines[-1] if lines else ""

    def input_bytes(self, job):
        return sum(os.path.getsize(p) for p in self.inputs[job.id].values())


class Plan:
    """A round runs every variant of every slot once, in an order drawn from
    the seed, so every run measures the same mix of jobs."""

    def __init__(self, slots, seed):
        self.jobs = [job for slot in slots for job in slot]
        self.rng = random.Random(seed)
        self.rounds = 0

    def next_round(self):
        order = list(self.jobs)
        self.rng.shuffle(order)
        self.rounds += 1
        return order


def load_reference(workload):
    path = HERE / "reference" / f"{workload}.json"
    return json.loads(path.read_text())["jobs"]


class Verdicts:
    """Checks each execution once per distinct output; records failures."""

    def __init__(self, refs):
        self.refs = refs
        self.digests = {}   # job id -> (exit, sha256 of the report)
        self.cache = {}     # (job id, exit, sha256) -> (completed, correct, reason)
        self.problems = []

    def judge(self, job, rc, out, err):
        data = out.read_bytes() if rc in (0, 1) and out.exists() else b""
        digest = (rc, hashlib.sha256(data).hexdigest())
        if self.digests.setdefault(job.id, digest) != digest:
            self._problem(job, "output differs between runs of the same job")
            return False, False
        key = (job.id,) + digest
        if key not in self.cache:
            self.cache[key] = self._judge(job, rc, data, err)
            completed, correct, reason = self.cache[key]
            if reason:
                self._problem(job, reason)
        completed, correct, _ = self.cache[key]
        return completed, correct

    def _problem(self, job, reason):
        self.problems.append({"job": job.id, "kind": job.kind, "reason": reason})

    def _judge(self, job, rc, data, err):
        ref = self.refs.get(job.id)
        if ref is None:
            return False, False, "no reference for this job"
        if rc not in job.allowed_exits:
            known = rc == ref["exit"]
            return False, known, f"exit {rc} ({err})" + (" [known failure]" if known else "")
        if not data:
            return False, False, f"exit {rc} without a report"
        report = json.loads(data)
        oracle = check.oracle_failures(job, report)
        if oracle:
            return False, False, "; ".join(oracle)
        if ref["exit"] not in job.allowed_exits:
            return True, True, None  # a known failure now completes and passes its oracle
        if rc != ref["exit"]:
            return False, False, f"exit {rc}, reference {ref['exit']}"
        bad = check.compare(check.reduce_report(report), ref["values"], job.tol)
        if bad:
            return False, False, f"differs from reference at {', '.join(bad[:5])}"
        return True, True, None


def percentile(sorted_vals, pct):
    """Nearest-rank percentile (pct a whole number) of an ascending list."""
    return sorted_vals[max(0, -(-pct * len(sorted_vals) // 100) - 1)]


def p50_p90_ms(walls, oks):
    """Median and p90 of job times in ms, failed jobs ranked above every
    completed one; a percentile that lands on a failed job reads as the
    slowest time of the run."""
    ranked = sorted(w if ok else math.inf for w, ok in zip(walls, oks))
    return [min(percentile(ranked, q), max(walls)) * 1e3 for q in (50, 90)]


# ---------------------------------------------------------------------------
# Modes


def warm_up(runner, slots):
    """One untimed job of every kind, so lazy imports and first-call set-up in
    the library are done before timing."""
    seen = set()
    for slot in slots:
        if slot[0].kind not in seen:
            seen.add(slot[0].kind)
            runner.run(slot[0])


def calibrate():
    """Seconds for a fixed piece of interpreter work (float math, dicts, JSON),
    the yardstick for the machine's speed while the jobs run."""
    t0 = time.perf_counter()
    acc, table = 0.0, {}
    for i in range(1, 800):
        acc += math.atan(i * 0.001) * math.log(i)
        table[i % 97] = (acc, i)
        json.dumps([acc, i])
    return time.perf_counter() - t0


def timed_run(runner, plan, verdicts, seconds):
    """Whole rounds until `seconds` have passed and MIN_JOBS jobs ran.

    Between jobs, every CAL_EVERY_S, the loop times calibrate().  The shared
    machine's speed drifts by 20-35% within a minute, more than any bound
    could absorb, so each job's wall time is scaled by CAL_REF_S over the
    median calibration time within CAL_WINDOW_S of it, and the throughput is
    completed jobs over the sum of the scaled wall times.  The raw values are
    kept in the result file."""
    execs, cals = [], []
    perf = time.perf_counter
    t0 = last_cal = perf()
    while True:
        for job in plan.next_round():
            if perf() - last_cal >= CAL_EVERY_S:
                cals.append((perf(), calibrate()))
                last_cal = perf()
            start = perf()
            execs.append((job, start) + runner.run(job))
        elapsed = perf() - t0 - math.fsum(d for _, d in cals)
        if elapsed >= MAX_LOOP_S or (elapsed >= seconds and len(execs) >= MIN_JOBS):
            break
    cals.append((perf(), calibrate()))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_slowdown = statistics.median(d for _, d in cals) / CAL_REF_S
    oks, walls, scaled, correct = [], [], [], True
    for job, start, rc, wall, out, err in execs:
        ok, right = verdicts.judge(job, rc, out, err)
        oks.append(ok)
        correct &= right
        near = [d for t, d in cals if abs(t - start) <= CAL_WINDOW_S]
        slowdown = statistics.median(near) / CAL_REF_S if len(near) >= 3 else run_slowdown
        walls.append(wall)
        scaled.append(wall / slowdown)
    completed = sum(oks)
    raw = dict(zip(("job_p50_ms", "job_p90_ms"), p50_p90_ms(walls, oks)),
               jobs_per_s=completed / elapsed)
    metrics = dict(zip(("job_p50_ms", "job_p90_ms"), p50_p90_ms(scaled, oks)),
                   jobs_per_s=completed / math.fsum(scaled),
                   completed_frac=completed / len(execs), peak_rss_mb=rss_mb)
    info = {"rounds": plan.rounds, "jobs": len(execs), "loop_s": elapsed,
            "slowdown": run_slowdown, "calibrations": len(cals), "raw": raw,
            "walls": [[e[0].id, e[2], e[3]] for e in execs]}
    return metrics, len(execs), len(execs) - completed, correct, info


def traced_run(runner, plan, verdicts):
    """One round untraced, then the same round traced; the traced reports must
    be byte-identical and each job's layer self times must not exceed its wall
    time."""
    from layers import SLOPES, Tracer, loglog_slope
    jobs = plan.next_round()
    plain = [runner.run(job) for job in jobs]
    tracer = Tracer()
    tracer.install()
    try:
        traced, per_job = [], []
        for job in jobs:
            tracer.job = job.id
            before, self_before = tracer.snapshot(), tracer.self_total()
            traced.append(runner.run(job))
            after = tracer.snapshot()
            per_job.append((job, after, before, tracer.self_total() - self_before))
    finally:
        tracer.uninstall()
    correct, failed, problems = True, 0, []
    for job, (rc0, _, out0, err0), (rc1, wall1, out1, err1), (_, _, _, self_s) in zip(
            jobs, plain, traced, per_job):
        ok0, right0 = verdicts.judge(job, rc0, out0, err0)
        ok1, right1 = verdicts.judge(job, rc1, out1, err1)
        correct &= right0 and right1
        failed += not ok1
        same = rc0 == rc1 and (not out0.exists() or out0.read_bytes() == out1.read_bytes())
        if not same:
            problems.append({"job": job.id, "reason": "traced report differs from untraced"})
        if self_s > wall1 + 1e-6:
            problems.append({"job": job.id, "reason": f"layer self time {self_s} > wall {wall1}"})
    correct &= not problems
    verdicts.problems += problems
    metrics = tracer.metrics()
    for name, fn in SLOPES.items():
        metrics[name] = loglog_slope([(job.size, a[fn][0] - b[fn][0], a[fn][1] - b[fn][1])
                                      for job, a, b, _ in per_job])
    untraced_s = sum(w for _, w, _, _ in plain)
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.overhead_s"] = sum(w for _, w, _, _ in traced) - untraced_s
    metrics["cli.input_bytes"] = sum(runner.input_bytes(job) for job in jobs)
    metrics["cli.output_bytes"] = sum(out.stat().st_size for _, _, out, _ in traced
                                      if out.exists())
    info = {"jobs": len(jobs), "spans_dropped": tracer.dropped_spans}
    return metrics, len(jobs), failed, correct, info, tracer.spans


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(catalogue.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "balayage" / "cli.py").is_file():
        print(f"error: no balayage sources under {SRC}", file=sys.stderr)
        return 2
    if not (ROOT / "BENCHMARK.json").is_file():
        print("error: BENCHMARK.json is missing", file=sys.stderr)
        return 2
    try:
        startup = import_profile() if args.trace else {"setup_s": setup_seconds()}
    except (RuntimeError, subprocess.SubprocessError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from balayage import cli

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    record = setup_record(args, bench)
    slots = catalogue.catalogue(args.workload)
    verdicts = Verdicts(load_reference(args.workload))
    WORK.mkdir(exist_ok=True)
    spans = None
    with tempfile.TemporaryDirectory(dir=WORK, prefix="run_") as tmp:
        runner = Runner(cli, slots, tmp)
        warm_up(runner, slots)
        plan = Plan(slots, args.seed)
        if args.trace:
            metrics, attempted, failed, correct, info, spans = traced_run(runner, plan, verdicts)
        else:
            metrics, attempted, failed, correct, info = timed_run(
                runner, plan, verdicts, args.seconds)
    metrics.update(startup)
    listed = bench["per_layer" if args.trace else "end_to_end"]
    result = {"correct": bool(correct), "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in listed}}
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    results = WORK / "results"
    results.mkdir(exist_ok=True)
    (results / f"{stem}.json").write_text(json.dumps(
        {"setup": record, **result, "problems": verdicts.problems, "info": info}, indent=1))
    if spans is not None:
        with gzip.open(results / f"{stem}.spans.jsonl.gz", "wt") as fh:
            for span in spans:
                fh.write(json.dumps(span) + "\n")
    print(json.dumps(record))
    for p in verdicts.problems[:20]:
        print(f"job {p['job']}: {p['reason']}")
    for k, m in result["metrics"].items():
        print(f"{k:42s} {m['value']:14.6g} {m['unit']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
