"""End-to-end benchmark of the oreshape command line, one client in a closed loop.

    python3 perfbench/run.py --workload shape_const --seed 1 --seconds 30 --trace 0

Every job is one in-process call of ``oreshape.cli.main(argv)`` with
``--json`` and an ideal file on stdin, so it covers cli, parsing, the
algorithm layers and arith exactly as a user's run does.  Jobs come in short
pipelines (normalize then shape; gauge then solve); a later call reads the
ideal file printed by an earlier one.  Every output is checked after the
timed phase: its exit code and digest against golden.json, and the whole
pipeline against an oracle that shares no code with the program.

--trace 0 prints the end-to-end metrics, with times scaled to a fixed host
speed measured by reference() (see there and README.md).  --trace 1 runs
every pipeline of the pool once plain and once with layer spans installed
(tracing.py) and prints the per-layer metrics; spans are written to
perfbench/out/.
The last line of stdout is one JSON object.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import io
import json
import resource
import signal
import statistics
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import oracles  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

DEADLINE_S = 4.0  # slowest finishing call is about 1 s on a 2-core x86 VM
SETUP_REPEATS = 5
MIN_JOBS = 100  # ten samples beyond the 90th percentile
MAX_PASSES = 200  # more than a run of 60 s completes
REFERENCE_MS = 5.0  # median of reference() on the 2-vCPU x86-64 VM where the bounds were set
# Program time goes as reference time to this power: fitted log-log slopes
# were 0.58 to 0.85 on that VM, where the reference gains more than the
# program when the host is fastest.
SPEED_EXPONENT = 0.7


# Per-layer metrics that must be nonzero on the workload built to exercise them.
REQUIRED = {
    "shape_const": (
        "arith.poly_gcd.calls", "arith.ratfunc.new", "arith.ratfunc.self_ms", "arith.coeff_bits_max",
        "ore.mul.calls", "ore.shear.ms", "gb.groebner_basis.calls", "gb.groebner_basis.self_ms",
        "gb.left_reduce.calls", "gb.left_reduce.self_ms", "gb.spairs", "gb.zero_reduction_ratio",
        "shape.quotient_action.ms", "shape.action_apply.calls", "shape.action_apply.self_ms",
        "shape.shape_basis.verify_ms", "shape.normalize.attempts",
    ),
    "gauge_rational": (
        "arith.poly_gcd.calls", "arith.poly_gcd.ms", "arith.poly_gcd.useful_ratio", "arith.ratfunc.new",
        "arith.ratfunc.self_ms", "arith.coeff_deg_max", "arith.coeff_bits_max", "ore.mul.calls",
        "ore.mul.self_ms", "ore.apply.ms", "shape.quotient_action.ms", "shape.action_apply.calls",
        "shape.action_apply.self_ms", "shape.gauge_transform.self_ms",
    ),
    "series_dradical": (
        "series.solve_series.self_ms", "series.wronskian_x.ms", "series.d_radical_check.self_ms",
    ),
    "parse_powers": (
        "ore.mul.calls", "ore.mul.self_ms", "parsing.parse_ideal_file.self_ms", "parsing.input_bytes",
    ),
}
ALWAYS_REQUIRED = ("cli.main.self_ms", "trace.overhead_ratio")


class JobTimeout(BaseException):
    """Raised by the timer signal when a call passes its deadline.  A
    BaseException, so the program's own error handling cannot swallow it."""


def _on_alarm(signum, frame):
    raise JobTimeout()


@dataclass
class Call:
    status: str  # "done", "timeout" or "crash"
    seconds: float
    code: int | None
    out: str


def load_program():
    """Import oreshape afresh from the checkout's src/ and return its cli module."""
    src = ROOT / "src"
    if not (src / "oreshape" / "cli.py").is_file():
        raise SystemExit(f"benchmark: no program sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [k for k in sys.modules if k == "oreshape" or k.startswith("oreshape.")]:
        del sys.modules[name]
    cli = importlib.import_module("oreshape.cli")
    if Path(cli.__file__).resolve().parent != (src / "oreshape").resolve():
        raise SystemExit(f"benchmark: imported {cli.__file__}, not the checkout's sources")
    return cli


def call(cli, argv, text, deadline=DEADLINE_S):
    """One job: cli.main(argv + ["-", "--json"]) with text on stdin, under a
    deadline enforced by SIGALRM.  A timed-out call counts as the deadline."""
    saved = sys.stdin, sys.stdout, sys.stderr
    out = io.StringIO()
    sys.stdin, sys.stdout, sys.stderr = io.StringIO(text), out, io.StringIO()
    code = None
    start = time.perf_counter()
    signal.setitimer(signal.ITIMER_REAL, deadline)
    try:
        code = cli.main([*argv, "-", "--json"])
        status = "done"
    except JobTimeout:
        status = "timeout"
    except (Exception, SystemExit) as exc:  # an escaping traceback is a failed job
        status = "crash"
        out.write(f"{type(exc).__name__}: {exc}")
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        seconds = time.perf_counter() - start
        sys.stdin, sys.stdout, sys.stderr = saved
    if status == "timeout":
        seconds = deadline
    return Call(status, seconds, code, out.getvalue())


def reference():
    """Seconds taken by a fixed computation in the oracles' Fraction
    arithmetic, which shares no code with the program: the symbol of
    (Dx + 2x + 1)^8.  On a shared host its time rises and falls with the
    program's (correlation 0.91 to 0.97 over 3 s passes), so it measures the
    host's speed during a run.  The collector is off while it runs, so the
    size of the program's heap does not slow it."""
    gc.disable()
    try:
        start = time.perf_counter()
        oracles.action_symbol(oracles.parse_expr("(Dx + 2*x + 1)^8"), 1)
        return time.perf_counter() - start
    finally:
        gc.enable()


def run_pipeline(cli, job, deadline=DEADLINE_S):
    """Calls of one pipeline; a step that pipes from a failed call is skipped."""
    calls, prev = [], None
    for step in job.steps:
        if step.text is not None:
            text = step.text
        elif prev is not None:
            text = f"# nvars {job.nvars}\n" + "\n".join(prev[step.pipe]) + "\n"
        else:
            break
        c = call(cli, step.argv, text, deadline)
        calls.append(c)
        prev = json.loads(c.out)["result"] if c.status == "done" and c.code == 0 else None
    return calls


def digest(out):
    """Digest of a call's JSON output without its timings."""
    obj = json.loads(out)
    obj.pop("timings_ms", None)
    return hashlib.sha256(json.dumps(obj, sort_keys=True).encode()).hexdigest()[:16]


class Judge:
    """Verdicts on finished pipelines: the exit code and digest of each call
    against golden.json, and the oracle on each complete pipeline (cached by
    the digests it saw).

    A job is a pipeline of the pool.  It passes if every call of every run
    of it in this process passed, so ``passed`` and ``failed`` count the
    pool's jobs, whichever the number of passes the machine's speed allowed.

    A job listed under known_failures failed its oracle on the recorded
    commit.  While its output stays as recorded it counts as failed but not
    as a wrong answer; once its output changes, the oracle alone decides."""

    def __init__(self, golden):
        self.calls = golden["calls"]
        self.known = golden["known_failures"]
        self.oracle_cache = {}
        self.verdicts = {}  # job key -> True while every call of it passed
        self.ncalls = 0
        self.wrong = []  # reasons for incorrect answers
        self.timeouts = 0
        self.slowest = 0.0  # longest call that finished

    def oracle(self, job, calls):
        key = (job.key, tuple(digest(c.out) for c in calls))
        if key not in self.oracle_cache:
            results = [json.loads(c.out)["result"] for c in calls]
            try:
                self.oracle_cache[key] = job.check(results)
            except (ValueError, KeyError, TypeError) as exc:
                self.oracle_cache[key] = f"oracle could not read the answer: {exc}"
        return self.oracle_cache[key]

    def judge(self, job, calls):
        want = self.calls.get(job.key)
        if want is None:
            self.wrong.append(f"{job.key}: no recorded output")
        ok, changed = [], False
        for i, c in enumerate(calls):
            if c.status == "done":
                self.slowest = max(self.slowest, c.seconds)
            if c.status == "timeout":
                self.timeouts += 1
            elif c.status == "crash":
                self.wrong.append(f"{job.key} step {i}: {c.out}")
            elif want is not None:
                expect = want[i] if i < len(want) else None
                if expect is not None and [c.code, digest(c.out)] != expect:
                    changed = True
            ok.append(c.status == "done" and want is not None)
        complete = len(calls) == len(job.steps) and all(c.status == "done" and c.code == 0 for c in calls)
        why = self.oracle(job, calls) if complete else None
        known = job.key in self.known
        if known and not changed:
            ok = [False] * len(ok)
        else:
            if not why and changed and not (known and complete):
                why = "exit code or output differs from the recorded one"
            if why:
                self.wrong.append(f"{job.key}: {why}")
                ok = [False] * len(ok)
        self.ncalls += len(calls)
        self.verdicts[job.key] = self.verdicts.get(job.key, True) and all(ok)

    @property
    def failed(self):
        return sum(not ok for ok in self.verdicts.values())

    @property
    def passed(self):
        return len(self.verdicts) - self.failed


def setup(workload, seed):
    """Import, input generation, golden outputs and one warm-up pipeline."""
    cli = load_program()
    passes = workloads.passes(workload, seed, MAX_PASSES)
    first = workloads.variant(workload, workloads.cells(workload)[0], 0)
    with open(HERE / "golden.json", encoding="utf-8") as fh:
        golden = json.load(fh)[workload]
    run_pipeline(cli, first)
    return cli, passes, golden


def timed_phase(cli, passes, deadline_jobs, seconds, judge, refs):
    """Closed loop over passes of the pool, then the deadline jobs, within
    ``seconds``; the first pass always completes, so every job of the pool is
    judged in every run.  Timings come from the complete passes and the
    deadline jobs only, so every run times the same work.  Peak memory is
    read before the deadline jobs, whose growth depends on machine speed.
    reference() runs before every job of the passes; its times go to refs."""
    samples, records = [], []
    done = 0
    start = time.perf_counter()
    stop = start + seconds - DEADLINE_S * len(deadline_jobs)
    busy = 0.0
    for n, batch in enumerate(passes):
        part = []
        for job in batch:
            if n and time.perf_counter() >= stop:
                break
            refs.append(reference())
            part.append((job, run_pipeline(cli, job)))
        records += part
        if len(part) < len(batch):
            break
        busy = time.perf_counter() - start
        for job, calls in part:
            samples += [((job.key, i), c.seconds) for i, c in enumerate(calls)]
            done += sum(c.status != "timeout" for c in calls)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    for job in deadline_jobs:
        calls = run_pipeline(cli, job)
        records.append((job, calls))
        samples += [((job.key, i), c.seconds) for i, c in enumerate(calls)]
        done += sum(c.status != "timeout" for c in calls)
        busy += sum(c.seconds for c in calls)
    for job, calls in records:
        judge.judge(job, calls)
    return samples, done, busy, peak_rss_mb


def repeat_medians(samples):
    """Each call's time replaced by the median time of that call (same job,
    same step) over its repeats in the run.  Percentiles of these values
    count every call, but a slow moment of the host moves them far less than
    it moves single samples."""
    times = {}
    for key, sec in samples:
        times.setdefault(key, []).append(sec)
    return sorted(statistics.median(v) for v in times.values() for _ in v)


def traced_phase(cli, jobs, judge, out_path):
    """Each pipeline runs plain, then traced, so that drifts in machine speed
    cancel out of the overhead ratio; returns the per-layer metrics."""
    tracer = tracing.Tracer(time.perf_counter_ns)
    plain = traced = 0.0
    for job in jobs:
        calls = run_pipeline(cli, job)
        plain += sum(c.seconds for c in calls)
        judge.judge(job, calls)
        tracer.job = job.key
        restore = tracing.install(tracer)
        try:
            calls = run_pipeline(cli, job)
        finally:
            restore()
        traced += sum(c.seconds for c in calls)
        judge.judge(job, calls)
    metrics = tracing.layer_metrics(tracer)
    metrics["trace.overhead_ratio"] = plain / traced
    out_path.parent.mkdir(parents=True, exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(
            {
                "totals": {k: {"calls": v[0], "ms": v[1] / 1e6, "self_ms": v[2] / 1e6} for k, v in tracer.totals.items()},
                "spans": [
                    {"job": j, "parent": p, "name": n, "start_ns": s, "end_ns": e, "self_ns": sn}
                    for j, p, n, s, e, sn in tracer.spans
                ],
            },
            fh,
        )
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    signal.signal(signal.SIGALRM, _on_alarm)

    setups, refs = [], []
    for _ in range(SETUP_REPEATS):
        refs.append(reference())
        t0 = time.perf_counter()
        cli, passes, golden = setup(args.workload, args.seed)
        setups.append(time.perf_counter() - t0)
    judge = Judge(golden)

    if args.trace:
        trace_jobs = passes[0]
        out_path = HERE / "out" / f"trace-{args.workload}-seed{args.seed}.json"
        metrics = traced_phase(cli, trace_jobs, judge, out_path)
        units = {m["name"]: m["unit"] for m in _spec()["per_layer"]}
        missing = [k for k in REQUIRED[args.workload] + ALWAYS_REQUIRED if not metrics.get(k)]
        if missing:
            judge.wrong.append("per-layer metrics stayed at zero: " + ", ".join(missing))
        report = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    else:
        samples, done, busy, peak_rss_mb = timed_phase(
            cli, passes, workloads.deadline_jobs(args.workload), args.seconds, judge, refs
        )
        # Times are scaled to a host on which reference() takes REFERENCE_MS.
        ref_ms = statistics.median(refs) * 1000
        scale = (REFERENCE_MS / ref_ms) ** SPEED_EXPONENT
        print(f"reference {ref_ms:.3f} ms over {len(refs)} samples: times scaled by {scale:.4f}", file=sys.stderr)
        if len(samples) < MIN_JOBS:
            print(f"warning: {len(samples)} calls leave fewer than ten beyond the 90th percentile", file=sys.stderr)
        smooth = repeat_medians(samples)
        report = {
            "job_ms_p50": {"value": statistics.median(smooth) * 1000 * scale, "unit": "ms"},
            "job_ms_p90": {"value": statistics.quantiles(smooth, n=10)[8] * 1000 * scale, "unit": "ms"},
            "jobs_per_s": {"value": done / busy / scale, "unit": "1/s"},
            "pass_ratio": {"value": judge.passed / (judge.passed + judge.failed), "unit": "ratio"},
            "setup_s": {"value": statistics.median(setups) * scale, "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    for why in judge.wrong[:20]:
        print(f"wrong: {why}", file=sys.stderr)
    print(
        f"{args.workload} seed {args.seed}: {judge.ncalls} calls of {judge.passed + judge.failed} jobs, "
        f"{judge.failed} jobs failed ({judge.timeouts} calls past the {DEADLINE_S:g} s deadline); "
        f"slowest finished call {judge.slowest:.2f} s",
        file=sys.stderr,
    )
    print(json.dumps({
        "correct": not judge.wrong,
        "attempted": judge.passed + judge.failed,
        "failed": judge.failed,
        "metrics": report,
    }))
    return 0


def _spec():
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)


if __name__ == "__main__":
    sys.exit(main())
