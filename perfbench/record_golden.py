"""Record the exit code and output digest of every job in the workload pools.

    python3 perfbench/record_golden.py [workload ...]

Run once on the commit whose outputs the benchmark should hold later
commits to; it rewrites the named workloads in perfbench/golden.json.  A
call that passes its deadline is recorded as null.  Regular jobs whose
answers fail their oracle are listed as known failures and printed; review
that list before committing the file.
"""

import json
import signal
import sys

import run
import workloads


def record(workload):
    """Outputs of every pipeline in the pool, and the regular jobs whose
    answers the oracle rejects (known failures)."""
    cli = run.load_program()
    calls_out, known = {}, {}
    deadline_keys = {j.key for j in workloads.deadline_jobs(workload)}
    for job in workloads.pool(workload):
        calls = run.run_pipeline(cli, job)
        calls_out[job.key] = [[c.code, run.digest(c.out)] if c.status == "done" else None for c in calls]
        if job.key in deadline_keys:
            continue
        judge = run.Judge({"calls": calls_out, "known_failures": {}})
        judge.judge(job, calls)
        if judge.failed:
            known[job.key] = "; ".join(judge.wrong) or "past the deadline"
            print(f"known failure: {known[job.key]}", file=sys.stderr)
    print(f"{workload}: {len(calls_out)} pipelines, {len(known)} known failures", file=sys.stderr)
    return {"calls": calls_out, "known_failures": known}


def dump(golden):
    """golden.json with one line per pipeline."""
    parts = []
    for name in sorted(golden):
        g = golden[name]
        calls = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(g["calls"].items()))
        known = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(g["known_failures"].items()))
        parts.append(f' {json.dumps(name)}: {{"calls": {{\n{calls}\n }}, "known_failures": {{\n{known}\n }}}}')
    return "{\n" + ",\n".join(parts) + "\n}\n"


def main(names):
    signal.signal(signal.SIGALRM, run._on_alarm)
    path = run.HERE / "golden.json"
    golden = json.loads(path.read_text()) if path.exists() else {}
    for name in names or workloads.WORKLOADS:
        golden[name] = record(name)
    path.write_text(dump(golden))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
