"""Tests of the benchmark's own code: oracles, span arithmetic, the deadline
and the seeded generator.

    python3 -m pytest perfbench/tests -q
"""

import copy
import gc
import json
import signal
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


@pytest.fixture(scope="module")
def cli():
    old = signal.signal(signal.SIGALRM, run._on_alarm)
    yield run.load_program()
    signal.signal(signal.SIGALRM, old)


def _results(cli, job):
    calls = run.run_pipeline(cli, job)
    assert all(c.status == "done" and c.code == 0 for c in calls)
    return [json.loads(c.out)["result"] for c in calls]


def _job(workload, cell_name):
    cell = next(c for c in workloads.cells(workload) if c.name == cell_name)
    return workloads.variant(workload, cell, 0)


def _bump_series(obj):
    obj = copy.deepcopy(obj)
    term = obj["terms"][-1]
    term["coefficient"] = str(Fraction(term["coefficient"]) + 1)
    return obj


def test_shape_oracle_rejects_perturbed_answers(cli):
    job = _job("shape_const", "r2n1rep")
    res = _results(cli, job)
    assert job.check(res) is None
    bad_p = copy.deepcopy(res)
    bad_p[1]["P"] += " + 1"
    bad_q = copy.deepcopy(res)
    bad_q[1]["Q"][0] += " + 1"
    bad_c = copy.deepcopy(res)
    bad_c[0]["shear"] = [str(Fraction(bad_c[0]["shear"][0]) + 1)]
    for bad in (bad_p, bad_q, bad_c):
        assert job.check(bad)


def test_gauge_oracle_rejects_perturbed_answers(cli):
    job = _job("gauge_rational", "r2n1")
    res = _results(cli, job)
    assert job.check(res) is None
    for step, key in ((1, "members"), (2, "images")):
        bad = copy.deepcopy(res)
        bad[step][key][0] = _bump_series(bad[step][key][0])
        assert job.check(bad)


@pytest.mark.parametrize("cell", ["solve-double-r2n1", "wronskian-rational-r2n1", "dradical-double-r3n1"])
def test_series_oracles_reject_perturbed_answers(cli, cell):
    job = _job("series_dradical", cell)
    res = _results(cli, job)
    assert job.check(res) is None
    bad = copy.deepcopy(res)
    if "members" in bad[0]:
        bad[0]["members"][1] = _bump_series(bad[0]["members"][1])
    elif "wronskian" in bad[0]:
        bad[0]["wronskian"] = _bump_series(bad[0]["wronskian"])
    else:
        bad[0]["verdict"] = "NoDependenceUpToBound"
    assert job.check(bad)


@pytest.mark.parametrize("cell", ["dx_x-k6", "mul-k3"])
def test_symbol_oracle_rejects_perturbed_answers(cli, cell):
    job = _job("parse_powers", cell)
    res = _results(cli, job)
    assert job.check(res) is None
    bad = copy.deepcopy(res)
    key = "operators" if "operators" in bad[0] else "product"
    if key == "operators":
        bad[0][key][0] += " + x"
    else:
        bad[0][key] += " + x"
    assert job.check(bad)


def test_self_time_on_a_synthetic_span_tree():
    ticks = iter([0, 2, 5, 6, 7, 9, 10, 15])
    t = tracing.Tracer(lambda: next(ticks))
    t.enter("A")
    t.enter("B")
    t.exit()  # B: 2..5
    t.enter("C")
    t.enter("D")
    t.exit()  # D: 7..9
    t.exit()  # C: 6..10
    t.exit()  # A: 0..15
    self_ns = {name: tot[2] for name, tot in t.totals.items()}
    assert self_ns == {"A": 15 - 3 - 4, "B": 3, "C": 4 - 2, "D": 2}
    assert t.edges[("A", "C")] == [1, 4]
    assert [s[1:3] for s in t.spans] == [("A", "B"), ("C", "D"), ("A", "C"), ("", "A")]


def test_wrappers_cover_every_namespace_and_undo(cli):
    import oreshape
    from oreshape import gb, shape

    orig = gb.groebner_basis
    t = tracing.Tracer(lambda: 0)
    restore = tracing.install(t)
    try:
        assert shape.groebner_basis is gb.groebner_basis is cli.groebner_basis is oreshape.groebner_basis
        assert gb.groebner_basis is not orig
    finally:
        restore()
    assert shape.groebner_basis is orig and cli.groebner_basis is orig


def test_traced_run_counts_layers(cli):
    t = tracing.Tracer(time.perf_counter_ns)
    restore = tracing.install(t)
    try:
        _results(cli, _job("shape_const", "r2n1rep"))
    finally:
        restore()
    m = tracing.layer_metrics(t)
    for name in run.REQUIRED["shape_const"] + ("cli.main.self_ms",):
        assert m[name] > 0, name


def test_deadline_becomes_a_counted_timeout():
    class Stuck:
        @staticmethod
        def main(argv):
            while True:
                pass

    old = signal.signal(signal.SIGALRM, run._on_alarm)
    try:
        c = run.call(Stuck, ["solve"], "Dx\n", deadline=0.05)
    finally:
        signal.signal(signal.SIGALRM, old)
    assert c.status == "timeout" and c.seconds == 0.05
    job = workloads.Job("x/runaway", 1, (workloads.Step(("solve",), "Dx\n"),), lambda r: None)
    judge = run.Judge({"calls": {"x/runaway": [None]}, "known_failures": {}})
    judge.judge(job, [c])
    assert (judge.passed, judge.failed, judge.timeouts, judge.wrong) == (0, 1, 1, [])


def test_generator_is_a_function_of_the_seed():
    def texts(seed):
        return [(j.key, [s.argv for s in j.steps], [s.text for s in j.steps])
                for w in workloads.WORKLOADS for batch in workloads.passes(w, seed, 2) for j in batch]

    assert texts(7) == texts(7)
    assert texts(7) != texts(8)


def test_judge_counts_each_job_once():
    ok = run.Call("done", 0.01, 0, json.dumps({"result": {}}))
    golden = {"calls": {"x/a": [[0, run.digest(ok.out)]], "x/b": [[0, run.digest(ok.out)]]}, "known_failures": {}}
    jobs = [workloads.Job(k, 1, (workloads.Step(("parse",), "Dx\n"),), lambda r: None) for k in ("x/a", "x/b")]
    judge = run.Judge(golden)
    for _ in range(3):
        judge.judge(jobs[0], [ok])
    judge.judge(jobs[1], [ok])
    judge.judge(jobs[1], [run.Call("timeout", 4.0, None, "")])
    judge.judge(jobs[1], [ok])
    assert (judge.passed, judge.failed, judge.ncalls, judge.timeouts) == (1, 1, 6, 1)


def test_repeat_medians_smooth_each_call():
    samples = [(("a", 0), 1.0), (("b", 0), 5.0), (("a", 0), 3.0), (("a", 0), 2.0), (("b", 0), 7.0)]
    assert run.repeat_medians(samples) == [2.0, 2.0, 2.0, 6.0, 6.0]


def test_every_pass_holds_the_whole_pool():
    for w in workloads.WORKLOADS:
        want = sorted(j.key for c in workloads.cells(w) for v in range(workloads.VARIANTS)
                      for j in [workloads.variant(w, c, v)] * c.weight)
        for batch in workloads.passes(w, 5, 3):
            assert sorted(j.key for j in batch) == want


def test_reference_leaves_the_collector_on():
    assert gc.isenabled()
    assert run.reference() > 0
    assert gc.isenabled()
