"""The benchmark repeats itself and catches wrong answers.

    python3 -m pytest perfbench/tests

Two traced passes of the same small job list (rank <= 2), each in a fresh
process, must give identical answers and identical per-layer counts; a
corrupted reference must show up as exactly one failed job. Job times
lose the host-speed probes that ran inside them and scale by the probes'
median.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import references  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def traced_pass(workload, seed, tmp_path):
    tmp_path.mkdir()
    jobs_file = tmp_path / "jobs.json"
    jobs_file.write_text(json.dumps(workloads.WORKLOADS[workload]["jobs"](seed, 2)))
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH, "worker.py"), "--workload", workload,
         "--jobs", str(jobs_file), "--launched-at", repr(time.monotonic()),
         "--trace", str(tmp_path / "spans.jsonl")],
        cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=300, check=True)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    spans = (tmp_path / "spans.jsonl").read_text().splitlines()
    return result, spans


def counts(result):
    return {k: v for k, v in result["layers"].items() if not k.endswith("_s")}


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_same_seed_same_answers_and_counts(workload, tmp_path):
    a, spans_a = traced_pass(workload, 7, tmp_path / "a")
    b, spans_b = traced_pass(workload, 7, tmp_path / "b")
    assert [j["reason"] for j in a["jobs"]] == [None] * len(a["jobs"])
    assert [(j["id"], j["answer"]) for j in a["jobs"]] == \
        [(j["id"], j["answer"]) for j in b["jobs"]]
    assert counts(a) == counts(b)
    assert len(spans_a) == len(spans_b) > len(a["jobs"])


def test_wrappers_reach_modules_that_imported_the_function(tmp_path):
    # spin_g1 finds spin0_character and decompose through
    # `from .spinmod import ...` / `from .charring import ...`
    result, _ = traced_pass("symmetric-pairs", 1, tmp_path / "p")
    c = counts(result)
    assert c["gradings.spin_g1.summands"] > 0
    assert c["spinmod.spin0.terms"] > 0
    assert c["charring.decompose.summands"] > 0
    assert c["weyl.parity.calls"] > 0


def test_seed_changes_only_the_drawn_inputs():
    for name in ("spin-queries", "classify-sweep"):
        make = workloads.WORKLOADS[name]["jobs"]
        assert make(1) == make(1)
        assert make(1) != make(2), name
    # symmetric-pairs is one fixed list of gradings
    assert workloads.pairs_jobs(1) == workloads.pairs_jobs(2)


def test_missing_target_is_an_error(monkeypatch):
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import spinchar.cli  # noqa: F401

    bogus = ("weyl.gone", "weyl", "no_such_function", None)
    monkeypatch.setattr(tracing, "targets", lambda: [bogus])
    with pytest.raises(tracing.TargetMissing):
        tracing.Tracer().install()


def test_corrupted_reference_is_a_failed_job(monkeypatch):
    import worker

    jobs = [j for j in workloads.spin_jobs(1, 1) if (j["type"], tuple(j["weight"])) in references.SPIN]
    monkeypatch.setitem(references.SPIN, ("A1", (8,)), [((10,), 1)])
    _, _, answers, errors = worker.run_pass("spin-queries", jobs)
    reasons = worker.check_pass("spin-queries", jobs, answers, errors)
    assert [j["id"] for j, r in zip(jobs, reasons) if r is not None] == ["spin:A1:8"]


def test_job_time_takes_probes_out_and_scales_by_their_median(monkeypatch):
    import worker

    ref = worker.REFERENCE_PROBE_S
    monkeypatch.setattr(worker, "PROBE_NEAREST", 3)
    host = worker.HostSpeed()
    host.probes = [(0.0, ref), (1.0, 2 * ref), (2.0, 2 * ref), (3.0, 2 * ref), (9.0, ref)]
    # three probes inside the job, each at half the reference speed
    measured, scaled = host.job_time(0.5, 3.5)
    assert measured == pytest.approx(3.0 - 6 * ref)
    assert scaled == pytest.approx(measured / 2)
    # a short job between probes: the three nearest (t = 3, 2 and 1)
    measured, scaled = host.job_time(3.4, 3.6)
    assert measured == pytest.approx(0.2)
    assert scaled == pytest.approx(0.1)
