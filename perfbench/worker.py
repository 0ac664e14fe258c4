"""One pass of a workload in a fresh process: cold caches, one job at a
time, every answer checked after the timed loop.

The host this runs on changes speed by up to 2x over tens of seconds, for
the interpreter as a whole (process time follows wall time). So the pass
times a fixed slice of pure-Python work, the *probe*, ten times a second,
and reports each job's time scaled to a host on which the probe takes
REFERENCE_PROBE_S: its measured time, less the probes that ran inside it,
times REFERENCE_PROBE_S over the median of the probes in or nearest to it.
The measured times are reported too.

    python3 perfbench/worker.py --workload W --jobs FILE --launched-at T
        [--trace FILE] [--setup-only]

``--launched-at`` is the parent's time.monotonic() just before it started
this process; set-up time runs from there until spinchar is imported and
the job list is loaded, and is scaled like the jobs' times, by probes run
right after it. The result is one JSON line on stdout.
"""

from __future__ import annotations

import argparse
import bisect
import hashlib
import json
import os
import resource
import signal
import statistics
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import spinchar  # noqa: E402
import spinchar.cli  # noqa: E402  (imports every layer, verify included)

from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


# The probe runs at the start of a pass, every PROBE_EVERY_S of wall time
# from an interval timer (so inside long jobs too) and at the end. A job is
# scaled by the median of the probes inside it, or of the PROBE_NEAREST
# probes nearest to it if fewer ran inside.
PROBE_EVERY_S = 0.1
PROBE_NEAREST = 9
# The probe's median time on the machine the benchmark was written on (a
# 2-vCPU KVM guest, Intel Xeon, Python 3.11); a constant of the benchmark.
REFERENCE_PROBE_S = 0.0038


def probe():
    """A fixed slice of the work spinchar does: exact fractions, integer
    Cartan-matrix products on weight tuples, and tuple keys in a dict."""
    acc, seen = Fraction(0), {}
    m = ((2, -1, 0, 0), (-1, 2, -1, 0), (0, -2, 2, -1), (0, 0, -1, 2))
    v = (1, 0, 0, 0)
    for i in range(1, 400):
        acc += Fraction(i % 7 - 3, i)
        v = tuple(sum(r[k] * v[k] for k in range(4)) % 13 - 6 for r in m)
        seen[v] = seen.get(v, 0) + 1
    return acc, len(seen)


class HostSpeed:
    """The probes of one pass, as (start, seconds) in time order."""

    def __init__(self, tracer=None):
        self.probes = []
        self.tracer = tracer
        self._busy = False

    def take(self, *_signal):
        if self._busy:
            return
        self._busy = True
        start = time.perf_counter()
        probe()
        seconds = time.perf_counter() - start
        self.probes.append((start, seconds))
        if self.tracer is not None:
            self.tracer.exclude(seconds)
        self._busy = False

    def __enter__(self):
        self.take()
        self._handler = signal.signal(signal.SIGALRM, self.take)
        signal.setitimer(signal.ITIMER_REAL, PROBE_EVERY_S, PROBE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._handler)
        self.take()

    def job_time(self, start, end):
        """(measured seconds less the probes inside, scaled seconds)."""
        starts = [t for t, _ in self.probes]
        i, j = bisect.bisect_left(starts, start), bisect.bisect_left(starts, end)
        inside = [sec for _, sec in self.probes[i:j]]
        measured = end - start - sum(inside)
        near = list(inside)
        before, after = self.probes[:i][::-1], self.probes[j:]
        while len(near) < PROBE_NEAREST and (before or after):
            if after and (not before or after[0][0] - end < start - before[0][0]):
                near.append(after.pop(0)[1])
            else:
                near.append(before.pop(0)[1])
        return measured, measured * REFERENCE_PROBE_S / statistics.median(near)


def setup_scale(samples=5):
    """REFERENCE_PROBE_S over the median of probes run right after set-up."""
    host = HostSpeed()
    for _ in range(samples):
        host.take()
    return REFERENCE_PROBE_S / statistics.median(sec for _, sec in host.probes)


def run_pass(workload, jobs, tracer=None):
    """Run the jobs in order while probing the host's speed.

    Returns per-job measured and scaled seconds, the median probe time,
    the answers and the errors."""
    run, ctx = WORKLOADS[workload]["run"], {}
    spans, answers, errors = [], [], []
    with HostSpeed(tracer) as host:
        for job in jobs:
            if tracer is not None:
                tracer.job = job["id"]
                span = tracer.open("job")
            start = time.perf_counter()
            try:
                answers.append(run(job, spinchar, ctx))
                errors.append(None)
            except Exception as exc:  # every failure is one failed job
                answers.append(None)
                errors.append(f"{type(exc).__name__}: {exc}")
            spans.append((start, time.perf_counter()))
            if tracer is not None:
                tracer.close(span)
    times = [host.job_time(start, end) for start, end in spans]
    probe_s = statistics.median(sec for _, sec in host.probes)
    return times, probe_s, answers, errors


def check_pass(workload, jobs, answers, errors):
    """Per job: None when the answer is correct, else the reason."""
    check = WORKLOADS[workload]["check"]
    return [err if err is not None else check(job, ans)
            for job, ans, err in zip(jobs, answers, errors)]


def main(argv=None):
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--jobs", required=True)
    p.add_argument("--launched-at", type=float, required=True)
    p.add_argument("--trace", default=None)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)
    with open(args.jobs) as fh:
        jobs = json.load(fh)
    measured_setup_s = time.monotonic() - args.launched_at
    setup = {"setup_s": measured_setup_s * setup_scale(), "measured_setup_s": measured_setup_s}
    if args.setup_only:
        print(json.dumps(setup))
        return 0
    tracer = None
    if args.trace:
        tracer = Tracer()
        tracer.install()
    times, probe_s, answers, errors = run_pass(args.workload, jobs, tracer)
    measured = [m for m, _ in times]
    seconds = [s for _, s in times]
    reasons = check_pass(args.workload, jobs, answers, errors)
    out = {
        **setup,
        "wall_s": sum(seconds),
        "probe_s": probe_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "jobs": [{"id": job["id"], "seconds": sec, "measured_s": raw, "reason": reason,
                  "answer": hashlib.sha256(json.dumps(ans, sort_keys=True).encode()).hexdigest()[:16]}
                 for job, sec, raw, ans, reason
                 in zip(jobs, seconds, measured, answers, reasons)],
    }
    if tracer is not None:
        out["layers"] = tracer.summary()
        tracer.write(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
