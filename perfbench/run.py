"""spinchar benchmark: one run of one workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root. The run generates the workload's jobs from
the seed, then starts fresh worker processes one after another (closed
loop, one client, single-threaded): set-up-only processes to sample
set-up time, and passes, each of which runs its jobs once against cold
caches. With --trace 0 one pass runs every job and the others repeat the
jobs not marked ``once`` (a prefix of the list: all of them, except
symmetric-pairs' F4/B4 anchor). Repeat passes run before the full pass
until S/4 seconds have gone, and after it until less than half the last
pass's time is left of S seconds, so that each job's samples spread over
the run. It reports the end-to-end metrics: each job's time, scaled to a
reference host speed by the worker, is its median over the passes that
ran it; the batch's wall time is the sum of these medians, and peak
memory the median over the passes that ran every job. With
--trace 1 it runs one plain and one traced pass of every job and reports
the per-layer metrics. The last stdout line is the JSON result; a run that
cannot complete exits non-zero without one.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
sys.path.insert(0, HERE)

from tracing import METRICS as LAYER_METRICS  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

END_TO_END = {"setup_s": "s", "wall_s": "s", "job_p50_s": "s", "job_p90_s": "s",
              "peak_rss_mb": "MB"}
SETUP_SAMPLES = 9
RUN_LIMIT_S = 170


class RunFailed(Exception):
    """A worker process crashed, timed out or printed no result."""


def spawn(workload, jobs_file, deadline, *extra):
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise RunFailed("out of time before starting a worker")
    argv = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
            "--jobs", jobs_file, "--launched-at", repr(time.monotonic()), *extra]
    try:
        proc = subprocess.run(argv, cwd=ROOT, stdout=subprocess.PIPE, timeout=remaining,
                              text=True)
    except subprocess.TimeoutExpired as exc:
        raise RunFailed(f"worker exceeded the run's time limit: {exc}") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RunFailed(f"worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def timings(passes, n_jobs, job_key):
    """From each job's median time over the passes that ran it: wall_s,
    their sum, and the job quantiles."""
    per_job = [statistics.median(run["jobs"][i][job_key] for run in passes
                                 if i < len(run["jobs"]))
               for i in range(n_jobs)]
    return {"wall_s": sum(per_job),
            "job_p50_s": statistics.median(per_job),
            "job_p90_s": statistics.quantiles(per_job, n=10, method="inclusive")[-1]}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "spinchar", "__init__.py")):
        print("error: spinchar sources not found under src/; run from a checkout",
              file=sys.stderr)
        return 2
    deadline = time.monotonic() + RUN_LIMIT_S
    os.makedirs(OUT, exist_ok=True)
    tag = f"{args.workload}-{args.seed}-{os.getpid()}"
    jobs_file = os.path.join(OUT, f"jobs-{tag}.json")
    repeat_file = os.path.join(OUT, f"repeat-{tag}.json")
    jobs = WORKLOADS[args.workload]["jobs"](args.seed)
    repeat = [j for j in jobs if not j.get("once")]
    assert jobs[:len(repeat)] == repeat, "jobs marked once must end the list"
    with open(jobs_file, "w") as fh:
        json.dump(jobs, fh)
    with open(repeat_file, "w") as fh:
        json.dump(repeat, fh)
    try:
        setups = [spawn(args.workload, jobs_file, deadline, "--setup-only")
                  for _ in range(0 if args.trace else SETUP_SAMPLES)]
        passes = []
        if args.trace:
            passes.append(spawn(args.workload, jobs_file, deadline))
            trace_file = os.path.join(OUT, f"spans-{tag}.jsonl")
            passes.append(spawn(args.workload, jobs_file, deadline, "--trace", trace_file))
        else:
            start, full_done, took = time.monotonic(), False, {}
            while True:
                full = not full_done and (len(repeat) == len(jobs)
                                          or time.monotonic() - start >= args.seconds / 4)
                began = time.monotonic()
                passes.append(spawn(args.workload, jobs_file if full else repeat_file,
                                    deadline))
                full_done = full_done or full
                took[full] = time.monotonic() - began
                next_took = took.get(len(repeat) == len(jobs), took[full])
                if full_done and time.monotonic() - start + next_took / 2 > args.seconds:
                    break
    except RunFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        os.remove(jobs_file)
        os.remove(repeat_file)

    results = [j for run in passes for j in run["jobs"]]
    failed = [j for j in results if j["reason"] is not None]
    for j in failed[:20]:
        print(f"FAIL {j['id']}: {j['reason']}", file=sys.stderr)
    if args.trace:
        values = dict(passes[1]["layers"])
        values["trace.overhead_s"] = passes[1]["wall_s"] - passes[0]["wall_s"]
        metrics = {k: {"value": values[k], "unit": u} for k, u in LAYER_METRICS.items()}
    else:
        full = [run for run in passes if len(run["jobs"]) == len(jobs)]
        values = {"setup_s": statistics.median(run["setup_s"] for run in setups + passes),
                  "peak_rss_mb": statistics.median(run["peak_rss_mb"] for run in full)}
        values.update(timings(passes, len(jobs), "seconds"))
        measured = timings(passes, len(jobs), "measured_s")
        measured["setup_s"] = statistics.median(run["measured_setup_s"]
                                                for run in setups + passes)
        print("measured, before scaling to the reference host speed: "
              + ", ".join(f"{k} = {v:.6g} s" for k, v in measured.items())
              + "; median probe {:.6g} s".format(
                  statistics.median(run["probe_s"] for run in passes)))
        metrics = {k: {"value": values[k], "unit": u} for k, u in END_TO_END.items()}
    print(f"{args.workload} seed {args.seed}: {len(jobs)} jobs, {len(passes)} pass(es)"
          f" ({len(repeat)} jobs after the first), {len(setups)} set-up samples;"
          f" fail_ratio {len(failed)}/{len(results)}")
    for k, m in metrics.items():
        print(f"  {k} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": not failed, "attempted": len(results),
                      "failed": len(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
