"""Runs one workload's jobs in a closed loop with one client.

Usage: python3 worker.py SPEC.json RESULT.json

The spec names the sizematch source directory, the jobs of one pass, an
output directory, the seconds to measure and whether to trace.  Jobs call
``sizematch.cli.main(argv)`` in this process, one after another: the next
job starts when the previous one returns.  The worker runs whole passes,
at least ``MIN_PASSES`` of them, until the seconds are used up, so every
job runs several times and each run weighs every job of the pass equally.

Right before every job the worker times one run of ``reference_work``, a
fixed piece of pure-Python work that does not touch sizematch; it tells how
fast the machine was at that moment, and ``run.py`` scales the job's timing
by it.

With tracing on, passes alternate between untraced and traced, each traced
pass with a fresh tracer, so both kinds see the same share of the machine's
quiet and busy moments.
"""

from __future__ import annotations

import json
import os
import resource
import sys
import time
from fractions import Fraction

MIN_PASSES = 3  # per kind: untraced, and traced when tracing


def reference_work() -> int:
    """Fixed work of the kinds sizematch does: exact fractions, dicts, sorting, JSON."""
    values = {}
    total = Fraction(0)
    for i in range(1, 601):
        value = Fraction(i * 7919 % 1024, 1024)
        values[f"v{i}"] = value
        total += value / (i % 13 + 1)
    order = sorted(values, key=lambda v: (values[v], v))
    parent = {v: order[index // 2] for index, v in enumerate(order)}
    roots = 0
    for v in order:
        while parent[v] != v:
            v = parent[v]
        roots += v == order[0]
    text = json.dumps([[v, float(values[v])] for v in order])
    return roots + sum(row[1] > 0.5 for row in json.loads(text)) + total.numerator % 7


def time_reference():
    """(wall s, cpu s) of one run of ``reference_work``."""
    cpu0 = time.process_time()
    wall0 = time.perf_counter()
    reference_work()
    return time.perf_counter() - wall0, time.process_time() - cpu0


def run_pass(cli, jobs, out_dir: str, pass_no: int, tracer=None):
    """Run every job once; return its wall seconds and one record per job.

    A record is ``[pass, job index, wall s, cpu s, exit code or None, error, traced,
    reference wall s, reference cpu s]``, the reference timed right before the job.
    """
    directory = os.path.join(out_dir, f"p{pass_no}")
    os.makedirs(directory, exist_ok=True)
    outputs = {}
    records = []
    start = time.perf_counter()
    for index, job in enumerate(jobs):
        output = os.path.join(directory, f"{index}.out")
        outputs[job["key"]] = output
        argv = [outputs[a[1:]] if a.startswith("@") else a for a in job["args"]]
        argv += ["--output", output]
        if tracer is not None:
            tracer.job = pass_no * len(jobs) + index
        error = ""
        reference = time_reference()
        cpu0 = time.process_time()
        wall0 = time.perf_counter()
        try:
            code = cli.main(argv)
        except Exception as exc:  # a job that raises counts as failed; the loop goes on
            code = None
            error = f"{type(exc).__name__}: {exc}"
        wall = time.perf_counter() - wall0
        cpu = time.process_time() - cpu0
        records.append([pass_no, index, wall, cpu, code, error, tracer is not None, *reference])
    return time.perf_counter() - start, records


def _best_total(records, traced: bool) -> float:
    """Sum over the jobs of each job's fastest traced (or untraced) run."""
    best = {}
    for _, index, wall, _, _, _, kind, _, _ in records:
        if kind == traced:
            best[index] = min(best.get(index, wall), wall)
    return sum(best.values())


def peak_rss_mib() -> float:
    """Peak resident set size of this process, in MiB.

    Linux carries ``ru_maxrss`` across exec, so in a spawned worker it would
    also count the parent's peak (the input generator's, say); ``VmHWM``
    starts afresh at exec and is used where /proc has it.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def main(spec_path: str, result_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    from sizematch import cli

    trace = bool(spec["trace"])
    if trace:
        sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
        from spans import Tracer
    jobs, out_dir, seconds = spec["jobs"], spec["out_dir"], spec["seconds"]
    records, pass_walls, tracers = [], [], []
    start = time.perf_counter()
    pass_no = 0
    while pass_no < MIN_PASSES * (1 + trace) or time.perf_counter() - start < seconds:
        tracer = Tracer() if trace and pass_no % 2 else None
        if tracer is None:
            wall, done = run_pass(cli, jobs, out_dir, pass_no)
        else:
            with tracer.installed():
                wall, done = run_pass(cli, jobs, out_dir, pass_no, tracer)
            tracers.append((wall, pass_no, tracer))
        pass_walls.append([pass_no, wall, tracer is not None])
        records.extend(done)
        pass_no += 1
    result = {"records": records, "pass_walls": pass_walls}
    if trace:
        # per-layer figures come from the quickest traced pass, the one least
        # disturbed by other load; counts are the same in every pass
        _, best_pass, tracer = min(tracers, key=lambda item: item[0])
        tracer.counts["cli.output_bytes"] = sum(
            os.path.getsize(os.path.join(out_dir, f"p{best_pass}", f"{index}.out"))
            for index in range(len(jobs))
            if os.path.exists(os.path.join(out_dir, f"p{best_pass}", f"{index}.out"))
        )
        layers = tracer.layer_metrics()
        layers["trace.overhead_frac"] = _best_total(records, True) / _best_total(records, False) - 1
        result.update(
            layers=layers,
            layers_pass=best_pass,
            spans_consistent=all(t.consistent() for _, _, t in tracers),
            spans=[span for _, _, t in tracers for span in t.spans],
        )
    result["peak_rss_mib"] = peak_rss_mib()
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
