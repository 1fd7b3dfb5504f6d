"""sizematch benchmark: four CLI workloads, timed end to end, traced per layer.

Run from the repository root:

    python3 benchmarks/run.py                      # every workload, seed 0
    python3 benchmarks/run.py --workload bound-chain --seed 3 --seconds 20 --trace 0

Each run generates the workload's input files from ``--seed`` under
``.bench_work/``, measures ``setup_s`` over fresh interpreters, runs the jobs
in a worker process (closed loop, one client) for ``--seconds``, checks
every output outside the timed region, and prints one JSON object as its
last line.  ``--trace 0`` reports the end-to-end metrics; ``--trace 1``
reports the per-layer metrics of a traced run (see README.md).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_work")
EXPECTED = os.path.join(HERE, "expected", "seed0.json")
DEFAULT_SEED = 0
WORKER_TIMEOUT_S = 150
SETUP_SPAWNS = 9
# About the time of worker.reference_work on the machine the benchmark was
# tuned on (Intel Xeon, 2 vCPUs, Python 3.11).  Timings are reported at that
# machine speed: every job run is scaled by REFERENCE_S over the reference
# time taken right before it.  Other tenants of a shared machine slow
# everything down by up to 2x, in bursts and for minutes at a time; the
# scale cancels that, and the raw figures stay in the result file.
REFERENCE_S = 0.006

END_TO_END = {
    "latency_p50_s": "s",
    "latency_tail_s": "s",
    "jobs_per_s": "1/s",
    "cpu_per_job_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
}

# Runs in a fresh interpreter: what a CLI user pays before the first job.
SETUP_PROBE = """
import sys, time
start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import sizematch, sizematch.cli
for path in sys.argv[2:]:
    with open(path, "rb") as fh:
        fh.read()
print(time.perf_counter() - start)
"""


def per_job(records, column, reference_column=None):
    """Per job of the pass, the median over its runs of ``column``.

    With ``reference_column``, every run is first scaled by REFERENCE_S over
    the reference time taken right before it.  A job runs once per pass and
    so several times per run; the median drops the runs that a burst of
    other load happened to hit.
    """
    runs = {}
    for record in records:
        scale = REFERENCE_S / record[reference_column] if reference_column else 1.0
        runs.setdefault(record[1], []).append(record[column] * scale)
    return [statistics.median(runs[index]) for index in sorted(runs)]


def tail_percentile(samples):
    """(p, value): the highest whole percentile, p50 or above, with ten samples above it.

    Nearest-rank percentiles.  With fewer than twenty samples no percentile
    from p50 up qualifies, and the maximum is reported as p100.
    """
    ordered = sorted(samples)
    n = len(ordered)
    for p in range(99, 49, -1):
        rank = math.ceil(p * n / 100)
        if n - rank >= 10:
            return p, ordered[rank - 1]
    return 100, ordered[-1]


def measure_setup(files):
    """Median seconds to import sizematch and sizematch.cli and read the inputs."""
    command = [sys.executable, "-c", SETUP_PROBE, SRC, *files]
    times = []
    for spawn in range(SETUP_SPAWNS + 1):
        done = subprocess.run(command, capture_output=True, text=True, timeout=60, check=True)
        if spawn:  # the first spawn only warms the byte-code and file caches
            times.append(float(done.stdout))
    return statistics.median(times)


def _git_commit():
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as fh:
            ref = fh.read().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = os.path.join(ROOT, ".git", name)
        if os.path.exists(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.strip().endswith(" " + name):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def provenance(seed):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": sys.version.split()[0],
        "cpu_model": cpu,
        "nproc": os.cpu_count(),
        "git_commit": _git_commit(),
        "seed": seed,
    }


def check_outputs(jobs, records, out_dir, name, seed):
    """Mark every record that failed; return (failed record count, reasons)."""
    import check

    expected = None
    if seed == DEFAULT_SEED:
        with open(EXPECTED, encoding="utf-8") as fh:
            expected = json.load(fh)[name]
    reasons = {}
    first_bytes = {}
    bad_jobs = set()
    path = lambda p, i: os.path.join(out_dir, f"p{p}", f"{i}.out")
    outputs0 = {job["key"]: path(0, i) for i, job in enumerate(jobs)}
    for index, job in enumerate(jobs):
        try:
            with open(path(0, index), "rb") as fh:
                first_bytes[index] = fh.read()
            data = json.loads(first_bytes[index])
            problem = check.check(job, data, outputs0)
            if problem is None and expected is not None:
                if job["key"] not in expected:
                    problem = "no expected answer for this job"
                elif not check.same_answer(check.answer(job["kind"], data), expected[job["key"]]):
                    problem = "answer differs from the expected-answer file"
        except (OSError, ValueError, KeyError, TypeError) as exc:
            problem = f"unreadable output: {type(exc).__name__}: {exc}"
        if problem is not None:
            bad_jobs.add(index)
            reasons[job["key"]] = problem
    failed = 0
    for pass_no, index, _, _, code, error, *_ in records:
        bad = code != 0 or index in bad_jobs
        if code != 0:
            reasons.setdefault(jobs[index]["key"], error or f"exit code {code}")
        if not bad and pass_no:
            with open(path(pass_no, index), "rb") as fh:
                if fh.read() != first_bytes[index]:
                    bad = True
                    reasons.setdefault(jobs[index]["key"], f"pass {pass_no} output differs from pass 0")
        failed += bad
    return failed, reasons


def run_workload(name, seed, seconds, trace):
    import gen

    os.makedirs(WORK, exist_ok=True)
    work = os.path.join(WORK, f"{name}-seed{seed}-trace{trace}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    try:
        jobs = gen.write_workload(name, seed, os.path.join(work, "in"))
        setup_s = measure_setup(sorted({f for job in jobs for f in job["inputs"]}))
        spec_path = os.path.join(work, "spec.json")
        result_path = os.path.join(work, "worker.json")
        with open(spec_path, "w", encoding="utf-8") as fh:
            json.dump(
                {"src": SRC, "jobs": jobs, "out_dir": os.path.join(work, "out"),
                 "seconds": seconds, "trace": trace},
                fh,
            )
        subprocess.run(
            [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
            cwd=ROOT, timeout=WORKER_TIMEOUT_S, check=True,
        )
        with open(result_path, encoding="utf-8") as fh:
            worker = json.load(fh)
        records = worker["records"]
        failed, reasons = check_outputs(jobs, records, os.path.join(work, "out"), name, seed)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    untraced = [r for r in records if not r[6]]
    job_wall = per_job(untraced, 2, 7)
    job_cpu = per_job(untraced, 3, 8)
    raw_wall = per_job(untraced, 2)
    reference_s = statistics.median(r[7] for r in untraced)
    tail_p, tail_s = tail_percentile(job_wall)
    summary = {
        "workload": name,
        "generator": gen.WORKLOADS[name],
        "provenance": provenance(seed),
        "seconds": seconds,
        "trace": trace,
        "jobs_per_pass": len(jobs),
        "passes": worker["pass_walls"],
        "samples": len(job_wall),
        "tail_percentile": tail_p,
        "attempted": len(records),
        "failed": failed,
        "failed_frac": failed / len(records),
        "failures": reasons,
    }
    correct = failed == 0
    if trace:
        correct = correct and worker["spans_consistent"]
        summary["spans_consistent"] = worker["spans_consistent"]
        summary["layers_pass"] = worker["layers_pass"]
        metrics = worker["layers"]
        units = {m["name"]: m["unit"] for m in _benchmark()["per_layer"]}
        summary["metrics"] = {key: {"value": metrics[key], "unit": units[key]} for key in units}
        _write(f"{name}-seed{seed}-spans.json", worker["spans"])
    else:
        values = {
            "latency_p50_s": statistics.median(job_wall),
            "latency_tail_s": tail_s,
            "jobs_per_s": len(job_wall) / sum(job_wall),
            "cpu_per_job_s": statistics.fmean(job_cpu),
            "setup_s": setup_s * REFERENCE_S / reference_s,
            "peak_rss_mib": worker["peak_rss_mib"],
        }
        summary["raw_metrics"] = {
            "latency_p50_s": statistics.median(raw_wall),
            "latency_tail_s": tail_percentile(raw_wall)[1],
            "jobs_per_s": len(raw_wall) / sum(raw_wall),
            "setup_s": setup_s,
        }
        summary["reference_s"] = reference_s
        summary["metrics"] = {k: {"value": v, "unit": END_TO_END[k]} for k, v in values.items()}
    summary["correct"] = correct
    _write(f"{name}-seed{seed}-trace{trace}.json", summary)
    return summary


def _benchmark():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _write(filename, data):
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    with open(os.path.join(WORK, "results", filename), "w", encoding="utf-8") as fh:
        json.dump(data, fh, indent=1)


def _report(summary):
    print(f"== {summary['workload']}  seed {summary['provenance']['seed']}  trace {summary['trace']}")
    print(
        f"   jobs per pass {summary['jobs_per_pass']}  passes {len(summary['passes'])}  "
        f"samples {summary['samples']} (median run of each job)  "
        f"tail percentile p{summary['tail_percentile']}"
    )
    print(
        f"   attempted {summary['attempted']}  failed {summary['failed']}  "
        f"failed_frac {summary['failed_frac']:.4f} ratio"
    )
    for key, reason in summary["failures"].items():
        print(f"   FAILED {key}: {reason}")
    if "raw_metrics" in summary:
        print(f"   reference work took {summary['reference_s']:.6g} s here against {REFERENCE_S} s nominal; unscaled: "
              + ", ".join(f"{k} {v:.6g}" for k, v in summary["raw_metrics"].items()))
    for key, metric in summary["metrics"].items():
        print(f"   {key:<52} {metric['value']:.6g} {metric['unit']}")


def write_expected():
    """Record the default seed's answers of every workload, after checking them."""
    import check
    import gen
    import worker
    from sizematch import cli

    answers = {}
    for name in gen.WORKLOADS:
        work = os.path.join(WORK, f"expected-{name}")
        shutil.rmtree(work, ignore_errors=True)
        jobs = gen.write_workload(name, DEFAULT_SEED, os.path.join(work, "in"))
        _, records = worker.run_pass(cli, jobs, work, 0)
        outputs = {job["key"]: os.path.join(work, "p0", f"{i}.out") for i, job in enumerate(jobs)}
        answers[name] = {}
        for job, record in zip(jobs, records):
            if record[4] != 0:
                raise SystemExit(f"{name} {job['key']}: {record[5] or f'exit code {record[4]}'}")
            with open(outputs[job["key"]], encoding="utf-8") as fh:
                data = json.load(fh)
            problem = check.check(job, data, outputs)
            if problem:
                raise SystemExit(f"{name} {job['key']}: {problem}")
            answers[name][job["key"]] = check.answer(job["kind"], data)
        shutil.rmtree(work, ignore_errors=True)
    with open(EXPECTED, "w", encoding="utf-8") as fh:
        json.dump(answers, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", help="workload name, or 'all'")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None,
                        help="seconds to measure per run (default: run_seconds of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--write-expected", action="store_true",
                        help="regenerate expected/seed0.json from the current program")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "sizematch", "cli.py")):
        print(f"error: no sizematch sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    import gen

    if args.write_expected:
        write_expected()
        return 0
    seconds = args.seconds if args.seconds is not None else _benchmark()["run_seconds"]
    names = list(gen.WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in gen.WORKLOADS for name in names):
        print(f"error: unknown workload {args.workload!r}; choose from {list(gen.WORKLOADS)}",
              file=sys.stderr)
        return 2

    summaries = []
    for name in names:
        summary = run_workload(name, args.seed, seconds, args.trace)
        _report(summary)
        summaries.append(summary)
    print(json.dumps({"provenance": provenance(args.seed),
                      "workloads": {s["workload"]: s["generator"] for s in summaries}}))
    if len(summaries) == 1:
        metrics = summaries[0]["metrics"]
    else:
        metrics = {f"{s['workload']}.{k}": v for s in summaries for k, v in s["metrics"].items()}
    print(json.dumps({
        "correct": all(s["correct"] for s in summaries),
        "attempted": sum(s["attempted"] for s in summaries),
        "failed": sum(s["failed"] for s in summaries),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
