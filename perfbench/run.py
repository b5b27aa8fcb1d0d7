#!/usr/bin/env python3
"""Closed-loop benchmark of the orbimirror CLI, with one client.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload orbifold-discs --seed 1 \
        --seconds 40 --trace 0

One client calls ``orbimirror.cli.main(argv)`` in-process for each job
of the workload (see workloads.py), waits for it, and checks its output
after the pass. Passes over the job list repeat for ``--seconds``: a
pass starts only if the previous one, repeated, would end in time, and
at least one pass runs. ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` alternates untraced and traced passes and reports the
per-layer metrics (see tracer.py), writing the spans to
``.bench_work/spans-<workload>.jsonl``. The metric names and units are
those of BENCHMARK.json. The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import itertools
import json
import os
import resource
import shutil
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter, process_time

import workloads
from tracer import Tracer, median_metrics, summarize

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS_PER_PASS = 3


def fresh_import():
    """Import orbimirror from scratch, as a new process would."""
    for name in [k for k in sys.modules
                 if k == "orbimirror" or k.startswith("orbimirror.")]:
        del sys.modules[name]
    cli = importlib.import_module("orbimirror.cli")
    if Path(cli.__file__).resolve().parent != (ROOT / "src" / "orbimirror").resolve():
        raise SystemExit(f"error: imported orbimirror from {cli.__file__}, "
                         f"not from {ROOT / 'src'}")
    return cli


def setup(args, workdir: Path, digests: dict):
    """Import the program and generate and write the inputs; timed."""
    t0 = perf_counter()
    cli = fresh_import()
    jobs = workloads.build(args.workload, ROOT, workdir, args.seed, digests)
    return cli, jobs, perf_counter() - t0


def run_pass(cli, jobs, outdir: Path, tracer: Tracer | None = None,
             label: str = "") -> dict:
    """One pass over the job list; nothing but the jobs is timed."""
    outs = [outdir / f"{i}.json" for i in range(len(jobs))]
    for out in outs:
        out.unlink(missing_ok=True)
    times, results = [], []
    c0, t0 = process_time(), perf_counter()
    for i, (job, out) in enumerate(zip(jobs, outs)):
        if tracer is not None:
            tracer.job = f"{label}/{i}"
        gc.collect()
        j0 = perf_counter()
        try:
            rc, err = cli.main(list(job.argv) + ["--format", "json",
                                                 "--out", str(out)]), None
        except Exception:  # a job that raises counts as failed
            rc, err = None, traceback.format_exc()
        times.append(perf_counter() - j0)
        results.append((rc, err))
    return {"wall": perf_counter() - t0, "cpu": process_time() - c0,
            "times": times, "results": results, "outs": outs}


def _series_orders(payload):
    """Truncation orders of the series objects in a JSON output."""
    if isinstance(payload, dict):
        if {"vars", "order", "terms"} <= payload.keys():
            yield Fraction(payload["order"])
        for v in payload.values():
            yield from _series_orders(v)
    elif isinstance(payload, list):
        for v in payload:
            yield from _series_orders(v)


def check_pass(jobs, res: dict, reported: set) -> tuple[int, list]:
    """Failed job count and the order ratios of the output series."""
    failed, ratios = 0, []
    for job, (rc, err), out in zip(jobs, res["results"], res["outs"]):
        problems = []
        if err is not None:
            problems.append(err)
        elif rc != 0:
            problems.append(f"exit code {rc}")
        else:
            try:
                with open(out) as fh:
                    payload = json.load(fh)
                for check in job.checks:
                    problems += check(payload)
                if job.order:
                    ratios += [o / job.order for o in _series_orders(payload)]
            except (OSError, ValueError, KeyError, TypeError) as e:
                problems.append(f"unreadable output: {e!r}")
        if problems:
            failed += 1
            if job.key not in reported:
                reported.add(job.key)
                print(f"FAILED {job.key}: " + "; ".join(problems)[:2000],
                      file=sys.stderr)
    return failed, ratios


def _q(values, k: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=10, method="inclusive")[k - 1]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "orbimirror" / "__init__.py").is_file() \
            or not (ROOT / "fans").is_dir() \
            or not (ROOT / "BENCHMARK.json").is_file():
        print(f"error: {ROOT} is not an orbimirror source checkout "
              "(needs src/orbimirror, fans/ and BENCHMARK.json)", file=sys.stderr)
        return 2
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(src))
    digests = workloads.load_digests()

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    try:
        (workdir / "out").mkdir(parents=True, exist_ok=True)
        run = traced_run if args.trace else untraced_run
        result = run(args, lambda: setup(args, workdir, digests),
                     workdir / "out", spec)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))
    return 0


def untraced_run(args, set_up, outdir: Path, spec) -> dict:
    """Set up SETUPS_PER_PASS times before every pass, so that the set-up
    times sample the same stretch of host noise as the passes."""
    reported: set = set()
    setups, passes, failed, ratios = [], [], 0, []
    deadline = None
    while True:
        for _ in range(SETUPS_PER_PASS):
            cli, jobs, dt = set_up()
            setups.append(dt)
        if deadline is None:
            deadline = perf_counter() + args.seconds
        # the probe records the achieved order of each W^LF series
        with Tracer(only=("mirror.lf_superpotential",)) as probe:
            res = run_pass(cli, jobs, outdir, probe, str(len(passes)))
        f, r = check_pass(jobs, res, reported)
        passes.append(res)
        failed += f
        ratios += r + [s[6] for s in probe.spans if s[6] is not None]
        if perf_counter() + SETUPS_PER_PASS * dt + res["wall"] > deadline:
            break
    attempted = len(jobs) * len(passes)
    # each job's median over the passes (the job order is the same in
    # every pass); the percentiles are taken over the job list
    job_s = [statistics.median(p["times"][i] for p in passes)
             for i in range(len(jobs))]
    measured = {
        "setup_s": statistics.median(setups),
        "pass_s": statistics.median(p["wall"] for p in passes),
        "job_s.p50": _q(job_s, 5),
        "job_s.p90": _q(job_s, 9),
        "cpu_s": statistics.median(p["cpu"] for p in passes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "correct_frac": (attempted - failed) / attempted,
        # 1 when the workload outputs no truncated series
        "order_ratio.min": float(min(ratios, default=1)),
    }
    walls = ", ".join(f"{p['wall']:.3f}" for p in passes)
    print(f"{args.workload}: {len(passes)} passes of {len(jobs)} jobs "
          f"({walls} s); job_s.p50 and job_s.p90 over the medians of "
          f"n={len(jobs)} jobs, {attempted} job executions")
    return _result(spec["end_to_end"], measured, attempted, failed)


def traced_run(args, set_up, outdir: Path, spec) -> dict:
    """Untraced and traced passes over one set-up, in the order
    U T T U U T T U ..., so that each traced pass has an untraced
    neighbour; the overhead is the median over these pairs."""
    cli, jobs, _ = set_up()
    reported: set = set()
    plain, traced, summaries, spans = [], [], [], []
    failed = 0
    deadline = perf_counter() + args.seconds
    for i in itertools.count():
        if i % 4 in (0, 3):
            res = run_pass(cli, jobs, outdir)
            plain.append(res["wall"])
        else:
            with Tracer() as tracer:
                res = run_pass(cli, jobs, outdir, tracer, str(i))
            traced.append(res["wall"])
            summaries.append(summarize(tracer.spans))
            spans += tracer.spans
        failed += check_pass(jobs, res, reported)[0]
        if len(traced) == len(plain) and perf_counter() + res["wall"] > deadline:
            break
    counts = [{k: v for k, v in s.items() if not k.endswith("self_s")}
              for s in summaries]
    if any(c != counts[0] for c in counts):
        print("warning: work counts differ between traced passes", file=sys.stderr)
    measured = {m["name"]: 0 for m in spec["per_layer"]}
    measured.update(median_metrics(summaries))
    measured["trace.overhead_frac"] = statistics.median(
        (t - u) / u for u, t in zip(plain, traced))
    path = ROOT / ".bench_work" / f"spans-{args.workload}.jsonl"
    with open(path, "w") as fh:
        for sid, name, t0, t1, parent, job, _size in spans:
            fh.write(json.dumps([sid, name, t0, t1, parent, job]) + "\n")
    attempted = len(jobs) * (len(plain) + len(traced))
    print(f"{args.workload}: {len(plain)} untraced and {len(traced)} traced "
          f"passes; spans in {path.relative_to(ROOT)}")
    return _result(spec["per_layer"], measured, attempted, failed)


def _result(declared, measured: dict, attempted: int, failed: int) -> dict:
    metrics = {}
    for m in declared:
        value = float(measured[m["name"]])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print(f"{m['name']} = {value} {m['unit']}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
