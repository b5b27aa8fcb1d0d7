#!/usr/bin/env python3
"""Record the digests of the exact outputs into digests.json.

Run from the root of a source checkout, only when an output is meant to
change:

    python3 perfbench/record_digests.py

Every exact job of every workload runs once; its other checks (the
independent oracles) must pass before its digest is written.
"""

from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

import run
import workloads


def main() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    workdir = run.ROOT / ".bench_work" / "record-digests"
    digests, bad = {}, []
    try:
        workdir.mkdir(parents=True, exist_ok=True)
        cli = run.fresh_import()
        for name in sorted(workloads.WORKLOADS):
            jobs = [j for j in workloads.build(name, run.ROOT, workdir, 0, {})
                    if j.exact]
            res = run.run_pass(cli, jobs, workdir)
            for job, (rc, err), out in zip(jobs, res["results"], res["outs"]):
                if rc != 0:
                    bad.append(f"{job.key}: exit code {rc} {err or ''}")
                    continue
                with open(out) as fh:
                    payload = json.load(fh)
                errors = [e for check in job.checks[1:] for e in check(payload)]
                if errors:
                    bad.append(f"{job.key}: {errors}")
                digests[job.key] = workloads.digest(payload)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    if bad:
        print("\n".join(bad), file=sys.stderr)
        return 1
    with open(workloads.DIGESTS, "w") as fh:
        json.dump(digests, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"recorded {len(digests)} digests in {workloads.DIGESTS.name}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
