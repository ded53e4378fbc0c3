#!/usr/bin/env python3
"""Record the expected answers of the jobs that have no independent one.

    python3 bench/record.py

Runs every job whose expected digest is not built from an independent
answer (the fixed jobs of each workload) once, checks the independent
facts it does have, and writes bench/expected_seed.json.  Run it only on
the commit whose outputs are the contract; the benchmark compares every
later run against this file.
"""
from __future__ import annotations

import json
import shutil
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import jobs as joblists                     # noqa: E402
from run import WORK, finish, spawn         # noqa: E402


def main() -> int:
    recorded = {}
    work = WORK / "record"
    try:
        for workload in joblists.WORKLOADS:
            jobs = [j for j in joblists.build(workload, 0, work / workload)
                    if j["expect"] is None]
            jobs_file = work / f"{workload}.json"
            out_file = work / f"{workload}-out.json"
            jobs_file.write_text(json.dumps(jobs), encoding="utf-8")
            proc, _ = spawn(["record", str(jobs_file), str(out_file)])
            finish(proc)
            rows = json.loads(out_file.read_text(encoding="utf-8"))["jobs"]
            for job, row in zip(jobs, rows):
                if row["failed"]:
                    print(f"{job['id']}: failed: {row['error']}",
                          file=sys.stderr)
                    return 1
                digest = row["digest"]
                for key, value in job["facts"].items():
                    if digest.get(key) != value:
                        print(f"{job['id']}: {key} is {digest.get(key)!r}, "
                              f"expected {value!r}", file=sys.stderr)
                        return 1
                recorded[job["id"]] = digest
                print(f"{row['time_s']:8.3f} s  {job['id']}")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    joblists.EXPECTED_FILE.write_text(
        json.dumps(recorded, indent=1, sort_keys=True) + "\n",
        encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
