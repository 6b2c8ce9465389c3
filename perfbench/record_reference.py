#!/usr/bin/env python3
"""Record the reference outputs that run.py compares with at the default seed.

    python3 perfbench/record_reference.py

Runs every op of every workload once through the CLI at the default seed
and stores each data file gzip-compressed under reference/<workload>/<op>/,
with each op's outcome in reference/<workload>/outcomes.json.  Record only
from a commit whose outputs are trusted; later commits are checked
against it.
"""

from __future__ import annotations

import gzip
import json
import os
import shutil
import sys

import procs
import workloads
from checks import REFERENCE_DIR


def main() -> int:
    seed = workloads.DEFAULT_SEED
    scratch = os.path.join(procs.HERE, "_work", "record-reference")
    for workload in workloads.WORKLOADS:
        shutil.rmtree(scratch, ignore_errors=True)
        os.makedirs(scratch)
        target = os.path.join(REFERENCE_DIR, workload)
        shutil.rmtree(target, ignore_errors=True)
        outcomes = {}
        ops = workloads.generate(workload, seed)
        configs = workloads.write_configs(ops, scratch)
        for op in ops:
            res = procs.run_child([sys.executable, "-m", "aqwalk", "run", configs[op["name"]], "-o", scratch,
                                   "--workers", str(procs.worker_count())],
                                  os.path.join(scratch, op["name"]))
            status = procs.cli_status(res["returncode"], res["stderr"])
            if status not in ("ok", "nonconverged"):
                raise SystemExit(f"{workload}/{op['name']}: {status}")
            outcomes[op["name"]] = status
            if status == "ok":
                os.makedirs(os.path.join(target, op["name"]))
                for filename in op["files"]:
                    with open(os.path.join(scratch, op["name"], filename), "rb") as src:
                        data = src.read()
                    # mtime=0 keeps the compressed bytes reproducible
                    with open(os.path.join(target, op["name"], filename + ".gz"), "wb") as dst:
                        dst.write(gzip.compress(data, compresslevel=9, mtime=0))
            print(f"{workload}/{op['name']}: {status}")
        with open(os.path.join(target, "outcomes.json"), "w") as handle:
            json.dump({"seed": seed, "outcomes": outcomes}, handle, indent=1)
            handle.write("\n")
    shutil.rmtree(scratch, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
