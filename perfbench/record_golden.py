"""Record the golden rows.csv files the corpus workloads are checked against.

    PYTHONPATH=src python3 perfbench/record_golden.py

Run it only on code whose rows are known good: the files it writes define
what the benchmark's correctness gate accepts.  Each file is the gzipped
rows.csv of one (workload, corpus seed) pass at the default config, for
every seed in ``GOLDEN_SEEDS``.
"""
from __future__ import annotations

import gzip
import os
import shutil
import sys

from workloads import GOLDEN_DIR, GOLDEN_SEEDS, WORKLOADS, golden_path

CORPUS_WORKLOADS = ("corpus-q", "corpus-caloric")
WORK_DIR = GOLDEN_DIR.parent.parent / ".perfbench-out" / "golden-record"


def main() -> int:
    os.environ["QSQG_THREADS"] = "1"
    GOLDEN_DIR.mkdir(exist_ok=True)
    for seed in GOLDEN_SEEDS:
        for name in CORPUS_WORKLOADS:
            w = WORKLOADS[name]
            outcome = w.run(w.build(seed), WORK_DIR)
            if not outcome.report.passed:
                raise SystemExit(f"{name} seed {seed}: {outcome.report.hard_failures}")
            rows = (outcome.artifacts / "rows.csv").read_bytes()
            golden_path(name, seed).write_bytes(gzip.compress(rows, mtime=0))
            print(f"{name} seed {seed}: {len(rows)} bytes", flush=True)
    shutil.rmtree(WORK_DIR, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
