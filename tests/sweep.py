"""Seed sweep of the acceptance battery: acceptance.run_all, in-process, over
seeds 0-199.

For each criterion it prints the pass count, the smallest `slack` and the
seed where it occurs, and a sha256 of its per-seed records without
`runtime_s`. Two versions of the code whose digests agree produced the same
records on every seed. Any failure is listed with its seeds and makes the
exit status 1; criterion 10 states a family-wise false-alarm rate of
acceptance.FAMILY_RATE per battery, so it expects about 2e-4 failures here.

    PYTHONPATH=src python tests/sweep.py

pytest does not collect this file: its name does not start with test_.
"""
from __future__ import annotations

import hashlib
import json
import math
import sys
import time

from gamebound import acceptance

SEEDS = range(200)


def main() -> int:
    started = time.perf_counter()
    rows: dict[str, dict] = {}
    for seed in SEEDS:
        for record in acceptance.run_all(seed=seed).checks:
            row = rows.setdefault(record.name, {"passed": 0, "failed": [], "slack": math.inf,
                                                "at": None, "sha": hashlib.sha256()})
            fields = record.to_dict()
            del fields["runtime_s"]
            row["sha"].update(json.dumps(fields, sort_keys=True).encode() + b"\n")
            if record.passed:
                row["passed"] += 1
            else:
                row["failed"].append(seed)
            if record.slack is not None and record.slack < row["slack"]:
                row["slack"], row["at"] = record.slack, seed
    print(f"seeds {SEEDS.start}-{SEEDS.stop - 1}, {time.perf_counter() - started:.1f} s")
    print(f"{'criterion':36s} {'passed':>8s} {'min slack':>12s} {'seed':>5s}  sha256 of records")
    for name, row in rows.items():
        slack = "-" if row["at"] is None else f"{row['slack']:.4g}"
        at = "-" if row["at"] is None else str(row["at"])
        print(f"{name:36s} {row['passed']:>4d}/{len(SEEDS):<3d} {slack:>12s} {at:>5s}  "
              f"{row['sha'].hexdigest()}")
    failed = {name: row["failed"] for name, row in rows.items() if row["failed"]}
    for name, seeds in failed.items():
        print(f"FAILED {name} on seeds {seeds}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
