"""Regenerate ``reference.json``: each campaign's result sha256 per seed.

The reference pins campaign output: a change that alters any byte of a
result JSON fails the benchmark's output check.  Regenerate only in a
change whose purpose is to alter campaign output, and say so in it::

    python3 campaignbench/record_reference.py --first 0 --last 199

Each digest comes from a fresh interpreter, exactly as in a timed
repetition.  The sharded chaos workload is checked against the serial
one's digests, so it has no table of its own.  Digests of seeds outside
``--first``..``--last`` are kept.
"""

from __future__ import annotations

import argparse
import json
import shutil
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from rep import usable_cores  # noqa: E402
from run import CASES, HERE, OUT, REFERENCE_KEY, spawn  # noqa: E402

RECORDED = ("chaos-serial", "demand-sweep", "packet-replay")


def digest(workload: str, seed: int) -> str:
    """The result digest of one fresh-interpreter campaign."""
    rep_dir = OUT / "reference" / f"{workload}-{seed}"
    shutil.rmtree(rep_dir, ignore_errors=True)
    outcome = spawn(workload, seed, 0, rep_dir, None, 600.0)
    shutil.rmtree(rep_dir, ignore_errors=True)
    if "record" not in outcome:
        raise SystemExit(f"{workload} seed {seed} failed:\n{outcome['log']}")
    return outcome["record"]["digests"][0]


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--first", type=int, default=0)
    parser.add_argument("--last", type=int, default=CASES - 1)
    args = parser.parse_args()
    seeds = range(args.first, args.last + 1)
    jobs = [(workload, seed) for workload in RECORDED for seed in seeds]
    with ThreadPoolExecutor(max_workers=usable_cores()) as pool:
        digests = list(pool.map(lambda job: digest(*job), jobs))
    path = HERE / "reference.json"
    table: dict[str, dict[str, str]] = json.loads(path.read_text()) if path.exists() else {}
    for (workload, seed), value in zip(jobs, digests):
        table.setdefault(REFERENCE_KEY[workload], {})[str(seed)] = value
    path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    print(f"recorded {len(jobs)} digests for seeds {args.first}-{args.last}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
