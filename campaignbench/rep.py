"""One benchmark repetition: a fresh interpreter runs one whole campaign.

``run.py`` starts this script once per repetition, the way a CLI user
starts ``python -m repro``; it can also be run by hand from the
repository root::

    PYTHONPATH=src python3 campaignbench/rep.py --workload chaos-serial \
        --seed 7 --out .campaignbench/manual

It imports the workload's modules, optionally wraps the layer seams
(``--trace 1``), runs the campaign through its public entry point,
writes the result with ``repro.io.dump_json``, hashes the file and
compares the hash with ``--expect``.  Everything it measured goes to
``<out>/rep.json``; the interpreter's own wall, CPU and peak RSS are
taken by the parent.
"""

from __future__ import annotations

import time

#: Offset from perf_counter to the system-wide monotonic clock the
#: parent stamps the spawn with.
CLOCK_OFFSET = time.monotonic() - time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent))

from seams import Seam, Tracer, install  # noqa: E402

WORKLOADS = ("chaos-serial", "chaos-sharded", "demand-sweep", "packet-replay")

#: The method whose calls are the workload's units, timed in every run.
UNIT_SEAMS = {
    "chaos-serial": "repro.control.controller:OverlayController.run",
    # Shard latencies come from the manifest; this seam only stamps
    # when the first shard is handed out and how long each pass ran.
    "chaos-sharded": "repro.exec.runner:ExecRunner.run",
    "demand-sweep": "repro.demand.engine:DemandEngine.epoch_metrics",
    "packet-replay": "repro.transport.packetsim:PacketLevelTcp.run",
}

#: The packet replay always runs this world.  Its cost is set by the
#: chosen pair's bandwidth-delay product, which swings 6.5x across
#: world seeds 1-12 (2.0-13.0 s), so a seed-driven world would swamp
#: any engine change; the seed permutes the scenario order instead,
#: which re-keys every flow's random stream.
PACKET_WORLD_SEED = 7


def usable_cores() -> int:
    """Cores this process may run on, never more than ``os.cpu_count()``."""
    count = os.cpu_count() or 1
    if hasattr(os, "sched_getaffinity"):
        count = min(count, len(os.sched_getaffinity(0)))
    return count


def packet_scenarios(seed: int, names: list[str]) -> tuple[str, ...]:
    """Every scenario, in the order ``seed`` picks."""
    order = list(names)
    random.Random(seed).shuffle(order)
    return tuple(order)


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def _import_workload(workload: str) -> dict:
    """Import what the workload calls; the caller times this."""
    from repro import io
    from repro.faults.scenarios import SCENARIOS

    names = list(SCENARIOS)
    if workload == "demand-sweep":
        from repro.experiments import demand_exp

        return {"io": io, "demand": demand_exp}
    from repro.experiments import chaos_exp

    modules = {"io": io, "chaos": chaos_exp, "scenarios": names}
    if workload == "chaos-sharded":
        from repro.exec import runner

        modules["exec"] = runner
    return modules


def _manifest_numbers(manifests: list) -> dict:
    """Exec-layer numbers from the run manifests' shard records."""
    records = [record for manifest in manifests for record in manifest.records]
    executed = [r for r in records if getattr(r, "status", None) == "ok"]
    return {
        "shards": len(records),
        "executed": len(executed),
        "cache_hits": sum(1 for r in records if getattr(r, "status", None) == "cached"),
        "errors": sum(1 for r in records if getattr(r, "status", None) == "error"),
        "retries": sum(max(getattr(r, "attempts", 1) - 1, 0) for r in executed),
        "shard_busy_s": sum(getattr(r, "duration_s", 0.0) for r in executed),
        "fresh_shard_ms": [
            1000.0 * getattr(r, "duration_s", 0.0) for r in manifests[0].records
            if getattr(r, "status", None) == "ok"
        ],
    }


def run_workload(workload: str, seed: int, modules: dict, out: Path) -> dict:
    """Run the campaign once; returns result paths plus exec numbers."""
    dump_json = modules["io"].dump_json
    if workload == "demand-sweep":
        demand = modules["demand"]
        result = demand.run_demand(demand.DemandConfig(seed=seed))
        return {"results": [dump_json(result, out / "result.json")]}
    chaos = modules["chaos"]
    if workload == "packet-replay":
        config = chaos.PacketReplayConfig(
            seed=PACKET_WORLD_SEED,
            scenarios=packet_scenarios(seed, modules["scenarios"]),
        )
        result = chaos.run_chaos_packet(config)
        return {"results": [dump_json(result, out / "result.json")]}
    config = chaos.ChaosConfig(seed=seed, scenarios=tuple(modules["scenarios"]))
    if workload == "chaos-serial":
        return {"results": [dump_json(chaos.run_chaos(config), out / "result.json")]}
    # chaos-sharded: a fresh cache, then a resume pass over it.
    runner_module = modules["exec"]
    cache_dir = out / "cache"
    workers = usable_cores()
    fresh = runner_module.ExecRunner(
        runner_module.ExecConfig(workers=workers, cache_dir=cache_dir)
    )
    results = [dump_json(chaos.run_chaos_exec(config, fresh), out / "result.json")]
    resume_started = time.perf_counter()
    resumed = runner_module.ExecRunner(
        runner_module.ExecConfig(workers=workers, cache_dir=cache_dir, resume=True)
    )
    results.append(
        dump_json(chaos.run_chaos_exec(config, resumed), out / "result-resumed.json")
    )
    numbers = _manifest_numbers([fresh.manifest, resumed.manifest])
    numbers["resume_s"] = time.perf_counter() - resume_started
    numbers["workers"] = workers
    numbers["backend"] = getattr(fresh.config, "backend", "absent")
    return {"results": results, "exec": numbers}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for results")
    parser.add_argument(
        "--expect", default=None, help="reference sha256 of the result JSON"
    )
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)

    import_started = time.perf_counter()
    modules = _import_workload(args.workload)
    import_s = time.perf_counter() - import_started

    tracer = Tracer() if args.trace else None
    absent = install(tracer) if tracer is not None else []
    units: list[tuple[float, float]] = []
    unit_seam = Seam(
        "unit", "unit", UNIT_SEAMS[args.workload],
        on_call=lambda start, end: units.append((start, end)),
    )
    if install(None, (unit_seam,)):
        print(f"unit seam {unit_seam.target} is absent", file=sys.stderr)
        return 3

    ran = run_workload(args.workload, args.seed, modules, out)
    unit_ms = [1000.0 * (end - start) for start, end in units]
    if "exec" in ran:
        # The seam timed the two ExecRunner.run passes; the units are
        # the fresh pass's shards, timed by the manifest.
        ran["exec"]["run_s"] = sum(unit_ms) / 1000.0
        unit_ms = ran["exec"].pop("fresh_shard_ms")
    digests = [_digest(path) for path in ran["results"]]
    verified = None if args.expect is None else all(d == args.expect for d in digests)

    import numpy

    record = {
        "import_s": import_s,
        "first_unit_at": CLOCK_OFFSET + units[0][0] if units else None,
        "unit_ms": unit_ms,
        "digests": digests,
        "verified": verified,
        "exec": ran.get("exec"),
        "worker_rss_mb": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        record["trace_spans"] = {
            span: {"calls": calls, "busy_s": busy}
            for span, (calls, busy) in tracer.spans.items()
        }
        record["trace_layers"] = {
            layer: {"busy_s": busy, "self_s": own}
            for layer, (busy, own) in tracer.layers.items()
        }
        record["trace_counters"] = dict(tracer.counters)
        record["absent_seams"] = absent
    (out / "rep.json").write_text(json.dumps(record, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
