"""The campaign benchmark: time whole ``repro`` campaigns from outside.

Run from the repository root::

    python3 campaignbench/run.py --workload chaos-serial --seed 7 --seconds 25
    python3 campaignbench/run.py --workload all --trace 1

Each repetition is a fresh interpreter (``rep.py``) that runs one whole
campaign through its public entry point, writes the result JSON and
checks its sha256 against ``reference.json``, which holds campaign
seeds 0-199.  Repetition ``i`` of a run with ``--seed s`` runs campaign
seed ``(s + i) % 200``, so any seed has references and a run's medians
cover several inputs, not one; traced repetitions all run ``s % 200``.
Repetitions run back to back, one at a time (a closed loop with one
client), until ``--seconds`` have passed; every reported metric is the
median over the repetitions.  ``--trace 1`` alternates untraced and traced
repetitions and reports per-layer numbers plus the tracing overhead.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  The metrics are the
end-to-end ones with ``--trace 0`` and the per-layer ones with
``--trace 1``.  Exit code 2 means the benchmark refused to run.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".campaignbench"

WORKLOADS = ("chaos-serial", "chaos-sharded", "demand-sweep", "packet-replay")

#: Units per campaign: controller runs, shards, demand epochs, packet flows.
UNITS = {
    "chaos-serial": 80,
    "chaos-sharded": 80,
    "demand-sweep": 504,
    "packet-replay": 172,
}

#: Which reference table checks each workload: the sharded campaign
#: must reproduce the serial campaign's bytes.
REFERENCE_KEY = {
    "chaos-serial": "chaos",
    "chaos-sharded": "chaos",
    "demand-sweep": "demand-sweep",
    "packet-replay": "packet-replay",
}

#: Object mode and the scalar packet engine are several times slower;
#: a run under either measures a configuration nobody ships.
REFUSED_ENV = ("REPRO_FASTPATH", "REPRO_PACKET_FASTPATH")

#: ``reference.json`` holds digests for campaign seeds 0..CASES-1.
#: Every repetition runs one of them, so every seed has references.
CASES = 200

MIN_REPS = 3
#: Every run ends well inside three minutes, hang or not.
RUN_LIMIT_S = 170.0

END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "units_per_s": "1/s",
    "unit_p50_ms": "ms",
    "unit_tail_ms": "ms",
    "cpu_s": "s",
    "peak_rss_mb": "MB",
    "failed_share": "ratio",
}

PER_LAYER_UNITS = {
    "import.s": "s",
    "net.world.build_s": "s",
    "net.world.topology_s": "s",
    "net.world.internet_s": "s",
    "net.world.self_s": "s",
    "net.path.calls": "count",
    "net.path.s": "s",
    "net.path.self_s": "s",
    "net.fastpath.fills": "count",
    "net.fastpath.lookups": "count",
    "net.fastpath.s": "s",
    "net.fastpath.self_s": "s",
    "net.fastpath.fill_ratio": "ratio",
    "faults.calls": "count",
    "faults.s": "s",
    "faults.self_s": "s",
    "control.runs": "count",
    "control.ticks": "count",
    "control.s": "s",
    "control.self_s": "s",
    "control.ticks_per_s": "1/s",
    "control.share": "ratio",
    "control.probe.calls": "count",
    "control.probe.s": "s",
    "control.policy.calls": "count",
    "control.policy.s": "s",
    "transport.model.calls": "count",
    "transport.model.s": "s",
    "transport.model.self_s": "s",
    "transport.packet.flows": "count",
    "transport.packet.s": "s",
    "transport.packet.self_s": "s",
    "transport.packet.share": "ratio",
    "transport.packet.segments": "count",
    "transport.packet.segments_per_s": "1/s",
    "transport.packet.retx_share": "ratio",
    "demand.epochs": "count",
    "demand.s": "s",
    "demand.self_s": "s",
    "demand.share": "ratio",
    "demand.solve_s": "s",
    "demand.flows_per_s": "1/s",
    "exec.shards": "count",
    "exec.executed": "count",
    "exec.cache_hits": "count",
    "exec.errors": "count",
    "exec.retry_share": "ratio",
    "exec.shard_busy_s": "s",
    "exec.overhead_s": "s",
    "exec.resume_s": "s",
    "exec.worker_rss_mb": "MB",
    "io.dump_s": "s",
    "trace.post_setup_s": "s",
    "trace.overhead_share": "ratio",
    "trace.absent_seams": "count",
    "host.steal_share": "ratio",
    "host.probe_ms": "ms",
}


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def tail(values: list[float], beyond: int = 10) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with ``beyond`` values above it."""
    ordered = sorted(values)
    if len(ordered) <= beyond:
        return ordered[-1], 100.0
    return ordered[-beyond - 1], 100.0 * (len(ordered) - beyond) / len(ordered)


def commit() -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = git / ref
        if loose.exists():
            return loose.read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) CPU ticks of the whole machine from ``/proc/stat``."""
    try:
        with open("/proc/stat") as stat:
            fields = [int(value) for value in stat.readline().split()[1:9]]
    except (OSError, ValueError):
        return None
    if len(fields) < 8:
        return None
    return fields[7], sum(fields)


def steal_share(before: tuple[int, int] | None,
                after: tuple[int, int] | None) -> float | None:
    """Share of the machine's CPU time the hypervisor gave to other guests."""
    if before is None or after is None or after[1] == before[1]:
        return None
    return (after[0] - before[0]) / (after[1] - before[1])


def host_probe_ms() -> float:
    """Median time of a fixed pure-Python loop: the host's speed, not the code's.

    A host slow spell (other tenants, throttling) slows this loop as much
    as the campaigns, while the steal counter can stay near 0.
    """
    times = []
    for _ in range(5):
        started = time.perf_counter()
        total = 0
        for value in range(100_000):
            total += value * value
        times.append(1000.0 * (time.perf_counter() - started))
    return statistics.median(times)


def environment() -> dict:
    """What the numbers depend on besides the code."""
    return {
        "cpu_count": os.cpu_count(),
        "loadavg": list(os.getloadavg()),
        "python": platform.python_version(),
        "machine": platform.machine(),
        "commit": commit(),
    }


def campaign_seed(seed: int, rep: int = 0) -> int:
    """The ``repro`` seed repetition ``rep`` of a run runs: a reference case.

    Consecutive repetitions run consecutive cases, so a run's medians
    cover several inputs, not one.
    """
    return (seed + rep) % CASES


def _stop_group(pgid: int) -> None:
    """SIGKILL a repetition's process group and wait until it is empty."""
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        return
    deadline = time.monotonic() + 10.0
    while time.monotonic() < deadline:
        try:
            os.killpg(pgid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def spawn(workload: str, seed: int, trace: int, rep_dir: Path,
          expect: str | None, timeout_s: float) -> dict:
    """Run one repetition in a fresh interpreter; returns its outcome."""
    command = [
        sys.executable, str(HERE / "rep.py"), "--workload", workload,
        "--seed", str(seed), "--trace", str(trace), "--out", str(rep_dir),
    ]
    if expect is not None:
        command += ["--expect", expect]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        part for part in (str(ROOT / "src"), env.get("PYTHONPATH")) if part
    )
    rep_dir.mkdir(parents=True)
    with open(rep_dir / "log.txt", "wb") as log:
        started = time.monotonic()
        process = subprocess.Popen(
            command, cwd=ROOT, env=env, stdout=log, stderr=subprocess.STDOUT,
            start_new_session=True,
        )
        timer = threading.Timer(timeout_s, _stop_group, [process.pid])
        timer.start()
        try:
            _, status, usage = os.wait4(process.pid, 0)
        finally:
            timer.cancel()
        ended = time.monotonic()
        process.returncode = os.waitstatus_to_exitcode(status)
        _stop_group(process.pid)
    outcome = {
        "returncode": process.returncode,
        "wall_s": ended - started,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "peak_rss_mb": usage.ru_maxrss / 1024.0,
        "started": started,
    }
    record_path = rep_dir / "rep.json"
    if process.returncode == 0 and record_path.exists():
        outcome["record"] = json.loads(record_path.read_text())
    else:
        outcome["log"] = (rep_dir / "log.txt").read_text(errors="replace")[-2000:]
    return outcome


def judge(workload: str, outcome: dict, expect: str) -> str | None:
    """Why a repetition failed, or None when its output is correct."""
    record = outcome.get("record")
    if record is None:
        return f"exit {outcome['returncode']}: {outcome.get('log', '').strip()[-300:]}"
    if record["verified"] is not True:
        return f"digest {record['digests']} != reference {expect}"
    if len(record["unit_ms"]) != UNITS[workload]:
        return f"{len(record['unit_ms'])} units, expected {UNITS[workload]}"
    if record["exec"] is not None and record["exec"]["errors"]:
        return f"{record['exec']['errors']} shard(s) failed"
    return None


def end_to_end(outcome: dict) -> dict:
    """The per-repetition end-to-end metrics of one correct repetition."""
    record = outcome["record"]
    setup_s = record["first_unit_at"] - outcome["started"]
    return {
        "wall_s": outcome["wall_s"],
        "setup_s": setup_s,
        "units_per_s": len(record["unit_ms"]) / (outcome["wall_s"] - setup_s),
        "cpu_s": outcome["cpu_s"],
        "peak_rss_mb": outcome["peak_rss_mb"],
    }


def unit_latency(timed: list[dict]) -> dict:
    """Unit latency over every unit of the timed repetitions, pooled.

    The tail sits at a fixed percentile: ten units beyond it per
    campaign.  Pooling keeps that percentile independent of how many
    repetitions fit in a run, and steadies it: in ``demand-sweep`` a
    repetition's ten slowest epochs take either about 8 ms or about
    12.5 ms, at random, so a median of per-repetition tails flips.
    """
    units = [ms for row in timed for ms in row["outcome"]["record"]["unit_ms"]]
    tail_ms, percentile = tail(units, beyond=10 * len(timed))
    return {
        "unit_p50_ms": statistics.median(units),
        "unit_tail_ms": tail_ms,
        "unit_tail_percentile": percentile,
        "units_timed": len(units),
    }


def per_layer(outcome: dict, metrics: dict) -> dict:
    """The span-based per-layer metrics of one traced repetition."""
    record = outcome["record"]
    spans, layers = record["trace_spans"], record["trace_layers"]
    counters = record["trace_counters"]

    def calls(span: str) -> int:
        return spans.get(span, {}).get("calls", 0)

    def busy(span: str) -> float:
        return spans.get(span, {}).get("busy_s", 0.0)

    def layer(name: str, key: str = "busy_s") -> float:
        return layers.get(name, {}).get(key, 0.0)

    post_setup = metrics["wall_s"] - metrics["setup_s"]
    segments = counters["transport.packet.segments"]
    return {
        "import.s": record["import_s"],
        "net.world.build_s": busy("net.world.build"),
        "net.world.topology_s": busy("net.world.topology"),
        "net.world.internet_s": busy("net.world.internet"),
        "net.world.self_s": layer("net.world", "self_s"),
        "net.path.calls": calls("net.path"),
        "net.path.s": layer("net.path"),
        "net.path.self_s": layer("net.path", "self_s"),
        "net.fastpath.fills": calls("net.fastpath.fill"),
        "net.fastpath.lookups": calls("net.fastpath.lookup"),
        "net.fastpath.s": layer("net.fastpath"),
        "net.fastpath.self_s": layer("net.fastpath", "self_s"),
        "net.fastpath.fill_ratio": _ratio(
            calls("net.fastpath.fill"), calls("net.fastpath.lookup")
        ),
        "faults.calls": calls("faults"),
        "faults.s": layer("faults"),
        "faults.self_s": layer("faults", "self_s"),
        "control.runs": calls("control"),
        "control.ticks": counters["control.ticks"],
        "control.s": layer("control"),
        "control.self_s": layer("control", "self_s"),
        "control.ticks_per_s": _ratio(counters["control.ticks"], busy("control")),
        "control.share": _ratio(layer("control"), post_setup),
        "control.probe.calls": calls("control.probe"),
        "control.probe.s": busy("control.probe"),
        "control.policy.calls": calls("control.policy"),
        "control.policy.s": busy("control.policy"),
        "transport.model.calls": calls("transport.model"),
        "transport.model.s": layer("transport.model"),
        "transport.model.self_s": layer("transport.model", "self_s"),
        "transport.packet.flows": calls("transport.packet"),
        "transport.packet.s": layer("transport.packet"),
        "transport.packet.self_s": layer("transport.packet", "self_s"),
        "transport.packet.share": _ratio(layer("transport.packet"), post_setup),
        "transport.packet.segments": segments,
        "transport.packet.segments_per_s": _ratio(segments, busy("transport.packet")),
        "transport.packet.retx_share": _ratio(
            counters["transport.packet.retransmissions"], segments
        ),
        "demand.epochs": calls("demand"),
        "demand.s": layer("demand"),
        "demand.self_s": layer("demand", "self_s"),
        "demand.share": _ratio(layer("demand"), post_setup),
        "demand.solve_s": busy("demand.solve"),
        "demand.flows_per_s": _ratio(counters["demand.flows"], busy("demand")),
        "io.dump_s": busy("io.dump"),
        "trace.post_setup_s": post_setup,
        "trace.absent_seams": len(record["absent_seams"]),
    }


def exec_layer(record: dict) -> dict:
    """The exec metrics of one untraced repetition, from its run manifests.

    Forked exec workers inherit a traced repetition's span wrappers and
    pay their cost, so these come from the timed repetitions instead.
    """
    numbers = record["exec"] or {}
    executed = numbers.get("executed", 0)
    return {
        "exec.shards": numbers.get("shards", 0),
        "exec.executed": executed,
        "exec.cache_hits": numbers.get("cache_hits", 0),
        "exec.errors": numbers.get("errors", 0),
        "exec.retry_share": _ratio(numbers.get("retries", 0), executed),
        "exec.shard_busy_s": numbers.get("shard_busy_s", 0.0),
        "exec.overhead_s": (
            numbers["run_s"] - numbers["shard_busy_s"] / numbers["workers"]
            if numbers else 0.0
        ),
        "exec.resume_s": numbers.get("resume_s", 0.0),
        "exec.worker_rss_mb": record["worker_rss_mb"],
    }


def _medians(rows: list[dict]) -> dict:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 references: dict) -> dict:
    """Repeat one workload for ``seconds``; returns its summary."""
    run_dir = OUT / workload
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    table = references[REFERENCE_KEY[workload]]
    cases: list[int] = []
    env = environment()
    ticks_before = cpu_ticks()
    probe_before = host_probe_ms()
    began = time.monotonic()
    timed: list[dict] = []
    traced: list[dict] = []
    failures: list[str] = []
    attempted = 0
    slowest = 0.0
    index = 0
    while True:
        elapsed = time.monotonic() - began
        enough = len(timed) >= MIN_REPS and (not trace or len(traced) >= 2)
        if (elapsed >= seconds and enough) or elapsed + 1.5 * slowest > RUN_LIMIT_S:
            break
        traced_rep = bool(trace) and index % 2 == 1
        rep_dir = run_dir / f"rep-{index:03d}"
        # Traced repetitions all run the first case, so a seed's layer
        # counts repeat exactly from run to run.
        case = campaign_seed(seed, 0 if traced_rep else index)
        cases.append(case)
        expect = table[str(case)]
        outcome = spawn(
            workload, case, int(traced_rep), rep_dir, expect,
            RUN_LIMIT_S - elapsed,
        )
        index += 1
        slowest = max(slowest, outcome["wall_s"])
        attempted += UNITS[workload]
        reason = judge(workload, outcome, expect)
        shutil.rmtree(rep_dir, ignore_errors=True)
        if reason is not None:
            # One wrong or crashed campaign already fails the run.
            failures.append(reason)
            print(f"  rep {index}: FAILED {reason}", flush=True)
            break
        metrics = end_to_end(outcome)
        kind = "traced" if traced_rep else "timed"
        print(
            f"  rep {index} ({kind}): wall {metrics['wall_s']:.3f} s, "
            f"setup {metrics['setup_s']:.3f} s, cpu {metrics['cpu_s']:.3f} s",
            flush=True,
        )
        if traced_rep:
            traced.append({"outcome": outcome, "metrics": metrics})
        else:
            timed.append({"outcome": outcome, "metrics": metrics})

    env["steal_share"] = steal_share(ticks_before, cpu_ticks())
    env["probe_ms"] = [probe_before, host_probe_ms()]
    failed = len(failures) * UNITS[workload]
    summary = {
        "workload": workload,
        "seed": seed,
        "campaign_seeds": cases,
        "attempted": attempted,
        "failed": failed,
        "failures": failures,
        "environment": env,
        "reps": len(timed) + len(traced),
    }
    if timed:
        first = timed[0]["outcome"]["record"]
        summary["environment"].update(
            numpy=first["numpy"], workers=(first["exec"] or {}).get("workers", 1),
            exec_backend=(first["exec"] or {}).get("backend"),
        )
        summary["rep_metrics"] = [row["metrics"] for row in timed]
        e2e = _medians(summary["rep_metrics"])
        e2e.update(unit_latency(timed))
        e2e["failed_share"] = _ratio(failed, attempted)
        summary["end_to_end"] = e2e
    if traced and timed:
        layers = _medians(
            [per_layer(row["outcome"], row["metrics"]) for row in traced]
        )
        layers.update(_medians([exec_layer(row["outcome"]["record"]) for row in timed]))
        layers["host.steal_share"] = env["steal_share"] or 0.0
        layers["host.probe_ms"] = statistics.mean(env["probe_ms"])
        traced_wall = statistics.median(row["metrics"]["wall_s"] for row in traced)
        layers["trace.overhead_share"] = traced_wall / summary["end_to_end"]["wall_s"] - 1
        summary["per_layer"] = layers
        summary["absent_seams"] = traced[0]["outcome"]["record"]["absent_seams"]
    (run_dir / "run.json").write_text(json.dumps(summary, indent=1))
    return summary


def report(summary: dict) -> None:
    """Print one workload's numbers as a human-readable table."""
    env = summary["environment"]
    steal = env["steal_share"]
    print(
        f"{summary['workload']} seed {summary['seed']} (campaign seeds "
        f"{','.join(map(str, dict.fromkeys(summary['campaign_seeds'])))}): "
        f"{summary['reps']} reps, "
        f"{summary['failed']}/{summary['attempted']} units failed; "
        f"{env['cpu_count']} cpus, load {env['loadavg'][0]:.2f}, steal "
        f"{'unknown' if steal is None else f'{steal:.4f}'}, host probe "
        f"{env['probe_ms'][0]:.1f}/{env['probe_ms'][1]:.1f} ms, python {env['python']}, "
        f"numpy {env.get('numpy')}, commit {env['commit'][:12]}"
    )
    e2e = summary.get("end_to_end", {})
    for name, unit in END_TO_END_UNITS.items():
        if name in e2e:
            note = ""
            if name == "unit_tail_ms":
                note = f"  (p{e2e['unit_tail_percentile']:.4g} of {e2e['units_timed']} units)"
            print(f"  {name:<14} {e2e[name]:>14.4f} {unit}{note}")
    layers = summary.get("per_layer")
    if layers:
        absent = summary["absent_seams"]
        if absent:
            print(f"  absent seams (reported as 0): {', '.join(absent)}")
        for name, unit in PER_LAYER_UNITS.items():
            print(f"  {name:<34} {layers[name]:>16.4f} {unit}")


def _result_line(summaries: list[dict], trace: int, prefix: bool) -> dict:
    metrics = {}
    for summary in summaries:
        if trace:
            values, units = summary.get("per_layer", {}), PER_LAYER_UNITS
        else:
            values = summary.get("end_to_end", {})
            units = {k: v for k, v in END_TO_END_UNITS.items() if k != "failed_share"}
        for name, unit in units.items():
            if name in values:
                key = f"{summary['workload']}.{name}" if prefix else name
                metrics[key] = {"value": values[name], "unit": unit}
    expected = (len(PER_LAYER_UNITS) if trace else len(END_TO_END_UNITS) - 1)
    complete = len(metrics) == expected * len(summaries)
    failed = sum(summary["failed"] for summary in summaries)
    return {
        "correct": failed == 0 and complete,
        "attempted": sum(summary["attempted"] for summary in summaries),
        "failed": failed,
        "metrics": metrics,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    refused = [name for name in REFUSED_ENV if name in os.environ]
    if refused:
        print(f"campaignbench: unset {', '.join(refused)}: the benchmark times "
              "the default engines only", file=sys.stderr)
        return 2
    if not (ROOT / "src" / "repro" / "__init__.py").exists():
        print(f"campaignbench: no repro package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    references = json.loads((HERE / "reference.json").read_text())
    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    unknown = [w for w in workloads
               if any(str(case) not in references[REFERENCE_KEY[w]]
                      for case in range(CASES))]
    if unknown:
        print(f"campaignbench: reference.json lacks campaign seeds 0-{CASES - 1} of "
              f"{', '.join(unknown)}; extend reference.json with "
              "record_reference.py first", file=sys.stderr)
        return 2
    summaries = []
    for workload in workloads:
        summary = run_workload(workload, args.seed, args.seconds, args.trace, references)
        report(summary)
        summaries.append(summary)
    print(json.dumps(_result_line(summaries, args.trace, args.workload == "all")))
    return 0


if __name__ == "__main__":
    sys.exit(main())
