"""The benchmark's own tests: seams survive the refactors they measure.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest campaignbench/tests -q
"""

from __future__ import annotations

import sys
import time
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
from seams import SEAMS, Seam, Tracer, install  # noqa: E402

ABSENT = (
    Seam("gone.module", "gone", "repro.no_such_module:solve"),
    Seam("gone.class", "gone", "repro.net.fastpath:NoSuchMirror.path_metrics"),
    Seam("gone.method", "gone", "repro.net.fastpath:FastPath.no_such_method"),
    # A config field is data, not a seam; wrapping it would clobber it.
    Seam("gone.field", "gone", "repro.exec.runner:ExecConfig.backend"),
)


def test_absent_seams_are_reported_not_raised():
    from repro.exec.runner import ExecConfig

    tracer = Tracer()
    absent = install(tracer, ABSENT)
    assert absent == [seam.target for seam in ABSENT]
    assert tracer.spans == {} and tracer.layers == {}
    assert ExecConfig().backend == "local-fork"


def test_a_deleted_method_leaves_the_other_seams_working(monkeypatch):
    from repro.net import fastpath
    from repro.net.world import Internet

    monkeypatch.delattr(fastpath.FastPath, "path_metrics")
    monkeypatch.setattr(Internet, "resolve_path", Internet.resolve_path)
    keep = [seam for seam in SEAMS if seam.target.endswith((
        "FastPath.path_metrics", "Internet.resolve_path"))]
    tracer = Tracer()
    absent = install(tracer, tuple(keep))
    assert absent == ["repro.net.fastpath:FastPath.path_metrics"]
    assert Internet.resolve_path.__wrapped__ is not None


def test_per_layer_metrics_of_an_empty_trace_are_zero():
    tracer = Tracer()
    record = {
        "import_s": 0.25,
        "trace_spans": {},
        "trace_layers": {},
        "trace_counters": dict(tracer.counters),
        "exec": None,
        "worker_rss_mb": 0.0,
        "absent_seams": [seam.target for seam in SEAMS],
    }
    layers = run.per_layer({"record": record}, {"wall_s": 2.0, "setup_s": 0.5})
    layers.update(run.exec_layer(record))
    measured_per_run = {"trace.overhead_share", "host.steal_share", "host.probe_ms"}
    assert set(layers) | measured_per_run == set(run.PER_LAYER_UNITS)
    assert layers["trace.absent_seams"] == len(SEAMS)
    assert layers["net.fastpath.lookups"] == 0
    assert layers["net.fastpath.fill_ratio"] == 0.0
    assert layers["exec.overhead_s"] == 0.0


def test_any_seed_maps_to_a_reference_case():
    import json

    table = json.loads((HERE / "reference.json").read_text())
    for seed in (0, 7, 199, 200, 1_000_000, 2**63 + 5, -3):
        case = run.campaign_seed(seed)
        assert 0 <= case < run.CASES
        assert all(str(case) in digests for digests in table.values())
    assert run.campaign_seed(7) == 7 and run.campaign_seed(207) == 7
    assert [run.campaign_seed(198, rep) for rep in range(4)] == [198, 199, 0, 1]


def test_a_seed_without_a_reference_digest_is_refused(monkeypatch, capsys):
    monkeypatch.setattr(run, "CASES", 1000)
    assert run.main(["--workload", "chaos-serial", "--seed", "7"]) == 2
    assert "record_reference.py" in capsys.readouterr().err


def test_a_unit_seam_times_calls_without_a_tracer(monkeypatch):
    class Engine:
        def step(self, x):
            return x * 2

    module = types.ModuleType("repro._bench_units")
    module.Engine = Engine
    monkeypatch.setitem(sys.modules, module.__name__, module)
    intervals = []
    seam = Seam("unit", "unit", "repro._bench_units:Engine.step",
                on_call=lambda start, end: intervals.append((start, end)))
    assert install(None, (seam,)) == []
    assert Engine().step(3) == 6
    assert len(intervals) == 1 and intervals[0][0] <= intervals[0][1]


def test_a_method_is_wrapped_on_every_overriding_subclass(monkeypatch):
    class Base:
        def decide(self):
            raise NotImplementedError

    class Left(Base):
        def decide(self):
            return "left"

    class Right(Base):
        def decide(self):
            return "right"

    module = types.ModuleType("repro._bench_policies")
    module.Base = Base
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer()
    assert install(tracer, (Seam("decide", "policy", "repro._bench_policies:Base.decide"),)) == []
    assert Left().decide() == "left" and Right().decide() == "right"
    assert tracer.spans["decide"][0] == 2


def test_a_function_seam_reaches_modules_that_imported_it(monkeypatch):
    def solve(x):
        return x + 1

    source = types.ModuleType("repro._bench_source")
    source.solve = solve
    user = types.ModuleType("repro._bench_user")
    user.solve = solve
    monkeypatch.setitem(sys.modules, source.__name__, source)
    monkeypatch.setitem(sys.modules, user.__name__, user)
    tracer = Tracer()
    assert install(tracer, (Seam("solve", "solver", "repro._bench_source:solve"),)) == []
    assert user.solve(1) == 2 and source.solve(2) == 3
    assert tracer.spans["solve"][0] == 2


def test_an_inherited_method_is_wrapped_on_the_named_class(monkeypatch):
    class Base:
        def step(self):
            return "stepped"

    class Child(Base):
        pass

    module = types.ModuleType("repro._bench_classes")
    module.Child = Child
    monkeypatch.setitem(sys.modules, module.__name__, module)
    tracer = Tracer()
    assert install(tracer, (Seam("step", "stepper", "repro._bench_classes:Child.step"),)) == []
    assert Child().step() == "stepped" and Base().step() == "stepped"
    assert tracer.spans["step"][0] == 1


def test_self_time_excludes_other_layers_and_busy_counts_outermost_only():
    tracer = Tracer()
    tracer.enter("outer", "a")
    tracer.enter("outer", "a")  # re-entrant: counted, not double timed
    tracer.enter("inner", "b")
    time.sleep(0.02)
    tracer.leave()
    tracer.leave()
    tracer.leave()
    (outer_calls, outer), (_, inner) = tracer.spans["outer"], tracer.spans["inner"]
    assert outer_calls == 2
    assert inner >= 0.02 and outer >= inner
    (a_busy, a_self), (_, b_self) = tracer.layers["a"], tracer.layers["b"]
    assert abs(a_busy - outer) < 1e-12
    assert abs(a_self - (outer - inner)) < 1e-9
    assert abs(b_self - inner) < 1e-12


def test_tail_is_the_highest_percentile_with_ten_units_beyond():
    assert run.tail([float(v) for v in range(80)]) == (69.0, 87.5)
    assert run.tail([1.0, 2.0, 3.0]) == (3.0, 100.0)
