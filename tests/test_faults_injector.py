"""FaultInjector: correlated events applied against a live Internet."""

from __future__ import annotations

import pytest
from hypothesis import example, given, settings, strategies as st

from repro.errors import ConfigError
from repro.faults.events import (
    AsOutage,
    GrayFailure,
    LinkOutage,
    ProbeFaultEvent,
    ProbeFaultKind,
    RouteFlap,
    Window,
)
from repro.faults.injector import FaultInjector, ProbeFaultModel
from repro.net.links import mutation_epoch
from repro.rand import RandomStreams


def any_link(small_internet):
    return next(iter(small_internet.links_by_id.values()))


class TestInjection:
    def test_outage_follows_clock(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(100.0, 50.0)))
        injector.install()
        assert not link.failed
        small_internet.set_time(120.0)
        assert link.failed
        small_internet.set_time(160.0)
        assert not link.failed

    def test_unknown_link_rejected(self, small_internet):
        injector = FaultInjector(small_internet)
        with pytest.raises(ConfigError):
            injector.add(LinkOutage(link_ids=(999_999,), window=Window(0.0, 1.0)))

    def test_as_outage_fails_every_as_link(self, small_internet):
        asn = next(iter(small_internet.topology.ases))
        event = AsOutage.for_as(small_internet, asn, Window(50.0, 100.0))
        injector = FaultInjector(small_internet)
        injector.add(event)
        injector.install()
        small_internet.set_time(75.0)
        assert all(
            small_internet.links_by_id[link_id].failed for link_id in event.link_ids
        )
        small_internet.set_time(200.0)
        assert not any(
            small_internet.links_by_id[link_id].failed for link_id in event.link_ids
        )

    def test_gray_failure_impairs_without_failing(self, small_internet):
        link = any_link(small_internet)
        clean_loss = link.loss(120.0)
        clean_delay = link.one_way_delay_ms(120.0)
        injector = FaultInjector(small_internet)
        injector.add(
            GrayFailure(
                link_ids=(link.link_id,), window=Window(100.0, 50.0),
                drop_fraction=0.3, extra_delay_ms=25.0,
            )
        )
        injector.install()
        small_internet.set_time(120.0)
        assert not link.failed
        assert link.impaired
        assert link.loss(120.0) > clean_loss
        assert link.one_way_delay_ms(120.0) == pytest.approx(clean_delay + 25.0)
        small_internet.set_time(200.0)
        assert not link.impaired

    def test_uninstall_restores_everything(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(0.0, 100.0)))
        injector.add(
            GrayFailure(
                link_ids=(link.link_id,), window=Window(0.0, 100.0), drop_fraction=0.5
            )
        )
        injector.install()
        assert link.failed
        injector.uninstall()
        assert not link.failed
        assert not link.impaired
        assert injector.apply not in small_internet.clock_hooks

    def test_rewind_replays_identically(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(100.0, 50.0)))
        injector.install()

        def states():
            out = []
            small_internet.set_time(0.0)
            for _ in range(20):
                small_internet.advance(10.0)
                out.append(link.failed)
            return out

        assert states() == states()


class TestOverlappingInjectors:
    """Liveness is the union of windows across events *and* injectors."""

    def test_two_events_in_one_injector(self, small_internet):
        # [100, 300) and [150, 200): the short event's end must not
        # restore the link while the long one still covers the instant.
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(100.0, 200.0)))
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(150.0, 50.0)))
        injector.install()
        for t, down in ((175.0, True), (250.0, True), (350.0, False)):
            small_internet.set_time(t)
            assert link.failed is down, f"at t={t}"

    @pytest.mark.parametrize(
        "windows",
        [
            ((100.0, 200.0), (150.0, 50.0)),
            ((150.0, 50.0), (100.0, 200.0)),
            ((100.0, 100.0), (150.0, 150.0)),
            ((150.0, 150.0), (100.0, 100.0)),
        ],
        ids=["long-first", "short-first", "early-first", "late-first"],
    )
    def test_injector_never_restores_link_another_holds(self, small_internet, windows):
        # Two injectors, one window each, union [100, 300): whichever
        # clock hook runs first, the link stays down until both clear.
        link = any_link(small_internet)
        injectors = []
        for start_s, duration_s in windows:
            injector = FaultInjector(small_internet)
            injector.add(
                LinkOutage(link_ids=(link.link_id,), window=Window(start_s, duration_s))
            )
            injectors.append(injector.install())
        for t in (50.0, 120.0, 175.0, 225.0, 275.0, 325.0, 125.0, 260.0, 0.0):
            small_internet.set_time(t)
            assert link.failed is (100.0 <= t < 300.0), f"at t={t}"
        small_internet.set_time(250.0)
        injectors[0].uninstall()
        assert link.failed is (windows[1][0] + windows[1][1] > 250.0)
        injectors[1].uninstall()
        assert not link.failed


class TestFaultPathProperties:
    """Hypothesis properties of the single fault path."""

    @staticmethod
    def snapshot(internet, t):
        """Everything an injector could perturb, at instant ``t``."""
        internet.set_time(t)
        links = tuple(
            (
                link.failed,
                link.extra_loss,
                link.extra_delay_ms,
                link.util_surge,
                link.bulk_extra_loss,
            )
            for link in internet.links_by_id.values()
        )
        metrics = tuple(
            internet.resolve_path(src, dst).metrics(t)
            for src, dst in (("client", "server"), ("client", "vm"), ("vm", "server"))
        )
        return links, mutation_epoch(), metrics

    @given(
        ticks=st.lists(st.integers(0, 1_440), min_size=1, max_size=12),
        manual=st.sets(st.integers(0, 40), max_size=4),
    )
    @settings(max_examples=25, deadline=None)
    def test_empty_injector_is_identity(self, module_internet, ticks, manual):
        internet = module_internet
        grid = [5.0 * tick for tick in ticks]
        links = list(internet.links_by_id.values())
        failed = [links[i] for i in sorted(manual)]
        for link in failed:
            link.fail()
        injector = FaultInjector(internet)
        try:
            bare = [self.snapshot(internet, t) for t in grid]
            injector.install()
            hooked = [self.snapshot(internet, t) for t in grid]
            injector.uninstall()
            after = [self.snapshot(internet, t) for t in grid]
        finally:
            injector.uninstall()
            for link in failed:
                link.restore()
            internet.set_time(0.0)
        assert hooked == bare
        assert after == bare

    @given(
        windows=st.lists(
            st.tuples(
                st.integers(0, 40),  # start, in 10 s units
                st.integers(1, 15),  # duration, in 10 s units
                st.integers(0, 1),  # which of two injectors owns it
            ),
            min_size=1,
            max_size=6,
        ),
        instants=st.lists(st.integers(0, 120), min_size=1, max_size=25),
    )
    @example(windows=[(10, 10, 0), (15, 15, 0)], instants=[9, 24, 50, 60])
    @example(windows=[(10, 10, 0), (20, 10, 0)], instants=[40, 50, 59, 60])
    @example(windows=[(10, 20, 0), (15, 5, 1)], instants=[35, 50, 70])
    @example(windows=[(15, 5, 0), (10, 20, 1)], instants=[35, 50, 70])
    @settings(max_examples=60, deadline=None)
    def test_liveness_is_union_of_windows(self, module_internet, windows, instants):
        internet = module_internet
        link = next(iter(internet.links_by_id.values()))
        injectors = [FaultInjector(internet), FaultInjector(internet)]
        spans = []
        for start, duration, owner in windows:
            window = Window(10.0 * start, 10.0 * duration)
            injectors[owner].add(LinkOutage(link_ids=(link.link_id,), window=window))
            spans.append((window.start_s, window.end_s))
        # Every window edge, then the drawn instants in drawn order
        # (rewinds included: the fault state is a function of time).
        edges = sorted({t for span in spans for t in span})
        try:
            for injector in injectors:
                injector.install()
            for t in edges + [5.0 * i for i in instants]:
                internet.set_time(t)
                expected = any(lo <= t < hi for lo, hi in spans)
                assert link.failed is expected, f"at t={t}"
        finally:
            for injector in injectors:
                injector.uninstall()
            internet.set_time(0.0)
        assert not link.failed


class TestRouteFlapEdges:
    def test_each_edge_invalidates_path_cache(self, small_internet):
        link = any_link(small_internet)
        path = small_internet.resolve_path("client", "server")
        assert small_internet.resolve_path("client", "server") is path  # cached
        injector = FaultInjector(small_internet)
        injector.add(
            RouteFlap(
                link_ids=(link.link_id,), window=Window(100.0, 100.0), period_s=20.0
            )
        )
        injector.install()
        small_internet.set_time(105.0)  # idle -> withdrawn edge
        recomputed = small_internet.resolve_path("client", "server")
        assert recomputed is not path
        assert injector.route_recomputations >= 1
        before = injector.route_recomputations
        small_internet.set_time(115.0)  # withdrawn -> announced edge
        assert injector.route_recomputations == before + 1
        small_internet.set_time(116.0)  # no edge: same half-cycle
        assert injector.route_recomputations == before + 1


class TestProbeFaultModel:
    def test_first_matching_event_wins_and_counts(self):
        events = [
            ProbeFaultEvent(window=Window(0.0, 10.0), fault=ProbeFaultKind.LOST),
            ProbeFaultEvent(window=Window(0.0, 100.0), fault=ProbeFaultKind.STALE),
        ]
        model = ProbeFaultModel(events, RandomStreams(seed=2).stream("pf"))
        assert model.outcome("direct", 5.0) is ProbeFaultKind.LOST
        assert model.outcome("direct", 50.0) is ProbeFaultKind.STALE
        assert model.outcome("direct", 200.0) is None
        assert model.struck["lost"] == 1
        assert model.struck["stale"] == 1


class TestBulkOnlyGray:
    def test_bulk_only_gray_spares_pings(self, small_internet):
        link = any_link(small_internet)
        clean_loss = link.loss(120.0)
        injector = FaultInjector(small_internet)
        injector.add(
            GrayFailure(
                link_ids=(link.link_id,), window=Window(100.0, 50.0),
                drop_fraction=0.4, bulk_only=True,
            )
        )
        injector.install()
        small_internet.set_time(120.0)
        assert not link.failed
        # Pings see nothing; bulk segments pay the silent drop.
        assert link.loss(120.0) == pytest.approx(clean_loss)
        assert link.bulk_loss(120.0) > link.loss(120.0)
        small_internet.set_time(200.0)
        assert link.bulk_loss(200.0) == link.loss(200.0)
        injector.uninstall()


class TestFaultHistoryQueries:
    def test_down_windows_merges_outages_and_flaps(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(500.0, 50.0)))
        injector.add(
            RouteFlap(
                link_ids=(link.link_id,), window=Window(100.0, 100.0), period_s=20.0
            )
        )
        windows = injector.down_windows(link.link_id)
        # 5 withdraw phases of the flap plus the outage, sorted by start.
        assert len(windows) == 6
        assert [w.start_s for w in windows[:5]] == [100.0, 120.0, 140.0, 160.0, 180.0]
        assert windows[-1].start_s == 500.0

    def test_down_windows_range_filter(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(
            RouteFlap(
                link_ids=(link.link_id,), window=Window(100.0, 100.0), period_s=20.0
            )
        )
        assert injector.flap_count(link.link_id) == 5
        assert injector.flap_count(link.link_id, since=150.0) == 2
        assert injector.flap_count(link.link_id, since=150.0, until=170.0) == 1
        assert injector.flap_count(link.link_id, since=300.0) == 0

    def test_repeated_pop_outages_count_as_flaps(self, small_internet):
        from repro.faults.events import PopOutage

        asys = next(
            a for a in small_internet.topology.ases.values() if len(a.pop_cities) >= 2
        )
        city = asys.pop_cities[0]
        injector = FaultInjector(small_internet)
        episodes = [
            PopOutage.for_pop(
                small_internet, asys.asn, city, Window(start, 50.0)
            )
            for start in (100.0, 300.0, 500.0)
        ]
        for episode in episodes:
            injector.add(episode)
        for link_id in episodes[0].link_ids:
            assert injector.flap_count(link_id) == 3
            assert [w.start_s for w in injector.down_windows(link_id)] == [
                100.0, 300.0, 500.0,
            ]

    def test_pop_outage_follows_clock(self, small_internet):
        from repro.faults.events import PopOutage
        from repro.net.world import HOST_ID_BASE

        asys = next(
            a for a in small_internet.topology.ases.values() if len(a.pop_cities) >= 2
        )
        event = PopOutage.for_pop(
            small_internet, asys.asn, asys.pop_cities[0], Window(100.0, 50.0)
        )
        injector = FaultInjector(small_internet)
        injector.add(event)
        injector.install()
        links = [small_internet.links_by_id[lid] for lid in event.link_ids]
        small_internet.set_time(120.0)
        assert all(link.failed for link in links)
        # Partial outage: the AS keeps other live links (sibling PoPs).
        survivors = [
            link
            for link in small_internet.links_by_id.values()
            if not link.failed
            and any(
                small_internet.routers.get(rid).asn == asys.asn
                for rid in (link.router_a, link.router_b)
                if rid < HOST_ID_BASE
            )
        ]
        assert survivors
        small_internet.set_time(200.0)
        assert not any(link.failed for link in links)

    def test_gray_failures_have_no_down_windows(self, small_internet):
        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(
            GrayFailure(
                link_ids=(link.link_id,), window=Window(0.0, 100.0), drop_fraction=0.5
            )
        )
        assert injector.down_windows(link.link_id) == ()
        assert injector.flap_count(link.link_id) == 0

    def test_unknown_link_query_rejected(self, small_internet):
        with pytest.raises(ConfigError):
            FaultInjector(small_internet).down_windows(999_999)


class TestPathFaultHistory:
    def test_counts_per_label_within_window(self, small_internet):
        from repro.faults.injector import PathFaultHistory

        link = any_link(small_internet)
        injector = FaultInjector(small_internet)
        injector.add(
            RouteFlap(
                link_ids=(link.link_id,), window=Window(100.0, 100.0), period_s=20.0
            )
        )
        history = PathFaultHistory(
            injector, {"flappy": (link.link_id,)}, window_s=150.0
        )
        # At t=250 the 150 s window covers the flap onsets at 100..180.
        assert history.recent_failures("flappy", 250.0) == 5
        # At t=500 every onset has aged out of the window.
        assert history.recent_failures("flappy", 500.0) == 0
        # Labels the injector never touched have no history.
        assert history.recent_failures("unknown", 250.0) == 0

    def test_window_validated(self, small_internet):
        from repro.faults.injector import PathFaultHistory

        with pytest.raises(ConfigError):
            PathFaultHistory(FaultInjector(small_internet), {}, window_s=0.0)
