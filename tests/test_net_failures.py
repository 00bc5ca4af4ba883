"""Scheduled link failures: the union of active windows governs.

Every scheduled outage goes through a :class:`~repro.faults.injector.
FaultInjector` as a :class:`~repro.faults.events.LinkOutage`; these
are the hand-picked window and ownership cases for that single fault
path.  ``tests/test_faults_injector.py`` holds the property-based
versions.
"""

from __future__ import annotations

import pytest

from repro.errors import ConfigError
from repro.faults.events import LinkOutage, Window, window_for
from repro.faults.injector import FaultInjector


def victim(small_internet):
    return next(iter(small_internet.links_by_id.values()))


def schedule(internet, link, *windows) -> FaultInjector:
    """An installed injector holding one outage per ``(start, duration)``."""
    injector = FaultInjector(internet)
    for start_s, duration_s in windows:
        injector.add(
            LinkOutage(link_ids=(link.link_id,), window=window_for(start_s, duration_s))
        )
    return injector.install()


class TestOverlappingEvents:
    def test_overlap_keeps_link_down_through_union(self, small_internet):
        # [100, 200) and [150, 300): the first event's end must not
        # restore the link while the second still covers the instant.
        link = victim(small_internet)
        schedule(small_internet, link, (100.0, 100.0), (150.0, 150.0))
        for t, down in ((99.0, False), (120.0, True), (250.0, True), (300.0, False)):
            small_internet.set_time(t)
            assert link.failed is down, f"at t={t}"

    def test_adjacent_windows_merge_seamlessly(self, small_internet):
        # [100, 200) then [200, 300): no one-instant blip in between.
        link = victim(small_internet)
        schedule(small_internet, link, (100.0, 100.0), (200.0, 100.0))
        for t in (100.0, 199.999, 200.0, 299.999):
            small_internet.set_time(t)
            assert link.failed, f"at t={t}"
        small_internet.set_time(300.0)
        assert not link.failed

    def test_down_windows_merges_and_sorts(self, small_internet):
        link = victim(small_internet)
        injector = schedule(
            small_internet, link, (500.0, 100.0), (100.0, 100.0), (150.0, 100.0)
        )
        # The read API reports every window as scheduled, sorted...
        assert [(w.start_s, w.end_s) for w in injector.down_windows(link.link_id)] == [
            (100.0, 200.0), (150.0, 250.0), (500.0, 600.0),
        ]
        # ...while liveness follows their merged union.
        merged = ((100.0, 250.0), (500.0, 600.0))
        for t in range(0, 700, 10):
            small_internet.set_time(float(t))
            assert link.failed is any(lo <= t < hi for lo, hi in merged), f"at t={t}"

    def test_down_at_matches_any_event(self, small_internet):
        link = victim(small_internet)
        injector = schedule(small_internet, link, (100.0, 100.0), (400.0, 100.0))

        def down_at(t: float) -> bool:
            effect = injector.effects_at(t).get(link.link_id)
            return effect is not None and effect.failed

        assert down_at(150.0)
        assert not down_at(300.0)
        assert down_at(450.0)
        assert not down_at(600.0)

    def test_scheduled_links(self, small_internet):
        link = victim(small_internet)
        injector = FaultInjector(small_internet)
        assert injector.managed_links() == set()
        injector.add(LinkOutage(link_ids=(link.link_id,), window=Window(0.0, 10.0)))
        assert injector.managed_links() == {link.link_id}


class TestValidation:
    def test_invalid_windows_rejected(self):
        with pytest.raises(ConfigError):
            window_for(-1.0, 10.0)
        with pytest.raises(ConfigError):
            window_for(0.0, 0.0)

    def test_unknown_link_rejected(self, small_internet):
        with pytest.raises(ConfigError):
            FaultInjector(small_internet).add(
                LinkOutage(link_ids=(999_999,), window=window_for(0.0, 1.0))
            )

    def test_unscheduled_links_left_alone(self, small_internet):
        links = iter(small_internet.links_by_id.values())
        link, other = next(links), next(links)
        schedule(small_internet, other, (0.0, 100.0))
        link.fail()  # manual failure, no event names it
        small_internet.set_time(50.0)
        small_internet.set_time(150.0)
        assert link.failed
        link.restore()


class TestOwnership:
    """The injector restores only links *it* failed."""

    def test_manual_failure_before_window_left_alone(self, small_internet):
        link = victim(small_internet)
        schedule(small_internet, link, (100.0, 50.0))
        link.fail()  # manual, long before the window opens
        small_internet.advance(10.0)
        assert link.failed
        link.restore()

    def test_manual_failure_survives_window_end(self, small_internet):
        # A link failed by hand before an overlapping scheduled window
        # ends must stay down: the injector never owned it.
        link = victim(small_internet)
        schedule(small_internet, link, (100.0, 100.0))
        link.fail()  # manual, outside any clock move
        small_internet.set_time(150.0)  # window active; link already down
        assert link.failed
        small_internet.set_time(250.0)  # window over; manual failure must persist
        assert link.failed
        link.restore()

    def test_scheduled_failure_still_restored(self, small_internet):
        link = victim(small_internet)
        schedule(small_internet, link, (100.0, 100.0))
        small_internet.set_time(150.0)  # the injector itself fails the link
        assert link.failed
        small_internet.set_time(250.0)
        assert not link.failed

    def test_ownership_resets_each_window(self, small_internet):
        # Own the link in window one, release it, then respect a manual
        # failure that lands between the windows.
        link = victim(small_internet)
        schedule(small_internet, link, (100.0, 50.0), (300.0, 50.0))
        small_internet.set_time(120.0)
        assert link.failed
        small_internet.set_time(200.0)
        assert not link.failed
        link.fail()  # manual failure between the two windows
        small_internet.set_time(320.0)
        assert link.failed
        small_internet.set_time(400.0)  # second window ends: manual owner keeps it
        assert link.failed
        link.restore()

    def test_uninstall_keeps_manual_failure(self, small_internet):
        link = victim(small_internet)
        injector = schedule(small_internet, link, (100.0, 100.0))
        link.fail()  # manual, while the window is closed
        small_internet.set_time(150.0)
        injector.uninstall()
        assert link.failed
        link.restore()

    def test_uninstall_restores_what_it_failed(self, small_internet):
        link = victim(small_internet)
        injector = schedule(small_internet, link, (100.0, 100.0))
        small_internet.set_time(150.0)
        assert link.failed
        injector.uninstall()
        assert not link.failed
