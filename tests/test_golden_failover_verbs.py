"""Golden digests for the two link-failure studies.

``repro control`` (the failover study) and the availability study are
the experiments that fail links on a fixed schedule.  Their result
JSON, written exactly as ``--out`` writes it, must stay byte-identical
across refactors of the fault path; the digests below were recorded
when both studies still drove a separate failure schedule instead of a
:class:`~repro.faults.injector.FaultInjector`.
"""

from __future__ import annotations

import hashlib

import pytest

from repro.experiments.availability import AvailabilityConfig, run_availability
from repro.experiments.control_exp import ControlExpConfig, run_control
from repro.io import dump_json

GOLDEN = {
    ("control", 7): "cc6fdfc4281642a62c2f10508ddcd96e00663d1e0c3509ae6f4d9e95c5c828ad",
    ("control", 11): "942c3ed71eacacdce683b532d3ffedc77da64f99a599cabf3253f437be42ad53",
    ("availability", 7): "3340cc5d84bb275c2e1d7f4369616aedd25806b77ad110cff5cef629f507d7f5",
    ("availability", 11): "3f42c6b225811266c8732bbfd8ec64d3007ae147564ee22c613bdc22a540aa25",
}

RUNNERS = {
    "control": lambda seed: run_control(ControlExpConfig(seed=seed)),
    "availability": lambda seed: run_availability(AvailabilityConfig(seed=seed)),
}


@pytest.mark.parametrize("verb,seed", sorted(GOLDEN))
def test_result_json_matches_golden_digest(verb, seed, tmp_path):
    target = dump_json(RUNNERS[verb](seed), tmp_path / f"{verb}-{seed}.json")
    digest = hashlib.sha256(target.read_bytes()).hexdigest()
    assert digest == GOLDEN[(verb, seed)]
