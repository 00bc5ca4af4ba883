"""Shared fixtures: a small deterministic world reused across tests."""

from __future__ import annotations

import pytest

from repro.net import Internet, TopologyConfig, generate_topology
from repro.net.asn import ASKind
from repro.rand import RandomStreams


@pytest.fixture(scope="session")
def small_topology():
    """A small generated topology (session-scoped: generation is pure)."""
    streams = RandomStreams(seed=1234)
    return generate_topology(TopologyConfig.small(), streams)


def build_small_internet() -> Internet:
    """A small Internet with a cloud AS and three hosts."""
    streams = RandomStreams(seed=1234)
    topo = generate_topology(TopologyConfig.small(), streams)
    t1s = [a.asn for a in topo.ases_of_kind(ASKind.TIER1)]
    transits = [a.asn for a in topo.ases_of_kind(ASKind.TRANSIT)]
    cloud = topo.add_cloud_as(
        "softcloud",
        ("dallas", "amsterdam", "tokyo", "san_jose", "washington_dc"),
        t1s[:2],
        transits,
    )
    net = Internet(topo, streams)
    stubs = topo.ases_of_kind(ASKind.STUB)
    net.attach_host("client", stubs[0].asn, kind="planetlab")
    net.attach_host("server", stubs[-1].asn, kind="server")
    net.attach_host("vm", cloud.asn, kind="cloud_vm")
    net.cloud_asn = cloud.asn  # convenience for tests
    return net


@pytest.fixture()
def small_internet():
    """A freshly built :func:`build_small_internet` world.

    Function-scoped because tests mutate link state (failures) and
    attach hosts.
    """
    return build_small_internet()


@pytest.fixture(scope="module")
def module_internet():
    """One :func:`build_small_internet` world shared by a test module.

    For property tests that run many examples: each example must leave
    link state and clock hooks as it found them.
    """
    return build_small_internet()
