"""BGP/IGP re-convergence: live-aware path expansion around failures.

A real partial outage — one PoP of a transit AS goes dark — does not
make BGP abandon the AS.  Convergence happens inside-out: the IGP
detours around failed backbone links first, hot-potato egress moves to
the nearest *surviving* interconnect, and only when the AS cannot carry
the traffic at all does BGP fall over to an entirely different AS path
(RON, Andersen et al. SOSP 2001, is the classic study of how much
slack this leaves for overlays).  :meth:`Internet.resolve_live_path
<repro.net.world.Internet.resolve_live_path>` models that order by
re-expanding each candidate AS path through the helpers here before
moving on to the next candidate.

Everything in this module is a pure function of the current link
``failed`` flags: no state is kept, so rewinding the clock and
replaying a fault schedule reproduces identical convergence decisions.
"""

from __future__ import annotations

import heapq
from typing import TYPE_CHECKING

from repro.errors import RoutingError
from repro.net.links import Link

if TYPE_CHECKING:  # pragma: no cover - typing-only import
    from repro.net.world import Internet


def dark_routers(internet: "Internet") -> frozenset[int]:
    """Routers with every attached link failed — effectively powered off.

    A :class:`~repro.faults.events.PopOutage` takes down all links
    touching one PoP's router, which is exactly this condition; the
    live interconnect choice skips such routers the way BGP speakers
    drop sessions to a dead peer.
    """
    has_live: set[int] = set()
    has_failed: set[int] = set()
    for link in internet.links_by_id.values():
        bucket = has_failed if link.failed else has_live
        bucket.add(link.router_a)
        bucket.add(link.router_b)
    return frozenset(has_failed - has_live)


def _live_adjacency(internet: "Internet", asn: int) -> dict[int, list[tuple[int, Link]]]:
    """``router_id -> [(neighbor, link)]`` over the AS's live internal mesh."""
    members = {router.router_id for router in internet.routers.of_as(asn)}
    adjacency: dict[int, list[tuple[int, Link]]] = {}
    for (a, b), link in internet._internal.items():
        if link.failed or a not in members or b not in members:
            continue
        adjacency.setdefault(a, []).append((b, link))
    return adjacency


def shortest_routes(
    adjacency: dict[int, list[tuple[int, Link]]], src_id: int
) -> dict[int, tuple[tuple[int, ...], tuple[Link, ...]]]:
    """Delay-shortest route from ``src_id`` to every reachable router.

    Single-source Dijkstra over ``router_id -> [(neighbor, link)]``,
    weighted by propagation delay.  Each route is ``(router ids after
    the start, links in order)``; ``src_id`` maps to ``((), ())``.
    Ties break on router id (heap order and neighbor order both), so
    the tree is deterministic; the static all-pairs routes and the
    live IGP detours are both read off it.
    """
    routes: dict[int, tuple[tuple[int, ...], tuple[Link, ...]]] = {}
    dist: dict[int, float] = {src_id: 0.0}
    prev: dict[int, tuple[int, Link]] = {}
    heap: list[tuple[float, int]] = [(0.0, src_id)]
    while heap:
        d, node = heapq.heappop(heap)
        if node in routes:
            continue
        if node == src_id:
            routes[node] = ((), ())
        else:
            parent, link = prev[node]
            routers, links = routes[parent]
            routes[node] = (routers + (node,), links + (link,))
        for neighbor, link in sorted(adjacency.get(node, ()), key=lambda edge: edge[0]):
            candidate = d + link.prop_delay_ms
            if neighbor not in dist or candidate < dist[neighbor] - 1e-12:
                dist[neighbor] = candidate
                prev[neighbor] = (node, link)
                heapq.heappush(heap, (candidate, neighbor))
    return routes


def live_internal_route(
    internet: "Internet", asn: int, src_id: int, dst_id: int
) -> tuple[tuple[int, ...], tuple[Link, ...]]:
    """Shortest *live* intra-AS route (delay-weighted, Dijkstra).

    The IGP view of re-convergence: the same :func:`shortest_routes`
    tree as the precomputed static routes, but walking only non-failed
    links.  Returns ``(router ids after the start, links in order)``
    like ``Internet._internal_route``; raises :class:`RoutingError`
    when the failure pattern disconnects the two routers.
    """
    if src_id == dst_id:
        return ((), ())
    route = shortest_routes(_live_adjacency(internet, asn), src_id).get(dst_id)
    if route is None:
        raise RoutingError(
            f"AS{asn} has no live internal route between routers {src_id} and {dst_id}"
        )
    return route


def has_live_internal_route(
    internet: "Internet", asn: int, src_id: int, dst_id: int
) -> bool:
    """True when the AS's live internal mesh still connects the two routers."""
    try:
        live_internal_route(internet, asn, src_id, dst_id)
    except RoutingError:
        return False
    return True


def reconvergence_delta_ms(
    internet: "Internet", src_name: str, dst_name: str, at_s: float = 0.0
) -> float | None:
    """RTT penalty of the converged path over the preferred one, in ms.

    Resolves both paths under the *current* fault state.  ``None`` when
    the preferred path is alive (nothing to converge around); raises
    :class:`RoutingError` when no live path exists at all.  Chaos
    reporting uses this to quote what the sibling-PoP detour costs.
    """
    preferred = internet.resolve_path(src_name, dst_name)
    if preferred.is_alive():
        return None
    converged = internet.resolve_live_path(src_name, dst_name)
    return converged.rtt_ms(at_s) - preferred.rtt_ms(at_s)
