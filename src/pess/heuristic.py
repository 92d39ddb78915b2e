"""Online embedding heuristic.

One request grows a residual-bandwidth-weighted Dijkstra tree from the user
endpoint until the candidate remote endpoints are settled; their tree paths
are the initial candidates. A detour round follows when some node beyond
those paths has residual CPU that strictly beats everything they touch: the
user-side tree is grown on toward those nodes, and one tree is grown from
the detour anchor (the remote end of the best feasible initial path) toward
them. Each such node ``via`` gives one detour: the user tree's path to it,
then the anchor tree's path back.

Candidates are scanned best-first, in ``(cost, len(path), path)`` order,
from one heap; the first that places, passes its checks and breaks no
running chain wins. Initial paths enter it priced exactly. A detour enters
it with a lower bound of its cost from per-tree prefix sums
(``detour_bounds``), and is walked out of the trees and priced only when
that bound pops; the scan order, and so the decision, is the one a full
sort of every priced path would give.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, replace

from .service import UP, ServiceRequest
from .state import (
    ChainEmbedding,
    ChainLoad,
    CostParams,
    Embedding,
    NetworkState,
    arc_demands,
    chain_latency,
    cpu_demand,
    recheck_operational,
    validate_request_nodes,
)
from .topology import NodeId, PhysicalNetwork

REASON_NO_ROUTE = "no-route"
REASON_INFEASIBLE = "infeasible"

# Relative amount taken off a detour's cost bound, far above float rounding.
BOUND_SLACK = 1e-9

# VSNF hosts per chain, and the cost of the candidate they make.
Placement = tuple[tuple[tuple[NodeId, ...], ...], float]


@dataclass(frozen=True)
class EmbedOutcome:
    """Result of one embedding attempt; ``embedding is None`` means rejected.

    An ``infeasible`` rejection names in ``violation`` what stopped the first
    candidate in scan order: its ``place_on_path`` code, or ``op-latency``
    when only the operational recheck failed it. When no path can place the
    VSNFs at all, it is the first path's ``region`` or ``veto``.
    """

    embedding: Embedding | None
    cost: float | None = None
    chain_latencies: tuple[float, ...] = ()
    loads: tuple[ChainLoad, ...] = ()  # what was checked, and so what registers
    service_id: int | None = None
    reason: str | None = None
    violation: str | None = None

    @property
    def accepted(self) -> bool:
        return self.embedding is not None


class _Tree:
    """Cheapest-residual-bandwidth search tree from ``source``, grown on demand.

    Arcs whose residual cannot carry the request's total bandwidth are never
    relaxed. Settled distances and parents are final, so growing the tree
    toward more targets reads the same values a fresh search would.
    """

    def __init__(
        self,
        net: PhysicalNetwork,
        residual_beta: list[int],
        source: NodeId,
        beta_bar: int,
        delta: float,
    ) -> None:
        self.net = net
        self.residual_beta = residual_beta
        self.source = source
        self.beta_bar = beta_bar
        self.delta = delta
        self.dist = [math.inf] * net.n_nodes
        self.parent = [-1] * net.n_nodes
        self.parent_arc = [-1] * net.n_nodes
        self.done = [False] * net.n_nodes
        self.dist[source] = 0.0
        self.heap: list[tuple[float, NodeId]] = [(0.0, source)]

    def grow(self, targets) -> None:
        """Settle nodes until every target is settled or none is left reachable."""
        dist, parent, parent_arc, done = self.dist, self.parent, self.parent_arc, self.done
        residual_beta, beta_bar, delta = self.residual_beta, self.beta_bar, self.delta
        adjacency, heap = self.net.adjacency, self.heap
        remaining = {t for t in targets if not done[t]}
        while remaining and heap:
            d, here = heapq.heappop(heap)
            if done[here]:
                continue
            done[here] = True
            remaining.discard(here)
            for neighbor, arc in adjacency[here]:
                if done[neighbor]:
                    continue
                residual = residual_beta[arc]
                if residual < beta_bar:
                    continue
                candidate = d + beta_bar / (residual + delta)
                if candidate < dist[neighbor]:
                    dist[neighbor] = candidate
                    parent[neighbor] = here
                    parent_arc[neighbor] = arc
                    heapq.heappush(heap, (candidate, neighbor))

    def path_to(self, target: NodeId) -> tuple[tuple[NodeId, ...], list[int]]:
        """Tree path from the source to a settled ``target``, and its arcs."""
        nodes = [target]
        arcs = []
        while nodes[-1] != self.source:
            arcs.append(self.parent_arc[nodes[-1]])
            nodes.append(self.parent[nodes[-1]])
        nodes.reverse()
        arcs.reverse()
        return tuple(nodes), arcs

    def prefixes(
        self, targets, residual_gamma: list[int], veto: frozenset[NodeId]
    ) -> dict[NodeId, tuple[float, float, NodeId | None]]:
        """Along the tree path to each settled target: the sums of
        ``1 / (residual + delta)`` over its arcs and over their reverse arcs,
        and its hotspot (see ``price_path``). Returned for every node on
        those paths, each worked out once from its parent's."""
        source = self.source
        sums = {source: (0.0, 0.0, None if source in veto else source)}
        parent, parent_arc = self.parent, self.parent_arc
        residual_beta, delta = self.residual_beta, self.delta
        for target in targets:
            pending = []
            node = target
            while node not in sums:
                pending.append(node)
                node = parent[node]
            forward, backward, hotspot = sums[node]
            for node in reversed(pending):
                arc = parent_arc[node]
                forward += 1.0 / (residual_beta[arc] + delta)
                backward += 1.0 / (residual_beta[arc ^ 1] + delta)
                if node not in veto and _hotter(node, hotspot, residual_gamma):
                    hotspot = node
                sums[node] = (forward, backward, hotspot)
        return sums


def _hotter(node: NodeId, than: NodeId | None, residual_gamma: list[int]) -> bool:
    """Whether ``node`` beats ``than`` as hotspot: more residual CPU, ties to
    the lower id; anything beats ``None``."""
    return (
        than is None
        or residual_gamma[node] > residual_gamma[than]
        or (residual_gamma[node] == residual_gamma[than] and node < than)
    )


def price_path(
    state: NetworkState,
    path: tuple[NodeId, ...],
    arcs: list[int],
    req: ServiceRequest,
    params: CostParams,
) -> tuple[Placement | None, str | None]:
    """Cheap half of ``place_on_path``: where the VSNFs go and what it costs.

    ``arcs[i]`` is the arc from ``path[i]`` to ``path[i + 1]``. Region-bound
    VSNFs go to the matching path end; everything else is co-located on the
    non-vetoed path node with the largest residual CPU (ties to the lowest
    id). Returns the placement, or ``(None, "region" | "veto")``. The cost
    sums the terms of ``embedding_cost`` in the same order, so it equals the
    built embedding's cost bit for bit.
    """
    net = state.net
    residual_gamma = state.residual_gamma
    ep1, ep2 = path[0], path[-1]
    position = {node: idx for idx, node in enumerate(path)}
    hotspot: NodeId | None = None
    for node in path:
        if node not in req.veto and _hotter(node, hotspot, residual_gamma):
            hotspot = node

    hosts_by_chain = []
    for chain in req.chains:
        hosts = []
        for spec in chain.vsnfs:
            if spec.region == "ep1":
                host = req.ep1
            elif spec.region is not None:
                members = net.regions.get(spec.region)
                if members is None or ep2 not in members:
                    return None, "region"
                host = ep2
            else:
                if hotspot is None:
                    return None, "veto"
                host = hotspot
            if host in req.veto:
                return None, "veto"
            if host not in position:
                return None, "region"
            hosts.append(host)
        hosts_by_chain.append(tuple(hosts))

    # Per chain: the arcs of each segment in route order (a segment that runs
    # back along the path takes the reverse arcs), then the CPU terms.
    residual_beta, delta, alpha = state.residual_beta, params.delta, params.alpha
    cost = 0.0
    for chain, hosts in zip(req.chains, hosts_by_chain):
        beta = chain.beta_req
        src, dst = (ep1, ep2) if chain.direction == UP else (ep2, ep1)
        at = position[src]
        for node in (*hosts, dst):
            to = position[node]
            if at <= to:
                for arc in arcs[at:to]:
                    cost += beta / (residual_beta[arc] + delta)
            else:
                for idx in range(at - 1, to - 1, -1):
                    cost += beta / (residual_beta[arcs[idx] ^ 1] + delta)
            at = to
        for node, spec in zip(hosts, chain.vsnfs):
            cost += alpha * cpu_demand(spec.gamma_u, beta) / (residual_gamma[node] + delta)
    return (tuple(hosts_by_chain), cost), None


def detour_bounds(
    state: NetworkState,
    req: ServiceRequest,
    params: CostParams,
    user: _Tree,
    remote: _Tree,
    vias: list[NodeId],
) -> list[float]:
    """Lower bounds of ``price_path``'s cost for the detour through each via:
    ``user``'s tree path to ``via`` followed by ``remote``'s, reversed.

    The bound is the up chains' bandwidth times the forward inverse-residual
    sums (user tree arcs, reversed remote tree arcs), plus the down chains'
    times the backward sums, plus ``alpha`` times the request's CPU demand
    over the hotspot's residual CPU plus ``delta``; the sums and the hotspot
    come from both trees' paths to ``via``. When no VSNF is region-pinned,
    ``price_path`` puts every VSNF on the hotspot, so each up chain crosses
    every arc of the path forward once and each down chain backward once,
    and the bound is the cost in exact arithmetic. A pinned VSNF only adds
    to the cost: it sits on a path end, and an up chain's route still runs
    from the first path node to the last, so it crosses every arc forward at
    least once (a down chain backward); that end is either vetoed, and the
    path refused, or has at most the hotspot's residual CPU. Both sides add
    up a few tens of non-negative terms, each operation rounding by at most
    a relative 2**-53, so rounding moves them by a relative 1e-14 or so.
    Taking off ``BOUND_SLACK`` keeps each bound at or below the exact sum.
    A detour whose path is not simple, or whose nodes are all vetoed, gets a
    bound all the same; the scan drops it when it walks it.
    """
    residual_gamma, veto, delta = state.residual_gamma, req.veto, params.delta
    up_beta = sum(chain.beta_req for chain in req.chains if chain.direction == UP)
    down_beta = req.total_bandwidth() - up_beta
    cpu_weight = params.alpha * sum(
        cpu_demand(spec.gamma_u, chain.beta_req) for chain in req.chains for spec in chain.vsnfs
    )
    at_user = user.prefixes(vias, residual_gamma, veto)
    at_remote = remote.prefixes(vias, residual_gamma, veto)
    bounds = []
    for via in vias:
        user_fwd, user_bwd, hotspot = at_user[via]
        remote_fwd, remote_bwd, remote_hot = at_remote[via]
        if remote_hot is not None and _hotter(remote_hot, hotspot, residual_gamma):
            hotspot = remote_hot
        bound = up_beta * (user_fwd + remote_bwd) + down_beta * (user_bwd + remote_fwd)
        if cpu_weight and hotspot is not None:
            bound += cpu_weight / (residual_gamma[hotspot] + delta)
        bounds.append(bound * (1.0 - BOUND_SLACK))
    return bounds


def check_placement(
    state: NetworkState,
    path: tuple[NodeId, ...],
    placement: Placement,
    req: ServiceRequest,
    params: CostParams,
) -> tuple[EmbedOutcome | None, str | None]:
    """Costly half of ``place_on_path``: build the embedding of a priced
    placement and its chains' loads, and run the stateful, capacity and
    latency checks; the outcome carries the loads for ``register``."""
    net = state.net
    hosts_by_chain, cost = placement
    ep1, ep2 = path[0], path[-1]
    position = {node: idx for idx, node in enumerate(path)}
    chain_embeddings = []
    for chain, hosts in zip(req.chains, hosts_by_chain):
        src, dst = (ep1, ep2) if chain.direction == UP else (ep2, ep1)
        entity_hosts = [src, *hosts, dst]
        segments = []
        for a, b in zip(entity_hosts, entity_hosts[1:]):
            ia, ib = position[a], position[b]
            if ia <= ib:
                segments.append(tuple(path[ia : ib + 1]))
            else:
                segments.append(tuple(reversed(path[ib : ia + 1])))
        chain_embeddings.append(
            ChainEmbedding(src=src, dst=dst, vsnf_nodes=hosts, segments=tuple(segments))
        )

    emb = Embedding(tuple(chain_embeddings))
    for group in req.stateful_groups:
        hosts = {emb.chains[c].vsnf_nodes[p] for c, p in group}
        if len(hosts) != 1:
            return None, "stateful"
    # Node capacity, the usual failure near CPU saturation, needs neither
    # arcs nor delays, so it is checked before the loads are built.
    for node, demand in emb.cpu_demands(req).items():
        if demand > state.residual_gamma[node]:
            return None, "node-capacity"
    loads = emb.loads(req, net)
    for arc, demand in arc_demands(loads).items():
        if demand > state.residual_beta[arc]:
            return None, "link-capacity"
    latencies = []
    for load in loads:
        latency = chain_latency(state, load, params.delta)
        if latency > load.chain.lambda_max:
            return None, "latency"
        latencies.append(latency)
    return EmbedOutcome(emb, cost, tuple(latencies), loads=loads), None


def place_on_path(
    state: NetworkState,
    path: tuple[NodeId, ...],
    req: ServiceRequest,
    params: CostParams,
) -> tuple[EmbedOutcome | None, str | None]:
    """Embed every chain of ``req`` along one physical path.

    Places the VSNFs and prices the candidate (``price_path``), then builds
    and checks it (``check_placement``). Returns the unregistered outcome,
    with its cost and chain latencies, or ``(None, violation_code)``.
    """
    arcs = [state.net.arc(a, b) for a, b in zip(path, path[1:])]
    placement, code = price_path(state, path, arcs, req, params)
    if placement is None:
        return None, code
    return check_placement(state, path, placement, req, params)


def pess_embed(
    state: NetworkState,
    req: ServiceRequest,
    params: CostParams = CostParams(),
    *,
    register: bool = True,
) -> EmbedOutcome:
    """Try to embed one service request on the current network state.

    Candidate paths are scanned in ``(cost, len(path), path)`` order, the
    order a full sort of every priced path gives, and the first one that
    places, passes its checks and breaks no running chain is taken. Initial
    paths are priced exactly. A detour enters the scan with a lower bound of
    its cost, and is walked out of the trees and priced only when the scan
    reaches that bound.

    ``register=False`` evaluates without committing.
    """
    net = state.net
    validate_request_nodes(net, req)
    beta_bar = req.total_bandwidth()

    user = _Tree(net, state.residual_beta, req.ep1, beta_bar, params.delta)
    user.grow(req.ep2_set)
    reached = [t for t in sorted(req.ep2_set) if not math.isinf(user.dist[t])]
    if not reached:
        return EmbedOutcome(None, reason=REASON_NO_ROUTE)

    # Scan heap: priced paths as (cost, 1, len(path), path) and detour
    # bounds as (bound, 0, via). At equal value a bound pops first. Each
    # path is built and checked at most once.
    heap: list[tuple] = []
    checked: dict[tuple[NodeId, ...], tuple[EmbedOutcome | None, str | None]] = {}
    unplaced: str | None = None

    def rank(path: tuple[NodeId, ...], arcs: list[int]) -> None:
        nonlocal unplaced
        placement, code = price_path(state, path, arcs, req, params)
        if placement is None:
            unplaced = unplaced or code
        else:
            heapq.heappush(heap, (placement[1], 1, len(path), path))

    def detour(remote: _Tree, via: NodeId) -> None:
        head, head_arcs = user.path_to(via)
        tail, tail_arcs = remote.path_to(via)
        joined = head + tail[-2::-1]
        if len(set(joined)) == len(joined):
            rank(joined, head_arcs + [arc ^ 1 for arc in reversed(tail_arcs)])

    def check(path: tuple[NodeId, ...]) -> tuple[EmbedOutcome | None, str | None]:
        if path not in checked:
            checked[path] = place_on_path(state, path, req, params)
        return checked[path]

    path_nodes: set[NodeId] = set()
    for target in reached:
        path, arcs = user.path_to(target)
        path_nodes.update(path)
        rank(path, arcs)

    # Detour round: look for spare CPU beyond whatever the initial paths saw.
    max_seen = max(state.residual_gamma[node] for node in path_nodes)
    expansion = {
        node
        for node in range(net.n_nodes)
        if node not in path_nodes
        and node not in req.veto
        and state.residual_gamma[node] > max_seen
    }
    if expansion:
        # Anchor at the remote end of the cheapest initial path that places;
        # failing that, at the remote endpoint whose path was cheapest, so
        # the expansion can still rescue the request.
        anchor = min(reached, key=lambda t: (user.dist[t], t))
        for entry in sorted(heap):
            if check(entry[3])[0] is not None:
                anchor = entry[3][-1]
                break
        user.grow(expansion)
        remote = _Tree(net, state.residual_beta, anchor, beta_bar, params.delta)
        remote.grow(expansion)
        vias = [
            via
            for via in sorted(expansion)
            if not math.isinf(user.dist[via]) and not math.isinf(remote.dist[via])
        ]
        for via, bound in zip(vias, detour_bounds(state, req, params, user, remote, vias)):
            heapq.heappush(heap, (bound, 0, via))

    # Best-first scan: a popped bound is replaced by its priced detour, which
    # pops once nothing cheaper is left. Paths tied on (cost, len(path), path)
    # are the same path.
    violation = None
    while heap:
        entry = heapq.heappop(heap)
        if not entry[1]:
            detour(remote, entry[2])
            continue
        outcome, code = check(entry[3])
        if outcome is None:
            violation = violation or code
            continue
        if recheck_operational(state, outcome.embedding, req, params).ok:
            if not register:
                return outcome
            service_id = state.register(outcome.loads, params)
            return replace(outcome, service_id=service_id)
        violation = violation or "op-latency"
    # No path ranked at all: name what stopped the first one from placing.
    return EmbedOutcome(None, reason=REASON_INFEASIBLE, violation=violation or unplaced)
