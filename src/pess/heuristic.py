"""Online embedding heuristic.

One request grows a residual-bandwidth-weighted Dijkstra tree from the user
endpoint until the candidate remote endpoints are settled; their tree paths
are the initial candidates. A detour round follows when some node beyond
those paths has residual CPU that strictly beats everything they touch: the
user-side tree is grown on toward those nodes, and one tree is grown from
the detour anchor (the remote end of the best feasible initial path, or
every reachable remote endpoint) toward them. Every candidate path is ranked
by its cost alone; full embeddings are built and checked lazily in scan
order, and the first one that does not break any running chain wins.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .service import UP, ServiceRequest
from .state import (
    ChainEmbedding,
    CostParams,
    Embedding,
    NetworkState,
    chain_latency,
    cpu_demand,
    recheck_operational,
    validate_request_nodes,
)
from .topology import NodeId, PhysicalNetwork

REASON_NO_ROUTE = "no-route"
REASON_INFEASIBLE = "infeasible"

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
    service_id: int | None = None
    reason: str | None = None
    violation: str | None = None

    @property
    def accepted(self) -> bool:
        return self.embedding is not None


@dataclass(frozen=True)
class CandidateSolution:
    path: tuple[NodeId, ...]
    embedding: Embedding
    cost: float
    chain_latencies: tuple[float, ...]


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
        if node not in req.veto and (
            hotspot is None
            or residual_gamma[node] > residual_gamma[hotspot]
            or (residual_gamma[node] == residual_gamma[hotspot] and node < hotspot)
        ):
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


def check_placement(
    state: NetworkState,
    path: tuple[NodeId, ...],
    placement: Placement,
    req: ServiceRequest,
    params: CostParams,
) -> tuple[CandidateSolution | None, str | None]:
    """Costly half of ``place_on_path``: build the embedding of a priced
    placement and run the stateful, capacity and latency checks."""
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
    for node, demand in emb.cpu_demands(req).items():
        if demand > state.residual_gamma[node]:
            return None, "node-capacity"
    for arc, demand in emb.bw_demands(req, net).items():
        if demand > state.residual_beta[arc]:
            return None, "link-capacity"
    latencies = []
    for cemb, chain in zip(emb.chains, req.chains):
        latency = chain_latency(state, cemb, chain, net, params.delta)
        if latency > chain.lambda_max:
            return None, "latency"
        latencies.append(latency)
    return CandidateSolution(path, emb, cost, tuple(latencies)), None


def place_on_path(
    state: NetworkState,
    path: tuple[NodeId, ...],
    req: ServiceRequest,
    params: CostParams,
) -> tuple[CandidateSolution | None, str | None]:
    """Embed every chain of ``req`` along one physical path.

    Places the VSNFs and prices the candidate (``price_path``), then builds
    and checks it (``check_placement``). Returns the candidate with its cost,
    or ``(None, violation_code)``.
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
    scan_descending: bool = False,
    expand_all_ep2: bool = False,
) -> EmbedOutcome:
    """Try to embed one service request on the current network state.

    ``register=False`` evaluates without committing. ``scan_descending``
    flips the acceptance scan to try expensive candidates first (kept for
    comparison runs). ``expand_all_ep2`` anchors detour paths at every
    reachable remote endpoint instead of only the remote end of the best
    feasible initial path, at the price of one more tree per endpoint.
    """
    net = state.net
    validate_request_nodes(net, req)
    beta_bar = req.total_bandwidth()

    user = _Tree(net, state.residual_beta, req.ep1, beta_bar, params.delta)
    user.grow(req.ep2_set)
    reached = [t for t in sorted(req.ep2_set) if not math.isinf(user.dist[t])]
    if not reached:
        return EmbedOutcome(None, reason=REASON_NO_ROUTE)

    # Rank every path by (cost, length, path); only paths walked in scan
    # order are built and checked, each at most once.
    ranked: list[tuple[float, int, tuple[NodeId, ...]]] = []
    checked: dict[tuple[NodeId, ...], tuple[CandidateSolution | None, str | None]] = {}
    unplaced: str | None = None

    def rank(path: tuple[NodeId, ...], arcs: list[int]) -> None:
        nonlocal unplaced
        placement, code = price_path(state, path, arcs, req, params)
        if placement is None:
            unplaced = unplaced or code
        else:
            ranked.append((placement[1], len(path), path))

    def check(path: tuple[NodeId, ...]) -> tuple[CandidateSolution | None, str | None]:
        if path not in checked:
            checked[path] = place_on_path(state, path, req, params)
        return checked[path]

    path_nodes: set[NodeId] = set()
    for target in reached:
        path, arcs = user.path_to(target)
        path_nodes.update(path)
        rank(path, arcs)
    n_initial = len(ranked)

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
        if expand_all_ep2:
            anchors = reached
        else:
            # Anchor at the remote end of the cheapest initial path that
            # places; failing that, at the remote endpoint whose path was
            # cheapest, so the expansion can still rescue the request.
            anchors = [min(reached, key=lambda t: (user.dist[t], t))]
            for _, _, path in sorted(ranked[:n_initial]):
                if check(path)[0] is not None:
                    anchors = [path[-1]]
                    break
        user.grow(expansion)
        for anchor in anchors:
            remote = _Tree(net, state.residual_beta, anchor, beta_bar, params.delta)
            remote.grow(expansion)
            for via in sorted(expansion):
                if math.isinf(user.dist[via]) or math.isinf(remote.dist[via]):
                    continue
                head, head_arcs = user.path_to(via)
                tail, tail_arcs = remote.path_to(via)
                joined = head + tail[-2::-1]
                if len(set(joined)) != len(joined):
                    continue
                rank(joined, head_arcs + [arc ^ 1 for arc in reversed(tail_arcs)])

    ranked.sort(reverse=scan_descending)
    violation = None if ranked else unplaced
    for _, _, path in ranked:
        candidate, code = check(path)
        if candidate is None:
            violation = violation or code
            continue
        if recheck_operational(state, candidate.embedding, req, params).ok:
            service_id = None
            if register:
                service_id = state.register(candidate.embedding, req, params)
            return EmbedOutcome(
                embedding=candidate.embedding,
                cost=candidate.cost,
                chain_latencies=candidate.chain_latencies,
                service_id=service_id,
            )
        violation = violation or "op-latency"
    return EmbedOutcome(None, reason=REASON_INFEASIBLE, violation=violation)
