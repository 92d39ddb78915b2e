"""Online embedding heuristic.

One request is served with at most three shortest-path computations: a
residual-bandwidth-weighted Dijkstra from the user endpoint toward the
candidate remote endpoints, then (after a first placement round on those
paths) one tree from each side toward under-used detour nodes whose residual
CPU strictly beats everything the initial paths touched. Candidate solutions
are scanned in cost order and the first one that does not break any running
chain wins.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass

from .service import DOWN, UP, ServiceRequest
from .state import (
    ChainEmbedding,
    CostParams,
    Embedding,
    NetworkState,
    chain_latency,
    cpu_demand,
    embedding_cost,
    recheck_operational,
    validate_request_nodes,
)
from .topology import NodeId, PhysicalNetwork

REASON_NO_ROUTE = "no-route"
REASON_INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class EmbedOutcome:
    """Result of one embedding attempt; ``embedding is None`` means rejected."""

    embedding: Embedding | None
    cost: float | None = None
    chain_latencies: tuple[float, ...] = ()
    service_id: int | None = None
    reason: str | None = None

    @property
    def accepted(self) -> bool:
        return self.embedding is not None


@dataclass(frozen=True)
class CandidateSolution:
    path: tuple[NodeId, ...]
    embedding: Embedding
    cost: float
    chain_latencies: tuple[float, ...]

    def sort_key(self) -> tuple:
        return (self.cost, len(self.path), self.path)


def _dijkstra(
    net: PhysicalNetwork,
    residual_beta: list[int],
    source: NodeId,
    targets: frozenset[NodeId] | set[NodeId],
    beta_bar: int,
    delta: float,
) -> tuple[list[float], list[int]]:
    """Cheapest-residual-bandwidth tree from ``source``.

    Arcs whose residual cannot carry the request's total bandwidth are never
    relaxed; the search stops once every target is settled. Returns distance
    and parent arrays (parent -1 where unreached).
    """
    dist = [math.inf] * net.n_nodes
    parent = [-1] * net.n_nodes
    done = [False] * net.n_nodes
    dist[source] = 0.0
    heap: list[tuple[float, NodeId]] = [(0.0, source)]
    remaining = set(targets)
    while heap:
        d, here = heapq.heappop(heap)
        if done[here]:
            continue
        done[here] = True
        remaining.discard(here)
        if not remaining:
            break
        for neighbor, arc in net.adjacency[here]:
            if done[neighbor]:
                continue
            residual = residual_beta[arc]
            if residual < beta_bar:
                continue
            candidate = d + beta_bar / (residual + delta)
            if candidate < dist[neighbor]:
                dist[neighbor] = candidate
                parent[neighbor] = here
                heapq.heappush(heap, (candidate, neighbor))
    return dist, parent


def _walk_back(parent: list[int], source: NodeId, target: NodeId) -> tuple[NodeId, ...]:
    path = [target]
    while path[-1] != source:
        path.append(parent[path[-1]])
    path.reverse()
    return tuple(path)


def place_on_path(
    state: NetworkState,
    path: tuple[NodeId, ...],
    req: ServiceRequest,
    params: CostParams,
) -> tuple[CandidateSolution | None, str | None]:
    """Embed every chain of ``req`` along one physical path.

    Region-bound VSNFs go to the matching path end; everything else is
    co-located on the non-vetoed path node with the largest residual CPU
    (ties to the lowest id). Returns the candidate with its cost, or
    ``(None, violation_code)``.
    """
    net = state.net
    ep1, ep2 = path[0], path[-1]
    position = {node: idx for idx, node in enumerate(path)}

    eligible = [n for n in path if n not in req.veto]
    hotspot: NodeId | None = None
    if eligible:
        hotspot = max(eligible, key=lambda n: (state.residual_gamma[n], -n))

    total_cpu = sum(
        cpu_demand(spec.gamma_u, chain.beta_req)
        for chain in req.chains
        for spec in chain.vsnfs
    )
    if eligible and total_cpu > sum(state.residual_gamma[n] for n in set(eligible)):
        return None, "node-capacity"

    chain_embeddings = []
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
            ChainEmbedding(src=src, dst=dst, vsnf_nodes=tuple(hosts), segments=tuple(segments))
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
    cost = embedding_cost(state, emb, req, net, params)
    return CandidateSolution(path, emb, cost, tuple(latencies)), None


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
    comparison runs). ``expand_all_ep2`` grows detour paths toward every
    reachable remote endpoint instead of only the best initial one, at the
    price of extra shortest-path runs.
    """
    net = state.net
    validate_request_nodes(net, req)
    beta_bar = req.total_bandwidth()

    dist, parent = _dijkstra(
        net, state.residual_beta, req.ep1, req.ep2_set, beta_bar, params.delta
    )
    reached = [t for t in sorted(req.ep2_set) if not math.isinf(dist[t])]
    if not reached:
        return EmbedOutcome(None, reason=REASON_NO_ROUTE)

    candidates: list[CandidateSolution] = []
    initial_paths = []
    for target in reached:
        path = _walk_back(parent, req.ep1, target)
        initial_paths.append(path)
        candidate, _ = place_on_path(state, path, req, params)
        if candidate is not None:
            candidates.append(candidate)

    # Detour round: look for spare CPU beyond whatever the initial paths saw.
    path_nodes = {node for path in initial_paths for node in path}
    max_seen = max(state.residual_gamma[node] for node in path_nodes)
    expansion = {
        node
        for node in range(net.n_nodes)
        if node not in path_nodes
        and node not in req.veto
        and state.residual_gamma[node] > max_seen
    }
    if expansion:
        if candidates:
            best_initial = min(candidates, key=CandidateSolution.sort_key)
            anchor_ep2s = [best_initial.path[-1]]
        else:
            # No initial placement worked; anchor the detours at the remote
            # endpoint whose path was cheapest so the expansion can still
            # rescue the request.
            anchor_ep2s = [min(reached, key=lambda t: (dist[t], t))]
        if expand_all_ep2:
            anchor_ep2s = reached
        dist1, parent1 = _dijkstra(
            net, state.residual_beta, req.ep1, expansion, beta_bar, params.delta
        )
        for anchor in anchor_ep2s:
            dist2, parent2 = _dijkstra(
                net, state.residual_beta, anchor, expansion, beta_bar, params.delta
            )
            for via in sorted(expansion):
                if math.isinf(dist1[via]) or math.isinf(dist2[via]):
                    continue
                head = _walk_back(parent1, req.ep1, via)
                tail = _walk_back(parent2, anchor, via)
                joined = head + tuple(reversed(tail))[1:]
                if len(set(joined)) != len(joined):
                    continue
                candidate, _ = place_on_path(state, joined, req, params)
                if candidate is not None:
                    candidates.append(candidate)

    if not candidates:
        return EmbedOutcome(None, reason=REASON_INFEASIBLE)

    candidates.sort(key=CandidateSolution.sort_key, reverse=scan_descending)
    for candidate in candidates:
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
    return EmbedOutcome(None, reason=REASON_INFEASIBLE)
