"""Online embedding heuristic.

One request grows a residual-bandwidth-weighted Dijkstra tree from the user
endpoint until the candidate remote endpoints are settled; their tree paths
are the initial candidates. The tree is goal-directed (``_Tree.reach``): a
backward search from the remote endpoints bounds each node's distance to
one from below, and a node whose distance plus bound exceeds the dearest
endpoint's best known path, raised by ``BOUND_SLACK``, is deferred
unsettled, since no cheapest path to an endpoint runs through it. Every
settled node still holds a full search's distance and parent: deferral is
decided when a node is popped, against the bounds of that moment, and when
deferred nodes are settled later, a node takes a parent tied on distance
that a full search would have settled first.

A detour round follows when some node beyond those paths has residual CPU
that strictly beats everything they touch: the user-side tree is grown on
toward those nodes, and one tree is grown from the detour anchor (the remote
end of the best feasible initial path) toward them. Each such node ``via``
gives one detour: the user tree's path to it, then the anchor tree's path
back.

Every candidate is priced exactly (``price_path``), and they are scanned
in ``(cost, len(path), path)`` order; the first that places, passes its
checks and breaks no running chain wins.

Before the round grows a tree, the anchor's own path is the incumbent.
``detour_vias`` bounds every detour from below by two distances, from
``ep1`` to the via and from the anchor to it, under weights that charge each
arc for the chains crossing it in each direction, and decides every via in
two phases. A search from ``ep1`` and one from the anchor grow, the nearer
frontier first, until the two frontiers add up to more than the incumbent
allows; a via that neither side settled is then ruled out, and one that both
did is decided by its two parts. A via that one side alone settled gets a
small search of its own toward the other side's root: it meets that side's
labels within what the via's settled part leaves, or shows by the
meet-in-the-middle argument that no path from the root does. Only a via
whose every detour costs more than the incumbent is ruled out, and the round
grows toward the rest only, or not at all. A ruled-out detour would sort
after the incumbent, and the incumbent, once it passes the operational
recheck, is accepted when the scan reaches it: the decision stays the same.

Float rounding. Path lengths and bounds are sums of non-negative terms,
each operation off by at most a relative 2**-53, so on an ``n``-node network
no sum is off by more than about a relative ``n * 2**-52`` (2e-13 at n =
1000). ``BOUND_SLACK`` is far above that: a detour's lower bound is lowered
by it and the tree's limit raised by it, so rounding can neither rule out a
detour nor defer a node that is needed.
"""

from __future__ import annotations

import heapq
import math
from itertools import compress
from dataclasses import dataclass

from .service import UP, ServiceRequest
from .state import (
    ChainEmbedding,
    ChainLoad,
    CostParams,
    Embedding,
    NetworkState,
    arc_demands,
    chain_latency,
    recheck_operational,
    validate_request_nodes,
)
from .topology import NodeId, PhysicalNetwork

REASON_NO_ROUTE = "no-route"
REASON_INFEASIBLE = "infeasible"

# Relative margin, far above float rounding, by which a detour's cost bound
# is lowered and the initial tree's limit raised.
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
    relaxed. Every settled node holds the distance and parent a full search
    gives it, whichever of ``reach`` and ``grow`` settled it, so growing the
    tree toward more targets reads the same values a fresh search would.

    ``reach`` grows the tree toward its first targets and leaves off nodes
    that its bounds show lie on no cheapest path to one; their entries wait in
    ``deferred`` until ``grow`` puts them back. A deferred node then settles
    after heavier ones, so ``grow`` also moves a node to a parent tied on
    distance when the parent sorts first in ``(dist, node)``, the order in
    which a full search settles them and so keeps the first. A search that
    never deferred settles in that order anyway and never moves a parent.
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
        self.deferred: list[tuple[float, NodeId]] = []

    def grow(self, targets) -> None:
        """Settle nodes until every target is settled or none is left
        reachable, first putting back the entries ``reach`` deferred."""
        dist, parent, parent_arc, done = self.dist, self.parent, self.parent_arc, self.done
        residual_beta, beta_bar, delta = self.residual_beta, self.beta_bar, self.delta
        adjacency, heap = self.net.adjacency, self.heap
        if self.deferred:
            heap += self.deferred
            heapq.heapify(heap)
            self.deferred = []
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
                known = dist[neighbor]
                if candidate < known or (
                    candidate == known and (d, here) < (dist[parent[neighbor]], parent[neighbor])
                ):
                    dist[neighbor] = candidate
                    parent[neighbor] = here
                    parent_arc[neighbor] = arc
                    if candidate < known:
                        heapq.heappush(heap, (candidate, neighbor))

    def reach(self, targets) -> None:
        """Settle every target reachable from the source, as ``grow`` does,
        but leave off the nodes that lie on no cheapest path to a target.

        A backward search from the targets, over the same arcs reversed,
        runs against the forward one and bounds each node's distance to a
        target from below: by its backward distance once that search has
        settled it, before that by the backward frontier's least key. Each
        node the two searches both reach gives a path to a target, and the
        limit is the dearest target's cheapest known path (infinite until
        every target has one). A forward pop ``(d, v)`` settles when ``d +
        bound(v)`` is at most the limit raised once by ``BOUND_SLACK``, and
        goes to ``deferred`` unsettled when it exceeds the limit raised twice.
        A push that the pop would defer is deferred at once.

        Why every settled node is final. The bounds are consistent
        (``bound(u) <= w(u, v) + bound(v)`` on every arc searched), they only
        rise and the limit only falls, so along a cheapest path ``d + bound``
        never falls by more than rounding: a relative ``n * 2**-52`` at most
        on an ``n``-node network, far below ``BOUND_SLACK``. A node on the
        cheapest path to a settled node, or one of its tied parents, was
        therefore never deferred, and the settled node took its final
        distance and parent. A target's value is its distance, at most the
        limit up to rounding, so every reachable target settles. A pop
        between the two raised limits is the one case where rounding could
        blur this; it never lies on a cheapest path to a target, so it is
        rare chance, and then its entry goes back and ``grow``, which defers
        nothing, does the rest.
        """
        dist, parent, parent_arc, done = self.dist, self.parent, self.parent_arc, self.done
        residual_beta, beta_bar, delta = self.residual_beta, self.beta_bar, self.delta
        adjacency, heap, deferred = self.net.adjacency, self.heap, self.deferred
        heappop, heappush, inf = heapq.heappop, heapq.heappush, math.inf
        n = self.net.n_nodes
        # Backward distance to the nearest target, the target it leads to,
        # and per target the cheapest path found to it.
        back = [inf] * n
        root = [-1] * n
        upper = {}
        for target in targets:
            back[target] = 0.0
            root[target] = target
            upper[target] = dist[target]
        back_heap = [(0.0, target) for target in upper]
        # A pop settles at value ``limit`` or below and is deferred above
        # ``hopeless``: the dearest target's path raised once and twice.
        raised = 1.0 + BOUND_SLACK
        limit = max(upper.values()) * raised
        hopeless = limit * raised
        remaining = {t for t in upper if not done[t]}
        # The backward frontier's least key: no node it has yet to settle is nearer.
        frontier = 0.0
        while remaining and heap:
            # Grow the backward search while it trails the forward one and
            # can still tighten a bound that decides a forward pop.
            top = heap[0][0]
            if frontier < top and top + frontier <= limit:
                key, here = heappop(back_heap)
                if key == back[here]:
                    target = root[here]
                    for neighbor, arc in adjacency[here]:
                        if back[neighbor] <= key:
                            continue
                        residual = residual_beta[arc ^ 1]
                        if residual < beta_bar:
                            continue
                        candidate = key + beta_bar / (residual + delta)
                        if candidate < back[neighbor]:
                            back[neighbor] = candidate
                            root[neighbor] = target
                            heappush(back_heap, (candidate, neighbor))
                            cost = dist[neighbor] + candidate
                            if cost < upper[target]:
                                upper[target] = cost
                                limit = max(upper.values()) * raised
                                hopeless = limit * raised
                frontier = back_heap[0][0] if back_heap else inf
                continue
            d, here = heappop(heap)
            if d > dist[here]:
                continue
            bound = back[here]
            if bound > frontier:
                bound = frontier
            if d + bound > limit:
                if d + bound > hopeless:
                    deferred.append((d, here))
                    continue
                heappush(heap, (d, here))
                self.grow(remaining)
                return
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
                    bound = back[neighbor]
                    if bound < inf:
                        target = root[neighbor]
                        if candidate + bound < upper[target]:
                            upper[target] = candidate + bound
                            limit = max(upper.values()) * raised
                            hopeless = limit * raised
                    if bound > frontier:
                        bound = frontier
                    # An entry the pop would defer is deferred now.
                    if candidate + bound > hopeless:
                        deferred.append((candidate, neighbor))
                    else:
                        heappush(heap, (candidate, neighbor))

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
        for node, demand in zip(hosts, chain.cpu_demands):
            cost += alpha * demand / (residual_gamma[node] + delta)
    return (tuple(hosts_by_chain), cost), None


def detour_vias(
    state: NetworkState,
    req: ServiceRequest,
    params: CostParams,
    user: _Tree,
    anchor: NodeId,
    expansion: set[NodeId],
    limit: float,
) -> list[NodeId]:
    """The nodes of ``expansion``, sorted, through which a detour may cost at
    most ``limit``; a detour through any other costs more.

    The detour through ``via`` is ``user``'s tree path to it, then the anchor
    tree's path back. Both trees use only arcs that carry ``beta_bar``, the
    request's total bandwidth, away from their root. An up chain's route runs
    from the first path node to the last whatever hosts its VSNFs, so it
    crosses each arc of a detour forward at least once, and a down chain
    backward. An arc ``a`` that the user tree walks so costs at least ``up /
    (r(a) + delta) + down / (r(a ^ 1) + delta)``, with ``r`` the residual
    bandwidth and ``up`` and ``down`` the two directions' total bandwidth. An
    arc the anchor tree walks is crossed the other way round, so its weight
    swaps ``up`` and ``down``. The head then costs at least the weighted
    distance from ``ep1``, and exactly the weights summed along ``user``'s
    path once it has settled ``via``; the tail costs at least the weighted
    distance from the anchor. Every VSNF sits on a node with at most the
    largest residual CPU, so the CPU terms add at least ``alpha`` times the
    request's CPU demand over that plus ``delta``, pinned VSNFs included. A
    via goes when this bound, less ``BOUND_SLACK``, exceeds ``limit``: when
    its two parts add up to more than a ``budget``.

    Balanced phase. One search grows from ``ep1`` and one from the anchor,
    always the one whose frontier is nearer, until the two frontiers add up
    to more than the budget. A via stays as soon as labels of both sides,
    each a real path, fit the budget; a via both sides settle is decided by
    its two final parts. A via that neither side settled goes: each part is
    at least its side's frontier.

    One-sided vias. A via that one side alone settled, with part ``p``, is
    decided by ``_meets_within``: a search from the via toward the other
    side's root, over that side's arcs reversed, which meets its labels
    within ``budget - p`` or shows that no path from the root does.
    """
    beta_bar = req.total_bandwidth()
    up_beta = sum(chain.beta_req for chain in req.chains if chain.direction == UP)
    down_beta = beta_bar - up_beta
    cpu_weight = params.alpha * sum(sum(chain.cpu_demands) for chain in req.chains)
    residual_beta, delta, adjacency = state.residual_beta, params.delta, state.net.adjacency
    floor = cpu_weight / (max(state.residual_gamma) + delta) if cpu_weight else 0.0
    # A via stays when its head and tail parts add up to at most ``budget``.
    budget = limit / (1.0 - BOUND_SLACK) - floor
    if budget < 0.0:
        return []

    # Per side (0: from ep1, 1: from the anchor), each pending via's part
    # once known. The heads of the vias the user tree has settled are known
    # from the start.
    pending = set(expansion)
    known0: dict[NodeId, float] = {}
    known1: dict[NodeId, float] = {}
    kept: list[NodeId] = []
    head = {req.ep1: 0.0}
    parent, parent_arc = user.parent, user.parent_arc
    for via in expansion:
        if user.done[via]:
            walk = []
            node = via
            while node not in head:
                walk.append(node)
                node = parent[node]
            cost = head[node]
            for node in reversed(walk):
                arc = parent_arc[node]
                cost += up_beta / (residual_beta[arc] + delta)
                cost += down_beta / (residual_beta[arc ^ 1] + delta)
                head[node] = cost
            known0[via] = cost

    n = state.net.n_nodes
    dist0, dist1 = [math.inf] * n, [math.inf] * n
    dist0[req.ep1] = dist1[anchor] = 0.0
    heap0, heap1 = [(0.0, req.ep1)], [(0.0, anchor)]
    # Per side: its distances, heap and known parts; the other side's
    # distances and known parts; and the bandwidth an arc walked away from
    # the side's root carries forward and backward, that is the up chains'
    # and the down chains' from ep1, and the other way round from the anchor.
    sides = (
        (dist0, heap0, known0, dist1, known1, up_beta, down_beta),
        (dist1, heap1, known1, dist0, known0, down_beta, up_beta),
    )
    # Each frontier's least key: no node its search has yet to settle is nearer.
    reach0 = reach1 = 0.0
    heappop, heappush = heapq.heappop, heapq.heappush
    while pending and reach0 + reach1 <= budget:
        side = reach1 < reach0
        (side_dist, side_heap, side_known, other_dist, other_known,
         forward_beta, backward_beta) = sides[side]
        here_dist, here = heappop(side_heap)
        if here_dist == side_dist[here]:
            if here in pending and here not in side_known:
                if here in other_known:
                    # Both parts are final; had they fitted, the via would
                    # have stayed when the later of them was found.
                    pending.discard(here)
                else:
                    side_known[here] = here_dist
            # A neighbour already this near is settled or needs nothing from here.
            for neighbor, arc in adjacency[here]:
                if side_dist[neighbor] <= here_dist:
                    continue
                residual = residual_beta[arc]
                if residual < beta_bar:
                    continue
                candidate = here_dist + forward_beta / (residual + delta)
                if backward_beta:
                    candidate += backward_beta / (residual_beta[arc ^ 1] + delta)
                if candidate < side_dist[neighbor]:
                    side_dist[neighbor] = candidate
                    heappush(side_heap, (candidate, neighbor))
                    # Paths found so far bound both parts from above: a via
                    # whose parts already fit the budget stays. Every final
                    # part is found this way, so this also keeps each via
                    # whose final parts fit.
                    if neighbor in pending and neighbor not in side_known:
                        other = other_known.get(neighbor)
                        if candidate + (other_dist[neighbor] if other is None else other) <= budget:
                            pending.discard(neighbor)
                            kept.append(neighbor)
        if side:
            reach1 = side_heap[0][0] if side_heap else math.inf
        else:
            reach0 = side_heap[0][0] if side_heap else math.inf
    # Left pending: vias one side alone settled, each searched toward the
    # other side's root, and vias neither settled, which cannot fit.
    for via in pending:
        if via in known0:
            part, other = known0[via], (dist1, reach1, down_beta, up_beta)
        elif via in known1:
            part, other = known1[via], (dist0, reach0, up_beta, down_beta)
        else:
            continue
        if _meets_within(state, beta_bar, delta, other, via, budget - part):
            kept.append(via)
    kept.sort()
    return kept


def _meets_within(
    state: NetworkState,
    beta_bar: int,
    delta: float,
    side: tuple[list[float], float, int, int],
    via: NodeId,
    room: float,
) -> bool:
    """Whether the root of one side of ``detour_vias`` reaches ``via`` within
    ``room``, the budget less the part of the via that the other side settled.

    ``side`` is that side's distances, frontier and the bandwidth an arc
    walked away from its root carries forward and backward; its search has
    stopped. A search from ``via`` walks the side's arcs reversed, with its
    weights and its ``beta_bar`` filter, and labels each node with a path's
    cost from there to the via. It answers yes as soon as a node's label and
    the side's distance, each a real path, add up to at most ``room``, and
    no once its least key and the side's frontier add up to more.

    The no is the meet-in-the-middle argument. Say a path from the root to
    the via costs at most ``room``, and take on it the last node ``x`` that
    this search has not settled (had it settled the root, at distance 0, it
    would have met the side there). The label of ``x`` is at most the cost
    of the path's rest: ``x`` is the via, labelled 0, or the next node on the
    path is settled and has relaxed the arc between them. Unsettled, that
    label is at least the least key. Had the side settled ``x``, its distance
    there would be at most the cost of the path's start and the two would
    have met, so that start costs at least the frontier. The path then costs
    more than ``room``: no such path exists.
    """
    dist, reach, forward_beta, backward_beta = side
    residual_beta, adjacency = state.residual_beta, state.net.adjacency
    heappop, heappush, inf = heapq.heappop, heapq.heappush, math.inf
    if dist[via] <= room:
        return True
    labels = {via: 0.0}
    heap = [(0.0, via)]
    while heap:
        key, here = heappop(heap)
        if key + reach > room:
            return False
        if key > labels[here]:
            continue
        for neighbor, arc in adjacency[here]:
            # The side walks the arc from ``neighbor`` to ``here``.
            residual = residual_beta[arc ^ 1]
            if residual < beta_bar:
                continue
            candidate = key + forward_beta / (residual + delta)
            if backward_beta:
                candidate += backward_beta / (residual_beta[arc] + delta)
            if candidate < labels.get(neighbor, inf):
                if dist[neighbor] + candidate <= room:
                    return True
                labels[neighbor] = candidate
                heappush(heap, (candidate, neighbor))
    return False


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

    Candidate paths are priced exactly and scanned in ``(cost, len(path),
    path)`` order, and the first one that places, passes its checks and
    breaks no running chain is taken.

    The initial paths come from the user tree grown by ``_Tree.reach``,
    which settles only nodes that may lie on a cheapest path to a remote
    endpoint; the detour round grows the same tree on, and every node it
    reads holds a full search's distance and parent.

    The detour round skips every via through which ``detour_vias`` proves
    each detour dearer than the incumbent, the cheapest initial path that
    places, once that path also passes the operational recheck: such a
    detour would sort after the incumbent, which is accepted when the scan
    reaches it. So the decision, its cost, latencies and ``violation`` are
    those of the full round, and with no incumbent the round runs in full.

    ``register=False`` evaluates without committing.
    """
    net = state.net
    validate_request_nodes(net, req)
    beta_bar = req.total_bandwidth()

    user = _Tree(net, state.residual_beta, req.ep1, beta_bar, params.delta)
    user.reach(req.ep2_set)
    reached = [t for t in sorted(req.ep2_set) if user.done[t]]
    if not reached:
        return EmbedOutcome(None, reason=REASON_NO_ROUTE)

    # Priced paths as (cost, len(path), path). Each path is built and checked
    # at most once.
    ranked: list[tuple[float, int, tuple[NodeId, ...]]] = []
    checked: dict[tuple[NodeId, ...], tuple[EmbedOutcome | None, str | None]] = {}
    rechecked: dict[tuple[NodeId, ...], bool] = {}
    unplaced: str | None = None

    def rank(path: tuple[NodeId, ...], arcs: list[int]) -> None:
        nonlocal unplaced
        placement, code = price_path(state, path, arcs, req, params)
        if placement is None:
            unplaced = unplaced or code
        else:
            ranked.append((placement[1], len(path), path))

    def check(path: tuple[NodeId, ...]) -> tuple[EmbedOutcome | None, str | None]:
        if path not in checked:
            checked[path] = place_on_path(state, path, req, params)
        return checked[path]

    def passes(path: tuple[NodeId, ...]) -> bool:
        # Whether a path that places breaks no running chain, rechecked once.
        if path not in rechecked:
            embedding = checked[path][0].embedding
            rechecked[path] = recheck_operational(state, embedding, req, params).ok
        return rechecked[path]

    path_nodes: set[NodeId] = set()
    for target in reached:
        path, arcs = user.path_to(target)
        path_nodes.update(path)
        rank(path, arcs)

    # Detour round: look for spare CPU beyond whatever the initial paths saw.
    # No path node has more than max_seen, so the filter leaves them out.
    residual_gamma = state.residual_gamma
    max_seen = max(residual_gamma[node] for node in path_nodes)
    expansion = set(compress(range(net.n_nodes), map(max_seen.__lt__, residual_gamma)))
    expansion -= req.veto
    if expansion:
        # Anchor at the remote end of the cheapest initial path that places;
        # failing that, at the remote endpoint whose path was cheapest, so
        # the expansion can still rescue the request.
        anchor = min(reached, key=lambda t: (user.dist[t], t))
        incumbent = None
        ranked.sort()
        for entry in ranked:
            if check(entry[2])[0] is not None:
                anchor, incumbent = entry[2][-1], entry
                break
        if incumbent is not None:
            # A detour dearer than the anchor's path can only matter if that
            # path fails when the scan reaches it, that is, if it breaks a
            # running chain; otherwise the round can leave such vias out.
            vias = detour_vias(state, req, params, user, anchor, expansion, incumbent[0])
            if len(vias) < len(expansion) and passes(incumbent[2]):
                expansion = vias
        if expansion:
            user.grow(expansion)
            remote = _Tree(net, state.residual_beta, anchor, beta_bar, params.delta)
            remote.grow(expansion)
            for via in sorted(expansion):
                if user.done[via] and remote.done[via]:
                    head, head_arcs = user.path_to(via)
                    tail, tail_arcs = remote.path_to(via)
                    joined = head + tail[-2::-1]
                    if len(set(joined)) == len(joined):
                        rank(joined, head_arcs + [arc ^ 1 for arc in reversed(tail_arcs)])

    violation = None
    ranked.sort()
    for _, _, path in ranked:
        outcome, code = check(path)
        if outcome is None:
            violation = violation or code
            continue
        if passes(path):
            if not register:
                return outcome
            service_id = state.register(outcome.loads, params)
            return EmbedOutcome(outcome.embedding, outcome.cost, outcome.chain_latencies,
                                outcome.loads, service_id)
        violation = violation or "op-latency"
    # No path ranked at all: name what stopped the first one from placing.
    return EmbedOutcome(None, reason=REASON_INFEASIBLE, violation=violation or unplaced)
