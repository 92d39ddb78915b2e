"""Embeddings, residual bookkeeping, delay model and the constraint battery.

All capacity accounting is integer-exact: a request debits whole cycles/s and
bits/s on acceptance and credits the same amounts on release, so rebuilding a
state from its operational records reproduces the residual vectors bit for
bit.

The latency model has three parts: a fixed external term per chain, convex
processing delays that grow as a node's residual CPU shrinks, and per-arc
propagation plus local-network queuing. Queuing is only paid where traffic
actually enters or leaves a server that runs one of the chain's VSNFs: the
departing node's half-budget on the first arc after a VSNF and the arriving
node's half-budget on the last arc before one. Pure forwarding bypasses the
local network and costs nothing beyond propagation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .service import UP, Chain, ServiceError, ServiceRequest
from .topology import NodeId, PhysicalNetwork, TopologyError


class CapacityError(ValueError):
    """A debit would push a residual below zero."""


def validate_request_nodes(net: PhysicalNetwork, req: ServiceRequest) -> None:
    """Reject requests that name nodes outside the network outright."""
    n = net.n_nodes
    for label, nodes in (("ep1", [req.ep1]), ("ep2", req.ep2_set), ("veto", req.veto)):
        for node in nodes:
            if not 0 <= node < n:
                raise ServiceError(f"{label}: node {node} not in network of {n} nodes")


@dataclass(frozen=True)
class CostParams:
    """Objective weights: alpha scales the CPU term against the bandwidth
    term, delta keeps the inverse-residual weights finite on saturated
    resources."""

    alpha: float = 1.0
    delta: float = 1e-6

    def __post_init__(self) -> None:
        if not self.alpha >= 0:
            raise ValueError("alpha must be >= 0")
        if not self.delta > 0:
            raise ValueError("delta must be > 0")


# -- embeddings ------------------------------------------------------------


@dataclass(frozen=True)
class ChainEmbedding:
    """Where one chain lives: entity hosts plus the routed path segments.

    The entity sequence is (source endpoint, VSNFs in chain order, target
    endpoint); ``segments[i]`` is the node path from entity i's host to
    entity i+1's host, a single-node tuple when both share a host.
    """

    src: NodeId
    dst: NodeId
    vsnf_nodes: tuple[NodeId, ...]
    segments: tuple[tuple[NodeId, ...], ...]

    def entity_nodes(self) -> tuple[NodeId, ...]:
        return (self.src, *self.vsnf_nodes, self.dst)

    def arcs(self, net: PhysicalNetwork) -> list[int]:
        """Directed arc indices traversed, with multiplicity."""
        out = []
        for seg in self.segments:
            for a, b in zip(seg, seg[1:]):
                out.append(net.arc(a, b))
        return out

    def to_dict(self) -> dict:
        return {
            "src": self.src,
            "dst": self.dst,
            "vsnf_nodes": list(self.vsnf_nodes),
            "segments": [list(seg) for seg in self.segments],
        }


@dataclass(frozen=True)
class Embedding:
    """One chain embedding per request chain, in request order."""

    chains: tuple[ChainEmbedding, ...]

    def cpu_demands(self, req: ServiceRequest) -> dict[NodeId, int]:
        demands: dict[NodeId, int] = {}
        for cemb, chain in zip(self.chains, req.chains):
            for node, demand in zip(cemb.vsnf_nodes, chain.cpu_demands):
                demands[node] = demands.get(node, 0) + demand
        return demands

    def loads(self, req: ServiceRequest, net: PhysicalNetwork) -> tuple[ChainLoad, ...]:
        return tuple(ChainLoad.of(c, chain, net) for c, chain in zip(self.chains, req.chains))

    def hosting_nodes(self) -> frozenset[NodeId]:
        return frozenset(n for cemb in self.chains for n in cemb.vsnf_nodes)

    def to_dict(self) -> dict:
        return {"chains": [cemb.to_dict() for cemb in self.chains]}


# -- delay model -------------------------------------------------------------


def processing_delay(
    gamma_u: float, sigma: float, residual_gamma_i: float, gamma_cu: int, delta: float
) -> float:
    """Per-packet processing delay of one VSNF on a node.

    ``residual_gamma_i`` is the node's residual CPU before this chain is
    charged and ``gamma_cu`` the chain's own demand there, so the denominator
    is what the node has left once the flow runs. Callers enforce the
    capacity constraint first, which keeps the denominator >= delta.
    """
    return gamma_u * sigma / ((residual_gamma_i - gamma_cu) + delta)


def segment_queuing_terms(
    net: PhysicalNetwork, a: NodeId, b: NodeId, idx: int, n_entities: int
) -> tuple[float, ...]:
    """Queuing half-budgets paid by the segment from entity ``idx`` on node
    ``a`` to entity ``idx + 1`` on node ``b``, in the order they are added
    after its arc delays.

    Endpoints are entities 0 and ``n_entities - 1`` and do not pay
    local-network queuing; a segment inside one host pays none.
    """
    if a == b:
        return ()
    terms = []
    if 0 < idx:
        terms.append(net.nodes[a].queuing_budget / 2.0)
    if idx + 1 < n_entities - 1:
        terms.append(net.nodes[b].queuing_budget / 2.0)
    return tuple(terms)


def chain_fixed_delay(cemb: ChainEmbedding, chain: Chain, net: PhysicalNetwork) -> float:
    """Load-independent latency: external term, propagation, queuing."""
    total = chain.pi_external
    n_entities = len(cemb.vsnf_nodes) + 2
    for idx, seg in enumerate(cemb.segments):
        for a, b in zip(seg, seg[1:]):
            total += net.arc_delay(net.arc(a, b))
        for term in segment_queuing_terms(net, seg[0], seg[-1], idx, n_entities):
            total += term
    return total


@dataclass(frozen=True)
class ChainLoad:
    """What one embedded chain draws from the network, worked out once.

    ``check_placement`` builds these for a candidate and checks them, and
    ``NetworkState.register`` commits the same objects, so what is checked
    is what is registered.
    """

    emb: ChainEmbedding
    chain: Chain
    arcs: tuple[int, ...]  # traversed arc indices, with multiplicity
    fixed_delay: float  # chain_fixed_delay
    vsnfs: tuple[tuple[NodeId, float, int], ...]  # (host, cycles/packet, CPU demand)

    @classmethod
    def of(cls, cemb: ChainEmbedding, chain: Chain, net: PhysicalNetwork) -> "ChainLoad":
        vsnfs = tuple(
            (node, spec.gamma_u * chain.sigma, demand)
            for node, spec, demand in zip(cemb.vsnf_nodes, chain.vsnfs, chain.cpu_demands)
        )
        return cls(cemb, chain, tuple(cemb.arcs(net)), chain_fixed_delay(cemb, chain, net), vsnfs)


def arc_demands(loads: tuple[ChainLoad, ...]) -> dict[int, int]:
    """A request's bandwidth demand per arc; ``Embedding.cpu_demands`` has
    its CPU demand per node."""
    bw: dict[int, int] = {}
    for load in loads:
        beta = load.chain.beta_req
        for arc in load.arcs:
            bw[arc] = bw.get(arc, 0) + beta
    return bw


def chain_latency(state: "NetworkState", load: ChainLoad, delta: float) -> float:
    """End-to-end latency of a chain against pre-acceptance residuals: the
    fixed delay, then ``processing_delay``'s terms in VSNF order."""
    residual_gamma = state.residual_gamma
    total = load.fixed_delay
    for node, cycles_per_packet, demand in load.vsnfs:
        total += cycles_per_packet / ((residual_gamma[node] - demand) + delta)
    return total


def gamma_threshold(chain: Chain, fixed_delay: float, delta: float) -> float:
    """Residual CPU below which the chain's latency bound would break.

    This is the average residual each hosting node must keep for the chain's
    processing delays to fit inside the latency budget left after the fixed
    terms. Infinity flags a chain whose fixed terms alone exhaust the budget.
    """
    cycles_per_packet = sum(spec.gamma_u * chain.sigma for spec in chain.vsnfs)
    budget = chain.lambda_max - fixed_delay
    if budget <= 0.0:
        return math.inf
    return cycles_per_packet / budget - delta


# -- cost --------------------------------------------------------------------


def embedding_cost(
    state: "NetworkState",
    emb: Embedding,
    req: ServiceRequest,
    net: PhysicalNetwork,
    params: CostParams,
) -> float:
    """Weighted resource footprint of an embedding.

    Every traversed arc contributes its bandwidth demand scaled by the
    inverse of the arc's residual, every placement its CPU demand scaled by
    the inverse of the node's residual; residuals are taken before the
    request itself is charged, so scarcer resources cost more.
    """
    delta = params.delta
    total = 0.0
    for cemb, chain in zip(emb.chains, req.chains):
        for seg in cemb.segments:
            for a, b in zip(seg, seg[1:]):
                arc = net.arc(a, b)
                total += chain.beta_req / (state.residual_beta[arc] + delta)
        for node, demand in zip(cemb.vsnf_nodes, chain.cpu_demands):
            total += params.alpha * demand / (state.residual_gamma[node] + delta)
    return total


# -- network state -----------------------------------------------------------


@dataclass
class OperationalChain:
    """Bookkeeping for one accepted chain while its service is active."""

    chain_id: int
    service_id: int
    load: ChainLoad
    threshold: float  # guard value: minimum viable average residual CPU


@dataclass(frozen=True)
class RecheckVerdict:
    ok: bool
    violating_chain: int | None = None


class NetworkState:
    """Residual capacities plus the ledger of currently embedded chains."""

    def __init__(self, net: PhysicalNetwork) -> None:
        self.net = net
        self.residual_gamma: list[int] = [n.gamma_nominal for n in net.nodes]
        self.residual_beta: list[int] = []
        for link in net.links:
            self.residual_beta += [link.beta_nominal, link.beta_nominal]
        self.operational: dict[int, OperationalChain] = {}
        self.node_chains: list[set[int]] = [set() for _ in net.nodes]
        self.node_guard: list[int | None] = [None] * net.n_nodes
        self.services: dict[int, tuple[int, ...]] = {}
        self._next_chain_id = 0
        self._next_service_id = 0

    @classmethod
    def fresh(cls, net: PhysicalNetwork) -> "NetworkState":
        return cls(net)

    # -- resource accounting ------------------------------------------------

    def _charge(self, loads: tuple[ChainLoad, ...], sign: int) -> None:
        """Debit (``sign`` 1) or credit (``sign`` -1) the loads' CPU and
        bandwidth."""
        gamma, beta = self.residual_gamma, self.residual_beta
        for load in loads:
            for node, _, demand in load.vsnfs:
                gamma[node] -= sign * demand
            bw = sign * load.chain.beta_req
            for arc in load.arcs:
                beta[arc] -= bw

    def _debit(self, loads: tuple[ChainLoad, ...]) -> None:
        """Charge the loads; if a residual would go negative, leave every
        residual as it was and raise ``CapacityError``."""
        self._charge(loads, 1)
        gamma, beta = self.residual_gamma, self.residual_beta
        short = [
            f"node {node}: demand exceeds residual by {-gamma[node]} cycles/s"
            for load in loads for node, _, _ in load.vsnfs if gamma[node] < 0
        ] + [
            f"arc {arc} (link {arc // 2}): demand exceeds residual by {-beta[arc]} bits/s"
            for load in loads for arc in load.arcs if beta[arc] < 0
        ]
        if short:
            self._charge(loads, -1)
            raise CapacityError(short[0])

    def register(self, loads: tuple[ChainLoad, ...], params: CostParams) -> int:
        """Debit a request's chain loads, ``Embedding.loads(req, net)``, and
        append its chains to the operational ledger."""
        self._debit(loads)
        service_id = self._next_service_id
        self._next_service_id += 1
        chain_ids = []
        for load in loads:
            chain_id = self._next_chain_id
            self._next_chain_id += 1
            chain_ids.append(chain_id)
            threshold = gamma_threshold(load.chain, load.fixed_delay, params.delta)
            self.operational[chain_id] = OperationalChain(
                chain_id, service_id, load, threshold
            )
            for node, _, _ in load.vsnfs:
                self.node_chains[node].add(chain_id)
                guard = self.node_guard[node]
                if guard is None or threshold > self.operational[guard].threshold:
                    self.node_guard[node] = chain_id
        self.services[service_id] = tuple(chain_ids)
        return service_id

    def release(self, service_id: int) -> None:
        """Credit back every resource the service holds and drop its chains."""
        try:
            chain_ids = self.services.pop(service_id)
        except KeyError:
            raise KeyError(f"no active service {service_id}") from None
        # Removing a chain that is not a node's guard leaves that node's
        # (threshold, -chain_id) maximum in place, so only nodes whose guard
        # departs need a rescan.
        loads = tuple(self.operational.pop(chain_id).load for chain_id in chain_ids)
        self._charge(loads, -1)
        orphaned: set[NodeId] = set()
        for chain_id, load in zip(chain_ids, loads):
            for node, _, _ in load.vsnfs:
                self.node_chains[node].discard(chain_id)
                if self.node_guard[node] == chain_id:
                    orphaned.add(node)
        for node in orphaned:
            self.node_guard[node] = self._guard_of(node)

    def _guard_of(self, node: NodeId) -> int | None:
        best: int | None = None
        for chain_id in self.node_chains[node]:
            if best is None:
                best = chain_id
                continue
            record, incumbent = self.operational[chain_id], self.operational[best]
            if (record.threshold, -chain_id) > (incumbent.threshold, -best):
                best = chain_id
        return best

    # -- audit ----------------------------------------------------------------

    def rebuilt(self) -> "NetworkState":
        """Recompute residuals and guards from the ledger alone."""
        twin = NetworkState(self.net)
        twin.operational = dict(self.operational)
        twin.services = dict(self.services)
        twin._next_chain_id = self._next_chain_id
        twin._next_service_id = self._next_service_id
        twin._charge(tuple(record.load for record in self.operational.values()), 1)
        for chain_id, record in self.operational.items():
            for node, _, _ in record.load.vsnfs:
                twin.node_chains[node].add(chain_id)
        for node in range(twin.net.n_nodes):
            twin.node_guard[node] = twin._guard_of(node)
        return twin


# -- acceptance checks -------------------------------------------------------


def recheck_operational(
    state: NetworkState,
    emb: Embedding,
    req: ServiceRequest,
    params: CostParams,
) -> RecheckVerdict:
    """Would accepting this candidate break any already-running chain?

    Only the guard chain of each node the candidate draws CPU from is
    retested: it is the chain with the tightest residual-CPU threshold there,
    so if it survives the updated processing delays the others do too.
    """
    extra = emb.cpu_demands(req)
    if not extra:
        return RecheckVerdict(True)
    guards = {
        guard for node in extra if (guard := state.node_guard[node]) is not None
    }
    for chain_id in sorted(guards):
        record = state.operational[chain_id]
        if _updated_latency(state, record, extra, params.delta) > record.load.chain.lambda_max:
            return RecheckVerdict(False, chain_id)
    return RecheckVerdict(True)


def full_recheck(
    state: NetworkState,
    emb: Embedding,
    req: ServiceRequest,
    params: CostParams,
) -> RecheckVerdict:
    """Diagnostic exhaustive variant of recheck_operational (every chain)."""
    extra = emb.cpu_demands(req)
    for chain_id in sorted(state.operational):
        record = state.operational[chain_id]
        if _updated_latency(state, record, extra, params.delta) > record.load.chain.lambda_max:
            return RecheckVerdict(False, chain_id)
    return RecheckVerdict(True)


def _updated_latency(
    state: NetworkState,
    record: OperationalChain,
    extra_cpu: Mapping[NodeId, int],
    delta: float,
) -> float:
    """Latency of an operational chain after hypothetically charging
    ``extra_cpu``; the chain's own usage is already inside the residuals."""
    load = record.load
    total = load.fixed_delay
    for node, cycles_per_packet, _ in load.vsnfs:
        residual = state.residual_gamma[node] - extra_cpu.get(node, 0)
        total += cycles_per_packet / (residual + delta)
    return total


def check_security(
    emb: Embedding, req: ServiceRequest, net: PhysicalNetwork
) -> list[str]:
    """Security-policy violations: stateful co-location, regions, veto, order."""
    violations = []
    for group_idx, group in enumerate(req.stateful_groups):
        hosts = {emb.chains[c].vsnf_nodes[p] for c, p in group}
        if len(hosts) != 1:
            violations.append(
                f"stateful: group {group_idx} split across nodes {sorted(hosts)}"
            )
    for chain_idx, (cemb, chain) in enumerate(zip(emb.chains, req.chains)):
        for pos, (node, spec) in enumerate(zip(cemb.vsnf_nodes, chain.vsnfs)):
            where = f"chain {chain_idx} vsnf {pos} ({spec.name})"
            if spec.region == "ep1":
                if node != req.ep1:
                    violations.append(f"region: {where} must sit on ep1, got {node}")
            elif spec.region is not None:
                members = net.regions.get(spec.region)
                if members is None:
                    violations.append(f"region: {where} names unknown region '{spec.region}'")
                elif node not in members:
                    violations.append(
                        f"region: {where} outside region '{spec.region}' on node {node}"
                    )
            if node in req.veto:
                violations.append(f"veto: {where} placed on vetoed node {node}")
        hosts = cemb.entity_nodes()
        for idx, seg in enumerate(cemb.segments):
            if seg[0] != hosts[idx] or seg[-1] != hosts[idx + 1]:
                violations.append(
                    f"order: chain {chain_idx} segment {idx} runs {seg[0]}->{seg[-1]}, "
                    f"expected {hosts[idx]}->{hosts[idx + 1]}"
                )
    return violations


def validate_embedding(
    state: NetworkState,
    emb: Embedding,
    req: ServiceRequest,
    params: CostParams,
) -> list[str]:
    """Full constraint battery against a pre-acceptance state.

    Structural route checks, endpoint pinning, capacity, per-chain latency,
    security policy and the operational-chain recheck, reported as a list of
    human/parseable violation strings (empty means feasible).
    """
    net = state.net
    violations: list[str] = []
    if len(emb.chains) != len(req.chains):
        return [f"structure: {len(emb.chains)} chain embeddings for {len(req.chains)} chains"]

    for chain_idx, (cemb, chain) in enumerate(zip(emb.chains, req.chains)):
        where = f"chain {chain_idx}"
        if len(cemb.vsnf_nodes) != len(chain.vsnfs):
            violations.append(f"structure: {where} places {len(cemb.vsnf_nodes)} "
                              f"of {len(chain.vsnfs)} vsnfs")
            continue
        if len(cemb.segments) != len(cemb.vsnf_nodes) + 1:
            violations.append(f"structure: {where} has {len(cemb.segments)} segments")
            continue
        user_side, remote_side = (
            (cemb.src, cemb.dst) if chain.direction == UP else (cemb.dst, cemb.src)
        )
        if user_side != req.ep1:
            violations.append(f"endpoint: {where} user side on {user_side}, expected {req.ep1}")
        if remote_side not in req.ep2_set:
            violations.append(
                f"endpoint: {where} remote side on {remote_side}, not in {sorted(req.ep2_set)}"
            )
        for seg_idx, seg in enumerate(cemb.segments):
            if len(seg) != len(set(seg)):
                violations.append(f"route: {where} segment {seg_idx} repeats a node")
            for a, b in zip(seg, seg[1:]):
                try:
                    net.arc(a, b)
                except TopologyError:
                    violations.append(f"route: {where} segment {seg_idx} uses "
                                      f"missing arc {a}->{b}")

    if violations:
        return violations

    loads = emb.loads(req, net)
    for node, demand in sorted(emb.cpu_demands(req).items()):
        if demand > state.residual_gamma[node]:
            violations.append(
                f"node-capacity: node {node} needs {demand}, has {state.residual_gamma[node]}"
            )
    for arc, demand in sorted(arc_demands(loads).items()):
        if demand > state.residual_beta[arc]:
            violations.append(
                f"link-capacity: arc {arc} needs {demand}, has {state.residual_beta[arc]}"
            )
    for chain_idx, load in enumerate(loads):
        latency = chain_latency(state, load, params.delta)
        if latency > load.chain.lambda_max:
            violations.append(
                f"latency: chain {chain_idx} takes {latency:.6g}s, bound {load.chain.lambda_max}s"
            )
    violations.extend(check_security(emb, req, net))
    verdict = recheck_operational(state, emb, req, params)
    if not verdict.ok:
        violations.append(f"op-latency: would break operational chain {verdict.violating_chain}")
    return violations
