"""Exhaustive reference solver.

Enumerates every placement of a request's entities (respecting region pins,
veto sets and stateful co-location) combined with every simple-path routing
between consecutive entities, filters with the same constraint battery the
online heuristic uses, and returns the assignment minimising the configured
objective, ties going to the lexicographically smallest embedding. Branch-
and-bound pruning only ever discards provably dominated or infeasible
branches, so the returned optimum is exact whenever the enumeration budget
is not exhausted.

Each chain's options are built first. A chain's latency is summed while
descending its segments, in the order ``chain_latency`` adds the same terms,
so it equals that function bit for bit. An option keeps the paths it routes
over and builds its per-arc bandwidth map only when the joint search first
reaches it. The joint search bounds resource-cost and min-latency branches
by the option contributions summed so far plus the cheapest completion. For
active-nodes it bounds by the number of distinct hosts chosen so far: the
union only grows. As those scores are whole numbers, a branch that can at
best tie and whose chain keys already sort after the incumbent's is cut as
well. The operational recheck runs only when the state has running chains.
``keep_scores`` turns every objective bound off.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property

from .service import UP, Chain, ServiceRequest
from .state import (
    ChainEmbedding,
    CostParams,
    Embedding,
    NetworkState,
    chain_latency,
    embedding_cost,
    processing_delay,
    recheck_operational,
    segment_queuing_terms,
    validate_request_nodes,
)
from .topology import NodeId

RESOURCE_COST = "resource-cost"
ACTIVE_NODES = "active-nodes"
MIN_LATENCY = "min-latency"
_OBJECTIVES = (RESOURCE_COST, ACTIVE_NODES, MIN_LATENCY)

# Slack applied to incremental pruning bounds so float rounding can never
# discard an assignment the exact, shared-code check would accept.
_PRUNE_SLACK = 1e-9


class OracleBudgetExceeded(RuntimeError):
    """The enumeration budget ran out before the search space was covered."""


@dataclass(frozen=True)
class OracleConfig:
    objective: str = RESOURCE_COST
    max_path_len: int | None = None  # max arcs per routed segment
    max_enumeration: int = 2_000_000

    def __post_init__(self) -> None:
        if self.objective not in _OBJECTIVES:
            raise ValueError(f"objective must be one of {_OBJECTIVES}")
        if self.max_path_len is not None and self.max_path_len < 0:
            raise ValueError("max_path_len must be >= 0")
        if self.max_enumeration < 1:
            raise ValueError("max_enumeration must be >= 1")


@dataclass(frozen=True)
class OracleOutcome:
    status: str  # "optimal" | "infeasible"
    embedding: Embedding | None = None
    score: float | None = None
    evaluated: int = 0
    scores: tuple[float, ...] = ()

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def objective_value(
    state: NetworkState,
    emb: Embedding,
    req: ServiceRequest,
    objective: str,
    params: CostParams,
) -> float:
    """Score an embedding under one of the supported objectives.

    Active-node counting is the linear indicator-sum objective: with a big-M
    larger than the node count each indicator is forced to exactly "hosts at
    least one VSNF", so the score is the size of the hosting set.
    """
    if objective == RESOURCE_COST:
        return embedding_cost(state, emb, req, state.net, params)
    if objective == ACTIVE_NODES:
        return float(len(emb.hosting_nodes()))
    if objective == MIN_LATENCY:
        loads = emb.loads(req, state.net)
        return sum(chain_latency(state, load, params.delta) for load in loads)
    raise ValueError(f"unknown objective {objective!r}")


@dataclass(frozen=True)
class _PathInfo:
    nodes: tuple[NodeId, ...]
    arcs: tuple[int, ...]
    delays: tuple[float, ...]  # propagation delay of each arc, in path order
    prop_delay: float
    inv_residual: float  # sum of 1/(residual+delta) over the arcs


@dataclass
class _ChainOption:
    key: tuple  # ChainEmbedding's fields in order: the tie-break key
    hosts: tuple[NodeId, ...]  # distinct VSNF hosts, zero demand included
    cpu_by_node: tuple[tuple[NodeId, int], ...]
    paths: tuple[_PathInfo, ...]
    beta: int
    cost: float  # resource-cost contribution
    latency: float

    @cached_property
    def cemb(self) -> ChainEmbedding:
        return ChainEmbedding(*self.key)

    @cached_property
    def bw_by_arc(self) -> tuple[tuple[int, int], ...]:
        bw: dict[int, int] = {}
        for info in self.paths:
            for arc in info.arcs:
                bw[arc] = bw.get(arc, 0) + self.beta
        return tuple(bw.items())


class _Search:
    def __init__(
        self,
        state: NetworkState,
        req: ServiceRequest,
        cfg: OracleConfig,
        params: CostParams,
        keep_scores: bool,
    ) -> None:
        self.state = state
        self.net = state.net
        self.req = req
        self.cfg = cfg
        self.params = params
        self.keep_scores = keep_scores
        self.max_arcs = (
            cfg.max_path_len if cfg.max_path_len is not None else self.net.n_nodes - 1
        )
        self.ticks = 0
        self.paths: dict[tuple[NodeId, NodeId], list[_PathInfo]] = {}
        self.best_score = math.inf
        self.best_key: tuple | None = None
        self.best_emb: Embedding | None = None
        self.evaluated = 0
        self.scores: list[float] = []

    def tick(self) -> None:
        self.ticks += 1
        if self.ticks > self.cfg.max_enumeration:
            raise OracleBudgetExceeded(
                f"enumeration budget {self.cfg.max_enumeration} exhausted"
            )

    # -- path enumeration --------------------------------------------------

    def paths_between(self, a: NodeId, b: NodeId) -> list[_PathInfo]:
        key = (a, b)
        cached = self.paths.get(key)
        if cached is not None:
            return cached
        if a == b:
            found = [_PathInfo((a,), (), (), 0.0, 0.0)]
        else:
            found = []
            trail: list[NodeId] = [a]
            on_trail = {a}
            arcs: list[int] = []
            residual = self.state.residual_beta

            def descend(here: NodeId) -> None:
                if here == b:
                    self.tick()
                    delays = tuple(self.net.arc_delay(arc) for arc in arcs)
                    inv = sum(1.0 / (residual[arc] + self.params.delta) for arc in arcs)
                    found.append(
                        _PathInfo(
                            tuple(trail),
                            tuple(arcs),
                            delays,
                            sum(delays),
                            inv,
                        )
                    )
                    return
                if len(arcs) >= self.max_arcs:
                    return
                for neighbor, arc in self.net.adjacency[here]:
                    if neighbor in on_trail:
                        continue
                    trail.append(neighbor)
                    on_trail.add(neighbor)
                    arcs.append(arc)
                    descend(neighbor)
                    trail.pop()
                    on_trail.discard(neighbor)
                    arcs.pop()

            descend(a)
            found.sort(key=lambda p: (p.inv_residual, len(p.nodes), p.nodes))
        self.paths[key] = found
        return found

    # -- per-chain options ---------------------------------------------------

    def chain_options(
        self, chain_idx: int, forced: dict[tuple[int, int], NodeId]
    ) -> list[_ChainOption]:
        chain = self.req.chains[chain_idx]
        remotes = sorted(self.req.ep2_set)
        slots = []
        for pos, spec in enumerate(chain.vsnfs):
            if (chain_idx, pos) in forced:
                slots.append((forced[(chain_idx, pos)],))
            else:
                slots.append(tuple(self.allowed_hosts(spec)))
        options: list[_ChainOption] = []
        for remote in remotes:
            src, dst = (self.req.ep1, remote) if chain.direction == UP else (remote, self.req.ep1)
            for hosts in itertools.product(*slots):
                self.tick()
                self.expand_placement(chain, src, dst, hosts, options)
        options.sort(key=self.option_order)
        return options

    def allowed_hosts(self, spec) -> list[NodeId]:
        if spec.region == "ep1":
            pool = [self.req.ep1]
        elif spec.region is not None:
            pool = sorted(self.net.regions.get(spec.region, ()))
        else:
            pool = list(range(self.net.n_nodes))
        return [n for n in pool if n not in self.req.veto]

    def expand_placement(
        self,
        chain: Chain,
        src: NodeId,
        dst: NodeId,
        hosts: tuple[NodeId, ...],
        options: list[_ChainOption],
    ) -> None:
        entity_hosts = (src, *hosts, dst)
        cpu: dict[NodeId, int] = {}
        processing_terms = []
        processing = 0.0
        cpu_cost = 0.0
        for node, spec, demand in zip(hosts, chain.vsnfs, chain.cpu_demands):
            cpu[node] = cpu.get(node, 0) + demand
            term = processing_delay(
                spec.gamma_u,
                chain.sigma,
                self.state.residual_gamma[node],
                demand,
                self.params.delta,
            )
            processing_terms.append(term)
            processing += term
            cpu_cost += self.params.alpha * demand / (
                self.state.residual_gamma[node] + self.params.delta
            )
        for node, demand in cpu.items():
            if demand > self.state.residual_gamma[node]:
                return
        queuing = 0.0
        segment_queuing = []
        n_entities = len(entity_hosts)
        for idx in range(n_entities - 1):
            terms = segment_queuing_terms(
                self.net, entity_hosts[idx], entity_hosts[idx + 1], idx, n_entities
            )
            for term in terms:
                queuing += term
            segment_queuing.append(terms)
        prop_budget = chain.lambda_max - chain.pi_external - queuing - processing
        if prop_budget < -_PRUNE_SLACK:
            return

        segment_paths = []
        for a, b in zip(entity_hosts, entity_hosts[1:]):
            paths = self.paths_between(a, b)
            if not paths:
                return
            segment_paths.append(paths)

        cpu_by_node = tuple(sorted(cpu.items()))
        distinct_hosts = tuple(node for node, _ in cpu_by_node)
        beta = chain.beta_req
        residual_beta = self.state.residual_beta
        chosen: list[_PathInfo] = []

        # The latency is summed on the way down: ChainLoad.of's fixed-delay
        # terms (external, then per routed segment its arc delays one by one
        # and its segment_queuing_terms), then chain_latency's processing terms
        # in VSNF order. The same additions in the same order give
        # chain_latency's value bit for bit;
        # test_option_latency_matches_chain_latency pins it.
        def descend(seg_idx: int, prop_sum: float, fixed: float, bw_cost: float) -> None:
            if seg_idx == len(segment_paths):
                self.tick()
                latency = fixed
                for term in processing_terms:
                    latency += term
                if latency > chain.lambda_max:
                    return
                if not _own_bandwidth_fits(chosen, beta, residual_beta):
                    return
                options.append(
                    _ChainOption(
                        key=(src, dst, hosts, tuple(info.nodes for info in chosen)),
                        hosts=distinct_hosts,
                        cpu_by_node=cpu_by_node,
                        paths=tuple(chosen),
                        beta=beta,
                        cost=bw_cost + cpu_cost,
                        latency=latency,
                    )
                )
                return
            for info in segment_paths[seg_idx]:
                if prop_sum + info.prop_delay > prop_budget + _PRUNE_SLACK:
                    continue
                delay = fixed
                for term in info.delays:
                    delay += term
                for term in segment_queuing[seg_idx]:
                    delay += term
                chosen.append(info)
                descend(
                    seg_idx + 1,
                    prop_sum + info.prop_delay,
                    delay,
                    bw_cost + info.inv_residual * beta,
                )
                chosen.pop()

        descend(0, 0.0, chain.pi_external, 0.0)

    def option_order(self, option: _ChainOption):
        if self.cfg.objective == ACTIVE_NODES:
            return (len(option.hosts), option.key)
        return (self.contribution(option), option.key)

    def contribution(self, option: _ChainOption) -> float:
        if self.cfg.objective == MIN_LATENCY:
            return option.latency
        return option.cost

    # -- joint search over chains -------------------------------------------

    def run(self) -> OracleOutcome:
        groups = self.req.stateful_groups
        group_pools = []
        for group in groups:
            allowed: set[NodeId] | None = None
            for member in group:
                hosts = set(self.allowed_hosts(self.req.vsnf_at(member)))
                allowed = hosts if allowed is None else allowed & hosts
            group_pools.append(sorted(allowed or ()))
        if any(not pool for pool in group_pools):
            return OracleOutcome("infeasible", evaluated=self.evaluated)

        for assignment in itertools.product(*group_pools):
            forced = {
                member: node
                for group, node in zip(groups, assignment)
                for member in group
            }
            per_chain = []
            feasible = True
            for chain_idx in range(len(self.req.chains)):
                options = self.chain_options(chain_idx, forced)
                if not options:
                    feasible = False
                    break
                per_chain.append(options)
            if feasible:
                self.join_chains(per_chain)

        if self.best_emb is None:
            return OracleOutcome(
                "infeasible", evaluated=self.evaluated, scores=tuple(self.scores)
            )
        return OracleOutcome(
            "optimal",
            embedding=self.best_emb,
            score=self.best_score,
            evaluated=self.evaluated,
            scores=tuple(self.scores),
        )

    def join_chains(self, per_chain: list[list[_ChainOption]]) -> None:
        n_chains = len(per_chain)
        active_nodes = self.cfg.objective == ACTIVE_NODES
        prune = not self.keep_scores
        suffix_lb = [0.0] * (n_chains + 1)
        if not active_nodes:
            for idx in range(n_chains - 1, -1, -1):
                suffix_lb[idx] = suffix_lb[idx + 1] + min(
                    self.contribution(opt) for opt in per_chain[idx]
                )
        residual_gamma = self.state.residual_gamma
        residual_beta = self.state.residual_beta
        cpu_used: dict[NodeId, int] = {}
        bw_used: dict[int, int] = {}
        host_refs: dict[NodeId, int] = {}  # chosen options hosting each node
        chosen: list[_ChainOption] = []

        def descend(idx: int, acc: float) -> None:
            last = idx == n_chains - 1
            for option in per_chain[idx]:
                if active_nodes:
                    # The host union only grows, so its size after this
                    # option bounds every completion. Options are sorted by
                    # their own host count, not by what they add to the
                    # union, so a dominated one does not end the loop.
                    score = len(host_refs)
                    for node in option.hosts:
                        if node not in host_refs:
                            score += 1
                    # Scores are whole numbers: a completion that can at
                    # best tie and whose key prefix already sorts after the
                    # incumbent's cannot win the tie-break either.
                    if prune and (
                        score > self.best_score
                        or score == self.best_score
                        and tuple(o.key for o in chosen) + (option.key,)
                        > self.best_key[: idx + 1]
                    ):
                        continue
                else:
                    score = acc + self.contribution(option)
                    if prune and score + suffix_lb[idx + 1] > self.best_score + _PRUNE_SLACK:
                        # Options are sorted by contribution, so everything
                        # after this one is dominated too.
                        break
                if any(
                    cpu_used.get(node, 0) + demand > residual_gamma[node]
                    for node, demand in option.cpu_by_node
                ):
                    continue
                if any(
                    bw_used.get(arc, 0) + demand > residual_beta[arc]
                    for arc, demand in option.bw_by_arc
                ):
                    continue
                chosen.append(option)
                if last:
                    self.leaf(chosen, float(score))
                else:
                    for node, demand in option.cpu_by_node:
                        cpu_used[node] = cpu_used.get(node, 0) + demand
                    for arc, demand in option.bw_by_arc:
                        bw_used[arc] = bw_used.get(arc, 0) + demand
                    for node in option.hosts:
                        host_refs[node] = host_refs.get(node, 0) + 1
                    descend(idx + 1, score)
                    for node, demand in option.cpu_by_node:
                        cpu_used[node] -= demand
                    for arc, demand in option.bw_by_arc:
                        bw_used[arc] -= demand
                    for node in option.hosts:
                        host_refs[node] -= 1
                        if not host_refs[node]:
                            del host_refs[node]
                chosen.pop()

        descend(0, 0.0)

    def leaf(self, chosen: list[_ChainOption], score: float) -> None:
        self.tick()
        emb = None
        if self.state.operational:
            emb = Embedding(tuple(option.cemb for option in chosen))
            if not recheck_operational(self.state, emb, self.req, self.params).ok:
                return
        self.evaluated += 1
        if self.keep_scores:
            self.scores.append(score)
        if score > self.best_score:
            return
        key = tuple(option.key for option in chosen)
        if score < self.best_score or key < self.best_key:
            self.best_score = score
            self.best_key = key
            if emb is None:
                emb = Embedding(tuple(option.cemb for option in chosen))
            self.best_emb = emb


def _own_bandwidth_fits(
    chosen: list[_PathInfo], beta: int, residual_beta: list[int]
) -> bool:
    """Whether one chain's routed segments fit the residual bandwidth on
    their own. An arc used by k segments carries k * beta."""
    counts: dict[int, int] = {}
    for info in chosen:
        for arc in info.arcs:
            counts[arc] = counts.get(arc, 0) + 1
    return all(count * beta <= residual_beta[arc] for arc, count in counts.items())


def exact_embed(
    state: NetworkState,
    req: ServiceRequest,
    cfg: OracleConfig = OracleConfig(),
    params: CostParams = CostParams(),
    *,
    keep_scores: bool = False,
) -> OracleOutcome:
    """Optimal embedding of ``req`` on ``state``, or infeasible.

    The state is never mutated. ``keep_scores`` disables objective-bound
    pruning and records every feasible assignment's score, which lets tests
    certify optimality by exhaustion on small instances.
    """
    validate_request_nodes(state.net, req)
    search = _Search(state, req, cfg, params, keep_scores)
    return search.run()
