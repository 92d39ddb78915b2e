"""Poisson workload simulator.

Services arrive as a Poisson process (rate = offered load / mean holding
time), hold exponentially distributed amounts of time, and release their
resources on departure. Statistics are collected only after a configurable
number of warmup arrivals. Twin comparison runs feed the exact same
pre-generated request stream to two solver configurations so differences in
the metrics come from the embedding strategy alone. Every run drives its
state through ``replay``, the one arrival/departure loop.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Iterable, Iterator, Sequence

from .heuristic import EmbedOutcome, pess_embed
from .oracle import OracleBudgetExceeded, OracleConfig, exact_embed
from .service import (
    RequestGenConfig,
    ServiceError,
    ServiceRequest,
    baseline_request,
    builtin_catalog,
    generate_request,
)
from .state import CostParams, NetworkState
from .topology import PhysicalNetwork, generate_barabasi_albert

SOLVER_PESS = "pess"
SOLVER_BASELINE = "baseline-pess"


@dataclass(frozen=True)
class WorkloadConfig:
    """Offered load and stream shape for one simulation run."""

    load_erlang: float
    n_requests: int = 100_000
    warmup: int = 80_000
    mean_holding: float = 1.0
    request_cfg: RequestGenConfig = field(default_factory=RequestGenConfig)

    def __post_init__(self) -> None:
        if not 0 < self.load_erlang < math.inf:
            raise ValueError("load_erlang must be > 0 and finite")
        if self.n_requests < 1:
            raise ValueError("n_requests must be >= 1")
        if not 0 <= self.warmup < self.n_requests:
            raise ValueError("warmup must be in [0, n_requests)")
        if not 0 < self.mean_holding < math.inf:
            raise ValueError("mean_holding must be > 0 and finite")


@dataclass(frozen=True)
class Arrival:
    t: float
    holding: float
    request: ServiceRequest


@dataclass(frozen=True)
class EmbedTimeStats:
    mean: float | None = None
    p50: float | None = None
    p95: float | None = None
    p99: float | None = None

    @classmethod
    def from_samples(cls, samples: Sequence[float]) -> "EmbedTimeStats":
        if not samples:
            return cls()
        ordered = sorted(samples)

        def rank(p: float) -> float:
            idx = max(0, math.ceil(p * len(ordered)) - 1)
            return ordered[idx]

        return cls(
            mean=sum(ordered) / len(ordered),
            p50=rank(0.50),
            p95=rank(0.95),
            p99=rank(0.99),
        )


@dataclass(frozen=True)
class Metrics:
    load: float
    solver: str
    offered: int
    accepted: int
    rejected: int
    blocking_probability: float
    consumed_cpu_fraction: float
    consumed_cpu_by_region: dict[str, float]
    active_services: float
    mean_chain_latency: float | None
    delay_ratio_vs: float | None
    stream_checksum: str


def generate_stream(net: PhysicalNetwork, cfg: WorkloadConfig, seed: int) -> list[Arrival]:
    """Pre-draw the full arrival process for a run (timing and requests)."""
    catalog = builtin_catalog()
    rng = random.Random(seed)
    rate = cfg.load_erlang / cfg.mean_holding
    t = 0.0
    stream = []
    for _ in range(cfg.n_requests):
        t += rng.expovariate(rate)
        holding = rng.expovariate(1.0 / cfg.mean_holding)
        stream.append(Arrival(t, holding, generate_request(net, catalog, cfg.request_cfg, rng)))
    return stream


def stream_checksum(stream: Sequence[Arrival]) -> str:
    digest = hashlib.sha256()
    for arrival in stream:
        digest.update(f"{arrival.t!r}|{arrival.holding!r}|".encode())
        digest.update(arrival.request.canonical_json().encode())
    return digest.hexdigest()


class _WindowedStats:
    """Time-weighted means over the post-warmup window."""

    def __init__(self, start_time: float) -> None:
        self.start = start_time
        self.cursor: float | None = None
        self.duration = 0.0
        self.integrals: dict[str, float] = {}

    def advance(self, now: float, values: dict[str, float]) -> None:
        if now <= self.start:
            return
        since = self.start if self.cursor is None else self.cursor
        dt = now - since
        if dt > 0:
            self.duration += dt
            for key, value in values.items():
                self.integrals[key] = self.integrals.get(key, 0.0) + value * dt
        self.cursor = now

    def mean(self, key: str) -> float:
        if self.duration <= 0:
            return 0.0
        return self.integrals.get(key, 0.0) / self.duration


def replay(
    state: NetworkState,
    stream: Iterable[Arrival],
    solve: Callable[[int, Arrival], EmbedOutcome],
    before: Callable[[float], None] | None = None,
) -> Iterator[tuple[int, Arrival, EmbedOutcome]]:
    """Drive ``state`` through an arrival stream with timed departures.

    Services due to depart by an arrival's time are released first, earliest
    first; then ``solve(idx, arrival)`` handles the arrival, and an accepted
    service is queued to depart after its holding time. ``before(t)`` runs
    ahead of every departure and arrival, at that event's time. Yields
    ``(idx, arrival, outcome)`` once per arrival.
    """
    departures: list[tuple[float, int, int]] = []
    for idx, arrival in enumerate(stream):
        while departures and departures[0][0] <= arrival.t:
            t_dep, _, service_id = heapq.heappop(departures)
            if before is not None:
                before(t_dep)
            state.release(service_id)
        if before is not None:
            before(arrival.t)
        outcome = solve(idx, arrival)
        if outcome.accepted:
            heapq.heappush(departures, (arrival.t + arrival.holding, idx, outcome.service_id))
        yield idx, arrival, outcome


def _run(
    net: PhysicalNetwork,
    cfg: WorkloadConfig,
    solver: str,
    stream: Sequence[Arrival],
    params: CostParams,
    checksum: str,
) -> Metrics:
    if solver not in (SOLVER_PESS, SOLVER_BASELINE):
        raise ValueError(f"unknown solver '{solver}'")
    state = NetworkState.fresh(net)
    region_nodes = {name: sorted(members) for name, members in net.regions.items()}

    stats_start = stream[cfg.warmup].t if cfg.warmup < len(stream) else math.inf
    window = _WindowedStats(stats_start)
    accepted = rejected = 0
    latency_sum = 0.0
    latency_count = 0

    def snapshot(now: float) -> None:
        values = {
            "cpu": 1.0 - sum(state.residual_gamma) / net.total_cpu,
            "active": float(len(state.services)),
        }
        for name, members in region_nodes.items():
            nominal = sum(net.nodes[i].gamma_nominal for i in members)
            residual = sum(state.residual_gamma[i] for i in members)
            values[f"cpu:{name}"] = 1.0 - residual / nominal
        window.advance(now, values)

    def solve(idx: int, arrival: Arrival) -> EmbedOutcome:
        request = arrival.request
        if solver == SOLVER_BASELINE:
            request = baseline_request(request)
        return pess_embed(state, request, params)

    for idx, _, outcome in replay(state, stream, solve, snapshot):
        if idx < cfg.warmup:
            continue
        if outcome.accepted:
            accepted += 1
            for latency in outcome.chain_latencies:
                latency_sum += latency
                latency_count += 1
        else:
            rejected += 1

    offered = accepted + rejected
    by_region = {name: window.mean(f"cpu:{name}") for name in region_nodes}
    return Metrics(
        load=cfg.load_erlang,
        solver=solver,
        offered=offered,
        accepted=accepted,
        rejected=rejected,
        blocking_probability=(rejected / offered) if offered else 0.0,
        consumed_cpu_fraction=window.mean("cpu"),
        consumed_cpu_by_region=by_region,
        active_services=window.mean("active"),
        mean_chain_latency=(latency_sum / latency_count) if latency_count else None,
        delay_ratio_vs=None,
        stream_checksum=checksum,
    )


def run_simulation(
    net: PhysicalNetwork,
    cfg: WorkloadConfig,
    solver: str = SOLVER_PESS,
    seed: int = 0,
    params: CostParams = CostParams(),
    *,
    stream: Sequence[Arrival] | None = None,
) -> Metrics:
    """Simulate one (load, solver) point and return its metrics row."""
    if stream is None:
        stream = generate_stream(net, cfg, seed)
    return _run(net, cfg, solver, stream, params, stream_checksum(stream))


@dataclass(frozen=True)
class TwinReport:
    pess: Metrics
    baseline: Metrics
    delay_ratio: float | None  # baseline mean latency over PESS mean latency


def run_twin_comparison(
    net: PhysicalNetwork,
    cfg: WorkloadConfig,
    seed: int = 0,
    params: CostParams = CostParams(),
) -> TwinReport:
    """Run PESS and the aggregate-chain baseline on one shared stream."""
    stream = generate_stream(net, cfg, seed)
    checksum = stream_checksum(stream)
    pess_metrics = _run(net, cfg, SOLVER_PESS, stream, params, checksum)
    base_metrics = _run(net, cfg, SOLVER_BASELINE, stream, params, checksum)
    ratio = None
    if pess_metrics.mean_chain_latency and base_metrics.mean_chain_latency is not None:
        ratio = base_metrics.mean_chain_latency / pess_metrics.mean_chain_latency
    base_metrics = replace(base_metrics, delay_ratio_vs=ratio)
    return TwinReport(pess=pess_metrics, baseline=base_metrics, delay_ratio=ratio)


@dataclass(frozen=True)
class GapReport:
    """Heuristic-vs-oracle cost comparison on a live workload."""

    compared: int
    both_solved: int
    heuristic_blocked: int  # oracle found a feasible embedding, heuristic did not
    oracle_blocked: int  # sanity counter; should stay 0
    budget_exceeded: int
    overhead_mean: float | None
    overhead_median: float | None
    overhead_max: float | None
    heuristic_ms_mean: float | None
    oracle_ms_mean: float | None


def compare_count(cfg: WorkloadConfig, compare: int | None) -> int:
    """How many post-warmup requests ``run_heuristic_vs_oracle`` prices:
    ``compare``, or all of them when it is ``None``. A count outside ``[1,
    n_requests - warmup]`` would report fewer than it names, so it raises
    ``ValueError``."""
    available = cfg.n_requests - cfg.warmup
    if compare is None:
        return available
    if not 1 <= compare <= available:
        raise ValueError(f"compare must be in [1, n_requests - warmup = {available}]")
    return compare


def run_heuristic_vs_oracle(
    net: PhysicalNetwork,
    cfg: WorkloadConfig,
    oracle_cfg: OracleConfig = OracleConfig(),
    seed: int = 0,
    params: CostParams = CostParams(),
    *,
    compare: int | None = None,
) -> GapReport:
    """Warm the network with the heuristic, then price both solvers.

    After the warmup arrivals every compared request is solved twice on the
    identical live state: by the online heuristic (which keeps evolving the
    network) and by the exhaustive oracle (read-only). Overheads are
    (heuristic - oracle) / oracle on requests both solved. ``compare`` is
    checked and defaulted by ``compare_count``.
    """
    compare = compare_count(cfg, compare)
    stream = generate_stream(net, cfg, seed)
    state = NetworkState.fresh(net)
    compared = both = h_blocked = o_blocked = exceeded = 0
    overheads: list[float] = []
    h_times: list[float] = []
    o_times: list[float] = []

    def solve(idx: int, arrival: Arrival) -> EmbedOutcome:
        nonlocal compared, both, h_blocked, o_blocked, exceeded
        if idx < cfg.warmup or compared >= compare:
            return pess_embed(state, arrival.request, params)
        compared += 1
        started = time.perf_counter()
        try:
            oracle_outcome = exact_embed(state, arrival.request, oracle_cfg, params)
        except OracleBudgetExceeded:
            exceeded += 1
            oracle_outcome = None
        o_times.append(time.perf_counter() - started)
        started = time.perf_counter()
        outcome = pess_embed(state, arrival.request, params)
        h_times.append(time.perf_counter() - started)
        if oracle_outcome is None:
            return outcome
        if outcome.accepted and oracle_outcome.optimal:
            both += 1
            if oracle_outcome.score == 0.0:
                overheads.append(0.0 if outcome.cost == 0.0 else math.inf)
            else:
                overheads.append((outcome.cost - oracle_outcome.score) / oracle_outcome.score)
        elif oracle_outcome.optimal:
            h_blocked += 1
        elif outcome.accepted:
            o_blocked += 1
        return outcome

    for idx, _, _ in replay(state, stream, solve):
        if idx >= cfg.warmup and compared >= compare:
            break

    def mean(values: list[float]) -> float | None:
        return sum(values) / len(values) if values else None

    ordered = sorted(overheads)
    return GapReport(
        compared=compared,
        both_solved=both,
        heuristic_blocked=h_blocked,
        oracle_blocked=o_blocked,
        budget_exceeded=exceeded,
        overhead_mean=mean(overheads),
        overhead_median=ordered[len(ordered) // 2] if ordered else None,
        overhead_max=max(overheads) if overheads else None,
        heuristic_ms_mean=(mean(h_times) or 0.0) * 1e3 if h_times else None,
        oracle_ms_mean=(mean(o_times) or 0.0) * 1e3 if o_times else None,
    )


@dataclass(frozen=True)
class ScalabilityRow:
    n_nodes: int
    m: int
    ep2_size: int
    requests: int
    accepted: int
    embed_time: EmbedTimeStats


def run_scalability(
    sizes: Sequence[tuple[int, int]],
    per_size_requests: int,
    *,
    ep2_sizes: Sequence[int] = (1,),
    seed: int = 0,
    params: CostParams = CostParams(),
) -> list[ScalabilityRow]:
    """Time the heuristic across topology sizes and endpoint-set sizes.

    Requests are embedded back to back (accepted ones stay resident) on a
    fresh random network per point, and per-request wall times are reported.
    ``per_size_requests`` below 1 raises ``ValueError``.
    """
    if per_size_requests < 1:
        raise ValueError("per_size_requests must be >= 1")
    for n_nodes, _ in sizes:
        for ep2_size in ep2_sizes:
            if ep2_size >= n_nodes:
                raise ServiceError(f"ep2_size {ep2_size} too large for {n_nodes} nodes")
    catalog = builtin_catalog()
    rows = []
    for n_nodes, m in sizes:
        for ep2_size in ep2_sizes:
            net = generate_barabasi_albert(n_nodes, m, seed=seed)
            state = NetworkState.fresh(net)
            cfg = RequestGenConfig(ep2_size=ep2_size)
            rng = random.Random(seed + 1)
            samples = []
            accepted = 0
            for _ in range(per_size_requests):
                request = generate_request(net, catalog, cfg, rng)
                started = time.perf_counter()
                outcome = pess_embed(state, request, params)
                samples.append(time.perf_counter() - started)
                if outcome.accepted:
                    accepted += 1
            rows.append(
                ScalabilityRow(
                    n_nodes=n_nodes,
                    m=m,
                    ep2_size=ep2_size,
                    requests=per_size_requests,
                    accepted=accepted,
                    embed_time=EmbedTimeStats.from_samples(samples),
                )
            )
    return rows
