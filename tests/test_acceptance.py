"""Acceptance gate: one test per shipped guarantee.

Each test states its thresholds inline; together they cover optimality gap,
constraint safety, bookkeeping integrity, workload trends, scalability, the
formula regression vector and the alternative oracle objectives.
"""

import random
import time

from pess.heuristic import pess_embed
from pess.oracle import (
    ACTIVE_NODES,
    MIN_LATENCY,
    OracleBudgetExceeded,
    OracleConfig,
    exact_embed,
)
from pess.service import RequestGenConfig, builtin_catalog, generate_request
from pess.simulator import (
    WorkloadConfig,
    generate_stream,
    replay,
    run_scalability,
    run_twin_comparison,
)
from pess.state import (
    CostParams,
    NetworkState,
    chain_latency,
    processing_delay,
    validate_embedding,
)
from pess.topology import generate_barabasi_albert, propagation_delay

PARAMS = CostParams()


def micro_instance(trial: int, rng: random.Random):
    net = generate_barabasi_albert(rng.randrange(5, 9), rng.choice([1, 2]), seed=trial)
    cfg = RequestGenConfig(
        chain_count=(1, 2),
        vsnfs_per_chain=(0, 2),
        ep2_size=rng.choice([1, 2]),
    )
    req = generate_request(net, builtin_catalog(), cfg, rng)
    return net, req


def test_criterion_1_heuristic_never_beats_oracle():
    # >=200 micro-instances; every heuristic acceptance passes the full
    # constraint battery and costs at least the oracle optimum (rel 1e-9).
    started = time.perf_counter()
    rng = random.Random(2026)
    catalog_instances = 0
    solved_pairs = 0
    accepted = 0
    budget_skipped = 0
    overheads = []
    for trial in range(300):
        net, req = micro_instance(trial, rng)
        state = NetworkState.fresh(net)
        heur = pess_embed(state, req, PARAMS, register=False)
        try:
            exact = exact_embed(state, req)
        except OracleBudgetExceeded:
            budget_skipped += 1
            continue
        catalog_instances += 1
        if heur.accepted:
            accepted += 1
            assert validate_embedding(state, heur.embedding, req, PARAMS) == []
            assert exact.status == "optimal", "oracle missed a heuristic-feasible request"
            solved_pairs += 1
            floor = exact.score - 1e-9 * max(1.0, exact.score)
            assert heur.cost >= floor
            if exact.score > 0:
                overheads.append((heur.cost - exact.score) / exact.score)
    elapsed = time.perf_counter() - started
    assert catalog_instances >= 200
    assert solved_pairs >= 200
    assert elapsed < 300.0
    # Context only (the published comparison saw 0.06%-0.5% mean overhead on
    # its own scenarios): not asserted.
    mean_overhead = sum(overheads) / len(overheads)
    print(
        f"\ncriterion 1: {solved_pairs}/{catalog_instances} solved pairs, "
        f"{budget_skipped} skipped on budget, mean overhead "
        f"{mean_overhead * 100:.3f}%, max {max(overheads) * 100:.3f}%, "
        f"{elapsed:.1f}s"
    )


def test_criterion_2_constraint_battery_on_every_acceptance():
    # Churn loop: every accepted embedding must pass the whole battery
    # (capacity, latency, stateful, region, veto, order, simple paths)
    # against the live pre-acceptance state, and residuals stay >= 0.
    net = generate_barabasi_albert(12, 2, seed=0)
    net.regions["border"] = frozenset({0, 1, 2})
    state = NetworkState.fresh(net)
    rng = random.Random(7)
    cfg = RequestGenConfig()
    catalog = builtin_catalog()
    live = []
    acceptances = 0
    for _ in range(2000):
        if live and rng.random() < 0.45:
            state.release(live.pop(rng.randrange(len(live))))
            continue
        req = generate_request(net, catalog, cfg, rng)
        preview = pess_embed(state, req, PARAMS, register=False)
        if preview.accepted:
            assert validate_embedding(state, preview.embedding, req, PARAMS) == []
            outcome = pess_embed(state, req, PARAMS)
            assert outcome.accepted
            live.append(outcome.service_id)
            acceptances += 1
            assert min(state.residual_gamma) >= 0
            assert min(state.residual_beta) >= 0
    assert acceptances > 300
    print(f"\ncriterion 2: {acceptances} acceptances, zero violations")


def test_criterion_3_bookkeeping_identity():
    # 10^4+ arrival/departure events: incremental residual vectors match a
    # from-scratch rebuild exactly and every node guard matches brute force.
    started = time.perf_counter()
    net = generate_barabasi_albert(15, 2, seed=0)
    state = NetworkState.fresh(net)
    cfg = WorkloadConfig(load_erlang=300, n_requests=6000, warmup=0)
    stream = generate_stream(net, cfg, seed=1)

    def brute_force_guard(node):
        best = None
        for cid in state.node_chains[node]:
            if best is None:
                best = cid
                continue
            a, b = state.operational[cid], state.operational[best]
            if (a.threshold, -cid) > (b.threshold, -best):
                best = cid
        return best

    def audit():
        twin = state.rebuilt()
        assert state.residual_gamma == twin.residual_gamma
        assert state.residual_beta == twin.residual_beta
        for node in range(net.n_nodes):
            assert state.node_guard[node] == brute_force_guard(node)

    events = 0

    def count_and_audit(_):
        # Runs ahead of every arrival and departure.
        nonlocal events
        events += 1
        if events % 500 == 0:
            audit()

    def solve(_, arrival):
        return pess_embed(state, arrival.request, PARAMS)

    for _ in replay(state, stream, solve, count_and_audit):
        pass
    for sid in list(state.services):
        state.release(sid)
        events += 1
    audit()
    elapsed = time.perf_counter() - started
    assert events >= 10_000
    assert elapsed < 60.0
    print(f"\ncriterion 3: {events} events audited in {elapsed:.1f}s")


def test_criterion_4_trends_against_baseline():
    # Per-application provisioning must dominate the aggregate baseline on
    # consumed CPU and blocking, and not degrade latency beyond 2%, at every
    # load point and seed below the saturation crossover.
    net = generate_barabasi_albert(20, 2, seed=0)
    loads = (250, 500, 1000, 1500)
    seeds = (1, 2, 3)
    lines = []
    for load in loads:
        for seed in seeds:
            cfg = WorkloadConfig(load_erlang=load, n_requests=10_000, warmup=2_000)
            report = run_twin_comparison(net, cfg, seed=seed, params=PARAMS)
            pess, base = report.pess, report.baseline
            assert pess.stream_checksum == base.stream_checksum
            assert pess.consumed_cpu_fraction <= base.consumed_cpu_fraction, (
                f"load {load} seed {seed}: cpu {pess.consumed_cpu_fraction:.4f}"
                f" > {base.consumed_cpu_fraction:.4f}"
            )
            assert pess.blocking_probability <= base.blocking_probability, (
                f"load {load} seed {seed}: blocking {pess.blocking_probability:.4f}"
                f" > {base.blocking_probability:.4f}"
            )
            assert report.delay_ratio >= 0.98, (
                f"load {load} seed {seed}: delay ratio {report.delay_ratio:.4f}"
            )
            lines.append(
                f"load={load} seed={seed} cpu {pess.consumed_cpu_fraction:.3f}/"
                f"{base.consumed_cpu_fraction:.3f} blocking "
                f"{pess.blocking_probability:.3f}/{base.blocking_probability:.3f} "
                f"ratio {report.delay_ratio:.3f}"
            )
    print("\ncriterion 4:\n" + "\n".join(lines))


def test_criterion_5_scalability_envelope():
    # 1000-node, m=5 graph: <= 2 s mean per request at |EP2|=1 and the mean
    # never decreases as the remote endpoint set grows to 10% and 25% of N.
    rows = run_scalability([(1000, 5)], 120, ep2_sizes=[1, 100, 250], seed=0)
    means = [row.embed_time.mean for row in rows]
    assert means[0] <= 2.0
    assert means[0] <= means[1] <= means[2]
    print(
        "\ncriterion 5: mean embed "
        + ", ".join(f"|EP2|={r.ep2_size}: {m * 1e3:.1f} ms" for r, m in zip(rows, means))
    )


def test_criterion_6_formula_regression_vector():
    # 9.5 cycles/bit, 8000-bit packets, 6.72e10 residual, 9.5e8 demanded:
    # 76000 / 6.625e10 s, displayed as 1.1472e-06.
    got = processing_delay(9.5, 8000.0, 67_200_000_000, 950_000_000, 1e-6)
    assert got == (76_000.0 / (6.625e10 + 1e-6))
    assert abs(got - 76_000.0 / 6.625e10) <= 1e-6 * (76_000.0 / 6.625e10)
    assert f"{got:.5g}" == "1.1472e-06"

    assert propagation_delay(100.0) == 5.0e-4

    assert generate_barabasi_albert(20, 2, seed=0).n_links == 36
    assert generate_barabasi_albert(20, 2, seed=9).n_links == 36
    assert generate_barabasi_albert(1000, 5, seed=0).n_links == 4975


def test_criterion_7_alternative_objectives():
    # Active-node minimisation must return a single host whenever any
    # feasible single-host assignment exists (certified by exhaustion), and
    # the min-latency score must equal the latency sum of its embedding.
    rng = random.Random(404)
    single_host_hits = 0
    checked = 0
    for trial in range(40):
        net = generate_barabasi_albert(6, 2, seed=trial)
        cfg = RequestGenConfig(
            chain_count=(1, 2), vsnfs_per_chain=(1, 2), ep2_size=1
        )
        req = generate_request(net, builtin_catalog(), cfg, rng)
        state = NetworkState.fresh(net)
        try:
            full = exact_embed(
                state, req, OracleConfig(objective=ACTIVE_NODES), keep_scores=True
            )
        except OracleBudgetExceeded:
            continue
        if full.status != "optimal":
            continue
        checked += 1
        assert full.score == min(full.scores)
        if any(score == 1.0 for score in full.scores):
            assert full.score == 1.0
            single_host_hits += 1

        fast = exact_embed(state, req, OracleConfig(objective=MIN_LATENCY))
        assert fast.status == "optimal"
        total = sum(
            chain_latency(state, cemb, c, net, PARAMS.delta)
            for cemb, c in zip(fast.embedding.chains, req.chains)
        )
        assert fast.score == total
    assert checked >= 20
    assert single_host_hits >= 10
    print(
        f"\ncriterion 7: {checked} instances, "
        f"{single_host_hits} with certified single-host optimum"
    )
