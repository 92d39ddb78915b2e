import hashlib
import random

import pytest

from helpers import build_net, chain, path_net, request, vsnf
from pess.heuristic import pess_embed
from pess.oracle import (
    ACTIVE_NODES,
    MIN_LATENCY,
    RESOURCE_COST,
    OracleBudgetExceeded,
    OracleConfig,
    _Search,
    exact_embed,
    objective_value,
)
from pess.service import (
    DOWN,
    UP,
    RequestGenConfig,
    ServiceError,
    builtin_catalog,
    generate_request,
)
from pess.state import (
    ChainLoad,
    CostParams,
    NetworkState,
    chain_latency,
    validate_embedding,
)
from pess.topology import generate_barabasi_albert

PARAMS = CostParams()


class TestHandComputed:
    def test_three_node_path(self):
        # CPU 1e9 / 4e9 / 1e9, ample links: the middle node is the cheapest
        # host and the score is the literal two-arc + one-placement sum.
        net = path_net([10**9, 4 * 10**9, 10**9], bandwidth=10**10, delay=1e-5)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(gamma=9.5), beta=10**6, lam=0.4))
        out = exact_embed(state, req)
        assert out.status == "optimal"
        cemb = out.embedding.chains[0]
        assert cemb.vsnf_nodes == (1,)
        assert cemb.segments == ((0, 1), (1, 2))
        delta = PARAMS.delta
        expected = (
            10**6 / (10**10 + delta) * 2
            + 9_500_000 / (4 * 10**9 + delta)
        )
        assert out.score == pytest.approx(expected, rel=1e-12)

    def test_certificate_by_exhaustion(self):
        net = build_net(
            [10**9, 4 * 10**9, 2 * 10**9, 10**9],
            [(0, 1), (1, 3), (0, 2), (2, 3)],
            delay=1e-5,
        )
        state = NetworkState.fresh(net)
        req = request(0, [3], chain(vsnf(gamma=9.5), beta=10**6, lam=0.4))
        full = exact_embed(state, req, keep_scores=True)
        assert full.status == "optimal"
        assert full.scores
        assert min(full.scores) == pytest.approx(full.score, rel=1e-12)
        pruned = exact_embed(state, req)
        assert pruned.score == pytest.approx(full.score, rel=1e-12)
        assert pruned.evaluated <= full.evaluated

    def test_tie_resolved_canonically(self):
        # Symmetric diamond: routes through 1 and 2 cost the same, the
        # lexicographically smaller embedding (through node 1) must win.
        net = build_net(
            [10**9] * 4,
            [(0, 1), (1, 3), (0, 2), (2, 3)],
            delay=1e-5,
        )
        state = NetworkState.fresh(net)
        req = request(0, [3], chain(beta=10**6, lam=0.4))
        out = exact_embed(state, req)
        assert out.embedding.chains[0].segments == ((0, 1, 3),)


class TestObjectives:
    def _setup(self):
        net = path_net([4 * 10**9, 4 * 10**9, 4 * 10**9], delay=1e-5)
        state = NetworkState.fresh(net)
        req = request(
            0,
            [2],
            chain(vsnf("a", 2.0), vsnf("b", 3.0), beta=10**6, lam=0.4),
        )
        return state, req

    def test_active_nodes_single_host(self):
        state, req = self._setup()
        out = exact_embed(state, req, OracleConfig(objective=ACTIVE_NODES))
        assert out.status == "optimal"
        assert out.score == 1.0
        assert len(out.embedding.hosting_nodes()) == 1

    def test_active_nodes_zero_when_no_vsnfs(self):
        net = path_net([10**9, 10**9], delay=1e-5)
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=1000, lam=0.4))
        out = exact_embed(state, req, OracleConfig(objective=ACTIVE_NODES))
        assert out.score == 0.0

    def test_min_latency_score_is_latency_sum(self):
        state, req = self._setup()
        out = exact_embed(state, req, OracleConfig(objective=MIN_LATENCY))
        assert out.status == "optimal"
        total = sum(
            chain_latency(state, load, PARAMS.delta)
            for load in out.embedding.loads(req, state.net)
        )
        assert out.score == total

    def test_min_latency_beats_resource_cost_on_latency(self):
        net = build_net(
            [4 * 10**9, 10**9, 50 * 10**9],
            [(0, 1, {"distance_km": 10}), (0, 2, {"distance_km": 500}),
             (2, 1, {"distance_km": 500})],
        )
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(gamma=2.0), beta=10**6, lam=0.4))
        fast = exact_embed(state, req, OracleConfig(objective=MIN_LATENCY))
        cheap = exact_embed(state, req, OracleConfig(objective=RESOURCE_COST))
        lat = lambda out: sum(
            chain_latency(state, load, PARAMS.delta)
            for load in out.embedding.loads(req, state.net)
        )
        assert lat(fast) <= lat(cheap)

    def test_objective_value_dispatch(self):
        state, req = self._setup()
        out = exact_embed(state, req)
        assert objective_value(state, out.embedding, req, RESOURCE_COST, PARAMS) == (
            pytest.approx(out.score)
        )
        assert objective_value(state, out.embedding, req, ACTIVE_NODES, PARAMS) >= 1.0
        with pytest.raises(ValueError, match="unknown objective"):
            objective_value(state, out.embedding, req, "fastest", PARAMS)


class TestCapacity:
    def test_own_traffic_counts_each_pass_over_an_arc(self):
        # The free VSNF may only sit on node 2 and the second one on ep1,
        # so the chain runs 0->1->2, back 2->1->0, and 0->1->2 again:
        # arcs 0->1 and 1->2 carry the flow twice.
        net = path_net([10**9] * 3, bandwidth=1500, regions={"far": [2]})
        req = request(0, [2], chain(vsnf(region="far"), vsnf(region="ep1"), beta=1000,
                                    lam=0.4))
        state = NetworkState.fresh(net)
        assert exact_embed(state, req).status == "infeasible"
        # The option is dropped as it is built, so the chain has none and
        # the search ends before enumerating any further chain.
        assert _Search(state, req, OracleConfig(), PARAMS, False).chain_options(0, {}) == []
        net = path_net([10**9] * 3, bandwidth=2000, regions={"far": [2]})
        state = NetworkState.fresh(net)
        out = exact_embed(state, req)
        assert out.embedding.chains[0].segments == ((0, 1, 2), (2, 1, 0), (0, 1, 2))
        assert validate_embedding(state, out.embedding, req, PARAMS) == []

    def test_chains_share_link_bandwidth(self):
        net = path_net([10**9] * 2, bandwidth=1500)
        state = NetworkState.fresh(net)
        one = chain(beta=1000, lam=0.4)
        assert exact_embed(state, request(0, [1], one)).status == "optimal"
        for objective in _OBJECTIVES:
            out = exact_embed(state, request(0, [1], one, one), OracleConfig(objective=objective))
            assert out.status == "infeasible"

    def test_chains_share_node_cpu(self):
        # Either VSNF fits on node 0 alone, both do not, so the second
        # chain's goes to node 1 under every objective.
        net = path_net([10_500_000, 10**9], delay=1e-5)
        state = NetworkState.fresh(net)
        up = chain(vsnf("a", 10.0, region="ep1"), beta=10**6, lam=0.4)
        down = chain(vsnf("b", 1.0), direction=DOWN, beta=10**6, lam=0.4)
        for objective in _OBJECTIVES:
            out = exact_embed(state, request(0, [1], up, down),
                              OracleConfig(objective=objective))
            assert out.embedding.chains[1].vsnf_nodes == (1,)
            assert validate_embedding(state, out.embedding, request(0, [1], up, down),
                                      PARAMS) == []


class TestStatus:
    def test_infeasible_tiny_latency(self):
        net = path_net([10**9] * 3, delay=0.3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(beta=1000, lam=0.2))
        out = exact_embed(state, req)
        assert out.status == "infeasible"
        assert out.embedding is None
        assert not out.optimal

    def test_infeasible_stateful_dead_pool(self):
        net = build_net([10**9] * 3, [(0, 1), (1, 2)], regions={"dmz": [1]})
        state = NetworkState.fresh(net)
        ids = vsnf("snort", 9.5, stateful=True, region="dmz")
        req = request(
            0,
            [2],
            chain(ids, beta=1000, lam=0.4),
            chain(ids, direction=DOWN, beta=1000, lam=0.4),
            groups=[[(0, 0), (1, 0)]],
            veto=[1],
        )
        out = exact_embed(state, req)
        assert out.status == "infeasible"

    def test_budget_exceeded(self):
        net = generate_barabasi_albert(10, 2, seed=1)
        state = NetworkState.fresh(net)
        req = request(0, [9], chain(vsnf(), beta=1000, lam=0.4))
        with pytest.raises(OracleBudgetExceeded, match="budget 10"):
            exact_embed(state, req, OracleConfig(max_enumeration=10))

    def test_out_of_range_request(self):
        net = path_net([10**9] * 2)
        state = NetworkState.fresh(net)
        with pytest.raises(ServiceError, match="ep2"):
            exact_embed(state, request(0, [7], chain()))

    def test_state_never_mutated(self):
        net = path_net([10**9] * 3, delay=1e-5)
        state = NetworkState.fresh(net)
        before_gamma = list(state.residual_gamma)
        before_beta = list(state.residual_beta)
        exact_embed(state, request(0, [2], chain(vsnf(), beta=1000, lam=0.4)))
        assert state.residual_gamma == before_gamma
        assert state.residual_beta == before_beta
        assert not state.operational


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            OracleConfig(objective="fastest")
        with pytest.raises(ValueError):
            OracleConfig(max_path_len=-1)
        with pytest.raises(ValueError):
            OracleConfig(max_enumeration=0)

    def test_max_path_len_zero_blocks_routes(self):
        net = path_net([10**9] * 2, delay=1e-5)
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=1000, lam=0.4))
        out = exact_embed(state, req, OracleConfig(max_path_len=0))
        assert out.status == "infeasible"
        degenerate = request(0, [0, 1], chain(beta=1000, lam=0.4))
        out = exact_embed(state, degenerate, OracleConfig(max_path_len=0))
        assert out.status == "optimal"
        assert out.embedding.chains[0].segments == ((0,),)

    def test_max_path_len_limits_detours(self):
        net = build_net(
            [10**9] * 4,
            [(0, 1, {"bandwidth": 500}), (0, 2), (2, 3), (3, 1)],
        )
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=1000, lam=0.4))
        short = exact_embed(state, req, OracleConfig(max_path_len=1))
        assert short.status == "infeasible"
        long = exact_embed(state, req, OracleConfig(max_path_len=3))
        assert long.status == "optimal"


class TestDominance:
    def test_heuristic_never_beats_oracle(self):
        rng = random.Random(17)
        catalog = builtin_catalog()
        cfg = RequestGenConfig(
            chain_count=(1, 2), vsnfs_per_chain=(0, 2), ep2_size=1
        )
        solved = 0
        for trial in range(40):
            net = generate_barabasi_albert(7, 2, seed=trial)
            state = NetworkState.fresh(net)
            req = generate_request(net, catalog, cfg, rng)
            heur = pess_embed(state, req, PARAMS, register=False)
            exact = exact_embed(state, req)
            if heur.accepted:
                assert exact.status == "optimal"
                assert heur.cost >= exact.score - 1e-9 * max(1.0, exact.score)
                assert validate_embedding(state, exact.embedding, req, PARAMS) == []
                solved += 1
        assert solved >= 25


# -- decisions pinned, pruning exact ------------------------------------------

_OBJECTIVES = (RESOURCE_COST, ACTIVE_NODES, MIN_LATENCY)


def _micro_cases(seed, count):
    """Seeded micro-instances: ``(state, request, max_path_len)``.

    Every other state is loaded by a short ``pess_embed`` churn with tight
    latency bounds, so the oracle's operational recheck runs and rejects
    leaves. Every third request is hand-shaped rather than drawn: chains of
    two VSNFs, one of them pinned to ep1 after a free one (its segments
    zigzag through ep1), a VSNF whose CPU demand rounds to 0, and a
    stateful pair shared by an up and a down chain.
    """
    rng = random.Random(seed)
    catalog = builtin_catalog()
    drawn = RequestGenConfig(chain_count=(1, 2), vsnfs_per_chain=(0, 2), ep2_size=1,
                             latency_menu=(1.5e-3, 3e-3, 0.1))
    load = RequestGenConfig(chain_count=(1, 2), vsnfs_per_chain=(1, 2), ep2_size=1,
                            latency_menu=(1.3e-3, 2e-3, 3e-3), bandwidth_range=(1e7, 2e8),
                            external_latency=0.0)
    tiny = vsnf("tiny", 1e-9)
    vpn_ep1 = vsnf("openvpn", 31.0, region="ep1")
    ids = vsnf("snort", 9.5, stateful=True)
    for idx in range(count):
        net = generate_barabasi_albert(rng.randrange(5, 7), rng.choice((1, 2)),
                                       seed=rng.randrange(2**31), cpu_capacity=3 * 10**9)
        state = NetworkState.fresh(net)
        if idx % 2:
            for _ in range(6):
                pess_embed(state, generate_request(net, catalog, load, rng), PARAMS)
        if idx % 3 == 2:
            ep1, ep2 = rng.sample(range(net.n_nodes), 2)
            beta = rng.choice((10**6, 5 * 10**7))
            lam = rng.choice((2e-3, 0.1))
            shapes = [
                (chain(ids, vpn_ep1, beta=beta, lam=lam),
                 chain(tiny, ids, direction=DOWN, beta=beta, lam=lam)),
                (chain(tiny, vsnf("vsrx-fw", 2.3), direction=rng.choice((UP, DOWN)),
                       beta=beta, lam=lam),),
            ]
            chains = rng.choice(shapes)
            group = [(c, p) for c, ch in enumerate(chains)
                     for p, spec in enumerate(ch.vsnfs) if spec is ids]
            req = request(ep1, [ep2], *chains, groups=[group] if len(group) > 1 else [])
        else:
            req = generate_request(net, catalog, drawn, rng)
        # Segments of 3 arcs only where few VSNFs keep the product small.
        yield state, req, 3 if sum(len(ch.vsnfs) for ch in req.chains) <= 2 else 2


def _outcome(state, req, cfg, keep_scores):
    try:
        return exact_embed(state, req, cfg, PARAMS, keep_scores=keep_scores)
    except OracleBudgetExceeded:
        return None


# SHA-256 over every outcome of test_oracle_decisions_pinned. A change to
# the oracle's optima, tie-breaks, scores, evaluation counts or budget
# exhaustion changes it.
ORACLE_DIGEST = "a57b4dfbb2ea8beae3be21419b457c66aa6b9f2041c9dfde7ca158ff33c58455"


def test_oracle_decisions_pinned():
    """Every exact_embed outcome on seeded micro-instances, fresh and
    loaded, all objectives, pruned and by exhaustion, and under a budget
    small enough to run out on some of them."""
    digest = hashlib.sha256()
    seen = {}
    for state, req, max_len in _micro_cases(3, 40):
        for objective in _OBJECTIVES:
            for keep_scores, budget in ((False, 2_000_000), (True, 2_000_000), (True, 400)):
                cfg = OracleConfig(objective=objective, max_path_len=max_len,
                                   max_enumeration=budget)
                out = _outcome(state, req, cfg, keep_scores)
                if out is None:
                    record = (objective, keep_scores, budget, "budget")
                else:
                    emb = out.embedding.to_dict() if out.optimal else None
                    # Pruning cuts the active-nodes leaves, so only the
                    # exhaustive runs pin their count.
                    evaluated = (out.evaluated
                                 if keep_scores or objective != ACTIVE_NODES else None)
                    record = (objective, keep_scores, budget, out.status, emb,
                              repr(out.score), evaluated, repr(out.scores))
                seen[record[3]] = seen.get(record[3], 0) + 1
                digest.update(repr(record).encode())
    assert seen["optimal"] > 200 and seen["infeasible"] > 5 and seen["budget"] > 10
    assert digest.hexdigest() == ORACLE_DIGEST


def test_pruning_is_exact():
    """Branch-and-bound returns what exhaustion returns, on every
    objective, fresh and loaded states alike."""
    for state, req, max_len in _micro_cases(8, 40):
        for objective in _OBJECTIVES:
            cfg = OracleConfig(objective=objective, max_path_len=max_len)
            pruned = exact_embed(state, req, cfg, PARAMS)
            full = exact_embed(state, req, cfg, PARAMS, keep_scores=True)
            assert pruned.status == full.status
            assert pruned.embedding == full.embedding
            assert pruned.score == full.score
            if full.optimal:
                assert full.score == min(full.scores)
            assert pruned.evaluated <= full.evaluated


def test_option_latency_matches_chain_latency():
    """The latency summed during the segment descent is chain_latency's,
    bit for bit, including zigzag segments and VSNFs sharing a host."""
    shapes = {"zigzag": 0, "shared-host": 0}
    for state, req, max_len in _micro_cases(12, 30):
        search = _Search(state, req, OracleConfig(max_path_len=max_len), PARAMS, True)
        for chain_idx, spec in enumerate(req.chains):
            for option in search.chain_options(chain_idx, {}):
                cemb = option.cemb
                load = ChainLoad.of(cemb, spec, state.net)
                assert option.latency == chain_latency(state, load, PARAMS.delta)
                hosts = cemb.vsnf_nodes
                if len(set(hosts)) < len(hosts):
                    shapes["shared-host"] += 1
                arcs = load.arcs
                if any(arc ^ 1 in arcs for arc in arcs):
                    shapes["zigzag"] += 1
    assert shapes["zigzag"] > 50 and shapes["shared-host"] > 50
