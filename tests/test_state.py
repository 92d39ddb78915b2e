import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import build_net, chain, path_net, request, vsnf
from pess.service import DOWN, UP, ServiceError, cpu_demand
from pess.state import (
    CapacityError,
    ChainEmbedding,
    ChainLoad,
    CostParams,
    Embedding,
    NetworkState,
    chain_latency,
    check_security,
    embedding_cost,
    full_recheck,
    gamma_threshold,
    processing_delay,
    recheck_operational,
    validate_embedding,
    validate_request_nodes,
)

PARAMS = CostParams()


def single(src, dst, vsnf_nodes, segments):
    return Embedding((ChainEmbedding(src, dst, tuple(vsnf_nodes), tuple(map(tuple, segments))),))


class TestCpuDemand:
    def test_rounding(self):
        assert cpu_demand(9.5, 100) == 950
        assert cpu_demand(9.5, 3) == 28  # 28.5 rounds to even
        assert cpu_demand(0.0, 10**9) == 0

    @given(st.floats(0.1, 50), st.integers(1, 10**8))
    def test_is_int(self, gamma_u, beta):
        demand = cpu_demand(gamma_u, beta)
        assert isinstance(demand, int)
        assert abs(demand - gamma_u * beta) <= 0.5


class TestProcessingDelay:
    def test_hand_value(self):
        # 9.5 cycles/bit * 8000 bit packets on a node with 6.72e10 cycles/s
        # free, charged 9.5e8 by the chain itself.
        expected = 76_000.0 / 6.625e10
        got = processing_delay(9.5, 8000.0, 67_200_000_000, 950_000_000, 1e-6)
        assert got == pytest.approx(expected, rel=1e-6)
        assert f"{got:.5g}" == "1.1472e-06"

    def test_saturated_node_hits_delta_floor(self):
        got = processing_delay(9.5, 8000.0, 950_000_000, 950_000_000, 1e-6)
        assert got == pytest.approx(76_000.0 / 1e-6)

    def test_zero_work(self):
        assert processing_delay(0.0, 8000.0, 1e9, 0, 1e-6) == 0.0

    @given(st.integers(10**6, 10**10), st.integers(0, 10**6))
    def test_decreases_with_headroom(self, residual, demand):
        tight = processing_delay(9.5, 8000.0, residual + demand, demand, 1e-6)
        loose = processing_delay(9.5, 8000.0, residual + demand + 1000, demand, 1e-6)
        assert loose < tight


class TestDebit:
    def test_exact_residuals(self):
        net = path_net([67_200_000_000, 67_200_000_000], bandwidth=10**10)
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf("snort", 9.5), beta=100_000_000))
        emb = single(0, 1, [1], [[0, 1], [1]])
        state.register(emb.loads(req, net), PARAMS)
        assert state.residual_gamma[1] == 67_200_000_000 - 950_000_000 == 66_250_000_000
        assert state.residual_gamma[0] == 67_200_000_000
        assert state.residual_beta[net.arc(0, 1)] == 10**10 - 100_000_000
        assert state.residual_beta[net.arc(1, 0)] == 10**10

    def test_register_release_identity(self):
        net = path_net([10**10] * 3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(gamma=2.0), beta=5_000_000))
        emb = single(0, 2, [1], [[0, 1], [1, 2]])
        before_gamma = list(state.residual_gamma)
        before_beta = list(state.residual_beta)
        sid = state.register(emb.loads(req, net), PARAMS)
        assert state.residual_gamma != before_gamma
        state.release(sid)
        assert state.residual_gamma == before_gamma
        assert state.residual_beta == before_beta
        assert not state.operational
        assert state.node_guard == [None] * net.n_nodes

    def test_node_capacity_error(self):
        net = path_net([100, 100])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(gamma=9.5), beta=1000))
        emb = single(0, 1, [1], [[0, 1], [1]])
        with pytest.raises(CapacityError, match="node 1"):
            state.register(emb.loads(req, net), PARAMS)

    def test_link_capacity_error(self):
        net = path_net([10**10, 10**10], bandwidth=10)
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=100))
        emb = single(0, 1, [], [[0, 1]])
        with pytest.raises(CapacityError, match=r"arc 0 \(link 0\)"):
            state.register(emb.loads(req, net), PARAMS)

    def test_failed_debit_rolls_back(self):
        net = build_net([10**10, 100], [(0, 1)])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(gamma=1.0), vsnf("b", gamma=9.5), beta=1000))
        emb = single(0, 1, [0, 1], [[0], [0, 1], [1]])
        before, before_beta = list(state.residual_gamma), list(state.residual_beta)
        with pytest.raises(CapacityError):
            state.register(emb.loads(req, net), PARAMS)
        assert state.residual_gamma == before
        assert state.residual_beta == before_beta
        assert not state.operational

    def test_release_unknown_service(self):
        state = NetworkState.fresh(path_net([1, 1]))
        with pytest.raises(KeyError, match="no active service 7"):
            state.release(7)


class TestFixedDelay:
    def test_pure_forwarding_pays_propagation_only(self):
        # 100 km of fiber, no VSNFs: queuing budgets never apply.
        net = path_net([10**10, 10**10], delay=5.0e-4, queuing=9.6e-4)
        cemb = ChainEmbedding(0, 1, (), ((0, 1),))
        assert ChainLoad.of(cemb, chain(), net).fixed_delay == 5.0e-4

    def test_vsnf_pays_queuing_on_both_sides(self):
        net = path_net([10**10] * 3, delay=1.0e-4, queuing=3.2e-4)
        cemb = ChainEmbedding(0, 2, (1,), ((0, 1), (1, 2)))
        got = ChainLoad.of(cemb, chain(vsnf()), net).fixed_delay
        # arrival half before the VSNF, departure half after, plus two hops.
        assert got == pytest.approx(2 * 1.0e-4 + 3.2e-4, abs=1e-15)

    def test_vsnf_on_endpoint_single_side(self):
        # VSNF on ep1: the zero-length first segment carries no queuing, the
        # second segment's departure half does.
        net = path_net([10**10, 10**10], delay=0.0, queuing=3.2e-4)
        cemb = ChainEmbedding(0, 1, (0,), ((0,), (0, 1)))
        got = ChainLoad.of(cemb, chain(vsnf()), net).fixed_delay
        assert got == 3.2e-4 / 2
        assert got == pytest.approx(1.6e-4)

    def test_two_colocated_vsnfs_charged_once_per_side(self):
        net = path_net([10**10] * 3, delay=0.0, queuing=4.0e-4)
        cemb = ChainEmbedding(0, 2, (1, 1), ((0, 1), (1,), (1, 2)))
        got = ChainLoad.of(cemb, chain(vsnf("a"), vsnf("b")), net).fixed_delay
        # The zero-length middle segment is skipped; one arrival plus one
        # departure half equals a single full budget.
        assert got == 4.0e-4

    def test_external_term(self):
        net = path_net([10**10, 10**10], delay=2.0e-4)
        cemb = ChainEmbedding(0, 1, (), ((0, 1),))
        got = ChainLoad.of(cemb, chain(pi=0.005), net).fixed_delay
        assert got == pytest.approx(0.005 + 2.0e-4)

    def test_degenerate_route(self):
        net = path_net([10**10, 10**10])
        cemb = ChainEmbedding(0, 0, (), ((0,),))
        assert ChainLoad.of(cemb, chain(pi=0.001), net).fixed_delay == 0.001


class TestGammaThreshold:
    def test_hand_value(self):
        net = path_net([10**10, 10**10], delay=2.5e-4, queuing=0.0)
        cemb = ChainEmbedding(0, 1, (1,), ((0, 1), (1,)))
        c = chain(vsnf(gamma=9.5), lam=5.0e-4 + 2.5e-4)
        got = gamma_threshold(c, ChainLoad.of(cemb, c, net).fixed_delay, 1e-6)
        assert got == pytest.approx(9.5 * 8000.0 / 5.0e-4 - 1e-6, rel=1e-12)

    def test_no_vsnfs(self):
        net = path_net([10**10, 10**10], delay=1e-4)
        cemb = ChainEmbedding(0, 1, (), ((0, 1),))
        c = chain(lam=0.2)
        assert gamma_threshold(c, ChainLoad.of(cemb, c, net).fixed_delay, 1e-6) == -1e-6

    def test_exhausted_budget(self):
        net = path_net([10**10, 10**10], delay=0.3)
        cemb = ChainEmbedding(0, 1, (1,), ((0, 1), (1,)))
        c = chain(vsnf(), lam=0.2)
        got = gamma_threshold(c, ChainLoad.of(cemb, c, net).fixed_delay, 1e-6)
        assert got == math.inf


class TestEmbeddingCost:
    def test_hand_value(self):
        net = path_net([10**10, 10**10], bandwidth=10**9)
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=100_000_000))
        emb = single(0, 1, [], [[0, 1]])
        got = embedding_cost(state, emb, req, net, PARAMS)
        assert got == pytest.approx(1e8 / (1e9 + 1e-6), rel=1e-12)

    def test_alpha_zero_drops_cpu_term(self):
        net = path_net([10**9, 10**9], bandwidth=10**9)
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(gamma=2.0), beta=10_000_000))
        emb = single(0, 1, [1], [[0, 1], [1]])
        bw_only = embedding_cost(state, emb, req, net, CostParams(alpha=0.0))
        both = embedding_cost(state, emb, req, net, PARAMS)
        assert bw_only == pytest.approx(1e7 / (1e9 + 1e-6), rel=1e-12)
        assert both > bw_only

    def test_empty_embedding(self):
        net = path_net([10**9, 10**9])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=100))
        emb = single(0, 1, [], [[0], [0]])  # src == dst shortcut shape
        req_degenerate = request(0, [0], chain(beta=100))
        emb_degenerate = single(0, 0, [], [[0]])
        assert embedding_cost(state, emb_degenerate, req_degenerate, net, PARAMS) == 0.0

    def test_scarcity_raises_cost(self):
        net = path_net([10**10, 10**10], bandwidth=10**9)
        req = request(0, [1], chain(beta=100_000_000))
        emb = single(0, 1, [], [[0, 1]])
        fresh = NetworkState.fresh(net)
        first = embedding_cost(fresh, emb, req, net, PARAMS)
        fresh.register(emb.loads(req, net), PARAMS)
        second = embedding_cost(fresh, emb, req, net, PARAMS)
        assert second > first

    @settings(max_examples=30, deadline=None)
    @given(st.integers(1, 10**8))
    def test_monotone_in_bandwidth(self, beta):
        net = path_net([10**10, 10**10])
        state = NetworkState.fresh(net)
        emb = single(0, 1, [], [[0, 1]])
        small = embedding_cost(state, emb, request(0, [1], chain(beta=beta)), net, PARAMS)
        big = embedding_cost(
            state, emb, request(0, [1], chain(beta=beta + 1)), net, PARAMS
        )
        assert big > small


class TestChainLatency:
    def test_sum_of_parts(self):
        net = path_net([67_200_000_000] * 3, delay=1.0e-4, queuing=9.6e-4)
        state = NetworkState.fresh(net)
        c = chain(vsnf(gamma=9.5), beta=100_000_000, lam=0.4)
        cemb = ChainEmbedding(0, 2, (1,), ((0, 1), (1, 2)))
        got = chain_latency(state, ChainLoad.of(cemb, c, net), 1e-6)
        fixed = 2 * 1.0e-4 + 9.6e-4
        proc = 9.5 * 8000.0 / (67_200_000_000 - 950_000_000 + 1e-6)
        assert got == pytest.approx(fixed + proc, rel=1e-12)


class TestCheckSecurity:
    def _net(self):
        return build_net(
            [10**10] * 4,
            [(0, 1), (1, 2), (2, 3)],
            regions={"dmz": [2, 3]},
        )

    def test_clean(self):
        req = request(0, [2], chain(vsnf()))
        emb = single(0, 2, [1], [[0, 1], [1, 2]])
        assert check_security(emb, req, self._net()) == []

    def test_stateful_split(self):
        req = request(
            0,
            [2],
            chain(vsnf(stateful=True)),
            chain(vsnf(stateful=True), direction=DOWN),
            groups=[[(0, 0), (1, 0)]],
        )
        emb = Embedding(
            (
                ChainEmbedding(0, 2, (1,), ((0, 1), (1, 2))),
                ChainEmbedding(2, 0, (2,), ((2,), (2, 1, 0))),
            )
        )
        violations = check_security(emb, req, self._net())
        assert any(v.startswith("stateful") for v in violations)

    def test_region_mismatch(self):
        req = request(0, [3], chain(vsnf(region="dmz")))
        emb = single(0, 3, [1], [[0, 1], [1, 2, 3]])
        violations = check_security(emb, req, self._net())
        assert any("outside region 'dmz'" in v for v in violations)

    def test_ep1_pin(self):
        req = request(0, [3], chain(vsnf(region="ep1")))
        good = single(0, 3, [0], [[0], [0, 1, 2, 3]])
        bad = single(0, 3, [1], [[0, 1], [1, 2, 3]])
        assert check_security(good, req, self._net()) == []
        assert any("must sit on ep1" in v for v in check_security(bad, req, self._net()))

    def test_veto(self):
        req = request(0, [3], chain(vsnf()), veto=[1])
        emb = single(0, 3, [1], [[0, 1], [1, 2, 3]])
        assert any("vetoed node 1" in v for v in check_security(emb, req, self._net()))

    def test_order_break(self):
        req = request(0, [2], chain(vsnf()))
        emb = single(0, 2, [1], [[0, 1], [0, 2]])  # second segment leaves from 0
        assert any(v.startswith("order") for v in check_security(emb, req, self._net()))

    def test_unknown_region(self):
        req = request(0, [2], chain(vsnf(region="nowhere")))
        emb = single(0, 2, [1], [[0, 1], [1, 2]])
        assert any("unknown region" in v for v in check_security(emb, req, self._net()))


class TestRecheck:
    def test_vacuous_on_empty_state(self):
        net = path_net([10**10] * 2)
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf()))
        emb = single(0, 1, [1], [[0, 1], [1]])
        assert recheck_operational(state, emb, req, PARAMS).ok

    def _tight_state(self):
        # A running chain whose latency sits a hair under its bound; any
        # further CPU draw on its node pushes it over.
        net = path_net([2_000_000_000] * 3, delay=0.0, queuing=0.0)
        state = NetworkState.fresh(net)
        resident = chain(vsnf(gamma=9.5), beta=100_000_000, lam=7.4e-5)
        req = request(0, [2], resident)
        emb = single(0, 2, [1], [[0, 1], [1, 2]])
        state.register(emb.loads(req, net), PARAMS)
        # Residual at node 1 is 1.05e9; latency = 76000/1.05e9 = 7.238e-5,
        # a hair under the 7.4e-5 bound.
        assert state.residual_gamma[1] == 1_050_000_000
        return net, state

    def test_candidate_breaking_guard_rejected(self):
        net, state = self._tight_state()
        newcomer = request(0, [2], chain(vsnf(gamma=9.5), beta=10_000_000, lam=0.4))
        emb = single(0, 2, [1], [[0, 1], [1, 2]])
        verdict = recheck_operational(state, emb, newcomer, PARAMS)
        assert not verdict.ok
        assert verdict.violating_chain == 0
        assert not full_recheck(state, emb, newcomer, PARAMS).ok

    def test_candidate_on_unguarded_node_passes(self):
        net, state = self._tight_state()
        newcomer = request(0, [2], chain(vsnf(gamma=9.5), beta=10_000_000, lam=0.4))
        emb = single(0, 2, [0], [[0], [0, 1, 2]])
        assert recheck_operational(state, emb, newcomer, PARAMS).ok
        assert full_recheck(state, emb, newcomer, PARAMS).ok


    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_guard_recheck_covers_multi_host_chains(self):
        # Chain A runs on nodes 0 and 1 at 0.92 ms against a 1 ms bound,
        # chain B on node 1 alone. B's threshold is the higher, so B guards
        # node 1. A candidate drawing 8.88e8 cycles/s on node 1 leaves B at
        # 0.8 ms but takes A to 1.06 ms: only an exact recheck of A sees it.
        net = path_net([9_890_000, 10**9, 10**9])
        state = NetworkState.fresh(net)
        a = request(0, [2], chain(vsnf("openvpn", 1.0, region="ep1"), vsnf("vsrx-fw", 2.0),
                                  lam=1e-3))
        b = request(0, [2], chain(vsnf("snort", 10.0), lam=1e-3))
        state.register(single(0, 2, [0, 1], [[0], [0, 1], [1, 2]]).loads(a, net), PARAMS)
        state.register(single(0, 2, [1], [[0, 1], [1, 2]]).loads(b, net), PARAMS)
        newcomer = request(0, [2], chain(vsnf("dpi", 1.0), beta=888 * 10**6, lam=0.4))
        emb = single(0, 2, [1], [[0, 1], [1, 2]])
        assert not full_recheck(state, emb, newcomer, PARAMS).ok
        assert not recheck_operational(state, emb, newcomer, PARAMS).ok


class TestGuards:
    def brute_force_guard(self, state, node):
        best = None
        for cid in state.node_chains[node]:
            if best is None:
                best = cid
            else:
                a, b = state.operational[cid], state.operational[best]
                if (a.threshold, -cid) > (b.threshold, -best):
                    best = cid
        return best

    def test_guard_tracks_tightest_threshold(self):
        net = path_net([10**10] * 2, delay=0.0)
        state = NetworkState.fresh(net)
        loose = request(0, [1], chain(vsnf(gamma=1.0), beta=1000, lam=0.4))
        tight = request(0, [1], chain(vsnf(gamma=9.5), beta=1000, lam=0.001))
        emb = single(0, 1, [1], [[0, 1], [1]])
        sid_loose = state.register(emb.loads(loose, net), PARAMS)
        state.register(emb.loads(tight, net), PARAMS)
        assert state.node_guard[1] == self.brute_force_guard(state, 1) == 1
        state.release(sid_loose)
        assert state.node_guard[1] == self.brute_force_guard(state, 1) == 1

    def test_tie_break_prefers_lower_chain_id(self):
        net = path_net([10**10] * 2, delay=0.0)
        state = NetworkState.fresh(net)
        same = request(0, [1], chain(vsnf(gamma=2.0), beta=1000, lam=0.2))
        emb = single(0, 1, [1], [[0, 1], [1]])
        state.register(emb.loads(same, net), PARAMS)
        state.register(emb.loads(same, net), PARAMS)
        assert state.node_guard[1] == 0
        assert self.brute_force_guard(state, 1) == 0

    def test_churn_matches_brute_force_and_rebuild(self):
        net = build_net(
            [10**10] * 5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 2), (1, 3)]
        )
        state = NetworkState.fresh(net)
        rng = random.Random(9)
        live = []
        for step in range(120):
            if live and rng.random() < 0.4:
                state.release(live.pop(rng.randrange(len(live))))
            else:
                g = rng.choice([1.0, 4.2, 9.5])
                host = rng.choice([1, 2, 3])
                req = request(
                    0,
                    [4],
                    chain(vsnf(gamma=g), beta=rng.randrange(1000, 10**6),
                          lam=rng.choice([0.1, 0.2, 0.4])),
                )
                emb = single(0, 4, [host], [[0, 1] if host == 1 else [0, 2] if host == 2 else [0, 1, 3],
                                            [1, 2, 3, 4] if host == 1 else [2, 3, 4] if host == 2 else [3, 4]])
                live.append(state.register(emb.loads(req, net), PARAMS))
            for node in range(net.n_nodes):
                assert state.node_guard[node] == self.brute_force_guard(state, node)
        twin = state.rebuilt()
        assert twin.residual_gamma == state.residual_gamma
        assert twin.residual_beta == state.residual_beta
        assert twin.node_guard == state.node_guard


class TestValidateEmbedding:
    def test_feasible(self):
        net = path_net([10**10] * 3, delay=1e-5, queuing=1e-5)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(), beta=1000, lam=0.4))
        emb = single(0, 2, [1], [[0, 1], [1, 2]])
        assert validate_embedding(state, emb, req, PARAMS) == []

    def test_wrong_user_side(self):
        net = path_net([10**10] * 3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf()))
        emb = single(1, 2, [1], [[1], [1, 2]])
        assert any("endpoint" in v for v in validate_embedding(state, emb, req, PARAMS))

    def test_down_chain_direction_flip(self):
        net = path_net([10**10] * 3, delay=1e-5)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(direction=DOWN, beta=1000, lam=0.4))
        emb = single(2, 0, [], [[2, 1, 0]])
        assert validate_embedding(state, emb, req, PARAMS) == []

    def test_latency_violation_reported(self):
        net = path_net([10**10] * 3, delay=0.3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(beta=1000, lam=0.2))
        emb = single(0, 2, [], [[0, 1, 2]])
        assert any("latency" in v for v in validate_embedding(state, emb, req, PARAMS))

    def test_capacity_violation_reported(self):
        net = path_net([10**10, 100], bandwidth=10**10)
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(gamma=9.5), beta=10**6, lam=0.4))
        emb = single(0, 1, [1], [[0, 1], [1]])
        assert any("capacity" in v for v in validate_embedding(state, emb, req, PARAMS))


class TestValidateRequestNodes:
    def test_out_of_range_ep2(self):
        net = path_net([10**10] * 2)
        with pytest.raises(ServiceError, match="ep2: node 9 not in network of 2 nodes"):
            validate_request_nodes(net, request(0, [9], chain()))

    def test_negative_ep1(self):
        net = path_net([10**10] * 2)
        with pytest.raises(ServiceError, match="ep1"):
            validate_request_nodes(net, request(-1, [1], chain()))

    def test_bad_veto(self):
        net = path_net([10**10] * 2)
        with pytest.raises(ServiceError, match="veto"):
            validate_request_nodes(net, request(0, [1], chain(), veto=[5]))

    def test_clean(self):
        net = path_net([10**10] * 2)
        validate_request_nodes(net, request(0, [1], chain(), veto=[0]))


def test_embedding_round_trip():
    emb = Embedding(
        (
            ChainEmbedding(0, 3, (1, 2), ((0, 1), (1, 2), (2, 3))),
            ChainEmbedding(3, 0, (), ((3, 2, 0),)),
        )
    )
    assert emb.to_dict() == {
        "chains": [
            {"src": 0, "dst": 3, "vsnf_nodes": [1, 2], "segments": [[0, 1], [1, 2], [2, 3]]},
            {"src": 3, "dst": 0, "vsnf_nodes": [], "segments": [[3, 2, 0]]},
        ]
    }


def test_cost_params_validation():
    for kwargs in ({"alpha": -1.0}, {"delta": 0.0}, {"alpha": math.nan}, {"delta": math.nan}):
        with pytest.raises(ValueError):
            CostParams(**kwargs)
