import math
from dataclasses import replace

import pytest

from pess.heuristic import pess_embed
from pess.service import RequestGenConfig, builtin_catalog
from pess.simulator import (
    EmbedTimeStats,
    GapReport,
    WorkloadConfig,
    _WindowedStats,
    compare_count,
    generate_stream,
    replay,
    run_heuristic_vs_oracle,
    run_scalability,
    run_simulation,
    run_twin_comparison,
    stream_checksum,
)
from pess.state import CostParams, NetworkState
from pess.topology import generate_barabasi_albert

PARAMS = CostParams()


def small_cfg(load, n=400, warmup=100, **gen_kw):
    return WorkloadConfig(
        load_erlang=load,
        n_requests=n,
        warmup=warmup,
        request_cfg=RequestGenConfig(**gen_kw) if gen_kw else RequestGenConfig(),
    )


class TestWorkloadConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            WorkloadConfig(load_erlang=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(load_erlang=10, n_requests=0)
        with pytest.raises(ValueError):
            WorkloadConfig(load_erlang=10, n_requests=100, warmup=100)
        with pytest.raises(ValueError):
            WorkloadConfig(load_erlang=10, mean_holding=0.0)
        with pytest.raises(ValueError):
            WorkloadConfig(load_erlang=math.nan)
        with pytest.raises(ValueError):
            WorkloadConfig(load_erlang=10, mean_holding=math.nan)
        with pytest.raises(ValueError):
            WorkloadConfig(load_erlang=math.inf)
        with pytest.raises(ValueError):
            WorkloadConfig(load_erlang=5, mean_holding=math.inf)


class TestStream:
    def test_strictly_increasing_times(self):
        net = generate_barabasi_albert(10, 2, seed=0)
        stream = generate_stream(net, small_cfg(50), seed=4)
        assert len(stream) == 400
        for a, b in zip(stream, stream[1:]):
            assert b.t > a.t
        assert all(a.holding > 0 for a in stream)

    def test_checksum_distinguishes_seeds(self):
        net = generate_barabasi_albert(10, 2, seed=0)
        cfg = small_cfg(50)
        one = stream_checksum(generate_stream(net, cfg, seed=1))
        same = stream_checksum(generate_stream(net, cfg, seed=1))
        other = stream_checksum(generate_stream(net, cfg, seed=2))
        assert one == same
        assert one != other


class TestEmbedTimeStats:
    def test_empty(self):
        stats = EmbedTimeStats.from_samples([])
        assert stats.mean is None and stats.p50 is None
        assert stats.p95 is None and stats.p99 is None

    def test_nearest_rank(self):
        stats = EmbedTimeStats.from_samples([3.0, 1.0, 4.0, 2.0])
        assert stats.mean == 2.5
        assert stats.p50 == 2.0
        assert stats.p95 == 4.0
        assert stats.p99 == 4.0


class TestWindowedStats:
    def test_time_weighted_mean(self):
        win = _WindowedStats(10.0)
        win.advance(8.0, {"x": 99.0})  # before the window opens: ignored
        win.advance(12.0, {"x": 1.0})
        win.advance(14.0, {"x": 3.0})
        assert win.duration == pytest.approx(4.0)
        assert win.mean("x") == pytest.approx((1.0 * 2 + 3.0 * 2) / 4)

    def test_empty_window(self):
        win = _WindowedStats(0.0)
        assert win.mean("x") == 0.0


class TestRunSimulation:
    def test_low_load_accepts_everything(self):
        net = generate_barabasi_albert(12, 2, seed=0)
        metrics = run_simulation(net, small_cfg(2.0), seed=1)
        assert metrics.offered == 300
        assert metrics.offered == metrics.accepted + metrics.rejected
        assert metrics.rejected == 0
        assert metrics.blocking_probability == 0.0
        assert 0.0 < metrics.consumed_cpu_fraction < 1.0
        assert metrics.mean_chain_latency > 0.0

    def test_deterministic_fields_stable_across_runs(self):
        net = generate_barabasi_albert(12, 2, seed=0)
        cfg = small_cfg(30)
        a = run_simulation(net, cfg, seed=7)
        b = run_simulation(net, cfg, seed=7)
        assert a == b
        c = run_simulation(net, cfg, seed=8)
        assert a.stream_checksum != c.stream_checksum

    def test_final_state_consistent(self):
        net = generate_barabasi_albert(12, 2, seed=0)
        cfg = small_cfg(40)
        state = NetworkState.fresh(net)
        accepted = 0
        for _, _, outcome in replay(
            state,
            generate_stream(net, cfg, seed=3),
            lambda _, arrival: pess_embed(state, arrival.request, PARAMS),
        ):
            accepted += outcome.accepted
        twin = state.rebuilt()
        assert state.residual_gamma == twin.residual_gamma
        assert state.residual_beta == twin.residual_beta
        assert state.node_guard == twin.node_guard
        assert 0 < len(state.services) <= accepted

    def test_region_breakdown_present(self):
        net = generate_barabasi_albert(12, 2, seed=0)
        net.regions["border"] = frozenset({0, 1})
        metrics = run_simulation(net, small_cfg(30), seed=2)
        assert "border" in metrics.consumed_cpu_by_region
        assert 0.0 <= metrics.consumed_cpu_by_region["border"] <= 1.0

    def test_unknown_solver(self):
        net = generate_barabasi_albert(10, 2, seed=0)
        with pytest.raises(ValueError, match="solver"):
            run_simulation(net, small_cfg(10), solver="magic")


class TestTwin:
    def test_transform_noop_when_single_plain_chain(self):
        # One chain, zero VSNFs: the aggregate request is the request, so
        # both runs must produce identical numbers.
        net = generate_barabasi_albert(12, 2, seed=0)
        cfg = small_cfg(30, chain_count=(1, 1), vsnfs_per_chain=(0, 0))
        report = run_twin_comparison(net, cfg, seed=5)
        assert report.delay_ratio == 1.0
        # Same numbers, different solver tag.
        assert replace(report.baseline, solver="pess", delay_ratio_vs=None) == report.pess

    def test_contention_favours_pess(self):
        net = generate_barabasi_albert(20, 2, seed=0)
        cfg = WorkloadConfig(load_erlang=1500, n_requests=3000, warmup=600)
        report = run_twin_comparison(net, cfg, seed=1)
        assert report.pess.stream_checksum == report.baseline.stream_checksum
        assert report.pess.consumed_cpu_fraction <= report.baseline.consumed_cpu_fraction
        assert report.pess.blocking_probability <= report.baseline.blocking_probability
        assert report.delay_ratio >= 0.98
        assert report.baseline.delay_ratio_vs == report.delay_ratio
        assert report.pess.delay_ratio_vs is None


class TestGap:
    def test_smoke(self):
        net = generate_barabasi_albert(7, 2, seed=2)
        cfg = WorkloadConfig(
            load_erlang=20,
            n_requests=60,
            warmup=20,
            request_cfg=RequestGenConfig(
                chain_count=(1, 2), vsnfs_per_chain=(0, 1), ep2_size=1
            ),
        )
        report = run_heuristic_vs_oracle(net, cfg, seed=3, compare=25)
        assert isinstance(report, GapReport)
        assert report.compared == 25
        assert report.both_solved >= 1
        assert report.oracle_blocked == 0
        assert report.overhead_mean >= -1e-9
        assert report.overhead_max >= report.overhead_median >= -1e-9
        assert report.heuristic_ms_mean > 0.0
        assert report.oracle_ms_mean > 0.0

    def test_compare_count_bounds_are_inclusive(self):
        cfg = WorkloadConfig(load_erlang=20, n_requests=30, warmup=20)
        assert compare_count(cfg, None) == compare_count(cfg, 10) == 10
        assert compare_count(cfg, 1) == 1

    @pytest.mark.parametrize("compare", [-3, 0, 11, 1000])
    def test_refuses_counts_that_measure_nothing(self, compare):
        # Fewer than one, or more than the 10 post-warmup requests.
        net = generate_barabasi_albert(7, 2, seed=2)
        cfg = WorkloadConfig(load_erlang=20, n_requests=30, warmup=20)
        with pytest.raises(ValueError, match=r"compare must be in \[1, n_requests - warmup = 10\]"):
            run_heuristic_vs_oracle(net, cfg, seed=3, compare=compare)


class TestScalability:
    def test_rows_and_determinism(self):
        rows = run_scalability([(30, 2), (60, 2)], 40, ep2_sizes=[1, 5], seed=1)
        assert [(r.n_nodes, r.ep2_size) for r in rows] == [
            (30, 1), (30, 5), (60, 1), (60, 5)
        ]
        again = run_scalability([(30, 2), (60, 2)], 40, ep2_sizes=[1, 5], seed=1)
        assert [r.accepted for r in rows] == [r.accepted for r in again]
        for row in rows:
            assert row.requests == 40
            assert 0 < row.accepted <= 40
            assert row.embed_time.mean > 0.0

    def test_ep2_size_bound(self):
        with pytest.raises(ValueError, match="too large"):
            run_scalability([(10, 2)], 5, ep2_sizes=[10])

    @pytest.mark.parametrize("requests", [0, -1])
    def test_refuses_no_requests(self, requests):
        with pytest.raises(ValueError, match="per_size_requests must be >= 1"):
            run_scalability([(10, 2)], requests)
