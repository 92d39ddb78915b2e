import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import build_net, chain, request, vsnf
from pess.service import (
    DOWN,
    UP,
    Chain,
    RequestGenConfig,
    ServiceError,
    ServiceRequest,
    VsnfSpec,
    baseline_request,
    builtin_catalog,
    generate_request,
    infer_stateful_groups,
    request_from_doc,
)
from pess.topology import generate_barabasi_albert


class TestCatalog:
    def test_thirteen_entries(self):
        assert len(builtin_catalog()) == 13

    @pytest.mark.parametrize(
        "name,gamma,stateful",
        [
            ("snort", 9.5, True),
            ("juniper-vsrx-fw", 2.3, True),
            ("openvpn-aesni", 31.0, False),
            ("suricata", 8.2, True),
            ("strongswan-aesni", 16.0, False),
            ("fortigate-threat", 11.3, True),
            ("cisco-asav-ids", 4.2, True),
            ("juniper-vsrx-appmonitor", 1.5, False),
        ],
    )
    def test_entries(self, name, gamma, stateful):
        spec = builtin_catalog()[name]
        assert spec.gamma_u == gamma
        assert spec.stateful is stateful


class TestValidation:
    def test_whole_float_bandwidth_coerced(self):
        c = chain(beta=5e6)
        assert c.beta_req == 5_000_000
        assert isinstance(c.beta_req, int)

    def test_cpu_demands_derived_once(self):
        # Per-VSNF demands at the coerced bandwidth; not part of the
        # chain's identity, its repr or the request document.
        c = chain(vsnf("snort", 9.5), vsnf("openvpn", 31.0), beta=3e0)
        assert c.cpu_demands == (28, 93)
        assert c == chain(vsnf("snort", 9.5), vsnf("openvpn", 31.0), beta=3)
        assert "cpu_demands" not in repr(c)
        assert "cpu_demands" not in request(0, [1], c).canonical_json()

    def test_fractional_bandwidth_rejected(self):
        with pytest.raises(ServiceError, match="integer"):
            Chain(UP, (), 1.5, 0.1)

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"beta": 0},
            {"lam": 0.0},
            {"sigma": -1.0},
            {"pi": -0.1},
            {"direction": "sideways"},
            {"lam": math.nan},
            {"sigma": math.nan},
            {"pi": math.nan},
            {"beta": math.nan},
        ],
    )
    def test_bad_chain_fields(self, kwargs):
        with pytest.raises(ServiceError):
            chain(**kwargs)

    def test_bad_vsnf(self):
        # An infinite gamma_u would overflow round() in cpu_demand.
        for gamma_u in (0.0, math.nan, math.inf):
            with pytest.raises(ServiceError):
                VsnfSpec("broken", gamma_u)

    def test_empty_ep2(self):
        with pytest.raises(ServiceError, match="ep2"):
            request(0, [], chain())

    def test_group_needs_two_members(self):
        with pytest.raises(ServiceError, match="two members"):
            request(0, [1], chain(vsnf()), groups=[[(0, 0)]])

    def test_group_same_function(self):
        with pytest.raises(ServiceError, match="same function"):
            request(
                0,
                [1],
                chain(vsnf("a", stateful=True)),
                chain(vsnf("b", stateful=True)),
                groups=[[(0, 0), (1, 0)]],
            )

    def test_groups_must_not_overlap(self):
        chains = [chain(vsnf(stateful=True)), chain(vsnf(stateful=True))]
        with pytest.raises(ServiceError, match="overlap"):
            request(0, [1], *chains, groups=[[(0, 0), (1, 0)], [(0, 0), (1, 0)]])

    def test_group_reference_bounds(self):
        with pytest.raises(ServiceError, match="chain 3"):
            request(0, [1], chain(vsnf()), groups=[[(0, 0), (3, 0)]])


def test_infer_stateful_groups():
    ids = vsnf("snort", 9.5, stateful=True)
    fw = vsnf("fortigate-ngfw", 9.0, stateful=True)
    vpn = vsnf("openvpn-aesni", 31.0)
    chains = [chain(ids, vpn), chain(fw, ids), chain(fw)]
    groups = infer_stateful_groups(chains)
    # Sorted by function name; vpn is stateless, single occurrences count too
    # only when repeated.
    assert groups == (((1, 0), (2, 0)), ((0, 0), (1, 1)))


class TestGenerator:
    def _net(self):
        return generate_barabasi_albert(30, 2, seed=11)

    def test_bounds(self):
        net = self._net()
        catalog = builtin_catalog()
        cfg = RequestGenConfig()
        rng = random.Random(0)
        for _ in range(300):
            req = generate_request(net, catalog, cfg, rng)
            assert 1 <= len(req.chains) <= 5
            for c in req.chains:
                assert 0 <= len(c.vsnfs) <= 3
                assert len({u.name for u in c.vsnfs}) == len(c.vsnfs)
                assert 1_000_000 <= c.beta_req <= 100_000_000
                assert c.lambda_max in (0.1, 0.15, 0.2, 0.4)
                assert c.sigma == 8000.0
                assert c.direction in (UP, DOWN)
            assert len(req.ep2_set) == 1
            assert req.ep1 not in req.ep2_set

    def test_border_bias(self):
        net = generate_barabasi_albert(30, 2, seed=11)
        border = frozenset({0, 1, 2})
        net.regions["border"] = border
        catalog = builtin_catalog()
        cfg = RequestGenConfig()
        rng = random.Random(1)
        hits = 0
        for _ in range(1000):
            req = generate_request(net, catalog, cfg, rng)
            if req.ep2_set == border:
                hits += 1
                assert all(c.pi_external == 0.005 for c in req.chains)
            else:
                assert len(req.ep2_set) == 1
                assert all(c.pi_external == 0.0 for c in req.chains)
        assert 0.75 <= hits / 1000 <= 0.85

    def test_ep2_size_override(self):
        net = self._net()
        cfg = RequestGenConfig(ep2_size=4)
        rng = random.Random(2)
        for _ in range(50):
            req = generate_request(net, builtin_catalog(), cfg, rng)
            assert len(req.ep2_set) == 4
            assert req.ep1 not in req.ep2_set
            assert all(c.pi_external == 0.0 for c in req.chains)

    def test_two_node_net_draws_the_other_node(self):
        net = build_net([10**10] * 2, [(0, 1)])
        rng = random.Random(5)
        for _ in range(50):
            req = generate_request(net, builtin_catalog(), RequestGenConfig(), rng)
            assert req.ep2_set == {1 - req.ep1}

    def test_one_node_net_rejected(self):
        net = build_net([10**10], [])
        with pytest.raises(ServiceError, match="need at least two nodes"):
            generate_request(net, builtin_catalog(), RequestGenConfig(), random.Random(0))

    def test_degenerate_bounds(self):
        net = self._net()
        cfg = RequestGenConfig(chain_count=(1, 1), vsnfs_per_chain=(0, 0))
        req = generate_request(net, builtin_catalog(), cfg, random.Random(3))
        assert len(req.chains) == 1
        assert req.chains[0].vsnfs == ()

    def test_determinism(self):
        net = self._net()
        cfg = RequestGenConfig()
        first = [
            generate_request(net, builtin_catalog(), cfg, random.Random(42))
            for _ in range(1)
        ]
        a = [
            generate_request(net, builtin_catalog(), cfg, random.Random(42)).canonical_json()
            for _ in range(20)
        ]
        b = [
            generate_request(net, builtin_catalog(), cfg, random.Random(42)).canonical_json()
            for _ in range(20)
        ]
        assert a == b
        assert first[0].canonical_json() == a[0]

    def test_stateful_groups_inferred(self):
        net = self._net()
        cfg = RequestGenConfig(chain_count=(3, 5), vsnfs_per_chain=(2, 3))
        rng = random.Random(4)
        seen_group = False
        for _ in range(200):
            req = generate_request(net, builtin_catalog(), cfg, rng)
            for group in req.stateful_groups:
                seen_group = True
                names = {req.vsnf_at(m).name for m in group}
                assert len(names) == 1
                assert req.vsnf_at(group[0]).stateful
        assert seen_group

    def test_config_validation(self):
        with pytest.raises(ServiceError):
            RequestGenConfig(chain_count=(0, 3))
        with pytest.raises(ServiceError):
            RequestGenConfig(latency_menu=())
        with pytest.raises(ServiceError):
            RequestGenConfig(latency_menu=(0.1, math.nan))
        with pytest.raises(ServiceError):
            RequestGenConfig(border_bias=1.5)
        with pytest.raises(ServiceError):
            generate_request(self._net(), {}, RequestGenConfig(), random.Random(0))


class TestBaseline:
    def test_cctv_style_union(self):
        fw = vsnf("fortigate-ngfw", 9.0, stateful=True)
        ips = vsnf("snort", 9.5, stateful=True)
        req = request(
            0,
            [5],
            chain(fw, direction=DOWN, beta=1_000_000, lam=0.4),
            chain(ips, fw, direction=UP, beta=2_000_000, lam=0.1),
            chain(fw, ips, direction=DOWN, beta=3_000_000, lam=0.2),
        )
        agg = baseline_request(req)
        assert len(agg.chains) == 2
        up = next(c for c in agg.chains if c.direction == UP)
        down = next(c for c in agg.chains if c.direction == DOWN)
        assert [u.name for u in up.vsnfs] == ["snort", "fortigate-ngfw"]
        assert [u.name for u in down.vsnfs] == ["fortigate-ngfw", "snort"]
        assert up.beta_req == 2_000_000
        assert down.beta_req == 4_000_000
        assert up.lambda_max == 0.1
        assert down.lambda_max == 0.2  # min of 0.4 and 0.2
        # Both stateful functions now appear in both directions.
        assert len(agg.stateful_groups) == 2

    def test_min_latency_rule(self):
        req = request(
            0,
            [1],
            chain(direction=UP, lam=0.4, beta=10),
            chain(direction=UP, lam=0.1, beta=30),
        )
        agg = baseline_request(req)
        assert len(agg.chains) == 1
        assert agg.chains[0].lambda_max == 0.1
        assert agg.chains[0].beta_req == 40

    def test_sigma_bandwidth_weighted(self):
        req = request(
            0,
            [1],
            chain(direction=UP, beta=1_000, sigma=1000.0),
            chain(direction=UP, beta=3_000, sigma=9000.0),
        )
        agg = baseline_request(req)
        assert agg.chains[0].sigma == pytest.approx((1000 * 1000 + 9000 * 3000) / 4000)

    def test_pi_max_rule(self):
        req = request(
            0,
            [1],
            chain(direction=UP, pi=0.005),
            chain(direction=UP, pi=0.0),
        )
        assert baseline_request(req).chains[0].pi_external == 0.005

    def test_single_plain_chain_untouched(self):
        req = request(0, [1], chain(direction=DOWN, beta=7, lam=0.15))
        agg = baseline_request(req)
        assert agg.canonical_json() == req.canonical_json()

    @settings(max_examples=40, deadline=None)
    @given(st.integers(0, 10_000))
    def test_idempotent(self, seed):
        net = generate_barabasi_albert(12, 2, seed=0)
        req = generate_request(
            net, builtin_catalog(), RequestGenConfig(), random.Random(seed)
        )
        once = baseline_request(req)
        twice = baseline_request(once)
        assert once.canonical_json() == twice.canonical_json()

    def test_at_most_one_chain_per_direction(self):
        net = generate_barabasi_albert(12, 2, seed=0)
        rng = random.Random(5)
        for _ in range(100):
            req = generate_request(net, builtin_catalog(), RequestGenConfig(), rng)
            agg = baseline_request(req)
            directions = [c.direction for c in agg.chains]
            assert len(directions) == len(set(directions)) <= 2
            assert sum(c.beta_req for c in agg.chains) == req.total_bandwidth()


class TestRequestFromDoc:
    def test_happy_path(self):
        doc = {
            "ep1": 2,
            "ep2": [9, 4],
            "veto": [7],
            "chains": [
                {
                    "direction": "up",
                    "vsnfs": ["snort", {"name": "snort-lite", "gamma_u": 3.0}],
                    "bandwidth": 5_000_000,
                    "max_latency": 0.2,
                },
                {"direction": "down", "bandwidth": 1_000_000, "max_latency": 0.1},
            ],
        }
        req = request_from_doc(doc)
        assert req.ep1 == 2
        assert req.ep2_set == frozenset({4, 9})
        assert req.veto == frozenset({7})
        assert req.chains[0].vsnfs[0].gamma_u == 9.5
        assert req.chains[0].vsnfs[1].name == "snort-lite"
        assert req.chains[1].vsnfs == ()

    def test_string_number_coerced(self):
        # YAML 1.1 hands exponents without a sign through as strings.
        doc = {
            "ep1": 0,
            "ep2": 1,
            "chains": [{"bandwidth": "5.0e6", "max_latency": "0.2"}],
        }
        req = request_from_doc(doc)
        assert req.chains[0].beta_req == 5_000_000

    def test_inline_vsnf_inherits_catalog_fields(self):
        doc = {
            "ep1": 0,
            "ep2": 1,
            "chains": [{"vsnfs": [{"name": "snort", "region": "edge"},
                                  {"name": "snort", "gamma_u": "2e1", "stateful": False}],
                        "bandwidth": 1000, "max_latency": 0.1}],
        }
        first, second = request_from_doc(doc).chains[0].vsnfs
        assert (first.gamma_u, first.stateful, first.region) == (9.5, True, "edge")
        assert (second.gamma_u, second.stateful, second.region) == (20.0, False, None)

    def test_vsnf_defs_overlay(self):
        doc = {
            "vsnf_defs": {"dpi": {"gamma_u": 12.0, "stateful": True}},
            "ep1": 0,
            "ep2": 1,
            "chains": [
                {"vsnfs": ["dpi"], "bandwidth": 1000, "max_latency": 0.1},
                {"vsnfs": ["dpi"], "bandwidth": 1000, "max_latency": 0.1},
            ],
        }
        req = request_from_doc(doc)
        assert req.chains[0].vsnfs[0].stateful
        assert req.stateful_groups == (((0, 0), (1, 0)),)

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ({"ep2": 1, "chains": []}, "ep1"),
            ({"ep1": 0, "ep2": 1, "chains": []}, "chains"),
            (
                {"ep1": 0, "ep2": 1, "chains": [{"vsnfs": ["ghost"], "bandwidth": 1, "max_latency": 1}]},
                "chains[0]",
            ),
            (
                {"ep1": 0, "ep2": 1, "chains": [{"bandwidth": "lots", "max_latency": 1}]},
                "chains[0]",
            ),
            (
                {"ep1": 0, "ep2": 1, "chains": [{"bandwidth": 0, "max_latency": 1}]},
                "chains[0]",
            ),
            # A NaN bound would make every latency check pass.
            (
                {"ep1": 0, "ep2": 1, "chains": [{"bandwidth": 1, "max_latency": math.nan}]},
                "chains[0]: 'max_latency'",
            ),
            (
                {"ep1": 0, "ep2": 1, "chains": [{"bandwidth": 1, "max_latency": True}]},
                "chains[0]: 'max_latency'",
            ),
            *[
                (
                    {"ep1": 0, "ep2": 1, "chains": [
                        {"vsnfs": [{"name": "dpi", "gamma_u": gamma_u}], "bandwidth": 1,
                         "max_latency": 1}]},
                    "chains[0].vsnfs[0]: 'gamma_u'",
                )
                for gamma_u in ("abc", math.nan)
            ],
            *[
                (
                    {"vsnf_defs": {"dpi": {"gamma_u": gamma_u}}, "ep1": 0, "ep2": 1,
                     "chains": [{"vsnfs": ["dpi"], "bandwidth": 1, "max_latency": 1}]},
                    "vsnf_defs['dpi']: 'gamma_u'",
                )
                for gamma_u in ("abc", math.nan)
            ],
            # Node ids and group members are refused, not truncated, when
            # they are not ints.
            *[
                ({**fields, "chains": [{"bandwidth": 1, "max_latency": 1}]}, needle)
                for fields, needle in [
                    ({"ep1": 1.7, "ep2": 1}, "ep1: expected an integer, got 1.7"),
                    ({"ep1": True, "ep2": 1}, "ep1: expected an integer, got True"),
                    ({"ep1": 0, "ep2": 2.9}, "ep2: expected an integer, got 2.9"),
                    ({"ep1": 0, "ep2": [True, 2.9]}, "ep2[0]: expected an integer, got True"),
                    ({"ep1": 0, "ep2": [1, 2.9]}, "ep2[1]: expected an integer, got 2.9"),
                    ({"ep1": 0, "ep2": 1, "veto": 5}, "veto: expected a list, got 5"),
                    ({"ep1": 0, "ep2": 1, "veto": [3.5]}, "veto[0]: expected an integer"),
                    ({"ep1": 0, "ep2": 1, "stateful_groups": 5},
                     "stateful_groups: expected a list, got 5"),
                    ({"ep1": 0, "ep2": 1, "stateful_groups": [[[0, 0], [1.0, 0]]]},
                     "stateful_groups[0][1][0]: expected an integer, got 1.0"),
                    ({"ep1": 0, "ep2": 1, "stateful_groups": [[[0, 0], [1, 0, 2]]]},
                     "stateful_groups[0][1]: expected a [chain, position] pair"),
                ]
            ],
            (
                {"vsnf_defs": ["dpi"], "ep1": 0, "ep2": 1,
                 "chains": [{"bandwidth": 1, "max_latency": 1}]},
                "vsnf_defs: expected a mapping, got ['dpi']",
            ),
            (
                {"ep1": 0, "ep2": 1,
                 "chains": [{"vsnfs": "snort", "bandwidth": 1, "max_latency": 1}]},
                "chains[0].vsnfs: expected a list, got 'snort'",
            ),
        ],
    )
    def test_located_errors(self, doc, needle):
        with pytest.raises(ServiceError) as err:
            request_from_doc(doc)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"ep1": 0, "ep2": 1, "chain": [], "chains": [{"bandwidth": 1, "max_latency": 1}]},
             "request: unknown key 'chain'"),
            ({"ep1": 0, "ep2": 1, "chains": [{"bandwith": 5, "max_latency": 1}]},
             "chains[0]: unknown key 'bandwith'"),
            ({"ep1": 0, "ep2": 1, "chains": [
                {"bandwidth": 1, "max_latency": 1},
                {"vsnfs": ["snort", {"name": "dpi", "gamma": 12.0}], "bandwidth": 1,
                 "max_latency": 1}]},
             "chains[1].vsnfs[1]: unknown key 'gamma'"),
            ({"vsnf_defs": {"dpi": {"gamma_u": 12.0, "statefull": True}}, "ep1": 0, "ep2": 1,
              "chains": [{"vsnfs": ["dpi"], "bandwidth": 1, "max_latency": 1}]},
             "vsnf_defs['dpi']: unknown key 'statefull'"),
        ],
    )
    def test_unknown_keys_rejected(self, doc, message):
        with pytest.raises(ServiceError) as err:
            request_from_doc(doc)
        assert str(err.value) == message


def test_canonical_json_stable():
    req = request(0, [2, 1], chain(vsnf(), beta=5, lam=0.1))
    again = ServiceRequest(
        ep1=0,
        ep2_set=frozenset({1, 2}),
        chains=req.chains,
        stateful_groups=req.stateful_groups,
    )
    assert req.canonical_json() == again.canonical_json()
    assert '"ep2":[1,2]' in req.canonical_json()
