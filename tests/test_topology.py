import hashlib
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

import pess
from pess.topology import (
    DEFAULT_CPU_CAPACITY,
    DEFAULT_LINK_BANDWIDTH,
    DEFAULT_QUEUING_BUDGET,
    TopologyError,
    builtin_profile,
    default_node_profile,
    generate_barabasi_albert,
    load_topology,
    propagation_delay,
)


class TestPropagationDelay:
    def test_100_km(self):
        # 1e5 m * 1.5 / 3e8 m/s
        assert propagation_delay(100.0) == 5.0e-4

    def test_zero(self):
        assert propagation_delay(0.0) == 0.0

    def test_10_km(self):
        assert propagation_delay(10.0) == 5.0e-5

    def test_negative_rejected(self):
        with pytest.raises(TopologyError):
            propagation_delay(-1.0)

    @given(st.floats(0.0, 1e4), st.floats(0.0, 1e4))
    def test_linear(self, a, b):
        assert propagation_delay(a + b) == pytest.approx(
            propagation_delay(a) + propagation_delay(b), abs=1e-15
        )


def test_default_node_profile():
    node = default_node_profile(0)
    assert node.gamma_nominal == 67_200_000_000  # 32 cores at 2.1 GHz
    assert node.queuing_budget == pytest.approx(9.6e-4, rel=1e-12)
    assert DEFAULT_CPU_CAPACITY == 67_200_000_000
    assert DEFAULT_QUEUING_BUDGET == pytest.approx(12 * 80e-6)


class TestBarabasiAlbert:
    @pytest.mark.parametrize(
        "n,m,links", [(20, 2, 36), (1000, 5, 4975), (2, 1, 1), (50, 3, 141)]
    )
    def test_edge_count(self, n, m, links):
        net = generate_barabasi_albert(n, m, seed=7)
        assert net.n_nodes == n
        assert net.n_links == links  # m*n - m^2

    def test_deterministic(self):
        def shape(net):
            return (
                [(node.gamma_nominal, node.queuing_budget) for node in net.nodes],
                [(link.endpoints, link.beta_nominal, link.lambda_prop) for link in net.links],
            )

        a = shape(generate_barabasi_albert(30, 2, seed=5))
        assert a == shape(generate_barabasi_albert(30, 2, seed=5))
        assert a != shape(generate_barabasi_albert(30, 2, seed=6))

    def test_distances_mapped_to_delay(self):
        net = generate_barabasi_albert(25, 2, seed=1)
        lo = propagation_delay(10.0)
        hi = propagation_delay(100.0)
        for link in net.links:
            assert lo <= link.lambda_prop <= hi
            assert link.beta_nominal == DEFAULT_LINK_BANDWIDTH

    @pytest.mark.parametrize(
        "n,digest",
        [
            (20, "62273e366f93b4c3ed0b067bb37819a47cae4746e0d7aa55a805d3b1e01e2766"),
            (200, "432b8f564be77f6b85aabe7afa043b41eb9cf6571b768f243911dd75a3068b5c"),
            (1000, "9365a5fc8e89c0408d1bd85ef19ab3f6f8f98d04e7125babbf69e772ce184ad2"),
        ],
    )
    def test_links_pinned(self, n, digest):
        # Pins every link's endpoints and delay of BA(n, 2, seed=0), so any
        # change to the attachment draws or the distance draws shows here.
        net = generate_barabasi_albert(n, 2, seed=0)
        links = repr([(link.endpoints, link.lambda_prop) for link in net.links])
        assert hashlib.sha256(links.encode()).hexdigest() == digest

    def test_bad_parameters(self):
        with pytest.raises(TopologyError):
            generate_barabasi_albert(3, 3, seed=0)
        with pytest.raises(TopologyError):
            generate_barabasi_albert(5, 0, seed=0)

    @pytest.mark.parametrize(
        "n,m", [(n, m) for n in (2, 3, 8, 20, 200, 1000) for m in (1, 2, 3, 5) if m < n]
    )
    def test_ba_matches_networkx(self, n, m):
        nx = pytest.importorskip("networkx")
        for seed in range(5):
            rng = random.Random(seed)
            edges = list(nx.barabasi_albert_graph(n, m, seed=rng).edges())
            expected = [(edge, propagation_delay(rng.uniform(10.0, 100.0))) for edge in edges]
            net = generate_barabasi_albert(n, m, seed)
            assert [(link.endpoints, link.lambda_prop) for link in net.links] == expected


def test_import_leaves_networkx_out():
    # networkx is a test-only dependency; the library must not load it.
    src = str(Path(pess.__file__).parents[1])
    code = "import sys, pess; sys.exit('networkx' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0


def test_arc_indexing():
    net = generate_barabasi_albert(10, 2, seed=3)
    link = net.links[4]
    a, b = link.endpoints
    fwd, back = net.arc(a, b), net.arc(b, a)
    assert fwd == 8 and back == 9  # 2*link_id, 2*link_id + 1
    assert net.arc_delay(fwd) == net.arc_delay(back) == link.lambda_prop
    assert net.n_arcs == 2 * net.n_links
    with pytest.raises(TopologyError):
        net.arc(a, a)


MINI_DOC = """
nodes:
  - {name: left, capacity: 1000}
  - {name: right, capacity: 2000, queuing_budget: 0.0}
links:
  - {endpoints: [left, right], bandwidth: 10000000000, distance_km: 100}
"""


class TestLoadTopology:
    def test_minimal_document(self):
        net = load_topology(MINI_DOC)
        assert net.n_nodes == 2 and net.n_links == 1
        assert net.links[0].beta_nominal == 10**10
        assert net.links[0].lambda_prop == 5.0e-4
        assert net.nodes[1].name == "right"
        assert net.nodes[1].gamma_nominal == 2000

    def test_delay_overrides_distance(self):
        doc = {
            "nodes": [{"name": "a"}, {"name": "b"}],
            "links": [{"endpoints": ["a", "b"], "distance_km": 100, "delay": 0.125}],
        }
        assert load_topology(doc).links[0].lambda_prop == 0.125

    def test_exponent_strings_load(self):
        # YAML 1.1 reads 6.72e10 and 1e10 as strings: the exponent has no sign.
        doc = {
            "nodes": [{"name": "a", "capacity": "6.72e10"}, {"name": "b", "capacity": 6.72e+10}],
            "links": [{"endpoints": ["a", "b"], "bandwidth": "1e10", "distance_km": "1e2"}],
        }
        net = load_topology(doc)
        assert [node.gamma_nominal for node in net.nodes] == [67_200_000_000] * 2
        assert net.links[0].beta_nominal == 10**10
        assert net.links[0].lambda_prop == 5.0e-4

    def test_node_refs_by_id(self):
        doc = {
            "nodes": [{"name": "a"}, {"name": "b"}],
            "links": [{"endpoints": [0, 1], "delay": 0.0}],
        }
        assert load_topology(doc).links[0].endpoints == (0, 1)

    @pytest.mark.parametrize(
        "doc,needle",
        [
            ({"nodes": [], "links": []}, "'nodes'"),
            (
                {
                    "nodes": [{"name": "x"}, {"name": "x"}],
                    "links": [{"endpoints": [0, 1], "delay": 0}],
                },
                "nodes[1]",
            ),
            (
                {
                    "nodes": [{"name": "a"}, {"name": "b"}],
                    "links": [{"endpoints": ["a", "ghost"], "delay": 0}],
                },
                "links[0]",
            ),
            (
                {
                    "nodes": [{"name": "a"}, {"name": "b"}],
                    "links": [{"endpoints": ["a", "a"], "delay": 0}],
                },
                "self-loop",
            ),
            (
                {
                    "nodes": [{"name": "a", "capacity": -5}, {"name": "b"}],
                    "links": [{"endpoints": ["a", "b"], "delay": 0}],
                },
                "nodes[0]",
            ),
            (
                {
                    "nodes": [{"name": "a"}, {"name": "b"}],
                    "links": [{"endpoints": ["a", "b"]}],
                },
                "distance_km",
            ),
            (
                {
                    "nodes": [{"name": "a"}, {"name": "b"}],
                    "links": [{"endpoints": ["a", "b"], "delay": 0}],
                    "regions": {"edge": ["ghost"]},
                },
                "regions['edge']",
            ),
            # Values that are not finite numbers, wherever a number is read.
            *[
                (
                    {
                        "nodes": [{"name": "a", **node}, {"name": "b"}],
                        "links": [{"endpoints": ["a", "b"], **link}],
                    },
                    needle,
                )
                for node, link, needle in [
                    ({"capacity": math.inf}, {"delay": 0}, "nodes[0]: 'capacity'"),
                    ({"capacity": True}, {"delay": 0}, "nodes[0]: 'capacity'"),
                    ({"queuing_budget": math.nan}, {"delay": 0}, "nodes[0]: 'queuing_budget'"),
                    ({}, {"delay": "abc"}, "links[0]: 'delay'"),
                    ({}, {"delay": [1]}, "links[0]: 'delay'"),
                    ({}, {"delay": math.nan}, "links[0]: 'delay'"),
                    ({}, {"distance_km": "abc"}, "links[0]: 'distance_km'"),
                    ({}, {"distance_km": math.nan}, "links[0]: 'distance_km'"),
                    ({}, {"bandwidth": "fast", "delay": 0}, "links[0]: 'bandwidth'"),
                    # Integer quantities are refused, not truncated, when fractional.
                    ({"capacity": 1.7}, {"delay": 0},
                     "nodes[0]: 'capacity' must be a whole number, got 1.7"),
                    ({}, {"bandwidth": 2.5, "delay": 0},
                     "links[0]: 'bandwidth' must be a whole number, got 2.5"),
                    ({}, {"bandwidth": "2.5e0", "delay": 0},
                     "links[0]: 'bandwidth' must be a whole number"),
                ]
            ],
        ],
    )
    def test_located_errors(self, doc, needle):
        with pytest.raises(TopologyError) as err:
            load_topology(doc)
        assert needle in str(err.value)

    @pytest.mark.parametrize(
        "doc,message",
        [
            ({"network": "campus", "nodes": [{"name": "a"}, {"name": "b"}],
              "links": [{"endpoints": ["a", "b"], "delay": 0}]},
             "topology: unknown key 'network'"),
            ({"nodes": [{"name": "a"}, {"name": "b", "cpu": 5}],
              "links": [{"endpoints": ["a", "b"], "delay": 0}]},
             "nodes[1]: unknown key 'cpu'"),
            # A misspelt bandwidth must not quietly give a 10 Gb/s link.
            ({"nodes": [{"name": "a"}, {"name": "b"}],
              "links": [{"endpoints": ["a", "b"], "bandwith": 5, "distance_km": 10}]},
             "links[0]: unknown key 'bandwith'"),
        ],
    )
    def test_unknown_keys_rejected(self, doc, message):
        with pytest.raises(TopologyError) as err:
            load_topology(doc)
        assert str(err.value) == message

    def test_disconnected_rejected(self):
        doc = {
            "nodes": [{"name": n} for n in "abcd"],
            "links": [
                {"endpoints": ["a", "b"], "delay": 0},
                {"endpoints": ["c", "d"], "delay": 0},
            ],
        }
        with pytest.raises(TopologyError, match="disconnected"):
            load_topology(doc)


def test_garr_profile():
    net = builtin_profile("garr")
    assert net.n_nodes == 46
    assert net.n_links == 83
    border = net.regions["border"]
    assert len(border) == 5
    names = {net.nodes[i].name for i in border}
    assert names == {"FI1", "MI2", "PD2", "RM2", "TO1"}
    assert all(node.gamma_nominal == DEFAULT_CPU_CAPACITY for node in net.nodes)


def test_stanford_profile():
    net = builtin_profile("stanford")
    assert net.n_nodes == 26
    assert net.n_links == 46
    assert all(link.lambda_prop == 0.0 for link in net.links)
    for node in net.nodes:
        assert node.queuing_budget == pytest.approx(4 * 80e-6)
    assert len(net.regions["border"]) == 2


def test_builtin_profile_unknown():
    with pytest.raises(TopologyError, match="no bundled topology"):
        builtin_profile("arpanet")


def test_connectivity_check_message():
    # The reachability check names an unreachable node.
    doc = {
        "nodes": [{"name": "a"}, {"name": "b"}, {"name": "c"}],
        "links": [{"endpoints": ["a", "b"], "delay": 0}],
    }
    with pytest.raises(TopologyError) as err:
        load_topology(doc)
    assert "node 2" in str(err.value)


def test_total_cpu():
    net = load_topology(MINI_DOC)
    assert net.total_cpu == 3000
    assert math.isclose(sum(n.gamma_nominal for n in net.nodes), net.total_cpu)
