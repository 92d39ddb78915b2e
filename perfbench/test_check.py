"""Each test feeds the benchmark's checker one hand-built violation.

Run from the repository root: ``PYTHONPATH=src python3 -m pytest perfbench -q``.
"""

import pytest

from check import Ledger
from pess.service import DOWN, UP, Chain, ServiceRequest, VsnfSpec
from pess.state import ChainEmbedding, CostParams, Embedding, NetworkState
from pess.topology import PhysicalLink, PhysicalNetwork, PhysicalNode

DELTA = CostParams().delta
FW = VsnfSpec("fw", 10.0, stateful=True)


def line(caps, delay=1e-4):
    """Nodes 0-1-2-... in a line, no queuing."""
    nodes = [PhysicalNode(i, cap, 0.0) for i, cap in enumerate(caps)]
    links = [PhysicalLink(i, (i, i + 1), 10**9, delay) for i in range(len(caps) - 1)]
    return PhysicalNetwork(nodes, links)


def chain(direction=UP, lam=0.1, beta=10**6, vsnfs=(FW,)):
    return Chain(direction, vsnfs, beta, lam)


def request(*chains, veto=(), groups=()):
    return ServiceRequest(0, frozenset({2}), chains, groups, frozenset(veto))


def one(src, dst, hosts, *segments):
    return ChainEmbedding(src, dst, tuple(hosts), tuple(map(tuple, segments)))


NET = line([10**9, 10**9, 10**9])
UP_ON_1 = one(0, 2, [1], [0, 1], [1, 2])


def problems_of(req, emb, net=NET):
    return Ledger(net).accept(0, req, Embedding(emb), DELTA)


def test_valid_embedding_passes():
    req = request(chain(), chain(DOWN), groups=[((0, 0), (1, 0))])
    emb = (UP_ON_1, one(2, 0, [1], [2, 1], [1, 0]))
    assert problems_of(req, emb) == []


def test_over_capacity():
    # 10 cycles/bit at 1e6 bit/s needs 1e7 cycles/s; node 1 has 9.9e6.
    net = line([10**9, 9_900_000, 10**9])
    problems = problems_of(request(chain()), (UP_ON_1,), net)
    assert any(p.startswith("node-capacity") for p in problems)


@pytest.mark.parametrize("host, segments", [
    (2, ([0, 2], [2])),           # 0-2 is no link
    (1, ([0, 1, 0, 1], [1, 2])),  # revisits nodes
    (1, ([0], [1, 2])),           # stops short of the VSNF host
])
def test_broken_or_looping_route(host, segments):
    problems = problems_of(request(chain()), (one(0, 2, [host], *segments),))
    assert any(p.startswith("route") for p in problems)


def test_vetoed_host():
    problems = problems_of(request(chain(), veto=[1]), (UP_ON_1,))
    assert any(p.startswith("veto") for p in problems)


def test_split_stateful_group():
    req = request(chain(), chain(DOWN), groups=[((0, 0), (1, 0))])
    emb = (UP_ON_1, one(2, 0, [2], [2], [2, 1, 0]))
    problems = problems_of(req, emb)
    assert any(p.startswith("stateful") for p in problems)


@pytest.mark.parametrize("vsnfs, hosts", [((FW,), [1]), ((), [])])
def test_latency_over_bound(vsnfs, hosts):
    # Two 0.1 ms links already exceed a 0.15 ms bound, with or without a VSNF.
    segments = ([0, 1], [1, 2]) if hosts else ([0, 1, 2],)
    problems = problems_of(request(chain(lam=1.5e-4, vsnfs=vsnfs)), (one(0, 2, hosts, *segments),))
    assert any(p.startswith("latency: new chain") for p in problems)


def test_live_chain_broken_by_acceptance():
    # The first chain runs at 0.08 ms on node 1; a second service leaving
    # 7e7 cycles/s there slows it to 1.14 ms, past its 1 ms bound.
    net = line([10**9, 10**9, 10**9], delay=0.0)
    ledger = Ledger(net)
    first = request(chain(lam=1e-3))
    assert ledger.accept(0, first, Embedding((UP_ON_1,)), DELTA) == []
    hog = request(chain(lam=1.0, beta=92_000_000))
    problems = ledger.accept(1, hog, Embedding((UP_ON_1,)), DELTA)
    assert any(p.startswith("latency: service 0 chain 0") for p in problems)


def test_ledger_mismatch():
    state = NetworkState.fresh(NET)
    req = request(chain())
    emb = Embedding((UP_ON_1,))
    service_id = state.register(emb, req, CostParams())
    ledger = Ledger(NET)
    assert ledger.accept(service_id, req, emb, DELTA) == []
    assert ledger.compare(state) == []
    state.residual_beta[0] += 1
    assert any(p.startswith("ledger: residual_beta") for p in ledger.compare(state))
    state.residual_beta[0] -= 1
    ledger.release(service_id)
    assert any(p.startswith("ledger: residual_gamma") for p in ledger.compare(state))
