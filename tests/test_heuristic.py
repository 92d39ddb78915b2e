import functools
import hashlib
import heapq
import math
import random

import pytest
from hypothesis import event, given, settings, strategies as st

from helpers import build_net, chain, path_net, request, vsnf
from pess import heuristic
from pess.heuristic import (
    REASON_INFEASIBLE,
    REASON_NO_ROUTE,
    _Tree,
    detour_vias,
    pess_embed,
    place_on_path,
    price_path,
)
from pess.service import (
    DOWN,
    UP,
    RequestGenConfig,
    ServiceError,
    builtin_catalog,
    generate_request,
    infer_stateful_groups,
)
from pess.simulator import WorkloadConfig, generate_stream, replay
from pess.state import (
    CostParams,
    NetworkState,
    chain_fixed_delay,
    embedding_cost,
    gamma_threshold,
    recheck_operational,
    validate_embedding,
)
from pess.topology import DEFAULT_CPU_CAPACITY, PhysicalNetwork, generate_barabasi_albert

PARAMS = CostParams()


class TestPlaceOnPath:
    def test_hotspot_is_highest_residual(self):
        net = path_net([10**10, 9 * 10**10, 5 * 10**10])
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(), beta=1000, lam=0.4))
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert code is None
        assert cand.embedding.chains[0].vsnf_nodes == (1,)

    def test_hotspot_tie_prefers_lower_node(self):
        net = path_net([10**10, 10**10, 10**10])
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(), beta=1000, lam=0.4))
        cand, _ = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert cand.embedding.chains[0].vsnf_nodes == (0,)

    def test_down_chain_route_reversed(self):
        net = path_net([10**10] * 3, delay=1e-5)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(direction=DOWN, beta=1000, lam=0.4))
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert code is None
        cemb = cand.embedding.chains[0]
        assert (cemb.src, cemb.dst) == (2, 0)
        assert cemb.segments == ((2, 1, 0),)

    def test_node_capacity_code(self):
        net = path_net([100, 100, 100])
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(gamma=9.5), beta=10**6, lam=0.4))
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert cand is None and code == "node-capacity"

    def test_link_capacity_code(self):
        net = path_net([10**10] * 3, bandwidth=500)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(beta=1000, lam=0.4))
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert cand is None and code == "link-capacity"

    def test_latency_code(self):
        net = path_net([10**10] * 3, delay=0.3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(beta=1000, lam=0.2))
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert cand is None and code == "latency"

    def test_region_pin_and_mismatch(self):
        net = build_net(
            [10**10] * 3,
            [(0, 1), (1, 2)],
            regions={"dmz": [2]},
        )
        state = NetworkState.fresh(net)
        pinned = request(0, [2], chain(vsnf(region="dmz"), beta=1000, lam=0.4))
        cand, code = place_on_path(state, (0, 1, 2), pinned, PARAMS)
        assert code is None
        assert cand.embedding.chains[0].vsnf_nodes == (2,)

        off_path = request(0, [1], chain(vsnf(region="dmz"), beta=1000, lam=0.4))
        cand, code = place_on_path(state, (0, 1), off_path, PARAMS)
        assert cand is None and code == "region"

    def test_ep1_pin(self):
        net = path_net([10**10] * 3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(region="ep1"), beta=1000, lam=0.4))
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert code is None
        assert cand.embedding.chains[0].vsnf_nodes == (0,)

    def test_veto_moves_hotspot(self):
        net = path_net([10**10, 9 * 10**10, 5 * 10**10])
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(), beta=1000, lam=0.4), veto=[1])
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert code is None
        assert cand.embedding.chains[0].vsnf_nodes == (2,)

    def test_all_vetoed(self):
        net = path_net([10**10] * 3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(), beta=1000, lam=0.4), veto=[0, 1, 2])
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert cand is None and code == "veto"

    def test_stateful_group_colocated(self):
        net = path_net([10**10, 9 * 10**10, 10**10])
        state = NetworkState.fresh(net)
        ids = vsnf("snort", 9.5, stateful=True)
        req = request(
            0,
            [2],
            chain(ids, beta=1000, lam=0.4),
            chain(ids, direction=DOWN, beta=1000, lam=0.4),
            groups=[[(0, 0), (1, 0)]],
        )
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert code is None
        up, down = cand.embedding.chains
        assert up.vsnf_nodes == down.vsnf_nodes == (1,)

    def test_stateful_conflict_code(self):
        # Pinning the same stateful function to ep1 in one chain and to a
        # disjoint region in the other leaves no shared host.
        net = build_net([10**10] * 3, [(0, 1), (1, 2)], regions={"dmz": [2]})
        state = NetworkState.fresh(net)
        ids_ep1 = vsnf("snort", 9.5, stateful=True, region="ep1")
        ids_dmz = vsnf("snort", 9.5, stateful=True, region="dmz")
        req = request(
            0,
            [2],
            chain(ids_ep1, beta=1000, lam=0.4),
            chain(ids_dmz, direction=DOWN, beta=1000, lam=0.4),
            groups=[[(0, 0), (1, 0)]],
        )
        cand, code = place_on_path(state, (0, 1, 2), req, PARAMS)
        assert cand is None and code == "stateful"


@st.composite
def priced_instances(draw):
    """A small random network with random residuals, a simple path from a
    node, and a request with ep1/region pins (some unmatched), vetoes and
    mixed directions."""
    n = draw(st.integers(2, 7))
    edges = [(draw(st.integers(0, i - 1)), i) for i in range(1, n)]
    extra = [(a, b) for a in range(n) for b in range(a + 1, n) if (a, b) not in edges]
    edges += draw(st.lists(st.sampled_from(extra), unique=True, max_size=4)) if extra else []
    links = [(a, b, {"bandwidth": draw(st.integers(10**7, 10**8)),
                     "delay": draw(st.floats(0.0, 1e-3))}) for a, b in edges]
    caps = draw(st.lists(st.integers(10**8, 10**10), min_size=n, max_size=n))
    dmz = draw(st.sets(st.integers(0, n - 1), min_size=1))
    net = build_net(caps, links, queuing=draw(st.sampled_from([0.0, 1e-4])),
                    regions={"dmz": dmz})
    state = NetworkState.fresh(net)

    def residual(nominal):
        return draw(st.one_of(st.just(nominal), st.integers(nominal // 10, nominal),
                              st.integers(0, nominal)))

    state.residual_gamma = [residual(c) for c in caps]
    state.residual_beta = [
        residual(net.links[arc // 2].beta_nominal) for arc in range(net.n_arcs)
    ]

    path = [draw(st.integers(0, n - 1))]
    for _ in range(draw(st.integers(1, n - 1))):
        steps = sorted(b for b, _ in net.adjacency[path[-1]] if b not in path)
        if not steps:
            break
        path.append(draw(st.sampled_from(steps)))
    path = tuple(path)

    specs = [vsnf("snort", 9.5, stateful=True, region=region)
             for region in (None, None, "ep1", "dmz", "lab")]
    specs += [vsnf("openvpn", 31.0, region=region) for region in (None, None, "ep1", "dmz")]
    chains = [
        chain(*draw(st.lists(st.sampled_from(specs), max_size=3)),
              direction=draw(st.sampled_from([UP, DOWN])),
              beta=draw(st.integers(1, 10**6)),
              lam=draw(st.sampled_from([1e-3, 1.0])))
        for _ in range(draw(st.integers(1, 3)))
    ]
    ep1 = draw(st.sampled_from([path[0], path[0], draw(st.integers(0, n - 1))]))
    req = request(ep1, {path[-1]} | draw(st.sets(st.integers(0, n - 1))), *chains,
                  groups=infer_stateful_groups(chains),
                  veto=draw(st.sets(st.integers(0, n - 1), max_size=2)))
    params = CostParams(alpha=draw(st.sampled_from([0.0, 1.0, 2.5])),
                        delta=draw(st.sampled_from([1e-6, 0.5])))
    return state, path, req, params


class TestPricePath:
    @settings(max_examples=400, deadline=None)
    @given(priced_instances())
    def test_key_is_exact(self, instance):
        state, path, req, params = instance
        net = state.net
        arcs = [net.arc(a, b) for a, b in zip(path, path[1:])]
        placement, code = price_path(state, path, arcs, req, params)
        cand, failed = place_on_path(state, path, req, params)
        event(f"place_on_path: {failed or 'placed'}")
        if placement is None:
            assert code in ("region", "veto")
            assert cand is None and failed == code
            return
        assert failed not in ("region", "veto")
        if cand is not None:
            hosts, cost = placement
            assert hosts == tuple(cemb.vsnf_nodes for cemb in cand.embedding.chains)
            assert cost == cand.cost == embedding_cost(state, cand.embedding, req, net, params)


class TestTree:
    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_grown_tree_reads_like_a_fresh_one(self, data):
        # The detour round grows the user-side tree on toward the expansion
        # set instead of searching afresh; every settled value must agree.
        draw = data.draw
        n = draw(st.integers(3, 30))
        net = generate_barabasi_albert(n, 2, seed=draw(st.integers(0, 99)))
        residual_beta = [draw(st.sampled_from([10**10, 10**9, 3 * 10**8, 10**3]))
                         for _ in range(net.n_arcs)]
        source = draw(st.integers(0, n - 1))
        first = draw(st.sets(st.integers(0, n - 1), min_size=1))
        then = draw(st.sets(st.integers(0, n - 1), min_size=1))
        grown = _Tree(net, residual_beta, source, 10**6, 1e-6)
        grown.grow(first)
        grown.grow(then)
        fresh = _Tree(net, residual_beta, source, 10**6, 1e-6)
        fresh.grow(then)
        for target in then:
            assert grown.dist[target] == fresh.dist[target]
            if fresh.dist[target] != float("inf"):
                assert grown.path_to(target) == fresh.path_to(target)

    @settings(max_examples=300, deadline=None)
    @given(st.data())
    def test_reached_tree_reads_like_a_full_one(self, data):
        # reach leaves off nodes on no cheapest path to a target, and grow
        # later settles them; residuals from a few values make distances tie
        # (so parents tie), and arcs below beta_bar make some targets
        # unreachable. A large slack puts pops between the two raised limits,
        # where reach hands the rest of its growth to grow.
        draw = data.draw
        n = draw(st.integers(3, 30))
        net = generate_barabasi_albert(n, 2, seed=draw(st.integers(0, 99)))
        residual_beta = [draw(st.sampled_from([10**10, 10**9, 3 * 10**8, 10**3]))
                         for _ in range(net.n_arcs)]
        source = draw(st.integers(0, n - 1))
        targets = draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3))
        then = draw(st.sets(st.integers(0, n - 1), min_size=1))
        slack = draw(st.sampled_from([heuristic.BOUND_SLACK, 0.25]))
        full = _Tree(net, residual_beta, source, 10**6, 1e-6)
        full.grow(range(n))
        tree = _Tree(net, residual_beta, source, 10**6, 1e-6)
        handed_over = []
        grow = tree.grow
        tree.grow = lambda targets: handed_over.append(1) or grow(targets)

        def agrees(wanted):
            for node in range(n):
                if tree.done[node]:
                    assert tree.dist[node] == full.dist[node]
                    assert tree.path_to(node) == full.path_to(node)
            for target in wanted:
                assert tree.done[target] == full.done[target]

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heuristic, "BOUND_SLACK", slack)
            tree.reach(targets)
        event(f"reach: {'handed over' if handed_over else 'deferred' if tree.deferred else 'full'}")
        event(f"targets reachable: {sum(full.done[t] for t in targets)} of {len(targets)}")
        agrees(targets)
        tree.grow(then)
        agrees(then)


@st.composite
def detour_instances(draw):
    """A small BA graph with random residuals (CPU from a few values, so
    hotspots tie) and a request: vetoes, 1-3 remote endpoints, chains of
    either direction with 0-3 VSNFs, some pinned to ``ep1`` or a region."""
    n = draw(st.integers(4, 25))
    base = generate_barabasi_albert(n, 2, seed=draw(st.integers(0, 99)))
    net = PhysicalNetwork(base.nodes, base.links,
                          {"dmz": draw(st.sets(st.integers(0, n - 1), min_size=1))})
    state = NetworkState.fresh(net)
    state.residual_gamma = draw(st.lists(st.sampled_from([0, 10**9, 5 * 10**9, 3 * 10**10]),
                                         min_size=n, max_size=n))
    state.residual_beta = draw(st.lists(st.sampled_from([0, 10**7, 3 * 10**8, 10**9, 10**10]),
                                        min_size=net.n_arcs, max_size=net.n_arcs))
    specs = [vsnf("snort", 9.5), vsnf("openvpn", 31.0), vsnf("vsrx-fw", 2.3)]
    if draw(st.booleans()):
        specs += [vsnf("openvpn", 31.0, region="ep1"), vsnf("snort", 9.5, region="dmz")]
    chains = [
        chain(*draw(st.lists(st.sampled_from(specs), max_size=3)),
              direction=draw(st.sampled_from([UP, DOWN])), beta=draw(st.integers(1, 10**6)))
        for _ in range(draw(st.integers(1, 3)))
    ]
    req = request(draw(st.integers(0, n - 1)),
                  draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)), *chains,
                  veto=draw(st.sets(st.integers(0, n - 1), max_size=n)))
    params = CostParams(alpha=draw(st.sampled_from([0.0, 1.0, 2.5])),
                        delta=draw(st.sampled_from([1e-6, 0.5])))
    return state, req, params


def _directional_distances(state, source, forward_beta, backward_beta, delta):
    """Plain Dijkstra from ``source`` over the arcs that carry the request
    away from it, each arc ``a`` weighted ``forward_beta / (r(a) + delta) +
    backward_beta / (r(a ^ 1) + delta)``."""
    beta_bar = forward_beta + backward_beta
    dist = [math.inf] * state.net.n_nodes
    dist[source] = 0.0
    heap = [(0.0, source)]
    while heap:
        d, here = heapq.heappop(heap)
        if d > dist[here]:
            continue
        for neighbor, arc in state.net.adjacency[here]:
            if state.residual_beta[arc] < beta_bar:
                continue
            weight = (forward_beta / (state.residual_beta[arc] + delta)
                      + backward_beta / (state.residual_beta[arc ^ 1] + delta))
            if d + weight < dist[neighbor]:
                dist[neighbor] = d + weight
                heapq.heappush(heap, (dist[neighbor], neighbor))
    return dist


def _incumbent(state, req, params):
    """The first initial path, in ``(cost, len, path)`` order, that places,
    as ``(cost, path)``; None if none does."""
    user = _Tree(state.net, state.residual_beta, req.ep1, req.total_bandwidth(), params.delta)
    user.grow(req.ep2_set)
    ranked = []
    for target in req.ep2_set:
        if user.done[target]:
            path, arcs = user.path_to(target)
            placement, _ = price_path(state, path, arcs, req, params)
            if placement is not None:
                ranked.append((placement[1], len(path), path))
    for cost, _, path in sorted(ranked):
        if place_on_path(state, path, req, params)[0] is not None:
            return cost, path
    return None


def _record_rounds(monkeypatch):
    """Make pess_embed record, per detour round, the vias it grows the
    anchor's tree toward: the targets of each tree grown without ``reach``,
    which only the user tree runs."""
    rounds = []

    class RecordingTree(_Tree):
        user_side = False

        def reach(self, targets):
            self.user_side = True
            super().reach(targets)

        def grow(self, targets):
            if not self.user_side:
                rounds.append(sorted(targets))
            super().grow(targets)

    monkeypatch.setattr(heuristic, "_Tree", RecordingTree)
    return rounds


def _recording_own_search(decided):
    """``heuristic._meets_within`` that records in ``decided`` how it
    decided each via: by the other side's frontier alone, or by its search."""
    meets_within = heuristic._meets_within

    def recording(state, beta_bar, delta, side, via, room):
        fits = meets_within(state, beta_bar, delta, side, via, room)
        decided[via] = ("kept by its own search" if fits
                        else "dropped by the other frontier" if side[1] > room
                        else "dropped by its own search")
        return fits

    return recording


class TestDetourVias:
    @settings(max_examples=300, deadline=None)
    @given(detour_instances())
    def test_dropped_detours_cost_more_than_the_limit(self, instance):
        # pess_embed runs the proof once, against its incumbent (the first
        # initial path that places), and only when it has one; with no
        # running chain the incumbent passes its recheck, so what the proof
        # drops stays dropped. The proof holds for any anchor and limit, so
        # it is also run from each initial path, against that path's cost,
        # over every node off it. Every dropped via's bound, from full
        # searches, exceeds the limit. Both trees grown in full, every simple
        # detour through a dropped via is priced: each costs strictly more
        # than the limit, so it sorts after the incumbent in (cost, len,
        # path) order whatever its length, and an equal cost would fail.
        # The user tree is the one pess_embed hands the proof: grown by
        # reach, so the proof reads exact heads only where it settled.
        state, req, params = instance
        calls = []

        def spy(*args):
            kept = detour_vias(*args)
            calls.append((args, kept))
            return kept

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(heuristic, "detour_vias", spy)
            pess_embed(state, req, params, register=False)
        incumbent = _incumbent(state, req, params)
        if calls:
            assert len(calls) == 1 and incumbent is not None
            (*_, anchor, _, limit), _ = calls[0]
            assert (limit, anchor) == (incumbent[0], incumbent[1][-1])
        event(f"pess_embed's proof: {'ran' if calls else 'skipped'}, "
              f"{'no ' if incumbent is None else ''}incumbent")

        nodes = range(state.net.n_nodes)
        beta_bar = req.total_bandwidth()
        user = _Tree(state.net, state.residual_beta, req.ep1, beta_bar, params.delta)
        user.reach(req.ep2_set)
        full = _Tree(state.net, state.residual_beta, req.ep1, beta_bar, params.delta)
        full.grow(nodes)
        for anchor in sorted(req.ep2_set):
            if not user.done[anchor]:
                continue
            path, arcs = user.path_to(anchor)
            placement, _ = price_path(state, path, arcs, req, params)
            if placement is None:
                continue
            limit = placement[1]
            expansion = set(nodes) - set(path) - req.veto
            decided = {}
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(heuristic, "_meets_within", _recording_own_search(decided))
                kept = detour_vias(state, req, params, user, anchor, expansion, limit)
            assert set(kept) <= expansion and kept == sorted(kept)
            dropped = expansion - set(kept)
            event(f"proof dropped {'every' if not kept else 'some' if dropped else 'no'} via")
            for via in expansion:
                event(decided.get(via, "via decided by both sides" if via in kept
                                  else "dropped in the balanced phase"))
            up_beta = sum(c.beta_req for c in req.chains if c.direction == UP)
            down_beta = beta_bar - up_beta
            cpu_weight = params.alpha * sum(sum(c.cpu_demands) for c in req.chains)
            floor = cpu_weight / (max(state.residual_gamma) + params.delta) if cpu_weight else 0.0
            budget = limit / (1.0 - heuristic.BOUND_SLACK) - floor
            from_ep1 = _directional_distances(state, req.ep1, up_beta, down_beta, params.delta)
            from_anchor = _directional_distances(state, anchor, down_beta, up_beta, params.delta)
            for via in expansion:
                # A via the user tree settled has an exact head: the weights
                # summed along its tree path.
                head = from_ep1[via]
                if user.done[via]:
                    head = sum(up_beta / (state.residual_beta[arc] + params.delta)
                               + down_beta / (state.residual_beta[arc ^ 1] + params.delta)
                               for arc in user.path_to(via)[1])
                # Sound: every dropped via's bound exceeds the budget. Exact:
                # every kept via's bound fits it, so the proof keeps no more
                # than it must.
                if via in dropped:
                    assert head + from_anchor[via] > budget - 1e-12 * limit
                else:
                    assert head + from_anchor[via] <= budget + 1e-12 * limit
            remote = _Tree(state.net, state.residual_beta, anchor, beta_bar, params.delta)
            remote.grow(nodes)
            for via in sorted(dropped):
                if math.isinf(full.dist[via]) or math.isinf(remote.dist[via]):
                    continue
                head, head_arcs = full.path_to(via)
                tail, tail_arcs = remote.path_to(via)
                detour = head + tail[-2::-1]
                if len(set(detour)) != len(detour):
                    continue
                detour_arcs = head_arcs + [arc ^ 1 for arc in reversed(tail_arcs)]
                priced, _ = price_path(state, detour, detour_arcs, req, params)
                if priced is not None:
                    event("dropped detour priced")
                    assert priced[1] > limit

    @staticmethod
    def _one_sided(edges, monkeypatch):
        """Run the proof for via 2 from ep1 0 to anchor 1 under a limit of
        1.0, on links whose residual makes each arc weigh ``w`` for one up
        chain of 1000 bit/s and no CPU term; return the kept list and how
        via 2 was decided."""
        net = build_net([10**10] * 5, [(a, b, {"bandwidth": round(1000 / w)}) for a, b, w in edges])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=1000))
        params = CostParams(alpha=0.0)
        user = _Tree(net, state.residual_beta, 0, 1000, params.delta)
        user.reach(req.ep2_set)
        decided = {}
        monkeypatch.setattr(heuristic, "_meets_within", _recording_own_search(decided))
        return detour_vias(state, req, params, user, 1, {2}, 1.0), decided.get(2)

    def test_own_search_drops_a_via_the_frontier_cannot(self, monkeypatch):
        # The line 2-0-1-3-4: via 2 is one cheap hop from ep1, and its only
        # way to the anchor runs back through ep1, 0.3 + 1.0 against the
        # budget of 1.0 less its head of 0.3. The anchor's cheap dead-end
        # tail keeps that side's frontier at 0.5 when the balanced phase
        # stops, below the 0.7 left, so the frontier alone cannot drop the
        # via; the via's own search does, once its least key reaches 0.3.
        edges = [(2, 0, 0.3), (0, 1, 1.0), (1, 3, 0.25), (3, 4, 0.25)]
        assert self._one_sided(edges, monkeypatch) == ([], "dropped by its own search")

    def test_own_search_keeps_a_via_it_meets_within_the_budget(self, monkeypatch):
        # The ladder with rails 0-1 and 2-4-3 and rungs 0-2 and 1-3. The
        # balanced phase settles via 2 from ep1 (head 0.3) and node 3 from
        # the anchor, which labels node 4 at 0.55 without settling it. The
        # via's own search labels node 4 at 0.1 and meets that label within
        # the 0.7 left: the detour 0-2-4-3-1 costs 0.95.
        edges = [(0, 1, 1.0), (0, 2, 0.3), (1, 3, 0.2), (2, 4, 0.1), (4, 3, 0.35)]
        assert self._one_sided(edges, monkeypatch) == ([2], "kept by its own search")

    def test_no_incumbent_keeps_every_via(self, monkeypatch):
        # The initial path 0-1 cannot host the VSNF, so no path places before
        # the detour round and nothing bounds it: both richer nodes become vias.
        net = build_net([1000, 1000, 10**10, 10**10], [(0, 1), (0, 2), (2, 1), (1, 3)])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(gamma=9.5), beta=10**6, lam=0.4))
        rounds = _record_rounds(monkeypatch)

        def no_proof(*args):
            raise AssertionError("the proof ran without an incumbent")

        monkeypatch.setattr(heuristic, "detour_vias", no_proof)
        out = pess_embed(state, req, PARAMS)
        assert rounds == [[2, 3]]
        assert out.embedding.chains[0].vsnf_nodes == (2,)

    def test_incumbent_that_breaks_a_running_chain_keeps_every_via(self, monkeypatch):
        # Node 2 has the most CPU but hangs off the path 0-1 behind a thin
        # link, so the proof drops it. That is sound only if the path 0-1
        # passes its recheck; when it does not, node 2 stays a via.
        net = build_net([10**10, 10**10, 2 * 10**10], [(0, 1), (1, 2, {"bandwidth": 2000})])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(gamma=9.5), beta=1000, lam=0.4))
        proofs = []
        rounds = _record_rounds(monkeypatch)

        def recording_detour_vias(*args):
            proofs.append(detour_vias(*args))
            return proofs[-1]

        monkeypatch.setattr(heuristic, "detour_vias", recording_detour_vias)
        assert pess_embed(state, req, PARAMS, register=False).accepted
        assert (proofs, rounds) == ([[]], [])

        class Broken:
            ok = False

        monkeypatch.setattr(heuristic, "recheck_operational", lambda *args: Broken())
        out = pess_embed(state, req, PARAMS, register=False)
        assert (out.reason, out.violation) == (REASON_INFEASIBLE, "op-latency")
        assert (proofs, rounds) == ([[], []], [[2]])


class TestPessEmbed:
    def test_two_node_places_on_higher_residual(self):
        net = build_net([10**10, 3 * 10**10], [(0, 1)])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(), beta=1000, lam=0.4))
        out = pess_embed(state, req, PARAMS)
        assert out.accepted
        assert out.embedding.chains[0].vsnf_nodes == (1,)
        assert out.cost > 0
        assert len(out.chain_latencies) == 1
        assert out.service_id in state.services

    def test_no_route_when_bandwidth_short(self):
        net = path_net([10**10] * 3, bandwidth=500)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(beta=1000, lam=0.4))
        out = pess_embed(state, req, PARAMS)
        assert not out.accepted
        assert out.reason == REASON_NO_ROUTE
        assert out.violation is None

    def test_pruning_uses_total_bandwidth(self):
        # Each chain alone fits on the 1e10 links, the pair does not.
        net = path_net([10**10] * 3)
        state = NetworkState.fresh(net)
        req = request(
            0,
            [2],
            chain(beta=6 * 10**9, lam=0.4),
            chain(direction=DOWN, beta=6 * 10**9, lam=0.4),
        )
        out = pess_embed(state, req, PARAMS)
        assert out.reason == REASON_NO_ROUTE

    def test_infeasible_when_latency_unreachable(self):
        net = path_net([10**10] * 3, delay=0.3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(beta=1000, lam=0.2))
        out = pess_embed(state, req, PARAMS)
        assert out.reason == REASON_INFEASIBLE
        assert out.violation == "latency"

    def test_refusal_names_node_capacity(self):
        net = path_net([100, 100, 100])
        state = NetworkState.fresh(net)
        out = pess_embed(state, request(0, [2], chain(vsnf(), beta=10**6, lam=0.4)), PARAMS)
        assert (out.reason, out.violation) == (REASON_INFEASIBLE, "node-capacity")

    def test_refusal_names_op_latency(self):
        # The first chain runs at 3.7 ms against its 5 ms bound; a second
        # such VSNF on node 0 would push it to 6.9 ms.
        net = build_net([3 * 10**7, 1], [(0, 1)])
        state = NetworkState.fresh(net)
        assert pess_embed(state, request(0, [1], chain(vsnf(), lam=5e-3)), PARAMS).accepted
        out = pess_embed(state, request(0, [1], chain(vsnf(), lam=0.4)), PARAMS)
        assert (out.reason, out.violation) == (REASON_INFEASIBLE, "op-latency")

    @pytest.mark.xfail(strict=True, reason="ROADMAP item 1")
    def test_sibling_chains_meet_their_bounds_once_running(self):
        # An up and a down chain of one request, each with a 10 cycles/bit
        # VSNF at 1e7 bit/s, share a host that fits both with 1e4 cycles/s
        # to spare. Each is checked against the host less its own demand
        # (0.8 ms) and accepted; once both run it has 1e4 cycles/s left. The
        # net has no link delay, queuing or external term, so a chain's
        # latency is its VSNFs' cycles per packet over their hosts' residuals.
        cap = 2 * 10 * 10**7 + 10**4
        net = build_net([cap, cap], [(0, 1)])
        state = NetworkState.fresh(net)
        ids = vsnf("ids", gamma=10.0)
        req = request(0, [1], chain(ids, beta=10**7, lam=0.01),
                      chain(ids, direction=DOWN, beta=10**7, lam=0.01))
        pess_embed(state, req, PARAMS)
        for record in state.operational.values():
            running = record.load.chain
            latency = sum(spec.gamma_u * running.sigma / (state.residual_gamma[node] + PARAMS.delta)
                          for node, spec in zip(record.load.emb.vsnf_nodes, running.vsnfs))
            assert latency <= running.lambda_max

    def test_refusal_names_veto_when_no_path_places(self):
        net = path_net([10**10] * 3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(), beta=1000, lam=0.4), veto=[0, 1, 2])
        out = pess_embed(state, req, PARAMS)
        assert (out.reason, out.violation) == (REASON_INFEASIBLE, "veto")

    def test_refusal_names_first_candidate_in_scan_order(self):
        # The direct path's nodes are too small to host the VSNF, which makes
        # it the expensive candidate; the detour via node 2 is cheap but slow.
        net = build_net([100, 100, 10**10], [(0, 1), (0, 2, {"delay": 0.3}), (2, 1)])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(), beta=10**6, lam=0.2))
        out = pess_embed(state, req, PARAMS)
        assert (out.reason, out.violation) == (REASON_INFEASIBLE, "latency")

    def test_register_false_leaves_state(self):
        net = path_net([10**10] * 3)
        state = NetworkState.fresh(net)
        req = request(0, [2], chain(vsnf(), beta=1000, lam=0.4))
        before_gamma = list(state.residual_gamma)
        out = pess_embed(state, req, PARAMS, register=False)
        assert out.accepted and out.service_id is None
        assert state.residual_gamma == before_gamma
        assert not state.operational

    def test_deterministic(self):
        net = generate_barabasi_albert(15, 2, seed=3)
        state = NetworkState.fresh(net)
        req = generate_request(
            net, builtin_catalog(), RequestGenConfig(), random.Random(8)
        )
        a = pess_embed(state, req, PARAMS, register=False)
        b = pess_embed(state, req, PARAMS, register=False)
        assert a.accepted == b.accepted
        if a.accepted:
            assert a.embedding.to_dict() == b.embedding.to_dict()
            assert a.cost == b.cost

    def test_detour_taken_when_direct_link_full(self):
        # Direct 0-1 link too small for the flow; the 0-2-1 detour carries it.
        net = build_net(
            [10**10, 10**10, 10**10],
            [(0, 1, {"bandwidth": 500}), (0, 2), (2, 1)],
        )
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=1000, lam=0.4))
        out = pess_embed(state, req, PARAMS)
        assert out.accepted
        assert out.embedding.chains[0].segments == ((0, 2, 1),)

    def test_expansion_reaches_richer_host(self):
        # The cheap initial path 0-1 has starved nodes; node 2 hangs off the
        # path with far more CPU, so the detour should host the VSNF when the
        # direct nodes cannot.
        net = build_net(
            [1000, 1000, 10**10],
            [(0, 1), (0, 2), (2, 1)],
        )
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(vsnf(gamma=9.5), beta=10**6, lam=0.4))
        out = pess_embed(state, req, PARAMS)
        assert out.accepted
        assert out.embedding.chains[0].vsnf_nodes == (2,)

    def test_ep1_in_ep2_degenerate(self):
        net = path_net([10**10] * 2)
        state = NetworkState.fresh(net)
        req = request(0, [0, 1], chain(beta=1000, lam=0.4))
        out = pess_embed(state, req, PARAMS)
        assert out.accepted
        cemb = out.embedding.chains[0]
        assert cemb.src == cemb.dst == 0
        assert cemb.arcs(state.net) == []

    def test_out_of_range_request_rejected_early(self):
        net = path_net([10**10] * 2)
        state = NetworkState.fresh(net)
        with pytest.raises(ServiceError, match="ep2"):
            pess_embed(state, request(0, [5], chain()), PARAMS)

    def test_accepted_embeddings_survive_full_battery(self):
        net = generate_barabasi_albert(16, 2, seed=7)
        net.regions["border"] = frozenset({0, 1, 2})
        state = NetworkState.fresh(net)
        rng = random.Random(21)
        cfg = RequestGenConfig()
        accepted = 0
        for _ in range(150):
            req = generate_request(net, builtin_catalog(), cfg, rng)
            out = pess_embed(state, req, PARAMS, register=False)
            if out.accepted:
                accepted += 1
                assert validate_embedding(state, out.embedding, req, PARAMS) == []
                pess_embed(state, req, PARAMS)
        assert accepted > 100

    def test_fills_then_blocks_then_recovers(self):
        net = build_net([10**8, 10**8], [(0, 1, {"bandwidth": 10**6})])
        state = NetworkState.fresh(net)
        req = request(0, [1], chain(beta=600_000, lam=0.4))
        first = pess_embed(state, req, PARAMS)
        assert first.accepted
        second = pess_embed(state, req, PARAMS)
        assert second.reason == REASON_NO_ROUTE
        state.release(first.service_id)
        third = pess_embed(state, req, PARAMS)
        assert third.accepted

    def test_registers_the_loads_it_checked(self):
        # BA(20,2) churn with a sixteenth of the default CPU, so departures
        # and blocking both happen: every acceptance commits the load objects
        # its check built, each equal to one rebuilt from the embedding, and
        # the ledger still rebuilds to the same state.
        net = generate_barabasi_albert(20, 2, seed=0, cpu_capacity=DEFAULT_CPU_CAPACITY // 16)
        state = NetworkState.fresh(net)
        cfg = WorkloadConfig(load_erlang=150, n_requests=800, warmup=0)
        stream = generate_stream(net, cfg, seed=1)
        accepted = 0

        def solve(_, arrival):
            nonlocal accepted
            req = arrival.request
            out = pess_embed(state, req, PARAMS)
            if out.accepted:
                accepted += 1
                records = [state.operational[cid] for cid in state.services[out.service_id]]
                assert len(records) == len(out.loads) == len(req.chains)
                assert all(r.load is load for r, load in zip(records, out.loads))
                assert out.loads == out.embedding.loads(req, net)
                for record in records:
                    load = record.load
                    fixed = chain_fixed_delay(load.emb, load.chain, net)
                    assert record.threshold == gamma_threshold(load.chain, fixed, PARAMS.delta)
                twin = state.rebuilt()
                assert twin.residual_gamma == state.residual_gamma
                assert twin.residual_beta == state.residual_beta
                assert twin.node_guard == state.node_guard
            return out

        for _ in replay(state, stream, solve):
            pass
        assert 500 < accepted < 700
        assert len(state.services) < accepted  # some departed


# SHA-256 over every outcome of test_decisions_pinned. A change to the
# heuristic's decisions, costs, latencies or reasons changes it.
DECISION_DIGEST = "b80e7b3d1ade1910734337c17a474f989eeac6f9baacf9c55b8fc3fa9b07965e"


def _record(digest, out):
    emb = out.embedding.to_dict() if out.accepted else None
    digest.update(repr((emb, repr(out.cost), out.chain_latencies, out.reason)).encode())


def _odd_requests(net, rng, count):
    """Requests the generator never draws: VSNFs pinned to ep1 or to the
    ``dmz`` region (in an up chain, an ep1 pin after a hotspot VSNF, so its
    segments zigzag), vetoed nodes and several remote endpoints."""
    ids = vsnf("snort", 9.5, stateful=True)
    vpn_ep1 = vsnf("openvpn", 31.0, region="ep1")
    fw_dmz = vsnf("vsrx-fw", 2.3, region="dmz")
    dmz = sorted(net.regions["dmz"])
    for _ in range(count):
        ep1 = rng.randrange(net.n_nodes)
        ep2 = rng.sample(range(net.n_nodes), rng.randint(1, 3)) + rng.sample(dmz, rng.randint(0, 2))
        veto = rng.sample(range(net.n_nodes), rng.randint(0, 30))
        beta = rng.choice((10**6, 2 * 10**7, 10**8))
        lam = rng.choice((1.2e-3, 2e-3, 0.1))
        shapes = [
            (chain(ids, vpn_ep1, beta=beta, lam=lam),
             chain(ids, direction=DOWN, beta=beta, lam=lam)),
            (chain(fw_dmz, ids, beta=beta, lam=lam),
             chain(vpn_ep1, ids, direction=DOWN, beta=beta, lam=lam)),
            (chain(vpn_ep1, ids, fw_dmz, direction=rng.choice((UP, DOWN)), beta=beta, lam=lam),),
        ]
        chains = rng.choice(shapes)
        groups = [[(c, p) for c, ch in enumerate(chains) for p, spec in enumerate(ch.vsnfs)
                   if spec is ids]]
        yield request(ep1, ep2, *chains, groups=[g for g in groups if len(g) > 1], veto=veto)


def test_decisions_pinned():
    """Every pess_embed outcome of a seeded churn on a loaded BA(200,2)
    and of odd requests on the state it leaves."""
    base = generate_barabasi_albert(200, 2, seed=4)
    net = PhysicalNetwork(base.nodes, base.links,
                          {"border": range(6), "dmz": range(6, 40, 3)})
    gen = RequestGenConfig(latency_menu=(1.5e-3, 2e-3, 0.1, 0.4), border_bias=0.5,
                           external_latency=0.0)
    stream = generate_stream(net, WorkloadConfig(1000, 1000, 0, request_cfg=gen), 7)
    state = NetworkState.fresh(net)
    digest = hashlib.sha256()
    seen = {}

    def solve(idx, arrival):
        return pess_embed(state, arrival.request, PARAMS)

    outcomes = [out for _, _, out in replay(state, stream, solve)]
    outcomes += [pess_embed(state, req, PARAMS, register=False)
                 for req in _odd_requests(net, random.Random(11), 150)]
    for out in outcomes:
        _record(digest, out)
        seen[out.reason] = seen.get(out.reason, 0) + 1
    assert seen[None] > 500 and seen[REASON_INFEASIBLE] > 100
    assert digest.hexdigest() == DECISION_DIGEST


# SHA-256 over every outcome of test_detour_decisions_pinned, violations
# included, on each loaded state.
DETOUR_DIGESTS = {
    "loaded": "ea0bbf45be341728f55fafcd76ed7f5f2727a76434b69283b95979191ae8eb26",
    "cpu-scarce": "65bc8c293feeb8f950246313e9de4fee49d0b5b4d2aadf62f22199011c47892d",
}


def _detour_requests(net, rng, count):
    """Requests with no region pin: vetoed nodes, 1-3 remote endpoints,
    up-only, down-only, mixed and VSNF-free chains."""
    catalog = sorted(builtin_catalog().values(), key=lambda spec: spec.name)
    for _ in range(count):
        ep1 = rng.randrange(net.n_nodes)
        ep2 = rng.sample(range(net.n_nodes), rng.randint(1, 3))
        veto = rng.sample(range(net.n_nodes), rng.choice((0, 5, 40, 297)))
        directions = rng.choice(((UP,), (DOWN,), (UP, UP), (DOWN, DOWN), (UP, DOWN)))
        chains = [
            chain(*rng.sample(catalog, rng.randint(0, 3)), direction=direction,
                  beta=rng.choice((10**6, 2 * 10**7, 10**8, 10**9)),
                  lam=rng.choice((1.5e-3, 0.1)))
            for direction in directions
        ]
        yield request(ep1, ep2, *chains, groups=infer_stateful_groups(chains), veto=veto)


@functools.cache
def _loaded_ba300(cpu_capacity=DEFAULT_CPU_CAPACITY):
    """BA(300,2) with ``cpu_capacity`` cycles/s per node, loaded by a churn
    of 900 arrivals; tests only read it."""
    net = generate_barabasi_albert(300, 2, seed=9, cpu_capacity=cpu_capacity)
    stream = generate_stream(net, WorkloadConfig(900, 900, 0), 5)
    state = NetworkState.fresh(net)
    for _ in replay(state, stream, lambda idx, arrival: pess_embed(state, arrival.request, PARAMS)):
        pass
    return net, state


def _outcome(out):
    return (out.embedding.to_dict() if out.accepted else None, repr(out.cost),
            out.chain_latencies, out.reason, out.violation)


def test_detour_decisions_pinned(monkeypatch):
    """Every pess_embed outcome of unpinned requests on a loaded BA(300,2),
    and on a CPU-scarce one (5e9 cycles/s per node instead of 6.72e10),
    where far more of the accepted requests take a detour."""
    trees = []
    proofs = []

    class CountingTree(_Tree):
        def __init__(self, *args):
            super().__init__(*args)
            trees.append(self)

    def counting_detour_vias(*args):
        proofs.append(args)
        return detour_vias(*args)

    monkeypatch.setattr(heuristic, "_Tree", CountingTree)
    monkeypatch.setattr(heuristic, "detour_vias", counting_detour_vias)
    counts = {}
    for name, cpu_capacity in (("loaded", DEFAULT_CPU_CAPACITY), ("cpu-scarce", 5 * 10**9)):
        net, state = _loaded_ba300(cpu_capacity)
        digest = hashlib.sha256()
        decided = rounds = accepted = detours = 0
        for req in _detour_requests(net, random.Random(17), 150):
            trees.clear()
            proofs.clear()
            out = pess_embed(state, req, PARAMS, register=False)
            digest.update(repr(_outcome(out)).encode())
            # A request reaches the detour decision when some node beyond its
            # initial paths has more CPU: the proof then runs, or, with no
            # incumbent, the round does. A round builds the anchor's tree.
            decided += bool(proofs) or len(trees) > 1
            rounds += len(trees) > 1
            if out.accepted:
                accepted += 1
                initial = _Tree(net, state.residual_beta, req.ep1,
                                req.total_bandwidth(), PARAMS.delta)
                initial.grow(req.ep2_set)
                on_initial = {node for t in req.ep2_set if initial.done[t]
                              for node in initial.path_to(t)[0]}
                hosts = {node for cemb in out.embedding.chains
                         for segment in cemb.segments for node in segment}
                detours += not hosts <= on_initial
        counts[name] = (decided, rounds, accepted, detours)
        assert digest.hexdigest() == DETOUR_DIGESTS[name]
    assert counts["loaded"][0] > 60 and counts["loaded"][2] > 100
    assert counts["cpu-scarce"][0] > 80 and counts["cpu-scarce"][3] > 15
    assert counts["loaded"][1] > 15 and counts["cpu-scarce"][1] > 60


def test_detours_priced_only_when_reached(monkeypatch):
    # An accepted request prices about one initial path per remote endpoint
    # and the detours through the few vias its round keeps. Pricing a detour
    # through every via that reaches the detour decision, those the proof
    # drops included, would keep every decision but cost one price_path each.
    net, state = _loaded_ba300()
    priced = dropped = 0
    rounds = _record_rounds(monkeypatch)

    def counting_price_path(*args):
        nonlocal priced
        priced += 1
        return price_path(*args)

    def counting_detour_vias(*args):
        nonlocal dropped
        kept = detour_vias(*args)
        dropped += len(args[5]) - len(kept)
        return kept

    monkeypatch.setattr(heuristic, "price_path", counting_price_path)
    monkeypatch.setattr(heuristic, "detour_vias", counting_detour_vias)
    accepted = 0
    for req in _detour_requests(net, random.Random(17), 150):
        before = priced, dropped, len(rounds)
        if pess_embed(state, req, PARAMS, register=False).accepted:
            accepted += 1
        else:
            priced, dropped, _ = before
            del rounds[before[2]:]
    vias = dropped + sum(map(len, rounds))
    assert accepted > 100 and vias > 20 * accepted
    assert priced < 5 * accepted


def test_proof_changes_no_outcome(monkeypatch):
    """Every outcome, violation included, is the one a detour round that
    keeps every via gives: unpinned requests on both loaded BA(300,2)
    states, and the first 300 arrivals of a BA(1000,2) stream at 3000
    Erlang, where every request runs on the state the ones before it left."""
    dropped = {}

    def counting(workload):
        def counting_detour_vias(*args):
            kept = detour_vias(*args)
            dropped[workload] = dropped.get(workload, 0) + len(args[5]) - len(kept)
            return kept
        return counting_detour_vias

    def keep_every_via(state, req, params, user, anchor, expansion, limit):
        return sorted(expansion)

    ba1000 = generate_barabasi_albert(1000, 2, seed=0)
    stream = generate_stream(ba1000, WorkloadConfig(3000, 300, 0), 1)

    def outcomes(proof):
        records = {}
        for name, cpu_capacity in (("loaded", DEFAULT_CPU_CAPACITY), ("cpu-scarce", 5 * 10**9)):
            monkeypatch.setattr(heuristic, "detour_vias", proof(name))
            net, state = _loaded_ba300(cpu_capacity)
            records[name] = [_outcome(pess_embed(state, req, PARAMS, register=False))
                             for req in _detour_requests(net, random.Random(17), 150)]
        monkeypatch.setattr(heuristic, "detour_vias", proof("ba1000"))
        state = NetworkState.fresh(ba1000)

        def solve(_, arrival):
            return pess_embed(state, arrival.request, PARAMS)

        records["ba1000"] = [_outcome(out) for _, _, out in replay(state, stream, solve)]
        return records

    with_proof = outcomes(counting)
    assert all(dropped[name] > 100 for name in with_proof)
    assert outcomes(lambda _: keep_every_via) == with_proof
