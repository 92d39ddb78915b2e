"""Correctness checks for the benchmark, independent of the program's own
constraint battery.

Nothing here calls ``validate_embedding``, ``chain_latency``,
``embedding_cost``, ``recheck_operational`` or ``NetworkState.rebuilt``. The
checker reads only the program's data (network, request, embedding and the
state's residual vectors) and recomputes everything else itself: a residual
ledger, the route walk, the policies, and the delay and cost formulas.

Latency of an accepted chain is checked under the residuals *after* the whole
request is charged, which is what the chain sees once it runs; the program's
per-chain formula (pre-acceptance residual minus the chain's own demand) is
only used to recompute the oracle's min-latency score.
"""

from __future__ import annotations

import math

REL_TOL = 1e-9


def cpu_demand(gamma_u: float, beta: int) -> int:
    return round(gamma_u * beta)


def close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=REL_TOL, abs_tol=1e-15)


def arc_map(net) -> dict[tuple[int, int], int]:
    """Directed arc index per (tail, head): link i gives 2i forward, 2i+1 back."""
    arcs = {}
    for link in net.links:
        a, b = link.endpoints
        arcs[(a, b)] = 2 * link.id
        arcs[(b, a)] = 2 * link.id + 1
    return arcs


def fixed_delay(net, arcs, chain, cemb) -> float:
    """External term, propagation, and half a queuing budget wherever traffic
    leaves or enters a VSNF host over a link."""
    total = chain.pi_external
    last = len(cemb.segments) - 1
    for idx, seg in enumerate(cemb.segments):
        if len(seg) < 2:
            continue
        for a, b in zip(seg, seg[1:]):
            total += net.links[arcs[(a, b)] // 2].lambda_prop
        if idx > 0:
            total += net.nodes[seg[0]].queuing_budget / 2.0
        if idx < last:
            total += net.nodes[seg[-1]].queuing_budget / 2.0
    return total


def processing_terms(chain, cemb) -> list[tuple[int, float]]:
    """(host, cycles per packet) for each VSNF of a chain."""
    return [(node, spec.gamma_u * chain.sigma) for node, spec in zip(cemb.vsnf_nodes, chain.vsnfs)]


def per_chain_latency(net, arcs, gamma, chain, cemb, delta) -> float:
    """The program's latency definition: each VSNF's delay against the
    pre-acceptance residual minus that VSNF's own demand."""
    total = fixed_delay(net, arcs, chain, cemb)
    for node, spec in zip(cemb.vsnf_nodes, chain.vsnfs):
        own = cpu_demand(spec.gamma_u, chain.beta_req)
        total += spec.gamma_u * chain.sigma / ((gamma[node] - own) + delta)
    return total


def resource_cost(net, arcs, gamma, beta, req, emb, alpha, delta) -> float:
    """Bandwidth over inverse arc residual plus alpha times CPU over inverse
    node residual, summed over every traversal and placement."""
    total = 0.0
    for cemb, chain in zip(emb.chains, req.chains):
        for seg in cemb.segments:
            for a, b in zip(seg, seg[1:]):
                total += chain.beta_req / (beta[arcs[(a, b)]] + delta)
        for node, spec in zip(cemb.vsnf_nodes, chain.vsnfs):
            total += alpha * cpu_demand(spec.gamma_u, chain.beta_req) / (gamma[node] + delta)
    return total


def hosts_of(emb) -> set[int]:
    return {node for cemb in emb.chains for node in cemb.vsnf_nodes}


class Ledger:
    """Residual CPU and bandwidth rebuilt from the accepted embeddings alone,
    plus the live chains per node for the live-latency invariant."""

    def __init__(self, net) -> None:
        self.net = net
        self.arcs = arc_map(net)
        self.nominal_gamma = [node.gamma_nominal for node in net.nodes]
        self.nominal_beta = [link.beta_nominal for link in net.links for _ in (0, 1)]
        self.gamma = list(self.nominal_gamma)
        self.beta = list(self.nominal_beta)
        self.services: dict[int, tuple[dict, dict, list]] = {}
        self.chains_on: list[dict] = [{} for _ in net.nodes]

    # -- static checks on one embedding ------------------------------------

    def structure(self, req, emb) -> list[str]:
        """Shape, endpoints, routes, policies and capacity against the
        ledger's current (pre-acceptance) residuals."""
        net, arcs = self.net, self.arcs
        if len(emb.chains) != len(req.chains):
            return [f"structure: {len(emb.chains)} embeddings for {len(req.chains)} chains"]
        problems = []
        for idx, (cemb, chain) in enumerate(zip(emb.chains, req.chains)):
            where = f"chain {idx}"
            if len(cemb.vsnf_nodes) != len(chain.vsnfs):
                problems.append(f"structure: {where} places {len(cemb.vsnf_nodes)} "
                                f"of {len(chain.vsnfs)} vsnfs")
                continue
            if len(cemb.segments) != len(chain.vsnfs) + 1:
                problems.append(f"structure: {where} has {len(cemb.segments)} segments")
                continue
            user, remote = (cemb.src, cemb.dst) if chain.direction == "up" else (cemb.dst, cemb.src)
            if user != req.ep1:
                problems.append(f"endpoint: {where} user side on {user}, not ep1 {req.ep1}")
            if remote not in req.ep2_set:
                problems.append(f"endpoint: {where} remote side on {remote}, not in EP2")
            entities = (cemb.src, *cemb.vsnf_nodes, cemb.dst)
            for seg_idx, seg in enumerate(cemb.segments):
                if not seg or seg[0] != entities[seg_idx] or seg[-1] != entities[seg_idx + 1]:
                    problems.append(f"route: {where} segment {seg_idx} does not run "
                                    f"{entities[seg_idx]}->{entities[seg_idx + 1]}")
                if len(set(seg)) != len(seg):
                    problems.append(f"route: {where} segment {seg_idx} loops")
                for a, b in zip(seg, seg[1:]):
                    if (a, b) not in arcs:
                        problems.append(f"route: {where} segment {seg_idx} has no link {a}-{b}")
            for pos, (node, spec) in enumerate(zip(cemb.vsnf_nodes, chain.vsnfs)):
                if node in req.veto:
                    problems.append(f"veto: {where} vsnf {pos} on vetoed node {node}")
                if spec.region == "ep1" and node != req.ep1:
                    problems.append(f"region: {where} vsnf {pos} off ep1")
                elif spec.region not in (None, "ep1") and node not in net.regions.get(spec.region, ()):
                    problems.append(f"region: {where} vsnf {pos} outside '{spec.region}'")
        for group in req.stateful_groups:
            hosts = {emb.chains[c].vsnf_nodes[p] for c, p in group
                     if p < len(emb.chains[c].vsnf_nodes)}
            if len(hosts) > 1:
                problems.append(f"stateful: group {list(group)} split over {sorted(hosts)}")
        if problems:
            return problems
        cpu, bw = self.demands(req, emb)
        for node, demand in sorted(cpu.items()):
            if demand > self.gamma[node]:
                problems.append(f"node-capacity: node {node} needs {demand}, has {self.gamma[node]}")
        for arc, demand in sorted(bw.items()):
            if demand > self.beta[arc]:
                problems.append(f"link-capacity: arc {arc} needs {demand}, has {self.beta[arc]}")
        return problems

    def demands(self, req, emb) -> tuple[dict[int, int], dict[int, int]]:
        cpu: dict[int, int] = {}
        bw: dict[int, int] = {}
        for cemb, chain in zip(emb.chains, req.chains):
            for node, spec in zip(cemb.vsnf_nodes, chain.vsnfs):
                cpu[node] = cpu.get(node, 0) + cpu_demand(spec.gamma_u, chain.beta_req)
            for seg in cemb.segments:
                for a, b in zip(seg, seg[1:]):
                    arc = self.arcs.get((a, b))
                    if arc is not None:
                        bw[arc] = bw.get(arc, 0) + chain.beta_req
        return cpu, bw

    # -- events ------------------------------------------------------------

    def accept(self, service_id: int, req, emb, delta: float) -> list[str]:
        """Check an acceptance, debit it, then check the latency of the new
        chains and of every live chain on the nodes it drew CPU from."""
        problems = self.structure(req, emb)
        cpu, bw = self.demands(req, emb)
        for node, demand in cpu.items():
            self.gamma[node] -= demand
        for arc, demand in bw.items():
            self.beta[arc] -= demand
        records = []
        if not problems:
            for idx, (cemb, chain) in enumerate(zip(emb.chains, req.chains)):
                record = (chain.lambda_max, fixed_delay(self.net, self.arcs, chain, cemb),
                          processing_terms(chain, cemb))
                records.append(record)
                for node in {node for node, _ in record[2]}:
                    self.chains_on[node][(service_id, idx)] = record
        self.services[service_id] = (cpu, bw, records)
        if problems:
            return problems
        chains = {(service_id, idx): record for idx, record in enumerate(records)}
        for node in cpu:
            chains.update(self.chains_on[node])
        for key, (bound, fixed, terms) in chains.items():
            latency = fixed + sum(c / (self.gamma[n] + delta) for n, c in terms)
            if latency > bound * (1 + REL_TOL):
                who = (f"new chain {key[1]}" if key[0] == service_id
                       else f"service {key[0]} chain {key[1]}")
                problems.append(f"latency: {who} runs at {latency:.6g}s, bound {bound}s")
        return problems

    def release(self, service_id: int) -> list[str]:
        if service_id not in self.services:
            return [f"ledger: release of unknown service {service_id}"]
        cpu, bw, records = self.services.pop(service_id)
        for node, demand in cpu.items():
            self.gamma[node] += demand
            for idx in range(len(records)):
                self.chains_on[node].pop((service_id, idx), None)
        for arc, demand in bw.items():
            self.beta[arc] += demand
        return []

    def compare(self, state) -> list[str]:
        """Ledger residuals against the state's residual vectors."""
        problems = []
        for label, mine, theirs in (("residual_gamma", self.gamma, state.residual_gamma),
                                    ("residual_beta", self.beta, state.residual_beta)):
            if mine != theirs:
                at = next((i for i, (m, t) in enumerate(zip(mine, theirs)) if m != t),
                          min(len(mine), len(theirs)))
                problems.append(f"ledger: {label} differs at {at}")
        return problems

    def at_nominal(self) -> bool:
        return self.gamma == self.nominal_gamma and self.beta == self.nominal_beta


def check_oracle(net, req, cfg, outcome, heuristic, params) -> list[str]:
    """One oracle call on a fresh state: its embedding must be valid, its
    score must match the checker's recomputation, and it must be at least as
    good as the heuristic's answer whenever that answer lies in the oracle's
    search space (no segment longer than ``cfg.max_path_len`` arcs)."""
    objective, cap = cfg.objective, cfg.max_path_len
    heur = heuristic.embedding
    if heur is not None and cap is not None and any(
        len(seg) - 1 > cap for cemb in heur.chains for seg in cemb.segments
    ):
        heur = None
    if heur is not None and not outcome.optimal:
        return ["oracle: infeasible where the heuristic accepts"]
    if not outcome.optimal:
        return []
    emb = outcome.embedding
    problems = Ledger(net).accept(0, req, emb, params.delta)
    if problems:
        return problems
    fresh = Ledger(net)
    arcs, gamma, beta = fresh.arcs, fresh.gamma, fresh.beta
    if objective == "resource-cost":
        mine = resource_cost(net, arcs, gamma, beta, req, emb, params.alpha, params.delta)
        if not close(outcome.score, mine):
            problems.append(f"oracle: cost score {outcome.score!r} != recomputed {mine!r}")
        if heur is not None and heuristic.cost < outcome.score - REL_TOL * max(1.0, outcome.score):
            problems.append(f"oracle: heuristic cost {heuristic.cost!r} beats optimum "
                            f"{outcome.score!r}")
    elif objective == "active-nodes":
        if outcome.score != len(hosts_of(emb)):
            problems.append(f"oracle: active-nodes score {outcome.score} != "
                            f"{len(hosts_of(emb))} hosts")
        if heur is not None and outcome.score > len(hosts_of(heur)):
            problems.append("oracle: heuristic uses fewer hosts than the optimum")
    elif objective == "min-latency":
        def total(e):
            return sum(per_chain_latency(net, arcs, gamma, chain, cemb, params.delta)
                       for cemb, chain in zip(e.chains, req.chains))
        mine = total(emb)
        if not close(outcome.score, mine):
            problems.append(f"oracle: latency score {outcome.score!r} != recomputed {mine!r}")
        if heur is not None and outcome.score > total(heur) * (1 + REL_TOL):
            problems.append("oracle: heuristic latency sum beats the optimum")
    else:
        problems.append(f"oracle: unknown objective {objective!r}")
    return problems
