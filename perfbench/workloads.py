"""The benchmark's workloads.

Each workload draws its inputs from the seed in ``setup`` and then runs
identical rounds over them. A round is a fixed list of operations, so every
round does the same work, makes the same decisions and yields the same
counts; the run checks that it does.

* ``ba20-twin``: one round is ``run_twin_comparison`` on BA(20,2) at 1000
  Erlang over a 5000-arrival stream: 10k operations, each one arrival
  handled by one solver (PESS, then the aggregate baseline).
* ``ba1000-loaded``: one round is ``run_simulation`` on BA(1000,2) at 3000
  Erlang over 3000 arrivals. The first 1500 fill the network until most of
  it carries some load; only the last 1500 are timed and counted.
* ``oracle-micro``: one round is 1500 ``exact_embed`` calls on fresh states:
  900 resource-cost calls on 5-8-node instances and 300 active-nodes plus
  300 min-latency calls on 300 six-node two-chain instances.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from time import perf_counter

import check


@dataclass
class RoundResult:
    ops: int = 0
    failed: int = 0
    blocked: int = 0
    accepted: int = 0
    samples: list = field(default_factory=list)  # solver-call seconds
    problems: list = field(default_factory=list)  # first few check failures
    incorrect: list = field(default_factory=list)  # failures outside any operation
    digest: str = ""
    phase: dict = field(default_factory=dict)
    model: dict = field(default_factory=dict)
    leaves_evaluated: int = 0

    def fail(self, problems) -> None:
        self.failed += 1
        if len(self.problems) < 5:
            self.problems.append(problems)


class Churn:
    """Arrival/departure churn through the program's simulator."""

    def __init__(self, pess, n_nodes, load, n_requests, warmup, timed_from, twin):
        self.pess = pess
        self.n_nodes = n_nodes
        self.load = load
        self.n_requests = n_requests
        self.warmup = warmup
        self.timed_from = timed_from
        self.twin = twin
        self.ops_per_round = (2 if twin else 1) * (n_requests - timed_from)

    def setup(self, seed: int) -> dict:
        sim = self.pess.simulator
        t0 = perf_counter()
        net = self.pess.topology.generate_barabasi_albert(self.n_nodes, 2, seed=0)
        t1 = perf_counter()
        cfg = sim.WorkloadConfig(load_erlang=self.load, n_requests=self.n_requests,
                                 warmup=self.warmup)
        stream = sim.generate_stream(net, cfg, seed)
        t2 = perf_counter()
        self.net, self.cfg, self.stream, self.seed = net, cfg, stream, seed
        return {"topology.build": t1 - t0, "simulator.generate_stream": t2 - t1}

    def install(self, probe, tracing: bool) -> None:
        pess = self.pess
        sim, NetworkState = pess.simulator, pess.state.NetworkState
        self.probe = probe
        self.release = NetworkState.release

        def drawn_stream(net, cfg, seed, catalog=None):
            # The stream was drawn during set-up; hand back that one.
            if (net, cfg, seed, catalog) != (self.net, self.cfg, self.seed, None):
                raise RuntimeError("stream requested for other inputs than were drawn")
            return self.stream

        sim.generate_stream = drawn_stream
        probe.install(sim, "pess_embed", "heuristic.embed", after=self.on_embed)
        probe.install(NetworkState, "release", "state.release", after=self.on_release)
        if tracing:
            install_layer_spans(pess, probe)

    def run_round(self) -> RoundResult:
        self.result = RoundResult()
        self.ledgers: dict[int, tuple] = {}
        self.digest = hashlib.sha256()
        self.calls = 0
        self.pending = None
        if self.timed_from == 0:
            self.probe.start_phase()
        sim = self.pess.simulator
        if self.twin:
            report = sim.run_twin_comparison(self.net, self.cfg, seed=self.seed)
            model = {"pess": report.pess, "baseline": report.baseline}
        else:
            model = {"pess": sim.run_simulation(self.net, self.cfg, stream=self.stream)}
        result = self.result
        result.phase = self.probe.end_phase()
        result.model = {
            solver: {
                "blocking_probability": m.blocking_probability,
                "consumed_cpu_fraction": m.consumed_cpu_fraction,
                "mean_chain_latency": m.mean_chain_latency,
            }
            for solver, m in model.items()
        }
        self.drain()
        result.digest = self.digest.hexdigest()
        return result

    def on_embed(self, outcome, elapsed, args, kwargs) -> None:
        state, request = args[0], args[1]
        params = args[2] if len(args) > 2 else kwargs["params"]
        idx = self.calls % self.n_requests
        self.calls += 1
        if idx == self.timed_from - 1:
            self.probe.start_phase()
        timed = idx >= self.timed_from
        entry = self.ledgers.get(id(state))
        if entry is None:
            entry = self.ledgers[id(state)] = (state, check.Ledger(state.net))
        ledger = entry[1]
        problems = [] if self.pending is None else list(self.pending)
        self.pending = None
        if outcome.accepted:
            problems += ledger.accept(outcome.service_id, request, outcome.embedding, params.delta)
        problems += ledger.compare(state)
        emb = outcome.embedding.to_dict() if outcome.accepted else None
        self.digest.update(repr((emb, outcome.cost)).encode())
        result = self.result
        if not timed:
            if problems:
                result.incorrect.append(problems)
            return
        result.ops += 1
        result.samples.append(elapsed)
        if outcome.accepted:
            result.accepted += 1
        else:
            result.blocked += 1
        if problems:
            result.fail(problems)

    def on_release(self, _, elapsed, args, kwargs) -> None:
        state, service_id = args
        ledger = self.ledgers[id(state)][1]
        problems = ledger.release(service_id) + ledger.compare(state)
        if problems:
            # A departure belongs to the operation of the next arrival.
            self.pending = problems

    def drain(self) -> None:
        """Release every service still live; residuals must return to nominal."""
        for state, ledger in self.ledgers.values():
            for service_id in list(state.services):
                self.release(state, service_id)
                ledger.release(service_id)
            problems = ledger.compare(state)
            if problems or not ledger.at_nominal() or ledger.services:
                self.result.incorrect.append(["drain: residuals not back to nominal", *problems])
        if self.pending is not None:
            self.result.incorrect.append(self.pending)


@dataclass
class OracleCall:
    net: object
    state: object
    request: object
    cfg: object


class OracleMicro:
    """Exhaustive-oracle calls on fresh-state micro-instances."""

    GROUPS = 300  # each group: 3 resource-cost calls, 1 active-nodes, 1 min-latency

    def __init__(self, pess):
        self.pess = pess
        self.ops_per_round = 5 * self.GROUPS

    def setup(self, seed: int) -> dict:
        pess = self.pess
        service, oracle = pess.service, pess.oracle
        build = pess.topology.generate_barabasi_albert
        catalog = service.builtin_catalog()
        # Segments are capped at 2 or 3 arcs: uncapped, a single call on
        # these sizes can take seconds or exhaust the enumeration budget,
        # which leaves too few calls per run for a 99th percentile.
        resource_cfg = oracle.OracleConfig(objective=oracle.RESOURCE_COST, max_path_len=2)
        objective_cfgs = [oracle.OracleConfig(objective=objective, max_path_len=3)
                          for objective in (oracle.ACTIVE_NODES, oracle.MIN_LATENCY)]
        two_chains = service.RequestGenConfig(chain_count=(2, 2), vsnfs_per_chain=(1, 1),
                                              ep2_size=1)
        rng = random.Random(seed)
        build_s = 0.0
        calls = []

        def instance(n_nodes, m, cfg):
            nonlocal build_s
            t0 = perf_counter()
            net = build(n_nodes, m, seed=rng.randrange(2**31))
            build_s += perf_counter() - t0
            request = service.generate_request(net, catalog, cfg, rng)
            return net, pess.state.NetworkState.fresh(net), request

        for _ in range(self.GROUPS):
            for _ in range(3):
                n_nodes, m = rng.randrange(5, 9), rng.choice([1, 2])
                cfg = service.RequestGenConfig(chain_count=(1, 2), vsnfs_per_chain=(0, 2),
                                               ep2_size=rng.choice([1, 2]))
                calls.append(OracleCall(*instance(n_nodes, m, cfg), resource_cfg))
            net, state, request = instance(6, 2, two_chains)
            for cfg in objective_cfgs:
                calls.append(OracleCall(net, state, request, cfg))
        self.calls = calls
        return {"topology.build": build_s}

    def install(self, probe, tracing: bool) -> None:
        self.probe = probe
        self.exact = probe.span("oracle.exact_embed", self.pess.oracle.exact_embed)
        self.heuristics: dict = {}
        if tracing:
            install_layer_spans(self.pess, probe)

    def run_round(self) -> RoundResult:
        pess, probe, exact = self.pess, self.probe, self.exact
        params = pess.state.CostParams()
        result = self.result = RoundResult()
        digest = hashlib.sha256()
        probe.start_phase()
        for call in self.calls:
            started = perf_counter()
            try:
                outcome = exact(call.state, call.request, call.cfg, params)
            except Exception as exc:  # a raising call, budget included, is a failed operation
                outcome, problems = None, [f"oracle: {type(exc).__name__}: {exc}"]
            elapsed = perf_counter() - started
            check_start = perf_counter()
            result.ops += 1
            if outcome is not None:
                result.samples.append(elapsed)
                result.leaves_evaluated += outcome.evaluated
                heuristic, problems = self.heuristic_for(call, params)
                problems = problems + check.check_oracle(
                    call.net, call.request, call.cfg, outcome, heuristic, params)
                emb = outcome.embedding.to_dict() if outcome.optimal else None
                digest.update(repr((call.cfg.objective, outcome.status, emb,
                                    outcome.score)).encode())
                if outcome.optimal:
                    result.accepted += 1
                else:
                    result.blocked += 1
            if problems:
                result.fail(problems)
            probe.exclude(perf_counter() - check_start)
        result.phase = probe.end_phase()
        result.digest = digest.hexdigest()
        return result

    def heuristic_for(self, call, params):
        """The heuristic's answer on the same fresh state and its own check
        problems; computed once per instance, outside every counter."""
        key = (id(call.state), id(call.request))
        known = self.heuristics.get(key)
        if known is None:
            was_active, self.probe.active = self.probe.active, False
            try:
                outcome = self.pess.heuristic.pess_embed(call.state, call.request, params,
                                                         register=False)
            finally:
                self.probe.active = was_active
            problems = []
            if outcome.accepted:
                problems = check.Ledger(call.net).accept(0, call.request, outcome.embedding,
                                                         params.delta)
            known = self.heuristics[key] = (outcome, problems)
        return known


def install_layer_spans(pess, probe) -> None:
    """Spans inside the solvers, for the traced run. Each name is patched
    where its caller looks it up, so the heuristic's calls into the state
    layer count under ``state.*`` and the oracle's under ``oracle.*``."""
    heuristic, oracle, sim = pess.heuristic, pess.oracle, pess.simulator
    probe.install(heuristic, "place_on_path", "heuristic.place_on_path")
    probe.install(heuristic, "chain_latency", "state.chain_latency")
    probe.install(heuristic, "recheck_operational", "state.recheck",
                  tally=lambda verdict: None if verdict.ok else "state.recheck_rejects")
    probe.install(pess.state.NetworkState, "register", "state.register")
    probe.install(sim, "stream_checksum", "simulator.stream_checksum")
    probe.install(sim, "baseline_request", "service.baseline_request")
    probe.install(oracle, "chain_latency", "oracle.option")
    probe.install(oracle, "recheck_operational", "oracle.leaf")


def make(pess, name: str):
    if name == "ba20-twin":
        return Churn(pess, 20, 1000, 5_000, 1_000, 0, twin=True)
    if name == "ba1000-loaded":
        return Churn(pess, 1000, 3000, 3_000, 1_500, 1_500, twin=False)
    if name == "oracle-micro":
        return OracleMicro(pess)
    raise KeyError(name)


WORKLOADS = ("ba20-twin", "ba1000-loaded", "oracle-micro")
