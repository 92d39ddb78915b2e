"""Security service requests: VSNF chains between a user and a remote endpoint.

A request binds one user attachment point (ep1) to a set of candidate remote
endpoints (EP2) and carries one or more unidirectional chains. "up" chains
flow from ep1 toward the remote endpoint, "down" chains flow back toward the
user. Each chain lists the VSNFs its traffic must traverse, in order.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field
from typing import Mapping, Sequence

from .topology import NodeId, PhysicalNetwork, _number, _reject_unknown_keys

UP = "up"
DOWN = "down"

GroupMember = tuple[int, int]  # (chain index, position within the chain)


class ServiceError(ValueError):
    """Raised for malformed requests or generator configuration."""


def cpu_demand(gamma_u: float, beta: int) -> int:
    """CPU demand in cycles/s of one VSNF processing a beta bits/s flow."""
    return round(gamma_u * beta)


@dataclass(frozen=True)
class VsnfSpec:
    """One network security function type.

    gamma_u is the per-bit CPU cost (cycles/bit), so a flow of beta bits/s
    needs gamma_u * beta cycles/s. Stateful functions must see both traffic
    directions on one node. region restricts placement: the special value
    "ep1" pins the function to the user side, any other name pins it to the
    named region on the remote side.
    """

    name: str
    gamma_u: float
    stateful: bool = False
    region: str | None = None

    def __post_init__(self) -> None:
        if not 0 < self.gamma_u < math.inf:
            raise ServiceError(f"vsnf '{self.name}': gamma_u must be finite and > 0")


@dataclass(frozen=True)
class Chain:
    """One unidirectional traffic flow and the VSNFs it must traverse."""

    direction: str  # UP or DOWN
    vsnfs: tuple[VsnfSpec, ...]
    beta_req: int  # requested bandwidth, bits/s
    lambda_max: float  # end-to-end latency bound, seconds
    sigma: float = 8000.0  # average packet size, bits
    pi_external: float = 0.0  # latency beyond the remote endpoint, seconds
    # cpu_demand of each VSNF at beta_req, in chain order; derived, not data.
    cpu_demands: tuple[int, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.direction not in (UP, DOWN):
            raise ServiceError(f"chain direction must be 'up' or 'down', got {self.direction!r}")
        beta = self.beta_req
        if isinstance(beta, float):
            if not beta.is_integer():
                raise ServiceError(f"beta_req must be an integer number of bits/s, got {beta}")
            object.__setattr__(self, "beta_req", int(beta))
        if self.beta_req <= 0:
            raise ServiceError("beta_req must be > 0")
        if not self.lambda_max > 0:
            raise ServiceError("lambda_max must be > 0")
        if not self.sigma > 0:
            raise ServiceError("sigma must be > 0")
        if not self.pi_external >= 0:
            raise ServiceError("pi_external must be >= 0")
        object.__setattr__(self, "vsnfs", tuple(self.vsnfs))
        beta = self.beta_req
        demands = tuple([cpu_demand(spec.gamma_u, beta) for spec in self.vsnfs])
        object.__setattr__(self, "cpu_demands", demands)


@dataclass(frozen=True)
class ServiceRequest:
    ep1: NodeId
    ep2_set: frozenset[NodeId]
    chains: tuple[Chain, ...]
    stateful_groups: tuple[tuple[GroupMember, ...], ...] = ()
    veto: frozenset[NodeId] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "ep2_set", frozenset(self.ep2_set))
        object.__setattr__(self, "chains", tuple(self.chains))
        object.__setattr__(self, "veto", frozenset(self.veto))
        groups = tuple(tuple(members) for members in self.stateful_groups)
        object.__setattr__(self, "stateful_groups", groups)
        if not self.ep2_set:
            raise ServiceError("ep2_set must not be empty")
        if not self.chains:
            raise ServiceError("a request needs at least one chain")
        seen: set[GroupMember] = set()
        for group in groups:
            if len(group) < 2:
                raise ServiceError("stateful groups need at least two members")
            names = set()
            for chain_idx, pos in group:
                if not 0 <= chain_idx < len(self.chains):
                    raise ServiceError(f"stateful group references chain {chain_idx}")
                chain = self.chains[chain_idx]
                if not 0 <= pos < len(chain.vsnfs):
                    raise ServiceError(
                        f"stateful group references position {pos} of chain {chain_idx}"
                    )
                if (chain_idx, pos) in seen:
                    raise ServiceError("stateful groups must not overlap")
                seen.add((chain_idx, pos))
                names.add(chain.vsnfs[pos].name)
            if len(names) != 1:
                raise ServiceError("stateful group members must be the same function")

    def vsnf_at(self, member: GroupMember) -> VsnfSpec:
        chain_idx, pos = member
        return self.chains[chain_idx].vsnfs[pos]

    def total_bandwidth(self) -> int:
        return sum(chain.beta_req for chain in self.chains)

    def to_dict(self) -> dict:
        return {
            "ep1": self.ep1,
            "ep2": sorted(self.ep2_set),
            "veto": sorted(self.veto),
            "chains": [
                {
                    "direction": chain.direction,
                    "vsnfs": [
                        {
                            "name": u.name,
                            "gamma_u": u.gamma_u,
                            "stateful": u.stateful,
                            "region": u.region,
                        }
                        for u in chain.vsnfs
                    ],
                    "bandwidth": chain.beta_req,
                    "max_latency": chain.lambda_max,
                    "packet_size": chain.sigma,
                    "external_latency": chain.pi_external,
                }
                for chain in self.chains
            ],
            "stateful_groups": [
                [list(member) for member in group] for group in self.stateful_groups
            ],
        }

    def canonical_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, separators=(",", ":"))


# -- VSNF catalog ---------------------------------------------------------

VsnfCatalog = dict[str, VsnfSpec]

_BUILTIN = [
    # name, cycles/bit, stateful
    ("snort", 9.5, True),
    ("suricata", 8.2, True),
    ("openvpn-aesni", 31.0, False),
    ("strongswan-aesni", 16.0, False),
    ("fortigate-ngfw", 9.0, True),
    ("fortigate-ssl-vpn", 13.6, False),
    ("fortigate-ipsec-vpn", 14.5, False),
    ("fortigate-threat", 11.3, True),
    ("cisco-asav-ids", 4.2, True),
    ("cisco-asav-vpn", 6.9, False),
    ("juniper-vsrx-fw", 2.3, True),
    ("juniper-vsrx-ips", 2.4, True),
    ("juniper-vsrx-appmonitor", 1.5, False),
]


def builtin_catalog() -> VsnfCatalog:
    """Benchmark-derived per-bit CPU costs for thirteen common functions."""
    return {name: VsnfSpec(name, cost, stateful) for name, cost, stateful in _BUILTIN}


# -- random request generation -------------------------------------------


@dataclass(frozen=True)
class RequestGenConfig:
    """Distributions for synthetic service requests.

    Bandwidth is log-uniform over ``bandwidth_range`` (rounded to whole
    bits/s), the latency bound is drawn from ``latency_menu``, and with
    probability ``border_bias`` the remote endpoint set is the whole
    ``border_region`` (when the topology defines one) with
    ``external_latency`` added beyond it. Setting ``ep2_size`` overrides the
    border logic with a uniformly sampled endpoint set of that size.
    """

    chain_count: tuple[int, int] = (1, 5)
    vsnfs_per_chain: tuple[int, int] = (0, 3)
    bandwidth_range: tuple[float, float] = (1e6, 1e8)
    latency_menu: tuple[float, ...] = (0.1, 0.15, 0.2, 0.4)
    packet_size: float = 8000.0
    external_latency: float = 0.005
    border_bias: float = 0.8
    border_region: str = "border"
    ep2_size: int | None = None

    def __post_init__(self) -> None:
        lo, hi = self.chain_count
        if not 1 <= lo <= hi:
            raise ServiceError(f"bad chain_count range {self.chain_count}")
        lo, hi = self.vsnfs_per_chain
        if not 0 <= lo <= hi:
            raise ServiceError(f"bad vsnfs_per_chain range {self.vsnfs_per_chain}")
        lo, hi = self.bandwidth_range
        if not 0 < lo <= hi:
            raise ServiceError(f"bad bandwidth_range {self.bandwidth_range}")
        if not self.latency_menu:
            raise ServiceError("latency_menu must not be empty")
        if not all(v > 0 for v in self.latency_menu):
            raise ServiceError("latency_menu values must be > 0")
        if not 0.0 <= self.border_bias <= 1.0:
            raise ServiceError("border_bias must be in [0, 1]")
        if self.ep2_size is not None and self.ep2_size < 1:
            raise ServiceError("ep2_size must be >= 1")


def generate_request(
    net: PhysicalNetwork,
    catalog: VsnfCatalog,
    cfg: RequestGenConfig,
    rng: random.Random,
) -> ServiceRequest:
    """Draw one service request against ``net`` using the given RNG stream."""
    if not catalog:
        raise ServiceError("catalog must not be empty")
    names = sorted(catalog)
    max_vsnfs = cfg.vsnfs_per_chain[1]
    if max_vsnfs > len(names):
        raise ServiceError(
            f"vsnfs_per_chain allows {max_vsnfs} functions but the catalog has {len(names)}"
        )

    ep1 = rng.randrange(net.n_nodes)
    pi = 0.0
    border = net.regions.get(cfg.border_region)
    if cfg.ep2_size is not None:
        pool = [i for i in range(net.n_nodes) if i != ep1]
        if cfg.ep2_size > len(pool):
            raise ServiceError(f"ep2_size {cfg.ep2_size} exceeds candidate nodes")
        ep2_set = frozenset(rng.sample(pool, cfg.ep2_size))
    elif border and rng.random() < cfg.border_bias:
        ep2_set = frozenset(border)
        pi = cfg.external_latency
    else:
        if net.n_nodes < 2:
            raise ServiceError("need at least two nodes to draw an endpoint pair")
        # A node other than ep1: the same draw as rng.choice over a list of them.
        other = rng.randrange(net.n_nodes - 1)
        ep2_set = frozenset([other + (other >= ep1)])

    n_chains = rng.randint(*cfg.chain_count)
    log_lo = math.log(cfg.bandwidth_range[0])
    log_hi = math.log(cfg.bandwidth_range[1])
    chains = []
    for _ in range(n_chains):
        k = rng.randint(*cfg.vsnfs_per_chain)
        picked = rng.sample(names, k)
        beta = max(1, round(math.exp(rng.uniform(log_lo, log_hi))))
        chains.append(
            Chain(
                direction=rng.choice((UP, DOWN)),
                vsnfs=tuple(catalog[name] for name in picked),
                beta_req=beta,
                lambda_max=rng.choice(cfg.latency_menu),
                sigma=cfg.packet_size,
                pi_external=pi,
            )
        )
    return ServiceRequest(
        ep1=ep1,
        ep2_set=ep2_set,
        chains=tuple(chains),
        stateful_groups=infer_stateful_groups(chains),
    )


def infer_stateful_groups(chains: Sequence[Chain]) -> tuple[tuple[GroupMember, ...], ...]:
    """Group occurrences of the same stateful function across chains."""
    occurrences: dict[str, list[GroupMember]] = {}
    for chain_idx, chain in enumerate(chains):
        for pos, spec in enumerate(chain.vsnfs):
            if spec.stateful:
                occurrences.setdefault(spec.name, []).append((chain_idx, pos))
    return tuple(
        tuple(members)
        for name, members in sorted(occurrences.items())
        if len(members) >= 2
    )


# -- application-agnostic baseline ----------------------------------------


def _merge_ordered(into: list[VsnfSpec], seq: Sequence[VsnfSpec]) -> None:
    """Fold ``seq`` into ``into`` keeping each chain's internal order.

    A function missing from the accumulator is inserted just before the
    earliest already-present function that follows it in ``seq``, so relative
    orderings declared by member chains survive the union.
    """
    present = {spec.name for spec in into}
    for pos, spec in enumerate(seq):
        if spec.name in present:
            continue
        insert_at = len(into)
        successors = {later.name for later in seq[pos + 1 :]}
        for idx, existing in enumerate(into):
            if existing.name in successors:
                insert_at = idx
                break
        into.insert(insert_at, spec)
        present.add(spec.name)


def baseline_request(req: ServiceRequest) -> ServiceRequest:
    """Collapse a request into at most one aggregate chain per direction.

    The aggregate chain in a direction carries every function any member
    chain asked for, the summed bandwidth, the tightest latency bound, and a
    bandwidth-weighted mean packet size. Applying the transform twice is a
    no-op.
    """
    new_chains: list[Chain] = []
    for direction in (UP, DOWN):
        members = [c for c in req.chains if c.direction == direction]
        if not members:
            continue
        union: list[VsnfSpec] = []
        for chain in members:
            _merge_ordered(union, chain.vsnfs)
        total_beta = sum(c.beta_req for c in members)
        sigma = sum(c.sigma * c.beta_req for c in members) / total_beta
        new_chains.append(
            Chain(
                direction=direction,
                vsnfs=tuple(union),
                beta_req=total_beta,
                lambda_max=min(c.lambda_max for c in members),
                sigma=sigma,
                pi_external=max(c.pi_external for c in members),
            )
        )
    return ServiceRequest(
        ep1=req.ep1,
        ep2_set=req.ep2_set,
        chains=tuple(new_chains),
        stateful_groups=infer_stateful_groups(new_chains),
        veto=req.veto,
    )


# -- request document I/O --------------------------------------------------

# The keys each level of a request document may carry; any other key is
# rejected with its location rather than read as a default.
_REQUEST_KEYS = frozenset({"ep1", "ep2", "veto", "chains", "stateful_groups", "vsnf_defs"})
_CHAIN_NUMBERS = {"bandwidth": 0, "max_latency": 0.0, "packet_size": 8000.0,
                  "external_latency": 0.0}
_CHAIN_KEYS = frozenset({"direction", "vsnfs", *_CHAIN_NUMBERS})
_VSNF_KEYS = frozenset({"name", "gamma_u", "stateful", "region"})
_VSNF_DEF_KEYS = frozenset({"gamma_u", "stateful", "region"})


def request_from_doc(doc: Mapping, catalog: VsnfCatalog | None = None) -> ServiceRequest:
    """Build a request from a parsed document; see tests for the layout.

    VSNFs may be referenced by catalog name or written inline as mappings
    with ``name``/``gamma_u``/``stateful``/``region``; an optional top-level
    ``vsnf_defs`` mapping adds local definitions on top of the catalog. Any
    other key, at the top level, in a chain or in a VSNF mapping, is
    rejected with its location.
    """
    if not isinstance(doc, Mapping):
        raise ServiceError("request document must be a mapping")
    _reject_unknown_keys(doc, _REQUEST_KEYS, "request", ServiceError)
    catalog = dict(catalog or builtin_catalog())
    vsnf_defs = doc.get("vsnf_defs")
    if not isinstance(vsnf_defs, (Mapping, type(None))):
        raise ServiceError(f"vsnf_defs: expected a mapping, got {vsnf_defs!r}")
    for name, spec_doc in (vsnf_defs or {}).items():
        catalog[str(name)] = _vsnf_from_doc(
            str(name), spec_doc, f"vsnf_defs['{name}']", _VSNF_DEF_KEYS
        )

    def lookup(ref, where: str) -> VsnfSpec:
        if isinstance(ref, str):
            if ref not in catalog:
                raise ServiceError(f"{where}: unknown vsnf '{ref}'")
            return catalog[ref]
        if isinstance(ref, Mapping):
            name = str(ref.get("name") or "")
            if not name:
                raise ServiceError(f"{where}: inline vsnf needs a name")
            return _vsnf_from_doc(name, ref, where, _VSNF_KEYS, catalog.get(name))
        raise ServiceError(f"{where}: expected a vsnf name or mapping")

    if "ep1" not in doc or "ep2" not in doc:
        raise ServiceError("request needs 'ep1' and 'ep2'")
    raw_chains = doc.get("chains")
    if not isinstance(raw_chains, list) or not raw_chains:
        raise ServiceError("'chains' must be a non-empty list")
    chains = []
    for idx, entry in enumerate(raw_chains):
        where = f"chains[{idx}]"
        if not isinstance(entry, Mapping):
            raise ServiceError(f"{where}: expected a mapping")
        _reject_unknown_keys(entry, _CHAIN_KEYS, where, ServiceError)
        vsnfs = tuple(
            lookup(ref, f"{where}.vsnfs[{pos}]")
            for pos, ref in enumerate(_list(entry.get("vsnfs"), f"{where}.vsnfs"))
        )
        number = {
            key: _number(entry, key, where, default, ServiceError)
            for key, default in _CHAIN_NUMBERS.items()
        }
        try:
            chains.append(
                Chain(
                    direction=str(entry.get("direction", UP)),
                    vsnfs=vsnfs,
                    beta_req=number["bandwidth"],
                    lambda_max=number["max_latency"],
                    sigma=number["packet_size"],
                    pi_external=number["external_latency"],
                )
            )
        except ServiceError as exc:
            message = str(exc)
            if not message.startswith(where):
                raise ServiceError(f"{where}: {message}") from None
            raise
    groups = doc.get("stateful_groups")
    if groups is None:
        groups = infer_stateful_groups(chains)
    else:
        groups = tuple(
            tuple(
                _member(member, f"stateful_groups[{idx}][{pos}]")
                for pos, member in enumerate(_list(group, f"stateful_groups[{idx}]"))
            )
            for idx, group in enumerate(_list(groups, "stateful_groups"))
        )
    ep1 = _int(doc["ep1"], "ep1")
    ep2 = doc["ep2"]
    ep2_set = _ints(ep2, "ep2") if isinstance(ep2, list) else [_int(ep2, "ep2")]
    veto = _ints(doc.get("veto"), "veto")
    try:
        return ServiceRequest(ep1, frozenset(ep2_set), tuple(chains), groups, frozenset(veto))
    except ServiceError as exc:
        raise ServiceError(f"malformed request document: {exc}") from None


def _list(value, where: str) -> list:
    """``value`` if it is a list; a missing or null list is empty."""
    if value is None:
        return []
    if not isinstance(value, list):
        raise ServiceError(f"{where}: expected a list, got {value!r}")
    return value


def _int(value, where: str) -> int:
    """``value`` if it is an int; node ids and group members are never
    truncated from floats, nor read from bools."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServiceError(f"{where}: expected an integer, got {value!r}")
    return value


def _ints(values, where: str) -> list[int]:
    return [_int(value, f"{where}[{idx}]") for idx, value in enumerate(_list(values, where))]


def _member(value, where: str) -> GroupMember:
    """A stateful group member: a ``[chain index, position]`` pair."""
    pair = _ints(value, where)
    if len(pair) != 2:
        raise ServiceError(f"{where}: expected a [chain, position] pair, got {value!r}")
    return pair[0], pair[1]


def _vsnf_from_doc(
    name: str, doc, where: str, allowed: frozenset[str], base: VsnfSpec | None = None
) -> VsnfSpec:
    """The VSNF mapping ``doc`` defines; the fields it leaves out come from ``base``."""
    if not isinstance(doc, Mapping):
        raise ServiceError(f"{where}: expected a mapping")
    _reject_unknown_keys(doc, allowed, where, ServiceError)
    if base is None and "gamma_u" not in doc:
        raise ServiceError(f"{where}: vsnf '{name}' needs gamma_u")
    region = doc.get("region", base and base.region)
    return VsnfSpec(
        name,
        _number(doc, "gamma_u", where, base and base.gamma_u, ServiceError),
        bool(doc.get("stateful", base and base.stateful)),
        None if region is None else str(region),
    )
