"""Physical network model: nodes with CPU budgets, links with bandwidth and delay.

Capacities are kept as plain integers (cycles/s for nodes, bits/s for links) so
that embed/release bookkeeping stays exact. Every undirected link exposes two
directed arcs with independent bandwidth budgets; arc ``2*link_id`` runs from
``endpoints[0]`` to ``endpoints[1]`` and ``2*link_id + 1`` the other way.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable, Mapping

import yaml

NodeId = int
LinkId = int

# Propagation speed in fiber: the raw light speed scaled by a refraction
# factor of 1.5.
_LIGHT_SPEED_M_S = 3.0e8
_FIBER_FACTOR = 1.5

# Default node profile: 32 cores at 2.1 GHz, and a per-node queuing budget of
# twelve 80 us port buffers (six 10 Gbps ports in, six out).
DEFAULT_CPU_CAPACITY = int(32 * 2.1e9)
DEFAULT_QUEUING_BUDGET = 12 * 80e-6
DEFAULT_LINK_BANDWIDTH = int(1e10)


class TopologyError(ValueError):
    """Raised for malformed topology documents or generator arguments."""


def propagation_delay(distance_km: float) -> float:
    """Propagation delay in seconds over ``distance_km`` of fiber."""
    if distance_km < 0:
        raise TopologyError(f"distance must be >= 0, got {distance_km}")
    return distance_km * 1000.0 * _FIBER_FACTOR / _LIGHT_SPEED_M_S


@dataclass(frozen=True)
class PhysicalNode:
    id: NodeId
    gamma_nominal: int  # CPU capacity, cycles/s
    queuing_budget: float  # worst-case local-network queuing, seconds
    name: str = ""

    def __post_init__(self) -> None:
        if self.gamma_nominal <= 0:
            raise TopologyError(f"node {self.id}: capacity must be > 0")
        if self.queuing_budget < 0:
            raise TopologyError(f"node {self.id}: queuing budget must be >= 0")


@dataclass(frozen=True)
class PhysicalLink:
    id: LinkId
    endpoints: tuple[NodeId, NodeId]
    beta_nominal: int  # bandwidth per direction, bits/s
    lambda_prop: float  # propagation delay, seconds

    def __post_init__(self) -> None:
        if self.endpoints[0] == self.endpoints[1]:
            raise TopologyError(f"link {self.id}: self-loops are not allowed")
        if self.beta_nominal <= 0:
            raise TopologyError(f"link {self.id}: bandwidth must be > 0")
        if self.lambda_prop < 0:
            raise TopologyError(f"link {self.id}: delay must be >= 0")


def default_node_profile(
    node_id: NodeId, *, cpu_capacity: int = DEFAULT_CPU_CAPACITY
) -> PhysicalNode:
    """Build a node with the default queuing budget and, unless given, the
    default CPU capacity."""
    return PhysicalNode(node_id, int(cpu_capacity), DEFAULT_QUEUING_BUDGET)


class PhysicalNetwork:
    """Immutable, connected multigraph-free network over dense integer ids.

    Treat instances as read-only after construction; the embedding code keeps
    all mutable bookkeeping in a separate state object.
    """

    def __init__(
        self,
        nodes: Iterable[PhysicalNode],
        links: Iterable[PhysicalLink],
        regions: Mapping[str, Iterable[NodeId]] | None = None,
    ) -> None:
        self.nodes: tuple[PhysicalNode, ...] = tuple(nodes)
        self.links: tuple[PhysicalLink, ...] = tuple(links)
        for idx, node in enumerate(self.nodes):
            if node.id != idx:
                raise TopologyError(
                    f"nodes[{idx}]: ids must be dense and in order, got {node.id}"
                )
        for idx, link in enumerate(self.links):
            if link.id != idx:
                raise TopologyError(
                    f"links[{idx}]: ids must be dense and in order, got {link.id}"
                )
            for end in link.endpoints:
                if not 0 <= end < len(self.nodes):
                    raise TopologyError(f"links[{idx}]: unknown node id {end}")

        adjacency: list[list[tuple[NodeId, int]]] = [[] for _ in self.nodes]
        arc_index: dict[tuple[NodeId, NodeId], int] = {}
        for link in self.links:
            a, b = link.endpoints
            if (a, b) in arc_index:
                raise TopologyError(
                    f"links[{link.id}]: duplicate link between {a} and {b}"
                )
            arc_index[(a, b)] = 2 * link.id
            arc_index[(b, a)] = 2 * link.id + 1
            adjacency[a].append((b, 2 * link.id))
            adjacency[b].append((a, 2 * link.id + 1))
        self.adjacency: tuple[tuple[tuple[NodeId, int], ...], ...] = tuple(
            tuple(neigh) for neigh in adjacency
        )
        self._arc_index = arc_index

        self.regions: dict[str, frozenset[NodeId]] = {}
        for region_name, members in sorted((regions or {}).items()):
            member_set = frozenset(members)
            if not member_set:
                raise TopologyError(f"region '{region_name}' is empty")
            for member in member_set:
                if not 0 <= member < len(self.nodes):
                    raise TopologyError(
                        f"region '{region_name}': unknown node id {member}"
                    )
            self.regions[region_name] = member_set

        self._check_connected()
        self.total_cpu = sum(node.gamma_nominal for node in self.nodes)

    # -- basic views ----------------------------------------------------

    @property
    def n_nodes(self) -> int:
        return len(self.nodes)

    @property
    def n_links(self) -> int:
        return len(self.links)

    @property
    def n_arcs(self) -> int:
        return 2 * len(self.links)

    def arc(self, tail: NodeId, head: NodeId) -> int:
        """Directed arc index for tail -> head; raises if not adjacent."""
        try:
            return self._arc_index[(tail, head)]
        except KeyError:
            raise TopologyError(f"no link between {tail} and {head}") from None

    def arc_delay(self, arc: int) -> float:
        return self.links[arc // 2].lambda_prop

    def _check_connected(self) -> None:
        if not self.nodes:
            raise TopologyError("topology has no nodes")
        seen = [False] * len(self.nodes)
        stack = [0]
        seen[0] = True
        while stack:
            here = stack.pop()
            for neighbor, _ in self.adjacency[here]:
                if not seen[neighbor]:
                    seen[neighbor] = True
                    stack.append(neighbor)
        if not all(seen):
            missing = seen.index(False)
            raise TopologyError(
                f"topology is disconnected (node {missing} unreachable from node 0)"
            )


def generate_barabasi_albert(
    n_nodes: int,
    m: int,
    seed: int,
    *,
    cpu_capacity: int = DEFAULT_CPU_CAPACITY,
) -> PhysicalNetwork:
    """Random scale-free network with exactly ``m * n_nodes - m**2`` links.

    Barabási–Albert growth (Science 286, 1999) from an ``m``-leaf star, so the
    result is always connected. Nodes get the default profile (with
    ``cpu_capacity``) and links the default bandwidth. Link distances are
    drawn uniformly from 10 to 100 km and mapped to propagation delays; one
    seed fixes both the attachment process and the distance draws. Draws and link order
    match networkx 3.x's ``barabasi_albert_graph(n_nodes, m, seed=rng)``: as
    there, each node's targets join the degree list in ``set`` order, so the
    result depends on CPython's iteration order for sets of small ints.
    """
    if m < 1:
        raise TopologyError(f"attachment parameter m must be >= 1, got {m}")
    if n_nodes <= m:
        raise TopologyError(
            f"need more than m={m} nodes to grow the attachment process, got {n_nodes}"
        )

    rng = random.Random(seed)
    # Every node appears here once per incident link.
    repeated = [0] * m + list(range(1, m + 1))
    pairs = [(0, leaf) for leaf in range(1, m + 1)]
    for source in range(m + 1, n_nodes):
        targets: set[NodeId] = set()
        while len(targets) < m:
            targets.add(rng.choice(repeated))
        pairs.extend((target, source) for target in targets)
        repeated.extend(targets)
        repeated.extend([source] * m)
    pairs.sort()

    nodes = [default_node_profile(i, cpu_capacity=cpu_capacity) for i in range(n_nodes)]
    links = []
    for link_id, (a, b) in enumerate(pairs):
        distance = rng.uniform(10.0, 100.0)
        links.append(
            PhysicalLink(link_id, (a, b), DEFAULT_LINK_BANDWIDTH, propagation_delay(distance))
        )
    return PhysicalNetwork(nodes, links)


# -- document I/O --------------------------------------------------------


def _doc_error(location: str, message: str) -> TopologyError:
    return TopologyError(f"{location}: {message}")


# The keys each level of a topology document may carry. Anything else is
# most likely a misspelling that would otherwise quietly yield a default.
_TOPOLOGY_KEYS = frozenset({"nodes", "links", "regions"})
_NODE_KEYS = frozenset({"name", "capacity", "queuing_budget"})
_LINK_KEYS = frozenset({"endpoints", "bandwidth", "distance_km", "delay"})


def _reject_unknown_keys(
    entry: Mapping, allowed: frozenset[str], where: str, error: type[Exception] = TopologyError
) -> None:
    """Raise ``error`` naming ``where`` and the first key outside ``allowed``."""
    for key in entry:
        if key not in allowed:
            raise error(f"{where}: unknown key {key!r}")


def _number(entry: Mapping, key: str, where: str, default: float | None = None,
            error: type[Exception] = TopologyError, kind: type = float) -> float:
    """``entry[key]``, or ``default``, as a finite ``kind``; else raise ``error``
    naming ``where`` and ``key``. Strings that float() takes count, since YAML
    1.1 reads ``5.0e6`` as one; ints convert exactly, and an int ``kind``
    refuses a fractional value rather than truncate it.
    """
    value = entry.get(key, default)
    try:
        number = float(value)
    except (TypeError, ValueError, OverflowError):
        number = math.nan
    if isinstance(value, bool) or not math.isfinite(number):
        raise error(f"{where}: '{key}' must be a finite number, got {value!r}")
    if isinstance(value, int):
        return kind(value)
    if kind is int and not number.is_integer():
        raise error(f"{where}: '{key}' must be a whole number, got {value!r}")
    return kind(number)


def load_topology(source: str | Path | Mapping) -> PhysicalNetwork:
    """Parse a topology document (YAML text, path, or already-parsed mapping).

    The document has three top-level keys: ``nodes`` (name, capacity, optional
    queuing_budget), ``links`` (endpoints plus bandwidth and either
    distance_km or an explicit delay; delay wins when both appear), and
    optional ``regions`` mapping region names to node-name lists. Any other
    key, at the top level or in a node or link entry, is rejected with its
    location.
    """
    doc = source
    if isinstance(source, Path):
        doc = yaml.safe_load(source.read_text())
    elif isinstance(source, str):
        if "\n" not in source and Path(source).exists():
            doc = yaml.safe_load(Path(source).read_text())
        else:
            doc = yaml.safe_load(source)
    if not isinstance(doc, Mapping):
        raise TopologyError("topology document must be a mapping")
    _reject_unknown_keys(doc, _TOPOLOGY_KEYS, "topology")

    raw_nodes = doc.get("nodes")
    if not isinstance(raw_nodes, list) or not raw_nodes:
        raise TopologyError("'nodes' must be a non-empty list")
    nodes: list[PhysicalNode] = []
    by_name: dict[str, NodeId] = {}
    for idx, entry in enumerate(raw_nodes):
        where = f"nodes[{idx}]"
        if not isinstance(entry, Mapping):
            raise _doc_error(where, "expected a mapping")
        _reject_unknown_keys(entry, _NODE_KEYS, where)
        name = str(entry.get("name", idx))
        if name in by_name:
            raise _doc_error(where, f"duplicate name '{name}'")
        capacity = _number(entry, "capacity", where, DEFAULT_CPU_CAPACITY, kind=int)
        if capacity <= 0:
            raise _doc_error(where, "capacity must be > 0")
        budget = _number(entry, "queuing_budget", where, DEFAULT_QUEUING_BUDGET)
        if budget < 0:
            raise _doc_error(where, "queuing_budget must be >= 0")
        by_name[name] = idx
        nodes.append(PhysicalNode(idx, capacity, budget, name))

    def resolve(where: str, ref) -> NodeId:
        if isinstance(ref, bool):
            raise _doc_error(where, f"unknown node {ref!r}")
        if isinstance(ref, int):
            if 0 <= ref < len(nodes):
                return ref
            raise _doc_error(where, f"unknown node id {ref}")
        ref = str(ref)
        if ref in by_name:
            return by_name[ref]
        raise _doc_error(where, f"unknown node '{ref}'")

    raw_links = doc.get("links")
    if not isinstance(raw_links, list) or not raw_links:
        raise TopologyError("'links' must be a non-empty list")
    links: list[PhysicalLink] = []
    for idx, entry in enumerate(raw_links):
        where = f"links[{idx}]"
        if not isinstance(entry, Mapping):
            raise _doc_error(where, "expected a mapping")
        _reject_unknown_keys(entry, _LINK_KEYS, where)
        ends = entry.get("endpoints")
        if not isinstance(ends, list) or len(ends) != 2:
            raise _doc_error(where, "endpoints must be a 2-item list")
        a = resolve(where, ends[0])
        b = resolve(where, ends[1])
        if a == b:
            raise _doc_error(where, "self-loops are not allowed")
        bandwidth = _number(entry, "bandwidth", where, DEFAULT_LINK_BANDWIDTH, kind=int)
        if bandwidth <= 0:
            raise _doc_error(where, "bandwidth must be > 0")
        if "delay" in entry:
            delay = _number(entry, "delay", where)
            if delay < 0:
                raise _doc_error(where, "delay must be >= 0")
        elif "distance_km" in entry:
            distance = _number(entry, "distance_km", where)
            if distance < 0:
                raise _doc_error(where, "distance_km must be >= 0")
            delay = propagation_delay(distance)
        else:
            raise _doc_error(where, "need either 'distance_km' or 'delay'")
        links.append(PhysicalLink(idx, (a, b), bandwidth, delay))

    regions: dict[str, list[NodeId]] = {}
    raw_regions = doc.get("regions", {})
    if raw_regions is None:
        raw_regions = {}
    if not isinstance(raw_regions, Mapping):
        raise TopologyError("'regions' must be a mapping")
    for region_name, members in raw_regions.items():
        where = f"regions['{region_name}']"
        if not isinstance(members, list) or not members:
            raise _doc_error(where, "expected a non-empty list of nodes")
        regions[str(region_name)] = [resolve(where, ref) for ref in members]

    return PhysicalNetwork(nodes, links, regions)


def builtin_profile(name: str) -> PhysicalNetwork:
    """Load one of the bundled reference networks ('garr' or 'stanford')."""
    from importlib.resources import files

    candidate = files("pess").joinpath(f"networks/{name.lower()}.yaml")
    if not candidate.is_file():
        raise TopologyError(f"no bundled topology named '{name}'")
    return load_topology(candidate.read_text())
