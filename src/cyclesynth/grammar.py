"""Grammar-constrained directed cycle graphs.

Components are nodes, flow connections are boolean adjacency entries.
Edge-activation rules keep every intermediate graph locally legal;
global validity requires every activated node to lie on a directed loop,
each loop to contain pressure- and enthalpy- raising and lowering
components, and parallel branches to agree in net pressure/enthalpy
direction.  Compound components (internal heat exchanger, ejector,
gas-liquid separator) are coupled node groups that co-activate.

Rosters have at most MAX_ROSTER = 16 nodes, so the rules are small-graph
code: edge rules are boolean arrays over the adjacency matrix, degrees and
per-kind columns; loops, branches and connectivity are depth-first
searches over successor lists in ascending index order.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

TERMINATE = "TERMINATE"


@dataclass(frozen=True)
class NodeKind:
    tag: str
    dp: int                  # pressure trend: +1 / -1 / 0
    dh: int                  # enthalpy trend: +1 / -1 / 0
    max_out: int
    max_in: int
    manager_out: bool = True  # may the Manager create edges out of this node?
    manager_in: bool = True   # ... into this node?


KINDS = {k.tag: k for k in [
    NodeKind("CP", +1, +1, 2, 1),            # compressor
    NodeKind("TB", -1, -1, 2, 1),            # turbine
    NodeKind("EV", -1, 0, 2, 1),             # expansion valve
    NodeKind("HT", 0, +1, 2, 1),             # heater
    NodeKind("CL", 0, -1, 2, 1),             # cooler
    NodeKind("GC", 0, -1, 2, 1),             # gas cooler
    NodeKind("EVAP", 0, +1, 2, 1),           # evaporator
    NodeKind("R", 0, +1, 1, 1),              # IHX low-temperature (heated) side
    NodeKind("r", 0, -1, 1, 1),              # IHX high-temperature (cooled) side
    NodeKind("Ev", -1, +1, 1, 1, manager_out=False),   # ejector nozzle
    NodeKind("Ec", +1, -1, 1, 1, manager_out=False),   # ejector suction
    NodeKind("Em", 0, 0, 1, 2, manager_in=False),      # ejector mixer/diffuser
    NodeKind("S", 0, 0, 2, 1, manager_out=False),      # separator body
    NodeKind("SV", 0, 0, 1, 1, manager_in=False),      # separator vapor outlet
    NodeKind("SL", 0, 0, 1, 1, manager_in=False),      # separator liquid outlet
    NodeKind("M", 0, 0, 1, 2),               # merge
]}

# component_limits keys -> node tags spawned per instance
COMPONENT_TAGS = {
    "compressor": ("CP",),
    "turbine": ("TB",),
    "expansion_valve": ("EV",),
    "heater": ("HT",),
    "cooler": ("CL",),
    "gas_cooler": ("GC",),
    "evaporator": ("EVAP",),
    "ihx": ("R", "r"),
    "ejector": ("Ev", "Ec", "Em"),
    "separator": ("S", "SV", "SL"),
    "merge": ("M",),
}

MAX_INSTANCES_PER_COMPONENT = 2
MAX_ROSTER = 16
MAX_ENUMERATION_ROSTER = 13   # enumerate_valid's limit: action space n**2


class IllegalActionError(ValueError):
    """Raised by apply_action when the action violates a grammar rule."""


@dataclass(frozen=True)
class ValidityReport:
    violations: tuple[tuple[str, str], ...]

    @property
    def valid(self) -> bool:
        return not self.violations

    def categories(self) -> set[str]:
        return {c for c, _ in self.violations}


class CycleGraph:
    """Immutable roster + adjacency + coupling groups."""

    def __init__(self, nodes: tuple[tuple[str, int], ...],
                 adj: np.ndarray,
                 couplings: tuple[tuple[str, tuple[int, ...]], ...]):
        self.nodes = nodes
        self.adj = adj
        self.adj.setflags(write=False)
        self.couplings = couplings
        self._validity: ValidityReport | None = None

    # -- basic queries ---------------------------------------------------

    def __len__(self) -> int:
        return len(self.nodes)

    def kind(self, i: int) -> NodeKind:
        return KINDS[self.nodes[i][0]]

    def label(self, i: int) -> str:
        tag, inst = self.nodes[i]
        return f"{tag}#{inst}"

    def edges(self) -> list[tuple[int, int]]:
        return [(int(i), int(j)) for i, j in zip(*np.nonzero(self.adj))]

    def edge_count(self) -> int:
        return int(self.adj.sum())

    def out_degree(self, i: int) -> int:
        return int(self.adj[i].sum())

    def in_degree(self, j: int) -> int:
        return int(self.adj[:, j].sum())

    def group_of(self, i: int) -> tuple[str, tuple[int, ...]] | None:
        for grp in self.couplings:
            if i in grp[1]:
                return grp
        return None

    def active_nodes(self) -> list[int]:
        """Nodes with an incident edge, plus co-activated group members."""
        touched = set(np.flatnonzero(self.adj.any(axis=0)
                                     | self.adj.any(axis=1)).tolist())
        for grp in self.couplings:
            if any(m in touched for m in grp[1]):
                touched.update(grp[1])
        return sorted(touched)

    def adjacency_vector(self) -> np.ndarray:
        return self.adj.astype(np.float64).ravel()

    def state_key(self) -> bytes:
        return self.adj.tobytes()

    def __eq__(self, other) -> bool:
        return (isinstance(other, CycleGraph) and self.nodes == other.nodes
                and np.array_equal(self.adj, other.adj))

    def __hash__(self) -> int:
        return hash((self.nodes, self.adj.tobytes()))

    def __repr__(self) -> str:
        es = ", ".join(f"{self.label(i)}->{self.label(j)}"
                       for i, j in self.edges())
        return f"CycleGraph({es})"


def new_graph(component_limits: dict[str, int]) -> CycleGraph:
    """Empty graph over the roster implied by per-component counts."""
    nodes: list[tuple[str, int]] = []
    couplings: list[tuple[str, tuple[int, ...]]] = []
    total = sum(v for v in component_limits.values() if v)
    if total == 0:
        raise ValueError("component_limits allow no components at all")
    for comp in sorted(component_limits):
        count = component_limits[comp]
        if comp not in COMPONENT_TAGS:
            raise ValueError(f"unknown component kind {comp!r}")
        if not 0 <= count <= MAX_INSTANCES_PER_COMPONENT:
            raise ValueError(
                f"{comp}: count {count} exceeds supported maximum "
                f"{MAX_INSTANCES_PER_COMPONENT}")
        tags = COMPONENT_TAGS[comp]
        for inst in range(1, count + 1):
            idxs = []
            for tag in tags:
                idxs.append(len(nodes))
                nodes.append((tag, inst))
            if len(tags) > 1:
                couplings.append((comp, tuple(idxs)))
    if len(nodes) > MAX_ROSTER:
        raise ValueError(f"roster of {len(nodes)} exceeds maximum {MAX_ROSTER}")
    n = len(nodes)
    return CycleGraph(tuple(nodes), np.zeros((n, n), dtype=np.uint8),
                      tuple(couplings))


# -- edge rules ---------------------------------------------------------

class _KindColumns(NamedTuple):
    manager_out: np.ndarray   # bool per node
    manager_in: np.ndarray
    max_out: np.ndarray       # int per node
    max_in: np.ndarray
    dp: tuple[int, ...]
    dh: tuple[int, ...]


@functools.lru_cache(maxsize=32)
def _kind_columns(nodes: tuple[tuple[str, int], ...]) -> _KindColumns:
    """Per-node kind attributes of a roster; shared, so read-only."""
    kinds = [KINDS[tag] for tag, _inst in nodes]
    arrays = [np.array([k.manager_out for k in kinds], dtype=bool),
              np.array([k.manager_in for k in kinds], dtype=bool),
              np.array([k.max_out for k in kinds]),
              np.array([k.max_in for k in kinds])]
    for a in arrays:
        a.setflags(write=False)
    return _KindColumns(*arrays, tuple(k.dp for k in kinds),
                        tuple(k.dh for k in kinds))


def _edge_rules(g: CycleGraph) -> list[tuple[str, np.ndarray]]:
    """The edge rules in order: (message template, blocked pairs).

    Each array broadcasts to n x n and is True where the rule forbids
    activating (i, j); the template formats with ki/kj (kinds) and li/lj
    (labels) of the pair.
    """
    adj = g.adj.astype(bool)
    col = _kind_columns(g.nodes)
    return [
        ("self-loop forbidden", np.eye(len(g), dtype=bool)),
        ("edge already active", adj),
        ("antiparallel edge active", adj.T),
        ("{ki.tag} outlet is reserved for internal wiring",
         ~col.manager_out[:, None]),
        ("{kj.tag} inlet is reserved for internal wiring",
         ~col.manager_in[None, :]),
        ("out-degree cap {ki.max_out} reached on {li}",
         (adj.sum(axis=1) >= col.max_out)[:, None]),
        ("inlet cap {kj.max_in} reached on {lj}",
         (adj.sum(axis=0) >= col.max_in)[None, :]),
    ]


def _edge_mask(g: CycleGraph) -> np.ndarray:
    """n x n boolean: True where activating (i, j) breaks no edge rule."""
    blocked = np.zeros((len(g), len(g)), dtype=bool)
    for _why, rule in _edge_rules(g):
        blocked |= rule
    return ~blocked


def edge_legal(g: CycleGraph, i: int, j: int) -> str | None:
    """None if activating (i, j) is legal, else the violated rule name."""
    n = len(g)
    if not (0 <= i < n and 0 <= j < n):
        return "index out of range"
    for why, rule in _edge_rules(g):
        if np.broadcast_to(rule, (n, n))[i, j]:
            return why.format(ki=g.kind(i), kj=g.kind(j),
                              li=g.label(i), lj=g.label(j))
    return None


_INTERNAL_EDGES = {
    "ejector": [(0, 2), (1, 2)],   # Ev->Em, Ec->Em
    "separator": [(0, 1), (0, 2)],  # S->SV, S->SL
}


def apply_action(g: CycleGraph, action) -> CycleGraph:
    """Activate an edge (or terminate); coupling groups wire themselves."""
    if action == TERMINATE:
        if not structural_validity(g).valid:
            raise IllegalActionError("TERMINATE on an invalid graph")
        return g
    i, j = action
    why = edge_legal(g, i, j)
    if why is not None:
        raise IllegalActionError(f"edge ({g.label(i)}, {g.label(j)}): {why}")
    adj = g.adj.copy()
    adj[i, j] = 1
    # internal edges join members of one group, so wiring a group never
    # activates another one
    for comp, members in g.couplings:
        if comp in _INTERNAL_EDGES and any(adj[m].any() or adj[:, m].any()
                                           for m in members):
            for a, b in _INTERNAL_EDGES[comp]:
                adj[members[a], members[b]] = 1
    return CycleGraph(g.nodes, adj, g.couplings)


def legal_actions(g: CycleGraph) -> np.ndarray:
    """Boolean mask over the n*n edge actions plus trailing TERMINATE."""
    return np.append(_edge_mask(g).ravel(), structural_validity(g).valid)


def action_from_index(g: CycleGraph, idx: int):
    n = len(g)
    if idx == n * n:
        return TERMINATE
    return divmod(idx, n)


# -- global validity ----------------------------------------------------

def _successors(g: CycleGraph) -> list[list[int]]:
    """Successor list of every node, in ascending index order."""
    succ: list[list[int]] = [[] for _ in range(len(g))]
    for i, j in g.edges():
        succ[i].append(j)
    return succ


def _simple_paths(succ: list[list[int]], path: list[int], target: int,
                  floor: int = -1):
    """Simple paths that extend `path` to `target`, through nodes > floor.

    Depth-first over successors in ascending order; a path ends at its
    first visit to `target` and never runs through it.
    """
    for x in succ[path[-1]]:
        if x == target:
            yield path + [x]
        elif x > floor and x not in path:
            path.append(x)
            yield from _simple_paths(succ, path, target, floor)
            path.pop()


def _loops(succ: list[list[int]]) -> list[list[int]]:
    # a search from each start s over nodes > s finds every elementary
    # cycle once, already rotated to its smallest node
    loops = [p[:-1] for s in range(len(succ))
             for p in _simple_paths(succ, [s], s, floor=s)]
    loops.sort(key=lambda c: (len(c), c))
    return loops


def directed_loops(g: CycleGraph) -> list[list[int]]:
    """All elementary directed cycles of the activated subgraph.

    Each loop is rotated to start at its smallest node index; the list is
    sorted, so the order is deterministic.
    """
    return _loops(_successors(g))


def _sign(x: int) -> int:
    return (x > 0) - (x < 0)


def _weakly_connected(succ: list[list[int]], active: list[int]) -> bool:
    neighbours: list[list[int]] = [[] for _ in succ]
    for i, js in enumerate(succ):
        for j in js:
            neighbours[i].append(j)
            neighbours[j].append(i)
    seen = {active[0]}
    todo = [active[0]]
    while todo:
        for w in neighbours[todo.pop()]:
            if w not in seen:
                seen.add(w)
                todo.append(w)
    return len(seen) == len(active)


def structural_validity(g: CycleGraph) -> ValidityReport:
    if g._validity is not None:
        return g._validity
    violations: list[tuple[str, str]] = []
    active = g.active_nodes()
    if not active:
        report = ValidityReport((("Connection", "no activated nodes"),))
        g._validity = report
        return report
    succ = _successors(g)
    loops = _loops(succ)
    col = _kind_columns(g.nodes)

    # Connection: weakly connected, every activated node on a directed loop
    # (a node on a closed walk lies on an elementary cycle)
    if not _weakly_connected(succ, active):
        violations.append(("Connection", "activated subgraph is disconnected"))
    on_loop = {v for loop in loops for v in loop}
    stranded = [g.label(v) for v in active if v not in on_loop]
    if stranded:
        violations.append(
            ("Connection", "nodes not on any closed loop: " + ", ".join(stranded)))

    # Pressure / Energy: every elementary loop needs a + and a - of each
    for loop in loops:
        dps = {_sign(col.dp[v]) for v in loop}
        dhs = {_sign(col.dh[v]) for v in loop}
        name = "->".join(g.label(v) for v in loop)
        if not (1 in dps and -1 in dps):
            violations.append(("Pressure", f"loop {name} lacks dp +/- pair"))
        if not (1 in dhs and -1 in dhs):
            violations.append(("Energy", f"loop {name} lacks dh +/- pair"))

    # Parallelism: node-disjoint directed paths with shared endpoints must
    # agree in net pressure and enthalpy direction.  Two such paths leave u
    # by different edges and enter v by different edges, so only pairs
    # with out-degree(u) >= 2 and in-degree(v) >= 2 can report anything.
    out_deg = [len(s) for s in succ]
    in_deg = g.adj.sum(axis=0).tolist()
    for u in active:
        if out_deg[u] < 2:
            continue
        for v in active:
            if u == v or in_deg[v] < 2:
                continue
            paths = list(_simple_paths(succ, [u], v))
            if len(paths) < 2:
                continue
            branches = []
            for path in paths:
                interior = path[1:-1]
                net_dp = _sign(sum(col.dp[w] for w in interior))
                net_dh = _sign(sum(col.dh[w] for w in interior))
                branches.append((set(interior), net_dp, net_dh, path))
            for (ia, dpa, dha, pa), (ib, dpb, dhb, pb) in \
                    itertools.combinations(branches, 2):
                if ia & ib:
                    continue
                if dpa != dpb or dha != dhb:
                    na = "->".join(g.label(w) for w in pa)
                    nb = "->".join(g.label(w) for w in pb)
                    violations.append(
                        ("Parallelism",
                         f"branches {na} and {nb} disagree in net dp/dh"))
    report = ValidityReport(tuple(violations))
    g._validity = report
    return report


# -- canonicalization ---------------------------------------------------

def _permutation_units(g: CycleGraph):
    """Interchangeable units: same-kind instances, compound groups as blocks."""
    classes: dict[tuple, list[tuple[int, ...]]] = {}
    grouped = set()
    for comp, members in g.couplings:
        key = ("group", comp, tuple(g.nodes[m][0] for m in members))
        classes.setdefault(key, []).append(members)
        grouped.update(members)
    for i, (tag, _inst) in enumerate(g.nodes):
        if i not in grouped:
            classes.setdefault(("node", tag), []).append((i,))
    return [units for units in classes.values() if len(units) > 1]


def canonical_form(g: CycleGraph) -> bytes:
    """Minimal adjacency bytes over permutations of same-kind instances."""
    n = len(g)
    swappable = _permutation_units(g)
    roster_sig = ",".join(f"{t}#{i}" for t, i in g.nodes).encode()
    best: bytes | None = None
    perms_per_class = [list(itertools.permutations(range(len(u))))
                       for u in swappable]
    for combo in itertools.product(*perms_per_class):
        perm = np.arange(n)
        for units, order in zip(swappable, combo):
            for src_pos, dst_pos in enumerate(order):
                for a, b in zip(units[src_pos], units[dst_pos]):
                    perm[a] = b
        relabeled = np.zeros_like(g.adj)
        for i, j in g.edges():
            relabeled[perm[i], perm[j]] = 1
        cand = relabeled.tobytes()
        if best is None or cand < best:
            best = cand
    return roster_sig + b"|" + best


def canonical_hex(g: CycleGraph) -> str:
    return canonical_form(g).hex()


# -- exhaustive enumeration ---------------------------------------------

def enumerate_valid(component_limits: dict[str, int], max_edges: int,
                    physical_filter=None,
                    reverse_order: bool = False) -> set[bytes]:
    """Depth-first enumeration of every valid structure's canonical key.

    physical_filter, when given, maps a structurally valid CycleGraph to
    a bool (decodability); structural-only enumeration otherwise.
    """
    g0 = new_graph(component_limits)
    if len(g0) > MAX_ENUMERATION_ROSTER:
        raise ValueError(
            f"roster of {len(g0)} nodes is too large to enumerate "
            f"(limit {MAX_ENUMERATION_ROSTER}; action space {len(g0) ** 2})")
    seen_states: set[bytes] = set()
    valid_keys: set[bytes] = set()
    checked_keys: dict[bytes, bool] = {}

    def visit(g: CycleGraph) -> None:
        key = g.state_key()
        if key in seen_states:
            return
        seen_states.add(key)
        if structural_validity(g).valid:
            ck = canonical_form(g)
            if ck not in checked_keys:
                checked_keys[ck] = (physical_filter is None
                                    or bool(physical_filter(g)))
            if checked_keys[ck]:
                valid_keys.add(ck)
        if g.edge_count() >= max_edges:
            return
        n = len(g)
        legal = np.flatnonzero(_edge_mask(g)).tolist()
        if reverse_order:
            legal.reverse()
        for k in legal:
            visit(apply_action(g, divmod(k, n)))

    visit(g0)
    return valid_keys


# -- export -------------------------------------------------------------

def export_dot(g: CycleGraph) -> str:
    """Graphviz DOT: solid flow edges, dashed coupling-group edges."""
    lines = ["digraph cycle {"]
    for i in range(len(g)):
        lines.append(f'  n{i} [label="{g.label(i)}"];')
    for i, j in g.edges():
        lines.append(f"  n{i} -> n{j};")
    for _comp, members in g.couplings:
        for a, b in zip(members, members[1:]):
            lines.append(f"  n{a} -> n{b} [style=dashed, dir=none];")
    lines.append("}")
    return "\n".join(lines)
