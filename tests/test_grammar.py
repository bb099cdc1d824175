"""Graph grammar: edge rules, validity, canonicalization, enumeration."""

import itertools
import os

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from cyclesynth import grammar
from cyclesynth.grammar import (
    CycleGraph, IllegalActionError, TERMINATE, apply_action, canonical_form,
    canonical_hex, directed_loops, edge_legal, enumerate_valid, legal_actions,
    new_graph, structural_validity,
)
from cyclesynth.harness import load_config

SIMPLE_ROSTER = {"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1}


def _index(g, tag, inst=1):
    return g.nodes.index((tag, inst))


def _build(g, *edges):
    for tag_i, tag_j in edges:
        g = apply_action(g, (_index(g, *tag_i) if isinstance(tag_i, tuple)
                             else _index(g, tag_i),
                             _index(g, *tag_j) if isinstance(tag_j, tuple)
                             else _index(g, tag_j)))
    return g


def brayton():
    g = new_graph(SIMPLE_ROSTER)
    return _build(g, ("CP", "HT"), ("HT", "TB"), ("TB", "CL"), ("CL", "CP"))


def test_empty_three_node_roster_mask():
    g = new_graph({"compressor": 1, "heater": 1, "turbine": 1})
    mask = legal_actions(g)
    assert mask.shape == (3 * 3 + 1,)
    assert int(mask[:-1].sum()) == 6       # all ordered off-diagonal pairs
    assert not mask[-1]                    # TERMINATE illegal on empty graph


def test_empty_graph_invalid():
    g = new_graph(SIMPLE_ROSTER)
    rep = structural_validity(g)
    assert not rep.valid
    assert "Connection" in rep.categories()


def test_brayton_is_valid():
    g = brayton()
    assert structural_validity(g).valid
    assert legal_actions(g)[-1]


def test_brayton_single_loop():
    g = brayton()
    loops = directed_loops(g)
    assert len(loops) == 1
    assert len(loops[0]) == 4
    assert loops[0][0] == min(loops[0])    # rotated to smallest index


def test_self_loop_and_antiparallel_rejected():
    g = new_graph(SIMPLE_ROSTER)
    cp = _index(g, "CP")
    ht = _index(g, "HT")
    assert edge_legal(g, cp, cp) is not None
    g = apply_action(g, (cp, ht))
    assert edge_legal(g, cp, ht) is not None   # already active
    assert edge_legal(g, ht, cp) is not None   # antiparallel


def test_single_inlet_rule():
    g = new_graph({"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1,
                   "merge": 1})
    ht = _index(g, "HT")
    g = apply_action(g, (_index(g, "CP"), ht))
    assert edge_legal(g, _index(g, "TB"), ht) is not None  # inlet cap 1
    m = _index(g, "M")
    g = apply_action(g, (_index(g, "TB"), m))
    assert edge_legal(g, _index(g, "CL"), m) is None       # merge takes 2
    g = apply_action(g, (_index(g, "CL"), m))
    assert edge_legal(g, ht, m) is not None                # but not 3


def test_out_degree_caps():
    g = new_graph({"heater": 1, "turbine": 2, "compressor": 1, "cooler": 1})
    ht = _index(g, "HT")
    g = apply_action(g, (ht, _index(g, "TB", 1)))
    g = apply_action(g, (ht, _index(g, "TB", 2)))
    assert edge_legal(g, ht, _index(g, "CP")) is not None  # cap 2 reached


def test_compound_internal_wiring_ejector():
    g = new_graph({"compressor": 1, "gas_cooler": 1, "evaporator": 1,
                   "ejector": 1, "separator": 1, "expansion_valve": 1})
    gc = _index(g, "GC")
    ev = _index(g, "Ev")
    g = apply_action(g, (gc, ev))
    # activating the nozzle inlet wires Ev->Em and Ec->Em automatically
    em = _index(g, "Em")
    ec = _index(g, "Ec")
    assert g.adj[ev, em] == 1
    assert g.adj[ec, em] == 1
    # separator body outlets wire themselves too
    s = _index(g, "S")
    g = apply_action(g, (em, s))
    assert g.adj[s, _index(g, "SV")] == 1
    assert g.adj[s, _index(g, "SL")] == 1


def test_reserved_ports():
    g = new_graph({"compressor": 1, "ejector": 1, "gas_cooler": 1})
    ev = _index(g, "Ev")
    em = _index(g, "Em")
    assert edge_legal(g, ev, _index(g, "CP")) is not None  # Ev outlet reserved
    assert edge_legal(g, _index(g, "CP"), em) is not None  # Em inlet reserved


def test_terminate_contract():
    g = new_graph(SIMPLE_ROSTER)
    with pytest.raises(IllegalActionError):
        apply_action(g, TERMINATE)
    g = brayton()
    assert apply_action(g, TERMINATE) is g


def test_action_index_round_trip():
    g = brayton()
    n = len(g)
    assert grammar.action_from_index(g, n * n) == TERMINATE
    assert grammar.action_from_index(g, 1) == (0, 1)
    assert grammar.action_from_index(g, n + 2) == (1, 2)


def test_pressure_energy_loop_rules():
    # a loop with no pressure-raising component is invalid
    g = new_graph({"turbine": 1, "heater": 1, "cooler": 1, "compressor": 1})
    g = _build(g, ("HT", "TB"), ("TB", "CL"), ("CL", "HT"))
    rep = structural_validity(g)
    assert not rep.valid
    assert "Pressure" in rep.categories()
    # pressure rises and falls but enthalpy never drops along the loop
    g2 = new_graph({"compressor": 1, "expansion_valve": 1, "heater": 1})
    g2 = _build(g2, ("CP", "EV"), ("EV", "HT"), ("HT", "CP"))
    rep2 = structural_validity(g2)
    assert "Energy" in rep2.categories()


def test_stranded_node_detected():
    # CL#2 hangs off the loop with no outlet, so it lies on no directed loop
    g2 = new_graph({"compressor": 1, "heater": 1, "turbine": 1, "cooler": 2})
    g2 = _build(g2, ("CP", "HT"), ("HT", "TB"), ("TB", ("CL", 1)),
                (("CL", 1), "CP"), ("HT", ("CL", 2)))
    rep = structural_validity(g2)
    assert not rep.valid and "Connection" in rep.categories()


def figure_eight():
    g = new_graph({"compressor": 1, "turbine": 2, "heater": 1, "cooler": 1,
                   "merge": 1})
    return _build(g, ("CP", "HT"), ("HT", ("TB", 1)), ("HT", ("TB", 2)),
                  (("TB", 1), "M"), (("TB", 2), "M"), ("M", "CL"),
                  ("CL", "CP"))


def test_two_parallel_branches_two_loops():
    g = figure_eight()
    assert structural_validity(g).valid
    assert len(directed_loops(g)) == 2


def test_parallelism_rule_rejects_sign_disagreement():
    # two node-disjoint CP->... ->CL paths, one raising h and one dropping
    g = new_graph({"compressor": 1, "heater": 1, "turbine": 1, "cooler": 2,
                   "merge": 1})
    cp, ht = _index(g, "CP"), _index(g, "HT")
    g = _build(g, ("CP", "HT"), ("HT", "M"), ("CP", ("CL", 2)),
               (("CL", 2), "M"), ("M", "TB"), ("TB", ("CL", 1)),
               (("CL", 1), "CP"))
    rep = structural_validity(g)
    assert not rep.valid
    assert "Parallelism" in rep.categories()
    assert cp >= 0 and ht >= 0


def test_canonical_invariance_under_instance_swap():
    roster = {"compressor": 1, "heater": 1, "turbine": 2, "cooler": 1}
    g1 = new_graph(roster)
    g1 = _build(g1, ("CP", "HT"), ("HT", ("TB", 1)), (("TB", 1), "CL"),
                ("CL", "CP"))
    g2 = new_graph(roster)
    g2 = _build(g2, ("CP", "HT"), ("HT", ("TB", 2)), (("TB", 2), "CL"),
                ("CL", "CP"))
    assert g1.state_key() != g2.state_key()
    assert canonical_form(g1) == canonical_form(g2)
    assert canonical_hex(g1) == canonical_hex(g2)


def test_canonical_distinguishes_structures():
    g1 = brayton()
    g2 = new_graph(SIMPLE_ROSTER)
    g2 = _build(g2, ("CP", "TB"), ("TB", "HT"), ("HT", "CL"), ("CL", "CP"))
    assert canonical_form(g1) != canonical_form(g2)


def test_canonical_group_blocks_swap_together():
    roster = {"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1,
              "ihx": 2}
    g1 = new_graph(roster)
    g1 = _build(g1, ("CP", ("r", 1)), (("r", 1), "CL"), ("CL", "TB"),
                ("TB", ("R", 1)), (("R", 1), "HT"), ("HT", "CP"))
    g2 = new_graph(roster)
    g2 = _build(g2, ("CP", ("r", 2)), (("r", 2), "CL"), ("CL", "TB"),
                ("TB", ("R", 2)), (("R", 2), "HT"), ("HT", "CP"))
    assert canonical_form(g1) == canonical_form(g2)


def test_enumeration_order_invariance():
    fwd = enumerate_valid(SIMPLE_ROSTER, 6)
    rev = enumerate_valid(SIMPLE_ROSTER, 6, reverse_order=True)
    assert fwd == rev
    assert len(fwd) > 0


def test_enumeration_no_pressure_pair_roster_empty():
    assert enumerate_valid({"heater": 1, "cooler": 1}, 4) == set()


def test_enumeration_rejects_oversized_roster():
    with pytest.raises(ValueError):
        enumerate_valid({"compressor": 2, "turbine": 2, "heater": 2,
                         "cooler": 2, "ihx": 2, "merge": 2}, 4)


def test_roster_limits():
    with pytest.raises(ValueError):
        new_graph({"compressor": 3})
    with pytest.raises(ValueError):
        new_graph({"not_a_component": 1})
    with pytest.raises(ValueError):
        new_graph({"compressor": 0})


def test_adjacency_vector_matches_matrix():
    g = brayton()
    v = g.adjacency_vector()
    assert v.shape == (len(g) ** 2,)
    assert np.array_equal(v.reshape(len(g), len(g)), g.adj.astype(float))


def test_active_nodes_include_coupled_group():
    g = new_graph({"compressor": 1, "gas_cooler": 1, "ihx": 1})
    g = apply_action(g, (_index(g, "CP"), _index(g, "R")))
    active = set(g.active_nodes())
    assert _index(g, "r") in active        # coupled partner co-activates


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_random_rollouts_respect_rules(data):
    g = new_graph({"compressor": 1, "heater": 1, "turbine": 1, "cooler": 1,
                   "merge": 1})
    for _ in range(10):
        mask = legal_actions(g)
        legal = np.flatnonzero(mask[:-1])
        if legal.size == 0:
            break
        idx = data.draw(st.sampled_from(list(map(int, legal))))
        g = apply_action(g, grammar.action_from_index(g, idx))
        # invariants after any legal action
        assert np.all(np.diag(g.adj) == 0)
        assert np.all(g.adj + g.adj.T <= 1)
        for i in range(len(g)):
            assert g.out_degree(i) <= g.kind(i).max_out
            assert g.in_degree(i) <= g.kind(i).max_in


def test_export_dot_mentions_all_edges():
    g = brayton()
    dot = grammar.export_dot(g)
    assert dot.startswith("digraph")
    assert dot.count("->") >= g.edge_count()
    assert "CP#1" in dot


# -- equivalence with per-pair and brute-force references ------------------

def _reference_mask(g):
    """The edge rules checked pair by pair, as edge_legal states them."""
    n = len(g)
    mask = np.zeros(n * n + 1, dtype=bool)
    for i in range(n):
        for j in range(n):
            ki, kj = g.kind(i), g.kind(j)
            mask[i * n + j] = (i != j and not g.adj[i, j] and not g.adj[j, i]
                               and ki.manager_out and kj.manager_in
                               and g.out_degree(i) < ki.max_out
                               and g.in_degree(j) < kj.max_in)
    mask[-1] = not _reference_validity(g)
    return mask


def _reference_paths(g, u, v):
    """Every simple path u -> v, depth-first over ascending successors."""
    found = []

    def walk(path):
        for w in range(len(g)):
            if not g.adj[path[-1], w]:
                continue
            if w == v:
                found.append(path + [w])
            elif w not in path:
                walk(path + [w])

    walk([u])
    return found


def _reference_loops(g):
    """Each elementary cycle closes a simple path u -> w by an edge w -> u."""
    loops = set()
    for u in range(len(g)):
        for w in range(len(g)):
            if g.adj[w, u]:
                for path in _reference_paths(g, u, w):
                    k = path.index(min(path))
                    loops.add(tuple(path[k:] + path[:k]))
    return sorted((list(c) for c in loops), key=lambda c: (len(c), c))


def _reference_validity(g):
    """The validity rules with all simple paths of every ordered pair."""
    sign = lambda x: (x > 0) - (x < 0)   # noqa: E731
    active = g.active_nodes()
    if not active:
        return (("Connection", "no activated nodes"),)
    violations = []
    reached, grown = set(), {active[0]}
    while grown:
        reached |= grown
        grown = {w for v in grown for w in range(len(g))
                 if g.adj[v, w] or g.adj[w, v]} - reached
    if reached != set(active):
        violations.append(("Connection", "activated subgraph is disconnected"))
    stranded = [g.label(v) for v in active
                if not any(g.adj[w, v] and _reference_paths(g, v, w)
                           for w in range(len(g)))]
    if stranded:
        violations.append(("Connection", "nodes not on any closed loop: "
                           + ", ".join(stranded)))
    for loop in _reference_loops(g):
        dps = {sign(g.kind(v).dp) for v in loop}
        dhs = {sign(g.kind(v).dh) for v in loop}
        name = "->".join(g.label(v) for v in loop)
        if not (1 in dps and -1 in dps):
            violations.append(("Pressure", f"loop {name} lacks dp +/- pair"))
        if not (1 in dhs and -1 in dhs):
            violations.append(("Energy", f"loop {name} lacks dh +/- pair"))
    for u in active:
        for v in active:
            if u == v:
                continue
            branches = []
            for path in _reference_paths(g, u, v):
                interior = path[1:-1]
                branches.append((
                    set(interior),
                    sign(sum(g.kind(w).dp for w in interior)),
                    sign(sum(g.kind(w).dh for w in interior)),
                    "->".join(g.label(w) for w in path)))
            for a, b in itertools.combinations(branches, 2):
                if not a[0] & b[0] and a[1:3] != b[1:3]:
                    violations.append(
                        ("Parallelism",
                         f"branches {a[3]} and {b[3]} disagree in net dp/dh"))
    return tuple(violations)


def _bundled_rosters():
    cfg_dir = os.path.join(os.path.dirname(grammar.__file__), "configs")
    return {name: load_config(os.path.join(cfg_dir, name)).components
            for name in sorted(os.listdir(cfg_dir))}


def test_masks_and_validity_match_references_on_random_walks():
    rosters = _bundled_rosters()
    assert "hp_case2.yaml" in rosters     # ejector and separator roster
    rng = np.random.default_rng(7)
    categories, valid_states, states = set(), 0, 0
    for name, roster in rosters.items():
        for _walk in range(16):
            g = new_graph(roster)
            while True:
                mask = legal_actions(g)
                report = structural_validity(g)
                expected = _reference_validity(g)
                assert report.violations == expected, (name, g)
                assert np.array_equal(mask, _reference_mask(g)), (name, g)
                assert directed_loops(g) == _reference_loops(g), (name, g)
                states += 1
                valid_states += report.valid
                categories |= report.categories()
                legal = np.flatnonzero(mask)
                idx = int(rng.choice(legal)) if legal.size else len(mask) - 1
                if idx == len(mask) - 1:
                    break
                g = apply_action(g, grammar.action_from_index(g, idx))
    assert valid_states > 0
    assert categories == {"Connection", "Pressure", "Energy", "Parallelism"}
    assert states > 500


def test_edge_legal_messages_follow_rule_order():
    g = new_graph({"compressor": 1, "ejector": 1, "gas_cooler": 1})
    cp, ev, em, gc = (_index(g, t) for t in ("CP", "Ev", "Em", "GC"))
    assert edge_legal(g, cp, 99) == "index out of range"
    assert edge_legal(g, cp, cp) == "self-loop forbidden"
    assert edge_legal(g, ev, cp) == "Ev outlet is reserved for internal wiring"
    assert edge_legal(g, cp, em) == "Em inlet is reserved for internal wiring"
    g = apply_action(g, (cp, gc))
    assert edge_legal(g, cp, gc) == "edge already active"
    assert edge_legal(g, gc, cp) == "antiparallel edge active"
    g = apply_action(g, (cp, ev))
    assert edge_legal(g, cp, _index(g, "Ec")) == \
        "out-degree cap 2 reached on CP#1"
    assert edge_legal(g, em, gc) == "inlet cap 1 reached on GC#1"
