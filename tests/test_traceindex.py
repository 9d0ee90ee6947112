"""The bulk labelling kernel against the per-trace tree recursions.

One kernel labels all three transmission trees; each reading only supplies
the table of which actions reach which observer.  Labels are compared as
the partitions they induce, since ids are arena-specific.
"""

import random

import numpy as np
import pytest

from conftest import read_corpus
from nifcheck import InputError, build_pes, lex_key, parse_cap_config, traces_upto
from nifcheck.traceindex import TraceIndex

from oracles import (
    naive_closure,
    naive_ta_may,
    naive_ta_must,
    naive_ta_static,
    random_systems,
    shaped_system,
)

DEPTH = 3


def shape(idx, row):
    classes = {}
    for node, label in enumerate(row.tolist()):
        classes.setdefault(label, set()).add(idx.trace_of(node))
    return {frozenset(c) for c in classes.values()}


def oracle_shape(system, tree_of):
    classes = {}
    for t in traces_upto(system.signature, DEPTH):
        classes.setdefault(tree_of(t), set()).add(t)
    return {frozenset(c) for c in classes.values()}


def test_static_labels():
    for system in random_systems(3131, 12):
        idx = TraceIndex(system, DEPTH)
        e0 = idx.edge_bool[idx.states[0]]
        labels = idx.ta_labels(np.broadcast_to(e0, (idx.interior_end,) + e0.shape))
        static_edges = system.edges[system.initial]
        for ui, u in enumerate(system.signature.domains):
            want = oracle_shape(system, lambda t: naive_ta_static(system, static_edges, t, u))
            assert shape(idx, labels[ui]) == want


def test_permissive_labels():
    for system in random_systems(3232, 12):
        idx = TraceIndex(system, DEPTH)
        labels = idx.ta_labels()
        for ui, u in enumerate(system.signature.domains):
            want = oracle_shape(system, lambda t: naive_ta_may(system, t, u))
            assert shape(idx, labels[ui]) == want


def test_prohibitive_labels():
    for system in random_systems(3333, 12):
        idx = TraceIndex(system, DEPTH)
        roots, _ = idx.unwinding_roots()
        labels = idx.ta_labels(idx.jointly_known(roots)[: idx.interior_end])
        closure = naive_closure(system, DEPTH)
        for ui, u in enumerate(system.signature.domains):
            want = oracle_shape(
                system, lambda t: naive_ta_must(system, closure, DEPTH, t, u)
            )
            assert shape(idx, labels[ui]) == want


def test_lex_ranks_order_nodes_lexicographically():
    for n_actions in (1, 4):
        system = shaped_system(random.Random(n_actions), 3, n_actions, 2)
        sig = system.signature
        for depth in (0, 1, 3):
            idx = TraceIndex(system, depth)
            lex = idx.lex_ranks()
            traces = [idx.trace_of(n) for n in range(idx.n_nodes)]
            assert sorted(lex.tolist()) == list(range(idx.n_nodes))
            by_rank = [traces[n] for n in np.argsort(lex)]
            assert by_rank == sorted(traces, key=lambda t: lex_key(sig, t))
            assert idx.lex_ranks() is lex


def test_closure_roots_at_a_larger_shape():
    depth = 5
    system = shaped_system(random.Random(3434), 8, 4, 3)
    idx = TraceIndex(system, depth)
    roots, counts = idx.unwinding_roots()
    assert counts["wsc"] and counts["sweeps"] > 2  # joint stepping is exercised
    closure = naive_closure(system, depth)
    for ui, u in enumerate(system.signature.domains):
        got = shape(idx, roots[ui])
        want = {}
        for t, canon in closure[u].items():
            want.setdefault(canon, set()).add(t)
        assert got == {frozenset(c) for c in want.values()}
        least = {}
        for node, root in enumerate(roots[ui].tolist()):
            least.setdefault(root, node)
        assert all(root == node for root, node in least.items())


def test_depth_past_the_truncated_frontier_is_rejected():
    config = parse_cap_config(read_corpus("twoproc.cap"))
    system = build_pes(config, 1)
    assert TraceIndex(system, 1).n_nodes == 1 + len(system.signature.actions)
    with pytest.raises(InputError, match="truncated frontier"):
        TraceIndex(system, 2)
