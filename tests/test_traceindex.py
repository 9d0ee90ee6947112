"""The bulk labelling kernel against the per-trace tree recursions.

One kernel labels all three transmission trees; each reading only supplies
the table of which actions reach which observer.  Labels are compared as
the partitions they induce, since ids are arena-specific.
"""

import random
from dataclasses import replace

import numpy as np
import pytest

from conftest import read_corpus
from nifcheck import (
    InputError,
    build_pes,
    PolicyEnhancedSystem,
    Signature,
    lex_key,
    parse_cap_config,
    parse_system,
    reachable_states,
    run,
    state_unwinding_check,
    traces_upto,
)
import nifcheck.checkers
import nifcheck.traceindex
from nifcheck.traceindex import (
    TraceIndex,
    _PackedArena,
    _chunks,
    _compress,
    _count_ids,
    _gather,
    _intern,
    _pair_keys,
    _shares_id,
    _sorted_unique,
    unwinding_closure,
)

from oracles import (
    child_level_ta_labels,
    full_sweep_closure,
    naive_closure,
    naive_ta_may,
    naive_ta_must,
    naive_ta_static,
    random_systems,
    roots_by_hops,
    shaped_system,
)

DEPTH = 3


def shape(idx, row):
    classes = {}
    for node, label in enumerate(row.tolist()):
        classes.setdefault(label, set()).add(idx.trace_of(node))
    return {frozenset(c) for c in classes.values()}


def oracle_shape(system, tree_of, depth=DEPTH):
    classes = {}
    for t in traces_upto(system.signature, depth):
        classes.setdefault(tree_of(t), set()).add(t)
    return {frozenset(c) for c in classes.values()}


def test_static_labels():
    for system in random_systems(3131, 12):
        idx = TraceIndex(system, DEPTH)
        e0 = idx.edge_bool[idx.start]
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


THREE_PROCESS_CAP = """\
processes: p q r
tags: n
messages: 0 1
caps: p n+ n-
caps: q n+
kinds: data add_tag remove_tag send_message_to
"""


def test_capability_labels():
    configs = (THREE_PROCESS_CAP, read_corpus("twoproc.cap"))
    for config in map(parse_cap_config, configs):
        for depth in (1, 2):
            system = build_pes(config, depth)  # the index refuses no frontier
            idx = TraceIndex(system, depth)
            labels = idx.ta_labels()
            for ui, u in enumerate(system.signature.domains):
                want = oracle_shape(system, lambda t: naive_ta_may(system, t, u), depth)
                assert shape(idx, labels[ui]) == want


def allowed_tables(idx):
    """The static, permissive (the default) and prohibitive tables of one
    index."""
    e0 = idx.edge_bool[idx.start]
    roots, _ = idx.unwinding_roots()
    return (
        np.broadcast_to(e0, (idx.interior_end,) + e0.shape),
        None,
        idx.jointly_known(roots)[: idx.interior_end],
    )


def assert_child_level_labels(idx, tables=None):
    """The labels of every table are the child-level kernel's, also with
    ``_CHUNK`` at 7, which writes a block of many passing parents in
    several chunks."""
    for allowed in tables or allowed_tables(idx):
        want = child_level_ta_labels(idx, allowed)
        for chunk in (nifcheck.traceindex._CHUNK, 7):
            with pytest.MonkeyPatch.context() as patch:
                patch.setattr(nifcheck.traceindex, "_CHUNK", chunk)
                got = idx.ta_labels(allowed)
            assert got.dtype == np.int32
            assert np.array_equal(got, want)


def test_labels_are_bit_identical_to_the_child_level_kernel():
    rng = random.Random(3737)
    for depth in range(6):
        for _ in range(4):
            shape_ = rng.randint(1, 6), rng.randint(1, 6), rng.randint(1, 4)
            assert_child_level_labels(TraceIndex(shaped_system(rng, *shape_), depth))
        # actions drawn to domains at random, not round robin
        for system in random_systems(3737 + depth, 4, max_actions=5):
            assert_child_level_labels(TraceIndex(system, depth))


def test_labels_at_the_edges_of_the_shape():
    rng = random.Random(3838)
    # u2 owns no action and, with no edges, is never passed one
    idx = TraceIndex(shaped_system(rng, 4, 2, 3, edge_bias=0.0), 4)
    assert not (idx.dom_of == 2).any()
    assert_child_level_labels(idx)
    assert not idx.ta_labels()[2].any()
    # a level at which no parent passes anything to observer 0
    idx = TraceIndex(shaped_system(rng, 4, 4, 2, edge_bias=0.6), 4)
    allowed = idx.edge_bool[idx.states].copy()
    allowed[idx.offs[1] : idx.offs[2], :, 0] = False
    assert_child_level_labels(idx, [allowed])
    for system, depth in (
        (shaped_system(rng, 4, 3, 1), 5),  # one domain
        (shaped_system(rng, 5, 1, 2), 40),  # one action
        (build_pes(parse_cap_config(read_corpus("twoproc.cap")), 2), 2),
    ):
        assert_child_level_labels(TraceIndex(system, depth))


def first_occurrence(row):
    """Ids renumbered by first occurrence: equal iff the partitions are."""
    _, first, inverse = np.unique(row, return_index=True, return_inverse=True)
    return np.argsort(np.argsort(first))[inverse.ravel()]


def test_block_ids_renumber_the_alphabet_order_words_only_within_partitions():
    """Blocks number a call's fresh ids by domain before action.  Words
    packed with the raw action number them by action alone, which differs
    where domains' actions interleave, but every domain's partition and
    the largest id stay the same."""
    rng = random.Random(4040)
    systems = [
        shaped_system(rng, rng.randint(1, 5), rng.randint(2, 6), rng.randint(2, 4))
        for _ in range(8)
    ] + random_systems(4040, 8, max_actions=5)
    renumbered = 0
    for system in systems:
        idx = TraceIndex(system, 4)
        for allowed in allowed_tables(idx):
            got = idx.ta_labels(allowed)
            raw = child_level_ta_labels(idx, allowed, by_domain=False)
            assert got.max() == raw.max()
            for mine, theirs in zip(got, raw):
                assert np.array_equal(first_occurrence(mine), first_occurrence(theirs))
            renumbered += not np.array_equal(got, raw)
    assert renumbered  # the systems do interleave


def wide_system():
    """1,030 domains, three of which own the four actions, and a random
    policy among the actors and one other domain: 3,090 (observer, actor)
    blocks, past the 1,024 that ten bits could number."""
    rng = random.Random(4141)
    domains = tuple(f"u{i}" for i in range(1030))
    actors = ("u1029", "u1025", "u0")
    actions = ("a0", "a1", "a2", "a3")
    states = ("s0", "s1", "s2")
    return PolicyEnhancedSystem(
        signature=Signature(
            domains=domains, actions=actions, dom=dict(zip(actions, actors + ("u1029",)))
        ),
        states=states,
        initial="s0",
        transitions={(s, a): rng.choice(states) for s in states for a in actions},
        obs={(u, s): rng.randrange(2) for u in domains for s in states},
        edges={
            s: frozenset(
                (d, u) for d in actors for u in actors + ("u7",) if d != u and rng.random() < 0.5
            )
            for s in states
        },
    )


def test_labels_key_blocks_by_domain_rank_past_the_action_field():
    """A domain's index can exceed the action field of the packed key, its
    rank among the domains that own actions cannot; the words stay exact
    over all 3,090 blocks of one level, also when ``_CHUNK`` at 7 splits
    their writes."""
    assert_child_level_labels(TraceIndex(wide_system(), 3), [None])


def test_one_sort_and_one_arena_call_per_observer(monkeypatch):
    """On figure 1 at depth 8 (511 traces, 3 domains, 2 actor rows) a
    labelling makes one sort and one arena call per (level, observer) that
    is passed an action, whatever ``_CHUNK`` splits the block writes, and
    its labels are the child-level kernel's."""
    idx = TraceIndex(parse_system(read_corpus("figure1.nif")), 8)
    doms = sorted(set(idx.dom_of.tolist()))
    calls = {"intern": 0, "sort": 0}
    sort, intern = nifcheck.traceindex._sorted_unique, _PackedArena.intern

    def counted(name, fn):
        def call(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return call

    monkeypatch.setattr(nifcheck.traceindex, "_sorted_unique", counted("sort", sort))
    monkeypatch.setattr(_PackedArena, "intern", counted("intern", intern))
    chunks = (nifcheck.traceindex._CHUNK, 7)
    for allowed in allowed_tables(idx):
        table = idx.edge_bool[idx.states] if allowed is None else allowed
        # passed[l, u]: some parent on level l passes an actor row to u
        passed = np.array(
            [
                table[idx.offs[l] : idx.offs[l + 1]][:, doms].any(axis=(0, 1))
                for l in range(idx.depth)
            ]
        )
        want = child_level_ta_labels(idx, allowed)
        for chunk in chunks:
            monkeypatch.setattr(nifcheck.traceindex, "_CHUNK", chunk)
            calls.update(intern=0, sort=0)
            assert np.array_equal(idx.ta_labels(allowed), want)
            assert calls["sort"]
            assert calls == {"intern": int(passed.sum()), "sort": int(passed.sum())}


def test_labels_raise_when_the_label_space_runs_out(monkeypatch):
    idx = TraceIndex(shaped_system(random.Random(3939), 5, 4, 3, edge_bias=0.5), 4)
    most = int(child_level_ta_labels(idx).max())
    # the arena's count ends one past the largest id, and reaching the
    # limit raises
    monkeypatch.setattr(nifcheck.traceindex, "_MAX_LABELS", most + 1)
    for kernel in (TraceIndex.ta_labels, child_level_ta_labels):
        with pytest.raises(InputError, match="tree label space exhausted"):
            kernel(idx)
    monkeypatch.setattr(nifcheck.traceindex, "_MAX_LABELS", most + 2)
    assert int(idx.ta_labels().max()) == most


def full_jointly_known(idx, roots):
    """``TraceIndex.jointly_known`` by grouping every node on its joint
    (d, u) class."""
    known = np.ones((idx.n_nodes, idx.n_domains, idx.n_domains), dtype=bool)
    fails = ~idx.at_nodes(idx.edge_bool)
    for d in range(idx.n_domains):
        for u in range(idx.n_domains):
            if d != u:
                _, group = np.unique(roots[d] * idx.n_nodes + roots[u], return_inverse=True)
                denied = np.zeros(group.max() + 1, dtype=bool)
                denied[group.ravel()[fails[:, d, u]]] = True
                known[:, d, u] = ~denied[group.ravel()]
    return known


def test_jointly_known_groups_only_the_classes_that_can_deny():
    rng = random.Random(4444)
    cases = [(shaped_system(rng, 5, 3, rng.randint(1, 4), edge_bias=rng.random()), 3) for _ in range(20)]
    cases += [(system, 3) for system in random_systems(4444, 10)]
    cases.append((build_pes(parse_cap_config(read_corpus("twoproc.cap")), 2), 2))
    for system, depth in cases:
        idx = TraceIndex(system, depth)
        roots, _ = idx.unwinding_roots()
        want = full_jointly_known(idx, roots)
        assert np.array_equal(idx.jointly_known(roots), want)
        # the interior rows alone, where leaves still deny for their classes
        assert np.array_equal(idx.jointly_known(roots, idx.interior_end), want[: idx.interior_end])


def test_edge_table_holds_each_states_policy():
    for system in random_systems(4545, 10) + [
        build_pes(parse_cap_config(read_corpus("twoproc.cap")), 2)
    ]:
        idx = TraceIndex(system, 1)
        sig = system.signature
        want = np.array(
            [
                [[u == v or (u, v) in system.edges[s] for v in sig.domains] for u in sig.domains]
                for s in idx.state_names
            ]
        )
        assert np.array_equal(idx.edge_bool, want)


def test_at_nodes_reads_each_traces_end_state():
    """``at_nodes`` gives every node the row of its trace's end state, run
    from the initial state and from another reachable start, for 1-d, bool
    edge-column and 3-d tables; the index keeps the interior states only."""
    rng = random.Random(4646)
    cases = [
        (shaped_system(rng, rng.randint(1, 5), rng.randint(1, 4), rng.randint(1, 3)), depth)
        for depth in (0, 1, 4)
        for _ in range(4)
    ]
    cases += [(shaped_system(rng, 3, 0, 2), depth) for depth in (0, 1, 3)]
    for system, depth in cases:
        idx = TraceIndex(system, depth)
        assert len(idx.states) == idx.interior_end
        assert idx.state_names[idx.start] == system.initial
        other = idx.reachable(idx.start)[0][-1]
        d, u = 0, idx.n_domains - 1
        for start in (None, int(other)):
            state = None if start is None else idx.state_names[start]
            ends = [idx.state_ids[run(system, idx.trace_of(n), state)] for n in range(idx.n_nodes)]
            for table in (idx.obs_ids[u], idx.edge_bool[:, d, u], idx.edge_bool):
                got = idx.at_nodes(table, start)
                assert got.dtype == table.dtype
                assert np.array_equal(got, table[ends])


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
            assert lex.dtype == np.int32  # ranks stay below _MAX_NODES


def test_closure_roots_at_a_larger_shape():
    depth = 5
    system = shaped_system(random.Random(3434), 8, 4, 3)
    idx = TraceIndex(system, depth)
    roots, counts = idx.unwinding_roots()
    assert roots.dtype == np.int32
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


def tree_oracle(idx):
    """``TraceIndex.unwinding_roots`` by full sweeps over every node of the
    tree, leaves included."""
    first_child = np.arange(idx.interior_end) * idx.n_actions + 1
    return full_sweep_closure(
        idx.n_nodes,
        lambda j: first_child + j,
        idx.edge_bool[idx.states],
        idx.dom_of,
    )


@pytest.fixture
def closures(monkeypatch):
    """Checks every closure against the full-sweep oracle: each trace tree's
    roots from ``TraceIndex.unwinding_roots``, which closes the interior
    nodes in the kernel and fills the leaves itself, and each state graph's
    from the kernel.  The roots must be bit-identical int32, and every root
    is its own root and no larger than its node, leaves included.  Records
    the counts of each call."""
    seen = []
    tree_roots = TraceIndex.unwinding_roots

    def checked(roots, counts, want):
        assert roots.dtype == np.int32
        assert np.array_equal(roots, want)
        assert np.array_equal(np.take_along_axis(roots, roots, axis=1), roots)
        assert (roots <= np.arange(roots.shape[1])).all()
        seen.append(counts)
        return roots, counts

    def tree(idx):
        return checked(*tree_roots(idx), tree_oracle(idx)[0])

    def graph(n_nodes, child, allowed, dom_of, diamond=False):
        want, _ = full_sweep_closure(n_nodes, child, allowed, dom_of, diamond)
        return checked(*unwinding_closure(n_nodes, child, allowed, dom_of, diamond), want)

    monkeypatch.setattr(TraceIndex, "unwinding_roots", tree)
    monkeypatch.setattr(nifcheck.checkers, "unwinding_closure", graph)
    return seen


def tree_closures():
    """Closure calls over trace trees of many shapes."""
    rng = random.Random(4040)
    for depth in range(6):
        for _ in range(4):
            shape_ = rng.randint(1, 6), rng.randint(1, 5), rng.randint(1, 4)
            TraceIndex(shaped_system(rng, *shape_), depth).unwinding_roots()
        # actions drawn to domains at random, not round robin
        for system in random_systems(4040 + depth, 3, max_actions=4):
            TraceIndex(system, depth).unwinding_roots()
    for system, depth in (
        (shaped_system(rng, 4, 3, 1), 5),  # one domain
        (shaped_system(rng, 4, 2, 3), 4),  # u2 owns no action
        (shaped_system(rng, 5, 1, 2), 40),  # one action
        (shaped_system(rng, 3, 0, 2), 1),  # no action: the root is the frontier
        (shaped_system(random.Random(3434), 8, 4, 3), 5),
        (wide_system(), 3),  # 3,090 blocks, past what ten bits could number
    ):
        TraceIndex(system, depth).unwinding_roots()


def state_graph_closures():
    """Closure calls over the reachable-state graphs of the state-certifier
    tests, in both modes; returns how many systems they cover."""
    rng = random.Random(6464)
    systems = [
        shaped_system(
            rng,
            rng.randint(1, 8),
            rng.randint(1, 4),
            rng.randint(1, 3),
            edge_bias=rng.choice((0.2, 0.5, 0.8)),
        )
        for _ in range(200)
    ]
    config = parse_cap_config(read_corpus("twoproc.cap"))
    systems += [build_pes(config, depth) for depth in (0, 1, 2, 3)]
    systems += random_systems(7777, 15)
    for system in systems:
        for mode in ("box", "diamond"):
            state_unwinding_check(system, mode=mode)
    return len(systems)


def test_closure_is_bit_identical_to_full_sweeps(closures):
    tree_closures()
    assert closures[-2]["sweeps"] >= 4


def test_state_graph_closure_is_bit_identical_to_full_sweeps(closures):
    n_systems = state_graph_closures()
    assert len(closures) == 2 * n_systems
    assert max(counts["sweeps"] for counts in closures) >= 2


def test_closure_compresses_in_place_across_chunks(closures, monkeypatch):
    """With chunks of 7 ids, the in-place compression of the rounds and of
    the other nodes crosses many chunks and follows chains inside one, and
    each observer's pairs are joined in runs of at most 7 pairs.  The roots
    stay the oracle's, and the counts those of the default runs."""
    tree_closures()
    n_systems = state_graph_closures()
    unpatched = closures[:]
    closures.clear()
    monkeypatch.setattr(nifcheck.traceindex, "_CHUNK", 7)
    tree_closures()
    n_trees = len(closures)
    assert closures[n_trees - 2]["sweeps"] >= 4
    assert state_graph_closures() == n_systems
    assert len(closures) - n_trees == 2 * n_systems
    assert closures == unpatched


def test_regrouped_counts_the_key_lookups_of_moved_nodes():
    def first_round(idx):
        """The lookups of the first round: in every (observer, actor) block,
        each node below the frontier and each frontier node where the edge
        from the actor to the observer fails."""
        frontier = idx.offs[idx.depth - 1]
        doms = sorted(set(idx.dom_of.tolist()))
        allowed = idx.edge_bool[idx.states[frontier:]]
        return frontier * idx.n_domains * len(doms) + int((~allowed[:, doms, :]).sum())

    # later rounds look up only the nodes whose roots moved
    idx = TraceIndex(shaped_system(random.Random(3434), 8, 4, 3), 5)
    _, counts = idx.unwinding_roots()
    assert counts["sweeps"] >= 4
    assert first_round(idx) < counts["regrouped"] < counts["sweeps"] * first_round(idx)
    # with every edge at every state nothing is deleted, no frontier node
    # is looked up, no two nodes share a key, and the first round links
    # nothing
    idx = TraceIndex(shaped_system(random.Random(4141), 4, 3, 3, edge_bias=1.0), 4)
    _, counts = idx.unwinding_roots()
    assert (counts["dlr"], counts["wsc"], counts["sweeps"]) == (0, 0, 1)
    assert counts["regrouped"] == first_round(idx) == idx.offs[3] * 9


@pytest.mark.parametrize(
    "system, depth, want",
    [
        (lambda: parse_system(read_corpus("figure1.nif")), 8, (773, 576, 7, 3064)),
        (lambda: shaped_system(random.Random(3434), 8, 4, 3), 5, (1770, 574, 7, 3400)),
    ],
    ids=["figure1-8", "shaped-3434-5"],
)
def test_closure_counts_are_pinned(system, depth, want):
    """The closure's counts are exact for a given input, whatever order it
    joins its pairs in, so a rewrite of the kernel keeps them."""
    _, counts = TraceIndex(system(), depth).unwinding_roots()
    assert (counts["dlr"], counts["wsc"], counts["sweeps"], counts["regrouped"]) == want


def leaf_fill_cases(idx, roots):
    """Which cases of the leaf fill the tree of ``idx`` takes, read off the
    oracle's ``roots`` over every node:

    * "bridge": a chain through leaves joins two interior classes, so
      closing the interior nodes alone, with the frontier not stepping,
      gives other interior roots;
    * "only-leaves": a class of two or more nodes holds only leaves;
    * "hidden-below": a frontier node's joint class J, in some (observer,
      actor) block, has a member hidden below the frontier and none hidden
      on it."""
    m, frontier = idx.interior_end, idx.offs[idx.depth - 1]
    allowed = idx.edge_bool[idx.states]
    first_child = np.arange(frontier) * idx.n_actions + 1
    cut, _ = full_sweep_closure(m, lambda j: first_child + j, allowed[:frontier], idx.dom_of)
    leaves = roots[:, m:]
    cases = set()
    if not np.array_equal(roots[:, :m], cut):
        cases.add("bridge")
    if ((leaves >= m) & (leaves != np.arange(m, idx.n_nodes))).any():
        cases.add("only-leaves")
    for u in range(idx.n_domains):
        for d in set(idx.dom_of.tolist()):
            key = roots[u, :m] * m + roots[d, :m]
            hidden = ~allowed[:, d, u]
            for p in range(frontier, m):
                joint = np.flatnonzero(key == key[p])
                on = joint >= frontier
                if hidden[joint[~on]].any() and not hidden[joint[on]].any():
                    cases.add("hidden-below")
    return cases


@pytest.mark.parametrize(
    ("case", "seed", "n_states", "n_domains", "depth"),
    [
        ("bridge", 492, 6, 3, 2),
        ("only-leaves", 720, 3, 2, 3),
        ("hidden-below", 874, 6, 3, 2),
    ],
)
def test_leaf_fill_cases(case, seed, n_states, n_domains, depth):
    """Small trees, found by a seeded search, that each take one case of
    the leaf fill; the roots, leaves included, are the oracle's."""
    idx = TraceIndex(shaped_system(random.Random(seed), n_states, 2, n_domains), depth)
    want, _ = tree_oracle(idx)
    assert case in leaf_fill_cases(idx, want)
    roots, _ = idx.unwinding_roots()
    assert np.array_equal(roots, want)


def test_closure_refuses_keys_that_would_overflow():
    """A block's signature key packs two roots below the node limit, so it
    fits uint64 whenever the node guard passes."""
    assert nifcheck.traceindex._MAX_NODES ** 2 < 2**64
    # zero-stride views: nothing of this size is allocated
    m, n_domains = 1 << 27, 1 << 11
    allowed = np.broadcast_to(np.ones((1, 1, 1), dtype=bool), (m, n_domains, n_domains))
    with pytest.raises(InputError, match="exceed the closure's limit"):
        unwinding_closure(m + 1, None, allowed, np.zeros(1, dtype=np.int32))


def test_node_and_label_limits_fit_int32():
    """Labels, roots and the closure's forests are int32 because every
    label and node id stays below these limits."""
    assert nifcheck.traceindex._MAX_NODES < 1 << 31
    assert nifcheck.traceindex._MAX_LABELS < 1 << 31


def test_engine_refuses_more_nodes_than_the_limit(monkeypatch):
    system = shaped_system(random.Random(4343), 3, 2, 2)
    n_nodes = TraceIndex(system, 3).n_nodes
    monkeypatch.setattr(nifcheck.traceindex, "_MAX_NODES", n_nodes)
    idx = TraceIndex(system, 3)  # at the limit
    idx.unwinding_roots()
    with pytest.raises(InputError, match="exceed the bulk engine limit"):
        TraceIndex(system, 4)
    with pytest.raises(InputError, match="exceed the closure's limit"):
        unwinding_closure(n_nodes + 1, None, np.ones((1, 2, 2), dtype=bool), idx.dom_of)


def test_depth_past_the_truncated_frontier_is_rejected():
    config = parse_cap_config(read_corpus("twoproc.cap"))
    system = build_pes(config, 1)
    assert TraceIndex(system, 1).n_nodes == 1 + len(system.signature.actions)
    with pytest.raises(InputError, match="truncated frontier"):
        TraceIndex(system, 2)


def test_reachable_follows_the_reference_walk():
    """``TraceIndex.reachable`` lists the states and distances of
    ``reachable_states`` in its order, from several starts, with no bound
    and with each bound up to 3, and renumbers the successor table to those
    positions (-1 past the bound)."""
    config = parse_cap_config(read_corpus("twoproc.cap"))
    systems = random_systems(4141, 12) + [build_pes(config, depth) for depth in (2, 3)]
    for system in systems:
        idx = TraceIndex(system, 0)
        names = idx.state_names
        assert {names[i] for i in np.flatnonzero(idx.truncated)} == system.truncated
        for start in system.states[:3]:
            started = replace(system, initial=start)
            for depth in (None, 0, 1, 2, 3):
                order, dist, succ = idx.reachable(idx.state_ids[start], depth)
                want = reachable_states(started, depth)
                assert [names[i] for i in order.tolist()] == list(want)
                assert dist.tolist() == list(want.values())
                pos = {s: i for i, s in enumerate(want)}
                assert succ.tolist() == [
                    [pos.get(system.transitions[(names[i], a)], -1) for a in idx.signature.actions]
                    for i in order.tolist()
                ]


def unique_cases():
    rng = np.random.default_rng(3535)
    high = np.uint64(1 << 63)
    yield np.empty(0, dtype=np.uint64)
    yield np.array([7], dtype=np.uint64)
    yield np.full(9, 5, dtype=np.uint64)
    yield np.full(4, high, dtype=np.uint64)
    for n, span in ((50, 8), (1000, 300), (5000, 1 << 64)):
        keys = rng.integers(0, span, size=n, dtype=np.uint64)
        yield keys
        yield keys | high  # every key at or above 2**63
        yield np.where(rng.random(n) < 0.5, keys, keys | high)
    yield np.empty(0, dtype=np.int64)
    yield np.array([-3], dtype=np.int64)
    yield np.zeros(6, dtype=np.int64)
    for n in (40, 2000):
        yield rng.integers(-5, 20, size=n, dtype=np.int64)  # a label row
        yield rng.integers(-(1 << 62), 1 << 62, size=n, dtype=np.int64)


def test_sorted_unique_matches_numpy():
    for keys in unique_cases():
        want, want_inv = np.unique(keys, return_inverse=True)
        got, got_inv = _sorted_unique(keys)
        assert got.dtype == keys.dtype
        assert np.array_equal(got, want)
        assert np.array_equal(got_inv, want_inv.ravel())
        assert np.array_equal(got[got_inv], keys)
        # the first occurrence of each key, as numpy's stable unique gives it
        _, want_first = np.unique(keys, return_index=True)
        got, got_first, got_inv = _sorted_unique(keys, return_index=True)
        assert np.array_equal(got, want)
        assert np.array_equal(got_first, want_first)
        assert np.array_equal(got_inv, want_inv.ravel())


def test_sorted_unique_groups_packed_rows_as_void_keys():
    """Packed bool rows viewed as one void key each group as whole rows."""
    rng = np.random.default_rng(3535)
    for n, width in ((0, 3), (1, 1), (40, 5), (300, 20)):
        rows = rng.random((n, width)) < 0.3
        rows[n // 2 :] = rows[: n - n // 2]  # repeats
        packed = np.packbits(rows, axis=1)
        _, first, group = _sorted_unique(
            packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_index=True
        )
        assert np.array_equal(rows[first][group], rows)
        assert len(first) == len({row.tobytes() for row in rows})
        assert first.tolist() == sorted(first.tolist(), key=lambda i: packed[i].tobytes())


def test_pair_keys_pack_the_high_id_above_the_low():
    rng = np.random.default_rng(3434)
    top = (1 << 27) - 1
    for n in (0, 1, 500):
        for dtype in (np.int32, np.intp):
            high = rng.integers(0, top + 1, n).astype(dtype)
            low = rng.integers(0, top + 1, n).astype(dtype)
            high[:1], low[1:2] = top, top
            mask = rng.random(n) < 0.5
            picks = rng.integers(0, max(n, 1), n // 2)  # repeats, any order
            for at in (slice(None), mask, np.flatnonzero(mask), picks):
                got = _pair_keys(high, low, at)
                want = [(h << 32) | l for h, l in zip(high[at].tolist(), low[at].tolist())]
                assert got.dtype == np.uint64
                assert got.tolist() == want


def test_intern_numbers_values_in_first_seen_order():
    ids, values = _intern(["b", frozenset(), "a", "b", frozenset(), 1, 1.0])
    assert ids.dtype == np.intp
    assert ids.tolist() == [0, 1, 2, 0, 1, 3, 3]  # 1 == 1.0
    assert values == ["b", frozenset(), "a", 1]
    ids, values = _intern(iter(()))
    assert ids.tolist() == [] and values == []


def test_count_ids_counts_distinct_ids(monkeypatch):
    rng = np.random.default_rng(3535)
    chunks = (nifcheck.traceindex._CHUNK, 7)
    for n, span in ((0, 1), (1, 1), (50, 7), (2000, 3000)):
        ids = rng.integers(0, span, size=n).astype(np.int32)
        want = len(set(ids.tolist()))
        for chunk in chunks:
            monkeypatch.setattr(nifcheck.traceindex, "_CHUNK", chunk)
            assert _count_ids(ids) == want
            assert _count_ids(ids.astype(np.intp)) == want


def test_shares_id_marks_the_classes_of_the_members(monkeypatch):
    rng = np.random.default_rng(3737)
    for n, span in ((0, 1), (1, 1), (40, 6), (2000, 300)):  # n = 0: an empty key
        for dtype in (np.int32, np.intp):
            key = rng.integers(0, span, size=n).astype(dtype)
            mask = rng.random(n) < 0.2
            end = int(rng.integers(0, n + 1))
            picks = rng.integers(0, max(n, 1), n // 4)  # repeats, any order
            for members in (slice(end), mask, np.flatnonzero(mask), picks):
                marked = set(key[members].tolist())
                for chunk in (nifcheck.traceindex._CHUNK, 7):
                    monkeypatch.setattr(nifcheck.traceindex, "_CHUNK", chunk)
                    got = _shares_id(key, members)
                    assert got.dtype == bool
                    assert got.tolist() == [k in marked for k in key.tolist()]


def test_gather_by_int32_ids_matches_fancy_indexing():
    rng = np.random.default_rng(3636)
    chunk = nifcheck.traceindex._CHUNK
    tables = [
        rng.integers(-9, 9, 500).astype(np.int32),
        rng.integers(0, 1 << 62, 500, dtype=np.int64),
        rng.integers(0, 1 << 64, 500, dtype=np.uint64),
        rng.random(500) < 0.5,
        (rng.random((500, 3, 3)) < 0.5)[:, 2, 1],  # a strided view
    ]
    for n in (0, 1, chunk, chunk + 1, 2 * chunk + 5):
        ids = rng.integers(0, 500, n).astype(np.int32)
        pieces = list(_chunks(ids))
        assert [start for start, _ in pieces] == list(range(0, n, chunk))
        assert all(part.dtype == np.intp for _, part in pieces)
        assert np.array_equal(np.concatenate([part for _, part in pieces] or [ids]), ids)
        for table in tables:
            got = _gather(table, ids)
            assert got.dtype == table.dtype and got.shape == (n,)
            assert np.array_equal(got, table[ids])
    # intp ids come through whole, as one chunk
    ids = rng.integers(0, 500, chunk + 1).astype(np.intp)
    ((start, part),) = _chunks(ids)
    assert start == 0 and part is ids
    assert np.array_equal(_gather(tables[0], ids), tables[0][ids])


def test_compress_in_chunks_matches_one_chunk(monkeypatch):
    rng = np.random.default_rng(3737)
    default = nifcheck.traceindex._CHUNK
    for n in (1, 2, 50, 700):
        parent = np.zeros(n, dtype=np.int32)
        parent[1:] = rng.integers(0, np.arange(1, n), n - 1)  # links go down
        want = roots_by_hops(parent)
        assert not want[0]
        for chunk in (default, 3):
            monkeypatch.setattr(nifcheck.traceindex, "_CHUNK", chunk)
            got = parent.copy()
            _compress(got[None])  # in place, across many chunks with 3
            assert got.dtype == np.int32
            assert np.array_equal(got, want)


def test_arena_matches_a_dict_oracle():
    rng = np.random.default_rng(3636)
    for span in (40, 1 << 64):
        arena, oracle, count = _PackedArena(), {}, 1
        for n in (0, 30, 1, 200, 30, 500):
            keys = rng.integers(0, span, size=n, dtype=np.uint64)
            if n and oracle:  # repeat keys of earlier calls
                old = np.fromiter(oracle, dtype=np.uint64)
                keys[: n // 3] = rng.choice(old, size=n // 3)
            keys = np.unique(keys)  # ascending and distinct, as the labelling's
            widths = rng.integers(1, 5, size=len(keys))
            for k, w in zip(keys.tolist(), widths.tolist()):
                if k not in oracle:  # fresh blocks take their ids in key order
                    oracle[k], count = count, count + w
            firsts = arena.intern(keys, widths)
            assert firsts.tolist() == [oracle[k] for k in keys.tolist()]
            assert arena.count == count


def test_arena_leaves_a_last_calls_blocks_out():
    arena = _PackedArena()
    keys, widths = np.array([2, 5], dtype=np.uint64), np.array([1, 3])
    assert arena.intern(keys, widths, grow=False).tolist() == [1, 2]
    assert arena.intern(keys, widths).tolist() == [5, 6]  # fresh again
    assert arena.intern(keys, widths).tolist() == [5, 6]
    assert arena.count == 9


def test_arena_raises_when_the_label_space_runs_out(monkeypatch):
    monkeypatch.setattr(nifcheck.traceindex, "_MAX_LABELS", 10)
    arena = _PackedArena()
    arena.intern(np.arange(2, dtype=np.uint64), np.array([3, 1]))
    arena.intern(np.arange(4, dtype=np.uint64), np.array([9, 9, 2, 2]))  # ids 1..8
    with pytest.raises(InputError, match="label space exhausted"):
        arena.intern(np.arange(5, dtype=np.uint64), np.ones(5, dtype=np.int64))
