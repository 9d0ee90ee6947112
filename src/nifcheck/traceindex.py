"""Bulk labelling over the dense tree of traces.

Every trace up to the depth bound is a node; the node id of a trace is its
shortlex rank, so children are contiguous and parent/action decompose
arithmetically instead of being stored.  Labelling passes (run states,
transmission trees, unwinding closure) sweep level by level over numpy
arrays, which keeps systems with tens of millions of traces inside a
two-minute budget.  One labelling kernel serves the static, permissive and
prohibitive trees; they differ only in the per-node table that says which
actions reach which observer.  A child's tree label is interned from its
parent's labels and its action, so the kernel interns one block of ids per
distinct parent label pair and actor domain, one id per action of the
actor, rather than one word per child.  Brute-force oracles in the test
suite pin the semantics at small scale.

Tree labels and closure roots are int32: labels stay below ``_MAX_LABELS``
and node ids below ``_MAX_NODES``, both 2**27, so a wider type would only
hold zeros.  Keys packed from them are uint64: the arena's label words,
and every key of two ids (``_pair_keys``), such as the closure's signature
keys and joint label pairs.  numpy indexes by an int32 array through a
buffered cast, about twice as slow as by an intp one, so int32 ids are
gathered chunk by chunk: a full-length gather casts ``_CHUNK`` ids at a
time to intp (``_gather``) and never makes a full-length intp copy.

The labelling works one observer at a time within each level, with one
sort and one arena call per observer, so its temporaries hold one
observer's passing parents.

The unwinding closure keeps one signature table per (observer, actor)
block and works one block at a time, so its temporaries hold one block's
nodes; it joins each observer's pairs in runs of at most ``_CHUNK`` and
compresses its forests in place.  Observation ids take the narrowest
unsigned dtype that holds the largest (``np.min_scalar_type``): one byte
per state where no domain has more than 256 observations, so the witness
search's tables over them take one byte per node.

On the trace tree about (|A| - 1)/|A| of the nodes are leaves, which
never step, so the closure's forests, deletion pairs and rounds cover the
interior nodes only.  The deepest interior level is the kernel's frontier:
its children are the leaves, and a frontier node takes part in a block's
lookups only where the actor's edge to the observer fails there.  After
the fixpoint ``unwinding_roots`` gives each leaf its root from its parent's
joint class, one grouping per block and then the leaves in row chunks of
at most ``_CHUNK`` ids, where each frontier node's children are contiguous.

The index keeps end states for the interior nodes only.  Every per-node
read of a per-state table goes through ``TraceIndex.at_nodes``, and the
leaves read theirs through their parents' rows of ``table[trans]``.

``TraceIndex.reachable`` walks the state graph breadth first.  Its
discovery order ranks the witnesses of the state-level checks (state
certification, the monitor conditions and the start states of ``isec``),
and the purge sweep reads the states near its start from it.
"""

from __future__ import annotations

from bisect import bisect_right
from typing import Callable, Dict, Iterable, Iterator, List, Optional, Tuple

import numpy as np

from .model import InputError, PolicyEnhancedSystem, Trace, check_depth

_MAX_NODES = 1 << 27
# A label word of ``ta_labels`` packs two 27-bit labels above the actor row
# k in its low 10 bits; fewer than 1024 actions keep k below 1024.
_MAX_ACTIONS = 1 << 10
_MAX_LABELS = 1 << 27

# Outputs with one python object per trace stop here: the localized system
# of ``restrict_to_local``, the unfolded system of ``ac_complete_construct``
# and the trace partitions of ``ta_may_partitions`` and
# ``unwinding_partition``.  Verdicts run on arrays well past this.
MATERIALIZE_LIMIT = 2_000_000

_NO_KEY = np.uint64(np.iinfo(np.uint64).max)  # above every packed key in use
_CHUNK = 1 << 16  # ids cast to intp at a time by ``_chunks``


def _chunks(ids: np.ndarray) -> Iterator[Tuple[int, np.ndarray]]:
    """(start, ``ids[start:start + len(chunk)]`` as intp) over the 1-d
    ``ids`` in order; intp ids come whole, as one chunk."""
    if ids.dtype == np.intp:
        yield 0, ids
        return
    for start in range(0, len(ids), _CHUNK):
        yield start, ids[start : start + _CHUNK].astype(np.intp)


def _gather(table: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """``table[ids]`` for a 1-d ``table`` and 1-d ``ids``, chunk by chunk.
    Ids that fit one chunk are cast whole, without the loop's overhead."""
    if ids.dtype == np.intp or len(ids) <= _CHUNK:
        return table[ids.astype(np.intp, copy=False)]
    out = np.empty(len(ids), dtype=table.dtype)
    for start, chunk in _chunks(ids):
        out[start : start + len(chunk)] = table[chunk]
    return out


def _count_ids(ids: np.ndarray) -> int:
    """How many distinct values the non-negative ids ``ids`` take: one bool
    mark per id, set ``_CHUNK`` ids at a time (``_chunks``)."""
    marked = np.zeros(int(ids.max(initial=-1)) + 1, dtype=bool)
    for _, chunk in _chunks(ids):
        marked[chunk] = True
    return int(np.count_nonzero(marked))


def _compress(forests: np.ndarray) -> None:
    """Full path compression in place of the forests ``forests``, one per
    row of a C-contiguous 2-d array, by pointer jumping over the columns in
    ascending order, at most ``_CHUNK`` entries at a time.  Links always
    point to strictly smaller ids of their own row, so a chunk's links
    below it already point at roots, and the chunk hops only until its own
    chains end; no full-length copy is made."""
    flat = forests.reshape(-1)
    n_rows, n = forests.shape
    width = max(1, _CHUNK // max(n_rows, 1))
    row_start = np.arange(0, n_rows * n, n, dtype=np.intp)[:, None]
    for start in range(0, n, width):
        part = forests[:, start : start + width]
        while True:
            hop = flat[part + row_start]
            if not (hop != part).any():
                break
            part[:] = hop


def _find(parent: np.ndarray, ids: np.ndarray) -> np.ndarray:
    """Roots of ``ids`` in the 1-d forest ``parent`` by pointer jumping on
    the gathered ids alone.  Each hop points every id at its grandparent,
    so the ids end up pointing at their roots, and a chain through other
    gathered ids halves per hop."""
    up = parent[ids]
    while True:
        top = parent[up]
        if not (up != top).any():
            return up
        parent[ids] = up = top


def _union(parent: np.ndarray, pairs: np.ndarray) -> None:
    """Join the classes of ``pairs[0, i]`` and ``pairs[1, i]`` in the 1-d
    forest ``parent`` for every i, hooking the larger root under the
    smaller.  One ``np.minimum.at`` keeps only the least of the links that
    hit the same root, so the pairs whose link lost are found and linked
    again until none is left."""
    while pairs.shape[1]:
        roots = _find(parent, pairs)
        pairs = roots[:, roots[0] != roots[1]]
        lo, hi = np.minimum(*pairs), np.maximum(*pairs)
        np.minimum.at(parent, hi, lo)
        pairs = pairs[:, parent[hi] != lo]


def _sorted_unique(keys: np.ndarray, return_index: bool = False):
    """The distinct keys of a 1-d array in ascending order, with
    ``return_index`` the position of each one's first occurrence, and each
    key's index into them, in that order.

    Every group-by on a composite key goes through here (packed label
    words, pairs of class ids, packed observe rows viewed as one void key
    each): one stable argsort and an adjacent diff.  So how the package
    deduplicates never depends on which algorithm the installed numpy picks
    for its own unique.  The stable kind (timsort on these keys) stays on
    measurement: it beats the default kind on keys that arrive in long
    ascending runs, loses on random ones, and whole passes got no faster
    without it.  Keys that already are non-negative ids, such as tree
    labels or closure roots, group without a sort
    (``checkers.class_violations``) and count through ``_count_ids``."""
    order = keys.argsort(kind="stable")
    ordered = keys[order]
    head = np.ones(len(ordered), dtype=bool)
    head[1:] = ordered[1:] != ordered[:-1]
    inverse = np.empty(len(keys), dtype=np.intp)
    inverse[order] = head.cumsum() - 1
    if return_index:
        return ordered[head], order[head], inverse
    return ordered[head], inverse


def _pair_keys(high: np.ndarray, low: np.ndarray, at=slice(None)) -> np.ndarray:
    """The uint64 key of each pair of non-negative ids below 2**32,
    ``high[at]`` in the upper 32 bits and ``low[at]`` in the lower, so two
    pairs share a key iff they are equal.  ``at`` is anything that indexes
    a 1-d array; one side is gathered at a time."""
    key = high[at].astype(np.uint64)
    key <<= np.uint64(32)
    key |= low[at].astype(np.uint64)
    return key


def _intern(values: Iterable) -> Tuple[np.ndarray, List]:
    """Ids for python values, numbered in first-seen order, and the
    distinct values in that order: every value the package interns goes
    through here (observations, edge sets, object contents)."""
    ids: Dict[object, int] = {}
    out = np.fromiter((ids.setdefault(v, len(ids)) for v in values), dtype=np.intp)
    return out, list(ids)


def _insert_sorted(
    keys: np.ndarray,
    values: np.ndarray,
    pos: np.ndarray,
    fresh_keys: np.ndarray,
    fresh_values: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """The sorted table ``keys`` (with ``values``) merged with the sorted
    ``fresh_keys``, none of them in it, whose ``searchsorted`` positions
    in ``keys`` are ``pos``.  A fresh key's slot in the merged table is
    its position plus the fresh keys before it, so nothing is re-sorted."""
    at = pos + np.arange(len(fresh_keys))
    old = np.ones(len(keys) + len(fresh_keys), dtype=bool)
    old[at] = False
    merged_keys = np.empty(len(old), dtype=keys.dtype)
    merged_keys[at], merged_keys[old] = fresh_keys, keys
    merged_values = np.empty(len(old), dtype=values.dtype)
    merged_values[at], merged_values[old] = fresh_values, values
    return merged_keys, merged_values


class _PackedArena:
    """Interning table of tree-label blocks, keyed by packed words.

    A block is a run of consecutive ids, and the table holds each block's
    first id.  Ids are dense, start at 1 (0 is the leaf), and are stable
    across levels: the same key always maps to the same block, so label
    equality is structural tree equality.  A call's keys must be
    ascending, distinct and below ``_NO_KEY``, which closes the table so
    that every key's ``searchsorted`` position holds an entry; its fresh
    blocks take their ids in that order, ``widths[i]`` ids for key i.
    With ``grow`` false the fresh blocks get their ids but stay out of the
    table, for a last call after which nothing looks them up.
    """

    def __init__(self) -> None:
        self.keys = np.full(1, _NO_KEY)  # sorted
        self.firsts = np.zeros(1, dtype=np.int32)
        self.count = 1

    def intern(self, keys: np.ndarray, widths: np.ndarray, grow: bool = True) -> np.ndarray:
        pos = self.keys.searchsorted(keys)
        firsts = self.firsts[pos]
        fresh = (self.keys[pos] != keys).nonzero()[0]
        if len(fresh):
            ends = self.count + widths[fresh].cumsum()
            firsts[fresh] = ends - widths[fresh]
            self.count = int(ends[-1])
            if self.count >= _MAX_LABELS:
                raise InputError("tree label space exhausted; reduce the depth bound")
            if grow:
                self.keys, self.firsts = _insert_sorted(
                    self.keys, self.firsts, pos[fresh], keys[fresh], firsts[fresh]
                )
        return firsts


def _actor_rows(dom_of: np.ndarray) -> Tuple[List[int], List[np.ndarray]]:
    """The domains that own actions, ascending (row k is the k-th), and
    each row's actions in alphabet order."""
    doms = sorted(set(dom_of.tolist()))
    return doms, [np.flatnonzero(dom_of == d) for d in doms]


class TraceIndex:
    """Shortlex-ranked enumeration of all traces of length <= depth."""

    def __init__(self, system: PolicyEnhancedSystem, depth: int) -> None:
        check_depth(depth)
        sig = system.signature
        self.system = system
        self.signature = sig
        self.depth = depth
        self.n_actions = len(sig.actions)
        self.n_domains = len(sig.domains)
        if self.n_actions >= _MAX_ACTIONS:
            raise InputError("action alphabet too large for the bulk engine")

        sizes = [1]
        for _ in range(depth if self.n_actions else 0):
            sizes.append(sizes[-1] * self.n_actions)
        while len(sizes) < depth + 1:
            sizes.append(0)
        self.offs: List[int] = [0]
        for sz in sizes:
            self.offs.append(self.offs[-1] + sz)
        self.n_nodes = self.offs[-1]
        if self.n_nodes > _MAX_NODES:
            raise InputError(
                f"{self.n_nodes} traces at depth {depth} exceed the bulk engine limit"
            )

        self.state_names: Tuple = tuple(system.states)
        self.state_ids: Dict = {s: i for i, s in enumerate(self.state_names)}
        n_states = len(self.state_names)

        table = getattr(system.transitions, "table", None)
        if (
            table is not None
            and getattr(system.transitions, "state_order", None) == self.state_names
            and getattr(system.transitions, "actions", None) == sig.actions
        ):
            self.trans = table
        else:
            self.trans = np.empty((n_states, self.n_actions), dtype=np.int32)
            for i, s in enumerate(self.state_names):
                for j, a in enumerate(sig.actions):
                    self.trans[i, j] = self.state_ids[system.transitions[(s, a)]]

        # one id per distinct observation of each domain, in the narrowest
        # unsigned dtype that holds the largest
        obs_ids = np.zeros((self.n_domains, n_states), dtype=np.intp)
        for ui, u in enumerate(sig.domains):
            obs_ids[ui] = _intern(system.obs[(u, s)] for s in self.state_names)[0]
        self.obs_ids = obs_ids.astype(np.min_scalar_type(obs_ids.max(initial=0)))

        # edge_set[s]: the id of s's edge set; one row per distinct edge set,
        # written to all of its states at once
        dom_index = {u: i for i, u in enumerate(sig.domains)}
        ids, sets = _intern(system.edges[s] for s in self.state_names)
        self.edge_set = ids.astype(np.int32)
        rows = np.zeros((len(sets), self.n_domains, self.n_domains), dtype=bool)
        rows[:, np.arange(self.n_domains), np.arange(self.n_domains)] = True
        for r, edges in enumerate(sets):
            for (u, v) in edges:
                rows[r, dom_index[u], dom_index[v]] = True
        self.edge_bool = rows[self.edge_set]

        self.dom_of = np.array(
            [dom_index[sig.domain_of(a)] for a in sig.actions], dtype=np.int32
        )

        # truncated[s]: s's transitions are synthetic self-loops.
        # near_frontier[s]: a trace shorter than the depth, run from s, ends on
        # a truncated state.
        self.truncated = np.zeros(n_states, dtype=bool)
        self.truncated[[self.state_ids[s] for s in system.truncated]] = True
        self.near_frontier = self.truncated & (depth > 0)
        for _ in range(depth - 1 if system.truncated else 0):
            self.near_frontier |= self.near_frontier[self.trans].any(axis=1)
        if self.near_frontier[self.state_ids[system.initial]]:
            raise InputError(
                f"depth {depth} steps past the truncated frontier of the system"
            )
        self.start = self.state_ids[system.initial]
        self.states = self.run_states(self.start)
        self._lex: Optional[np.ndarray] = None

    # ---- id arithmetic ------------------------------------------------

    def level_of(self, node: int) -> int:
        return bisect_right(self.offs, node) - 1

    def trace_of(self, node: int) -> Trace:
        actions = self.signature.actions
        out = []
        l = self.level_of(node)
        while l > 0:
            local = node - self.offs[l]
            out.append(actions[local % self.n_actions])
            node = self.offs[l - 1] + local // self.n_actions
            l -= 1
        out.reverse()
        return tuple(out)

    def run_states(self, start: int) -> np.ndarray:
        """End state id of every interior node's trace, run from state id
        ``start``."""
        states = np.empty(self.interior_end, dtype=np.int32)
        states[:1] = start  # depth 0 has no interior node
        for l in range(1, self.depth):
            s, e = self.offs[l], self.offs[l + 1]
            states[s:e] = self.trans[states[self.offs[l - 1] : s]].ravel()
        return states

    def at_nodes(self, table: np.ndarray, start: Optional[int] = None) -> np.ndarray:
        """``table[s]`` for the end state s of every node's trace, run from
        state id ``start`` (the initial state by default), rows included:
        shape [n_nodes, *table.shape[1:]].  The interior nodes gather
        through their end states; the children of each frontier node take
        its row of ``table[trans]``, which for a 1-byte table is no larger
        than ``trans``."""
        start = self.start if start is None else start
        out = np.empty((self.n_nodes,) + table.shape[1:], dtype=table.dtype)
        if not self.depth:
            out[0] = table[start]
            return out
        inner = self.states if start == self.start else self.run_states(start)
        m, frontier = self.interior_end, self.offs[self.depth - 1]
        # mode "clip" writes into ``out`` directly; "raise" would buffer it
        np.take(table, inner, axis=0, out=out[:m], mode="clip")
        leaves = out[m:].reshape((m - frontier, self.n_actions) + table.shape[1:])
        np.take(table[self.trans], inner[frontier:], axis=0, out=leaves, mode="clip")
        return out

    def reachable(
        self, start: int, depth: Optional[int] = None
    ) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The states reachable from state id ``start``, within ``depth``
        steps if given, in breadth-first discovery order: each state's
        successors in action order, as ``model.reachable_states`` lists
        them.  Returns (order, dist, succ): the state ids in that order,
        their distances from ``start``, and the successor table renumbered
        to positions in ``order``, -1 where a successor lies past ``depth``."""
        seen = np.zeros(len(self.trans), dtype=bool)
        seen[start] = True
        levels = [np.array([start], dtype=np.intp)]
        while len(levels[-1]) and (depth is None or len(levels) <= depth):
            reached = self.trans[levels[-1]].ravel()
            reached = reached[~seen[reached]]
            fresh = reached[np.sort(_sorted_unique(reached, return_index=True)[1])]
            seen[fresh] = True
            levels.append(fresh)
        order = np.concatenate(levels)
        dist = np.repeat(np.arange(len(levels)), [len(level) for level in levels])
        pos = np.full(len(seen), -1, dtype=np.intp)
        pos[order] = np.arange(len(order))
        return order, dist, pos[self.trans[order]]

    @property
    def interior_end(self) -> int:
        """Nodes below this id have length < depth; only they have children."""
        return self.offs[self.depth]

    def lex_ranks(self) -> np.ndarray:
        """Each node's rank in pure lexicographic order (a proper prefix
        before its extensions), built on first use and cached.

        That order is the preorder of the trace tree, so the j-th child of a
        node at level l - 1 ranks 1 + j * offs[depth - l + 1] after its
        parent: offs[k + 1] counts the nodes of a complete subtree of
        height k."""
        if self._lex is None:
            lex = np.zeros(self.n_nodes, dtype=np.int64)
            steps = np.arange(self.n_actions, dtype=np.int64)
            for l in range(1, self.depth + 1):
                s, e = self.offs[l], self.offs[l + 1]
                if s == e:
                    break
                parents = lex[self.offs[l - 1] : s] + 1
                out = lex[s:e].reshape(len(parents), -1)
                np.add(parents[:, None], steps * self.offs[self.depth - l + 1], out=out)
            self._lex = lex
        return self._lex

    # ---- transmission-tree labels --------------------------------------

    def ta_labels(self, allowed: Optional[np.ndarray] = None) -> np.ndarray:
        """Per-domain interned tree labels, shape [n_domains, n_nodes].

        ``allowed[n, d, u]`` says whether an action of domain d taken at
        interior node n is passed to observer u; its shape is
        [interior_end, n_domains, n_domains].  The default reads the policy
        edge at the node's state, which gives the permissive trees; the
        initial state's edges give the static trees and jointly known edges
        (``jointly_known``) the prohibitive ones.  Label equality is
        structural equality of the trees (the single-trace recursions in
        ``trees`` and ``unwinding`` are the reference semantics).

        Where u is passed the action a of domain d at parent p, the child's
        label is the word (L_u(p), L_d(p), a); elsewhere it keeps L_u(p).
        The word depends on the child only through a, and every parent that
        passes d to u passes all of d's actions, so each (level, u, d)
        interns one block per distinct label pair of the passing parents,
        keyed by the word (L_u(p), L_d(p), k) with k the rank of d among the
        domains that own actions.  A block holds one id per action of d, in
        alphabet order, so the child on d's i-th action gets its block's
        first id plus i.

        Each level works one observer at a time: it writes the observer's
        child rows from its parent labels, groups the words of all actor
        rows with one ``_sorted_unique`` call, interns the ascending
        distinct words with one arena call and writes the blocks at most
        ``_CHUNK`` ids at a time.  Fresh ids rise in (L_u(p), L_d(p), k, i)
        order, which is (L_u(p), L_d(p), a) order where each domain's
        actions are contiguous in the alphabet and ascend with the domain.

        The labels are int32: the arena raises ``InputError`` before its
        ids reach ``_MAX_LABELS`` (2**27)."""
        if allowed is None:
            allowed = self.edge_bool[self.states]
        labels = np.zeros((self.n_domains, self.n_nodes), dtype=np.int32)
        arena = _PackedArena()
        doms, acts = _actor_rows(self.dom_of)
        widths = np.array([len(a) for a in acts])
        # int32 steps keep the [parents, actions] blocks int32
        steps = [np.arange(len(a), dtype=np.int32) for a in acts]

        for l in range(1, self.depth + 1):
            p, s, e = self.offs[l - 1], self.offs[l], self.offs[l + 1]
            if s == e:
                break
            parent = labels[:, p:s]  # [u, i]: L_u of the level's i-th parent
            child = labels[:, s:e].reshape(self.n_domains, s - p, self.n_actions)
            passed = allowed[p:s, doms].any(axis=(0, 1))  # [u]: u is passed an action
            for u in range(self.n_domains):
                child[u] = parent[u, :, None]  # what u is not passed keeps its label
                runs = [(k, allowed[p:s, d, u].nonzero()[0]) for k, d in enumerate(doms)]
                runs = [(k, at) for k, at in runs if len(at)]
                if not runs:
                    continue
                # the words (L_u(p), L_d(p), k) of every actor row, one sort
                words = []
                for k, at in runs:
                    word = parent[u, at].astype(np.uint64) << np.uint64(37)
                    word |= parent[doms[k], at].astype(np.uint64) << np.uint64(10)
                    word |= np.uint64(k)
                    words.append(word)
                keys, group = _sorted_unique(np.concatenate(words))
                del words
                # no lookup follows the deepest level's last passed observer
                grow = l < self.depth or bool(passed[u + 1 :].any())
                firsts = arena.intern(keys, widths[(keys & np.uint64(1023)).astype(np.intp)], grow)
                # the [parents, actions] blocks, at most _CHUNK ids at a time
                start = 0
                for k, at in runs:
                    row, start = group[start : start + len(at)], start + len(at)
                    width = max(1, _CHUNK // len(acts[k]))
                    for r in range(0, len(at), width):
                        ids = firsts[row[r : r + width], None] + steps[k]
                        child[u][at[r : r + width, None], acts[k]] = ids
        return labels

    def jointly_known(self, roots: np.ndarray, rows: Optional[int] = None) -> np.ndarray:
        """Edges the actor and observer jointly know at the first ``rows``
        nodes (every node by default), shape [rows, n_domains, n_domains].

        Entry [n, d, u] holds iff the edge d to u holds at the end of every
        trace that d and u both find equivalent to node n under ``roots``
        (per-domain class ids over every node, as ``unwinding_roots``
        returns them).  Each domain knows its own reflexive edge.

        A joint (d, u) class can deny the edge only if its d-class and its
        u-class each hold a node where the edge fails, so only the nodes of
        such classes are grouped on their joint key; every other node knows
        the edge.  The classes are marked per id over the int32 roots and
        gathered through ``_gather``.  Nodes past ``rows`` still count
        toward a class's denial; the verdicts ask for the interior rows
        only, which is all the labelling reads."""
        rows = self.n_nodes if rows is None else rows
        known = np.ones((rows, self.n_domains, self.n_domains), dtype=bool)
        for d in range(self.n_domains):
            for u in range(self.n_domains):
                if d == u:
                    continue
                fails = ~self.at_nodes(self.edge_bool[:, d, u])
                if not fails.any():
                    continue
                held = np.ones(len(fails), dtype=bool)
                for root in (roots[d], roots[u]):
                    marked = np.zeros(self.n_nodes, dtype=bool)
                    marked[root[fails]] = True
                    held &= _gather(marked, root)
                classes, group = _sorted_unique(_pair_keys(roots[d], roots[u], held))
                denied = np.zeros(len(classes), dtype=bool)
                denied[group[fails[held]]] = True
                inside = held[:rows]
                known[:, d, u][inside] = ~denied[group[: np.count_nonzero(inside)]]
        return known

    # ---- unwinding closure ---------------------------------------------

    def unwinding_roots(self) -> Tuple[np.ndarray, Dict[str, int]]:
        """Least per-domain equivalences closed under deletion of disallowed
        actions and joint stepping, as root node ids (the root is always the
        shortlex-least member of its class).

        Returns (roots[n_domains, n_nodes], rule application counts).

        The closure runs over the interior nodes, with the deepest interior
        level as its frontier (``unwinding_closure``); the leaves then get
        their roots from their parents' joint classes.  Take the leaf p·a
        for observer u, a of domain d, and let J be the interior nodes with
        p's (root_u, root_d) key and q the least of them.  Joint stepping
        puts the children of J on a in one u-class.  If some member h of J
        is hidden in (u, d), the edge from d to u failing at h, deletion
        adds h, so the leaf takes p's root.  Otherwise the class reaches
        the interior only through q·a, where q is below the frontier: the
        leaf takes q·a's root, or else q·a itself, the least leaf of a
        class that holds only leaves."""
        m, n_actions = self.interior_end, self.n_actions
        frontier = self.offs[self.depth - 1] if self.depth else 0
        # Shortlex ids number the tree like a heap: the child of node n on
        # action j is n * n_actions + 1 + j.
        first_child = np.arange(frontier, dtype=np.int32) * n_actions + 1
        allowed = self.edge_bool[self.states]
        inner, counts = unwinding_closure(frontier, lambda j: first_child + j, allowed, self.dom_of)
        # depth 0 has one node and no frontier: its root is the 0 it starts with
        roots = np.zeros((self.n_domains, self.n_nodes), dtype=np.int32)
        roots[:, :m] = inner
        doms, _ = _actor_rows(self.dom_of)
        row_of = np.searchsorted(doms, self.dom_of)  # each action's actor row
        steps = np.arange(1, n_actions + 1, dtype=np.int32)
        width = max(1, _CHUNK // max(n_actions, 1))  # frontier nodes per chunk
        for u, ru in enumerate(inner):
            # per frontier node p and actor row: q * n_actions, and whether
            # J has a hidden member
            base = np.empty((m - frontier, len(doms)), dtype=np.int32)
            hidden = np.empty((m - frontier, len(doms)), dtype=bool)
            for k, d in enumerate(doms):
                _, first, group = _sorted_unique(_pair_keys(ru, inner[d]), return_index=True)
                least = first[group]
                marked = np.zeros(m, dtype=bool)
                marked[least[~allowed[:, d, u]]] = True
                base[:, k] = least[frontier:] * n_actions
                hidden[:, k] = marked[least[frontier:]]
            # each frontier node's row of leaves, filled a chunk of rows at
            # a time
            leaves = roots[u, m : m + (m - frontier) * n_actions].reshape(m - frontier, n_actions)
            for r in range(0, m - frontier, width):
                rows = slice(r, r + width)
                out = leaves[rows]
                np.add(base[rows][:, row_of], steps, out=out)  # q·a
                inside = out < m
                out[inside] = ru[out[inside]]
                parent = ru[frontier + r : frontier + r + width, None]
                np.copyto(out, parent, where=hidden[rows][:, row_of])
        return roots, counts


def unwinding_closure(
    n_stepping: int,
    child: Callable[[int], np.ndarray],
    allowed: np.ndarray,
    dom_of: np.ndarray,
    diamond: bool = False,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """Least per-domain equivalences on the nodes ``0..m-1``, with
    ``m = len(allowed)``, closed under the two unwinding rules.

    ``allowed[node, d, u]`` says whether an action of domain d taken at a
    node may reach u.  The nodes below ``n_stepping`` step: ``child(j)`` is
    each one's successor on action j (length ``n_stepping``, ids below m).
    For every action j of domain d:

    * deletion: ``node ~u child(j)[node]`` wherever ``allowed[node, d, u]``
      fails;
    * joint stepping: ``x ~u y`` and ``x ~d y`` give
      ``child(j)[x] ~u child(j)[y]``; with ``diamond`` only nodes where
      ``allowed[node, d, u]`` holds take part.

    The nodes from ``n_stepping`` up are the frontier: their successors lie
    outside the closure and never step.  A frontier node f is *hidden* in
    (u, d) where ``allowed[f, d, u]`` fails; there deletion puts each of
    its successors in f's u-class, so in that block f stands for its own
    successors.  Hence the bridge rule: where a hidden f and a stepping
    node q share their (root_u, root_d) key, f ~u child(j)[q].  That is
    the one way a chain through the outside nodes can join two classes of
    the closure, so the equivalences on ``0..m-1`` are those of the
    closure over all nodes.  In diamond mode a frontier node never takes
    part.  The trace tree (``TraceIndex.unwinding_roots``) closes its
    interior nodes here, with the deepest interior level as the frontier,
    and then fills the leaves; the reachable states
    (``checkers.state_unwinding_check``) have no frontier.

    Links go from the larger id to the smaller, so every class's root is
    its least node.

    Joint stepping runs in rounds over one signature table per block of
    observer u and actor row k (the k-th domain d that owns actions), which
    maps the (root_u, root_d) pair key of a node (``_pair_keys``) to the
    node that first had it.  The stepping nodes and the frontier nodes
    hidden in the block take part.  A round looks up only the nodes whose
    root_u or root_d moved in the last round (every node in the first) and
    pairs each with the node its key maps to, so the cost of a round
    follows what changed.  It works one block at a time, so its
    temporaries hold one block's nodes, and joins one observer's pairs at
    a time on that observer's forest, in runs of at most ``_CHUNK`` pairs;
    so do the deletion pairs.  A key whose roots have since merged is
    stale, but no node can have it again.  The rounds end when no root
    moved.

    Returns (roots[n_domains, m], counts): "dlr" the deletion facts, frontier
    included, "wsc" stepping links made, the pairs that joint stepping and
    the bridge rule found in different classes, "sweeps" rounds and
    "regrouped" the (node, u, d) key lookups of all rounds.  The benchmark
    reads "sweeps" and "wsc" as ``closure_sweeps`` and ``rule_wsc``.

    The roots are int32, as are the forests and the signature tables'
    nodes: ``InputError`` refuses more than ``_MAX_NODES`` (2**27) nodes,
    which also keeps every pair key below 2**59 < ``_NO_KEY``."""
    n_domains = allowed.shape[1]
    m = len(allowed)
    doms, acts = _actor_rows(dom_of)
    if max(n_stepping, m) > _MAX_NODES:
        raise InputError(f"{max(n_stepping, m)} nodes exceed the closure's limit")
    parents = np.empty((n_domains, m), dtype=np.int32)
    for start in range(0, m, _CHUNK):
        end = min(start + _CHUNK, m)
        parents[:, start:end] = np.arange(start, end, dtype=np.int32)
    counts = {"dlr": 0, "wsc": 0, "sweeps": 0, "regrouped": 0}
    if m == 0 or len(dom_of) == 0:
        return parents, counts
    counts["dlr"] = m * len(dom_of) * n_domains - int(allowed.sum(axis=0)[dom_of].sum())
    permitted = allowed[:, doms, :].transpose(2, 1, 0)  # [u, k, node]
    # the nodes each block looks up: the stepping nodes and the frontier
    # nodes hidden there, and with diamond only those where the edge holds
    takes = np.ones(permitted.shape, dtype=bool)
    takes[:, :, n_stepping:] = ~permitted[:, :, n_stepping:]
    if diamond:
        takes &= permitted

    # per actor row, each stepping node's successors on the row's actions,
    # then a row of zeros that frontier nodes read and drop
    after_table = []
    for a in acts:
        steps = np.zeros((n_stepping + 1, len(a)), dtype=np.int32)
        for i, j in enumerate(a):
            steps[:n_stepping, i] = child(j)
        after_table.append(steps)

    def runs(found, pairs_of):
        """The pairs ``pairs_of(taken, after)`` of every (k, nodes) in
        ``found``, in runs of at most ``_CHUNK`` pairs (or one node's pairs),
        where ``taken`` is a slice of the last axis of ``nodes`` and
        ``after[..., i]`` is each taken node's successor on row k's i-th
        action, a frontier node being its own."""
        run, size = [], 0
        for k, nodes in found:
            steps = after_table[k]
            width = max(1, _CHUNK // steps.shape[1])
            for start in range(0, nodes.shape[-1], width):
                taken = nodes[..., start : start + width]
                after = steps[np.minimum(taken, n_stepping)]
                np.copyto(after, taken[..., None], where=(taken >= n_stepping)[..., None])
                pairs = pairs_of(taken, after).reshape(2, -1)
                if run and size + pairs.shape[1] > _CHUNK:
                    yield np.concatenate(run, axis=1)
                    run, size = [], 0
                run.append(pairs)
                size += pairs.shape[1]
        if run:
            yield np.concatenate(run, axis=1)

    # deletion: each stepping node hidden in a block joins its successors
    for u in range(n_domains):
        hidden = ~permitted[u, :, :n_stepping]
        deleted = [(k, np.flatnonzero(row).astype(np.int32)) for k, row in enumerate(hidden)]
        for pairs in runs(
            deleted, lambda x, after: np.stack([np.broadcast_to(x[:, None], after.shape), after])
        ):
            _union(parents[u], pairs)

    old = np.full((n_domains, m), -1, dtype=np.int32)
    # (u, k): sorted keys and their nodes, closed by a key above all others
    tables, empty = {}, (np.full(1, _NO_KEY), np.full(1, m, dtype=np.int32))
    while True:
        _compress(parents)
        moved = parents != old
        if not moved.any():
            break
        old = parents.copy()
        counts["sweeps"] += 1
        for u in range(n_domains):
            found = []
            for k, d in enumerate(doms):
                sel = moved[u] | moved[d]
                sel &= takes[u, k]
                at = np.flatnonzero(sel)
                if not len(at):
                    continue
                counts["regrouped"] += len(at)
                uniq, first, group = _sorted_unique(_pair_keys(old[u], old[d], at), return_index=True)
                keys, reps = tables.get((u, k), empty)
                pos = keys.searchsorted(uniq)
                rep = reps[pos]
                fresh = keys[pos] != uniq
                if fresh.any():
                    # a fresh key's representative is its least node, its
                    # first lookup: the lookups ascend by node
                    rep[fresh] = at[first[fresh]]
                    tables[u, k] = _insert_sorted(keys, reps, pos[fresh], uniq[fresh], rep[fresh])
                rep = rep[group]
                pair = at != rep
                found.append((k, np.stack([at[pair], rep[pair]], dtype=np.int32)))
            # the forests are compressed and the lookups left them alone, so
            # each pair's roots before the joins are its entries in old
            for pairs in runs(found, lambda _, after: after):
                roots = old[u][pairs]
                counts["wsc"] += int(np.count_nonzero(roots[0] != roots[1]))
                _union(parents[u], pairs)
    return parents, counts
