"""Slow reference implementations used only to validate the real ones.

Everything here favors the most literal possible transcription of each
definition: plain recursion, explicit pair fixpoints, no interning, no
memoization beyond what is needed to terminate.  Trees are nested tuples
with "e" for the empty tree, matching TreeArena.to_tuple output.
"""

from __future__ import annotations

import random
from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, replace
from typing import Callable, Dict, FrozenSet, Hashable, List, Optional, Tuple

import numpy as np

from nifcheck import (
    BOUNDED_SECURE,
    CERTIFIED_SECURE,
    INCONCLUSIVE,
    INSECURE,
    AgreementReport,
    DenseTransitions,
    InputError,
    PolicyEnhancedSystem,
    Signature,
    TreeArena,
    check_f_security,
    partition_by,
    permits,
    reachable_states,
    run,
    select_violation,
    shortlex_key,
    step,
    strip_inactive_edges,
    ta_must_labels,
    traces_upto,
    unwinding_partition,
    Verdict,
)
from nifcheck import checkers
from nifcheck.capability import (
    MINUS,
    PLUS,
    CapabilityConfig,
    CapabilityState,
    CapAction,
    _default_obs,
    associated_policy,
)
from nifcheck.access import STRONG_FIVE, ConditionResult, DrmReport, StructuredSystem
from nifcheck import traceindex
from nifcheck.traceindex import _insert_sorted, _sorted_unique
from nifcheck.trees import select_violation_seq

Trace = Tuple[str, ...]
LEAF = "e"


# ---------------------------------------------------------------------------
# transmission trees


def naive_ta_static(system, static_edges, trace: Trace, domain: str):
    if not trace:
        return LEAF
    head, a = trace[:-1], trace[-1]
    d = system.signature.domain_of(a)
    mine = naive_ta_static(system, static_edges, head, domain)
    if d == domain or (d, domain) in static_edges:
        return (mine, naive_ta_static(system, static_edges, head, d), a)
    return mine


def naive_ta_may(system, trace: Trace, domain: str):
    if not trace:
        return LEAF
    head, a = trace[:-1], trace[-1]
    d = system.signature.domain_of(a)
    mine = naive_ta_may(system, head, domain)
    if permits(system, run(system, head), d, domain):
        return (mine, naive_ta_may(system, head, d), a)
    return mine


# ---------------------------------------------------------------------------
# unwinding closure by explicit pair fixpoint


class _Union:
    def __init__(self, items):
        self.parent = {x: x for x in items}

    def find(self, x):
        while self.parent[x] != x:
            self.parent[x] = self.parent[self.parent[x]]
            x = self.parent[x]
        return x

    def union(self, a, b) -> bool:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return False
        self.parent[rb] = ra
        return True


def naive_closure(system, depth: int) -> Dict[str, Dict[Trace, Trace]]:
    """Least per-domain equivalences closed under deletion and joint stepping.

    Returns, per domain, a map from each trace to a canonical class member.
    """
    sig = system.signature
    traces = list(traces_upto(sig, depth))
    uf = {u: _Union(traces) for u in sig.domains}

    changed = True
    while changed:
        changed = False
        for u in sig.domains:
            for t in traces:
                if len(t) >= depth:
                    continue
                s = run(system, t)
                for a in sig.actions:
                    if not permits(system, s, sig.domain_of(a), u):
                        changed |= uf[u].union(t, t + (a,))
        for u in sig.domains:
            for x in traces:
                if len(x) >= depth:
                    continue
                for y in traces:
                    if len(y) >= depth:
                        continue
                    for a in sig.actions:
                        d = sig.domain_of(a)
                        if uf[u].find(x) == uf[u].find(y) and uf[d].find(x) == uf[d].find(y):
                            changed |= uf[u].union(x + (a,), y + (a,))
    return {u: {t: uf[u].find(t) for t in traces} for u in sig.domains}


def roots_by_hops(parent: np.ndarray) -> np.ndarray:
    """Each node's root in a forest whose links point to smaller ids."""
    while True:
        hop = parent[parent]
        if np.array_equal(hop, parent):
            return hop
        parent = hop


def full_sweep_closure(
    n_nodes: int,
    child: Callable[[int], np.ndarray],
    allowed: np.ndarray,
    dom_of: np.ndarray,
    diamond: bool = False,
) -> Tuple[np.ndarray, Dict[str, int]]:
    """The unwinding closure on the nodes ``0..n_nodes-1`` by full sweeps,
    where the first ``m = len(allowed)`` nodes step to ``child(j)`` and the
    rest never step: every sweep compresses all nodes and regroups every
    stepping node on its (root_u, root_d) key for each (u, d), until one
    fires no rule.  ``traceindex.unwinding_closure`` on a state graph (no
    frontier) and ``TraceIndex.unwinding_roots`` on the whole trace tree,
    leaves included, must give bit-identical roots.

    Returns (roots[n_domains, n_nodes], counts): "dlr" deletion pairs,
    "wsc" every child whose root differed from its group's least, summed
    over the sweeps, and "sweeps" the full sweeps."""
    n_domains = allowed.shape[1]
    m = len(allowed)
    parents = np.tile(np.arange(n_nodes, dtype=np.int64), (n_domains, 1))
    counts = {"dlr": 0, "wsc": 0, "sweeps": 0}
    if m == 0 or len(dom_of) == 0:
        return parents, counts
    counts["dlr"] = m * len(dom_of) * n_domains - int(allowed.sum(axis=0)[dom_of].sum())

    # Deletion is a plain union of (node, successor) pairs, repeated until
    # they agree, since a target hooked twice keeps only its least link.
    # On the trace tree every successor is hooked once, so the second round
    # only confirms the first.
    hooked = True
    while hooked:
        hooked = False
        for j, d in enumerate(dom_of):
            succ = child(j)
            for u in range(n_domains):
                at = np.nonzero(~allowed[:, d, u])[0]
                ra, rb = parents[u][at], parents[u][succ[at]]
                differ = ra != rb
                if differ.any():
                    hooked = True
                    lo, hi = np.minimum(ra, rb)[differ], np.maximum(ra, rb)[differ]
                    np.minimum.at(parents[u], hi, lo)
        for u in range(n_domains):
            parents[u] = roots_by_hops(parents[u])

    actions_by_domain: Dict[int, List[int]] = {}
    for j, d in enumerate(dom_of.tolist()):
        actions_by_domain.setdefault(d, []).append(j)
    while True:
        counts["sweeps"] += 1
        for u in range(n_domains):
            parents[u] = roots_by_hops(parents[u])
        changed = 0
        for u in range(n_domains):
            for d, action_list in actions_by_domain.items():
                at = np.nonzero(allowed[:, d, u])[0] if diamond else slice(0, m)
                ru = parents[u][at].astype(np.uint64)
                rd = parents[d][at].astype(np.uint64)
                key = (ru << np.uint64(32)) | rd
                uniq, ginv = _sorted_unique(key)
                if len(uniq) == len(key):
                    continue  # all joint classes are singletons
                for j in action_list:
                    croots = parents[u][child(j)[at]]
                    gmin = np.full(len(uniq), n_nodes, dtype=np.int64)
                    np.minimum.at(gmin, ginv, croots)
                    tgt = gmin[ginv]
                    mask = croots != tgt
                    hits = int(mask.sum())
                    if hits:
                        np.minimum.at(parents[u], croots[mask], tgt[mask])
                        changed += hits
                        counts["wsc"] += hits
        if changed == 0:
            # nothing moved since the sweep's compression: these are roots
            return parents, counts


def naive_ta_must(system, closure, depth: int, trace: Trace, domain: str):
    """Prohibitive tree over a precomputed closure at the same depth."""
    sig = system.signature
    if not trace:
        return LEAF
    head, a = trace[:-1], trace[-1]
    d = sig.domain_of(a)
    mine = naive_ta_must(system, closure, depth, head, domain)
    group_knows = all(
        permits(system, run(system, beta), d, domain)
        for beta in closure[d]
        if closure[d][beta] == closure[d][head]
        and closure[domain][beta] == closure[domain][head]
    )
    if group_knows:
        return (mine, naive_ta_must(system, closure, depth, head, d), a)
    return mine


class WordArena:
    """Interning table keyed by packed (left, right, action) words, one id
    per word: ids are dense, start at 1, and fresh words of one call get
    theirs in ascending word order, under the bulk engine's label limit."""

    def __init__(self) -> None:
        self.keys = np.empty(0, dtype=np.uint64)  # sorted
        self.ids = np.empty(0, dtype=np.int64)
        self.count = 1

    def intern(self, packed: np.ndarray) -> np.ndarray:
        uniq, inverse = _sorted_unique(packed)
        pos = np.searchsorted(self.keys, uniq)
        known = pos < len(self.keys)
        known[known] = self.keys[pos[known]] == uniq[known]
        ids = np.empty(len(uniq), dtype=np.int64)
        ids[known] = self.ids[pos[known]]
        fresh = ~known
        n_fresh = int(fresh.sum())
        ids[fresh] = np.arange(self.count, self.count + n_fresh, dtype=np.int64)
        self.count += n_fresh
        if self.count >= traceindex._MAX_LABELS:
            raise InputError("tree label space exhausted; reduce the depth bound")
        self.keys, self.ids = _insert_sorted(
            self.keys, self.ids, pos[fresh], uniq[fresh], ids[fresh]
        )
        return ids[inverse]


def child_level_ta_labels(idx, allowed=None, by_domain=True):
    """``TraceIndex.ta_labels`` one word per passed child: at each level and
    observer u, every child (p, a) that u is passed packs (L_u(p), L_d(p),
    a) for the actor domain d of a, and one arena call interns them all.

    With ``by_domain`` the word packs a's rank in the alphabet sorted
    stably by domain, so fresh ids rise in (L_u(p), L_d(p), d, a) order and
    must be bit-identical to the kernel's.  Without it the word packs a
    itself, so fresh ids rise in (L_u(p), L_d(p), a) order: a different
    numbering where domains' actions interleave, with the same partitions
    and the same largest id."""
    if allowed is None:
        allowed = idx.edge_bool[idx.states]
    rank = np.arange(idx.n_actions)
    if by_domain:
        rank[np.argsort(idx.dom_of, kind="stable")] = np.arange(idx.n_actions)
    labels = np.zeros((idx.n_domains, idx.n_nodes), dtype=np.int64)
    arena = WordArena()
    for l in range(1, idx.depth + 1):
        s, e = idx.offs[l], idx.offs[l + 1]
        if s == e:
            break
        local = np.arange(e - s)
        pid = idx.offs[l - 1] + local // idx.n_actions
        aidx = local % idx.n_actions
        di = idx.dom_of[aidx]
        for u in range(idx.n_domains):
            passed = allowed[pid, di, u]
            left = labels[u][pid]
            row = left.copy()
            if passed.any():
                right = labels[di[passed], pid[passed]]
                packed = (
                    (left[passed].astype(np.uint64) << np.uint64(37))
                    | (right.astype(np.uint64) << np.uint64(10))
                    | rank[aidx[passed]].astype(np.uint64)
                )
                row[passed] = arena.intern(packed)
            labels[u][s:e] = row
    return labels


# ---------------------------------------------------------------------------
# prohibitive reading over materialized partitions


def python_ta_must_verdict(system, depth: int):
    """``check_ta_must_security`` along the per-trace route: closure
    partitions, prohibitive tree ids per trace, then a class-by-class
    comparison of final observations."""
    system, notes = strip_inactive_edges(system)
    result = unwinding_partition(system, depth)
    labels = ta_must_labels(system, result, arena=TreeArena())
    sig = system.signature
    parts = {u: partition_by(sig, labels[u], depth, domain=u) for u in sig.domains}
    return check_f_security(
        parts, system, depth, mode="final-obs", property_name="ta-prohibitive"
    )


def python_label_verdict(system, depth: int, label_of, property_name: str):
    """An observation-consistency verdict along the per-trace route:
    partitions by ``label_of(trace, domain)``, then a class-by-class
    comparison of final observations."""
    sig = system.signature
    traces = list(traces_upto(sig, depth))
    parts = {
        u: partition_by(sig, {t: label_of(t, u) for t in traces}, depth, domain=u)
        for u in sig.domains
    }
    return check_f_security(parts, system, depth, mode="final-obs", property_name=property_name)


def python_class_violations(idx, key, values) -> List[Tuple[Trace, Trace]]:
    """``checkers.class_violations`` one group at a time: materialize each
    offending group's traces in shortlex order and run the witness rule on
    them.  Returns trace pairs, in order of each group's least node."""
    sig = idx.signature
    groups: Dict[object, List[int]] = {}
    for node, k in enumerate(key.tolist()):
        groups.setdefault(k, []).append(node)
    pairs = []
    for members in sorted(groups.values()):
        traces = [idx.trace_of(n) for n in members]
        pair = select_violation_seq(sig, traces, [values[n] for n in members])
        if pair is not None:
            pairs.append(pair)
    return pairs


def python_locality(system, depth: int, known_to=None) -> Verdict:
    """``checkers.check_locality`` on materialized traces: label every trace
    with its permissive trees (``naive_ta_may``), group each ordered pair's
    traces by both endpoints' labels, or by the one ``known_to`` names, and
    pick each group's pair by the witness rule on the edge atom.  The least
    (y, x, ordered-pair position) is reported."""
    system, notes = strip_inactive_edges(system)
    sig = system.signature
    traces = list(traces_upto(sig, depth))
    label = {(t, u): naive_ta_may(system, t, u) for t in traces for u in sig.domains}
    pairs = [(u, v) for u in sig.domains for v in sig.domains if u != v]
    best = None
    for pos, (u, v) in enumerate(pairs):
        ends = {None: (u, v), "sender": (u,), "receiver": (v,)}[known_to]
        groups: Dict[Hashable, List[Trace]] = {}
        for t in traces:
            groups.setdefault(tuple(label[t, w] for w in ends), []).append(t)
        for members in groups.values():
            atom = [permits(system, run(system, t), u, v) for t in members]
            pair = select_violation_seq(sig, members, atom)
            if pair is None:
                continue
            x, y = pair
            rank = (shortlex_key(sig, y), shortlex_key(sig, x), pos)
            if best is None or rank < best[0]:
                best = (rank, (x, y, u, v))
    name = "locality" if known_to is None else f"locality-{known_to}"
    if best is not None:
        return Verdict(
            property=name, outcome=INSECURE, witness=best[1], depth=depth, notes=notes
        )
    return Verdict(property=name, outcome=BOUNDED_SECURE, depth=depth, notes=notes)


def _mismatches_upto(sig, part, other_label, cutoff: int, domain: str, kind: str):
    found = []
    for members in part.classes():
        mem = [t for t in members if len(t) <= cutoff]
        pair = select_violation(sig, mem, other_label)
        if pair is not None:
            found.append((pair[0], pair[1], domain, kind))
    return found


def python_theorem_mustunwind(system, depth: int, margin: int = 1) -> AgreementReport:
    """``check_theorem_mustunwind`` over materialized trace partitions."""
    if not 0 <= margin < depth:
        raise InputError("margin must satisfy 0 <= margin < depth")
    result = unwinding_partition(system, depth)
    must = ta_must_labels(system, result, arena=TreeArena())
    sig = system.signature
    cut = depth - margin
    interior, boundary = [], []
    class_counts = {}
    for u in sig.domains:
        unw_part = result.partitions[u]
        must_lab = must[u]
        must_part = partition_by(sig, must_lab, depth, domain=u)
        class_counts[u] = (len(unw_part), len(must_part))
        sides = (
            (unw_part, must_lab.__getitem__, "closure-coarser"),
            (must_part, unw_part.find, "trees-coarser"),
        )
        for part, other, kind in sides:
            interior.extend(_mismatches_upto(sig, part, other, cut, u, kind))
            for x, y, dom_name, k in _mismatches_upto(sig, part, other, depth, u, kind):
                if len(x) > cut or len(y) > cut:
                    boundary.append((x, y, dom_name, k))
    return AgreementReport(
        depth=depth,
        margin=margin,
        interior_agrees=not interior,
        interior_mismatches=tuple(interior),
        boundary_mismatches=tuple(boundary),
        class_counts=class_counts,
    )


# ---------------------------------------------------------------------------
# state-level certification and the public-policy check


def python_state_unwinding(system, mode: str = "box") -> Verdict:
    """``state_unwinding_check`` with a dictionary union-find and an
    explicit fixpoint over the reachable states."""
    if mode not in ("box", "diamond"):
        raise InputError(f"unknown mode {mode!r}")
    system, stripped = strip_inactive_edges(system)
    sig = system.signature
    reach = list(reachable_states(system))
    index = {s: i for i, s in enumerate(reach)}
    parent: Dict[str, List[int]] = {u: list(range(len(reach))) for u in sig.domains}

    def find(p: List[int], i: int) -> int:
        root = i
        while p[root] != root:
            root = p[root]
        while p[i] != root:
            p[i], i = root, p[i]
        return root

    def union(p: List[int], i: int, j: int) -> bool:
        ri, rj = find(p, i), find(p, j)
        if ri == rj:
            return False
        if rj < ri:
            ri, rj = rj, ri
        p[rj] = ri
        return True

    for s in reach:
        si = index[s]
        for a in sig.actions:
            d = sig.domain_of(a)
            ti = index[system.transitions[(s, a)]]
            for u in sig.domains:
                if not permits(system, s, d, u):
                    union(parent[u], si, ti)

    changed = True
    while changed:
        changed = False
        for u in sig.domains:
            pu = parent[u]
            for a in sig.actions:
                d = sig.domain_of(a)
                pd = parent[d]
                first: Dict[Tuple[int, int], int] = {}
                for s in reach:
                    si = index[s]
                    if mode == "diamond" and not permits(system, s, d, u):
                        continue
                    key = (find(pu, si), find(pd, si))
                    ti = index[system.transitions[(s, a)]]
                    prev = first.get(key)
                    if prev is None:
                        first[key] = ti
                    elif union(pu, prev, ti):
                        changed = True

    best = None
    for ui, u in enumerate(sig.domains):
        pu = parent[u]
        exemplar: Dict[int, int] = {}
        for s in reach:
            si = index[s]
            root = find(pu, si)
            xi = exemplar.setdefault(root, si)
            if system.obs[(u, reach[xi])] != system.obs[(u, s)]:
                rank = (si, xi, ui)
                if best is None or rank < best[0]:
                    best = (rank, (reach[xi], s, u))
    counts = {u: len({find(parent[u], i) for i in range(len(reach))}) for u in sig.domains}
    truncated = sum(1 for s in reach if s in system.truncated)
    name = f"state-unwinding-{mode}"
    details = {
        "class_counts": counts,
        "states_checked": len(reach),
        "truncated_states": truncated,
    }
    if best is not None:
        return Verdict(
            property=name,
            outcome=INCONCLUSIVE,
            witness=best[1],
            notes=stripped
            + (
                "state-level rules are sound but incomplete; "
                "this failure is not a counterexample",
            ),
            details=details,
        )
    if truncated:
        return Verdict(
            property=name,
            outcome=INCONCLUSIVE,
            notes=stripped
            + (
                f"{truncated} of {len(reach)} reachable states are truncated; "
                "the rules hold, but not on a complete state graph",
            ),
            details=details,
        )
    return Verdict(
        property=name,
        outcome=CERTIFIED_SECURE,
        notes=stripped + ("holds on all reachable states; certifies every trace depth",),
        details=details,
    )


def python_globally_known(system, policy_domain: str, depth: int) -> Verdict:
    """``check_globally_known`` grouping materialized traces by their
    projection onto the administering domain's actions, with the edge sets
    of the system stripped of its actionless domains' edges."""
    sig = system.signature
    if policy_domain not in sig.domains:
        raise InputError(f"unknown domain {policy_domain!r}")
    for s in reachable_states(system, depth):
        for u in sig.domains:
            if not permits(system, s, policy_domain, u):
                return Verdict(
                    property="globally-known",
                    outcome=INSECURE,
                    witness=(s, u),
                    depth=depth,
                    notes=("administering domain cannot flow to every domain",),
                )
    stripped, _ = strip_inactive_edges(system)
    groups: Dict[Trace, List[Trace]] = {}
    ends = {}
    for t in traces_upto(sig, depth):
        ends[t] = system.initial if not t else step(system, ends[t[:-1]], t[-1])
        proj = tuple(a for a in t if sig.domain_of(a) == policy_domain)
        groups.setdefault(proj, []).append(t)
    best = None
    for members in groups.values():
        pair = select_violation_seq(
            sig, members, [stripped.edges[ends[t]] for t in members]
        )
        if pair is None:
            continue
        x, y = pair
        rank = (shortlex_key(sig, y), shortlex_key(sig, x))
        if best is None or rank < best[0]:
            best = (rank, pair)
    if best is not None:
        return Verdict(
            property="globally-known",
            outcome=INSECURE,
            witness=best[1],
            depth=depth,
            notes=(
                "policy state is not a function of the administering domain's actions",
            ),
        )
    cross = checkers.check_locality(system, depth)
    if not cross:
        return Verdict(
            property="globally-known",
            outcome=INCONCLUSIVE,
            depth=depth,
            notes=("both obligations hold, but the locality cross-check failed",),
            details={"locality_outcome": cross.outcome, "locality_witness": cross.witness},
        )
    return Verdict(
        property="globally-known",
        outcome=BOUNDED_SECURE,
        depth=depth,
        notes=("locality cross-check passed",),
    )


# ---------------------------------------------------------------------------
# source sets and purges


def naive_dsrc(system, trace: Trace, domain: str, state=None) -> FrozenSet[str]:
    s = system.initial if state is None else state
    if not trace:
        return frozenset((domain,))
    a, rest = trace[0], trace[1:]
    d = system.signature.domain_of(a)
    inner = naive_dsrc(system, rest, domain, step(system, s, a))
    if any(permits(system, s, d, v) for v in inner):
        return inner | {d}
    return inner


def naive_lpurge(system, trace: Trace, domain: str, state=None) -> Trace:
    out = []
    s = system.initial if state is None else state
    for i, a in enumerate(trace):
        if system.signature.domain_of(a) in naive_dsrc(system, trace[i:], domain, s):
            out.append(a)
        s = step(system, s, a)
    return tuple(out)


def naive_dipurge(system, trace: Trace, domain: str, state=None) -> Trace:
    out = []
    s = system.initial if state is None else state
    rest = tuple(trace)
    while rest:
        a, rest = rest[0], rest[1:]
        if system.signature.domain_of(a) in naive_dsrc(system, (a,) + rest, domain, s):
            out.append(a)
            s = step(system, s, a)
    return tuple(out)


def _source_table(system, domain: str):
    """Memoized source-set recursion for one observer."""
    sig = system.signature
    memo = {}

    def go(suffix: Trace, state) -> frozenset:
        key = (suffix, state)
        got = memo.get(key)
        if got is not None:
            return got
        if not suffix:
            out = frozenset((domain,))
        else:
            a = suffix[0]
            inner = go(suffix[1:], step(system, state, a))
            d = sig.domain_of(a)
            if any(permits(system, state, d, v) for v in inner):
                out = inner | {d}
            else:
                out = inner
        memo[key] = out
        return out

    return go


def _lpurge(system, trace: Trace, domain: str, state, src) -> Trace:
    sig = system.signature
    out: List[str] = []
    suffix = tuple(trace)
    s = state
    while suffix:
        a = suffix[0]
        d = sig.domain_of(a)
        if any(permits(system, s, d, v) for v in src(suffix, s)):
            out.append(a)
        s = step(system, s, a)
        suffix = suffix[1:]
    return tuple(out)


def _dipurge(system, trace: Trace, domain: str, state, src) -> Trace:
    sig = system.signature
    out: List[str] = []
    suffix = tuple(trace)
    s = state
    while suffix:
        a = suffix[0]
        if sig.domain_of(a) in src(suffix, s):
            out.append(a)
            s = step(system, s, a)
        suffix = suffix[1:]
    return tuple(out)


def python_lpurge_security(system, depth: int) -> Verdict:
    """``check_lpurge_security`` purging every enumerated trace one by one."""
    system, notes = strip_inactive_edges(system)
    sig = system.signature
    srcs = {u: _source_table(system, u) for u in sig.domains}
    ends = {}
    for t in traces_upto(sig, depth):
        ends[t] = system.initial if not t else step(system, ends[t[:-1]], t[-1])
        for u in sig.domains:
            purged = _lpurge(system, t, u, system.initial, srcs[u])
            if system.obs[(u, run(system, purged))] != system.obs[(u, ends[t])]:
                return Verdict(
                    property="purge",
                    outcome=INSECURE,
                    witness=(t, u),
                    depth=depth,
                    notes=notes,
                    details={"purged": purged},
                )
    return Verdict(property="purge", outcome=BOUNDED_SECURE, depth=depth, notes=notes)


def python_i_security(system, depth: int) -> Verdict:
    """``check_i_security`` grouping every enumerated trace by its purge,
    start state by start state.  A start from which a trace shorter than
    the depth ends on a truncated state is skipped and counted."""
    system, stripped = strip_inactive_edges(system)
    sig = system.signature
    srcs = {u: _source_table(system, u) for u in sig.domains}
    starts = list(reachable_states(system))
    skipped = {
        start
        for start in starts
        if depth
        and any(run(system, t, start=start) in system.truncated for t in traces_upto(sig, depth - 1))
    }
    truncated = len(skipped)
    for start in starts:
        if start in skipped:
            continue
        ends: Dict[Trace, object] = {}
        groups: Dict[Tuple[str, Trace], List[Trace]] = {}
        for t in traces_upto(sig, depth):
            ends[t] = start if not t else step(system, ends[t[:-1]], t[-1])
            for u in sig.domains:
                purged = _dipurge(system, t, u, start, srcs[u])
                groups.setdefault((u, purged), []).append(t)
        best = None
        for ui, u in enumerate(sig.domains):
            for (gu, purged), members in groups.items():
                if gu != u:
                    continue
                vals = [system.obs[(u, ends[t])] for t in members]
                pair = select_violation_seq(sig, members, vals)
                if pair is None:
                    continue
                x, y = pair
                rank = (shortlex_key(sig, y), shortlex_key(sig, x), ui)
                if best is None or rank < best[0]:
                    best = (rank, (start, x, y, u), purged)
        if best is not None:
            return Verdict(
                property="intransitive-purge",
                outcome=INSECURE,
                witness=best[1],
                depth=depth,
                details={"common_purge": best[2], "truncated_starts": truncated},
                notes=stripped + ("quantified over every reachable start state",),
            )
    notes = stripped + ("quantified over every reachable start state",)
    if truncated:
        return Verdict(
            property="intransitive-purge",
            outcome=INCONCLUSIVE,
            depth=depth,
            details={"truncated_starts": truncated},
            notes=notes
            + (
                f"{truncated} of {len(starts)} reachable start states "
                "reach the truncated frontier within the depth and were not checked",
            ),
        )
    return Verdict(
        property="intransitive-purge",
        outcome=BOUNDED_SECURE,
        depth=depth,
        details={"truncated_starts": 0},
        notes=notes,
    )


def naive_view(system, trace: Trace, domain: str) -> tuple:
    sig = system.signature
    s = system.initial
    out = [("o", system.obs[(domain, s)])]
    for a in trace:
        s = step(system, s, a)
        o = ("o", system.obs[(domain, s)])
        if sig.domain_of(a) == domain:
            out += [("a", a), o]
        elif out[-1] != o:
            out.append(o)
    return tuple(out)


# ---------------------------------------------------------------------------
# dynamic reference-monitor conditions


def _validate_structured(base, objects, osets, contents, observe, alter) -> None:
    """The two oset laws of ``StructuredSystem``'s tables, one state and
    domain at a time over every state of the base, reading array entries."""
    for si, s in enumerate(base.states):
        for ui, u in enumerate(base.signature.domains):
            oi = objects.index(osets[u])
            if not observe[ui, si, oi]:
                raise InputError(f"oset of {u!r} is not observable at {s!r}")
            watched = frozenset(o for k, o in enumerate(objects) if observe[ui, si, k])
            if contents[oi, si] != watched:
                raise InputError(
                    f"contents of oset({u!r}) at {s!r} do not equal the observe set"
                )


class _Tables:
    """Reads of a structured system's arrays by name, one entry at a time:
    an object's value at a state, and a domain's observe or alter set there
    as a frozenset of objects."""

    def __init__(self, system: StructuredSystem) -> None:
        self.system = system
        self.state = {s: i for i, s in enumerate(system.base.states)}
        self.domain = {u: i for i, u in enumerate(system.base.signature.domains)}
        self.object = {o: i for i, o in enumerate(system.objects)}

    def content(self, o, s):
        return self.system.contents[self.object[o], self.state[s]]

    def observe(self, u, s) -> frozenset:
        return objects_in(self.system, self.system.observe[self.domain[u], self.state[s]])

    def alter(self, u, s) -> frozenset:
        return objects_in(self.system, self.system.alter[self.domain[u], self.state[s]])


def objects_in(system: StructuredSystem, row) -> frozenset:
    """The objects a bool row of an observe or alter table marks."""
    return frozenset(o for o, member in zip(system.objects, row) if member)


class _Keys:
    """Interned per-domain state keys: two states get the same key for a
    domain exactly when the domain cannot tell them apart."""

    def __init__(self, tables: _Tables, order) -> None:
        self.by_domain: Dict[str, Dict[Hashable, int]] = {}
        for u in tables.system.base.signature.domains:
            table: Dict[frozenset, int] = {}
            row: Dict[Hashable, int] = {}
            for s in order:
                key = frozenset((o, tables.content(o, s)) for o in tables.observe(u, s))
                row[s] = table.setdefault(key, len(table))
            self.by_domain[u] = row


def _first_bucket_clash(order, bucket_of, value_of):
    """Exemplar-first scan: the first state disagreeing with its bucket's
    first member is the minimal offender, so one pass suffices."""
    seen: Dict[object, tuple] = {}
    for i, s in enumerate(order):
        b = bucket_of(s)
        if b is None:
            continue
        v = value_of(s)
        prior = seen.get(b)
        if prior is None:
            seen[b] = (i, s, v)
        elif prior[2] != v:
            return prior[0], prior[1], i, s
    return None


def python_check_drm(
    system: StructuredSystem,
    depth: int,
    strong_five: bool = False,
) -> DrmReport:
    """The monitor conditions by python scans over named entries, one state
    at a time.

    State-quantified conditions range over all reachable states; conditions
    that take a step exclude the truncated frontier, whose outgoing
    transitions are synthetic; conditions stated over trace pairs reduce to
    their end states and range over states reachable within ``depth``.
    Each result line records the scope it was checked under.
    """
    if depth < 0:
        raise InputError("depth must be nonnegative")
    base = system.base
    sig = base.signature
    dist = reachable_states(base)
    order = list(dist)
    index = {s: i for i, s in enumerate(order)}
    tables = _Tables(system)
    keys = _Keys(tables, order)
    objects = system.objects
    obj_index = {o: i for i, o in enumerate(objects)}
    cont_row = {s: tuple(tables.content(o, s) for o in objects) for s in order}
    stepping = [s for s in order if s not in base.truncated]
    within = [s for s in order if dist[s] <= depth]
    results: List[ConditionResult] = []

    # DRM-1: indistinguishable states must produce the same observation.
    best = None
    for ui, u in enumerate(sig.domains):
        row = keys.by_domain[u]
        clash = _first_bucket_clash(
            order, lambda s, _r=row: _r[s], lambda s, _u=u: base.obs[(_u, s)]
        )
        if clash is not None:
            si, s, ti, t = clash
            cand = ((ti, si, ui), (s, t, u))
            if best is None or cand[0] < best[0]:
                best = cand
    results.append(
        ConditionResult(
            name="DRM-1",
            holds=best is None,
            witness=None if best is None else best[1],
            scope="all reachable states, every domain",
        )
    )

    # Shared change scan: which (state, action) steps rewrite which objects.
    # Most steps change nothing, so rows are compared wholesale first.
    changed: List[Tuple[Hashable, str, Hashable]] = []
    drm3_best = None
    for s in stepping:
        row_s = cont_row[s]
        for ai, a in enumerate(sig.actions):
            t = base.transitions[(s, a)]
            row_t = cont_row[t]
            if row_t == row_s:
                continue
            d = sig.domain_of(a)
            altered = tables.alter(d, s)
            for oi, o in enumerate(objects):
                if row_t[oi] != row_s[oi]:
                    changed.append((s, a, o))
                    if o not in altered:
                        cand = ((index[s], ai, oi), (s, a, o))
                        if drm3_best is None or cand[0] < drm3_best[0]:
                            drm3_best = cand

    # DRM-2: a domain that may write an object, and cannot distinguish two
    # states where the object agrees, must write the same value in both.
    # Only buckets containing an actual change can disagree, so the full
    # per-action pass runs just for the (action, object) pairs seen above.
    drm2_best = None
    affected: Dict[Tuple[str, Hashable], set] = {}
    for s, a, o in changed:
        d = sig.domain_of(a)
        if o in tables.alter(d, s):
            bid = (keys.by_domain[d][s], cont_row[s][obj_index[o]])
            affected.setdefault((a, o), set()).add(bid)
    for (a, o), hot in sorted(
        affected.items(), key=lambda kv: (sig.action_index(kv[0][0]), obj_index[kv[0][1]])
    ):
        d = sig.domain_of(a)
        krow = keys.by_domain[d]
        oi = obj_index[o]

        def bucket_of(s, _k=krow, _o=o, _oi=oi, _d=d, _hot=hot):
            if _o not in tables.alter(_d, s):
                return None
            bid = (_k[s], cont_row[s][_oi])
            return bid if bid in _hot else None

        clash = _first_bucket_clash(
            stepping,
            bucket_of,
            lambda s, _oi=oi, _a=a: cont_row[base.transitions[(s, _a)]][_oi],
        )
        if clash is not None:
            si, s, ti, t = clash
            cand = ((ti, si, sig.action_index(a), oi), (s, t, a, o))
            if drm2_best is None or cand[0] < drm2_best[0]:
                drm2_best = cand
    results.append(
        ConditionResult(
            name="DRM-2",
            holds=drm2_best is None,
            witness=None if drm2_best is None else drm2_best[1],
            scope="reachable states with genuine successors, every action and alterable object",
        )
    )

    results.append(
        ConditionResult(
            name="DRM-3",
            holds=drm3_best is None,
            witness=None if drm3_best is None else drm3_best[1],
            scope="reachable states with genuine successors, every action and object",
        )
    )

    # DRM-4: objects becoming newly observable must already be observable
    # by the acting domain, otherwise the grant itself leaks.
    drm4_best = None
    for s in stepping:
        for ai, a in enumerate(sig.actions):
            t = base.transitions[(s, a)]
            d = sig.domain_of(a)
            for ui, u in enumerate(sig.domains):
                fresh = tables.observe(u, t) - tables.observe(u, s)
                if not fresh:
                    continue
                leak = fresh - tables.observe(d, s)
                if leak:
                    o = min(leak, key=obj_index.__getitem__)
                    cand = ((index[s], ai, ui, obj_index[o]), (s, a, u, o))
                    if drm4_best is None or cand[0] < drm4_best[0]:
                        drm4_best = cand
    results.append(
        ConditionResult(
            name="DRM-4",
            holds=drm4_best is None,
            witness=None if drm4_best is None else drm4_best[1],
            scope="reachable states with genuine successors, every action, domain, and object",
        )
    )

    # DRM-5: while a flow from v to u is permitted, the channel width
    # (what u can see of what v can write) must look the same to any
    # jointly indistinguishable pair of states carrying that flow.
    drm5_best = None
    for ui, u in enumerate(sig.domains):
        for vi, v in enumerate(sig.domains):
            ku = keys.by_domain[u]
            kv = keys.by_domain[v]

            def bucket_of(s, _ku=ku, _kv=kv, _v=v, _u=u):
                if not permits(base, s, _v, _u):
                    return None
                return (_ku[s], _kv[s])

            clash = _first_bucket_clash(
                within,
                bucket_of,
                lambda s, _u=u, _v=v: tables.observe(_u, s) & tables.alter(_v, s),
            )
            if clash is not None:
                si, s, ti, t = clash
                cand = ((ti, si, ui, vi), (s, t, u, v))
                if drm5_best is None or cand[0] < drm5_best[0]:
                    drm5_best = cand
    results.append(
        ConditionResult(
            name="DRM-5",
            holds=drm5_best is None,
            witness=None if drm5_best is None else drm5_best[1],
            scope=f"states reachable within depth {depth} carrying the flow edge, every ordered domain pair",
        )
    )

    # DRM-6: if u can write something v can see, the policy must say so.
    drm6_best = None
    for s in within:
        for ui, u in enumerate(sig.domains):
            for vi, v in enumerate(sig.domains):
                if tables.alter(u, s) & tables.observe(v, s):
                    if not permits(base, s, u, v):
                        cand = ((index[s], ui, vi), (s, u, v))
                        if drm6_best is None or cand[0] < drm6_best[0]:
                            drm6_best = cand
    results.append(
        ConditionResult(
            name="DRM-6",
            holds=drm6_best is None,
            witness=None if drm6_best is None else drm6_best[1],
            scope=f"states reachable within depth {depth}, every ordered domain pair",
        )
    )

    # DRM-5': like DRM-5 but unconditionally, over every reachable pair.
    strong_best = None
    for ui, u in enumerate(sig.domains):
        for vi, v in enumerate(sig.domains):
            ku = keys.by_domain[u]
            kv = keys.by_domain[v]
            clash = _first_bucket_clash(
                order,
                lambda s, _ku=ku, _kv=kv: (_ku[s], _kv[s]),
                lambda s, _u=u, _v=v: tables.observe(_u, s) & tables.alter(_v, s),
            )
            if clash is not None:
                si, s, ti, t = clash
                cand = ((ti, si, ui, vi), (s, t, u, v))
                if strong_best is None or cand[0] < strong_best[0]:
                    strong_best = cand
    results.append(
        ConditionResult(
            name=STRONG_FIVE,
            holds=strong_best is None,
            witness=None if strong_best is None else strong_best[1],
            scope="all reachable states, every ordered domain pair",
        )
    )

    named = {c.name: c for c in results}
    ordered = tuple(named[n] for n in ("DRM-1", "DRM-2", "DRM-3", "DRM-4", "DRM-5", STRONG_FIVE, "DRM-6"))
    return DrmReport(conditions=ordered, depth=depth, strong_five=strong_five)


# ---------------------------------------------------------------------------
# capability systems


def python_cap_step(state: CapabilityState, action: CapAction) -> CapabilityState:
    """One guarded move.  A failed guard leaves the state unchanged.

    Every action is always enabled as a transition; the guards only decide
    whether anything moves.  When nothing moves the input state itself is
    returned, so callers may use identity to detect no-ops.
    """
    p = action.process
    ps = state.of(p)
    kind = action.kind

    if kind == "data":
        message, data = action.update(ps)
        if isinstance(data, _MappingABC):
            data = data.items()
        data = tuple(sorted(data, key=lambda kv: kv[0]))
        if tuple(k for k, _ in data) != tuple(k for k, _ in ps.data):
            raise InputError("data update must preserve the named-object set")
        if message == ps.message and data == ps.data:
            return state
        return state._set(p, replace(ps, message=message, data=data))

    if kind == "add_cap":
        signs, name = action.payload
        gained = {((name, p), x) for x in signs}
        if gained <= ps.caps:
            return state
        return state._set(p, replace(ps, caps=ps.caps | gained))

    if kind == "drop_cap":
        (cap,) = action.payload
        if cap not in ps.caps:
            return state
        return state._set(p, replace(ps, caps=ps.caps - {cap}))

    if kind == "add_tag":
        (tag,) = action.payload
        if (tag, PLUS) not in ps.caps or tag in ps.secrecy:
            return state
        return state._set(p, replace(ps, secrecy=ps.secrecy | {tag}))

    if kind == "remove_tag":
        (tag,) = action.payload
        if (tag, MINUS) not in ps.caps or tag not in ps.secrecy:
            return state
        return state._set(p, replace(ps, secrecy=ps.secrecy - {tag}))

    if kind == "send_message_to":
        (q,) = action.payload
        qs = state.of(q)
        if not ps.secrecy <= qs.secrecy:
            return state
        return state._set(q, replace(qs, inbox=qs.inbox + (ps.message,)))

    if kind == "send_cap":
        cap, q = action.payload
        qs = state.of(q)
        if not ps.secrecy <= qs.secrecy or cap not in ps.caps:
            return state
        if cap in qs.caps:
            return state
        return state._set(q, replace(qs, caps=qs.caps | {cap}))

    raise InputError(f"unknown action kind {kind!r}")


def python_build_pes(config: CapabilityConfig, depth: int) -> PolicyEnhancedSystem:
    """Bounded reachable system with the flow relation as its policy.

    States found at exactly the depth bound are kept but not expanded; their
    outgoing transitions are synthetic self-loops and they are flagged
    truncated so trace-walking checks stop short of them.  One full-state
    step per (state, action): the reference for ``build_pes``.
    """
    if not isinstance(depth, int) or depth < 0:
        raise InputError("depth must be a nonnegative integer")
    actions = config.actions
    sig = Signature(
        domains=config.processes,
        actions=tuple(a.name for a in actions),
        dom={a.name: a.process for a in actions},
    )

    order = [config.initial]
    index = {config.initial: 0}
    dist = [0]
    rows: list = [None]
    at = 0
    while at < len(order):
        if dist[at] >= depth:
            at += 1
            continue
        s = order[at]
        d1 = dist[at] + 1
        row = []
        for act in actions:
            t = python_cap_step(s, act)
            if t is s:
                row.append(at)
                continue
            j = index.get(t)
            if j is None:
                j = len(order)
                index[t] = j
                order.append(t)
                dist.append(d1)
                rows.append(None)
            row.append(j)
        rows[at] = row
        at += 1

    n = len(order)
    table = np.empty((n, len(actions)), dtype=np.int32)
    truncated = []
    for i, row in enumerate(rows):
        if row is None:
            table[i, :] = i
            truncated.append(order[i])
        else:
            table[i, :] = row

    obs = {}
    for p in config.processes:
        fn = None if config.obs is None else config.obs.get(p)
        fn = _default_obs if fn is None else fn
        for s in order:
            obs[(p, s)] = fn(s.of(p))

    return PolicyEnhancedSystem(
        signature=sig,
        states=tuple(order),
        initial=config.initial,
        transitions=DenseTransitions(table, tuple(order), sig.actions),
        obs=obs,
        edges={s: associated_policy(s) for s in order},
        truncated=frozenset(truncated),
    )


# ---------------------------------------------------------------------------
# bounded bisimulation


@dataclass(frozen=True)
class BisimResult:
    """Outcome of a bounded observational-equivalence comparison."""

    agree: bool
    witness: Optional[Tuple[Trace, str]]
    depth: int

    def __bool__(self) -> bool:
        return self.agree


def check_bisimilar(m1, m2, depth: int) -> BisimResult:
    """Do both systems produce identical observations on every trace <= depth?

    Deduplicates on product state pairs: once a pair has been checked, longer
    traces reaching the same pair cannot add new observation differences.
    Witness is the shortlex-first differing trace with the first differing
    domain in declaration order.
    """
    if m1.signature != m2.signature:
        raise InputError("systems have different signatures")
    sig = m1.signature
    seen = {(m1.initial, m2.initial)}
    frontier = [((m1.initial, m2.initial), ())]
    d = 0
    while frontier:
        for ((s1, s2), t) in frontier:
            for u in sig.domains:
                if m1.obs[(u, s1)] != m2.obs[(u, s2)]:
                    return BisimResult(agree=False, witness=(t, u), depth=depth)
        if d == depth:
            break
        nxt = []
        for ((s1, s2), t) in frontier:
            for a in sig.actions:
                pair = (m1.transitions[(s1, a)], m2.transitions[(s2, a)])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append((pair, t + (a,)))
        frontier = nxt
        d += 1
    return BisimResult(agree=True, witness=None, depth=depth)


# ---------------------------------------------------------------------------
# random finite systems


def random_system(
    rng: random.Random,
    max_states: int = 4,
    max_actions: int = 3,
    max_domains: int = 3,
    edge_bias: float = 0.35,
) -> PolicyEnhancedSystem:
    n_domains = rng.randint(1, max_domains)
    n_actions = rng.randint(1, max_actions)
    n_states = rng.randint(1, max_states)
    domains = tuple(f"u{i}" for i in range(n_domains))
    actions = tuple(f"a{i}" for i in range(n_actions))
    dom = {a: rng.choice(domains) for a in actions}
    states = tuple(f"s{i}" for i in range(n_states))
    transitions = {
        (s, a): rng.choice(states) for s in states for a in actions
    }
    obs = {
        (u, s): rng.randint(0, max(1, n_states - 2)) for u in domains for s in states
    }
    edges = {}
    for s in states:
        pairs = set()
        for u in domains:
            for v in domains:
                if u != v and rng.random() < edge_bias:
                    pairs.add((u, v))
        edges[s] = frozenset(pairs)
    return PolicyEnhancedSystem(
        signature=Signature(domains=domains, actions=actions, dom=dom),
        states=states,
        initial=states[0],
        transitions=transitions,
        obs=obs,
        edges=edges,
    )


def random_systems(seed: int, count: int, **kw) -> List[PolicyEnhancedSystem]:
    rng = random.Random(seed)
    return [random_system(rng, **kw) for _ in range(count)]


def shaped_system(
    rng: random.Random,
    n_states: int,
    n_actions: int,
    n_domains: int,
    n_obs: int = 3,
    edge_bias: float = 0.35,
) -> PolicyEnhancedSystem:
    """Random system of an exact shape; actions go to domains round-robin."""
    domains = tuple(f"u{i}" for i in range(n_domains))
    actions = tuple(f"a{i}" for i in range(n_actions))
    dom = {a: domains[i % n_domains] for i, a in enumerate(actions)}
    states = tuple(f"s{i}" for i in range(n_states))
    transitions = {(s, a): rng.choice(states) for s in states for a in actions}
    obs = {(u, s): rng.randrange(n_obs) for u in domains for s in states}
    edges = {
        s: frozenset(
            (u, v) for u in domains for v in domains if u != v and rng.random() < edge_bias
        )
        for s in states
    }
    return PolicyEnhancedSystem(
        signature=Signature(domains=domains, actions=actions, dom=dom),
        states=states,
        initial=states[0],
        transitions=transitions,
        obs=obs,
        edges=edges,
    )
