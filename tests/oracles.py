"""Slow reference implementations used only to validate the real ones.

Everything here favors the most literal possible transcription of each
definition: plain recursion, explicit pair fixpoints, no interning, no
memoization beyond what is needed to terminate.  Trees are nested tuples
with "e" for the empty tree, matching TreeArena.to_tuple output.
"""

from __future__ import annotations

import random
from typing import Dict, FrozenSet, List, Tuple

from nifcheck import (
    BOUNDED_SECURE,
    CERTIFIED_SECURE,
    INCONCLUSIVE,
    INSECURE,
    AgreementReport,
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
    projection onto the administering domain's actions."""
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
    groups: Dict[Trace, List[Trace]] = {}
    ends = {}
    for t in traces_upto(sig, depth):
        ends[t] = system.initial if not t else step(system, ends[t[:-1]], t[-1])
        proj = tuple(a for a in t if sig.domain_of(a) == policy_domain)
        groups.setdefault(proj, []).append(t)
    best = None
    for members in groups.values():
        pair = select_violation_seq(
            sig, members, [system.edges[ends[t]] for t in members]
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
