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
    AgreementReport,
    InputError,
    PolicyEnhancedSystem,
    Signature,
    TreeArena,
    check_f_security,
    partition_by,
    permits,
    run,
    select_violation,
    step,
    strip_inactive_edges,
    ta_must_labels,
    traces_upto,
    unwinding_partition,
)
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


def naive_lpurge(system, trace: Trace, domain: str) -> Trace:
    out = []
    s = system.initial
    for i, a in enumerate(trace):
        if system.signature.domain_of(a) in naive_dsrc(system, trace[i:], domain, s):
            out.append(a)
        s = step(system, s, a)
    return tuple(out)


def naive_dipurge(system, trace: Trace, domain: str) -> Trace:
    out = []
    s = system.initial
    rest = tuple(trace)
    while rest:
        a, rest = rest[0], rest[1:]
        if system.signature.domain_of(a) in naive_dsrc(system, (a,) + rest, domain, s):
            out.append(a)
            s = step(system, s, a)
    return tuple(out)


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
