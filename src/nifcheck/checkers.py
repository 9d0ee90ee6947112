"""Security checkers producing verdicts with deterministic witnesses.

Every trace-quantified check runs over the bulk engine in ``traceindex`` and
extracts witnesses with the shared selection rule, so reported pairs are
stable across runs and scales.  The state-level certification runs the
engine's unwinding-closure kernel over the reachable states.
"""

from __future__ import annotations

import dataclasses
from typing import Dict, Iterator, List, Mapping, Optional, Tuple

import numpy as np

from .model import (
    InputError,
    PolicyEnhancedSystem,
    State,
    Trace,
    check_depth,
    permits,
    reachable_states,
    step,
    unfold,
)
from .traceindex import (
    MATERIALIZE_LIMIT,
    TraceIndex,
    _chunks,
    _count_ids,
    _gather,
    _pair_keys,
    _sorted_unique,
    unwinding_closure,
)
from .trees import TracePartition
from .verdicts import (
    BOUNDED_SECURE,
    CERTIFIED_SECURE,
    INCONCLUSIVE,
    INSECURE,
    Verdict,
)


# ---------------------------------------------------------------------------
# observation consistency over bulk label arrays


def _offending(key: np.ndarray, values: np.ndarray) -> np.ndarray:
    """Bool table over the ids of ``key``: which groups hold two values.  A
    group offends iff a member differs from the value written for it, which
    does not depend on which member's write won.  Writes and compares go
    chunk by chunk (``_chunks``)."""
    n_ids = int(key.max(initial=-1)) + 1
    rep = np.zeros(n_ids, dtype=values.dtype)
    for start, ids in _chunks(key):
        rep[ids] = values[start : start + len(ids)]
    bad = np.zeros(n_ids, dtype=bool)
    for start, ids in _chunks(key):
        bad[ids[values[start : start + len(ids)] != rep[ids]]] = True
    return bad


def _shares_id(key: np.ndarray, end: int) -> np.ndarray:
    """Which entries of ``key`` have the id of one of its first ``end``."""
    low = np.zeros(int(key.max(initial=-1)) + 1, dtype=bool)
    low[key[:end]] = True
    return _gather(low, key)


def _group_pairs(
    lex_all: np.ndarray, key: np.ndarray, values: np.ndarray, groups: np.ndarray
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Least entry, x and y of every group marked in the bool id table
    ``groups``, each of which must offend, in id order.

    The witness rule of ``trees.select_violation_seq``, as segment minima
    over entry positions, which rise with the node ids (shortlex ranks),
    and the entries' lex ranks ``lex_all``:

    * ``l0``/``v0``: lex rank and value of the group's lex-least member;
    * ``l1``: least lex rank among members whose value is not ``v0``;
    * ``y``: least node whose lex rank exceeds that of the lex-least member
      with another value (``l0`` if its value is not ``v0``, else ``l1``);
    * ``x``: least node with a value other than ``y``'s and a lex rank
      below ``y``'s.
    """
    nodes = np.flatnonzero(_gather(groups, key))  # members, ascending
    ids = np.flatnonzero(groups)
    g = np.searchsorted(ids, key[nodes])  # groups renumbered 0..len(ids)-1
    big = np.iinfo(np.int64).max
    val, lex = values[nodes], lex_all[nodes]

    def seg_min(mask: np.ndarray, of: np.ndarray) -> np.ndarray:
        out = np.full(len(ids), big, dtype=np.int64)
        np.minimum.at(out, g[mask], of[mask])
        return out

    every = np.ones(len(nodes), dtype=bool)
    l0 = seg_min(every, lex)
    at_l0 = lex == l0[g]
    v0 = np.empty(len(ids), dtype=values.dtype)
    v0[g[at_l0]] = val[at_l0]
    differs = val != v0[g]
    l1 = seg_min(differs, lex)
    y = seg_min(np.where(differs, l0[g], l1[g]) < lex, nodes)
    yg = y[g]
    x = seg_min((val != values[yg]) & (lex < lex_all[yg]), nodes)
    return seg_min(every, nodes), x, y


def class_violations(
    idx: TraceIndex,
    key: np.ndarray,
    values: np.ndarray,
) -> np.ndarray:
    """Witness node pair (x, y) of every group whose values are not constant.

    ``key`` groups the nodes ``0..len(key)-1`` by non-negative integer ids,
    such as tree labels, closure roots or node ids; ids need not be
    contiguous, and the per-id tables take memory proportional to the
    largest one.  Within a group ``values`` should be constant.  Returns an
    int64 array of shape [k, 2], one row per offending group in order of the
    group's least node, each pair by the witness rule (``_group_pairs``).
    Verdicts need only the least pair, which ``_grouped_violation`` finds
    without building the others.
    """
    bad = _offending(key, values)
    if not bad.any():
        return np.empty((0, 2), dtype=np.int64)
    first, x, y = _group_pairs(idx.lex_ranks(), key, values, bad)
    order = np.argsort(first)
    return np.stack([x[order], y[order]], axis=1)


def _grouped_violation(
    idx: TraceIndex,
    key: np.ndarray,
    values: np.ndarray,
    bound: Optional[int] = None,
    nodes: Optional[np.ndarray] = None,
) -> Optional[Tuple[int, int]]:
    """The rule-minimal pair (x, y) of ``class_violations`` with y at most
    ``bound``: least y, then least x; groups are disjoint, so y is distinct.
    Given ``nodes``, ascending node ids, ``key`` and ``values`` hold only
    those nodes' entries.  Each group must lie wholly inside or wholly
    outside them, and every offending group with a member at or below
    ``bound`` (with no bound, every offending group) inside; a group that
    does not offend may be left out, as locality's masks leave out most.

    A group's y is one of its members, so only a group with a member at or
    below the best y so far can win.  With a bound, the steps below read
    only the groups with a member at or below it, found by one gather of a
    mark over the ids; the groups of the other nodes are never read.  The
    group of the least node of any offending group gives a first y, and the
    witness steps then run only on the offending groups with a member at or
    below it and ``bound``."""
    end = len(key)  # entries [0, end) are the nodes at or below the bound
    if bound is not None:
        end = min(bound + 1, end) if nodes is None else int(np.searchsorted(nodes, bound, "right"))
        if end <= 0:
            return None
        # the entries at or below the bound stay first, so ``end`` holds
        sub = np.flatnonzero(_shares_id(key, end))
        key, values = key[sub], values[sub]
        nodes = sub if nodes is None else nodes[sub]
    bad = _offending(key, values)
    hit = _gather(bad, key[:end])
    if not hit.any():
        return None
    lex_all = idx.lex_ranks() if nodes is None else idx.lex_ranks()[nodes]
    first = np.zeros_like(bad)
    first[key[np.argmax(hit)]] = True
    end = min(end, int(_group_pairs(lex_all, key, values, first)[2][0]) + 1)
    cand = np.zeros_like(bad)
    cand[key[:end][hit[:end]]] = True
    _, x, y = _group_pairs(lex_all, key, values, cand)
    i = int(np.argmin(y))
    if y[i] >= end:
        return None
    if nodes is not None:
        x, y = nodes[x], nodes[y]
    return int(x[i]), int(y[i])


def _least_violation(
    idx: TraceIndex,
    labels: np.ndarray,
    start: Optional[int] = None,
) -> Optional[Tuple[int, int, int]]:
    """The least (y, x, domain index) over all domains whose labels agree on
    nodes x and y but whose observations differ at their end states, run
    from state id ``start`` (the initial state by default).
    Each domain searches only for pairs with y at most the best y so far;
    the bound is inclusive, so a tie on y still goes to the least x."""
    best = None
    for ui in range(idx.n_domains):
        bound = None if best is None else best[0]
        pair = _grouped_violation(idx, labels[ui], idx.at_nodes(idx.obs_ids[ui], start), bound)
        if pair is not None and (best is None or (pair[1], pair[0], ui) < best):
            best = (pair[1], pair[0], ui)
    return best


def _bounded(
    name: str,
    depth: int,
    witness: Optional[tuple] = None,
    notes: Tuple[str, ...] = (),
    details: Optional[Mapping] = None,
) -> Verdict:
    """The verdict of a bounded check: ``INSECURE`` with ``witness`` when
    one is given, ``BOUNDED_SECURE`` otherwise."""
    outcome = BOUNDED_SECURE if witness is None else INSECURE
    return Verdict(name, outcome, witness, depth, notes, dict(details or {}))


def _observation_consistency(
    idx: TraceIndex,
    labels: np.ndarray,
    property_name: str,
    notes: Tuple[str, ...] = (),
    details: Optional[Mapping] = None,
) -> Verdict:
    """Equal labels must yield equal observations, per domain."""
    best = _least_violation(idx, labels)
    witness = None
    if best is not None:
        y, x, ui = best
        witness = (idx.trace_of(x), idx.trace_of(y), idx.signature.domains[ui])
    return _bounded(property_name, idx.depth, witness, notes, details)


def strip_inactive_edges(
    system: PolicyEnhancedSystem,
) -> Tuple[PolicyEnhancedSystem, Tuple[str, ...]]:
    """Drop policy edges whose source domain never acts.

    An edge from a domain with no actions can never transmit anything, so
    removing it changes no security verdict; it does make locality-style
    judgements about that domain vacuous instead of spurious.  Returns the
    system unchanged, and no notes, when no actionless domain carries an
    edge; otherwise one note names those domains in declaration order.
    """
    sig = system.signature
    active = {sig.domain_of(a) for a in sig.actions}
    if active.issuperset(sig.domains):
        return system, ()
    idle = {u for e in system.edges.values() for (u, _v) in e} - active
    if not idle:
        return system, ()
    edges = {s: frozenset(p for p in e if p[0] not in idle) for s, e in system.edges.items()}
    note = "stripped policy edges from inactive domains: " + ", ".join(
        u for u in sig.domains if u in idle
    )
    return dataclasses.replace(system, edges=edges), (note,)


def _stripped_index(
    system: PolicyEnhancedSystem, depth: int
) -> Tuple[TraceIndex, Tuple[str, ...]]:
    """The index every trace check, ``ta_may_partitions`` and
    ``unwinding.unwinding_partition`` run on, with the notes of
    ``strip_inactive_edges``: it is built over ``system`` without the
    edges of actionless domains, and ``idx.system`` is that stripped
    system.  ``access.ac_complete_construct`` builds its own index over the
    edges as given, because they are the alter rights it writes."""
    system, notes = strip_inactive_edges(system)
    return TraceIndex(system, depth), notes


# ---------------------------------------------------------------------------
# trace-quantified checks


def check_ta_may_security(system: PolicyEnhancedSystem, depth: int) -> Verdict:
    """Permissive reading: actions are transmitted whenever the policy edge
    holds at the state where they happen; equal transmission trees must look
    identical to the observer."""
    idx, notes = _stripped_index(system, depth)
    labels = idx.ta_labels()
    return _observation_consistency(idx, labels, "ta-permissive", notes=notes)


def check_unwinding_security(system: PolicyEnhancedSystem, depth: int) -> Verdict:
    """Prohibitive reading via the unwinding closure: traces merged by
    deletion of disallowed actions and joint stepping must look identical."""
    idx, notes = _stripped_index(system, depth)
    roots, counts = idx.unwinding_roots()
    return _observation_consistency(
        idx,
        roots,
        "unwinding",
        notes=notes,
        details={"rule_applications": dict(counts)},
    )


def check_ta_must_security(system: PolicyEnhancedSystem, depth: int) -> Verdict:
    """Prohibitive reading via the transmission trees themselves.

    Labels every trace with its prohibitive tree, where an action reaches the
    observer only if actor and observer jointly know the edge over the
    closure classes, and compares observations across equal trees.  Same
    property as ``check_unwinding_security`` by the coincidence theorem,
    computed along the tree route; keeping both is deliberate.
    """
    idx, notes = _stripped_index(system, depth)
    roots, _ = idx.unwinding_roots()
    known = idx.jointly_known(roots, idx.interior_end)
    del roots  # the labelling needs only the interior rows of the table
    labels = idx.ta_labels(known)
    return _observation_consistency(idx, labels, "ta-prohibitive", notes=notes)


def check_static(system: PolicyEnhancedSystem) -> bool:
    """True iff the policy never changes across reachable states."""
    e0 = system.edges[system.initial]
    return all(system.edges[s] == e0 for s in reachable_states(system))


def check_ta_static_security(system: PolicyEnhancedSystem, depth: int) -> Verdict:
    """Security against the fixed policy read off the initial state.

    For systems whose policy actually changes this is a different property
    from the dynamic readings; a note marks that case.
    """
    idx, notes = _stripped_index(system, depth)
    e0 = idx.edge_bool[idx.start]
    labels = idx.ta_labels(np.broadcast_to(e0, (idx.interior_end,) + e0.shape))
    if not check_static(idx.system):
        notes = notes + (
            "policy is state-dependent; the static reading fixes the initial state's edges",
        )
    return _observation_consistency(idx, labels, "ta-static", notes=notes)


_KNOWN_TO = (None, "sender", "receiver")


def check_locality(
    system: PolicyEnhancedSystem,
    depth: int,
    known_to: Optional[str] = None,
) -> Verdict:
    """Is the policy determined by what the endpoint domains can observe?

    For each ordered pair (u, v), any two traces that u and v jointly cannot
    distinguish must agree on the edge u to v.  ``known_to`` strengthens the
    requirement to one endpoint alone ("sender" = u, "receiver" = v).
    """
    if known_to not in _KNOWN_TO:
        raise InputError(f"known_to must be one of {_KNOWN_TO}")
    idx, notes = _stripped_index(system, depth)
    return _locality_verdict(idx, known_to, notes)


def _locality_verdict(
    idx: TraceIndex, known_to: Optional[str] = None, notes: Tuple[str, ...] = ()
) -> Verdict:
    """``check_locality`` on an index built over the edge-stripped system."""
    labels = idx.ta_labels()
    sig = idx.signature
    n = idx.n_domains
    best = None
    for ui in range(n):
        for vi in range(ui + 1, n):
            atoms = {(a, b): idx.at_nodes(idx.edge_bool[:, a, b]) for a, b in ((ui, vi), (vi, ui))}
            nodes = None
            # one grouping of the joint labels serves both directed edges
            if known_to is None:
                # A joint class lies inside one class of each endpoint, so on
                # the edge a to b it can offend only inside an offending L_a
                # class, where its L_b class must offend too.  The mask is
                # constant on joint classes: grouping its nodes alone finds
                # every offending joint class.  Past the first violation only
                # joint classes with a node at or below the best y can win,
                # and their members' labels at both endpoints occur at or
                # below it, so the mask is taken over those candidates alone.
                if best is None:
                    cand = slice(None)
                else:
                    end = best[0][0] + 1
                    cand = np.flatnonzero(_shares_id(labels[ui], end) & _shares_id(labels[vi], end))
                keep = np.zeros(idx.n_nodes if best is None else len(cand), dtype=bool)
                for (a, b), atom in atoms.items():
                    la, at = labels[a][cand], atom[cand]
                    live = np.flatnonzero(_gather(_offending(la, at), la))
                    lb = labels[b][cand][live]
                    keep[live[_gather(_offending(lb, at[live]), lb)]] = True
                nodes = np.flatnonzero(keep) if best is None else cand[keep]
                ids = _sorted_unique(_pair_keys(labels[ui], labels[vi], nodes))[1]
            for (a, b), atom in atoms.items():
                key = ids if known_to is None else labels[a if known_to == "sender" else b]
                values = atom if nodes is None else atom[nodes]
                pair = _grouped_violation(
                    idx, key, values, None if best is None else best[0][0], nodes
                )
                if pair is None:
                    continue
                # position of (a, b) among the ordered pairs, row by row
                rank = (pair[1], pair[0], a * (n - 1) + b - (b > a))
                if best is None or rank < best[0]:
                    best = (rank, (sig.domains[a], sig.domains[b]))
    name = "locality" if known_to is None else f"locality-{known_to}"
    witness = None
    if best is not None:
        (y, x, _), (u, v) = best
        witness = (idx.trace_of(x), idx.trace_of(y), u, v)
    return _bounded(name, idx.depth, witness, notes)


def check_globally_known(
    system: PolicyEnhancedSystem,
    policy_domain: str,
    depth: int,
) -> Verdict:
    """Is the policy public knowledge administered by one domain?

    Two obligations: the administering domain may always flow to everyone,
    and the policy state is a function of the administering domain's own
    actions.  Holding both makes every locality variant immediate; the
    verdict cross-checks plain locality, and a failed cross-check makes it
    ``INCONCLUSIVE`` with the locality witness in the details.
    """
    check_depth(depth)
    sig = system.signature
    if policy_domain not in sig.domains:
        raise InputError(f"unknown domain {policy_domain!r}")
    for s in reachable_states(system, depth):
        for u in sig.domains:
            if not permits(system, s, policy_domain, u):
                note = "administering domain cannot flow to every domain"
                return _bounded("globally-known", depth, (s, u), (note,))
    # The edge sets and the locality cross-check both read the stripped
    # system: an actionless domain's edges transmit nothing.
    idx, _ = _stripped_index(system, depth)
    # Passing only a domain's own actions to itself labels each trace with
    # its projection onto the administering domain's actions.
    own = np.eye(idx.n_domains, dtype=bool)
    proj = idx.ta_labels(np.broadcast_to(own, (idx.interior_end,) + own.shape))
    # values only need to compare equal: one id per distinct edge set
    edge_sets = idx.at_nodes(idx.edge_set)
    pair = _grouped_violation(idx, proj[sig.domain_index(policy_domain)], edge_sets)
    if pair is not None:
        note = "policy state is not a function of the administering domain's actions"
        witness = (idx.trace_of(pair[0]), idx.trace_of(pair[1]))
        return _bounded("globally-known", depth, witness, (note,))
    cross = _locality_verdict(idx)
    if not cross:
        # Both obligations imply locality, so this is a fault in one of the
        # two checks; neither verdict can be trusted.
        return Verdict(
            property="globally-known",
            outcome=INCONCLUSIVE,
            depth=depth,
            notes=("both obligations hold, but the locality cross-check failed",),
            details={"locality_outcome": cross.outcome, "locality_witness": cross.witness},
        )
    return _bounded("globally-known", depth, notes=("locality cross-check passed",))


def policy_leq(
    tighter: PolicyEnhancedSystem,
    looser: PolicyEnhancedSystem,
    depth: int,
) -> bool:
    """Does the first system permit at most what the second permits, on every
    trace up to the depth?  Edges depend only on the pair of states reached in
    lockstep, so the walk deduplicates on state pairs."""
    check_depth(depth)
    if tighter.signature != looser.signature:
        raise InputError("systems have different signatures")
    sig = tighter.signature
    seen = {(tighter.initial, looser.initial)}
    frontier = [(tighter.initial, looser.initial)]
    d = 0
    while frontier:
        for (s1, s2) in frontier:
            if not tighter.edges[s1] <= looser.edges[s2]:
                return False
        if d == depth:
            break
        nxt = []
        for (s1, s2) in frontier:
            for a in sig.actions:
                pair = (tighter.transitions[(s1, a)], looser.transitions[(s2, a)])
                if pair not in seen:
                    seen.add(pair)
                    nxt.append(pair)
        frontier = nxt
        d += 1
    return True


def restrict_to_local(system: PolicyEnhancedSystem, depth: int) -> PolicyEnhancedSystem:
    """Largest locally-determined weakening of the policy, as a tree system.

    The result has one state per trace up to the depth; an edge (u, v) holds
    at a trace iff the original policy grants it at every trace the pair
    {u, v} jointly cannot distinguish.  Granted edges never exceed the
    original ones, and the result's policy is local by construction.
    """
    idx, _ = _stripped_index(system, depth)
    if idx.n_nodes > MATERIALIZE_LIMIT:
        raise InputError("too many traces to materialize the localized system")
    roots, _ = idx.unwinding_roots()
    sig = idx.signature
    tree = unfold(idx.system, depth)
    known = idx.jointly_known(roots)
    diag = np.arange(idx.n_domains)
    known[:, diag, diag] = False  # reflexive edges are implicit
    granted: Dict[int, set] = {i: set() for i in range(idx.n_nodes)}
    for node, ui, vi in zip(*np.nonzero(known)):
        granted[int(node)].add((sig.domains[ui], sig.domains[vi]))
    # unfold lists its states in shortlex order, which is node order
    edges = {t: frozenset(granted[i]) for i, t in enumerate(tree.states)}
    return dataclasses.replace(tree, edges=edges)


# ---------------------------------------------------------------------------
# purge-style comparison semantics


def _sources(
    system: PolicyEnhancedSystem, trace: Trace, domain: str, state: Optional[State]
) -> List[frozenset]:
    """Sources of every suffix ``trace[i:]`` of the trace run from ``state``
    (the initial state by default).  Sources of the empty trace are the
    observer alone; an action joins the sources of the rest iff its domain
    may flow, at the state where it is taken, to one of them."""
    sig = system.signature
    if domain not in sig.domains:
        raise InputError(f"unknown domain {domain!r}")
    states = [system.initial if state is None else state]
    for a in trace:
        states.append(step(system, states[-1], a))
    out = [frozenset((domain,))]
    for a, s in zip(reversed(trace), reversed(states[:-1])):
        d = sig.domain_of(a)
        rest = out[-1]
        out.append(rest | {d} if any(permits(system, s, d, v) for v in rest) else rest)
    out.reverse()
    return out


def dsrc(
    system: PolicyEnhancedSystem, trace: Trace, domain: str, state: Optional[State] = None
) -> frozenset:
    """Domains whose actions may have influenced the observer over the trace."""
    return _sources(system, tuple(trace), domain, state)[0]


def lpurge(
    system: PolicyEnhancedSystem, trace: Trace, domain: str, state: Optional[State] = None
) -> Trace:
    """Keep an action iff it may flow to some current source; the purge walks
    every state of the original trace, deleted actions included."""
    trace = tuple(trace)
    srcs = _sources(system, trace, domain, state)
    return tuple(a for a, src in zip(trace, srcs) if system.signature.domain_of(a) in src)


def dipurge(
    system: PolicyEnhancedSystem, trace: Trace, domain: str, state: Optional[State] = None
) -> Trace:
    """Keep an action iff its domain is a source; unlike ``lpurge`` the state
    does not advance past deleted actions, so the purged trace is a run of the
    system in its own right."""
    if domain not in system.signature.domains:
        raise InputError(f"unknown domain {domain!r}")
    trace = tuple(trace)
    s = system.initial if state is None else state
    out: List[str] = []
    for i, a in enumerate(trace):
        if system.signature.domain_of(a) in dsrc(system, trace[i:], domain, s):
            out.append(a)
            s = step(system, s, a)
    return tuple(out)


def _purge_nodes(idx: TraceIndex, start: int, advance: bool) -> Iterator[Iterator[np.ndarray]]:
    """Node id of every trace's purge from state id ``start``: one sweep per
    observer, in domain order, each yielding levels 1 to the depth, shape
    [level size].  ``advance`` gives ``lpurge``, whose state walks past
    deleted actions; otherwise ``dipurge``, whose state stays.

    The sweeps share the start's reachable states and packed flow table.
    Each is backward over suffixes: level k holds, for each trace t of
    length k run from each state s within ``depth - k`` steps of ``start``
    (a prefix of ``TraceIndex.reachable``'s order), t's sources as a
    byte-packed bitmask and its purge as a rank within its level plus a
    length.  For ``a.t`` at s, with s' = trans[s, a]: a is kept iff its
    domain may flow at s to a source of t at s', and then joins them; a
    kept a gives ``a.purge(t, s')``, rank ``a * n_actions**len + rank``,
    and a dropped one ``purge(t, s')`` or, without ``advance``,
    ``purge(t, s)``.  A level is built in place from the gathers of the
    last, which goes with every temporary before the yield.  The traces
    from ``start`` itself are the first entries of each level."""
    depth, na = idx.depth, idx.n_actions
    order, dist, succ = idx.reachable(start, depth)
    within = np.searchsorted(dist, np.arange(depth + 1), "right")  # states within j steps
    one = np.packbits(np.eye(idx.n_domains, dtype=bool), axis=1, bitorder="little")
    rows = idx.edge_bool[order[: within[max(depth - 1, 0)]]][:, idx.dom_of]
    flows = np.packbits(rows, axis=2, bitorder="little")[:, :, None]  # [n, na, 1, bytes]
    joins = one[idx.dom_of, None]  # [na, 1, bytes]
    acts = np.arange(na, dtype=np.int32)[:, None]
    power = (na ** np.arange(depth + 1, dtype=np.int64)).astype(np.int32)
    offs = np.asarray(idx.offs, dtype=np.int32)

    def sweep(u: int) -> Iterator[np.ndarray]:
        n = within[depth]
        src = np.broadcast_to(one[u], (n, 1, one.shape[1]))
        rank = np.zeros((n, 1), dtype=np.int32)
        length = np.zeros((n, 1), dtype=np.min_scalar_type(depth))
        for k in range(1, depth + 1):
            n = within[depth - k]
            nxt = succ[:n]
            src = src[nxt]  # [n, na, na**(k-1), bytes]
            kept = (src & flows[:n]).any(axis=3)
            np.bitwise_or(src, joins, out=src, where=kept[..., None])
            r, l = rank[nxt], length[nxt]
            if advance:
                rank, length = r, l
            else:  # a dropped action leaves the purge of t from s itself
                rank = np.repeat(rank[:n, None], na, axis=1)
                length = np.repeat(length[:n, None], na, axis=1)
            grown = power[l]
            grown *= acts
            np.add(r, grown, out=rank, where=kept)
            np.add(l, 1, out=length, where=kept)
            del kept, r, l, grown
            src = src.reshape(n, -1, one.shape[1])
            rank, length = rank.reshape(n, -1), length.reshape(n, -1)
            yield offs[length[0]] + rank[0]

    for u in range(idx.n_domains):
        yield sweep(u)


def check_lpurge_security(system: PolicyEnhancedSystem, depth: int) -> Verdict:
    """Does every trace look like its purged counterpart?

    The witness is the shortlex-first trace (with the first domain in
    declaration order) whose observation differs from its purge's; the purged
    trace rides along in the details.  Each observer purges every trace by
    one suffix sweep from the initial state (``_purge_nodes``), which stops
    at its first level with a violation or past the best level so far."""
    idx, notes = _stripped_index(system, depth)
    best = (depth + 1,)  # then (level, node within it, domain index, purge node)
    for ui, levels in enumerate(_purge_nodes(idx, idx.start, advance=True)):
        obs = idx.at_nodes(idx.obs_ids[ui])
        for l, purged in enumerate(levels, 1):
            bad = obs[purged] != obs[idx.offs[l] : idx.offs[l + 1]]
            if bad.any():
                i = int(np.argmax(bad))
                best = min(best, (l, i, ui, int(purged[i])))
            if l >= best[0]:
                break
    if len(best) == 1:
        return _bounded("purge", depth, notes=notes)
    l, i, ui, purge = best
    witness = (idx.trace_of(idx.offs[l] + i), idx.signature.domains[ui])
    return _bounded("purge", depth, witness, notes, {"purged": idx.trace_of(purge)})


def check_i_security(system: PolicyEnhancedSystem, depth: int) -> Verdict:
    """Purge-based security from every reachable start state.

    Traces with the same source-filtered purge must look identical to the
    observer.  States are tried in discovery order (``TraceIndex.reachable``)
    and the first state with a violating pair wins; within a state the pair
    follows the witness rule.
    Each start sweeps one observer at a time (``_purge_nodes``) into one row
    of purges, searched with the best y so far as bound (``_least_violation``).
    Starts from which ``TraceIndex`` would refuse the depth, since a shorter
    trace ends on a truncated state, are skipped and counted in
    ``details["truncated_starts"]``."""
    idx, stripped = _stripped_index(system, depth)
    notes = stripped + ("quantified over every reachable start state",)
    starts = idx.reachable(idx.start)[0]
    skipped = int(idx.near_frontier[starts].sum())
    details = {"truncated_starts": skipped}
    row = np.zeros(idx.n_nodes, dtype=np.int32)  # the root purges to itself
    for start in starts[~idx.near_frontier[starts]].tolist():
        best = None  # (y, x, domain index, common purge node)
        for ui, levels in enumerate(_purge_nodes(idx, start, advance=False)):
            for l, ids in enumerate(levels, 1):
                row[idx.offs[l] : idx.offs[l + 1]] = ids
            bound = None if best is None else best[0]
            pair = _grouped_violation(idx, row, idx.at_nodes(idx.obs_ids[ui], start), bound)
            if pair is not None and (best is None or (pair[1], pair[0]) < best[:2]):
                best = (pair[1], pair[0], ui, int(row[pair[1]]))
        if best is not None:
            y, x, ui, common = best
            witness = (idx.state_names[start], idx.trace_of(x), idx.trace_of(y))
            return _bounded(
                "intransitive-purge",
                depth,
                witness + (idx.signature.domains[ui],),
                notes,
                {"common_purge": idx.trace_of(common), **details},
            )
    if skipped:
        notes += (
            f"{skipped} of {len(starts)} reachable start states reach the "
            "truncated frontier within the depth and were not checked",
        )
    return Verdict(
        property="intransitive-purge",
        outcome=INCONCLUSIVE if skipped else BOUNDED_SECURE,
        depth=depth,
        details=details,
        notes=notes,
    )


# ---------------------------------------------------------------------------
# finite-state certification


def state_unwinding_check(system: PolicyEnhancedSystem, mode: str = "box") -> Verdict:
    """Sound but incomplete certification directly on the state space.

    Builds per-domain state equivalences closed under the deletion rule and a
    step-consistency rule ("box": joint equivalence suffices; "diamond": the
    policy edge must additionally hold at both states), then demands equal
    observations inside every class.  Success certifies security at every
    depth; failure is inconclusive, not a counterexample.
    """
    if mode not in ("box", "diamond"):
        raise InputError(f"unknown mode {mode!r}")
    tables, stripped = _stripped_index(system, 0)  # depth 0: only the per-state tables
    sig = tables.signature
    order, _, succ = tables.reachable(tables.start)
    n = len(order)
    roots, _ = unwinding_closure(
        n,
        lambda j: succ[:, j],
        tables.edge_bool[order],
        tables.dom_of,
        diamond=mode == "diamond",
    )

    # Each class's root is its first state in discovery order; the witness
    # is the (state, root, domain)-least state that looks different from it.
    obs = tables.obs_ids[:, order]
    differs = np.take_along_axis(obs, roots, axis=1) != obs
    best = min(
        (
            (si, int(roots[ui, si]), ui)
            for ui in range(tables.n_domains)
            for si in np.nonzero(differs[ui])[0][:1].tolist()
        ),
        default=None,
    )
    counts = dict(zip(sig.domains, map(_count_ids, roots)))
    truncated = int(tables.truncated[order].sum())
    name = f"state-unwinding-{mode}"
    details = {
        "class_counts": counts,
        "states_checked": n,
        "truncated_states": truncated,
    }
    if best is not None:
        si, xi, ui = best
        root, state = (tables.state_names[i] for i in order[[xi, si]].tolist())
        return Verdict(
            property=name,
            outcome=INCONCLUSIVE,
            witness=(root, state, sig.domains[ui]),
            notes=stripped
            + (
                "state-level rules are sound but incomplete; "
                "this failure is not a counterexample",
            ),
            details=details,
        )
    if truncated:
        # A truncated state's transitions are synthetic self-loops, so rules
        # that hold there say nothing about the runs past the frontier.
        return Verdict(
            property=name,
            outcome=INCONCLUSIVE,
            notes=stripped
            + (
                f"{truncated} of {n} reachable states are truncated; "
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


# ---------------------------------------------------------------------------
# convenience: materialized partitions for the permissive labels


def label_partitions(idx: TraceIndex, labels: np.ndarray) -> Dict[str, TracePartition]:
    """Per-domain partitions of the index's traces into classes of equal
    labels, ``labels[domain index, node]``, as ``partition_by`` gives them.

    Node ids are shortlex ranks, so a stable argsort lists each class's
    members shortlex, and ordering the classes by least node orders them by
    representative."""
    traces = [idx.trace_of(i) for i in range(idx.n_nodes)]
    out = {}
    for ui, u in enumerate(idx.signature.domains):
        order = np.argsort(labels[ui], kind="stable")
        groups = np.split(order, np.flatnonzero(np.diff(labels[ui][order])) + 1)
        classes: Dict[Trace, Tuple[Trace, ...]] = {}
        for nodes in sorted(groups, key=lambda g: g[0]):
            members = tuple(traces[i] for i in nodes.tolist())
            classes[members[0]] = members
        rep = {t: head for head, group in classes.items() for t in group}
        out[u] = TracePartition(idx.signature, idx.depth, u, rep, classes)
    return out


def ta_may_partitions(
    system: PolicyEnhancedSystem, depth: int
) -> Dict[str, TracePartition]:
    """Permissive-tree partitions per domain, for callers that need classes
    rather than a verdict.  Materializes traces, so bounded by size."""
    idx, _ = _stripped_index(system, depth)
    if idx.n_nodes > MATERIALIZE_LIMIT:
        raise InputError("too many traces to materialize partitions")
    return label_partitions(idx, idx.ta_labels())
