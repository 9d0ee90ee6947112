"""Object-structured state and the dynamic reference-monitor conditions.

A structured view names the objects a state is made of, what each currently
holds, and which objects every domain may read or write there.  Seven
monitor conditions (DRM-1 to DRM-6 plus the strengthened DRM-5') constrain
how reads, writes, and the policy interact; the first six certify the
permissive security notion outright, and DRM-5' upgrades the certificate to
the prohibitive notion.  The converse direction is also here: any system
that passes the bounded permissive check can be equipped with tables that
satisfy the six conditions on its unfolded form.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Dict, Hashable, List, Mapping, Optional, Tuple

from .model import (
    InputError,
    PolicyEnhancedSystem,
    permits,
    reachable_states,
    unfold,
)
from .traceindex import MATERIALIZE_LIMIT, TraceIndex
from .verdicts import CERTIFIED_SECURE, INCONCLUSIVE, Verdict

BASE_CONDITIONS = ("DRM-1", "DRM-2", "DRM-3", "DRM-4", "DRM-5", "DRM-6")
STRONG_FIVE = "DRM-5'"
ALL_CONDITIONS = BASE_CONDITIONS + (STRONG_FIVE,)


@dataclass(frozen=True)
class StructuredSystem:
    """A system whose states decompose into named objects.

    ``contents`` maps (object, state) to the object's current value,
    ``observe`` and ``alter`` map (domain, state) to the object sets the
    domain may currently read or write.  Every domain owns a distinguished
    object, ``osets[domain]``, which it can always observe and whose
    contents equal its whole observe set; that pairing is what makes the
    induced indistinguishability relation an equivalence.
    """

    base: PolicyEnhancedSystem
    objects: Tuple[Hashable, ...]
    osets: Mapping[str, Hashable]
    contents: Mapping[Tuple[Hashable, Hashable], Hashable]
    observe: Mapping[Tuple[str, Hashable], frozenset]
    alter: Mapping[Tuple[str, Hashable], frozenset]

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise InputError("duplicate object")
        declared = set(self.objects)
        for u in self.base.signature.domains:
            if u not in self.osets:
                raise InputError(f"domain {u!r} has no oset object")
            if self.osets[u] not in declared:
                raise InputError(f"oset object for {u!r} is not declared")


def _validate_structured(system: StructuredSystem, states) -> None:
    """Totality plus the two oset laws, on the states actually examined."""
    declared = set(system.objects)
    for s in states:
        for u in system.base.signature.domains:
            for table, what in ((system.observe, "observe"), (system.alter, "alter")):
                got = table.get((u, s))
                if got is None:
                    raise InputError(f"{what} set missing for ({u!r}, {s!r})")
                if not got <= declared:
                    raise InputError(f"{what}({u!r}, {s!r}) mentions undeclared objects")
            oset = system.osets[u]
            if oset not in system.observe[(u, s)]:
                raise InputError(f"oset of {u!r} is not observable at {s!r}")
            if system.contents.get((oset, s)) != system.observe[(u, s)]:
                raise InputError(
                    f"contents of oset({u!r}) at {s!r} do not equal the observe set"
                )
        for o in system.objects:
            if (o, s) not in system.contents:
                raise InputError(f"contents missing for ({o!r}, {s!r})")


def dynacrel(system: StructuredSystem, domain: str, state_a, state_b) -> bool:
    """States look alike to a domain when every object it can observe holds
    the same value in both.  Because the oset object is observable and holds
    the observe set itself, the relation is symmetric and an equivalence
    even though this definition only reads state_a's observe set.
    """
    if domain not in system.base.signature.domains:
        raise InputError(f"unknown domain {domain!r}")
    try:
        watched = system.observe[(domain, state_a)]
        return all(
            system.contents[(o, state_a)] == system.contents[(o, state_b)]
            for o in watched
        )
    except KeyError as missing:
        raise InputError(f"state not covered by the structured tables: {missing}") from None


@dataclass(frozen=True)
class ConditionResult:
    """One monitor condition: pass/fail, a concrete witness on failure, and
    the quantification range the verdict covers."""

    name: str
    holds: bool
    witness: Optional[tuple]
    scope: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "holds": self.holds,
            "witness": None if self.witness is None else list(self.witness),
            "scope": self.scope,
        }


@dataclass(frozen=True)
class DrmReport:
    """All seven condition outcomes.  ``strong_five`` only selects which
    fifth condition gates ``holds``; both variants are always computed and
    reported, and neither is ever inferred from the other."""

    conditions: Tuple[ConditionResult, ...]
    depth: int
    strong_five: bool

    def condition(self, name: str) -> ConditionResult:
        for c in self.conditions:
            if c.name == name:
                return c
        raise InputError(f"no condition named {name!r}")

    @property
    def holds(self) -> bool:
        needed = set(BASE_CONDITIONS)
        if self.strong_five:
            needed.add(STRONG_FIVE)
        return all(c.holds for c in self.conditions if c.name in needed)

    def to_json(self) -> dict:
        return {
            "depth": self.depth,
            "strong_five": self.strong_five,
            "holds": self.holds,
            "conditions": [c.to_json() for c in self.conditions],
        }


class _Keys:
    """Interned per-domain state keys: two states get the same key for a
    domain exactly when the domain cannot tell them apart."""

    def __init__(self, system: StructuredSystem, order) -> None:
        self.by_domain: Dict[str, Dict[Hashable, int]] = {}
        for u in system.base.signature.domains:
            table: Dict[frozenset, int] = {}
            row: Dict[Hashable, int] = {}
            for s in order:
                key = frozenset(
                    (o, system.contents[(o, s)]) for o in system.observe[(u, s)]
                )
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


def check_drm(
    system: StructuredSystem,
    depth: int,
    strong_five: bool = False,
) -> DrmReport:
    """Evaluate every monitor condition over the reachable part of the base.

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
    _validate_structured(system, order)

    keys = _Keys(system, order)
    objects = system.objects
    obj_index = {o: i for i, o in enumerate(objects)}
    cont_row = {
        s: tuple(system.contents[(o, s)] for o in objects) for s in order
    }
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
            altered = system.alter[(d, s)]
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
        if o in system.alter[(d, s)]:
            bid = (keys.by_domain[d][s], cont_row[s][obj_index[o]])
            affected.setdefault((a, o), set()).add(bid)
    for (a, o), hot in sorted(
        affected.items(), key=lambda kv: (sig.action_index(kv[0][0]), obj_index[kv[0][1]])
    ):
        d = sig.domain_of(a)
        krow = keys.by_domain[d]
        oi = obj_index[o]

        def bucket_of(s, _k=krow, _o=o, _oi=oi, _d=d, _hot=hot):
            if _o not in system.alter[(_d, s)]:
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
                ws = system.observe[(u, s)]
                wt = system.observe[(u, t)]
                if wt is ws:
                    continue
                fresh = wt - ws
                if not fresh:
                    continue
                leak = fresh - system.observe[(d, s)]
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
                lambda s, _u=u, _v=v: system.observe[(_u, s)] & system.alter[(_v, s)],
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
                if system.alter[(u, s)] & system.observe[(v, s)]:
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
                lambda s, _u=u, _v=v: system.observe[(_u, s)] & system.alter[(_v, s)],
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


def derive_security_from_drm(report: DrmReport, system: StructuredSystem) -> Verdict:
    """Turn a condition report into a security certificate.

    The six base conditions certify the permissive notion on all traces;
    DRM-5' additionally certifies the prohibitive notion.  Failing the
    conditions certifies nothing, because they are sufficient rather than
    necessary, so that outcome is reported as inconclusive.
    """
    failed = [c.name for c in report.conditions if not c.holds]
    base_ok = all(report.condition(n).holds for n in BASE_CONDITIONS)
    strong_ok = base_ok and report.condition(STRONG_FIVE).holds
    if base_ok:
        certified = ["ta-permissive"]
        notes = [
            "conditions DRM-1 to DRM-6 hold, so equivalent-looking runs stay equivalent",
            f"state-pair conditions were exhaustive; the flow-dependent ones were checked to depth {report.depth}",
        ]
        if strong_ok:
            certified.append("unwinding")
            notes.append("DRM-5' holds as well, extending the certificate to the prohibitive reading")
        return Verdict(
            property="access-control",
            outcome=CERTIFIED_SECURE,
            depth=report.depth,
            notes=tuple(notes),
            details={"certified": certified, "failed": failed},
        )
    return Verdict(
        property="access-control",
        outcome=INCONCLUSIVE,
        depth=report.depth,
        notes=(
            "the monitor conditions are sufficient for security, not necessary; "
            "their failure does not witness insecurity",
        ),
        details={"certified": [], "failed": failed},
    )


def ac_complete_construct(system: PolicyEnhancedSystem, depth: int) -> StructuredSystem:
    """Equip the bounded unfold with observe/alter tables that satisfy the
    base conditions whenever the system passed the permissive check.

    Objects are the domains themselves plus one oset per domain.  Each
    domain sees only itself and its oset; its own object holds its
    permissive transmission tree at that trace, and it may write exactly
    the domains the policy currently lets it flow to.
    """
    from .checkers import _observation_consistency

    idx = TraceIndex(system, depth)
    if idx.n_nodes > MATERIALIZE_LIMIT:
        raise InputError(
            f"{idx.n_nodes} trace states is too many to materialize access tables for"
        )
    # The permissive check's labels: it strips idle domains' edges, never read here.
    labels = idx.ta_labels()
    if not _observation_consistency(idx, labels, "ta-permissive"):
        warnings.warn(
            "constructing access tables for a system that failed the permissive "
            "check; the monitor conditions will not all hold",
            stacklevel=2,
        )
    tree = unfold(system, depth)
    sig = system.signature
    osets = {u: ("oset", u) for u in sig.domains}
    objects = tuple(sig.domains) + tuple(osets[u] for u in sig.domains)
    watch = {u: frozenset({u, osets[u]}) for u in sig.domains}

    contents: Dict[Tuple[Hashable, Hashable], Hashable] = {}
    observe: Dict[Tuple[str, Hashable], frozenset] = {}
    alter: Dict[Tuple[str, Hashable], frozenset] = {}
    for node, trace in enumerate(tree.states):
        granted = tree.edges.get(trace, frozenset())
        for ui, u in enumerate(sig.domains):
            observe[(u, trace)] = watch[u]
            alter[(u, trace)] = frozenset(
                {u} | {v for (w, v) in granted if w == u}
            )
            contents[(u, trace)] = int(labels[ui][node])
            contents[(osets[u], trace)] = watch[u]
    return StructuredSystem(
        base=tree,
        objects=objects,
        osets=osets,
        contents=contents,
        observe=observe,
        alter=alter,
    )
