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
from typing import Hashable, Mapping, Optional, Tuple

import numpy as np

from .checkers import _observation_consistency
from .model import InputError, PolicyEnhancedSystem, check_depth, unfold
from .traceindex import MATERIALIZE_LIMIT, TraceIndex, _intern, _pair_keys, _sorted_unique
from .verdicts import CERTIFIED_SECURE, INCONCLUSIVE, Verdict

BASE_CONDITIONS = ("DRM-1", "DRM-2", "DRM-3", "DRM-4", "DRM-5", "DRM-6")
STRONG_FIVE = "DRM-5'"
ALL_CONDITIONS = BASE_CONDITIONS + (STRONG_FIVE,)


@dataclass(frozen=True, eq=False)
class StructuredSystem:
    """A system whose states decompose into named objects.

    The tables are arrays indexed by state in ``base.states`` order, by
    domain in declaration order and by object in ``objects`` order:
    ``contents[o, s]`` is what object o holds at state s (an object array
    ``[n_objects, n_states]``), and ``observe[u, s, o]`` and ``alter[u, s, o]``
    (bool ``[n_domains, n_states, n_objects]``) say whether domain u may read
    or write object o at s.  Every domain owns a distinguished object,
    ``osets[domain]``, which it observes at every state and which holds its
    observe set there, the frozenset of the objects it observes; that
    pairing is what makes the induced indistinguishability relation an
    equivalence.  The constructor checks the shapes and both oset laws over
    every state, once, and keeps read-only views of the tables.
    """

    base: PolicyEnhancedSystem
    objects: Tuple[Hashable, ...]
    osets: Mapping[str, Hashable]
    contents: np.ndarray
    observe: np.ndarray
    alter: np.ndarray

    def __post_init__(self) -> None:
        if len(set(self.objects)) != len(self.objects):
            raise InputError("duplicate object")
        declared = {o: i for i, o in enumerate(self.objects)}
        domains, states = self.base.signature.domains, self.base.states
        for u in domains:
            if u not in self.osets:
                raise InputError(f"domain {u!r} has no oset object")
            if self.osets[u] not in declared:
                raise InputError(f"oset object for {u!r} is not declared")
        n_objects, n = len(self.objects), len(states)
        grid = (len(domains), n, n_objects)
        for name, shape, dtype in (
            ("contents", (n_objects, n), object),
            ("observe", grid, bool),
            ("alter", grid, bool),
        ):
            table = getattr(self, name)
            if not isinstance(table, np.ndarray) or table.shape != shape or table.dtype != dtype:
                raise InputError(
                    f"{name} must be an array of shape {shape} and dtype {np.dtype(dtype)}"
                )
            view = table.view()
            view.flags.writeable = False
            object.__setattr__(self, name, view)
        # Both laws over every (state, domain) pair at once, one row per
        # pair in state-then-domain order; the first failing pair raises.
        at = np.array([declared[self.osets[u]] for u in domains], dtype=np.intp)
        hidden = ~self.observe[np.arange(len(domains)), :, at].T.ravel()
        rows = self.observe.transpose(1, 0, 2).reshape(-1, n_objects)
        wrong = np.zeros(len(rows), dtype=bool)
        if len(rows):
            # each distinct observe row's set is built once, each packed
            # row grouped as one void key
            packed = np.packbits(rows, axis=1)
            _, first, group = _sorted_unique(
                packed.view(np.dtype((np.void, packed.shape[1]))).ravel(), return_index=True
            )
            watched = np.empty(len(first), dtype=object)
            for g, row in enumerate(rows[first]):
                watched[g] = frozenset(self.objects[o] for o in np.flatnonzero(row))
            wrong = self.contents[at].T.ravel() != watched[group]
        bad = np.flatnonzero(hidden | wrong)
        if len(bad):
            si, ui = divmod(int(bad[0]), len(domains))
            s, u = states[si], domains[ui]
            if hidden[bad[0]]:
                raise InputError(f"oset of {u!r} is not observable at {s!r}")
            raise InputError(f"contents of oset({u!r}) at {s!r} do not equal the observe set")


def dynacrel(system: StructuredSystem, domain: str, state_a, state_b) -> bool:
    """States look alike to a domain when every object it can observe holds
    the same value in both.  Because the oset object is observable and holds
    the observe set itself, the relation is symmetric and an equivalence
    even though this definition only reads state_a's observe set.
    """
    domains, states = system.base.signature.domains, system.base.states
    if domain not in domains:
        raise InputError(f"unknown domain {domain!r}")
    try:
        a, b = states.index(state_a), states.index(state_b)
    except ValueError:
        raise InputError("state not covered by the structured tables") from None
    watched = np.flatnonzero(system.observe[domains.index(domain), a])
    return all(system.contents[o, a] == system.contents[o, b] for o in watched)


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


def _first_clash(buckets: np.ndarray, values: np.ndarray) -> Optional[Tuple[int, int]]:
    """Exemplar-first scan over members in scan order: the least member whose
    value differs from its bucket's first member is the minimal offender.
    Returns (exemplar, offender) positions, or None.  Rows of a 2-d
    ``values`` compare whole."""
    _, first, group = _sorted_unique(buckets, return_index=True)
    exemplar = first[group]
    differs = values != values[exemplar]
    if differs.ndim > 1:
        differs = differs.any(axis=1)
    bad = np.flatnonzero(differs)
    return None if not len(bad) else (int(exemplar[bad[0]]), int(bad[0]))


def _view_ids(cont: np.ndarray, seen: np.ndarray) -> np.ndarray:
    """One id per state for what a domain sees there: two states share an id
    exactly when the domain observes the same objects, with the same contents.
    Each state's row of content ids, 0 where unseen, groups as one void key."""
    rows = np.where(seen, cont.T + 1, 0)
    return _sorted_unique(rows.view(np.dtype((np.void, rows[0].nbytes))).ravel())[1]


def _result(name: str, candidates: list, scope: str) -> ConditionResult:
    """A condition fails with the witness of its least-ranked candidate."""
    best = min(candidates, key=lambda c: c[0], default=None)
    return ConditionResult(
        name=name, holds=best is None, witness=None if best is None else best[1], scope=scope
    )


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

    The conditions run on the tables' columns for the reachable states,
    taken in discovery order (``TraceIndex.reachable``) with each object's
    values interned to ids, and each failure reports its least candidate in
    that order (the README states the witness rule).
    """
    check_depth(depth)
    base = system.base
    sig = base.signature
    domains, objects = sig.domains, system.objects
    idx = TraceIndex(base, 0)
    sid, dist, succ = idx.reachable(idx.start)
    order = [idx.state_names[i] for i in sid.tolist()]
    n = len(order)
    cont = np.empty((len(objects), n), dtype=np.int64)
    for oi, row in enumerate(system.contents[:, sid].tolist()):
        cont[oi] = _intern(row)[0]
    observe, alter = system.observe[:, sid], system.alter[:, sid]
    edge = idx.edge_bool[sid]  # edge[s, u, v]: u may flow to v at s
    stepping = np.flatnonzero(~idx.truncated[sid])
    within = np.flatnonzero(dist <= depth)
    keys = [_view_ids(cont, observe[ui]) for ui in range(len(domains))]

    # DRM-1: indistinguishable states must produce the same observation.
    drm1 = []
    for ui, u in enumerate(domains):
        clash = _first_clash(keys[ui], idx.obs_ids[ui, sid])
        if clash is not None:
            si, ti = clash
            drm1.append(((ti, si, ui), (order[si], order[ti], u)))

    # Change scan, one action at a time: which steps rewrite which objects.
    # DRM-3: every change needs the acting domain's alter right.
    # DRM-2: a domain that may write an object, and cannot distinguish two
    # states where the object agrees, must write the same value in both.
    # Only buckets holding an actual change can disagree, so DRM-2 scans just
    # the objects some step of the action changes under that right.
    # DRM-4: objects becoming newly observable must already be observable
    # by the acting domain, otherwise the grant itself leaks.
    drm2, drm3, drm4 = [], [], []
    m = len(stepping)
    for ai, a in enumerate(sig.actions):
        di = int(idx.dom_of[ai])
        nxt = succ[stepping, ai]
        changed = cont[:, nxt] != cont[:, stepping]
        may = alter[di][stepping].T
        hit = np.flatnonzero((changed & ~may).T)
        if len(hit):
            j, oi = divmod(int(hit[0]), len(objects))
            s = int(stepping[j])
            drm3.append(((s, ai, oi), (order[s], a, objects[oi])))
        for oi in np.flatnonzero((changed & may).any(axis=1)).tolist():
            writers = stepping[alter[di][stepping, oi]]
            clash = _first_clash(
                _pair_keys(keys[di], cont[oi], writers), cont[oi, succ[writers, ai]]
            )
            if clash is not None:
                si, ti = (int(writers[k]) for k in clash)
                drm2.append(((ti, si, ai, oi), (order[si], order[ti], a, objects[oi])))
        leak = observe[:, nxt] & ~observe[:, stepping] & ~observe[di][stepping]
        hit = np.flatnonzero(leak.transpose(1, 0, 2))
        if len(hit):
            j, ui, oi = np.unravel_index(int(hit[0]), (m, len(domains), len(objects)))
            s = int(stepping[j])
            drm4.append(((s, ai, int(ui), int(oi)), (order[s], a, domains[ui], objects[oi])))

    # DRM-5: while a flow from v to u is permitted, the channel width (what
    # u can see of what v can write) must look the same to any jointly
    # indistinguishable pair of states carrying that flow.  DRM-5' asks the
    # same unconditionally, over every reachable pair.  DRM-6 reads the same
    # overlap with the roles swapped: if v can write something u can see,
    # the policy must let v flow to u.
    drm5, strong, drm6 = [], [], []
    for ui, u in enumerate(domains):
        for vi, v in enumerate(domains):
            width = observe[ui] & alter[vi]
            joint = _pair_keys(keys[ui], keys[vi])
            carrying = within[edge[within, vi, ui]]
            clash = _first_clash(joint[carrying], width[carrying])
            if clash is not None:
                si, ti = (int(carrying[k]) for k in clash)
                drm5.append(((ti, si, ui, vi), (order[si], order[ti], u, v)))
            clash = _first_clash(joint, width)
            if clash is not None:
                si, ti = clash
                strong.append(((ti, si, ui, vi), (order[si], order[ti], u, v)))
            hit = within[width[within].any(axis=1) & ~edge[within, vi, ui]]
            if len(hit):
                s = int(hit[0])
                drm6.append(((s, vi, ui), (order[s], v, u)))

    results = (
        _result("DRM-1", drm1, "all reachable states, every domain"),
        _result(
            "DRM-2",
            drm2,
            "reachable states with genuine successors, every action and alterable object",
        ),
        _result(
            "DRM-3", drm3, "reachable states with genuine successors, every action and object"
        ),
        _result(
            "DRM-4",
            drm4,
            "reachable states with genuine successors, every action, domain, and object",
        ),
        _result(
            "DRM-5",
            drm5,
            f"states reachable within depth {depth} carrying the flow edge, every ordered domain pair",
        ),
        _result(STRONG_FIVE, strong, "all reachable states, every ordered domain pair"),
        _result("DRM-6", drm6, f"states reachable within depth {depth}, every ordered domain pair"),
    )
    return DrmReport(conditions=results, depth=depth, strong_five=strong_five)


def derive_security_from_drm(report: DrmReport) -> Verdict:
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
    sig = system.signature
    n_dom, n = len(sig.domains), idx.n_nodes
    objects = tuple(sig.domains) + tuple(("oset", u) for u in sig.domains)
    contents = np.empty((2 * n_dom, n), dtype=object)
    observe = np.zeros((n_dom, n, 2 * n_dom), dtype=bool)
    for ui in range(n_dom):
        contents[ui] = labels[ui]
        contents[n_dom + ui].fill(frozenset({objects[ui], objects[n_dom + ui]}))
        observe[ui, :, [ui, n_dom + ui]] = True
    alter = np.zeros_like(observe)
    alter[:, :, :n_dom] = idx.at_nodes(idx.edge_bool).transpose(1, 0, 2)
    return StructuredSystem(
        base=unfold(system, depth),
        objects=objects,
        osets=dict(zip(sig.domains, objects[n_dom:])),
        contents=contents,
        observe=observe,
        alter=alter,
    )
