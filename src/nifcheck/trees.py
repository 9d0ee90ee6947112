"""Hash-consed transmission trees, perfect-recall views, and trace partitions.

A transmission tree records, for one observing domain, which actions may have
been passed to it and what the acting domain could have known at each point.
Trees are interned: within one arena, structural equality is id equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Dict, Iterable, List, Mapping, Optional, Tuple

from .model import (
    InputError,
    PolicyEnhancedSystem,
    Signature,
    Trace,
    lex_key,
    permits,
    run,
    shortlex_key,
    step,
)
from .verdicts import BOUNDED_SECURE, INSECURE, Verdict

LEAF = 0


class TreeArena:
    """Append-only interning table for trees.

    Id 0 is the leaf (written ``e``).  Every other id denotes a node
    ``(left, right, action)`` whose children are earlier ids in the same
    arena.  Ids are dense and assigned in creation order, so two structurally
    equal trees built in any order receive the same id.
    """

    __slots__ = ("_nodes", "_index", "_text", "_tuple")

    def __init__(self) -> None:
        self._nodes: List[Optional[Tuple[int, int, str]]] = [None]
        self._index: Dict[Tuple[int, int, str], int] = {}
        self._text: Dict[int, str] = {LEAF: "e"}
        self._tuple: Dict[int, object] = {LEAF: "e"}

    def __len__(self) -> int:
        return len(self._nodes)

    @property
    def leaf(self) -> int:
        return LEAF

    def node(self, left: int, right: int, action: str) -> int:
        if not (0 <= left < len(self._nodes) and 0 <= right < len(self._nodes)):
            raise InputError("child id does not belong to this arena")
        key = (left, right, action)
        found = self._index.get(key)
        if found is not None:
            return found
        ident = len(self._nodes)
        self._nodes.append(key)
        self._index[key] = ident
        return ident

    def is_leaf(self, ident: int) -> bool:
        return ident == LEAF

    def parts(self, ident: int) -> Tuple[int, int, str]:
        node = self._nodes[ident]
        if node is None:
            raise InputError("the leaf has no parts")
        return node

    def text(self, ident: int) -> str:
        """Canonical form: ``e`` or ``(L,R,a)``.  Memoized, so shared subtrees
        cost nothing extra."""
        cached = self._text.get(ident)
        if cached is not None:
            return cached
        left, right, action = self.parts(ident)
        out = f"({self.text(left)},{self.text(right)},{action})"
        self._text[ident] = out
        return out

    def to_tuple(self, ident: int):
        """Nested-tuple form for comparison against arena-free oracles."""
        cached = self._tuple.get(ident)
        if cached is not None:
            return cached
        left, right, action = self.parts(ident)
        out = (self.to_tuple(left), self.to_tuple(right), action)
        self._tuple[ident] = out
        return out


#: Default interning table.  Ids from calls that do not pass an arena are
#: mutually comparable; pass an explicit arena to isolate a computation.
SHARED_ARENA = TreeArena()


def _tree_step(
    signature: Signature,
    cur: Mapping[str, int],
    action: str,
    passes: Callable[[str, str], bool],
    arena: TreeArena,
) -> Dict[str, int]:
    """Every domain's tree one action further: the acting domain d always
    takes the action, another domain u iff ``passes(d, u)``, and the new node
    carries d's own tree.  Nodes are made in domain order, which fixes the
    ids a fresh arena hands out."""
    d = signature.domain_of(action)
    return {
        u: arena.node(cur[u], cur[d], action) if u == d or passes(d, u) else cur[u]
        for u in signature.domains
    }


def ta_static(
    signature: Signature,
    static_edges: frozenset,
    trace: Trace,
    domain: str,
    arena: Optional[TreeArena] = None,
) -> int:
    """Transmission tree under a fixed policy: an action is folded into the
    observer's tree exactly when its domain may flow to the observer under
    ``static_edges``."""
    arena = SHARED_ARENA if arena is None else arena
    if domain not in signature.domains:
        raise InputError(f"unknown domain {domain!r}")
    cur = {u: LEAF for u in signature.domains}
    passes = lambda d, u: (d, u) in static_edges
    for a in trace:
        cur = _tree_step(signature, cur, a, passes, arena)
    return cur[domain]


def ta_may(
    system: PolicyEnhancedSystem,
    trace: Trace,
    domain: str,
    arena: Optional[TreeArena] = None,
) -> int:
    """Transmission tree under the permissive reading of a dynamic policy:
    the edge is consulted at the state where the action happens.

    This walks one trace; bulk labelling of a whole trace tree lives in
    ``traceindex``.
    """
    arena = SHARED_ARENA if arena is None else arena
    if domain not in system.signature.domains:
        raise InputError(f"unknown domain {domain!r}")
    sig = system.signature
    cur = {u: LEAF for u in sig.domains}
    state = system.initial
    for a in trace:
        cur = _tree_step(sig, cur, a, partial(permits, system, state), arena)
        state = step(system, state, a)
    return cur[domain]


def view(system: PolicyEnhancedSystem, trace: Trace, domain: str) -> tuple:
    """Perfect-recall view: the observer sees its own actions interleaved with
    observations, and repeated observations caused by other domains collapse.

    Elements are tagged ("a", action) or ("o", value) so observation values
    can never collide with action names.
    """
    if domain not in system.signature.domains:
        raise InputError(f"unknown domain {domain!r}")
    sig = system.signature
    state = system.initial
    out: List[tuple] = [("o", system.obs[(domain, state)])]
    for a in trace:
        state = step(system, state, a)
        o = ("o", system.obs[(domain, state)])
        if sig.domain_of(a) == domain:
            out.append(("a", a))
            out.append(o)
        elif out[-1] != o:
            out.append(o)
    return tuple(out)


@dataclass(frozen=True)
class TracePartition:
    """Equivalence classes over traces up to a depth.

    Representatives are the shortlex-least members; ``classes`` come out
    sorted by representative, members sorted shortlex.  Construction is the
    only mutation: instances are read-only views of a finished partition.
    """

    signature: Signature
    depth: int
    domain: Optional[str]
    _rep: Mapping[Trace, Trace]
    _classes: Mapping[Trace, Tuple[Trace, ...]]

    def find(self, trace: Trace) -> Trace:
        try:
            return self._rep[trace]
        except KeyError:
            raise InputError(f"trace {trace!r} outside the partition table") from None

    def same_class(self, a: Trace, b: Trace) -> bool:
        return self.find(a) == self.find(b)

    def members(self, trace: Trace) -> Tuple[Trace, ...]:
        return self._classes[self.find(trace)]

    def classes(self) -> Tuple[Tuple[Trace, ...], ...]:
        return tuple(self._classes.values())

    def traces(self) -> Iterable[Trace]:
        return self._rep.keys()

    def __len__(self) -> int:
        return len(self._classes)


def partition_by(
    signature: Signature,
    values: Mapping[Trace, object],
    depth: int,
    domain: Optional[str] = None,
) -> TracePartition:
    """Group traces by value equality (trees by interned id, anything hashable)."""
    by_value: Dict[object, List[Trace]] = {}
    for t, v in values.items():
        by_value.setdefault(v, []).append(t)
    rep: Dict[Trace, Trace] = {}
    classes: Dict[Trace, Tuple[Trace, ...]] = {}
    groups = []
    for members in by_value.values():
        members.sort(key=lambda t: shortlex_key(signature, t))
        groups.append(members)
    groups.sort(key=lambda g: shortlex_key(signature, g[0]))
    for members in groups:
        head = members[0]
        classes[head] = tuple(members)
        for t in members:
            rep[t] = head
    return TracePartition(signature=signature, depth=depth, domain=domain, _rep=rep, _classes=classes)


def select_violation_seq(
    signature: Signature,
    traces: List[Trace],
    values: List[object],
) -> Optional[Tuple[Trace, Trace]]:
    """Core of the witness rule over parallel (trace, value) sequences.

    ``traces`` must already be sorted shortlex.  Orient every conflicting
    pair (x, y) so that x precedes y in pure lexicographic order (declaration
    order, prefix first); return the pair minimizing (shortlex y, shortlex x).
    Linear apart from key construction, so million-member classes stay cheap.
    """
    lexes = [lex_key(signature, t) for t in traces]
    best_by_val: Dict[object, tuple] = {}
    for lx, v in zip(lexes, values):
        cur = best_by_val.get(v)
        if cur is None or lx < cur:
            best_by_val[v] = lx
    if len(best_by_val) <= 1:
        return None
    ranked = sorted(best_by_val.items(), key=lambda kv: kv[1])
    v0, l0 = ranked[0]
    l1 = ranked[1][1]
    hit = None
    for i, yl in enumerate(lexes):
        other = l0 if values[i] != v0 else l1
        if other < yl:
            hit = i
            break
    if hit is None:
        return None
    y, yv, yl = traces[hit], values[hit], lexes[hit]
    for j, xl in enumerate(lexes):
        if values[j] != yv and xl < yl:
            return (traces[j], y)
    raise AssertionError("witness scan lost the conflicting member")


def select_violation(
    signature: Signature,
    members: Iterable[Trace],
    value_of: Callable[[Trace], object],
) -> Optional[Tuple[Trace, Trace]]:
    """Deterministic witness pair inside one class with conflicting values.

    All frozen witnesses in the corpus regression tests depend on the exact
    rule documented on ``select_violation_seq``.
    """
    ms = sorted(members, key=lambda t: shortlex_key(signature, t))
    return select_violation_seq(signature, ms, [value_of(t) for t in ms])


def check_f_security(
    partitions: Mapping[str, TracePartition],
    system: PolicyEnhancedSystem,
    depth: int,
    mode: str = "final-obs",
    property_name: str = "f-security",
) -> Verdict:
    """Do equivalent traces look identical to each observer?

    ``final-obs`` compares the observation at the end of each trace; ``view``
    compares whole perfect-recall views.  For the built-in self-aware
    labelling functions the two modes agree; both are kept because that
    agreement is itself a checked property.
    """
    if mode not in ("final-obs", "view"):
        raise InputError(f"unknown mode {mode!r}")
    sig = system.signature
    best = None
    for u in sig.domains:
        part = partitions.get(u)
        if part is None:
            continue
        if mode == "final-obs":
            value_of = lambda t, _u=u: system.obs[(_u, run(system, t))]
        else:
            cache: Dict[Trace, tuple] = {}
            def value_of(t, _u=u, _c=cache):
                got = _c.get(t)
                if got is None:
                    got = view(system, t, _u)
                    _c[t] = got
                return got
        uidx = sig.domain_index(u)
        for members in part.classes():
            pair = select_violation(sig, members, value_of)
            if pair is None:
                continue
            x, y = pair
            key = (shortlex_key(sig, y), shortlex_key(sig, x), uidx)
            if best is None or key < best[0]:
                best = (key, (x, y, u))
    if best is not None:
        x, y, u = best[1]
        return Verdict(
            property=property_name,
            outcome=INSECURE,
            witness=(x, y, u),
            depth=depth,
            notes=(f"mode={mode}",),
        )
    return Verdict(property=property_name, outcome=BOUNDED_SECURE, depth=depth, notes=(f"mode={mode}",))
