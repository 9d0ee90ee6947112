"""Unwinding closure over traces and the prohibitive transmission trees.

The closure merges traces a domain cannot tell apart: deleting an action the
policy disallowed leaves the observer's class unchanged, and two traces that
are jointly equivalent for an observer and an actor stay equivalent after the
actor moves.  The prohibitive trees then branch on distributed knowledge over
those classes, and the two labellings are compared class for class, with a
margin that separates genuine disagreement from artifacts of the depth bound.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from .checkers import _stripped_index, class_violations, label_partitions
from .model import InputError, PolicyEnhancedSystem, Trace, check_depth, check_margin, permits, run
from .traceindex import MATERIALIZE_LIMIT, _count_ids
from .trees import LEAF, SHARED_ARENA, TracePartition, TreeArena, _tree_step


@dataclass(frozen=True)
class UnwindingResult:
    """Finished per-domain closure, plus how much work it took.

    ``rule_counts`` are the counts of ``traceindex.unwinding_closure``:
    deletion pairs, stepping links, rounds ("sweeps") and key lookups;
    transitive closure is implicit in the union-find.
    """

    partitions: Mapping[str, TracePartition]
    rule_counts: Mapping[str, int]
    depth: int

    def same_class(self, domain: str, a: Trace, b: Trace) -> bool:
        return self.partitions[domain].same_class(a, b)


def unwinding_partition(system: PolicyEnhancedSystem, depth: int) -> UnwindingResult:
    """Materialize the closure as trace partitions.

    This builds explicit trace tuples for every node, so it is capped at a
    couple of million traces; verdict-only checks go through the array path
    in ``checkers`` and never materialize.
    """
    idx, _ = _stripped_index(system, depth)
    if idx.n_nodes > MATERIALIZE_LIMIT:
        raise InputError(
            f"{idx.n_nodes} traces is too many to materialize; "
            "use check_unwinding_security for verdicts at this scale"
        )
    roots, counts = idx.unwinding_roots()
    return UnwindingResult(
        partitions=label_partitions(idx, roots), rule_counts=dict(counts), depth=depth
    )


def holds_distributed(
    result: UnwindingResult,
    system: PolicyEnhancedSystem,
    group: Iterable[str],
    atom: Tuple[str, str],
    trace: Trace,
) -> bool:
    """Does the group jointly know the policy edge holds after this trace?

    True iff the edge holds at the end of every trace the whole group finds
    equivalent to the given one.
    """
    names = tuple(group)
    if not names:
        raise InputError("knowledge group must contain at least one domain")
    u, v = atom
    parts = [result.partitions[g] for g in names]
    members = set(parts[0].members(trace))
    for p in parts[1:]:
        members &= set(p.members(trace))
    return all(permits(system, run(system, b), u, v) for b in members)


def _joint_atom(
    system: PolicyEnhancedSystem,
    result: UnwindingResult,
    cache: Dict[tuple, bool],
    prefix: Trace,
    actor: str,
    observer: str,
) -> bool:
    """``holds_distributed`` for the group {actor, observer} and the edge
    actor -> observer, cached per pair of classes."""
    pair = (actor, observer)
    key = pair + tuple(result.partitions[g].find(prefix) for g in pair)
    got = cache.get(key)
    if got is None:
        got = cache[key] = holds_distributed(result, system, pair, pair, prefix)
    return got


def ta_must(
    system: PolicyEnhancedSystem,
    result: UnwindingResult,
    trace: Trace,
    domain: str,
    arena: Optional[TreeArena] = None,
) -> int:
    """Transmission tree under the prohibitive reading: an action reaches the
    observer only when actor and observer jointly know it was allowed."""
    arena = SHARED_ARENA if arena is None else arena
    sig = system.signature
    if domain not in sig.domains:
        raise InputError(f"unknown domain {domain!r}")
    if len(trace) > result.depth:
        raise InputError("trace exceeds the closure depth")
    cache: Dict[tuple, bool] = {}
    cur = {u: LEAF for u in sig.domains}
    for i, a in enumerate(trace):
        passes = partial(_joint_atom, system, result, cache, trace[:i])
        cur = _tree_step(sig, cur, a, passes, arena)
    return cur[domain]


def ta_must_labels(
    system: PolicyEnhancedSystem,
    result: UnwindingResult,
    arena: Optional[TreeArena] = None,
) -> Dict[str, Dict[Trace, int]]:
    """Prohibitive tree ids for every domain and every trace up to the
    closure depth, sharing prefix work and the joint-knowledge cache."""
    arena = SHARED_ARENA if arena is None else arena
    sig = system.signature
    cache: Dict[tuple, bool] = {}
    level: Dict[Trace, Dict[str, int]] = {(): {u: LEAF for u in sig.domains}}
    out: Dict[str, Dict[Trace, int]] = {u: {(): LEAF} for u in sig.domains}
    for _ in range(result.depth):
        nxt_level: Dict[Trace, Dict[str, int]] = {}
        for prefix, cur in level.items():
            passes = partial(_joint_atom, system, result, cache, prefix)
            for a in sig.actions:
                t = prefix + (a,)
                nxt_level[t] = nxt = _tree_step(sig, cur, a, passes, arena)
                for u in sig.domains:
                    out[u][t] = nxt[u]
        level = nxt_level
    return out


@dataclass(frozen=True)
class AgreementReport:
    """Outcome of comparing the closure partitions with the prohibitive-tree
    partitions.

    The two coincide on unbounded traces, but the bounded closure can miss
    merges whose connecting traces are longer than the bound, so mismatched
    pairs are split by whether they fit strictly inside the bound by the
    given margin.  ``interior_agrees`` is the meaningful sound signal.
    """

    depth: int
    margin: int
    interior_agrees: bool
    interior_mismatches: Tuple[Tuple[Trace, Trace, str, str], ...]
    boundary_mismatches: Tuple[Tuple[Trace, Trace, str, str], ...]
    class_counts: Mapping[str, Tuple[int, int]]

    def __bool__(self) -> bool:
        return self.interior_agrees


def check_theorem_mustunwind(
    system: PolicyEnhancedSystem,
    depth: int,
    margin: int = 1,
) -> AgreementReport:
    """Compare the closure with the prohibitive trees, per observer.

    The two labellings induce the same equivalence on unbounded traces; at a
    finite depth the closure can miss merges whose derivations pass beyond
    the bound, which is why a margin is subtracted before judging agreement.
    A mismatch kind of ``closure-coarser`` means one closure class holds two
    distinct tree labels; ``trees-coarser`` means one tree label spans two
    closure classes.  Pairs entirely within depth - margin land in
    ``interior_mismatches``; everything else is attributed to the bound.
    Both labellings run on the bulk engine; ``unwinding_partition`` and
    ``ta_must_labels`` are the materializing reference.
    """
    check_depth(depth)
    check_margin(margin, depth)
    idx, _ = _stripped_index(system, depth)
    roots, _ = idx.unwinding_roots()
    must = idx.ta_labels(idx.jointly_known(roots, idx.interior_end))
    cut = depth - margin
    inner = idx.offs[cut + 1]  # node ids are shortlex ranks: lengths <= cut
    interior: List[Tuple[Trace, Trace, str, str]] = []
    boundary: List[Tuple[Trace, Trace, str, str]] = []
    class_counts = {}
    for ui, u in enumerate(system.signature.domains):
        # one root per closure class, one tree label per tree class
        class_counts[u] = (_count_ids(roots[ui]), _count_ids(must[ui]))
        sides = (
            (roots[ui], must[ui], "closure-coarser"),
            (must[ui], roots[ui], "trees-coarser"),
        )
        for key, other, kind in sides:
            for x, y in class_violations(idx, key[:inner], other[:inner]).tolist():
                interior.append((idx.trace_of(x), idx.trace_of(y), u, kind))
            pairs = class_violations(idx, key, other)
            for x, y in pairs[(pairs >= inner).any(axis=1)].tolist():
                boundary.append((idx.trace_of(x), idx.trace_of(y), u, kind))
    return AgreementReport(
        depth=depth,
        margin=margin,
        interior_agrees=not interior,
        interior_mismatches=tuple(interior),
        boundary_mismatches=tuple(boundary),
        class_counts=class_counts,
    )
