"""Deterministic input-enabled automata with observations and policy edges.

States are arbitrary hashable values: file-based systems use strings, unfolded
systems use the traces themselves.  Transition and observation tables must be
total; the file layer is responsible for defaulting missing transitions to
self-loops before construction.
"""

from __future__ import annotations

from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass
from typing import Hashable, Iterator, Mapping, Optional, Tuple

import numpy as np

State = Hashable
Trace = Tuple[str, ...]

EMPTY_TRACE: Trace = ()


class InputError(ValueError):
    """Raised for malformed systems, unknown identifiers, or bad arguments."""


def check_depth(depth) -> None:
    """A depth bound is a nonnegative int; bool is rejected though it is one."""
    if isinstance(depth, bool) or not isinstance(depth, int) or depth < 0:
        raise InputError(f"depth must be a nonnegative integer, got {depth!r}")


def check_margin(margin, depth: int) -> None:
    """An interior margin is an int with 0 <= margin < depth; bool is rejected."""
    if isinstance(margin, bool) or not isinstance(margin, int) or not 0 <= margin < depth:
        raise InputError(f"margin must be an integer with 0 <= margin < depth, got {margin!r}")


@dataclass(frozen=True)
class Signature:
    """Action alphabet partitioned over security domains.

    Declaration order of ``domains`` and ``actions`` is significant: it fixes
    trace enumeration order and therefore witness selection everywhere else.
    """

    domains: Tuple[str, ...]
    actions: Tuple[str, ...]
    dom: Mapping[str, str]

    def __post_init__(self) -> None:
        if len(set(self.domains)) != len(self.domains):
            raise InputError("duplicate domain name")
        if len(set(self.actions)) != len(self.actions):
            raise InputError("duplicate action name")
        for a in self.actions:
            if a not in self.dom:
                raise InputError(f"action {a!r} has no domain assignment")
            if self.dom[a] not in self.domains:
                raise InputError(f"action {a!r} belongs to unknown domain {self.dom[a]!r}")

    def domain_of(self, action: str) -> str:
        try:
            return self.dom[action]
        except KeyError:
            raise InputError(f"unknown action {action!r}") from None

    def action_index(self, action: str) -> int:
        try:
            return self.actions.index(action)
        except ValueError:
            raise InputError(f"unknown action {action!r}") from None

    def domain_index(self, domain: str) -> int:
        try:
            return self.domains.index(domain)
        except ValueError:
            raise InputError(f"unknown domain {domain!r}") from None


def _check_automaton(signature: Signature, states, initial, transitions) -> None:
    state_set = set(states)
    if len(state_set) != len(states):
        raise InputError("duplicate state")
    if initial not in state_set:
        raise InputError(f"initial state {initial!r} not declared")
    table = getattr(transitions, "table", None)
    if table is not None and getattr(transitions, "state_order", None) == tuple(states):
        # Array-backed transition maps are validated in bulk: the table must
        # cover every (state, action) cell with an in-range state index.
        if tuple(table.shape) != (len(states), len(signature.actions)):
            raise InputError("transition table shape does not match states x actions")
        if table.size and (table.min() < 0 or table.max() >= len(states)):
            raise InputError("transition table points outside the state set")
        return
    for s in states:
        for a in signature.actions:
            if (s, a) not in transitions:
                raise InputError(f"missing transition from {s!r} on {a!r}")
            if transitions[(s, a)] not in state_set:
                raise InputError(f"transition from {s!r} on {a!r} leaves the state set")


def _check_obs(signature: Signature, states, obs) -> None:
    for u in signature.domains:
        for s in states:
            if (u, s) not in obs:
                raise InputError(f"missing observation for domain {u!r} at state {s!r}")


def _normalize_edges(signature: Signature, states, edges) -> dict:
    """Drop reflexive pairs and validate endpoints.  Reflexive edges are implicit."""
    dom_set = set(signature.domains)
    out = {}
    for s in states:
        raw = edges.get(s, frozenset())
        for (u, v) in raw:
            if u not in dom_set or v not in dom_set:
                raise InputError(f"edge ({u!r}, {v!r}) at {s!r} uses unknown domain")
        out[s] = frozenset((u, v) for (u, v) in raw if u != v)
    return out


class DenseTransitions(_MappingABC):
    """Transition map backed by a dense index table.

    ``table[i][j]`` is the index of the successor of the ``i``-th state under
    the ``j``-th action.  Bulk consumers read ``table`` and ``state_order``
    directly instead of going through item lookups.
    """

    __slots__ = ("table", "state_order", "actions", "_row", "_col")

    def __init__(self, table, state_order: Tuple[State, ...], actions: Tuple[str, ...]):
        self.table = table
        self.state_order = tuple(state_order)
        self.actions = tuple(actions)
        self._row = {s: i for i, s in enumerate(self.state_order)}
        self._col = {a: j for j, a in enumerate(self.actions)}

    def __getitem__(self, key):
        state, action = key
        return self.state_order[int(self.table[self._row[state]][self._col[action]])]

    def __iter__(self):
        for s in self.state_order:
            for a in self.actions:
                yield (s, a)

    def __len__(self) -> int:
        return len(self.state_order) * len(self.actions)


@dataclass(frozen=True)
class System:
    """Machine part only: automaton plus observations, no policy."""

    signature: Signature
    states: Tuple[State, ...]
    initial: State
    transitions: Mapping[Tuple[State, str], State]
    obs: Mapping[Tuple[str, State], object]

    def __post_init__(self) -> None:
        _check_automaton(self.signature, self.states, self.initial, self.transitions)
        _check_obs(self.signature, self.states, self.obs)


@dataclass(frozen=True)
class DynamicPolicyAutomaton:
    """Policy part only: automaton plus per-state edge sets, no observations."""

    signature: Signature
    states: Tuple[State, ...]
    initial: State
    transitions: Mapping[Tuple[State, str], State]
    edges: Mapping[State, frozenset]

    def __post_init__(self) -> None:
        _check_automaton(self.signature, self.states, self.initial, self.transitions)
        object.__setattr__(self, "edges", _normalize_edges(self.signature, self.states, self.edges))


@dataclass(frozen=True)
class PolicyEnhancedSystem:
    """Automaton with both observations and a state-dependent policy.

    ``edges`` stores non-reflexive pairs only; ``permits`` answers the
    reflexive closure.  ``truncated`` marks states whose outgoing transitions
    are synthetic self-loops produced by a bounded construction; checks that
    step through states must not step through these.
    """

    signature: Signature
    states: Tuple[State, ...]
    initial: State
    transitions: Mapping[Tuple[State, str], State]
    obs: Mapping[Tuple[str, State], object]
    edges: Mapping[State, frozenset]
    truncated: frozenset = frozenset()

    def __post_init__(self) -> None:
        _check_automaton(self.signature, self.states, self.initial, self.transitions)
        _check_obs(self.signature, self.states, self.obs)
        object.__setattr__(self, "edges", _normalize_edges(self.signature, self.states, self.edges))
        if not self.truncated <= set(self.states):
            raise InputError("truncated flag on undeclared state")


def permits(system: PolicyEnhancedSystem, state: State, u: str, v: str) -> bool:
    """True iff information may flow from u to v at this state.  Reflexively true."""
    if u == v:
        return True
    return (u, v) in system.edges[state]


def step(system, state: State, action: str) -> State:
    try:
        return system.transitions[(state, action)]
    except KeyError:
        if action not in system.signature.dom:
            raise InputError(f"unknown action {action!r}") from None
        raise InputError(f"unknown state {state!r}") from None


def run(system, trace: Trace, start: Optional[State] = None) -> State:
    """Final state after executing the trace, from the initial state by default."""
    s = system.initial if start is None else start
    for a in trace:
        s = step(system, s, a)
    return s


def reachable_states(system, depth: Optional[int] = None) -> dict:
    """Map each reachable state to its BFS distance from the initial state.

    Exploration follows action declaration order, so insertion order is the
    deterministic discovery order.  ``depth`` bounds the distance if given.
    """
    if depth is not None:
        check_depth(depth)
    dist = {system.initial: 0}
    frontier = [system.initial]
    d = 0
    while frontier and (depth is None or d < depth):
        nxt = []
        for s in frontier:
            for a in system.signature.actions:
                t = system.transitions[(s, a)]
                if t not in dist:
                    dist[t] = d + 1
                    nxt.append(t)
        frontier = nxt
        d += 1
    return dist


def traces_upto(signature: Signature, depth: int) -> Iterator[Trace]:
    """All traces of length <= depth in shortlex order (length, then declaration order)."""
    level = [EMPTY_TRACE]
    yield EMPTY_TRACE
    for _ in range(depth):
        nxt = []
        for t in level:
            for a in signature.actions:
                ta = t + (a,)
                nxt.append(ta)
                yield ta
        level = nxt


def shortlex_key(signature: Signature, trace: Trace) -> Tuple[int, Tuple[int, ...]]:
    idx = tuple(signature.action_index(a) for a in trace)
    return (len(idx), idx)


def lex_key(signature: Signature, trace: Trace) -> Tuple[int, ...]:
    """Pure lexicographic key; a proper prefix sorts before its extensions."""
    return tuple(signature.action_index(a) for a in trace)


def encode(machine: System, policy: DynamicPolicyAutomaton) -> PolicyEnhancedSystem:
    """Product construction: lockstep automaton, observations from the machine
    component, policy edges from the policy component."""
    if machine.signature != policy.signature:
        raise InputError("machine and policy automaton have different signatures")
    sig = machine.signature
    states = tuple((m, p) for m in machine.states for p in policy.states)
    transitions = {}
    obs = {}
    edges = {}
    for (m, p) in states:
        for a in sig.actions:
            transitions[((m, p), a)] = (machine.transitions[(m, a)], policy.transitions[(p, a)])
        for u in sig.domains:
            obs[(u, (m, p))] = machine.obs[(u, m)]
        edges[(m, p)] = policy.edges[p]
    return PolicyEnhancedSystem(
        signature=sig,
        states=states,
        initial=(machine.initial, policy.initial),
        transitions=transitions,
        obs=obs,
        edges=edges,
    )


def unfold(system: PolicyEnhancedSystem, depth: int) -> PolicyEnhancedSystem:
    """Tree-shaped system over all traces of length <= depth.

    States are the traces themselves, in shortlex order, so the child of the
    i-th on the j-th action is the ``i * |A| + 1 + j``-th: the transitions are
    a ``DenseTransitions`` table.  Length-``depth`` states self-loop and are
    flagged truncated.  Observations and edges are inherited from the run of
    each trace in the original system.
    """
    check_depth(depth)
    sig = system.signature
    states = [EMPTY_TRACE]
    ends = [system.initial]
    level = 0  # the deepest level so far is states[level:]
    for _ in range(depth):
        start, level = level, len(states)
        for t, s in zip(states[start:level], ends[start:level]):
            for a in sig.actions:
                states.append(t + (a,))
                ends.append(step(system, s, a))
    na = len(sig.actions)
    table = np.empty((len(states), na), dtype=np.int32)
    table[:level] = np.arange(level)[:, None] * na + 1 + np.arange(na)
    table[level:] = np.arange(level, len(states))[:, None]  # frontier: synthetic self-loops
    states = tuple(states)
    return PolicyEnhancedSystem(
        signature=sig,
        states=states,
        initial=EMPTY_TRACE,
        transitions=DenseTransitions(table, states, sig.actions),
        obs={(u, t): system.obs[(u, s)] for t, s in zip(states, ends) for u in sig.domains},
        edges={t: system.edges[s] for t, s in zip(states, ends)},
        truncated=frozenset(states[level:]),
    )
