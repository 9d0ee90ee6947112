"""Capability-based information flow: processes, tags, and message transfer.

Each process p owns a secrecy set S_p of tags, a capability set O_p, an
append-only inbox in_p, an outgoing message register m_p, and optional named
data objects.  Holding t+ lets p add t to S_p; holding t- lets p remove it.
Messages and capabilities flow from p to q only when S_p is a subset of S_q.
The induced flow relation *is* the dynamic policy, so these systems exercise
every layer of the toolkit: the step function feeds a bounded policy-enhanced
system, and the object structure feeds the reference-monitor conditions.

Tags come in two forms: basic tags are plain names shared by everyone, and
process-labelled tags (name, p) are the ones p mints for itself via add_cap.
Two processes can never mint the same labelled tag, so ownership is built
into the tag's identity.
"""

from __future__ import annotations

from collections.abc import Mapping as _MappingABC
from dataclasses import dataclass, field, replace
from typing import Callable, Hashable, Mapping, Optional, Sequence, Tuple, Union

import numpy as np

from .access import StructuredSystem
from .model import (
    DenseTransitions,
    InputError,
    PolicyEnhancedSystem,
    Signature,
    check_depth,
)

Tag = Union[str, Tuple[str, str]]
Capability = Tuple[Tag, str]

PLUS = "+"
MINUS = "-"
_SIGNS = (PLUS, MINUS)

ACTION_KINDS = (
    "data",
    "add_cap",
    "drop_cap",
    "add_tag",
    "remove_tag",
    "send_message_to",
    "send_cap",
)


def tag_text(tag: Tag) -> str:
    if isinstance(tag, str):
        return tag
    name, owner = tag
    return f"{name}_{owner}"


def cap_text(cap: Capability) -> str:
    tag, sign = cap
    return tag_text(tag) + sign


def parse_tag(text: str, processes: Sequence[str], basic_tags: Sequence[str]) -> Tag:
    """Inverse of tag_text over a declared universe."""
    if text in basic_tags:
        return text
    if "_" in text:
        name, _, owner = text.rpartition("_")
        if name in basic_tags and owner in processes:
            return (name, owner)
    raise InputError(f"unknown tag {text!r}")


def parse_cap(text: str, processes: Sequence[str], basic_tags: Sequence[str]) -> Capability:
    if not text or text[-1] not in _SIGNS:
        raise InputError(f"capability {text!r} must end in + or -")
    return (parse_tag(text[:-1], processes, basic_tags), text[-1])


@dataclass(frozen=True)
class TagUniverse:
    """All tags and capabilities available to a set of processes.

    Ordering is fixed: basic tags in declaration order, then labelled tags by
    (name, process) declaration order, and per tag the + capability before -.
    """

    processes: Tuple[str, ...]
    basic: Tuple[str, ...]

    def __post_init__(self) -> None:
        if len(set(self.processes)) != len(self.processes):
            raise InputError("duplicate process name")
        if len(set(self.basic)) != len(self.basic):
            raise InputError("duplicate basic tag name")

    @property
    def tags(self) -> Tuple[Tag, ...]:
        labelled = tuple((n, p) for n in self.basic for p in self.processes)
        return self.basic + labelled

    @property
    def caps(self) -> Tuple[Capability, ...]:
        return tuple((t, x) for t in self.tags for x in _SIGNS)


@dataclass(frozen=True)
class ProcessState:
    """One process's slice of the global state: exactly the objects it owns."""

    secrecy: frozenset = frozenset()
    caps: frozenset = frozenset()
    inbox: Tuple[Hashable, ...] = ()
    message: Hashable = None
    data: Tuple[Tuple[str, Hashable], ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "secrecy", frozenset(self.secrecy))
        object.__setattr__(self, "caps", frozenset(self.caps))
        object.__setattr__(self, "inbox", tuple(self.inbox))
        data = self.data
        if isinstance(data, _MappingABC):
            data = data.items()
        data = tuple(sorted(data, key=lambda kv: kv[0]))
        names = [k for k, _ in data]
        if len(set(names)) != len(names):
            raise InputError("duplicate data object name")
        object.__setattr__(self, "data", data)

    def __str__(self) -> str:
        """The slice as ``--replay`` prints it: sorted text, not hash order."""
        secrecy = ",".join(sorted(tag_text(t) for t in self.secrecy)) or "-"
        caps = ",".join(sorted(cap_text(c) for c in self.caps)) or "-"
        return f"secrecy={{{secrecy}}} caps={{{caps}}} inbox={list(self.inbox)}"


@dataclass(frozen=True)
class CapabilityState:
    """Global state: every process's slice, in process declaration order.

    States key every table of the bounded system, so the hash is computed
    once, when the state is made.  Copies and unpickled states are made
    through the constructor too, so no hash outlives its process's hash seed.
    """

    procs: Tuple[Tuple[str, ProcessState], ...]

    def __post_init__(self) -> None:
        procs = self.procs
        if isinstance(procs, _MappingABC):
            procs = procs.items()
        procs = tuple((name, ps) for name, ps in procs)
        if len({name for name, _ in procs}) != len(procs):
            raise InputError("duplicate process name in state")
        for name, ps in procs:
            if not isinstance(ps, ProcessState):
                raise InputError(f"state for {name!r} is not a ProcessState")
        object.__setattr__(self, "procs", procs)
        object.__setattr__(self, "_hash", hash(procs))

    def __hash__(self) -> int:
        return self._hash

    def __reduce__(self):
        return (CapabilityState, (self.procs,))

    def __str__(self) -> str:
        """How witnesses name a state: each slice, its message and any data."""
        return "; ".join(
            f"{name}: {ps} message={ps.message!r}" + (f" data={list(ps.data)}" if ps.data else "")
            for name, ps in self.procs
        )

    def of(self, process: str) -> ProcessState:
        for name, ps in self.procs:
            if name == process:
                return ps
        raise InputError(f"unknown process {process!r}")

    def _set(self, process: str, ps: ProcessState) -> "CapabilityState":
        return CapabilityState(
            tuple((name, ps if name == process else old) for name, old in self.procs)
        )


@dataclass(frozen=True)
class CapAction:
    """A single move by one process; the acting process is its domain.

    ``update`` is only present on data actions: a pure function from the
    acting process's own state slice to a (message, data) pair.  It never
    sees, and therefore can never read or write, any other process's objects.
    """

    name: str
    process: str
    kind: str
    payload: Tuple = ()
    update: Optional[Callable[[ProcessState], Tuple[Hashable, Tuple]]] = field(
        default=None, compare=False
    )

    def __post_init__(self) -> None:
        if self.kind not in ACTION_KINDS:
            raise InputError(f"unknown action kind {self.kind!r}")
        if self.kind == "data" and self.update is None:
            raise InputError("data action needs an update function")


def data_action(process: str, label: str, update: Callable) -> CapAction:
    return CapAction(f"{process}.{label}", process, "data", (label,), update)


def set_message_action(process: str, value: Hashable) -> CapAction:
    def update(view: ProcessState, _v=value) -> Tuple[Hashable, Tuple]:
        return _v, view.data

    return CapAction(
        f"{process}.set_message({value})", process, "data", ("set_message", value), update
    )


def add_cap_action(process: str, signs: Sequence[str], name: str) -> CapAction:
    canon = tuple(x for x in _SIGNS if x in set(signs))
    if not canon or set(signs) - set(_SIGNS):
        raise InputError(f"capability signs must be a nonempty subset of +,-: {signs!r}")
    return CapAction(
        f"{process}.add_cap({''.join(canon)},{name})", process, "add_cap", (canon, name)
    )


def drop_cap_action(process: str, cap: Capability) -> CapAction:
    return CapAction(f"{process}.drop_cap({cap_text(cap)})", process, "drop_cap", (cap,))


def add_tag_action(process: str, tag: Tag) -> CapAction:
    return CapAction(f"{process}.add_tag({tag_text(tag)})", process, "add_tag", (tag,))


def remove_tag_action(process: str, tag: Tag) -> CapAction:
    return CapAction(f"{process}.remove_tag({tag_text(tag)})", process, "remove_tag", (tag,))


def send_message_action(process: str, target: str) -> CapAction:
    return CapAction(
        f"{process}.send_message_to({target})", process, "send_message_to", (target,)
    )


def send_cap_action(process: str, cap: Capability, target: str) -> CapAction:
    return CapAction(
        f"{process}.send_cap({cap_text(cap)},{target})", process, "send_cap", (cap, target)
    )


def _touched(action: CapAction) -> str:
    """The process whose slice the action may change: the target of a send."""
    sends = action.kind in ("send_message_to", "send_cap")
    return action.payload[-1] if sends else action.process


def _step_slice(
    ps: ProcessState, qs: ProcessState, action: CapAction
) -> Optional[ProcessState]:
    """The guarded semantics of one action on the slices it reads.

    ``ps`` is the actor's slice and ``qs`` the touched process's slice (the
    actor's own unless the action is a send).  Returns the touched process's
    new slice, or None when a guard fails and nothing moves.
    """
    kind = action.kind

    if kind == "data":
        message, data = action.update(ps)
        if isinstance(data, _MappingABC):
            data = data.items()
        data = tuple(sorted(data, key=lambda kv: kv[0]))
        if tuple(k for k, _ in data) != tuple(k for k, _ in ps.data):
            raise InputError("data update must preserve the named-object set")
        if message == ps.message and data == ps.data:
            return None
        return replace(ps, message=message, data=data)

    if kind == "add_cap":
        signs, name = action.payload
        gained = {((name, action.process), x) for x in signs}
        if gained <= ps.caps:
            return None
        return replace(ps, caps=ps.caps | gained)

    if kind == "drop_cap":
        (cap,) = action.payload
        if cap not in ps.caps:
            return None
        return replace(ps, caps=ps.caps - {cap})

    if kind == "add_tag":
        (tag,) = action.payload
        if (tag, PLUS) not in ps.caps or tag in ps.secrecy:
            return None
        return replace(ps, secrecy=ps.secrecy | {tag})

    if kind == "remove_tag":
        (tag,) = action.payload
        if (tag, MINUS) not in ps.caps or tag not in ps.secrecy:
            return None
        return replace(ps, secrecy=ps.secrecy - {tag})

    if kind == "send_message_to":
        if not ps.secrecy <= qs.secrecy:
            return None
        return replace(qs, inbox=qs.inbox + (ps.message,))

    if kind == "send_cap":
        cap, _ = action.payload
        if not ps.secrecy <= qs.secrecy or cap not in ps.caps:
            return None
        if cap in qs.caps:
            return None
        return replace(qs, caps=qs.caps | {cap})

    raise InputError(f"unknown action kind {kind!r}")


def cap_step(state: CapabilityState, action: CapAction) -> CapabilityState:
    """One guarded move.  A failed guard leaves the state unchanged.

    Every action is always enabled as a transition; the guards only decide
    whether anything moves.  When nothing moves the input state itself is
    returned, so callers may use identity to detect no-ops.
    """
    q = _touched(action)
    qs = _step_slice(state.of(action.process), state.of(q), action)
    return state if qs is None else state._set(q, qs)


def associated_policy(state: CapabilityState) -> frozenset:
    """All flow-permitted ordered pairs, reflexive pairs included."""
    pairs = set()
    for p, ps in state.procs:
        for q, qs in state.procs:
            if ps.secrecy <= qs.secrecy:
                pairs.add((p, q))
    return frozenset(pairs)


def _default_obs(ps: ProcessState) -> Tuple:
    return (ps.secrecy, ps.caps, ps.inbox[-1] if ps.inbox else None)


@dataclass(frozen=True, eq=False)
class CapabilityConfig:
    """A finite instantiation: fixed processes, tags, messages, and alphabet.

    The per-process observation function, default or overridden, receives
    only that process's ProcessState, so observations cannot depend on
    another process's objects no matter what the caller supplies.
    """

    processes: Tuple[str, ...]
    basic_tags: Tuple[str, ...]
    messages: Tuple[Hashable, ...]
    actions: Tuple[CapAction, ...]
    initial: CapabilityState
    obs: Optional[Mapping[str, Callable[[ProcessState], Hashable]]] = None

    def __post_init__(self) -> None:
        universe = TagUniverse(tuple(self.processes), tuple(self.basic_tags))
        object.__setattr__(self, "processes", universe.processes)
        object.__setattr__(self, "basic_tags", universe.basic)
        object.__setattr__(self, "messages", tuple(self.messages))
        object.__setattr__(self, "actions", tuple(self.actions))
        procs = set(self.processes)
        tags = set(universe.tags)
        caps = set(universe.caps)
        names = [a.name for a in self.actions]
        if len(set(names)) != len(names):
            raise InputError("duplicate action name")
        for a in self.actions:
            if not isinstance(a, CapAction):
                raise InputError(f"not a capability action: {a!r}")
            if a.process not in procs:
                raise InputError(f"action {a.name!r} acts for unknown process {a.process!r}")
            self._check_payload(a, procs, tags, caps)
        state_names = tuple(n for n, _ in self.initial.procs)
        if state_names != self.processes:
            raise InputError("initial state must list every process in declaration order")
        validate_candidate_initial(self.initial, self.basic_tags)
        if self.obs is not None:
            unknown = set(self.obs) - procs
            if unknown:
                raise InputError(f"observation override for unknown process {sorted(unknown)!r}")

    def _check_payload(self, a: CapAction, procs, tags, caps) -> None:
        kind, payload = a.kind, a.payload
        if kind == "add_cap":
            signs, name = payload
            if name not in self.basic_tags:
                raise InputError(f"action {a.name!r} mints undeclared tag {name!r}")
            if set(signs) - set(_SIGNS):
                raise InputError(f"action {a.name!r} has bad capability signs")
        elif kind == "drop_cap":
            (cap,) = payload
            if cap not in caps:
                raise InputError(f"action {a.name!r} drops unknown capability")
        elif kind in ("add_tag", "remove_tag"):
            (tag,) = payload
            if tag not in tags:
                raise InputError(f"action {a.name!r} uses unknown tag")
        elif kind == "send_message_to":
            (q,) = payload
            if q not in procs:
                raise InputError(f"action {a.name!r} targets unknown process {q!r}")
        elif kind == "send_cap":
            cap, q = payload
            if cap not in caps:
                raise InputError(f"action {a.name!r} sends unknown capability")
            if q not in procs:
                raise InputError(f"action {a.name!r} targets unknown process {q!r}")


def validate_candidate_initial(state: CapabilityState, basic_tags: Sequence[str]) -> None:
    """Initial states may mention basic tags only: labelled tags do not exist yet."""
    basic = set(basic_tags)
    for name, ps in state.procs:
        if not ps.secrecy <= basic:
            raise InputError(
                f"initial secrecy set of {name!r} mentions a process-labelled tag"
            )
        for tag, sign in ps.caps:
            if tag not in basic or sign not in _SIGNS:
                raise InputError(
                    f"initial capability set of {name!r} mentions a process-labelled tag"
                )


def default_actions(
    processes: Sequence[str],
    basic_tags: Sequence[str],
    messages: Sequence[Hashable],
    kinds: Optional[Sequence[str]] = None,
) -> Tuple[CapAction, ...]:
    """The full finite alphabet, grouped per process in a fixed order.

    Per process: set_message for each value, add_cap for each basic tag and
    sign set, drop_cap for every capability, add_tag and remove_tag for every
    tag, send_message_to and send_cap for every target including the sender.
    ``kinds`` restricts to a subset of action kinds.
    """
    universe = TagUniverse(tuple(processes), tuple(basic_tags))
    wanted = set(ACTION_KINDS if kinds is None else kinds)
    unknown = wanted - set(ACTION_KINDS)
    if unknown:
        raise InputError(f"unknown action kinds {sorted(unknown)!r}")
    out = []
    for p in universe.processes:
        if "data" in wanted:
            out += [set_message_action(p, v) for v in messages]
        if "add_cap" in wanted:
            out += [
                add_cap_action(p, signs, n)
                for n in universe.basic
                for signs in ((PLUS,), (MINUS,), (PLUS, MINUS))
            ]
        if "drop_cap" in wanted:
            out += [drop_cap_action(p, c) for c in universe.caps]
        if "add_tag" in wanted:
            out += [add_tag_action(p, t) for t in universe.tags]
        if "remove_tag" in wanted:
            out += [remove_tag_action(p, t) for t in universe.tags]
        if "send_message_to" in wanted:
            out += [send_message_action(p, q) for q in universe.processes]
        if "send_cap" in wanted:
            out += [
                send_cap_action(p, c, q) for c in universe.caps for q in universe.processes
            ]
    return tuple(out)


def standard_config(
    processes: Sequence[str],
    basic_tags: Sequence[str],
    messages: Sequence[Hashable],
    secrecy: Optional[Mapping[str, Sequence[Tag]]] = None,
    caps: Optional[Mapping[str, Sequence[Capability]]] = None,
    kinds: Optional[Sequence[str]] = None,
    obs: Optional[Mapping[str, Callable]] = None,
) -> CapabilityConfig:
    """Config with the default alphabet and a candidate initial state."""
    if not messages:
        raise InputError("at least one message value is required")
    secrecy = secrecy or {}
    caps = caps or {}
    initial = CapabilityState(
        tuple(
            (
                p,
                ProcessState(
                    secrecy=frozenset(secrecy.get(p, ())),
                    caps=frozenset(caps.get(p, ())),
                    message=messages[0],
                ),
            )
            for p in processes
        )
    )
    return CapabilityConfig(
        processes=tuple(processes),
        basic_tags=tuple(basic_tags),
        messages=tuple(messages),
        actions=default_actions(processes, basic_tags, messages, kinds=kinds),
        initial=initial,
        obs=obs,
    )


def script_action(config: CapabilityConfig, tokens: Sequence[str]) -> CapAction:
    """Resolve one whitespace-split script line against the configured alphabet.

    Accepted forms mirror the action constructors: "p set_message 1",
    "p add_cap +- n", "p drop_cap n_p+", "p add_tag n_p", "p remove_tag n",
    "p send_message_to q", "p send_cap n_p+ q".
    """
    if len(tokens) < 2:
        raise InputError(f"script line too short: {' '.join(tokens)!r}")
    p, verb, args = tokens[0], tokens[1], tokens[2:]
    procs, basic = config.processes, config.basic_tags

    def arity(n: int) -> None:
        if len(args) != n:
            raise InputError(f"{verb} takes {n} argument(s), got {args!r}")

    if verb == "set_message":
        arity(1)
        for v in config.messages:
            if str(v) == args[0]:
                want = set_message_action(p, v)
                break
        else:
            raise InputError(f"unknown message value {args[0]!r}")
    elif verb == "add_cap":
        arity(2)
        want = add_cap_action(p, tuple(args[0]), args[1])
    elif verb == "drop_cap":
        arity(1)
        want = drop_cap_action(p, parse_cap(args[0], procs, basic))
    elif verb == "add_tag":
        arity(1)
        want = add_tag_action(p, parse_tag(args[0], procs, basic))
    elif verb == "remove_tag":
        arity(1)
        want = remove_tag_action(p, parse_tag(args[0], procs, basic))
    elif verb == "send_message_to":
        arity(1)
        want = send_message_action(p, args[0])
    elif verb == "send_cap":
        arity(2)
        want = send_cap_action(p, parse_cap(args[0], procs, basic), args[1])
    else:
        raise InputError(f"unknown script verb {verb!r}")

    for a in config.actions:
        if a == want:
            return a
    raise InputError(f"action {want.name!r} is not in the configured alphabet")


def apply_script(
    config: CapabilityConfig,
    script: Sequence[Sequence[str]],
    start: Optional[CapabilityState] = None,
) -> CapabilityState:
    """Run a tokenized script from the initial state (or ``start``)."""
    state = config.initial if start is None else start
    for tokens in script:
        state = cap_step(state, script_action(config, tokens))
    return state


def build_pes(config: CapabilityConfig, depth: int) -> PolicyEnhancedSystem:
    """Bounded reachable system with the flow relation as its policy.

    States found at exactly the depth bound are kept but not expanded; their
    outgoing transitions are synthetic self-loops and they are flagged
    truncated so trace-walking checks stop short of them.

    States are discovered breadth first, actions in alphabet order.  An
    action changes only the slice of the process it touches, as a function of
    the actor's slice and the touched one, so each distinct (action, actor
    slice, touched slice) is stepped once: slices are interned to ids, states
    are keyed by their tuple of slice ids, and a state is made only for a key
    not seen before.  This relies on every data action's ``update`` being a
    pure function of the acting slice, as ``CapAction`` requires.
    """
    check_depth(depth)
    actions = config.actions
    sig = Signature(
        domains=config.processes,
        actions=tuple(a.name for a in actions),
        dom={a.name: a.process for a in actions},
    )
    at_proc = {p: i for i, p in enumerate(config.processes)}
    moves = [
        (ai, at_proc[a.process], at_proc[_touched(a)], a) for ai, a in enumerate(actions)
    ]

    slices: list = []
    slice_ids: dict = {}

    def intern(ps: ProcessState) -> int:
        i = slice_ids.get(ps)
        if i is None:
            i = slice_ids[ps] = len(slices)
            slices.append(ps)
        return i

    key = tuple(intern(ps) for _, ps in config.initial.procs)
    order = [config.initial]
    keys = [key]
    index = {key: 0}
    dist = [0]
    rows: list = [None]
    # (action, actor slice id, touched slice id) -> new touched slice id, or
    # -1 when the guard fails.
    memo: dict = {}
    at = 0
    while at < len(order):
        if dist[at] >= depth:
            at += 1
            continue
        key = keys[at]
        d1 = dist[at] + 1
        row = []
        for ai, pi, qi, act in moves:
            step = (ai, key[pi], key[qi])
            new = memo.get(step)
            if new is None:
                qs = _step_slice(slices[key[pi]], slices[key[qi]], act)
                new = memo[step] = -1 if qs is None else intern(qs)
            if new < 0:
                row.append(at)
                continue
            t = key[:qi] + (new,) + key[qi + 1 :]
            j = index.get(t)
            if j is None:
                j = len(order)
                index[t] = j
                keys.append(t)
                order.append(
                    CapabilityState(tuple(zip(config.processes, (slices[i] for i in t))))
                )
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


def capability_drm_interpretation(
    config: CapabilityConfig, depth: int, pes: Optional[PolicyEnhancedSystem] = None
):
    """Object structure over the bounded system, ready for the monitor checks.

    Each process observes exactly its own objects plus its oset, in every
    state.  It may alter its own objects always, and another process's inbox
    and capability set exactly when the flow relation (the policy edges)
    currently lets it flow to that process.  Object contents are read
    straight off the state.
    """
    if pes is None:
        pes = build_pes(config, depth)
    procs = config.processes
    objects, blocks = [], []
    for p in procs:
        data = [("d", p, name) for name, _ in config.initial.of(p).data]
        start = len(objects)
        objects += [("S", p), ("O", p), ("in", p), ("m", p), *data, ("oset", p)]
        blocks.append(slice(start, len(objects)))
    at = {o: i for i, o in enumerate(objects)}
    n = len(pes.states)
    observe = np.zeros((len(procs), n, len(objects)), dtype=bool)
    alter = np.zeros_like(observe)
    for pi, block in enumerate(blocks):
        observe[pi, :, block] = True
        alter[pi, :, block.start : block.stop - 1] = True
    for si, s in enumerate(pes.states):
        for p, q in pes.edges[s]:
            alter[procs.index(p), si, [at[("in", q)], at[("O", q)]]] = True
    watch = [frozenset(objects[block]) for block in blocks]
    # One state's column, process by process in the order of ``objects``.
    values = (
        v
        for s in pes.states
        for (_, ps), w in zip(s.procs, watch)
        for v in (ps.secrecy, ps.caps, ps.inbox, ps.message, *(x for _, x in ps.data), w)
    )
    contents = np.fromiter(values, dtype=object, count=n * len(objects))

    return StructuredSystem(
        base=pes,
        objects=tuple(objects),
        osets={p: ("oset", p) for p in procs},
        contents=contents.reshape(n, len(objects)).T,
        observe=observe,
        alter=alter,
    )
