"""Line-oriented text formats for systems, capability configs, and scripts.

A system file describes one policy-enhanced system plus optional named
edge-set variants.  Directives are `key: tokens` lines; blank lines and
lines starting with # are ignored:

    domains: A B P
    actions: a@A p@P
    states: s0 s1 s2
    initial: s0
    trans: s0 p s1
    obs: s0 B 0
    edge: s1 A B
    variant primed: edge s6 A B

Transitions omitted from the file are self-loops.  Reflexive policy edges
are implicit and never written.  A variant names an alternative policy that
adds its edges on top of the base edge set.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Tuple

from .model import InputError, PolicyEnhancedSystem, Signature
from .capability import CapabilityConfig, parse_cap, parse_tag, standard_config


class ParseError(InputError):
    """Malformed input text; carries a 1-based line number."""

    def __init__(self, message: str, line: Optional[int] = None):
        self.line = line
        where = f"line {line}: " if line is not None else ""
        super().__init__(where + message)


def _directives(text: str):
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, rest = line.partition(":")
        if not sep:
            raise ParseError(f"expected 'key: ...', got {line!r}", no)
        yield no, key.strip(), rest.split()


def _value_token(tok: str):
    """Observation values are ints when they look like ints, strings otherwise."""
    try:
        return int(tok)
    except ValueError:
        return tok


@dataclass(frozen=True)
class SystemDocument:
    """A parsed system file: the base system and its named policy variants."""

    base: PolicyEnhancedSystem
    variants: Mapping[str, PolicyEnhancedSystem]

    def select(self, variant: Optional[str] = None) -> PolicyEnhancedSystem:
        if variant is None:
            return self.base
        if variant not in self.variants:
            raise InputError(
                f"unknown variant {variant!r}; file defines {sorted(self.variants)!r}"
            )
        return self.variants[variant]


def parse_document(text: str) -> SystemDocument:
    domains: List[str] = []
    actions: List[Tuple[str, str]] = []
    states: List[str] = []
    initial: Optional[str] = None
    trans: Dict[Tuple[str, str], str] = {}
    trans_line: Dict[Tuple[str, str], int] = {}
    obs: Dict[Tuple[str, str], object] = {}
    obs_line: Dict[Tuple[str, str], int] = {}
    # (line, state, source, target) of each base and each variant edge
    edges: List[Tuple[int, str, str, str]] = []
    variant_edges: Dict[str, List[Tuple[int, str, str, str]]] = {}

    for no, key, toks in _directives(text):
        if key == "domains":
            domains += toks
        elif key == "actions":
            for tok in toks:
                name, sep, dom = tok.partition("@")
                if not sep or not name or not dom:
                    raise ParseError(f"action {tok!r} must be written name@domain", no)
                actions.append((name, dom))
        elif key == "states":
            states += toks
        elif key == "initial":
            if len(toks) != 1:
                raise ParseError("initial takes exactly one state", no)
            if initial is not None:
                raise ParseError("initial already declared", no)
            initial = toks[0]
        elif key == "trans":
            if len(toks) != 3:
                raise ParseError("trans takes: source action target", no)
            src, act, dst = toks
            prev = trans.get((src, act))
            if prev is not None and prev != dst:
                raise ParseError(
                    f"transition ({src}, {act}) already goes to {prev} (line "
                    f"{trans_line[(src, act)]}); a second target breaks determinism",
                    no,
                )
            trans[(src, act)] = dst
            trans_line[(src, act)] = no
        elif key == "obs":
            if len(toks) != 3:
                raise ParseError("obs takes: state domain value", no)
            s, u, v = toks
            val = _value_token(v)
            prev = obs.get((u, s))
            if prev is not None and prev != val:
                raise ParseError(f"conflicting observation for ({s}, {u})", no)
            obs[(u, s)] = val
            obs_line[(u, s)] = no
        elif key == "edge":
            if len(toks) != 3:
                raise ParseError("edge takes: state source target", no)
            edges.append((no, *toks))
        elif key.startswith("variant"):
            name = key[len("variant") :].strip()
            if not name:
                raise ParseError("variant needs a name: 'variant NAME: edge ...'", no)
            if not toks or toks[0] != "edge" or len(toks) != 4:
                raise ParseError("variant lines take: edge state source target", no)
            variant_edges.setdefault(name, []).append((no, *toks[1:]))
        else:
            raise ParseError(f"unknown directive {key!r}", no)

    if not domains:
        raise ParseError("no domains declared")
    if not states:
        raise ParseError("no states declared")
    if initial is None:
        raise ParseError("no initial state declared")

    state_set = set(states)
    if len(state_set) != len(states):
        raise ParseError("duplicate state name")
    dom_map = {}
    names = []
    for name, dom in actions:
        if name in dom_map and dom_map[name] != dom:
            raise ParseError(f"action {name!r} declared for two domains")
        if name not in dom_map:
            names.append(name)
        dom_map[name] = dom
    try:
        sig = Signature(domains=tuple(domains), actions=tuple(names), dom=dom_map)
    except InputError as exc:
        raise ParseError(str(exc)) from None

    for (src, act), dst in trans.items():
        no = trans_line[(src, act)]
        for s in (src, dst):
            if s not in state_set:
                raise ParseError(f"undeclared state {s!r}", no)
        if act not in dom_map:
            raise ParseError(f"undeclared action {act!r}", no)
    full_trans = {
        (s, a): trans.get((s, a), s) for s in states for a in sig.actions
    }

    domain_set = set(domains)
    for (u, s), no in obs_line.items():
        if s not in state_set:
            raise ParseError(f"observation for undeclared state {s!r}", no)
        if u not in domain_set:
            raise ParseError(f"observation for undeclared domain {u!r}", no)
    missing = [
        (s, u) for u in domains for s in states if (u, s) not in obs
    ]
    if missing:
        s, u = missing[0]
        raise ParseError(f"missing observation for state {s!r} and domain {u!r}")

    def build(extra: List[Tuple[int, str, str, str]]) -> PolicyEnhancedSystem:
        table: Dict[str, set] = {}
        for no, s, u, v in edges + extra:
            if s not in state_set:
                raise ParseError(f"policy edge at undeclared state {s!r}", no)
            if u not in domain_set or v not in domain_set:
                raise ParseError(f"policy edge ({u}, {v}) uses undeclared domain", no)
            table.setdefault(s, set()).add((u, v))
        try:
            return PolicyEnhancedSystem(
                signature=sig,
                states=tuple(states),
                initial=initial,
                transitions=full_trans,
                obs=obs,
                edges={s: frozenset(table.get(s, ())) for s in states},
            )
        except InputError as exc:
            raise ParseError(str(exc)) from None

    base = build([])
    variants = {name: build(extra) for name, extra in variant_edges.items()}
    return SystemDocument(base=base, variants=variants)


def parse_system(text: str, variant: Optional[str] = None) -> PolicyEnhancedSystem:
    return parse_document(text).select(variant)


def _check_token(tok: str, what: str) -> str:
    tok = str(tok)
    if not tok or any(c.isspace() for c in tok) or ":" in tok or tok.startswith("#"):
        raise InputError(f"{what} {tok!r} cannot be written in the line format")
    return tok


def print_system(system: PolicyEnhancedSystem) -> str:
    """Render a file-backed system in the same grammar parse_system reads.

    Only systems over plain string-like identifiers can be printed; bounded
    unfoldings and capability systems have structured states and synthetic
    self-loops that do not belong in a source file.
    """
    if system.truncated:
        raise InputError("cannot print a depth-truncated system")
    sig = system.signature
    lines = [
        "domains: " + " ".join(_check_token(u, "domain") for u in sig.domains),
        "actions: "
        + " ".join(
            _check_token(a, "action") + "@" + _check_token(sig.dom[a], "domain")
            for a in sig.actions
        ),
        "states: " + " ".join(_check_token(s, "state") for s in system.states),
        "initial: " + _check_token(system.initial, "state"),
    ]
    for s in system.states:
        for a in sig.actions:
            t = system.transitions[(s, a)]
            if t != s:
                lines.append(f"trans: {_check_token(s, 'state')} {a} {_check_token(t, 'state')}")
    for s in system.states:
        for u in sig.domains:
            v = system.obs[(u, s)]
            if not isinstance(v, (str, int)):
                raise InputError(f"observation {v!r} cannot be written in the line format")
            if isinstance(v, str) and _value_token(v) != v:
                raise InputError(f"observation {v!r} would read back as a number")
            lines.append(f"obs: {s} {u} {_check_token(v, 'observation')}")
    for s in system.states:
        for (u, v) in sorted(system.edges[s]):
            lines.append(f"edge: {s} {u} {v}")
    return "\n".join(lines) + "\n"


def parse_cap_config(text: str) -> CapabilityConfig:
    """Capability configuration files.

    Directives: `processes: p q`, `tags: n`, `messages: 0 1`,
    `secrecy: p n`, `caps: p n+ n-`, and an optional `kinds:` line
    restricting the generated action alphabet.
    """
    processes: List[str] = []
    tags: List[str] = []
    messages: List[object] = []
    secrecy: Dict[str, List[object]] = {}
    caps: Dict[str, List[object]] = {}
    kinds: Optional[List[str]] = None
    pending: List[Tuple[int, str, List[str]]] = []

    for no, key, toks in _directives(text):
        if key == "processes":
            processes += toks
        elif key == "tags":
            tags += toks
        elif key == "messages":
            messages += [_value_token(t) for t in toks]
        elif key in ("secrecy", "caps"):
            if not toks:
                raise ParseError(f"{key} takes: process items...", no)
            pending.append((no, key, toks))
        elif key == "kinds":
            kinds = (kinds or []) + toks
        else:
            raise ParseError(f"unknown directive {key!r}", no)

    for no, key, toks in pending:
        p, items = toks[0], toks[1:]
        if p not in processes:
            raise ParseError(f"undeclared process {p!r}", no)
        try:
            if key == "secrecy":
                secrecy.setdefault(p, []).extend(
                    parse_tag(t, processes, tags) for t in items
                )
            else:
                caps.setdefault(p, []).extend(
                    parse_cap(c, processes, tags) for c in items
                )
        except InputError as exc:
            raise ParseError(str(exc), no) from None

    if not processes:
        raise ParseError("no processes declared")
    if not messages:
        raise ParseError("no message values declared")
    try:
        return standard_config(
            processes=processes,
            basic_tags=tags,
            messages=messages,
            secrecy=secrecy,
            caps=caps,
            kinds=kinds,
        )
    except InputError as exc:
        raise ParseError(str(exc)) from None


def parse_trace(text: str) -> Tuple[Tuple[str, ...], ...]:
    """Replay scripts: one whitespace-split action per line."""
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        out.append(tuple(line.split()))
    return tuple(out)
