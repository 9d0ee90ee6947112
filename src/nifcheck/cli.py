"""Command-line surface: check properties of system files, emit reports.

Exit codes: 0 when every requested property comes back secure or certified,
1 when any verdict falls short of that, 2 for unreadable or malformed input.
JSON is the machine format; the default output is a short human summary.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import time
from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from . import __version__
from .access import ac_complete_construct, check_drm, derive_security_from_drm
from .capability import (
    CapabilityConfig,
    build_pes,
    cap_step,
    capability_drm_interpretation,
    script_action,
)
from .checkers import (
    check_globally_known,
    check_i_security,
    check_locality,
    check_lpurge_security,
    check_static,
    check_ta_may_security,
    check_ta_must_security,
    check_ta_static_security,
    check_unwinding_security,
)
from .formats import ParseError, parse_cap_config, parse_document, parse_trace
from .model import InputError, PolicyEnhancedSystem, check_depth, check_margin
from .unwinding import check_theorem_mustunwind
from .verdicts import BOUNDED_SECURE, CERTIFIED_SECURE, INCONCLUSIVE, Verdict

# Property name -> its check, called with (system, depth, source, flags).
# Each check looks its checker up among this module's globals when called,
# so a wrapper set on ``nifcheck.cli.<checker>`` is the one that runs.
_CHECKS = {
    "ta": lambda s, d, src, f: check_ta_static_security(s, d),
    "mayta": lambda s, d, src, f: check_ta_may_security(s, d),
    "mustta": lambda s, d, src, f: check_ta_must_security(s, d),
    "unwinding": lambda s, d, src, f: check_unwinding_security(s, d),
    "locality": lambda s, d, src, f: check_locality(s, d),
    "static": lambda s, d, src, f: _static_verdict(s, d),
    "gk": lambda s, d, src, f: check_globally_known(s, str(f["gk_domain"]), d),
    "lpurge": lambda s, d, src, f: check_lpurge_security(s, d),
    "isec": lambda s, d, src, f: check_i_security(s, d),
    "drm": lambda s, d, src, f: _drm_verdict(src, s, d),
    "theorem-mustunwind": lambda s, d, src, f: _theorem_verdict(s, d, f["margin"]),
}
PROPERTIES = tuple(_CHECKS)

DEFAULT_DEPTH = 6
_NIF_DEFAULT = ("mayta", "unwinding", "lpurge")
_CAP_DEFAULT = ("drm", "locality", "unwinding")


@dataclass(frozen=True)
class Report:
    """One checking run over one input file."""

    version: str
    path: str
    sha256: str
    depth: int
    verdicts: Tuple[Verdict, ...]
    timing: Mapping[str, float]
    notes: Tuple[str, ...] = ()

    @property
    def all_pass(self) -> bool:
        return all(bool(v) for v in self.verdicts)

    def to_json(self) -> Dict:
        return {
            "version": self.version,
            "input": {"path": self.path, "sha256": self.sha256},
            "depth": self.depth,
            "properties": [v.to_json() for v in self.verdicts],
            "timing": {k: round(t, 4) for k, t in self.timing.items()},
            "notes": list(self.notes),
        }

    def text(self) -> str:
        lines = [f"{self.path} (depth {self.depth})"]
        for v in self.verdicts:
            head = f"  {v.property}: {v.outcome}"
            if v.witness is not None:
                head += f"  witness {_show_witness(v.witness)}"
            lines.append(head)
            for note in v.notes:
                lines.append(f"      {note}")
        for note in self.notes:
            lines.append(f"  {note}")
        return "\n".join(lines)


def _show_trace(trace: Tuple[str, ...]) -> str:
    if not trace:
        return "()"
    if all(len(a) == 1 for a in trace):
        return "".join(trace)
    return ".".join(trace)


def _show_witness(witness) -> str:
    if isinstance(witness, tuple):
        parts = []
        for item in witness:
            if isinstance(item, tuple) and all(isinstance(a, str) for a in item):
                parts.append(_show_trace(item))
            else:
                parts.append(str(item))
        return "(" + ", ".join(parts) + ")"
    return str(witness)


def _digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _static_verdict(system: PolicyEnhancedSystem, depth: int) -> Verdict:
    if not check_static(system):
        outcome, note = INCONCLUSIVE, "the policy changes across reachable states"
    elif system.truncated:  # the truncated states' successors were never built
        outcome, note = BOUNDED_SECURE, (
            f"the policy is the same at every state reachable within depth {depth}; "
            f"{len(system.truncated)} of them are truncated, so longer runs are unchecked"
        )
    else:
        outcome, note = CERTIFIED_SECURE, "the policy is the same at every reachable state"
    return Verdict(
        property="static-policy",
        outcome=outcome,
        depth=depth if outcome == BOUNDED_SECURE else None,
        notes=(note,),
    )


def _theorem_verdict(system: PolicyEnhancedSystem, depth: int, margin: int) -> Verdict:
    report = check_theorem_mustunwind(system, depth, margin=margin)
    if report.interior_agrees:
        return Verdict(
            property="theorem-mustunwind",
            outcome=BOUNDED_SECURE,
            depth=depth,
            notes=(
                "closure and prohibitive-tree partitions agree on all "
                f"traces of length at most {depth - margin}",
            ),
            details={"class_counts": report.class_counts},
        )
    pair = report.interior_mismatches[0]
    return Verdict(
        property="theorem-mustunwind",
        outcome=INCONCLUSIVE,
        witness=pair,
        depth=depth,
        notes=("the two routes disagree strictly inside the bound; file a bug",),
    )


def _drm_verdict(source, system: PolicyEnhancedSystem, depth: int) -> Verdict:
    if isinstance(source, CapabilityConfig):
        structured = capability_drm_interpretation(source, depth, pes=system)
    else:
        structured = ac_complete_construct(system, depth)
    return derive_security_from_drm(check_drm(structured, depth, strong_five=True))


def run_checks(
    path: str,
    properties: Optional[Sequence[str]] = None,
    depth: int = DEFAULT_DEPTH,
    flags: Optional[Mapping[str, object]] = None,
) -> Report:
    """Parse one input file and evaluate the requested properties in order.
    The property names, the depth and the flags are checked before the file
    is read."""
    flags = {"margin": 1, **(flags or {})}
    margin = flags["margin"]
    variant = flags.get("variant")
    gk_domain = flags.get("gk_domain")
    asked = tuple(properties or ())
    for p in asked:
        if p not in PROPERTIES:
            raise InputError(
                f"unknown property {p!r}; choose from {', '.join(PROPERTIES)}"
            )
    check_depth(depth)
    if path.endswith(".cap") and variant is not None:
        raise InputError("capability configurations have no variants")
    if "gk" in asked and not gk_domain:
        raise InputError("property gk needs --gk-domain")
    if "theorem-mustunwind" in asked:
        check_margin(margin, depth)

    with open(path, "rb") as fh:
        data = fh.read()
    text = data.decode("utf-8")
    notes: List[str] = []

    if path.endswith(".cap"):
        config = parse_cap_config(text)
        system = build_pes(config, depth)
        source = config
        requested = asked or _CAP_DEFAULT
        notes.append(
            f"capability system: {len(system.states)} states reachable at depth {depth}"
        )
    else:
        doc = parse_document(text)
        system = doc.select(variant)
        source = system
        requested = asked or _NIF_DEFAULT
        if variant is not None:
            notes.append(f"variant {variant!r} selected")

    verdicts: List[Verdict] = []
    timing: Dict[str, float] = {}
    total0 = time.perf_counter()
    for p in requested:
        t0 = time.perf_counter()
        verdicts.append(_CHECKS[p](system, depth, source, flags))
        timing[p] = time.perf_counter() - t0
    timing["total"] = time.perf_counter() - total0

    return Report(
        version=__version__,
        path=path,
        sha256=_digest(data),
        depth=depth,
        verdicts=tuple(verdicts),
        timing=timing,
        notes=tuple(notes),
    )


def _replay(cap_path: str, trace_path: str) -> str:
    """Run a script against a configuration and describe the state evolution."""
    with open(cap_path) as fh:
        config = parse_cap_config(fh.read())
    with open(trace_path) as fh:
        script = parse_trace(fh.read())
    lines = []
    state = config.initial
    for tokens in script:
        action = script_action(config, tokens)
        after = cap_step(state, action)
        moved = "  (no effect)" if after == state else ""
        lines.append(f"{action.name}{moved}")
        state = after
    lines += [f"{name}: {ps}" for name, ps in state.procs]
    return "\n".join(lines)


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="nifcheck",
        description="Bounded verification of dynamic information-flow policies.",
    )
    parser.add_argument("input", help="system file (.nif) or capability configuration (.cap)")
    parser.add_argument("--depth", type=int, default=DEFAULT_DEPTH, metavar="K",
                        help=f"trace depth bound (default {DEFAULT_DEPTH})")
    parser.add_argument("--margin", type=int, default=1, metavar="M",
                        help="interior margin for theorem-mustunwind (default 1)")
    parser.add_argument("--property", dest="properties", metavar="LIST",
                        help="comma-separated subset of: " + ", ".join(PROPERTIES))
    parser.add_argument("--variant", metavar="NAME", help="select a named policy variant")
    parser.add_argument("--gk-domain", dest="gk_domain", metavar="U",
                        help="administering domain for the gk property")
    parser.add_argument("--replay", metavar="SCRIPT",
                        help="replay a .trace script against a .cap configuration")
    parser.add_argument("--json", action="store_true", help="emit the JSON report")
    args = parser.parse_args(argv)

    try:
        if args.replay:
            if not args.input.endswith(".cap"):
                raise InputError("--replay needs a .cap configuration as input")
            print(_replay(args.input, args.replay))
            return 0
        props = None
        if args.properties:
            props = [p.strip() for p in args.properties.split(",") if p.strip()]
        report = run_checks(
            args.input,
            properties=props,
            depth=args.depth,
            flags={
                "margin": args.margin,
                "variant": args.variant,
                "gk_domain": args.gk_domain,
            },
        )
    except (ParseError, InputError, OSError, UnicodeDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.text())
    return 0 if report.all_pass else 1


if __name__ == "__main__":
    sys.exit(main())
