"""Check verdicts against the expected-answer file and replay witnesses.

A verdict fails if its check raised, if its outcome, witness or witness
details differ from the expected entry, or if an ``INSECURE`` witness does
not replay.  Replays use only the system's transitions, observations and
edges (``model.run``, ``obs``, ``permits``) and the single-trace tree
recursions, never the checkers that produced the verdict.

Expected entries live in ``expected.json``: fixed inputs under ``"fixed"``
by check key, generated inputs under ``"random-insecure"`` by seed.  A
generated input without an entry must be ``INSECURE`` under every property,
which its planted leak guarantees.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Callable, List, Optional, Tuple

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Verdict details that a replay reads; they are pinned with the witness.
PINNED_DETAILS = ("purged", "common_purge")


def load_expected(path: Path = EXPECTED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def expected_for(expected: dict, workload: str, seed: int, key: str) -> Optional[dict]:
    """Expected entries by property name for one check.  None for a
    generated input of an unrecorded seed; a fixed input always has a table,
    so a missing entry fails."""
    if workload == "random-insecure":
        return expected.get("random-insecure", {}).get(str(seed), {}).get(key)
    return expected.get("fixed", {}).get(key, {})


def summarize(verdict_json: dict) -> dict:
    """The pinned part of a verdict's JSON form."""
    details = verdict_json.get("details") or {}
    out = {"outcome": verdict_json["outcome"], "witness": verdict_json["witness"]}
    for name in PINNED_DETAILS:
        if name in details:
            out[name] = details[name]
    return out


def _dipurge(nif, system, trace, domain, start) -> Tuple[str, ...]:
    """Intransitive purge, recomputed from the definition: keep an action iff
    its domain may, at the current state, reach a source of the rest; the
    state advances only over kept actions."""
    sig = system.signature

    def sources(suffix, state):
        if not suffix:
            return {domain}
        inner = sources(suffix[1:], nif.model.step(system, state, suffix[0]))
        d = sig.domain_of(suffix[0])
        if any(nif.model.permits(system, state, d, v) for v in inner):
            return inner | {d}
        return inner

    out = []
    state = start
    for i, a in enumerate(trace):
        if sig.domain_of(a) in sources(trace[i:], state):
            out.append(a)
            state = nif.model.step(system, state, a)
    return tuple(out)


def replay(nif, system, verdict_json: dict) -> Optional[str]:
    """None if the INSECURE witness shows a real difference, else a reason."""
    prop = verdict_json["property"]
    w = verdict_json["witness"]
    details = verdict_json.get("details") or {}
    run, obs, trees = nif.model.run, system.obs, nif.trees
    depth = verdict_json.get("depth")

    def differs(u, x, y, start=None) -> bool:
        return obs[(u, run(system, x, start=start))] != obs[(u, run(system, y, start=start))]

    if w is None:
        return "INSECURE verdict without a witness"
    if prop in ("ta-permissive", "ta-static", "ta-prohibitive", "unwinding"):
        x, y, u = tuple(w[0]), tuple(w[1]), w[2]
        if x == y or depth is not None and max(len(x), len(y)) > depth:
            return f"witness traces {x} {y} are equal or too long"
        if not differs(u, x, y):
            return f"{u} sees the same at the end of {x} and {y}"
        if prop == "ta-permissive" and trees.ta_may(system, x, u) != trees.ta_may(system, y, u):
            return f"{x} and {y} have different permissive trees for {u}"
        if prop == "ta-static":
            e0 = system.edges[system.initial]
            tree = lambda t: trees.ta_static(system.signature, e0, t, u)
            if tree(x) != tree(y):
                return f"{x} and {y} have different static trees for {u}"
        return None
    if prop == "purge":
        t, u = tuple(w[0]), w[1]
        purged = tuple(details.get("purged", ()))
        if not differs(u, t, purged):
            return f"{u} sees the same after {t} and its purge {purged}"
        return None
    if prop == "intransitive-purge":
        start, x, y, u = w[0], tuple(w[1]), tuple(w[2]), w[3]
        if start not in system.states:
            return f"start state {start!r} is not a state of the system"
        if not differs(u, x, y, start=start):
            return f"{u} sees the same after {x} and {y} from {start}"
        common = tuple(details.get("common_purge", ()))
        for t in (x, y):
            if _dipurge(nif, system, t, u, start) != common:
                return f"purge of {t} for {u} is not {common}"
        return None
    if prop == "locality":
        x, y, u, v = tuple(w[0]), tuple(w[1]), w[2], w[3]
        for d in (u, v):
            if trees.ta_may(system, x, d) != trees.ta_may(system, y, d):
                return f"{x} and {y} have different permissive trees for {d}"
        permits = nif.model.permits
        if permits(system, run(system, x), u, v) == permits(system, run(system, y), u, v):
            return f"edge {u}->{v} agrees at the ends of {x} and {y}"
        return None
    return f"no replay rule for property {prop!r}"


def judge(
    nif,
    verdicts: List[dict],
    properties: Tuple[str, ...],
    expected: Optional[dict],
    load_system: Callable[[], object],
) -> List[str]:
    """Problems with one check's verdicts, one string per failed verdict.

    ``expected`` maps CLI property names to pinned entries; None means the
    input is generated and every verdict must be ``INSECURE``.
    """
    problems = []
    if len(verdicts) != len(properties):
        return [f"{p}: no verdict" for p in properties]
    for prop, vj in zip(properties, verdicts):
        got = summarize(vj)
        if expected is None:
            if got["outcome"] != "INSECURE":
                problems.append(f"{prop}: {got['outcome']}, expected INSECURE")
                continue
        elif prop not in expected:
            problems.append(f"{prop}: no expected entry")
            continue
        elif got != expected[prop]:
            problems.append(f"{prop}: got {got}, expected {expected[prop]}")
            continue
        if got["outcome"] == "INSECURE":
            reason = replay(nif, load_system(), vj)
            if reason is not None:
                problems.append(f"{prop}: witness does not replay: {reason}")
    return problems
