"""Digests of what the checks compute, per named input, so that a change
meant to leave every output as it was can show that it did.

    python tests/identity.py            # compare the small list with identity.json
    python tests/identity.py --full     # compare the full list
    python tests/identity.py --record   # rewrite identity.json from the full list

Each input maps labels to sha256 digests of:

* each ``run_checks`` report JSON, without ``timing`` and the input path,
  for inputs read from a file; the checkers' verdict JSON for generated
  systems;
* ``TraceIndex.ta_labels()``, ``unwinding_roots()`` with its four counters,
  and ``jointly_known(roots)``;
* on the corpus, ``state_unwinding_check`` in both modes and the
  ``check_drm`` report, with and without DRM-5'.

The small list (corpus figures and variants at depth 6, ``twoproc.cap`` at
depths 1 to 3, three small generated systems) runs as a tier-1 test.  The
full list adds the benchmark's inputs (``cap-d4``, ``random-insecure`` seed
1, ``python-paths``), the full ``twoproc.cap`` at depth 4 and an 8-domain
generated system at depth 7.  No digest may depend on ``PYTHONHASHSEED``.
A change that re-records names each changed digest and says why.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import random
import sys
import tempfile
import time
import warnings
from pathlib import Path
from typing import Callable, Dict

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(ROOT / "src"), str(HERE), str(ROOT)]

import nifcheck  # noqa: E402
from nifcheck.cli import run_checks  # noqa: E402
from nifcheck.traceindex import TraceIndex  # noqa: E402
from nifcheck.verdicts import jsonable  # noqa: E402
from nifbench.workloads import make_inputs  # noqa: E402
from oracles import shaped_system  # noqa: E402

RECORD = HERE / "identity.json"
CORPUS = ROOT / "src" / "nifcheck" / "corpus"
FIGURES = (
    ("figure1.nif", None),
    ("figure2.nif", None),
    ("figure2.nif", "dotted"),
    ("figure3.nif", None),
    ("figure4.nif", None),
    ("figure4.nif", "primed"),
)
ALL_BUT_GK = tuple(p for p in nifcheck.cli.PROPERTIES if p != "gk")
CAP_REPORTS = (("drm", "locality", "unwinding"), ("ta", "static"))
# The checkers a generated system goes through; none needs a flag.
SYSTEM_CHECKS = (
    "check_ta_static_security",
    "check_ta_may_security",
    "check_ta_must_security",
    "check_unwinding_security",
    "check_locality",
    "check_lpurge_security",
    "check_i_security",
)
# The full twoproc.cap at depth 4 runs each property in a call of its own.
FULL_SIZE_REPORTS = tuple(
    (p,) for p in ("unwinding", "mustta", "locality", "isec", "theorem-mustunwind")
)
SHAPES = ((1, (10, 6, 2), 6), (2, (12, 8, 3), 5), (3, (16, 6, 4), 5))
MANY_DOMAINS = (3, (8, 8, 8, 3, 0.35), 7)


def digest(value) -> str:
    if isinstance(value, np.ndarray):
        head = f"{value.dtype.str}{value.shape}".encode()
        return hashlib.sha256(head + np.ascontiguousarray(value).tobytes()).hexdigest()
    text = json.dumps(jsonable(value), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def report(path: Path, properties, depth: int, variant=None) -> str:
    out = run_checks(str(path), properties, depth, {"variant": variant}).to_json()
    del out["timing"], out["input"]["path"]
    return digest(out)


def kernels(system, depth: int) -> Dict[str, str]:
    """The kernels' arrays, each dropped once digested."""
    idx = TraceIndex(system, depth)
    out = {"ta_labels": digest(idx.ta_labels())}
    roots, counts = idx.unwinding_roots()
    out["unwinding_roots"] = digest(roots)
    out["rule_counts"] = digest(dict(counts))
    out["jointly_known"] = digest(idx.jointly_known(roots))
    return out


def state_checks(system, structured, depth: int) -> Dict[str, str]:
    out = {
        f"state_unwinding:{mode}": digest(nifcheck.state_unwinding_check(system, mode).to_json())
        for mode in ("box", "diamond")
    }
    for strong in (False, True):
        drm = nifcheck.check_drm(structured, depth, strong_five=strong)
        out[f"check_drm:{strong}"] = digest(drm.to_json())
    return out


def figure(name: str, variant, depth: int) -> Dict[str, str]:
    path = CORPUS / name
    system = nifcheck.parse_document(path.read_text()).select(variant)
    out = {"report": report(path, ALL_BUT_GK, depth, variant)}
    out.update(kernels(system, depth))
    structured = nifcheck.ac_complete_construct(system, depth)
    out.update(state_checks(system, structured, depth))
    return out


def twoproc(depth: int, reports) -> Dict[str, str]:
    """Each tuple of ``reports`` is one ``run_checks`` call."""
    path = CORPUS / "twoproc.cap"
    config = nifcheck.parse_cap_config(path.read_text())
    system = nifcheck.build_pes(config, depth)
    out = {f"report:{','.join(props)}": report(path, props, depth) for props in reports}
    out.update(kernels(system, depth))
    structured = nifcheck.capability_drm_interpretation(config, depth, pes=system)
    out.update(state_checks(system, structured, depth))
    return out


def generated(seed: int, shape, depth: int, checks=SYSTEM_CHECKS) -> Dict[str, str]:
    system = shaped_system(random.Random(seed), *shape)
    out = kernels(system, depth)
    for name in checks:
        out[name] = digest(getattr(nifcheck, name)(system, depth).to_json())
    return out


def workload(name: str, seed: int) -> Dict[str, str]:
    """Every ``run_checks`` call of a benchmark workload, by its check key."""
    files, checks = make_inputs(name, seed)
    with tempfile.TemporaryDirectory() as indir:
        for file, text in files.items():
            Path(indir, file).write_text(text)
        return {
            c.key: report(Path(indir, c.path), c.properties, c.depth, c.variant) for c in checks
        }


SMALL: Dict[str, Callable[[], Dict[str, str]]] = {
    **{
        f"{name}{'' if v is None else ':' + v}@6": (lambda n=name, v=v: figure(n, v, 6))
        for name, v in FIGURES
    },
    **{f"twoproc.cap@{d}": (lambda d=d: twoproc(d, CAP_REPORTS)) for d in (1, 2, 3)},
    **{
        f"shaped{seed}{shape}@{depth}": (lambda s=seed, sh=shape, d=depth: generated(s, sh, d))
        for seed, shape, depth in SHAPES
    },
}
FULL: Dict[str, Callable[[], Dict[str, str]]] = {
    **SMALL,
    "cap-d4": lambda: workload("cap-d4", 0),
    "random-insecure:1": lambda: workload("random-insecure", 1),
    "python-paths": lambda: workload("python-paths", 0),
    "twoproc.cap@4": lambda: twoproc(4, FULL_SIZE_REPORTS),
    f"shaped{MANY_DOMAINS[0]}{MANY_DOMAINS[1]}@{MANY_DOMAINS[2]}": lambda: generated(
        *MANY_DOMAINS, checks=("check_unwinding_security",)
    ),
}


def recorded() -> Dict[str, Dict[str, str]]:
    return json.loads(RECORD.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    group = parser.add_mutually_exclusive_group()
    group.add_argument("--full", action="store_true", help="compare the full list")
    group.add_argument("--record", action="store_true", help="rewrite identity.json")
    args = parser.parse_args(argv)
    inputs = FULL if args.full or args.record else SMALL
    # Some figures fail the permissive check; their access tables warn.
    warnings.simplefilter("ignore", UserWarning)
    got = {}
    for name, compute in inputs.items():
        t0 = time.perf_counter()
        got[name] = compute()
        print(f"{name}: {time.perf_counter() - t0:.2f} s", flush=True)
    if args.record:
        RECORD.write_text(json.dumps(got, indent=1, sort_keys=True) + "\n")
        return 0
    want = recorded()
    changed = [
        f"{name} {label}"
        for name, digests in got.items()
        for label in sorted(set(digests) | set(want.get(name, {})))
        if digests.get(label) != want.get(name, {}).get(label)
    ]
    print(*changed, sep="\n")
    print(f"{len(changed)} of {sum(map(len, got.values()))} digests differ")
    return bool(changed)


if __name__ == "__main__":
    sys.exit(main())
