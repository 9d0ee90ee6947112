"""Workloads of the time-to-verdict benchmark and their seeded inputs.

A workload is a list of checks, each one ``run_checks(path, properties,
depth)`` call over an input file.  ``make_inputs`` returns the file texts
and the checks; it reads nothing but the seed and the corpus files shipped
with the program, so the same seed always gives the same inputs.

* ``cap-d4`` is the capability system of ``twoproc.cap`` at depth 4 with the
  default capability properties.  Its ``send_cap`` actions are left out
  (38 actions, 2.1M traces instead of 62 actions and 15M traces): the full
  alphabet takes about 90 s and 2.3 GB per verdict set, which does not fit
  a benchmark run.  Every verdict is secure; permissive labelling
  (interning) dominates and witness extraction does nothing.
* ``random-insecure`` is a set of seeded random dynamic-policy systems in
  which a planted leak makes every verdict ``INSECURE``, so the python
  witness path does most of the work.
* ``python-paths`` is the corpus figures under every property except
  ``gk``, plus a three-process capability system under the purge and
  prohibitive-tree properties, which run on per-trace python code.

Only ``random-insecure`` depends on the seed; the other two are fixed.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, List, Optional, Tuple

WORKLOADS = ("cap-d4", "random-insecure", "python-paths")

CORPUS = Path(__file__).resolve().parent.parent / "src" / "nifcheck" / "corpus"

CAP_D4_KINDS = "kinds: data add_cap drop_cap add_tag remove_tag send_message_to\n"

THREE_PROCESS_CAP = """\
processes: p q r
tags: n
messages: 0 1
caps: p n+ n-
caps: q n+
kinds: data add_tag remove_tag send_message_to
"""

# Every property the CLI knows except gk, which needs an administering domain.
ALL_BUT_GK = (
    "ta",
    "mayta",
    "mustta",
    "unwinding",
    "locality",
    "static",
    "lpurge",
    "isec",
    "drm",
    "theorem-mustunwind",
)
CORPUS_INPUTS = (
    ("figure1.nif", None),
    ("figure2.nif", None),
    ("figure2.nif", "dotted"),
    ("figure3.nif", None),
    ("figure4.nif", None),
    ("figure4.nif", "primed"),
)
CORPUS_DEPTHS = (6, 8)

RANDOM_PROPERTIES = ("ta", "mayta", "locality", "unwinding")
# (domains, actions, depth): a few hundred thousand traces each.  The shapes
# are fixed so that the seed varies the tables, not the amount of work.
RANDOM_SHAPES = ((2, 8, 6), (3, 12, 5), (4, 20, 4))
RANDOM_STATES = 48
EDGE_PROBABILITY = 0.5


@dataclass(frozen=True)
class Check:
    """One ``run_checks`` call of a workload."""

    path: str
    properties: Tuple[str, ...]
    depth: int
    variant: Optional[str] = None

    @property
    def key(self) -> str:
        """Names the (input, depth) pair in the expected-answer file."""
        name = self.path if self.variant is None else f"{self.path}:{self.variant}"
        return f"{name}@{self.depth}"


@dataclass(frozen=True)
class RandomSystem:
    """Tables of one generated system; states, actions and domains are
    numbered and written as ``s<i>``, ``a<j>`` and ``d<k>``."""

    n_domains: int
    depth: int
    dom: Tuple[int, ...]
    trans: Tuple[Tuple[int, ...], ...]
    obs: Tuple[Tuple[int, ...], ...]  # obs[domain][state]
    edges: Tuple[frozenset, ...]  # edges[state] = {(u, v), ...}, u != v

    def text(self) -> str:
        lines = [
            "domains: " + " ".join(f"d{k}" for k in range(self.n_domains)),
            "actions: " + " ".join(f"a{j}@d{d}" for j, d in enumerate(self.dom)),
            "states: " + " ".join(f"s{i}" for i in range(len(self.trans))),
            "initial: s0",
        ]
        for i, row in enumerate(self.trans):
            lines += [f"trans: s{i} a{j} s{t}" for j, t in enumerate(row)]
        for k, row in enumerate(self.obs):
            lines += [f"obs: s{i} d{k} {v}" for i, v in enumerate(row)]
        for i, pairs in enumerate(self.edges):
            lines += [f"edge: s{i} d{u} d{v}" for u, v in sorted(pairs)]
        return "\n".join(lines) + "\n"


def random_system(rng: random.Random, n_domains: int, n_actions: int, depth: int) -> RandomSystem:
    """Dense random system with a leak planted for every random property.

    The seed draws the transitions, the observations and the edges at every
    state but s0.  Actions go to domains round robin, domain k observes
    2 + k % 2 values, and s0 has every edge but those between d0 and d1:
    the static reading (``ta``) sees only the edges at s0, so a random edge
    set there would swing the amount of work from seed to seed.

    Domain d0 acts with a0 ("h") and d1 with a1 ("l").  The plant:

    * no d0-to-d1 edge at s0 and d1's observation changes on s0 -h-> s1, so
      ``h`` and the empty trace have the same permissive and static trees
      and the same closure class for d1 but look different: ``ta``,
      ``mayta`` and ``unwinding`` are insecure;
    * ``h l`` ends in s3 and ``l h`` in s4, neither action reaches the other
      domain on the way, and the d0-to-d1 edge holds at s3 but not at s4:
      ``locality`` is insecure.
    """
    n = RANDOM_STATES
    dom = [j % n_domains for j in range(n_actions)]
    values = [2 + k % 2 for k in range(n_domains)]
    trans = [[rng.randrange(n) for _ in range(n_actions)] for _ in range(n)]
    obs = [[rng.randrange(values[k]) for _ in range(n)] for k in range(n_domains)]
    pairs = [(u, v) for u in range(n_domains) for v in range(n_domains) if u != v]
    edges = [{p for p in pairs if rng.random() < EDGE_PROBABILITY} for _ in range(n)]

    trans[0][0], trans[0][1] = 1, 2
    trans[1][1], trans[2][0] = 3, 4
    obs[1][1] = (obs[1][0] + 1) % values[1]
    edges[0] = set(pairs) - {(0, 1), (1, 0)}
    edges[1].discard((1, 0))
    edges[2].discard((0, 1))
    edges[3].add((0, 1))
    edges[4].discard((0, 1))
    return RandomSystem(
        n_domains=n_domains,
        depth=depth,
        dom=tuple(dom),
        trans=tuple(tuple(r) for r in trans),
        obs=tuple(tuple(r) for r in obs),
        edges=tuple(frozenset(e) for e in edges),
    )


def random_systems(seed: int) -> List[RandomSystem]:
    rng = random.Random(seed)
    return [random_system(rng, *shape) for shape in RANDOM_SHAPES]


def make_inputs(workload: str, seed: int) -> Tuple[Dict[str, str], List[Check]]:
    """File texts by name, and the checks to run over them, in order."""
    if workload == "cap-d4":
        text = (CORPUS / "twoproc.cap").read_text() + CAP_D4_KINDS
        return {"cap-d4.cap": text}, [Check("cap-d4.cap", ("drm", "locality", "unwinding"), 4)]
    if workload == "random-insecure":
        files: Dict[str, str] = {}
        checks: List[Check] = []
        for i, system in enumerate(random_systems(seed)):
            name = f"random{i}.nif"
            files[name] = system.text()
            checks.append(Check(name, RANDOM_PROPERTIES, system.depth))
        return files, checks
    if workload == "python-paths":
        files = {name: (CORPUS / name).read_text() for name, _ in CORPUS_INPUTS}
        files["three.cap"] = THREE_PROCESS_CAP
        checks = [
            Check(name, ALL_BUT_GK, depth, variant)
            for name, variant in CORPUS_INPUTS
            for depth in CORPUS_DEPTHS
        ]
        checks.append(Check("three.cap", ("lpurge", "mustta", "theorem-mustunwind"), 3))
        return files, checks
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
