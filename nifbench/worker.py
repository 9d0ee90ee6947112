"""One benchmark worker: import nifcheck, write the inputs, run the checks.

The worker prints ``READY`` once nifcheck is imported and the inputs are
written; ``run.py`` times set-up from process start to that line.  In
``measure`` mode it then runs whole passes over the workload's checks, one
``run_checks`` call at a time, and prints one JSON line with the pass times,
the verdict tally, the peak RSS after the first pass and (when tracing)
per-layer metrics.

Usage: python3 nifbench/worker.py MODE WORKLOAD SEED SECONDS TRACE WORKDIR
"""

from __future__ import annotations

import json
import os
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
sys.path.insert(0, str(ROOT))

from nifbench import verify, workloads  # noqa: E402
from nifbench.tracing import Tracer  # noqa: E402


def import_nifcheck():
    """nifcheck from this checkout's sources, never an installed copy."""
    sys.path.insert(0, str(SRC))
    import nifcheck

    where = Path(nifcheck.__file__).resolve()
    if SRC.resolve() not in where.parents:
        raise ImportError(f"nifcheck was imported from {where}, not from {SRC}")
    return nifcheck


def run_pass(nif, checks, indir: str):
    """Time one pass; returns (seconds, [(check, verdicts or the error it
    raised)])."""
    cli = nif.cli  # looked up per call, so tracing wrappers apply
    results = []
    t0 = time.perf_counter()
    for check in checks:
        try:
            report = cli.run_checks(
                os.path.join(indir, check.path),
                check.properties,
                check.depth,
                flags={"variant": check.variant},
            )
            results.append((check, report.verdicts))
        except Exception as exc:  # a raising check is a failed verdict
            results.append((check, f"{type(exc).__name__}: {exc}"))
    return time.perf_counter() - t0, results


def judge_pass(nif, expected, workload, seed, indir, results, systems):
    """(verdicts attempted, verdicts failed, problems) of one pass."""
    attempted = failed = 0
    problems = []
    for check, verdicts in results:
        attempted += len(check.properties)
        if isinstance(verdicts, str):
            failed += len(check.properties)
            problems.append(f"{check.key}: raised {verdicts}")
            continue

        def load(check=check):
            if check.key not in systems:
                path = os.path.join(indir, check.path)
                text = Path(path).read_text()
                if path.endswith(".cap"):
                    config = nif.formats.parse_cap_config(text)
                    systems[check.key] = nif.capability.build_pes(config, check.depth)
                else:
                    systems[check.key] = nif.formats.parse_document(text).select(check.variant)
            return systems[check.key]

        found = verify.judge(
            nif,
            [v.to_json() for v in verdicts],
            check.properties,
            verify.expected_for(expected, workload, seed, check.key),
            load,
        )
        failed += len(found)
        problems += [f"{check.key} {p}" for p in found]
    return attempted, failed, problems


def passes(nif, checks, indir, budget, on_pass):
    """Whole passes until the next one would end after ``budget`` seconds;
    at least one."""
    walls = []
    t0 = time.perf_counter()
    while True:
        wall, results = run_pass(nif, checks, indir)
        walls.append(wall)
        on_pass(results)
        if time.perf_counter() - t0 + statistics.median(walls) > budget:
            return walls


def main(argv) -> int:
    mode, workload, seed, seconds, trace, workdir = argv
    seed, seconds, trace = int(seed), float(seconds), trace == "1"
    nif = import_nifcheck()
    files, checks = workloads.make_inputs(workload, seed)
    indir = tempfile.mkdtemp(prefix="inputs-", dir=workdir)
    try:
        for name, text in files.items():
            Path(indir, name).write_text(text)
        print("READY", flush=True)
        if mode == "setup":
            return 0

        import numpy

        expected = verify.load_expected()
        systems = {}
        tally = {"attempted": 0, "failed": 0, "problems": []}

        out = {}

        def on_pass(results):
            # Later passes reuse a heap the first one fragmented, so their
            # high-water mark depends on how many passes fit in the run.
            out.setdefault("peak_rss_mb", resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
            a, f, p = judge_pass(nif, expected, workload, seed, indir, results, systems)
            tally["attempted"] += a
            tally["failed"] += f
            tally["problems"] += p

        out["env"] = {
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
            "nproc": os.cpu_count(),
        }
        if not trace:
            out["walls"] = passes(nif, checks, indir, seconds, on_pass)
        else:
            out["walls"] = passes(nif, checks, indir, seconds / 2, on_pass)
            tracer = Tracer()
            tracer.install(nif)
            layers = []

            def on_traced_pass(results):
                layers.append(tracer.pass_metrics())
                on_pass(results)
                tracer.reset_pass()

            out["traced_walls"] = passes(nif, checks, indir, seconds / 2, on_traced_pass)
            out["layers"] = {
                name: statistics.median(p[name] for p in layers) for name in layers[0]
            }
            span_file = Path(workdir, f"spans-{workload}-seed{seed}.json")
            tracer.dump(span_file, {"workload": workload, "seed": seed, "env": out["env"]})
            out["span_file"] = str(span_file)
        out.update(tally, problems=tally["problems"][:20])
        print(json.dumps(out), flush=True)
        return 0
    finally:
        shutil.rmtree(indir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
