"""Time-to-verdict benchmark for nifcheck.

    python3 nifbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1

Closed loop, one client: a single fresh worker process issues one
``nifcheck.run_checks`` call at a time, in whole passes over the workload,
for about S seconds.  Before it, ``SETUP_SAMPLES`` workers only start,
import nifcheck and write the inputs, so set-up time is a median.  With
``all`` the workloads run one after another, each with its own report.  Every
verdict is checked against ``expected.json`` and every ``INSECURE`` witness
is replayed.

With ``--trace 0`` the last line reports the end-to-end metrics:

* ``wall_s``: median pass time, first ``run_checks`` call to last verdict;
* ``setup_s``: median time from worker start to ready for the first check;
* ``peak_rss_mb``: ``ru_maxrss`` of the measuring worker after its first pass.

With ``--trace 1`` the worker spends half the time untraced and half with
spans installed, and the last line reports the per-layer metrics of the
traced passes plus the tracing overhead.  Failed verdicts over attempted
ones (``fail_ratio``) are printed on their own line and carried by the
``attempted`` and ``failed`` fields.  Spans and full results are written
under ``nifbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKDIR = BENCH / "work"
SETUP_SAMPLES = 7  # including the measuring worker's own start
WORKER_TIMEOUT = 170.0
sys.path.insert(0, str(ROOT))

from nifbench.workloads import WORKLOADS  # noqa: E402


class BenchError(RuntimeError):
    pass


def start_worker(mode: str, workload: str, args, deadline: float):
    """Start a worker and wait for READY; returns (process, set-up seconds)."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(BENCH / "worker.py"), mode, workload,
         str(args.seed), str(args.seconds), str(args.trace), str(WORKDIR)],
        stdout=subprocess.PIPE,
        text=True,
        cwd=ROOT,
    )
    line = proc.stdout.readline()
    setup = time.perf_counter() - t0
    if line.strip() != "READY":
        finish(proc, deadline)
        raise BenchError(f"worker did not get ready (exit {proc.returncode})")
    return proc, setup


def finish(proc, deadline: float) -> str:
    """Rest of the worker's output; kills it if it outlives the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(deadline - time.perf_counter(), 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchError("worker timed out") from None
    return out


def metric(value, unit):
    return {"value": value, "unit": unit}


def run_workload(workload: str, args) -> dict:
    """Run one workload, print its report, return the result line."""
    load = os.getloadavg()
    deadline = time.perf_counter() + WORKER_TIMEOUT
    setups = []
    for _ in range(SETUP_SAMPLES - 1):
        proc, setup = start_worker("setup", workload, args, deadline)
        finish(proc, deadline)
        setups.append(setup)
    proc, setup = start_worker("measure", workload, args, deadline)
    setups.append(setup)
    out = finish(proc, deadline)
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}")
    result = json.loads(out.strip().splitlines()[-1])

    env = {**result["env"], "loadavg_start": load}
    wall = statistics.median(result["walls"])
    attempted, failed = result["attempted"], result["failed"]
    print(f"workload {workload}  seed {args.seed}  closed loop, 1 client")
    print("env " + json.dumps(env))
    print(f"fail_ratio {failed / attempted:.4f} ratio ({failed} failed of {attempted} verdicts)")
    for problem in result["problems"]:
        print("  " + problem)
    if args.trace:
        traced = statistics.median(result["traced_walls"])
        metrics = {
            name: metric(value, layer_unit(name)) for name, value in result["layers"].items()
        }
        metrics["untraced_wall_s"] = metric(wall, "s")
        metrics["traced_wall_s"] = metric(traced, "s")
        metrics["trace_overhead_s"] = metric(traced - wall, "s")
        print(f"spans written to {result['span_file']}")
    else:
        metrics = {
            "wall_s": metric(wall, "s"),
            "setup_s": metric(statistics.median(setups), "s"),
            "peak_rss_mb": metric(result["peak_rss_mb"], "MB"),
        }
        print(f"wall_s {wall:.4f} s  (median of {len(result['walls'])} passes)")
        print(f"setup_s {metrics['setup_s']['value']:.4f} s  (median of {len(setups)} starts)")
        print(f"peak_rss_mb {result['peak_rss_mb']:.1f} MB")
    record = {"workload": workload, "seed": args.seed, "trace": args.trace,
              "env": env, "setups": setups, **result}
    (WORKDIR / f"result-{workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1)
    )
    return {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",),
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "nifcheck" / "__init__.py").is_file():
        print(f"error: no nifcheck sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    WORKDIR.mkdir(exist_ok=True)
    for workload in WORKLOADS if args.workload == "all" else (args.workload,):
        try:
            line = run_workload(workload, args)
        except (BenchError, OSError, ValueError, IndexError) as exc:
            print(f"error: {workload}: {exc}", file=sys.stderr)
            return 1
        print(json.dumps(line), flush=True)
    return 0


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
