"""Write ``expected.json`` from the verdicts of the current sources.

    python3 nifbench/record_expected.py

Records every (input, property) pair of the fixed workloads and of the
generated ``random-insecure`` inputs for seeds 0 to 9.  A verdict whose
``INSECURE`` witness does not replay, or a generated input that is not
``INSECURE`` everywhere, stops the recording instead of being pinned.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from nifbench import verify, workloads  # noqa: E402
from nifbench.worker import import_nifcheck, judge_pass, run_pass  # noqa: E402

RECORDED_SEEDS = range(10)


def record(nif, workload: str, seed: int) -> dict:
    files, checks = workloads.make_inputs(workload, seed)
    with tempfile.TemporaryDirectory() as indir:
        for name, text in files.items():
            Path(indir, name).write_text(text)
        _, results = run_pass(nif, checks, indir)
        # Generated inputs are judged against "INSECURE everywhere"; fixed
        # ones only have their witnesses replayed here.
        pinned = {}
        for check, verdicts in results:
            if isinstance(verdicts, str):
                raise SystemExit(f"{check.key} raised {verdicts}")
            pinned[check.key] = {
                p: verify.summarize(v.to_json()) for p, v in zip(check.properties, verdicts)
            }
        table = {} if workload == "random-insecure" else {"fixed": pinned}
        _, failed, problems = judge_pass(nif, table, workload, seed, indir, results, {})
        if failed:
            raise SystemExit("\n".join(problems))
    return pinned


def main() -> int:
    nif = import_nifcheck()
    out = {"fixed": {}, "random-insecure": {}}
    for workload in ("cap-d4", "python-paths"):
        out["fixed"].update(record(nif, workload, 0))
    for seed in RECORDED_SEEDS:
        out["random-insecure"][str(seed)] = record(nif, "random-insecure", seed)
    verify.EXPECTED_PATH.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
