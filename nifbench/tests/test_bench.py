"""Tests of the benchmark itself: verdict checking, input generation, spans.

Run with ``python3 -m pytest nifbench/tests``.
"""

import dataclasses
import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import nifcheck
from nifbench import verify, workloads
from nifbench.worker import judge_pass, run_pass
from nifbench.workloads import Check

ROOT = Path(__file__).resolve().parents[2]

FIGURE1 = Check("figure1.nif", workloads.ALL_BUT_GK, 6)


@pytest.fixture(scope="module")
def figure1_run(tmp_path_factory):
    indir = tmp_path_factory.mktemp("inputs")
    (indir / "figure1.nif").write_text((workloads.CORPUS / "figure1.nif").read_text())
    _, results = run_pass(nifcheck, [FIGURE1], str(indir))
    return str(indir), results


def fail_ratio(indir, results, expected):
    attempted, failed, problems = judge_pass(
        nifcheck, expected, "python-paths", 0, indir, results, {}
    )
    return failed / attempted, problems


def test_expected_file_pins_the_acceptance_witnesses():
    fixed = verify.load_expected()["fixed"]
    f1, f2, f3, f4 = (fixed[f"figure{i}.nif@6"] for i in (1, 2, 3, 4))
    assert f1["unwinding"]["witness"] == [["p", "a"], ["a"], "B"]
    assert f1["lpurge"] == {"outcome": "INSECURE", "witness": [["p", "a"], "B"], "purged": ["a"]}
    assert f1["mayta"]["outcome"] == "BOUNDED_SECURE"
    assert fixed["figure2.nif:dotted@6"]["lpurge"]["witness"] == [["h", "d"], "L"]
    assert f2["lpurge"]["outcome"] == "BOUNDED_SECURE"
    assert f3["isec"]["witness"] == ["s0", ["h", "d"], ["d"], "L"]
    assert f3["unwinding"]["outcome"] == f3["locality"]["outcome"] == "BOUNDED_SECURE"
    f4_8 = fixed["figure4.nif@8"]
    assert f4_8["mayta"]["outcome"] == "BOUNDED_SECURE"
    assert f4_8["locality"]["witness"] == [["a", "b"], ["b", "a"], "A", "B"]
    assert fixed["figure4.nif:primed@8"]["mayta"]["witness"] == [["a", "b", "a"], ["b", "a", "a"], "B"]
    cap = fixed["cap-d4.cap@4"]
    assert cap["drm"]["outcome"] == "CERTIFIED_SECURE"
    assert cap["locality"]["outcome"] == cap["unwinding"]["outcome"] == "BOUNDED_SECURE"
    assert f4["ta"]["outcome"] == "INSECURE"


def test_untampered_expectations_pass(figure1_run):
    ratio, problems = fail_ratio(*figure1_run, verify.load_expected())
    assert ratio == 0, problems


def test_tampered_expectation_raises_fail_ratio(figure1_run):
    expected = verify.load_expected()
    entry = expected["fixed"][FIGURE1.key]
    entry["unwinding"] = dict(entry["unwinding"], witness=[["a"], [], "B"])
    ratio, problems = fail_ratio(*figure1_run, expected)
    assert ratio > 0
    assert any("unwinding" in p for p in problems)


def test_non_replaying_witness_raises_fail_ratio(figure1_run):
    indir, results = figure1_run
    check, verdicts = results[0]
    props = list(check.properties)
    i = props.index("locality")
    # A pair whose ends agree on the A-to-B edge, pinned as if it were right,
    # so only the replay can reject it.
    forged = dataclasses.replace(verdicts[i], witness=((), ("a",), "A", "B"))
    expected = verify.load_expected()
    expected["fixed"][check.key]["locality"] = verify.summarize(forged.to_json())
    tampered = [(check, verdicts[:i] + (forged,) + verdicts[i + 1 :])]
    ratio, problems = fail_ratio(indir, tampered, expected)
    assert ratio > 0
    assert any("does not replay" in p for p in problems)


def test_raising_check_counts_every_property_as_failed(tmp_path):
    _, results = run_pass(nifcheck, [Check("missing.nif", ("ta", "mayta"), 3)], str(tmp_path))
    attempted, failed, _ = judge_pass(
        nifcheck, {}, "python-paths", 0, str(tmp_path), results, {}
    )
    assert attempted == failed == 2


def digest(workload, seed):
    files, checks = workloads.make_inputs(workload, seed)
    blob = json.dumps([sorted(files.items()), [dataclasses.astuple(c) for c in checks]])
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_seed_is_the_only_source_of_variation(workload):
    first = digest(workload, 7)
    random.seed(12345)  # global random state must not leak into the inputs
    assert digest(workload, 7) == first
    code = (
        "import sys; sys.path[:0] = [sys.argv[1], sys.argv[1] + '/src'];"
        "from nifbench.tests.test_bench import digest;"
        f"print(digest({workload!r}, 7))"
    )
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run(
            [sys.executable, "-c", code, str(ROOT)], env=env, capture_output=True, text=True,
            check=True,
        )
        assert out.stdout.strip() == first
    if workload == "random-insecure":
        assert digest(workload, 8) != first
    else:
        assert digest(workload, 8) == first


@pytest.mark.parametrize("seed", range(5))
def test_planted_leak_makes_every_random_property_insecure(seed):
    ta_may, run, permits = nifcheck.ta_may, nifcheck.run, nifcheck.permits
    for generated in workloads.random_systems(seed):
        system = nifcheck.parse_document(generated.text()).base
        d0, d1 = "d0", "d1"
        h, l = ("a0",), ("a1",)
        # ta, mayta, unwinding: h is not passed to d1 but d1 sees it.
        assert not permits(system, system.initial, d0, d1)
        assert system.obs[(d1, run(system, h))] != system.obs[(d1, system.initial)]
        assert ta_may(system, h, d1) == ta_may(system, (), d1)
        # locality: d0 and d1 cannot tell "h l" from "l h", the edge differs.
        x, y = h + l, l + h
        assert ta_may(system, x, d0) == ta_may(system, y, d0)
        assert ta_may(system, x, d1) == ta_may(system, y, d1)
        assert permits(system, run(system, x), d0, d1) != permits(system, run(system, y), d0, d1)


def test_traced_pass_reports_layers(tmp_path):
    """Installing spans patches nifcheck, so it runs in its own process."""
    code = """
import json, sys
sys.path[:0] = [sys.argv[1], sys.argv[1] + "/src"]
import nifcheck
from nifbench.tracing import Tracer
from nifbench.worker import run_pass
from nifbench.workloads import ALL_BUT_GK, CORPUS, Check
open(sys.argv[2] + "/figure1.nif", "w").write((CORPUS / "figure1.nif").read_text())
tracer = Tracer()
tracer.install(nifcheck)
run_pass(nifcheck, [Check("figure1.nif", ALL_BUT_GK, 6)], sys.argv[2])
print(json.dumps({"layers": tracer.pass_metrics(), "spans": tracer.spans}))
"""
    out = subprocess.run(
        [sys.executable, "-c", code, str(ROOT), str(tmp_path)],
        capture_output=True, text=True, check=True,
    )
    got = json.loads(out.stdout)
    layers, spans = got["layers"], got["spans"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]
    run_level = {"untraced_wall_s", "traced_wall_s", "trace_overhead_s"}
    assert set(layers) | run_level == {m["name"] for m in declared}
    for prop in workloads.ALL_BUT_GK:
        assert layers[f"property.{prop}_s"] > 0
    assert layers["traceindex.ta_labels_calls"] >= 3  # ta, mayta, locality
    assert layers["traceindex.builds"] >= layers["traceindex.ta_labels_calls"]
    assert layers["traceindex.trace_of_calls"] > 0
    assert layers["model.step_calls"] > 0
    assert layers["checkers.self_s"] > 0
    assert layers["unwinding.theorem_s"] > 0
    assert 0 < layers["traceindex.intern_ratio"] <= 1
    by_id = {s["id"]: s for s in spans}
    for s in spans:
        assert s["end"] >= s["start"]
        assert 0 <= s["child_s"] <= s["end"] - s["start"] + 1e-6
        if s["parent"] is not None and not s["name"].startswith("property."):
            assert s["group"] == by_id[s["parent"]]["group"]
    groups = {s["group"] for s in spans if s["name"].startswith("property.")}
    assert len(groups) == len(workloads.ALL_BUT_GK)
