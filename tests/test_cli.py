"""The command-line surface: reports, exit codes, JSON shape, replay."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import nifcheck.capability
import nifcheck.cli
from nifcheck import InputError, run_checks
from nifcheck.cli import _show_witness, main


@pytest.fixture(scope="session")
def fig1(corpus_dir):
    return str(corpus_dir / "figure1.nif")


@pytest.fixture(scope="session")
def fig2(corpus_dir):
    return str(corpus_dir / "figure2.nif")


@pytest.fixture(scope="session")
def cap(corpus_dir):
    return str(corpus_dir / "twoproc.cap")


@pytest.fixture(scope="session")
def trace(corpus_dir):
    return str(corpus_dir / "narrative.trace")


class TestRunChecks:
    def test_default_properties_for_system_files(self, fig1):
        report = run_checks(fig1)
        assert [v.property for v in report.verdicts] == [
            "ta-permissive",
            "unwinding",
            "purge",
        ]
        assert report.verdicts[0].outcome == "BOUNDED_SECURE"
        assert report.verdicts[1].outcome == "INSECURE"
        assert report.verdicts[1].witness == (("p", "a"), ("a",), "B")
        # the channel through p is fine permissively but purge flattens it
        assert report.verdicts[2].outcome == "INSECURE"
        assert not report.all_pass
        assert report.depth == 6

    def test_timing_covers_each_property_plus_total(self, fig1):
        report = run_checks(fig1, properties=("mayta", "static"), depth=3)
        assert set(report.timing) == {"mayta", "static", "total"}
        assert all(t >= 0 for t in report.timing.values())

    def test_capability_system_is_built_once(self, cap, monkeypatch):
        calls = []
        build = nifcheck.capability.build_pes

        def counting(config, depth):
            calls.append(depth)
            return build(config, depth)

        monkeypatch.setattr(nifcheck.cli, "build_pes", counting)
        monkeypatch.setattr(nifcheck.capability, "build_pes", counting)
        report = run_checks(cap, properties=("drm",), depth=1)
        assert report.verdicts[0].property == "access-control"
        assert calls == [1]

    def test_checkers_are_looked_up_when_called(self, cap, monkeypatch):
        # A wrapper set on a checker's name in nifcheck.cli, as the
        # benchmark's tracer sets one, is what run_checks calls.
        calls = []

        def recording(name):
            fn = getattr(nifcheck.cli, name)

            def wrapper(*args):
                calls.append(name)
                return fn(*args)

            return wrapper

        for name in ("check_locality", "_drm_verdict"):
            monkeypatch.setattr(nifcheck.cli, name, recording(name))
        report = run_checks(cap, properties=("locality", "drm"), depth=1)
        assert calls == ["check_locality", "_drm_verdict"]
        assert [v.property for v in report.verdicts] == ["locality", "access-control"]

    def test_default_properties_for_capability_files(self, cap):
        report = run_checks(cap, depth=2)
        assert [v.property for v in report.verdicts] == [
            "access-control",
            "locality",
            "unwinding",
        ]
        assert report.all_pass
        assert any("149 states" in note for note in report.notes)

    def test_variant_selection_is_recorded(self, fig2):
        report = run_checks(fig2, properties=("mayta",), flags={"variant": "dotted"})
        assert "variant 'dotted' selected" in report.notes

    def test_unknown_property_rejected(self, fig1):
        with pytest.raises(InputError) as err:
            run_checks(fig1, properties=("sparkle",))
        assert "unknown property" in str(err.value)

    def test_gk_needs_a_domain(self, fig1):
        with pytest.raises(InputError) as err:
            run_checks(fig1, properties=("gk",))
        assert "--gk-domain" in str(err.value)

    def test_bad_property_lists_fail_before_any_work(self, cap, fig1, monkeypatch):
        def refuse(*args):
            raise AssertionError("ran before the property list was checked")

        monkeypatch.setattr(nifcheck.cli, "build_pes", refuse)
        monkeypatch.setattr(nifcheck.cli, "parse_cap_config", refuse)
        with pytest.raises(InputError, match="unknown property"):
            run_checks(cap, ["bogus"], 4)
        monkeypatch.setattr(nifcheck.cli, "check_ta_static_security", refuse)
        with pytest.raises(InputError, match="--gk-domain"):
            run_checks(fig1, ["ta", "gk"], 3)
        with pytest.raises(InputError, match="unknown property"):
            run_checks("no/such/file.nif", ["ta", "bogus"])
        with pytest.raises(InputError, match="nonnegative integer"):
            run_checks("no/such/file.nif", ["ta"], -1)
        with pytest.raises(InputError, match="no variants"):
            run_checks("no/such/file.cap", flags={"variant": "open"})
        monkeypatch.setattr(nifcheck.cli, "check_unwinding_security", refuse)
        with pytest.raises(InputError, match="0 <= margin < depth"):
            run_checks(fig1, ("unwinding", "theorem-mustunwind"), 6, flags={"margin": 9})

    @pytest.mark.parametrize("margin", [1.5, 1.7, True, "x", None])
    def test_margin_must_be_an_int(self, fig1, margin, monkeypatch):
        def refuse(*args):
            raise AssertionError("ran before the margin was checked")

        monkeypatch.setattr(nifcheck.cli, "parse_document", refuse)
        with pytest.raises(InputError, match="0 <= margin < depth"):
            run_checks(fig1, ["theorem-mustunwind"], 3, flags={"margin": margin})

    def test_static_bounds_its_claim_on_a_truncated_system(self, corpus_dir, tmp_path):
        """p mints and adds its tag only at the second step, so at depth 1
        the policy looks static over 7 states, 6 of them truncated."""
        path = tmp_path / "mint.cap"
        path.write_text("processes: p q\ntags: n\nmessages: 0\nkinds: add_cap add_tag\n")
        (bounded,) = run_checks(str(path), properties=("static",), depth=1).verdicts
        assert (bounded.outcome, bounded.depth) == ("BOUNDED_SECURE", 1)
        assert "6 of them are truncated" in bounded.notes[0]
        (changed,) = run_checks(str(path), properties=("static",), depth=2).verdicts
        assert changed.outcome == "INCONCLUSIVE"
        # an input with no truncated state still certifies every depth:
        # figure 1 with its edge at every state
        static = tmp_path / "static.nif"
        static.write_text((corpus_dir / "figure1.nif").read_text() + "edge: s0 A B\n")
        (certified,) = run_checks(str(static), properties=("static",), depth=1).verdicts
        assert (certified.outcome, certified.depth) == ("CERTIFIED_SECURE", None)

    def test_gk_with_domain_runs(self, fig1):
        report = run_checks(
            fig1, properties=("gk",), depth=3, flags={"gk_domain": "A"}
        )
        assert report.verdicts[0].property == "globally-known"

    def test_capability_files_have_no_variants(self, cap):
        with pytest.raises(InputError):
            run_checks(cap, depth=1, flags={"variant": "open"})

    def test_sha256_matches_the_file_bytes(self, fig1):
        report = run_checks(fig1, properties=("static",))
        with open(fig1, "rb") as fh:
            assert report.sha256 == hashlib.sha256(fh.read()).hexdigest()


class TestExitCodes:
    def test_zero_when_everything_passes(self, fig1, capsys):
        assert main([fig1, "--property", "mayta"]) == 0
        assert "ta-permissive: BOUNDED_SECURE" in capsys.readouterr().out

    def test_one_when_a_property_fails(self, fig1, capsys):
        assert main([fig1]) == 1
        out = capsys.readouterr().out
        assert "unwinding: INSECURE" in out

    def test_two_on_missing_file(self, capsys):
        assert main(["no_such_file.nif"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_two_on_unknown_property(self, fig1, capsys):
        assert main([fig1, "--property", "sparkle"]) == 2
        assert "unknown property" in capsys.readouterr().err

    def test_two_on_gk_without_domain(self, fig1, capsys):
        assert main([fig1, "--property", "gk"]) == 2
        assert "--gk-domain" in capsys.readouterr().err

    def test_margin_sets_the_theorems_interior(self, fig1, capsys):
        argv = [fig1, "--property", "theorem-mustunwind", "--depth", "4"]
        assert main(argv + ["--margin", "2"]) == 0
        out = capsys.readouterr().out
        assert "theorem-mustunwind: BOUNDED_SECURE" in out
        assert "traces of length at most 2" in out

    def test_two_on_a_margin_past_the_depth(self, fig1, capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("ran before the margin was checked")

        monkeypatch.setattr(nifcheck.cli, "check_unwinding_security", refuse)
        monkeypatch.setattr(nifcheck.cli, "parse_document", refuse)
        argv = [fig1, "--property", "unwinding,theorem-mustunwind", "--depth", "3"]
        assert main(argv + ["--margin", "3"]) == 2
        assert "0 <= margin < depth" in capsys.readouterr().err

    def test_two_on_a_negative_depth(self, fig1, capsys):
        argv = [fig1, "--depth", "-1", "--property", "gk", "--gk-domain", "A"]
        assert main(argv) == 2
        assert "nonnegative integer" in capsys.readouterr().err

    def test_two_on_unknown_variant(self, fig2, capsys):
        assert main([fig2, "--variant", "nope", "--property", "mayta"]) == 2
        assert "unknown variant" in capsys.readouterr().err

    def test_two_on_malformed_input(self, tmp_path, capsys):
        bad = tmp_path / "broken.nif"
        bad.write_text("domains A B\n")
        assert main([str(bad)]) == 2
        assert "line 1" in capsys.readouterr().err


class TestJsonReport:
    def test_field_order_and_content(self, fig1, capsys):
        code = main([fig1, "--json", "--property", "mayta,unwinding", "--depth", "5"])
        assert code == 1
        data = json.loads(capsys.readouterr().out)
        assert list(data) == [
            "version",
            "input",
            "depth",
            "properties",
            "timing",
            "notes",
        ]
        assert list(data["input"]) == ["path", "sha256"]
        assert data["input"]["path"] == fig1
        assert data["depth"] == 5
        assert [p["property"] for p in data["properties"]] == [
            "ta-permissive",
            "unwinding",
        ]
        assert list(data["properties"][0]) == [
            "property",
            "outcome",
            "witness",
            "depth",
            "notes",
            "details",
        ]
        assert list(data["properties"][1]["details"]["rule_applications"]) == [
            "dlr",
            "wsc",
            "sweeps",
            "regrouped",
        ]

    def test_witnesses_serialize_to_plain_lists(self, fig1, capsys):
        main([fig1, "--json", "--property", "unwinding"])
        data = json.loads(capsys.readouterr().out)
        assert data["properties"][0]["witness"] == [["p", "a"], ["a"], "B"]


class TestTextRendering:
    def test_state_witness_does_not_depend_on_the_hash_seed(self, tmp_path):
        """The isec witness names a start state whose capability set has two
        members; frozensets print in hash order, so the report must render
        states by sorted text for two hash seeds to agree."""
        path = tmp_path / "one-message.cap"
        path.write_text(
            "processes: p q\ntags: n\nmessages: 0\ncaps: p n+ n-\ncaps: q n+\n"
            "kinds: data add_cap drop_cap add_tag remove_tag send_message_to\n"
        )
        src = str(Path(nifcheck.cli.__file__).parents[1])
        reports = []
        for seed in ("0", "5"):
            env = dict(os.environ, PYTHONHASHSEED=seed)
            env["PYTHONPATH"] = os.pathsep.join(filter(None, (src, env.get("PYTHONPATH"))))
            argv = [str(path), "--depth", "4", "--property", "isec", "--json"]
            run = subprocess.run(
                [sys.executable, "-c", "import sys; from nifcheck.cli import main; sys.exit(main())"]
                + argv,
                env=env,
                capture_output=True,
                text=True,
            )
            assert run.returncode == 1, run.stderr
            report = json.loads(run.stdout)
            del report["timing"]
            reports.append(report)
        assert reports[0] == reports[1]
        (verdict,) = reports[0]["properties"]
        assert verdict["outcome"] == "INSECURE"
        assert verdict["witness"][0] == (
            "p: secrecy={-} caps={n+,n-} inbox=[] message=0; "
            "q: secrecy={-} caps={n+} inbox=[] message=0"
        )

    def test_insecure_line_carries_a_compact_witness(self, fig1, capsys):
        main([fig1, "--property", "unwinding"])
        assert "witness (pa, a, B)" in capsys.readouterr().out

    def test_trace_rendering_rules(self):
        assert _show_witness(((), ("a",), "B")) == "((), a, B)"
        assert _show_witness((("go", "a"), "B")) == "(go.a, B)"
        assert _show_witness("plain") == "plain"

    def test_notes_are_indented_under_their_verdict(self, fig1, capsys):
        main([fig1, "--property", "ta"])
        out = capsys.readouterr().out
        assert "ta-static" in out
        assert "\n      " in out


class TestReplay:
    def test_script_replay_marks_ineffective_steps(self, cap, trace, capsys):
        assert main([cap, "--replay", trace]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "p.add_cap(+-,n)"
        assert lines[3] == "p.send_message_to(q)  (no effect)"
        assert lines[5] == "p.send_message_to(q)"
        assert lines[6] == "p: secrecy={n_p} caps={n+,n-,n_p+,n_p-} inbox=[]"
        assert lines[7] == "q: secrecy={n_p} caps={n+,n_p+} inbox=[0]"

    def test_replay_requires_a_cap_input(self, fig1, trace, capsys):
        assert main([fig1, "--replay", trace]) == 2
        assert ".cap" in capsys.readouterr().err
