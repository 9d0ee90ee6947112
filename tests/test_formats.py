"""Text formats: system files with variants, capability configs, scripts."""

import pytest

from conftest import read_corpus
from nifcheck import (
    InputError,
    ParseError,
    build_pes,
    parse_cap_config,
    parse_document,
    parse_system,
    parse_trace,
    print_system,
)

MINIMAL = """\
domains: A B
actions: a@A b@B
states: s0 s1
initial: s0
trans: s0 a s1
obs: s0 A 0
obs: s1 A 1
obs: s0 B x
obs: s1 B x
edge: s0 A B
"""


class TestParseSystem:
    def test_minimal_file(self):
        system = parse_system(MINIMAL)
        assert system.states == ("s0", "s1")
        assert system.initial == "s0"
        assert system.transitions[("s0", "a")] == "s1"
        assert system.obs[("A", "s1")] == 1
        assert system.obs[("B", "s0")] == "x"
        assert system.edges["s0"] == frozenset({("A", "B")})
        assert system.edges["s1"] == frozenset()

    def test_omitted_transitions_are_self_loops(self):
        system = parse_system(MINIMAL)
        assert system.transitions[("s0", "b")] == "s0"
        assert system.transitions[("s1", "a")] == "s1"

    def test_repeating_a_transition_is_fine_if_it_agrees(self):
        text = MINIMAL + "trans: s0 a s1\n"
        assert parse_system(text).transitions[("s0", "a")] == "s1"

    def test_determinism_conflict_names_both_lines(self):
        text = MINIMAL + "trans: s0 a s0\n"
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert err.value.line == 11
        assert "line 5" in str(err.value)
        assert "determinism" in str(err.value)

    def test_conflicting_observation(self):
        text = MINIMAL + "obs: s0 A 9\n"
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert err.value.line == 11
        assert "conflicting observation" in str(err.value)

    def test_missing_observation_is_an_error(self):
        text = MINIMAL.replace("obs: s1 B x\n", "")
        with pytest.raises(ParseError) as err:
            parse_system(text)
        assert "missing observation" in str(err.value)
        assert "'s1'" in str(err.value) and "'B'" in str(err.value)

    def test_unknown_directive(self):
        with pytest.raises(ParseError) as err:
            parse_system(MINIMAL + "frobnicate: yes\n")
        assert err.value.line == 11

    def test_line_without_colon(self):
        with pytest.raises(ParseError) as err:
            parse_system("domains A\n")
        assert err.value.line == 1

    def test_action_token_needs_a_domain(self):
        with pytest.raises(ParseError) as err:
            parse_system(MINIMAL.replace("actions: a@A b@B", "actions: a b@B"))
        assert "name@domain" in str(err.value)

    def test_action_cannot_serve_two_domains(self):
        with pytest.raises(ParseError) as err:
            parse_system(MINIMAL.replace("actions: a@A b@B", "actions: a@A a@B"))
        assert "two domains" in str(err.value)

    def test_undeclared_pieces(self):
        for extra, fragment in [
            ("trans: s0 b s9\n", "undeclared state"),
            ("trans: s1 zap s1\n", "undeclared action"),
            ("edge: s9 A B\n", "undeclared state"),
            ("edge: s0 A Z\n", "undeclared domain"),
            ("obs: s0 Z 0\n", "undeclared domain"),
            ("obs: s9 A 0\n", "undeclared state"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_system(MINIMAL + extra)
            assert fragment in str(err.value)
            assert err.value.line == 11

    def test_structural_omissions(self):
        for cut, fragment in [
            ("domains: A B\n", "no domains"),
            ("states: s0 s1\n", "no states"),
            ("initial: s0\n", "no initial"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_system(MINIMAL.replace(cut, ""))
            assert fragment in str(err.value)

    def test_duplicate_state_name(self):
        with pytest.raises(ParseError) as err:
            parse_system(MINIMAL.replace("states: s0 s1", "states: s0 s1 s0"))
        assert "duplicate state" in str(err.value)

    def test_initial_declared_twice(self):
        with pytest.raises(ParseError) as err:
            parse_system(MINIMAL + "initial: s1\n")
        assert "already declared" in str(err.value)

    def test_comments_and_blank_lines_ignored(self):
        text = "# header\n\n" + MINIMAL + "\n   # trailing\n"
        assert parse_system(text) == parse_system(MINIMAL)


class TestVariants:
    def test_variant_adds_edges_on_top_of_the_base(self):
        text = MINIMAL + "variant open: edge s1 A B\n"
        doc = parse_document(text)
        assert set(doc.variants) == {"open"}
        primed = doc.select("open")
        assert primed.edges["s1"] == frozenset({("A", "B")})
        assert primed.edges["s0"] == doc.base.edges["s0"]
        assert doc.select(None) is doc.base

    def test_unknown_variant_lists_the_declared_ones(self):
        doc = parse_document(MINIMAL + "variant open: edge s1 A B\n")
        with pytest.raises(InputError) as err:
            doc.select("closed")
        assert "open" in str(err.value)

    def test_variant_needs_a_name(self):
        with pytest.raises(ParseError):
            parse_document(MINIMAL + "variant : edge s1 A B\n")

    def test_variant_line_shape(self):
        with pytest.raises(ParseError):
            parse_document(MINIMAL + "variant open: edge s1 A\n")
        with pytest.raises(ParseError):
            parse_document(MINIMAL + "variant open: s1 A B\n")

    def test_variant_edge_errors_name_their_line(self):
        for edge, fragment in [("s9 A B", "undeclared state"), ("s1 A Z", "undeclared domain")]:
            with pytest.raises(ParseError) as err:
                parse_document(MINIMAL + f"variant open: edge {edge}\n")
            assert fragment in str(err.value)
            assert err.value.line == 11

    def test_corpus_variant_counts(self):
        assert set(parse_document(read_corpus("figure2.nif")).variants) == {"dotted"}
        assert set(parse_document(read_corpus("figure4.nif")).variants) == {"primed"}


class TestPrintSystem:
    @pytest.mark.parametrize(
        "name", ["figure1.nif", "figure2.nif", "figure3.nif", "figure4.nif"]
    )
    def test_round_trip_on_the_corpus(self, name):
        base = parse_document(read_corpus(name)).base
        assert parse_document(print_system(base)).base == base

    def test_round_trip_covers_variants(self):
        doc = parse_document(read_corpus("figure2.nif"))
        primed = doc.select("dotted")
        assert parse_document(print_system(primed)).base == primed

    def test_refuses_truncated_systems(self, corpus_dir):
        config = parse_cap_config((corpus_dir / "twoproc.cap").read_text())
        pes = build_pes(config, 1)
        with pytest.raises(InputError) as err:
            print_system(pes)
        assert "truncated" in str(err.value)

    def test_refuses_number_like_string_observations(self):
        system = parse_system(MINIMAL.replace("obs: s0 B x", "obs: s0 B y"))
        forged = type(system)(
            signature=system.signature,
            states=system.states,
            initial=system.initial,
            transitions=system.transitions,
            obs={**system.obs, ("B", "s0"): "7"},
            edges=system.edges,
        )
        with pytest.raises(InputError) as err:
            print_system(forged)
        assert "read back as a number" in str(err.value)

    def test_refuses_structured_observations(self):
        system = parse_system(MINIMAL)
        forged = type(system)(
            signature=system.signature,
            states=system.states,
            initial=system.initial,
            transitions=system.transitions,
            obs={**system.obs, ("B", "s0"): ("tuple", 1)},
            edges=system.edges,
        )
        with pytest.raises(InputError):
            print_system(forged)

    def test_refuses_tokens_with_spaces(self):
        sig_src = MINIMAL.replace("states: s0 s1", "states: s0 s1")
        system = parse_system(sig_src)
        forged = type(system)(
            signature=system.signature,
            states=system.states,
            initial=system.initial,
            transitions=system.transitions,
            obs={**system.obs, ("B", "s0"): "two words"},
            edges=system.edges,
        )
        with pytest.raises(InputError):
            print_system(forged)


class TestCapConfigFormat:
    def test_corpus_config(self, corpus_dir):
        config = parse_cap_config((corpus_dir / "twoproc.cap").read_text())
        assert config.processes == ("p", "q")
        assert config.basic_tags == ("n",)
        assert config.messages == (0, 1)
        assert config.initial.of("p").caps == frozenset({("n", "+"), ("n", "-")})
        assert config.initial.of("q").caps == frozenset({("n", "+")})
        assert len(config.actions) == 62

    def test_secrecy_and_kinds_directives(self):
        config = parse_cap_config(
            "processes: p\ntags: t\nmessages: 0\nsecrecy: p t\nkinds: add_tag remove_tag\n"
        )
        assert config.initial.of("p").secrecy == frozenset({"t"})
        assert {a.kind for a in config.actions} == {"add_tag", "remove_tag"}

    def test_errors_carry_line_numbers(self):
        for text, line, fragment in [
            ("processes: p\nmessages: 0\ncaps: q t+\n", 3, "undeclared process"),
            ("processes: p\ntags: t\nmessages: 0\ncaps: p z+\n", 4, "unknown tag"),
            ("processes: p\nmessages: 0\nsecrecy:\n", 3, "secrecy takes"),
            ("processes: p\nmessages: 0\nwhatever: 1\n", 3, "unknown directive"),
        ]:
            with pytest.raises(ParseError) as err:
                parse_cap_config(text)
            assert err.value.line == line
            assert fragment in str(err.value)

    def test_structural_omissions(self):
        with pytest.raises(ParseError) as err:
            parse_cap_config("messages: 0\n")
        assert "no processes" in str(err.value)
        with pytest.raises(ParseError) as err:
            parse_cap_config("processes: p\n")
        assert "no message values" in str(err.value)


class TestTraceFormat:
    def test_lines_become_token_tuples(self):
        text = "# intro\n\np add_cap +- n\n  q add_tag n_p  \n"
        assert parse_trace(text) == (
            ("p", "add_cap", "+-", "n"),
            ("q", "add_tag", "n_p"),
        )

    def test_empty_input(self):
        assert parse_trace("") == ()
        assert parse_trace("# only comments\n") == ()

    def test_corpus_script_replays(self, corpus_dir):
        script = parse_trace((corpus_dir / "narrative.trace").read_text())
        assert len(script) == 6
        assert script[0] == ("p", "add_cap", "+-", "n")
