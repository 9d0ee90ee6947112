"""The built-in capability system: guarded steps, the induced policy, the
bounded system builder, and the object-structured interpretation."""

import copy
import dataclasses
import os
import pickle
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import nifcheck
from nifcheck import (
    ACTION_KINDS,
    CapAction,
    CapabilityConfig,
    CapabilityState,
    InputError,
    ProcessState,
    TagUniverse,
    add_cap_action,
    add_tag_action,
    apply_script,
    associated_policy,
    build_pes,
    cap_step,
    cap_text,
    capability_drm_interpretation,
    check_drm,
    check_globally_known,
    check_locality,
    check_ta_may_security,
    check_theorem_mustunwind,
    check_unwinding_security,
    data_action,
    default_actions,
    drop_cap_action,
    parse_cap,
    parse_cap_config,
    parse_tag,
    parse_trace,
    policy_leq,
    reachable_states,
    remove_tag_action,
    script_action,
    send_cap_action,
    send_message_action,
    set_message_action,
    standard_config,
    tag_text,
    validate_candidate_initial,
)

from nifcheck.traceindex import TraceIndex

from oracles import objects_in, python_build_pes, python_cap_step

N_P = ("n", "p")


@pytest.fixture(scope="session")
def twoproc(corpus_dir):
    return parse_cap_config((corpus_dir / "twoproc.cap").read_text())


@pytest.fixture(scope="session")
def narrative(corpus_dir):
    return parse_trace((corpus_dir / "narrative.trace").read_text())


class TestTagUniverse:
    def test_tag_and_capability_order(self):
        universe = TagUniverse(("p", "q"), ("n",))
        assert universe.tags == ("n", ("n", "p"), ("n", "q"))
        assert universe.caps == (
            ("n", "+"),
            ("n", "-"),
            (("n", "p"), "+"),
            (("n", "p"), "-"),
            (("n", "q"), "+"),
            (("n", "q"), "-"),
        )

    def test_duplicates_rejected(self):
        with pytest.raises(InputError):
            TagUniverse(("p", "p"), ("n",))
        with pytest.raises(InputError):
            TagUniverse(("p",), ("n", "n"))

    def test_text_forms_round_trip(self):
        universe = TagUniverse(("p", "q"), ("n", "m"))
        for tag in universe.tags:
            assert parse_tag(tag_text(tag), universe.processes, universe.basic) == tag
        for cap in universe.caps:
            assert parse_cap(cap_text(cap), universe.processes, universe.basic) == cap

    def test_unknown_text_rejected(self):
        with pytest.raises(InputError):
            parse_tag("z", ("p",), ("n",))
        with pytest.raises(InputError):
            parse_cap("n*", ("p",), ("n",))


class TestProcessState:
    def test_collections_are_frozen_and_canonical(self):
        ps = ProcessState(secrecy=["n"], caps=[("n", "+")], inbox=[1, 2])
        assert ps.secrecy == frozenset({"n"})
        assert ps.caps == frozenset({("n", "+")})
        assert ps.inbox == (1, 2)

    def test_data_sorted_by_name(self):
        ps = ProcessState(data={"b": 1, "a": 0})
        assert ps.data == (("a", 0), ("b", 1))

    def test_duplicate_data_names_rejected(self):
        with pytest.raises(InputError):
            ProcessState(data=(("a", 0), ("a", 1)))

    def test_state_lookup(self):
        state = CapabilityState((("p", ProcessState()),))
        assert state.of("p") == ProcessState()
        with pytest.raises(InputError):
            state.of("q")

    def test_duplicate_process_rejected(self):
        with pytest.raises(InputError):
            CapabilityState((("p", ProcessState()), ("p", ProcessState())))


def two_state(p=None, q=None) -> CapabilityState:
    return CapabilityState((("p", p or ProcessState()), ("q", q or ProcessState())))


class TestCapStep:
    def test_add_cap_mints_labelled_caps_unconditionally(self):
        state = two_state()
        after = cap_step(state, add_cap_action("p", ("+", "-"), "n"))
        assert after.of("p").caps == frozenset({(N_P, "+"), (N_P, "-")})
        # already owned: nothing to mint, identical object back
        assert cap_step(after, add_cap_action("p", ("+",), "n")) is after

    def test_drop_cap(self):
        state = two_state(p=ProcessState(caps={("n", "+")}))
        after = cap_step(state, drop_cap_action("p", ("n", "+")))
        assert after.of("p").caps == frozenset()
        assert cap_step(after, drop_cap_action("p", ("n", "+"))) is after

    def test_add_tag_needs_the_plus_capability(self):
        blocked = two_state()
        assert cap_step(blocked, add_tag_action("p", "n")) is blocked
        armed = two_state(p=ProcessState(caps={("n", "+")}))
        after = cap_step(armed, add_tag_action("p", "n"))
        assert after.of("p").secrecy == frozenset({"n"})
        assert cap_step(after, add_tag_action("p", "n")) is after

    def test_remove_tag_needs_the_minus_capability(self):
        no_cap = two_state(p=ProcessState(secrecy={"n"}))
        assert cap_step(no_cap, remove_tag_action("p", "n")) is no_cap
        armed = two_state(p=ProcessState(secrecy={"n"}, caps={("n", "-")}))
        after = cap_step(armed, remove_tag_action("p", "n"))
        assert after.of("p").secrecy == frozenset()
        assert cap_step(after, remove_tag_action("p", "n")) is after

    def test_send_message_requires_subset_secrecy(self):
        blocked = two_state(p=ProcessState(secrecy={"n"}, message=7))
        assert cap_step(blocked, send_message_action("p", "q")) is blocked
        open_state = two_state(
            p=ProcessState(secrecy={"n"}, message=7),
            q=ProcessState(secrecy={"n", "m"}),
        )
        after = cap_step(open_state, send_message_action("p", "q"))
        assert after.of("q").inbox == (7,)
        assert after.of("p") == open_state.of("p")

    def test_send_message_to_self_always_passes_the_guard(self):
        state = two_state(p=ProcessState(secrecy={"n"}, message=3))
        after = cap_step(state, send_message_action("p", "p"))
        assert after.of("p").inbox == (3,)

    def test_send_cap_needs_flow_and_ownership(self):
        no_cap = two_state()
        assert cap_step(no_cap, send_cap_action("p", ("n", "+"), "q")) is no_cap
        blocked = two_state(p=ProcessState(secrecy={"n"}, caps={("n", "+")}))
        assert cap_step(blocked, send_cap_action("p", ("n", "+"), "q")) is blocked
        ok = two_state(p=ProcessState(caps={("n", "+")}))
        after = cap_step(ok, send_cap_action("p", ("n", "+"), "q"))
        assert after.of("q").caps == frozenset({("n", "+")})
        assert after.of("p").caps == frozenset({("n", "+")})
        assert cap_step(after, send_cap_action("p", ("n", "+"), "q")) is after

    def test_set_message(self):
        state = two_state()
        after = cap_step(state, set_message_action("p", 1))
        assert after.of("p").message == 1
        assert cap_step(after, set_message_action("p", 1)) is after

    def test_data_update_sees_only_the_acting_slice(self):
        seen = []

        def update(view: ProcessState):
            seen.append(view)
            return (view.message + 1) % 3, view.data

        state = two_state(p=ProcessState(message=0, data=(("a", 5),)))
        cap_step(state, data_action("p", "probe", update))
        assert seen == [state.of("p")]

        # Under build_pes the update runs once per distinct acting slice.
        seen.clear()
        config = CapabilityConfig(
            processes=("p", "q"),
            basic_tags=(),
            messages=(0,),
            actions=(
                data_action("p", "probe", update),
                send_message_action("q", "p"),
            ),
            initial=state,
        )
        pes = build_pes(config, 3)
        expanded = [s for s in pes.states if s not in pes.truncated]
        assert all(type(view) is ProcessState for view in seen)
        assert len(seen) == len(set(seen))
        assert set(seen) == {s.of("p") for s in expanded}

    def test_data_update_must_preserve_object_names(self):
        def grow(view: ProcessState):
            return view.message, view.data + (("extra", 1),)

        state = two_state()
        with pytest.raises(InputError, match="named-object set"):
            cap_step(state, data_action("p", "grow", grow))
        config = CapabilityConfig(
            processes=("p", "q"),
            basic_tags=(),
            messages=(None,),
            actions=(send_message_action("q", "p"), data_action("p", "grow", grow)),
            initial=state,
        )
        with pytest.raises(InputError, match="named-object set"):
            build_pes(config, 2)

    def test_data_update_may_rewrite_values(self):
        def bump(view: ProcessState):
            return view.message, tuple((k, v + 1) for k, v in view.data)

        state = two_state(p=ProcessState(data=(("a", 5),)))
        after = cap_step(state, data_action("p", "bump", bump))
        assert after.of("p").data == (("a", 6),)


class TestAssociatedPolicy:
    def test_empty_secrecy_gives_the_complete_relation(self):
        state = two_state()
        assert associated_policy(state) == frozenset(
            {("p", "p"), ("p", "q"), ("q", "p"), ("q", "q")}
        )

    def test_reflexive_always(self):
        state = two_state(p=ProcessState(secrecy={"n"}), q=ProcessState(secrecy={"m"}))
        policy = associated_policy(state)
        assert ("p", "p") in policy and ("q", "q") in policy
        assert ("p", "q") not in policy and ("q", "p") not in policy

    def test_subset_orientation(self):
        state = two_state(q=ProcessState(secrecy={"n"}))
        policy = associated_policy(state)
        # p's empty secrecy flows anywhere; q's does not flow back
        assert ("p", "q") in policy
        assert ("q", "p") not in policy


class TestConfigValidation:
    def test_default_alphabet_size(self, twoproc):
        assert len(twoproc.actions) == 62
        assert len(default_actions(("p", "q"), ("n",), (0, 1))) == 62

    def test_kind_restriction(self):
        only_tags = default_actions(("p",), ("n",), (0,), kinds=("add_tag",))
        assert {a.kind for a in only_tags} == {"add_tag"}
        with pytest.raises(InputError):
            default_actions(("p",), ("n",), (0,), kinds=("teleport",))

    def test_initial_message_is_the_first_declared(self, twoproc):
        assert all(ps.message == 0 for _, ps in twoproc.initial.procs)

    def test_messages_required(self):
        with pytest.raises(InputError):
            standard_config(("p",), ("n",), ())

    def test_candidate_initial_rejects_labelled_tags(self):
        with pytest.raises(InputError):
            validate_candidate_initial(
                two_state(p=ProcessState(secrecy={N_P})), ("n",)
            )
        with pytest.raises(InputError):
            validate_candidate_initial(
                two_state(p=ProcessState(caps={(N_P, "+")})), ("n",)
            )
        with pytest.raises(InputError):
            standard_config(("p", "q"), ("n",), (0,), secrecy={"p": (N_P,)})

    def test_obs_override_must_name_known_processes(self):
        with pytest.raises(InputError):
            standard_config(("p",), ("n",), (0,), obs={"r": lambda ps: 0})

    @pytest.mark.parametrize(
        "action",
        [
            add_cap_action("p", ("+",), "z"),
            drop_cap_action("p", ("z", "+")),
            drop_cap_action("p", (("n", "r"), "-")),
            send_cap_action("p", ("z", "+"), "q"),
            add_tag_action("p", "z"),
            remove_tag_action("p", ("n", "r")),
            send_message_action("p", "r"),
            send_cap_action("p", ("n", "+"), "r"),
            CapAction("p.raise(n)", "p", "add_tag", ("n",)),
            CapAction("p.add_tag(n)", "p", "add_tag", (N_P,)),
            CapAction("p.add_cap(-+,n)", "p", "add_cap", (("-", "+"), "n")),
        ],
        ids=lambda a: a.name,
    )
    def test_actions_outside_the_generated_alphabet_rejected(self, action):
        with pytest.raises(InputError, match="generated alphabet"):
            CapabilityConfig(("p", "q"), ("n",), (0,), (action,), two_state())

    def test_non_actions_rejected(self):
        with pytest.raises(InputError, match="not a capability action"):
            CapabilityConfig(("p", "q"), ("n",), (0,), ("p.add_tag(n)",), two_state())

    def test_unknown_action_kind_rejected(self):
        assert "teleport" not in ACTION_KINDS
        with pytest.raises(InputError):
            CapAction("p.teleport", "p", "teleport")


class TestScripts:
    def test_script_action_returns_the_configured_instance(self, twoproc):
        act = script_action(twoproc, ("p", "add_cap", "+-", "n"))
        assert any(act is a for a in twoproc.actions)
        assert act.kind == "add_cap"

    def test_script_forms(self, twoproc):
        for line, kind in [
            (("p", "set_message", "1"), "data"),
            (("q", "drop_cap", "n+"), "drop_cap"),
            (("p", "add_tag", "n_p"), "add_tag"),
            (("p", "remove_tag", "n"), "remove_tag"),
            (("p", "send_message_to", "q"), "send_message_to"),
            (("p", "send_cap", "n_p+", "q"), "send_cap"),
        ]:
            assert script_action(twoproc, line).kind == kind

    def test_every_action_resolves_from_its_own_name(self, twoproc):
        three = standard_config(("p", "q", "r"), ("n", "m"), (0, 1))
        for config, size in [(twoproc, 62), (three, 273)]:
            assert len(config.actions) == size
            for act in config.actions:
                p, call = act.name.split(".", 1)
                verb, args = call[:-1].split("(")
                assert script_action(config, (p, verb, *args.split(","))) is act

    def test_bad_script_lines_rejected(self, twoproc):
        for line in [
            ("p",),
            ("p", "teleport"),
            ("p", "set_message", "9"),
            ("p", "add_tag", "zzz"),
            ("p", "send_cap", "n+"),
            ("p", "add_cap", "-+", "n"),  # sign sets are spelled in canonical order
        ]:
            with pytest.raises(InputError):
                script_action(twoproc, line)

    def test_action_outside_the_alphabet_rejected(self):
        config = standard_config(("p",), ("n",), (0,), kinds=("add_tag",))
        with pytest.raises(InputError):
            script_action(config, ("p", "set_message", "0"))

    def test_narrative_golden_run(self, twoproc, narrative):
        final = apply_script(twoproc, narrative)
        p, q = final.of("p"), final.of("q")
        assert p.secrecy == q.secrecy == frozenset({N_P})
        assert p.caps == frozenset(
            {("n", "+"), ("n", "-"), (N_P, "+"), (N_P, "-")}
        )
        assert q.caps == frozenset({("n", "+"), (N_P, "+")})
        assert p.inbox == ()
        assert q.inbox == (0,)

    def test_narrative_fourth_step_is_blocked(self, twoproc, narrative):
        before = apply_script(twoproc, narrative[:3])
        blocked = script_action(twoproc, narrative[3])
        assert cap_step(before, blocked) is before
        # after q raises its own secrecy the same send goes through
        retry = apply_script(twoproc, narrative[:5])
        assert cap_step(retry, blocked) is not retry


class TestBuildPes:
    def test_depth_zero_is_one_truncated_state(self, twoproc):
        pes = build_pes(twoproc, 0)
        assert pes.states == (twoproc.initial,)
        assert pes.truncated == frozenset({twoproc.initial})

    def test_reachable_state_counts(self, twoproc):
        assert len(build_pes(twoproc, 1).states) == 17
        assert len(build_pes(twoproc, 2).states) == 149
        assert len(build_pes(twoproc, 3).states) == 911

    def test_frontier_is_flagged_not_expanded(self, twoproc):
        pes = build_pes(twoproc, 2)
        interior = [s for s in pes.states if s not in pes.truncated]
        assert len(interior) == 17
        for s in pes.truncated:
            assert all(
                pes.transitions[(s, a)] == s for a in pes.signature.actions
            )

    def test_policy_matches_the_secrecy_order(self, twoproc):
        pes = build_pes(twoproc, 2)
        for s in pes.states:
            want = {
                pair for pair in associated_policy(s) if pair[0] != pair[1]
            }
            assert pes.edges[s] == frozenset(want)

    def test_initial_secrecy_shapes_the_initial_policy(self):
        config = standard_config(
            ("p", "q"), ("t",), (0,), secrecy={"p": ("t",)}, kinds=("data",)
        )
        pes = build_pes(config, 1)
        assert pes.edges[config.initial] == frozenset({("q", "p")})

    def test_default_observation(self, twoproc):
        pes = build_pes(twoproc, 1)
        s0 = twoproc.initial
        assert pes.obs[("p", s0)] == (
            frozenset(),
            frozenset({("n", "+"), ("n", "-")}),
            None,
        )
        moved = cap_step(s0, script_action(twoproc, ("p", "send_message_to", "q")))
        assert pes.obs[("q", moved)] == (frozenset(), frozenset({("n", "+")}), 0)

    def test_observation_override(self):
        config = standard_config(
            ("p",), ("n",), (0, 1),
            kinds=("data",),
            obs={"p": lambda ps: ps.message},
        )
        pes = build_pes(config, 1)
        values = {pes.obs[("p", s)] for s in pes.states}
        assert values == {0, 1}

    def test_bad_depth_rejected(self, twoproc):
        pes = build_pes(twoproc, 1)
        structured = capability_drm_interpretation(twoproc, 1, pes)
        checks = (
            check_locality,
            check_unwinding_security,
            check_ta_may_security,
            check_theorem_mustunwind,
            lambda system, depth: check_globally_known(system, "p", depth),
            lambda system, depth: policy_leq(system, system, depth),
        )
        for depth in (-1, 1.5, "2", True, False, None):
            with pytest.raises(InputError, match="nonnegative integer"):
                build_pes(twoproc, depth)
            with pytest.raises(InputError, match="nonnegative integer"):
                TraceIndex(pes, depth)
            for check in checks:
                with pytest.raises(InputError, match="nonnegative integer"):
                    check(pes, depth)
            with pytest.raises(InputError, match="nonnegative integer"):
                check_drm(structured, depth)
            if depth is not None:  # None means unbounded here
                with pytest.raises(InputError, match="nonnegative integer"):
                    reachable_states(pes, depth)

    def test_single_process_no_actions(self):
        config = standard_config(("p",), (), (0,), kinds=())
        pes = build_pes(config, 2)
        assert len(pes.states) == 1
        assert pes.edges[config.initial] == frozenset()
        assert pes.truncated == frozenset()


def three_process_config():
    return standard_config(
        ("p", "q", "r"),
        ("n",),
        (0, 1),
        caps={"p": (("n", "+"), ("n", "-")), "r": (("n", "+"),)},
        kinds=("data", "add_cap", "add_tag", "remove_tag", "send_message_to"),
    )


def data_object_config():
    """Named data objects, custom data actions and an observation override."""

    def bump(view):
        return view.message, tuple((k, (v + 1) % 3) for k, v in view.data)

    def publish(view):
        return dict(view.data)["a"] % 2, view.data

    def swap(view):
        (_, a), (_, b) = view.data
        return view.message, {"b": a, "a": b}

    initial = CapabilityState(
        (
            ("p", ProcessState(message=0, data=(("a", 0),))),
            ("q", ProcessState(caps={("n", "+")}, message=1, data={"b": 2, "a": 1})),
        )
    )
    actions = (
        data_action("p", "bump", bump),
        data_action("p", "publish", publish),
        data_action("q", "swap", swap),
        data_action("q", "bump", bump),
    ) + default_actions(("p", "q"), ("n",), (0, 1), kinds=("add_tag", "send_message_to"))
    return CapabilityConfig(
        processes=("p", "q"),
        basic_tags=("n",),
        messages=(0, 1),
        actions=actions,
        initial=initial,
        obs={"q": lambda ps: (ps.data, ps.inbox)},
    )


def random_config(rng: random.Random):
    processes = ("p", "q", "r")[: rng.randint(1, 3)]
    basic = ("m", "n")[: rng.randint(0, 2)]
    messages = (0, 1)[: rng.randint(1, 2)]
    kinds = [k for k in ACTION_KINDS if rng.random() < 0.6]
    caps = [(t, x) for t in basic for x in ("+", "-")]
    return standard_config(
        processes,
        basic,
        messages,
        secrecy={p: [t for t in basic if rng.random() < 0.3] for p in processes},
        caps={p: [c for c in caps if rng.random() < 0.5] for p in processes},
        kinds=kinds,
    )


def assert_same_system(config, depth):
    got, want = build_pes(config, depth), python_build_pes(config, depth)
    assert got.signature == want.signature
    assert got.initial == want.initial
    assert got.states == want.states
    assert np.array_equal(got.transitions.table, want.transitions.table)
    assert got.obs == want.obs
    assert got.edges == want.edges
    assert got.truncated == want.truncated
    return want


def assert_same_steps(config, states):
    for s in states:
        for action in config.actions:
            got, want = cap_step(s, action), python_cap_step(s, action)
            assert got == want
            assert (got is s) == (want is s)


class TestBuildPesMatchesOracle:
    """The slice-memoized search against one full-state step per (state, action)."""

    @pytest.mark.parametrize("depth", [0, 1, 2, 3, 4])
    def test_twoproc(self, twoproc, depth):
        pes = assert_same_system(twoproc, depth)
        if depth == 3:
            assert_same_steps(twoproc, pes.states)

    def test_cap_d4_alphabet(self, corpus_dir):
        text = (corpus_dir / "twoproc.cap").read_text()
        kinds = "kinds: data add_cap drop_cap add_tag remove_tag send_message_to\n"
        config = parse_cap_config(text + kinds)
        assert not any(a.kind == "send_cap" for a in config.actions)
        assert_same_system(config, 4)

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_three_processes(self, depth):
        config = three_process_config()
        pes = assert_same_system(config, depth)
        if depth == 2:
            assert_same_steps(config, pes.states)

    def test_data_objects_and_observation_override(self):
        config = data_object_config()
        for depth in range(5):
            pes = assert_same_system(config, depth)
        assert_same_steps(config, pes.states)
        assert {pes.obs[("q", s)][0] for s in pes.states} > {config.initial.of("q").data}

    def test_random_configs(self):
        rng = random.Random(7171)
        sizes = []
        for _ in range(60):
            config = random_config(rng)
            depth = rng.randint(1, 3)
            while len(config.actions) ** depth > 20_000:
                depth -= 1
            pes = assert_same_system(config, depth)
            assert_same_steps(config, pes.states)
            sizes.append(len(pes.states))
        assert max(sizes) > 50


class TestStateHash:
    """States hash once, when made; every copy is made the same way."""

    def test_hash_is_the_hash_of_a_rebuilt_state(self, twoproc):
        for s in build_pes(twoproc, 2).states:
            twin = CapabilityState(s.procs)
            assert twin == s
            assert hash(twin) == hash(s)

    def test_copies_are_equal_and_hash_alike(self, twoproc):
        for s in build_pes(twoproc, 2).states:
            copies = (
                dataclasses.replace(s),
                copy.copy(s),
                copy.deepcopy(s),
                pickle.loads(pickle.dumps(s)),
            )
            for twin in copies:
                assert twin == s
                assert hash(twin) == hash(s)
            swapped = dataclasses.replace(s, procs=s.procs[::-1])
            assert hash(swapped) == hash(CapabilityState(s.procs[::-1]))

    def test_pickled_state_is_found_under_another_hash_seed(self, corpus_dir, tmp_path):
        code = (
            "import pickle, sys\n"
            "from nifcheck import build_pes, parse_cap_config\n"
            "states = build_pes(parse_cap_config(open(sys.argv[1]).read()), 2).states\n"
            "if sys.argv[3] == 'dump':\n"
            "    pickle.dump(states[-1], open(sys.argv[2], 'wb'))\n"
            "else:\n"
            "    index = {s: i for i, s in enumerate(states)}\n"
            "    print(index[pickle.load(open(sys.argv[2], 'rb'))], len(states))\n"
        )
        src = str(Path(nifcheck.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))
        outputs = []
        for hash_seed, mode in (("1", "dump"), ("2", "load")):
            env = dict(os.environ, PYTHONHASHSEED=hash_seed, PYTHONPATH=path)
            done = subprocess.run(
                [sys.executable, "-c", code, str(corpus_dir / "twoproc.cap"),
                 str(tmp_path / "state.pickle"), mode],
                env=env, capture_output=True, text=True, check=True,
            )
            outputs.append(done.stdout.split())
        found, count = map(int, outputs[1])
        assert found == count - 1


class TestSecurityOfTheInducedSystem:
    def test_bounded_checks_pass(self, twoproc):
        pes = build_pes(twoproc, 2)
        assert check_locality(pes, 2).outcome == "BOUNDED_SECURE"
        assert check_ta_may_security(pes, 2).outcome == "BOUNDED_SECURE"
        assert check_unwinding_security(pes, 2).outcome == "BOUNDED_SECURE"

    def test_monitor_conditions_hold(self, twoproc):
        structured = capability_drm_interpretation(twoproc, 2)
        report = check_drm(structured, 2, strong_five=True)
        assert report.holds
        assert all(c.holds for c in report.conditions)


class TestDrmInterpretation:
    def test_observation_objects_are_constant_and_own(self, twoproc):
        structured = capability_drm_interpretation(twoproc, 1)
        for pi, p in enumerate(twoproc.processes):
            own = frozenset({("S", p), ("O", p), ("in", p), ("m", p), ("oset", p)})
            for row in structured.observe[pi]:
                assert objects_in(structured, row) == own

    def test_alter_tracks_the_flow_relation(self, twoproc):
        structured = capability_drm_interpretation(twoproc, 2)
        for si, s in enumerate(structured.base.states):
            flows = associated_policy(s)
            for pi, p in enumerate(twoproc.processes):
                extra = {
                    obj
                    for q in twoproc.processes
                    if (p, q) in flows
                    for obj in (("in", q), ("O", q))
                }
                own = {("S", p), ("O", p), ("in", p), ("m", p)}
                assert objects_in(structured, structured.alter[pi, si]) == frozenset(own | extra)

    def test_contents_mirror_the_state(self, twoproc, narrative):
        structured = capability_drm_interpretation(twoproc, 2)
        at = structured.objects.index
        for si, s in enumerate(structured.base.states):
            for p in twoproc.processes:
                ps = s.of(p)
                assert structured.contents[at(("S", p)), si] == ps.secrecy
                assert structured.contents[at(("O", p)), si] == ps.caps
                assert structured.contents[at(("in", p)), si] == ps.inbox
                assert structured.contents[at(("m", p)), si] == ps.message
        mid = structured.base.states.index(apply_script(twoproc, narrative[:2]))
        assert structured.contents[at(("in", "q")), mid] == ()
        assert structured.contents[at(("m", "p")), mid] == 0


def field_changes(before: CapabilityState, after: CapabilityState) -> dict:
    """Per process, the set of slice fields whose value changed."""
    out = {}
    for (name, old), (_, new) in zip(before.procs, after.procs):
        fields = set()
        for f in ("secrecy", "caps", "inbox", "message", "data"):
            if getattr(old, f) != getattr(new, f):
                fields.add(f)
        if fields:
            out[name] = fields
    return out


def assert_confined_step(state: CapabilityState, action, after: CapabilityState):
    """Whatever happened, only the fields the action kind may touch moved,
    only guarded moves moved at all, and inboxes never shrink."""
    changed = field_changes(state, after)
    p = action.process
    if action.kind == "data":
        assert set(changed) <= {p}
        assert changed.get(p, set()) <= {"message", "data"}
    elif action.kind in ("add_cap", "drop_cap"):
        assert set(changed) <= {p}
        assert changed.get(p, set()) <= {"caps"}
    elif action.kind in ("add_tag", "remove_tag"):
        assert set(changed) <= {p}
        assert changed.get(p, set()) <= {"secrecy"}
        if action.kind == "add_tag" and changed:
            assert (action.payload[0], "+") in state.of(p).caps
        if action.kind == "remove_tag" and changed:
            assert (action.payload[0], "-") in state.of(p).caps
    elif action.kind == "send_message_to":
        (q,) = action.payload
        assert set(changed) <= {q}
        assert changed.get(q, set()) <= {"inbox"}
        if changed:
            assert state.of(p).secrecy <= state.of(q).secrecy
            assert after.of(q).inbox == state.of(q).inbox + (state.of(p).message,)
    elif action.kind == "send_cap":
        cap, q = action.payload
        assert set(changed) <= {q}
        assert changed.get(q, set()) <= {"caps"}
        if changed:
            assert state.of(p).secrecy <= state.of(q).secrecy
            assert cap in state.of(p).caps
            assert after.of(q).caps == state.of(q).caps | {cap}
    for (name, old), (_, new) in zip(state.procs, after.procs):
        assert new.inbox[: len(old.inbox)] == old.inbox


class TestRandomWalks:
    def test_guards_and_confinement(self, twoproc):
        rng = random.Random(42)
        state = twoproc.initial
        for _ in range(2000):
            action = rng.choice(twoproc.actions)
            after = cap_step(state, action)
            assert_confined_step(state, action, after)
            state = after

    def test_policy_only_changes_through_the_acting_process(self, twoproc):
        rng = random.Random(43)
        state = twoproc.initial
        for _ in range(1000):
            action = rng.choice(twoproc.actions)
            after = cap_step(state, action)
            if action.kind not in ("add_tag", "remove_tag"):
                assert associated_policy(after) == associated_policy(state)
            state = after


@given(
    steps=st.lists(st.integers(min_value=0, max_value=61), min_size=0, max_size=25),
)
@settings(max_examples=150, deadline=None)
def test_secrecy_changes_only_by_own_tag_actions(steps):
    config = standard_config(
        ("p", "q"), ("n",), (0, 1),
        caps={"p": (("n", "+"), ("n", "-")), "q": (("n", "+"),)},
    )
    state = config.initial
    for i in steps:
        action = config.actions[i]
        after = cap_step(state, action)
        for name, ps in after.procs:
            if name != action.process or action.kind not in ("add_tag", "remove_tag"):
                assert ps.secrecy == state.of(name).secrecy
        state = after
