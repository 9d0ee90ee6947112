"""Whole-system checks: trace-quantified verdicts, purge comparisons,
policy-shape checks, and the state-level certifier."""

import dataclasses
import itertools
import random

import numpy as np
import pytest

import nifcheck.checkers
import nifcheck.traceindex
import nifcheck.unwinding
from nifcheck.checkers import (
    _first_clash,
    _grouped_violation,
    _least_violation,
    _purge_nodes,
    class_violations,
    label_partitions,
)
from nifcheck.traceindex import TraceIndex, _sorted_unique
from nifcheck import (
    BOUNDED_SECURE,
    CERTIFIED_SECURE,
    INCONCLUSIVE,
    INSECURE,
    InputError,
    PolicyEnhancedSystem,
    Signature,
    Verdict,
    build_pes,
    check_globally_known,
    check_i_security,
    check_locality,
    check_lpurge_security,
    check_static,
    check_ta_may_security,
    check_ta_must_security,
    check_ta_static_security,
    check_theorem_mustunwind,
    check_unwinding_security,
    dipurge,
    dsrc,
    lpurge,
    parse_cap_config,
    permits,
    policy_leq,
    reachable_states,
    restrict_to_local,
    run,
    state_unwinding_check,
    strip_inactive_edges,
    ta_may,
    ta_may_partitions,
    traces_upto,
)

from oracles import (
    naive_closure,
    naive_dipurge,
    naive_dsrc,
    naive_lpurge,
    naive_ta_may,
    naive_ta_static,
    python_class_violations,
    python_globally_known,
    python_i_security,
    python_label_verdict,
    python_locality,
    python_lpurge_security,
    python_state_unwinding,
    python_ta_must_verdict,
    random_system,
    random_systems,
    shaped_system,
    shortlex_key,
)


def assert_same_verdict(got, want):
    assert (got.outcome, got.witness, got.details, got.notes) == (
        want.outcome,
        want.witness,
        want.details,
        want.notes,
    )


def admin_system(admin_changes_policy: bool = True) -> PolicyEnhancedSystem:
    """D administers the policy; everyone may always see D."""
    sig = Signature(
        domains=("D", "L"), actions=("d", "l"), dom={"d": "D", "l": "L"}
    )
    states = ("s0", "s1")
    mover = "d" if admin_changes_policy else "l"
    trans = {(s, a): ("s1" if a == mover else s) for s in states for a in sig.actions}
    obs = {(u, s): 0 for u in sig.domains for s in states}
    edges = {
        "s0": frozenset({("D", "L")}),
        "s1": frozenset({("D", "L"), ("L", "D")}),
    }
    return PolicyEnhancedSystem(
        signature=sig,
        states=states,
        initial="s0",
        transitions=trans,
        obs=obs,
        edges=edges,
    )


def parity_edge_system() -> PolicyEnhancedSystem:
    """U may flow to V iff U and V have acted an unequal number of times,
    mod 2; W only acts.  Neither endpoint alone knows the edge, the two
    jointly do: plain locality holds, but both single-label classes offend."""
    sig = Signature(
        domains=("U", "V", "W"), actions=("u", "v", "w"), dom={"u": "U", "v": "V", "w": "W"}
    )
    states = ((0, 0), (0, 1), (1, 0), (1, 1))
    flip = {"u": (1, 0), "v": (0, 1), "w": (0, 0)}
    trans = {
        (s, a): (s[0] ^ flip[a][0], s[1] ^ flip[a][1]) for s in states for a in sig.actions
    }
    return PolicyEnhancedSystem(
        signature=sig,
        states=states,
        initial=(0, 0),
        transitions=trans,
        obs={(u, s): 0 for u in sig.domains for s in states},
        edges={s: frozenset({("U", "V")} if s[0] != s[1] else ()) for s in states},
    )


class TestCorpusVerdicts:
    """Frozen outcomes and witnesses for the bundled example systems."""

    def test_figure1_separates_the_two_readings(self, figure1):
        may = check_ta_may_security(figure1, 6)
        assert may.outcome == BOUNDED_SECURE
        unw = check_unwinding_security(figure1, 6)
        assert unw.outcome == INSECURE
        assert unw.witness == (("p", "a"), ("a",), "B")
        assert unw.details["rule_applications"]["sweeps"] >= 1

    def test_figure1_purge_comparison(self, figure1):
        v = check_lpurge_security(figure1, 6)
        assert v.outcome == INSECURE
        assert v.witness == (("p", "a"), "B")
        assert v.details["purged"] == ("a",)

    def test_figure1_locality_fails(self, figure1):
        v = check_locality(figure1, 6)
        assert v.outcome == INSECURE
        assert v.witness == ((), ("p",), "A", "B")

    def test_figure2_base_accepted_permissively_rejected_prohibitively(
        self, figure2_doc
    ):
        base = figure2_doc.base
        assert check_ta_may_security(base, 6).outcome == BOUNDED_SECURE
        assert check_lpurge_security(base, 6).outcome == BOUNDED_SECURE
        unw = check_unwinding_security(base, 6)
        assert unw.outcome == INSECURE
        assert unw.witness == ((), ("d",), "L")

    def test_figure2_dotted_edge_rejected_everywhere(self, figure2_doc):
        dotted = figure2_doc.select("dotted")
        v = check_lpurge_security(dotted, 6)
        assert v.outcome == INSECURE
        assert v.witness == (("h", "d"), "L")
        assert v.details["purged"] == ("d",)
        assert check_ta_may_security(dotted, 6).witness == (("h", "d"), ("d",), "L")

    def test_figure3_secure_but_purge_incomparable(self, figure3):
        assert check_unwinding_security(figure3, 6).outcome == BOUNDED_SECURE
        assert check_lpurge_security(figure3, 6).outcome == BOUNDED_SECURE
        v = check_i_security(figure3, 6)
        assert v.outcome == INSECURE
        assert v.witness == ("s0", ("h", "d"), ("d",), "L")
        assert v.details["common_purge"] == ("d",)

    def test_figure4_policy_local_only_after_strengthening(self, figure4_doc):
        base = figure4_doc.base
        primed = figure4_doc.select("primed")
        assert check_ta_may_security(base, 8).outcome == BOUNDED_SECURE
        loc = check_locality(base, 8)
        assert loc.outcome == INSECURE
        assert loc.witness == (("a", "b"), ("b", "a"), "A", "B")
        v = check_ta_may_security(primed, 8)
        assert v.outcome == INSECURE
        assert v.witness == (("a", "b", "a"), ("b", "a", "a"), "B")

    def test_figure4_variants_ordered_by_permissiveness(self, figure4_doc):
        base = figure4_doc.base
        primed = figure4_doc.select("primed")
        assert policy_leq(base, primed, 8)
        assert not policy_leq(primed, base, 8)
        assert policy_leq(base, base, 8)


class TestProhibitiveRoutesAgree:
    def test_corpus(self, figure1, figure2_doc, figure3):
        for system in (figure1, figure2_doc.base, figure2_doc.select("dotted"), figure3):
            unw = check_unwinding_security(system, 5)
            must = check_ta_must_security(system, 5)
            assert unw.outcome == must.outcome
            assert unw.witness == must.witness

    def test_random_systems(self):
        for system in random_systems(1313, 10):
            unw = check_unwinding_security(system, 3)
            must = check_ta_must_security(system, 3)
            assert unw.outcome == must.outcome
            assert unw.witness == must.witness

    def test_bulk_trees_match_the_per_trace_route(self, figure1, figure2_doc, figure3):
        corpus = [figure1, figure2_doc.base, figure2_doc.select("dotted"), figure3]
        for depth in (3, 5):
            for system in corpus + random_systems(1414, 20):
                got = check_ta_must_security(system, depth)
                want = python_ta_must_verdict(system, depth)
                assert (got.outcome, got.witness) == (want.outcome, want.witness)

    def test_no_materialization_limit(self, figure1, monkeypatch):
        monkeypatch.setattr(nifcheck.checkers, "MATERIALIZE_LIMIT", 2)
        monkeypatch.setattr(nifcheck.unwinding, "MATERIALIZE_LIMIT", 2)
        v = check_ta_must_security(figure1, 6)
        assert v.outcome == INSECURE
        assert v.witness == (("p", "a"), ("a",), "B")


class TestPurgeFunctions:
    def test_dsrc_of_empty_trace_is_the_observer(self, figure1):
        assert dsrc(figure1, (), "B") == frozenset({"B"})

    @staticmethod
    def assert_matches_from_every_state(purge, oracle, seed):
        for system in random_systems(seed, 10):
            sig = system.signature
            for trace in traces_upto(sig, 4):
                for u in sig.domains:
                    assert purge(system, trace, u) == oracle(system, trace, u)
                    for s in system.states:
                        assert purge(system, trace, u, state=s) == oracle(
                            system, trace, u, state=s
                        )

    def test_dsrc_matches_oracle(self):
        self.assert_matches_from_every_state(dsrc, naive_dsrc, 1111)

    def test_lpurge_matches_oracle(self):
        self.assert_matches_from_every_state(lpurge, naive_lpurge, 2222)

    def test_dipurge_matches_oracle(self):
        self.assert_matches_from_every_state(dipurge, naive_dipurge, 3333)

    def test_dipurge_result_is_a_run_of_the_system(self):
        for system in random_systems(4444, 6):
            sig = system.signature
            for trace in traces_upto(sig, 4):
                for u in sig.domains:
                    run(system, dipurge(system, trace, u))

    def test_purges_are_subsequences(self):
        for system in random_systems(5555, 6):
            sig = system.signature
            for trace in traces_upto(sig, 4):
                for u in sig.domains:
                    for purged in (
                        lpurge(system, trace, u),
                        dipurge(system, trace, u),
                    ):
                        it = iter(trace)
                        assert all(a in it for a in purged)

    def test_unknown_domain_rejected(self, figure1):
        with pytest.raises(InputError):
            lpurge(figure1, (), "Z")
        with pytest.raises(InputError):
            dipurge(figure1, (), "Z")
        with pytest.raises(InputError):
            dsrc(figure1, (), "Z")

    def test_purge_from_arbitrary_start_state(self, figure3):
        # from s1, H may reach D, so an h prefix survives for D
        assert lpurge(figure3, ("h",), "D", state="s0") == ("h",)
        assert lpurge(figure3, ("h",), "L", state="s0") == ()


class TestPurgeChecks:
    """The array purge checks against the per-trace ones they replaced."""

    def test_match_the_per_trace_checks_on_random_systems(self):
        rng = random.Random(9090)
        outcomes = set()
        wide = 0
        for i in range(320):
            if i % 2:
                system = shaped_system(
                    rng, rng.randint(2, 6), rng.randint(2, 5), rng.randint(3, 4)
                )
            else:
                system = random_system(rng, max_domains=4)
            wide += len(system.signature.domains) >= 3
            for depth in range(5):
                got = check_lpurge_security(system, depth)
                assert_same_verdict(got, python_lpurge_security(system, depth))
                outcomes.add(("lpurge", got.outcome))
                got = check_i_security(system, depth)
                assert_same_verdict(got, python_i_security(system, depth))
                outcomes.add(("isec", got.outcome))
        assert wide >= 160
        assert outcomes == {
            (p, o) for p in ("lpurge", "isec") for o in (BOUNDED_SECURE, INSECURE)
        }

    def test_one_action_at_depth_70(self):
        for depth in (70, 200):
            outcomes = set()
            for seed in (1, 5):
                system = shaped_system(random.Random(seed), 3, 1, 2, edge_bias=0.5)
                for check, oracle in (
                    (check_lpurge_security, python_lpurge_security),
                    (check_i_security, python_i_security),
                ):
                    got = check(system, depth)
                    assert_same_verdict(got, oracle(system, depth))
                    outcomes.add(got.outcome)
            assert outcomes == {BOUNDED_SECURE, INSECURE}

    def test_a_later_observer_beats_an_earlier_ones_violation(self):
        """Each observer sweeps on its own, so a later observer must win
        across sweeps: for lpurge with a shallower level, for isec with a
        smaller y from the same start.  Blinding the winner (a constant
        observation) shows the earlier observer's own violation, which the
        winner beat."""
        rng = random.Random(7)
        shallower = smaller = 0
        for _ in range(40):
            system = shaped_system(rng, rng.randint(2, 5), rng.randint(2, 4), rng.randint(2, 3))
            sig = system.signature
            for depth in (2, 3):
                for check, oracle, at in (
                    (check_lpurge_security, python_lpurge_security, 1),
                    (check_i_security, python_i_security, 3),
                ):
                    got = check(system, depth)
                    assert_same_verdict(got, oracle(system, depth))
                    if got.outcome != INSECURE:
                        continue
                    winner = got.witness[at]
                    blind = {k: 0 if k[0] == winner else v for k, v in system.obs.items()}
                    blinded = dataclasses.replace(system, obs=blind)
                    other = check(blinded, depth)
                    assert_same_verdict(other, oracle(blinded, depth))
                    if other.outcome != INSECURE:
                        continue
                    if sig.domains.index(other.witness[at]) > sig.domains.index(winner):
                        continue
                    if at == 1:
                        shallower += len(other.witness[0]) > len(got.witness[0])
                    else:
                        smaller += other.witness[0] == got.witness[0] and (
                            shortlex_key(sig, other.witness[2]) > shortlex_key(sig, got.witness[2])
                        )
        assert shallower >= 5 and smaller >= 10

    @staticmethod
    def assert_purge_nodes_name_the_purges(system, depth):
        """The kernel's node ids spell ``dipurge`` from every reachable start
        that ``check_i_security`` does not skip, and ``lpurge`` from the
        initial state, for every observer and nonempty trace."""
        idx = TraceIndex(system, depth)
        traces = [idx.trace_of(n) for n in range(idx.n_nodes)]
        runs = [(False, idx.state_ids[s], dipurge) for s in reachable_states(system)]
        runs.append((True, idx.start, lpurge))
        checked = 0
        for advance, start, purge in runs:
            if idx.near_frontier[start]:
                continue
            # one sweep per observer, regrouped level by level
            levels = list(zip(*(list(sweep) for sweep in _purge_nodes(idx, start, advance))))
            assert len(levels) == depth
            state = idx.state_names[start]
            for l, got in enumerate(levels, 1):
                level = traces[idx.offs[l] : idx.offs[l + 1]]
                for ui, u in enumerate(system.signature.domains):
                    want = [purge(system, t, u, state) for t in level]
                    assert [traces[n] for n in got[ui]] == want
            checked += 1
        return checked

    def test_purge_nodes_name_the_purges_on_random_systems(self):
        rng = random.Random(1717)
        for i in range(60):
            if i % 2:
                system = shaped_system(rng, rng.randint(2, 5), rng.randint(1, 3), rng.randint(2, 3))
            else:
                system = random_system(rng)
            for depth in range(5):
                assert self.assert_purge_nodes_name_the_purges(system, depth) >= 2

    def test_purge_nodes_skip_no_truncated_transition(self, corpus_dir):
        config = parse_cap_config((corpus_dir / "twoproc.cap").read_text())
        system = build_pes(config, 3)
        assert system.truncated
        for depth, starts in ((1, 149), (2, 17)):
            # the non-skipped starts, plus one lpurge sweep from the initial state
            assert self.assert_purge_nodes_name_the_purges(system, depth) == starts + 1

    @staticmethod
    def wide_system(rng, n_domains):
        """Four actions, owned by the first, last and two middle domains, so
        that sources reach the top bits of a mask as wide as the domains."""
        base = shaped_system(rng, 4, 4, n_domains, edge_bias=0.5)
        sig = base.signature
        owners = (0, n_domains - 1, n_domains // 2, n_domains - 2)
        dom = {a: sig.domains[o] for a, o in zip(sig.actions, owners)}
        return dataclasses.replace(base, signature=Signature(sig.domains, sig.actions, dom))

    @pytest.mark.parametrize("n_domains", [9, 65])
    def test_wide_domain_sets_match_the_oracles(self, n_domains):
        rng = random.Random(n_domains)
        outcomes = set()
        for _ in range(3):
            system = self.wide_system(rng, n_domains)
            for depth in (1, 2):
                for check, oracle in (
                    (check_lpurge_security, python_lpurge_security),
                    (check_i_security, python_i_security),
                ):
                    got = check(system, depth)
                    assert_same_verdict(got, oracle(system, depth))
                    outcomes.add(got.outcome)
                self.assert_purge_nodes_name_the_purges(system, depth)
        assert INSECURE in outcomes

    def test_no_materialization_limit(self, figure1, figure3, monkeypatch):
        monkeypatch.setattr(nifcheck.checkers, "MATERIALIZE_LIMIT", 2)
        assert check_lpurge_security(figure1, 6).witness == (("p", "a"), "B")
        assert check_i_security(figure3, 6).witness == ("s0", ("h", "d"), ("d",), "L")

    def test_isec_skips_start_states_at_the_truncated_frontier(self, corpus_dir):
        config = parse_cap_config((corpus_dir / "twoproc.cap").read_text())
        one, two = build_pes(config, 1), build_pes(config, 2)
        for system, depth, skipped in ((one, 1, 16), (two, 1, 132), (two, 2, 148)):
            v = check_i_security(system, depth)
            assert v.outcome == INCONCLUSIVE
            assert v.details == {"truncated_starts": skipped}
            assert any("truncated frontier" in n for n in v.notes)
        assert_same_verdict(check_i_security(one, 1), python_i_security(one, 1))
        assert_same_verdict(check_i_security(two, 1), python_i_security(two, 1))
        # from the initial state itself depth 2 walks synthetic self-loops
        with pytest.raises(InputError):
            check_i_security(one, 2)


class TestPolicyShape:
    def test_check_static_on_corpus(self, figure1, figure3):
        assert not check_static(figure1)
        assert not check_static(figure3)

    def test_check_static_true_when_edges_never_change(self):
        system = admin_system()
        frozen = PolicyEnhancedSystem(
            signature=system.signature,
            states=system.states,
            initial=system.initial,
            transitions=system.transitions,
            obs=system.obs,
            edges={s: system.edges["s0"] for s in system.states},
        )
        assert check_static(frozen)
        assert not check_static(system)

    def test_static_reading_is_the_permissive_one_on_the_frozen_policy(self):
        for system in random_systems(1515, 20):
            frozen = PolicyEnhancedSystem(
                signature=system.signature,
                states=system.states,
                initial=system.initial,
                transitions=system.transitions,
                obs=system.obs,
                edges={s: system.edges[system.initial] for s in system.states},
            )
            static = check_ta_static_security(system, 4)
            may = check_ta_may_security(frozen, 4)
            assert (static.outcome, static.witness) == (may.outcome, may.witness)

    def test_static_reading_notes_state_dependence(self, figure1):
        v = check_ta_static_security(figure1, 6)
        assert v.outcome == INSECURE
        assert v.witness == (("p", "a"), ("a",), "B")
        assert any("state-dependent" in n for n in v.notes)

    def test_static_reading_notes_what_check_static_finds(self):
        seen = set()
        for seed in range(40):
            rng = random.Random(seed)
            system = shaped_system(rng, 4, 3, 2, 2, rng.choice([0.0, 0.1, 0.5]))
            changes = not check_static(system)
            v = check_ta_static_security(system, 3)
            assert any("state-dependent" in n for n in v.notes) == changes
            seen.add(changes)
        assert seen == {False, True}

    def test_globally_known_policy_accepted(self):
        v = check_globally_known(admin_system(), "D", 5)
        assert v.outcome == BOUNDED_SECURE
        assert any("locality cross-check passed" in n for n in v.notes)

    def test_globally_known_failed_cross_check_is_inconclusive(self, monkeypatch):
        bad = Verdict(
            property="locality",
            outcome=INSECURE,
            witness=(("h",), ("l",), "D", "L"),
            depth=5,
        )
        monkeypatch.setattr(nifcheck.checkers, "_locality_verdict", lambda idx: bad)
        v = check_globally_known(admin_system(), "D", 5)
        assert v.outcome == INCONCLUSIVE
        assert not v
        assert v.details["locality_witness"] == bad.witness
        assert any("cross-check failed" in n for n in v.notes)

    def test_globally_known_matches_the_python_grouping(self):
        rng = random.Random(4545)
        outcomes = set()
        for _ in range(320):
            base = shaped_system(
                rng, rng.randint(1, 6), rng.randint(1, 4), rng.randint(1, 3)
            )
            admin = base.signature.domains[0]
            public = {(admin, v) for v in base.signature.domains if v != admin}
            system = dataclasses.replace(
                base, edges={s: base.edges[s] | public for s in base.states}
            )
            for depth in range(5):
                got = check_globally_known(system, admin, depth)
                assert_same_verdict(got, python_globally_known(system, admin, depth))
                outcomes.add(got.outcome)
        assert outcomes == {BOUNDED_SECURE, INSECURE}

    def test_globally_known_ignores_actionless_domains_edges(self):
        """u3 owns no action, so its edge to u1, present in every other
        state, transmits nothing and must not make the policy state vary;
        locality, which reads the stripped system too, agrees."""
        for seed in range(12):
            base = shaped_system(random.Random(seed), 4, 3, 4, 3, 0.5)
            assert "u3" not in map(base.signature.domain_of, base.signature.actions)
            public = frozenset(("u0", v) for v in base.signature.domains if v != "u0")
            system = dataclasses.replace(
                base,
                edges={
                    s: public | ({("u3", "u1")} if i % 2 else set())
                    for i, s in enumerate(base.states)
                },
            )
            for depth in (2, 3):
                got = check_globally_known(system, "u0", depth)
                assert got.outcome == BOUNDED_SECURE
                assert_same_verdict(got, python_globally_known(system, "u0", depth))
                assert check_locality(system, depth).outcome == BOUNDED_SECURE

    def test_globally_known_builds_one_index(self, monkeypatch):
        builds = []
        build = TraceIndex.__init__

        def counting_build(self, *args):
            builds.append(args[1])
            build(self, *args)

        monkeypatch.setattr(TraceIndex, "__init__", counting_build)
        v = check_globally_known(admin_system(), "D", 5)
        assert v.outcome == BOUNDED_SECURE
        assert builds == [5]

    def test_globally_known_rejects_non_admin_changes(self):
        v = check_globally_known(admin_system(admin_changes_policy=False), "D", 5)
        assert v.outcome == INSECURE
        assert v.witness == ((), ("l",))
        assert any("not a function" in n for n in v.notes)

    def test_globally_known_requires_total_visibility(self, figure3):
        v = check_globally_known(figure3, "D", 5)
        assert v.outcome == INSECURE
        assert v.witness == ("s0", "H")

    def test_globally_known_unknown_domain(self, figure1):
        with pytest.raises(InputError):
            check_globally_known(figure1, "Z", 3)

    def test_policy_leq_requires_matching_signatures(self, figure1, figure3):
        with pytest.raises(InputError):
            policy_leq(figure1, figure3, 3)


class TestLocalityKnownTo:
    def test_property_names(self, figure3):
        assert check_locality(figure3, 4).property == "locality"
        assert check_locality(figure3, 4, known_to="sender").property == "locality-sender"
        assert (
            check_locality(figure3, 4, known_to="receiver").property
            == "locality-receiver"
        )

    def test_unknown_endpoint_rejected(self, figure3):
        with pytest.raises(InputError):
            check_locality(figure3, 4, known_to="both")

    def test_one_endpoint_knowing_implies_the_pair_knowing(self):
        for system in random_systems(1616, 30):
            pair = check_locality(system, 3)
            for known_to in ("sender", "receiver"):
                if check_locality(system, 3, known_to=known_to):
                    assert pair.outcome == BOUNDED_SECURE

    def test_witnesses_replay(self):
        seen = set()
        for system in random_systems(1717, 30):
            for known_to in ("sender", "receiver"):
                v = check_locality(system, 3, known_to=known_to)
                if v.outcome != INSECURE:
                    continue
                seen.add(known_to)
                x, y, u, w = v.witness
                end = u if known_to == "sender" else w
                assert ta_may(system, x, end) == ta_may(system, y, end)
                assert permits(system, run(system, x), u, w) != permits(
                    system, run(system, y), u, w
                )
        assert seen == {"sender", "receiver"}


    @staticmethod
    def pair_minima(system, depth):
        """Per unordered pair of domains, in check order: the least (y, x)
        of plain locality's violations on either edge between them, or
        None.  Read off ``class_violations``, which builds the pair of every
        group."""
        idx = TraceIndex(strip_inactive_edges(system)[0], depth)
        labels = idx.ta_labels().astype(np.int64)
        minima = []
        for ui, vi in itertools.combinations(range(idx.n_domains), 2):
            ids = _sorted_unique(labels[ui] * (int(labels.max()) + 1) + labels[vi])[1]
            rows = [
                (y, x)
                for a, b in ((ui, vi), (vi, ui))
                for x, y in class_violations(
                    idx, ids, idx.at_nodes(idx.edge_bool[:, a, b])
                ).tolist()
            ]
            minima.append(min(rows, default=None))
        return minima

    @classmethod
    def later_pair_competes(cls, system, depth):
        """Does an unordered pair of domains after the first violating one
        have a violation whose y is at or below the least y so far?  Then
        plain locality groups that pair on its bounded joint-key path, and
        the bound decides the verdict."""
        best = None
        for least in cls.pair_minima(system, depth):
            if least is not None and best is not None and least[0] <= best:
                return True
            if least is not None:
                best = least[0] if best is None else min(best, least[0])
        return False

    @classmethod
    def best_y_before(cls, system, depth):
        """Per unordered pair of domains, in check order: the least y of
        plain locality's violations over the pairs before it, or None."""
        bounds, best = [], None
        for least in cls.pair_minima(system, depth):
            bounds.append(best)
            if least is not None:
                best = least[0] if best is None else min(best, least[0])
        return bounds

    @staticmethod
    def python_masks(system, depth, bounds=None):
        """Per unordered pair of domains, in check order: the number of
        traces that plain locality's mask keeps, read off materialized
        traces, and whether a joint class of the pair offends.  A trace is
        kept if, for the edge a to b either way, its L_a class offends and
        its L_b class offends among the traces of offending L_a classes.
        Given ``bounds``, one per pair, a pair with a bound y takes its
        classes over the candidates alone: the traces whose labels at both
        endpoints occur among the traces up to the y-th."""
        system, _ = strip_inactive_edges(system)
        sig = system.signature
        traces = list(traces_upto(sig, depth))
        label = {(t, u): naive_ta_may(system, t, u) for t in traces for u in sig.domains}
        pairs = list(itertools.combinations(sig.domains, 2))
        bounds = [None] * len(pairs) if bounds is None else bounds

        def offending(members, key, atom):
            seen = {}
            for t in members:
                seen.setdefault(key(t), set()).add(atom[t])
            return {t for t in members if len(seen[key(t)]) > 1}

        masks = []
        for (u, v), bound in zip(pairs, bounds):
            cand = traces
            if bound is not None:
                low = {(label[t, w], w) for t in traces[: bound + 1] for w in (u, v)}
                cand = [t for t in traces if {(label[t, u], u), (label[t, v], v)} <= low]
            kept, joint_offends = set(), False
            for a, b in ((u, v), (v, u)):
                atom = {t: permits(system, run(system, t), a, b) for t in traces}
                live = offending(cand, lambda t: label[t, a], atom)
                kept |= offending(live, lambda t: label[t, b], atom)
                joint = offending(traces, lambda t: (label[t, a], label[t, b]), atom)
                joint_offends |= bool(joint)
            masks.append((len(kept), joint_offends))
        return masks

    def test_matches_the_oracle(self, monkeypatch):
        # Plain locality sorts the joint keys of each pair only on the mask's
        # nodes; the spy records those sorts.
        sorted_lengths = []

        def spy(keys):
            sorted_lengths.append(len(keys))
            return _sorted_unique(keys)

        monkeypatch.setattr(nifcheck.checkers, "_sorted_unique", spy)
        # three or more domains, so that distinct unordered pairs exist
        rng = random.Random(1818)
        systems = [
            s for s in random_systems(1818, 40, max_domains=4) if len(s.signature.domains) >= 3
        ] + [shaped_system(rng, rng.randint(2, 5), rng.randint(3, 5), d) for d in (3, 4) * 6]
        # two systems where a later pair of domains reaches the least y so far
        for r in map(random.Random, (8, 27)):
            systems.append(
                shaped_system(
                    r, r.randint(2, 5), r.randint(2, 5), r.choice((3, 4)),
                    edge_bias=r.choice((0.2, 0.35, 0.6)),
                )
            )
        systems.append(parity_edge_system())
        insecure = dict.fromkeys((None, "sender", "receiver", "isec", "gk"), 0)
        bounded = secure_kept = empty = later_kept = 0
        for system in systems:
            admin = system.signature.domains[0]
            public = {(admin, v) for v in system.signature.domains if v != admin}
            administered = dataclasses.replace(
                system, edges={s: system.edges[s] | public for s in system.states}
            )
            for depth in range(4):
                sorted_lengths.clear()
                for known_to in (None, "sender", "receiver"):
                    got = check_locality(system, depth, known_to=known_to)
                    want = python_locality(system, depth, known_to)
                    assert got.property == want.property
                    assert_same_verdict(got, want)
                    insecure[known_to] += got.outcome == INSECURE
                # The pairs up to the first violating one group their masks;
                # each later pair its mask over the nodes whose labels at
                # both endpoints occur up to the best y; the one-endpoint
                # variants sort nothing.
                bounds = self.best_y_before(system, depth)
                first = bounds.count(None)  # the pairs up to the first violating one
                masks = self.python_masks(system, depth, bounds)
                unbounded, later = masks[:first], masks[first:]
                assert sorted_lengths[:first] == [kept for kept, _ in unbounded]
                assert sorted_lengths[first:] == [kept for kept, _ in later]
                later_kept += any(kept for kept, _ in later)
                secure_kept += any(kept and not bad for kept, bad in unbounded)
                empty += any(not kept for kept, _ in unbounded)
                got = check_i_security(system, depth)
                assert_same_verdict(got, python_i_security(system, depth))
                insecure["isec"] += got.outcome == INSECURE
                got = check_globally_known(administered, admin, depth)
                assert_same_verdict(got, python_globally_known(administered, admin, depth))
                insecure["gk"] += got.outcome == INSECURE
                bounded += self.later_pair_competes(system, depth)
        assert min(insecure.values()) >= 2, insecure
        assert bounded >= 10, bounded
        # a secure pair whose single-label classes offend, and a pair whose
        # mask is empty
        assert secure_kept >= 4 and empty >= 10, (secure_kept, empty)
        # a later pair whose bounded mask keeps nodes
        assert later_kept >= 30, later_kept

    def test_a_later_pair_wins_after_the_first(self):
        # After the first violating pair of domains, plain locality numbers
        # the joint labels only of the nodes whose labels at both endpoints
        # occur up to the best y.  Here a later pair wins, on a smaller y or
        # on the same y with a smaller x.
        wins = {"smaller y": 0, "same y": 0}
        for seed in list(range(12)) + [79, 232, 243, 633]:
            r = random.Random(seed)
            system = shaped_system(
                r, r.randint(2, 5), r.randint(3, 5), r.choice((3, 4)),
                edge_bias=r.choice((0.2, 0.35, 0.6)),
            )
            for depth in (2, 3):
                got = check_locality(system, depth)
                assert_same_verdict(got, python_locality(system, depth))
                minima = self.pair_minima(system, depth)
                found = [least for least in minima if least is not None]
                if not found or min(found) == found[0]:
                    continue
                assert got.outcome == INSECURE
                y, x = min(found)
                wins["smaller y" if y < found[0][0] else "same y"] += 1
                idx = TraceIndex(system, depth)
                assert got.witness[:2] == (idx.trace_of(x), idx.trace_of(y))
        assert wins["smaller y"] >= 10 and wins["same y"] >= 4, wins

    def test_secure_capability_system_sorts_almost_no_joint_keys(
        self, corpus_dir, monkeypatch
    ):
        sorted_lengths = []

        def spy(keys):
            sorted_lengths.append(len(keys))
            return _sorted_unique(keys)

        monkeypatch.setattr(nifcheck.checkers, "_sorted_unique", spy)
        config = parse_cap_config((corpus_dir / "twoproc.cap").read_text())
        system = build_pes(config, 3)
        assert check_locality(system, 3).outcome == BOUNDED_SECURE
        n_nodes = sum(len(system.signature.actions) ** k for k in range(4))
        assert n_nodes == 242_235
        assert max(sorted_lengths, default=0) <= n_nodes // 100, sorted_lengths


class TestRestrictToLocal:
    def test_never_grants_more_than_the_original(self):
        for system in random_systems(6666, 10):
            depth = 3
            restricted = restrict_to_local(system, depth)
            sig = system.signature
            for trace in traces_upto(sig, depth):
                end = run(system, trace)
                assert restricted.edges[trace] <= system.edges[end]

    def test_localized_policy_passes_locality_inside_the_bound(self, figure4_doc):
        base = figure4_doc.base
        assert check_locality(base, 6).outcome == INSECURE
        restricted = restrict_to_local(base, 6)
        inner = check_locality(restricted, 4)
        assert inner.outcome == BOUNDED_SECURE

    def test_local_policy_is_unchanged(self, figure3):
        depth = 4
        assert check_locality(figure3, depth).outcome == BOUNDED_SECURE
        restricted = restrict_to_local(figure3, depth)
        for trace in traces_upto(figure3.signature, depth):
            assert restricted.edges[trace] == figure3.edges[run(figure3, trace)]

    def test_result_is_a_trace_tree(self, figure1):
        restricted = restrict_to_local(figure1, 3)
        assert restricted.initial == ()
        assert all(isinstance(s, tuple) for s in restricted.states)
        assert restricted.truncated == frozenset(
            s for s in restricted.states if len(s) == 3
        )

    def test_materialization_guard(self, figure1, monkeypatch):
        monkeypatch.setattr(nifcheck.checkers, "MATERIALIZE_LIMIT", 2)
        with pytest.raises(InputError):
            restrict_to_local(figure1, 3)


class TestStateCertifier:
    def test_certifies_figure3_at_every_depth(self, figure3):
        v = state_unwinding_check(figure3, mode="box")
        assert v.outcome == CERTIFIED_SECURE
        assert v.details["states_checked"] == 3
        assert any("certifies" in n for n in v.notes)

    def test_box_is_inconclusive_on_figure1(self, figure1):
        v = state_unwinding_check(figure1, mode="box")
        assert v.outcome == INCONCLUSIVE
        assert v.witness == ("s0", "s2", "B")
        assert any("not a counterexample" in n for n in v.notes)

    def test_diamond_matches_the_permissive_verdict_on_figure1(self, figure1):
        # box tracks the prohibitive reading, diamond the permissive one
        assert state_unwinding_check(figure1, mode="diamond").outcome == CERTIFIED_SECURE

    def test_unknown_mode_rejected(self, figure1):
        with pytest.raises(InputError):
            state_unwinding_check(figure1, mode="circle")

    def test_truncated_frontier_is_not_certified(self, corpus_dir):
        config = parse_cap_config((corpus_dir / "twoproc.cap").read_text())
        for depth, truncated in ((0, 1), (1, 16)):
            v = state_unwinding_check(build_pes(config, depth), mode="box")
            assert v.outcome == INCONCLUSIVE
            assert v.details["truncated_states"] == truncated
            assert any("truncated" in n for n in v.notes)

    def test_matches_the_python_fixpoint(self):
        rng = random.Random(6464)
        outcomes = set()
        for _ in range(200):
            system = shaped_system(
                rng,
                rng.randint(1, 8),
                rng.randint(1, 4),
                rng.randint(1, 3),
                edge_bias=rng.choice((0.2, 0.5, 0.8)),
            )
            for mode in ("box", "diamond"):
                got = state_unwinding_check(system, mode=mode)
                assert_same_verdict(got, python_state_unwinding(system, mode=mode))
                outcomes.add(got.outcome)
        assert outcomes == {CERTIFIED_SECURE, INCONCLUSIVE}

    def test_matches_the_python_fixpoint_on_truncated_capability_systems(
        self, corpus_dir
    ):
        config = parse_cap_config((corpus_dir / "twoproc.cap").read_text())
        for depth in (1, 2, 3):
            system = build_pes(config, depth)
            for mode in ("box", "diamond"):
                got = state_unwinding_check(system, mode=mode)
                assert_same_verdict(got, python_state_unwinding(system, mode=mode))

    def test_certification_is_sound_on_random_systems(self):
        for system in random_systems(7777, 15):
            boxed = state_unwinding_check(system, mode="box")
            if boxed.outcome == CERTIFIED_SECURE:
                assert check_unwinding_security(system, 4).outcome == BOUNDED_SECURE
            diamond = state_unwinding_check(system, mode="diamond")
            if diamond.outcome == CERTIFIED_SECURE:
                assert check_ta_may_security(system, 4).outcome == BOUNDED_SECURE


def wide_observation_system(rng, n_values: int) -> PolicyEnhancedSystem:
    """A random five-state core under which domain "l" has ``n_values``
    distinct observations: one fresh value per unreachable filler state,
    then the core's three, so the reachable states carry the largest
    observation ids."""
    actions = ("a", "b", "c")
    dom = {"a": "h", "b": "l", "c": "h"}
    core = tuple(f"s{i}" for i in range(5))
    fillers = tuple(f"f{i}" for i in range(n_values - 3))
    transitions = {(s, x): rng.choice(core) for s in core for x in actions}
    transitions.update({(f, x): f for f in fillers for x in actions})
    looks = rng.sample(range(3), 3) + [rng.randrange(3) for _ in range(2)]
    obs = {("l", s): ("core", v) for s, v in zip(core, looks)}
    obs.update({("l", f): ("filler", i) for i, f in enumerate(fillers)})
    obs.update({("h", s): rng.randrange(2) for s in core + fillers})
    pairs = (("h", "l"), ("l", "h"))
    edges = {s: frozenset(p for p in pairs if rng.random() < 0.5) for s in core}
    return PolicyEnhancedSystem(
        signature=Signature(domains=("h", "l"), actions=actions, dom=dom),
        states=fillers + core,
        initial=core[0],
        transitions=transitions,
        obs=obs,
        edges=edges,
    )


class TestWideObservations:
    """Observation ids take the narrowest unsigned dtype; every check that
    reads them agrees with its oracle at each width.  256 values still fit
    one byte (ids 0 to 255), so 257 is the first that needs two."""

    @pytest.mark.parametrize(
        "n_values, dtype, count",
        [(256, np.uint8, 8), (257, np.uint16, 8), (70_000, np.uint32, 2)],
    )
    def test_checks_match_the_oracles(self, n_values, dtype, count):
        rng = random.Random(n_values)
        depth = 3
        outcomes = set()
        for _ in range(count):
            system = wide_observation_system(rng, n_values)
            idx = TraceIndex(system, depth)
            assert idx.obs_ids.dtype == dtype
            assert int(idx.obs_ids[1].max()) == n_values - 1
            assert int(idx.at_nodes(idx.obs_ids[1]).min()) >= n_values - 3
            closure = naive_closure(system, depth)
            static_edges = system.edges[system.initial]
            for got, label_of in (
                (
                    check_ta_static_security(system, depth),
                    lambda t, u: naive_ta_static(system, static_edges, t, u),
                ),
                (check_ta_may_security(system, depth), lambda t, u: naive_ta_may(system, t, u)),
                (check_unwinding_security(system, depth), lambda t, u: closure[u][t]),
            ):
                want = python_label_verdict(system, depth, label_of, got.property)
                assert (got.outcome, got.witness) == (want.outcome, want.witness)
                outcomes.add(got.outcome)
            assert_same_verdict(check_i_security(system, depth), python_i_security(system, depth))
            assert_same_verdict(
                check_lpurge_security(system, depth), python_lpurge_security(system, depth)
            )
            for mode in ("box", "diamond"):
                assert_same_verdict(
                    state_unwinding_check(system, mode=mode),
                    python_state_unwinding(system, mode=mode),
                )
        assert INSECURE in outcomes  # witnesses are read at the widest ids


class TestInactiveEdges:
    def build(self):
        sig = Signature(
            domains=("A", "G"), actions=("a",), dom={"a": "A"}
        )
        states = ("s0",)
        return PolicyEnhancedSystem(
            signature=sig,
            states=states,
            initial="s0",
            transitions={("s0", "a"): "s0"},
            obs={("A", "s0"): 0, ("G", "s0"): 0},
            edges={"s0": frozenset({("G", "A")})},
        )

    def test_strips_edges_from_actionless_domains(self):
        system = self.build()
        stripped, notes = strip_inactive_edges(system)
        assert stripped.edges["s0"] == frozenset()
        assert len(notes) == 1 and "G" in notes[0]

    def test_identity_when_nothing_to_strip(self, figure1):
        stripped, notes = strip_inactive_edges(figure1)
        assert stripped is figure1
        assert notes == ()

    def test_checkers_note_the_stripping(self):
        v = check_ta_may_security(self.build(), 3)
        assert v.outcome == BOUNDED_SECURE
        assert any("inactive" in n for n in v.notes)

    def test_edges_of_actionless_domains_change_no_check(self):
        # Every trace check strips those edges first, so adding random ones
        # moves no outcome, witness or detail, and only adds the note.
        # ``check_globally_known`` is left out: its obligations read the
        # policy as given, idle edges included.
        checks = [
            check_ta_static_security,
            check_ta_may_security,
            check_ta_must_security,
            check_unwinding_security,
            check_lpurge_security,
            check_i_security,
        ] + [
            lambda system, depth, known_to=known_to: check_locality(system, depth, known_to)
            for known_to in (None, "sender", "receiver")
        ]
        rng = random.Random(2424)
        outcomes = set()
        for _ in range(24):
            n_domains = rng.randint(3, 4)
            system = shaped_system(
                rng, rng.randint(2, 4), rng.randint(1, n_domains - 1), n_domains,
                edge_bias=rng.choice((0.2, 0.35, 0.6)),
            )
            sig = system.signature
            clean, _ = strip_inactive_edges(system)
            idle = [u for u in sig.domains if u not in sig.dom.values()]
            extra = {
                s: {(u, v) for u in idle for v in sig.domains if u != v and rng.random() < 0.5}
                for s in system.states
            }
            extra[system.initial].add((idle[0], sig.domains[0]))  # one edge to strip at least
            noisy = dataclasses.replace(
                clean, edges={s: clean.edges[s] | extra[s] for s in system.states}
            )
            note = strip_inactive_edges(noisy)[1]
            runs = [(check, (depth,)) for check in checks for depth in (2, 3)] + [
                (state_unwinding_check, (mode,)) for mode in ("box", "diamond")
            ]
            for check, args in runs:
                got, want = check(noisy, *args), check(clean, *args)
                assert (got.outcome, got.witness, got.details) == (
                    want.outcome, want.witness, want.details,
                )
                assert got.notes == note + want.notes
                outcomes.add(got.outcome)
            for depth in (2, 3):
                granted = restrict_to_local(noisy, depth).edges
                assert granted == restrict_to_local(clean, depth).edges
                assert check_theorem_mustunwind(noisy, depth) == check_theorem_mustunwind(
                    clean, depth
                )
        assert outcomes == {INSECURE, BOUNDED_SECURE, INCONCLUSIVE, CERTIFIED_SECURE}, outcomes

    def test_partitions_match_the_unstripped_index(self):
        # Both kernels read only the rows of domains that own actions, so
        # the partitions built over the stripped index equal those of an
        # index over the edges as given.
        rng = random.Random(2525)
        for _ in range(12):
            n_domains = rng.randint(3, 4)
            system = shaped_system(
                rng, rng.randint(2, 4), rng.randint(1, n_domains - 1), n_domains, edge_bias=0.6
            )
            assert strip_inactive_edges(system)[1]  # an actionless domain holds edges
            for depth in (0, 1, 3):
                idx = TraceIndex(system, depth)
                may = label_partitions(idx, idx.ta_labels())
                roots, counts = idx.unwinding_roots()
                closure = label_partitions(idx, roots)
                got_may = ta_may_partitions(system, depth)
                got = nifcheck.unwinding.unwinding_partition(system, depth)
                assert got.rule_counts == counts
                for u in system.signature.domains:
                    assert got_may[u].classes() == may[u].classes()
                    assert got.partitions[u].classes() == closure[u].classes()


class TestBulkPartitions:
    def test_bulk_labels_match_single_trace_walks(self):
        from nifcheck import TreeArena, partition_by, ta_may

        for system in random_systems(8888, 8):
            sig = system.signature
            depth = 3
            bulk = ta_may_partitions(system, depth)
            arena = TreeArena()
            traces = list(traces_upto(sig, depth))
            for u in sig.domains:
                labels = {t: ta_may(system, t, u, arena) for t in traces}
                single = partition_by(sig, labels, depth, domain=u)
                got = {frozenset(c) for c in bulk[u].classes()}
                want = {frozenset(c) for c in single.classes()}
                assert got == want

    def test_label_partitions_match_partition_by(self):
        from nifcheck import partition_by

        rng = np.random.default_rng(8989)
        for system in random_systems(8989, 12):
            sig = system.signature
            for depth in (0, 1, 3):
                idx = TraceIndex(system, depth)
                traces = [idx.trace_of(i) for i in range(idx.n_nodes)]
                # permissive labels, random keys and one constant row
                rows = np.stack([
                    idx.ta_labels()[0],
                    rng.integers(0, 3, idx.n_nodes),
                    np.zeros(idx.n_nodes, dtype=np.int64),
                ])
                labels = rows[np.arange(len(sig.domains)) % len(rows)]
                got = label_partitions(idx, labels)
                for ui, u in enumerate(sig.domains):
                    values = dict(zip(traces, labels[ui].tolist()))
                    want = partition_by(sig, values, depth, domain=u)
                    assert got[u].classes() == want.classes()
                    assert list(got[u].traces()) == list(want.traces())
                    assert (got[u].domain, got[u].depth) == (u, depth)

    def test_materialization_guard(self, figure1, monkeypatch):
        monkeypatch.setattr(nifcheck.checkers, "MATERIALIZE_LIMIT", 2)
        with pytest.raises(InputError):
            ta_may_partitions(figure1, 3)


class TestFirstClash:
    @staticmethod
    def oracle(buckets, values):
        """(exemplar, offender): each bucket's first member is its exemplar,
        and the offender is the first member that differs from its own."""
        first = {}
        for i, b in enumerate(buckets):
            j = first.setdefault(b.tobytes(), i)
            if not np.array_equal(values[i], values[j]):
                return j, i
        return None

    def test_matches_the_oracle(self):
        gen = np.random.default_rng(3838)
        clashed = set()
        for _ in range(100):
            n = int(gen.integers(1, 30))
            ids = gen.integers(0, gen.integers(1, 8), n)
            rows = gen.integers(0, 2, (n, 3)).astype(np.int64)
            packed = rows.view(np.dtype((np.void, rows[0].nbytes))).ravel()
            flat = gen.integers(0, gen.integers(1, 4), n)
            wide = gen.random((n, int(gen.integers(1, 4)))) < 0.2
            for buckets in (ids, packed):
                for values in (flat, wide):
                    got = _first_clash(buckets, values)
                    assert got == self.oracle(buckets, values)
                    clashed.add(got is not None)
        assert clashed == {False, True}

    def test_a_clash_in_the_first_bucket(self):
        # bucket 0 sorts first and clashes at 2; bucket 5 clashes later, at 3
        buckets = np.array([5, 0, 0, 5])
        assert _first_clash(buckets, np.array([1, 1, 2, 0])) == (1, 2)
        assert _first_clash(buckets, np.array([[1, 0], [1, 1], [1, 1], [1, 0]])) is None
        assert _first_clash(buckets, np.array([[1, 0], [1, 1], [0, 1], [1, 0]])) == (1, 2)


class TestClassViolations:
    """The array witness rule against the per-group python one."""

    @staticmethod
    def agree(idx, key, values):
        pairs = class_violations(idx, key, values)
        assert pairs.shape == (len(pairs), 2)
        got = [(idx.trace_of(x), idx.trace_of(y)) for x, y in pairs.tolist()]
        assert got == python_class_violations(idx, key, values)
        return got

    def test_labels_and_observations(self):
        rng = random.Random(2727)
        found = 0
        for _ in range(15):
            system = shaped_system(
                rng, rng.randint(2, 6), rng.randint(1, 4), rng.randint(1, 3)
            )
            depth = rng.randint(1, 4)
            idx = TraceIndex(system, depth)
            labels = idx.ta_labels()
            roots, _ = idx.unwinding_roots()
            inner = idx.offs[depth]  # the traces shorter than the bound
            for ui in range(idx.n_domains):
                obs = idx.at_nodes(idx.obs_ids[ui]).astype(np.int64)
                for key in (labels[ui], roots[ui]):
                    found += len(self.agree(idx, key, obs))
                    self.agree(idx, key[:inner], obs[:inner])
        assert found

    def test_random_groups(self):
        gen = np.random.default_rng(2828)
        idx = TraceIndex(shaped_system(random.Random(2828), 5, 3, 2), 4)
        n = idx.n_nodes
        for groups in (1, 3, 10, 40):
            key = gen.integers(0, groups, n)
            values = gen.integers(0, 4, n)  # the larger groups hold 3-4 values
            mixed = {k for k in key.tolist() if len(set(values[key == k].tolist())) > 1}
            dense = self.agree(idx, key, values)
            assert len(dense) == len(mixed) > 0
            self.agree(idx, key[:40], values[:40])
            # the same groups under sparse ids, whole and cut before the
            # largest id first occurs (empty with one group)
            sparse = key * 1009 + 3
            assert self.agree(idx, sparse, values) == dense
            cut = int(np.argmax(sparse == sparse.max()))
            assert self.agree(idx, sparse[:cut], values[:cut]) == self.agree(
                idx, key[:cut], values[:cut]
            )
        # half the nodes in singleton groups
        key = np.where(gen.random(n) < 0.5, np.arange(n) + 10, gen.integers(0, 10, n))
        assert self.agree(idx, key, gen.integers(0, 3, n))

    @staticmethod
    def under_key_dtypes(monkeypatch, cases):
        """(dtype, case) for each of ``cases`` under each key dtype: int32,
        as tree labels and closure roots are, then intp, then int32 with
        gathers cut into chunks of 7 ids, so that every gather takes many
        chunks.  The chunk length holds while the caller runs the case."""
        for dtype, chunk in ((np.int32, None), (np.intp, None), (np.int32, 7)):
            with monkeypatch.context() as patch:
                if chunk is not None:
                    patch.setattr(nifcheck.traceindex, "_CHUNK", chunk)
                for case in cases:
                    yield dtype, case

    def test_bounded_search_matches_all_pairs(self, monkeypatch):
        # the least pair with y <= bound is the least-y row of all pairs
        gen = np.random.default_rng(3030)
        idx = TraceIndex(shaped_system(random.Random(3030), 5, 3, 2), 4)
        n = idx.n_nodes
        later_wins = 0
        for dtype, groups in self.under_key_dtypes(monkeypatch, (1, 3, 10, 40, 200)):
            for _ in range(3):
                dense = gen.integers(0, groups, n)
                values = gen.integers(0, 3, n)
                for key in (dense.astype(dtype), (dense * 1009 + 3).astype(dtype)):
                    pairs = class_violations(idx, key, values)
                    ys = pairs[:, 1]
                    for bound in [None] + list(range(-1, int(ys.max(initial=0)) + 2)):
                        rows = pairs if bound is None else pairs[ys <= bound]
                        want = tuple(rows[np.argmin(rows[:, 1])].tolist()) if len(rows) else None
                        assert _grouped_violation(idx, key, values, bound) == want
                    # rows follow the groups' least nodes, so row 0 is the
                    # group of the least offending node
                    later_wins += len(pairs) > 0 and int(np.argmin(ys)) != 0
        assert later_wins >= 3

    def test_node_subset_matches_the_whole(self, monkeypatch):
        # the nodes left out sit in singleton groups, which never offend
        gen = np.random.default_rng(3232)
        idx = TraceIndex(shaped_system(random.Random(3232), 5, 3, 2), 4)
        n = idx.n_nodes
        for dtype, groups in self.under_key_dtypes(monkeypatch, (1, 3, 10, 40, 200)):
            alone = gen.random(n) < 0.5
            key = np.where(alone, groups + np.arange(n), gen.integers(0, groups, n)).astype(dtype)
            values = gen.integers(0, 3, n)
            nodes = np.flatnonzero(~alone | (gen.random(n) < 0.1))
            ys = class_violations(idx, key, values)[:, 1]
            for bound in [None] + list(range(-1, int(ys.max(initial=0)) + 2)):
                want = _grouped_violation(idx, key, values, bound)
                assert _grouped_violation(idx, key[nodes], values[nodes], bound, nodes) == want

    def test_least_violation_ties_on_y_go_to_the_least_x(self):
        gen = np.random.default_rng(3131)
        later_wins = 0
        for seed in range(40):
            idx = TraceIndex(shaped_system(random.Random(seed), 4, 3, 3), 3)
            labels = gen.integers(0, gen.integers(1, 12), (3, idx.n_nodes))
            rows = [
                (y, x, ui)
                for ui in range(3)
                for x, y in class_violations(
                    idx, labels[ui], idx.at_nodes(idx.obs_ids[ui])
                ).tolist()
            ]
            want = min(rows, default=None)
            got = _least_violation(idx, labels)
            assert (None if got is None else got[:3]) == want
            # the fourth entry is y's key in the winning domain's row
            assert got is None or got[3] == labels[got[2]][got[0]]
            # an earlier domain has a pair with the same y but a larger x
            later_wins += any(r[0] == want[0] and r[2] < want[2] for r in rows)
        assert later_wins >= 2

    def test_constant_groups_have_no_pairs(self):
        idx = TraceIndex(shaped_system(random.Random(2929), 4, 3, 2), 3)
        n = idx.n_nodes
        key = np.arange(n) % 7
        assert self.agree(idx, np.arange(n), np.arange(n) % 2) == []
        assert self.agree(idx, key, np.zeros(n, dtype=np.int64)) == []
        assert self.agree(idx, key, key * 3) == []
        assert idx._lex is None  # lexicographic ranks are only built for witnesses
