"""Closure partitions, prohibitive trees, and their agreement check."""

import random

import pytest

import nifcheck.unwinding
from nifcheck import (
    InputError,
    PolicyEnhancedSystem,
    Signature,
    TreeArena,
    check_theorem_mustunwind,
    holds_distributed,
    ta_may,
    ta_must,
    ta_must_labels,
    traces_upto,
    unwinding_partition,
)

from oracles import (
    naive_closure,
    naive_ta_must,
    python_theorem_mustunwind,
    random_systems,
    shaped_system,
)


def downgrader_system() -> PolicyEnhancedSystem:
    """H may reach L only after D has acted."""
    sig = Signature(
        domains=("H", "D", "L"),
        actions=("h", "d", "l"),
        dom={"h": "H", "d": "D", "l": "L"},
    )
    states = ("s0", "s1")
    trans = {(s, a): ("s1" if a == "d" else s) for s in states for a in sig.actions}
    obs = {(u, s): 0 for u in sig.domains for s in states}
    obs[("L", "s1")] = 1
    edges = {
        "s0": frozenset({("D", "L"), ("H", "D")}),
        "s1": frozenset({("D", "L"), ("H", "D"), ("H", "L")}),
    }
    return PolicyEnhancedSystem(
        signature=sig,
        states=states,
        initial="s0",
        transitions=trans,
        obs=obs,
        edges=edges,
    )


def partition_shape(partition) -> set:
    return {frozenset(members) for members in partition.classes()}


def closure_shape(class_map) -> set:
    by_root = {}
    for trace, root in class_map.items():
        by_root.setdefault(root, set()).add(trace)
    return {frozenset(v) for v in by_root.values()}


class TestUnwindingPartition:
    def test_matches_pair_fixpoint_on_random_systems(self):
        for system in random_systems(909, 10):
            depth = 3
            result = unwinding_partition(system, depth)
            reference = naive_closure(system, depth)
            for u in system.signature.domains:
                assert partition_shape(result.partitions[u]) == closure_shape(
                    reference[u]
                )

    def test_matches_pair_fixpoint_on_downgrader(self):
        system = downgrader_system()
        result = unwinding_partition(system, 4)
        reference = naive_closure(system, 4)
        for u in system.signature.domains:
            assert partition_shape(result.partitions[u]) == closure_shape(reference[u])

    def test_deletion_rule_merges_unauthorized_suffix(self):
        system = downgrader_system()
        result = unwinding_partition(system, 3)
        # at s0 nothing lets H reach L, so an initial h is invisible to L
        assert result.same_class("L", (), ("h",))
        # the permitted d is not merged away
        assert not result.same_class("L", (), ("d",))

    def test_joint_step_rule_extends_merges(self):
        system = downgrader_system()
        result = unwinding_partition(system, 3)
        # nobody may flow to H or D here, so an initial l is invisible to both,
        # and acting afterwards preserves the merge for the actor
        assert result.same_class("H", ("h",), ("l", "h"))
        assert result.same_class("D", ("d",), ("l", "d"))
        # L itself performed the l, so its own classes stay apart
        assert not result.same_class("L", ("d",), ("l", "d"))

    def test_result_reports_saturation_and_rule_counts(self):
        system = downgrader_system()
        result = unwinding_partition(system, 3)
        assert result.depth == 3
        assert list(result.rule_counts) == ["dlr", "wsc", "sweeps", "regrouped"]
        assert all(count >= 0 for count in result.rule_counts.values())

    def test_materialization_guard(self, monkeypatch):
        monkeypatch.setattr(nifcheck.unwinding, "MATERIALIZE_LIMIT", 2)
        with pytest.raises(InputError):
            unwinding_partition(downgrader_system(), 3)


class TestHoldsDistributed:
    def test_group_knowledge_requires_every_equivalent_trace(self, figure2_doc):
        system = figure2_doc.base
        result = unwinding_partition(system, 3)
        # neither L nor D saw the possible initial h, and the post-h state
        # revokes the D to L edge, so the pair cannot be sure it still holds
        assert not holds_distributed(result, system, ("L",), ("D", "L"), ("d",))
        assert not holds_distributed(result, system, ("L", "D"), ("D", "L"), ("d",))
        # H knows whether it acted, so adding H settles the question
        assert holds_distributed(result, system, ("L", "H"), ("D", "L"), ("d",))

    def test_edge_false_everywhere_in_class(self, figure2_doc):
        system = figure2_doc.base
        result = unwinding_partition(system, 3)
        assert not holds_distributed(result, system, ("L", "D", "H"), ("H", "L"), ())

    def test_empty_group_rejected(self):
        system = downgrader_system()
        result = unwinding_partition(system, 2)
        with pytest.raises(InputError):
            holds_distributed(result, system, (), ("H", "L"), ())


class TestTaMust:
    def test_matches_oracle_on_random_systems(self):
        for system in random_systems(707, 8):
            depth = 3
            result = unwinding_partition(system, depth)
            reference = naive_closure(system, depth)
            arena = TreeArena()
            for trace in traces_upto(system.signature, depth):
                for u in system.signature.domains:
                    got = arena.to_tuple(ta_must(system, result, trace, u, arena))
                    want = naive_ta_must(system, reference, depth, trace, u)
                    assert got == want

    def test_matches_oracle_on_downgrader(self):
        system = downgrader_system()
        depth = 4
        result = unwinding_partition(system, depth)
        reference = naive_closure(system, depth)
        arena = TreeArena()
        for trace in traces_upto(system.signature, depth):
            for u in system.signature.domains:
                got = arena.to_tuple(ta_must(system, result, trace, u, arena))
                assert got == naive_ta_must(system, reference, depth, trace, u)

    def test_labels_agree_with_single_trace_walks(self):
        system = downgrader_system()
        depth = 3
        result = unwinding_partition(system, depth)
        arena = TreeArena()
        labels = ta_must_labels(system, result, arena=arena)
        for u in system.signature.domains:
            for trace in traces_upto(system.signature, depth):
                assert labels[u][trace] == ta_must(system, result, trace, u, arena)

    def test_branching_needs_group_certainty_not_just_the_edge(self, figure2_doc):
        system = figure2_doc.base
        result = unwinding_partition(system, 3)
        arena = TreeArena()
        # the D to L edge holds initially, yet L and D together cannot rule
        # out an unseen h that would have revoked it, so no node is added
        assert ta_must(system, result, ("d",), "L", arena) == arena.leaf
        # the permissive reading consults the initial state alone and branches
        assert ta_may(system, ("d",), "L", arena) != arena.leaf


class TestTheoremAgreement:
    def test_interior_agreement_on_corpus(self, figure1, figure3):
        for system in (figure1, figure3):
            report = check_theorem_mustunwind(system, 4, margin=1)
            assert report.interior_agrees
            assert bool(report)
            assert report.interior_mismatches == ()

    def test_interior_agreement_on_random_systems(self):
        for system in random_systems(808, 8):
            report = check_theorem_mustunwind(system, 4, margin=1)
            assert report.interior_agrees, report.interior_mismatches

    def test_matches_the_partition_route(self):
        for depth in (4, 5):
            for system in random_systems(818, 14):
                got = check_theorem_mustunwind(system, depth, margin=1)
                assert got == python_theorem_mustunwind(system, depth, margin=1)

    def test_matches_the_partition_route_with_mismatches(self):
        rng = random.Random(1)
        reports = []
        for _ in range(4):
            system = shaped_system(rng, n_states=8, n_actions=4, n_domains=3)
            got = check_theorem_mustunwind(system, 6, margin=1)
            assert got == python_theorem_mustunwind(system, 6, margin=1)
            reports.append(got)
        assert any(r.interior_mismatches for r in reports)
        assert all(r.boundary_mismatches for r in reports)

    def test_class_counts_cover_every_domain(self):
        system = downgrader_system()
        report = check_theorem_mustunwind(system, 4, margin=1)
        assert set(report.class_counts) == set(system.signature.domains)
        for pair in report.class_counts.values():
            assert len(pair) == 2

    def test_margin_bounds_enforced(self):
        system = downgrader_system()
        with pytest.raises(InputError):
            check_theorem_mustunwind(system, 3, margin=3)
        with pytest.raises(InputError):
            check_theorem_mustunwind(system, 3, margin=-1)
        assert check_theorem_mustunwind(system, 3, margin=0).depth == 3

    @pytest.mark.parametrize("margin", [1.5, 1.7, True, "x", None])
    def test_margin_must_be_an_int(self, margin):
        with pytest.raises(InputError, match="0 <= margin < depth"):
            check_theorem_mustunwind(downgrader_system(), 3, margin=margin)
