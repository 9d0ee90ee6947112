import numpy as np
import pytest

from nifcheck import (
    DenseTransitions,
    DynamicPolicyAutomaton,
    InputError,
    PolicyEnhancedSystem,
    Signature,
    System,
    encode,
    permits,
    reachable_states,
    run,
    shortlex_key,
    step,
    traces_upto,
    unfold,
)
from nifcheck.model import lex_key

from oracles import BisimResult, check_bisimilar


def tiny(edges=None):
    sig = Signature(domains=("U", "V"), actions=("x", "y"), dom={"x": "U", "y": "V"})
    return PolicyEnhancedSystem(
        signature=sig,
        states=("s0", "s1"),
        initial="s0",
        transitions={
            ("s0", "x"): "s1",
            ("s0", "y"): "s0",
            ("s1", "x"): "s1",
            ("s1", "y"): "s0",
        },
        obs={("U", "s0"): 0, ("U", "s1"): 1, ("V", "s0"): 0, ("V", "s1"): 0},
        edges=edges or {"s0": frozenset(), "s1": frozenset({("U", "V")})},
    )


class TestSignature:
    def test_rejects_duplicate_action(self):
        with pytest.raises(InputError):
            Signature(("U",), ("x", "x"), {"x": "U"})

    def test_rejects_unassigned_action(self):
        with pytest.raises(InputError):
            Signature(("U",), ("x",), {})

    def test_rejects_foreign_domain(self):
        with pytest.raises(InputError):
            Signature(("U",), ("x",), {"x": "W"})

    def test_indices_follow_declaration_order(self):
        sig = Signature(("U", "V"), ("x", "y"), {"x": "U", "y": "V"})
        assert sig.action_index("y") == 1
        assert sig.domain_index("V") == 1
        assert sig.domain_of("x") == "U"
        with pytest.raises(InputError):
            sig.action_index("z")


class TestConstruction:
    def test_missing_transition_rejected(self):
        sig = Signature(("U",), ("x",), {"x": "U"})
        with pytest.raises(InputError):
            PolicyEnhancedSystem(
                signature=sig,
                states=("s0",),
                initial="s0",
                transitions={},
                obs={("U", "s0"): 0},
                edges={"s0": frozenset()},
            )

    def test_missing_obs_rejected(self):
        sig = Signature(("U",), ("x",), {"x": "U"})
        with pytest.raises(InputError):
            PolicyEnhancedSystem(
                signature=sig,
                states=("s0",),
                initial="s0",
                transitions={("s0", "x"): "s0"},
                obs={},
                edges={"s0": frozenset()},
            )

    def test_reflexive_edges_are_dropped(self):
        sys_ = tiny(edges={"s0": frozenset({("U", "U"), ("U", "V")}), "s1": frozenset()})
        assert sys_.edges["s0"] == frozenset({("U", "V")})
        assert permits(sys_, "s0", "U", "U")
        assert permits(sys_, "s1", "V", "V")
        assert not permits(sys_, "s1", "V", "U")

    def test_unknown_edge_domain_rejected(self):
        with pytest.raises(InputError):
            tiny(edges={"s0": frozenset({("U", "W")}), "s1": frozenset()})


class TestRun:
    def test_run_and_step(self):
        m = tiny()
        assert run(m, ()) == "s0"
        assert run(m, ("x", "y")) == "s0"
        assert run(m, ("x", "x")) == "s1"
        assert step(m, "s0", "x") == "s1"
        with pytest.raises(InputError):
            step(m, "s0", "z")

    def test_reachable_states_depths(self):
        m = tiny()
        assert reachable_states(m) == {"s0": 0, "s1": 1}
        assert reachable_states(m, depth=0) == {"s0": 0}


class TestTraceOrders:
    def test_traces_upto_is_shortlex_sorted(self):
        sig = tiny().signature
        ts = list(traces_upto(sig, 2))
        assert ts[0] == ()
        assert ts == sorted(ts, key=lambda t: shortlex_key(sig, t))
        assert len(ts) == 1 + 2 + 4

    def test_lex_prefix_sorts_first(self):
        sig = tiny().signature
        assert lex_key(sig, ("x",)) < lex_key(sig, ("x", "x"))
        assert lex_key(sig, ("x", "y")) < lex_key(sig, ("y",))


class TestEncode:
    def test_product_tracks_both_components(self):
        sig = tiny().signature
        machine = System(
            signature=sig,
            states=("m0", "m1"),
            initial="m0",
            transitions={
                ("m0", "x"): "m1",
                ("m0", "y"): "m0",
                ("m1", "x"): "m1",
                ("m1", "y"): "m1",
            },
            obs={("U", "m0"): 0, ("U", "m1"): 1, ("V", "m0"): 0, ("V", "m1"): 0},
        )
        policy = DynamicPolicyAutomaton(
            signature=sig,
            states=("p0", "p1"),
            initial="p0",
            transitions={
                ("p0", "x"): "p0",
                ("p0", "y"): "p1",
                ("p1", "x"): "p1",
                ("p1", "y"): "p1",
            },
            edges={"p0": frozenset(), "p1": frozenset({("U", "V")})},
        )
        pes = encode(machine, policy)
        s = run(pes, ("y", "x"))
        assert pes.obs[("U", s)] == 1
        assert permits(pes, s, "U", "V")
        s0 = run(pes, ("x",))
        assert not permits(pes, s0, "U", "V")


class TestUnfold:
    def test_states_are_traces_in_shortlex_order(self):
        m = tiny()
        t = unfold(m, 2)
        sig = m.signature
        assert list(t.states) == sorted(t.states, key=lambda x: shortlex_key(sig, x))
        assert t.initial == ()
        assert t.truncated == frozenset(s for s in t.states if len(s) == 2)

    def test_frontier_self_loops(self):
        m = tiny()
        t = unfold(m, 1)
        assert step(t, ("x",), "y") == ("x",)

    def test_transitions_are_a_dense_table(self):
        m = tiny()
        for depth in (0, 1, 3):
            t = unfold(m, depth)
            assert isinstance(t.transitions, DenseTransitions)
            assert t.transitions.state_order == t.states
            assert t.transitions.table.shape == (len(t.states), len(m.signature.actions))
            for tr in t.states:
                for a in m.signature.actions:
                    want = tr if len(tr) == depth else tr + (a,)
                    assert t.transitions[(tr, a)] == want

    def test_unfold_preserves_obs_and_edges(self):
        m = tiny()
        t = unfold(m, 3)
        for tr in t.states:
            s = run(m, tr)
            for u in m.signature.domains:
                assert t.obs[(u, tr)] == m.obs[(u, s)]
            assert t.edges[tr] == m.edges[s]


class TestBisimulation:
    def test_system_bisimilar_to_its_unfolding(self):
        m = tiny()
        res = check_bisimilar(m, unfold(m, 4), 4)
        assert isinstance(res, BisimResult)
        assert res.agree

    def test_detects_obs_difference(self):
        m = tiny()
        other = tiny()
        obs = dict(other.obs)
        obs[("U", "s1")] = 7
        other = PolicyEnhancedSystem(
            signature=other.signature,
            states=other.states,
            initial=other.initial,
            transitions=other.transitions,
            obs=obs,
            edges=dict(other.edges),
        )
        res = check_bisimilar(m, other, 4)
        assert not res.agree
        assert res.witness is not None


class TestDenseTransitions:
    def test_mapping_protocol_and_bulk_attributes(self):
        m = tiny()
        order = m.states
        actions = m.signature.actions
        table = np.array(
            [
                [order.index(m.transitions[(s, a)]) for a in actions]
                for s in order
            ],
            dtype=np.int32,
        )
        dense = DenseTransitions(table, order, actions)
        assert dense[("s0", "x")] == "s1"
        assert len(dense) == 4
        assert set(dense) == {(s, a) for s in order for a in actions}
        rebuilt = PolicyEnhancedSystem(
            signature=m.signature,
            states=m.states,
            initial=m.initial,
            transitions=dense,
            obs=dict(m.obs),
            edges=dict(m.edges),
        )
        assert run(rebuilt, ("x", "y")) == "s0"

    def test_shape_mismatch_rejected(self):
        m = tiny()
        bad = np.zeros((2, 3), dtype=np.int32)
        with pytest.raises(InputError):
            PolicyEnhancedSystem(
                signature=m.signature,
                states=m.states,
                initial=m.initial,
                transitions=DenseTransitions(bad, m.states, ("x", "y", "z")),
                obs=dict(m.obs),
                edges=dict(m.edges),
            )

    def test_out_of_range_rejected(self):
        m = tiny()
        bad = np.full((2, 2), 9, dtype=np.int32)
        with pytest.raises(InputError):
            PolicyEnhancedSystem(
                signature=m.signature,
                states=m.states,
                initial=m.initial,
                transitions=DenseTransitions(bad, m.states, m.signature.actions),
                obs=dict(m.obs),
                edges=dict(m.edges),
            )
