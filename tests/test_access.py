"""Structured states, the monitor conditions, and the completeness construction."""

import random
import warnings
from collections import Counter

import numpy as np
import pytest

from nifcheck import (
    ALL_CONDITIONS,
    BOUNDED_SECURE,
    CERTIFIED_SECURE,
    INCONCLUSIVE,
    DrmReport,
    InputError,
    PolicyEnhancedSystem,
    Signature,
    StructuredSystem,
    ac_complete_construct,
    capability_drm_interpretation,
    check_drm,
    check_ta_may_security,
    derive_security_from_drm,
    dynacrel,
    parse_cap_config,
    run,
    standard_config,
    strip_inactive_edges,
    traces_upto,
)
import nifcheck.access
from nifcheck.traceindex import TraceIndex

from oracles import _validate_structured, objects_in, python_check_drm, random_system

OSET_U = ("oset", "U")
OSET_V = ("oset", "V")


def build_case(
    n_states: int = 2,
    trans: dict = None,
    obs: dict = None,
    edges: dict = None,
    watch: dict = None,
    alters: dict = None,
    values: dict = None,
    plain: tuple = ("x",),
    truncated: tuple = (),
) -> StructuredSystem:
    """Two-domain scaffold with the oset bookkeeping filled in.

    ``watch``/``alters`` give per (domain, state) extra objects and
    ``values`` per (object, state) contents, which the scaffold writes into
    the table arrays; contents of plain objects default to 0 and transitions
    to self-loops.  ``truncated`` flags states whose transitions are
    synthetic.
    """
    trans = trans or {}
    obs = obs or {}
    edges = edges or {}
    watch = watch or {}
    alters = alters or {}
    values = values or {}
    states = tuple(f"s{i}" for i in range(n_states))
    sig = Signature(domains=("U", "V"), actions=("u", "v"), dom={"u": "U", "v": "V"})
    base = PolicyEnhancedSystem(
        signature=sig,
        states=states,
        initial="s0",
        transitions={
            (s, a): trans.get((s, a), s) for s in states for a in sig.actions
        },
        obs={(d, s): obs.get((d, s), 0) for d in sig.domains for s in states},
        edges={s: frozenset(edges.get(s, ())) for s in states},
        truncated=frozenset(truncated),
    )
    osets = {"U": OSET_U, "V": OSET_V}
    objects = tuple(plain) + (OSET_U, OSET_V)
    at = {o: i for i, o in enumerate(objects)}
    contents = np.empty((len(objects), n_states), dtype=object)
    observe = np.zeros((2, n_states, len(objects)), dtype=bool)
    alter = np.zeros_like(observe)
    for si, s in enumerate(states):
        for di, d in enumerate(sig.domains):
            watched = frozenset({osets[d], *watch.get((d, s), ())})
            observe[di, si, [at[o] for o in watched]] = True
            alter[di, si, [at[o] for o in alters.get((d, s), ())]] = True
            contents[at[osets[d]], si] = watched
        for o in plain:
            contents[at[o], si] = values.get((o, s), 0)
    return StructuredSystem(
        base=base,
        objects=objects,
        osets=osets,
        contents=contents,
        observe=observe,
        alter=alter,
    )


def rebuild(case: StructuredSystem, **fields) -> StructuredSystem:
    """``case`` with some fields replaced, through the validating constructor."""
    names = ("base", "objects", "osets", "contents", "observe", "alter")
    return StructuredSystem(**{f: fields.get(f, getattr(case, f)) for f in names})


class TestDynacrel:
    def test_reflexive(self):
        system = build_case()
        assert dynacrel(system, "U", "s0", "s0")

    def test_separates_on_watched_contents(self):
        system = build_case(
            watch={("U", "s0"): ("x",), ("U", "s1"): ("x",)},
            values={("x", "s0"): 0, ("x", "s1"): 1},
        )
        assert not dynacrel(system, "U", "s0", "s1")
        # V does not watch x, so the states look alike to it
        assert dynacrel(system, "V", "s0", "s1")

    def test_symmetric_thanks_to_the_oset_object(self):
        # observe sets differ, so the oset contents differ, both directions
        system = build_case(watch={("U", "s1"): ("x",)})
        assert not dynacrel(system, "U", "s0", "s1")
        assert not dynacrel(system, "U", "s1", "s0")

    def test_unknown_domain_rejected(self):
        with pytest.raises(InputError):
            dynacrel(build_case(), "W", "s0", "s0")

    def test_uncovered_state_rejected(self):
        with pytest.raises(InputError):
            dynacrel(build_case(), "U", "s9", "s0")


class TestTableValidation:
    def test_duplicate_object_rejected(self):
        good = build_case()
        with pytest.raises(InputError):
            StructuredSystem(
                base=good.base,
                objects=("x", "x", OSET_U, OSET_V),
                osets=good.osets,
                contents=good.contents,
                observe=good.observe,
                alter=good.alter,
            )

    def test_missing_oset_rejected(self):
        good = build_case()
        with pytest.raises(InputError):
            StructuredSystem(
                base=good.base,
                objects=good.objects,
                osets={"U": OSET_U},
                contents=good.contents,
                observe=good.observe,
                alter=good.alter,
            )

    @pytest.mark.parametrize("name", ["contents", "observe", "alter"])
    def test_table_shapes_are_checked(self, name):
        good = build_case(n_states=3)
        table = getattr(good, name)
        # a state short, not an array, the wrong dtype
        for wrong in (table[:, :2], table.tolist(), table.astype(str)):
            with pytest.raises(InputError, match=f"{name} must be an array of shape"):
                rebuild(good, **{name: wrong})

    def test_tables_are_read_only(self):
        with pytest.raises(ValueError):
            build_case().observe[0, 0, 0] = False

    def test_oset_must_be_observable_at_every_state(self):
        # s1 is unreachable: the tables are still checked there
        good = build_case()
        observe = good.observe.copy()
        observe[1, 1, good.objects.index(OSET_V)] = False
        with pytest.raises(InputError, match="oset of 'V' is not observable at 's1'"):
            rebuild(good, observe=observe)

    def test_oset_contents_must_equal_the_observe_set(self):
        good = build_case()
        contents = good.contents.copy()
        contents[good.objects.index(OSET_U), 0] = frozenset({OSET_U, "x"})
        with pytest.raises(InputError, match=r"contents of oset\('U'\) at 's0' do not equal"):
            rebuild(good, contents=contents)

    def test_domains_sharing_an_oset_must_observe_the_same_set(self):
        good = build_case(watch={("U", "s0"): ("x",)})
        shared = {"U": OSET_U, "V": OSET_U}
        observe = good.observe.copy()
        observe[1, :, good.objects.index(OSET_U)] = True
        observe[1, :, good.objects.index(OSET_V)] = False
        with pytest.raises(InputError, match=r"contents of oset\('V'\) at 's0' do not equal"):
            rebuild(good, osets=shared, observe=observe)
        observe[1, 0, good.objects.index("x")] = True
        rebuild(good, osets=shared, observe=observe)

    def test_the_first_broken_pair_in_state_then_domain_order_raises(self):
        """With several pairs broken at once, the error is the per-pair
        scan's: the least state, then the least domain, and at one pair a
        hidden oset before wrong contents."""
        good = build_case(n_states=3)
        osets = [good.objects.index(OSET_U), good.objects.index(OSET_V)]
        breaks = [(si, di, kind) for si in range(3) for di in range(2) for kind in "hc"]
        rng = random.Random(6262)
        for _ in range(60):
            observe, contents = good.observe.copy(), good.contents.copy()
            for si, di, kind in rng.sample(breaks, rng.randint(2, 4)):
                if kind == "h":
                    observe[di, si, osets[di]] = False
                else:
                    contents[osets[di], si] = frozenset({"undeclared"})
            fields = dict(
                base=good.base,
                objects=good.objects,
                osets=good.osets,
                contents=contents,
                observe=observe,
                alter=good.alter,
            )
            with pytest.raises(InputError) as want:
                _validate_structured(**fields)
            with pytest.raises(InputError) as got:
                StructuredSystem(**fields)
            assert str(got.value) == str(want.value)

    def test_negative_depth_rejected(self):
        with pytest.raises(InputError):
            check_drm(build_case(), -1)


class TestEachCondition:
    """One crafted system per condition, failing it and nothing else."""

    def assert_only_fails(self, report: DrmReport, *names: str):
        failed = tuple(c.name for c in report.conditions if not c.holds)
        assert failed == names, failed

    def test_drm1_equal_looking_states_must_agree_on_obs(self):
        system = build_case(
            trans={("s0", "u"): "s1"},
            obs={("U", "s1"): 1},
        )
        report = check_drm(system, 3)
        self.assert_only_fails(report, "DRM-1")
        assert report.condition("DRM-1").witness == ("s0", "s1", "U")

    def test_drm2_joint_updates_must_agree(self):
        system = build_case(
            n_states=4,
            trans={("s0", "u"): "s1", ("s0", "v"): "s2", ("s1", "v"): "s3"},
            alters={(("V"), s): ("x",) for s in ("s0", "s1", "s2", "s3")},
            values={("x", "s2"): 1, ("x", "s3"): 2},
        )
        report = check_drm(system, 3)
        self.assert_only_fails(report, "DRM-2")
        assert report.condition("DRM-2").witness == ("s0", "s1", "v", "x")

    def test_drm3_changes_require_alter_rights(self):
        system = build_case(
            trans={("s0", "v"): "s1"},
            values={("x", "s1"): 1},
        )
        report = check_drm(system, 3)
        self.assert_only_fails(report, "DRM-3")
        assert report.condition("DRM-3").witness == ("s0", "v", "x")

    def test_drm4_observe_growth_is_bounded_by_the_actor(self):
        system = build_case(
            trans={("s0", "v"): "s1"},
            watch={("U", "s1"): ("x",)},
            alters={("V", "s0"): (OSET_U,), ("V", "s1"): (OSET_U,)},
            edges={"s0": {("V", "U")}, "s1": {("V", "U")}},
        )
        report = check_drm(system, 3)
        self.assert_only_fails(report, "DRM-4")
        assert report.condition("DRM-4").witness == ("s0", "v", "U", "x")

    def test_drm5_channel_width_fixed_while_the_flow_lasts(self):
        system = build_case(
            trans={("s0", "u"): "s1"},
            watch={("U", "s0"): ("x",), ("U", "s1"): ("x",)},
            alters={("V", "s0"): ("x",)},
            edges={"s0": {("V", "U")}, "s1": {("V", "U")}},
        )
        report = check_drm(system, 3)
        self.assert_only_fails(report, "DRM-5", "DRM-5'")
        assert report.condition("DRM-5").witness == ("s0", "s1", "U", "V")

    def test_strong_five_drops_the_edge_condition(self):
        system = build_case(
            trans={("s0", "u"): "s1"},
            watch={("U", "s0"): ("x",), ("U", "s1"): ("x",)},
            alters={("V", "s0"): ("x",)},
            edges={"s0": {("V", "U")}},
        )
        report = check_drm(system, 3)
        self.assert_only_fails(report, "DRM-5'")
        assert report.condition("DRM-5'").witness == ("s0", "s1", "U", "V")
        assert report.holds
        assert not check_drm(system, 3, strong_five=True).holds

    def test_drm6_overlap_requires_the_edge(self):
        system = build_case(
            n_states=1,
            watch={("V", "s0"): ("x",)},
            alters={("U", "s0"): ("x",)},
        )
        report = check_drm(system, 3)
        self.assert_only_fails(report, "DRM-6")
        assert report.condition("DRM-6").witness == ("s0", "U", "V")

    def test_clean_system_passes_everything(self):
        report = check_drm(build_case(), 3)
        self.assert_only_fails(report)
        assert report.holds
        assert check_drm(build_case(), 3, strong_five=True).holds


class TestReportShape:
    def test_conditions_come_in_fixed_order(self):
        report = check_drm(build_case(), 2)
        names = tuple(c.name for c in report.conditions)
        assert names == ("DRM-1", "DRM-2", "DRM-3", "DRM-4", "DRM-5", "DRM-5'", "DRM-6")
        assert set(names) == set(ALL_CONDITIONS)

    def test_unknown_condition_lookup_rejected(self):
        report = check_drm(build_case(), 2)
        with pytest.raises(InputError):
            report.condition("DRM-9")

    def test_json_round_trip_fields(self):
        report = check_drm(build_case(), 2)
        blob = report.to_json()
        assert blob["holds"] is True
        assert blob["depth"] == 2
        assert blob["strong_five"] is False
        assert [c["name"] for c in blob["conditions"]] == [
            c.name for c in report.conditions
        ]
        assert all(set(c) == {"name", "holds", "witness", "scope"} for c in blob["conditions"])

    def test_every_condition_records_a_scope(self):
        report = check_drm(build_case(), 2)
        assert all(c.scope for c in report.conditions)


class TestDeriveSecurity:
    def test_base_conditions_certify_the_permissive_reading(self):
        system = build_case(
            trans={("s0", "u"): "s1"},
            watch={("U", "s0"): ("x",), ("U", "s1"): ("x",)},
            alters={("V", "s0"): ("x",)},
            edges={"s0": {("V", "U")}},
        )
        verdict = derive_security_from_drm(check_drm(system, 3))
        assert verdict.outcome == CERTIFIED_SECURE
        assert verdict.details["certified"] == ["ta-permissive"]
        assert verdict.details["failed"] == ["DRM-5'"]

    def test_strong_five_extends_to_the_prohibitive_reading(self):
        verdict = derive_security_from_drm(check_drm(build_case(), 3))
        assert verdict.outcome == CERTIFIED_SECURE
        assert verdict.details["certified"] == ["ta-permissive", "unwinding"]

    def test_failed_conditions_certify_nothing(self):
        system = build_case(trans={("s0", "u"): "s1"}, obs={("U", "s1"): 1})
        verdict = derive_security_from_drm(check_drm(system, 3))
        assert verdict.outcome == INCONCLUSIVE
        assert verdict.details["certified"] == []
        assert "DRM-1" in verdict.details["failed"]
        assert any("not necessary" in n for n in verdict.notes)


class TestCompletenessConstruction:
    def test_materialization_guard(self, figure3, monkeypatch):
        monkeypatch.setattr(nifcheck.access, "MATERIALIZE_LIMIT", 2)
        with pytest.raises(InputError):
            ac_complete_construct(figure3, 3)

    def test_secure_system_yields_all_base_conditions(self, figure3):
        structured = ac_complete_construct(figure3, 4)
        report = check_drm(structured, 4, strong_five=True)
        assert report.holds
        assert all(c.holds for c in report.conditions)

    def test_figure1_passes_base_but_not_strong_five(self, figure1):
        structured = ac_complete_construct(figure1, 4)
        report = check_drm(structured, 4)
        assert report.holds
        strong = report.condition("DRM-5'")
        assert not strong.holds
        assert strong.witness == ((), ("p",), "B", "A")

    def test_tables_follow_the_policy(self, figure3):
        depth = 3
        structured = ac_complete_construct(figure3, depth)
        sig = figure3.signature
        labels = TraceIndex(figure3, depth).ta_labels()
        assert structured.base.states == tuple(traces_upto(sig, depth))
        for si, trace in enumerate(structured.base.states):
            granted = figure3.edges[run(figure3, trace)]
            for ui, u in enumerate(sig.domains):
                watched = frozenset({u, ("oset", u)})
                assert objects_in(structured, structured.observe[ui, si]) == watched
                assert objects_in(structured, structured.alter[ui, si]) == frozenset(
                    {u} | {v for (w, v) in granted if w == u}
                )
                at = structured.objects.index
                assert structured.contents[at(u), si] == labels[ui, si]
                assert structured.contents[at(("oset", u)), si] == watched

    def test_insecure_system_warns(self, figure4_doc):
        primed = figure4_doc.select("primed")
        assert check_ta_may_security(primed, 4).outcome == "INSECURE"
        with pytest.warns(UserWarning, match="failed the permissive"):
            structured = ac_complete_construct(primed, 4)
        assert not check_drm(structured, 4).holds

    def test_labels_once_and_warns_as_the_permissive_check(self, monkeypatch):
        calls = []
        build, label = TraceIndex.__init__, TraceIndex.ta_labels

        def counting_build(self, *args):
            calls.append("build")
            build(self, *args)

        def counting_labels(self, *args):
            calls.append("labels")
            return label(self, *args)

        monkeypatch.setattr(TraceIndex, "__init__", counting_build)
        monkeypatch.setattr(TraceIndex, "ta_labels", counting_labels)
        rng = random.Random(4242)
        warned = set()
        stripped = 0
        for _ in range(40):
            # random domains may own no action but still carry policy edges
            system = random_system(rng, max_domains=4, edge_bias=0.6)
            calls.clear()
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                ac_complete_construct(system, 3)
            assert calls == ["build", "labels"]
            stripped += bool(strip_inactive_edges(system)[1])
            secure = bool(check_ta_may_security(system, 3))
            assert bool(caught) != secure
            warned.add(secure)
        assert warned == {True, False}
        assert stripped

    def test_certificate_round_trip(self, figure3):
        # bounded check passes, construction certifies, derivation agrees
        assert check_ta_may_security(figure3, 4).outcome == BOUNDED_SECURE
        structured = ac_complete_construct(figure3, 4)
        verdict = derive_security_from_drm(check_drm(structured, 4))
        assert verdict.outcome == CERTIFIED_SECURE


def drm_json(check, system: StructuredSystem, depth: int):
    """The report as JSON, or the message of the InputError it raised."""
    try:
        return check(system, depth).to_json()
    except InputError as err:
        return str(err)


def assert_matches_oracle(system: StructuredSystem, depth: int):
    got = drm_json(check_drm, system, depth)
    assert got == drm_json(python_check_drm, system, depth)
    return got


def random_case(rng: random.Random) -> dict:
    """``build_case``'s fields over random tables, with some truncated states
    that have genuine transitions, and now and then one broken oset entry at
    a state that may be unreachable: an oset hidden from its domain, an
    observe entry changed without its oset, or oset contents changed."""
    states = [f"s{k}" for k in range(rng.randint(1, 5))]
    plain = ("x", "y")
    objects = plain + (OSET_U, OSET_V)

    def some(pool, p):
        return tuple(x for x in pool if rng.random() < p)

    case = build_case(
        n_states=len(states),
        trans={(s, a): rng.choice(states) for s in states for a in "uv" if rng.random() < 0.7},
        obs={(d, s): rng.randint(0, 1) for d in "UV" for s in states if rng.random() < 0.2},
        edges={s: some((("U", "V"), ("V", "U")), 0.6) for s in states},
        watch={(d, s): some(plain, 0.4) for d in "UV" for s in states},
        alters={(d, s): some(objects, 0.3) for d in "UV" for s in states},
        values={(o, s): rng.randint(0, 1) for o in plain for s in states if rng.random() < 0.4},
        plain=plain,
        truncated=some(states, 0.2),
    )
    fields = dict(
        base=case.base,
        objects=case.objects,
        osets=case.osets,
        contents=case.contents.copy(),
        observe=case.observe.copy(),
        alter=case.alter,
    )
    if rng.random() < 0.1:
        di, si = rng.randrange(2), rng.randrange(len(states))
        oset = objects.index((OSET_U, OSET_V)[di])
        broken = rng.randrange(3)
        if broken == 0:
            fields["observe"][di, si, oset] = False
        elif broken == 1:
            fields["observe"][di, si, rng.randrange(len(plain))] ^= True
        else:
            fields["contents"][oset, si] = frozenset({"undeclared"})
    return fields


class TestArrayScanMatchesOracle:
    """The array scan against the python scan over named entries: same
    report, same witnesses; and the constructor's table checks against a
    per-state scan: same errors."""

    def test_completeness_construction(self):
        rng = random.Random(5151)
        secure = set()
        for _ in range(120):
            system = random_system(rng, max_domains=3, edge_bias=rng.choice((0.3, 0.7)))
            depth = rng.randint(0, 3)
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                structured = ac_complete_construct(system, depth)
            secure.add(not caught)
            for check_depth in range(depth + 2):
                assert isinstance(assert_matches_oracle(structured, check_depth), dict)
        assert secure == {True, False}

    @pytest.mark.parametrize("depth", [1, 2, 3])
    def test_capability_interpretation(self, corpus_dir, depth):
        twoproc = parse_cap_config((corpus_dir / "twoproc.cap").read_text())
        three = standard_config(
            ("p", "q", "r"),
            ("n",),
            (0, 1),
            caps={"p": (("n", "+"), ("n", "-")), "r": (("n", "+"),)},
            kinds=("data", "add_cap", "add_tag", "remove_tag", "send_message_to"),
        )
        for config in (twoproc, three):
            structured = capability_drm_interpretation(config, depth)
            assert structured.base.truncated
            for check_depth in range(depth + 1):
                assert isinstance(assert_matches_oracle(structured, check_depth), dict)

    def test_random_tables(self):
        rng = random.Random(6161)
        failed = Counter()
        errors = Counter()
        for _ in range(1500):
            fields = random_case(rng)
            depth = rng.randint(0, 3)
            try:
                _validate_structured(**fields)
                expected = None
            except InputError as err:
                expected = str(err)
            try:
                system = StructuredSystem(**fields)
            except InputError as err:
                assert str(err) == expected
                errors[expected.split(" ")[0]] += 1
                continue
            assert expected is None
            got = assert_matches_oracle(system, depth)
            failed.update(c["name"] for c in got["conditions"] if not c["holds"])
        assert min(failed[name] for name in ALL_CONDITIONS) >= 10, failed
        assert min(errors[word] for word in ("oset", "contents")) >= 10, errors
