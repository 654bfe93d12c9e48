import pytest
from hypothesis import given, strategies as st

from orthokit import (
    HypothesisViolation,
    MapDomainError,
    NotOrthoclosedError,
    NotPrincipalError,
    NotSasakiSpaceError,
    Orthoset,
    RefutationTrace,
    bar_phi,
    count_sasaki_maps,
    finch_report,
    find_sasaki_map,
    is_sasaki_map,
    is_sasaki_space,
    oml_to_orthoset,
    property_report,
    sasaki_formula_check,
    sasaki_from_oml,
    shortcut_construct,
    verify_refutation,
)
from orthokit import corpus, lattice
from orthokit.orthoset import ClosureTable
from orthokit.sasaki import SasakiMapWitness, _finch_laws

from oracles import finch_laws_by_scan, sasaki_maps_by_scan


def x_of(name):
    return corpus.get(name).build()


@st.composite
def orthosets(draw, max_n=5):
    n = draw(st.integers(min_value=0, max_value=max_n))
    labels = [f"x{i + 1}" for i in range(n)]
    pairs = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return Orthoset.build(labels, pairs)


# ---------------------------------------------------------- map checking


def test_is_sasaki_map_accepts_identity_on_clopen_target():
    x = x_of("cycle4")
    a = x.subset(["a", "c"])
    table = {x.index("a"): x.index("a"), x.index("c"): x.index("c")}
    assert is_sasaki_map(x, a, table).holds


def test_is_sasaki_map_rejects_non_orthoclosed_target():
    x = x_of("path4")
    with pytest.raises(NotOrthoclosedError):
        is_sasaki_map(x, x.subset(["a"]), {})


def test_is_sasaki_map_rejects_wrong_domain():
    x = x_of("cycle4")
    a = x.subset(["a", "c"])
    with pytest.raises(MapDomainError):
        is_sasaki_map(x, a, {x.index("a"): x.index("a")})  # c missing


def test_is_sasaki_map_rejects_range_escape():
    x = x_of("cycle4")
    a = x.subset(["a", "c"])
    table = {x.index("a"): x.index("a"), x.index("c"): x.index("b")}
    with pytest.raises(MapDomainError):
        is_sasaki_map(x, a, table)


def test_is_sasaki_map_flags_broken_fixes():
    x = x_of("cycle4")
    a = x.subset(["a", "c"])
    table = {x.index("a"): x.index("c"), x.index("c"): x.index("a")}
    v = is_sasaki_map(x, a, table)
    assert not v.holds and v.witness[0] == "fixes-target"


def test_is_sasaki_map_flags_adjointness_failure():
    x = x_of("horizontal_sum_atoms")
    a = x.subset(["b", "c"])
    table = {
        x.index("a"): x.index("b"),
        x.index("a'"): x.index("b"),
        x.index("b"): x.index("b"),
        x.index("c"): x.index("c"),
    }
    v = is_sasaki_map(x, a, table)
    assert not v.holds and v.witness[0] == "adjointness"


# ------------------------------------------------------------- searching


def test_find_golden_witness_is_lex_least():
    x = x_of("two_edges")
    a = x.subset(["a"])
    v = find_sasaki_map(x, a)
    assert v.exists
    assert v.witness.to_json(x) == {
        "target": ["a"],
        "map": {"a": "a", "c": "a", "d": "a"},
    }


def test_find_refutation_path4():
    x = x_of("path4")
    v = find_sasaki_map(x, x.subset(["a", "c"]))
    assert not v.exists
    ref = v.refutation
    assert ref.to_json(x) == {
        "target": ["a", "c"],
        "order": ["d"],
        "trace": [
            {"prefix": ["a"], "conflict": ["d", "c"]},
            {"prefix": ["c"], "conflict": ["d", "c"]},
        ],
    }
    assert verify_refutation(x, ref)


def test_find_refutation_horizontal_sum_cd():
    # the free elements a, a' admit no value: phi(a) = c conflicts with (a, d),
    # phi(a) = d conflicts with (a, c)
    x = x_of("horizontal_sum_atoms")
    v = find_sasaki_map(x, x.subset(["c", "d"]))
    assert not v.exists
    trace = v.refutation.to_json(x)["trace"]
    assert trace == [
        {"prefix": ["c"], "conflict": ["a", "d"]},
        {"prefix": ["d"], "conflict": ["a", "c"]},
    ]
    assert verify_refutation(x, v.refutation)


def test_tampered_refutation_rejected():
    x = x_of("path4")
    v = find_sasaki_map(x, x.subset(["a", "c"]))
    ref = v.refutation
    # dropping a branch breaks coverage
    pruned = RefutationTrace(ref.target, ref.free_order, ref.entries[:1])
    assert not verify_refutation(x, pruned)
    # a conflict pair that does not actually conflict must be rejected
    forged_pair = (x.index("a"), x.index("c"))
    forged = RefutationTrace(
        ref.target, ref.free_order,
        ((ref.entries[0][0], forged_pair), ref.entries[1]),
    )
    assert not verify_refutation(x, forged)


def test_count_maps_unique_on_point_closed_space():
    x = x_of("horizontal_sum_atoms")
    for a in x.orthoclosed_family():
        if find_sasaki_map(x, a).exists:
            assert len(count_sasaki_maps(x, a, limit=2)) == 1


def test_count_maps_sees_multiple_on_non_point_closed_space():
    # a -- c -- b with d isolated: {a, b} is orthoclosed (perp {c}),
    # the domain is {a, b, d}, and the free element d may go to either
    # a or b because d is orthogonal to neither and so is its image
    x = Orthoset.build(["a", "b", "c", "d"], [("a", "c"), ("b", "c")])
    a = x.subset(["a", "b"])
    assert a in x.orthoclosed_family()
    maps = count_sasaki_maps(x, a, limit=3)
    assert len(maps) == 2
    tables = {tuple(sorted(m.to_json(x)["map"].items())) for m in maps}
    assert tables == {
        (("a", "a"), ("b", "b"), ("d", "a")),
        (("a", "a"), ("b", "b"), ("d", "b")),
    }


@given(orthosets(max_n=6))
def test_search_matches_the_scan_oracle(x):
    for a in x.orthoclosed_family():
        maps = sasaki_maps_by_scan(x, a)
        assert [w.table for w in count_sasaki_maps(x, a, limit=3)] == maps[:3]
        v = find_sasaki_map(x, a)
        if maps:
            assert v.exists and v.witness.table == maps[0]
        else:
            assert not v.exists and verify_refutation(x, v.refutation)


# -------------------------------------------------------------- shortcuts


def test_shortcut_clause_a_on_complete_graph():
    x = corpus.generate("complete_graph", {"n": 3})
    for a in x.orthoclosed_family():
        sc = shortcut_construct(x, a)
        assert sc is not None and sc.clause == "a"
        assert is_sasaki_map(x, a, sc.witness.table).holds


def test_shortcut_clause_c_on_singletons():
    x = x_of("two_edges")
    sc = shortcut_construct(x, x.subset(["a"]))
    assert sc is not None and sc.clause == "c"
    assert is_sasaki_map(x, sc.witness.target, sc.witness.table).holds


def test_shortcut_none_when_no_clause_applies():
    x = x_of("horizontal_sum_atoms")
    assert shortcut_construct(x, x.subset(["b", "c"])) is None


# ------------------------------------------------------------ space check


def test_space_verdicts_golden():
    assert is_sasaki_space(x_of("cycle4")).is_sasaki
    assert is_sasaki_space(x_of("two_edges")).is_sasaki
    assert is_sasaki_space(x_of("complete3")).is_sasaki
    v = is_sasaki_space(x_of("path4"))
    assert not v.is_sasaki
    assert x_of("path4").labels_of(v.first_failure) == ("a", "c")
    v = is_sasaki_space(x_of("horizontal_sum_atoms"))
    assert not v.is_sasaki
    assert x_of("horizontal_sum_atoms").labels_of(v.first_failure) == ("b", "c")


@given(orthosets())
def test_naive_and_reduced_modes_agree(x):
    naive = is_sasaki_space(x, "naive")
    reduced = is_sasaki_space(x, "reduced")
    assert naive.is_sasaki == reduced.is_sasaki
    # reduced targets are a sub-enumeration of the same family
    assert set(reduced.targets) <= set(naive.targets)


def test_every_witness_in_a_space_verdict_is_certified():
    x = x_of("two_edges")
    v = is_sasaki_space(x)
    assert v.is_sasaki
    for a, w in v.witnesses.items():
        assert is_sasaki_map(x, a, w.table).holds


# ------------------------------------------------- restriction of an OML


def test_sasaki_from_oml_mo2_golden():
    lat = corpus.get("mo2").build()
    x = oml_to_orthoset(lat)
    w = sasaki_from_oml(lat, x.subset(["a"]), x)
    assert w.to_json(x) == {
        "target": ["a"],
        "map": {"a": "a", "b": "a", "b'": "a", "1": "a"},
    }


def test_sasaki_from_oml_boolean2_golden():
    lat = corpus.get("boolean2").build()
    x = oml_to_orthoset(lat)
    w = sasaki_from_oml(lat, x.subset(["p"]), x)
    assert w.to_json(x) == {"target": ["p"], "map": {"p": "p", "1": "p"}}


def test_sasaki_from_oml_every_principal_target():
    lat = corpus.get("horizontal_sum_lattice").build()
    x = oml_to_orthoset(lat)
    for i in range(lat.n):
        a = frozenset(
            x.index(lat.labels[j])
            for j in range(lat.n)
            if j != lat.bottom and lat.leq(j, i)
        )
        w = sasaki_from_oml(lat, a, x)
        assert is_sasaki_map(x, a, w.table).holds


def test_sasaki_from_oml_scans_orthomodularity_once(count_calls):
    calls = count_calls(lattice, "is_orthomodular")
    lat = corpus.mo_lattice(3)
    x = oml_to_orthoset(lat)
    for i in range(lat.n):
        a = frozenset(e for e in range(x.n) if lat.leq(lat.index(x.labels[e]), i))
        sasaki_from_oml(lat, a, x)
    assert len(calls) == 1  # one scan per lattice, not one per target (8)


def test_sasaki_from_oml_rejects_non_principal():
    lat = corpus.get("mo2").build()
    x = oml_to_orthoset(lat)
    with pytest.raises(NotPrincipalError):
        sasaki_from_oml(lat, x.subset(["a", "b"]), x)


def test_sasaki_from_oml_rejects_benzene():
    from orthokit import NotOrthomodularError

    lat = corpus.get("benzene").build()
    with pytest.raises(NotOrthomodularError):
        sasaki_from_oml(lat, frozenset())


# ------------------------------------------------------------- induced map


def test_bar_phi_total_image_is_target():
    x = x_of("cycle4")
    v = is_sasaki_space(x)
    for a in v.targets:
        assert bar_phi(x, v.witnesses[a], x.universe) == a


def test_bar_phi_rejects_non_orthoclosed_argument():
    x = x_of("cycle4")
    v = is_sasaki_space(x)
    a = x.subset(["a", "c"])
    with pytest.raises(NotOrthoclosedError):
        bar_phi(x, v.witnesses[a], x.subset(["a"]))


def test_finch_laws_hold_on_corpus_sasaki_spaces():
    for name in ("complete3", "complete4", "cycle4", "two_edges"):
        rep = finch_report(x_of(name))
        assert rep.ok, (name, {k: v for k, v in rep.laws.items() if not v.holds})
        assert set(rep.laws) == {
            "monotone", "composition", "adjoint_bound",
            "self_adjoint", "join_preserving",
        }


def finch_oracle_spaces():
    """The corpus Sasaki spaces (complete4 is K4) and the points of MO3 and B3."""
    out = {name: x_of(name) for name in ("complete3", "complete4", "cycle4", "two_edges")}
    out["mo3"] = oml_to_orthoset(corpus.mo_lattice(3))
    out["b3"] = oml_to_orthoset(corpus.boolean_lattice(3))
    return out


def laws_as_pairs(laws):
    return {k: (v.holds, v.witness) for k, v in laws.items()}


def test_finch_laws_match_scan_oracle():
    for name, x in finch_oracle_spaces().items():
        space = is_sasaki_space(x)
        fam = list(space.targets)
        got = laws_as_pairs(_finch_laws(x, ClosureTable(x), space.witnesses))
        assert got == finch_laws_by_scan(x, fam, space.witnesses), name
        assert got == laws_as_pairs(finch_report(x).laws), name


def test_finch_laws_match_scan_oracle_on_corrupted_witnesses():
    """Each corruption moves one value of a non-singleton target to another
    element of the target.  Composition, adjoint_bound, self_adjoint and
    join_preserving each fail on some of them, so the failing branches and
    their first counterexamples are compared too.  Monotone cannot fail
    for any table: the image of b minus perp(A) only grows with b."""
    failed = set()
    for name, x in finch_oracle_spaces().items():
        space = is_sasaki_space(x)
        fam = list(space.targets)
        t = ClosureTable(x)
        for a in fam:
            if len(a) < 2:
                continue
            table = space.witnesses[a].table
            for e in sorted(table):
                for v in sorted(a - {table[e]}):
                    witnesses = dict(space.witnesses)
                    witnesses[a] = SasakiMapWitness(a, {**table, e: v})
                    got = laws_as_pairs(_finch_laws(x, t, witnesses))
                    assert got == finch_laws_by_scan(x, fam, witnesses), (name, a, e, v)
                    failed |= {law for law, (holds, _) in got.items() if not holds}
    assert failed == {"composition", "adjoint_bound", "self_adjoint", "join_preserving"}


def test_finch_reads_closures_from_the_table(monkeypatch):
    """Work guard: the law loops make no per-step perp calls, so only the
    map search touches Orthoset.perp (96 calls here; law loops that
    recompute a closure per step make about 400,000)."""
    calls = 0
    perp = Orthoset.perp

    def counting_perp(self, s):
        nonlocal calls
        calls += 1
        return perp(self, s)

    monkeypatch.setattr(Orthoset, "perp", counting_perp)
    assert finch_report(corpus.generate("complete_graph", {"n": 5})).ok
    assert calls < 2_000


def test_finch_rejects_non_sasaki_space():
    with pytest.raises(NotSasakiSpaceError) as err:
        finch_report(x_of("path4"))
    assert err.value.failure is not None


# ------------------------------------------------------ formula uniqueness


def test_formula_check_on_point_closed_sasaki_spaces():
    for name in ("complete3", "complete4", "two_edges"):
        assert sasaki_formula_check(x_of(name)).holds, name


def test_formula_check_rejects_non_point_closed():
    with pytest.raises(HypothesisViolation) as err:
        sasaki_formula_check(x_of("path4"))
    assert err.value.hypothesis == "point-closed"


def test_formula_check_rejects_non_sasaki():
    with pytest.raises(HypothesisViolation) as err:
        sasaki_formula_check(x_of("horizontal_sum_atoms"))
    assert err.value.hypothesis == "sasaki-space"


# ---------------------------------------------------------------- report


def test_property_report_bundles_verdicts():
    rep = property_report(x_of("path4"), name="path4")
    assert rep.n == 4 and rep.rank == 2
    assert not rep.point_closed.holds
    assert rep.irreducible.holds
    assert not rep.dacey.holds
    assert not rep.sasaki_naive.holds
    assert not rep.sasaki_reduced.holds
    assert rep.transitive is not None and not rep.transitive.holds


def test_property_report_transitive_skipped_over_bound():
    x = corpus.generate("random_orthoset", {"n": 6, "p": 0.5}, seed=1)
    rep = property_report(x, transitive_bound=3)
    assert rep.transitive is None
