import hashlib
import json
import random
from itertools import combinations, product

import pytest
from hypothesis import given, strategies as st

from orthokit import (
    BudgetExceededError,
    CrossCheckError,
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
from orthokit import Verdict, config, corpus, lattice, sasaki
from orthokit.orthoset import ClosureTable, _bound_rows, _transpose
from orthokit.sasaki import SasakiMapWitness, _finch_law_failures, _finch_laws

from oracles import (
    finch_law_failures_by_scan,
    finch_laws_by_scan,
    sasaki_map_check_by_scan,
    sasaki_maps_by_scan,
)


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


def test_is_sasaki_map_reports_the_first_broken_fixed_point_in_index_order():
    x = corpus.generate("complete_graph", {"n": 9})
    table = {0: 8, 8: 0}
    for a in (frozenset([0, 8]), frozenset([8, 0])):
        assert is_sasaki_map(x, a, table).witness == ("fixes-target", "x1")


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


def test_is_sasaki_map_matches_scan_oracle_on_random_tables():
    """For every target of random orthosets with n from 6 to 11: the
    Sasaki map when one exists, seeded random tables that fix the target,
    and single-value corruptions of each, which may also move a fixed
    point.  Verdict and first witness must be the oracle's."""
    rng = random.Random(5)
    kinds = set()
    for n in range(6, 12):
        for p, seed in product((0.3, 0.5, 0.7), range(3)):
            x = corpus.random_orthoset(n, p, seed)
            for a in x.orthoclosed_family():
                dom = sorted(frozenset(range(x.n)) - x.perp(a))
                values = sorted(a)
                tables = [
                    {e: e if e in a else rng.choice(values) for e in dom} for _ in range(2)
                ]
                found = find_sasaki_map(x, a)
                if found.exists:
                    tables.append(found.witness.table)
                for table in list(tables) if dom else []:
                    for _ in range(2):
                        e = rng.choice(dom)
                        tables.append({**table, e: rng.choice(values)})
                for table in tables:
                    v = is_sasaki_map(x, a, table)
                    want = sasaki_map_check_by_scan(x, a, table)
                    assert (v.holds, v.witness) == want, (n, p, seed, a, table)
                    kinds.add(v.witness[0] if v.witness else None)
    assert kinds == {None, "fixes-target", "adjointness"}


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


def hs_cd_refutation():
    x = x_of("horizontal_sum_atoms")
    ref = find_sasaki_map(x, x.subset(["c", "d"])).refutation
    assert ref.free_order == (x.index("a"), x.index("a'"))
    return x, ref


def behind_every_value(ref):
    """The one-value wipe-out entries, each behind every value of A given
    first to another free element."""
    return tuple(((u, v), pair) for u in sorted(ref.target) for (v,), pair in ref.entries)


def test_refutation_in_another_order_is_accepted():
    # the wipe-out of a, recorded under the order (a', a): each value of a'
    # is tried first, then every value of a clashes as before
    x, ref = hs_cd_refutation()
    a, a2 = ref.free_order
    deep = behind_every_value(ref)
    assert len(deep) == 4
    assert verify_refutation(x, RefutationTrace(ref.target, (a2, a), deep))
    # prefixes read under an order they were not recorded in: the one-value
    # prefixes then assign a', and the conflicts name the unassigned a
    assert not verify_refutation(x, RefutationTrace(ref.target, (a2, a), ref.entries))


def test_refutation_order_must_be_a_permutation_of_the_free_set():
    x, ref = hs_cd_refutation()
    a, a2 = ref.free_order
    for order in [(a, a), (a, a2, a), (a,), (a2,), (a, a2, x.index("c")),
                  (a, a2, x.index("b")), (a, a2, 99), ()]:
        assert not verify_refutation(x, RefutationTrace(ref.target, order, ref.entries)), order
    # a repeat that leaves every element a position the prefixes agree with
    deep = behind_every_value(ref)
    assert not verify_refutation(x, RefutationTrace(ref.target, (a2, a, a2), deep))


def test_refutation_with_a_false_conflict_is_rejected():
    # phi(a) = c agrees with the fixed point c, phi(a) = d with d, and the
    # fixed points c, d agree with each other: none of these pairs clash
    x, ref = hs_cd_refutation()
    a = ref.free_order[0]
    c, d = x.index("c"), x.index("d")
    for i, pairs in enumerate([[(a, c), (c, d)], [(a, d), (d, c)]]):
        for pair in pairs:
            entries = list(ref.entries)
            entries[i] = (entries[i][0], pair)
            assert not verify_refutation(x, RefutationTrace(ref.target, ref.free_order, tuple(entries)))


def test_refutation_with_a_value_outside_the_target_is_rejected():
    # phi(a) = b would clash with the fixed point c, but b is no value of A
    x, ref = hs_cd_refutation()
    a = ref.free_order[0]
    extra = ((x.index("b"),), (a, x.index("c")))
    assert not verify_refutation(x, RefutationTrace(ref.target, ref.free_order, ref.entries + (extra,)))


def test_wipe_out_refutation_has_one_entry_per_value():
    x = corpus.generate("random_orthoset", {"n": 18, "p": 0.2}, seed=0)
    v = find_sasaki_map(x, x.subset(["x5", "x6", "x10"]))
    assert not v.exists and v.nodes == 3
    ref = v.refutation
    doc = ref.to_json(x)
    assert doc["order"][0] == "x15" and len(doc["trace"]) == 3
    assert sorted(doc["order"]) == sorted(
        x.labels[e] for e in x.universe - x.perp(ref.target) - ref.target
    )
    assert verify_refutation(x, ref)
    for i in range(len(ref.entries)):
        dropped = ref.entries[:i] + ref.entries[i + 1:]
        assert not verify_refutation(x, RefutationTrace(ref.target, ref.free_order, dropped))


def test_wipe_out_spends_one_node_per_value_of_the_budget():
    """The wipe-out above answers without a search, but still against the
    node budget: |A| - 1 nodes refuse it with the search's message."""
    x = corpus.generate("random_orthoset", {"n": 18, "p": 0.2}, seed=0)
    a = x.subset(["x5", "x6", "x10"])
    for call in (find_sasaki_map, count_sasaki_maps):
        with config.budgets(nodes=2), pytest.raises(BudgetExceededError) as err:
            call(x, a)
        assert str(err.value) == "sasaki search exceeded 2 nodes"
    with config.budgets(nodes=3):
        v = find_sasaki_map(x, a)
        assert count_sasaki_maps(x, a) == []
    assert v.nodes == 3 and verify_refutation(x, v.refutation)


# (p, seed) of random_orthoset(18, p): targets, refuted targets, nodes summed
# over the targets, and the head of the SHA-256 of every (nodes, witness or
# certificate JSON), recorded from the search that entered its loop on a
# wipe-out and validated every target by two perps
SEARCH_GOLDEN = {
    (0.2, 1): (44, 24, 318, "e3c39dce30552da9"),
    (0.2, 2): (40, 22, 285, "7525e4c2de5dbe39"),
    (0.5, 1): (396, 376, 1675, "21ab04888084b258"),
    (0.5, 2): (386, 366, 1627, "a4f453bc19b1ead8"),
    (0.8, 1): (2782, 2699, 15968, "d7a1c9c95f8d02cf"),
}


@pytest.mark.parametrize("p, seed", sorted(SEARCH_GOLDEN))
def test_certificates_and_nodes_match_the_golden(p, seed):
    x = corpus.generate("random_orthoset", {"n": 18, "p": p}, seed=seed)
    rows, nodes, refuted = [], 0, 0
    for a in x.orthoclosed_family():
        v = find_sasaki_map(x, a)
        nodes += v.nodes
        if v.exists:
            rows.append([v.nodes, v.witness.to_json(x)])
        else:
            refuted += 1
            assert verify_refutation(x, v.refutation)
            rows.append([v.nodes, v.refutation.to_json(x)])
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()[:16]
    assert (len(rows), refuted, nodes, digest) == SEARCH_GOLDEN[p, seed]


def test_targets_validated_by_the_kept_table_keep_their_errors():
    """Once the family is kept, targets are looked up in it; a set that is
    not orthoclosed is refused with the message of the perp check."""
    fresh, kept = x_of("path4"), x_of("path4")
    family = set(kept.orthoclosed_family())
    calls = [
        lambda x, a: find_sasaki_map(x, a),
        lambda x, a: count_sasaki_maps(x, a),
        lambda x, a: shortcut_construct(x, a),
        lambda x, a: is_sasaki_map(x, a, {}),
    ]
    others = [a for k in range(5) for a in map(frozenset, combinations(range(4), k)) if a not in family]
    assert len(others) == 10
    for a in others:
        for call in calls:
            messages = []
            for x in (fresh, kept):
                with pytest.raises(NotOrthoclosedError) as err:
                    call(x, a)
                messages.append(str(err.value))
            assert messages[0] == messages[1] == f"target {fresh.labels_of(a)!r} is not orthoclosed"
    for a in family:
        assert find_sasaki_map(kept, a) == find_sasaki_map(fresh, a)
    assert fresh._closure_table is None


def test_one_target_does_not_enumerate_the_family(count_calls):
    calls = count_calls(Orthoset, "_closed_masks")
    x = corpus.generate("random_orthoset", {"n": 18, "p": 0.5}, seed=1)
    a = x.closure(x.subset(["x1"]))[0]
    find_sasaki_map(x, a)
    count_sasaki_maps(x, a)
    shortcut_construct(x, a)
    assert calls == [] and x._closure_table is None


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


def test_sasaki_from_oml_refuses_a_table_that_fails_certification(monkeypatch):
    lat = corpus.get("mo2").build()
    x = oml_to_orthoset(lat)
    monkeypatch.setattr(sasaki, "is_sasaki_map", lambda x, a, table: Verdict(False, witness="w"))
    with pytest.raises(CrossCheckError) as err:
        sasaki_from_oml(lat, x.subset(["a"]), x)
    assert str(err.value) == "projection table failed certification: 'w'"


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


def test_sasaki_from_oml_under_another_element_order():
    # the orthoset of nonzero elements, rebuilt from its document with the
    # elements and pairs shuffled: every principal target gives the same
    # map by labels as in lattice order, and {a, b} is still refused
    rng = random.Random(22)
    for name, lat in (("horizontal_sum_lattice", corpus.get("horizontal_sum_lattice").build()),
                      ("MO3", corpus.mo_lattice(3))):
        x = oml_to_orthoset(lat)
        doc = x.to_json()
        for _ in range(5):
            rng.shuffle(doc["elements"])
            rng.shuffle(doc["orthogonal"])
            y = Orthoset.from_json(doc)
            assert y.labels != x.labels
            for p in range(lat.n):
                labels = [label for label in x.labels if lat.leq(lat.index(label), p)]
                want = sasaki_from_oml(lat, x.subset(labels), x).to_json(x)
                got = sasaki_from_oml(lat, y.subset(labels), y).to_json(y)
                assert sorted(got["target"]) == sorted(want["target"]), (name, p)
                assert got["map"] == want["map"], (name, p)
            for z in (x, y):
                a = z.subset(["a", "b"])
                with pytest.raises(NotPrincipalError) as err:
                    sasaki_from_oml(lat, a, z)
                assert str(err.value) == (
                    f"target {z.labels_of(a)!r} is not the trace of a principal down-set")


def test_sasaki_from_oml_scans_orthomodularity_once(count_calls):
    calls = count_calls(lattice, "_orthomodular_scan")
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
    for any table: the image of b minus perp(A) only grows with b.  The
    oracle's perps depend on the space alone, so they are shared."""
    failed = set()
    for name, x in finch_oracle_spaces().items():
        space = is_sasaki_space(x)
        fam = list(space.targets)
        t = ClosureTable(x)
        perps = {}
        for a in fam:
            if len(a) < 2:
                continue
            table = space.witnesses[a].table
            for e in sorted(table):
                for v in sorted(a - {table[e]}):
                    witnesses = dict(space.witnesses)
                    witnesses[a] = SasakiMapWitness(a, {**table, e: v})
                    got = laws_as_pairs(_finch_laws(x, t, witnesses))
                    assert got == finch_laws_by_scan(x, fam, witnesses, perps), (name, a, e, v)
                    failed |= {law for law, (holds, _) in got.items() if not holds}
    assert failed == {"composition", "adjoint_bound", "self_adjoint", "join_preserving"}


def test_finch_law_failures_match_scan_oracle_on_corrupted_bar_tables():
    """1,200 seeded single-entry corruptions of the induced-value tables of
    the oracle spaces (read through the public bar_phi), each law's first
    counterexample compared with the triple loops.  Every law, monotone
    included, fails on some of them."""
    rng = random.Random(13)
    failed = set()
    for name, x in finch_oracle_spaces().items():
        space = is_sasaki_space(x)
        t = x.closure_table()
        position = {s: i for i, s in enumerate(t.sets)}
        r = range(len(t.sets))
        bar = [[position[bar_phi(x, space.witnesses[a], b)] for b in t.sets] for a in t.sets]
        down, join = _transpose(t.up, len(r)), _bound_rows(t.up)
        top = position[x.universe]
        for _ in range(200):
            a, b = rng.choice(r), rng.choice(r)
            corrupt = [row[:] for row in bar]
            corrupt[a][b] = rng.choice([v for v in r if v != bar[a][b]])
            got = {law: next(found, None) for law, found in
                   _finch_law_failures(t.up, down, t.perp, join, corrupt, top).items()}
            want = {law: next(found, None) for law, found in
                    finch_law_failures_by_scan(t.up, t.perp, join, corrupt, top).items()}
            assert got == want, (name, a, b, corrupt[a][b])
            failed |= {law for law, w in got.items() if w is not None}
    assert failed == {"monotone", "composition", "adjoint_bound", "self_adjoint", "join_preserving"}


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


def test_finch_enumerates_the_family_once(count_calls):
    calls = count_calls(Orthoset, "_closed_masks")
    assert finch_report(x_of("complete4")).ok
    assert len(calls) == 1


@pytest.mark.parametrize("name", ["complete4", "two_edges"])
def test_formula_check_enumerates_the_family_once(name, count_calls):
    calls = count_calls(Orthoset, "_closed_masks")
    assert sasaki_formula_check(x_of(name)).holds
    assert len(calls) == 1


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


def test_property_report_enumerates_the_family_once(count_calls):
    calls = count_calls(Orthoset, "_closed_masks")
    assert property_report(x_of("complete4")).dacey.holds
    assert len(calls) == 1


def test_readers_of_a_kept_family_check_their_budget():
    """complete4 has 16 orthoclosed sets; once they are enumerated, each
    reader still refuses a smaller family budget, with the enumeration's
    own message."""
    x = x_of("complete4")
    assert len(x.orthoclosed_family()) == 16
    for budget, call in [
        (7, x.orthoclosed_family),
        (15, lambda: lattice.dacey_criterion(x)),
        (3, lambda: finch_report(x)),
    ]:
        with config.budgets(family=budget), pytest.raises(BudgetExceededError) as err:
            call()
        assert str(err.value) == f"orthoclosed family exceeds budget of {budget} sets"


def test_property_report_transitive_skipped_over_bound():
    x = corpus.generate("random_orthoset", {"n": 6, "p": 0.5}, seed=1)
    with config.budgets(automorphism=3):
        rep = property_report(x)
    assert rep.transitive is None
