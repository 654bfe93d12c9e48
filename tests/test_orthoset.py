import pytest
from hypothesis import given, strategies as st

from orthokit import (
    BudgetExceededError,
    InputError,
    InvalidSubsetError,
    Orthoset,
    subset_key,
)
from orthokit import corpus
from orthokit.orthoset import ClosureTable

from oracles import family_by_scan, maximal_cliques_by_scan, perp_by_scan, rank_by_scan


@st.composite
def orthosets(draw, max_n=6):
    n = draw(st.integers(min_value=0, max_value=max_n))
    labels = [f"x{i + 1}" for i in range(n)]
    pairs = [
        (labels[i], labels[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    return Orthoset.build(labels, pairs)


def path4():
    return corpus.get("path4").build()


# ------------------------------------------------------------ construction


def test_build_rejects_duplicate_labels():
    with pytest.raises(InputError):
        Orthoset.build(["a", "a"], [])


def test_build_rejects_self_pair():
    with pytest.raises(InputError):
        Orthoset.build(["a", "b"], [("a", "a")])


def test_build_rejects_unknown_label():
    with pytest.raises(InputError):
        Orthoset.build(["a", "b"], [("a", "z")])


def test_adjacency_must_be_symmetric():
    with pytest.raises(InputError):
        Orthoset(("a", "b"), (frozenset({1}), frozenset()))


def test_adjacency_must_be_irreflexive():
    with pytest.raises(InputError):
        Orthoset(("a",), (frozenset({0}),))


def test_from_json_rejects_wrong_kind():
    with pytest.raises(InputError):
        Orthoset.from_json({"kind": "lattice", "payload": {}})


def test_json_roundtrip():
    x = path4()
    assert Orthoset.from_json(x.to_json()) == x


def test_subset_rejects_foreign_indices():
    x = path4()
    with pytest.raises(InvalidSubsetError):
        x.labels_of(frozenset({9}))


# ------------------------------------------------------- perp and closure


def test_perp_of_empty_is_universe():
    x = path4()
    assert x.perp(frozenset()) == x.universe


def test_perp_golden_path4():
    x = path4()
    assert x.labels_of(x.perp(x.subset(["b"]))) == ("a", "c")
    assert x.labels_of(x.perp(x.subset(["a", "c"]))) == ("b",)


def test_closure_golden_path4():
    x = path4()
    closed, already = x.closure(x.subset(["a"]))
    assert x.labels_of(closed) == ("a", "c")
    assert not already
    closed2, already2 = x.closure(closed)
    assert closed2 == closed and already2


@given(orthosets())
def test_perp_matches_scan_oracle(x):
    for s in family_by_scan(x):
        assert x.perp(s) == perp_by_scan(x, s)


@given(orthosets())
def test_closure_is_extensive_idempotent(x):
    for mask in range(1 << x.n):
        s = frozenset(i for i in range(x.n) if mask >> i & 1)
        c, _ = x.closure(s)
        assert s <= c
        assert x.closure(c)[0] == c


@given(orthosets(max_n=5))
def test_perp_is_antitone_and_triple_perp_collapses(x):
    subs = [frozenset(i for i in range(x.n) if m >> i & 1) for m in range(1 << x.n)]
    for s in subs:
        for t in subs:
            if s <= t:
                assert x.perp(t) <= x.perp(s)
        assert x.perp(x.closure(s)[0]) == x.perp(s)


# ---------------------------------------------------------------- family


def test_family_canonical_order():
    x = path4()
    fam = x.orthoclosed_family()
    assert fam == sorted(fam, key=subset_key)
    assert [list(x.labels_of(s)) for s in fam] == [
        [], ["b"], ["c"], ["a", "c"], ["b", "d"], ["a", "b", "c", "d"],
    ]


@given(orthosets())
def test_family_matches_powerset_scan(x):
    assert x.orthoclosed_family() == family_by_scan(x)


@given(orthosets())
def test_family_is_a_moore_family(x):
    fam = set(x.orthoclosed_family())
    assert x.universe in fam
    for s in fam:
        assert x.is_orthoclosed(s)
        for t in fam:
            assert s & t in fam


@given(orthosets(max_n=8))
def test_closure_table_matches_scan_oracles(x):
    t = ClosureTable(x)
    assert list(t.sets) == family_by_scan(x)
    for i, s in enumerate(t.sets):
        assert t.sets[t.perp[i]] == perp_by_scan(x, s)
    for m in range(1 << x.n):
        s = frozenset(i for i in range(x.n) if m >> i & 1)
        assert t.sets[t.close(m)] == perp_by_scan(x, perp_by_scan(x, s))


def test_family_budget_enforced():
    x = corpus.get("complete4").build()  # 16 orthoclosed sets
    with pytest.raises(BudgetExceededError):
        x.orthoclosed_family(budget=7)


# ------------------------------------------------------- cliques and rank


@given(orthosets(max_n=5))
def test_maximal_perp_sets_match_scan(x):
    fam = x.orthoclosed_family()
    for a in fam:
        assert x.maximal_perp_sets(a) == maximal_cliques_by_scan(x, a)


@given(orthosets(max_n=5))
def test_rank_matches_scan(x):
    assert x.rank() == rank_by_scan(x)


def test_perp_sets_of_empty_set():
    x = path4()
    assert x.maximal_perp_sets(frozenset()) == [frozenset()]


def test_clique_budget_enforced():
    x = corpus.get("complete4").build()
    with pytest.raises(BudgetExceededError):
        x.perp_sets(budget=3)


# ------------------------------------------------------------- predicates


def test_point_closed_witness():
    x = path4()
    v = x.is_point_closed()
    assert not v.holds
    assert v.witness == ("a", ("a", "c"))


def test_irreducible_golden():
    assert path4().is_irreducible().holds
    v = corpus.get("cycle4").build().is_irreducible()
    assert not v.holds
    assert v.witness == ("a", "c")  # one non-orthogonality component


def test_trivial_orthosets_are_irreducible_by_convention():
    empty = Orthoset.build([], [])
    single = Orthoset.build(["a"], [])
    assert empty.is_irreducible().holds
    assert single.is_irreducible().holds
    assert single.is_irreducible().note is not None


def test_transitive_golden_witnesses():
    v = path4().is_transitive()
    assert not v.holds and v.witness == ("a", "b")
    v = corpus.get("horizontal_sum_atoms").build().is_transitive()
    assert not v.holds and v.witness == ("a", "b")


def test_transitive_certificates_are_automorphisms():
    x = corpus.get("cycle4").build()
    v = x.is_transitive()
    assert v.holds
    for (e, f), table in v.witness.items():
        assert table[e] == f
        # table preserves the relation
        for p in x.labels:
            for q in x.labels:
                assert (x.index(q) in x.adj[x.index(p)]) == (
                    x.index(table[q]) in x.adj[x.index(table[p])]
                )
        # and fixes the common perp of the pair pointwise
        for i in x.perp(frozenset({x.index(e), x.index(f)})):
            assert table[x.labels[i]] == x.labels[i]


def test_transitive_bound_enforced():
    x = corpus.generate("complete_graph", {"n": 4})
    with pytest.raises(BudgetExceededError):
        x.is_transitive(bound=3)
