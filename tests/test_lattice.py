import pytest
from hypothesis import given, strategies as st

from orthokit import (
    BudgetExceededError,
    LatticeLawError,
    NotOrthomodularError,
    Orthoset,
    atoms_and_covering,
    atoms_to_orthoset,
    build_lattice,
    check_lattice_iso,
    dacey_criterion,
    find_lattice_iso,
    is_basic,
    is_dacey,
    is_orthomodular,
    lattice_to_dot,
    oml_to_orthoset,
    orthoclosed_lattice,
    projection_facts,
    roundtrip_check,
    sasaki_projection,
    set_label,
    wilce_check,
)
from orthokit import corpus, lattice

from oracles import basic_to_basic_by_scan, covering_by_scan, meet_join_by_scan


def lat_of(name):
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


# ------------------------------------------------------------ construction


def test_build_lattice_closes_generating_relation():
    # only a chain of covers given; transitive closure must be taken
    lat = lat_of("boolean3")
    assert lat.leq(lat.index("a"), lat.index("1"))
    assert not lat.leq(lat.index("a"), lat.index("bc"))


def test_poset_cycle_rejected():
    doc = {
        "elements": ["0", "x", "y", "1"],
        "leq": [["0", "x"], ["x", "y"], ["y", "x"], ["y", "1"]],
        "ortho": {"0": "1", "x": "y", "y": "x", "1": "0"},
    }
    with pytest.raises(LatticeLawError) as err:
        build_lattice(doc)
    assert err.value.law == "not-a-poset"
    assert err.value.witness == ("x", "y")
    # a 3-cycle with no pair given both ways: c <= b only through c <= a <= b
    doc = {
        "elements": ["0", "c", "b", "a", "1"],
        "leq": [["0", "a"], ["a", "b"], ["b", "c"], ["c", "a"], ["c", "1"]],
        "ortho": {"0": "1", "a": "a", "b": "c", "c": "b", "1": "0"},
    }
    with pytest.raises(LatticeLawError) as err:
        build_lattice(doc)
    assert (err.value.law, err.value.witness) == ("not-a-poset", ("c", "b"))


def test_ortho_involution_violation_rejected():
    doc = corpus.get("boolean2").payload | {
        "ortho": {"0": "1", "p": "p", "p'": "p'", "1": "0"}
    }
    with pytest.raises(LatticeLawError) as err:
        build_lattice(doc)
    assert err.value.law in ("ortho-not-involution", "x-meet-ortho-not-zero")


def test_ortho_complement_violation_rejected():
    # swap ortho so that p ^ ortho(p) = p != 0
    doc = {
        "elements": ["0", "p", "q", "1"],
        "leq": [["0", "p"], ["0", "q"], ["p", "1"], ["q", "1"], ["p", "q"]],
        "ortho": {"0": "1", "p": "q", "q": "p", "1": "0"},
    }
    with pytest.raises(LatticeLawError):
        build_lattice(doc)


def test_missing_meet_rejected():
    # two minimal elements, no bottom: not a lattice
    doc = {
        "elements": ["x", "y", "1"],
        "leq": [["x", "1"], ["y", "1"]],
        "ortho": {"x": "y", "y": "x", "1": "1"},
    }
    with pytest.raises(LatticeLawError) as err:
        build_lattice(doc)
    assert (err.value.law, err.value.witness) == ("no-meet", ("x", "y"))


def test_missing_join_rejected():
    # two maximal elements, no top: not a lattice
    doc = {
        "elements": ["0", "x", "y"],
        "leq": [["0", "x"], ["0", "y"]],
        "ortho": {"0": "0", "x": "y", "y": "x"},
    }
    with pytest.raises(LatticeLawError) as err:
        build_lattice(doc)
    assert (err.value.law, err.value.witness) == ("no-join", ("x", "y"))


def test_lattice_cap_enforced():
    with pytest.raises(BudgetExceededError):
        corpus.boolean_lattice(7)  # 128 elements > default cap 64


def test_bounds_and_atoms_golden():
    lat = lat_of("horizontal_sum_lattice")
    assert lat.labels[lat.bottom] == "0"
    assert lat.labels[lat.top] == "1"
    assert [lat.labels[a] for a in lat.atoms] == ["a", "a'", "b", "c", "d"]
    assert lat.height(lat.top) == 3


def test_meet_join_against_downsets():
    lat = lat_of("boolean3")
    for i in range(lat.n):
        for j in range(lat.n):
            m, jn = lat.meet(i, j), lat.join(i, j)
            assert lat.leq(m, i) and lat.leq(m, j)
            assert lat.leq(i, jn) and lat.leq(j, jn)
            for k in range(lat.n):
                if lat.leq(k, i) and lat.leq(k, j):
                    assert lat.leq(k, m)
                if lat.leq(i, k) and lat.leq(j, k):
                    assert lat.leq(jn, k)


def assert_tables_match_scan(lat):
    scan = meet_join_by_scan(lat)
    assert [list(row) for row in lat.meet_t] == scan["meet"]
    assert [list(row) for row in lat.join_t] == scan["join"]
    assert (lat.bottom, lat.top) == (scan["bottom"], scan["top"])
    assert [lat.height(i) for i in range(lat.n)] == scan["heights"]


def test_tables_match_scan_oracle_on_generated_lattices():
    lats = [corpus.boolean_lattice(n) for n in range(1, 6)]
    lats += [corpus.mo_lattice(n) for n in range(1, 21)]
    lats += [
        corpus.horizontal_sum(corpus.boolean_lattice(m), corpus.boolean_lattice(n))
        for n in range(1, 4) for m in range(1, n + 1)
    ]
    for lat in lats:
        assert_tables_match_scan(lat)


@given(orthosets(max_n=6))
def test_tables_match_scan_oracle_on_orthoclosed_lattices(x):
    assert_tables_match_scan(orthoclosed_lattice(x))


# --------------------------------------------------------- orthomodularity


def test_orthomodular_golden():
    assert is_orthomodular(lat_of("boolean2")).holds
    assert is_orthomodular(lat_of("boolean3")).holds
    assert is_orthomodular(lat_of("mo2")).holds
    assert is_orthomodular(lat_of("horizontal_sum_lattice")).holds
    v = is_orthomodular(lat_of("benzene"))
    assert not v.holds
    assert v.witness == ("b", "bd")


def test_covering_golden():
    rep = atoms_and_covering(lat_of("horizontal_sum_lattice"))
    assert rep.atomistic.holds
    v = rep.covering
    assert not v.holds
    assert v.witness == ("b", "a", "c'")  # b v a = 1 fails to cover b


def test_benzene_not_atomistic():
    rep = atoms_and_covering(lat_of("benzene"))
    assert rep.atoms == ("b", "c")
    assert not rep.atomistic.holds
    assert rep.atomistic.witness == "bd" or rep.atomistic.witness == "ac"


# ------------------------------------------------------ orthoclosed lattice


def test_orthoclosed_lattice_of_path4_is_benzene():
    x = corpus.get("path4").build()
    lat = orthoclosed_lattice(x)
    assert lat.n == 6
    iso = find_lattice_iso(lat, lat_of("benzene"))
    assert iso is not None
    assert check_lattice_iso(lat, lat_of("benzene"), iso.table).holds


def test_orthoclosed_lattice_of_horizontal_sum_atoms():
    x = corpus.get("horizontal_sum_atoms").build()
    lat = orthoclosed_lattice(x)
    iso = find_lattice_iso(lat, lat_of("horizontal_sum_lattice"))
    assert iso is not None


def test_orthoclosed_lattice_of_cycle4_is_boolean2():
    x = corpus.get("cycle4").build()
    iso = find_lattice_iso(orthoclosed_lattice(x), lat_of("boolean2"))
    assert iso is not None


def test_orthoclosed_lattice_of_two_edges_is_mo2():
    x = corpus.get("two_edges").build()
    iso = find_lattice_iso(orthoclosed_lattice(x), lat_of("mo2"))
    assert iso is not None


def test_set_labels_used_for_elements():
    x = corpus.get("path4").build()
    lat = orthoclosed_lattice(x)
    assert "{a,c}" in lat.labels and "{}" in lat.labels


# ------------------------------------------------------------------ dacey


def test_dacey_criterion_witness_path4():
    v = dacey_criterion(corpus.get("path4").build())
    assert not v.holds
    assert v.witness == (("a", "c"), ("c",))


@given(orthosets())
def test_dacey_routes_agree(x):
    via_criterion = dacey_criterion(x).holds
    via_lattice = is_orthomodular(orthoclosed_lattice(x)).holds
    assert via_criterion == via_lattice
    assert is_dacey(x, via="criterion").holds == is_dacey(x, via="lattice").holds


# ------------------------------------------------------------ projections


def test_sasaki_projection_mo2_golden():
    lat = lat_of("mo2")
    a, b = lat.index("a"), lat.index("b")
    # pi_a(b) = a ^ (a' v b) = a ^ 1 = a
    assert sasaki_projection(lat, a, b) == a
    assert sasaki_projection(lat, a, lat.index("a'")) == lat.bottom


def test_projection_facts_hold_on_omls():
    for name in ("boolean2", "boolean3", "mo2", "horizontal_sum_lattice"):
        facts = projection_facts(lat_of(name))
        assert all(v.holds for v in facts.values()), name


def test_projection_facts_project_each_pair_once(count_calls):
    # the four laws read one table of the 16 * 16 projections of B4; law by
    # law they would make 5 * 16**2 + 16**3 = 5,376 calls
    calls = count_calls(lattice, "sasaki_projection")
    assert all(v.holds for v in projection_facts(corpus.boolean_lattice(4)).values())
    assert len(calls) == 256


def test_projection_facts_reject_benzene():
    with pytest.raises(NotOrthomodularError):
        projection_facts(lat_of("benzene"))


def test_fact_a_concretely_fails_without_orthomodularity():
    # b <= bd but pi_bd(b) = bd ^ (c v b) = bd ^ 1 = bd != b
    lat = lat_of("benzene")
    b, bd = lat.index("b"), lat.index("bd")
    assert lat.leq(b, bd)
    assert sasaki_projection(lat, bd, b) == bd


def test_wilce_golden():
    rep = wilce_check(lat_of("horizontal_sum_lattice"))
    assert not rep.covering.holds
    assert not rep.basic_to_basic.holds
    assert rep.agree
    assert rep.basic_to_basic.witness == ("b'", "a", "b'")  # pi_{b'}(a) = b'
    for name in ("boolean2", "boolean3", "mo2"):
        rep = wilce_check(lat_of(name))
        assert rep.covering.holds and rep.basic_to_basic.holds and rep.agree


@given(orthosets(max_n=6))
def test_covering_matches_scan_oracle(x):
    rep = atoms_and_covering(orthoclosed_lattice(x))
    atomistic, covering = covering_by_scan(orthoclosed_lattice(x))
    assert (rep.atomistic.holds, rep.atomistic.witness) == atomistic
    assert (rep.covering.holds, rep.covering.witness) == covering


def test_wilce_witnesses_match_scan_oracle_on_horizontal_sums():
    for m in range(2, 5):
        for n in range(m, 5):
            lat = corpus.horizontal_sum(corpus.boolean_lattice(m), corpus.boolean_lattice(n))
            rep = wilce_check(lat)
            basic = (rep.basic_to_basic.holds, rep.basic_to_basic.witness)
            assert basic == basic_to_basic_by_scan(lat), (m, n)
            assert (rep.covering.holds, rep.covering.witness) == covering_by_scan(lat)[1]
            assert rep.agree


def test_wilce_requires_orthomodularity():
    with pytest.raises(NotOrthomodularError):
        wilce_check(lat_of("benzene"))


def test_is_basic():
    lat = lat_of("mo2")
    assert is_basic(lat, lat.bottom)
    assert is_basic(lat, lat.index("a"))
    assert not is_basic(lat, lat.top)


# ---------------------------------------------------------------- bridges


def test_oml_to_orthoset_mo2():
    x = oml_to_orthoset(lat_of("mo2"))
    assert x.labels == ("a", "a'", "b", "b'", "1")
    assert x.index("a'") in x.adj[x.index("a")]
    assert x.index("b") not in x.adj[x.index("a")]


def test_atoms_to_orthoset_horizontal_sum():
    x = atoms_to_orthoset(lat_of("horizontal_sum_lattice"))
    fix = corpus.get("horizontal_sum_atoms").build()
    assert x.labels == fix.labels
    assert x.adj == fix.adj


def test_roundtrip_orthoset_side():
    rt = roundtrip_check(corpus.get("horizontal_sum_atoms").build())
    assert rt.ok and rt.direction == "orthoset"
    assert rt.mapping["a"] == "{a}"
    rt = roundtrip_check(corpus.get("path4").build())
    assert not rt.ok
    assert rt.hypothesis_failure[0] == "point-closed"


def test_roundtrip_lattice_side():
    rt = roundtrip_check(lat_of("horizontal_sum_lattice"))
    assert rt.ok and rt.direction == "lattice"
    rt = roundtrip_check(lat_of("benzene"))
    assert not rt.ok
    assert rt.hypothesis_failure[0] == "atomistic"


def test_roundtrip_enumerates_the_family_once(monkeypatch):
    # every enumeration, orthoclosed_family and ClosureTable alike, is a
    # call of the mask enumerator
    calls = []
    enumerate_family = Orthoset._closed_masks

    def counted(self, budget=None):
        calls.append(self.n)
        return enumerate_family(self, budget)

    monkeypatch.setattr(Orthoset, "_closed_masks", counted)
    for obj in (corpus.get("horizontal_sum_atoms").build(), lat_of("horizontal_sum_lattice")):
        calls.clear()
        assert roundtrip_check(obj).ok
        assert len(calls) == 1


@given(orthosets(max_n=5))
def test_roundtrip_holds_for_every_point_closed_orthoset(x):
    if x.is_point_closed().holds:
        rt = roundtrip_check(x)
        assert rt.ok, rt


# -------------------------------------------------------------------- iso


def test_check_lattice_iso_rejects_non_iso():
    a = lat_of("boolean2")
    b = lat_of("mo2")
    assert find_lattice_iso(a, b) is None


def test_check_lattice_iso_rejects_wrong_table():
    lat = lat_of("boolean2")
    # transposition of the two atoms is fine; swapping bottom and an atom is not
    bad = list(range(lat.n))
    bad[lat.bottom], bad[lat.index("p")] = bad[lat.index("p")], bad[lat.bottom]
    assert not check_lattice_iso(lat, lat, tuple(bad)).holds


# -------------------------------------------------------------------- dot


def test_dot_output_structure():
    lat = lat_of("benzene")
    dot = lattice_to_dot(lat, name="benzene")
    assert dot.startswith('digraph "benzene" {')
    assert '"b" -> "bd"' in dot
    assert "rank=same" in dot
    assert dot.count("penwidth=2") == len(lat.atoms)


def test_set_label_format():
    x = corpus.get("path4").build()
    assert set_label(x, x.subset(["a", "c"])) == "{a,c}"
    assert set_label(x, frozenset()) == "{}"
    y = Orthoset.build(["a", "b", "a,b", "c\\"], [])
    assert set_label(y, y.subset(["a", "b"])) == "{a,b}"
    assert set_label(y, y.subset(["a,b"])) == "{a\\,b}"
    assert set_label(y, y.subset(["a", "c\\"])) == "{a,c\\\\}"


def test_comma_in_label_keeps_lattice_labels_distinct():
    # {a,b} and {"a,b"} are both orthoclosed here; with one label for the
    # two, the lattice would reject a duplicate element label
    x = Orthoset.build(["a", "b", "a,b"], [("a", "b"), ("a", "a,b"), ("b", "a,b")])
    lat = orthoclosed_lattice(x)
    assert len(set(lat.labels)) == lat.n == 8
    assert is_dacey(x, via="lattice").holds == is_dacey(x, via="criterion").holds
