import random
from dataclasses import FrozenInstanceError

import pytest
from hypothesis import given, strategies as st

from orthokit import (
    BudgetExceededError,
    CrossCheckError,
    LatticeLawError,
    NotOrthomodularError,
    Orthoset,
    atoms_and_covering,
    atoms_to_orthoset,
    build_lattice,
    check_lattice_iso,
    dacey_criterion,
    finch_report,
    find_lattice_iso,
    is_basic,
    is_dacey,
    is_orthomodular,
    lattice_to_dot,
    oml_to_orthoset,
    orthoclosed_lattice,
    projection_facts,
    roundtrip_check,
    sasaki_from_oml,
    sasaki_projection,
    set_label,
    wilce_check,
)
from orthokit import Verdict, config, corpus, lattice

from oracles import (
    basic_to_basic_by_scan,
    cover_pairs_by_scan,
    covering_by_scan,
    lattice_iso_by_scan,
    meet_join_by_scan,
    projections_by_scan,
    self_adjoint_by_scan,
)


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
    assert lat.cover_pairs() == cover_pairs_by_scan(lat)


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
    lat = orthoclosed_lattice(x)
    assert_tables_match_scan(lat)
    assert [lat.projection_row(i) for i in range(lat.n)] == projections_by_scan(lat)


# --------------------------------------------------------- orthomodularity


def test_orthomodular_golden():
    assert is_orthomodular(lat_of("boolean2")).holds
    assert is_orthomodular(lat_of("boolean3")).holds
    assert is_orthomodular(lat_of("mo2")).holds
    assert is_orthomodular(lat_of("horizontal_sum_lattice")).holds
    v = is_orthomodular(lat_of("benzene"))
    assert not v.holds
    assert v.witness == ("b", "bd")


def test_lattice_route_and_is_orthomodular_scan_once(count_calls):
    # is_dacey's lattice route and a later reader of the kept lattice share
    # one scan
    scans = count_calls(lattice, "_orthomodular_scan")
    x = corpus.get("path4").build()
    via_lattice = is_dacey(x, "lattice")
    assert is_orthomodular(orthoclosed_lattice(x)) is via_lattice
    assert not via_lattice.holds
    assert len(scans) == 1


def test_is_orthomodular_projection_facts_and_wilce_scan_once(count_calls):
    scans = count_calls(lattice, "_orthomodular_scan")
    lat = corpus.mo_lattice(3)
    assert is_orthomodular(lat).holds
    assert all(v.holds for v in projection_facts(lat).values())
    assert wilce_check(lat).agree
    assert len(scans) == 1


def test_atoms_and_covering_scans_once_and_keeps_the_report(count_calls):
    scans = count_calls(lattice, "_covering_scan")
    lat = lat_of("horizontal_sum_lattice")
    rep = atoms_and_covering(lat)
    assert atoms_and_covering(lat) is rep
    assert len(scans) == 1


def test_covering_report_is_frozen():
    # every caller reads the kept report, so none may change it
    lat = lat_of("horizontal_sum_lattice")
    rep = atoms_and_covering(lat)
    with pytest.raises(FrozenInstanceError):
        rep.covering = rep.atomistic
    assert not atoms_and_covering(lat).covering.holds


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


def test_find_lattice_iso_refuses_a_table_that_fails_certification(monkeypatch):
    monkeypatch.setattr(lattice, "check_lattice_iso", lambda a, b, table: Verdict(False, witness="w"))
    with pytest.raises(CrossCheckError) as err:
        find_lattice_iso(lat_of("benzene"), lat_of("benzene"))
    assert str(err.value) == "isomorphism table failed certification: 'w'"


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


def test_orthoclosed_lattice_is_kept():
    x = corpus.get("path4").build()
    assert orthoclosed_lattice(x) is orthoclosed_lattice(x)


def test_lattice_route_and_roundtrip_build_the_lattice_once(count_calls):
    calls = count_calls(lattice.OrthoLattice, "__init__")
    x = corpus.get("horizontal_sum_atoms").build()
    assert is_dacey(x, "lattice").holds
    lat = orthoclosed_lattice(x)
    assert roundtrip_check(x).ok
    assert len(calls) == 1 and calls[0][0] is lat


def test_kept_lattice_rechecks_the_cap():
    # 66 orthoclosed sets; finch reads no lattice, so the cap does not bind it
    with config.budgets(lattice_cap=100):
        x = oml_to_orthoset(corpus.mo_lattice(32))
    assert finch_report(x).ok
    with config.budgets(lattice_cap=100):
        assert orthoclosed_lattice(x).n == 66
    for route in (lambda: orthoclosed_lattice(x), lambda: is_dacey(x, "lattice")):
        with pytest.raises(BudgetExceededError) as err:
            route()
        assert str(err.value) == "lattice size 66 exceeds cap of 64"


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
    # the four laws read the 16 * 16 projections of B4, law by law they
    # would make 5 * 16**2 + 16**3 = 5,376 calls; wilce_check, the 16
    # principal targets of sasaki_from_oml and every projection_row read
    # the same kept rows, where computing afresh would make 495 calls
    calls = count_calls(lattice, "sasaki_projection")
    b4 = corpus.boolean_lattice(4)
    assert all(v.holds for v in projection_facts(b4).values())
    assert len(calls) == 256
    rep = wilce_check(b4)
    assert rep.covering.holds and rep.basic_to_basic.holds
    x = oml_to_orthoset(b4)
    for p in range(b4.n):
        a = frozenset(e for e in range(x.n) if b4.leq(b4.index(x.labels[e]), p))
        assert sasaki_from_oml(b4, a, x).target == a
    assert all(len(b4.projection_row(i)) == b4.n for i in range(b4.n))
    assert len(calls) == 256


def test_projection_rows_match_scan_oracle():
    # benzene is not orthomodular: rows do not need the law; the orthoclosed
    # lattices of small orthosets are checked with the meet and join tables
    lats = {f"B{n}": corpus.boolean_lattice(n) for n in range(1, 6)}
    lats |= {f"MO{n}": corpus.mo_lattice(n) for n in range(1, 13)}
    lats |= {
        f"B{m}+B{n}": corpus.horizontal_sum(corpus.boolean_lattice(m), corpus.boolean_lattice(n))
        for m in range(2, 5) for n in range(m, 5)
    }
    lats["benzene"] = lat_of("benzene")
    for name, lat in lats.items():
        assert [lat.projection_row(x) for x in range(lat.n)] == projections_by_scan(lat), name


def test_self_adjoint_law_matches_scan_oracle_on_corrupted_tables():
    """Law (d) holds on every orthomodular lattice, so its failing branch
    is reached only through corrupted projection tables: each moves one
    entry pi_x(y) to another element.  The first failing (x, y, z) must be
    the triple scan's, and None where the scan finds none (as on the
    uncorrupted tables)."""
    lats = {
        "B3": corpus.boolean_lattice(3),
        "MO3": corpus.mo_lattice(3),
        "B2+B3": corpus.horizontal_sum(corpus.boolean_lattice(2), corpus.boolean_lattice(3)),
        "B4": corpus.boolean_lattice(4),
    }
    rng = random.Random(12)
    failures = 0
    for name, lat in lats.items():
        r = range(lat.n)
        pi = [[sasaki_projection(lat, x, y) for y in r] for x in r]
        assert next(lattice._self_adjoint_failures(lat.up, lat.down, lat.ortho, pi), None) is None
        assert self_adjoint_by_scan(lat, pi) is None
        for _ in range(300):
            x, y = rng.randrange(lat.n), rng.randrange(lat.n)
            bad = [row[:] for row in pi]
            bad[x][y] = rng.choice([v for v in r if v != pi[x][y]])
            got = next(lattice._self_adjoint_failures(lat.up, lat.down, lat.ortho, bad), None)
            assert got == self_adjoint_by_scan(lat, bad), (name, x, y, bad[x][y])
            failures += got is not None
    assert failures > 0


def test_atoms_and_covering_reads_masks_not_leq(count_calls):
    # both scans read the atoms below x, and those not below it, off
    # down[x]: asked pair by pair, B4 would make 16 * 4 = 64 leq calls in
    # the atomistic scan and 32 covers calls in the covering scan
    b4 = corpus.boolean_lattice(4)
    leq = count_calls(lattice.OrthoLattice, "leq")
    covers = count_calls(lattice.OrthoLattice, "covers")
    rep = atoms_and_covering(b4)
    assert rep.atomistic.holds and rep.covering.holds and len(rep.atoms) == 4
    assert leq == [] and covers == []


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
    lats = [corpus.boolean_lattice(n) for n in range(1, 5)] + [corpus.mo_lattice(4)]
    lats += [lat_of(name) for name in ("benzene", "horizontal_sum_lattice")]
    for lat in lats:
        assert [is_basic(lat, x) for x in range(lat.n)] == [
            x == lat.bottom or x in lat.atoms for x in range(lat.n)
        ]


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


def test_roundtrip_enumerates_the_family_once(count_calls):
    # every enumeration is a call of the mask enumerator
    calls = count_calls(Orthoset, "_closed_masks")
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


def relabelled(lat, seed):
    """lat with its elements moved to shuffled indices."""
    rng = random.Random(seed)
    old = list(range(lat.n))
    rng.shuffle(old)  # new index k holds element old[k]
    new = {o: k for k, o in enumerate(old)}
    up = [sum(1 << new[j] for j in range(lat.n) if lat.leq(o, j)) for o in old]
    return lattice.OrthoLattice([lat.labels[o] for o in old], up, [new[lat.ortho[o]] for o in old])


def test_find_lattice_iso_matches_the_scan_oracle():
    # every ordered pair of equal size among the lattices of at most 8
    # elements and their relabellings: the same table, or None for both
    lats = [corpus.boolean_lattice(n) for n in range(1, 4)]
    lats += [corpus.mo_lattice(n) for n in range(1, 4)]
    lats += [corpus.horizontal_sum(corpus.boolean_lattice(2), corpus.boolean_lattice(2))]
    lats += [lat_of(name) for name in ("benzene", "boolean2", "boolean3", "mo2")]
    lats += [relabelled(lat, seed) for seed, lat in enumerate(lats)]
    for a in lats:
        for b in lats:
            if a.n == b.n:
                iso = find_lattice_iso(a, b)
                assert (iso and iso.table) == lattice_iso_by_scan(a, b)


def test_lattice_iso_search_depth_is_not_limited():
    # one level per element: 1,024, above the default recursion limit
    with config.budgets(lattice_cap=2000):
        b10 = corpus.boolean_lattice(10)
    iso = find_lattice_iso(b10, b10)
    assert iso is not None and check_lattice_iso(b10, b10, iso.table).holds


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
