# Named fixture corpus: loading, expected-value evaluation, and the
# parametric generators.  Golden families and verdicts live in the JSON
# documents; these tests confirm the loader reproduces them and that the
# generators build the same objects up to ortholattice isomorphism.

import pytest

from orthokit import BudgetExceededError, FixtureError, InputError, Orthoset, find_lattice_iso
from orthokit import config, corpus


# ------------------------------------------------------------ fixture files


def test_fixture_listing_is_sorted_and_complete():
    names = corpus.list_names()
    assert names == sorted(names)
    assert set(names) == set(corpus.FIXTURE_NAMES)
    assert len(names) == 11


def test_every_fixture_loads_and_builds():
    for name in corpus.list_names():
        fix = corpus.get(name)
        assert fix.name == name
        assert fix.kind in ("orthoset", "lattice")
        assert fix.doc and fix.expected
        fix.build()


def test_unknown_fixture_name_raises():
    with pytest.raises(FixtureError):
        corpus.get("pentagon")


def test_load_returns_raw_document():
    doc = corpus.load("cycle4")
    assert doc["kind"] == "orthoset"
    assert doc["payload"]["elements"] == ["a", "b", "c", "d"]


# ------------------------------------------------------------- golden runs


def test_run_golden_is_all_green():
    outcomes = corpus.run_golden()
    assert len(outcomes) == 11
    for outcome in outcomes:
        assert outcome.ok, (outcome.name, {
            k: (v.expected, v.actual)
            for k, v in outcome.checks.items() if not v.ok
        })


def test_run_golden_enumerates_each_family_once(count_calls):
    calls = count_calls(Orthoset, "_closed_masks")
    assert all(o.ok for o in corpus.run_golden())
    orthosets = [n for n in corpus.list_names() if corpus.get(n).kind == "orthoset"]
    assert len(orthosets) == 6
    assert len(calls) == len({id(args[0]) for args in calls}) == len(orthosets)


def test_run_golden_honors_name_filter():
    outcomes = corpus.run_golden(["benzene", "mo2"])
    assert [o.name for o in outcomes] == ["benzene", "mo2"]


def test_outcome_to_json_shape():
    outcome = corpus.run_golden(["two_edges"])[0]
    doc = outcome.to_json()
    assert doc["name"] == "two_edges" and doc["ok"] is True
    assert set(doc["checks"]) == set(outcome.checks)
    for entry in doc["checks"].values():
        assert set(entry) == {"expected", "actual", "ok"}


def test_evaluate_fixture_rejects_unknown_check_key():
    fix = corpus.get("mo2")
    bad = corpus.NamedFixture(
        fix.name, fix.kind, fix.doc, fix.payload, {"chromatic_number": 3}
    )
    with pytest.raises(FixtureError):
        corpus.evaluate_fixture(bad)


# -------------------------------------------------------------- generators


def test_boolean_generator_matches_fixture():
    built = corpus.boolean_lattice(3)
    fixture = corpus.get("boolean3").build()
    assert find_lattice_iso(built, fixture) is not None


def test_mo_generator_matches_fixture():
    built = corpus.mo_lattice(2)
    fixture = corpus.get("mo2").build()
    assert find_lattice_iso(built, fixture) is not None


def test_horizontal_sum_generator_matches_fixture():
    built = corpus.horizontal_sum(
        corpus.boolean_lattice(2), corpus.boolean_lattice(3)
    )
    fixture = corpus.get("horizontal_sum_lattice").build()
    assert built.n == 10
    assert find_lattice_iso(built, fixture) is not None


def test_complete_graph_generator_matches_fixture_family():
    built = corpus.generate("complete_graph", {"n": 3})
    fixture = corpus.get("complete3").build()
    built_family = [
        [built.labels[i][1:] for i in sorted(s)] for s in built.orthoclosed_family()
    ]
    fixture_family = [
        [fixture.labels[i] for i in sorted(s)]
        for s in fixture.orthoclosed_family()
    ]
    # x1, x2, x3 rename a, b, c; the families coincide after the renaming
    rename = {"1": "a", "2": "b", "3": "c"}
    assert [[rename[e] for e in s] for s in built_family] == fixture_family


def test_mo_generator_large_stems():
    lat = corpus.mo_lattice(9)
    assert lat.n == 20
    assert "x1" in lat.labels and "x9'" in lat.labels


def test_horizontal_sum_rejects_pathological_summand():
    # a summand whose proper element has a non-proper orthocomplement
    # cannot be glued: only 0 and 1 may map to 0 and 1
    two_chain = corpus.boolean_lattice(1)  # just 0 and 1
    lat = corpus.horizontal_sum(two_chain, corpus.boolean_lattice(2))
    assert lat.n == 4  # nothing proper on the left to glue in


def test_lattice_generators_check_the_cap_before_building(monkeypatch):
    b5, b6 = corpus.boolean_lattice(5), corpus.boolean_lattice(6)

    def unreachable(*args, **kwargs):
        raise AssertionError("an oversized lattice was being built")

    monkeypatch.setattr(corpus, "_boolean_labels", unreachable)
    monkeypatch.setattr(corpus, "OrthoLattice", unreachable)
    for build in (
        lambda: corpus.boolean_lattice(40),  # 2^40 elements
        lambda: corpus.mo_lattice(40),  # 82 elements
        lambda: corpus.horizontal_sum(b5, b6),  # 2 + 30 + 62 elements
    ):
        with pytest.raises(BudgetExceededError):
            build()
    with config.budgets(lattice_cap=100), pytest.raises(BudgetExceededError):
        corpus.generate("boolean", {"n": 7})


def test_random_orthoset_is_seed_deterministic():
    a = corpus.random_orthoset(5, 0.4, seed=11)
    b = corpus.random_orthoset(5, 0.4, seed=11)
    c = corpus.random_orthoset(5, 0.4, seed=12)
    assert a.labels == b.labels and a.adj == b.adj
    different = [
        corpus.random_orthoset(5, 0.4, seed=s).adj != a.adj for s in range(20)
    ]
    assert any(different)
    assert c.n == 5


@pytest.mark.parametrize("args, text", [
    ((True, 0.5, 1), "generator parameter 'n' must be an integer, got True"),
    ((3, True, 0), "generator parameter 'p' must be a number, got True"),
    ((3, 0.5, False), "generator parameter 'seed' must be an integer, got False"),
    ((3.0, 0.5, 0), "generator parameter 'n' must be an integer, got 3.0"),
    ((3, "0.5", 0), "generator parameter 'p' must be a number, got '0.5'"),
    ((3, 0.5, "1"), "generator parameter 'seed' must be an integer, got '1'"),
])
def test_random_orthoset_checks_its_own_parameters(args, text):
    with pytest.raises(InputError) as err:
        corpus.random_orthoset(*args)
    assert str(err.value) == text


def test_generate_dispatch_and_errors():
    assert corpus.generate("boolean", {"n": 2}).n == 4
    assert corpus.generate("mo_n", {"n": 3}).n == 8
    assert corpus.generate("random_orthoset", {"n": 4}, seed=3).n == 4
    got = corpus.generate("horizontal_sum", {"ranks": [2, 2]})
    assert find_lattice_iso(got, corpus.mo_lattice(2)) is not None
    with pytest.raises(InputError):
        corpus.generate("petersen", {})
    with pytest.raises(InputError):
        corpus.generate("boolean", {})
    with pytest.raises(InputError):
        corpus.generate("boolean", {"n": 2, "extra": 1})
    with pytest.raises(InputError):
        corpus.generate("horizontal_sum", {"ranks": [2]})


@pytest.mark.parametrize("kind, params, key", [
    ("random_orthoset", {"n": True}, "n"),
    ("random_orthoset", {"n": 2.7}, "n"),
    ("random_orthoset", {"n": "3"}, "n"),
    ("random_orthoset", {"n": 3, "p": True}, "p"),
    ("horizontal_sum", {"ranks": [True, 2]}, "ranks"),
    ("complete_graph", {"n": -3}, "n"),
])
def test_generator_parameters_are_checked_not_coerced(kind, params, key):
    with pytest.raises(InputError) as err:
        corpus.generate(kind, params)
    assert f"generator parameter {key!r} must be" in str(err.value)


def test_integer_probability_builds_what_its_float_builds():
    one = corpus.generate("random_orthoset", {"n": 4, "p": 1}, seed=2)
    assert one == corpus.generate("random_orthoset", {"n": 4, "p": 1.0}, seed=2)
    assert one == corpus.generate("complete_graph", {"n": 4})
