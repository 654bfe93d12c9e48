# Budgets: one path for the CLI and the library.  No public routine takes a
# budget argument; every call runs under config.budgets, which the CLI
# sets from its flags and a library caller sets with a `with` block.

import inspect

import pytest

import orthokit
from orthokit import BudgetExceededError, InputError, OrthoLattice, Orthoset, config, corpus
from orthokit.orthoset import ClosureTable


def current():
    return {name: config.resolve(name) for name in config.BUDGETS}


def public_callables():
    """Every callable of orthokit.__all__, the public methods and the
    constructors of the three table classes, and the corpus generators."""
    for name in orthokit.__all__:
        yield f"orthokit.{name}", getattr(orthokit, name)
    for cls in (Orthoset, OrthoLattice, ClosureTable):
        for name in vars(cls):
            if name == "__init__" or not name.startswith("_"):
                yield f"{cls.__name__}.{name}", getattr(cls, name)
    for name in ("boolean_lattice", "mo_lattice", "horizontal_sum", "random_orthoset", "generate"):
        yield f"corpus.{name}", getattr(corpus, name)


def test_no_public_callable_takes_a_budget():
    exempt = {config.snapshot, config.budgets}
    offending = []
    for where, obj in public_callables():
        if not callable(obj) or obj in exempt or (isinstance(obj, type) and issubclass(obj, Exception)):
            continue
        try:
            params = inspect.signature(obj).parameters
        except ValueError:  # a builtin without a signature
            continue
        offending += [f"{where}({p})" for p in params
                      if any(word in p for word in ("budget", "cap", "bound"))]
    assert offending == []


@pytest.mark.parametrize("value, message", [
    (-1, "family budget must be non-negative, got -1"),
    (2.5, "family budget must be an integer, got 2.5"),
    (True, "family budget must be an integer, got True"),
    ("3", "family budget must be an integer, got '3'"),
])
def test_a_malformed_budget_is_refused_and_changes_nothing(value, message):
    before = current()
    with pytest.raises(InputError) as err:
        with config.budgets(family=value):
            pass
    assert str(err.value) == message
    assert current() == before


def test_budgets_are_restored_when_the_body_raises():
    before = current()
    x = corpus.get("complete4").build()  # 16 orthoclosed sets
    with pytest.raises(BudgetExceededError):
        with config.budgets(family=7):
            x.orthoclosed_family()
    assert current() == before
    assert len(x.orthoclosed_family()) == 16


def test_nested_budgets_override_only_the_names_they_give():
    before = current()
    with config.budgets(family=7, nodes=5):
        with config.budgets(nodes=9, lattice_cap=3):
            assert current() == {**before, "family": 7, "nodes": 9, "lattice_cap": 3}
        assert current() == {**before, "family": 7, "nodes": 5}
    assert current() == before


def test_an_unknown_budget_name_is_refused():
    with pytest.raises(TypeError):
        with config.budgets(famly=7):
            pass


def test_snapshot_refuses_an_unknown_budget_name():
    with pytest.raises(TypeError, match="^unknown budget 'famly'; known: family, clique, "):
        config.snapshot(famly=1)
