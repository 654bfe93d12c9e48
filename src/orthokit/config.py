"""Budgets: their defaults, ORTHOKIT_* variables and CLI flags, and the
run's values.

Every potentially expensive routine reads the budget it enforces with
`resolve`: the current run's value, the default outside a run.  No routine
takes a budget argument; `with budgets(family=...):` sets values for a
block, for a library caller and for the CLI alike.  Only `snapshot` reads
the environment: the CLI resolves its flags and the ORTHOKIT_* variables
once, the envelope echoes the result, and the command runs under it, so
every command enforces the budgets it reports.  Negative or malformed
values are input errors.  Budgets exist to make non-termination
impossible, not to be tuned per call site.
"""
from __future__ import annotations

import os
from contextlib import contextmanager
from contextvars import ContextVar
from typing import Iterator

from .errors import InputError

# name: (default, environment variable, name in error messages, CLI flag),
# in the order of the flags
BUDGETS: dict[str, tuple[int, str, str, str]] = {
    # max orthoclosed sets enumerated
    "family": (10_000, "ORTHOKIT_FAMILY_BUDGET", "family budget", "--family-budget"),
    # max perp-sets enumerated
    "clique": (100_000, "ORTHOKIT_CLIQUE_BUDGET", "clique budget", "--clique-budget"),
    # max nodes in a Sasaki map search
    "nodes": (10_000_000, "ORTHOKIT_NODE_BUDGET", "node budget", "--node-budget"),
    # max lattice size accepted
    "lattice_cap": (64, "ORTHOKIT_LATTICE_CAP", "lattice cap", "--lattice-cap"),
    # max |X| for the transitivity search
    "automorphism": (10, "ORTHOKIT_AUTOMORPHISM_BOUND", "automorphism bound", "--automorphism-bound"),
}

# the budgets of the current run: the defaults, or what `budgets` set
run_budgets: ContextVar[dict[str, int]] = ContextVar(
    "run_budgets", default={name: spec[0] for name, spec in BUDGETS.items()}
)


def _non_negative(value: int, source: str) -> int:
    """A budget is a non-negative integer; anything else is an input error,
    so that the budget a report echoes is the one that was enforced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(f"{source} must be an integer, got {value!r}")
    if value < 0:
        raise InputError(f"{source} must be non-negative, got {value}")
    return value


def _spec(name: str) -> tuple[int, str, str, str]:
    """BUDGETS[name]; a name that is not a budget is a TypeError, as an
    unknown keyword argument is."""
    try:
        return BUDGETS[name]
    except KeyError:
        raise TypeError(f"unknown budget {name!r}; known: {', '.join(BUDGETS)}") from None


def resolve(name: str) -> int:
    """The current run's value of the budget `name`."""
    return run_budgets.get()[name]


@contextmanager
def budgets(**values: int) -> Iterator[None]:
    """Run the body under the current run's budgets with `values` (keyed by
    budget name) in place of theirs; the earlier budgets are back on exit,
    also when the body raises."""
    for name, value in values.items():
        _non_negative(value, _spec(name)[2])
    token = run_budgets.set({**run_budgets.get(), **values})
    try:
        yield
    finally:
        run_budgets.reset(token)


def snapshot(**flags: int | None) -> dict[str, int]:
    """Every budget of a run, for the report header: each keyword (a CLI
    flag, keyed by budget name) if given and not None, else its ORTHOKIT_*
    variable, else its default."""
    for name in flags:
        _spec(name)
    values = {}
    for name, (default, env, source, _) in BUDGETS.items():
        raw = os.environ.get(env)
        if flags.get(name) is not None:
            values[name] = _non_negative(flags[name], source)
        elif raw is None:
            values[name] = default
        else:
            try:
                value = int(raw)
            except ValueError:
                raise InputError(f"{env}={raw!r} is not an integer") from None
            values[name] = _non_negative(value, env)
    return values
