"""Budgets: their defaults, their ORTHOKIT_* variables, and the run's values.

Every potentially expensive routine takes an optional budget argument and
passes it to `resolve`: an explicit argument wins, else the value of the
current run applies, and outside a run that is the default.  Only the CLI
reads the environment: `snapshot` resolves its flags and the ORTHOKIT_*
variables once, the envelope echoes the result, and the command runs under
it (`run_budgets`), so every command enforces the budgets it reports.
Negative or malformed values are input errors.  Budgets exist to make
non-termination impossible, not to be tuned per call site.
"""
from __future__ import annotations

import os
from contextvars import ContextVar

from .errors import InputError

# name: (default, environment variable, name in error messages)
BUDGETS: dict[str, tuple[int, str, str]] = {
    # max orthoclosed sets enumerated
    "family": (10_000, "ORTHOKIT_FAMILY_BUDGET", "family budget"),
    # max perp-sets enumerated
    "clique": (100_000, "ORTHOKIT_CLIQUE_BUDGET", "clique budget"),
    # max nodes in a Sasaki map search
    "nodes": (10_000_000, "ORTHOKIT_NODE_BUDGET", "node budget"),
    # max |X| for the transitivity search
    "automorphism": (10, "ORTHOKIT_AUTOMORPHISM_BOUND", "automorphism bound"),
    # max lattice size accepted
    "lattice_cap": (64, "ORTHOKIT_LATTICE_CAP", "lattice cap"),
}

# the budgets of the current run: the defaults, or what the CLI resolved
run_budgets: ContextVar[dict[str, int]] = ContextVar(
    "run_budgets", default={name: spec[0] for name, spec in BUDGETS.items()}
)


def _non_negative(value: int, source: str) -> int:
    """A budget is a non-negative integer; anything else is an input error,
    so that the budget a report echoes is the one that was enforced."""
    if value < 0:
        raise InputError(f"{source} must be non-negative, got {value}")
    return value


def resolve(name: str, override: int | None = None) -> int:
    """The budget `name`: the override if given, else the run's value."""
    if override is None:
        return run_budgets.get()[name]
    return _non_negative(override, BUDGETS[name][2])


def snapshot(*, family: int | None = None, clique: int | None = None,
             nodes: int | None = None, automorphism: int | None = None,
             lattice_cap: int | None = None) -> dict[str, int]:
    """Every budget of a run, for the report header: each keyword (a CLI
    flag) if given, else its ORTHOKIT_* variable, else its default."""
    flags = {"family": family, "clique": clique, "nodes": nodes,
             "automorphism": automorphism, "lattice_cap": lattice_cap}
    budgets = {}
    for name, (default, env, _) in BUDGETS.items():
        raw = os.environ.get(env)
        if flags[name] is not None:
            budgets[name] = resolve(name, flags[name])
        elif raw is None:
            budgets[name] = default
        else:
            try:
                value = int(raw)
            except ValueError:
                raise InputError(f"{env}={raw!r} is not an integer") from None
            budgets[name] = _non_negative(value, env)
    return budgets
