"""Budget defaults and their environment-variable overrides.

Every potentially expensive routine takes an optional budget argument;
when the argument is None the value is read from the environment, falling
back to the defaults below.  Negative or malformed values are input
errors.  Budgets exist to make non-termination impossible, not to be tuned
per call site.
"""
from __future__ import annotations

import os

from .errors import InputError

DEFAULT_FAMILY_BUDGET = 10_000       # max orthoclosed sets enumerated
DEFAULT_CLIQUE_BUDGET = 100_000      # max perp-sets enumerated
DEFAULT_NODE_BUDGET = 10_000_000     # max nodes in a Sasaki map search
DEFAULT_AUTOMORPHISM_BOUND = 10      # max |X| for the transitivity search
DEFAULT_LATTICE_CAP = 64             # max lattice size accepted


def _resolve(override: int | None, name: str, default: int) -> int:
    """The override if given, else ORTHOKIT_<name> from the environment,
    else the default.

    A budget is a non-negative integer; anything else is an input error,
    so that the budget a report echoes is the one that was enforced.
    """
    env = f"ORTHOKIT_{name}"
    if override is None:
        raw = os.environ.get(env)
        if raw is None:
            return default
        try:
            value = int(raw)
        except ValueError:
            raise InputError(f"{env}={raw!r} is not an integer") from None
        source = env
    else:
        value, source = override, name.lower().replace("_", " ")
    if value < 0:
        raise InputError(f"{source} must be non-negative, got {value}")
    return value


def family_budget(override: int | None = None) -> int:
    return _resolve(override, "FAMILY_BUDGET", DEFAULT_FAMILY_BUDGET)


def clique_budget(override: int | None = None) -> int:
    return _resolve(override, "CLIQUE_BUDGET", DEFAULT_CLIQUE_BUDGET)


def node_budget(override: int | None = None) -> int:
    return _resolve(override, "NODE_BUDGET", DEFAULT_NODE_BUDGET)


def automorphism_bound(override: int | None = None) -> int:
    return _resolve(override, "AUTOMORPHISM_BOUND", DEFAULT_AUTOMORPHISM_BOUND)


def lattice_cap(override: int | None = None) -> int:
    return _resolve(override, "LATTICE_CAP", DEFAULT_LATTICE_CAP)


def snapshot(*, family: int | None = None, clique: int | None = None,
             nodes: int | None = None, automorphism: int | None = None,
             lattice_cap: int | None = None) -> dict[str, int]:
    """Resolved budget values, for inclusion in report headers; each
    keyword is an override, resolved as by its getter above."""
    return {
        "family": family_budget(family),
        "clique": clique_budget(clique),
        "nodes": node_budget(nodes),
        "automorphism": automorphism_bound(automorphism),
        # the keyword shadows the lattice_cap getter
        "lattice_cap": _resolve(lattice_cap, "LATTICE_CAP", DEFAULT_LATTICE_CAP),
    }
