"""Exception taxonomy shared across the package.

Three families matter to callers: InputError covers malformed documents and
precondition violations on user-supplied data (CLI exit code 2),
BudgetExceededError signals that a configured search or enumeration budget
ran out before an answer was reached (CLI exit code 3), and CrossCheckError
signals that an independent check of a computed result disagreed with it
(CLI exit code 1, a checked verdict failed).  Each document reader checks
every value it reads, so no document ends in anything but one of these.
"""
from __future__ import annotations

from typing import Any


class OrthokitError(Exception):
    """Base class for every error raised by this package."""


class InputError(OrthokitError):
    """Malformed input document or violated operation precondition."""


class BudgetExceededError(OrthokitError):
    """A configured enumeration or search budget was exhausted."""


class CrossCheckError(OrthokitError):
    """An independent cross-check rejected a computed result: a defect in
    the computation, not in the input."""


class InvalidSubsetError(InputError):
    """Subset refers to indices outside the parent orthoset."""


class LatticeLawError(InputError):
    """A lattice axiom failed; carries the law name and a witness."""

    def __init__(self, law: str, witness: Any = None):
        self.law = law
        self.witness = witness
        super().__init__(f"lattice law violated: {law} (witness: {witness!r})")


class NotOrthomodularError(InputError):
    """Operation requires an orthomodular lattice."""


class NotOrthoclosedError(InputError):
    """Operation requires an orthoclosed subset."""


class MapDomainError(InputError):
    """A candidate Sasaki table has the wrong domain or escapes its range."""


class NotPrincipalError(InputError):
    """Subset is not of the form X intersected with a principal down-set."""


class NotSasakiSpaceError(OrthokitError):
    """Operation requires a Sasaki space; carries the first failing target."""

    def __init__(self, message: str, failure: Any = None):
        self.failure = failure
        super().__init__(message)


class HypothesisViolation(OrthokitError):
    """A theorem hypothesis failed; names the precondition and a witness."""

    def __init__(self, hypothesis: str, witness: Any = None):
        self.hypothesis = hypothesis
        self.witness = witness
        super().__init__(f"hypothesis violated: {hypothesis} (witness: {witness!r})")


class ScalarSyntaxError(InputError):
    """Scalar string does not match the exact-scalar grammar."""


class NotHermitianError(InputError):
    """Gram matrix is not star-symmetric."""


class AnisotropyError(InputError):
    """Positivity certificate (Sylvester minors) failed."""


class DimensionMismatchError(InputError):
    """Vector or matrix dimensions do not match the ambient space."""


class FixtureError(InputError):
    """Unknown corpus fixture name or invalid generator parameters."""
