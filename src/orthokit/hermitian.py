"""Exact Hermitian spaces over the rationals and the Gaussian rationals.

Scalars are fractions.Fraction (field "Q", identity involution) or
GaussianRational (field "Qi", complex conjugation).  A GaussianRational is
stored as a reduced integer triple (a, b, d) for (a + b*i)/d, so each of
its operations costs one gcd, where a pair of Fractions would cost several.
The form is linear in the first argument and star-linear in the second;
inner sums its terms as integer numerators over one running common
denominator and reduces once per call, on both fields.  Anisotropy is
certified by Sylvester's criterion: positive leading principal minors,
computed on the realified form in the Gaussian case, by Bareiss's
fraction-free elimination on the integer numerators of the gram.
random_space likewise sums R R* + I on Gaussian integer numerators.

Subspaces are kept in reduced row echelon form, which makes equality
syntactic; a line is a one-dimensional subspace whose representative row
has its first nonzero coordinate normalised to 1.  _rref computes that form
fraction-free on both fields: rows are Gaussian integer numerators, cleared
by integer cross-multiplication and kept small by their gcd, and each
surviving row is divided by its pivot once at the end.  subspace, contains,
sum_subspaces, intersect_subspaces, line and the kernel and solve steps of
perp_subspace and project all go through it.

Each Subspace computes two things at most once and keeps them: the Gram
system of its basis, which every project onto it reads, and its perp,
which every perp_subspace of it returns.

sasaki_line computes the image of a line two ways, by orthogonal
projection and by the subspace formula (line + perp of S) intersect S,
and insists the routes agree.  The two routes are deliberately
independent; do not merge them: route 1 reads the subspace's kept Gram
system and never its perp, route 2 its kept perp and never the Gram system.
"""
from __future__ import annotations

import random
import re
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from math import gcd, lcm
from typing import Any, Sequence

from .errors import (
    AnisotropyError,
    CrossCheckError,
    DimensionMismatchError,
    InputError,
    NotHermitianError,
    ScalarSyntaxError,
)
from .orthoset import Orthoset, _expect

# what a document's list may be: a JSON array, or a tuple from a caller; a
# string or an object is not read as its characters or keys
_LIST = (list, tuple)


class GaussianRational:
    """a + b*i with rational a, b; arithmetic and conjugation are exact.

    Stored as three ints (a, b, d) standing for (a + b*i)/d, with d > 0 and
    gcd(a, b, d) = 1.  That form is canonical, so equality is equality of
    the triples, and every sum, difference, product and quotient costs one
    gcd; negation and conjugation keep the form and cost none.  Like
    Fraction, the value is immutable by convention: the triple sits in
    private slots, and `re` and `im` are read-only Fraction views.  A value
    with no imaginary part equals, and hashes like, its Fraction (its int
    when d = 1).
    """

    __slots__ = ("_a", "_b", "_d")

    def __init__(self, re: Fraction | int, im: Fraction | int):
        for part in (re, im):
            if not isinstance(part, (int, Fraction)):
                raise TypeError(f"GaussianRational needs int or Fraction values, not {type(part).__name__}")
        re, im = Fraction(re), Fraction(im)
        # the triple over lcm(q, s) of p/q and r/s in lowest terms is already
        # reduced: a prime dividing d divides q (say) to the full power, so
        # it cannot divide a = p * (d // q)
        d = lcm(re.denominator, im.denominator)
        self._a = re.numerator * (d // re.denominator)
        self._b = im.numerator * (d // im.denominator)
        self._d = d

    @property
    def re(self) -> Fraction:
        return Fraction(self._a, self._d)

    @property
    def im(self) -> Fraction:
        return Fraction(self._b, self._d)

    @staticmethod
    def of(value: "GaussianRational | Fraction | int") -> "GaussianRational":
        """value as a GaussianRational; a TypeError names any type but
        GaussianRational, Fraction and int, so no float converts silently."""
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value, 0)

    def __repr__(self) -> str:
        return f"GaussianRational(re={self.re!r}, im={self.im!r})"

    def __add__(self, other: Any) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        d, e = self._d, other._d
        return _reduced(self._a * e + other._a * d, self._b * e + other._b * d, d * e)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        d, e = self._d, other._d
        return _reduced(self._a * e - other._a * d, self._b * e - other._b * d, d * e)

    def __rsub__(self, other: Any) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __mul__(self, other: Any) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        a, b, c, e = self._a, self._b, other._a, other._b
        return _reduced(a * c - b * e, a * e + b * c, self._d * other._d)

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "GaussianRational":
        if type(other) is not GaussianRational:
            other = GaussianRational.of(other)
        c, e = other._a, other._b
        norm = c * c + e * e
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        # (a + b i)/d divided by (c + e i)/f is (a + b i)(c - e i) f / (d norm)
        a, b, f = self._a, self._b, other._d
        return _reduced((a * c + b * e) * f, (b * c - a * e) * f, self._d * norm)

    def __rtruediv__(self, other: Any) -> "GaussianRational":
        return GaussianRational.of(other) / self

    def __neg__(self) -> "GaussianRational":
        return _triple(-self._a, -self._b, self._d)

    def __bool__(self) -> bool:
        return bool(self._a or self._b)

    def __eq__(self, other: Any) -> bool:
        if type(other) is GaussianRational:
            return self._a == other._a and self._b == other._b and self._d == other._d
        if isinstance(other, (Fraction, int)):
            return (not self._b and self._a == other.numerator
                    and self._d == other.denominator)
        return NotImplemented

    def __hash__(self) -> int:
        if self._b:
            return hash((self._a, self._b, self._d))
        return hash(Fraction(self._a, self._d))

    def conjugate(self) -> "GaussianRational":
        return _triple(self._a, -self._b, self._d)


_new = object.__new__


def _triple(a: int, b: int, d: int) -> GaussianRational:
    """The Gaussian rational (a + b*i)/d, for a triple already in lowest terms."""
    g = _new(GaussianRational)
    g._a, g._b, g._d = a, b, d
    return g


def _reduced(a: int, b: int, d: int) -> GaussianRational:
    """The Gaussian rational (a + b*i)/d for any d > 0: one gcd."""
    g = gcd(a, b, d)
    if g != 1:
        a, b, d = a // g, b // g, d // g
    return _triple(a, b, d)


# not typing.Union, which caches its result: after a re-import of the package
# the cache would keep the earlier copy of this module alive
Scalar = Fraction | GaussianRational
Vector = tuple[Scalar, ...]

FIELDS = ("Q", "Qi")

_RATIONAL = r"[+-]?\d+(?:/\d+)?"
_RE_RATIONAL = re.compile(rf"({_RATIONAL})\Z")
_RE_BOTH = re.compile(rf"({_RATIONAL})([+-](?:\d+(?:/\d+)?)?)i\Z")
_RE_IMAG = re.compile(rf"([+-]?(?:\d+(?:/\d+)?)?)i\Z")


def _check_field(field: str) -> None:
    if field not in FIELDS:
        raise InputError(f"unknown scalar field {field!r}; expected one of {FIELDS}")


def _imag_coeff(text: str) -> Fraction:
    if text in ("", "+"):
        return Fraction(1)
    if text == "-":
        return Fraction(-1)
    return Fraction(text)


def parse_scalar(text: str, field: str) -> Scalar:
    """Parse the exact-scalar grammar: '3', '-3/4', '1/2+5/3i', 'i', '-i'.
    A zero denominator, or a part too long for int, is a ScalarSyntaxError."""
    _check_field(field)
    if not isinstance(text, str):
        raise ScalarSyntaxError(f"scalar must be a string, got {text!r}")
    s = text.strip()
    try:
        if field == "Q":
            m = _RE_RATIONAL.match(s)
            if not m:
                raise ScalarSyntaxError(f"not a rational scalar: {text!r}")
            return Fraction(s)
        m = _RE_BOTH.match(s)
        if m:
            return GaussianRational(Fraction(m.group(1)), _imag_coeff(m.group(2)))
        m = _RE_IMAG.match(s)
        if m:
            return GaussianRational(Fraction(0), _imag_coeff(m.group(1)))
        m = _RE_RATIONAL.match(s)
        if m:
            return GaussianRational(Fraction(s), Fraction(0))
    except ZeroDivisionError:
        raise ScalarSyntaxError(f"zero denominator in scalar {text!r}") from None
    except ValueError as exc:  # int's limit on digits
        raise ScalarSyntaxError(f"scalar {text!r}: {exc}") from None
    raise ScalarSyntaxError(f"not a Gaussian rational scalar: {text!r}")


def format_scalar(value: Scalar) -> str:
    """Canonical text form; parse_scalar(format_scalar(x)) round-trips."""
    if isinstance(value, Fraction):
        return str(value)
    if not value.im:
        return str(value.re)
    if value.im == 1:
        imag = "i"
    elif value.im == -1:
        imag = "-i"
    else:
        imag = f"{value.im}i"
    if not value.re:
        return imag
    sign = "" if imag.startswith("-") else "+"
    return f"{value.re}{sign}{imag}"


def star(value: Scalar) -> Scalar:
    """The involution: identity on Q, conjugation on Qi."""
    return value.conjugate()


def _zero(field: str) -> Scalar:
    return Fraction(0) if field == "Q" else _triple(0, 0, 1)


def _one(field: str) -> Scalar:
    return Fraction(1) if field == "Q" else _triple(1, 0, 1)


# ------------------------------------------------------- exact linear algebra


def _rref(rows: Sequence[Sequence[Scalar | int]], field: str) -> tuple[list[list[Scalar]], list[int]]:
    """Reduced row echelon form over the field; returns nonzero rows and
    pivot columns.

    Fraction-free Gauss-Jordan on both fields.  Each row is read as
    Gaussian integer numerators (re, im) over the lcm of its denominators,
    and the denominator is dropped: until the end only the line a row spans
    matters.  Clearing column c of row i by pivot row r is
    row_i <- p row_i - m row_r, with p the pivot and m row_i's entry in
    column c, which keeps every entry integral; the row is then divided by
    the gcd of its entries.  So each row is a nonzero multiple of the row
    that Fraction elimination holds at the same step: the same entries are
    nonzero, the same pivots are chosen, and dividing each surviving row by
    its pivot once gives the same reduced rows.  im is 0 throughout on Q,
    so there the update skips it.
    """
    qi = field != "Q"
    mat: list[tuple[list[int], list[int]]] = []
    for row in rows:
        parts = [_parts(v) for v in row]
        den = lcm(*[d for _, _, d in parts])
        mat.append(([a * (den // d) for a, _, d in parts],
                    [b * (den // d) for _, b, d in parts]))
    if not mat:
        return [], []
    n, ncols = len(mat), len(mat[0][0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, n) if mat[i][0][c] or mat[i][1][c]), -1)
        if sel < 0:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        pre, pim = mat[r]
        pa, pb = pre[c], pim[c]
        for i in range(n):
            re, im = mat[i]
            ma, mb = re[c], im[c]
            if i != r and (ma or mb):
                if qi:
                    cols = list(zip(re, im, pre, pim))
                    re = [pa * x - pb * y - ma * u + mb * v for x, y, u, v in cols]
                    im = [pa * y + pb * x - ma * v - mb * u for x, y, u, v in cols]
                else:
                    re = [pa * x - ma * u for x, u in zip(re, pre)]
                g = gcd(*re, *im)
                if g > 1:
                    re, im = [x // g for x in re], [y // g for y in im]
                mat[i] = (re, im)
        pivots.append(c)
        r += 1
        if r == n:
            break
    zero = _zero(field)
    out: list[list[Scalar]] = []
    for (re, im), c in zip(mat, pivots):
        pa, pb = re[c], im[c]
        if qi:
            # (x + y i)/(pa + pb i) = (x + y i)(pa - pb i)/norm
            norm = pa * pa + pb * pb
            out.append([_reduced(x * pa + y * pb, y * pa - x * pb, norm) if x or y else zero
                        for x, y in zip(re, im)])
        else:
            out.append([Fraction(x, pa) if x else zero for x in re])
    return out, pivots


def _kernel(rows: Sequence[Sequence[Scalar]], ncols: int, field: str) -> list[list[Scalar]]:
    """Canonical basis of {x : sum_i x_i row_i = 0 for every row}."""
    zero, one = _zero(field), _one(field)
    reduced, pivots = _rref(rows, field)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[list[Scalar]] = []
    for f in free:
        vec = [zero] * ncols
        vec[f] = one
        for r, p in enumerate(pivots):
            vec[p] = zero - reduced[r][f]
        basis.append(vec)
    # not redundant: the kernel of x0 + x1 = 0 is built as [-1, 1], its
    # reduced form is [1, -1], and subspaces compare by reduced rows
    reduced_basis, _ = _rref(basis, field)
    return reduced_basis


def _solve(a: Sequence[Sequence[Scalar]], b: list[Scalar], field: str) -> list[Scalar]:
    """Unique solution of a square exact system (raises if singular)."""
    n = len(a)
    aug = [list(a[i]) + [b[i]] for i in range(n)]
    reduced, pivots = _rref(aug, field)
    if pivots != list(range(n)):
        raise InputError("singular system in exact solve")
    return [reduced[i][n] for i in range(n)]


# ------------------------------------------------------------------- spaces


@dataclass(frozen=True)
class HermitianSpace:
    """Dimension, scalar field tag, and a validated anisotropic gram matrix."""

    field: str
    gram: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.gram)

    def zero_vector(self) -> Vector:
        return tuple(_zero(self.field) for _ in range(self.dim))

    @cached_property
    def _gram_parts(self) -> tuple[tuple[tuple[int, int, int], ...], ...]:
        """The gram entries as integer triples, read by inner."""
        return tuple(tuple(_parts(v) for v in row) for row in self.gram)


def make_space(gram: Sequence[Sequence[Any]], field: str) -> HermitianSpace:
    """Validate a gram matrix: star-symmetry plus the positivity certificate.

    Entries may be scalar strings, ints, Fractions or GaussianRationals;
    a float or complex entry is an input error, and so is a gram or a row
    that is not a list or tuple (a scalar, a string or an object).
    """
    _check_field(field)
    n = len(_expect(gram, _LIST, "gram must be a list of rows"))
    if n == 0 or any(len(_expect(row, _LIST, "each gram row must be a list of scalars")) != n
                     for row in gram):
        raise DimensionMismatchError("gram matrix must be square and nonempty")
    parsed = [[_scalar(v, field) for v in row] for row in gram]
    for i in range(n):
        for j in range(n):
            if parsed[j][i] != star(parsed[i][j]):
                raise NotHermitianError(
                    f"gram[{j}][{i}] must be the star of gram[{i}][{j}]"
                )
    _sylvester(parsed, field)
    return HermitianSpace(field, tuple(tuple(row) for row in parsed))


def _scalar(value: Any, field: str) -> Scalar:
    """A document entry as a scalar of the field: a string is parsed, any
    other value coerced."""
    return parse_scalar(value, field) if isinstance(value, str) else _coerce(value, field)


def _coerce(value: Any, field: str) -> Scalar:
    if isinstance(value, (float, complex)):
        raise InputError(f"inexact scalar {value!r}; give an int, a Fraction or a scalar string")
    # a JSON boolean is an int to Python, but not a scalar entry
    if not isinstance(value, (int, Fraction, GaussianRational)) or type(value) is bool:
        raise InputError(
            f"scalar entry {value!r} is not a number; give an int, a Fraction or a scalar string"
        )
    if field == "Q":
        if isinstance(value, GaussianRational):
            raise InputError("Gaussian scalar in a rational space")
        return Fraction(value)
    return GaussianRational.of(value)


def _sylvester(gram: list[list[Scalar]], field: str) -> None:
    """Positive-definiteness certificate via leading principal minors.

    For the Gaussian field the certificate runs on the realified quadratic
    form: with gram = a + b*i the real symmetric matrix is [[a, b], [-b, a]].
    The gram is read as integer numerators over the lcm den of its
    denominators, and Bareiss elimination runs on that integer matrix
    (realified on Qi): no pivoting, and each step p*m_ij - m_ik*m_kj is
    divided exactly by the previous pivot p'.  The k-th pivot is then the
    k-th leading principal minor of the integer matrix, which is the gram's
    minor times den**k and so has its sign.  The pass stops at the first
    pivot that is not positive, so it never divides by zero, and reports
    the gram's minor Fraction(pivot, den**k).
    """
    parts = [[_parts(v) for v in row] for row in gram]
    den = lcm(*[d for row in parts for _, _, d in row])
    a = [[x * (den // d) for x, _, d in row] for row in parts]
    if field == "Q":
        m = a
    else:
        b = [[y * (den // d) for _, y, d in row] for row in parts]
        m = [a[i] + b[i] for i in range(len(a))]
        m += [[-y for y in b[i]] + a[i] for i in range(len(a))]
    # m is the trailing block still to eliminate; its corner is the pivot
    prev = 1
    for k in range(1, len(m) + 1):
        top = m[0]
        pivot = top[0]
        if pivot <= 0:
            raise AnisotropyError(
                f"leading principal minor {k} of the (realified) gram is "
                f"{Fraction(pivot, den ** k)}, not positive"
            )
        m = [[(pivot * x - row[0] * y) // prev for x, y in zip(row[1:], top[1:])] for row in m[1:]]
        prev = pivot


def parse_vector(entries: Sequence[Any], space: HermitianSpace) -> Vector:
    if len(_expect(entries, _LIST, "a vector must be a list of scalars")) != space.dim:
        raise DimensionMismatchError(
            f"vector length {len(entries)} does not match dimension {space.dim}"
        )
    return tuple(_scalar(v, space.field) for v in entries)


def format_vector(vec: Vector) -> list[str]:
    return [format_scalar(v) for v in vec]


def inner(space: HermitianSpace, x: Vector, y: Vector) -> Scalar:
    """The form: linear in x, star-linear in y.

    The terms x_i g_ij star(y_j) are summed as integer real and imaginary
    numerators over one running common denominator (the lcm of the terms'
    denominators), and the sum is reduced once: a Fraction on Q, a
    GaussianRational on Qi.  The vectors must hold exact scalars of the
    space's field, as parse_vector, line and subspace give; entries are
    not checked.
    """
    if len(x) != space.dim or len(y) != space.dim:
        raise DimensionMismatchError("vector length does not match the space dimension")
    ys = [_parts(v) for v in y]
    a, b, den = 0, 0, 1
    for xi, row in zip(x, space._gram_parts):
        xa, xb, xd = _parts(xi)
        if not (xa or xb):
            continue
        for (ga, gb, gd), (ya, yb, yd) in zip(row, ys):
            if ya or yb:
                # u = x_i g_ij, then the term u star(y_j); on Q every b is 0
                ua, ub = xa * ga - xb * gb, xa * gb + xb * ga
                ta, tb, td = ua * ya + ub * yb, ub * ya - ua * yb, xd * gd * yd
                q = gcd(den, td)
                m, k = td // q, den // q
                a, b, den = a * m + ta * k, b * m + tb * k, k * td
    return Fraction(a, den) if space.field == "Q" else _reduced(a, b, den)


def _parts(v: Scalar | int) -> tuple[int, int, int]:
    """The (a, b, d) of a scalar of either field: (a + b*i)/d in lowest terms."""
    if type(v) is GaussianRational:
        return v._a, v._b, v._d
    return v.numerator, 0, v.denominator


# ---------------------------------------------------------------- subspaces


@dataclass(frozen=True)
class Subspace:
    """Row space in reduced echelon form; equality is tuple equality.

    A subspace keeps two things, each computed on its first use: the Gram
    system of its basis, which project reads, and its perp, which
    perp_subspace returns.  Neither is a field, so equality and hashing
    are unchanged.
    """

    space: HermitianSpace
    basis: tuple[Vector, ...]

    @property
    def dim(self) -> int:
        return len(self.basis)

    @cached_property
    def _gram(self) -> tuple[tuple[Scalar, ...], ...]:
        """Row m, column k: inner(b_k, b_m), the left side of project's system."""
        space, basis = self.space, self.basis
        return tuple(tuple(inner(space, bk, bm) for bk in basis) for bm in basis)

    @cached_property
    def _perp(self) -> "Subspace":
        """{x : inner(x, b) = 0 for every basis vector b}."""
        space = self.space
        zero = _zero(space.field)
        constraints: list[list[Scalar]] = []
        for b in self.basis:
            row = []
            for i in range(space.dim):
                acc = zero
                for j in range(space.dim):
                    if b[j]:
                        acc = acc + space.gram[i][j] * star(b[j])
                row.append(acc)
            constraints.append(row)
        basis = _kernel(constraints, space.dim, space.field)
        return Subspace(space, tuple(tuple(r) for r in basis))


def subspace(space: HermitianSpace, vectors: Sequence[Sequence[Any]]) -> Subspace:
    _expect(vectors, _LIST, "subspace must be a list of vectors")
    parsed = [parse_vector(v, space) for v in vectors]
    reduced, _ = _rref(parsed, space.field)
    return Subspace(space, tuple(tuple(r) for r in reduced))


def zero_subspace(space: HermitianSpace) -> Subspace:
    return Subspace(space, ())


def full_subspace(space: HermitianSpace) -> Subspace:
    zero, one = _zero(space.field), _one(space.field)
    rows = [
        tuple(one if i == j else zero for j in range(space.dim))
        for i in range(space.dim)
    ]
    return Subspace(space, tuple(rows))


def contains(sub: Subspace, vec: Vector) -> bool:
    if len(vec) != sub.space.dim:
        raise DimensionMismatchError("vector length does not match the space dimension")
    stacked, _ = _rref(list(sub.basis) + [list(vec)], sub.space.field)
    return len(stacked) == sub.dim


def sum_subspaces(a: Subspace, b: Subspace) -> Subspace:
    _same_space(a, b)
    reduced, _ = _rref(list(a.basis) + list(b.basis), a.space.field)
    return Subspace(a.space, tuple(tuple(r) for r in reduced))


def intersect_subspaces(a: Subspace, b: Subspace) -> Subspace:
    """Zassenhaus: echelonise [[A|A],[B|0]]; zero-left rows carry the meet."""
    _same_space(a, b)
    space = a.space
    n = space.dim
    zero = _zero(space.field)
    block: list[list[Scalar]] = []
    for row in a.basis:
        block.append(list(row) + list(row))
    for row in b.basis:
        block.append(list(row) + [zero] * n)
    reduced, _ = _rref(block, space.field)
    right = [row[n:] for row in reduced if not any(row[:n])]
    final, _ = _rref(right, space.field)
    return Subspace(space, tuple(tuple(r) for r in final))


def _same_space(a: Subspace, b: Subspace) -> None:
    if a.space != b.space:
        raise InputError("subspaces live in different Hermitian spaces")


def _check_owner(space: HermitianSpace, sub: Subspace) -> None:
    if sub.space != space:
        raise InputError("subspace does not belong to the given space")


def perp_subspace(space: HermitianSpace, sub: Subspace) -> Subspace:
    """{x : inner(x, b) = 0 for every basis vector b}.

    The perp is computed (a form row per basis vector, then _kernel) on the
    first call for sub and kept on it; later calls return the kept perp.
    """
    _check_owner(space, sub)
    return sub._perp


def project(space: HermitianSpace, sub: Subspace, vec: Vector) -> Vector:
    """Orthogonal projection onto sub via the exact gram system.  vec must
    hold exact scalars of the space's field, as parse_vector gives; its
    entries are not checked.

    The left side of the system, the Gram matrix of sub's basis, is
    computed on the first call for sub and kept on it; each call computes
    the right side, sub.dim inner products, and solves.
    """
    _check_owner(space, sub)
    if len(vec) != space.dim:
        raise DimensionMismatchError("vector length does not match the space dimension")
    if sub.dim == 0:
        return space.zero_vector()
    k = sub.dim
    # sum_k t_k inner(b_k, b_m) = inner(vec, b_m) for every m
    rhs = [inner(space, vec, b) for b in sub.basis]
    t = _solve(sub._gram, rhs, space.field)
    out = list(space.zero_vector())
    for kk in range(k):
        if t[kk]:
            out = [o + t[kk] * bv for o, bv in zip(out, sub.basis[kk])]
    return tuple(out)


# -------------------------------------------------------------------- lines


@dataclass(frozen=True)
class Line:
    """One-dimensional subspace; rep has first nonzero coordinate 1."""

    space: HermitianSpace
    rep: Vector


def line(space: HermitianSpace, vec: Sequence[Any]) -> Line:
    """The line spanned by vec, whose entries are parsed as in parse_vector."""
    return _line(space, parse_vector(vec, space))


def _line(space: HermitianSpace, v: Vector) -> Line:
    """The line spanned by v, whose entries are already scalars of the field."""
    if not any(v):
        raise InputError("the zero vector spans no line")
    reduced, _ = _rref([list(v)], space.field)
    return Line(space, tuple(reduced[0]))


def line_subspace(ln: Line) -> Subspace:
    return Subspace(ln.space, (ln.rep,))


def orthogonal_lines(a: Line, b: Line) -> bool:
    return not inner(a.space, a.rep, b.rep)


def sasaki_line(space: HermitianSpace, sub: Subspace, ln: Line) -> Line:
    """Image of a line under the Sasaki map to the projective image of sub.

    Route 1 projects the representative; route 2 intersects (line + perp
    of sub) with sub and insists on dimension one.  The routes must agree
    exactly; a mismatch would falsify the projection formula and raises
    CrossCheckError.
    """
    if ln.space != space or sub.space != space:
        raise InputError("line and subspace must live in the given space")
    # the form is anisotropic, so the projection is zero exactly when the
    # line is orthogonal to every basis vector of sub
    projected = project(space, sub, ln.rep)
    if not any(projected):
        raise InputError(
            "line is orthogonal to the subspace: outside the Sasaki map domain"
        )
    route1 = _line(space, projected)
    shifted = sum_subspaces(line_subspace(ln), perp_subspace(space, sub))
    meet = intersect_subspaces(shifted, sub)
    if meet.dim != 1:
        raise CrossCheckError(f"route 2 produced dimension {meet.dim}, expected 1")
    if route1.rep != meet.basis[0]:
        raise CrossCheckError("projection route and subspace route disagree")
    return route1


def sample_orthoset(space: HermitianSpace, lines: Sequence[Line]) -> Orthoset:
    """Finite orthoset of distinct lines under form-orthogonality."""
    reps = [ln.rep for ln in lines]
    if len(set(reps)) != len(reps):
        raise InputError("duplicate lines in sample")
    labels = ["<" + ",".join(format_vector(r)) + ">" for r in reps]
    pairs = [
        (labels[i], labels[j])
        for i in range(len(reps))
        for j in range(i + 1, len(reps))
        if not inner(space, reps[i], reps[j])
    ]
    return Orthoset.build(labels, pairs)


# ----------------------------------------------------------------- sampling


def _random_fraction(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))


def random_scalar(rng: random.Random, field: str) -> Scalar:
    if field == "Q":
        return _random_fraction(rng)
    return GaussianRational(_random_fraction(rng), _random_fraction(rng))


def random_vector(rng: random.Random, space: HermitianSpace, nonzero: bool = True) -> Vector:
    while True:
        v = tuple(random_scalar(rng, space.field) for _ in range(space.dim))
        if not nonzero or any(v):
            return v


def random_space(rng: random.Random, dim: int, field: str) -> HermitianSpace:
    """Identity gram half the time; otherwise R R* + I, always anisotropic."""
    zero, one = _zero(field), _one(field)
    if rng.random() < 0.5:
        gram = [[one if i == j else zero for j in range(dim)] for i in range(dim)]
        return make_space(gram, field)
    r = [[_parts(random_scalar(rng, field)) for _ in range(dim)] for _ in range(dim)]
    # with N = den R for den the lcm of R's denominators, entry (i, j) is
    # (sum_k N_ik star(N_jk) + den**2 [i = j]) / den**2, summed on Gaussian
    # integer numerators and reduced once
    den = lcm(*[d for row in r for _, _, d in row])
    num = [[(a * (den // d), b * (den // d)) for a, b, d in row] for row in r]
    sq = den * den
    gram = []
    for i, ri in enumerate(num):
        row = []
        for j, rj in enumerate(num):
            re, im = (sq if i == j else 0), 0
            for (a, b), (c, e) in zip(ri, rj):
                # (a + b i)(c - e i)
                re += a * c + b * e
                im += b * c - a * e
            row.append(Fraction(re, sq) if field == "Q" else _reduced(re, im, sq))
        gram.append(row)
    return make_space(gram, field)


def random_subspace(rng: random.Random, space: HermitianSpace, dim: int) -> Subspace:
    while True:
        vs = [random_vector(rng, space) for _ in range(dim)]
        sub = subspace(space, vs)
        if sub.dim == dim:
            return sub


@dataclass
class FuzzReport:
    field: str
    instances: int
    checks: dict[str, int]
    failures: list[str]

    @property
    def ok(self) -> bool:
        return not self.failures


def fuzz_hermitian(field: str, count: int, seed: int = 0,
                   dims: Sequence[int] = (2, 3, 4)) -> FuzzReport:
    """Seeded random property run; every comparison is exact.

    Per instance: star-symmetry of the form, double perp, S + perp(S) = H,
    projection idempotence and self-adjointness, agreement of both
    sasaki_line routes, and the Sasaki conditions on a sampled line family.
    """
    _check_field(field)
    if count < 0:
        raise InputError(f"fuzz instance count must be non-negative, got {count}")
    checks = {
        "form_symmetry": 0,
        "double_perp": 0,
        "perp_sum": 0,
        "projection_idempotent": 0,
        "projection_self_adjoint": 0,
        "route_agreement": 0,
        "fixes_target": 0,
        "adjointness": 0,
    }
    failures: list[str] = []

    def fail(i: int, what: str) -> None:
        failures.append(f"instance {i}: {what}")

    for i in range(count):
        rng = random.Random(f"{seed}:{field}:{i}")
        dim = dims[i % len(dims)]
        space = random_space(rng, dim, field)
        x = random_vector(rng, space)
        y = random_vector(rng, space)
        if inner(space, x, y) != star(inner(space, y, x)):
            fail(i, "form star-symmetry")
        checks["form_symmetry"] += 1

        k = rng.randint(1, dim)
        sub = random_subspace(rng, space, k)
        perp = perp_subspace(space, sub)
        if perp_subspace(space, perp) != sub:
            fail(i, "double perp")
        checks["double_perp"] += 1
        if sum_subspaces(sub, perp) != full_subspace(space):
            fail(i, "S + perp(S) = H")
        checks["perp_sum"] += 1

        p = project(space, sub, x)
        if project(space, sub, p) != p:
            fail(i, "projection idempotence")
        checks["projection_idempotent"] += 1
        if inner(space, p, y) != inner(space, x, project(space, sub, y)):
            fail(i, "projection self-adjointness")
        checks["projection_self_adjoint"] += 1

        family: list[Line] = []
        attempts = 0
        while len(family) < 3 and attempts < 60:
            attempts += 1
            v = random_vector(rng, space)
            if all(not inner(space, v, b) for b in sub.basis):
                continue
            candidate = _line(space, v)
            if all(candidate.rep != ln.rep for ln in family):
                family.append(candidate)
        images: dict[int, Line] = {}
        for idx, ln in enumerate(family):
            img = sasaki_line(space, sub, ln)  # route agreement checked inside
            images[idx] = img
            checks["route_agreement"] += 1
            if contains(sub, ln.rep):
                if img.rep != ln.rep:
                    fail(i, "line inside the subspace not fixed")
                checks["fixes_target"] += 1
        for ii in range(len(family)):
            for jj in range(len(family)):
                lhs = orthogonal_lines(images[ii], family[jj])
                rhs = orthogonal_lines(family[ii], images[jj])
                if lhs != rhs:
                    fail(i, f"adjointness on line pair ({ii}, {jj})")
                checks["adjointness"] += 1

    return FuzzReport(field=field, instances=count, checks=checks, failures=failures)
