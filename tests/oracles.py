"""Independent slow oracles used to cross-check the library.

The orthoset and lattice oracles recompute from raw adjacency or the
order relation by full enumeration over subset bitmasks; none of it shares
code with the package's budgeted or pruned implementations.  The Hermitian
oracles are the two-Fraction Gaussian rational the package used before its
integer triples, the form as a plain double sum over Fractions, the
Gauss-Jordan elimination on field scalars the package used before its
fraction-free one, the Fraction elimination behind the leading minors
before Bareiss, and the scalar R R* + I loop of random_space before it
summed on integer numerators.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Any, Union

from orthokit import Orthoset, Subset, subset_key


def perp_by_scan(x: Orthoset, s: Subset) -> Subset:
    return frozenset(
        i for i in range(x.n) if all(i in x.adj[j] for j in s)
    )


def family_by_scan(x: Orthoset) -> list[Subset]:
    """All subsets fixed by the double-perp, by scanning the whole powerset."""
    out = []
    for mask in range(1 << x.n):
        s = frozenset(i for i in range(x.n) if mask >> i & 1)
        if perp_by_scan(x, perp_by_scan(x, s)) == s:
            out.append(s)
    return sorted(out, key=subset_key)


def is_clique(x: Orthoset, s: Subset) -> bool:
    return all(j in x.adj[i] for i, j in combinations(sorted(s), 2))


def rank_by_scan(x: Orthoset) -> int:
    best = 0
    for mask in range(1 << x.n):
        s = frozenset(i for i in range(x.n) if mask >> i & 1)
        if is_clique(x, s):
            best = max(best, len(s))
    return best


def maximal_cliques_by_scan(x: Orthoset, within: Subset) -> list[Subset]:
    cliques = []
    members = sorted(within)
    for mask in range(1 << len(members)):
        s = frozenset(members[i] for i in range(len(members)) if mask >> i & 1)
        if is_clique(x, s):
            cliques.append(s)
    maximal = [s for s in cliques if not any(s < t for t in cliques)]
    return sorted(maximal, key=subset_key)


def sasaki_maps_by_scan(x: Orthoset, a: Subset) -> list[dict]:
    """Every Sasaki map to the orthoclosed set a, in lexicographic order of
    value tables: each table from the complement of perp(a) into a, taken
    from itertools.product in domain index order, is kept when it fixes a
    pointwise and phi(e) orth f iff e orth phi(f) for every ordered pair
    of the domain."""
    domain = sorted(frozenset(range(x.n)) - perp_by_scan(x, a))
    out = []
    for image in product(sorted(a), repeat=len(domain)):
        phi = dict(zip(domain, image))
        if all(phi[e] == e for e in a) and all(
            (phi[e] in x.adj[f]) == (e in x.adj[phi[f]]) for e in domain for f in domain
        ):
            out.append(phi)
    return out


def sasaki_map_check_by_scan(x: Orthoset, a: Subset, table: dict) -> tuple:
    """is_sasaki_map on a table with the right domain and range, as
    (holds, witness): the first element of a, in index order, that the
    table moves, else the first ordered pair (e, f) of the domain, in
    index order, where phi(e) orth f differs from e orth phi(f), both read
    off the x.adj frozensets."""
    for e in sorted(a):
        if table[e] != e:
            return (False, ("fixes-target", x.labels[e]))
    dom = sorted(table)
    for e in dom:
        for f in dom:
            if (table[e] in x.adj[f]) != (e in x.adj[table[f]]):
                return (False, ("adjointness", (x.labels[e], x.labels[f])))
    return (True, None)


def automorphism_by_scan(x: Orthoset, e: int, f: int) -> list | None:
    """The first automorphism of x that sends e to f and fixes every
    element orthogonal to both, as a value list, or None: e and the fixed
    points are placed first, and the other elements take the remaining
    values through itertools.permutations, in index order.  The relation is
    read off x.adj alone."""
    fixed = sorted(x.adj[e] & x.adj[f])
    rest = [u for u in range(x.n) if u != e and u not in fixed]
    values = [v for v in range(x.n) if v != f and v not in fixed]
    for image in permutations(values):
        img = {e: f, **{u: u for u in fixed}, **dict(zip(rest, image))}
        if all((w in x.adj[u]) == (img[w] in x.adj[img[u]]) for u in range(x.n) for w in range(x.n)):
            return [img[u] for u in range(x.n)]
    return None


def lattice_iso_by_scan(a, b) -> tuple | None:
    """The first isomorphism of ortholattices from a to b, as a table, or
    None: the elements of a in order of (number below, number above,
    index) take the elements of b through itertools.permutations, and a
    table is kept when it preserves and reflects the order and commutes
    with ortho.  Only lat.leq and lat.ortho are read."""
    if a.n != b.n:
        return None
    n = range(a.n)

    def profile(i):
        return (sum(a.leq(k, i) for k in n), sum(a.leq(i, k) for k in n))

    order = sorted(n, key=lambda i: (profile(i), i))
    for image in permutations(range(b.n)):
        img = dict(zip(order, image))
        if all(img[a.ortho[i]] == b.ortho[img[i]] for i in n) and all(
            a.leq(i, j) == b.leq(img[i], img[j]) for i in n for j in n
        ):
            return tuple(img[i] for i in n)
    return None


def finch_laws_by_scan(x: Orthoset, family: list[Subset], witnesses,
                       perps: dict | None = None) -> dict:
    """The five induced-map laws of finch_report, straight from their
    definitions: every perp is perp_by_scan, every closure its double, and
    the induced value of target a on b is the closure of the image of the
    part of b outside perp(a).  Each law maps to (holds, first
    counterexample as label tuples), loops in family order.  `perps`, if
    given, keeps each perp_by_scan result by its argument, so calls on the
    same x with other witnesses can share it."""
    perps = {} if perps is None else perps

    def perp(s):
        if s not in perps:
            perps[s] = perp_by_scan(x, s)
        return perps[s]

    def close(s):
        return perp(perp(s))

    cache: dict = {}

    def bar(a, b):
        if (a, b) not in cache:
            outside = b - perp(a)
            cache[(a, b)] = close(frozenset(witnesses[a].table[e] for e in outside))
        return cache[(a, b)]

    def first(failures):
        sets = next(failures, None)
        if sets is None:
            return (True, None)
        return (False, tuple(tuple(x.labels[i] for i in sorted(s)) for s in sets))

    fam = list(family)
    top = frozenset(range(x.n))
    return {
        "monotone": first(
            (a, b, c) for a in fam for b in fam for c in fam
            if b <= c and not bar(a, b) <= bar(a, c)
        ),
        "composition": first(
            (a, b, c) for a in fam for b in fam if bar(a, top) <= bar(b, top)
            for c in fam if bar(a, bar(b, c)) != bar(a, c)
        ),
        "adjoint_bound": first(
            (a, b) for a in fam for b in fam
            if not bar(a, perp(bar(a, b))) <= perp(b)
        ),
        "self_adjoint": first(
            (a, b, c) for a in fam for b in fam for c in fam
            if (c <= perp(bar(a, b))) != (bar(a, c) <= perp(b))
        ),
        "join_preserving": first(
            (a, b, c) for a in fam for b in fam for c in fam
            if bar(a, close(b | c)) != close(bar(a, b) | bar(a, c))
        ),
    }


def finch_law_failures_by_scan(up, perp, join, bar, top) -> dict:
    """Every counterexample of each law of finch_report on the tables that
    sasaki._finch_law_failures reads and the join table of the up-sets
    (family positions throughout, b within c read as up[b] >> c & 1), as
    the plain loops over pairs and triples that finch_report ran before it
    compared whole rows."""
    r = range(len(bar))
    return {
        "monotone": (
            (a, b, c) for a in r for b in r for c in r
            if up[b] >> c & 1 and not up[bar[a][b]] >> bar[a][c] & 1
        ),
        "composition": (
            (a, b, c) for a in r for b in r
            if up[bar[a][top]] >> bar[b][top] & 1
            for c in r if bar[a][bar[b][c]] != bar[a][c]
        ),
        "adjoint_bound": (
            (a, b) for a in r for b in r
            if not up[bar[a][perp[bar[a][b]]]] >> perp[b] & 1
        ),
        "self_adjoint": (
            (a, b, c) for a in r for b in r for c in r
            if (up[c] >> perp[bar[a][b]] & 1) != (up[bar[a][c]] >> perp[b] & 1)
        ),
        "join_preserving": (
            (a, b, c) for a in r for b in r for c in r
            if bar[a][join[b][c]] != join[bar[a][b]][bar[a][c]]
        ),
    }


def _order_scan(lat):
    """Order matrix, bottom, atoms, and least upper / greatest lower bounds
    of pairs, all read off lat.leq alone."""
    n = range(lat.n)
    le = [[lat.leq(i, j) for j in n] for i in n]
    bottom = next(i for i in n if all(le[i]))
    atoms = [
        a for a in n
        if a != bottom and not any(b not in (bottom, a) and le[b][a] for b in n)
    ]

    def lub(elems):
        ups = [k for k in n if all(le[e][k] for e in elems)]
        return next(k for k in ups if all(le[k][u] for u in ups))

    def glb(elems):
        downs = [k for k in n if all(le[k][e] for e in elems)]
        return next(k for k in downs if all(le[d][k] for d in downs))

    return le, bottom, atoms, lub, glb


def cover_pairs_by_scan(lat):
    """Every (i, j) where j covers i, by i and then j: i < j with no
    element strictly between, from the order relation alone."""
    le, *_ = _order_scan(lat)
    n = range(lat.n)
    return [
        (i, j) for i in n for j in n
        if i != j and le[i][j] and not any(w not in (i, j) and le[i][w] and le[w][j] for w in n)
    ]


def covering_by_scan(lat):
    """Atomisticity and the covering property, each as (holds, first
    witness), from the order relation alone.  Atomistic: every x is the
    least upper bound of the atoms below it (witness: the label of the
    first x that is not).  Covering: for every x and atom a not below x,
    x v a covers x (witness: labels of the first such x and a and of the
    first element strictly between x and x v a)."""
    le, bottom, atoms, lub, _ = _order_scan(lat)
    n = range(lat.n)
    atomistic = (True, None)
    for x in n:
        if lub([a for a in atoms if le[a][x]]) != x:
            atomistic = (False, lat.labels[x])
            break
    covering = (True, None)
    for x in n:
        for a in atoms:
            if le[a][x]:
                continue
            z = lub([x, a])
            between = [w for w in n if w not in (x, z) and le[x][w] and le[w][z]]
            if between:
                covering = (False, (lat.labels[x], lat.labels[a], lat.labels[between[0]]))
                break
        if not covering[0]:
            break
    return atomistic, covering


def basic_to_basic_by_scan(lat):
    """Whether every Sasaki projection x ^ (x' v a) of an atom a is an atom
    or the bottom, as (holds, labels of the first x, a and projection),
    with meets and joins taken from the order relation alone."""
    _, bottom, atoms, lub, glb = _order_scan(lat)
    for x in range(lat.n):
        for a in atoms:
            p = glb([x, lub([lat.ortho[x], a])])
            if p != bottom and p not in atoms:
                return (False, (lat.labels[x], lat.labels[a], lat.labels[p]))
    return (True, None)


def projections_by_scan(lat):
    """The table of Sasaki projections x ^ (x' v y), row x for each x,
    with meets and joins taken from the order relation alone."""
    _, _, _, lub, glb = _order_scan(lat)
    n = range(lat.n)
    return [[glb([x, lub([lat.ortho[x], y])]) for y in n] for x in n]


def self_adjoint_by_scan(lat, pi):
    """The first triple (x, y, z), scanning x, then y, then z, where law
    (d) of projection_facts fails for the projection table pi: pi_x(y)
    orth z differs from y orth pi_x(z), with u orth v read as
    up[u] >> ortho[v] & 1.  None when the law holds."""
    r = range(lat.n)
    up, ortho = lat.up, lat.ortho
    return next(
        ((x, y, z) for x in r for y in r for z in r
         if (up[pi[x][y]] >> ortho[z] & 1) != (up[y] >> ortho[pi[x][z]] & 1)),
        None,
    )


def meet_join_by_scan(lat):
    """Meet and join tables, bottom, top, and the height of each element
    (the length of a longest chain up to it from the bottom), all read off
    lat.leq alone."""
    le, bottom, _, lub, glb = _order_scan(lat)
    n = range(lat.n)
    top = next(i for i in n if all(le[j][i] for j in n))
    heights: dict = {}

    def height(x):
        if x not in heights:
            heights[x] = max((1 + height(y) for y in n if y != x and le[y][x]), default=0)
        return heights[x]

    return {
        "meet": [[glb([i, j]) for j in n] for i in n],
        "join": [[lub([i, j]) for j in n] for i in n],
        "bottom": bottom,
        "top": top,
        "heights": [height(x) for x in n],
    }


# ------------------------------------------------------------------ Hermitian


@dataclass(frozen=True)
class GaussianRational:
    """a + b*i with rational a, b; arithmetic and conjugation are exact."""

    re: Fraction
    im: Fraction

    @staticmethod
    def of(value: Union["GaussianRational", Fraction, int]) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(Fraction(value), Fraction(0))

    def __add__(self, other: Any) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re + o.re, self.im + o.im)

    __radd__ = __add__

    def __sub__(self, other: Any) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(self.re - o.re, self.im - o.im)

    def __rsub__(self, other: Any) -> "GaussianRational":
        return GaussianRational.of(other) - self

    def __mul__(self, other: Any) -> "GaussianRational":
        o = GaussianRational.of(other)
        return GaussianRational(
            self.re * o.re - self.im * o.im, self.re * o.im + self.im * o.re
        )

    __rmul__ = __mul__

    def __truediv__(self, other: Any) -> "GaussianRational":
        o = GaussianRational.of(other)
        norm = o.re * o.re + o.im * o.im
        if norm == 0:
            raise ZeroDivisionError("division by zero Gaussian rational")
        return GaussianRational(
            (self.re * o.re + self.im * o.im) / norm,
            (self.im * o.re - self.re * o.im) / norm,
        )

    def __neg__(self) -> "GaussianRational":
        return GaussianRational(-self.re, -self.im)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other: Any) -> bool:
        if isinstance(other, (GaussianRational, Fraction, int)):
            o = GaussianRational.of(other)
            return self.re == o.re and self.im == o.im
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.re, self.im))

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)


def _re_im(v) -> tuple[Fraction, Fraction]:
    """Real and imaginary part of a scalar of either field, read through
    the public `re` and `im` of a Gaussian rational."""
    if isinstance(v, (Fraction, int)):
        return Fraction(v), Fraction(0)
    return v.re, v.im


def inner_by_sum(space, x, y) -> tuple[Fraction, Fraction]:
    """The form sum_ij x_i g_ij star(y_j) as (real part, imaginary part),
    each a plain Fraction double sum over every pair (i, j)."""
    re = im = Fraction(0)
    for i in range(space.dim):
        xr, xi = _re_im(x[i])
        for j in range(space.dim):
            gr, gi = _re_im(space.gram[i][j])
            yr, yi = _re_im(y[j])
            if space.field == "Qi":
                yi = -yi
            ur, ui = xr * gr - xi * gi, xr * gi + xi * gr
            re += ur * yr - ui * yi
            im += ur * yi + ui * yr
    return re, im


def rref_by_fractions(rows) -> tuple[list[list], list[int]]:
    """Reduced row echelon form by Gauss-Jordan elimination on the scalars
    themselves (Fractions or Gaussian rationals): nonzero rows and pivot
    columns.  Each pivot is the first nonzero entry at or below the current
    row; its row is divided by it, and the pivot column is cleared in every
    other row."""
    mat = [list(r) for r in rows]
    if not mat:
        return [], []
    ncols = len(mat[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        sel = next((i for i in range(r, len(mat)) if mat[i][c]), -1)
        if sel < 0:
            continue
        mat[r], mat[sel] = mat[sel], mat[r]
        inv = mat[r][c]
        mat[r] = [v / inv for v in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][c]:
                factor = mat[i][c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(c)
        r += 1
        if r == len(mat):
            break
    return [row for row in mat[:r]], pivots


def leading_minors_by_fractions(gram, field) -> list[Fraction]:
    """Leading principal minors of the gram (of its realified form
    [[a, b], [-b, a]] for gram = a + b*i on Qi), by Fraction elimination
    without row swaps: minor k is the product of the first k pivots.  The
    list ends at the first minor that is not positive, so every pivot the
    pass divides by is nonzero."""
    n = len(gram)
    parts = [[_re_im(v) for v in row] for row in gram]
    if field == "Q":
        real = [[re for re, _ in row] for row in parts]
    else:
        a = [[re for re, _ in row] for row in parts]
        b = [[im for _, im in row] for row in parts]
        real = [a[i] + b[i] for i in range(n)]
        real += [[-b[i][j] for j in range(n)] + a[i] for i in range(n)]
    minors: list[Fraction] = []
    minor = Fraction(1)
    for k in range(len(real)):
        minor *= real[k][k]
        minors.append(minor)
        if minor <= 0:
            break
        for i in range(k + 1, len(real)):
            if real[i][k]:
                factor = real[i][k] / real[k][k]
                real[i] = [x - factor * y for x, y in zip(real[i], real[k])]
    return minors


def random_gram_by_scalars(rng, dim, field) -> list[list]:
    """The gram random_space draws from rng, as scalars (Fractions, or the
    two-Fraction GaussianRational above): the identity when the first
    draw is below 0.5, else R R* + I with R drawn entry by entry, row by
    row, each part as randint(-2, 2) over choice((1, 1, 2)), real part
    first; summed one scalar product at a time."""
    def fraction():
        return Fraction(rng.randint(-2, 2), rng.choice((1, 1, 2)))

    def scalar():
        if field == "Q":
            return fraction()
        re = fraction()
        return GaussianRational(re, fraction())

    zero = Fraction(0) if field == "Q" else GaussianRational(Fraction(0), Fraction(0))
    one = Fraction(1) if field == "Q" else GaussianRational(Fraction(1), Fraction(0))
    if rng.random() < 0.5:
        return [[one if i == j else zero for j in range(dim)] for i in range(dim)]
    r = [[scalar() for _ in range(dim)] for _ in range(dim)]
    gram = []
    for i in range(dim):
        row = []
        for j in range(dim):
            acc = one if i == j else zero
            for k in range(dim):
                acc = acc + r[i][k] * r[j][k].conjugate()
            row.append(acc)
        gram.append(row)
    return gram
