"""Independent slow oracles used to cross-check the library.

Everything here recomputes from raw adjacency by full enumeration over
subset bitmasks; none of it shares code with the package's budgeted or
pruned implementations.
"""
from __future__ import annotations

from itertools import combinations, product

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


def finch_laws_by_scan(x: Orthoset, family: list[Subset], witnesses) -> dict:
    """The five induced-map laws of finch_report, straight from their
    definitions: every perp is perp_by_scan, every closure its double, and
    the induced value of target a on b is the closure of the image of the
    part of b outside perp(a).  Each law maps to (holds, first
    counterexample as label tuples), loops in family order."""
    def perp(s):
        return perp_by_scan(x, s)

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
