"""Finite orthosets.

An orthoset is a finite set with a symmetric, irreflexive binary relation
(orthogonality).  Everything downstream is built on three operations here:
perp (the common orthocomplement of a subset), double-perp closure, and the
enumeration of the orthoclosed sets, which form a complete ortholattice.

At the public API a subset is a frozenset of element indices over a fixed
parent orthoset; each public method validates its argument once.
Internally every subset is an int mask (bit i is element i), and one
unchecked kernel, Orthoset._perp, computes every perp.  The canonical order
on subsets, used everywhere a deterministic enumeration is promised, is
(cardinality, lexicographic on sorted indices).  Predicates that read many
closures of one orthoset go through a ClosureTable: the family indexed by
canonical position.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Callable, Iterable, Iterator

from .config import automorphism_bound, clique_budget, family_budget
from .errors import BudgetExceededError, InputError, InvalidSubsetError

Subset = frozenset[int]


def subset_key(s: Subset) -> tuple[int, tuple[int, ...]]:
    """Canonical sort key: cardinality first, then sorted index tuple."""
    return (len(s), tuple(sorted(s)))


def _bits(m: int) -> Iterator[int]:
    """Indices of the set bits of a mask, lowest first."""
    while m:
        low = m & -m
        yield low.bit_length() - 1
        m ^= low


def _mask_key(m: int) -> tuple[int, tuple[int, ...]]:
    """subset_key of the subset a mask stands for."""
    return (m.bit_count(), tuple(_bits(m)))


@dataclass(frozen=True)
class Verdict:
    """Boolean outcome of a check plus a witness.

    For failed universal claims the witness is a counterexample; for
    positive existential claims it is a certificate.  `note` carries
    convention flags (e.g. trivial cases decided by definition).
    """

    holds: bool
    witness: Any = None
    note: str | None = None

    def __bool__(self) -> bool:
        return self.holds


def first_counterexample(
    failures: Iterator[tuple[Any, ...]], render: Callable[[tuple[Any, ...]], Any]
) -> Verdict:
    """Verdict of a universal claim from its counterexamples in scan order:
    it holds when there are none, else the first one, rendered, is the
    witness.  Only the first is drawn from the iterator."""
    w = next(failures, None)
    if w is None:
        return Verdict(True)
    return Verdict(False, witness=render(w))


@dataclass
class PropertyReport:
    """Bundle of per-predicate verdicts for one orthoset."""

    name: str
    n: int
    rank: int
    point_closed: Verdict
    irreducible: Verdict
    dacey: Verdict
    sasaki_naive: Verdict
    sasaki_reduced: Verdict
    transitive: Verdict | None  # None when |X| exceeds the search bound


@dataclass(frozen=True)
class Orthoset:
    """Immutable finite orthoset: labels plus adjacency (orthogonality) sets."""

    labels: tuple[str, ...]
    adj: tuple[frozenset[int], ...]

    def __post_init__(self) -> None:
        n = len(self.labels)
        if len(self.adj) != n:
            raise InputError("adjacency length does not match element count")
        seen: set[str] = set()
        for lab in self.labels:
            if not isinstance(lab, str) or not lab:
                raise InputError(f"element labels must be nonempty strings, got {lab!r}")
            if lab in seen:
                raise InputError(f"duplicate element label {lab!r}")
            seen.add(lab)
        for i, nb in enumerate(self.adj):
            if i in nb:
                raise InputError(f"orthogonality must be irreflexive, {self.labels[i]!r} is orthogonal to itself")
            for j in nb:
                if not 0 <= j < n:
                    raise InputError("adjacency index out of range")
                if i not in self.adj[j]:
                    raise InputError("orthogonality must be symmetric")
        # the kernel's view of adj: the point perps as masks
        object.__setattr__(self, "_adj", tuple(sum(1 << j for j in nb) for nb in self.adj))
        object.__setattr__(self, "_full", (1 << n) - 1)

    # ---------------------------------------------------------------- build

    @classmethod
    def build(cls, labels: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Orthoset":
        """Build from labels and orthogonal label pairs."""
        labs = tuple(labels)
        index = {lab: i for i, lab in enumerate(labs)}
        if len(index) != len(labs):
            raise InputError("duplicate element label")
        nbrs: list[set[int]] = [set() for _ in labs]
        for a, b in pairs:
            if a not in index:
                raise InputError(f"unknown element label {a!r} in orthogonal pair")
            if b not in index:
                raise InputError(f"unknown element label {b!r} in orthogonal pair")
            if a == b:
                raise InputError(f"self-orthogonal pair [{a!r}, {b!r}] rejected")
            nbrs[index[a]].add(index[b])
            nbrs[index[b]].add(index[a])
        return cls(labs, tuple(frozenset(s) for s in nbrs))

    @classmethod
    def from_json(cls, doc: Any) -> "Orthoset":
        """Parse the orthoset document format (fixture wrappers accepted)."""
        if isinstance(doc, dict) and "payload" in doc:
            if doc.get("kind") not in (None, "orthoset"):
                raise InputError(f"fixture kind {doc.get('kind')!r} is not an orthoset")
            doc = doc["payload"]
        if not isinstance(doc, dict):
            raise InputError("orthoset document must be a JSON object")
        elements = doc.get("elements")
        pairs = doc.get("orthogonal")
        if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
            raise InputError("'elements' must be a list of strings")
        if not isinstance(pairs, list):
            raise InputError("'orthogonal' must be a list of pairs")
        checked: list[tuple[str, str]] = []
        for p in pairs:
            if not isinstance(p, list) or len(p) != 2 or not all(isinstance(x, str) for x in p):
                raise InputError(f"orthogonal pair {p!r} must be a two-element list of labels")
            checked.append((p[0], p[1]))
        return cls.build(elements, checked)

    def to_json(self, name: str = "orthoset") -> dict[str, Any]:
        """Document form; pairs sorted lexicographically for determinism."""
        pairs = sorted(
            [sorted((self.labels[i], self.labels[j])) for i in range(self.n) for j in self.adj[i] if i < j]
        )
        return {"name": name, "elements": list(self.labels), "orthogonal": pairs}

    # --------------------------------------------------------------- basics

    @property
    def n(self) -> int:
        return len(self.labels)

    @property
    def universe(self) -> Subset:
        return frozenset(range(self.n))

    def index(self, label: str) -> int:
        try:
            return self.labels.index(label)
        except ValueError:
            raise InputError(f"unknown element label {label!r}") from None

    def subset(self, labels: Iterable[str]) -> Subset:
        return frozenset(self.index(lab) for lab in labels)

    def labels_of(self, s: Subset) -> tuple[str, ...]:
        return self._labels(self._mask(s))

    def _mask(self, s: Subset) -> int:
        """The validated public subset s as a mask."""
        n = self.n
        m = 0
        for i in s:
            if not isinstance(i, int) or not 0 <= i < n:
                raise InvalidSubsetError(f"subset index {i!r} out of range for |X| = {n}")
            m |= 1 << i
        return m

    def _labels(self, m: int) -> tuple[str, ...]:
        return tuple(self.labels[i] for i in _bits(m))

    def orthogonal(self, i: int, j: int) -> bool:
        self._mask(frozenset((i, j)))
        return j in self.adj[i]

    # ------------------------------------------------------------- perp ops

    def _perp(self, m: int) -> int:
        """The kernel: common orthocomplement of a mask, as a mask.  The
        mask is not validated."""
        out = self._full
        while m and out:
            low = m & -m
            out &= self._adj[low.bit_length() - 1]
            m ^= low
        return out

    def perp(self, s: Subset) -> Subset:
        """Common orthocomplement {x : x is orthogonal to every element of s}.

        perp of the empty set is the whole universe.
        """
        return frozenset(_bits(self._perp(self._mask(s))))

    def closure(self, s: Subset) -> tuple[Subset, bool]:
        """Double perp of s, plus a flag telling whether s was already closed."""
        m = self._mask(s)
        c = self._perp(self._perp(m))
        return frozenset(_bits(c)), c == m

    def is_orthoclosed(self, s: Subset) -> bool:
        m = self._mask(s)
        return self._perp(self._perp(m)) == m

    def orthoclosed_family(self, budget: int | None = None) -> list[Subset]:
        """All orthoclosed sets, in canonical order."""
        return [frozenset(_bits(m)) for m in self._closed_masks(budget)]

    def _closed_masks(self, budget: int | None = None) -> list[int]:
        """The orthoclosed family as masks, in canonical order.

        Every orthoclosed set is an intersection of single-element perps
        (the empty intersection being X), so the family is the closure of
        {X} under intersection with the point perps.
        """
        limit = family_budget(budget)
        family = {self._full}
        frontier = [self._full]
        while frontier:
            fresh: list[int] = []
            for member in frontier:
                for p in self._adj:
                    s = member & p
                    if s not in family:
                        family.add(s)
                        if len(family) > limit:
                            raise BudgetExceededError(
                                f"orthoclosed family exceeds budget of {limit} sets"
                            )
                        fresh.append(s)
            frontier = fresh
        return sorted(family, key=_mask_key)

    # ---------------------------------------------------------- perp-sets

    def maximal_perp_sets(self, within: Subset | None = None, budget: int | None = None) -> list[Subset]:
        """Maximal sets of pairwise-orthogonal elements inside `within`
        (default: the whole universe), in canonical order.  The empty
        orthoset has the empty set as its one maximal perp-set."""
        w = self._full if within is None else self._mask(within)
        return [frozenset(_bits(m)) for m in self._maximal_perp_masks(w, clique_budget(budget))]

    def _maximal_perp_masks(self, w: int, limit: int) -> list[int]:
        """Bron-Kerbosch with pivoting on the orthogonality graph restricted
        to the mask w; masks in canonical order."""
        adj = [a & w for a in self._adj]
        out: list[int] = []

        def expand(r: int, p: int, x: int) -> None:
            if not p and not x:
                out.append(r)
                if len(out) > limit:
                    raise BudgetExceededError(f"perp-set enumeration exceeds budget of {limit}")
                return
            # pivot of highest degree in p, smallest index breaking ties
            pivot = max(_bits(p | x), key=lambda v: (adj[v] & p).bit_count())
            for v in _bits(p & ~adj[pivot]):
                expand(r | 1 << v, p & adj[v], x & adj[v])
                p &= ~(1 << v)
                x |= 1 << v

        expand(0, w, 0)
        out.sort(key=_mask_key)
        return out

    def perp_sets(self, within: Subset | None = None, budget: int | None = None) -> list[Subset]:
        """All perp-sets (the empty one included) inside `within`, canonical order."""
        w = self._full if within is None else self._mask(within)
        return [frozenset(_bits(m)) for m in self._perp_set_masks(w, clique_budget(budget))]

    def _perp_set_masks(self, w: int, limit: int) -> list[int]:
        """All perp-sets inside the mask w, as masks in canonical order."""
        out: list[int] = []

        def extend(clique: int, candidates: int) -> None:
            out.append(clique)
            if len(out) > limit:
                raise BudgetExceededError(f"perp-set enumeration exceeds budget of {limit}")
            for v in _bits(candidates):
                candidates &= ~(1 << v)  # the later candidates
                extend(clique | 1 << v, candidates & self._adj[v])

        extend(0, w)
        out.sort(key=_mask_key)
        return out

    def rank(self, budget: int | None = None) -> int:
        """Largest size of a perp-set; 0 for the empty orthoset."""
        return max(m.bit_count() for m in self._maximal_perp_masks(self._full, clique_budget(budget)))

    # ------------------------------------------------------- structural checks

    def is_point_closed(self) -> Verdict:
        """Every singleton equals its double perp."""
        for x in range(self.n):
            c = self._perp(self._perp(1 << x))
            if c != 1 << x:
                return Verdict(False, witness=(self.labels[x], self._labels(c)))
        return Verdict(True)

    def is_irreducible(self) -> Verdict:
        """Connectivity of the non-orthogonality graph.

        Empty and singleton orthosets are irreducible by convention; the
        verdict carries a note in those trivial cases.
        """
        if self.n <= 1:
            return Verdict(True, note="trivial orthoset, irreducible by convention")
        comp = 1
        stack = [0]
        while stack:
            # the elements not orthogonal to u and not reached yet
            fresh = ~self._adj[stack.pop()] & ~comp & self._full
            comp |= fresh
            stack.extend(_bits(fresh))
        if comp == self._full:
            return Verdict(True)
        return Verdict(False, witness=self._labels(comp))

    def is_transitive(self, bound: int | None = None) -> Verdict:
        """For every ordered pair (e, f): an automorphism sending e to f
        while fixing every element orthogonal to both, found by backtracking.

        Raises BudgetExceededError when |X| exceeds the configured bound.
        """
        limit = automorphism_bound(bound)
        if self.n > limit:
            raise BudgetExceededError(
                f"transitivity search limited to {limit} elements, |X| = {self.n}"
            )
        certificates: dict[tuple[str, str], dict[str, str]] = {}
        for e in range(self.n):
            for f in range(self.n):
                if e == f:
                    continue  # identity settles the diagonal
                tau = self._automorphism_fixing(e, f)
                if tau is None:
                    return Verdict(False, witness=(self.labels[e], self.labels[f]))
                certificates[(self.labels[e], self.labels[f])] = {
                    self.labels[i]: self.labels[tau[i]] for i in range(self.n)
                }
        return Verdict(True, witness=certificates or None)

    def _automorphism_fixing(self, e: int, f: int) -> list[int] | None:
        """Adjacency-preserving bijection with tau(e) = f, fixing adj[e] & adj[f]."""
        n = self.n
        adj = self._adj
        deg = [a.bit_count() for a in adj]
        img: list[int] = [-1] * n
        used = [False] * n

        def consistent(u: int, v: int) -> bool:
            if deg[u] != deg[v]:
                return False
            for w in range(n):
                if img[w] >= 0 and (adj[u] >> w & 1) != (adj[v] >> img[w] & 1):
                    return False
            return True

        def place(u: int, v: int) -> bool:
            if img[u] >= 0:
                return img[u] == v
            if used[v] or not consistent(u, v):
                return False
            img[u] = v
            used[v] = True
            return True

        if not place(e, f):
            return None
        for x in _bits(adj[e] & adj[f]):
            if not place(x, x):
                return None

        rest = [u for u in range(n) if img[u] < 0]

        def search(k: int) -> bool:
            if k == len(rest):
                return True
            u = rest[k]
            for v in range(n):
                if not used[v] and consistent(u, v):
                    img[u] = v
                    used[v] = True
                    if search(k + 1):
                        return True
                    img[u] = -1
                    used[v] = False
            return False

        return img if search(0) else None

    # ----------------------------------------------------------------- misc

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))


class ClosureTable:
    """The orthoclosed family of one orthoset, addressed by position.

    The family is enumerated once, as masks in canonical order, within the
    family budget.  Positions then agree with the element order of the
    orthoclosed lattice, and every double perp lands on a member, so
    closures, perps, joins and inclusions all come back as positions.
    Masks given to the table are not validated: it is an internal kernel,
    the frozenset methods of Orthoset stay the public, checked interface.
    """

    def __init__(self, x: Orthoset, budget: int | None = None):
        self._perp = x._perp
        self.masks: tuple[int, ...] = tuple(x._closed_masks(budget))
        self.sets: tuple[Subset, ...] = tuple(frozenset(_bits(m)) for m in self.masks)
        self.index: dict[int, int] = {m: i for i, m in enumerate(self.masks)}
        # perp of a member, as a position
        self.perp: tuple[int, ...] = tuple(self.index[self._perp(m)] for m in self.masks)
        # up[i] has bit j set iff member i is contained in member j
        self.up: tuple[int, ...] = tuple(
            sum(1 << j for j, mj in enumerate(self.masks) if mi & mj == mi)
            for mi in self.masks
        )

    def close(self, m: int) -> int:
        """Position of the double perp of a mask.  A single perp is already
        orthoclosed, so the second one is a lookup."""
        return self.perp[self.index[self._perp(m)]]

    def join(self, i: int, j: int) -> int:
        """Position of the closure of the union of members i and j: the perp
        of the meet of their perps, which is an intersection, hence a member."""
        return self.perp[self.index[self.masks[self.perp[i]] & self.masks[self.perp[j]]]]
