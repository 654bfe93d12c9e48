"""Finite orthosets.

An orthoset is a finite set with a symmetric, irreflexive binary relation
(orthogonality).  Everything downstream is built on three operations here:
perp (the common orthocomplement of a subset), double-perp closure, and the
enumeration of the orthoclosed sets, which form a complete ortholattice.

At the public API a subset is a frozenset of element indices over a fixed
parent orthoset; each public method validates its argument once.
Internally every subset is an int mask (bit i is element i), and one
unchecked kernel, Orthoset._perp, computes the perp of a subset, except
in ClosureTable.perp, which ANDs the point perps of each member itself.
The canonical order
on subsets, used everywhere a deterministic enumeration is promised, is
(cardinality, lexicographic on sorted indices).  Every reader of the
orthoclosed family goes through Orthoset.closure_table, which enumerates it
once per orthoset and keeps it as a ClosureTable.  _up_sets, _transpose and
_bound_rows are the one copy of each order-table step, and _unwrap,
_elements, _label_pairs and _expect of each document format check, which
Orthoset.from_json, build_lattice and the Hermitian readers share.  Every
search here (perp-set enumeration, Bron-Kerbosch, and the bijection search
under is_transitive and the lattice isomorphism search) is a loop on an
explicit stack, so no recursion limit bounds it.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce
from operator import and_
from typing import TYPE_CHECKING, Any, Callable, Iterable, Iterator, Sequence

from .config import resolve
from .errors import BudgetExceededError, InputError, InvalidSubsetError

if TYPE_CHECKING:
    from .lattice import OrthoLattice

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


def _transpose(rows: Sequence[int], width: int) -> list[int]:
    """out[j] has bit i set iff rows[i] has bit j set, for j < width."""
    out = [0] * width
    for i, row in enumerate(rows):
        for j in _bits(row):
            out[j] |= 1 << i
    return out


def _up_sets(masks: Sequence[int], width: int) -> list[int]:
    """up[i] has bit j set iff masks[i] is within masks[j], for masks below
    1 << width: the AND of the membership columns of the elements of masks[i]."""
    holding = _transpose(masks, width)  # holding[e]: the masks with bit e
    everything = (1 << len(masks)) - 1
    return [reduce(and_, map(holding.__getitem__, _bits(m)), everything) for m in masks]


def _bound_rows(masks: Sequence[int]) -> list[list[int]]:
    """rows[i][j]: the position of masks[i] & masks[j], or -1 if absent (the joins
    on up-sets, the meets on down-sets); list rows map faster than tuple rows."""
    at = {m: k for k, m in enumerate(masks)}.get
    return [[at(mi & mj, -1) for mj in masks] for mi in masks]


_FLIP = str.maketrans("01", "10")


def _mask_key(m: int) -> tuple[int, str]:
    """A key that orders masks as subset_key orders the subsets they stand
    for: the bits lowest first with 0 and 1 swapped, so that at the first
    bit where two masks of one size differ, the one holding it sorts first."""
    return (m.bit_count(), bin(m)[:1:-1].translate(_FLIP))


def _expect(value: Any, kind: type | tuple[type, ...], message: str) -> Any:
    """value, if it is an instance of kind; else an InputError with message."""
    if not isinstance(value, kind):
        raise InputError(message)
    return value


def _unwrap(doc: Any, kind: str) -> dict[str, Any]:
    """The `kind` document, out of its fixture wrapper {"kind", "payload"} if
    any; another kind's wrapper, or a value that is not an object, is refused."""
    if isinstance(doc, dict) and "payload" in doc:
        if doc.get("kind") not in (None, kind):
            article = "an" if kind == "orthoset" else "a"
            raise InputError(f"fixture kind {doc.get('kind')!r} is not {article} {kind}")
        doc = doc["payload"]
    return _expect(doc, dict, f"{kind} document must be a JSON object")


def _elements(doc: dict[str, Any]) -> list[str]:
    """The document's 'elements', a list of strings."""
    elements = doc.get("elements")
    if not isinstance(elements, list) or not all(isinstance(e, str) for e in elements):
        raise InputError("'elements' must be a list of strings")
    return elements


def _label_pairs(doc: dict[str, Any], key: str) -> Iterator[list[str]]:
    """The label pairs of the list doc[key], each checked as it is drawn, so a
    caller checking labels in the same loop refuses the first bad pair of either sort."""
    for p in _expect(doc.get(key), list, f"'{key}' must be a list of pairs"):
        if not (isinstance(p, list) and len(p) == 2 and isinstance(p[0], str) and isinstance(p[1], str)):
            raise InputError(f"{key} pair {p!r} must be a two-element list of labels")
        yield p


def document_kind(doc: Any) -> str:
    """"orthoset" or "lattice": the kind a fixture wrapper names, else
    "lattice" exactly when the document has an 'ortho' key."""
    if isinstance(doc, dict) and doc.get("kind") in ("orthoset", "lattice"):
        return doc["kind"]
    inner = doc.get("payload", doc) if isinstance(doc, dict) else doc
    return "lattice" if isinstance(inner, dict) and "ortho" in inner else "orthoset"


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


def _first_bijection(
    n: int,
    steps: Sequence[tuple[int, Iterable[int]]],
    fits: Callable[[list[int], int, int], bool],
) -> list[int] | None:
    """The first bijection img of range(n) found depth first, or None.

    Step k = (u, candidates) gives u the first candidate v, in the order
    given, that no earlier step holds and that fits(img, u, v) accepts;
    img maps the earlier steps' elements and holds -1 elsewhere.  When a
    step runs out of candidates, the previous step moves on to its next
    one.  The steps must name every element once.  One loop on an
    explicit stack of candidate iterators, so no recursion limit bounds
    the depth."""
    img, used = [-1] * n, [False] * n
    tries: list[Iterator[int]] = []  # tries[k]: the candidates step k has left
    k = 0
    while k < len(steps):
        u, candidates = steps[k]
        if len(tries) == k:
            tries.append(iter(candidates))
        else:  # back at step k: free the value it held
            used[img[u]], img[u] = False, -1
        v = next((v for v in tries[k] if not used[v] and fits(img, u, v)), None)
        if v is not None:
            img[u], used[v] = v, True
            k += 1
        elif k == 0:
            return None
        else:
            tries.pop()
            k -= 1
    return img


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
        # set now: an attribute added after construction slows reads on the instance
        object.__setattr__(self, "_closure_table", None)

    # ---------------------------------------------------------------- build

    @classmethod
    def build(cls, labels: Iterable[str], pairs: Iterable[tuple[str, str]]) -> "Orthoset":
        """Build from labels and orthogonal label pairs."""
        labs = tuple(labels)
        index = {lab: i for i, lab in enumerate(labs)}
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
        """Parse the orthoset document format (fixture wrappers accepted):
        every pair's form is checked before any pair's labels."""
        doc = _unwrap(doc, "orthoset")
        return cls.build(_elements(doc), list(_label_pairs(doc, "orthogonal")))

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

    def orthoclosed_family(self) -> list[Subset]:
        """All orthoclosed sets, in canonical order."""
        return list(self.closure_table().sets)

    def closure_table(self) -> "ClosureTable":
        """The family as a ClosureTable, enumerated on the first call and kept
        outside the fields; each call checks the run's family budget, as the
        enumeration does."""
        t = self._closure_table
        if t is None:
            t = ClosureTable(self)
            object.__setattr__(self, "_closure_table", t)
        elif len(t.masks) > (limit := resolve("family")):
            raise _family_budget_error(limit)
        return t

    def _closed_masks(self) -> list[int]:
        """The orthoclosed family as masks, in canonical order.

        Every orthoclosed set is an intersection of single-element perps
        (the empty intersection being X), so the family is the closure of
        {X} under intersection with the point perps.
        """
        limit = resolve("family")
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
                            raise _family_budget_error(limit)
                        fresh.append(s)
            frontier = fresh
        return sorted(family, key=_mask_key)

    # ---------------------------------------------------------- perp-sets

    def maximal_perp_sets(self, within: Subset | None = None) -> list[Subset]:
        """Maximal sets of pairwise-orthogonal elements inside `within`
        (default: the whole universe), in canonical order.  The empty
        orthoset has the empty set as its one maximal perp-set."""
        w = self._full if within is None else self._mask(within)
        return [frozenset(_bits(m)) for m in self._maximal_perp_masks(w, resolve("clique"))]

    def _maximal_perp_masks(self, w: int, limit: int) -> list[int]:
        """Bron-Kerbosch with pivoting on the orthogonality graph restricted
        to the mask w; masks in canonical order.  The recursion runs on an
        explicit stack of frames (r, p, x, branch vertices not yet taken),
        so no recursion limit bounds the clique size."""
        adj = [a & w for a in self._adj]
        out: list[int] = []
        stack: list[tuple[int, int, int, int]] = []

        def enter(r: int, p: int, x: int) -> None:
            if not p and not x:
                out.append(r)
                if len(out) > limit:
                    raise BudgetExceededError(f"perp-set enumeration exceeds budget of {limit}")
                return
            # pivot of highest degree in p, smallest index breaking ties
            pivot = max(_bits(p | x), key=lambda v: (adj[v] & p).bit_count())
            stack.append((r, p, x, p & ~adj[pivot]))

        enter(0, w, 0)
        while stack:
            r, p, x, todo = stack.pop()
            if todo:
                low = todo & -todo
                v = low.bit_length() - 1
                stack.append((r, p & ~low, x | low, todo ^ low))
                enter(r | low, p & adj[v], x & adj[v])
        out.sort(key=_mask_key)
        return out

    def perp_sets(self, within: Subset | None = None) -> list[Subset]:
        """All perp-sets (the empty one included) inside `within`, canonical order."""
        w = self._full if within is None else self._mask(within)
        return [frozenset(_bits(m)) for m in self._perp_set_masks(w, resolve("clique"))]

    def _perp_set_masks(self, w: int, limit: int) -> list[int]:
        """All perp-sets inside the mask w, as masks in canonical order.
        Depth first on an explicit stack of frames (clique, candidates not
        yet tried), so no recursion limit bounds the clique size."""
        adj = self._adj
        out: list[int] = []
        stack: list[tuple[int, int]] = []

        def enter(clique: int, candidates: int) -> None:
            out.append(clique)
            if len(out) > limit:
                raise BudgetExceededError(f"perp-set enumeration exceeds budget of {limit}")
            stack.append((clique, candidates))

        enter(0, w)
        while stack:
            clique, candidates = stack.pop()
            if candidates:
                low = candidates & -candidates
                later = candidates ^ low
                stack.append((clique, later))
                enter(clique | low, later & adj[low.bit_length() - 1])
        out.sort(key=_mask_key)
        return out

    def rank(self) -> int:
        """Largest size of a perp-set; 0 for the empty orthoset."""
        return max(m.bit_count() for m in self._maximal_perp_masks(self._full, resolve("clique")))

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

    def is_transitive(self) -> Verdict:
        """For every ordered pair (e, f): an automorphism sending e to f
        while fixing every element orthogonal to both, found by backtracking.

        Raises BudgetExceededError when |X| exceeds the automorphism bound.
        """
        limit = resolve("automorphism")
        if self.n > limit:
            raise BudgetExceededError(
                f"transitivity search limited to {limit} elements, |X| = {self.n}"
            )
        certificates: dict[tuple[str, str], dict[str, str]] = {}
        deg = [a.bit_count() for a in self._adj]
        for e in range(self.n):
            for f in range(self.n):
                if e == f:
                    continue  # identity settles the diagonal
                tau = self._automorphism_fixing(e, f, deg)
                if tau is None:
                    return Verdict(False, witness=(self.labels[e], self.labels[f]))
                certificates[(self.labels[e], self.labels[f])] = {
                    self.labels[i]: self.labels[tau[i]] for i in range(self.n)
                }
        return Verdict(True, witness=certificates or None)

    def _automorphism_fixing(self, e: int, f: int, deg: list[int]) -> list[int] | None:
        """Adjacency-preserving bijection with tau(e) = f, fixing adj[e] & adj[f]:
        the first one found placing e, then the fixed points, then the other
        elements by index, each trying its values by index.  deg[u] is the
        number of elements orthogonal to u; none exists when e and f differ
        in it."""
        if deg[e] != deg[f]:
            return None
        n, adj = self.n, self._adj
        fixed = adj[e] & adj[f]
        steps = [(e, (f,)), *((x, (x,)) for x in _bits(fixed)),
                 *((u, range(n)) for u in _bits(self._full & ~fixed & ~(1 << e)))]

        def fits(img: list[int], u: int, v: int) -> bool:
            return deg[u] == deg[v] and all(
                img[w] < 0 or (adj[u] >> w & 1) == (adj[v] >> img[w] & 1) for w in range(n)
            )

        return _first_bijection(n, steps, fits)

    # ----------------------------------------------------------------- misc

    def __iter__(self) -> Iterator[int]:
        return iter(range(self.n))


def _family_budget_error(limit: int) -> BudgetExceededError:
    return BudgetExceededError(f"orthoclosed family exceeds budget of {limit} sets")


class ClosureTable:
    """The orthoclosed family of one orthoset, addressed by position.

    Built once per orthoset, by Orthoset.closure_table: masks in canonical
    order, so positions agree with the orthoclosed lattice, which
    orthoclosed_lattice keeps as `lattice`.  Perps and inclusions are
    positions, built on first read, since a Sasaki search reads only the
    sets.  It keeps the adjacency masks, not the orthoset that keeps it, as
    a cycle would delay freeing the orthoset.  Masks are not validated.
    """

    def __init__(self, x: Orthoset):
        self._adj, self._full = x._adj, x._full
        self.masks: tuple[int, ...] = tuple(x._closed_masks())
        self.sets: tuple[Subset, ...] = tuple(frozenset(_bits(m)) for m in self.masks)
        self.index: dict[int, int] = {m: i for i, m in enumerate(self.masks)}
        self.lattice: OrthoLattice | None = None

    @cached_property
    def perp(self) -> tuple[int, ...]:
        """perp[i]: position of the perp of member i, the AND of its point perps."""
        adj, full = self._adj, self._full
        return tuple(self.index[reduce(and_, map(adj.__getitem__, _bits(m)), full)] for m in self.masks)

    @cached_property
    def up(self) -> tuple[int, ...]:
        """up[i] has bit j set iff member i is contained in member j."""
        return tuple(_up_sets(self.masks, self._full.bit_length()))
