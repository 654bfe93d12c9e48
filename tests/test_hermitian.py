# Exact Hermitian spaces: scalar grammar, star-symmetric forms with a
# positivity certificate, echelon-canonical subspaces, and the two-route
# Sasaki map on lines.  Everything here is exact rational arithmetic, so
# every equality assertion is literal, never approximate.

import gc
import importlib
import random
import re
import sys
import weakref
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from orthokit import (
    AnisotropyError,
    CrossCheckError,
    DimensionMismatchError,
    GaussianRational,
    InputError,
    NotHermitianError,
    ScalarSyntaxError,
    contains,
    format_scalar,
    format_vector,
    full_subspace,
    fuzz_hermitian,
    inner,
    intersect_subspaces,
    line,
    line_subspace,
    make_space,
    orthogonal_lines,
    parse_scalar,
    parse_vector,
    perp_subspace,
    project,
    sample_orthoset,
    sasaki_line,
    star,
    subspace,
    sum_subspaces,
    zero_subspace,
)
from orthokit import hermitian
from orthokit.hermitian import _rref, random_space
from oracles import (
    GaussianRational as PairGaussian,
    inner_by_sum,
    leading_minors_by_fractions,
    random_gram_by_scalars,
    rref_by_fractions,
)


def gaussians():
    fr = st.fractions(min_value=-9, max_value=9, max_denominator=9)
    return st.builds(GaussianRational, fr, fr)


# ------------------------------------------------------ Gaussian arithmetic


@given(gaussians(), gaussians(), gaussians())
def test_gaussian_ring_laws(a, b, c):
    # commutativity, associativity, distributivity
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c


@given(gaussians(), gaussians())
def test_gaussian_conjugation_is_multiplicative(a, b):
    assert (a * b).conjugate() == a.conjugate() * b.conjugate()
    assert (a + b).conjugate() == a.conjugate() + b.conjugate()


@given(gaussians(), gaussians())
def test_gaussian_division_inverts_multiplication(a, b):
    if b:
        assert (a * b) / b == a
        assert (a / b) * b == a


@given(gaussians())
def test_gaussian_norm_is_conjugate_product(a):
    n = a * a.conjugate()
    assert n.im == 0 and n.re == a.re * a.re + a.im * a.im


def test_gaussian_division_by_zero():
    with pytest.raises(ZeroDivisionError):
        GaussianRational(Fraction(1), Fraction(0)) / GaussianRational(
            Fraction(0), Fraction(0)
        )


def test_gaussian_mixes_with_ints_and_fractions():
    i = GaussianRational(Fraction(0), Fraction(1))
    assert 1 + i == GaussianRational(Fraction(1), Fraction(1))
    assert 2 * i == GaussianRational(Fraction(0), Fraction(2))
    assert i - Fraction(1, 2) == GaussianRational(Fraction(-1, 2), Fraction(1))
    assert i * i == -1


@pytest.mark.parametrize("make, name", [
    (lambda: GaussianRational(1, 0) + 0.1, "float"),
    (lambda: 0.1 + GaussianRational(1, 0), "float"),
    (lambda: GaussianRational(1, 0) - 0.5, "float"),
    (lambda: 0.5 - GaussianRational(1, 0), "float"),
    (lambda: GaussianRational(1, 0) * 0.5, "float"),
    (lambda: GaussianRational(1, 0) / 0.5, "float"),
    (lambda: 0.5 / GaussianRational(1, 0), "float"),
    (lambda: GaussianRational(1, 0) + 1j, "complex"),
    (lambda: 1j * GaussianRational(1, 0), "complex"),
    (lambda: GaussianRational(0.5, 0), "float"),
    (lambda: GaussianRational(0, 1j), "complex"),
    (lambda: GaussianRational.of(0.5), "float"),
    (lambda: GaussianRational.of(1j), "complex"),
    (lambda: GaussianRational.of("1/2"), "str"),
])
def test_gaussian_refuses_inexact_operands_by_type(make, name):
    with pytest.raises(TypeError, match=f"not {name}$"):
        make()


def fractions_():
    return st.fractions(min_value=-9, max_value=9, max_denominator=12)


def pair(z):
    """The two-Fraction oracle value equal to the Gaussian rational z."""
    return PairGaussian(z.re, z.im)


@given(fractions_(), fractions_(), fractions_(), fractions_())
def test_gaussian_arithmetic_agrees_with_the_pair_oracle(a, b, c, d):
    x, y = GaussianRational(a, b), GaussianRational(c, d)
    ox, oy = PairGaussian(a, b), PairGaussian(c, d)
    assert (x.re, x.im) == (a, b)
    assert pair(x + y) == ox + oy
    assert pair(x - y) == ox - oy
    assert pair(x * y) == ox * oy
    assert pair(-x) == -ox
    assert pair(x.conjugate()) == ox.conjugate()
    assert bool(x) == bool(ox)
    assert (x == y) == (ox == oy)
    if oy:
        assert pair(x / y) == ox / oy
    else:
        with pytest.raises(ZeroDivisionError):
            ox / oy
        with pytest.raises(ZeroDivisionError):
            x / y


@given(fractions_(), fractions_(), st.integers(-9, 9), fractions_())
def test_gaussian_mixed_operands_agree_with_the_pair_oracle(a, b, n, q):
    x, ox = GaussianRational(a, b), PairGaussian(a, b)
    for other in (n, q):
        assert pair(x + other) == ox + other
        assert pair(other + x) == other + ox
        assert pair(x - other) == ox - other
        assert pair(other - x) == other - ox
        assert pair(x * other) == ox * other
        assert pair(other * x) == other * ox
        if other:
            assert pair(x / other) == ox / other
        if ox:
            assert pair(other / x) == PairGaussian.of(other) / ox
        else:
            with pytest.raises(ZeroDivisionError):
                other / x
        assert (x == other) == (ox == other)
        assert (other == x) == (other == ox)
        assert (x != other) == (ox != other)


@given(fractions_(), fractions_())
def test_gaussian_format_round_trip_agrees_with_the_pair_oracle(a, b):
    x = GaussianRational(a, b)
    text = format_scalar(x)
    assert text == format_scalar(PairGaussian(a, b))
    assert parse_scalar(text, "Qi") == x


@given(fractions_())
def test_real_gaussian_hashes_like_its_fraction(q):
    z = GaussianRational.of(q)
    assert z == q and hash(z) == hash(q)
    assert len({z, q}) == 1
    assert {z: "gaussian"}[q] == "gaussian"
    if q.denominator == 1:
        assert hash(z) == hash(int(q))
        assert len({z, int(q)}) == 1


def test_gaussian_is_immutable():
    z = GaussianRational(Fraction(1, 2), Fraction(3))
    with pytest.raises(AttributeError):
        z.re = Fraction(0)
    with pytest.raises(AttributeError):
        z.extra = 1
    assert repr(z) == "GaussianRational(re=Fraction(1, 2), im=Fraction(3, 1))"


def test_a_reimported_hermitian_module_is_freed():
    # nothing global (such as the typing.Union cache) may hold on to a copy
    # of the module once the package is imported again
    def ours():
        return [n for n in sys.modules if n == "orthokit" or n.startswith("orthokit.")]

    saved = {n: sys.modules.pop(n) for n in ours()}
    try:
        fresh = weakref.ref(importlib.import_module("orthokit.hermitian").GaussianRational)
    finally:
        for n in ours():
            del sys.modules[n]
        sys.modules.update(saved)
    gc.collect()
    assert fresh() is None


def _random_entry(rng, field):
    def q():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 12)) if rng.random() < 0.8 else Fraction(0)
    return q() if field == "Q" else GaussianRational(q(), q())


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_inner_matches_the_fraction_double_sum(field):
    for seed in range(80):
        rng = random.Random(f"inner:{field}:{seed}")
        space = random_space(rng, 1 + seed % 4, field)
        for _ in range(3):
            x = tuple(_random_entry(rng, field) for _ in range(space.dim))
            y = tuple(_random_entry(rng, field) for _ in range(space.dim))
            value = inner(space, x, y)
            re, im = inner_by_sum(space, x, y)
            if field == "Q":
                assert type(value) is Fraction and (value, im) == (re, 0)
            else:
                assert type(value) is GaussianRational and (value.re, value.im) == (re, im)


# ----------------------------------------------------------- scalar grammar


GRAMMAR_TABLE = [
    ("3", Fraction(3)),
    ("-3/4", Fraction(-3, 4)),
    ("0", Fraction(0)),
    ("1/2+5/3i", GaussianRational(Fraction(1, 2), Fraction(5, 3))),
    ("2-i", GaussianRational(Fraction(2), Fraction(-1))),
    ("i", GaussianRational(Fraction(0), Fraction(1))),
    ("-i", GaussianRational(Fraction(0), Fraction(-1))),
    ("3i", GaussianRational(Fraction(0), Fraction(3))),
    ("-1/2i", GaussianRational(Fraction(0), Fraction(-1, 2))),
    ("-2/3+i", GaussianRational(Fraction(-2, 3), Fraction(1))),
]


def test_scalar_grammar_parses_and_round_trips():
    for text, value in GRAMMAR_TABLE:
        parsed = parse_scalar(text, "Qi")
        if isinstance(value, Fraction):
            assert parsed == GaussianRational(value, Fraction(0))
        else:
            assert parsed == value
        # canonical formatting round-trips through the parser
        assert parse_scalar(format_scalar(parsed), "Qi") == parsed


def test_rational_field_parses_fractions_only():
    assert parse_scalar(" 7/2 ", "Q") == Fraction(7, 2)
    assert format_scalar(Fraction(-7, 2)) == "-7/2"
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("i", "Q")
    with pytest.raises(ScalarSyntaxError):
        parse_scalar("1+i", "Q")


def test_scalar_grammar_rejects_junk():
    for bad in ["", "1+", "i2", "1//2", "1.5", "+", "1 + i", "2i+1", "i+i"]:
        with pytest.raises(ScalarSyntaxError):
            parse_scalar(bad, "Qi")


@pytest.mark.parametrize("field, text", [
    *((field, text) for field in ("Q", "Qi") for text in ("1/0", "0/0", "-3/00")),
    ("Qi", "1/0+i"), ("Qi", "1+1/0i"), ("Qi", "1/0i"), ("Qi", "2-3/0i"),
])
def test_scalar_with_a_zero_denominator_is_a_syntax_error(field, text):
    with pytest.raises(ScalarSyntaxError) as err:
        parse_scalar(text, field)
    assert str(err.value) == f"zero denominator in scalar {text!r}"


def test_unknown_field_rejected():
    with pytest.raises(InputError):
        parse_scalar("1", "R")
    with pytest.raises(InputError):
        make_space([["1"]], "C")


def test_star_is_identity_on_rationals_and_conjugation_on_gaussians():
    assert star(Fraction(3, 4)) == Fraction(3, 4)
    assert star(parse_scalar("1+2i", "Qi")) == parse_scalar("1-2i", "Qi")


# -------------------------------------------------------- space validation


def test_make_space_accepts_identity_and_strings():
    sp = make_space([["1", "0"], ["0", "2"]], "Q")
    assert sp.dim == 2 and sp.gram[1][1] == Fraction(2)


def test_make_space_rejects_nonsymmetric_rational_gram():
    with pytest.raises(NotHermitianError):
        make_space([["1", "2"], ["3", "1"]], "Q")


def test_make_space_rejects_non_star_symmetric_gaussian_gram():
    # the (1,0) entry must be the conjugate -i of the (0,1) entry i
    with pytest.raises(NotHermitianError):
        make_space([["1", "i"], ["i", "1"]], "Qi")


def test_make_space_rejects_negative_and_indefinite_forms():
    with pytest.raises(AnisotropyError):
        make_space([["-1"]], "Q")
    # leading minors 1 then -3: positive-definiteness fails at order two
    with pytest.raises(AnisotropyError) as err:
        make_space([["1", "2"], ["2", "1"]], "Q")
    assert str(err.value) == "leading principal minor 2 of the (realified) gram is -3, not positive"
    # realified rows (1,0,0,2), (0,1,-2,0), (0,-2,1,0), (2,0,0,1): minors 1, 1, -3
    with pytest.raises(AnisotropyError) as err:
        make_space([["1", "2i"], ["-2i", "1"]], "Qi")
    assert str(err.value) == "leading principal minor 3 of the (realified) gram is -3, not positive"


@st.composite
def _hermitian_grams(draw, field):
    """Star-symmetric grams of realified size up to 8, with entries whose
    denominators reach 10**6: drawn entry by entry (mostly indefinite),
    or B B* + c I for an n x m matrix B and c >= 0, which is singular when
    m < n and c = 0 and positive-definite when c > 0."""
    n = draw(st.integers(1, 8 if field == "Q" else 4))
    entry = _entries(field)
    if draw(st.booleans()):
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            gram[i][i] = draw(_rationals())
            for j in range(i + 1, n):
                gram[i][j] = draw(entry)
                gram[j][i] = star(gram[i][j])
        return gram
    m = draw(st.integers(1, n))
    b = [[draw(entry) for _ in range(m)] for _ in range(n)]
    c = draw(st.one_of(st.just(0), st.fractions(0, 9, max_denominator=10**6)))
    return [
        [sum((u * star(v) for u, v in zip(b[i], b[j])), Fraction(c if i == j else 0)) for j in range(n)]
        for i in range(n)
    ]


@pytest.mark.parametrize("field", ["Q", "Qi"])
@given(data=st.data())
def test_make_space_verdict_matches_the_fraction_minors(field, data):
    gram = data.draw(_hermitian_grams(field))
    minors = leading_minors_by_fractions(gram, field)
    if minors[-1] > 0:
        assert make_space(gram, field).dim == len(gram)
    else:
        with pytest.raises(AnisotropyError) as err:
            make_space(gram, field)
        assert str(err.value) == (
            f"leading principal minor {len(minors)} of the (realified) gram is {minors[-1]}, not positive"
        )


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_random_space_matches_the_scalar_loop(field):
    # the perfbench digests hash check counts only, so a drift in the
    # grams would pass them unseen
    def parts(gram):
        return [[(v.re, v.im) if field == "Qi" else v for v in row] for row in gram]

    for dim in range(1, 5):
        for seed in range(200):
            ours, theirs = random.Random(seed), random.Random(seed)
            space = random_space(ours, dim, field)
            assert parts(space.gram) == parts(random_gram_by_scalars(theirs, dim, field))
            assert ours.getstate() == theirs.getstate()


def test_make_space_rejects_ragged_or_empty_gram():
    with pytest.raises(DimensionMismatchError):
        make_space([], "Q")
    with pytest.raises(DimensionMismatchError):
        make_space([["1", "0"]], "Q")


def test_gaussian_scalar_rejected_in_rational_space():
    with pytest.raises(InputError):
        make_space([[GaussianRational(Fraction(1), Fraction(1))]], "Q")


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_inexact_entries_are_input_errors_that_name_them(field):
    sp = make_space([["1", "0"], ["0", "1"]], field)
    for bad in (0.1, 1j):
        with pytest.raises(InputError, match=repr(bad)):
            parse_vector([bad, 1], sp)
        with pytest.raises(InputError, match=repr(bad)):
            make_space([[bad, 0], [0, 1]], field)


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_non_numeric_entries_are_input_errors_that_name_them(field):
    sp = make_space([["1", "0"], ["0", "1"]], field)
    for bad in (None, [1], {"a": 1}):
        with pytest.raises(InputError, match=re.escape(repr(bad))):
            parse_vector([bad, 1], sp)
        with pytest.raises(InputError, match=re.escape(repr(bad))):
            make_space([[bad, 0], [0, 1]], field)
        with pytest.raises(InputError, match=re.escape(repr(bad))):
            subspace(sp, [[1, bad]])


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_boolean_entries_are_input_errors_that_name_them(field):
    # bool subclasses int, but a JSON true or false is no scalar
    sp = make_space([["1", "0"], ["0", "1"]], field)
    for bad in (True, False):
        with pytest.raises(InputError, match=repr(bad)):
            parse_vector([bad, 1], sp)
        with pytest.raises(InputError, match=repr(bad)):
            make_space([[bad, 0], [0, 1]], field)
        with pytest.raises(InputError, match=repr(bad)):
            subspace(sp, [[1, bad]])


def test_exact_entries_stay_accepted():
    one = GaussianRational(Fraction(1), Fraction(0))
    q = make_space([[1, Fraction(0)], [0, Fraction(2)]], "Q")
    assert parse_vector([2, Fraction(1, 3)], q) == (Fraction(2), Fraction(1, 3))
    qi = make_space([[one, 0], [Fraction(0), 2]], "Qi")
    assert parse_vector([one, Fraction(1, 3)], qi) == (one, GaussianRational(Fraction(1, 3), 0))
    assert qi.gram == make_space([["1", "0"], ["0", "2"]], "Qi").gram


# ------------------------------------------------------------- inner form


def demo_space():
    # anisotropic Gaussian form in dimension three; minors 1, 2, 2*2-1 = 3
    return make_space(
        [["1", "0", "0"], ["0", "2", "i"], ["0", "-i", "2"]], "Qi"
    )


def test_inner_is_star_symmetric_and_linear():
    sp = demo_space()
    x = parse_vector(["1", "i", "0"], sp)
    y = parse_vector(["2", "0", "1-i"], sp)
    z = parse_vector(["0", "1", "1"], sp)
    assert inner(sp, x, y) == star(inner(sp, y, x))
    lhs = inner(sp, tuple(a + b for a, b in zip(x, y)), z)
    assert lhs == inner(sp, x, z) + inner(sp, y, z)
    two = parse_scalar("2i", "Qi")
    assert inner(sp, tuple(two * a for a in x), z) == two * inner(sp, x, z)
    # star-linearity in the second slot
    assert inner(sp, x, tuple(two * a for a in z)) == star(two) * inner(sp, x, z)


def test_inner_positive_on_sampled_nonzero_vectors():
    sp = demo_space()
    for entries in [["1", "0", "0"], ["1", "i", "-1"], ["0", "1/2", "i"]]:
        v = parse_vector(entries, sp)
        ip = inner(sp, v, v)
        assert ip.im == 0 and ip.re > 0


# ------------------------------------------------------------- subspaces


def test_subspace_reduction_is_canonical():
    sp = demo_space()
    s1 = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    # a different spanning set of the same plane reduces to the same basis
    s2 = subspace(sp, [["1", "1", "0"], ["2", "-1", "0"], ["3", "0", "0"]])
    assert s1 == s2
    assert s1.dim == 2


def test_containment_sum_intersection():
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    t = subspace(sp, [["0", "1", "0"], ["0", "0", "1"]])
    assert contains(s, parse_vector(["3", "-2i", "0"], sp))
    assert not contains(s, parse_vector(["0", "0", "1"], sp))
    assert sum_subspaces(s, t) == full_subspace(sp)
    meet = intersect_subspaces(s, t)
    assert meet.dim == 1
    assert format_vector(meet.basis[0]) == ["0", "1", "0"]


def test_contains_checks_the_vector_length():
    sp = make_space([["1", "0"], ["0", "1"]], "Q")
    s = subspace(sp, [["1", "0"]])
    assert contains(s, (Fraction(1), Fraction(0)))
    # a longer vector must not be cut to the dimension, nor a shorter one
    # reach the elimination
    for vec in ((Fraction(1), Fraction(0), Fraction(5)), (Fraction(1),)):
        with pytest.raises(DimensionMismatchError):
            contains(s, vec)


def test_perp_of_plane_matches_hand_computation():
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    p = perp_subspace(sp, s)
    assert p.dim == 1
    # inner(x, e2) = 2*x1 - i*x2 = 0 forces x = (0, 1, -2i) up to scale
    assert format_vector(p.basis[0]) == ["0", "1", "-2i"]
    # perp is a complement in an anisotropic space
    assert sum_subspaces(s, p) == full_subspace(sp)
    assert intersect_subspaces(s, p) == zero_subspace(sp)
    # double perp returns the subspace itself
    assert perp_subspace(sp, p) == s


def test_projection_is_idempotent_and_self_adjoint():
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    x = parse_vector(["1", "1", "1"], sp)
    y = parse_vector(["i", "0", "2"], sp)
    px = project(sp, s, x)
    assert contains(s, px)
    assert project(sp, s, px) == px
    assert inner(sp, px, y) == inner(sp, x, project(sp, s, y))
    # projecting onto the zero subspace kills everything
    assert project(sp, zero_subspace(sp), x) == sp.zero_vector()


def test_project_refuses_a_subspace_of_another_space():
    # the Gram system kept on a subspace is its own space's
    sp, other = demo_space(), make_space([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "Qi")
    s = subspace(other, [["1", "0", "0"], ["0", "1", "0"]])
    x = parse_vector(["1", "1", "1"], sp)
    with pytest.raises(InputError, match=r"\Asubspace does not belong to the given space\Z"):
        project(sp, s, x)
    with pytest.raises(InputError, match=r"\Asubspace does not belong to the given space\Z"):
        project(sp, zero_subspace(other), x)


def test_a_second_projection_computes_only_the_right_side(count_calls):
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    x = parse_vector(["1", "1", "1"], sp)
    first = project(sp, s, x)
    calls = count_calls(hermitian, "inner")
    assert project(sp, s, x) == first
    assert len(calls) == s.dim
    assert all(args[1] == x for args in calls)


def test_sasaki_lines_on_one_subspace_compute_its_perp_once(count_calls):
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    kernels = count_calls(hermitian, "_kernel")
    for vec in (["1", "1", "1"], ["1", "0", "6"], ["1", "i", "i"]):
        sasaki_line(sp, s, line(sp, vec))
    assert len(kernels) == 1
    perp = perp_subspace(sp, s)
    assert perp_subspace(sp, s) is perp
    assert perp_subspace(sp, perp) == s
    assert len(kernels) == 2


# ------------------------------------------------------------ Sasaki lines


def test_sasaki_line_worked_example():
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    img1 = sasaki_line(sp, s, line(sp, ["1", "1", "1"]))
    assert format_vector(img1.rep) == ["1", "1-1/2i", "0"]
    img2 = sasaki_line(sp, s, line(sp, ["1", "0", "6"]))
    assert format_vector(img2.rep) == ["1", "-3i", "0"]
    # lines already inside the subspace are fixed
    inside = line(sp, ["1", "2i", "0"])
    assert sasaki_line(sp, s, inside).rep == inside.rep


def test_sasaki_line_rejects_orthogonal_line():
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    message = "line is orthogonal to the subspace: outside the Sasaki map domain"
    with pytest.raises(InputError) as err:
        sasaki_line(sp, s, line(sp, ["0", "1", "-2i"]))
    assert str(err.value) == message
    # every line is orthogonal to the zero subspace
    with pytest.raises(InputError) as err:
        sasaki_line(sp, zero_subspace(sp), line(sp, ["1", "1", "1"]))
    assert str(err.value) == message


@pytest.mark.parametrize("route2, message", [
    # a route 2 that loses the line, and one that finds another line of s
    (lambda a, b: zero_subspace(b.space), "route 2 produced dimension 0, expected 1"),
    (lambda a, b: line_subspace(line(b.space, ["0", "1", "0"])),
     "projection route and subspace route disagree"),
])
def test_sasaki_line_routes_that_disagree_raise_a_cross_check_error(monkeypatch, route2, message):
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    monkeypatch.setattr(hermitian, "intersect_subspaces", route2)
    with pytest.raises(CrossCheckError) as err:
        sasaki_line(sp, s, line(sp, ["1", "1", "1"]))
    assert str(err.value) == message


def test_a_second_sasaki_line_computes_only_the_right_side(count_calls):
    # the domain check reads the projection, so the line's inner products
    # with the basis of s are asked for once, by project
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    sasaki_line(sp, s, line(sp, ["1", "1", "1"]))
    ln = line(sp, ["1", "0", "6"])
    calls = count_calls(hermitian, "inner")
    assert format_vector(sasaki_line(sp, s, ln).rep) == ["1", "-3i", "0"]
    assert len(calls) == s.dim


def test_sasaki_line_adjointness_on_demo_plane():
    # images under the map to s satisfy: image(x) orth y iff x orth image(y)
    sp = demo_space()
    s = subspace(sp, [["1", "0", "0"], ["0", "1", "0"]])
    pts = [
        line(sp, ["1", "1", "1"]),
        line(sp, ["1", "0", "6"]),
        line(sp, ["1", "i", "i"]),
    ]
    imgs = [sasaki_line(sp, s, p) for p in pts]
    for a in range(len(pts)):
        for b in range(len(pts)):
            assert orthogonal_lines(imgs[a], pts[b]) == orthogonal_lines(
                pts[a], imgs[b]
            )


def test_line_rejects_zero_vector_and_normalizes():
    sp = demo_space()
    with pytest.raises(InputError):
        line(sp, ["0", "0", "0"])
    ln = line(sp, ["0", "2i", "-4"])
    assert format_vector(ln.rep) == ["0", "1", "2i"]
    assert line_subspace(ln).dim == 1


@pytest.mark.parametrize("field", ["Q", "Qi"])
def test_line_of_an_int_tuple_is_exact(field):
    sp = make_space([["1", "0"], ["0", "1"]], field)
    ln = line(sp, (2, 3))
    kind = Fraction if field == "Q" else GaussianRational
    assert all(type(v) is kind for v in ln.rep)
    assert format_vector(ln.rep) == ["1", "3/2"]
    assert orthogonal_lines(ln, line(sp, (3, -2)))


# --------------------------------------------------------------- echelon


def _rationals():
    small = st.integers(-9, 9)
    large = st.fractions(min_value=-10**6, max_value=10**6, max_denominator=10**6)
    return st.one_of(st.just(0), small, st.fractions(-9, 9, max_denominator=12), large)


def _entries(field):
    """Zeros, ints and Fractions on Q; on Qi also Gaussian rationals with
    such parts, including large denominators."""
    if field == "Q":
        return _rationals()
    return st.one_of(_rationals(), st.builds(GaussianRational, _rationals(), _rationals()))


@st.composite
def _matrices(draw, field):
    """Up to 8 rows of up to 9 entries: some columns and rows zeroed, and
    some rows combinations of earlier ones, so the rank often falls short."""
    nrows, ncols = draw(st.integers(0, 8)), draw(st.integers(1, 9))
    entry = _entries(field)
    rows = [[draw(entry) for _ in range(ncols)] for _ in range(nrows)]
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=ncols))
    for i in range(nrows):
        kind = draw(st.sampled_from(("drawn", "drawn", "zero", "combination")))
        if kind == "zero":
            rows[i] = [0] * ncols
        elif kind == "combination" and i:
            j, k = draw(st.integers(0, i - 1)), draw(st.integers(0, i - 1))
            s, t = draw(entry), draw(entry)
            rows[i] = [s * u + t * v for u, v in zip(rows[j], rows[k])]
        for c in zero_cols:
            rows[i][c] = 0
    return rows


@pytest.mark.parametrize("field", ["Q", "Qi"])
@given(data=st.data())
def test_rref_matches_the_fraction_elimination(field, data):
    rows = data.draw(_matrices(field))
    kind = Fraction if field == "Q" else GaussianRational
    # the oracle divides int by int to a float, so it gets field scalars
    lifted = [[Fraction(v) if field == "Q" else GaussianRational.of(v) for v in row] for row in rows]
    want_rows, want_pivots = rref_by_fractions(lifted)
    got_rows, got_pivots = _rref(rows, field)
    assert got_pivots == want_pivots
    assert got_rows == want_rows
    assert [format_vector(r) for r in got_rows] == [format_vector(r) for r in want_rows]
    assert all(type(v) is kind for r in got_rows for v in r)


# ---------------------------------------------------------- line orthosets


def test_sample_orthoset_of_standard_basis_is_complete_graph():
    sp = make_space([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], "Q")
    lines = [
        line(sp, ["1", "0", "0"]),
        line(sp, ["0", "1", "0"]),
        line(sp, ["0", "0", "1"]),
    ]
    x = sample_orthoset(sp, lines)
    assert x.n == 3
    assert all(x.orthogonal(i, j) for i in range(3) for j in range(3) if i != j)


def test_sample_orthoset_rejects_duplicate_lines():
    sp = make_space([["1", "0"], ["0", "1"]], "Q")
    with pytest.raises(InputError):
        sample_orthoset(sp, [line(sp, ["1", "0"]), line(sp, ["2", "0"])])


# ------------------------------------------------------------------- fuzz


def test_fuzz_smoke_both_fields():
    for field in ("Q", "Qi"):
        report = fuzz_hermitian(field, 25, seed=0)
        assert report.ok, report.failures
        assert report.instances == 25
        assert report.checks and all(v > 0 for v in report.checks.values())


def test_fuzz_is_deterministic():
    r1 = fuzz_hermitian("Q", 10, seed=7)
    r2 = fuzz_hermitian("Q", 10, seed=7)
    assert r1.checks == r2.checks and r1.failures == r2.failures
