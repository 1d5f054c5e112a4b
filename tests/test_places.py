"""Places, divisors, counts, and zeta recovery.

The degree-one counting oracle here enumerates the affine model directly:
it tabulates how often each field value arises as a (q-1)-th power, then
walks every v-value off the base ramification locus and adds the q+1
rational ramified places by hand.  The library's character-sum lane must
reproduce it exactly.
"""

import functools
import itertools
import operator
import random
from collections import Counter
from math import gcd

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from cycloff import autgroup, cli, gf, places, polyalg
from cycloff.carlitz import iter_irreducible_moduli
from cycloff.errors import (
    CertificateFailed,
    FunctionalEquationViolated,
    GenericPlaceUnsupported,
    TooLarge,
    UnknownPlace,
    WrongQ,
    WrongRamification,
    ZeroElement,
)
from cycloff.gf import create_field, embed
from cycloff.kummer import KummerCurve
from cycloff.places import (
    _closed_points,
    Divisor,
    Generic,
    RamFinite,
    RamInfinity,
    RamQuadratic,
    _log_histogram,
    _power_sums_from_coeffs,
    count_degree_one,
    divisor,
    genus_formula,
    genus_rh,
    l_polynomial,
    lspace_check,
    ramified_places,
    valuation,
    zeta,
)
from cycloff.polyalg import (
    INFINITY,
    Poly,
    RatFunc,
    format_poly,
    is_irreducible,
    poly_gcd,
    root_multiplicity,
    roots_in,
)

F3 = create_field(3)
F4 = create_field(2, 2)
F5 = create_field(5)
F7 = create_field(7)

C3 = KummerCurve(F3.zero, F3.one, F3.one)
C3G2 = KummerCurve(F3.zero, F3.one, F3.elem(2))
C4 = KummerCurve(F4.one, F4.t_class, F4.one)
C5 = KummerCurve(F5.zero, F5.elem(2), F5.one)
C7 = KummerCurve(F7.zero, F7.one, F7.one)
F8 = create_field(2, 3)
F9 = create_field(3, 2)
C8 = KummerCurve(F8.one, F8.one, F8.one)
C9 = KummerCurve(F9.zero, gf.parse_element(F9, "g+1"), F9.one)


def vpoly(curve, *coeffs):
    return Poly(curve.ctx, [curve.ctx.elem(c) for c in coeffs])


def vfun(curve, num, den=(1,)):
    return RatFunc(vpoly(curve, *num), vpoly(curve, *den))


# -- oracle ------------------------------------------------------------------


def oracle_degree_one(curve, k):
    """Brute affine enumeration plus the hand-counted rational ramified places."""
    ctx = curve.ctx
    E = create_field(ctx.p, ctx.n * k)
    gam = embed(curve.gamma, E)
    a = embed(curve.modulus.a, E)
    bg = embed(curve.modulus.b * curve.gamma.inverse(), E)
    powers = Counter()
    for y in E.iter_elements():
        powers[y ** (curve.q - 1)] += 1
    total = 0
    for c in E.iter_elements():
        den = c.frob(ctx.n) - c
        if den.is_zero():
            continue
        num = gam * c * c + a * c + bg
        total += powers[(-num) * den.inverse()]
    return total + curve.q + 1


# frozen by hand for q=3, modulus T^2+1: over GF(9) the four admissible
# values c = +-1+-i all give h(c) of full multiplicative order 8, hence no
# affine contribution, and the quadratic pair goes rational: N_2 = 4 + 2
FROZEN_N_Q3 = (4, 6, 28, 110)
FROZEN_L_Q3 = (1, 0, -2, 0, 9)


def test_oracle_matches_hand_frozen_counts():
    assert oracle_degree_one(C3, 1) == 4
    assert oracle_degree_one(C3, 2) == 6
    assert oracle_degree_one(C3, 3) == 28
    assert oracle_degree_one(C3, 4) == 110


# -- ramified catalog --------------------------------------------------------


def test_ramified_catalog_q3():
    places = ramified_places(C3)
    assert len(places) == 6
    finite = [P for P in places if isinstance(P, RamFinite)]
    quads = [P for P in places if isinstance(P, RamQuadratic)]
    assert len(finite) == 3 and len(quads) == 2
    assert sum(1 for P in places if isinstance(P, RamInfinity)) == 1
    assert all(P.degree == 1 for P in finite)
    assert all(P.degree == 2 for P in quads)
    # the two quadratic roots are conjugate and distinct
    r0, r1 = quads[0].root, quads[1].root
    assert r0 != r1 and r0.frob(1) == r1


def test_ramified_catalog_sizes():
    assert len(ramified_places(C5)) == 8
    assert len(ramified_places(C4)) == 7
    assert len(ramified_places(C7)) == 10


def test_ramified_catalog_deterministic():
    a = ramified_places(C5)
    b = ramified_places(C5)
    assert a == b
    # each call hands out a fresh list, so a caller that edits one leaves
    # the curve's cached catalog, its group report and its divisors alone
    curve = KummerCurve(F5.zero, F5.elem(2), F5.one)
    e = scal(curve, vfun(curve, (1, 1), (0, 1))) + yelem(curve)
    want, dv = ramified_places(curve), divisor(e)
    assert want == a
    mine = ramified_places(curve)
    mine.append(RamInfinity(3))
    ramified_places(curve).reverse()
    assert ramified_places(curve) == want
    assert autgroup.group_report(curve) == autgroup.group_report(C5)
    assert divisor(e) == dv


# -- valuations at ramified places -------------------------------------------


def yelem(curve):
    return curve.y()


def scal(curve, r):
    return curve.scalar(r)


@pytest.mark.parametrize("curve", [C3, C5, C3G2], ids=["q3", "q5", "q3g2"])
def test_valuations_of_y(curve):
    q = curve.q
    y = yelem(curve)
    for P in ramified_places(curve):
        if isinstance(P, RamFinite):
            assert valuation(y, P) == -1
        elif isinstance(P, RamInfinity):
            assert valuation(y, P) == q - 2
        else:
            assert valuation(y, P) == 1


@pytest.mark.parametrize("curve", [C3, C5], ids=["q3", "q5"])
def test_valuations_of_v(curve):
    q = curve.q
    v = scal(curve, vfun(curve, (0, 1)))
    assert valuation(v, RamInfinity(q)) == -(q - 1)
    assert valuation(v, RamFinite(curve.ctx.zero)) == q - 1
    one = curve.ctx.one
    assert valuation(v - scal(curve, vfun(curve, (1,))),
                     RamFinite(one)) == q - 1


@pytest.mark.parametrize("curve", [C3, C5], ids=["q3", "q5"])
def test_valuation_v_over_y_at_infinity(curve):
    q = curve.q
    v = scal(curve, vfun(curve, (0, 1)))
    e = v * yelem(curve).inverse()
    assert valuation(e, RamInfinity(q)) == -(2 * q - 3)


def test_zero_element_guards():
    z = C3.zero()
    with pytest.raises(ZeroElement):
        valuation(z, RamInfinity(3))
    with pytest.raises(ZeroElement):
        divisor(z)


def test_unknown_place_guards():
    y = yelem(C3)
    with pytest.raises(UnknownPlace):
        valuation(y, RamFinite(F5.zero))
    with pytest.raises(UnknownPlace):
        valuation(y, RamInfinity(5))
    ext = create_field(3, 2)
    with pytest.raises(UnknownPlace):
        valuation(y, RamQuadratic(ext.one))  # 1 is not a root of v^2+1
    with pytest.raises(UnknownPlace):
        valuation(y, Generic(k=2, c=ext.one, ys=ext.one, degree=2))


# -- principal divisors ------------------------------------------------------


def test_divisor_of_y_is_the_ramification_pattern():
    dv = divisor(yelem(C3))
    quad = [P for P in ramified_places(C3) if isinstance(P, RamQuadratic)]
    qrep = min(quad, key=lambda P: P.root.to_int())
    expect = {RamFinite(a): -1 for a in F3.iter_elements()}
    expect[RamInfinity(3)] = 1
    expect[qrep] = 1
    assert dv == Divisor(expect)
    assert dv.degree == 0


def test_divisor_of_v_minus_alpha():
    # v - alpha picks up the full ramification index as a zero
    v = scal(C3, vfun(C3, (0, 1)))
    dv = divisor(v)
    assert dv.coeff(RamFinite(F3.zero)) == 2
    assert dv.coeff(RamInfinity(3)) == -2
    assert dv.degree == 0 and len(dv.support) == 2


def test_divisor_with_generic_support_q3():
    # v^2+v+2 is irreducible over GF(3); its closed point is off the
    # ramification locus, so the zeros sit at unramified places of total
    # degree 2(q-1) = 4 against a pole of order q-1 at each... at infinity
    f = vfun(C3, (2, 1, 1))
    e = scal(C3, f)
    dv = divisor(e)
    assert valuation(e, RamInfinity(3)) == -4
    gens = [P for P in dv.support if isinstance(P, Generic)]
    assert gens and all(dv.coeff(P) == 1 for P in gens)
    assert sum(P.degree for P in gens) == 4
    assert all(P.k == 2 for P in gens)
    assert dv.degree == 0


def test_divisor_of_v_plus_y_hand_derived():
    # the zeros of v + y are the fiber points with ys = -c, i.e. c^2 = h(c);
    # over GF(3) that locus is the irreducible quintic num(v^2 - h), giving
    # one generic place of degree 5 balancing the ramified poles exactly
    v = scal(C3, vfun(C3, (0, 1)))
    e = v + yelem(C3)
    dv = divisor(e)
    assert valuation(e, RamInfinity(3)) == -2
    for a in F3.iter_elements():
        assert dv.coeff(RamFinite(a)) == -1
    gens = [P for P in dv.support if isinstance(P, Generic)]
    assert len(gens) == 1
    P = gens[0]
    assert P.k == 5 and P.degree == 5 and dv.coeff(P) == 1
    # the branch through the place satisfies y = -v on the nose
    assert P.ys == -embed(P.c, P.ys.ctx)
    assert dv.degree == 0


def test_generic_valuation_agrees_with_norm_aggregation():
    # v_closed(Norm e) = sum of f(P|closed) * v_P(e) over the fiber
    e = scal(C3, vfun(C3, (0, 1))) + yelem(C3)
    nm = e.norm()
    E5 = create_field(3, 5)
    root = roots_in(nm.num, E5)[0]
    dv = divisor(e)
    agg = 0
    for P in dv.support:
        if isinstance(P, Generic) and nm.num(P.c).is_zero():
            agg += (P.degree // P.k) * dv.coeff(P)
    assert agg != 0
    assert nm.valuation(root) == agg


def value_at(curve, c, w):
    """The polynomial a over GF(q) of degree < d with a(c) = w, by search;
    c generates its field GF(q^d) over GF(q), so a is unique."""
    ctx = curve.ctx
    for tail in itertools.product(range(ctx.order),
                                  repeat=c.ctx.n // ctx.n):
        a = Poly(ctx, [ctx.from_int(x) for x in tail])
        if a(c) == w:
            return a


def cancelling_element():
    """(e, c, ys) with e = a + y vanishing at the place (c, ys).

    Over GF(3) the degree-2 points all have inert fibers, so take a cubic
    point with a rational fiber and let a(c) = -ys cancel the constant term
    of the local expansion.
    """
    E = create_field(3, 3)
    target = None
    for packed in range(27):
        b0, b1, b2 = packed % 3, (packed // 3) % 3, (packed // 9) % 3
        f = vpoly(C3, b0, b1, b2, 1)
        if not is_irreducible(f):
            continue
        c = roots_in(f, E)[0]
        hc = C3.h(c)
        if hc.is_zero():
            continue
        roots = E.nth_roots(hc, 2)
        if roots:
            target = (c, roots[0])
            break
    assert target is not None
    c, ys = target
    a = RatFunc.from_poly(value_at(C3, c, -ys))
    return scal(C3, a) + yelem(C3), c, ys


def test_series_resolves_leading_cancellation():
    # the leading terms of a + y cancel at one place of the fiber, so the
    # valuation code must expand past the tie
    e, c, ys = cancelling_element()
    dv = divisor(e)
    assert dv.degree == 0
    assert valuation(e, Generic(k=3, c=c, ys=ys, degree=3)) >= 1
    assert valuation(e, Generic(k=3, c=c, ys=-ys, degree=3)) == 0


def test_series_cap_refuses_a_cancellation_it_cannot_see_past(monkeypatch):
    # with the cap at one term the cancelling place is out of reach and
    # must raise; the other place is settled by its leading terms
    e, c, ys = cancelling_element()
    monkeypatch.setattr(places, "_SERIES_PREC_CAP", 1)
    with pytest.raises(GenericPlaceUnsupported,
                       match="beyond the supported series precision"):
        valuation(e, Generic(k=3, c=c, ys=ys, degree=3))
    assert valuation(e, Generic(k=3, c=c, ys=-ys, degree=3)) == 0


def spy_series(monkeypatch):
    """The (c, ys) at which places._generic_valuation is called."""
    real, lifted = places._generic_valuation, []

    def spy(curve, coords, c, ys):
        lifted.append((c, ys))
        return real(curve, coords, c, ys)

    monkeypatch.setattr(places, "_generic_valuation", spy)
    return lifted


def test_norm_books_the_one_cancelling_place(monkeypatch):
    # a + y cancels at one of the two places over c; divisor reads that
    # place from v_c(N e), with no series, and books what valuation() finds
    e, c, ys = cancelling_element()
    lifted = spy_series(monkeypatch)
    dv = divisor(e)
    assert lifted == []
    monkeypatch.undo()
    P, Q = (Generic(k=3, c=c, ys=y, degree=3) for y in (ys, -ys))
    assert dv.coeff(P) == valuation(e, P) >= 1
    assert dv.coeff(Q) == valuation(e, Q) == 0


def power_cancelling_element(curve, k):
    """(e, fiber, cancelling): e = y^k - a with a(c) = ys^k at a quadratic
    point c whose fiber has q - 1 places of degree 2, so the leading terms
    cancel at the k places whose y-value has k-th power ys^k."""
    for c in unramified_points(curve, 2):
        # a fiber norm of 1 splits the fiber over c's own field
        if places._fiber_norm(curve, 2, c) != 1:
            continue
        fiber = places._fiber_places(curve, 2, c)
        ys = fiber[0].ys
        a = RatFunc.from_poly(value_at(curve, c, ys ** k))
        e = yelem(curve) ** k - scal(curve, a)
        try:
            divisor(e)
        except GenericPlaceUnsupported:
            continue
        return e, fiber, [P for P in fiber if P.ys ** k == ys ** k]


@pytest.mark.parametrize("curve,k,vp", [(C5, 2, 2), (C7, 3, 1)],
                         ids=["q5-two", "q7-three"])
def test_series_serve_only_two_cancelling_places(curve, k, vp, monkeypatch):
    # two or more cancelling places of one fiber are each lifted through
    # valuation(), and nothing else over the fiber is; each has valuation
    # vp there, and the other places 0
    e, fiber, cancelling = power_cancelling_element(curve, k)
    assert len(cancelling) == k
    lifted = spy_series(monkeypatch)
    dv = divisor(e)
    c = fiber[0].c
    assert sorted((y for x, y in lifted if x == c),
                  key=lambda y: y.to_int()) == sorted(
        (P.ys for P in cancelling), key=lambda y: y.to_int())
    monkeypatch.undo()
    for P in fiber:
        assert dv.coeff(P) == valuation(e, P)
        assert dv.coeff(P) == (vp if P in cancelling else 0)


@pytest.mark.parametrize("shift,caught", [(0, "degree 3"), (1, "v_c")],
                         ids=["one-cancels", "none-cancel"])
def test_a_wrong_norm_fails_at_a_tied_point(shift, caught, monkeypatch):
    # e = (a + shift) + y is tied at c, where a + y cancels at one place
    # and a + 1 + y at none (its norm has no zero at c); a norm times the
    # minimal polynomial of c must fail a certificate, not move a place:
    # the degree of the divisor, or the norm sum over the fiber
    e, c, ys = cancelling_element()
    assert ys not in (c.ctx.one, -c.ctx.one)
    e = e + scal(C3, RatFunc.constant(F3.elem(shift)))
    E = c.ctx
    orbit = functools.reduce(
        operator.mul, [Poly(E, (-c.frob(i), E.one)) for i in range(3)])
    back = gf.preimages(F3, E)
    minpoly = RatFunc.from_poly(Poly(F3, [back[x] for x in orbit.coeffs]))
    assert divisor(e).degree == 0
    real = polyalg.QuotientElem.norm
    monkeypatch.setattr(polyalg.QuotientElem, "norm",
                        lambda self: real(self) * minpoly)
    with pytest.raises(CertificateFailed, match=caught):
        divisor(e)


SERIES_FIELDS = pytest.mark.parametrize("pn", [(3, 2), (2, 11)],
                                        ids=["GF(3^2)", "GF(2^11)"])


def random_unit(E, rng, m):
    """m random coefficients, the constant one nonzero."""
    return Poly(E, [E.from_int(rng.randrange(0 if i else 1, E.order))
                    for i in range(m)])


@SERIES_FIELDS
def test_series_inverse_is_exact_to_the_precision(pn):
    # GF(2^11) is above gf.TABLE_CAP, so its products keep FieldElem loops
    E = create_field(*pn)
    rng = random.Random(f"inverse:{pn}")
    for m in (1, 2, 7, 16):
        a = random_unit(E, rng, m + 3)
        assert places._trunc(places._series_inv(a, m) * a, m) == Poly.one(E)


@SERIES_FIELDS
def test_y_branch_is_an_nth_root_to_the_precision(pn):
    E = create_field(*pn)
    rng = random.Random(f"branch:{pn}")
    for n in (k for k in (2, 3, 4, 7, 8) if k % E.p):
        for m in (1, 5, 16):
            y0 = E.from_int(rng.randrange(1, E.order))
            H = random_unit(E, rng, m)
            H = Poly(E, (y0 ** n,) + H.coeffs[1:])
            y = places._y_branch(H, y0, n, m)
            assert y.coeff(0) == y0
            assert places._trunc(y ** n, m) == places._trunc(H, m)


@SERIES_FIELDS
def test_laurent_order_is_the_valuation(pn):
    # r = (v-c)^a u / ((v-c)^b w) with units u, w at c; its expansion at
    # v = c + t has order a - b, and the unit series times the shifted
    # denominator's unit part gives back the numerator's, mod t^m
    E = create_field(*pn)
    rng = random.Random(f"laurent:{pn}")
    v, m, ran = Poly.gen(E), 6, 0
    for a, b in ((0, 0), (2, 0), (0, 3), (1, 1), (4, 2)):
        c = E.from_int(rng.randrange(E.order))
        u, w = (random_unit(E, rng, 4) for _ in range(2))
        if u(c).is_zero() or w(c).is_zero():
            continue
        ran += 1
        num, den = (v - c) ** a * u, (v - c) ** b * w
        order, unit = places._laurent(places._taylor_shift(num, E, c),
                                      places._taylor_shift(den, E, c), m)
        assert order == (root_multiplicity(num, c)
                         - root_multiplicity(den, c)) == a - b
        shift = Poly(E, (c, E.one))
        num, den = num.compose(shift), den.compose(shift)
        lo = min(i for i, x in enumerate(den.coeffs) if x)
        hi = min(i for i, x in enumerate(num.coeffs) if x)
        assert places._trunc(unit * Poly(E, den.coeffs[lo:]), m) == \
            places._trunc(Poly(E, num.coeffs[hi:]), m)
    assert ran >= 3
    # a base-field function at an extension point: v^2 + 1 over GF(3)
    # vanishes at the roots of -1 in GF(9)
    if pn == (3, 2):
        r = RatFunc(vpoly(C3, 1, 0, 1), vpoly(C3, 0, 1))
        for c in roots_in(r.num, E):
            assert places._laurent(places._taylor_shift(r.num, E, c),
                                   places._taylor_shift(r.den, E, c),
                                   m)[0] == r.valuation(c) == 1


def test_zero_and_pole_over_one_closed_point():
    # h - 1 = -(v^3+v^2+2v+1)/(v^3-v) on the q=3 curve, and that cubic is
    # irreducible, so over its closed point c the fiber is y = 1 and y = -1.
    # e = (y-1)/(y+1) has a zero at one and a pole at the other, and
    # N(e) = (1-h)/(1-h) = 1 carries no support at c, so the coordinate
    # denominators must bring c in
    y = yelem(C3)
    one = C3.one()
    e = (y - one) / (y + one)
    assert e.norm() == 1
    dv = divisor(e)
    assert len(dv.support) == 2
    P, Q = dv.support
    assert isinstance(P, Generic) and isinstance(Q, Generic)
    assert (P.k, P.degree, Q.k, Q.degree) == (3, 3, 3, 3) and P.c == Q.c
    assert is_irreducible(vpoly(C3, 1, 2, 1, 1))
    assert vpoly(C3, 1, 2, 1, 1)(P.c).is_zero()
    assert {P.ys, Q.ys} == {P.ys.ctx.one, -P.ys.ctx.one}
    assert dv.coeff(P) == (1 if P.ys == P.ys.ctx.one else -1)
    assert dv.coeff(Q) == -dv.coeff(P)


def divisor_from_every_candidate(e, monkeypatch):
    """(divisor(e) from every candidate, whether a support was split): the
    coordinate numerators and the denominator of N(e) are multiplied into
    the support polynomial too, where `_closed_points` splits one."""
    extra = functools.reduce(operator.mul,
                             [r.num for r in e.coords if r] + [e.norm().den])
    split = places._closed_points
    calls = []

    def widened(curve, f):
        calls.append(f)
        return split(curve, f * extra)

    with monkeypatch.context() as m:
        m.setattr(places, "_closed_points", widened)
        return divisor(e), bool(calls)


@pytest.mark.parametrize("curve,slots", [(C3, None), (C5, 1), (C7, 1)],
                         ids=["q3", "q5", "q7"])
def test_pruned_candidates_give_the_same_divisor(curve, slots, monkeypatch):
    # denominators with unramified factors, so the coordinate poles matter
    rng = random.Random(curve.q * 1009)
    ctx = curve.ctx
    dens = [vpoly(curve, 1), vpoly(curve, 0, 1), vpoly(curve, 1, 1),
            *least_irreducibles(ctx, 2, 2, skip=curve.ram_numerator.monic())]
    n = curve.q - 1
    # only an element whose support is split compares two candidate
    # lists; a constant support never reaches _closed_points
    compared = 0
    for _ in range(200):
        if compared == 8:
            break
        coords = [RatFunc.zero(ctx) for _ in range(n)]
        idxs = (rng.sample(range(n), slots) if slots
                else [i for i in range(n) if rng.random() < 0.6] or [0])
        for i in idxs:
            num = vpoly(curve, *[rng.randrange(ctx.order)
                                 for _ in range(rng.randint(1, 3))])
            if num:
                den = dens[rng.randrange(len(dens))] * dens[rng.randrange(3)]
                coords[i] = RatFunc(num, den)
        if not any(coords):
            continue
        e = curve.from_coords(coords)
        try:
            full, split = divisor_from_every_candidate(e, monkeypatch)
        except GenericPlaceUnsupported:
            continue  # a numerator past the caps; the pruned list skips it
        assert divisor(e) == full
        compared += split
    assert compared == 8


def test_divisor_multiplicativity_frozen():
    y = yelem(C3)
    v = scal(C3, vfun(C3, (0, 1)))
    assert divisor(y * v) == divisor(y) + divisor(v)
    assert divisor(y * y) == divisor(y) + divisor(y)


def random_small_element(curve, rng, slots=None, max_coord_deg=2):
    """Nonzero element with small split support.

    For q=5 the norm of a dense random element can acquire an irreducible
    factor whose fiber splitting field exceeds the order cap, so the q=5
    draws stay monomial (slots=1); q=3 draws use several coordinates.
    """
    n = curve.q - 1
    ctx = curve.ctx
    dens = [vpoly(curve, 1), vpoly(curve, 0, 1), vpoly(curve, 1, 1)]
    while True:
        coords = [RatFunc.zero(ctx) for _ in range(n)]
        idxs = (rng.sample(range(n), slots) if slots
                else [i for i in range(n) if rng.random() < 0.6])
        for i in idxs:
            num = vpoly(curve, *[rng.randrange(ctx.order)
                                 for _ in range(rng.randint(1, max_coord_deg + 1))])
            if not num.is_zero():
                coords[i] = RatFunc(num, dens[rng.randrange(3)])
        e = curve.from_coords(coords)
        if any(not r.is_zero() for r in e.coords):
            return e


@pytest.mark.parametrize("curve,seed,slots", [(C3, 31, None), (C5, 51, 1)],
                         ids=["q3", "q5"])
def test_random_principal_divisors_have_degree_zero(curve, seed, slots):
    rng = random.Random(seed)
    want = 50
    done = 0
    skipped = 0
    attempts = 0
    while done < want and attempts < want * 2:
        attempts += 1
        e = random_small_element(curve, rng, slots=slots)
        try:
            dv = divisor(e)
        except GenericPlaceUnsupported:
            # splitting-field cap; the drawing family keeps this rare
            skipped += 1
            continue
        assert dv.degree == 0
        done += 1
    assert done == want
    assert skipped <= attempts // 5


@pytest.mark.parametrize("curve,seed,slots", [(C3, 131, None), (C5, 151, 1)],
                         ids=["q3", "q5"])
def test_random_divisors_are_additive(curve, seed, slots):
    rng = random.Random(seed)
    done = 0
    while done < 6:
        f = random_small_element(curve, rng, slots=slots, max_coord_deg=1)
        g = random_small_element(curve, rng, slots=slots, max_coord_deg=1)
        try:
            assert divisor(f * g) == divisor(f) + divisor(g)
        except GenericPlaceUnsupported:
            continue
        done += 1


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 1), st.integers(0, 3 ** 3 - 1), st.integers(0, 2))
def test_monomial_divisors_have_degree_zero(i, packed, shift):
    # r * y^i for rational r: the divisor is forced entirely by valuations
    coeffs = [packed % 3, (packed // 3) % 3, (packed // 9) % 3]
    num = vpoly(C3, *coeffs)
    if num.is_zero():
        num = vpoly(C3, 1)
    den = [vpoly(C3, 1), vpoly(C3, 0, 1), vpoly(C3, 1, 0, 1)][shift]
    r = RatFunc(num, den)
    coords = [RatFunc.zero(F3), RatFunc.zero(F3)]
    coords[i] = r
    e = C3.from_coords(coords)
    assert divisor(e).degree == 0


def test_unsupported_split_raises():
    # the lex-least irreducible of degree 13 over GF(3): GF(3^13) is past
    # the field-order cap, so its roots cannot be found
    (f,) = least_irreducibles(F3, 13, 1)
    e = scal(C3, RatFunc(f, vpoly(C3, 1)))
    with pytest.raises(GenericPlaceUnsupported, match="field cap"):
        divisor(e)


def test_degree_nine_support_splits_under_the_order_cap():
    # GF(3^9) is under the field-order cap, and h is a square at the roots
    # of f = v^9+2v^3+v^2+1, so the fiber splits into two places of degree 9
    (f,) = least_irreducibles(F3, 9, 1)
    dv = divisor(scal(C3, RatFunc(f, vpoly(C3, 1))))
    gens = [P for P in dv.support if isinstance(P, Generic)]
    assert [(P.k, P.degree, dv.coeff(P)) for P in gens] == [(9, 9, 1)] * 2
    assert len(dv.support) == 3
    assert dv.coeff(RamInfinity(3)) == -18 and dv.degree == 0


def scan_closed_points(curve, f, maxdeg):
    """(degree, lex-least rep) of the unramified closed points under the
    roots of a squarefree f, by trying every element of GF(q^d) per degree."""
    ctx = curve.ctx
    quad = set(curve.quad_roots)
    out = []
    for d in range(1, maxdeg + 1):
        Ed = create_field(ctx.p, ctx.n * d)
        roots = [e for e in Ed.iter_elements() if f(e).is_zero()]
        claimed = set()
        for r in sorted(roots, key=lambda e: e.to_int()):
            if r in claimed:
                continue
            orbit = [r]
            while orbit[-1].frob(ctx.n) != r:
                orbit.append(orbit[-1].frob(ctx.n))
            claimed.update(orbit)
            if len(orbit) == d > 1 and not (d == 2 and r in quad):
                out.append((d, r))
    return out


def least_irreducibles(ctx, d, count, skip=None):
    out = []
    for tail in itertools.product(range(ctx.order), repeat=d):
        f = Poly(ctx, [ctx.from_int(c) for c in reversed(tail)] + [ctx.one])
        if f != skip and is_irreducible(f):
            out.append(f)
            if len(out) == count:
                return out


@pytest.mark.parametrize("curve", [C3, C4, C5, C8, C9],
                         ids=["q3", "q4", "q5", "q8", "q9"])
def test_closed_points_match_the_per_degree_scan(curve, monkeypatch):
    # two irreducibles of each degree 1..4, one squared, and the
    # ramified quadratic point, which must be left out; then the whole
    # ramified locus with multiplicity, (v^q - v)^2 M^3 f, which must be
    # divided out before any part reaches the splitting
    ram = curve.ram_numerator.monic()
    factors = [f for d in range(1, 5)
               for f in least_irreducibles(curve.ctx, d, 2, skip=ram)]
    f = functools.reduce(operator.mul, factors) * ram
    want = scan_closed_points(curve, f, 4)
    assert [d for d, _ in want] == [2, 2, 3, 3, 4, 4]
    ramified = curve.h.num * curve.h.den
    split = places._orbits
    parts = []

    def spy(part, F, E):
        parts.append(polyalg._from_exps(F, part))
        return split(part, F, E)

    monkeypatch.setattr(places, "_orbits", spy)
    assert _closed_points(curve, f * factors[3]) == want
    # the scan leaves out rational and quadratic roots by their orbits
    locus = curve.h.den ** 2 * ram ** 3 * f
    assert _closed_points(curve, locus) == want
    assert len(parts) == 6
    assert all(poly_gcd(part, ramified).is_constant() for part in parts)
    # an inseparable input, g^p times a squared irreducible, has the closed
    # points of g times that irreducible, with no radical taken
    g, sq = factors[2] * factors[4], factors[6]
    points = [(d, r) for d, r in want if (g * sq)(r).is_zero()]
    assert [d for d, _ in points] == [2, 3, 4]
    assert _closed_points(curve, g ** curve.ctx.p * sq ** 2) == points


def orbit_leaders(f, E):
    """Least root by to_int of each orbit of ``polyalg._orbits``, sorted."""
    return sorted((min(orbit, key=lambda e: e.to_int())
                   for orbit in places._orbits(polyalg._to_exps(f, f.ctx),
                                               f.ctx, E)),
                  key=lambda e: e.to_int())


def leaders_by_roots_in(f, E, n):
    """Least root by to_int of each Frobenius orbit, from all of f's roots."""
    roots = sorted(set(roots_in(f, E)), key=lambda e: e.to_int())
    claimed, out = set(), []
    for r in roots:
        if r not in claimed:
            orbit = {r}
            while r.frob(n) not in orbit:
                r = r.frob(n)
                orbit.add(r)
            claimed |= orbit
            out.append(min(orbit, key=lambda e: e.to_int()))
    return out


@pytest.mark.parametrize("degrees", [(7,), (8,), (9,), (7, 7)],
                         ids=["d7", "d8", "d9", "d7-twice"])
def test_orbit_leaders_match_roots_in(degrees):
    # the least irreducibles of degree 7, 8 and 9 over GF(3), and the
    # product of the first two of degree 7: GF(3^7) has no tables, so the
    # orbit products are divided out on the packed-kernel path
    d = degrees[0]
    fs = least_irreducibles(F3, d, len(degrees))
    f = functools.reduce(operator.mul, fs)
    E = create_field(3, d)
    want = leaders_by_roots_in(f, E, 1)
    assert len(want) == len(degrees)
    assert orbit_leaders(f, E) == want
    assert _closed_points(C3, f) == [(d, r) for r in want]


def powering_one_root(g):
    """One root of g over E by deterministic equal-degree splitting with
    powers mod g over E: the shift a runs through E, and the test
    polynomial is (X+a)^((Q-1)/2) - 1 for odd p, or the trace
    sum_{i<n} (aX)^(2^i) for p = 2; the smaller factor is kept."""
    E = g.ctx
    for a in E.iter_elements():
        if g.degree == 1:
            break
        if E.p == 2:
            t = Poly(E, (E.zero, a)) % g
            test = t
            for _ in range(E.n - 1):
                t = (t * t) % g
                test = test + t
        else:
            test = gf.power(Poly(E, (a, E.one)) % g, (E.order - 1) // 2,
                            lambda x, y: x * y % g, Poly.one(E)) - 1
        part = poly_gcd(g, test)
        if 0 < part.degree < g.degree:
            rest = g // part
            g = part if part.degree <= rest.degree else rest
    assert g.degree == 1
    return -g.coeffs[0]


def leaders_by_powering(f, E, n):
    """Least root by to_int of each Frobenius orbit, one powering-split
    root per orbit, with the orbit products divided out over E."""
    g, x, out = f.embed_into(E), Poly.gen(E), []
    while not g.is_constant():
        r = powering_one_root(g)
        orbit = [r]
        while orbit[-1].frob(n) != r:
            orbit.append(orbit[-1].frob(n))
        g, rem = divmod(g, functools.reduce(operator.mul,
                                            [x - s for s in orbit]))
        assert not rem
        out.append(min(orbit, key=lambda e: e.to_int()))
    return sorted(out, key=lambda e: e.to_int())


@pytest.mark.parametrize("pn,d,count", [
    ((3, 1), 7, 2), ((3, 1), 8, 1), ((3, 1), 9, 2), ((5, 1), 8, 1),
    ((3, 2), 4, 2), ((2, 3), 6, 2)],
    ids=["GF(3)-d7x2", "GF(3)-d8", "GF(3)-d9x2", "GF(5)-d8", "GF(9)-d4x2",
         "GF(8)-d6x2"])
def test_orbit_leaders_match_the_powering_oracle(pn, d, count):
    # the trace splitter and the powering splitter it replaced name the
    # same closed points, on table fields and packed ones alike
    K = create_field(*pn)
    f = functools.reduce(operator.mul, least_irreducibles(K, d, count))
    E = create_field(K.p, K.n * d)
    want = leaders_by_powering(f, E, K.n)
    assert len(want) == count
    assert orbit_leaders(f, E) == want


TABLE_CURVES = [C3, C4, C5, C8, C9]


def irreducible_from(ctx, d, k):
    """The first monic irreducible of degree d over ctx at or after the
    tail numbered k in base |ctx|, constant digit first, wrapping."""
    q = ctx.order
    for j in itertools.count(k):
        j %= q ** d
        f = Poly(ctx, [ctx.from_int(j // q ** i % q) for i in range(d)]
                 + [ctx.one])
        if is_irreducible(f):
            return f


@pytest.mark.parametrize("curve", TABLE_CURVES,
                         ids=["q3", "q4", "q5", "q8", "q9"])
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_closed_points_on_table_fields_match_both_oracles(curve, data):
    # every splitting field here has log tables, so the trace splitter runs
    # on exponent lists and the coefficients reach it through s = log
    # embed(g_F), an embedding of a field past GF(p) for q = 4, 8, 9; a
    # squarefree product of random irreducibles must give the points of the
    # scan of GF(q^d), and per degree the leaders of the powering splitter
    ctx = curve.ctx
    top = max(d for d in range(1, 11) if ctx.order ** d <= gf.TABLE_CAP)
    ram = curve.ram_numerator.monic()
    factors = {}
    for d in data.draw(st.lists(st.integers(2, top), min_size=1, max_size=3)):
        f = irreducible_from(ctx, d, data.draw(st.integers(0, ctx.order ** d)))
        if f != ram:
            factors.setdefault(d, set()).add(f)
    assume(factors)
    f = functools.reduce(operator.mul, [g for fs in factors.values()
                                        for g in fs])
    got = _closed_points(curve, f)
    assert got == scan_closed_points(curve, f, max(factors))
    for d, fs in factors.items():
        E = create_field(ctx.p, ctx.n * d)
        want = leaders_by_powering(functools.reduce(operator.mul, fs), E,
                                   ctx.n)
        assert [r for e, r in got if e == d] == want


@pytest.mark.parametrize("curve", [C3, C4, C5], ids=["q3", "q4", "q5"])
@settings(max_examples=10, deadline=None)
@given(data=st.data())
def test_cleared_support_matches_the_norm(curve, data):
    # divisor splits N D, from the norm of the cleared element sum b_i z^i
    # with z = hd y, and reads v_c(N e) = v_c(N) - n v_c(D); the points and
    # valuations must be those of e.norm() and the coordinate denominators
    ctx, n = curve.ctx, curve.q - 1
    coeff = st.integers(0, ctx.order - 1).map(ctx.from_int)
    poly = st.tuples(st.lists(coeff, max_size=2),
                     st.integers(1, ctx.order - 1).map(ctx.from_int)).map(
        lambda t: Poly(ctx, t[0] + [t[1]]))
    dens = [Poly.one(ctx), Poly.gen(ctx), vpoly(curve, 1, 1),
            vpoly(curve, 2, 0, 1), vpoly(curve, 1, 1, 1)]
    filled = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=2,
                                      max_size=min(n, 3))))
    coords = [RatFunc.zero(ctx)] * n
    for i in filled:
        coords[i] = RatFunc(data.draw(poly),
                            data.draw(st.sampled_from(dens)))
    e = curve.from_coords(coords)
    norm = e.norm()
    N, D = places._cleared_norm(curve, e.coords, filled)
    support = functools.reduce(operator.mul,
                               [e.coords[i].den for i in filled], norm.num)
    try:
        want = _closed_points(curve, support)
    except GenericPlaceUnsupported:
        assume(False)
    assert _closed_points(curve, N * D) == want
    for _, c in want:
        assert (root_multiplicity(N, c) - n * root_multiplicity(D, c)
                == norm.valuation(c))


def test_orbit_leaders_power_only_over_the_small_field(monkeypatch):
    # the roots in GF(3^9) come from Frobenius images over GF(3): no
    # polynomial over the big field is powered, by square-and-multiply or
    # by a Frobenius step, on polynomials or on exponent lists
    E = create_field(3, 9)
    (f,) = least_irreducibles(F3, 9, 1)
    powered = []
    real_power, real_frob = gf.power, Poly.frob_power
    real_exp_frob = polyalg._exp_frob

    def power_spy(x, e, mul, one):
        if isinstance(x, Poly):
            powered.append(x.ctx)
        return real_power(x, e, mul, one)

    def frob_spy(self, j):
        powered.append(self.ctx)
        return real_frob(self, j)

    def exp_frob_spy(a, step, ctx):
        powered.append(ctx)
        return real_exp_frob(a, step, ctx)

    monkeypatch.setattr(gf, "power", power_spy)
    monkeypatch.setattr(Poly, "frob_power", frob_spy)
    monkeypatch.setattr(polyalg, "_exp_frob", exp_frob_spy)
    orbits = polyalg._orbits(polyalg._to_exps(f, F3), F3, E)
    assert [len(orbit) for orbit in orbits] == [9]
    assert F3 in powered and E not in powered


def test_a_wrong_root_fails_the_orbit_certificate(monkeypatch):
    # a patched non-root with a full orbit leaves a remainder
    (f,) = least_irreducibles(F3, 7, 1)
    real = polyalg.one_root
    monkeypatch.setattr(polyalg, "one_root", lambda g, E: real(g, E) + 1)
    with pytest.raises(CertificateFailed, match="does not divide"):
        polyalg._orbits(polyalg._to_exps(f, F3), F3, create_field(3, 7))


def test_a_short_orbit_fails_the_orbit_certificate(monkeypatch):
    # a rational root hidden in a degree-7 part has an orbit of length 1;
    # the distinct-degree pass never hands such a part over, so a patched
    # one does
    (f,) = least_irreducibles(F3, 7, 1)
    part = polyalg._to_exps(f * vpoly(C3, 2, 1), F3)
    monkeypatch.setattr(places, "_distinct_degree",
                        lambda g, top, ctx: iter([(7, part), (0, [0])]))
    with pytest.raises(CertificateFailed, match="length 1"):
        _closed_points(C3, f)


@pytest.mark.parametrize("curve,deg", [(C3, 13), (C7, 8)],
                         ids=["degree-cap", "field-cap"])
def test_closed_points_beyond_the_cap_raise(curve, deg):
    # the support degree d is bounded by q^d <= ORDER_CAP alone: GF(3^13)
    # and GF(7^8) are both past it; the split quadratic factor alongside
    # must not hide the leftover
    (big,) = least_irreducibles(curve.ctx, deg, 1)
    (quad,) = least_irreducibles(curve.ctx, 2, 1)
    with pytest.raises(GenericPlaceUnsupported):
        _closed_points(curve, big * quad)


# -- fibers ------------------------------------------------------------------


def trial_fiber_places(curve, d, c):
    """The fiber over c by search: the least j, 1 or a divisor of q-1, whose
    GF(q^(dj)) holds a root of Y^(q-1) = h(c), then the Frobenius orbits
    of the pairs (c, y) walked one step at a time.  (j, places), or
    (None, None) once a tried field is past the cap."""
    p, n, q = curve.ctx.p, curve.ctx.n, curve.q
    for j in (j for j in range(1, q) if (q - 1) % j == 0):
        if p ** (n * d * j) > gf.ORDER_CAP:
            return None, None
        E = create_field(p, n * d * j)
        cE = embed(c, E)
        roots = E.nth_roots(curve.h(cE), q - 1)
        if roots:
            break
    out, claimed = [], set()
    for r in roots:
        if (cE, r) not in claimed:
            orbit = [(cE, r)]
            while (orbit[-1][0].frob(n), orbit[-1][1].frob(n)) != (cE, r):
                orbit.append((orbit[-1][0].frob(n), orbit[-1][1].frob(n)))
            over_c = [y for x, y in orbit if x == cE]
            claimed.update((cE, y) for y in over_c)
            ys = min(over_c, key=lambda x: x.to_int())
            out.append(Generic(k=d, c=c, ys=ys, degree=len(orbit)))
    return j, sorted(out, key=places._place_key)


def unramified_points(curve, d):
    """The least conjugate by to_int of each unramified degree-d point."""
    n = curve.ctx.n
    E = create_field(curve.ctx.p, n * d)
    for c in E.iter_elements():
        orbit = [c.frob(n * i) for i in range(d)]
        if (len(set(orbit)) == d and c not in curve.quad_roots
                and c == min(orbit, key=lambda x: x.to_int())):
            yield c


@pytest.mark.parametrize("curve,d", [(C3, 2), (C3, 3), (C5, 2), (C7, 2)],
                         ids=["q3-d2", "q3-d3", "q5-d2", "q7-d2"])
def test_fiber_field_is_the_one_the_search_finds(curve, d):
    # every rational point is ramified, so these are all the unramified
    # closed points of degree <= 2 at q = 3, 5, 7 and of degree 3 at q = 3:
    # the order of N = h(c)^((q^d-1)/(q-1)) is the searched j, and the
    # classes y<N> are the searched Frobenius orbits; past the cap both
    # refuse, with the same text as before
    q, checked = curve.q, 0
    for c in unramified_points(curve, d):
        j = places._fiber_norm(curve, d, c).order()
        want_j, want = trial_fiber_places(curve, d, c)
        if want_j is None:
            assert curve.ctx.p ** (curve.ctx.n * d * j) > gf.ORDER_CAP
            text = rf"fiber splitting field GF\({q}\^{d * j}\) exceeds the cap"
            with pytest.raises(GenericPlaceUnsupported, match=text):
                places._fiber_places(curve, d, c)
        else:
            assert j == want_j
            assert places._fiber_places(curve, d, c) == want
        checked += 1
    assert checked == {2: (q * q - q) // 2 - 1, 3: 8}[d]


def test_a_fiber_without_roots_fails_its_certificate(monkeypatch):
    c = next(unramified_points(C3, 2))
    monkeypatch.setattr(gf.FieldCtx, "nth_roots", lambda self, w, k: [])
    with pytest.raises(CertificateFailed, match="must split"):
        places._fiber_places(C3, 2, c)


def test_ramified_valuations_read_the_certified_profile(monkeypatch):
    # v_P(h) is -1, q-2 and +1 over rational points, infinity and the
    # quadratic roots; divisor and valuation take those values from the
    # curve's certificate and never recompute a valuation of h
    real = RatFunc.valuation
    for curve in (C3, C5):
        q = curve.q
        points = [P.alpha for P in ramified_places(curve)[:q]] + [
            INFINITY] + list(curve.quad_roots)
        assert [real(curve.h, at) for at in points] == [-1] * q + [q - 2, 1, 1]
    calls = Counter()

    def counted(self, at):
        if self is C3.h or self is C5.h:
            calls[at] += 1
        return real(self, at)

    monkeypatch.setattr(RatFunc, "valuation", counted)
    for curve in (C3, C5):
        e = scal(curve, vfun(curve, (1, 1), (0, 1))) + yelem(curve)
        divisor(e)
        for P in ramified_places(curve):
            valuation(e, P)
    assert calls == Counter()


@pytest.mark.parametrize("low", [("2", "g", "1"), ("2*g+2", "2", "0")],
                         ids=["v^3+v^2+g*v+2", "v^3+2*v+2*g+2"])
def test_fibers_reach_their_field_through_the_point_field(low):
    # over GF(9) the fiber above a root c in GF(9^3) of these cubics splits
    # in GF(9^6) = GF(3^12), and gf.embed maps GF(9) into GF(3^12) other
    # than through GF(3^6); h(c) and the coordinates must take the path c
    # takes, or the fiber lies over a conjugate point (a divisor of degree
    # -24 for the first cubic, a failed fiber certificate for the second)
    f = Poly(F9, [gf.parse_element(F9, t) for t in low] + [F9.one])
    assert is_irreducible(f)
    e = scal(C9, RatFunc(f, vpoly(C9, 1)))
    dv = divisor(e)
    gens = [P for P in dv.support if isinstance(P, Generic)]
    assert {P.ys.ctx.order for P in gens} == {3 ** 12}
    assert sum(P.degree for P in gens) == 3 * 8
    assert dv.coeff(RamInfinity(9)) == -24 and dv.degree == 0
    for P in gens:
        assert f(P.c).is_zero() and dv.coeff(P) == 1 == valuation(e, P)
        assert P.ys ** 8 == embed(C9.h(P.c), P.ys.ctx)


def test_a_wrong_valuation_fails_the_degree_certificate(monkeypatch):
    # v + y has a rational zero of a coordinate at v = 0; an order one too
    # high from the peel at one ramified place of each kind moves the
    # coefficient booked there by q - 1, which the degree certificate sees
    e = scal(C3, vfun(C3, (0, 1))) + yelem(C3)
    assert divisor(e).degree == 0
    booked = places._catalog(C3)[1]
    real = places._ramified_orders
    for kind in (RamFinite, RamInfinity, RamQuadratic):
        j = next(j for j, P in enumerate(booked) if isinstance(P, kind))

        def off_by_one(r, points, quad, j=j):
            orders, num, den = real(r, points, quad)
            orders[j] = orders.get(j, 0) + 1
            return orders, num, den

        monkeypatch.setattr(places, "_ramified_orders", off_by_one)
        with pytest.raises(CertificateFailed, match="degree"):
            divisor(e)


def booked_minima(curve, e):
    """min_i [(q-1) v(r_i) + i v_P(h)] at each booked ramified place, in
    the catalog's order, with no peel: v(r_i) is RatFunc.valuation at the
    rational points, a degree difference at infinity and the multiplicity
    of M's monic factor at M's point."""
    q, n = curve.q, curve.q - 1
    M = curve.ram_numerator.monic()

    def at_m(f):
        k = 0
        while (f % M).is_zero():
            f, k = f // M, k + 1
        return k

    rows = []
    for i, r in enumerate(e.coords):
        if r:
            orders = [r.valuation(a) for a in curve.ctx.iter_elements()] + [
                r.den.degree - r.num.degree, at_m(r.num) - at_m(r.den)]
            rows.append([n * x + i * vh
                         for x, vh in zip(orders, [-1] * q + [q - 2, 1])])
    return [min(column) for column in zip(*rows)]


@pytest.mark.parametrize("curve", [C3, C4, C5, C7, C8, C9],
                         ids=["q3", "q4", "q5", "q7", "q8", "q9"])
@settings(max_examples=12, deadline=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(data=st.data())
def test_booked_ramified_places_are_the_minimum_over_terms(curve, data):
    # divisor books a ramified place from the divisor of y and the sparse
    # orders of the coordinates; every booked place must carry the dense
    # minimum over all terms.  Coordinates are units times factors v - a
    # and M over such factors, beside draw_filled's low-degree numerators.
    # In the "cancel" draws slot 0 is a unit at a rational a and every
    # other filled slot vanishes there, so the minimum at a is 0 while
    # i v_P(y) = -i is not
    ctx, n = curve.ctx, curve.q - 1
    rational = list(ctx.iter_elements())
    menu = [Poly(ctx, (-a, ctx.one)) for a in rational] + [
        curve.ram_numerator.monic()]
    cancel = data.draw(st.booleans())
    at = data.draw(st.integers(0, len(rational) - 1))
    if cancel:
        others = data.draw(st.sets(st.integers(1, n - 1), min_size=1,
                                   max_size=min(2, n - 1)))
        filled = [0, *sorted(others)]
    else:
        filled = sorted(data.draw(st.sets(st.integers(0, n - 1), min_size=1,
                                          max_size=min(3, n))))

    def product(skip):
        picks = data.draw(st.lists(st.sampled_from(
            [f for j, f in enumerate(menu) if j != skip]), max_size=2))
        return functools.reduce(operator.mul, picks, Poly.one(ctx))

    coords = [RatFunc.zero(ctx)] * n
    for i in filled:
        unit = ctx.from_int(data.draw(st.integers(1, ctx.order - 1)))
        num = product(at if cancel and i == 0 else None) * unit
        if cancel and i:
            num = num * menu[at] ** data.draw(st.integers(1, 2))
        elif not cancel and data.draw(st.booleans()):
            num = num * vpoly(curve, data.draw(
                st.integers(0, ctx.order - 1)), 1)
        coords[i] = RatFunc(num, product(at if cancel else None))
    e = curve.from_coords(coords)
    try:
        dv = divisor(e)
    except GenericPlaceUnsupported:
        assume(False)
    want = booked_minima(curve, e)
    if cancel:
        assert want[at] == 0
    booked = ramified_places(curve)[:curve.q + 2]
    assert [dv.coeff(P) for P in booked] == want


def draw_filled(curve, rng):
    """A nonzero element with 1 to 3 filled coordinates n/d, d in
    {1, v, v+1} and, for q <= 5, an unramified irreducible quadratic, so
    that coordinate poles can make a minimum one term of several; one
    coordinate gets deg n <= 3, several get deg n <= 1."""
    ctx, n = curve.ctx, curve.q - 1
    dens = [vpoly(curve, 1), vpoly(curve, 0, 1), vpoly(curve, 1, 1)]
    if curve.q <= 5:
        dens += least_irreducibles(ctx, 2, 1,
                                   skip=curve.ram_numerator.monic())
    filled = rng.randint(1, min(3, n))
    coords = [RatFunc.zero(ctx) for _ in range(n)]
    for i in rng.sample(range(n), filled):
        low = [rng.randrange(ctx.order) for _ in range(1 if filled > 1 else 3)]
        coords[i] = RatFunc(vpoly(curve, *low, 1), rng.choice(dens))
    return curve.from_coords(coords)


# beside (v - a)^m in slot 0, the second coordinate (v - a)^k sits in slot
# j; by q, (j, k at m = 2, k at m = 3).  Each keeps the norm's factors
# under the field cap, which most two-term norms at q >= 7 exceed
BESIDE = {3: (1, 1, 1), 4: (1, 1, 1), 5: (1, 1, 1), 7: (1, 3, 1),
          8: (1, 3, 4), 9: (4, 1, 4)}


def hand_built(curve):
    """Elements the random family seldom reaches: M^k and 1/M^k for
    k = 1..3, M = curve.ram_numerator, and (v - a)^m at a rational a for
    m = 2, 3, alone and beside a second coordinate (`BESIDE`)."""
    ctx, n = curve.ctx, curve.q - 1
    one, M = Poly.one(ctx), curve.ram_numerator

    def element(*terms):
        coords = [RatFunc.zero(ctx) for _ in range(n)]
        for i, num, den in terms:
            coords[i] = RatFunc(num, den)
        return curve.from_coords(coords)

    out = []
    for k in (1, 2, 3):
        out += [element((k % n, M ** k, one)),
                element(((k + 1) % n, one, M ** k))]
    j, *ks = BESIDE[curve.q]
    for m, k, a in zip((2, 3), ks, list(ctx.iter_elements())[1:]):
        lin = Poly(ctx, (-a, ctx.one))
        out += [element((m % n, lin ** m, one)),
                element((0, lin ** m, one), (j, lin ** k, one))]
    return out


def test_divisor_shortcuts_agree_with_valuation(monkeypatch):
    # divisor reads every ramified order from one peel per coordinate and
    # one-term minima at unramified points without series; valuation()
    # keeps the full path (RatFunc.valuation at every ramified place,
    # series at every fiber place).  Every place either books must agree,
    # including the places divisor leaves out, which must have valuation 0;
    # the hand-built elements are all accepted
    real_fiber, real_series = places._fiber_places, places._generic_valuation
    fibers, series = [], []

    def spy_fiber(curve, d, c):
        fibers.append(real_fiber(curve, d, c))
        return fibers[-1]

    def spy_series(*args):
        series.append(args)
        return real_series(*args)

    accepted = Counter()
    unique = Counter()  # one-term minima, by whether e has several terms
    for curve in (C3, C4, C5, C7, C8, C9):
        rng = random.Random(f"shortcuts:{curve.q}")
        twin, rep = (RamQuadratic(r) for r in reversed(curve.quad_roots))
        built = hand_built(curve)
        for e in [draw_filled(curve, rng) for _ in range(12)] + built:
            fibers.clear()
            before = len(series)
            with monkeypatch.context() as m:
                m.setattr(places, "_fiber_places", spy_fiber)
                m.setattr(places, "_generic_valuation", spy_series)
                try:
                    dv = divisor(e)
                except GenericPlaceUnsupported:
                    assert not any(e is b for b in built), curve.q
                    continue
            accepted[curve.q] += 1
            over = [P for fiber in fibers for P in fiber]
            lifted = len(series) - before
            unique[len([r for r in e.coords if r]) > 1] += len(over) - lifted
            every = ramified_places(curve) + over
            assert set(dv.support) <= set(every)
            for P in every:
                booked = dv.coeff(rep if P == twin else P)
                assert booked == valuation(e, P), (curve.q, str(P))
    assert min(accepted[q] for q in (3, 4, 5, 7, 8, 9)) >= 2
    # both branches at unramified places ran: tied minima lift series,
    # one-term minima do not, also among several terms
    assert series and min(unique[False], unique[True]) >= 1


# -- divisor arithmetic ------------------------------------------------------


def test_divisor_algebra():
    quad = [P for P in ramified_places(C3) if isinstance(P, RamQuadratic)]
    P0 = RamFinite(F3.zero)
    D = Divisor({P0: 2, quad[0]: 1})
    assert D.degree == 2 * 1 + 1 * 2
    E = Divisor({P0: -2})
    assert (D + E).coeff(P0) == 0
    assert (D + E).support == (quad[0],)
    assert (-D).degree == -D.degree
    assert Divisor({}) == Divisor(None)
    assert not Divisor({})
    assert (D - D) == Divisor({})


def test_divisor_support_ordering():
    places = ramified_places(C3)
    D = Divisor({P: 1 for P in reversed(places)})
    ks = [type(P).__name__ for P in D.support]
    assert ks == ["RamFinite"] * 3 + ["RamInfinity"] + ["RamQuadratic"] * 2


# -- Riemann-Roch membership reports -----------------------------------------


@pytest.mark.parametrize("curve", [C3, C5], ids=["q3", "q5"])
def test_lspace_one_and_v(curve):
    q = curve.q
    one = scal(curve, vfun(curve, (1,)))
    v = scal(curve, vfun(curve, (0, 1)))
    D = Divisor({RamInfinity(q): q - 1})
    rep = lspace_check([one, v], D)
    assert rep.members == (True, True)
    assert rep.independent
    assert rep.ok


@pytest.mark.parametrize("curve", [C3, C5], ids=["q3", "q5"])
def test_lspace_inverse_y_needs_the_quadratic_places(curve):
    q = curve.q
    inv_y = yelem(curve).inverse()
    quads = [P for P in ramified_places(curve) if isinstance(P, RamQuadratic)]
    with_q = Divisor({RamInfinity(q): q - 2, quads[0]: 1, quads[1]: 1})
    without_q = Divisor({RamInfinity(q): 2 * q - 3})
    assert lspace_check([inv_y], with_q).members == (True,)
    assert lspace_check([inv_y], without_q).members == (False,)


@pytest.mark.parametrize("curve", [C3, C5], ids=["q3", "q5"])
def test_lspace_v_over_y_attains_the_infinity_bound(curve):
    q = curve.q
    v = scal(curve, vfun(curve, (0, 1)))
    e = v * yelem(curve).inverse()
    quads = [P for P in ramified_places(curve) if isinstance(P, RamQuadratic)]
    D = Divisor({RamInfinity(q): 2 * q - 3, quads[0]: 1, quads[1]: 1})
    rep = lspace_check([e], D)
    assert rep.members == (True,)
    assert rep.divisors[0].coeff(RamInfinity(q)) == -(2 * q - 3)


@pytest.mark.parametrize("curve", [C3, C5], ids=["q3", "q5"])
def test_lspace_family_of_four_is_independent(curve):
    one = scal(curve, vfun(curve, (1,)))
    v = scal(curve, vfun(curve, (0, 1)))
    inv_y = yelem(curve).inverse()
    q = curve.q
    quads = [P for P in ramified_places(curve) if isinstance(P, RamQuadratic)]
    D = Divisor({RamInfinity(q): 2 * q - 3, quads[0]: 1, quads[1]: 1})
    rep = lspace_check([one, v, inv_y, v * inv_y], D)
    assert rep.members == (True, True, True, True)
    assert rep.independent


def test_lspace_detects_dependence():
    one = scal(C3, vfun(C3, (1,)))
    v = scal(C3, vfun(C3, (0, 1)))
    vp1 = scal(C3, vfun(C3, (1, 1)))
    rep = lspace_check([one, v, vp1], Divisor({RamInfinity(3): 5}))
    assert not rep.independent


def test_lspace_bounds_zeros_and_places_outside_the_support():
    # L(D) asks v_P(e) >= -D(P) at every P, also where e has a zero and
    # where D is negative but e has valuation 0: L(-P_inf) = {0}, and
    # v = 0 is a zero of order q - 1 = 2 of v on the q = 3 curve
    one = scal(C3, vfun(C3, (1,)))
    v = scal(C3, vfun(C3, (0, 1)))
    at_zero = RamFinite(F3.zero)
    assert lspace_check([one], Divisor({RamInfinity(3): -1})).members == (
        False,)
    for k, member in ((3, False), (2, True)):
        D = Divisor({RamInfinity(3): 2, at_zero: -k})
        assert lspace_check([v], D).members == (member,)


def test_lspace_unknown_place():
    D = Divisor({RamInfinity(5): 1})
    with pytest.raises(UnknownPlace):
        lspace_check([yelem(C3)], D)


# -- counting ----------------------------------------------------------------


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_count_against_oracle_q3(k):
    assert count_degree_one(C3, k) == oracle_degree_one(C3, k)


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5])
def test_count_against_oracle_q4(k):
    assert count_degree_one(C4, k) == oracle_degree_one(C4, k)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_against_oracle_q5(k):
    assert count_degree_one(C5, k) == oracle_degree_one(C5, k)


@pytest.mark.parametrize("curve", [C7, C8, C9], ids=["q7", "q8", "q9"])
@pytest.mark.parametrize("k", [1, 2, 3])
def test_count_against_oracle_q7_to_q9(curve, k):
    # every (q, k) with q^k under gf.TABLE_CAP, where the scan on Zech logs
    # runs; q=8 covers characteristic two with a != 0
    assert count_degree_one(curve, k) == oracle_degree_one(curve, k)


def test_count_oracle_gamma_twist():
    for k in (1, 2, 3):
        assert count_degree_one(C3G2, k) == oracle_degree_one(C3G2, k)


def test_frozen_counts_q3():
    got = tuple(count_degree_one(C3, k) for k in (1, 2, 3, 4))
    assert got == FROZEN_N_Q3


# N_1, N_2, ... for the six standard moduli with gamma = 1, each up to the
# largest k under COUNT_CAP that point counting over GF(q^k) reached
FROZEN_N = {
    "q3": (C3, (4, 6, 28, 110, 244, 822, 2188, 6494, 19684, 58086, 177148,
                530126)),
    "q4": (C4, (5, 37, 5, 157, 1205, 3997, 15125, 65917, 264245)),
    "q5": (C5, (6, 56, 174, 824, 2886, 14648, 77454, 392432, 1956486)),
    "q7": (C7, (8, 106, 440, 2458, 15368, 116170, 827576)),
    "q8": (C8, (9, 11, 135, 4799, 30879, 250751, 2055951)),
    "q9": (C9, (10, 172, 970, 7212, 59290, 525292)),
}


@pytest.mark.parametrize(
    "name,k", [(name, k) for name, (_, ns) in FROZEN_N.items()
               for k in range(1, len(ns) + 1)],
    ids=lambda v: v if isinstance(v, str) else f"k{v}")
def test_counts_frozen_per_q(name, k):
    curve, ns = FROZEN_N[name]
    assert count_degree_one(curve, k) == ns[k - 1]


@pytest.mark.parametrize("curve", [C3, C4, C5, C7], ids=["q3", "q4", "q5", "q7"])
def test_rational_count_is_q_plus_one(curve):
    assert count_degree_one(curve, 1) == curve.q + 1


def _l_count(curve, k):
    # N_k read off the character-sum L-polynomial, whatever q^k is
    s = _power_sums_from_coeffs(l_polynomial(curve), k)[k]
    return curve.q ** k + 1 - s


@pytest.mark.parametrize("curve,ks", [(C3, (1, 2, 3, 4, 5)),
                                      (C4, (1, 2)),
                                      (C5, (1, 2)),
                                      (C7, (1, 2, 3)),
                                      (C8, (1, 2, 3)),
                                      (C9, (1, 2, 3))],
                         ids=["q3", "q4", "q5", "q7", "q8", "q9"])
def test_scalar_and_bulk_lanes_agree(curve, ks):
    # the point count against the L-polynomial that serves larger k
    for k in ks:
        assert curve.q ** k <= gf.TABLE_CAP
        assert count_degree_one(curve, k) == _l_count(curve, k)


def test_count_guards():
    with pytest.raises(TooLarge):
        count_degree_one(C5, 10)
    with pytest.raises(ValueError):
        count_degree_one(C3, 0)
    # above gf.TABLE_CAP the count needs the L-polynomial, capped at
    # q <= PIPELINE_Q_CAP; GF(11^3) has order 1331, so it has no log
    # tables to scan, and neither has GF(37^2)
    F11 = create_field(11)
    C11 = KummerCurve(F11.zero, F11.one, F11.one)
    assert count_degree_one(C11, 1) == 12
    assert count_degree_one(C11, 2) == oracle_degree_one(C11, 2)
    for k in (3, 4):
        with pytest.raises(TooLarge, match="PIPELINE_Q_CAP"):
            count_degree_one(C11, k)
    F37 = create_field(37)
    C37 = KummerCurve(F37.zero, F37.elem(2), F37.one)
    with pytest.raises(TooLarge, match="PIPELINE_Q_CAP"):
        count_degree_one(C37, 2)


def _check_corruptions(curve, corruptions, monkeypatch):
    # each corrupted histogram must raise or give exactly the true L;
    # __wrapped__ skips the per-curve cache of the true answer, and the
    # point counts it cross-checks are computed once
    true = l_polynomial(curve)
    monkeypatch.setattr("cycloff.places.count_degree_one",
                        functools.lru_cache(maxsize=None)(count_degree_one))
    for bad in corruptions:
        monkeypatch.setattr("cycloff.places._log_histogram",
                            lambda modulus, bad=bad: list(bad))
        try:
            got = l_polynomial.__wrapped__(curve)
        except FunctionalEquationViolated:
            continue
        assert got == true


@pytest.mark.parametrize("curve", [C3, C4, C5, C7, C8, C9],
                         ids=["q3", "q4", "q5", "q7", "q8", "q9"])
def test_corrupt_histogram_raises(curve, monkeypatch):
    # one unit of mass moved from an occupied log e to e + d (every d up to
    # q=5, a fixed set above), or one entry dropped
    q = curve.q
    hist = _log_histogram(curve.modulus)
    n = len(hist)
    shifts = (range(1, n) if q <= 5 else
              (1, 2, q - 1, q, q + 1, 2 * (q + 1), n // 2, n - 1))
    corruptions = []
    for e in (e for e, c in enumerate(hist) if c):
        dropped = list(hist)
        dropped[e] -= 1
        corruptions.append(dropped)
        for d in shifts:
            moved = list(dropped)
            moved[(e + d) % n] += 1
            corruptions.append(moved)
    _check_corruptions(curve, corruptions, monkeypatch)


@pytest.mark.parametrize("curve", [C3, C4, C5, C7, C8, C9],
                         ids=["q3", "q4", "q5", "q7", "q8", "q9"])
def test_l_polynomial_from_either_root_of_m(curve, monkeypatch):
    # beta^q, the other root of M, permutes the histogram by e -> e q
    # (at q = 4 and 8 onto itself) and leaves L as it is, so no caller
    # depends on which root one_root finds
    first = _log_histogram(curve.modulus)
    real, used = places.one_root, []

    def conjugate(f, K):
        used.append((real(f, K), real(f, K).frob(K.n // 2)))
        return used[-1][1]

    monkeypatch.setattr(places, "one_root", conjugate)
    other = _log_histogram(curve.modulus)
    n, q = len(first), curve.q
    assert used[0][0] != used[0][1]
    assert other == [first[e * q % n] for e in range(n)]
    assert l_polynomial.__wrapped__(curve) == l_polynomial(curve)


@pytest.mark.parametrize("curve", [C5, C7], ids=["q5", "q7"])
def test_wrong_modulus_histogram_is_caught(curve, monkeypatch):
    # a histogram of another modulus gives a genuine L, so only the point
    # count cross-check can tell it apart
    true = l_polynomial(curve)
    others = [_log_histogram(m.modulus) for m in
              (KummerCurve(mod.a, mod.b, curve.ctx.one)
               for mod in iter_irreducible_moduli(curve.ctx))
              if l_polynomial(m) != true]
    assert others
    _check_corruptions(curve, others, monkeypatch)


@pytest.mark.parametrize("q,sizes", [(3, [3]), (4, [4, 2]), (5, [5, 5]),
                                     (7, [7, 7, 7])],
                         ids=["q3", "q4", "q5", "q7"])
def test_l_polynomial_depends_on_the_modulus_class_only(q, sizes):
    # every (M, gamma) up to q=5, every M at q=7 with gamma = 1; each call
    # runs its own point-count cross-check
    ctx = gf.field_from_order(q)
    gammas = [x for x in ctx.iter_elements() if x] if q <= 5 else [ctx.one]
    classes = Counter()
    for mod in iter_irreducible_moduli(ctx):
        ls = {l_polynomial.__wrapped__(KummerCurve(mod.a, mod.b, g))
              for g in gammas}
        assert len(ls) == 1
        classes[ls.pop()] += 1
    assert sorted(classes.values(), reverse=True) == sizes


# -- zeta --------------------------------------------------------------------


ZETA_CURVES = {"zeta3": C3, "zeta4": C4, "zeta5": C5}


@pytest.fixture(scope="module")
def zeta3():
    return zeta(C3)


@pytest.fixture(scope="module")
def zeta4():
    return zeta(C4)


@pytest.fixture(scope="module")
def zeta5():
    return zeta(C5)


def test_zeta_q3_frozen(zeta3):
    counts, coeffs = zeta3
    assert counts == (4, 6)
    assert coeffs == FROZEN_L_Q3


def test_zeta_q3_predicts_deeper_counts(zeta3):
    # N_3, N_4 from the L-polynomial, then recounted independently
    assert FROZEN_N_Q3[2:] == (28, 110)
    assert count_degree_one(C3, 3) == 28
    assert count_degree_one(C3, 4) == 110


def test_zeta_q4_internal_consistency(zeta4):
    counts, coeffs = zeta4
    assert len(counts) == 5
    assert len(coeffs) == 11
    assert coeffs[0] == 1 and coeffs[-1] == 4 ** 5
    # predictions beyond the input range must match fresh counts
    back = _power_sums_from_coeffs(list(coeffs), 7)
    for k in (6, 7):
        assert count_degree_one(C4, k) == 4 ** k + 1 - back[k]


def test_zeta_q5_internal_consistency(zeta5):
    counts, coeffs = zeta5
    assert len(counts) == 9
    assert coeffs[0] == 1 and coeffs[-1] == 5 ** 9


@pytest.mark.parametrize("fix", ["zeta3", "zeta4", "zeta5"])
def test_weil_envelope(fix, request):
    counts, coeffs = request.getfixturevalue(fix)
    q, g = ZETA_CURVES[fix].q, len(coeffs) // 2
    for k, nk in enumerate(counts, start=1):
        assert (nk - q ** k - 1) ** 2 <= 4 * g * g * q ** k


@pytest.mark.parametrize("fix", ["zeta3", "zeta4", "zeta5"])
def test_genus_three_ways(fix, request):
    curve = ZETA_CURVES[fix]
    _, coeffs = request.getfixturevalue(fix)
    assert len(coeffs) // 2 == genus_formula(curve.q) == genus_rh(curve)


def test_zeta_functional_equation_symmetry(zeta3, zeta4, zeta5):
    for curve, (_, coeffs) in zip((C3, C4, C5), (zeta3, zeta4, zeta5)):
        q, g = curve.q, len(coeffs) // 2
        for i in range(g + 1):
            assert coeffs[2 * g - i] == q ** (g - i) * coeffs[i]


def test_zeta_rejects_large_q():
    with pytest.raises(TooLarge):
        zeta(C7)


def _first_occupied(hist, fn):
    out = list(hist)
    e = next(e for e, c in enumerate(out) if c)
    out[e] = fn(out[e])
    return out


def _last_moved_up(hist):
    out = list(hist)
    e = max(e for e, c in enumerate(out) if c)
    out[e] -= 1
    out[(e + 1) % len(out)] += 1
    return out


# a corrupted log histogram and the message of the check in l_polynomial it
# must trip first; the message pins the check, so with that check removed a
# later one answers instead and the test fails.  No histogram reaches the
# functional equation: on a relative difference set |S_chi|^2 = q, so
# q/S_chi is the conjugate S_chi', and L satisfies it
L_CHECKS = {
    # every residue twice: D[0] = 4q
    "double": (lambda h: [2 * c for c in h], "relative difference set"),
    # no residue at all: D[0] = 0
    "empty": (lambda h: [0] * len(h), "relative difference set"),
    # one residue missing: D[0] = q - 1
    "drop": (lambda h: _first_occupied(h, lambda c: c - 1),
             "relative difference set"),
    # at q=3 the logs {1, 6, 7} moved to {0, 1, 6} still form a difference
    # set, with the wrong L
    "shift": (_last_moved_up, "does not reproduce N_1"),
}


@pytest.mark.parametrize(
    "curve,check",
    [(c, k) for c in (C3, C4, C5) for k in ("double", "empty")]
    + [(C3, "drop"), (C3, "shift")],
    ids=lambda v: v if isinstance(v, str) else f"q{v.q}")
def test_each_check_on_l_raises(curve, check, monkeypatch):
    corrupt, message = L_CHECKS[check]
    hist = corrupt(_log_histogram(curve.modulus))
    monkeypatch.setattr("cycloff.places._log_histogram",
                        lambda modulus: hist)
    with pytest.raises(FunctionalEquationViolated, match=message):
        l_polynomial.__wrapped__(curve)


def test_genus_formula_values():
    assert [genus_formula(q) for q in (3, 4, 5, 7)] == [2, 5, 9, 20]


def test_the_library_refuses_q2():
    # T^2+T+1 is irreducible over GF(2), but y^(q-1) = h(v) is the rational
    # field itself there; WrongQ is a ValueError, as the old refusal was
    F2 = create_field(2, 1)
    with pytest.raises(WrongQ):
        KummerCurve(F2.one, F2.one, F2.one)
    with pytest.raises(WrongQ):
        genus_formula(2)
    assert issubclass(WrongQ, ValueError)


def test_genus_rh_values():
    # Riemann-Hurwitz from v_P(h) against the closed form, for every
    # modulus with gamma = 1 up to q = 9 and for a twisted model
    curves = [C3G2]
    for q in (3, 4, 5, 7, 8, 9):
        ctx = gf.field_from_order(q)
        curves.extend(KummerCurve(m.a, m.b, ctx.one)
                      for m in iter_irreducible_moduli(ctx))
    assert len(curves) == 105
    for curve in curves:
        assert genus_rh(curve) == genus_formula(curve.q)


def _branch_point(P):
    if isinstance(P, RamFinite):
        return P.alpha
    if isinstance(P, RamInfinity):
        return INFINITY
    return P.root


# h times a factor, after the curve certified its profile: a factor that
# moves a valuation or adds a branch point; v^2 + 1 is the numerator of h
# at q = 3 and 7, splits over GF(5) and GF(9), and v^2 + v + 2 is another
# irreducible quadratic over GF(3)
H_CORRUPTIONS = [(C3, (1, 0, 1)), (C3, (2, 1, 1)), (C4, (0, 0, 1)),
                 (C5, (1, 0, 1)), (C7, (0, 0, 1)), (C7, (1, 0, 1)),
                 (C9, (1, 0, 1))]
H_IDS = [f"q{c.q}-{format_poly(vpoly(c, *f), 'v')}" for c, f in H_CORRUPTIONS]


@pytest.mark.parametrize("curve,factor", H_CORRUPTIONS, ids=H_IDS)
def test_genus_rh_reads_h(curve, factor, monkeypatch, capsys):
    # on the true h every ramified place has index e_P = q - 1
    n = curve.q - 1
    assert all(n // gcd(n, curve.h.valuation(_branch_point(P))) == n
               for P in ramified_places(curve))
    bad = KummerCurve(curve.modulus.a, curve.modulus.b, curve.gamma)
    bad.h = bad.h * vfun(curve, factor)
    try:
        changed = genus_rh(bad) != genus_formula(curve.q)
        code = 1
    except WrongRamification:
        changed, code = True, 2
    assert changed
    monkeypatch.setattr(cli, "KummerCurve", lambda a, b, gamma: bad)
    assert cli.main(["verify", "-q", str(curve.q),
                     "-M", format_poly(curve.modulus.as_poly(), "T"),
                     "genus"]) == code
    capsys.readouterr()


@pytest.mark.parametrize("curve,factor", H_CORRUPTIONS, ids=H_IDS)
def test_point_counts_read_h(curve, factor):
    # L is read from M alone and the counts from h alone, so an h that is
    # no longer the curve of M must break the N_k check of l_polynomial
    bad = KummerCurve(curve.modulus.a, curve.modulus.b, curve.gamma)
    bad.h = bad.h * vfun(curve, factor)
    with pytest.raises(FunctionalEquationViolated, match="reproduce N_"):
        l_polynomial.__wrapped__(bad)
    if curve is C5:
        # v^2 + 1 = (v - 2)(v - 3) cancels two rational poles; h(2) = -1 is
        # no fourth power, h(3) = 1 is, with q - 1 = 4 points over it
        assert count_degree_one(bad, 1) == 10
