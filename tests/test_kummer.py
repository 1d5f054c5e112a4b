"""Kummer model, elimination certificate, normalization, recognition."""

import random
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from cycloff import gf, kummer
from cycloff.carlitz import Modulus, iter_irreducible_moduli
from cycloff.errors import (
    CtxMismatch,
    DivisionByZero,
    NotCoprime,
    ReducibleModulus,
    ReducibleResult,
    WrongRamification,
    ZeroElement,
)
from cycloff.carlitz import CycModel
from cycloff.kummer import (
    KummerAlgebra,
    KummerCurve,
    kummer_normalize,
    recognize_cyclotomic,
    roundtrip_certificate,
    verify_prop31,
)
from cycloff.polyalg import INFINITY, Poly, RatFunc, roots_in

F3 = gf.create_field(3)
F4 = gf.create_field(2, 2)
F5 = gf.create_field(5)


def curve_q3(gamma=1):
    return KummerCurve(F3.elem(0), F3.elem(1), F3.elem(gamma))


# ---------------------------------------------------------------------------
# curve construction

def test_curve_q3_frozen_h():
    c = curve_q3(1)
    assert c.h.num == Poly.from_ints(F3, [2, 0, 2])      # -(v^2+1)
    assert c.h.den == Poly.from_ints(F3, [0, 2, 0, 1])   # v^3 - v
    assert c.n == 2


def test_curve_q3_gamma2_frozen_h():
    # with gamma = 2 the squared leading sign cancels: h = (v^2+1)/(v^3-v)
    c = curve_q3(2)
    assert c.h.num == Poly.from_ints(F3, [1, 0, 1])
    assert c.h.den == Poly.from_ints(F3, [0, 2, 0, 1])


def test_curve_guards():
    with pytest.raises(ZeroElement):
        curve_q3(0)
    with pytest.raises(ReducibleModulus):
        KummerCurve(F3.elem(0), F3.elem(2), F3.one)
    with pytest.raises(ZeroElement):
        KummerAlgebra(F3, 2, RatFunc.zero(F3))
    with pytest.raises(ValueError):
        KummerAlgebra(F3, 0, RatFunc.one(F3))


def test_repeated_quadratic_root_is_a_typed_error(monkeypatch):
    # the profile check must raise, not assert, so python -O keeps it
    real = kummer.roots_in
    monkeypatch.setattr(kummer, "roots_in",
                        lambda f, ext: [real(f, ext)[0]] * 2)
    with pytest.raises(WrongRamification):
        curve_q3(1)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9])
def test_profile_by_evaluation_agrees_with_valuations(q):
    # criterion 01's sweep: the constructor checks by evaluation, and
    # h.valuation (root multiplicities) must give the same profile
    ctx = gf.field_from_order(q)
    for mod in iter_irreducible_moduli(ctx):
        curve = KummerCurve(mod.a, mod.b, ctx.one)
        assert all(curve.h.valuation(a) == -1 for a in ctx.iter_elements())
        assert [curve.h.valuation(rt) for rt in curve.quad_roots] == [1, 1]


def test_profile_by_evaluation_rejects_higher_orders():
    c = curve_q3(1)
    v = RatFunc.gen(F3)
    other = RatFunc.from_poly(Poly.from_ints(F3, [2, 1, 1]))  # v^2+v+2
    # a double pole at v = 0; a double zero at both roots of v^2+1, with
    # the order at infinity kept
    for h, msg in ((c.h / v, "simple pole"),
                   (c.h * RatFunc.from_poly(c.ram_numerator) / other,
                    "simple zero")):
        c.h = h
        with pytest.raises(WrongRamification, match=msg):
            c._check_ramification_profile()


@pytest.mark.parametrize("q", [3, 4, 5, 7])
def test_ramification_profile_all_moduli(q):
    """h has valuation -1 at rational points, q-2 at infinity, +1 at the
    numerator roots; no divisor d > 1 of q-1 divides them all, so h is
    never a proper power and the extension has full degree q-1."""
    ctx = gf.field_from_order(q)
    for mod in iter_irreducible_moduli(ctx):
        curve = KummerCurve(mod.a, mod.b, ctx.one)   # constructor re-checks
        assert curve.h.valuation(ctx.zero) == -1
        assert curve.h.valuation(INFINITY) == q - 2
        for d in range(2, q):
            if (q - 1) % d == 0:
                assert (-1) % d != 0


@pytest.mark.parametrize("q", [3, 5])
def test_ramification_profile_all_gammas(q):
    ctx = gf.field_from_order(q)
    mod = next(iter_irreducible_moduli(ctx))
    for gamma in ctx.iter_elements():
        if gamma.is_zero():
            continue
        curve = KummerCurve(mod.a, mod.b, gamma)
        ext = gf.create_field(ctx.p, 2 * ctx.n)
        rts = roots_in(curve.ram_numerator, ext)
        assert len(rts) == 2
        assert all(curve.h.valuation(rt) == 1 for rt in rts)


# ---------------------------------------------------------------------------
# algebra arithmetic

def test_y_times_top_power_folds_to_h():
    c = curve_q3()
    prod = c.y() * c.y()                     # y^(q-1) with q-1 = 2
    assert prod == c.scalar(c.h)


def test_inverse_of_y_frozen():
    c = curve_q3()
    inv = c.y().inverse()
    # coords of 1/y: y^(q-2) / h
    assert inv.coords == (RatFunc.zero(F3), c.h.inverse())
    assert inv * c.y() == c.one()


def test_kummer_operators():
    c = curve_q3()
    u, w = c.y(), c.scalar(Poly.gen(F3))
    assert (u + w).coords == (RatFunc.gen(F3), RatFunc.one(F3))
    assert (u * w).coords == (RatFunc.zero(F3), RatFunc.gen(F3))
    assert u.inverse() * u == c.one()
    with pytest.raises(DivisionByZero):
        c.zero().inverse()


def test_algebra_field_axioms_random():
    c = curve_q3()
    rng = random.Random(5)

    def rand_elem():
        return c.from_coords([
            RatFunc.from_poly(Poly.from_ints(F3,
                                             [rng.randrange(3) for _ in range(3)]))
            for _ in range(2)])

    for _ in range(8):
        a, b, d = rand_elem(), rand_elem(), rand_elem()
        assert (a + b) * d == a * d + b * d
        assert (a * b) * d == a * (b * d)
        if not a.is_zero():
            assert a * a.inverse() == c.one()
            assert (b / a) * a == b
    assert rand_elem() ** 0 == c.one()


def test_negative_powers_via_inversion():
    c = curve_q3()
    y = c.y()
    assert y ** -3 == (y ** 3).inverse()
    assert y ** -1 * y == c.one()


def test_algebra_mismatch_guard():
    with pytest.raises(CtxMismatch):
        curve_q3(1).y() + curve_q3(2).y()


# ---------------------------------------------------------------------------
# elimination certificate

def test_elimination_q3_both_gammas():
    for gamma in (1, 2):
        cert = verify_prop31(3, 0, 1, gamma)
        assert cert.ok and cert.residual.is_zero()


def test_elimination_q5_named_case():
    assert verify_prop31(5, 1, 1, 1).ok


@pytest.mark.parametrize("q", [3, 5])
def test_elimination_exhaustive(q):
    ctx = gf.field_from_order(q)
    for mod in iter_irreducible_moduli(ctx):
        for gamma in ctx.iter_elements():
            if not gamma.is_zero():
                assert verify_prop31(q, mod.a, mod.b, gamma).ok


@pytest.mark.parametrize("q,a,b", [(4, 1, [0, 1]), (7, 0, 1)])
def test_elimination_other_fields(q, a, b):
    ctx = gf.field_from_order(q)
    b = ctx.elem(b)
    assert verify_prop31(q, ctx.elem(a), b, ctx.one).ok


def test_elimination_detects_wrong_relation():
    # flipping the constant term must leave a nonzero residual
    mod = Modulus(F3.elem(0), F3.elem(1))
    model = CycModel(mod)
    yq1 = model.from_pairs([(2, RatFunc.one(F3))])
    v = yq1 + model.scalar(Poly.gen(F3))
    residual = yq1 * (v.qpow() - v) + v * v - model.one()   # b = -1 is wrong
    assert not residual.is_zero()


def test_elimination_guards():
    with pytest.raises(ReducibleModulus):
        verify_prop31(3, 0, 2, 1)
    with pytest.raises(ZeroElement):
        verify_prop31(3, 0, 1, 0)


# ---------------------------------------------------------------------------
# power normalization

def test_normalize_frozen_cases():
    s = kummer_normalize(5, 3)
    assert (s.r, s.s) == (2, -3)
    assert kummer_normalize(4, 3).r == 1 and kummer_normalize(4, 3).s == -1
    for n in (2, 4, 6, 8):
        s = kummer_normalize(n, 1)
        assert (s.r, s.s) == (0, 1)


def test_normalize_rejects_common_factor():
    with pytest.raises(NotCoprime):
        kummer_normalize(6, 3)
    with pytest.raises(ValueError):
        kummer_normalize(4, 0)


@settings(max_examples=80, deadline=None)
@given(st.integers(1, 60), st.integers(1, 60))
def test_normalize_bezout_identity(n, k):
    assume(gcd(n, k) == 1)
    s = kummer_normalize(n, k)
    assert s.r * n + s.s * k == 1
    assert 0 <= s.r < max(k, 1)


def test_normalize_checked_in_algebra():
    # relation y^4 = u^3 with u = v: z = y^-1 u must satisfy z^4 = u
    v = Poly.gen(F5)
    alg = KummerAlgebra(F5, 4, RatFunc.from_poly(v) ** 3)
    sub = kummer_normalize(4, 3)
    z = (alg.y() ** sub.s).scale(RatFunc.from_poly(v) ** sub.r)
    assert z ** 4 == alg.scalar(v)
    # y is recovered as z^-1 u, so z generates the algebra
    assert (z ** -1).scale(RatFunc.from_poly(v)) == alg.y()


# ---------------------------------------------------------------------------
# modulus recognition

def test_recognize_identity_scaling():
    m = recognize_cyclotomic(3, 1, 1, 0, 1)
    assert (m.a, m.b) == (F3.elem(0), F3.elem(1))


def test_recognize_frozen_q5():
    m = recognize_cyclotomic(5, 2, 3, 1, 1)
    assert (m.a, m.b) == (F5.elem(2), F5.elem(4))   # T^2 + 2T + 4


def test_recognize_sign_convention():
    # lambda = 1, r = 1 flips the linear coefficient: T^2 - aT + b
    m = recognize_cyclotomic(5, 1, 1, 1, 1)
    assert (m.a, m.b) == (F5.elem(4), F5.elem(1))


def test_recognize_guards():
    with pytest.raises(NotCoprime):
        recognize_cyclotomic(5, 2, 2, 1, 1)
    with pytest.raises(ReducibleResult):
        recognize_cyclotomic(5, 2, 3, 0, 4)         # T^2+4 factors
    with pytest.raises(ZeroElement):
        recognize_cyclotomic(5, 0, 1, 1, 1)


def test_scalar_rescaling_is_invisible():
    # y -> nu*y fixes the defining relation since nu^(q-1) = 1; the
    # recognized modulus cannot see such a change of generator
    ctx = F5
    v = Poly.gen(ctx)
    u = RatFunc(v * v + v + 1, v.frob_power(1) - v)
    alg = KummerAlgebra(ctx, 4, u)
    for nu in (2, 3, 4):
        w = alg.y().scale(nu)
        assert w ** 4 == alg.scalar(u)
        assert recognize_cyclotomic(5, 1, 1, 1, 1) == \
            recognize_cyclotomic(5, ctx.elem(nu) ** 4, 1, 1, 1)


# ---------------------------------------------------------------------------
# the full loop

def test_roundtrip_q5_named_case():
    rt = roundtrip_certificate(5, 2, 3, 1, 1)
    assert rt.ok
    assert (rt.modulus.a, rt.modulus.b) == (F5.elem(2), F5.elem(4))
    assert rt.gamma == F5.elem(2)                   # -lambda^(1/r) = -3
    assert (rt.substitution.r, rt.substitution.s) == (1, -1)


def test_roundtrip_sweep_small():
    for lam in (1, 2):
        assert roundtrip_certificate(3, lam, 1, 0, 1).ok
    for lam in (1, 2, 3, 4):
        for r in (1, 3):
            assert roundtrip_certificate(5, lam, r, 1, 1).ok


def test_roundtrip_q7():
    rt = roundtrip_certificate(7, 3, 5, 0, 1)
    assert rt.ok and rt.substitution.s == -1
