"""Carlitz action, torsion field model, Galois maps.

The oracle for the additive-polynomial construction evaluates the
definitional recursion numerically: specialize x to a point xi of an
extension field, iterate t |-> t^q + xi*t, and compare against the
symbolic coefficients evaluated at xi.  That route never touches the
twisted-ring code path.
"""

import importlib.util
import pathlib
import random

import pytest
from hypothesis import given, settings, strategies as st

from cycloff import carlitz, gf
from cycloff.carlitz import (
    CarlitzPoly,
    CycModel,
    Modulus,
    UnitClass,
    carlitz_of,
    galois_map,
    iter_irreducible_moduli,
)
from cycloff.errors import (
    CertificateFailed,
    CtxMismatch,
    DivisionByZero,
    NotAUnit,
    ReducibleModulus,
    ZeroPolynomial,
)
from cycloff.places import _log_histogram
from cycloff.polyalg import Poly, RatFunc, one_root


def _load_oracle(name):
    path = pathlib.Path(__file__).resolve().parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


galois_oracle = _load_oracle("galois_oracle")

F3 = gf.create_field(3)
F4 = gf.create_field(2, 2)
F5 = gf.create_field(5)
F27 = gf.create_field(3, 3)

M31 = Modulus(F3.elem(0), F3.elem(1))        # T^2 + 1 over GF(3)


def oracle_carlitz_value(f, xi, z):
    """sum a_i phi^i(z) with phi(t) = t^q + xi t, all in xi's field."""
    q = f.ctx.order
    tgt = xi.ctx
    acc = tgt.zero
    t = z
    for i in range(f.degree + 1):
        acc = acc + gf.embed(f.coeff(i), tgt) * t
        t = t ** q + xi * t
    return acc


def carlitz_value_from_coeffs(cp, xi, z):
    q = cp.ctx.order
    acc = xi.ctx.zero
    for j, c in enumerate(cp.coeffs):
        acc = acc + c(xi) * z ** (q ** j)
    return acc


# ---------------------------------------------------------------------------
# the additive-polynomial layer

def test_carlitz_of_x_is_the_base_action():
    cp = carlitz_of(Poly.gen(F3))
    assert cp.coeffs == (Poly.gen(F3), Poly.one(F3))


def test_carlitz_of_constant_is_scalar():
    cp = carlitz_of(Poly.from_ints(F3, [2]))
    assert cp.coeffs == (Poly.from_ints(F3, [2]),)


def test_carlitz_of_quadratic_frozen():
    # monic quadratic x^2 + a x + b: coefficients (x^2+ax+b, x^q+x+a, 1)
    a, b = F3.elem(1), F3.elem(2)
    f = Poly(F3, (b, a, F3.one))
    cp = carlitz_of(f)
    x = Poly.gen(F3)
    assert cp.coeffs == (f, x ** 3 + x + a, Poly.one(F3))
    assert cp.tau_degree == 2          # z-degree q^2


def test_carlitz_of_zero_rejected():
    with pytest.raises(ZeroPolynomial):
        carlitz_of(Poly.zero(F3))


def test_head_and_tail_coefficients():
    # c_0 = f and c_m = lc(f), for assorted multipliers
    for ints in ([0, 1, 2], [2, 0, 0, 1], [1, 1], [2, 2, 2, 2]):
        f = Poly.from_ints(F3, ints)
        cp = carlitz_of(f)
        assert cp.coeffs[0] == f
        assert cp.coeffs[-1] == Poly.constant(f.lc)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(0, 2), min_size=1, max_size=4),
       st.integers(0, 26), st.integers(0, 26))
def test_carlitz_matches_definitional_recursion(ints, xi_i, z_i):
    f = Poly.from_ints(F3, ints)
    if f.is_zero():
        return
    xi, z = F27.from_int(xi_i), F27.from_int(z_i)
    cp = carlitz_of(f)
    assert carlitz_value_from_coeffs(cp, xi, z) == oracle_carlitz_value(f, xi, z)


def small_polys(ctx):
    return st.lists(st.integers(0, ctx.order - 1), min_size=1, max_size=4).map(
        lambda cs: Poly.from_ints(ctx, cs))


@pytest.mark.parametrize("ctx", [F3, F4, F5], ids=["q3", "q4", "q5"])
def test_ring_action_laws(ctx):
    rng = random.Random(7 * ctx.order)
    for _ in range(25):
        f = Poly.from_ints(ctx, [rng.randrange(ctx.order) for _ in range(4)])
        g = Poly.from_ints(ctx, [rng.randrange(ctx.order) for _ in range(4)])
        if not f.is_zero() and not g.is_zero():
            cf, cg = carlitz_of(f), carlitz_of(g)
            assert carlitz_of(f * g) == cf.compose(cg)
            assert cf.compose(cg) == cg.compose(cf)
        if not (f + g).is_zero():
            lhs = carlitz_of(f + g)
            if f.is_zero():
                assert lhs == carlitz_of(g)
            elif g.is_zero():
                assert lhs == carlitz_of(f)
            else:
                assert lhs == carlitz_of(f) + carlitz_of(g)


def test_scalar_linearity_in_model():
    model = CycModel(M31)
    f = Poly.from_ints(F3, [1, 2, 1])
    cp = carlitz_of(f)
    y = model.y()
    for lam in F3.iter_elements():
        assert cp.act(y.scale(lam)) == cp.act(y).scale(lam)


# ---------------------------------------------------------------------------
# moduli

def test_modulus_validation():
    with pytest.raises(ReducibleModulus):
        Modulus(F3.elem(0), F3.elem(2))    # T^2 - 1 = (T-1)(T+1)
    with pytest.raises(ReducibleModulus):
        Modulus(F5.elem(0), F5.elem(4))    # 1^2 = -4
    m = Modulus(F5.elem(0), F5.elem(2))
    assert m.q == 5 and str(m) == "T^2+2"


def test_modulus_enumeration_counts():
    # (q^2 - q)/2 monic irreducible quadratics
    for ctx, want in [(F3, 3), (F4, 6), (F5, 10)]:
        ms = list(iter_irreducible_moduli(ctx))
        assert len(ms) == want
    first = next(iter_irreducible_moduli(F3))
    assert (first.a, first.b) == (F3.elem(0), F3.elem(1))


def test_unit_group_is_cyclic_of_full_order():
    gen = M31.unit_group_generator()
    assert gen.rep == Poly.from_ints(F3, [1, 1])       # 1 + x
    assert galois_oracle.unit_order(M31, gen) == 8
    seen = set()
    u = M31.unit(1)
    for _ in range(8):
        u = galois_oracle.unit_mul(M31, u, gen)
        seen.add(u.rep.coeffs)
    assert len(seen) == 8                              # all units hit


def test_unit_order_matches_brute_force():
    for u in M31.iter_units():
        k, w = 1, u
        while not w.rep.is_one():
            w = galois_oracle.unit_mul(M31, w, u)
            k += 1
        assert galois_oracle.unit_order(M31, u) == k


def test_unit_log_table_matches_the_poly_product_oracle():
    # all 104 moduli with q <= 9: the table's generator is the order scan's;
    # the j-th Poly-product power of that generator has log j l, with l the
    # log of the generator at beta, so the histogram of the T + a follows;
    # at q <= 5 unit_pow agrees with Poly powering everywhere
    moduli = 0
    for q in (3, 4, 5, 7, 8, 9):
        ctx = gf.field_from_order(q)
        K, n = gf.create_field(ctx.p, 2 * ctx.n), q * q - 1
        for mod in iter_irreducible_moduli(ctx):
            gen = galois_oracle.unit_group_generator(mod)
            assert mod.unit_group_generator() == gen
            step = K.dlog(gen.rep(one_root(mod.as_poly(), K)))
            logs, w = {}, mod.unit(1)
            for j in range(n):
                logs[w] = j * step % n
                w = galois_oracle.unit_mul(mod, w, gen)
            assert carlitz._unit_logs(mod)[0] == logs
            hist = [0] * n
            for a in ctx.iter_elements():
                hist[logs[mod.unit(Poly(ctx, (a, ctx.one)))]] += 1
            assert _log_histogram(mod) == hist
            if q <= 5:
                for u in mod.iter_units():
                    for e in (0, 1, 2, q, n - 1, n + 2, -1):
                        assert (mod.unit_pow(u, e)
                                == galois_oracle.unit_pow(mod, u, e))
            moduli += 1
    assert moduli == 104


def test_unit_guards():
    with pytest.raises(NotAUnit):
        M31.unit(Poly.zero(F3))
    with pytest.raises(NotAUnit):
        UnitClass(Poly.from_ints(F3, [0, 0, 1]))       # unreduced rep
    # reduction mod M is applied for high-degree input: x^2 = -1
    assert M31.unit(Poly.from_ints(F3, [0, 0, 1])).rep == Poly.from_ints(F3, [2])


# ---------------------------------------------------------------------------
# the torsion field model

def test_minpoly_frozen_q3():
    model = CycModel(M31)
    assert model.n == 8
    x = Poly.gen(F3)
    want = {0: x * x + 1, 2: x ** 3 + x, 8: Poly.one(F3)}
    for i, c in enumerate(model.minpoly):
        assert c == want.get(i, Poly.zero(F3))


def test_misshapen_carlitz_operator_is_a_typed_error(monkeypatch):
    # the shape check must raise, not assert, so python -O keeps it
    real = carlitz.carlitz_of
    monkeypatch.setattr(carlitz, "carlitz_of", lambda f: real(f + 1))
    with pytest.raises(CertificateFailed):
        CycModel(M31)


def test_the_torsion_model_is_eisenstein_at_m():
    # M divides x^q + x + a for every modulus, so P is Eisenstein at M;
    # the middle coefficient of another a leaves the constant a' - a
    for ctx in (F3, F4, F5):
        x = Poly.gen(ctx)
        frob = x.frob_power(ctx.n)
        for mod in iter_irreducible_moduli(ctx):
            c0 = mod.as_poly()
            carlitz._check_eisenstein(c0, frob + x + mod.a)
            with pytest.raises(CertificateFailed, match="does not divide"):
                carlitz._check_eisenstein(c0, frob + x + mod.a + ctx.one)


def test_minpoly_degree_counts_torsion():
    for mod in [M31, Modulus(F5.elem(0), F5.elem(2))]:
        model = CycModel(mod)
        assert len(model.minpoly) - 1 == mod.q ** 2 - 1


def test_reduction_step_frozen():
    # y * y^(q^2-2): one overflow fold against the defining polynomial
    model = CycModel(M31)
    top = model.from_pairs([(7, RatFunc.one(F3))])
    prod = top * model.y()
    want = model.from_pairs([(2, RatFunc.from_poly(-model.c1)),
                             (0, RatFunc.from_poly(-model.c0))])
    assert prod == want


def test_quotient_ring_ops():
    model = CycModel(M31)
    rng = random.Random(31)

    def rand_elem():
        pairs = [(rng.randrange(model.n),
                  RatFunc.from_poly(Poly.from_ints(F3, [rng.randrange(3)
                                                        for _ in range(3)])))
                 for _ in range(3)]
        return model.from_pairs(pairs)

    one = model.one()
    for _ in range(5):
        u, w = rand_elem(), rand_elem()
        assert u * one == u
        assert u + w == w + u
        assert u * w == w * u
        if not u.is_zero():
            assert u * u.inverse() == one
    with pytest.raises(DivisionByZero):
        model.zero().inverse()


def test_mul_associative_and_distributive():
    model = CycModel(M31)
    rng = random.Random(47)

    def rand_elem():
        return model.from_pairs([(rng.randrange(model.n),
                                  RatFunc.from_poly(
                                      Poly.from_ints(F3, [rng.randrange(3),
                                                          rng.randrange(3)])))
                                 for _ in range(2)])

    for _ in range(5):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c


def test_qpow_is_cubing():
    model = CycModel(M31)
    e = model.from_pairs([(1, RatFunc.one(F3)),
                          (3, RatFunc.from_poly(Poly.gen(F3)))])
    assert e.qpow() == e * e * e


def test_model_mismatch_guard():
    m1 = CycModel(M31)
    m2 = CycModel(Modulus(F3.elem(1), F3.elem(2)))
    with pytest.raises(CtxMismatch):
        m1.y() + m2.y()


# ---------------------------------------------------------------------------
# Galois action

def test_identity_unit_fixes_generator():
    model = CycModel(M31)
    assert galois_map(M31.unit(1), model) == model.y()


def test_non_torsion_image_is_a_typed_error(monkeypatch):
    # checked against C_x instead of C_M, the image y is no root, since
    # y^3 + x y = 0 would give y degree 2 over GF(3)(x).  The check must
    # raise, not assert, so python -O keeps it.
    model = CycModel(M31)
    monkeypatch.setattr(model, "carlitz_m", carlitz_of(Poly.gen(F3)))
    with pytest.raises(CertificateFailed):
        galois_map(M31.unit(1), model)


def test_galois_images_are_roots_dense_q3():
    # beyond the built-in sparse check: literally evaluate P at the image
    model = CycModel(M31)
    c0 = RatFunc.from_poly(model.c0)
    c1 = RatFunc.from_poly(model.c1)
    for u in M31.iter_units():
        w = galois_map(u, model)
        lit = w ** 8 + (w ** 2).scale(c1) + model.one().scale(c0)
        assert lit.is_zero()


def test_galois_image_is_root_dense_q5():
    mod = Modulus(F5.elem(0), F5.elem(2))
    model = CycModel(mod)
    u = mod.unit(Poly.from_ints(F5, [1, 2]))
    w = galois_map(u, model)
    lit = (w ** 24 + (w ** 4).scale(RatFunc.from_poly(model.c1))
           + model.one().scale(RatFunc.from_poly(model.c0)))
    assert lit.is_zero()


def test_composition_matches_unit_product_q3():
    # sigma_x then sigma_{x+1} lands on sigma_{x+2}: x(x+1) = x^2+x = x-1
    model = CycModel(M31)
    u = M31.unit(Poly.gen(F3))
    w = M31.unit(Poly.from_ints(F3, [1, 1]))
    uw = galois_oracle.unit_mul(M31, u, w)
    assert uw.rep == Poly.from_ints(F3, [2, 1])
    img_u = galois_map(u, model)
    img_w = galois_map(w, model)
    # sigma_u(C_f(y)) = C_u(C_f(y)): applying C_u is the Galois action, valid
    # on torsion points only
    assert carlitz_of(u.rep).act(img_w) == galois_map(uw, model)
    assert carlitz_of(w.rep).act(img_u) == galois_map(uw, model)


@pytest.mark.parametrize("mod", [Modulus(F4.one, F4.elem([0, 1])),
                                 Modulus(F5.elem(0), F5.elem(2))],
                         ids=["q4", "q5"])
def test_composition_random_samples(mod):
    model = CycModel(mod)
    ctx = mod.ctx
    rng = random.Random(ctx.order)
    for _ in range(6):
        cs = [rng.randrange(ctx.order) for _ in range(4)]
        u = mod.unit(Poly(ctx, (ctx.from_int(cs[0]), ctx.from_int(cs[1]))))\
            if cs[0] or cs[1] else mod.unit(1)
        w = mod.unit(Poly(ctx, (ctx.from_int(cs[2]), ctx.from_int(cs[3]))))\
            if cs[2] or cs[3] else mod.unit(1)
        # C_u acts on the torsion point C_w(y) as sigma_u
        assert carlitz_of(u.rep).act(galois_map(w, model)) == \
            galois_map(galois_oracle.unit_mul(mod, u, w), model)
        if not u.rep.is_one():
            assert galois_map(u, model) != model.y()   # trivial kernel


def test_galois_kernel_trivial_q3_exhaustive():
    model = CycModel(M31)
    images = {galois_map(u, model) for u in M31.iter_units()}
    assert len(images) == 8


def test_generator_action_has_full_order():
    model = CycModel(M31)
    gen = M31.unit_group_generator()
    w = model.y()
    seen = []
    for _ in range(8):
        w = carlitz_of(gen.rep).act(w)
        seen.append(w)
    assert seen[-1] == model.y()
    assert all(v != model.y() for v in seen[:-1])
    assert len(set(seen)) == 8
