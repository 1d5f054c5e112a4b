"""Polynomial and rational function layer.

The division/irreducibility oracles below work on plain coefficient lists
with their own long division, so they share only the field element layer
with the code under test.  The root oracle scans the whole extension, one
multiplicity test per element.
"""

import functools
import itertools
import operator
import random

import pytest
from hypothesis import given, settings, strategies as st

from cycloff import gf, polyalg
from cycloff.carlitz import CycModel, Modulus, iter_irreducible_moduli
from cycloff.errors import (
    BothZero,
    CertificateFailed,
    ConstantPolynomial,
    CtxMismatch,
    DivisionByZero,
    ParseError,
    TooLarge,
    WrongOrder,
    ZeroPolynomial,
    ZeroValuation,
)
from cycloff.kummer import KummerAlgebra, KummerCurve
from cycloff.polyalg import (
    INFINITY,
    NEG_INF,
    Poly,
    RatFunc,
    format_poly,
    is_irreducible,
    one_root,
    parse_poly,
    poly_gcd,
    roots_in,
    root_multiplicity,
)

F3 = gf.create_field(3)
F5 = gf.create_field(5)
F4 = gf.create_field(2, 2)
F9 = gf.create_field(3, 2)


# ---------------------------------------------------------------------------
# oracles (coefficient lists, own long division)

def _trim(c):
    while c and c[-1].is_zero():
        c.pop()
    return c


def oracle_divmod(f, g):
    """Long division on copies of the coefficient lists."""
    ctx = f.ctx
    rem = list(f.coeffs)
    div = list(g.coeffs)
    dg = len(div) - 1
    inv = div[-1].inverse()
    quo = [ctx.zero] * max(0, len(rem) - dg)
    while len(_trim(rem)) - 1 >= dg >= 0 and rem:
        d = len(rem) - 1 - dg
        c = rem[-1] * inv
        quo[d] = c
        for j, y in enumerate(div):
            rem[d + j] = rem[d + j] - c * y
    return Poly(ctx, quo), Poly(ctx, rem)


def oracle_is_irreducible(f):
    """Trial division by every monic polynomial of degree <= deg(f)/2."""
    d = f.degree
    if d == 1:
        return True
    ctx = f.ctx
    for e in range(1, d // 2 + 1):
        for tail in itertools.product(ctx.iter_elements(), repeat=e):
            g = Poly(ctx, tuple(tail) + (ctx.one,))
            if oracle_divmod(f, g)[1].is_zero():
                return False
    return True


def all_monic(ctx, d):
    for tail in itertools.product(ctx.iter_elements(), repeat=d):
        yield Poly(ctx, tuple(tail) + (ctx.one,))


def scan_roots(f, ext):
    """Roots by trying every element of ext, with multiplicity, lex order."""
    fe = f.embed_into(ext) if ext is not f.ctx else f
    roots = []
    for e in ext.iter_elements():
        if fe(e).is_zero():
            roots.extend([e] * root_multiplicity(fe, e))
    return roots


# ---------------------------------------------------------------------------
# frozen arithmetic facts

def test_divmod_frozen_gf3():
    f = Poly.from_ints(F3, [0, 1, 0, 1])   # T^3 + T
    g = Poly.from_ints(F3, [1, 0, 1])      # T^2 + 1
    q, r = divmod(f, g)
    assert q == Poly.gen(F3)
    assert r.is_zero()


def test_gcd_frozen_gf5():
    # T = -2 = 3 is a shared root: 3^2 + 1 = 10 = 0 in GF(5)
    f = Poly.from_ints(F5, [1, 0, 1])      # T^2 + 1
    g = Poly.from_ints(F5, [2, 1])         # T + 2
    assert poly_gcd(f, g) == g
    assert poly_gcd(f, Poly.from_ints(F5, [1, 1])).is_one()


def test_gcd_both_zero():
    z = Poly.zero(F5)
    with pytest.raises(BothZero):
        poly_gcd(z, z)


def test_degree_sentinel():
    assert Poly.zero(F3).degree is NEG_INF
    assert NEG_INF < 0
    with pytest.raises(ZeroPolynomial):
        Poly.zero(F3).lc


def test_irreducible_frozen():
    assert is_irreducible(Poly.from_ints(F3, [1, 0, 1]))        # T^2+1 /GF(3)
    assert not is_irreducible(Poly.from_ints(F5, [1, 0, 1]))    # 2^2 = -1
    assert is_irreducible(Poly.from_ints(F5, [1, 1, 1]))        # T^2+T+1
    assert not is_irreducible(Poly.from_ints(F3, [0, 1, 1]))    # T*(T+1)
    with pytest.raises(ConstantPolynomial):
        is_irreducible(Poly.from_ints(F3, [2]))


@pytest.mark.parametrize("ctx,maxdeg", [(F4, 4), (F3, 4), (F5, 3)])
def test_irreducible_vs_oracle(ctx, maxdeg):
    # all_monic includes every f with f(0) = 0; each f is also taken with
    # a leading coefficient other than 1, and g^2 and g^p are reducible
    # for every irreducible g
    lead = ctx.generator
    for d in range(2, maxdeg + 1):
        for f in all_monic(ctx, d):
            irreducible = oracle_is_irreducible(f)
            assert is_irreducible(f) == irreducible, str(f)
            g = f * lead
            assert is_irreducible(g) == oracle_is_irreducible(g), str(g)
            if irreducible:
                assert not is_irreducible(f ** 2), str(f)
                assert not is_irreducible(f ** ctx.p), str(f)


def test_irreducible_degree_five_frozen():
    f = Poly.from_ints(F3, [1, 2, 0, 0, 0, 1])
    assert is_irreducible(f) == oracle_is_irreducible(f)
    g = Poly.from_ints(F3, [1, 0, 0, 0, 0, 1])  # T^5+1 = (T+1)^5 has a root
    assert not is_irreducible(g)


HALF_DEGREE = [(F3, d) for d in (1, 2, 3, 5, 6, 7)] + [(F9, d)
                                                        for d in (2, 3, 4)]


@pytest.mark.parametrize("ctx,d", HALF_DEGREE,
                         ids=[f"{ctx.name}-deg{d}" for ctx, d in HALF_DEGREE])
def test_distinct_degree_stops_at_half_degree(ctx, d, monkeypatch):
    # an irreducible f of degree d has no factor of degree <= d/2, so after
    # floor(d/2) Frobenius steps, each a q-th power, what is left is f
    # itself, yielded monic as its own part, or as the rest when d is past
    # top
    f = next(f for f in all_monic(ctx, d) if is_irreducible(f))
    real, steps = polyalg._exp_frob, []

    def counted(a, step, field):
        steps.append(step)
        return real(a, step, field)

    monkeypatch.setattr(polyalg, "_exp_frob", counted)
    one = Poly.one(ctx)
    cases = [(f, d, [(d, f), (0, one)]), (f * ctx.generator, d,
                                          [(d, f), (0, one)])]
    if d > 2:
        cases.append((f, d - 1, [(0, f)]))
    for g, top, parts in cases:
        steps.clear()
        got = polyalg._distinct_degree(polyalg._to_exps(g, ctx), top, ctx)
        assert [(e, polyalg._from_exps(ctx, a)) for e, a in got] == parts
        assert steps == [ctx.order] * (d // 2)


def test_roots_in_extension_frozen():
    f = Poly.from_ints(F3, [1, 0, 1])
    assert roots_in(f, F3) == []
    rs = roots_in(f, F9)
    i = F9.elem([0, 1])
    assert rs == [i, 2 * i]        # lex order on coefficient vectors
    for r in rs:
        assert f(r).is_zero()


def test_root_multiplicity():
    # (T-1)^2 (T+1) over GF(5)
    one = Poly.from_ints(F5, [4, 1])
    f = one * one * Poly.from_ints(F5, [1, 1])
    assert root_multiplicity(f, F5.elem(1)) == 2
    assert root_multiplicity(f, F5.elem(4)) == 1
    assert root_multiplicity(f, F5.elem(2)) == 0
    with pytest.raises(ZeroPolynomial):
        roots_in(Poly.zero(F5), F5)


@pytest.mark.parametrize("pn", [(3, 2), (2, 3), (5, 2)])
def test_one_root_finds_a_root_or_refuses(pn):
    # every product of three distinct linear factors has a root found; an
    # irreducible quadratic has none, and no shift splits it
    ctx = gf.create_field(*pn)
    x = Poly.gen(ctx)
    elems = list(ctx.iter_elements())
    for roots in itertools.combinations(elems, 3):
        g = functools.reduce(operator.mul, [x - r for r in roots])
        assert one_root(g, ctx) in roots
    irreducible = next(f for f in (x * x + x * b + c for b in elems
                                   for c in elems) if is_irreducible(f))
    with pytest.raises(CertificateFailed, match="distinct linear"):
        one_root(irreducible, ctx)


@pytest.mark.parametrize("pn,d", [((3, 1), 7), ((2, 1), 6), ((5, 1), 4),
                                  ((3, 2), 3), ((2, 2), 4)])
def test_one_root_with_a_corrupt_frobenius_image(pn, d, monkeypatch):
    # tau_1 replaced by X: the shifts no longer read traces, but every part
    # is still a gcd with g, so one_root finds a true root or refuses
    F = gf.create_field(*pn)
    ext = gf.create_field(F.p, F.n * d)
    real = polyalg._frobenius_images

    def corrupt(f, count, ctx):
        images = real(f, count, ctx)
        images[1] = [None, 0]
        return images

    monkeypatch.setattr(polyalg, "_frobenius_images", corrupt)
    tails = itertools.product(list(F.iter_elements()), repeat=d)
    irreducibles = list(itertools.islice(
        (f for f in (Poly(F, list(t) + [F.one]) for t in tails)
         if is_irreducible(f)), 2))
    for f in irreducibles + [irreducibles[0] * irreducibles[1]]:
        try:
            r = one_root(f, ext)
        except CertificateFailed:
            continue
        assert f(r).is_zero()


@pytest.mark.parametrize("src,tgt", [((2, 2), (2, 4)), ((2, 3), (2, 6)),
                                     ((3, 2), (3, 4))])
def test_embedding_uses_the_lex_least_root(src, tgt):
    src, tgt = gf.create_field(*src), gf.create_field(*tgt)
    modulus = Poly(tgt, [tgt.elem(c) for c in src.modulus])
    first = next(e for e in tgt.iter_elements() if modulus(e).is_zero())
    assert gf._embed_powers(src, tgt)[1] == first


@pytest.mark.parametrize("src,tgt", [((2, 3), (2, 6)), ((3, 2), (3, 4)),
                                     ((3, 1), (3, 2))])
def test_embedding_refuses_an_image_that_is_no_root(src, tgt, monkeypatch):
    # _embed_powers takes one root and trusts only what it checks: a
    # patched one_root that hands back a non-root must fail the certificate
    src, tgt = gf.create_field(*src), gf.create_field(*tgt)
    monkeypatch.setattr(polyalg, "one_root", lambda g, ext: ext.one)
    with pytest.raises(CertificateFailed, match="no root of the modulus"):
        gf._embed_powers.__wrapped__(src, tgt)


def test_division_guards():
    f = Poly.from_ints(F3, [1, 1])
    with pytest.raises(DivisionByZero):
        divmod(f, Poly.zero(F3))
    with pytest.raises(CtxMismatch):
        f + Poly.gen(F5)


# ---------------------------------------------------------------------------
# property tests

def polys(ctx, maxdeg=5):
    return st.lists(st.integers(0, ctx.order - 1), max_size=maxdeg + 1).map(
        lambda cs: Poly.from_ints(ctx, cs))


def factored_polys(ctx):
    """Products of small factors with repeats, times T^k; constants too."""
    coeff = st.integers(0, ctx.order - 1).map(ctx.from_int)
    factor = st.lists(coeff, min_size=1, max_size=3).map(
        lambda cs: Poly(ctx, cs)).filter(bool)
    return st.tuples(
        st.lists(st.tuples(factor, st.integers(1, 2)), max_size=3),
        st.integers(0, 2),
    ).map(lambda t: functools.reduce(
        operator.mul, [f ** m for f, m in t[0]], Poly.gen(ctx) ** t[1]))


@pytest.mark.parametrize("pn", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2),
                                (5, 1), (7, 1)])
@settings(max_examples=25, deadline=None)
@given(data=st.data())
def test_roots_in_matches_the_scan(pn, data):
    base = gf.create_field(*pn)
    f = data.draw(factored_polys(base))
    ext = gf.create_field(pn[0], pn[1] * data.draw(st.integers(1, 4)))
    assert roots_in(f, ext) == scan_roots(f, ext)
    f, want = inseparable_roots(base, ext)
    assert roots_in(f, ext) == want


@functools.lru_cache(maxsize=None)
def inseparable_roots(base, ext):
    """(f, roots of f in ext by scan) for f = g^p times a squared
    irreducible quadratic, g = T^3 + T + 1; scanned once per field pair."""
    quad = next(Poly(base, (a, b, base.one))
                for a in base.iter_elements() for b in base.iter_elements()
                if is_irreducible(Poly(base, (a, b, base.one))))
    f = Poly.from_ints(base, [1, 1, 0, 1]) ** base.p * quad ** 2
    return f, scan_roots(f, ext)


@settings(max_examples=60, deadline=None)
@given(polys(F5), polys(F5))
def test_divmod_reconstruction(f, g):
    if g.is_zero():
        return
    q, r = divmod(f, g)
    assert q * g + r == f
    assert r.is_zero() or r.degree < g.degree
    oq, orr = oracle_divmod(f, g)
    assert (q, r) == (oq, orr)


@settings(max_examples=60, deadline=None)
@given(polys(F4), polys(F4))
def test_gcd_invariants(f, g):
    if f.is_zero() and g.is_zero():
        return
    d = poly_gcd(f, g)
    assert d.lc == F4.one
    assert (f % d).is_zero() and (g % d).is_zero()
    if not f.is_zero() and not g.is_zero():
        assert poly_gcd(f // d, g // d).is_one()


# ---------------------------------------------------------------------------
# Exponent (Zech logarithm) kernels against a FieldElem schoolbook oracle.
# The oracle works on coefficient lists with FieldElem operations only, so
# it never reaches the kernels that Poly dispatches to.

TABLE_FIELDS = [(2, 1), (3, 1), (2, 2), (2, 3), (3, 2), (5, 2), (3, 3),
                (3, 4), (3, 6), (2, 10)]
LOOP_FIELDS = [(2, 11)]


def school_mul(f, g):
    ctx = f.ctx
    out = [ctx.zero] * max(0, len(f.coeffs) + len(g.coeffs) - 1)
    for i, x in enumerate(f.coeffs):
        for j, y in enumerate(g.coeffs):
            out[i + j] = out[i + j] + x * y
    return Poly(ctx, out)


def school_gcd(f, g):
    while not g.is_zero():
        f, g = g, oracle_divmod(f, g)[1]
    inv = f.lc.inverse()
    return Poly(f.ctx, [c * inv for c in f.coeffs])


def school_powmod(f, e, m):
    acc = oracle_divmod(Poly.one(f.ctx), m)[1]
    for _ in range(e):
        acc = oracle_divmod(school_mul(acc, f), m)[1]
    return acc


def powmod(f, e, m):
    """f^e mod m by gf.power, each product reduced mod m."""
    return gf.power(f % m, e, lambda a, b: a * b % m, Poly.one(f.ctx) % m)


def school_pow(f, e):
    acc = Poly(f.ctx, [f.ctx.one])
    for _ in range(e):
        acc = school_mul(acc, f)
    return acc


def school_add(f, g):
    a, b = list(f.coeffs), list(g.coeffs)
    if len(a) < len(b):
        a, b = b, a
    for i, y in enumerate(b):
        a[i] = a[i] + y
    return Poly(f.ctx, a)


def school_lowest_terms(num, den):
    """(num, den) coefficient tuples of num/den reduced, den monic."""
    ctx = num.ctx
    if num.is_zero():
        return (), (ctx.one,)
    g = school_gcd(num, den)
    num, den = oracle_divmod(num, g)[0], oracle_divmod(den, g)[0]
    inv = den.lc.inverse()
    return (tuple(c * inv for c in num.coeffs),
            tuple(c * inv for c in den.coeffs))


def school_compose(f, g, np_, dp_):
    """f/g with the variable replaced by np_/dp_, as school_lowest_terms;
    None where the substituted denominator vanishes."""
    ctx = f.ctx
    num, den = (Poly(ctx, c) for c in school_lowest_terms(f, g))
    d = max(len(num.coeffs), len(den.coeffs)) - 1

    def hom(p):
        acc = Poly(ctx, [])
        for i, c in enumerate(p.coeffs):
            term = school_mul(school_pow(np_, i), school_pow(dp_, d - i))
            acc = school_add(acc, Poly(ctx, [c * t for t in term.coeffs]))
        return acc

    top, bottom = hom(num), hom(den)
    if bottom.is_zero():
        return None
    return school_lowest_terms(top, bottom)


def check_against_oracle(f, g, e, sub):
    """Every kernel on (f, g) against the schoolbook; ``sub`` is a
    (numerator, denominator) pair substituted into f/g and multiplied
    with it."""
    assert f * g == school_mul(f, g)
    ctx = f.ctx
    for x in (ctx.zero, ctx.one, ctx.from_int(ctx.order - 1)):
        # the value is sum c_i x^i, with x^i as repeated products
        assert f(x) == functools.reduce(operator.add, [
            c * functools.reduce(operator.mul, [x] * i, ctx.one)
            for i, c in enumerate(f.coeffs)], ctx.zero)
    assert f ** e == school_pow(f, e)
    if not g.is_zero() and ctx._zech is None:
        # rational functions live over log-table fields only
        with pytest.raises(TooLarge):
            RatFunc(f, g)
    elif not g.is_zero():
        r = RatFunc(f, g)
        assert (r.num.coeffs, r.den.coeffs) == school_lowest_terms(f, g)
        if not sub[1].is_zero():
            prod = r * RatFunc(*sub)
            assert (prod.num.coeffs, prod.den.coeffs) == school_lowest_terms(
                school_mul(f, sub[0]), school_mul(g, sub[1]))
        want = school_compose(f, g, *sub)
        if want is None:
            with pytest.raises(DivisionByZero):
                r.compose_fractional(*sub)
        else:
            out = r.compose_fractional(*sub)
            assert (out.num.coeffs, out.den.coeffs) == want
    if g.is_zero():
        with pytest.raises(DivisionByZero):
            divmod(f, g)
        with pytest.raises(DivisionByZero):
            powmod(f, e, g)
    else:
        assert divmod(f, g) == oracle_divmod(f, g)
        assert powmod(f, e, g) == school_powmod(f, e, g)
    if f.is_zero() and g.is_zero():
        with pytest.raises(BothZero):
            poly_gcd(f, g)
    else:
        assert poly_gcd(f, g) == school_gcd(f, g)


@pytest.mark.parametrize("fields", [TABLE_FIELDS, LOOP_FIELDS],
                         ids=["tables", "loops"])
@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_kernels_match_the_schoolbook_oracle(fields, data):
    ctx = gf.create_field(*data.draw(st.sampled_from(fields)))
    assert (ctx._zech is not None) == (fields is TABLE_FIELDS)
    # zero and one often, so sparse and monic polynomials come up
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, ctx.order - 1))
    f, g = (Poly(ctx, [ctx.from_int(c) for c in data.draw(
        st.lists(coeff, max_size=8))]) for _ in range(2))
    sub = tuple(Poly(ctx, [ctx.from_int(c) for c in data.draw(
        st.lists(coeff, max_size=3))]) for _ in range(2))
    e = data.draw(st.integers(0, 12))
    check_against_oracle(f, g, e, sub)
    # a shared factor makes the gcd nontrivial
    if not g.is_zero():
        check_against_oracle(school_mul(f, g), g, e, sub)


@settings(max_examples=120, deadline=None)
@given(data=st.data())
def test_kept_exponents_equal_a_fresh_conversion(data):
    # every kernel output keeps its exponent list; reading it back must
    # give what converting its coefficients afresh gives
    ctx = gf.create_field(*data.draw(st.sampled_from(TABLE_FIELDS)))
    coeff = st.one_of(st.just(0), st.just(1), st.integers(0, ctx.order - 1))
    f, g = (Poly(ctx, [ctx.from_int(c) for c in data.draw(
        st.lists(coeff, max_size=7))]) for _ in range(2))
    outs = [f * g, f ** data.draw(st.integers(2, 5))]
    if g:
        outs += divmod(f, g)
    if f and g:
        outs += [RatFunc(f, g).num, RatFunc(f, g).den]
    if f or g:
        outs.append(poly_gcd(f, g))
    outs.append(outs[0] * outs[-1])  # a kernel output fed back in
    log = ctx._log
    for h in outs:
        fresh = [log.get(c.coeffs) for c in h.coeffs]
        assert h._exps is not None and list(h._exps) == fresh
        kept = polyalg._to_exps(h, ctx)
        assert kept == fresh and kept is not polyalg._to_exps(h, ctx)
    assert f._exps is None and polyalg._to_exps(f, ctx) == [
        log.get(c.coeffs) for c in f.coeffs]


def peel_by_division(a, b, ctx):
    """(m, a / b^m) by the division loop alone."""
    m = 0
    while len(a) >= len(b):
        quo, rem = polyalg._exp_divmod(list(a), b, ctx)
        if rem:
            break
        a, m = quo, m + 1
    return m, a


@pytest.mark.parametrize("pn", [(2, 2), (2, 3), (3, 2), (3, 5)],
                         ids=["GF(4)", "GF(8)", "GF(9)", "GF(3^5)"])
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_equal_degree_peel_matches_division(pn, data):
    # at equal degrees _exp_peel compares a with g^c b slot by slot and
    # divides nothing; it must agree with the division loop on exact pairs,
    # on pairs one slot away from exact (a zero entry made nonzero or a
    # nonzero one zero or changed) and on unrelated pairs
    ctx = gf.create_field(*pn)
    m = ctx.order - 1
    entry = st.one_of(st.none(), st.integers(0, m - 1))
    b = data.draw(st.lists(entry, min_size=1, max_size=4)) + [
        data.draw(st.integers(0, m - 1))]
    kind = data.draw(st.sampled_from(["exact", "moved", "unrelated"]))
    if kind == "unrelated":
        a = data.draw(st.lists(entry, min_size=len(b) - 1,
                               max_size=len(b) - 1)) + [
            data.draw(st.integers(0, m - 1))]
    else:
        c = data.draw(st.integers(0, m - 1))
        a = [None if y is None else (y + c) % m for y in b]
        if kind == "moved":
            j = data.draw(st.integers(0, len(b) - 2))
            a[j] = data.draw(entry.filter(lambda x, old=a[j]: x != old))
    got = polyalg._exp_peel(a, b, ctx)
    assert got == peel_by_division(a, b, ctx)
    if kind != "unrelated":
        assert got[0] == (kind == "exact")


@pytest.mark.parametrize("pn", TABLE_FIELDS + LOOP_FIELDS)
def test_kernel_edge_cases(pn):
    ctx = gf.create_field(*pn)
    c = ctx.from_int(ctx.order - 1)
    zero, one = Poly.zero(ctx), Poly.one(ctx)
    x = Poly.gen(ctx)
    long_ = Poly(ctx, [c, ctx.zero, ctx.zero, ctx.one, ctx.zero, c])
    non_monic = Poly(ctx, [ctx.one, c, c])
    cases = [(zero, long_), (long_, zero), (Poly.constant(c), long_),
             (long_, Poly.constant(c)), (x, long_), (long_, non_monic),
             (non_monic * non_monic, non_monic), (one, one),
             # X^2 cancels in the first step, so a quotient digit is zero
             (x * x * x + x * x + 1, x + 1)]
    # substitutions: a zero coefficient over a non-monic denominator, a
    # constant denominator, and numerator and denominator of unequal degree
    subs = [(Poly(ctx, [ctx.zero, c]), Poly(ctx, [ctx.one, c])),
            (x + 1, Poly.constant(c)),
            (non_monic, x + c)]
    for f, g in cases:
        for e, sub in zip((0, 1, 2, 27), itertools.cycle(subs)):
            check_against_oracle(f, g, e, sub)
    # x + 1 squared in characteristic 2 has no middle term
    if ctx.p == 2:
        assert (x + 1) * (x + 1) == x * x + 1


def test_table_kernels_make_no_field_elements(monkeypatch):
    ctx = gf.create_field(3, 4)
    assert ctx._zech is not None
    rng = random.Random(81)
    f, g, m = (Poly(ctx, [ctx.from_int(rng.randrange(ctx.order))
                          for _ in range(d)]) for d in (9, 6, 5))
    calls = []
    for name in ("__mul__", "__add__", "__sub__"):
        real = getattr(gf.FieldElem, name)

        def counted(self, other, _real=real, _name=name):
            calls.append(_name)
            return _real(self, other)
        monkeypatch.setattr(gf.FieldElem, name, counted)
    f * g
    divmod(f, g)
    poly_gcd(f * m, g * m)
    powmod(f, ctx.order, m)
    f ** 7
    r = RatFunc(f * m, g * m)
    r.compose_fractional(m, g)
    r * RatFunc(m, g)
    assert calls == []


# ---------------------------------------------------------------------------
# root_multiplicity and derivative against coefficient-level oracles


def oracle_multiplicity(f, c):
    """Peel (X - c) with the oracle's own long division."""
    ext = c.ctx
    fe = f.embed_into(ext) if ext is not f.ctx else f
    lin = Poly(ext, (-c, ext.one))
    m = 0
    while not fe.is_zero():
        quo, rem = oracle_divmod(fe, lin)
        if not rem.is_zero():
            break
        m, fe = m + 1, quo
    return m


def _irreducible_of_degree(ctx, d):
    return next(f for f in all_monic(ctx, d) if oracle_is_irreducible(f))


def _multiplicity_cases(base, ext, seed):
    """(f, c, m): f over base is P^m times a cofactor with no root at c,
    where P over base has c as a root (P = X - c when ext is base)."""
    rng = random.Random(seed)
    if ext is base:
        c = ext.from_int(rng.randrange(1, ext.order))
        minpoly = Poly(ext, (-c, ext.one))
    else:
        minpoly = _irreducible_of_degree(base, ext.n // base.n)
        c = next(e for e in ext.iter_elements() if minpoly(e).is_zero())
    for m in range(4):
        while True:
            cof = Poly(base, [base.from_int(rng.randrange(base.order))
                              for _ in range(rng.randrange(1, 6))])
            if not cof.is_zero() and not cof(c).is_zero():
                break
        yield minpoly ** m * cof, c, m


@pytest.mark.parametrize("base,ext", [((3, 2), (3, 2)), ((3, 1), (3, 4)),
                                      ((2, 11), (2, 11))],
                         ids=["table", "extension", "above-cap"])
def test_root_multiplicity_matches_the_division_oracle(base, ext):
    base, ext = gf.create_field(*base), gf.create_field(*ext)
    assert (ext._zech is None) == (ext.order > gf.TABLE_CAP)
    seen = set()
    for f, c, m in _multiplicity_cases(base, ext, ext.order):
        assert root_multiplicity(f, c) == oracle_multiplicity(f, c) == m
        seen.add(m)
        # a second root of the cofactor side does not disturb the count
        g = f * Poly(base, (base.one, base.one))
        assert root_multiplicity(g, c) == oracle_multiplicity(g, c)
    assert seen == {0, 1, 2, 3}
    assert root_multiplicity(Poly.zero(base), c) == 0


@pytest.mark.parametrize("pn", [(2, 1), (2, 3), (3, 1), (3, 2), (7, 1),
                                (2, 11)])
def test_derivative_matches_the_coefficient_formula(pn):
    ctx = gf.create_field(*pn)
    rng = random.Random(ctx.order)
    for deg in (0, 1, ctx.p - 1, ctx.p, ctx.p + 1, 2 * ctx.p + 3, 17):
        f = Poly(ctx, [ctx.from_int(rng.randrange(ctx.order))
                       for _ in range(deg)] + [ctx.one])
        # i * c_i as c_i added i times: no int coercion, no table product
        expected = []
        for i, c in enumerate(f.coeffs):
            acc = ctx.zero
            for _ in range(i):
                acc = acc + c
            expected.append(acc)
        assert f.derivative() == Poly(ctx, expected[1:])
        if deg >= ctx.p:
            assert f.derivative().coeff(ctx.p - 1).is_zero()


@settings(max_examples=40, deadline=None)
@given(polys(F9, 4), polys(F9, 4))
def test_product_rule(f, g):
    lhs = (f * g).derivative()
    assert lhs == f.derivative() * g + f * g.derivative()


@settings(max_examples=30, deadline=None)
@given(polys(F9, 3))
def test_frob_power_is_cubing(f):
    assert f.frob_power(1) == f ** 3


@settings(max_examples=30, deadline=None)
@given(polys(F3, 3), polys(F3, 2), st.integers(0, 8))
def test_compose_evaluates(f, g, k):
    pt = F9.from_int(k)
    assert f.compose(g)(pt) == f(g(pt))


def test_evaluation_embeds_only_into_a_proper_extension(monkeypatch):
    # the sum of the terms against sum c_i x^i; a point of the coefficient
    # field needs no embedding, a point of GF(9) needs one per coefficient
    # of f.  On X^9 - X over GF(9) the two terms cancel at every point
    real, calls = gf.embed, []

    def spy(e, tgt):
        calls.append(e)
        return real(e, tgt)
    monkeypatch.setattr(gf, "embed", spy)
    g = Poly.from_ints(F3, [2, 1, 0, 1])
    frob = Poly.from_ints(F9, [0, -1] + [0] * 7 + [1])
    for f in (Poly.from_ints(F9, [5, 0, 7, 1]), g, frob):
        for x in F9.iter_elements():
            want = F9.zero
            for i, c in enumerate(f.coeffs):
                want = want + real(c, F9) * x ** i
            calls.clear()
            assert f(x) == want
            assert len(calls) == (0 if f.ctx is F9 else len(f.coeffs))
    calls.clear()
    assert g(1) == F3.one and g(2) == F3.zero
    assert calls == []
    assert all(frob(x).is_zero() for x in F9.iter_elements())


# ---------------------------------------------------------------------------
# rational functions

def test_ratfunc_canonical_form():
    t = Poly.gen(F5)
    r = RatFunc(t * t - 1, t - 1)
    assert r.num == t + 1 and r.den.is_one()
    s = RatFunc(2 * t, Poly.from_ints(F5, [4]))
    assert s.num == 3 * t and s.den.is_one()
    assert RatFunc(t, t * t) == RatFunc(Poly.one(F5), t)


def test_ratfunc_equality_is_structural_and_semantic():
    t = Poly.gen(F5)
    a = RatFunc(t + 1, t + 2)
    b = RatFunc((t + 1) * (t + 3), (t + 2) * (t + 3))
    assert a == b
    assert hash(a) == hash(b)


def test_ratfunc_field_ops():
    t = Poly.gen(F3)
    h = RatFunc(t * t + 1, t ** 3 - t)
    assert h * h.inverse() == RatFunc.one(F3)
    assert h - h == RatFunc.zero(F3)
    assert (h + 1) * (h - 1) == h * h - 1
    assert h ** -2 == (h * h).inverse()
    with pytest.raises(DivisionByZero):
        h / RatFunc.zero(F3)
    with pytest.raises(DivisionByZero):
        RatFunc(t, Poly.zero(F3))


def test_ratfunc_valuations():
    t = Poly.gen(F5)
    f = RatFunc(t * t, t - 1)
    assert f.valuation(F5.elem(0)) == 2
    assert f.valuation(F5.elem(1)) == -1
    assert f.valuation(F5.elem(3)) == 0
    assert f.valuation(INFINITY) == -1
    with pytest.raises(ZeroValuation):
        RatFunc.zero(F5).valuation(INFINITY)


def test_ratfunc_valuation_in_extension():
    t = Poly.gen(F3)
    f = RatFunc(t * t + 1, Poly.one(F3))
    i = F9.elem([0, 1])
    assert f.valuation(i) == 1
    assert f.valuation(INFINITY) == -2


def test_ratfunc_evaluation_pole():
    t = Poly.gen(F5)
    f = RatFunc(t, t - 1)
    assert f(F5.elem(2)) == F5.elem(2)
    with pytest.raises(DivisionByZero):
        f(F5.elem(1))


def test_compose_fractional_frozen():
    t = Poly.gen(F3)
    sq = RatFunc(t * t, Poly.one(F3))
    inv = sq.compose_fractional(Poly.one(F3), t)   # substitute 1/T
    assert inv == RatFunc(Poly.one(F3), t * t)


@settings(max_examples=40, deadline=None)
@given(polys(F3, 3), polys(F3, 3), st.integers(0, 8))
def test_compose_fractional_matches_evaluation(fn, fd, k):
    if fd.is_zero():
        return
    f = RatFunc(fn, fd)
    ml = Poly.from_ints(F3, [2, 1])   # T + 2
    md = Poly.from_ints(F3, [1, 1])   # T + 1
    g = f.compose_fractional(ml, md)
    pt = F9.from_int(k)
    if md(pt).is_zero():
        return
    image = ml(pt) * md(pt).inverse()
    if f.den(image).is_zero() or g.den(pt).is_zero():
        return
    assert g(pt) == f(image)


@settings(max_examples=30, deadline=None)
@given(polys(F9, 2), polys(F9, 2))
def test_qpow_of_a_rational_scalar(fn, fd):
    # qpow spreads a scalar's numerator and denominator exponent lists
    if fd.is_zero():
        return
    alg = KummerAlgebra(F9, 2, RatFunc.gen(F9))
    f = alg.scalar(RatFunc(fn, fd))
    assert f.qpow() == f ** 9
    assert f.qpow().coords[0] == RatFunc(fn ** 9, fd ** 9)


# ---------------------------------------------------------------------------
# literal syntax

def test_parse_format_roundtrip():
    cases = ["T^2+g*T+1", "(g+1)*T^2+2", "T", "g", "0", "T^3+2*T"]
    for text in cases:
        f = parse_poly(F9, text)
        assert parse_poly(F9, format_poly(f)) == f


def test_parse_known_values():
    f = parse_poly(F9, "T^2 + g*T + 1")
    assert f.coeffs == (F9.one, F9.elem([0, 1]), F9.one)
    g = parse_poly(F5, "-T^2+3")
    assert g == Poly.from_ints(F5, [3, 0, 4])


def test_parse_errors():
    # element literals share the term splitter, so they refuse them too
    for bad in ["", "T^", "2T", "((T)", "T^x", "*T", "T+"]:
        with pytest.raises(ParseError):
            parse_poly(F5, bad)
        with pytest.raises(ParseError):
            gf.parse_element(F9, bad.replace("T", "g"))


@pytest.mark.parametrize("literal", [
    "1" * 5000 + "*T^2+1", "T^" + "1" * 5000, "T+" + "1" * 5000,
    "T^\u00b2", "\u00b9*T"], ids=["coefficient", "exponent", "constant",
                                  "superscript-exponent",
                                  "superscript-coefficient"])
def test_every_bad_digit_run_is_a_parse_error(literal):
    # int() refuses runs past Python's int-string limit and superscript
    # digits with a plain ValueError; the parsers turn both into ParseError
    with pytest.raises(ParseError):
        parse_poly(F5, literal)
    with pytest.raises(ParseError):
        gf.parse_element(F9, literal.replace("T", "g"))


def test_a_degree_past_the_order_cap_is_refused():
    # no field reaches the cap, so no Poly of that degree is ever needed;
    # the degree is read from the terms before any coefficient list
    with pytest.raises(ParseError, match="exceeds the cap"):
        parse_poly(F5, f"T^{gf.ORDER_CAP + 1}+1")


def test_format_descending_order():
    f = Poly.from_ints(F5, [1, 0, 3])
    assert format_poly(f) == "3*T^2+1"


# ---------------------------------------------------------------------------
# the quotient algebra shared by the torsion field and the Kummer curves


def _torsion_q3():
    model = CycModel(Modulus(F3.zero, F3.one))
    c0, c1 = RatFunc.from_poly(model.c0), RatFunc.from_poly(model.c1)
    zero = RatFunc.zero(F3)
    return model, [-c0, zero, -c1] + [zero] * 5


def _curve(q):
    ctx = gf.field_from_order(q)
    curve = KummerCurve(ctx.zero, ctx.elem(2) if q == 5 else ctx.one, ctx.one)
    return curve, [curve.h] + [RatFunc.zero(ctx)] * (q - 2)


def _rank_one():
    H = RatFunc(Poly.from_ints(F5, [1, 0, 1]), Poly.from_ints(F5, [0, 1]))
    return KummerAlgebra(F5, 1, H), [H]


@pytest.mark.parametrize("build", [_torsion_q3, lambda: _curve(3),
                                   lambda: _curve(5), _rank_one],
                         ids=["torsion-q3", "curve-q3", "curve-q5", "rank1"])
def test_quotient_algebra_laws(build):
    alg, folded = build()
    ctx = alg.ctx
    q = ctx.order
    rng = random.Random(alg.n * q)

    def rand_elem():
        coords = [RatFunc.zero(ctx)] * alg.n
        for i in rng.sample(range(alg.n), min(2, alg.n)):
            coords[i] = RatFunc.from_poly(Poly.from_ints(ctx, [
                rng.randrange(q), 1]))
        return alg.from_coords(coords)

    # y^n is the relation folded once: -sum r_i y^i
    y = alg.y()
    assert (y ** alg.n).coords == tuple(folded)
    one = alg.one()
    assert y ** -3 * y ** 3 == one
    assert y ** -2 == (y * y).inverse()
    for _ in range(2):
        a, b, c = rand_elem(), rand_elem(), rand_elem()
        assert (a * b) * c == a * (b * c)
        assert a * (b + c) == a * b + a * c
        assert a * a.inverse() == one
        assert a.qpow() == a ** q


def _mult_det(e):
    """Norm as the determinant of multiplication by e, by Gaussian
    elimination over GF(q)(T): a route that uses no Galois conjugate."""
    alg, n = e.alg, e.alg.n
    cols, acc = [], e
    for _ in range(n):
        cols.append(acc.coords)
        acc = acc * alg.y()
    m = [[cols[j][i] for j in range(n)] for i in range(n)]
    det = RatFunc.one(alg.ctx)
    for col in range(n):
        piv = next((r for r in range(col, n) if m[r][col]), None)
        if piv is None:
            return RatFunc.zero(alg.ctx)
        if piv != col:
            m[col], m[piv] = m[piv], m[col]
            det = -det
        det = det * m[col][col]
        inv = m[col][col].inverse()
        for r in range(col + 1, n):
            if m[r][col]:
                f = m[r][col] * inv
                for c in range(col, n):
                    m[r][c] = m[r][c] - f * m[col][c]
    return det


def _sparse_torsion(q):
    # (x+1) y + y^(n-2)/x: two terms, one with a pole at x = 0
    ctx = gf.field_from_order(q)
    model = CycModel(next(iter_irreducible_moduli(ctx)))
    x = Poly.gen(ctx)
    return model.from_pairs([(1, RatFunc.from_poly(x + ctx.one)),
                             (model.n - 2, RatFunc(Poly.one(ctx), x))])


def _dense_kummer(q):
    ctx, rng = gf.field_from_order(q), random.Random(q)
    m = next(iter_irreducible_moduli(ctx))
    curve = KummerCurve(m.a, m.b, ctx.one)
    return curve.from_coords([
        RatFunc(Poly.from_ints(ctx, [rng.randrange(q) for _ in range(3)]),
                Poly.from_ints(ctx, [rng.randrange(1, q), 1]))
        for _ in range(curve.n)])


@pytest.mark.parametrize("build,q", [
    (_sparse_torsion, 3), (_sparse_torsion, 4), (_sparse_torsion, 5),
    (_dense_kummer, 3), (_dense_kummer, 4), (_dense_kummer, 5),
    (_dense_kummer, 8)],
    ids=["torsion-q3", "torsion-q4", "torsion-q5", "curve-q3", "curve-q4",
         "curve-q5", "curve-q8"])
def test_norm_is_the_multiplication_determinant(build, q):
    e = build(q)
    nm = e.norm()
    assert nm == _mult_det(e)
    assert e * e.inverse() == e.alg.one()
    assert (e * e).norm() == nm * nm
    assert e.alg.y().norm() == _mult_det(e.alg.y())


def _mixed_dens(ctx, n, rng):
    """n coordinates over the distinct denominators v, v + 1 and 1 in
    turn, each numerator v^2 + c with no root at 0 or -1."""
    dens = [Poly.gen(ctx), Poly.from_ints(ctx, [1, 1]), Poly.one(ctx)]
    cs = [c for c in ctx.iter_elements() if c and c != -ctx.one]
    return [RatFunc(Poly(ctx, (rng.choice(cs), ctx.zero, ctx.one)),
                    dens[i % 3]) for i in range(n)]


@pytest.mark.parametrize("q", [3, 5, 8], ids=lambda q: f"q{q}")
def test_native_norm_is_the_multiplication_determinant(q):
    # the norm read off the native form (numerators over one denominator,
    # here the product of distinct coordinate denominators, so in no
    # lowest terms) against the determinant oracle
    ctx = gf.field_from_order(q)
    m = next(iter_irreducible_moduli(ctx))
    curve = KummerCurve(m.a, m.b, ctx.one)
    e = curve.from_coords(_mixed_dens(ctx, curve.n, random.Random(q)))
    assert e.den == polyalg._to_exps(Poly.from_ints(ctx, [0, 1, 1]), ctx)
    num, den = e.norm_exps()
    assert len(den) > 1 and den[-1] == 0
    norm = RatFunc(polyalg._from_exps(ctx, num), polyalg._from_exps(ctx, den))
    assert norm == e.norm() == _mult_det(e)


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
@settings(max_examples=8, deadline=None)
@given(data=st.data())
def test_from_coords_and_coords_round_trip(q, data):
    # coords reads back the reduced RatFuncs that from_coords took, kept and
    # also rebuilt from the numerators over the common denominator
    ctx = gf.field_from_order(q)
    alg = KummerAlgebra(ctx, q - 1, RatFunc.gen(ctx))
    poly = st.lists(st.integers(0, q - 1), max_size=3).map(
        lambda c: Poly.from_ints(ctx, c))
    den = st.lists(st.integers(0, q - 1), max_size=2).map(
        lambda c: Poly.from_ints(ctx, c + [1]))
    coords = tuple(RatFunc(data.draw(poly), data.draw(den))
                   for _ in range(alg.n))
    e = alg.from_coords(coords)
    assert e.coords == coords
    assert polyalg.QuotientElem(alg, e.nums, e.den).coords == coords
    assert (e + alg.zero()).coords == coords


@pytest.mark.parametrize("q", [3, 5, 9], ids=lambda q: f"q{q}")
def test_sums_over_different_denominators(q):
    # a sum brings both operands to one denominator; the RatFunc sums of
    # the coordinates are the oracle
    ctx, rng = gf.field_from_order(q), random.Random(f"sums:{q}")
    alg = KummerAlgebra(ctx, q - 1, RatFunc.gen(ctx))
    a = alg.from_coords(_mixed_dens(ctx, alg.n, rng))
    b = alg.from_coords([RatFunc(r.num, r.den ** 2)
                         for r in _mixed_dens(ctx, alg.n, rng)])
    assert a.den != b.den
    assert (a + b).coords == tuple(x + y for x, y in zip(a.coords, b.coords))
    assert (a - b).coords == tuple(x - y for x, y in zip(a.coords, b.coords))
    r = RatFunc(Poly.gen(ctx) + 1, Poly.from_ints(ctx, [2 % q, 1]))
    assert a.scale(r).coords == tuple(x * r for x in a.coords)
    assert (a + b) * a == a * a + b * a


def test_only_an_overflow_lifts_the_denominator():
    # y^i for i < n is a monomial over 1; y^n = h folds once, over h's
    # denominator, and the inverse y^(n-1) / h keeps no larger one
    curve, _ = _curve(5)
    y, ctx = curve.y(), curve.ctx
    assert (y * y).den == (y * y * y).den == [0]
    assert (y ** curve.n).den == polyalg._to_exps(curve.h.den, ctx)
    assert y.inverse().den == polyalg._to_exps(curve.h.num.monic(), ctx)
    assert len(y.inverse().nums[-1]) == len(curve.h.den.coeffs)


@pytest.mark.parametrize("i,j", [(7, 6), (2, 7)])
def test_inverse_of_squared_torsion_binomials(i, j):
    # dense squares whose inverses carry large rational coefficients
    model = CycModel(Modulus(F3.zero, F3.one))
    x = Poly.gen(F3)
    for c in range(3):
        a = model.from_pairs([(i, RatFunc.from_poly(x + F3.elem(c))),
                              (j, RatFunc.from_poly(x + F3.elem(c + 1)))])
        sq = a * a
        assert sq * sq.inverse() == model.one()


@pytest.mark.parametrize("build", [lambda: _curve(5)[0],
                                   lambda: CycModel(Modulus(F3.zero, F3.one))],
                         ids=["curve-q5", "torsion-q3"])
def test_sigma_of_the_wrong_order_is_caught(build):
    alg = build()
    real = alg.galois_image
    alg.galois_image = lambda k: real(2 * k)   # sigma^2 has order n/2
    e = alg.one() + alg.y()
    with pytest.raises(CertificateFailed):
        e.norm()
    with pytest.raises(CertificateFailed):
        e.inverse()


def test_kummer_algebra_needs_roots_of_unity():
    # y -> zeta y generates the Galois group only if zeta of order n is
    # in GF(q), that is n | q-1
    h = RatFunc.from_poly(Poly.gen(F5))
    alg = KummerAlgebra(F5, 2, h)
    assert alg.galois_image(1) == -alg.y()
    with pytest.raises(WrongOrder):
        KummerAlgebra(F5, 3, h)
    with pytest.raises(WrongOrder):
        KummerAlgebra(F4, 2, RatFunc.from_poly(Poly.gen(F4)))


def test_from_coords_rejects_wrong_length():
    curve = KummerCurve(F3.zero, F3.one, F3.one)
    with pytest.raises(ValueError):
        curve.from_coords([RatFunc.one(F3)] * 3)
    with pytest.raises(ValueError):
        curve.from_coords([RatFunc.one(F3)])
