"""Field layer: deterministic construction against brute-force oracles."""

import importlib.util
import itertools
import pathlib
import random
import struct
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cycloff import gf
from cycloff.errors import (
    CtxMismatch,
    DivisionByZero,
    NoEmbedding,
    NotPrime,
    TooLarge,
    ZeroElement,
)


def _load_oracle():
    path = pathlib.Path(__file__).resolve().parent / "gf_oracle.py"
    spec = importlib.util.spec_from_file_location("gf_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


gf_oracle = _load_oracle()


# ---------------------------------------------------------------------------
# Oracles, written independently of the library internals.

def oracle_poly_mul(p, f, g):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    while out and out[-1] == 0:
        out.pop()
    return tuple(out)


def oracle_divides(p, d, f):
    """Does monic d divide f?  Long division from scratch."""
    f = list(f)
    while len(f) >= len(d):
        c = f[-1]
        if c:
            for k in range(len(d)):
                f[len(f) - len(d) + k] = (f[len(f) - len(d) + k] - c * d[k]) % p
        f.pop()
    return not any(f)


def oracle_is_irreducible(p, f):
    """Trial division by every monic polynomial of degree 1..deg(f)//2."""
    deg = len(f) - 1
    for d in range(1, deg // 2 + 1):
        for tail in itertools.product(range(p), repeat=d):
            div = tuple(tail) + (1,)
            if oracle_divides(p, div, f):
                return False
    return deg >= 1


def oracle_least_irreducible(p, n):
    if n == 1:
        return (0, 1)
    for tail in itertools.product(range(p), repeat=n):
        cand = tuple(tail) + (1,)
        if oracle_is_irreducible(p, cand):
            return cand
    raise AssertionError("unreachable")


# Frozen expected values, precomputed with the oracles above.  Note the
# ordering: (c_0, ..., c_{n-1}) compares c_0 first, so the highest-degree
# tail coefficients vary fastest while scanning.
EXPECTED_MODULI = {
    (2, 2): (1, 1, 1),           # T^2+T+1
    (3, 2): (1, 0, 1),           # T^2+1
    (2, 3): (1, 0, 1, 1),        # T^3+T^2+1
    (2, 4): (1, 0, 0, 1, 1),     # T^4+T^3+1
    (3, 4): (1, 0, 1, 1, 1),     # T^4+T^3+T^2+1
    (5, 1): (0, 1),              # T
    # every further field the pipelines and the divisor session build
    (2, 6): (1, 0, 0, 0, 0, 1, 1),
    (2, 8): (1, 0, 0, 0, 1, 1, 0, 1, 1),
    (2, 10): (1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1),
    (3, 5): (1, 0, 0, 0, 2, 1),
    (3, 6): (1, 0, 0, 0, 1, 1, 1),
    (3, 7): (1, 0, 0, 0, 0, 1, 2, 1),
    (3, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (3, 9): (1, 0, 0, 0, 0, 0, 2, 1, 0, 1),
    (5, 4): (1, 0, 1, 1, 1),
    (5, 8): (1, 0, 0, 0, 0, 1, 1, 0, 1),
    (7, 4): (1, 0, 0, 1, 1),
    (7, 6): (1, 0, 0, 0, 1, 0, 1),
}


@pytest.mark.parametrize("p,n", sorted(EXPECTED_MODULI))
def test_modulus_matches_frozen_value(p, n):
    assert gf.create_field(p, n).modulus == EXPECTED_MODULI[(p, n)]


@pytest.mark.parametrize("p,n", [(2, 2), (2, 3), (2, 4), (2, 5), (2, 6),
                                 (3, 2), (3, 3), (3, 4), (5, 2), (5, 3), (7, 2)])
def test_modulus_matches_oracle(p, n):
    assert gf.create_field(p, n).modulus == oracle_least_irreducible(p, n)


@pytest.mark.parametrize("p,n", sorted(k for k in EXPECTED_MODULI if k[1] > 1))
def test_modulus_is_the_lex_least_irreducible(p, n):
    # the search tests exponent lists with the distinct-degree kernel; by
    # trial division every candidate it walks past is reducible (a tail
    # with c_0 = 0 is divisible by T) and the modulus is not
    modulus = gf.create_field(p, n).modulus
    for tail in itertools.product(range(p), repeat=n):
        if tail + (1,) == modulus:
            break
        assert tail[0] == 0 or not oracle_is_irreducible(p, tail + (1,))
    assert oracle_is_irreducible(p, modulus)


def test_caching_gives_identical_contexts():
    assert gf.create_field(3, 2) is gf.create_field(3, 2)
    assert gf.create_field(5) is gf.create_field(5, 1)


def test_one_context_per_field_across_caps():
    # create_field is the one constructor: it shares the cached context and
    # refuses every field above its cap, GF(5^9) included
    assert gf._field_ctx(3, 2) is gf.create_field(3, 2)
    assert gf.create_field(2, 10) is gf._field_ctx(2, 10)
    with pytest.raises(TooLarge):
        gf.create_field(5, 9)
    with pytest.raises(TooLarge):
        gf.create_field(2, 23)
    with pytest.raises(NotPrime):
        gf.create_field(4, 2)


def test_create_field_guards():
    with pytest.raises(NotPrime):
        gf.create_field(6)
    with pytest.raises(TooLarge):
        gf.create_field(2, 21)
    with pytest.raises(NotPrime):
        gf.field_from_order(12)


def test_power_matches_repeated_multiplication():
    m = 101

    def mul(a, b):
        return a * b % m

    for x in (0, 1, 2, 57, 100):
        acc = 1
        for e in range(71):
            assert gf.power(x, e, mul, 1) == acc
            acc = mul(acc, x)


def test_power_zero_returns_one_untouched():
    def mul(a, b):
        raise AssertionError("e = 0 multiplies nothing")

    one = object()
    assert gf.power(5, 0, mul, one) is one


def test_power_counts_its_products():
    # bit_length - 1 squarings and popcount - 1 products into the result,
    # so never more than 2 * e.bit_length()
    calls = []

    def mul(a, b):
        calls.append(None)
        return a * b % 101

    for e in range(1, 300):
        calls.clear()
        gf.power(3, e, mul, 1)
        assert len(calls) == e.bit_length() + bin(e).count("1") - 2
        assert len(calls) <= 2 * e.bit_length()


def oracle_order(ctx, e):
    acc = e
    for k in range(1, ctx.order):
        if acc == ctx.one:
            return k
        acc = acc * e
    raise AssertionError("no order found")


@pytest.mark.parametrize("q,expected_coeffs", [
    (5, (2,)),       # 2 generates GF(5)*
    (3, (2,)),       # 2 generates GF(3)*
    (4, (0, 1)),     # g generates GF(4)*
    (9, (1, 1)),     # 1+g generates GF(9)* (g itself has order 4)
])
def test_primitive_element_frozen(q, expected_coeffs):
    ctx = gf.field_from_order(q)
    g = ctx.generator
    assert g.coeffs == expected_coeffs
    assert oracle_order(ctx, g) == q - 1


def test_primitive_element_is_least_with_full_order():
    for q in (4, 8, 9, 16, 25):
        ctx = gf.field_from_order(q)
        gen = ctx.generator
        for e in ctx.iter_elements():
            if e.coeffs == gen.coeffs:
                break
            if not e.is_zero():
                assert oracle_order(ctx, e) < q - 1


def test_gf4_multiplication_table():
    ctx = gf.create_field(2, 2)
    g = ctx.t_class
    assert (g * g).coeffs == (1, 1)          # g^2 = g+1
    assert (g * g * g) == ctx.one            # g^3 = 1
    table = {(a.to_int(), b.to_int()): (a * b).to_int()
             for a in ctx.iter_elements() for b in ctx.iter_elements()}
    # commutativity and the absence of zero divisors, exhaustively
    for (i, j), v in table.items():
        assert table[(j, i)] == v
        if i and j:
            assert v != 0


def test_gf9_class_of_t_has_order_four():
    ctx = gf.create_field(3, 2)
    t = ctx.t_class
    assert t * t == -ctx.one
    assert t ** 8 == ctx.one
    assert t ** 4 == ctx.one
    assert oracle_order(ctx, t) == 4


small_fields = st.sampled_from([(2, 1), (3, 1), (5, 1), (7, 1),
                                (2, 2), (3, 2), (2, 3), (5, 2)])


@settings(max_examples=60, deadline=None)
@given(small_fields, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6),
       st.integers(0, 10 ** 6))
def test_field_axioms(pn, ia, ib, ic):
    ctx = gf.create_field(*pn)
    a = ctx.from_int(ia % ctx.order)
    b = ctx.from_int(ib % ctx.order)
    c = ctx.from_int(ic % ctx.order)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    assert a + ctx.zero == a
    assert a * ctx.one == a
    assert a - a == ctx.zero
    if not a.is_zero():
        assert a * a.inverse() == ctx.one
        assert (a ** (ctx.order - 1)) == ctx.one


@settings(max_examples=40, deadline=None)
@given(small_fields, st.integers(0, 10 ** 6), st.integers(0, 10 ** 6))
def test_frobenius_is_additive(pn, ia, ib):
    ctx = gf.create_field(*pn)
    a = ctx.from_int(ia % ctx.order)
    b = ctx.from_int(ib % ctx.order)
    assert (a + b).frob() == a.frob() + b.frob()
    assert (a * b).frob() == a.frob() * b.frob()


def test_division_by_zero():
    ctx = gf.create_field(5)
    with pytest.raises(DivisionByZero):
        ctx.one / ctx.zero
    with pytest.raises(DivisionByZero):
        ctx.zero.inverse()


@pytest.mark.parametrize("p,n", [(3, 7), (3, 8), (3, 9), (5, 8), (2, 11)])
def test_packed_inverse_matches_fermat(p, n):
    # past the tables an inverse is extended Euclid against the modulus;
    # a^(Q-2) is the oracle
    ctx = gf.create_field(p, n)
    assert ctx.order > gf.TABLE_CAP
    rng = random.Random(f"inverse:{p}^{n}")
    units = [ctx.one.coeffs, ctx.t_class.coeffs, (p - 1,) + (0,) * (n - 1),
             (0,) * (n - 1) + (1,)]
    units += [tuple(rng.randrange(p) for _ in range(n)) for _ in range(200)]
    for a in units:
        if any(a):
            inv = ctx._poly_inv(a)
            assert inv == ctx._poly_pow(a, ctx.order - 2)
            assert ctx._mul(a, inv) == ctx.one.coeffs
    with pytest.raises(DivisionByZero):
        ctx._poly_inv(ctx.zero.coeffs)
    with pytest.raises(DivisionByZero):
        ctx.zero.inverse()


def test_ctx_mismatch_is_an_error():
    a = gf.create_field(3).one
    b = gf.create_field(5).one
    with pytest.raises(CtxMismatch):
        a + b
    with pytest.raises(CtxMismatch):
        a * b


def test_embed_gf3_into_gf9():
    src, tgt = gf.create_field(3), gf.create_field(3, 2)
    assert gf.embed(src.elem(2), tgt) == tgt.elem(2)
    for a in src.iter_elements():
        for b in src.iter_elements():
            assert gf.embed(a * b, tgt) == gf.embed(a, tgt) * gf.embed(b, tgt)
            assert gf.embed(a + b, tgt) == gf.embed(a, tgt) + gf.embed(b, tgt)


def test_embed_gf9_into_gf81():
    src, tgt = gf.create_field(3, 2), gf.create_field(3, 4)
    img = gf.embed(src.t_class, tgt)
    # class of T in GF(9) squares to -1; its image must as well
    assert img * img == -tgt.one
    # ring hom on a sample
    a, b = src.from_int(5), src.from_int(7)
    assert gf.embed(a * b, tgt) == gf.embed(a, tgt) * gf.embed(b, tgt)


def test_embed_reads_each_image_from_its_map():
    # GF(9) into a table field and into one above the cap: the first call
    # computes the power-basis sum, the second returns the stored image
    assert isqrt(gf.ORDER_CAP) == gf.TABLE_CAP
    src = gf.create_field(3, 2)
    for tgt in (gf.create_field(3, 4), gf.create_field(3, 8)):
        for a in src.iter_elements():
            img = gf.embed(a, tgt)
            assert img == gf._embed_sum(a, tgt)
            assert gf.embed(a, tgt) is img
        assert len(gf._embed_images(src, tgt)) == src.order


def test_embed_rejects_bad_degrees():
    with pytest.raises(NoEmbedding):
        gf.embed(gf.create_field(3, 2).one, gf.create_field(3, 3))
    with pytest.raises(NoEmbedding):
        gf.embed(gf.create_field(2, 2).one, gf.create_field(3, 2))


def test_dlog_and_nth_roots():
    ctx = gf.create_field(3, 2)
    g = ctx.generator
    for k in range(8):
        assert ctx.dlog(g ** k) == k
    # square roots: exactly the quadratic residues have two
    squares = {(e * e).coeffs for e in ctx.iter_elements() if not e.is_zero()}
    for e in ctx.iter_elements():
        roots = ctx.nth_roots(e, 2)
        if e.is_zero():
            assert roots == [ctx.zero]
        elif e.coeffs in squares:
            assert len(roots) == 2 and all(r * r == e for r in roots)
        else:
            assert roots == []


# ---------------------------------------------------------------------------
# Log/antilog tables against the packed/Fermat path they replace.

def oracle_field_mul(ctx, a, b):
    """Schoolbook product reduced by long division by the modulus."""
    prod = list(oracle_poly_mul(ctx.p, a, b))
    mod = ctx.modulus
    while len(prod) >= len(mod):
        c = prod[-1]
        for k in range(len(mod)):
            prod[len(prod) - len(mod) + k] = (
                prod[len(prod) - len(mod) + k] - c * mod[k]) % ctx.p
        prod.pop()
    return tuple(prod) + (0,) * (ctx.n - len(prod))


def check_table_ops(ctx, a, b, e):
    assert ctx._mul(a, b) == ctx._poly_mul(a, b)
    assert ctx._pow(a, e) == ctx._poly_pow(a, e)
    x = gf.FieldElem(ctx, a)
    if any(a):
        assert ctx._inv(a) == ctx._poly_inv(a)
        assert (x ** -1).coeffs == ctx._poly_inv(a)
    else:
        with pytest.raises(DivisionByZero):
            ctx._inv(a)
        with pytest.raises(DivisionByZero):
            x ** -1
    assert (x ** 0) == ctx.one


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (2, 3), (3, 2), (5, 2),
                                 (3, 3)])
def test_tables_match_the_polynomial_path_exhaustively(p, n):
    ctx = gf.create_field(p, n)
    assert ctx._log is not None and len(ctx._log) == ctx.order - 1
    elems = [e.coeffs for e in ctx.iter_elements()]
    # every element once, in lex order of (c_0, ..., c_{n-1})
    assert elems == sorted(set(elems)) and len(elems) == p ** n
    for i, a in enumerate(elems):
        for b in elems:
            check_table_ops(ctx, a, b, i)
    assert ctx._pow(ctx.zero.coeffs, 0) == ctx.one.coeffs
    assert ctx._pow(ctx.zero.coeffs, 5) == ctx.zero.coeffs


@pytest.mark.parametrize("p,n", [(2, 3), (3, 2), (3, 3)])
def test_zech_addition_matches_the_tuple_sum(p, n):
    # g^i + g^j = g^(i + zech[j - i]) on every pair, zero included
    ctx = gf.create_field(p, n)
    assert ctx._add == ctx._table_add
    elems = [e.coeffs for e in ctx.iter_elements()]
    for a in elems:
        for b in elems:
            assert ctx._add(a, b) == ctx._poly_add(a, b)


@settings(max_examples=80, deadline=None)
@given(st.sampled_from([(3, 6), (2, 10)]), st.integers(-3, 3 ** 6 + 3),
       st.integers(-3, 2 ** 10 + 3), st.integers(-1, 5000))
def test_tables_match_the_polynomial_path_at_the_cap(pn, ia, ib, e):
    ctx = gf.create_field(*pn)
    assert ctx._log is not None
    # negative draws stand for zero, so both operands hit it often
    a = ctx.from_int(max(ia, 0) % ctx.order).coeffs
    b = ctx.from_int(max(ib, 0) % ctx.order).coeffs
    check_table_ops(ctx, a, b, max(e, 0))


def test_field_above_the_cap_keeps_the_polynomial_path():
    """Above the cap, products take the packed-integer kernel and inverses
    are by Fermat; characteristic 2 and an odd one, against the oracle."""
    for p, n in ((2, 11), (3, 7)):
        ctx = gf.create_field(p, n)
        assert ctx.order > gf.TABLE_CAP
        assert ctx._log is None and ctx._exp is None
        assert ctx._add == ctx._poly_add
        g = ctx.generator
        acc = ctx.one
        for k in range(40):
            assert gf_oracle.bsgs_dlog(ctx, acc) == k
            nxt = acc * g
            assert nxt.coeffs == oracle_field_mul(ctx, acc.coeffs, g.coeffs)
            inv = nxt.inverse()
            assert nxt * inv == ctx.one
            assert oracle_field_mul(ctx, nxt.coeffs, inv.coeffs) == (
                ctx.one.coeffs)
            acc = nxt


# ---------------------------------------------------------------------------
# The packed-integer kernel of fields above the table cap.

def primes_up_to(m):
    return [p for p in range(2, m + 1) if gf.is_prime(p)]


def test_every_capped_extension_gets_a_slot_typecode():
    # without building fields: every (p, n >= 2) under the order cap
    pairs = [(p, n) for p in primes_up_to(isqrt(gf.ORDER_CAP))
             for n in range(2, gf.ORDER_CAP.bit_length())
             if p ** n <= gf.ORDER_CAP]
    assert (2, 20) in pairs and (1021, 2) in pairs
    for p, n in pairs:
        code = gf._slot_typecode(p, n)
        assert code is not None, (p, n)
        # the narrowest: the next narrower slot could overflow
        bound = (2 * n - 1) * n * (p - 1) ** 3
        narrower = "BHIQ"[:"BHIQ".index(code)]
        assert all(bound >= 1 << 8 * struct.calcsize("<" + c)
                   for c in narrower)


@pytest.mark.parametrize("p,n,code", [(2, 11, "B"), (3, 7, "H"),
                                      (101, 3, "I"), (1021, 2, "Q")])
def test_packed_products_match_the_oracle_per_typecode(p, n, code):
    ctx = gf.create_field(p, n)
    assert ctx._log is None and ctx._packed[0].format == f"<{n}{code}"
    rng = random.Random(p * 100 + n)
    # all-(p-1) vectors give the largest convolution sums
    vals = [(p - 1,) * n, (0,) * n, (1,) + (0,) * (n - 1)] + [
        tuple(rng.randrange(p) for _ in range(n)) for _ in range(30)]
    for a in vals:
        for b in vals:
            assert ctx._poly_mul(a, b) == oracle_field_mul(ctx, a, b)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(5, 8), (7, 6)]), st.data())
def test_packed_products_match_the_oracle(pn, data):
    ctx = gf.create_field(*pn)
    vec = st.tuples(*[st.integers(0, ctx.p - 1)] * ctx.n)
    a, b = data.draw(vec), data.draw(vec)
    assert (gf.FieldElem(ctx, a) * gf.FieldElem(ctx, b)).coeffs == (
        oracle_field_mul(ctx, a, b))


@pytest.mark.parametrize("p,n", [(2, 3), (5, 2), (3, 4)])
def test_table_products_match_an_independent_oracle(p, n):
    ctx = gf.create_field(p, n)
    elems = list(ctx.iter_elements())
    for a in elems[::3]:
        for b in elems[::5]:
            assert (a * b).coeffs == oracle_field_mul(ctx, a.coeffs, b.coeffs)


def test_table_dlog_and_nth_roots_match_brute_force():
    ctx = gf.create_field(5, 2)
    g = ctx.generator
    assert [ctx.dlog(g ** k) for k in range(ctx.order - 1)] == list(
        range(ctx.order - 1))
    elems = list(ctx.iter_elements())
    for k in (2, 3, 4, 6, 8, 24):
        for w in elems:
            brute = [y for y in elems if y ** k == w]
            assert ctx.nth_roots(w, k) == brute  # lex order either way


@pytest.mark.parametrize("p,n", [(2, 3), (3, 4), (2, 10), (3, 7), (2, 12)])
def test_nth_roots_match_brute_force(p, n):
    # table fields whole; past the cap every k-th power and a sample of w
    ctx = gf.create_field(p, n)
    elems = list(ctx.iter_elements())
    rng = random.Random(p * 100 + n)
    for k in range(1, 9):
        by_power = {}
        for y in elems:
            by_power.setdefault((y ** k).coeffs, []).append(y)
        ws = elems if ctx.order <= gf.TABLE_CAP else (
            [by_power[c][0] ** k for c in rng.sample(sorted(by_power), 40)]
            + rng.sample(elems, 40))
        for w in ws:
            assert ctx.nth_roots(w, k) == by_power.get(w.coeffs, []), (k, w)


@pytest.mark.parametrize("p,n", [(5, 8), (3, 9)])
def test_nth_roots_match_the_log_oracle_past_the_cap(p, n):
    ctx = gf.create_field(p, n)
    assert ctx.order > gf.TABLE_CAP and ctx._log is None
    rng = random.Random(p * 1000 + n)
    for k in range(2, 9):
        powers = [ctx.from_int(rng.randrange(1, ctx.order)) ** k
                  for _ in range(6)]
        others = [ctx.from_int(rng.randrange(1, ctx.order)) for _ in range(6)]
        found = 0
        for w in powers + others + [ctx.zero, ctx.one]:
            roots = ctx.nth_roots(w, k)
            assert roots == gf_oracle.nth_roots_by_dlog(ctx, w, k), (k, w)
            assert all(y ** k == w for y in roots)
            found += bool(roots)
        assert found >= len(powers) + 2


def test_dlog_reads_only_the_log_table():
    # no baby-step table above the cap: its one caller there was nth_roots
    big = gf.create_field(3, 7)
    with pytest.raises(TooLarge):
        big.dlog(big.one)
    with pytest.raises(ZeroElement):
        gf.create_field(3, 2).dlog(gf.create_field(3, 2).zero)
    assert not hasattr(big, "_baby")


def test_element_literals_round_trip():
    ctx9 = gf.create_field(3, 2)
    for e in ctx9.iter_elements():
        assert gf.parse_element(ctx9, gf.format_element(e)) == e
    ctx8 = gf.create_field(2, 3)
    assert gf.format_element(ctx8.elem((1, 0, 1))) == "g^2+1"
    assert gf.parse_element(ctx8, "g^2+1") == ctx8.elem((1, 0, 1))
    ctx5 = gf.create_field(5)
    assert gf.format_element(ctx5.elem(3)) == "3"
    assert gf.parse_element(ctx5, "3") == ctx5.elem(3)
