"""Automorphism-side checks: generator transport, closure orders, the
action on ramified places, and the q=3 exceptional quotient."""

import itertools
import json
import random

import pytest

from cycloff import autgroup as ag
from cycloff.errors import (
    CertificateFailed,
    ClosureOverflow,
    CtxMismatch,
    GenericPlaceUnsupported,
    UnknownPlace,
    WrongCharacteristic,
    WrongOrder,
    WrongQ,
)
from cycloff.gf import create_field, embed
from cycloff.kummer import KummerCurve
from cycloff.places import (
    Generic,
    RamFinite,
    RamInfinity,
    RamQuadratic,
    divisor,
    genus_formula,
    ramified_places,
)
from cycloff.polyalg import Poly, RatFunc

F3 = create_field(3)
F4 = create_field(2, 2)
F5 = create_field(5)
F9 = create_field(3, 2)
E9 = create_field(3, 2)
E16 = create_field(2, 4)
E25 = create_field(5, 2)

C3 = KummerCurve(F3.zero, F3.one, F3.one)
C3N = KummerCurve(F3.zero, F3.one, F3.elem(2))  # y^2 = (v^2+1)/(v^3-v)
C4 = KummerCurve(F4.one, F4.t_class, F4.one)
C5 = KummerCurve(F5.zero, F5.elem(2), F5.one)
C5B = KummerCurve(F5.one, F5.one, F5.one)


class _SynthCurve:
    """Y^4 = v over GF(5); exercises the k != 1 bookkeeping."""

    def __init__(self):
        self.q = 5
        self.h = RatFunc.gen(F5)


SYNTH = _SynthCurve()


@pytest.fixture(scope="module")
def rho3():
    return ag.make_rho(C3)


@pytest.fixture(scope="module")
def mu3():
    return ag.make_mu(C3)


@pytest.fixture(scope="module")
def table3(rho3, mu3):
    return ag.closure([rho3, mu3])


@pytest.fixture(scope="module")
def rho5():
    return ag.make_rho(C5)


@pytest.fixture(scope="module")
def mu5():
    return ag.make_mu(C5)


@pytest.fixture(scope="module")
def table5(rho5, mu5):
    return ag.closure([rho5, mu5])


@pytest.fixture(scope="module")
def rho_set5(rho5):
    return ag.closure([rho5])


@pytest.fixture(scope="module")
def norm3():
    rho = ag.make_rho(C3N)
    mu = ag.make_mu(C3N)
    eps = ag.make_epsilon(C3N)
    return rho, mu, eps, ag.closure([rho, mu, eps])


@pytest.fixture(scope="module")
def table3n(norm3):
    return norm3[3]


@pytest.fixture(scope="module")
def table4():
    return ag.closure([ag.make_rho(C4), ag.make_omega(C4)])


# -- construction and the defining relation ---------------------------------


def test_identity_is_automorphism():
    for curve in (C3, C5, C4):
        ident = ag.identity(curve)
        assert ident.is_identity
        assert ag.is_automorphism(ident, curve)


def test_non_automorphism_rejected_at_construction():
    # v -> v+1 moves the numerator of h on C3, so no f can repair it
    with pytest.raises(CertificateFailed, match="map violates"):
        ag.Aut(C3, (1, 1, 0, 1), 1, 1)


def test_is_automorphism_false_across_models(mu5):
    # same constant field, different a: the flip lands on the wrong h
    assert ag.is_automorphism(mu5, C5B) is False
    assert ag.is_automorphism(ag.identity(C5), C5B) is True


def test_aut_field_validation():
    with pytest.raises(ValueError):
        ag.Aut(C5, (1, 0, 0, 0), 1, 1)  # singular matrix
    with pytest.raises(ValueError):
        ag.Aut(C5, (1, 0, 0, 1), 2, 1)  # k shares a factor with q-1
    with pytest.raises(ValueError):
        ag.Aut(C5, (1, 0, 0, 1), 4, 1)  # k out of range
    with pytest.raises(ValueError):
        ag.Aut(C5, (1, 0, 0, 1), 1, 0)  # zero y-multiplier


def test_mu_paper_flip(mu3, mu5):
    # v -> -v - a with a = 0 here; lambda^(q-1) = -1 picks the y-scale
    for mu, curve, ext in ((mu3, C3, E9), (mu5, C5, E25)):
        q = curve.q
        lam = mu.f.num.coeff(0)
        assert lam ** (q - 1) == -ext.one
        assert mu.f.den.is_one() and mu.k == 1
        assert [x.to_int() for x in mu.mobius] == [1, 0, 0,
                                                   (-ext.one).to_int()]
        assert ag.is_automorphism(mu, curve)


def test_mu_square_generates_the_scaling_subgroup(mu5):
    sq = ag.compose(mu5, mu5)
    assert [x.to_int() for x in sq.mobius] == [1, 0, 0, 1]
    assert sq.k == 1 and sq.f.is_constant()
    xi = sq.f.num.coeff(0)
    assert xi.order() == 4  # primitive (q-1)-th root of unity
    assert ag._has_order(mu5, 2 * (C5.q - 1))


def test_omega_q4_involution():
    om = ag.make_omega(C4)
    assert ag.is_automorphism(om, C4)
    assert om.f.is_one() and om.k == 1
    assert ag.compose(om, om).is_identity
    assert om.mobius[1] == embed(F4.one, E16)  # shift by a/gamma = 1


def test_characteristic_and_q_guards():
    with pytest.raises(WrongCharacteristic):
        ag.make_mu(C4)
    with pytest.raises(WrongCharacteristic):
        ag.make_omega(C3)
    with pytest.raises(WrongQ):
        ag.make_epsilon(C5)
    with pytest.raises(ValueError):
        ag.make_epsilon(C3)  # gamma = 1 is not the normalized model


# -- the transported generator ----------------------------------------------


def test_rho_q3_frozen_transport(rho3):
    # hand transport: the unit group of GF(3)[x]/(x^2+1) is generated by
    # u = 1+x (x and 2x have order 4, the constants order <= 2).  With
    # u = c1 x + c0 the image of y folds to (c1 g v + c0) y and the image
    # of v to ((c0 - c1 a) v - c1 b/g)/(c1 g v + c0); here a=0, b=g=1,
    # so rho: v -> (v-1)/(v+1), y -> (v+1) y.
    assert [x.to_int() for x in rho3.mobius] == [1, 2, 1, 1]
    assert rho3.k == 1
    assert rho3.f == RatFunc.from_poly(Poly(E9, (E9.one, E9.one)))


def test_rho_q5_frozen_transport(rho5):
    # u = 1+x is again the first generator in lex order: over GF(5) with
    # x^2 = -2, (1+x)^4 = 3+x, (1+x)^8 = 2+x, (1+x)^12 = 4, so its order
    # is 24.  The same folding gives v -> (v-2)/(v+1), y -> (v+1) y.
    assert [x.to_int() for x in rho5.mobius] == [1, 3, 1, 1]
    assert rho5.k == 1
    assert rho5.f == RatFunc.from_poly(Poly(E25, (E25.one, E25.one)))


def test_rho_q4_frozen_transport():
    # u = x generates (order 15: x^5 = t, t^3 = 1); c0 = 0, c1 = 1 give
    # y -> v y and v -> (v + b)/v with b = t.
    rho4 = ag.make_rho(C4)
    assert rho4.k == 1
    assert rho4.f == RatFunc.from_poly(Poly(E16, (E16.zero, E16.one)))
    a_, b_, c_, d_ = rho4.mobius
    assert (a_, c_, d_) == (E16.one, E16.one, E16.zero)
    assert b_ == embed(F4.t_class, E16)


@pytest.mark.parametrize("curve", [C3, C4, C5])
def test_rho_order_exactly_q2_minus_1(curve):
    rho = ag.make_rho(curve)
    n = curve.q ** 2 - 1
    # the exact order: each n/r for a prime r | n and the multiple 2n
    # are rejected
    assert ag._has_order(rho, n)
    for r in (2, 3, 5):
        if n % r == 0:
            assert not ag._has_order(rho, n // r)
    assert not ag._has_order(rho, 2 * n)


def test_order_certificate_matches_a_linear_walk():
    # the exact order by brute force agrees with the powering certificate
    for a, n in ((ag.make_rho(C3), 8), (ag.make_mu(C5), 8)):
        acc, m = a, 1
        while not acc.is_identity:
            acc, m = ag.compose(a, acc), m + 1
        assert m == n
        assert ag._has_order(a, n)
        assert not any(ag._has_order(a, d) for d in range(1, n))


@pytest.mark.parametrize("curve", [C3, C5])
def test_rho_fixes_quads_and_cycles_the_rational_places(curve):
    rho = ag.make_rho(curve)
    q = curve.q
    for pl in ramified_places(curve):
        if isinstance(pl, RamQuadratic):
            assert ag.act_on_place(rho, pl) == pl
    seen = {RamInfinity(q)}
    cur = RamInfinity(q)
    for _ in range(q ** 2 - 1):
        cur = ag.act_on_place(rho, cur)
        seen.add(cur)
    assert len(seen) == q + 1  # one orbit through every rational place


# -- closure orders ---------------------------------------------------------


def test_closure_orders(table3, table5, norm3):
    assert table3.order == 2 * (3 ** 2 - 1) == 16
    assert table5.order == 2 * (5 ** 2 - 1) == 48
    rho4 = ag.make_rho(C4)
    assert ag.closure([rho4, ag.make_omega(C4)]).order == 2 * (4 ** 2 - 1)
    assert norm3[3].order == 6 * (3 ** 2 - 1) == 48


def test_closure_q9_order_160():
    b = F9.generator
    curve = KummerCurve(F9.zero, b, F9.one)
    table = ag.closure([ag.make_rho(curve), ag.make_mu(curve)])
    assert table.order == 2 * (9 ** 2 - 1) == 160
    assert ag.stabilizer(table, RamInfinity(9)).order == 2 * (9 - 1)
    assert sorted(len(o) for o in ag.orbits(table)) == [2, 10]


def test_closure_cap(monkeypatch, rho3, mu3):
    monkeypatch.setattr(ag, "CLOSURE_CAP", 4)
    with pytest.raises(ClosureOverflow):
        ag.closure([rho3, mu3])


def test_closure_rejects_mixed_curves(rho3):
    with pytest.raises(CtxMismatch):
        ag.closure([rho3, ag.make_mu(C3N)])
    with pytest.raises(ValueError):
        ag.closure([])


# -- group axioms on the table ----------------------------------------------


def test_group_axioms_on_the_q5_table(table5):
    assert any(z.is_identity for z in table5)
    for x in table5:
        inv = ag.invert(x)  # invert raises unless x inv = inv x = id
        assert inv in table5
    rng = random.Random(20260822)
    elems = table5.elements
    for _ in range(12):
        a, b, c = (rng.choice(elems) for _ in range(3))
        assert ag.compose(ag.compose(a, b), c) == ag.compose(
            a, ag.compose(b, c))
        assert table5.multiply(a, b) == ag.compose(a, b)


@pytest.mark.parametrize("name,order", [("table3n", 48), ("table4", 30),
                                        ("table5", 48)])
def test_cayley_table_matches_compose_on_every_pair(name, order, request):
    table = request.getfixturevalue(name)
    assert table.order == order
    elems = table.elements
    assert list(elems) == sorted(elems, key=lambda z: z._key)
    for i, a in enumerate(elems):
        for j, b in enumerate(elems):
            assert elems[table.mul[i][j]] == ag.compose(a, b)


def test_stabilizer_table_is_closed(table5):
    quads = [p for p in ramified_places(C5) if isinstance(p, RamQuadratic)]
    for place in (RamInfinity(5), quads[0]):
        sub = ag.stabilizer(table5, place)
        n = sub.order
        assert len(sub.mul) == n and all(len(row) == n for row in sub.mul)
        for i, a in enumerate(sub.elements):
            for j, b in enumerate(sub.elements):
                assert sub.elements[sub.mul[i][j]] == table5.multiply(a, b)


def test_stabilizer_rejects_a_set_that_is_not_closed(monkeypatch, table5,
                                                     rho5):
    # keep only the identity and rho: rho^2 falls outside, so no subgroup
    keep = {ag.identity(C5), rho5}
    monkeypatch.setattr(ag, "act_on_place",
                        lambda s, pl: pl if s in keep else None)
    with pytest.raises(CertificateFailed):
        ag.stabilizer(table5, RamInfinity(5))


def test_group_table_invariants_are_typed_errors(rho5):
    with pytest.raises(CertificateFailed):
        ag.GroupTable((), (), ())
    with pytest.raises(CertificateFailed):
        ag.GroupTable((rho5,), (rho5,), ((0,),))  # no identity


def test_make_rho_order_check_is_a_typed_error(monkeypatch):
    monkeypatch.setattr(ag, "_has_order", lambda a, n: False)
    with pytest.raises(WrongOrder):
        ag.make_rho(C3)


def test_invert_check_is_a_typed_error(monkeypatch, rho5):
    monkeypatch.setattr(ag, "compose", lambda a, b: rho5)
    with pytest.raises(CertificateFailed):
        ag.invert(rho5)


def test_every_table_element_satisfies_the_relation(table5):
    for z in table5:
        assert ag.is_automorphism(z, C5)


def test_conjugation_keeps_the_cyclic_part(table5, rho5, mu5, rho_set5):
    conj = ag.compose(ag.compose(mu5, rho5), ag.invert(mu5))
    assert conj in rho_set5
    # the whole table normalizes the cyclic part
    for s in table5:
        assert ag.compose(ag.compose(s, rho5), ag.invert(s)) in rho_set5
    rho4 = ag.make_rho(C4)
    om = ag.make_omega(C4)
    assert ag.compose(ag.compose(om, rho4), om) in ag.closure([rho4])


# -- action, orbits, stabilizers --------------------------------------------


def test_orbits_of_the_cyclic_part(rho_set5):
    sizes = sorted(len(o) for o in ag.orbits(rho_set5))
    assert sizes == [1, 1, 6]  # both quads fixed, rationals one orbit


def test_orbits_partition_q5(table5):
    orbs = ag.orbits(table5)
    flat = [p for o in orbs for p in o]
    assert len(flat) == len(set(flat)) == len(ramified_places(C5))
    assert sorted(len(o) for o in orbs) == [2, 6]
    assert orbs == ag.orbits(table5)  # deterministic


def test_stabilizers_q5(table5, rho_set5):
    assert ag.stabilizer(table5, RamInfinity(5)).order == 2 * (5 - 1)
    quads = [p for p in ramified_places(C5) if isinstance(p, RamQuadratic)]
    sb = ag.stabilizer(table5, quads[0])
    sg = ag.stabilizer(table5, quads[1])
    assert sb.order == sg.order == 5 ** 2 - 1
    assert set(sb.elements) == set(sg.elements) == set(rho_set5.elements)


def test_quad_pair_preserved_and_swapped_off_the_cyclic_part(
        table5, rho_set5):
    quads = [p for p in ramified_places(C5) if isinstance(p, RamQuadratic)]
    qb, qg = quads
    for s in table5:
        img = ag.act_on_place(s, qb)
        assert img in (qb, qg)
        if s in rho_set5:
            assert img == qb
        else:
            assert img == qg


def test_action_composes_left_to_right(table5):
    rng = random.Random(7)
    elems = table5.elements
    places = ramified_places(C5)
    for _ in range(10):
        a, b = rng.choice(elems), rng.choice(elems)
        ab = ag.compose(a, b)
        for pl in places:
            assert ag.act_on_place(ab, pl) == ag.act_on_place(
                a, ag.act_on_place(b, pl))


def test_act_on_place_guards(rho3):
    v_el = C3.scalar(Poly.gen(F3))
    gen_place = next(p for p in divisor(v_el + C3.y()).support
                     if isinstance(p, Generic))
    with pytest.raises(GenericPlaceUnsupported):
        ag.act_on_place(rho3, gen_place)
    with pytest.raises(UnknownPlace):
        ag.act_on_place(rho3, RamFinite(F5.zero))
    with pytest.raises(UnknownPlace):
        ag.act_on_place(rho3, RamInfinity(5))


# -- the law, h o mobius and the place action are cached exactly -----------


def test_cached_law_still_rejects_a_wrong_multiplier(mu5, rho5):
    zeta = E25.generator ** 6  # order 4: y -> zeta y is in the kernel
    c = E25.generator  # order 24, so c^(q-1) != 1
    assert zeta ** (C5.q - 1) == E25.one and c ** (C5.q - 1) != E25.one
    for lawful in (mu5, rho5):
        assert ag.Aut(C5, lawful.mobius, lawful.k, lawful.f) == lawful
        twisted = ag.Aut(C5, lawful.mobius, lawful.k, lawful.f * zeta)
        assert twisted.mobius == lawful.mobius
        for _ in range(2):
            with pytest.raises(CertificateFailed, match="map violates"):
                ag.Aut(C5, lawful.mobius, lawful.k, lawful.f * c)


def test_law_rejects_a_non_constant_multiple(mu5, rho5):
    v = RatFunc.gen(E25)
    for lawful in (mu5, rho5):
        for factor in (v, v + 1, RatFunc(Poly.one(E25), Poly.gen(E25))):
            with pytest.raises(CertificateFailed, match="map violates"):
                ag.Aut(C5, lawful.mobius, lawful.k, lawful.f * factor)


def test_cached_scalar_decides_each_multiple_afresh(mu5):
    # a fresh curve, so the first Aut over mu's Mobius part is the rejected
    # one; the cache then holds lambda, not that verdict
    curve = KummerCurve(F5.zero, F5.elem(2), F5.one)
    zeta = E25.generator ** 6  # order 4, in mu_(q-1)
    c = E25.generator
    before = ag._law_scalar.cache_info()
    with pytest.raises(CertificateFailed, match="map violates"):
        ag.Aut(curve, mu5.mobius, mu5.k, mu5.f * c)
    twisted = ag.Aut(curve, mu5.mobius, mu5.k, mu5.f * zeta)
    assert twisted.f == mu5.f * zeta and ag.is_automorphism(twisted, curve)
    with pytest.raises(CertificateFailed, match="map violates"):
        ag.Aut(curve, mu5.mobius, mu5.k, mu5.f * c)
    after = ag._law_scalar.cache_info()
    assert after.misses - before.misses == 1


def test_cached_law_keys_on_the_curve(mu5):
    assert ag.is_automorphism(mu5, C5) is True
    assert ag.is_automorphism(mu5, C5B) is False
    assert ag.is_automorphism(mu5, C5) is True


def test_cached_place_action_still_raises(mu5, rho3):
    for pl in ramified_places(C5):
        ag.act_on_place(mu5, pl)
    other_quad = next(p for p in ramified_places(C5B)
                      if isinstance(p, RamQuadratic))
    assert other_quad not in ramified_places(C5)
    v_el = C3.scalar(Poly.gen(F3))
    gen_place = next(p for p in divisor(v_el + C3.y()).support
                     if isinstance(p, Generic))
    for pl in ramified_places(C3):
        ag.act_on_place(rho3, pl)
    # the identity has the same Mobius part on both curves
    quad5 = next(p for p in ramified_places(C5) if isinstance(p, RamQuadratic))
    assert ag.act_on_place(ag.identity(C5), quad5) == quad5
    for _ in range(2):
        with pytest.raises(UnknownPlace):
            ag.act_on_place(ag.identity(C5B), quad5)
        with pytest.raises(UnknownPlace):
            ag.act_on_place(mu5, other_quad)
        with pytest.raises(UnknownPlace):
            ag.act_on_place(mu5, RamInfinity(3))
        with pytest.raises(UnknownPlace):
            ag.act_on_place(mu5, RamFinite(F3.zero))
        with pytest.raises(GenericPlaceUnsupported):
            ag.act_on_place(rho3, gen_place)


def test_each_law_and_place_image_is_computed_once(monkeypatch):
    # a fresh curve, so no cache entry exists for it yet
    F7 = create_field(7)
    curve = KummerCurve(F7.zero, F7.one, F7.one)
    he = ag._ext_h(curve)
    h_after, places_seen, laws = [], [], []

    real_cf = RatFunc.compose_fractional

    def counted_cf(self, np_, dp_):
        if self is he:
            h_after.append((np_.coeffs, dp_.coeffs))
        return real_cf(self, np_, dp_)

    real_h_after = ag._h_after

    def counted_h_after(c, mobius):
        laws.append(mobius)  # one call per evaluation of the law
        return real_h_after(c, mobius)

    real_validate = ag._validate_place

    def counted_validate(c, pl):
        places_seen.append(pl)  # twice per image: the place and its image
        return real_validate(c, pl)

    monkeypatch.setattr(RatFunc, "compose_fractional", counted_cf)
    monkeypatch.setattr(ag, "_h_after", counted_h_after)
    monkeypatch.setattr(ag, "_validate_place", counted_validate)
    table = ag.closure([ag.make_rho(curve), ag.make_mu(curve)])
    places = ramified_places(curve)
    stabs = [ag.stabilizer(table, pl).order for pl in places]
    assert table.order == 96 and sorted(stabs) == [12] * 8 + [48] * 2
    mobius = {z.mobius for z in table}
    assert len(mobius) == table.order // (curve.q - 1)
    assert len(h_after) == len(set(h_after)) == len(mobius)
    # the q-1 elements over one Mobius part differ by a constant in
    # mu_(q-1), so they share one scalar class and one law evaluation
    assert len(laws) == len(mobius)
    assert len(places_seen) == 2 * len(mobius) * len(places)


# -- the q = 3 exceptional group --------------------------------------------


def test_epsilon_frozen(norm3):
    eps = norm3[2]
    i = E9.t_class
    assert i * i == -E9.one
    c = i * (E9.one - i)
    assert eps.k == 1
    assert eps.f == RatFunc(Poly(E9, (-c, E9.zero, c)), Poly(E9, (i, E9.one)))
    sq = ag.compose(eps, eps)
    assert not sq.is_identity
    assert ag.compose(eps, sq).is_identity  # order exactly 3
    assert ag._has_order(eps, 3)
    assert not ag._has_order(eps, 1) and not ag._has_order(eps, 6)
    assert ag.is_automorphism(eps, C3N)


def _s4_order_histogram():
    """Element orders of the symmetric group on 4 letters, brute force."""
    hist = {}
    for perm in itertools.permutations(range(4)):
        acc, m = perm, 1
        while tuple(acc) != (0, 1, 2, 3):
            acc = tuple(perm[i] for i in acc)
            m += 1
        hist[m] = hist.get(m, 0) + 1
    return hist


def test_quotient_is_pgl23(norm3):
    rho, _, _, table = norm3
    assert ag.quotient_is_pgl23(table) is True

    # independent route: iota = rho^4 is a central involution, and the
    # coset orders must reproduce the S4 histogram enumerated above
    iota = ag.compose(rho, ag.compose(rho, ag.compose(rho, rho)))
    assert ag.compose(iota, iota).is_identity and not iota.is_identity
    for x in table:
        assert ag.compose(iota, x) == ag.compose(x, iota)

    def coset_order(z):
        acc, m = z, 1
        while not (acc.is_identity or acc == iota):
            acc = ag.compose(z, acc)
            m += 1
        return m

    hist = {}
    seen = set()
    for z in table:
        w = ag.compose(z, iota)
        if z in seen or w in seen:
            continue
        seen.add(z)
        m = coset_order(z)
        hist[m] = hist.get(m, 0) + 1
    oracle = _s4_order_histogram()
    assert oracle == {1: 1, 2: 9, 3: 8, 4: 6}
    assert hist == oracle


def test_central_involution_fixes_every_ramified_place(norm3):
    # the fixed places of the central involution count 2g+2, the branch
    # number of a degree-two map onto a genus-zero field
    rho = norm3[0]
    iota = ag.compose(rho, ag.compose(rho, ag.compose(rho, rho)))
    fixed = [p for p in ramified_places(C3N)
             if ag.act_on_place(iota, p) == p]
    assert len(fixed) == len(ramified_places(C3N))
    assert len(fixed) == 2 * genus_formula(3) + 2


def test_quotient_guards(table5, rho3):
    with pytest.raises(WrongQ):
        ag.quotient_is_pgl23(table5)  # order 48 but q = 5
    with pytest.raises(WrongOrder):
        ag.quotient_is_pgl23(ag.closure([rho3]))  # q = 3 but order 8


# -- synthetic exponent twist ------------------------------------------------


def test_synthetic_quartic_k3():
    tau = ag.Aut(SYNTH, (0, 1, 1, 0), 3,
                 RatFunc(Poly.one(F5), Poly.gen(F5)))
    # tau(y) = y^3/v on Y^4 = v: tau^2(y) = v (y^3/v)^3 / v^... folds to y
    assert tau.k == 3
    assert ag.compose(tau, tau).is_identity
    assert ag.invert(tau) == tau
    assert ag.closure([tau]).order == 2
    with pytest.raises(CertificateFailed):
        ag.Aut(SYNTH, (0, 1, 1, 0), 1, 1)  # k=1 cannot satisfy the law here


# -- reports and arithmetic identities --------------------------------------


def test_group_report_q3_normalized():
    rep = ag.group_report(C3N)
    assert set(rep) == {"generators", "order", "orbit_sizes",
                        "stabilizer_orders", "q3_pgl23"}
    assert rep["order"] == 48
    assert rep["q3_pgl23"] is True
    assert rep["orbit_sizes"] == [6]
    assert len(rep["stabilizer_orders"]) == 6
    assert all(n == 8 for n in rep["stabilizer_orders"].values())
    assert json.dumps(rep, sort_keys=True) == json.dumps(
        ag.group_report(C3N), sort_keys=True)


def test_group_report_q5():
    rep = ag.group_report(C5)
    assert rep["order"] == 48
    assert rep["q3_pgl23"] is None
    assert sorted(rep["orbit_sizes"]) == [2, 6]
    vals = sorted(rep["stabilizer_orders"].values())
    assert vals == [8, 8, 8, 8, 8, 8, 24, 24]


def test_group_report_q3_plain_model():
    rep = ag.group_report(C3)
    assert rep["order"] == 16
    assert rep["q3_pgl23"] is None
    assert len(rep["generators"]) == 2


def test_cyclic_part_fits_the_abelian_bound():
    # q^2 - 1 <= 4g + 4 for the odd-characteristic curves we build
    for q in (3, 5, 7, 9):
        assert q ** 2 - 1 <= 4 * genus_formula(q) + 4


def test_str_deterministic(rho3, mu3):
    assert str(rho3) == str(ag.make_rho(C3))
    assert "v ->" in str(mu3) and "y" in str(mu3)
    assert str(rho3) != str(mu3)
