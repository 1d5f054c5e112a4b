"""Automorphism-side checks: generator transport, closure orders, the
action on ramified places, and the q=3 exceptional quotient.

Fixtures named ``table*`` and ``rho_set5`` list every group element as an
Aut through the reference ``aut_closure``; ``group*`` and ``cyclic5`` are
the ``autgroup.closure`` tables that must agree with them.
"""

import importlib.util
import itertools
import json
import pathlib
import random

import pytest

from cycloff import autgroup as ag
from cycloff.errors import (
    CertificateFailed,
    CtxMismatch,
    GenericPlaceUnsupported,
    UnknownPlace,
    WrongCharacteristic,
    WrongOrder,
    WrongQ,
)
from cycloff.carlitz import iter_irreducible_moduli
from cycloff.gf import create_field, embed
from cycloff.gf import power as gf_power
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
from cycloff.polyalg import Poly, RatFunc, parse_poly


def _load_oracle():
    path = pathlib.Path(__file__).resolve().parent / "aut_oracle.py"
    spec = importlib.util.spec_from_file_location("aut_oracle", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.aut_closure


aut_closure = _load_oracle()

F3 = create_field(3)
F4 = create_field(2, 2)
F5 = create_field(5)
F7 = create_field(7)
F8 = create_field(2, 3)
F9 = create_field(3, 2)
E9 = create_field(3, 2)
E16 = create_field(2, 4)
E25 = create_field(5, 2)

C3 = KummerCurve(F3.zero, F3.one, F3.one)
C3N = KummerCurve(F3.zero, F3.one, F3.elem(2))  # y^2 = (v^2+1)/(v^3-v)
C4 = KummerCurve(F4.one, F4.t_class, F4.one)
C5 = KummerCurve(F5.zero, F5.elem(2), F5.one)
C5B = KummerCurve(F5.one, F5.one, F5.one)
C7 = KummerCurve(F7.zero, F7.one, F7.one)
C8 = KummerCurve(F8.one, F8.one, F8.one)
C9 = KummerCurve(F9.zero, F9.generator, F9.one)


@pytest.fixture(scope="module")
def rho3():
    return ag.make_rho(C3)


@pytest.fixture(scope="module")
def mu3():
    return ag.make_mu(C3)


@pytest.fixture(scope="module")
def table3(rho3, mu3):
    return aut_closure([rho3, mu3])


@pytest.fixture(scope="module")
def rho5():
    return ag.make_rho(C5)


@pytest.fixture(scope="module")
def mu5():
    return ag.make_mu(C5)


@pytest.fixture(scope="module")
def table5(rho5, mu5):
    return aut_closure([rho5, mu5])


@pytest.fixture(scope="module")
def group5(rho5, mu5):
    return ag.closure([rho5, mu5])


@pytest.fixture(scope="module")
def rho_set5(rho5):
    return aut_closure([rho5])


@pytest.fixture(scope="module")
def cyclic5(rho5):
    return ag.closure([rho5])


@pytest.fixture(scope="module")
def norm3():
    rho = ag.make_rho(C3N)
    mu = ag.make_mu(C3N)
    eps = ag.make_epsilon(C3N)
    return rho, mu, eps, ag.closure([rho, mu, eps])


@pytest.fixture(scope="module")
def table3n(norm3):
    return aut_closure(norm3[:3])


@pytest.fixture(scope="module")
def table4():
    return aut_closure([ag.make_rho(C4), ag.make_omega(C4)])


# -- construction and the defining relation ---------------------------------


def test_identity_is_automorphism():
    for curve in (C3, C5, C4):
        ident = ag.identity(curve)
        assert ident.is_identity
        assert ag.is_automorphism(ident, curve)


def test_non_automorphism_rejected_at_construction():
    # v -> v+1 moves the numerator of h on C3, so no f can repair it
    with pytest.raises(CertificateFailed, match="map violates"):
        ag.Aut(C3, (1, 1, 0, 1), 1)


def test_is_automorphism_false_across_models(mu5):
    # same constant field, different a: the flip lands on the wrong h
    assert ag.is_automorphism(mu5, C5B) is False
    assert ag.is_automorphism(ag.identity(C5), C5B) is True
    # another constant field: mu5's coefficients lie outside C3's GF(9)
    assert ag.is_automorphism(mu5, C3) is False


def test_aut_field_validation():
    with pytest.raises(ValueError):
        ag.Aut(C5, (1, 0, 0, 0), 1)  # singular matrix
    with pytest.raises(ValueError):
        ag.Aut(C5, (1, 0, 0, 1), 0)  # zero y-multiplier


def test_mu_paper_flip(mu3, mu5):
    # v -> -v - a with a = 0 here; lambda^(q-1) = -1 picks the y-scale
    for mu, curve, ext in ((mu3, C3, E9), (mu5, C5, E25)):
        q = curve.q
        lam = mu.f.num.coeff(0)
        assert lam ** (q - 1) == -ext.one
        assert mu.f.den.is_one()
        assert [x.to_int() for x in mu.mobius] == [1, 0, 0,
                                                   (-ext.one).to_int()]
        assert ag.is_automorphism(mu, curve)


def test_mu_square_generates_the_scaling_subgroup(mu5):
    sq = ag.compose(mu5, mu5)
    assert [x.to_int() for x in sq.mobius] == [1, 0, 0, 1]
    assert sq.f.is_constant()
    xi = sq.f.num.coeff(0)
    assert xi.order() == 4  # primitive (q-1)-th root of unity
    assert ag._has_order(mu5, 2 * (C5.q - 1))


def test_omega_q4_involution():
    om = ag.make_omega(C4)
    assert ag.is_automorphism(om, C4)
    assert om.f.is_one()
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
    assert rho3.f == RatFunc.from_poly(Poly(E9, (E9.one, E9.one)))


def test_rho_q5_frozen_transport(rho5):
    # u = 1+x is again the first generator in lex order: over GF(5) with
    # x^2 = -2, (1+x)^4 = 3+x, (1+x)^8 = 2+x, (1+x)^12 = 4, so its order
    # is 24.  The same folding gives v -> (v-2)/(v+1), y -> (v+1) y.
    assert [x.to_int() for x in rho5.mobius] == [1, 3, 1, 1]
    assert rho5.f == RatFunc.from_poly(Poly(E25, (E25.one, E25.one)))


def test_rho_q4_frozen_transport():
    # u = x generates (order 15: x^5 = t, t^3 = 1); c0 = 0, c1 = 1 give
    # y -> v y and v -> (v + b)/v with b = t.
    rho4 = ag.make_rho(C4)
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


def test_closure_orders(table3, table4, table5, table3n, rho3, mu3,
                        group5, norm3):
    group3 = ag.closure([rho3, mu3])
    assert group3.order == len(table3) == 2 * (3 ** 2 - 1) == 16
    assert group5.order == len(table5) == 2 * (5 ** 2 - 1) == 48
    rho4 = ag.make_rho(C4)
    assert ag.closure([rho4, ag.make_omega(C4)]).order == len(table4) == 30
    assert norm3[3].order == len(table3n) == 6 * (3 ** 2 - 1) == 48
    # the kernel is mu_(q-1), so q-1 maps share each permutation
    assert len(group5.perms) == 48 // 4 and group5.kernel_order == 4
    assert len(group5) == group5.order
    # membership reads the permutation: epsilon is outside <rho, mu> at q=3
    eps = norm3[2]
    assert eps in norm3[3]
    assert eps not in ag.closure(norm3[:2])
    assert rho3 in group3 and rho3 not in norm3[3]  # another curve


def test_closure_q9_order_160():
    b = F9.generator
    curve = KummerCurve(F9.zero, b, F9.one)
    table = ag.closure([ag.make_rho(curve), ag.make_mu(curve)])
    assert table.order == 2 * (9 ** 2 - 1) == 160
    assert ag.stabilizer(table, RamInfinity(9)) == 2 * (9 - 1)
    assert sorted(len(o) for o in ag.orbits(table)) == [2, 10]


def test_closure_without_the_kernel_is_a_typed_error():
    # omega is an involution: omega^2 = 1 reaches only c = 1, not mu_3
    with pytest.raises(CertificateFailed, match="kernel of order 1"):
        ag.closure([ag.make_omega(C4)])


def test_a_generator_power_off_the_kernel_is_a_typed_error(monkeypatch,
                                                           rho5):
    # the power of rho that fixes every place must be y -> c y; a power
    # that comes out as anything else fails the certificate
    monkeypatch.setattr(ag.gf, "power", lambda *args: rho5)
    with pytest.raises(CertificateFailed, match="fixes every ramified"):
        ag.closure([rho5])


def test_closure_rejects_mixed_curves(rho3):
    with pytest.raises(CtxMismatch):
        ag.closure([rho3, ag.make_mu(C3N)])
    with pytest.raises(ValueError):
        ag.closure([])


# -- group axioms on the table ----------------------------------------------


def test_group_axioms_on_the_q5_table(table5, group5):
    assert any(z.is_identity for z in table5)
    for x in table5:
        inv = ag.invert(x)  # invert raises unless x inv = inv x = id
        assert inv in table5
    rng = random.Random(20260822)
    for _ in range(12):
        a, b, c = (rng.choice(table5) for _ in range(3))
        assert ag.compose(ag.compose(a, b), c) == ag.compose(
            a, ag.compose(b, c))
        assert ag.compose(a, b) in table5 and ag.compose(a, b) in group5


@pytest.mark.parametrize("name,order", [("table3n", 48), ("table4", 30),
                                        ("table5", 48)])
def test_permutation_of_compose_is_the_composite(name, order, request):
    # compose(a, b) applies b first, and so does the permutation product
    table = request.getfixturevalue(name)
    assert len(table) == order
    places = ramified_places(table[0].curve)
    perm = {z: ag._permutation(z, places) for z in table}
    for a in table:
        for b in table:
            pa, pb = perm[a], perm[b]
            assert perm[ag.compose(a, b)] == tuple(pa[i] for i in pb)


def test_stabilizer_table_is_closed(table5, group5):
    # the elements that fix a place form a subgroup of the counted order
    quads = [p for p in ramified_places(C5) if isinstance(p, RamQuadratic)]
    for place in (RamInfinity(5), quads[0]):
        sub = {z for z in table5 if ag.act_on_place(z, place) == place}
        assert len(sub) == ag.stabilizer(group5, place)
        for a in sub:
            for b in sub:
                assert ag.compose(a, b) in sub


def test_stabilizer_guards(group5):
    with pytest.raises(UnknownPlace):
        ag.stabilizer(group5, RamInfinity(3))
    v_el = C5.scalar(Poly.gen(F5))
    gen_place = next(p for p in divisor(v_el + C5.y()).support
                     if isinstance(p, Generic))
    with pytest.raises(GenericPlaceUnsupported):
        ag.stabilizer(group5, gen_place)


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


def test_conjugation_keeps_the_cyclic_part(table5, rho5, mu5, rho_set5,
                                           cyclic5):
    conj = ag.compose(ag.compose(mu5, rho5), ag.invert(mu5))
    assert conj in rho_set5
    # the whole table normalizes the cyclic part
    for s in table5:
        conj = ag.compose(ag.compose(s, rho5), ag.invert(s))
        assert conj in rho_set5 and conj in cyclic5
    rho4 = ag.make_rho(C4)
    om = ag.make_omega(C4)
    assert ag.compose(ag.compose(om, rho4), om) in ag.closure([rho4])


# -- action, orbits, stabilizers --------------------------------------------


def test_orbits_of_the_cyclic_part(cyclic5):
    sizes = sorted(len(o) for o in ag.orbits(cyclic5))
    assert sizes == [1, 1, 6]  # both quads fixed, rationals one orbit


def test_orbits_partition_q5(group5):
    orbs = ag.orbits(group5)
    flat = [p for o in orbs for p in o]
    assert len(flat) == len(set(flat)) == len(ramified_places(C5))
    assert sorted(len(o) for o in orbs) == [2, 6]
    assert orbs == ag.orbits(group5)  # deterministic


def test_stabilizers_q5(table5, group5, rho_set5):
    assert ag.stabilizer(group5, RamInfinity(5)) == 2 * (5 - 1)
    qb, qg = [p for p in ramified_places(C5) if isinstance(p, RamQuadratic)]
    assert ag.stabilizer(group5, qb) == ag.stabilizer(group5, qg) == 24
    fix_b = {z for z in table5 if ag.act_on_place(z, qb) == qb}
    fix_g = {z for z in table5 if ag.act_on_place(z, qg) == qg}
    assert fix_b == fix_g == set(rho_set5)


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


@pytest.mark.parametrize("curve", [C4, C5, C7, C8, C9],
                         ids=lambda c: f"q{c.q}")
def test_no_automorphism_moves_a_quadratic_place_off_the_pair(monkeypatch,
                                                             curve):
    # the premise of Aut's k = 1 argument: every map keeps the quadratic
    # pair, so all q+1 rational branch points stay rational.  At q = 3
    # epsilon moves the pair, and k = 1 holds there by range alone.
    q = curve.q
    tables = []
    real = ag.closure
    monkeypatch.setattr(ag, "closure",
                        lambda gens: tables.append(real(gens)) or tables[-1])
    ag.group_report(curve)
    (table,) = tables
    assert table.order == 2 * (q * q - 1)
    quads = [p for p in ramified_places(curve) if isinstance(p, RamQuadratic)]
    assert len(quads) == 2
    for z in aut_closure(table.generators):
        for pl in quads:
            assert ag.act_on_place(z, pl) in quads


def test_action_composes_left_to_right(table5):
    rng = random.Random(7)
    places = ramified_places(C5)
    for _ in range(10):
        a, b = rng.choice(table5), rng.choice(table5)
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
        assert ag.Aut(C5, lawful.mobius, lawful.f) == lawful
        twisted = ag.Aut(C5, lawful.mobius, lawful.f * zeta)
        assert twisted.mobius == lawful.mobius
        for _ in range(2):
            with pytest.raises(CertificateFailed, match="map violates"):
                ag.Aut(C5, lawful.mobius, lawful.f * c)


def test_law_rejects_a_non_constant_multiple(mu5, rho5):
    v = RatFunc.gen(E25)
    for lawful in (mu5, rho5):
        for factor in (v, v + 1, RatFunc(Poly.one(E25), Poly.gen(E25))):
            with pytest.raises(CertificateFailed, match="map violates"):
                ag.Aut(C5, lawful.mobius, lawful.f * factor)


def test_cached_scalar_decides_each_multiple_afresh(mu5):
    # a fresh curve, so the first Aut over mu's Mobius part is the rejected
    # one; the cache then holds lambda, not that verdict
    curve = KummerCurve(F5.zero, F5.elem(2), F5.one)
    zeta = E25.generator ** 6  # order 4, in mu_(q-1)
    c = E25.generator
    before = ag._law_scalar.cache_info()
    with pytest.raises(CertificateFailed, match="map violates"):
        ag.Aut(curve, mu5.mobius, mu5.f * c)
    twisted = ag.Aut(curve, mu5.mobius, mu5.f * zeta)
    assert twisted.f == mu5.f * zeta and ag.is_automorphism(twisted, curve)
    with pytest.raises(CertificateFailed, match="map violates"):
        ag.Aut(curve, mu5.mobius, mu5.f * c)
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
    curve = KummerCurve(F7.zero, F7.one, F7.one)
    he = ag._ext_h(curve)
    h_after, places_seen, built = [], [], []

    real_cf = RatFunc.compose_fractional

    def counted_cf(self, np_, dp_):
        if self is he:
            h_after.append((np_.coeffs, dp_.coeffs))
        return real_cf(self, np_, dp_)

    real_validate = ag._validate_place

    def counted_validate(c, pl):
        places_seen.append(pl)  # twice per image: the place and its image
        return real_validate(c, pl)

    real_init = ag.Aut.__init__

    def counted_init(self, *args):
        real_init(self, *args)
        built.append(self.mobius)

    monkeypatch.setattr(RatFunc, "compose_fractional", counted_cf)
    monkeypatch.setattr(ag, "_validate_place", counted_validate)
    monkeypatch.setattr(ag.Aut, "__init__", counted_init)
    before = ag._law_scalar.cache_info()
    table = ag.closure([ag.make_rho(curve), ag.make_mu(curve)])
    # each cache miss is one evaluation of the law
    laws = ag._law_scalar.cache_info().misses - before.misses
    places = ramified_places(curve)
    stabs = [ag.stabilizer(table, pl) for pl in places]
    assert table.order == 96 and sorted(stabs) == [12] * 8 + [48] * 2
    # one law evaluation, with its h o mobius, per Mobius part ever built:
    # the q-1 maps over one part differ by a constant in mu_(q-1)
    assert laws == len(h_after) == len(set(h_after)) == len(set(built))
    # the action is read once per (generator, place): make_rho's check of
    # the quadratic places and stabilizer's place guard hit the cache
    assert len(places_seen) == 2 * len(table.generators) * len(places)


def _chain(e):
    """The products gf.power takes for x^e, counted on integers."""
    calls = []
    gf_power(1, e, lambda a, b: calls.append(1) or a + b, None)
    return len(calls)


def test_group_report_composes_only_certificate_powers(monkeypatch):
    # q=9, M = T^2+g+1: make_rho's order powers rho^N and rho^(N/r) for
    # N = 80, make_mu's square, and one power per generator in closure
    # (rho^(q+1) and mu^2, the orders of their permutations)
    curve = KummerCurve(F9.zero, F9.generator + F9.one, F9.one)
    counts = {"compose": 0, "Aut": 0}
    real_compose, real_init = ag.compose, ag.Aut.__init__

    def counted_compose(a, b):
        counts["compose"] += 1
        return real_compose(a, b)

    def counted_init(self, *args):
        counts["Aut"] += 1
        real_init(self, *args)

    monkeypatch.setattr(ag, "compose", counted_compose)
    monkeypatch.setattr(ag.Aut, "__init__", counted_init)
    rep = ag.group_report(curve)
    assert rep["order"] == 160
    n, q = 9 * 9 - 1, 9
    bound = (_chain(n) + sum(_chain(n // r) for r in (2, 5))
             + 1 + _chain(q + 1) + _chain(2))
    assert counts["compose"] <= bound == 23
    # one Aut per product, and rho and mu themselves
    assert counts["Aut"] <= bound + 2


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9], ids=lambda q: f"q{q}")
def test_closure_agrees_with_the_oracle(q):
    # every (M, gamma) at q <= 5, and the sweep modulus at q = 7, 8, 9
    ctx = create_field(*{3: (3,), 4: (2, 2), 5: (5,), 7: (7,), 8: (2, 3),
                         9: (3, 2)}[q])
    if q <= 5:
        cases = [(m.a, m.b, g) for m in iter_irreducible_moduli(ctx)
                 for g in ctx.iter_elements() if not g.is_zero()]
    else:
        m = parse_poly(ctx, {7: "T^2+1", 8: "T^2+T+1", 9: "T^2+g+1"}[q])
        cases = [(m.coeff(1), m.coeff(0), ctx.one)]
    assert len(cases) == {3: 6, 4: 18, 5: 40}.get(q, 1)
    for a, b, gamma in cases:
        curve = KummerCurve(a, b, gamma)
        gens = [ag.make_rho(curve)]
        gens.append(ag.make_omega(curve) if ctx.p == 2
                    else ag.make_mu(curve))
        if q == 3 and a.is_zero() and b == ctx.one and gamma == ctx.elem(2):
            gens.append(ag.make_epsilon(curve))
        table = ag.closure(gens)
        elems = aut_closure(gens)
        assert table.order == len(elems)
        assert all(z in table for z in elems)
        places = ramified_places(curve)
        orbit = {pl: frozenset(ag.act_on_place(z, pl) for z in elems)
                 for pl in places}
        assert sorted(map(len, ag.orbits(table))) == sorted(
            len(o) for o in set(orbit.values()))
        for pl in places:
            fixing = sum(ag.act_on_place(z, pl) == pl for z in elems)
            assert ag.stabilizer(table, pl) == fixing


# -- the q = 3 exceptional group --------------------------------------------


def test_epsilon_frozen(norm3):
    eps = norm3[2]
    i = E9.t_class
    assert i * i == -E9.one
    c = i * (E9.one - i)
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


def test_quotient_is_pgl23(norm3, table3n):
    rho, _, _, group = norm3
    assert ag.quotient_is_pgl23(group) is True
    table = table3n

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


def test_quotient_guards(group5, rho3):
    with pytest.raises(WrongQ):
        ag.quotient_is_pgl23(group5)  # order 48 but q = 5
    with pytest.raises(WrongOrder):
        ag.quotient_is_pgl23(ag.closure([rho3]))  # q = 3 but order 8


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
