"""Automorphisms of the Kummer model and their group structure.

A map is stored as

    v -> (alpha v + beta)/(gamma' v + delta),      y -> f(v) * y

with every coefficient in the curve's quadratic extension ``curve.ext`` of
the constant field; each element built here fits in that extension, and
comparing the canonical data then decides equality structurally.  No
exponent y -> f y^k with k != 1 can occur (see `Aut`).  Construction
checks the defining relation

    f^(q-1) * h = h o mobius

exactly, so an Aut that exists at all really is an automorphism of the
function field.  Every denominator is monic, so the law is compared
cross-multiplied, num(f)^(q-1) num(h) den(H) = num(H) den(f)^(q-1) den(h)
with H = h o mobius, without reducing a product to lowest terms.
galois_aut writes the Galois automorphism sigma_u: y -> C_u(y) of a residue
unit u = c0 + c1 T in closed form, v -> ((c0 - a c1) v - c1 b/gamma) /
(c1 gamma v + c0), y -> (c0 + c1 gamma v) y, and the law certifies it.
make_rho is sigma_u at the unit-group generator.

Every order is certified by _order: if a permutes the q+3 ramified places
with order m, then a^m = (v -> v, y -> c y), as a Mobius map that fixes
three points is the identity, and a has order m times the order of c.
Each make_* generator keeps the (m, k) it was certified with, and closure
reads it rather than powering again.  compose(a, b) applies b first, then
a.  closure never lists the group: it closes the generators'
permutations, and the orders of their scalars c certify the kernel of
that action, the maps y -> c y with c in mu_(q-1).
The order, membership, orbits, stabilizers and the q=3 quotient are read
from those permutations.  Every Aut passes the law in
Aut.__init__, but the law, h o mobius included, is evaluated once per
scalar class (curve, Mobius part, f up to a constant; see `_law_scalar`),
and the action on a ramified place once per (Mobius part, place) pair; the
caches key on the canonical entries and on the curve's identity, so a
repeat reuses an exact result for the same input.
Tables produced by closure are immutable, as are Auts, so orbit and
stabilizer queries are safe to run concurrently once a table exists.
"""

from functools import lru_cache
from math import lcm

from . import gf
from .errors import (
    CertificateFailed,
    CtxMismatch,
    GenericPlaceUnsupported,
    WrongCharacteristic,
    WrongOrder,
    WrongQ,
)
from .kummer import KummerCurve
from .places import (
    Generic,
    RamFinite,
    RamInfinity,
    RamQuadratic,
    _place_key,
    _validate_place,
    ramified_places,
)
from .polyalg import INFINITY, Poly, RatFunc, format_poly
from .record import Record, set_field


@lru_cache(maxsize=None)
def _ext_h(curve):
    return curve.h.embed_into(curve.ext)


@lru_cache(maxsize=None)
def _law_scalar(curve, mobius, f0):
    """The scalar lambda with f0^(q-1) * h * lambda == h o mobius, exactly,
    or None when no scalar makes the identity hold.

    Write a y-multiplier as f = c * f0 with f0's numerator monic.  Every
    denominator is monic, so nonzero, and the law for f is compared
    cross-multiplied as c^(q-1) * A == B with A = f0.num^(q-1) h.num H.den
    and B = H.num f0.den^(q-1) h.den, H = h o mobius, without a gcd
    reduction.  A is nonzero, so the leading coefficients force
    c^(q-1) = lc(B)/lc(A) = lambda, and the law then holds iff
    A * lambda == B, which is checked here.  So f passes iff
    c^(q-1) == lambda: the q-1 maps with one Mobius part, which differ by
    a constant in mu_(q-1), share one evaluation, H included, and since
    lambda is cached rather than a verdict, every scalar still gets its
    own exact decision.
    """
    a_, b_, c_, d_ = mobius
    ext = curve.ext
    h = _ext_h(curve)
    big = h.compose_fractional(Poly(ext, (b_, a_)), Poly(ext, (d_, c_)))
    n = curve.q - 1
    lhs = f0.num ** n * h.num * big.den
    rhs = big.num * f0.den ** n * h.den
    lam = rhs.lc * lhs.lc.inverse()
    return lam if lhs * lam == rhs else None


def _to_ext(value, ext):
    if isinstance(value, int):
        return ext.elem(value)
    if isinstance(value, gf.FieldElem):
        return value if value.ctx is ext else gf.embed(value, ext)
    raise CtxMismatch("matrix entries must be field elements or ints")


def _rf_to_ext(value, ext):
    if isinstance(value, (int, gf.FieldElem)):
        return RatFunc.constant(_to_ext(value, ext))
    if not isinstance(value, RatFunc):
        raise CtxMismatch("y-multiplier must be a rational function")
    return value if value.ctx is ext else value.embed_into(ext)


def _vstr(num, den):
    top = format_poly(num, var="v")
    if den.is_one():
        return top
    return f"({top})/({format_poly(den, var='v')})"


class Aut:
    """One automorphism v -> m(v), y -> f y in canonical form; immutable and
    hashable.

    A general automorphism over m would send y to f y^k with k coprime to
    q-1, under the law f^(q-1) h^k = h o m, which gives
    v_m(P)(h) = k v_P(h) mod q-1 at every point P.  KummerCurve certifies
    v_P(h) = -1 mod q-1 at the q+1 rational branch points and +1 at the
    quadratic pair, so m permutes the q+3 branch points, at least q-1 of
    the rational ones land on rational ones, and k = 1 mod q-1; at q = 3
    the range 1..q-2 holds only 1 anyway.  So k is always 1 and not stored.
    ``order_cert`` is the (m, k) that a make_* function certified, kept
    for `closure`; None otherwise.
    """

    __slots__ = ("curve", "mobius", "f", "_key", "order_cert")

    def __init__(self, curve, mobius, f):
        ext = curve.ext
        entries = tuple(_to_ext(x, ext) for x in mobius)
        if len(entries) != 4:
            raise ValueError("mobius part needs four entries")
        a_, b_, c_, d_ = entries
        if (a_ * d_ - b_ * c_).is_zero():
            raise ValueError("mobius part is singular")
        lead = next(x for x in entries if not x.is_zero())
        inv = lead.inverse()
        entries = tuple(x * inv for x in entries)
        fe = _rf_to_ext(f, ext)
        if fe.is_zero():
            raise ValueError("y-multiplier must be nonzero")
        self.curve = curve
        self.mobius = entries
        self.f = fe
        self._key = (tuple(x.to_int() for x in entries),
                     tuple(c.to_int() for c in fe.num.coeffs),
                     tuple(c.to_int() for c in fe.den.coeffs))
        self.order_cert = None
        if not self._satisfies_law(curve):
            raise CertificateFailed("map violates f^(q-1) * h = h o mobius")

    def _satisfies_law(self, curve):
        ext = curve.ext
        if self.f.ctx is not ext or self.mobius[0].ctx is not ext:
            return False
        f = self.f
        c = f.num.lc
        lam = _law_scalar(curve, self.mobius,
                          RatFunc(f.num.monic(), f.den, _reduced=True))
        return lam is not None and c ** (curve.q - 1) == lam

    @property
    def is_identity(self):
        # canonical key of v -> v, y -> y: to_int packs 1 as 1 and 0 as 0
        return self._key == ((1, 0, 0, 1), (1,), (1,))

    def __eq__(self, other):
        if not isinstance(other, Aut):
            return NotImplemented
        return self.curve is other.curve and self._key == other._key

    def __hash__(self):
        return hash(self._key)

    def __str__(self):
        ext = self.mobius[0].ctx
        a_, b_, c_, d_ = self.mobius
        vpart = _vstr(Poly(ext, (b_, a_)), Poly(ext, (d_, c_)))
        if self.f.is_one():
            ystr = "y"
        else:
            ystr = f"({_vstr(self.f.num, self.f.den)})*y"
        return f"v -> {vpart}; y -> {ystr}"

    def __repr__(self):
        return f"<aut {self}>"


def compose(a, b):
    """a o b: apply b, then a."""
    if a.curve is not b.curve:
        raise CtxMismatch("automorphisms of different curves")
    curve = a.curve
    aa, ab, ac, ad = a.mobius
    ba, bb, bc, bd = b.mobius
    # field maps compose contravariantly on the matrix side
    mob = (ba * aa + bb * ac, ba * ab + bb * ad,
           bc * aa + bd * ac, bc * ab + bd * ad)
    ext = curve.ext
    fc = b.f.compose_fractional(Poly(ext, (ab, aa)), Poly(ext, (ad, ac)))
    return Aut(curve, mob, fc * a.f)


def _order(a):
    """(m, k): m is the order of a's permutation of the ramified places and
    k the order of c in a^m = (v -> v, y -> c y), which is checked on the
    one power computed; a has order m k (see the module docstring)."""
    perm = _permutation(a, ramified_places(a.curve))
    ident = tuple(range(len(perm)))
    acc, m = perm, 1
    while acc != ident:
        acc, m = tuple(perm[i] for i in acc), m + 1
    am = gf.power(a, m, compose, None)
    if am._key[0] != (1, 0, 0, 1) or not am.f.is_constant():
        raise CertificateFailed(
            f"a power fixes every ramified place but is {am}")
    return m, am.f.num.coeff(0).order()


def _certify(a):
    """_order(a), kept on a as its ``order_cert``."""
    a.order_cert = _order(a)
    return a.order_cert


# -- the concrete generators ------------------------------------------------


def galois_aut(curve, u):
    """The Galois automorphism sigma_u: y -> C_u(y) of a residue unit
    u = c0 + c1 T mod M, in closed form.

    The Kummer model has x = gamma v - y^(q-1), so C_T(y) = y^q + x y =
    gamma v y and sigma_u(y) = C_u(y) = f y with f = c0 + c1 gamma v.  sigma_u fixes x, so
    sigma_u(v) = v + (f^(q-1) - 1) h/gamma, and with f^q - f =
    c1 gamma (v^q - v) and h (v^q - v) = -(gamma v^2 + a v + b/gamma) this is
    v -> ((c0 - a c1) v - c1 b/gamma)/(c1 gamma v + c0).  Its determinant
    c0^2 - a c0 c1 + b c1^2 is the norm of u, nonzero for every unit.  Aut
    certifies the law f^(q-1) h = h o mobius.
    """
    if not isinstance(curve, KummerCurve):
        raise CtxMismatch("Galois automorphisms live on a Kummer curve")
    mod, gamma = curve.modulus, curve.gamma
    c0, c1 = u.rep.coeff(0), u.rep.coeff(1)
    return Aut(curve, (c0 - mod.a * c1, -c1 * mod.b * gamma.inverse(),
                       c1 * gamma, c0),
               RatFunc.from_poly(Poly(curve.ctx, (c0, c1 * gamma))))


def make_rho(curve):
    """sigma_u at the unit-group generator u, certified by _order to have
    order q^2 - 1, and to fix both quadratic places."""
    rho = galois_aut(curve, curve.modulus.unit_group_generator())
    q = curve.q
    m, k = _certify(rho)
    if m * k != q * q - 1:
        raise WrongOrder(f"rho has order {m * k}, not {q * q - 1}")
    for pl in ramified_places(curve):
        if isinstance(pl, RamQuadratic) and act_on_place(rho, pl) != pl:
            raise CertificateFailed(f"rho moves the quadratic place {pl}")
    return rho


def make_mu(curve):
    """The odd-characteristic involution-like flip v -> -v - a/gamma,
    y -> lambda y; Aut's law certifies lambda^(q-1) = -1."""
    if curve.ctx.p == 2:
        raise WrongCharacteristic("mu needs odd characteristic")
    q = curve.q
    ext = curve.ext
    lam = ext.generator ** ((q + 1) // 2)
    shift = curve.modulus.a * curve.gamma.inverse()
    mu = Aut(curve, (-ext.one, -gf.embed(shift, ext), ext.zero, ext.one),
             lam)
    # mu^2 fixes v and rescales y by a generator of the scaling subgroup
    m, k = _certify(mu)
    if m != 2:
        raise CertificateFailed("mu^2 is not a constant rescaling of y")
    if k != q - 1:
        raise WrongOrder(f"mu^2 rescales y by an element of order {k}, "
                         f"expected {q - 1}")
    return mu


def make_omega(curve):
    """The characteristic-two shift v -> v + a/gamma."""
    if curve.ctx.p != 2:
        raise WrongCharacteristic("omega needs characteristic two")
    ext = curve.ext
    shift = curve.modulus.a * curve.gamma.inverse()
    w = Aut(curve, (ext.one, gf.embed(shift, ext), ext.zero, ext.one), 1)
    if _certify(w) != (2, 1):
        raise WrongOrder("omega is not an involution")
    return w


def make_epsilon(curve):
    """The extra order-3 map of a q=3 curve.

    Every q=3 modulus has b = a^2 + 1, so h(v) = h0(w) for w = -gamma v + a
    and h0 = (v^2+1)/(v^3-v).  On h0 the map eps0 is v -> (-v - i)/(v - i),
    y -> f0(v) y with i^2 = -1 and f0 = c (v^2 - 1)/(v + i), c = i (1 - i).
    Here it is w^-1 o eps0 o w, y -> f0(w) y, certified by the law and by
    _order.
    """
    if curve.q != 3:
        raise WrongQ("epsilon exists for q = 3 only")
    ext = curve.ext
    i = min((e for e in ext.iter_elements() if e * e == -ext.one),
            key=lambda e: e.to_int())
    c = i * (ext.one - i)
    f0 = RatFunc(Poly(ext, (-c, ext.zero, c)), Poly(ext, (i, ext.one)))
    g = gf.embed(curve.gamma, ext)
    a = gf.embed(curve.modulus.a, ext)
    # W^-1 E0 W for E0 = [[-1, -i], [1, -i]], W = [[-g, a], [0, 1]] and
    # W^-1 = [[1, -a], [0, -g]] up to a scalar
    mob = (g + a * g, -a - i - a * a + a * i, g * g, g * i - g * a)
    f = f0.compose_fractional(Poly(ext, (a, -g)), Poly.one(ext))
    eps = Aut(curve, mob, f)
    m, k = _certify(eps)
    if m * k != 3:
        raise WrongOrder("epsilon does not have order 3")
    return eps


# -- the group from its action on the branch places --------------------------


class GroupTable(Record):
    """The group generated by ``generators``, as the permutations its
    elements induce on ``places`` (the curve's q+3 ramified places) and the
    order of the kernel of that action; immutable.

    A permutation p sends ``places[i]`` to ``places[p[i]]``.  An Aut of the
    curve is a member exactly when its permutation is one of ``perms``: the
    law holds for every Aut, and two lawful maps with one permutation differ
    by an element of the kernel, which the table holds whole.
    """

    __slots__ = ("curve", "generators", "places", "perms", "kernel_order")

    def __init__(self, curve, generators, places, perms, kernel_order):
        set_field(self, "curve", curve)
        set_field(self, "generators", tuple(generators))
        set_field(self, "places", tuple(places))
        set_field(self, "perms", frozenset(perms))
        set_field(self, "kernel_order", kernel_order)

    @property
    def order(self):
        return self.kernel_order * len(self.perms)

    def __len__(self):
        return self.order

    def __contains__(self, a):
        return (isinstance(a, Aut) and a.curve is self.curve
                and _permutation(a, self.places) in self.perms)

    def __repr__(self):
        return f"<table of {self.order} automorphisms>"


def _permutation(a, places):
    """The indices of the images of ``places`` under a."""
    index = {pl: i for i, pl in enumerate(places)}
    return tuple(index[act_on_place(a, pl)] for pl in places)


def closure(gens):
    """The group generated by gens, from its permutations of the ramified
    places.

    A Mobius map that fixes three points of P^1 is the identity, so the
    kernel of the action on the q+3 >= 6 ramified places is the maps
    v -> v, y -> c y, and the law gives c^(q-1) = 1: it is a subgroup of
    mu_(q-1).  The image is the closure of the generators' permutations,
    at most (q+3)(q+2)(q+1) of them by sharp 3-transitivity.  For each
    generator g, _order gives the scalar g^m in the kernel; the lcm of
    their orders must reach q-1, so the kernel is all of mu_(q-1) and the
    order is exactly (q-1) times the size of the image.  A generator
    that carries its ``order_cert`` is not powered again.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    curve = gens[0].curve
    for g in gens:
        if g.curve is not curve:
            raise CtxMismatch("generators live on different curves")
    places = ramified_places(curve)
    moves = [_permutation(g, places) for g in gens]
    ident = tuple(range(len(places)))
    found = [ident]
    seen = {ident}
    for x in found:  # found doubles as the breadth-first queue
        for g in moves:
            z = tuple(g[i] for i in x)  # g o x: x acts first
            if z not in seen:
                seen.add(z)
                found.append(z)
    kernel = lcm(*((g.order_cert or _order(g))[1] for g in gens))
    if kernel != curve.q - 1:
        raise CertificateFailed(
            f"the generators reach a kernel of order {kernel}, "
            f"not {curve.q - 1}")
    return GroupTable(curve, gens, places, found, kernel)


# -- action on the ramified places ------------------------------------------


def act_on_place(a, place):
    return _place_image(a.curve, a.mobius, place)


@lru_cache(maxsize=None)
def _place_image(curve, mobius, place):
    """Image of a ramified place under a Mobius part.

    lru_cache stores no exception, so an invalid or generic place raises on
    every call.
    """
    _validate_place(curve, place)
    if isinstance(place, Generic):
        raise GenericPlaceUnsupported(
            "the group action is computed on the ramified places only")
    ext = curve.ext
    aa, ab, ac, ad = mobius
    # the inverse matrix moves the coordinate of the place
    ai, bi, ci, di = ad, -ab, -ac, aa
    if isinstance(place, RamInfinity):
        img = INFINITY if ci.is_zero() else ai * ci.inverse()
    else:
        al = place.alpha if isinstance(place, RamFinite) else place.root
        ale = gf.embed(al, ext)
        den = ci * ale + di
        img = INFINITY if den.is_zero() else (ai * ale + bi) * den.inverse()
    if img is INFINITY:
        out = RamInfinity(curve.q)
    elif img.frob(curve.ctx.n) == img:
        out = RamFinite(gf.preimages(curve.ctx, ext)[img])
    else:
        out = RamQuadratic(img)
    _validate_place(curve, out)
    return out


def orbits(table):
    """Partition of the ramified places under the table's permutations."""
    out = []
    seen = set()
    for i in range(len(table.places)):
        if i in seen:
            continue
        orb = {p[i] for p in table.perms}
        seen |= orb
        out.append(tuple(sorted((table.places[j] for j in orb),
                                key=_place_key)))
    return tuple(out)


def stabilizer(table, place):
    """Order of the stabilizer of a ramified place: the kernel fixes every
    place, so it is the kernel order times the permutations fixing it."""
    act_on_place(table.generators[0], place)  # typed errors for a bad place
    i = table.places.index(place)
    return table.kernel_order * sum(1 for p in table.perms if p[i] == i)


# -- the q = 3 exceptional quotient -----------------------------------------


def quotient_is_pgl23(table):
    """Is table/mu_2 the symmetric group on its four 3-Sylows?

    The kernel mu_2 = {y -> +-y} of the action on the ramified places is
    central, so the quotient is the table's permutation group, and the test
    runs on those 24 permutations.  S_4 has a trivial centre, so when the
    quotient is S_4 the centre of the table is mu_2: exactly one central
    involution.
    """
    if table.curve.q != 3:
        raise WrongQ("the exceptional quotient is a q = 3 statement")
    if table.order != 48:
        raise WrongOrder(f"expected 48 elements, table has {table.order}")
    perms = sorted(table.perms)
    ident = tuple(range(len(table.places)))

    def mul(x, y):
        return tuple(x[i] for i in y)

    third = [x for x in perms if x != ident and mul(x, mul(x, x)) == ident]
    if len(third) != 8:
        return False
    sylows = {frozenset((ident, x, mul(x, x))) for x in third}
    if len(sylows) != 4:
        return False
    ordered = sorted(sylows, key=sorted)
    actions = set()
    for g in perms:
        gi = tuple(sorted(ident, key=g.__getitem__))
        actions.add(tuple(
            ordered.index(frozenset(mul(mul(g, z), gi) for z in sub))
            for sub in ordered))
    # conjugation must be faithful: 24 distinct permutations of 4 letters
    return len(actions) == 24


def group_report(curve):
    """JSON-ready summary of the computed group and its place action."""
    rho = make_rho(curve)
    gens = [rho]
    if curve.ctx.p == 2:
        gens.append(make_omega(curve))
    else:
        gens.append(make_mu(curve))
    if curve.q == 3:
        gens.append(make_epsilon(curve))
    table = closure(gens)
    orbs = orbits(table)
    stabs = {str(pl): stabilizer(table, pl) for pl in table.places}
    q3 = quotient_is_pgl23(table) if curve.q == 3 else None
    return {
        "generators": [str(g) for g in gens],
        "order": table.order,
        "orbit_sizes": [len(o) for o in orbs],
        "stabilizer_orders": stabs,
        "q3_pgl23": q3,
    }
