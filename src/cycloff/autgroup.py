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
make_rho does not guess its matrix: it pushes the generator of the residue
units through x = gamma v - y^(q-1) inside the curve algebra and reads the
fractional-linear shape off the result; TransportFailure fires if that
shape ever fails to emerge.  Its order q^2 - 1 is certified by powering:
rho^N = 1 and rho^(N/r) != 1 for every prime r | N, each power by
square-and-multiply compose (epsilon's order 3 likewise).

compose(a, b) applies b first, then a.  closure never lists the group: it
closes the generators' permutations of the q+3 ramified places, and
certifies the kernel of that action, the maps y -> c y with c in mu_(q-1),
by one power of each generator.  The order, membership, stabilizers and the
q=3 quotient are read from those permutations.  Every Aut passes the law in
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
    TransportFailure,
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
    """

    __slots__ = ("curve", "mobius", "f", "_key")

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
        return self._key == other._key

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


def identity(curve):
    return Aut(curve, (1, 0, 0, 1), 1)


def is_automorphism(candidate, curve):
    """Does the candidate satisfy the defining relation for this curve?"""
    return candidate._satisfies_law(curve)


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


def invert(a):
    curve = a.curve
    aa, ab, ac, ad = a.mobius
    ext = curve.ext
    fv = a.f.compose_fractional(Poly(ext, (-ab, ad)), Poly(ext, (aa, -ac)))
    out = Aut(curve, (ad, -ab, -ac, aa), fv ** -1)
    if not (compose(a, out).is_identity and compose(out, a).is_identity):
        raise CertificateFailed("inverse does not compose to the identity")
    return out


def _has_order(a, n):
    """Is the order of a exactly n?  a^n = 1 and a^(n/r) != 1 for every
    prime r | n; a handful of powerings instead of n steps."""
    if not gf.power(a, n, compose, None).is_identity:
        return False
    return not any(gf.power(a, n // r, compose, None).is_identity
                   for r in gf.factorize(n))


# -- the concrete generators ------------------------------------------------


def make_rho(curve):
    """Transport the unit-group generator to an Aut on (v, y)."""
    if not isinstance(curve, KummerCurve):
        raise CtxMismatch("rho lives on a Kummer curve")
    mod = curve.modulus
    q, ctx = curve.q, curve.ctx
    u = mod.unit_group_generator()
    c0, c1 = u.rep.coeff(0), u.rep.coeff(1)
    v = Poly.gen(ctx)
    # x = gamma v - y^(q-1) inside the curve algebra
    x_sc = curve.scalar(Poly.constant(curve.gamma) * v) - curve.y() ** (q - 1)
    sy = (curve.y() ** q).scale(c1) + (x_sc.scale(c1)
                                       + curve.scalar(c0)) * curve.y()
    if any(sy.coords[i] for i in range(q - 1) if i != 1):
        raise TransportFailure("image of y is not an f(v) multiple of y")
    f = sy.coords[1]
    if not f:
        raise TransportFailure("image of y collapsed to zero")
    sv = (x_sc + sy ** (q - 1)).scale(curve.gamma.inverse())
    if any(sv.coords[i] for i in range(1, q - 1)):
        raise TransportFailure("image of v leaves the rational subfield")
    w = sv.coords[0]
    if w.num.degree > 1 or w.den.degree > 1:
        raise TransportFailure("image of v is not fractional-linear")
    rho = Aut(curve, (w.num.coeff(1), w.num.coeff(0),
                      w.den.coeff(1), w.den.coeff(0)), f)
    if not _has_order(rho, q * q - 1):
        raise WrongOrder(f"rho does not have order {q * q - 1}")
    for pl in ramified_places(curve):
        if isinstance(pl, RamQuadratic) and act_on_place(rho, pl) != pl:
            raise TransportFailure(f"rho moves the quadratic place {pl}")
    return rho


def make_mu(curve):
    """The odd-characteristic involution-like flip v -> -v - a/gamma."""
    if curve.ctx.p == 2:
        raise WrongCharacteristic("mu needs odd characteristic")
    q = curve.q
    ext = curve.ext
    lam = ext.generator ** ((q + 1) // 2)
    if lam ** (q - 1) != -ext.one:
        raise CertificateFailed("lambda^(q-1) is not -1")
    shift = curve.modulus.a * curve.gamma.inverse()
    mu = Aut(curve, (-ext.one, -gf.embed(shift, ext), ext.zero, ext.one),
             lam)
    # mu^2 fixes v and rescales y by a generator of the scaling subgroup
    sq = compose(mu, mu)
    if not sq.f.is_constant():
        raise CertificateFailed("mu^2 is not a constant rescaling of y")
    scale_order = sq.f.num.coeff(0).order()
    if scale_order != q - 1:
        raise WrongOrder(f"mu^2 rescales y by an element of order "
                         f"{scale_order}, expected {q - 1}")
    return mu


def make_omega(curve):
    """The characteristic-two shift v -> v + a/gamma."""
    if curve.ctx.p != 2:
        raise WrongCharacteristic("omega needs characteristic two")
    ext = curve.ext
    shift = curve.modulus.a * curve.gamma.inverse()
    w = Aut(curve, (ext.one, gf.embed(shift, ext), ext.zero, ext.one), 1)
    if not compose(w, w).is_identity:
        raise WrongOrder("omega is not an involution")
    return w


def make_epsilon(curve):
    """The extra order-3 map of the q=3 model y^2 = (v^2+1)/(v^3-v)."""
    if curve.q != 3:
        raise WrongQ("epsilon exists for q = 3 only")
    ctx = curve.ctx
    if not (curve.modulus.a.is_zero() and curve.modulus.b == ctx.one
            and curve.gamma == ctx.elem(2)):
        raise ValueError("epsilon needs the model y^2 = (v^2+1)/(v^3-v)")
    ext = curve.ext
    i = min((e for e in ext.iter_elements() if e * e == -ext.one),
            key=lambda e: e.to_int())
    c = i * (ext.one - i)
    num = Poly(ext, (-c, ext.zero, c))
    den = Poly(ext, (i, ext.one))
    eps = Aut(curve, (-ext.one, -i, ext.one, -i), RatFunc(num, den))
    if not _has_order(eps, 3):
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
    generator g, with a permutation of order m, g^m lies in the kernel;
    the orders of those scalars must reach q-1, so the kernel is all of
    mu_(q-1) and the order is exactly (q-1) times the size of the image.
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
    kernel = 1
    for g, perm in zip(gens, moves):
        acc, m = perm, 1  # m: the order of g's permutation
        while acc != ident:
            acc, m = tuple(perm[i] for i in acc), m + 1
        gm = gf.power(g, m, compose, None)
        if gm._key[0] != (1, 0, 0, 1) or not gm.f.is_constant():
            raise CertificateFailed(
                f"a generator power fixes every ramified place but is {gm}")
        kernel = lcm(kernel, gm.f.num.coeff(0).order())
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
    """Partition of the ramified places under the table's group."""
    out = []
    seen = set()
    for start in ramified_places(table.curve):
        if start in seen:
            continue
        orb = {start}
        frontier = [start]
        while frontier:
            nxt = []
            for pl in frontier:
                for g in table.generators:
                    img = act_on_place(g, pl)
                    if img not in orb:
                        orb.add(img)
                        nxt.append(img)
            frontier = nxt
        seen |= orb
        out.append(tuple(sorted(orb, key=_place_key)))
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
        try:
            gens.append(make_epsilon(curve))
        except ValueError:
            pass  # only the normalized model carries epsilon
    table = closure(gens)
    orbs = orbits(table)
    stabs = {str(pl): stabilizer(table, pl) for pl in table.places}
    q3 = None
    if curve.q == 3 and table.order == 48:
        q3 = quotient_is_pgl23(table)
    return {
        "generators": [str(g) for g in gens],
        "order": table.order,
        "orbit_sizes": [len(o) for o in orbs],
        "stabilizer_orders": stabs,
        "q3_pgl23": q3,
    }
