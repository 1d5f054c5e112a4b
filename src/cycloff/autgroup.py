"""Automorphisms of the Kummer model and their group structure.

A map is stored as

    v -> (alpha v + beta)/(gamma' v + delta),      y -> f(v) * y^k

with every coefficient in the quadratic extension of the constant field;
each element built here fits in that extension, and comparing the
canonical data then decides equality structurally.  Construction checks
the defining relation

    f^(q-1) * h^k = h o mobius

exactly, so an Aut that exists at all really is an automorphism of the
function field.  Every denominator is monic, so the law is compared
cross-multiplied, num(f)^(q-1) num(h)^k den(H) = num(H) den(f)^(q-1)
den(h)^k with H = h o mobius, without reducing a product to lowest terms.
make_rho does not guess its matrix: it pushes the generator of the residue
units through x = gamma v - y^(q-1) inside the curve algebra and reads the
fractional-linear shape off the result; TransportFailure fires if that
shape ever fails to emerge.  Its order q^2 - 1 is certified by powering:
rho^N = 1 and rho^(N/r) != 1 for every prime r | N, each power by
square-and-multiply compose (epsilon's order 3 likewise).

compose(a, b) applies b first, then a.  closure composes each generator
with each element once; the rest of the Cayley table is read off those
products, and later products (multiply, stabilizers, the q=3 quotient) are
read from the table.  Every Aut passes the law in Aut.__init__, but the law
is evaluated once per scalar class (curve, Mobius part, k, f up to a
constant; see `_law_scalar`), h o mobius once per Mobius part, and the
action on a ramified place once per (Mobius part, place) pair; the caches
key on the canonical entries and on the curve's identity, so a repeat
reuses an exact result for the same input.
Tables produced by closure are immutable, as are Auts, so orbit and
stabilizer queries are safe to run concurrently once a table exists.
"""

from functools import lru_cache
from math import gcd

from . import gf
from .errors import (
    CertificateFailed,
    ClosureOverflow,
    CtxMismatch,
    GenericPlaceUnsupported,
    NonCentralInvolution,
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

CLOSURE_CAP = 10000


@lru_cache(maxsize=None)
def _ext_ctx(ctx):
    """The quadratic extension all Aut coefficients are stored in."""
    return gf.create_field(ctx.p, 2 * ctx.n)


@lru_cache(maxsize=None)
def _ext_h(curve):
    return curve.h.embed_into(_ext_ctx(curve.h.ctx))


@lru_cache(maxsize=None)
def _h_after(curve, mobius):
    """h o mobius, the right side of the law; one per Mobius part."""
    a_, b_, c_, d_ = mobius
    ext = a_.ctx
    return _ext_h(curve).compose_fractional(Poly(ext, (b_, a_)),
                                            Poly(ext, (d_, c_)))


@lru_cache(maxsize=None)
def _law_scalar(curve, mobius, k, f0):
    """The scalar lambda with f0^(q-1) * h^k * lambda == h o mobius, exactly,
    or None when no scalar makes the identity hold.

    Write a y-multiplier as f = c * f0 with f0's numerator monic.  Every
    denominator is monic, so nonzero, and the law for f is compared
    cross-multiplied as c^(q-1) * A == B with A = f0.num^(q-1) h.num^k H.den
    and B = H.num f0.den^(q-1) h.den^k, H = h o mobius, without a gcd
    reduction.  A is nonzero, so the leading coefficients force
    c^(q-1) = lc(B)/lc(A) = lambda, and the law then holds iff
    A * lambda == B, which is checked here.  So f passes iff
    c^(q-1) == lambda: the q-1 maps with one Mobius part, which differ by
    a constant in mu_(q-1), share one evaluation, and since lambda is
    cached rather than a verdict, every scalar still gets its own exact
    decision.
    """
    h, big = _ext_h(curve), _h_after(curve, mobius)
    n = curve.q - 1
    lhs = f0.num ** n * h.num ** k * big.den
    rhs = big.num * f0.den ** n * h.den ** k
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
    if isinstance(value, Poly):
        value = RatFunc.from_poly(value)
    if not isinstance(value, RatFunc):
        raise CtxMismatch("y-multiplier must be a rational function")
    return value if value.ctx is ext else value.embed_into(ext)


def _vstr(num, den):
    top = format_poly(num, var="v")
    if den.is_one():
        return top
    return f"({top})/({format_poly(den, var='v')})"


class Aut:
    """One automorphism in canonical form; immutable and hashable."""

    __slots__ = ("curve", "mobius", "k", "f", "_key")

    def __init__(self, curve, mobius, k, f):
        ext = _ext_ctx(curve.h.ctx)
        q = curve.q
        if not isinstance(k, int) or not 1 <= k <= q - 2:
            raise ValueError(f"exponent k={k} outside 1..{q - 2}")
        if gcd(k, q - 1) != 1:
            raise ValueError(f"exponent k={k} shares a factor with {q - 1}")
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
        self.k = k
        self.f = fe
        self._key = (tuple(x.to_int() for x in entries), k,
                     tuple(c.to_int() for c in fe.num.coeffs),
                     tuple(c.to_int() for c in fe.den.coeffs))
        if not self._satisfies_law(curve):
            raise CertificateFailed("map violates f^(q-1) * h^k = h o mobius")

    def _satisfies_law(self, curve):
        ext = _ext_ctx(curve.h.ctx)
        if self.f.ctx is not ext or self.mobius[0].ctx is not ext:
            return False
        f = self.f
        c = f.num.lc
        lam = _law_scalar(curve, self.mobius, self.k,
                          RatFunc(f.num.monic(), f.den, _reduced=True))
        return lam is not None and c ** (curve.q - 1) == lam

    @property
    def is_identity(self):
        # canonical key of v -> v, y -> y: to_int packs 1 as 1 and 0 as 0
        return self._key == ((1, 0, 0, 1), 1, (1,), (1,))

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
        fpart = _vstr(self.f.num, self.f.den)
        if self.f.is_one():
            ystr = "y" if self.k == 1 else f"y^{self.k}"
        else:
            ystr = f"({fpart})*y" + ("" if self.k == 1 else f"^{self.k}")
        return f"v -> {vpart}; y -> {ystr}"

    def __repr__(self):
        return f"<aut {self}>"


def identity(curve):
    return Aut(curve, (1, 0, 0, 1), 1, 1)


def is_automorphism(candidate, curve):
    """Does the candidate satisfy the defining relation for this curve?"""
    return candidate._satisfies_law(curve)


def compose(a, b):
    """a o b: apply b, then a."""
    if a.curve is not b.curve:
        raise CtxMismatch("automorphisms of different curves")
    curve = a.curve
    n = curve.q - 1
    aa, ab, ac, ad = a.mobius
    ba, bb, bc, bd = b.mobius
    # field maps compose contravariantly on the matrix side
    mob = (ba * aa + bb * ac, ba * ab + bb * ad,
           bc * aa + bd * ac, bc * ab + bd * ad)
    kc = (a.k * b.k - 1) % n + 1
    s = (a.k * b.k - kc) // n
    ext = _ext_ctx(curve.h.ctx)
    fc = b.f.compose_fractional(Poly(ext, (ab, aa)), Poly(ext, (ad, ac)))
    fc = fc * a.f ** b.k
    if s:
        fc = fc * _ext_h(curve) ** s
    return Aut(curve, mob, kc, fc)


def invert(a):
    curve = a.curve
    n = curve.q - 1
    aa, ab, ac, ad = a.mobius
    kinv = pow(a.k, -1, n)
    s = (a.k * kinv - 1) // n
    ext = _ext_ctx(curve.h.ctx)
    np_, dp_ = Poly(ext, (-ab, ad)), Poly(ext, (aa, -ac))
    fv = a.f.compose_fractional(np_, dp_) ** (-kinv)
    if s:
        fv = fv * _ext_h(curve).compose_fractional(np_, dp_) ** (-s)
    out = Aut(curve, (ad, -ab, -ac, aa), kinv, fv)
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
                      w.den.coeff(1), w.den.coeff(0)), 1, f)
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
    ext = _ext_ctx(curve.h.ctx)
    lam = ext.generator ** ((q + 1) // 2)
    if lam ** (q - 1) != -ext.one:
        raise CertificateFailed("lambda^(q-1) is not -1")
    shift = curve.modulus.a * curve.gamma.inverse()
    mu = Aut(curve, (-ext.one, -gf.embed(shift, ext), ext.zero, ext.one),
             1, lam)
    # mu^2 fixes v and rescales y by a generator of the scaling subgroup
    sq = compose(mu, mu)
    if not (sq.k == 1 and sq.f.is_constant()):
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
    ext = _ext_ctx(curve.h.ctx)
    shift = curve.modulus.a * curve.gamma.inverse()
    w = Aut(curve, (ext.one, gf.embed(shift, ext), ext.zero, ext.one), 1, 1)
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
    ext = _ext_ctx(curve.h.ctx)
    i = min((e for e in ext.iter_elements() if e * e == -ext.one),
            key=lambda e: e.to_int())
    c = i * (ext.one - i)
    num = Poly(ext, (-c, ext.zero, c))
    den = Poly(ext, (i, ext.one))
    eps = Aut(curve, (-ext.one, -i, ext.one, -i), 1, RatFunc(num, den))
    if not _has_order(eps, 3):
        raise WrongOrder("epsilon does not have order 3")
    return eps


# -- closure and tables -----------------------------------------------------


class GroupTable:
    """Closed set of Auts with its generators and Cayley table; immutable.

    ``elements`` are sorted by canonical key, and ``mul[i][j]`` is the index
    of ``compose(elements[i], elements[j])``.  The constructor takes the
    elements in any order, with ``mul`` indexed in that order, and re-indexes
    both.
    """

    __slots__ = ("elements", "generators", "curve", "mul", "_index")

    def __init__(self, elements, generators, mul):
        if not elements:
            raise CertificateFailed("a table holds at least the identity")
        perm = sorted(range(len(elements)), key=lambda i: elements[i]._key)
        pos = [0] * len(perm)
        for new, old in enumerate(perm):
            pos[old] = new
        self.elements = tuple(elements[i] for i in perm)
        self.mul = tuple(tuple(pos[mul[a][b]] for b in perm) for a in perm)
        self.generators = tuple(generators)
        self.curve = self.elements[0].curve
        self._index = {z: i for i, z in enumerate(self.elements)}
        if not any(z.is_identity for z in self.elements):
            raise CertificateFailed("table lacks the identity")

    @property
    def order(self):
        return len(self.elements)

    def __len__(self):
        return len(self.elements)

    def __iter__(self):
        return iter(self.elements)

    def __contains__(self, a):
        return a in self._index

    def multiply(self, a, b):
        """compose(a, b) for members, read from the table."""
        return self.elements[self.mul[self._index[a]][self._index[b]]]

    def __repr__(self):
        return f"<table of {self.order} automorphisms>"


def closure(gens):
    """Breadth-first closure of the generators, capped at CLOSURE_CAP.

    Each element is reached as g o x for a generator g and an element x
    found before it; its row of the Cayley table is then g's row of left
    products permuted by x's row, so no product beyond g o x is composed.
    """
    gens = tuple(gens)
    if not gens:
        raise ValueError("need at least one generator")
    curve = gens[0].curve
    for g in gens:
        if g.curve is not curve:
            raise CtxMismatch("generators live on different curves")
    found = [identity(curve)]
    index = {found[0]: 0}
    parent = [None]
    left = [[] for _ in gens]  # left[i][x]: index of gens[i] o found[x]
    x = 0
    while x < len(found):  # found doubles as the breadth-first queue
        for i, g in enumerate(gens):
            z = compose(g, found[x])
            j = index.get(z)
            if j is None:
                if len(found) >= CLOSURE_CAP:
                    raise ClosureOverflow(
                        f"closure exceeded {CLOSURE_CAP} elements")
                j = index[z] = len(found)
                found.append(z)
                parent.append((i, x))
            left[i].append(j)
        x += 1
    # words in the generators; finiteness plus cancellation forces a group.
    # Every element passed the law check in Aut.__init__.
    rows = [range(len(found))]
    for i, x in parent[1:]:
        # found[a] = g o found[x], so (g o found[x]) o b = g o (found[x] o b)
        rows.append([left[i][c] for c in rows[x]])
    return GroupTable(found, gens, rows)


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
    ext = _ext_ctx(curve.h.ctx)
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
    # the action reads only the Mobius part, which q-1 elements share
    fixes = {}
    kept = []
    for i, s in enumerate(table.elements):
        m = s._key[0]
        if m not in fixes:
            fixes[m] = act_on_place(s, place) == place
        if fixes[m]:
            kept.append(i)
    pos = {k: i for i, k in enumerate(kept)}
    mul = table.mul
    try:
        sub = [[pos[mul[a][b]] for b in kept] for a in kept]
    except KeyError:
        raise CertificateFailed("stabilizer is not closed") from None
    elems = [table.elements[k] for k in kept]
    return GroupTable(elems, elems, sub)


# -- the q = 3 exceptional quotient -----------------------------------------


def quotient_is_pgl23(table):
    """Is table/center the symmetric group on its four 3-Sylows?

    Runs on indices into the table; index order is canonical-key order.
    """
    if table.curve.q != 3:
        raise WrongQ("the exceptional quotient is a q = 3 statement")
    if table.order != 48:
        raise WrongOrder(f"expected 48 elements, table has {table.order}")
    mul = table.mul
    span = range(table.order)
    ident = next(i for i, z in enumerate(table.elements) if z.is_identity)
    central = [z for z in span
               if z != ident and mul[z][z] == ident
               and all(mul[z][x] == mul[x][z] for x in span)]
    if len(central) != 1:
        raise NonCentralInvolution(
            f"found {len(central)} central involutions, expected one")
    iota = central[0]

    rep = [min(z, mul[z][iota]) for z in span]
    classes = tuple(dict.fromkeys(rep))
    if len(classes) != 24:
        raise WrongOrder(f"quotient has {len(classes)} classes, expected 24")
    id_rep = rep[ident]

    def qmul(x, y):
        return rep[mul[x][y]]

    def qorder(x):
        acc, m = x, 1
        while acc != id_rep:
            acc = qmul(x, acc)
            m += 1
        return m

    third = [x for x in classes if qorder(x) == 3]
    if len(third) != 8:
        return False
    sylows = {frozenset((id_rep, x, qmul(x, x))) for x in third}
    if len(sylows) != 4:
        return False
    ordered = sorted(sylows, key=sorted)
    perms = set()
    for g in classes:
        gi = mul[g].index(ident)
        images = []
        for sub in ordered:
            img = frozenset(rep[mul[mul[g][z]][gi]] for z in sub)
            if img not in sylows:
                return False
            images.append(ordered.index(img))
        perms.add(tuple(images))
    # conjugation must be faithful: 24 distinct permutations of 4 letters
    return len(perms) == 24


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
    stabs = {str(pl): stabilizer(table, pl).order
             for pl in ramified_places(curve)}
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
