"""Places, valuations, divisors, and exact point counts of the Kummer covers.

The function field GF(q)(v, y) with y^(q-1) = h(v) is a tame Kummer cover of
the rational field GF(q)(v).  Over each v-place the cover is either fully
ramified (index q-1; this happens over the q rational points, over infinity,
and over one closed quadratic point) or unramified.  This module materializes
places, computes exact valuations and principal divisors, finds the
L-polynomial from the discrete logs of the residues T + a mod M, and counts
degree-one places over GF(q^k): by points up to order gf.TABLE_CAP = 2^10,
which L must match, then by L.

Divisors are booked on closed points: the two conjugate quadratic ramified
points form a single closed point of degree 2, represented by the lex-least
root.  `ramified_places` still lists both conjugates, since group actions
must tell them apart.
"""

import functools
import operator
from math import isqrt

from . import gf
from .errors import (
    CertificateFailed,
    CtxMismatch,
    DivisionByZero,
    FunctionalEquationViolated,
    GenericPlaceUnsupported,
    NoEmbedding,
    TooLarge,
    UnknownPlace,
    ZeroElement,
)
from .gf import create_field, embed
from .kummer import KummerCurve
from .polyalg import (
    INFINITY,
    Poly,
    _xq_power,
    format_poly,
    one_root,
    poly_gcd,
)
from .record import Record, set_field

COUNT_CAP = 1 << 22
# pipelines, and the L-polynomial lane of count_degree_one, run up to this q
PIPELINE_Q_CAP = 9
# zeta runs for the field sizes whose zeta reports are recorded
ZETA_Q_CAP = 5
_SERIES_PREC_CAP = 512


# -- place kinds -------------------------------------------------------------
# Places are dict keys on every divisor, so each kind compares and hashes
# its fields inline rather than through Record's generic field tuple.


class RamFinite(Record):
    """Fully ramified place over v = alpha, alpha rational."""

    __slots__ = ("alpha",)

    def __init__(self, alpha):
        set_field(self, "alpha", alpha)

    def __eq__(self, other):
        if other.__class__ is RamFinite:
            return self.alpha == other.alpha
        return NotImplemented

    def __hash__(self):
        return hash((self.alpha,))

    @property
    def degree(self):
        return 1

    @property
    def ram_index(self):
        return self.alpha.ctx.order - 1

    def __str__(self):
        return f"P[v={gf.format_element(self.alpha)}]"


class RamInfinity(Record):
    """Fully ramified place over v = infinity."""

    __slots__ = ("q",)

    def __init__(self, q):
        set_field(self, "q", q)

    def __eq__(self, other):
        if other.__class__ is RamInfinity:
            return self.q == other.q
        return NotImplemented

    def __hash__(self):
        return hash((self.q,))

    @property
    def degree(self):
        return 1

    @property
    def ram_index(self):
        return self.q - 1

    def __str__(self):
        return "P[inf]"


class RamQuadratic(Record):
    """Fully ramified place over a quadratic v-point; ``root`` lives in GF(q^2).

    The closed point under the conjugate root pair has degree 2.  Computed
    divisors book the pair once, through the lex-least root.
    """

    __slots__ = ("root",)

    def __init__(self, root):
        set_field(self, "root", root)

    def __eq__(self, other):
        if other.__class__ is RamQuadratic:
            return self.root == other.root
        return NotImplemented

    def __hash__(self):
        return hash((self.root,))

    @property
    def degree(self):
        return 2

    @property
    def ram_index(self):
        return isqrt(self.root.ctx.order) - 1

    def __str__(self):
        return f"Q[v={gf.format_element(self.root)}]"


class Generic(Record):
    """Unramified place over the degree-k orbit of c, with y-value class ys.

    ``c`` is the lex-least conjugate in GF(q^k); ``ys`` lives in the minimal
    splitting extension of the fiber and is the lex-least y-value over ``c``
    within its Frobenius orbit.  ``degree`` is the joint orbit size.
    """

    __slots__ = ("k", "c", "ys", "degree")

    def __init__(self, k, c, ys, degree):
        set_field(self, "k", k)
        set_field(self, "c", c)
        set_field(self, "ys", ys)
        set_field(self, "degree", degree)

    def __eq__(self, other):
        if other.__class__ is Generic:
            return ((self.k, self.c, self.ys, self.degree)
                    == (other.k, other.c, other.ys, other.degree))
        return NotImplemented

    def __hash__(self):
        return hash((self.k, self.c, self.ys, self.degree))

    @property
    def ram_index(self):
        return 1

    def __str__(self):
        return (f"G[v={gf.format_element(self.c)}, "
                f"y={gf.format_element(self.ys)}, deg={self.degree}]")


def _place_key(P):
    # deterministic ordering across kinds
    if isinstance(P, RamFinite):
        return (0, P.alpha.to_int(), 0, 0)
    if isinstance(P, RamInfinity):
        return (1, 0, 0, 0)
    if isinstance(P, RamQuadratic):
        return (2, P.root.to_int(), 0, 0)
    if isinstance(P, Generic):
        return (3, P.k, P.c.to_int(), P.ys.to_int())
    raise UnknownPlace(f"not a place: {P!r}")


# -- divisors ----------------------------------------------------------------


class Divisor:
    """Finitely supported integer combination of places."""

    __slots__ = ("_m",)

    def __init__(self, coeffs=None):
        m = {}
        if coeffs:
            for P, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                c = int(c)
                if c:
                    m[P] = m.get(P, 0) + c
                    if not m[P]:
                        del m[P]
        self._m = m

    def coeff(self, P):
        return self._m.get(P, 0)

    @property
    def support(self):
        return tuple(sorted(self._m, key=_place_key))

    def items(self):
        return [(P, self._m[P]) for P in self.support]

    @property
    def degree(self):
        return sum(c * P.degree for P, c in self._m.items())

    def __add__(self, other):
        out = dict(self._m)
        for P, c in other._m.items():
            out[P] = out.get(P, 0) + c
        return Divisor(out)

    def __neg__(self):
        return Divisor({P: -c for P, c in self._m.items()})

    def __sub__(self, other):
        return self + (-other)

    def __eq__(self, other):
        return isinstance(other, Divisor) and self._m == other._m

    def __bool__(self):
        return bool(self._m)

    def __str__(self):
        if not self._m:
            return "0"
        parts = []
        for P, c in self.items():
            parts.append(f"{c:+d}*{P}")
        return " ".join(parts)

    __repr__ = __str__


# -- the ramified catalog ----------------------------------------------------


def ramified_places(curve):
    """All q+3 ramified places: q rational, infinity, two conjugate quadratic."""
    ctx = curve.ctx
    out = [RamFinite(a) for a in ctx.iter_elements()]
    out.append(RamInfinity(curve.q))
    out.extend(RamQuadratic(r) for r in curve.quad_roots)
    return out


# -- valuations --------------------------------------------------------------


def _curve_of(e):
    alg = e.alg
    if not isinstance(alg, KummerCurve):
        raise UnknownPlace("element does not live on a curve with places")
    return alg


def _ramified_valuation(curve, coords, P):
    # v_P(h) is -1 over a rational point, q-2 over infinity and +1 over a
    # quadratic root, as KummerCurve._check_ramification_profile certifies.
    # v_P(sum r_i y^i) = min_i [(q-1) v'(r_i) + i v_P(h)]; the i-terms are
    # pairwise distinct mod q-1 because v_P(h) is prime to q-1, so no ties
    n = curve.q - 1
    if isinstance(P, RamFinite):
        at, vh = P.alpha, -1
    elif isinstance(P, RamInfinity):
        at, vh = INFINITY, n - 1
    else:
        at, vh = P.root, 1
    return min(n * r.valuation(at) + i * vh
               for i, r in enumerate(coords) if not r.is_zero())


def _validate_place(curve, P):
    if isinstance(P, RamFinite):
        if P.alpha.ctx is not curve.ctx:
            raise UnknownPlace("place belongs to a different constant field")
        return
    if isinstance(P, RamInfinity):
        if P.q != curve.q:
            raise UnknownPlace("place belongs to a different curve")
        return
    if isinstance(P, RamQuadratic):
        ext = create_field(curve.ctx.p, 2 * curve.ctx.n)
        if P.root.ctx is not ext or curve.ram_numerator(P.root):
            raise UnknownPlace("quadratic point is not on this curve")
        return
    if isinstance(P, Generic):
        E = P.ys.ctx
        try:
            cE = embed(P.c, E)
        except (NoEmbedding, CtxMismatch):
            raise UnknownPlace("incompatible fields in the place datum")
        try:
            hc = curve.h(cE)
        except DivisionByZero:
            raise UnknownPlace("the v-value sits on the ramification locus")
        if hc.is_zero() or P.ys ** (curve.q - 1) != hc:
            raise UnknownPlace("y-value class is not on this curve")
        return
    raise UnknownPlace(f"not a place: {P!r}")


def valuation(e, P):
    """Exact valuation of a nonzero element at a place of its curve."""
    curve = _curve_of(e)
    if all(r.is_zero() for r in e.coords):
        raise ZeroElement("the zero element has no valuation")
    _validate_place(curve, P)
    if not isinstance(P, Generic):
        return _ramified_valuation(curve, e.coords, P)
    return _generic_valuation(curve, e.coords, embed(P.c, P.ys.ctx), P.ys,
                              {})


# -- truncated power series over a field context -----------------------------
# A series in t = v - c is a Poly in t cut to its first m coefficients, so
# products run on the polyalg kernels (exponent lists over table fields).
# Inverses and the y-branch are Newton iterations that double the precision
# at each step (von zur Gathen-Gerhard, *Modern Computer Algebra*, ch. 9).


def _trunc(f, m):
    return Poly(f.ctx, f.coeffs[:m])


def _series_inv(a, m):
    # g <- g (2 - a g) from g = 1/a(0)
    g = Poly.constant(a.coeff(0).inverse())
    prec = 1
    while prec < m:
        prec = min(2 * prec, m)
        g = _trunc(g * (2 - _trunc(_trunc(a, prec) * g, prec)), prec)
    return g


def _laurent(r, c, m):
    # (order, unit series mod t^m) of r at v = c + t
    E = c.ctx
    shift = Poly(E, (c, E.one))
    units = []
    for f in (r.num, r.den):
        coeffs = f.embed_into(E).compose(shift).coeffs
        o = next(i for i, x in enumerate(coeffs) if not x.is_zero())
        units.append((o, Poly(E, coeffs[o:o + m])))
    (on, nu), (od, du) = units
    return on - od, _trunc(nu * _series_inv(du, m), m)


def _y_branch(H, y0, n, m):
    # Newton lift of Y^n = H mod t^m from Y(0) = y0; n is a unit in E
    E = y0.ctx
    y = Poly.constant(y0)
    prec = 1
    while prec < m:
        prec = min(2 * prec, m)
        pw = Poly.one(E)
        for _ in range(n - 1):
            pw = _trunc(pw * y, prec)
        diff = _trunc(pw * y, prec) - _trunc(H, prec)
        y = y - _trunc(diff * _series_inv(pw * n, prec), prec)
    return y


def _generic_valuation(curve, coords, cE, ys, expansions):
    """v_P(sum r_i y^i) at the place P over v = cE with y-value ys.

    ``expansions`` maps a precision m to the series of h and the Laurent
    expansions of the coordinates at cE mod t^m.  They depend on the point
    only, so the places over one point share one dict and expand each
    precision once; only the y-branch is lifted per place.
    """
    E = cE.ctx
    m = 8
    while m <= _SERIES_PREC_CAP:
        if m not in expansions:
            expansions[m] = (_laurent(curve.h, cE, m)[1],
                             {i: _laurent(r, cE, m)
                              for i, r in enumerate(coords) if r})
        hser, terms = expansions[m]
        ybr = _y_branch(hser, ys, curve.q - 1, m)
        s0 = min(sh for sh, _ in terms.values())
        # Horner in y on t^(-s0) e; every term is exact mod t^m, so acc is too
        acc = Poly.zero(E)
        for i in range(max(terms), -1, -1):
            acc = _trunc(acc * ybr, m)
            if i in terms:
                sh, ru = terms[i]
                acc = acc + Poly(E, (E.zero,) * (sh - s0) + ru.coeffs)
        lead = next((j for j, x in enumerate(acc.coeffs[:m]) if x), None)
        if lead is not None:
            return s0 + lead
        m *= 2
    raise GenericPlaceUnsupported(
        "cancellation beyond the supported series precision")


# -- principal divisors ------------------------------------------------------


def _pth_root_poly(f):
    ctx = f.ctx
    p = ctx.p
    e = p ** (ctx.n - 1)  # inverse Frobenius exponent on GF(p^n)
    coeffs = [f.coeff(i * p) ** e for i in range(f.degree // p + 1)]
    return Poly(ctx, coeffs)


def _radical(f):
    """Separable polynomial with the same root set as f."""
    ctx = f.ctx
    out = Poly.one(ctx)
    while not f.is_constant():
        d = f.derivative()
        if d.is_zero():
            f = _pth_root_poly(f)
            continue
        g = poly_gcd(f, d)
        part = (f // g).monic()
        out = out * (part // poly_gcd(out, part))
        f = g
    return out.monic()


def _closed_point_candidates(curve, polys):
    """Closed points (degree, lex-least rep) under all roots of the inputs.

    Rational and quadratic ramification support is filtered out; a candidate
    polynomial whose roots do not all split within the degree/order caps
    raises rather than silently dropping support.  The points of each
    degree d come from `_orbit_leaders`, one root per closed point.
    """
    ctx = curve.ctx
    p, n, q = ctx.p, ctx.n, curve.q
    quad = set(curve.quad_roots)
    x = Poly.gen(ctx)
    seen = set()
    out = []
    done = set()
    for f in polys:
        if f.is_constant():
            continue
        f = f.monic()
        if f in done:
            continue
        done.add(f)
        rest = _radical(f)
        for d in range(1, rest.degree + 1):
            if rest.is_constant() or q ** d > gf.ORDER_CAP:
                break
            # every factor of degree < d is gone, so this is the product of
            # the irreducible factors of degree exactly d
            part = poly_gcd(rest, _xq_power(rest, d) - x)
            if part.is_constant():
                continue
            rest = rest // part
            if d == 1:
                continue  # rational points are ramified, booked separately
            for r in _orbit_leaders(part, create_field(p, n * d), n, d):
                if d == 2 and r in quad:
                    continue  # ramified support, booked separately
                if (d, r) not in seen:
                    seen.add((d, r))
                    out.append((d, r))
        if not rest.is_constant():
            raise GenericPlaceUnsupported(
                f"support of {format_poly(f, 'v')} does not split under "
                f"the field cap {gf.ORDER_CAP}")
    return out


def _orbit_leaders(part, E, n, d):
    """Least root by ``to_int`` of each Frobenius orbit of the roots in
    E = GF(p^(nd)) of ``part``, a product of distinct irreducibles of
    degree d over GF(p^n); sorted by ``to_int``.

    Each round takes one root r of what is left (``one_root``) and divides
    out prod_i (X - r^(q^i)) over its orbit, so the product of the
    irreducibles is never split further than one root per factor.  An
    orbit of length other than d or a nonzero remainder raises
    CertificateFailed.
    """
    g = part.embed_into(E)
    x = Poly.gen(E)
    leaders = []
    while not g.is_constant():
        r = one_root(g)
        orbit = [r]
        nxt = r.frob(n)
        while nxt != r:
            orbit.append(nxt)
            nxt = nxt.frob(n)
        if len(orbit) != d:
            raise CertificateFailed(
                f"a root of a degree-{d} factor has a Frobenius orbit of "
                f"length {len(orbit)}")
        g, rem = divmod(g, functools.reduce(
            operator.mul, [x - s for s in orbit]))
        if rem:
            raise CertificateFailed(
                f"a Frobenius orbit does not divide the degree-{d} part")
        leaders.append(min(orbit, key=lambda e: e.to_int()))
    return sorted(leaders, key=lambda e: e.to_int())


def _fiber_norm(curve, d, c):
    """N = h(c)^((q^d-1)/(q-1)), in GF(q)*, for c in GF(q^d).

    A root y of Y^(q-1) = h(c) has y^(q^d) = y N, so y^(q^(dj)) = y N^j:
    the fiber over c splits exactly in GF(q^(dj)) for j the order of N.
    """
    q = curve.q
    return curve.h(c) ** ((q ** d - 1) // (q - 1))


def _fiber_places(curve, d, c):
    """Places above the closed point of c in GF(q^d), canonical reps.

    Frobenius moves (c, y) back over c after d steps, as (c, y N), so the
    places over c are the classes y <N> of its y-values, each of degree dj.
    """
    p, n, q = curve.ctx.p, curve.ctx.n, curve.q
    norm = _fiber_norm(curve, d, c)
    j = norm.order()
    if p ** (n * d * j) > gf.ORDER_CAP:
        raise GenericPlaceUnsupported(
            f"fiber splitting field GF({q}^{d * j}) exceeds the cap")
    E = create_field(p, n * d * j)
    roots = E.nth_roots(curve.h(embed(c, E)), q - 1)
    if not roots:
        raise CertificateFailed(
            f"Y^{q - 1} = h(c) has no root in {E.name}, where its fiber "
            "must split")
    steps = [embed(norm, E) ** i for i in range(j)]
    out, claimed = [], set()
    for r in roots:
        if r not in claimed:
            ys = [r * s for s in steps]
            claimed.update(ys)
            out.append(Generic(k=d, c=c, ys=min(ys, key=lambda x: x.to_int()),
                               degree=d * j))
    return sorted(out, key=_place_key)


def divisor(e):
    """Principal divisor of a nonzero element, booked on closed points.

    The ramified places are read off the coordinates.  An unramified closed
    point c carries support only if it is a pole of some coordinate or a
    zero of the numerator of N(e), so only those polynomials are split.  At
    a place P over c, y is a unit (h has no zero or pole there) and
    e(P|c) = 1, so v_P(e) >= min_i v_c(r_i): a pole of e needs a coordinate
    pole.  If no coordinate has a pole at c, every v_P(e) >= 0, and
    v_c(N e) = sum_{P|c} f(P|c) v_P(e) (Stichtenoth, *Algebraic Function
    Fields and Codes*, ch. 3) is positive once one v_P(e) is.  The same
    formula makes v_c(N e) < 0 force a coordinate pole, so neither the
    coordinate numerators nor the denominator of N(e) can add a point.
    """
    curve = _curve_of(e)
    if all(r.is_zero() for r in e.coords):
        raise ZeroElement("the zero element has no divisor")
    coeffs = {}
    # the conjugate quadratic pair is one closed point, booked by quad_roots[0]
    twin = RamQuadratic(curve.quad_roots[1])
    for P in ramified_places(curve):
        if P != twin:
            coeffs[P] = _ramified_valuation(curve, e.coords, P)
    cands = [r.den for r in e.coords if not r.is_zero()]
    cands.append(e.norm().num)
    for d, c in _closed_point_candidates(curve, cands):
        fiber = _fiber_places(curve, d, c)
        cE, expansions = embed(c, fiber[0].ys.ctx), {}
        for P in fiber:
            val = _generic_valuation(curve, e.coords, cE, P.ys, expansions)
            if val:
                coeffs[P] = val
    return Divisor(coeffs)


# -- Riemann-Roch style membership reports -----------------------------------


class LSpaceReport(Record):
    __slots__ = ("members", "independent", "divisors")

    def __init__(self, members, independent, divisors):
        set_field(self, "members", members)
        set_field(self, "independent", independent)
        set_field(self, "divisors", divisors)

    @property
    def ok(self):
        return self.independent and all(self.members)


def _bound_map(D):
    # per closed point: quadratic conjugates constrain the same valuations,
    # so the binding bound of a pair is the smaller coefficient
    out = {}
    for P, c in D.items():
        key = P
        if isinstance(P, RamQuadratic):
            conj = P.root.frob(P.root.ctx.n // 2)
            key = RamQuadratic(min(P.root, conj, key=lambda x: x.to_int()))
        out[key] = c if key not in out else min(out[key], c)
    return out


def lspace_check(elems, D):
    """Membership of each element in L(D), plus exact linear independence."""
    if not elems:
        raise ValueError("nothing to check")
    curve = _curve_of(elems[0])
    for P in D.support:
        _validate_place(curve, P)
    divisors_ = []
    members = []
    for e in elems:
        dv = divisor(e)
        divisors_.append(dv)
        bounds = _bound_map(D)
        ok = True
        for P, v in dv.items():
            if v >= 0:
                continue
            if v < -bounds.get(P, 0):
                ok = False
                break
        members.append(ok)
    ctx = _curve_of(elems[0]).ctx
    den = Poly.one(ctx)
    for e in elems:
        for r in e.coords:
            g = poly_gcd(den, r.den)
            den = den * (r.den // g)
    rows = []
    width = 0
    for e in elems:
        row = []
        for r in e.coords:
            cleared = r.num * (den // r.den)
            row.append(cleared)
            width = max(width, cleared.degree + 1)
        rows.append(row)
    flat = []
    for row in rows:
        vec = []
        for poly in row:
            vec.extend(poly.coeff(i) for i in range(width))
        flat.append(vec)
    independent = _gf_rank(flat, ctx) == len(elems)
    return LSpaceReport(tuple(members), independent, tuple(divisors_))


def _gf_rank(rows, ctx):
    m = [list(r) for r in rows]
    rank = 0
    ncols = len(m[0]) if m else 0
    for col in range(ncols):
        piv = next((r for r in range(rank, len(m)) if not m[r][col].is_zero()),
                   None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = m[rank][col].inverse()
        m[rank] = [x * inv for x in m[rank]]
        for r in range(len(m)):
            if r != rank and not m[r][col].is_zero():
                f = m[r][col]
                m[r] = [a - f * b for a, b in zip(m[r], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


# -- point counting ----------------------------------------------------------


def count_degree_one(curve, k):
    """Number of degree-one places over GF(q^k), exactly.

    Affine contribution: (q-1) for each c off the ramification support with
    h(c) = -u/w a (q-1)-th power, u = gamma c^2 + a c + b/gamma and
    w = c^q - c, i.e. with ((-u)/w)^((q^k-1)/(q-1)) = 1.  Plus the q+1
    rational ramified places, plus the quadratic pair once it is rational.

    Three lanes, by the size of GF(q^k) and of q:
      * q^k <= gf.TABLE_CAP: a scan of GF(q^k) on exponents.  c = g^i, and
        w and u are sums of powers of g, each taken by Zech's logarithm,
        g^s + g^t = g^(s + Z(t - s)) (Lidl-Niederreiter, *Finite Fields*,
        10.1).  Since x^((q^k-1)/(q-1)) = 1 exactly when (q-1) divides
        log x, the test is (q-1) | log(-u) - log w.
      * q^k above that and q <= PIPELINE_Q_CAP: q^k + 1 - S_k from
        `l_polynomial`'s reciprocal roots.
      * otherwise, or above COUNT_CAP: TooLarge.
    """
    p, n, q = curve.ctx.p, curve.ctx.n, curve.q
    if k < 1:
        raise ValueError("extension degree must be positive")
    if q ** k > COUNT_CAP:
        raise TooLarge(f"GF({q}^{k}) exceeds the counting cap 2^22")
    if q ** k > gf.TABLE_CAP:
        return q ** k + 1 - _power_sums_from_coeffs(l_polynomial(curve), k)[k]
    E = create_field(p, n * k)
    top, zech, neg = E.order - 1, E._zech, E._neg_exp
    mod = curve.modulus
    lg = E.dlog(embed(curve.gamma, E))
    la = E.dlog(embed(mod.a, E)) if mod.a else None
    lb = E.dlog(embed(mod.b * curve.gamma.inverse(), E))
    total = 0
    for i in range(top):
        # log w = iq + Z(log(-1) + i - iq); None where c lies in GF(q)
        iq = i * q % top
        z = zech[(neg + i - iq) % top]
        if z is None:
            continue
        lw = iq + z
        # log u from gamma c^2, then + a c, then + b/gamma; None is u = 0
        lu = lg + 2 * i
        if la is not None:
            z = zech[(la + i - lu) % top]
            lu = None if z is None else lu + z
        if lu is None:
            lu = lb
        else:
            z = zech[(lb - lu) % top]
            if z is None:
                continue
            lu += z
        if (lu + neg - lw) % (q - 1) == 0:
            total += q - 1
    return total + (q + 1) + (2 if k % 2 == 0 else 0)


# -- the L-polynomial from the Dirichlet characters mod M ---------------------


def _log_histogram(modulus):
    """hist[e] = #{a in GF(q): log(beta + a) = e} in GF(q^2)*.

    beta is `one_root` of M in GF(q^2), so GF(q)[T]/(M) is GF(q^2) with
    T -> beta and hist[e] counts the residues T + a of discrete log e.
    """
    ctx = modulus.ctx
    K = create_field(ctx.p, 2 * ctx.n)
    beta = one_root(modulus.as_poly().embed_into(K))
    hist = [0] * (K.order - 1)
    for a in ctx.iter_elements():
        hist[K.dlog(beta + embed(a, K))] += 1
    return hist


@functools.lru_cache(maxsize=None)
def l_polynomial(curve):
    """L(T) = prod over the odd characters chi mod M of (1 + S_chi T),
    integers, constant term first.

    The zeta function of the torsion field is the product of the Dirichlet
    L-functions mod M (Hayes, *Trans. AMS* 189, 1974; Rosen, *Number Theory
    in Function Fields*, GTM 210, ch. 12).  With deg M = 2 each one with chi
    nontrivial on GF(q)* is linear, S_chi = sum_{a in GF(q)} chi(T + a).
    For chi_j(g^e) = zeta_N^(je), N = q^2 - 1, and H_k the k-fold cyclic
    convolution of `_log_histogram`, orthogonality gives, exactly in Z,
    sum_{odd chi} S_chi^k = N H_k[0] - (q+1) sum_{(q+1) | e} H_k[e],
    since the q+1 even characters sum to (q+1) [(q+1) | e].  Newton's
    identities turn these power sums of the reciprocal roots -S_chi into
    the coefficients.  Each division there must be exact, the degree must
    be 2g, every coefficient must satisfy the functional equation, and
    N_k must equal the point count for every q^k <= gf.TABLE_CAP, which
    reads h and gamma where L reads only M; FunctionalEquationViolated
    otherwise.
    """
    q = curve.q
    if q > PIPELINE_Q_CAP:
        raise TooLarge(f"L-polynomials are capped at q <= PIPELINE_Q_CAP = "
                       f"{PIPELINE_Q_CAP}, not q={q}")
    N, g = q * q - 1, genus_formula(q)
    occupied = [(f, c) for f, c in enumerate(_log_histogram(curve.modulus))
                if c]
    # S[k] = sum of (-S_chi)^k; conv[e - f] wraps mod N by negative index
    conv, S = [1] + [0] * (N - 1), [0]
    for k in range(1, 2 * g + 1):
        conv = [sum(c * conv[e - f] for f, c in occupied) for e in range(N)]
        S.append((-1) ** k * (N * conv[0] - (q + 1) * sum(conv[::q + 1])))
    coeffs = [1]
    for k in range(1, 2 * g + 1):
        c, r = divmod(-sum(x * S[k - j] for j, x in enumerate(coeffs)), k)
        if r:
            raise FunctionalEquationViolated(
                f"power sums give no integer coefficient at degree {k}")
        coeffs.append(c)
    if not coeffs[-1]:
        raise FunctionalEquationViolated(
            f"L-polynomial has degree below 2g = {2 * g}")
    for i in range(2 * g + 1):
        if q ** i * coeffs[2 * g - i] != q ** g * coeffs[i]:
            raise FunctionalEquationViolated(
                f"L-polynomial breaks the functional equation at degree {i}")
    for k in range(1, g + 1):
        if q ** k <= gf.TABLE_CAP and (
                count_degree_one(curve, k) != q ** k + 1 - S[k]):
            raise FunctionalEquationViolated(
                f"L-polynomial does not reproduce N_{k}")
    return tuple(coeffs)


# -- zeta data ---------------------------------------------------------------


class ZetaData(Record):
    __slots__ = ("q", "counts", "coeffs", "genus")

    def __init__(self, q, counts, coeffs, genus):
        set_field(self, "q", q)
        set_field(self, "counts", counts)
        set_field(self, "coeffs", coeffs)
        set_field(self, "genus", genus)


def genus_formula(q):
    """(q+1)(q-2)/2; the product is always even."""
    if q < 3:
        raise ValueError("the covers need q >= 3")
    return (q + 1) * (q - 2) // 2


class RHCheck(Record):
    __slots__ = ("q", "genus", "lhs", "rhs")

    def __init__(self, q, genus, lhs, rhs):
        set_field(self, "q", q)
        set_field(self, "genus", genus)
        set_field(self, "lhs", lhs)
        set_field(self, "rhs", rhs)

    @property
    def ok(self):
        return self.lhs == self.rhs


def rh_check(q):
    """Tame ramification bookkeeping: 2g-2 = -2(q-1) + (q+3)(q-2), exactly.

    The right side is the derived Euler characteristic: q+3 fully tamely
    ramified places of index q-1 over a genus-0 base.  Returns the genus it
    implies next to the closed-form one.
    """
    g = genus_formula(q)
    rhs = -2 * (q - 1) + (q + 3) * (q - 2)
    derived = (rhs + 2) // 2 if rhs % 2 == 0 else -1
    return RHCheck(q=q, genus=derived, lhs=2 * g - 2, rhs=rhs)


def _power_sums_from_coeffs(coeffs, upto):
    # S'_k = -k a_k - sum_{j<k} a_j S'_{k-j}, exact integers
    out = [0] * (upto + 1)
    for k in range(1, upto + 1):
        s = -k * coeffs[k] if k < len(coeffs) else 0
        for j in range(1, k):
            if j < len(coeffs):
                s -= coeffs[j] * out[k - j]
        out[k] = s
    return out


def zeta(curve):
    """Exact ZetaData: `l_polynomial`, already matched to the point counts,
    and the counts N_1..N_g it implies.  It must also pass the functional
    equation and the Weil envelope; FunctionalEquationViolated otherwise.
    """
    q = curve.q
    if not 3 <= q <= ZETA_Q_CAP:
        raise TooLarge(f"zeta is capped at q <= {ZETA_Q_CAP}, the field sizes "
                       "whose zeta reports are recorded")
    g = genus_formula(q)
    coeffs = l_polynomial(curve)
    S = _power_sums_from_coeffs(coeffs, 2 * g)
    counts = tuple(q ** k + 1 - S[k] for k in range(1, g + 1))
    for k in range(1, 2 * g + 1):
        if S[k] ** 2 > 4 * g * g * q ** k:
            raise FunctionalEquationViolated(
                f"Weil envelope breached at k={k}")
    # the functional equation, coefficient by coefficient; deg(L)/2 is the
    # genus it certifies
    genus = genus_from_zeta(ZetaData(q, counts, coeffs, None))
    return ZetaData(q=q, counts=counts, coeffs=coeffs, genus=genus)


def genus_from_zeta(zd):
    """deg(L)/2, after revalidating the structural invariants of the data."""
    coeffs = zd.coeffs
    if not coeffs or coeffs[0] != 1 or len(coeffs) % 2 == 0:
        raise FunctionalEquationViolated("malformed L-polynomial data")
    g = (len(coeffs) - 1) // 2
    q = zd.q
    for i in range(g + 1):
        if coeffs[2 * g - i] != q ** (g - i) * coeffs[i]:
            raise FunctionalEquationViolated(
                f"functional equation fails at i={i}")
    back = _power_sums_from_coeffs(coeffs, len(zd.counts))
    for k, nk in enumerate(zd.counts, start=1):
        if q ** k + 1 - back[k] != nk:
            raise FunctionalEquationViolated(
                f"counts and L-polynomial disagree at k={k}")
    return g


def report_row(curve):
    """One verification row: counts, L-polynomial, and the three genus routes."""
    zd = zeta(curve)
    rc = rh_check(curve.q)
    return {
        "q": curve.q,
        "modulus": format_poly(curve.modulus.as_poly(), "T"),
        "N": list(zd.counts),
        "L": list(zd.coeffs),
        "genus_zeta": zd.genus,
        "genus_formula": genus_formula(curve.q),
        "rh_ok": rc.ok and rc.genus == genus_formula(curve.q),
    }
