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
from math import gcd

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
    WrongQ,
    WrongRamification,
    ZeroElement,
)
from .gf import create_field, embed
from .kummer import KummerAlgebra, KummerCurve
from .polyalg import (
    INFINITY,
    Poly,
    RatFunc,
    _coprime_part,
    _distinct_degree,
    _exp_mul,
    _exp_peel,
    _exp_terms,
    _exp_value,
    _from_exps,
    _orbits,
    _to_exps,
    format_poly,
    one_root,
    poly_gcd,
    root_multiplicity,
)
from .record import Record, set_field

COUNT_CAP = 1 << 22
# pipelines, and the L-polynomial lane of count_degree_one, run up to this q
PIPELINE_Q_CAP = 9
# zeta runs for the field sizes whose zeta reports are recorded
ZETA_Q_CAP = 5
_SERIES_PREC_CAP = 512


# -- place kinds -------------------------------------------------------------


class RamFinite(Record):
    """Fully ramified place over v = alpha, alpha rational."""

    __slots__ = ("alpha",)
    degree = 1

    def __init__(self, alpha):
        set_field(self, "alpha", alpha)

    def __str__(self):
        return f"P[v={gf.format_element(self.alpha)}]"


class RamInfinity(Record):
    """Fully ramified place over v = infinity."""

    __slots__ = ("q",)
    degree = 1

    def __init__(self, q):
        set_field(self, "q", q)

    def __str__(self):
        return "P[inf]"


class RamQuadratic(Record):
    """Fully ramified place over a quadratic v-point; ``root`` lives in GF(q^2).

    The closed point under the conjugate root pair has degree 2.  Computed
    divisors book the pair once, through the lex-least root.
    """

    __slots__ = ("root",)
    degree = 2

    def __init__(self, root):
        set_field(self, "root", root)

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
        # a dict copy keeps the stored hashes; a place is hashed again only
        # when a zero coefficient must be dropped
        m = dict(coeffs or {})
        self._m = {P: c for P, c in m.items() if c} if 0 in m.values() else m

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


@functools.lru_cache(maxsize=None)
def _catalog(curve):
    """(places, booked, vys, points, quad, hnd, top), built once per
    curve: the q+3 ramified places; the places a divisor books, the
    rational ones, infinity and the quadratic point by quad_roots[0], and
    v_P(y) at each; {log a: (i, v - a)} for the i-th rational a, M's monic
    factor and h.num * h.den, as exponent lists; and the largest d with
    q^d <= gf.ORDER_CAP.
    """
    ctx, q = curve.ctx, curve.q
    rational = list(ctx.iter_elements())
    places = (*map(RamFinite, rational), RamInfinity(q),
              *map(RamQuadratic, curve.quad_roots))
    points = {ctx._log.get(a.coeffs):
              (i, tuple(_to_exps(Poly(ctx, (-a, ctx.one)), ctx)))
              for i, a in enumerate(rational)}
    top = max(d for d in range(1, gf.ORDER_CAP.bit_length())
              if q ** d <= gf.ORDER_CAP)
    quad = tuple(_to_exps(curve.ram_numerator.monic(), ctx))
    return (places, places[:q + 2], (-1,) * q + (q - 2, 1), points, quad,
            tuple(_to_exps(curve.h.num * curve.h.den, ctx)), top)


def ramified_places(curve):
    """All q+3 ramified places: q rational, infinity, two conjugate quadratic."""
    return list(_catalog(curve)[0])


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
        if P.root not in curve.quad_roots:
            raise UnknownPlace("quadratic point is not on this curve")
        return
    if isinstance(P, Generic):
        try:
            hc = embed(curve.h(P.c), P.ys.ctx)
        except (NoEmbedding, CtxMismatch):
            raise UnknownPlace("incompatible fields in the place datum")
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
    return _generic_valuation(curve, e.coords, P.c, P.ys)


# -- truncated power series over a field context -----------------------------
# The series serve `valuation` alone.  A series in t = v - c is a Poly in t
# cut to its first m coefficients, and a product of two is their Poly
# product cut by `_trunc`.  Inverses and the y-branch are Newton iterations
# that double the precision at each step (von zur Gathen-Gerhard, *Modern
# Computer Algebra*, ch. 9).  Each polynomial is Taylor-shifted to c + t
# once per call, and a precision m slices its first m coefficients from
# that shift.


def _trunc(f, m):
    return Poly(f.ctx, f.coeffs[:m])


def _series_inv(a, m):
    # g <- g (2 - a g) from g = 1/a(0)
    g = Poly.constant(a.coeff(0).inverse())
    prec = 1
    while prec < m:
        prec = min(2 * prec, m)
        g = _trunc((2 - _trunc(a * g, prec)) * g, prec)
    return g


def _taylor_shift(f, K, c):
    # f(c + t) as a Poly in t over c's field E; f reaches E through K
    E = c.ctx
    return f.embed_into(K).embed_into(E).compose(Poly(E, (c, E.one)))


def _laurent(num, den, m):
    # (order, unit series mod t^m) of num/den from their Taylor shifts
    E = num.ctx
    units = []
    for f in (num, den):
        o = next(i for i, x in enumerate(f.coeffs) if not x.is_zero())
        units.append((o, Poly(E, f.coeffs[o:o + m])))
    (on, nu), (od, du) = units
    return on - od, _trunc(nu * _series_inv(du, m), m)


def _y_branch(H, y0, n, m):
    # Newton lift of Y^n = H mod t^m from Y(0) = y0; n is a unit in E
    E = y0.ctx
    y = Poly.constant(y0)
    prec = 1
    while prec < m:
        prec = min(2 * prec, m)
        pw = gf.power(y, n - 1, lambda a, b: _trunc(a * b, prec),
                      Poly.one(E))
        diff = _trunc(pw * y - H, prec)
        y = y - _trunc(diff * _series_inv(pw * n, prec), prec)
    return y


def _generic_valuation(curve, coords, c, ys):
    """v_P(sum r_i y^i) at the place P over v = c with y-value ys, for
    `valuation`.

    h and the filled coordinates are Taylor-shifted to c + t once, and
    each precision m slices its series from those shifts.  m starts at one
    term and doubles up to `_SERIES_PREC_CAP`.  At m = 1 the y-branch is ys
    and each Laurent unit is its leading coefficient, so a place is settled
    at s0 = min_i v_c(r_i) unless the tied leading terms cancel there;
    every precision that finds a nonzero term finds the same valuation.
    """
    E = ys.ctx
    # h and the coordinates reach E through K, as c does
    K, cE = c.ctx, embed(c, E)

    def shift(r):
        return _taylor_shift(r.num, K, cE), _taylor_shift(r.den, K, cE)

    hshift = shift(curve.h)
    shifts = {i: shift(r) for i, r in enumerate(coords) if r}
    m = 1
    while m <= _SERIES_PREC_CAP:
        ybr = _y_branch(_laurent(*hshift, m)[1], ys, curve.q - 1, m)
        terms = {i: _laurent(*s, m) for i, s in shifts.items()}
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


def _closed_points(curve, f):
    """Closed points (degree, lex-least rep) under the roots of f.

    The ramified locus is divided out before any splitting: h.num * h.den
    vanishes exactly at the q rational points and the quadratic point, so
    f loses every copy of its factors there and keeps no rational root.
    f is converted to its exponent list once: the division and the
    `polyalg._distinct_degree` pass that parts what is left by factor
    degree, for each d with q^d <= gf.ORDER_CAP, run on exponent lists
    over GF(q), and so does the splitting wherever GF(q^d) has tables; a
    factor past that degree raises rather than silently dropping support.
    The points of each degree d are the Frobenius orbits of one
    `polyalg._orbits` call in GF(q^d), each of which must have length d,
    named by its least element by ``to_int`` and taken in that order.
    """
    ctx = curve.ctx
    *_, hnd, top = _catalog(curve)
    *parts, (_, rest) = _distinct_degree(
        _coprime_part(_to_exps(f, ctx), hnd, ctx), top, ctx)
    if len(rest) > 1:
        raise GenericPlaceUnsupported(
            f"support of {format_poly(f.monic(), 'v')} does not split under "
            f"the field cap {gf.ORDER_CAP}")
    out = []
    for d, part in parts:
        leaders = []
        for orbit in _orbits(part, ctx, create_field(ctx.p, ctx.n * d)):
            if len(orbit) != d:
                raise CertificateFailed(
                    f"a root of a degree-{d} factor has a Frobenius "
                    f"orbit of length {len(orbit)}")
            leaders.append(min(orbit, key=lambda e: e.to_int()))
        out.extend((d, r) for r in sorted(leaders, key=lambda e: e.to_int()))
    return out


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
    h(c) is taken in c's field and then embedded: `gf.embed` does not
    commute along towers (GF(9) -> GF(3^6) -> GF(3^12) is not the direct
    GF(9) -> GF(3^12)), so h embedded straight into GF(q^(dj)) may be read
    at a conjugate point.
    """
    p, n, q = curve.ctx.p, curve.ctx.n, curve.q
    norm = _fiber_norm(curve, d, c)
    j = norm.order()
    if p ** (n * d * j) > gf.ORDER_CAP:
        raise GenericPlaceUnsupported(
            f"fiber splitting field GF({q}^{d * j}) exceeds the cap")
    E = create_field(p, n * d * j)
    roots = E.nth_roots(embed(curve.h(c), E), q - 1)
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


def _leading_term(r, c):
    """(v_c(r), a, b): near c, r = (v - c)^(v_c(r)) u with u(c) = a/b.

    a and b lie in c's field.  A polynomial with no root at c costs one
    evaluation there; each root is peeled by one exact division by v - c.
    """
    K = c.ctx
    lin = Poly(K, (-c, K.one))
    out = []
    for f in (r.num, r.den):
        g, m = f.embed_into(K), 0
        value = g(c)
        while not value:
            g, m = g // lin, m + 1
            value = g(c)
        out.append((m, value))
    (mn, a), (md, b) = out
    return mn - md, a, b


def _tied_fiber(fiber, s0, tied, vn):
    """(settled, left) over the fiber of a point c where the terms (i, a, b)
    of ``tied`` all attain s0 = min_i v_c(r_i), with leading coefficient
    a/b in c's field (`_leading_term`); vn = v_c(N e).

    At P, e = t^s0 (sum_tied (a/b) ys^i + O(t)) for t = v - c: a nonzero
    sum gives v_P(e) = s0, a zero one v_P(e) > s0.  With j = deg P / deg c
    for every P over c, j sum_P v_P(e) = vn (see `divisor`), so a lone
    cancelling place gets vn / j - (k - 1) s0 for k places over c;
    CertificateFailed unless that is an integer above s0.  ``left`` holds
    the cancelling places when there are two or more, which need series.
    """
    E = fiber[0].ys.ctx
    # the leading values reach the fiber field through c's field, as c does
    leads = [(i, embed(a / b, E)) for i, a, b in tied]
    settled, left = {}, []
    for P in fiber:
        acc = E.zero
        for i, a in leads:
            acc = acc + a * P.ys ** i
        if acc:
            settled[P] = s0
        else:
            left.append(P)
    if len(left) == 1:
        v, rest = divmod(vn, fiber[0].degree // fiber[0].k)
        v -= (len(fiber) - 1) * s0
        if rest or v <= s0:
            raise CertificateFailed(
                f"v_c(N e) = {vn} leaves no valuation above {s0} for the "
                "one place whose leading terms cancel")
        settled[left.pop()] = v
    return settled, left


def _ramified_orders(r, points, quad):
    """(orders, num, den) for a coordinate r: ``orders`` maps an index into
    the catalog's booked places to v(r) there, for the nonzero orders only:
    the rational points of ``points`` where r has a zero or a pole,
    infinity at index q and M's point at index q+1; every other booked
    place takes its value from `_y_divisor`.  num and den are r's
    numerator and denominator with each v - a and M divided out, as
    exponent lists.  v - a is divided only where an evaluation finds a
    root, until what is left is linear; a linear rest over GF(q) has its
    one root at log a = log(-c_0 / c_1), which needs no evaluation, and
    one exact division by v - a, found by `_exp_peel`'s equal-degree test.
    The order at infinity is a difference of lengths."""
    ctx, q = r.num.ctx, len(points)
    top = len(r.den.coeffs) - len(r.num.coeffs)
    orders, out = ({q: top} if top else {}), []
    for f, sign in ((r.num, 1), (r.den, -1)):
        a = _to_exps(f, ctx)
        if len(a) > 2:
            terms = _exp_terms(a)
            for k, (i, lin) in points.items():
                if _exp_value(terms, k, ctx) is None:
                    m, a = _exp_peel(a, lin, ctx)
                    orders[i] = sign * m
                    if len(a) < 3:
                        break
                    terms = _exp_terms(a)
        if len(a) == 2:
            i, lin = points[None if a[0] is None else
                            (a[0] + ctx._neg_exp - a[1]) % (ctx.order - 1)]
            m, a = _exp_peel(a, lin, ctx)
            orders[i] = sign * m
        elif len(a) > 2:
            # no rational root is left, so only M can divide
            m, a = _exp_peel(a, quad, ctx)
            if m:
                orders[q + 1] = sign * m
        out.append(a)
    return orders, *out


@functools.lru_cache(maxsize=None)
def _y_divisor(curve, lo, hi):
    """v_P(e) at each booked place P where no filled coordinate of e has a
    nonzero order, for lo and hi the least and greatest filled exponents:
    there v_P(e) = min_i i v_P(y) = min(lo v_P(y), hi v_P(y)), since
    i v_P(y) is linear in i.  Only the nonzero values are kept."""
    _, booked, vys, *_ = _catalog(curve)
    return {P: v for P, vy in zip(booked, vys)
            if (v := min(lo * vy, hi * vy))}


@functools.lru_cache(maxsize=None)
def _cleared_algebra(curve):
    """(A, [hd^k for k < n]) for h = hn/hd: A is GF(q)(v)[Z]/(Z^n - G)
    with G = hn hd^(n-1), the relation of z = hd y, a polynomial."""
    pows = [curve.h.den ** k for k in range(curve.q - 1)]
    return KummerAlgebra(curve.ctx, curve.q - 1, curve.h.num * pows[-1]), pows


def _cleared_norm(curve, coords, filled):
    """(N, D) for e = sum r_i y^i: D is the product of the distinct
    denominators of the filled coordinates, and N the norm of the cleared
    element sum b_i z^i in `_cleared_algebra`, b_i = r_i D hd^(n-1-i), so
    that e = sum b_i z^i / (D hd^(n-1)) and N(e) = N / (D hd^(n-1))^n.
    Every coordinate and the relation are polynomials, so the norm's
    products and sums take no gcd; a factor D / den_i or hd^(n-1-i) that
    is 1 is not multiplied in."""
    alg, pows = _cleared_algebra(curve)
    D = functools.reduce(operator.mul, {coords[i].den for i in filled})
    pairs = []
    for i in filled:
        r, hd = coords[i], pows[alg.n - 1 - i]
        b = r.num if r.den == D else r.num * (D // r.den)
        pairs.append((i, RatFunc.from_poly(b * hd if hd.degree else b)))
    return alg.from_pairs(pairs).norm().num, D


def divisor(e):
    """Principal divisor of a nonzero element, booked on closed points.

    Ramified places.  Over a rational point, infinity or M's point, P is
    totally ramified and v_P(y) = v(h) = -1, q-2 or +1, prime to q-1, so
    the values v_P(r_i y^i) = (q-1) v(r_i) + i v(h) differ for distinct i
    and v_P(e) is their minimum (Stichtenoth, *Algebraic Function Fields
    and Codes*, Prop. 3.7.3).  One peel of each filled coordinate's
    numerator and denominator against the curve's `_catalog` gives its
    nonzero orders v(r_i) only (`_ramified_orders`).  At a place where no
    coordinate has one the minimum is min_i i v_P(y), read from the
    curve's `_y_divisor` for the least and greatest filled exponents; each
    place where some coordinate has one is set to the minimum over all
    terms, and dropped where that is 0.  So a one-term element r y^i is
    booked as (q-1) div(r) + i div(y) on these places.

    Unramified places.  A closed point c carries support only if it is a
    pole of some coordinate or a zero of the numerator of N(e), so one
    support polynomial, with those roots off the ramified locus, is split
    by `_closed_points`.  A one-term element r y^i has
    N(e) = r^(q-1) N(y)^i with N(y) = +-h a unit off the ramified locus,
    so its support is what the peel leaves of r, and a constant rest
    splits nothing.  For more terms the norm is taken of the cleared
    element (`_cleared_norm`): with h = hn/hd and z = hd y, z^n =
    hn hd^(n-1) is a polynomial and e = sum b_i z^i / (D hd^(n-1)) for
    polynomials b_i and D the product of the distinct coordinate
    denominators, so N(e) = N / (D hd^(n-1))^n for the norm N of
    sum b_i z^i, found with no gcd.  The support is N D, and off the
    ramified locus, where hd is a unit, v_c(N e) = v_c(N) - n v_c(D);
    v_c(D) is 0 there unless some coordinate's peeled denominator is
    non-constant.
    At a place P over c, y is a unit (h has no zero or
    pole there) and e(P|c) = 1, so v_P(r_i y^i) = v_c(r_i) and
    v_P(e) >= min_i v_c(r_i): a pole of e needs a coordinate pole.  If no
    coordinate has a pole at c, every v_P(e) >= 0, and
    v_c(N e) = sum_{P|c} f(P|c) v_P(e) (Stichtenoth, ch. 3) is positive
    once one v_P(e) is.  The same formula makes v_c(N e) < 0 force a
    coordinate pole, so neither the coordinate numerators nor the
    denominator of N(e) can add a point.  Each coordinate's order and
    leading coefficient at c come from `_leading_term`.  When one term
    alone attains min_i v_c(r_i), that minimum is v_P(e) by the strict
    triangle inequality.  A tied minimum is settled by `_tied_fiber` from
    the leading terms and v_c(N e); only two or more cancelling places of
    one fiber lift series, each through `valuation`, and the fiber must
    then meet the norm formula above.

    A principal divisor has degree 0; any other total raises
    CertificateFailed.
    """
    curve = _curve_of(e)
    coords = e.coords
    filled = [i for i, r in enumerate(coords) if r]
    if not filled:
        raise ZeroElement("the zero element has no divisor")
    _, booked, vys, points, quad, _, _ = _catalog(curve)
    n = curve.q - 1
    peeled = [(i, *_ramified_orders(coords[i], points, quad)) for i in filled]
    coeffs = dict(_y_divisor(curve, filled[0], filled[-1]))
    if len(filled) == 1:
        (i, orders, num, den), = peeled
        spots = ((j, n * x + i * vys[j]) for j, x in orders.items())
        # a constant rest, the common case, splits nothing
        support = (None if len(num) + len(den) < 3
                   else _from_exps(curve.ctx, _exp_mul(num, den, curve.ctx)))
    else:
        spots = ((j, min(n * o.get(j, 0) + i * vys[j]
                         for i, o, _, _ in peeled))
                 for j in {j for _, o, _, _ in peeled for j in o})
        norm, cleared = _cleared_norm(curve, coords, filled)
        support = norm * cleared
        # D has a root off the ramified locus only where a peeled
        # denominator rest does
        poles = any(len(den) > 1 for *_, den in peeled)
    for j, c in spots:
        if c:
            coeffs[booked[j]] = c
        else:
            coeffs.pop(booked[j], None)
    for d, c in (() if support is None or support.is_constant()
                 else _closed_points(curve, support)):
        fiber = _fiber_places(curve, d, c)
        terms = {i: _leading_term(coords[i], c) for i in filled}
        s0 = min(o for o, _, _ in terms.values())
        tied = [(i, a, b) for i, (o, a, b) in terms.items() if o == s0]
        if len(tied) == 1:
            for P in fiber:
                coeffs[P] = s0
            continue
        # off the ramified locus hd is a unit
        vn = root_multiplicity(norm, c) - (
            n * root_multiplicity(cleared, c) if poles else 0)
        settled, left = _tied_fiber(fiber, s0, tied, vn)
        for P in left:
            settled[P] = valuation(e, P)
        # with no cancelling place this is (q-1) s0 = vn
        j = fiber[0].degree // d
        if j * sum(settled.values()) != vn:
            raise CertificateFailed(
                f"the valuations over a point sum to "
                f"{sum(settled.values())} at inertia degree {j}, but "
                f"v_c(N e) = {vn}")
        coeffs.update(settled)
    dv = Divisor(coeffs)
    if dv.degree:
        raise CertificateFailed(
            f"the divisor of a function has degree {dv.degree}, not 0")
    return dv


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
    bounds = _bound_map(D)
    divisors_ = []
    members = []
    for e in elems:
        dv = divisor(e)
        divisors_.append(dv)
        members.append(all(dv.coeff(P) + bounds.get(P, 0) >= 0
                           for P in bounds.keys() | dv.support))
    ctx = curve.ctx
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

    Affine contribution: (q-1) for each c in GF(q^k) where h(c) is finite,
    nonzero and a (q-1)-th power, i.e. h(c)^((q^k-1)/(q-1)) = 1.  Plus the
    q+1 rational ramified places, plus the quadratic pair once it is
    rational.  Only h is read, so the count is a second route to the N_k
    that `l_polynomial` derives from M alone.

    Three lanes, by the size of GF(q^k) and of q:
      * q^k <= gf.TABLE_CAP: a scan of GF(q^k) on exponents.  The nonzero
        terms of h's numerator and denominator are kept as generator
        exponents, and each value at c = g^i is one Zech lookup per term
        (polyalg's `_exp_value`, the kernel of `Poly.__call__`).  Since
        x^((q^k-1)/(q-1)) = 1 exactly when (q-1) divides log x, the test is
        (q-1) | log num(c) - log den(c).
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
    num, den = (_exp_terms(_to_exps(f.embed_into(E), E))
                for f in (curve.h.num, curve.h.den))
    total = 0
    # None is c = 0
    for i in (None, *range(E.order - 1)):
        ln = _exp_value(num, i, E)
        ld = _exp_value(den, i, E)
        if ln is not None and ld is not None and (ln - ld) % (q - 1) == 0:
            total += q - 1
    return total + (q + 1) + (2 if k % 2 == 0 else 0)


# -- the L-polynomial from the Dirichlet characters mod M ---------------------


def _log_histogram(modulus):
    """hist[e] = #{a in GF(q): log(beta + a) = e} in GF(q^2)*.

    beta is `one_root` of M in GF(q^2), so GF(q)[T]/(M) is GF(q^2) with
    T -> beta and hist[e] counts the residues T + a of discrete log e.  The
    other root beta^q gives hist[e q mod (q^2 - 1)] in place of hist[e],
    which `l_polynomial` cannot tell apart: the odd characters are closed
    under j -> j q.
    """
    ctx = modulus.ctx
    K = create_field(ctx.p, 2 * ctx.n)
    beta = one_root(modulus.as_poly(), K)
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
    the coefficients.  The odd characters are closed under j -> t j for
    every unit t mod N, so for any integer histogram the coefficients are
    rational integers and each division there is exact.

    Three checks, FunctionalEquationViolated at the first that fails; this
    is the one place where L is checked.  The logs of the q residues T + a
    must form a relative difference set in Z/N (Bose, *Sankhya* 6, 1942):
    D[d] = sum_e H[e] H[e + d] is q at d = 0, 0 at the other multiples of
    q+1 and 1 elsewhere.  Its Fourier transform |S_chi|^2 then equals q
    for every odd chi, which is the Riemann hypothesis for L, exactly.
    Every coefficient must satisfy the functional equation (at degree 0 it
    asks for the leading coefficient q^g, so L has degree 2g).  On a
    difference set it follows, as q/S_chi is the conjugate of S_chi, so
    it checks the power sums and Newton's identities, not H.  N_k must
    equal the point count for every q^k <= gf.TABLE_CAP, which reads h
    where L reads only M.
    """
    q = curve.q
    if q > PIPELINE_Q_CAP:
        raise TooLarge(f"L-polynomials are capped at q <= PIPELINE_Q_CAP = "
                       f"{PIPELINE_Q_CAP}, not q={q}")
    N, g = q * q - 1, genus_formula(q)
    hist = _log_histogram(curve.modulus)
    occupied = [(f, c) for f, c in enumerate(hist) if c]
    for d in range(N):
        if sum(c * hist[(f + d) % N] for f, c in occupied) != (
                q if d == 0 else int(d % (q + 1) != 0)):
            raise FunctionalEquationViolated(
                f"the log histogram is no relative difference set at d={d}")
    # S[k] = sum of (-S_chi)^k; conv[e - f] wraps mod N by negative index
    conv, S = [1] + [0] * (N - 1), [0]
    for k in range(1, 2 * g + 1):
        conv = [sum(c * conv[e - f] for f, c in occupied) for e in range(N)]
        S.append((-1) ** k * (N * conv[0] - (q + 1) * sum(conv[::q + 1])))
    coeffs = [1]
    for k in range(1, 2 * g + 1):
        coeffs.append(-sum(x * S[k - j] for j, x in enumerate(coeffs)) // k)
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


# -- genus and zeta ----------------------------------------------------------


def genus_formula(q):
    """(q+1)(q-2)/2; the product is always even."""
    if q < 3:
        raise WrongQ(f"the covers need q >= 3, got q={q}")
    return (q + 1) * (q - 2) // 2


def genus_rh(curve):
    """The genus by Riemann-Hurwitz, read from the valuations of h.

    The cover y^(q-1) = h(v) is tame, and every place over a place P of the
    v-line has index (q-1)/gcd(q-1, v_P(h)), so
    2g-2 = -2(q-1) + sum_P (q-1 - gcd(q-1, v_P(h))) deg P, summed over the
    q rational points, infinity and the quadratic point.  Those finite
    points must carry all of div(h), sum |v_P(h)| deg P = deg num + deg den;
    WrongRamification otherwise.
    """
    n, h = curve.q - 1, curve.h
    finite = [(h.valuation(a), 1) for a in curve.ctx.iter_elements()]
    finite.append((h.valuation(curve.quad_roots[0]), 2))
    if sum(abs(v) * d for v, d in finite) != h.num.degree + h.den.degree:
        raise WrongRamification("h has zeros or poles off the rational and "
                                "quadratic points")
    branch = finite + [(h.valuation(INFINITY), 1)]
    # the sum has the parity of sum v_P(h) deg P = 0, so it halves exactly
    return 1 - n + sum((n - gcd(n, v)) * d for v, d in branch) // 2


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
    """(N_1..N_g, L): `l_polynomial`, certified there, and the degree-one
    counts over GF(q^k), k <= g, that it implies.
    """
    q = curve.q
    if not 3 <= q <= ZETA_Q_CAP:
        raise TooLarge(f"zeta is capped at q <= {ZETA_Q_CAP}, the field sizes "
                       "whose zeta reports are recorded")
    g = genus_formula(q)
    coeffs = l_polynomial(curve)
    S = _power_sums_from_coeffs(coeffs, g)
    return tuple(q ** k + 1 - S[k] for k in range(1, g + 1)), coeffs
