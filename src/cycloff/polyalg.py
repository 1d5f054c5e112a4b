"""Univariate polynomials and rational functions over a field context.

Polynomials are coefficient tuples, constant term first, with no trailing
zeros; the zero polynomial is the empty tuple and reports degree -inf.
Rational functions are stored fully reduced with monic denominator, so
structural equality is semantic equality.

Everything here is exact.  Every power of a polynomial is gf.power's
square-and-multiply.  Modulo a polynomial only Frobenius steps are taken,
a spread of the coefficients (Poly.frob_power, or _exp_frob on exponent
lists) and one reduction: X^(q^d) in _distinct_degree and X^(p^j) in
_frobenius_images (von zur Gathen-Gerhard, *Modern Computer Algebra*,
14.2).  Roots in an extension GF(Q) come from one routine, one_root, with
one method per kind of GF(Q).  Where GF(Q) has log tables it scans: f's
exponent list is evaluated at 0 and then at g^0, g^1, ... by Zech sums
until it vanishes.  A packed GF(Q) runs Berlekamp's trace splitter (Math.
Comp. 24, 1970) with Poly operations, on the Frobenius images X^(p^j) mod
f, computed once over f's own field, one p-th power each (von zur
Gathen-Shoup, Comput. Complexity 2, 1992); each trace form is built
coefficient by coefficient, and the trace of a = 1, which cannot part two
roots of one factor over GF(p), is tried last.  Splitting happens in one
place, for roots_in, the divisor supports and the irreducibility test
alike: _distinct_degree takes f apart by the degree of its irreducible
factors over f's own field, with no radical, and stops at half the degree
of what is left, which is then irreducible; _orbits turns each such part
into the Frobenius orbits of its roots, one one_root call per orbit.
is_irreducible reads only its first part: f of degree d is irreducible
iff gcd(f, T^(q^i) - T) = 1 for every i <= d/2 (Ben-Or, FOCS 1981).  The
polynomials split have coefficients in a field with tables (GF(q),
q <= 9, or GF(p) for gf's modulus search), so _distinct_degree,
_coprime_part, _frobenius_images and _orbits take and return exponent
lists, and is_irreducible, roots_in and the divisor supports convert once
at their boundary.

Over every field with log/antilog tables (order up to gf.TABLE_CAP, GF(2)
included), product, division, gcd, evaluation and root multiplicity run
on lists of generator exponents, adding with Zech's logarithm table; each
converts once on entry and once on exit.  Fields above the cap, which root
finding and the series at extension points reach, keep FieldElem loops for
these five; a power series product is a plain product cut to its
precision.  Powers and sums of scaled polynomials are built from them.
RatFunc lives over table fields only (TooLarge above the cap), so its
products, reduction to lowest terms and Mobius substitution
(RatFunc.compose_fractional) have only the exponent form, and a sum or
product of two with denominator 1 takes no gcd.  gf finds each field's
modulus with the distinct-degree kernel here, over GF(p).

QuotientAlgebra is GF(q)(T)[Y] modulo a sparse monic relation in Y.  An
element is one exponent list per coordinate over one common monic
denominator, not in lowest terms, so its sums, products and folds are the
exponent kernels above and take no gcd; RatFunc is only its boundary
(from_coords, coords, norm).  The torsion field (carlitz.CycModel) and
the Kummer algebras (kummer.KummerAlgebra) are its two instances.  Each is
Galois over GF(q)(T) with a cyclic group of order n, and supplies its
relation and the image of Y under a generator sigma; y -> c y shifts the
exponents of each coordinate.  Norms are products of the n conjugates,
taken one prime-order subgroup at a time; the inverse is the cofactor of
that product over the norm, so no extended Euclid runs over GF(q)(T).
"""

import functools
import itertools
import operator

from . import gf
from .errors import (
    BothZero,
    CertificateFailed,
    ConstantPolynomial,
    CtxMismatch,
    DivisionByZero,
    NoEmbedding,
    ParseError,
    TooLarge,
    ZeroPolynomial,
    ZeroValuation,
)

NEG_INF = float("-inf")

#: sentinel for the place at infinity of the projective line
INFINITY = "infinity"


class Poly:
    """Polynomial over a FieldCtx; immutable.  ``_exps`` is the exponent
    tuple of a kernel output (see `_from_exps`), else None."""

    __slots__ = ("ctx", "coeffs", "_exps")

    def __init__(self, ctx, coeffs):
        i = len(coeffs)
        while i and coeffs[i - 1].is_zero():
            i -= 1
        self.ctx = ctx
        self.coeffs = tuple(coeffs[:i])
        self._exps = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_ints(cls, ctx, ints):
        return cls(ctx, [ctx.elem(c) for c in ints])

    @classmethod
    def zero(cls, ctx):
        return cls(ctx, ())

    @classmethod
    def one(cls, ctx):
        return cls(ctx, (ctx.one,))

    @classmethod
    def constant(cls, e):
        return cls(e.ctx, (e,))

    @classmethod
    def gen(cls, ctx):
        """The variable itself."""
        return cls(ctx, (ctx.zero, ctx.one))

    # -- structure ----------------------------------------------------------

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def lc(self):
        if not self.coeffs:
            raise ZeroPolynomial("zero polynomial has no leading coefficient")
        return self.coeffs[-1]

    def is_zero(self):
        return not self.coeffs

    def is_one(self):
        return len(self.coeffs) == 1 and self.coeffs[0] == self.ctx.one

    def is_constant(self):
        return len(self.coeffs) <= 1

    def __bool__(self):
        return bool(self.coeffs)

    def coeff(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else self.ctx.zero

    def monic(self):
        if self.is_zero():
            raise ZeroPolynomial("cannot normalize the zero polynomial")
        if self.lc == self.ctx.one:
            return self
        inv = self.lc.inverse()
        return Poly(self.ctx, [c * inv for c in self.coeffs])

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise CtxMismatch("polynomials over different fields")
            return other
        if isinstance(other, gf.FieldElem):
            if other.ctx is not self.ctx:
                raise CtxMismatch("coefficient from a different field")
            return Poly.constant(other)
        if isinstance(other, int):
            return Poly.constant(self.ctx.elem(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return Poly(self.ctx, out)

    __radd__ = __add__

    def __neg__(self):
        return Poly(self.ctx, [-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        ctx = self.ctx
        if ctx._zech is not None:
            return _from_exps(ctx, _exp_mul(_to_exps(self, ctx),
                                            _to_exps(other, ctx), ctx))
        a, b = self.coeffs, other.coeffs
        terms = [(j, y) for j, y in enumerate(b) if not y.is_zero()]
        out = [ctx.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x.is_zero():
                for j, y in terms:
                    out[i + j] = out[i + j] + x * y
        return Poly(ctx, out)

    __rmul__ = __mul__

    def __divmod__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("polynomial division by zero")
        ctx = self.ctx
        if ctx._zech is not None:
            q, r = _exp_divmod(_to_exps(self, ctx), _to_exps(other, ctx), ctx)
            return _from_exps(ctx, q), _from_exps(ctx, r)
        rem = list(self.coeffs)
        b = other.coeffs
        db = other.degree
        # monic divisors are the common case; skip a full inversion there
        inv_lc = None if other.lc == ctx.one else other.lc.inverse()
        quo = [ctx.zero] * max(0, len(rem) - db)
        for d in range(len(rem) - 1 - db, -1, -1):
            top = rem[d + db]
            if top.is_zero():
                continue
            c = top if inv_lc is None else top * inv_lc
            quo[d] = c
            for j in range(db):
                rem[d + j] = rem[d + j] - c * b[j]
        return Poly(ctx, quo), Poly(ctx, rem[:db])

    def __floordiv__(self, other):
        return divmod(self, other)[0]

    def __mod__(self, other):
        return divmod(self, other)[1]

    def __pow__(self, e):
        if not isinstance(e, int) or e < 0:
            raise ValueError("polynomial powers take non-negative ints")
        return gf.power(self, e, operator.mul, Poly.one(self.ctx))

    def __eq__(self, other):
        if isinstance(other, Poly):
            return other.ctx is self.ctx and other.coeffs == self.coeffs
        if isinstance(other, (int, gf.FieldElem)):
            co = self._coerce(other)
            return co is not None and co.coeffs == self.coeffs
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    # -- evaluation and maps ------------------------------------------------

    def __call__(self, point):
        """Evaluate; the point may live in an extension of the base field."""
        if isinstance(point, int):
            point = self.ctx.elem(point)
        tgt = point.ctx
        f = self if tgt is self.ctx else self.embed_into(tgt)
        if tgt._zech is not None:
            e = _exp_value(_exp_terms(f._exps or _to_exps(f, tgt)),
                           tgt._log.get(point.coeffs), tgt)
            return tgt.zero if e is None else tgt._elems[e]
        acc = tgt.zero
        for c in reversed(f.coeffs):
            acc = acc * point + c
        return acc

    def embed_into(self, tgt_ctx):
        return Poly(tgt_ctx, [gf.embed(c, tgt_ctx) for c in self.coeffs])

    def derivative(self):
        ctx = self.ctx
        p, zero = ctx.p, ctx.zero
        return Poly(ctx, [zero if i % p == 0 else c * ctx.elem(i % p)
                          for i, c in enumerate(self.coeffs) if i])

    def compose(self, inner):
        """self(inner) for a polynomial inner."""
        acc = Poly.zero(self.ctx)
        for c in reversed(self.coeffs):
            acc = acc * inner + c
        return acc

    def frob_power(self, j):
        """The p^j-th power, sum c_i^(p^j) X^(i p^j), by ``_exp_frob``; the
        field needs log tables."""
        ctx = self.ctx
        return _from_exps(ctx, _exp_frob(_to_exps(self, ctx), ctx.p ** j, ctx))

    def __str__(self):
        return format_poly(self)

    def __repr__(self):
        return f"<{format_poly(self)} over {self.ctx.name}>"


# ---------------------------------------------------------------------------
# gcd machinery

def poly_gcd(f, g):
    if f.is_zero() and g.is_zero():
        raise BothZero("gcd(0, 0) is undefined")
    ctx = f.ctx
    if ctx._zech is not None:
        return _from_exps(ctx, _exp_gcd(_to_exps(f, ctx), _to_exps(g, ctx),
                                        ctx))
    while not g.is_zero():
        f, g = g, f % g
    return f.monic()


def is_irreducible(f):
    """Irreducibility over the coefficient field GF(q): f of degree d has
    no factor of degree <= d/2 (Ben-Or, FOCS 1981).  The first part that
    _distinct_degree yields settles it, so a candidate with a factor of
    degree i is rejected after i Frobenius steps mod f.  GF(q) needs log
    tables (TooLarge above gf.TABLE_CAP).
    """
    d = f.degree
    if d is NEG_INF or d < 1:
        raise ConstantPolynomial("irreducibility needs degree >= 1")
    return next(_distinct_degree(_to_exps(f, f.ctx), d // 2, f.ctx))[0] == 0


# ---------------------------------------------------------------------------
# Kernels on generator exponents, for contexts with log/antilog tables.
# A polynomial is a list of exponents k (the coefficient g^k), None for a
# zero coefficient, constant term first and no trailing None.  A sum of two
# nonzero terms is g^c + g^t = g^(c + zech[t - c]), so no FieldElem is made
# between entry and exit.  A kernel output keeps its list as a Poly's
# ``_exps``, so it is never converted back.


def _to_exps(f, ctx):
    """f's exponent list: a copy of the kept one, else converted afresh;
    the kernels may consume it."""
    if f.ctx is not ctx:
        raise CtxMismatch("polynomials over different fields")
    a = f._exps
    if a is not None:
        return list(a)
    log = ctx._log
    if log is None:
        raise TooLarge(f"{ctx.name} is past the log tables")
    return [log.get(c.coeffs) for c in f.coeffs]


def _from_exps(ctx, a):
    """The Poly of a kernel output a, which ends in no None, keeping a."""
    elems, zero = ctx._elems, ctx._zero
    f = Poly.__new__(Poly)
    f.ctx = ctx
    f.coeffs = tuple([zero if k is None else elems[k] for k in a])
    f._exps = tuple(a)
    return f


def _exp_mul(a, b, ctx, acc=None):
    """a*b, or acc + a*b added into the list acc in place."""
    out = [] if acc is None else acc
    if not a or not b:
        return out
    zech, m = ctx._zech, ctx.order - 1
    terms = [(j, y) for j, y in enumerate(b) if y is not None]
    out.extend([None] * (len(a) + len(b) - 1 - len(out)))
    for i, x in enumerate(a):
        if x is None:
            continue
        for j, y in terms:
            j += i
            t = x + y
            c = out[j]
            if c is None:
                out[j] = t % m
            else:
                z = zech[(t - c) % m]
                out[j] = None if z is None else (c + z) % m
    return _exp_trim(out)


def _exp_trim(a):
    """a without its trailing None entries, in place."""
    while a and a[-1] is None:
        a.pop()
    return a


def _exp_scale(a, c, ctx):
    """g^c * a; _exp_scale(a, -a[-1], ctx) is a made monic."""
    return [None if k is None else (k + c) % (ctx.order - 1) for k in a]


def _exp_frob(a, step, ctx):
    """a^step for a power step of p: g^k X^i becomes g^(k step) X^(i step),
    since the step-th power is additive."""
    out = [None] * ((len(a) - 1) * step + 1)
    out[::step] = [None if k is None else k * step % (ctx.order - 1)
                   for k in a]
    return out


def _exp_terms(a):
    """(j, k) for each nonzero term g^k X^j of an exponent list a."""
    return [(j, t) for j, t in enumerate(a) if t is not None]


def _exp_value(terms, k, ctx):
    """log f(x) from the `_exp_terms` of f and k = log x (None for x = 0),
    or None where f(x) = 0.  Each term adds one Zech lookup,
    g^s + g^t = g^(s + Z(t - s))."""
    if k is None:
        return terms[0][1] if terms and terms[0][0] == 0 else None
    zech, m = ctx._zech, ctx.order - 1
    acc = None
    for j, t in terms:
        t += j * k
        if acc is None:
            acc = t
        else:
            z = zech[(t - acc) % m]
            acc = None if z is None else acc + z
    return None if acc is None else acc % m


def _exp_reduce(rem, b, ctx, quo=None):
    """Reduce the list rem modulo b in place and return the remainder.

    With a list ``quo`` of length len(rem) - deg b, the quotient's
    exponents are written into it.
    """
    zech, m = ctx._zech, ctx.order - 1
    db = len(b) - 1
    lb = b[-1]
    # -(g^(top - lb)) * g^y = g^(top + y + neg - lb)
    shift = ctx._neg_exp - lb
    terms = [(j, y + shift) for j, y in enumerate(b[:db]) if y is not None]
    for d in range(len(rem) - 1 - db, -1, -1):
        top = rem[d + db]
        if top is None:
            continue
        if quo is not None:
            quo[d] = (top - lb) % m
        for j, y in terms:
            j += d
            t = top + y
            c = rem[j]
            if c is None:
                rem[j] = t % m
            else:
                z = zech[(t - c) % m]
                rem[j] = None if z is None else (c + z) % m
    del rem[db:]
    return _exp_trim(rem)


def _exp_divmod(a, b, ctx):
    quo = [None] * max(0, len(a) - len(b) + 1)
    return quo, _exp_reduce(a, b, ctx, quo)


def _exp_peel(a, b, ctx):
    """(m, a / b^m) for the largest m with b^m | a, a nonzero; a is not
    consumed.  At equal degrees b | a exactly when a = g^c b for
    c = a[-1] - b[-1], a test entry by entry with no division."""
    m = 0
    while len(a) >= len(b):
        if len(a) == len(b):
            c, order = a[-1] - b[-1], ctx.order - 1
            exact = a == [None if y is None else (y + c) % order for y in b]
            return (m + 1, [c % order]) if exact else (m, a)
        quo, rem = _exp_divmod(list(a), b, ctx)
        if rem:
            break
        a, m = quo, m + 1
    return m, a


def _exp_gcd(a, b, ctx):
    """Monic gcd; a and b are consumed."""
    while b:
        a, b = b, _exp_reduce(a, b, ctx)
    return _exp_scale(a, -a[-1], ctx)


def _exp_add_scaled(acc, c, b, ctx):
    """acc += g^c * b in place; acc may be shorter than b.  Returns acc."""
    zech, m = ctx._zech, ctx.order - 1
    if len(acc) < len(b):
        acc.extend([None] * (len(b) - len(acc)))
    for j, y in enumerate(b):
        if y is None:
            continue
        t = y + c
        u = acc[j]
        if u is None:
            acc[j] = t % m
        else:
            z = zech[(t - u) % m]
            acc[j] = None if z is None else (u + z) % m
    return _exp_trim(acc)


def _exp_reduce_fraction(num, den, ctx):
    """num/den in lowest terms with monic denominator, as two Polys; the
    exponent lists num and den are consumed."""
    if not num:
        return Poly.zero(ctx), Poly.one(ctx)
    g = _exp_gcd(list(num), list(den), ctx)
    if len(g) > 1:
        num = _exp_divmod(num, g, ctx)[0]
        den = _exp_divmod(den, g, ctx)[0]
    lc = den[-1]
    if lc:
        num, den = _exp_scale(num, -lc, ctx), _exp_scale(den, -lc, ctx)
    return _from_exps(ctx, num), _from_exps(ctx, den)


def roots_in(f, ext):
    """All roots of f in the extension context, with multiplicity, lex order.

    ext = GF(|F|^k) for f's own field F holds the roots of exactly those
    irreducible factors of f over F whose degree d divides k:
    ``_distinct_degree`` gives the product of each degree's factors and
    ``_orbits`` splits the ones with d | k into Frobenius orbits over F.
    f is converted to its exponent list once, so F needs log tables.  Lex
    order of coefficient vectors is the order of ``ext.iter_elements()``.
    """
    if f.is_zero():
        raise ZeroPolynomial("every point is a root of 0")
    F = f.ctx
    if ext.p != F.p or ext.n % F.n:
        raise NoEmbedding(f"{F.name} is not a subfield of {ext.name}")
    if f.is_constant():
        return []
    k = ext.n // F.n
    *parts, _ = _distinct_degree(_to_exps(f.monic(), F), k, F)
    distinct = [r for d, part in parts if k % d == 0
                for orbit in _orbits(part, F, ext) for r in orbit]
    roots = []
    for e in sorted(distinct, key=lambda r: r.coeffs):
        roots.extend([e] * root_multiplicity(f, e))
    return roots


def _distinct_degree(f, top, ctx):
    """Yields (d, part) for the exponent list f over F = ctx = GF(q), for
    each d <= top at which f has an irreducible factor, part the monic
    product of the distinct ones, and then (0, rest): f with every copy of
    them divided out.  Each part is yielded before it is divided out, so a
    caller that stops at the first pays for nothing past it.

    Once every factor of degree < d is gone from rest, gcd(rest, X^(q^d) - X)
    is the degree-d part, squarefree whatever the multiplicities in f
    (von zur Gathen-Gerhard, *Modern Computer Algebra*, 14.2), so no radical
    is taken.  Nor is a step taken once 2d > deg rest: a reducible rest
    would have a factor of degree <= deg rest / 2 < d, so rest is
    irreducible, its own part if deg rest <= top.  t = X^(q^d) mod rest is
    carried forward, one Frobenius step per degree: t has its coefficients
    in F, so its q-th power only spreads them (``_exp_frob``) before one
    reduction, and rest only loses factors, so the last t reduced mod the
    new rest is still X^(q^(d-1)) there.
    """
    rest, t = f, [None, 0]
    for d in range(1, top + 1):
        # 2d > deg rest, or rest is constant
        if 2 * d >= len(rest):
            if 1 < len(rest) <= top + 1:
                yield len(rest) - 1, _exp_scale(rest, -rest[-1], ctx)
                rest = [0]
            break
        t = _exp_reduce(_exp_frob(t, ctx.order, ctx), rest, ctx)
        part = _exp_gcd(list(rest), _exp_add_scaled(list(t), ctx._neg_exp,
                                                    [None, 0], ctx), ctx)
        if len(part) > 1:
            yield d, part
            rest = _coprime_part(rest, part, ctx)
    yield 0, rest


def _coprime_part(f, g, ctx):
    """The exponent list f with every copy of each irreducible factor it
    shares with g divided out, by one gcd loop; f and g are not consumed."""
    c = _exp_gcd(list(f), list(g), ctx)
    while len(c) > 1:
        f = _exp_divmod(list(f), c, ctx)[0]
        c = _exp_gcd(list(f), c, ctx)
    return f


def _orbits(g, F, ext):
    """The Frobenius orbits over F of the roots in ext of the exponent list
    g over F, a product of distinct irreducibles whose roots all lie in
    ext.

    Each round takes one root r of what is left (``one_root``) and divides
    out prod (X - s) over the orbit s = r^(|F|^i), a polynomial over F read
    back through ``gf.preimages`` as an exponent list, so what is left
    stays over F and is never split further than one root per factor.  A
    remainder raises CertificateFailed.  When the orbit is as long as the
    degree of what is left and r is a root of it, the orbit's roots are
    all of its roots, so that product is what is left and is not
    multiplied out.
    """
    back, log, out = gf.preimages(F, ext), F._log, []
    while len(g) > 1:
        h = _from_exps(F, g)
        r = one_root(h, ext)
        orbit, nxt = [r], r.frob(F.n)
        while nxt != r:
            orbit.append(nxt)
            nxt = nxt.frob(F.n)
        m = list(g) if len(orbit) == len(g) - 1 and not h(r) else [
            log.get(back[c].coeffs) for c in functools.reduce(operator.mul, [
                Poly(ext, (-s, ext.one)) for s in orbit]).coeffs]
        g, rem = _exp_divmod(list(g), m, F)
        if rem:
            raise CertificateFailed("a Frobenius orbit of roots does not "
                                    "divide the polynomial it came from")
        out.append(orbit)
    return out


def one_root(f, ext):
    """One root in ext of f, a nonzero polynomial over a subfield F of ext
    with log tables.

    Where ext has log tables (order up to gf.TABLE_CAP), a scan: f's
    exponent list reaches ext as g^(s k) for s = log embed(generator of F),
    and 0 is returned if f(0) = 0; otherwise f is evaluated by
    ``_exp_value``, one Zech sum per term, at g^0, g^1, ... until it
    vanishes, so at most TABLE_CAP - 1 evaluations.  There
    CertificateFailed means f has no root in ext.

    A packed ext runs Berlekamp's trace splitter (*Math. Comp.* 24, 1970)
    on f's roots, which must all lie in ext and be distinct, with Poly
    operations.  The Frobenius images tau_j = X^(p^j) mod f for
    j < N = [ext:GF(p)] are computed once over F, one p-th power each
    (von zur Gathen-Shoup, *Comput. Complexity* 2, 1992).  For a in ext,
    T_a = sum_j a^(p^j) tau_j takes the value Tr(a r) in GF(p) at every
    root r, so the gcds of g with T_a - c, c in GF(p), split the roots of g
    by that value, and the smaller part is kept; once T_a mod g is
    constant, all roots of g share it.  a runs through the power basis of
    ext, where the trace form is nondegenerate, so any two distinct roots
    differ in some Tr(a r), and one pass leaves a linear factor; a = 1
    comes last, since Tr(r) is constant on a Frobenius orbit and so cannot
    part two roots of one factor over GF(p).  T_a is built coefficient by
    coefficient on coefficient tuples (``_tuple_forms``).  Every part is a
    gcd with g and every quotient exact, so that factor divides f whatever
    the images are; CertificateFailed if no shift splits what is left, as
    when f has a repeated root or a root outside ext.  Only p-th powers
    over F and products in ext are formed, no powering modulo a polynomial
    over ext.
    """
    F, a = f.ctx, _to_exps(f.monic(), f.ctx)
    if ext._zech is not None:
        if a[0] is None:
            return ext.zero
        m = ext.order - 1
        s = ext._log[gf.embed(F.generator, ext).coeffs]
        terms = [(j, k * s % m) for j, k in _exp_terms(a)]
        for k in range(m):
            if _exp_value(terms, k, ext) is None:
                return ext._elems[k]
        raise CertificateFailed(f"{format_poly(f, 'X')} has no root in "
                                f"{ext.name}")
    zero = ext.zero.coeffs
    # cols[i][j] is coefficient i of tau_j, None past its end
    cols = itertools.zip_longest(*_frobenius_images(a, ext.n, F))
    g = _from_exps(F, a).embed_into(ext)
    for u in _tuple_forms([[zero if k is None else gf.embed(
            F._elems[k], ext).coeffs for k in col] for col in cols], ext):
        u %= g
        for c in range(ext.p):
            if u.degree < 1:
                break
            part = poly_gcd(g, u - c)
            if 0 < part.degree < g.degree:
                rest = g // part
                g = part if part.degree <= rest.degree else rest
                u %= g
        if g.degree == 1:
            break
    if g.degree != 1:
        raise CertificateFailed(f"{format_poly(g, 'X')} does not split into "
                                "distinct linear factors")
    return -g.coeffs[0]


def _tuple_forms(cols, ext):
    """T_a over ext on coefficient tuples, for a = t^k, k = 1..N-1, and
    then a = 1: coefficient i is sum_j a^(p^j) cols[i][j]."""
    mul, add, N = ext._mul, ext._add, ext.n
    a = tpow = [ext.t_class.coeffs]
    for _ in range(N - 1):
        tpow.append(ext._pow(tpow[-1], ext.p))
    for k in range(1, N + 1):
        yield Poly(ext, [gf.FieldElem(ext, functools.reduce(
            add, map(mul, a, col))) for col in cols])
        a = list(map(mul, a, tpow)) if k < N - 1 else [ext.one.coeffs] * N


def _frobenius_images(f, count, ctx):
    """X^(p^j) mod the exponent list f for j < count, over ctx; each image
    is the p-th power of the one before, by ``_exp_frob``."""
    out = [_exp_reduce([None, 0], f, ctx)]
    for _ in range(count - 1):
        out.append(_exp_reduce(_exp_frob(out[-1], ctx.p, ctx), f, ctx))
    return out


def root_multiplicity(f, c):
    """Multiplicity of c as a root of f; c may live in an extension."""
    if f.is_constant():
        return 0
    ext = c.ctx
    fe = f.embed_into(ext) if ext is not f.ctx else f
    lin = Poly(ext, (-c, ext.one))
    if ext._zech is not None:
        # peel (X - c) on exponent lists; convert once, not per division
        return _exp_peel(_to_exps(fe, ext), _to_exps(lin, ext), ext)[0]
    m = 0
    while not fe.is_zero():
        q, r = divmod(fe, lin)
        if not r.is_zero():
            break
        m += 1
        fe = q
    return m


# ---------------------------------------------------------------------------


class RatFunc:
    """Reduced rational function num/den with monic denominator."""

    __slots__ = ("num", "den")

    def __init__(self, num, den, _reduced=False):
        ctx = num.ctx
        if ctx._zech is None:
            raise TooLarge(f"rational functions need log tables, so order "
                           f"<= {gf.TABLE_CAP}, not {ctx.name}")
        if den.is_zero():
            raise DivisionByZero("rational function with zero denominator")
        if den.ctx is not ctx:
            raise CtxMismatch("numerator and denominator over different fields")
        if not _reduced:
            num, den = _exp_reduce_fraction(_to_exps(num, ctx),
                                            _to_exps(den, ctx), ctx)
        self.num = num
        self.den = den

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_poly(cls, f):
        return cls(f, Poly.one(f.ctx), _reduced=True)

    @classmethod
    def constant(cls, e):
        return cls.from_poly(Poly.constant(e))

    @classmethod
    def zero(cls, ctx):
        return cls.from_poly(Poly.zero(ctx))

    @classmethod
    def one(cls, ctx):
        return cls.from_poly(Poly.one(ctx))

    @classmethod
    def gen(cls, ctx):
        return cls.from_poly(Poly.gen(ctx))

    @property
    def ctx(self):
        return self.num.ctx

    def is_zero(self):
        return self.num.is_zero()

    def is_one(self):
        return self.num.is_one() and self.den.is_one()

    def is_constant(self):
        return self.num.is_constant() and self.den.is_one()

    def __bool__(self):
        return bool(self.num.coeffs)

    # -- arithmetic ---------------------------------------------------------

    def _coerce(self, other):
        if isinstance(other, RatFunc):
            if other.ctx is not self.ctx:
                raise CtxMismatch("rational functions over different fields")
            return other
        if isinstance(other, Poly):
            if other.ctx is not self.ctx:
                raise CtxMismatch("operand over a different field")
            return RatFunc.from_poly(other)
        if isinstance(other, gf.FieldElem):
            if other.ctx is not self.ctx:
                raise CtxMismatch("operand from a different field")
            return RatFunc.constant(other)
        if isinstance(other, int):
            return RatFunc.constant(self.ctx.elem(other))
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num + other.num)
        return RatFunc(self.num * other.den + other.num * self.den,
                       self.den * other.den)

    __radd__ = __add__

    def __neg__(self):
        return RatFunc(-self.num, self.den, _reduced=True)

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if self.den.is_one() and other.den.is_one():
            return RatFunc.from_poly(self.num * other.num)
        ctx = self.ctx
        a, b, c, d = (_to_exps(p, ctx) for p in (self.num, self.den,
                                                 other.num, other.den))
        return RatFunc(*_exp_reduce_fraction(_exp_mul(a, c, ctx),
                                             _exp_mul(b, d, ctx), ctx),
                       _reduced=True)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        if other.is_zero():
            raise DivisionByZero("division by the zero rational function")
        return RatFunc(self.num * other.den, self.den * other.num)

    def inverse(self):
        if self.is_zero():
            raise DivisionByZero("inverse of zero")
        return RatFunc(self.den, self.num)

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        if e == 1:
            return self
        num, den = self.num ** e, self.den ** e
        # gcd-free and den monic already; powers preserve both
        return RatFunc(num, den, _reduced=True)

    def __eq__(self, other):
        if isinstance(other, (RatFunc, Poly, gf.FieldElem, int)):
            co = self._coerce(other)
            return (co is not None and co.num == self.num
                    and co.den == self.den)
        return NotImplemented

    def __hash__(self):
        return hash((id(self.ctx), self.num.coeffs, self.den.coeffs))

    # -- evaluation, valuation, substitution --------------------------------

    def __call__(self, point):
        d = self.den(point)
        if d.is_zero():
            raise DivisionByZero("pole at the evaluation point")
        return self.num(point) * d.inverse()

    def valuation(self, at):
        """Order of vanishing at a finite point (any extension) or INFINITY."""
        if self.is_zero():
            raise ZeroValuation("the zero function has no valuation")
        if at is INFINITY:
            return self.den.degree - self.num.degree
        return root_multiplicity(self.num, at) - root_multiplicity(self.den, at)

    def embed_into(self, tgt_ctx):
        return RatFunc(self.num.embed_into(tgt_ctx),
                       self.den.embed_into(tgt_ctx), _reduced=True)

    def compose_fractional(self, np_, dp_):
        """Substitute the variable by np_/dp_ (polynomials), exactly."""
        d = max(len(self.num.coeffs), len(self.den.coeffs)) - 1
        ctx = np_.ctx
        num, den = _exp_homogenized(
            *[_to_exps(p, ctx) for p in (self.num, self.den, np_, dp_)],
            d, ctx)
        if not den:
            raise DivisionByZero("rational function with zero denominator")
        return RatFunc(*_exp_reduce_fraction(num, den, ctx), _reduced=True)

    def __str__(self):
        if self.den.is_one():
            return format_poly(self.num)
        return f"({format_poly(self.num)})/({format_poly(self.den)})"

    def __repr__(self):
        return f"<{self} over {self.ctx.name}>"


def _exp_homogenized(num, den, np_, dp_, d, ctx):
    """sum f_i np_^i dp_^(d-i) for f = num and f = den on exponent lists,
    so the shared degree d clears the denominators; each product
    np_^i * dp_^(d-i) is formed once and shared by both sums."""
    npows, dpows = [[0]], [[0]]
    for _ in range(d):
        npows.append(_exp_mul(npows[-1], np_, ctx))
        dpows.append(_exp_mul(dpows[-1], dp_, ctx))
    out = ([], [])
    for i in range(d + 1):
        cs = [f[i] if i < len(f) else None for f in (num, den)]
        if cs == [None, None]:
            continue
        term = _exp_mul(npows[i], dpows[d - i], ctx)
        for acc, c in zip(out, cs):
            if c is not None:
                _exp_add_scaled(acc, c, term, ctx)
    return out


# ---------------------------------------------------------------------------
# The quotient algebras GF(q)(T)[Y]/(relation), on exponent-list
# coordinates over one denominator; RatFunc appears only at the boundary.


def _fraction(ctx, r):
    """(num, den) exponent lists of a scalar of GF(q)(T), anything RatFunc
    arithmetic takes; den is monic."""
    r = RatFunc.one(ctx)._coerce(r)
    return _to_exps(r.num, ctx), _to_exps(r.den, ctx)


def _common_den(fracs, ctx):
    """(nums, D) for (num, den) exponent lists with monic den: D is the
    product of the distinct denominators of the nonzero fractions and
    nums[i] = num_i D / den_i, found with no gcd and no division."""
    dens = []
    for num, den in fracs:
        if num and den != [0] and den not in dens:
            dens.append(den)
    mul = functools.partial(_exp_mul, ctx=ctx)
    return ([functools.reduce(mul, [d for d in dens if d != den], num)
             for num, den in fracs], functools.reduce(mul, dens, [0]))


class QuotientAlgebra:
    """GF(q)(T)[Y] modulo a monic relation Y^n = -sum_{i<n} r_i Y^i.

    The relation is kept only at its nonzero exponents, as numerators p_i
    over one monic denominator d, so folding one overflowing exponent costs
    one product per nonzero r_i: two for the torsion field's trinomial, one
    for a Kummer binomial.
    """

    def __init__(self, ctx, n, relation):
        """``relation`` maps each exponent i < n with r_i != 0 to r_i."""
        self.ctx = ctx
        self.n = n
        # Y^e = sum_i (p_i / d) Y^(e-n+i) for every e >= n, p_i / d = -r_i
        exps, rs = zip(*sorted(relation.items()))
        nums, self._fold_den = _common_den([_fraction(ctx, -r) for r in rs],
                                           ctx)
        self._fold_terms = tuple(zip(exps, nums))
        self._images = {}

    def galois_image(self, k):
        """sigma^k(y) for a fixed generator sigma of the cyclic Galois group
        of order n over GF(q)(T); each instance supplies it."""
        raise NotImplementedError

    def zero(self):
        return QuotientElem(self, [[]] * self.n, [0])

    def one(self):
        return self.scalar(1)

    def scalar(self, r):
        num, den = _fraction(self.ctx, r)
        return QuotientElem(self, [num] + [[]] * (self.n - 1), den)

    def y(self):
        return self._reduce([None, [0]], [0])

    def from_pairs(self, pairs):
        """Element from (exponent, scalar) pairs; exponents may overflow."""
        pairs = list(pairs)
        nums, den = _common_den([_fraction(self.ctx, c) for _, c in pairs],
                                self.ctx)
        buf = [None] * (max((e for e, _ in pairs), default=0) + 1)
        for (e, _), a in zip(pairs, nums):
            buf[e] = _exp_add_scaled(buf[e] or [], 0, a, self.ctx)
        return self._reduce(buf, den)

    def from_coords(self, coords):
        """The element sum coords_i Y^i of n RatFunc coordinates, which it
        keeps as its ``coords``."""
        coords = tuple(coords)
        if len(coords) != self.n:
            raise ValueError(f"{len(coords)} coordinates for rank {self.n}")
        nums, den = _common_den([_fraction(self.ctx, r) for r in coords],
                                self.ctx)
        return QuotientElem(self, nums, den, coords)

    def _reduce(self, buf, den):
        """The element sum_e buf[e] Y^e / den; buf is consumed, a list of
        exponent lists or None of any length.

        Each round folds every filled slot at or past n once, after every
        term that lands on it has been added.  A relation with denominator
        d != 1 first lifts the slots below n and den by d, so one round
        leaves every numerator over the same denominator.
        """
        n, ctx, d = self.n, self.ctx, self._fold_den
        while any(buf[n:]):
            top, buf = buf[n:], buf[:n]
            if d != [0]:
                buf = [a and _exp_mul(a, d, ctx) for a in buf]
                den = _exp_mul(den, d, ctx)
            buf.extend([None] * (len(top) + n - 1 - len(buf)))
            for e, c in enumerate(top):
                if c:
                    for i, p in self._fold_terms:
                        buf[e + i] = _exp_mul(c, p, ctx, buf[e + i])
        buf.extend([None] * (n - len(buf)))
        return QuotientElem(self, [a or [] for a in buf[:n]], den)


class QuotientElem:
    """Element sum (nums_i / den) Y^i of a QuotientAlgebra; immutable.

    ``nums`` holds one exponent list per coordinate and ``den`` is one
    monic exponent list; no list is changed once stored.  The fraction is
    not kept in lowest terms, so equality cross-multiplies, and the
    reduced RatFunc coordinates are built when ``coords`` is first read.
    """

    __slots__ = ("alg", "nums", "den", "_coords")

    def __init__(self, alg, nums, den, coords=None):
        self.alg, self.nums, self.den, self._coords = alg, nums, den, coords

    @property
    def coords(self):
        """The coordinates as RatFuncs in lowest terms."""
        if self._coords is None:
            ctx, den = self.alg.ctx, self.den
            self._coords = tuple(
                RatFunc(*_exp_reduce_fraction(list(a), list(den), ctx),
                        _reduced=True) for a in self.nums)
        return self._coords

    def is_zero(self):
        return not any(self.nums)

    def __bool__(self):
        return not self.is_zero()

    def __eq__(self, other):
        if not isinstance(other, QuotientElem):
            return NotImplemented
        return other.alg is self.alg and (self._scaled(other.den, [0]).nums
                                          == other._scaled(self.den, [0]).nums)

    def __hash__(self):
        return hash((id(self.alg), self.coords))

    def _chk(self, other):
        if not isinstance(other, QuotientElem):
            raise CtxMismatch("expected a quotient-algebra element")
        if other.alg is not self.alg:
            raise CtxMismatch("elements of different algebras")
        return other

    def _scaled(self, num, den):
        """self * num / den for exponent lists num and den, den monic; a
        constant num only shifts exponents."""
        ctx, nums = self.alg.ctx, self.nums
        if not num:
            return self.alg.zero()
        if num != [0]:
            nums = [_exp_scale(a, num[0], ctx) if len(num) == 1
                    else _exp_mul(a, num, ctx) for a in nums]
        return QuotientElem(self.alg, nums, self.den if den == [0]
                            else _exp_mul(self.den, den, ctx))

    def __add__(self, other):
        a, b, ctx = self, self._chk(other), self.alg.ctx
        if a.den != b.den:
            a, b = a._scaled(b.den, b.den), b._scaled(a.den, a.den)
        return QuotientElem(self.alg, [
            _exp_add_scaled(list(x), 0, y, ctx) if x and y else x or y
            for x, y in zip(a.nums, b.nums)], a.den)

    def __neg__(self):
        return self._scaled([self.alg.ctx._neg_exp], [0])

    def __sub__(self, other):
        return self + -self._chk(other)

    def scale(self, r):
        """Multiply by a scalar from GF(q)(T)."""
        return self._scaled(*_fraction(self.alg.ctx, r))

    def __mul__(self, other):
        if isinstance(other, (RatFunc, Poly, gf.FieldElem, int)):
            return self.scale(other)
        other = self._chk(other)
        ctx = self.alg.ctx
        terms = [(j, b) for j, b in enumerate(other.nums) if b]
        buf = [None] * (2 * self.alg.n - 1)
        for i, a in enumerate(self.nums):
            if a:
                for j, b in terms:
                    buf[i + j] = _exp_mul(a, b, ctx, buf[i + j])
        return self.alg._reduce(buf, _exp_mul(self.den, other.den, ctx))

    __rmul__ = __mul__

    def qpow(self):
        """q-th power: coefficients move to q-times-higher basis slots."""
        ctx, q = self.alg.ctx, self.alg.ctx.order
        buf = [None] * ((self.alg.n - 1) * q + 1)
        for i, a in enumerate(self.nums):
            if a:
                buf[i * q] = _exp_frob(a, q, ctx)
        return self.alg._reduce(buf, _exp_frob(self.den, q, ctx))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        return gf.power(self, e, operator.mul, self.alg.one())

    def conjugate(self, k):
        """sigma^k(self): the algebra's sigma^k(y) substituted for y.

        Each image is asked of the algebra once.  When sigma^k(y) = c*y for
        a constant c, coordinate i only shifts its exponents by i log c;
        otherwise the substitution runs by Horner on the numerators.
        """
        alg, ctx = self.alg, self.alg.ctx
        w = alg._images.get(k)
        if w is None:
            w = alg._images[k] = alg.galois_image(k)
        if (w.nums[1:] and w.den == [0] and len(w.nums[1]) == 1
                and not any(w.nums[:1] + w.nums[2:])):
            c = w.nums[1][0]
            return QuotientElem(alg, [_exp_scale(a, i * c, ctx)
                                      for i, a in enumerate(self.nums)],
                                self.den)
        acc = alg.zero()
        for a in reversed(self.nums):
            acc = acc * w + QuotientElem(alg, [a] + [[]] * (alg.n - 1), [0])
        return acc._scaled([0], self.den)

    def _conjugate_product(self, step, count):
        """prod of sigma^(j*step)(self) for j = 1..count, by doubling:
        P_2k = P_k * sigma^(k*step)(P_k)."""
        if count == 1:
            return self.conjugate(step)
        half = self._conjugate_product(step, count // 2)
        out = half * half.conjugate(count // 2 * step)
        if count % 2:
            out = out * self.conjugate(count * step)
        return out

    def _norm_tower(self):
        """(N, factors): N is the norm, the product of all n conjugates, as
        a scalar element, and self times the product of the factors is N.

        The cyclic group is peeled one prime r | m at a time.  Multiplying
        by the r-1 other conjugates under the order-r subgroup
        <sigma^(m/r)> leaves an element fixed by it, so only the quotient
        of order m/r still acts, and a fixed element stays sparse.  The
        result must be a scalar; CertificateFailed otherwise.
        """
        a, m, factors = self, self.alg.n, []
        for r, e in gf.factorize(m).items():
            for _ in range(e):
                m //= r
                b = a._conjugate_product(m, r - 1)
                factors.append(b)
                a = a * b
        if any(a.nums[1:]):
            raise CertificateFailed("the product of the Galois conjugates "
                                    "is not a scalar")
        return a, factors

    def norm_exps(self):
        """The norm as (numerator, monic denominator) exponent lists, not
        in lowest terms."""
        a = self._norm_tower()[0]
        return a.nums[0], a.den

    def norm(self):
        """Norm down to GF(q)(T): the product of the Galois conjugates."""
        num, den = self.norm_exps()
        return RatFunc(*_exp_reduce_fraction(list(num), list(den),
                                             self.alg.ctx), _reduced=True)

    def inverse(self):
        """The conjugate cofactor over the norm."""
        if self.is_zero():
            raise DivisionByZero("inverse of zero in a quotient algebra")
        nm, factors = self._norm_tower()
        num, ctx = nm.nums[0], self.alg.ctx
        if not num:
            raise DivisionByZero("element shares a factor with the modulus")
        acc = functools.reduce(operator.mul, factors, self.alg.one())
        # times den / num, with the new denominator made monic
        return acc._scaled(_exp_scale(nm.den, -num[-1], ctx),
                           _exp_scale(num, -num[-1], ctx))

    def __str__(self):
        parts = []
        for i in range(len(self.coords) - 1, -1, -1):
            c = self.coords[i]
            if not c:
                continue
            yp = "1" if i == 0 else ("y" if i == 1 else f"y^{i}")
            parts.append(yp if (c.is_one() and i) else
                         (str(c) if i == 0 else f"({c})*{yp}"))
        return "+".join(parts) if parts else "0"

    def __repr__(self):
        return f"<{self}>"


# ---------------------------------------------------------------------------
# Literal syntax for polynomials: "T^2+g*T+1", "(g+1)*T^2+2"

VAR = "T"  # the one variable of polynomial literals


def format_poly(f, var=VAR):
    if f.is_zero():
        return "0"
    terms = []
    for i in range(len(f.coeffs) - 1, -1, -1):
        c = f.coeffs[i]
        if c.is_zero():
            continue
        cs = gf.format_element(c)
        if i == 0:
            terms.append(cs)
            continue
        v = var if i == 1 else f"{var}^{i}"
        if cs == "1":
            terms.append(v)
        elif "+" in cs or "-" in cs:
            terms.append(f"({cs})*{v}")
        else:
            terms.append(f"{cs}*{v}")
    return "+".join(terms)


def parse_poly(ctx, s):
    """Parse the literal syntax above, in the variable VAR, into a Poly
    over ctx."""
    text = s.replace(" ", "")
    if not text:
        raise ParseError("empty polynomial literal")
    terms = gf._split_terms(text, s)
    out = {}
    for sgn, term in terms:
        head, exp = gf._split_power(term, VAR)
        coef = ctx.one if head is None else _parse_coef(ctx, head)
        cur = out.get(exp, ctx.zero)
        out[exp] = cur + coef if sgn == 1 else cur - coef
    deg = max(out) if out else 0
    if deg > gf.ORDER_CAP:
        raise ParseError(f"degree {deg} in {gf._quote(s)} exceeds the cap "
                         f"gf.ORDER_CAP = {gf.ORDER_CAP}")
    coeffs = [out.get(i, ctx.zero) for i in range(deg + 1)]
    return Poly(ctx, coeffs)


def _parse_coef(ctx, text):
    # a malformed coefficient is named by parse_element's own ParseError
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1]
    return gf.parse_element(ctx, text)
