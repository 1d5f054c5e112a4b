"""Kummer-side model of the torsion field and the recognition branch.

Eliminating x from the torsion relations leaves a curve in two functions
v, y with

    y^(q-1) = h(v) = -(g v^2 + a v + b/g) / (v^q - v),      g = gamma,

one such curve for every nonzero gamma.  KummerAlgebra is the
polyalg.QuotientAlgebra with the binomial relation Y^n = h for a scalar
h, and KummerCurve is the one with n = q-1 and h as above.  verify_prop31
replays the elimination inside the degree-(q^2-1) torsion field and hands
back the residual, which must be zero.

The other direction starts from a curve y^(q-1) = lambda * u(v)^r and
recovers a quadratic modulus whose curve is the same field in disguise;
kummer_normalize supplies the monomial change of generator z = y^s u^r0
that exhibits the match, and roundtrip_certificate chains every step and
checks each identity by arithmetic rather than by trust.
"""

from dataclasses import dataclass
from math import gcd

from . import gf
from .carlitz import CycModel, Modulus
from .errors import (
    CtxMismatch,
    NotCoprime,
    ReducibleModulus,
    ReducibleResult,
    WrongRamification,
    ZeroElement,
)
from .polyalg import (
    INFINITY,
    Poly,
    QuotientAlgebra,
    RatFunc,
    is_irreducible,
    roots_in,
)


class KummerAlgebra(QuotientAlgebra):
    """Quotient GF(q)(v)[Y] / (Y^n - h) for a nonzero scalar h."""

    def __init__(self, ctx, n, h):
        if n < 1:
            raise ValueError("relation degree must be positive")
        if isinstance(h, Poly):
            h = RatFunc.from_poly(h)
        if h.is_zero():
            raise ZeroElement("defining scalar h must be nonzero")
        super().__init__(ctx, n, {0: -h})
        self.h = h

    def __repr__(self):
        return f"<algebra Y^{self.n} = {self.h} over {self.ctx.name}(v)>"


class KummerCurve(KummerAlgebra):
    """The curve y^(q-1) = h(v) attached to a modulus and a twist gamma."""

    def __init__(self, a, b, gamma):
        modulus = Modulus(a, b)
        ctx = modulus.ctx
        if gamma.is_zero():
            raise ZeroElement("gamma must be a nonzero scalar")
        q = ctx.order
        v = Poly.gen(ctx)
        binv_g = b * gamma.inverse()
        num = -(Poly.constant(gamma) * v * v + Poly.constant(a) * v
                + Poly.constant(binv_g))
        den = v.frob_power(ctx.n) - v
        super().__init__(ctx, q - 1, RatFunc(num, den))
        self.modulus = modulus
        self.gamma = gamma
        self.q = q
        self.ram_numerator = -num  # g v^2 + a v + b/g, monic up to gamma
        self._check_ramification_profile()

    def _check_ramification_profile(self):
        """Valuations of h: -1 at each rational v, q-2 at infinity, +1 at
        the two conjugate roots of the numerator; each coprime to q-1.

        Keeps the two quadratic roots, sorted by ``to_int``, as
        ``quad_roots``; the place layer books the quadratic point by them.

        h is reduced, so it has a simple pole at alpha iff den(alpha) = 0,
        den'(alpha) != 0 and num(alpha) != 0, and a simple zero at a root
        of num iff num' does not vanish there: evaluations, not valuations.
        """
        q, ctx = self.q, self.ctx
        num, den = self.h.num, self.h.den
        dnum, dden = num.derivative(), den.derivative()
        if gcd(q - 2, q - 1) != 1:
            raise WrongRamification(f"q-2 and q-1 share a factor at q={q}")
        for alpha in ctx.iter_elements():
            if den(alpha) or not dden(alpha) or not num(alpha):
                raise WrongRamification(
                    f"h has no simple pole at v={gf.format_element(alpha)}")
        if self.h.valuation(INFINITY) != q - 2:
            raise WrongRamification(f"h has no zero of order {q - 2} at "
                                    "infinity")
        ext = gf.create_field(ctx.p, 2 * ctx.n)
        quad_roots = roots_in(self.ram_numerator, ext)
        if len(quad_roots) != 2 or quad_roots[0] == quad_roots[1]:
            found = ", ".join(gf.format_element(r) for r in quad_roots)
            raise WrongRamification(
                f"the numerator of h needs two distinct roots in {ext.name}, "
                f"found [{found}]")
        for rt in quad_roots:
            if num(rt) or not dnum(rt):
                raise WrongRamification(
                    f"h has no simple zero at v={gf.format_element(rt)}")
        self.quad_roots = tuple(sorted(quad_roots, key=lambda r: r.to_int()))

    def __repr__(self):
        return (f"<curve y^{self.q - 1} = {self.h} "
                f"(modulus {self.modulus}, gamma={self.gamma})>")


# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class EliminationCertificate:
    """Outcome of replaying the x-elimination in the quotient ring."""

    ok: bool
    residual: object  # element of the torsion field; zero exactly when ok


def _coerce_scalar(ctx, value):
    if isinstance(value, gf.FieldElem):
        if value.ctx is not ctx:
            raise CtxMismatch("scalar from a different field")
        return value
    return ctx.elem(value)


def verify_prop31(q, a, b, gamma):
    """Certify y^(q-1) = -(g v^2 + a v + b/g)/(v^q - v) with v = (x + y^(q-1))/g.

    Works inside GF(q)(x)[y]/(P): substitutes the definition of v and
    reduces g y^(q-1) (v^q - v) + (g v)^2 + a g v + b against P.  The
    curve relation holds exactly when the residual is zero.
    """
    ctx = gf.field_from_order(q)
    a = _coerce_scalar(ctx, a)
    b = _coerce_scalar(ctx, b)
    gamma = _coerce_scalar(ctx, gamma)
    if gamma.is_zero():
        raise ZeroElement("gamma must be a nonzero scalar")
    modulus = Modulus(a, b)  # ReducibleModulus for a bad pair
    return elimination_certificate(CycModel(modulus), gamma)


def elimination_certificate(model, gamma):
    """verify_prop31 inside an existing torsion model, for a nonzero gamma."""
    ctx, a, b = model.ctx, model.modulus.a, model.modulus.b
    q = ctx.order
    yq1 = model.from_pairs([(q - 1, RatFunc.one(ctx))])
    x_scalar = model.scalar(Poly.gen(ctx))
    v = (x_scalar + yq1).scale(gamma.inverse())
    gv = v.scale(gamma)
    residual = ((yq1 * (v.qpow() - v)).scale(gamma)
                + gv * gv + gv.scale(a) + model.scalar(b))
    return EliminationCertificate(ok=residual.is_zero(), residual=residual)


@dataclass(frozen=True)
class PowerSubstitution:
    """z = y^s u^r with r n + s k = 1; then y^n = u^k forces z^n = u."""

    r: int
    s: int
    symbol: str = "u"

    def __str__(self):
        return f"z = y^{self.s} * {self.symbol}^{self.r}"


def kummer_normalize(n, k, u="u"):
    """Bezout data for replacing y by a generator z with z^n = u."""
    if n < 1 or k < 1:
        raise ValueError("exponents must be positive")
    if gcd(n, k) != 1:
        raise NotCoprime(f"gcd({n}, {k}) != 1")
    r = pow(n, -1, k)
    s = (1 - r * n) // k
    return PowerSubstitution(r=r, s=s, symbol=u)


def recognize_cyclotomic(q, lam, r, a, b):
    """Modulus of the torsion field matching y^(q-1) = lam * u(v)^r.

    Here u = (v^2 + a v + b)/(v^q - v).  The recovered modulus is
    T^2 - c a T + c^2 b with c = lam^(1/r), the (q-1)-th-power-free root
    taken via the inverse of r mod q-1.
    """
    ctx = gf.field_from_order(q)
    lam = _coerce_scalar(ctx, lam)
    a = _coerce_scalar(ctx, a)
    b = _coerce_scalar(ctx, b)
    if gcd(r, q - 1) != 1:
        raise NotCoprime(f"twist exponent {r} shares a factor with {q - 1}")
    if lam.is_zero():
        raise ZeroElement("lambda must be a nonzero scalar")
    if not is_irreducible(Poly(ctx, (b, a, ctx.one))):
        raise ReducibleResult("input pair (a, b) gives a reducible quadratic")
    c = lam ** pow(r, -1, q - 1)
    try:
        return Modulus(-(c * a), c * c * b)
    except ReducibleModulus as exc:
        # unreachable for honest inputs: T -> -cS rescales one quadratic
        # into the other, so irreducibility transfers
        raise ReducibleResult(str(exc)) from exc


@dataclass(frozen=True)
class RoundTrip:
    """recognize -> construct -> substitute, every identity re-checked."""

    modulus: Modulus
    gamma: gf.FieldElem
    substitution: PowerSubstitution
    elimination_ok: bool
    curve_matches: bool
    z_relation_ok: bool
    y_recovered_ok: bool

    @property
    def ok(self):
        return (self.elimination_ok and self.curve_matches
                and self.z_relation_ok and self.y_recovered_ok)


def roundtrip_certificate(q, lam, r, a, b):
    """Close the loop for an input curve y^(q-1) = lam * u^r.

    Checks, by exact arithmetic in the input algebra:
      1. the recognized modulus passes the forward elimination;
      2. the forward curve with gamma = -lam^(1/r) has h = lam^(1/r) u;
      3. z = y^s u^r0 from kummer_normalize satisfies z^(q-1) = lam^(1/r) u;
      4. y = lam^r0 z^r, so the new generator generates.
    """
    ctx = gf.field_from_order(q)
    lam = _coerce_scalar(ctx, lam)
    a = _coerce_scalar(ctx, a)
    b = _coerce_scalar(ctx, b)
    modulus = recognize_cyclotomic(q, lam, r, a, b)
    c = lam ** pow(r, -1, q - 1)
    gamma = -c

    cert = verify_prop31(q, modulus.a, modulus.b, gamma)

    v = Poly.gen(ctx)
    u = RatFunc(v * v + Poly.constant(a) * v + Poly.constant(b),
                v.frob_power(ctx.n) - v)
    forward = KummerCurve(modulus.a, modulus.b, gamma)
    curve_matches = forward.h == u * RatFunc.constant(c)

    sub = kummer_normalize(q - 1, r)
    alg = KummerAlgebra(ctx, q - 1, u ** r * RatFunc.constant(lam))
    z = (alg.y() ** sub.s).scale(u ** sub.r)
    z_relation_ok = z ** (q - 1) == alg.scalar(u * RatFunc.constant(c))
    y_recovered_ok = (z ** r).scale(lam ** sub.r) == alg.y()

    return RoundTrip(modulus=modulus, gamma=gamma, substitution=sub,
                     elimination_ok=cert.ok, curve_matches=curve_matches,
                     z_relation_ok=z_relation_ok,
                     y_recovered_ok=y_recovered_ok)
