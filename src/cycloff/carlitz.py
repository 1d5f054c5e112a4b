"""Carlitz module arithmetic and the cyclotomic function field model.

The Carlitz action sends a polynomial f in GF(q)[x] to the additive
polynomial C_f with C_x(z) = z^q + x z.  A CarlitzPoly stores only the
q-power coefficients, so composition stays sparse.

For an irreducible quadratic modulus M = T^2 + aT + b the torsion field is
GF(q)(x)[y]/(P) with

    P(y) = y^(q^2-1) + (x^q + x + a) y^(q-1) + (x^2 + a x + b),

and y * P(y) = C_M(y).  P is Eisenstein at M, which CycModel checks, so
the quotient is a field.  CycModel is the polyalg.QuotientAlgebra with that
trinomial relation: elements are dense RatFunc vectors in the basis
1, y, ..., y^(q^2-2), and products and q-th powers fold exponent overflow
with

    y^e = -(x^q+x+a) y^(e-(q^2-1)+(q-1)) - (x^2+ax+b) y^(e-(q^2-1)).

q-th powers cost almost nothing in characteristic p because they just
move coefficients: (sum r_i y^i)^q = sum r_i^q y^(iq).

The unit group of GF(q)[x]/(M) is cyclic of order q^2 - 1 and acts on the
model by y |-> C_u(y); galois_map materializes that action and proves it
well defined on the spot by checking C_M(C_u(y)) = 0 with C_u(y) != 0,
which forces P(C_u(y)) = 0 in the field.  That action is the whole Galois
group, so the generator's images give CycModel its norms and inverses.
"""

import functools

from . import gf
from .errors import (
    CertificateFailed,
    CtxMismatch,
    NotAUnit,
    ReducibleModulus,
    ZeroPolynomial,
)
from .polyalg import (
    Poly,
    QuotientAlgebra,
    format_poly,
    is_irreducible,
)
from .record import Record, set_field


class CarlitzPoly:
    """Additive polynomial sum c_j z^(q^j), coefficients in GF(q)[x]."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        i = len(coeffs)
        while i and coeffs[i - 1].is_zero():
            i -= 1
        self.ctx = ctx
        self.coeffs = tuple(coeffs[:i])

    @property
    def tau_degree(self):
        """Largest j with a z^(q^j) term; the z-degree is q**tau_degree."""
        return len(self.coeffs) - 1

    def __eq__(self, other):
        if not isinstance(other, CarlitzPoly):
            return NotImplemented
        return self.ctx is other.ctx and self.coeffs == other.coeffs

    def __hash__(self):
        return hash((id(self.ctx), self.coeffs))

    def __add__(self, other):
        if not isinstance(other, CarlitzPoly):
            return NotImplemented
        if other.ctx is not self.ctx:
            raise CtxMismatch("additive polynomials over different fields")
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for j, c in enumerate(b):
            out[j] = out[j] + c
        return CarlitzPoly(self.ctx, out)

    def compose(self, other):
        """self after other; q-power exponents collect as c_{i+j} += a_i b_j^(q^i)."""
        if other.ctx is not self.ctx:
            raise CtxMismatch("additive polynomials over different fields")
        n = self.ctx.n
        out = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a.is_zero():
                continue
            for j, b in enumerate(other.coeffs):
                term = a * b.frob_power(n * i)
                out[i + j] = term if out[i + j] is None else out[i + j] + term
        zero = Poly.zero(self.ctx)
        return CarlitzPoly(self.ctx, [c if c is not None else zero for c in out])

    def act(self, w):
        """Apply to a quotient element: sum c_j(x) * w^(q^j)."""
        acc = w.alg.zero()
        power = w
        for j, c in enumerate(self.coeffs):
            if not c.is_zero():
                acc = acc + power.scale(c)
            if j + 1 < len(self.coeffs):
                power = power.qpow()
        return acc

    def __str__(self):
        if not self.coeffs:
            return "0"
        q = self.ctx.order
        parts = []
        for j in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[j]
            if c.is_zero():
                continue
            zp = "z" if j == 0 else f"z^{q ** j}"
            cs = format_poly(c, var="x")
            parts.append(zp if cs == "1" else f"({cs})*{zp}")
        return "+".join(parts)

    def __repr__(self):
        return f"<{self} over {self.ctx.name}>"


def carlitz_of(f):
    """C_f, by Horner in the twisted ring: C_{x g + c} = C_x after C_g, plus c."""
    if f.is_zero():
        raise ZeroPolynomial("the Carlitz action needs a nonzero multiplier")
    ctx = f.ctx
    n = ctx.n
    m = f.degree
    acc = [Poly.constant(f.coeff(m))]
    for i in range(m - 1, -1, -1):
        # left-compose with z^q + x z: new_j = x*acc_j + acc_{j-1}^q
        x = Poly.gen(ctx)
        nxt = []
        for j in range(len(acc) + 1):
            t = Poly.zero(ctx)
            if j < len(acc):
                t = x * acc[j]
            if j > 0:
                t = t + acc[j - 1].frob_power(n)
            nxt.append(t)
        nxt[0] = nxt[0] + Poly.constant(f.coeff(i))
        acc = nxt
    return CarlitzPoly(ctx, acc)


class Modulus(Record):
    """Monic irreducible quadratic T^2 + aT + b over GF(q)."""

    __slots__ = ("a", "b")

    def __init__(self, a, b):
        set_field(self, "a", a)
        set_field(self, "b", b)
        if a.ctx is not b.ctx:
            raise CtxMismatch("modulus coefficients from different fields")
        if not is_irreducible(self.as_poly()):
            raise ReducibleModulus(
                f"T^2+({self.a})T+({self.b}) factors over {self.ctx.name}")

    @property
    def ctx(self):
        return self.a.ctx

    @property
    def q(self):
        return self.ctx.order

    def as_poly(self):
        return Poly(self.ctx, (self.b, self.a, self.ctx.one))

    # -- the unit group of GF(q)[x]/(M) ------------------------------------

    def unit(self, f):
        if isinstance(f, UnitClass):
            return f
        if isinstance(f, int):
            f = Poly.constant(self.ctx.elem(f))
        rep = f % self.as_poly()
        if rep.is_zero():
            raise NotAUnit("zero residue class")
        return UnitClass(rep)

    def unit_mul(self, u, w):
        return self.unit(u.rep * w.rep)

    def unit_pow(self, u, e):
        m = self.as_poly()
        return UnitClass(gf.power(u.rep, e % (self.q ** 2 - 1),
                                  lambda a, b: a * b % m, Poly.one(self.ctx)))

    def unit_order(self, u):
        n = self.q ** 2 - 1
        order = n
        for p in gf.factorize(n):
            while order % p == 0 and self.unit_pow(u, order // p).rep.is_one():
                order //= p
        return order

    def iter_units(self):
        """All q^2 - 1 residue classes, lex on (constant, linear) coefficients."""
        for c0 in self.ctx.iter_elements():
            for c1 in self.ctx.iter_elements():
                if c0.is_zero() and c1.is_zero():
                    continue
                yield UnitClass(Poly(self.ctx, (c0, c1)))

    def unit_group_generator(self):
        full = self.q ** 2 - 1
        for u in self.iter_units():
            if self.unit_order(u) == full:
                return u
        raise NotAUnit("no generator found; modulus arithmetic is broken")

    def __str__(self):
        return format_poly(self.as_poly())


def iter_irreducible_moduli(ctx):
    """All monic irreducible quadratics over ctx, lex on (a, b)."""
    for a in ctx.iter_elements():
        for b in ctx.iter_elements():
            try:
                yield Modulus(a, b)
            except ReducibleModulus:
                continue


class UnitClass(Record):
    """Canonical unit of GF(q)[x]/(M): nonzero representative of degree <= 1."""

    __slots__ = ("rep",)

    def __init__(self, rep):
        set_field(self, "rep", rep)
        if rep.is_zero():
            raise NotAUnit("zero residue class")
        if rep.degree > 1:
            raise NotAUnit("representative not reduced")

    @property
    def ctx(self):
        return self.rep.ctx

    def __str__(self):
        return format_poly(self.rep, var="x")


def _check_eisenstein(c0, c1):
    """Certify that P = y^(q^2-1) + c1 y^(q-1) + c0 is Eisenstein at the
    prime c0 = M(x) of GF(q)[x], so the torsion model is a field.

    P is monic and c0 = M divides its constant term exactly once; M must
    divide the middle coefficient c1 = x^q + x + a, as it does since
    theta^q + theta = -a for a root theta of M.  Then P is irreducible over
    GF(q)(x) (Eisenstein's criterion).
    """
    if not (c1 % c0).is_zero():
        raise CertificateFailed(
            f"M = {format_poly(c0, var='x')} does not divide the middle "
            f"coefficient {format_poly(c1, var='x')}")


class CycModel(QuotientAlgebra):
    """The torsion field GF(q)(x)[y]/(P) for a quadratic modulus."""

    def __init__(self, modulus):
        ctx = modulus.ctx
        q = ctx.order
        self.modulus = modulus
        self.carlitz_m = carlitz_of(modulus.as_poly())
        # the frozen shape of C_M for a monic quadratic; c0 != 0 is also
        # separability, since d/dz of an additive polynomial is its
        # z-coefficient
        x = Poly.gen(ctx)
        c0, c1 = modulus.as_poly(), x.frob_power(ctx.n) + x + modulus.a
        if self.carlitz_m.coeffs != (c0, c1, Poly.one(ctx)):
            raise CertificateFailed(f"unexpected C_M = {self.carlitz_m}")
        _check_eisenstein(c0, c1)
        self.c0 = c0
        self.c1 = c1
        # y * P(y) = C_M(y): P carries the three C_M coefficients one slot
        # lower, at y-degrees 0, q-1 and q^2-1
        super().__init__(ctx, q * q - 1, {0: c0, q - 1: c1})
        minpoly = [Poly.zero(ctx)] * (q * q)
        minpoly[0], minpoly[q - 1], minpoly[-1] = c0, c1, Poly.one(ctx)
        self.minpoly = tuple(minpoly)

    @functools.cached_property
    def _unit_generator(self):
        return self.modulus.unit_group_generator()

    def galois_image(self, k):
        """C_(u^k)(y) for the least generator u of the unit group."""
        u = self.modulus.unit_pow(self._unit_generator, k)
        return galois_map(u, self)

    def __repr__(self):
        return f"<torsion field for {self.modulus} over {self.ctx.name}>"


def galois_map(u, model):
    """Image of y under the automorphism attached to the unit u.

    The map y |-> C_u(y) extends to a field automorphism exactly when
    C_u(y) is a root of the defining polynomial P.  Since z P(z) = C_M(z),
    it is enough that C_M(C_u(y)) = 0 with C_u(y) != 0: the model is a
    field, since CycModel certifies P Eisenstein at M (`_check_eisenstein`),
    so the cofactor P(C_u(y)) must vanish.  Both facts are checked here,
    not assumed.
    """
    u = model.modulus.unit(u)
    w = carlitz_of(u.rep).act(model.y())
    if w.is_zero():
        raise NotAUnit("unit maps the generator to zero")
    if not model.carlitz_m.act(w).is_zero():
        raise CertificateFailed(f"C_M(C_u(y)) != 0 for u = {u}")
    return w

