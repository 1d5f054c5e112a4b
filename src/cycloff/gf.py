"""Exact arithmetic in small finite fields GF(p^n).

Construction is fully deterministic.  The defining modulus of GF(p^n) is the
lexicographically least monic irreducible polynomial of degree n over GF(p),
where coefficient vectors (c_0, ..., c_{n-1}) are compared as integer tuples,
constant term first; the search tests each candidate's exponent list over
GF(p) with the first part of polyalg's distinct-degree kernel, so polyalg is
the one polynomial layer.
The distinguished generator is the least element (same ordering) of
multiplicative order p^n - 1.  For n = 1 the modulus is T itself.

Elements are coefficient tuples over GF(p) in the power basis of the residue
class of T.  Contexts are cached singletons, one per (p, n), so
``create_field(3, 2) is create_field(3, 2)`` and context identity doubles
as field identity; mixing elements of different contexts raises
CtxMismatch rather than coercing.

Every field of order at most 2^10, GF(2) included, multiplies, inverts,
raises to powers and takes discrete logs by lookup in log/antilog tables on
the generator, built once when the context is made (Lidl-Niederreiter,
*Finite Fields*).  The same step builds what arithmetic on exponents needs:
Zech's logarithm table ``_zech`` (g^zech[k] = 1 + g^k, None where the sum
is 0), the exponent ``_neg_exp`` of -1 ((q-1)/2 for odd p, 0 for p = 2)
and one shared element ``_elems[k]`` per exponent k, which polyalg's
kernels hand back the way ``zero`` is shared; elements add by the Zech
table too, g^i + g^j = g^(i + zech[j - i]).  The elements are still
coefficient tuples, so every printed or hashed value is the same as on the
packed path that larger fields keep.  There a sum is taken coefficientwise
mod p, a product is two integer products: the coefficient vectors packed
one slot per coefficient (Kronecker substitution), then the packed
reduction matrix of ``_packed_kernel``; an inverse is extended Euclid over
GF(p) against the modulus.
Fields past the cap take no discrete logs at all: ``dlog`` reads the log
table only, and ``nth_roots`` takes k-th roots in every field by
Adleman-Manders-Miller, from powers alone, so no field past the cap
builds a baby-step table or searches for its generator.
"""

import functools
import itertools
import struct
from math import gcd, isqrt

from .errors import (
    CertificateFailed,
    CtxMismatch,
    DivisionByZero,
    NoEmbedding,
    NotPrime,
    ParseError,
    TooLarge,
    ZeroElement,
)

ORDER_CAP = 1 << 20  # desk-scale cap for create_field
# Largest order that gets log/antilog tables.  2^10 covers every field the
# verify sweep touches (up to GF(2^10) at q=4) and adds about 0.1 MB to the
# peak memory of a divisor session; a cap of 2^13 added 1.5 MB (6 %) there
# and saved no time.
TABLE_CAP = 1 << 10
# An error message quotes at most this many characters of a literal.
ECHO_WIDTH = 40


def is_prime(m):
    if m < 2:
        return False
    for d in range(2, isqrt(m) + 1):
        if m % d == 0:
            return False
    return True


def factorize(m):
    """Prime factorization {prime: exponent} by trial division."""
    fs = {}
    d = 2
    while d * d <= m:
        while m % d == 0:
            fs[d] = fs.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        fs[m] = fs.get(m, 0) + 1
    return fs


def power(x, e, mul, one):
    """x^e for an int e >= 0 by square-and-multiply under ``mul``, at most
    2 * e.bit_length() products; e = 0 gives ``one``, which is never
    multiplied (von zur Gathen-Gerhard, *Modern Computer Algebra*, 4.3)."""
    result = None
    while e:
        if e & 1:
            result = x if result is None else mul(result, x)
        e >>= 1
        if e:
            x = mul(x, x)
    return one if result is None else result


def _least_irreducible(p, n):
    """Lex-least monic irreducible of degree n over GF(p); T itself for n=1.

    Each candidate is the exponent list of its coefficients over GF(p),
    tested by the first part of polyalg's distinct-degree kernel, as in
    polyalg.is_irreducible, with no Poly built per candidate."""
    if n == 1:
        return (0, 1)
    # polyalg imports this module, so the import waits for the first call
    from .polyalg import _distinct_degree
    fp = _field_ctx(p, 1)
    # tails with c_0 = 0 are divisible by T, so the walk starts past them
    tail = [1] + [0] * (n - 1)
    while next(_distinct_degree([fp._log.get((c,)) for c in tail] + [0],
                                n // 2, fp))[0]:
        # next (c_0, ..., c_{n-1}) tuple in integer-tuple order
        i = n - 1
        while i >= 0 and tail[i] == p - 1:
            tail[i] = 0
            i -= 1
        if i < 0:
            raise RuntimeError("no irreducible found; unreachable for prime p")
        tail[i] += 1
    return tuple(tail) + (1,)


class FieldElem:
    """Element of a FieldCtx; immutable coefficient tuple in the power basis."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx, coeffs):
        self.ctx = ctx
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, FieldElem):
            if other.ctx is not self.ctx:
                raise CtxMismatch(
                    f"cannot combine {self.ctx.name} with {other.ctx.name}")
            return other
        if isinstance(other, int):
            return self.ctx.elem(other)
        return None

    def __add__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._add(self.coeffs, other.coeffs))

    __radd__ = __add__

    def __sub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._sub(self.coeffs, other.coeffs))

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._sub(other.coeffs, self.coeffs))

    def __mul__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return FieldElem(self.ctx, self.ctx._mul(self.coeffs, other.coeffs))

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        other = self._coerce(other)
        if other is None:
            return NotImplemented
        return other * self.inverse()

    def __neg__(self):
        return FieldElem(self.ctx, self.ctx._neg(self.coeffs))

    def __pow__(self, e):
        if not isinstance(e, int):
            return NotImplemented
        if e < 0:
            return self.inverse() ** (-e)
        return FieldElem(self.ctx, self.ctx._pow(self.coeffs, e))

    def inverse(self):
        return FieldElem(self.ctx, self.ctx._inv(self.coeffs))

    def is_zero(self):
        return not any(self.coeffs)

    def __bool__(self):
        return any(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, FieldElem):
            return other.ctx is self.ctx and other.coeffs == self.coeffs
        if isinstance(other, int):
            return self.coeffs == self.ctx.elem(other).coeffs
        return NotImplemented

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.n, self.coeffs))

    def order(self):
        """Multiplicative order; ZeroElement for 0."""
        if self.is_zero():
            raise ZeroElement("0 has no multiplicative order")
        o = self.ctx.order - 1
        for r in self.ctx.group_factors():
            while o % r == 0 and self ** (o // r) == self.ctx.one:
                o //= r
        return o

    def frob(self, j=1):
        """p^j-power Frobenius."""
        return self ** (self.ctx.p ** j)

    def to_int(self):
        """Pack as an integer in base p, constant digit first (least weight)."""
        v = 0
        for c in reversed(self.coeffs):
            v = v * self.ctx.p + c
        return v

    def __str__(self):
        return format_element(self)

    def __repr__(self):
        return f"<{format_element(self)} in {self.ctx.name}>"


class FieldCtx:
    """GF(p^n) with deterministic modulus and generator; cached singleton."""

    __slots__ = ("p", "n", "order", "modulus", "_packed", "_zero", "_one",
                 "_gen", "_factors", "_exp", "_log", "_zech",
                 "_neg_exp", "_elems", "_add", "_mul", "_inv", "_pow",
                 "__weakref__")

    def __init__(self, p, n, modulus):
        self.p = p
        self.n = n
        self.order = p ** n
        self.modulus = modulus
        self._packed = _packed_kernel(p, n, modulus) if n > 1 else None
        self._zero = FieldElem(self, (0,) * n)
        self._one = FieldElem(self, (1,) + (0,) * (n - 1))
        self._gen = None
        self._factors = None
        self._exp = self._log = self._zech = self._neg_exp = self._elems = None
        self._add, self._mul, self._inv, self._pow = (
            self._poly_add, self._poly_mul, self._poly_inv, self._poly_pow)
        if self.order <= TABLE_CAP:
            self._build_tables()

    # -- context identity ---------------------------------------------------

    @property
    def name(self):
        return f"GF({self.p})" if self.n == 1 else f"GF({self.p}^{self.n})"

    def __repr__(self):
        return self.name

    # -- element constructors ----------------------------------------------

    @property
    def zero(self):
        return self._zero

    @property
    def one(self):
        return self._one

    def elem(self, value):
        """Element from an int (constant) or a coefficient sequence."""
        if isinstance(value, FieldElem):
            if value.ctx is not self:
                raise CtxMismatch("element belongs to a different field")
            return value
        if isinstance(value, int):
            return FieldElem(self, (value % self.p,) + (0,) * (self.n - 1))
        t = tuple(int(c) % self.p for c in value)
        if len(t) > self.n:
            raise ValueError(f"coefficient vector longer than degree {self.n}")
        return FieldElem(self, t + (0,) * (self.n - len(t)))

    def from_int(self, v):
        """Inverse of FieldElem.to_int: base-p digits, least weight first."""
        coeffs = []
        for _ in range(self.n):
            coeffs.append(v % self.p)
            v //= self.p
        return FieldElem(self, tuple(coeffs))

    @property
    def t_class(self):
        """Residue class of T (zero when n = 1, where the modulus is T)."""
        if self.n == 1:
            return self._zero
        return FieldElem(self, (0, 1) + (0,) * (self.n - 2))

    def iter_elements(self):
        """All field elements in lex order of coefficient vectors."""
        for t in itertools.product(range(self.p), repeat=self.n):
            yield FieldElem(self, t)

    # -- tuple-level arithmetic ---------------------------------------------

    def _poly_add(self, a, b):
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def _sub(self, a, b):
        p = self.p
        return tuple((x - y) % p for x, y in zip(a, b))

    def _neg(self, a):
        p = self.p
        return tuple((-x) % p for x in a)

    # _add, _mul, _inv and _pow are bound per context: the tuple sum and
    # the packed-product/Fermat methods, or the table lookups once
    # _build_tables has run.

    def _poly_mul(self, a, b):
        """a*b mod the modulus on packed integers (see _packed_kernel)."""
        p = self.p
        if self.n == 1:
            return ((a[0] * b[0]) % p,)
        pack, unpack, rows = self._packed
        prod = (int.from_bytes(pack.pack(*a), "little")
                * int.from_bytes(pack.pack(*b), "little") * rows)
        return tuple([c % p for c in unpack.unpack(
            prod.to_bytes(unpack.size, "little"))])

    def _poly_inv(self, a):
        """Extended Euclid over GF(p) against the modulus: s a = r mod the
        modulus for both rows (r, s), down to a constant r.  Each s has n
        slots, since deg s + k < n for every shift k taken."""
        if not any(a):
            raise DivisionByZero(f"division by zero in {self.name}")
        p, n, r, r1 = self.p, self.n, list(self.modulus), list(a)
        s, s1 = [0] * n, [1] + [0] * (n - 1)
        del r1[max(i for i, c in enumerate(a) if c) + 1:]
        while len(r1) > 1:
            inv = pow(r1[-1], p - 2, p)
            while len(r) >= len(r1):
                c, k = r[-1] * inv % p, len(r) - len(r1)
                for row, row1 in ((r, r1), (s, s1[:n - k])):
                    for i, x in enumerate(row1):
                        row[i + k] = (row[i + k] - c * x) % p
                while r[-1] == 0:
                    r.pop()
            r, s, r1, s1 = r1, s1, r, s
        c = pow(r1[0], p - 2, p)
        return tuple(x * c % p for x in s1)

    def _poly_pow(self, a, e):
        return power(a, e, self._poly_mul, self._one.coeffs)

    def _build_tables(self):
        """Antilog table ``_exp`` (generator powers, twice round), ``_log``,
        the Zech table ``_zech``, the exponent ``_neg_exp`` of -1 and one
        shared element ``_elems[k]`` per exponent k.

        The generator is found on the polynomial path first.  Zero is the
        one tuple missing from ``_log``, and None in ``_zech``.
        """
        g = self.generator.coeffs
        one = self._one.coeffs
        powers = [one]
        for _ in range(self.order - 2):
            powers.append(self._poly_mul(powers[-1], g))
        self._log = log = {a: i for i, a in enumerate(powers)}
        # doubled, so a product's exponent i + j needs no reduction
        self._exp = tuple(powers) * 2
        # g^_zech[k] = 1 + g^k (Lidl-Niederreiter, Finite Fields, 10.1)
        # adding one moves only the constant coefficient
        self._zech = tuple([log.get(((a[0] + 1) % self.p,) + a[1:])
                            for a in powers])
        self._neg_exp = (self.order - 1) // 2 if self.p != 2 else 0
        self._elems = tuple([self._one] + [FieldElem(self, a)
                                           for a in powers[1:]])
        self._add, self._mul, self._inv, self._pow = (
            self._table_add, self._table_mul, self._table_inv, self._table_pow)

    def _table_add(self, a, b):
        # g^i + g^j = g^(i + zech[j - i])
        log = self._log
        i = log.get(a)
        if i is None:
            return b
        j = log.get(b)
        if j is None:
            return a
        z = self._zech[(j - i) % (self.order - 1)]
        return self._zero.coeffs if z is None else self._exp[i + z]

    def _table_mul(self, a, b):
        log = self._log
        i = log.get(a)
        j = log.get(b)
        if i is None or j is None:
            return self._zero.coeffs
        return self._exp[i + j]

    def _table_inv(self, a):
        i = self._log.get(a)
        if i is None:
            raise DivisionByZero(f"division by zero in {self.name}")
        return self._exp[self.order - 1 - i]

    def _table_pow(self, a, e):
        i = self._log.get(a)
        if i is None:
            return a if e else self._one.coeffs
        return self._exp[i * e % (self.order - 1)]

    # -- deterministic generator -------------------------------------------

    def group_factors(self):
        if self._factors is None:
            self._factors = tuple(sorted(factorize(self.order - 1)))
        return self._factors

    @property
    def generator(self):
        """Least element of full multiplicative order; computed lazily."""
        if self._gen is None:
            target = self.order - 1
            for e in self.iter_elements():
                if e.is_zero():
                    continue
                if e.order() == target:
                    self._gen = e
                    break
        return self._gen

    # -- discrete logs (tables only) and roots (no logs) --------------------

    def dlog(self, w):
        """Discrete log of w base ``generator``, read from the log table;
        ZeroElement for 0, TooLarge above TABLE_CAP."""
        if w.is_zero():
            raise ZeroElement("0 has no discrete log")
        if self._log is None:
            raise TooLarge(f"{self.name} has no log table above order "
                           f"{TABLE_CAP}")
        return self._log[w.coeffs]

    def nth_roots(self, w, k):
        """All y with y^k = w, sorted in lex order of coefficient vectors.

        With m = Q - 1, d = gcd(k, m) and u = k / d, w is a k-th power iff
        w^(m/d) = 1, and then the roots are the d-th roots of
        w' = w^(u^-1 mod m/d), since y^k = (y^d)^u = w'^u = w.  One d-th
        root is taken one prime l | d at a time, e l-th roots for l^e || d,
        by Adleman, Manders and Miller (FOCS 1977; Tonelli-Shanks for
        l = 2): an l-th root of an l^e-th power is an l^(e-1)-th power when
        l^e | m.  With m = l^s t and l prime to t, and v = a^(u - 1) for
        u = l^-1 mod t, r = v a has r^l = a x for the error x = v^l a^(l-1)
        in the l-Sylow subgroup <c> (`_sylow`); x = c^j with l | j, j is
        read digit by digit in base l, each digit from a power of order l,
        and r c^(-j/l) is an l-th root of a.  The other roots are its
        products with the d-th roots of unity, built from the same c.  No
        log is taken over the whole group and no generator is needed.
        """
        if w.is_zero():
            return [self.zero]
        mul, pw, m = self._mul, self._pow, self.order - 1
        d = gcd(k, m)
        if pw(w.coeffs, m // d) != self._one.coeffs:
            return []
        root, unity = pw(w.coeffs, pow(k // d, -1, m // d)), self._one.coeffs
        for ell, e in factorize(d).items():
            s, t, c, cinv, digits = self._sylow(ell)
            u = pow(ell, -1, t) if t > 1 else 1
            for _ in range(e):
                v = pw(root, u - 1)
                err = mul(pw(v, ell), pw(root, ell - 1))
                root, step, j = mul(v, root), pw(cinv, ell), 0
                # err is an l-th power in <c>, so its digit 0 is 0
                for i in range(1, s):
                    digit = digits[pw(err, ell ** (s - 1 - i))]
                    if digit:
                        err = mul(err, pw(step, digit))
                        j += digit * ell ** i
                    step = pw(step, ell)
                root = mul(root, pw(cinv, j // ell))
            unity = mul(unity, pw(c, ell ** (s - e)))
        roots = [root]
        for _ in range(d - 1):
            roots.append(mul(roots[-1], unity))
        return [FieldElem(self, y) for y in sorted(roots)]

    @functools.lru_cache(maxsize=None)
    def _sylow(self, ell):
        """(s, t, c, c^-1, digits) for a prime l | m = Q - 1, m = l^s t with
        l prime to t, on coefficient tuples: c = n^t generates the l-Sylow
        subgroup, for n the first non-l-th power by the power test
        n^(m/l) != 1, and digits maps c^(x l^(s-1)) to x < l.  Kept per
        field and l."""
        m = t = self.order - 1
        s = 0
        while t % ell == 0:
            s, t = s + 1, t // ell
        n = next(n for n in map(self.from_int, range(1, self.order))
                 if n ** (m // ell) != self.one)
        c = n ** t
        z = c ** ell ** (s - 1)
        return (s, t, c.coeffs, c.inverse().coeffs,
                {(z ** x).coeffs: x for x in range(ell)})


def _slot_typecode(p, n):
    """Narrowest unsigned ``struct`` code (B, H, I, Q: 1, 2, 4, 8 bytes)
    whose slot holds (2n-1) n (p-1)^3, the largest value a slot of a packed
    product over GF(p^n) can reach; None if none does.
    """
    bound = (2 * n - 1) * n * (p - 1) ** 3
    return next((code for code in "BHIQ"
                 if bound < 1 << 8 * struct.calcsize("<" + code)), None)


def _packed_kernel(p, n, modulus):
    """(packer, unpacker, R) for products by Kronecker substitution
    (von zur Gathen-Gerhard, *Modern Computer Algebra*, 8.4).

    Coefficient vectors become little-endian integers with one slot per
    entry, so one integer product holds the convolution c_k, k = 0..2n-2.
    Row k of the reduction matrix M is T^k mod the modulus, entries in
    0..p-1: the identity for k < n, then T^n = -sum m_i T^i shifted by T
    with the top coefficient folded back.  R holds column i of M, reversed,
    in slots i S .. i S + 2n-2 with stride S = 2n-1, so slot 2n-2 + i S of
    (a b) R is sum_k c_k M[k][i], coefficient i of a b before the last
    reduction mod p; the unpacker reads those n slots and skips the rest.
    Every slot of (a b) R sums at most 2n-1 terms c_k M[k][j] with
    c_k <= n (p-1)^2, which is the bound the slot holds, so no slot carries
    into the next.
    """
    code = _slot_typecode(p, n)
    width = struct.calcsize("<" + code)
    stride = 2 * n - 1
    first = tuple((-c) % p for c in modulus[:n])
    rows = [tuple(int(i == k) for i in range(n)) for k in range(n)]
    row = first
    for _ in range(n - 1):
        rows.append(row)
        top = row[-1]
        row = tuple((c + top * f) % p for c, f in zip((0,) + row[:-1], first))
    packed = 0
    for k, row in enumerate(rows):
        for i, m in enumerate(row):
            packed |= m << 8 * width * (i * stride + 2 * n - 2 - k)
    edge = f"{(2 * n - 2) * width}x"
    slots = f"{(stride - 1) * width}x".join([code] * n)
    return (struct.Struct(f"<{n}{code}"),
            struct.Struct(f"<{edge}{slots}{edge}"), packed)


@functools.lru_cache(maxsize=None)
def _field_ctx(p, n):
    """The one context of GF(p^n); create_field checks p, n and the cap."""
    return FieldCtx(p, n, _least_irreducible(p, n))


def create_field(p, n=1):
    """GF(p^n) context; deterministic and cached.  Caps at p^n <= 2^20."""
    if not isinstance(p, int) or not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if n < 1:
        raise ValueError("extension degree must be >= 1")
    if p ** n > ORDER_CAP:
        raise TooLarge(f"GF({p}^{n}) exceeds the size cap {ORDER_CAP}")
    return _field_ctx(p, n)


def field_from_order(q):
    """GF(q) for a prime power q, factoring q as p^n."""
    fs = factorize(q)
    if len(fs) != 1:
        raise NotPrime(f"{q} is not a prime power")
    ((p, n),) = fs.items()
    return create_field(p, n)


# ---------------------------------------------------------------------------
# Embeddings

@functools.lru_cache(maxsize=None)
def _embed_powers(src, tgt):
    if tgt.p != src.p:
        raise NoEmbedding(f"different characteristic: {src.name} vs {tgt.name}")
    if tgt.n % src.n:
        raise NoEmbedding(f"{src.n} does not divide {tgt.n}")
    # polyalg imports this module, so the import waits for the first call
    from .polyalg import Poly, one_root
    # The source modulus is irreducible over GF(p) of degree src.n, so its
    # roots in the target are the p-power orbit of any one of them; the
    # image of T is the least root in lex order of coefficient vectors.
    prime = _field_ctx(src.p, 1)
    f = Poly(prime, [prime.elem(c) for c in src.modulus])
    r = one_root(f, tgt)
    orbit = [r.frob(i) for i in range(src.n)]
    if f(r) or len(set(orbit)) != src.n:
        raise CertificateFailed(
            f"{format_element(r)} is no root of the modulus of {src.name} "
            f"with a Frobenius orbit of length {src.n} in {tgt.name}")
    root = min(orbit, key=lambda e: e.coeffs)
    powers = [tgt.one]
    for _ in range(src.n - 1):
        powers.append(powers[-1] * root)
    return tuple(powers)


@functools.lru_cache(maxsize=None)
def _embed_images(src, tgt):
    """Coefficient tuple -> image in tgt, filled on demand by ``embed``.

    A proper subfield of a field under ORDER_CAP has order at most
    sqrt(ORDER_CAP) = TABLE_CAP, so each map has at most that many entries.
    """
    return {}


def embed(e, tgt):
    """Canonical embedding GF(p^m) -> GF(p^n) for m | n (identity if same).

    These embeddings do not compose along towers: for F < K < L,
    embed(embed(e, K), L) can differ from embed(e, L), as for GF(9) <
    GF(3^6) < GF(3^12).  So callers embed an element from the field it
    lives in, and where elements of F and of K meet in L, the F element
    first goes into K, the field of the other.
    """
    src = e.ctx
    if src is tgt:
        return e
    images = _embed_images(src, tgt)
    out = images.get(e.coeffs)
    if out is None:
        out = images[e.coeffs] = _embed_sum(e, tgt)
    return out


@functools.lru_cache(maxsize=None)
def preimages(src, tgt):
    """{embed(c, tgt): c} over src, to read elements of the subfield back."""
    return {embed(c, tgt): c for c in src.iter_elements()}


def _embed_sum(e, tgt):
    """sum c_i w^i for the image w of the source's T."""
    if e.ctx.n == 1 and e.ctx.p == tgt.p:
        # GF(p) sits in GF(p^n) one way, and one_root, which finds w for
        # larger sources, embeds its prime-field coefficients through here
        return tgt.elem(e.coeffs[0])
    powers = _embed_powers(e.ctx, tgt)
    acc = tgt.zero
    for c, w in zip(e.coeffs, powers):
        if c:
            acc = acc + tgt.elem(c) * w
    return acc


# ---------------------------------------------------------------------------
# Literal syntax: "2", "g", "g+2", "2*g^3+1"

SYMBOL = "g"  # the residue class of T, the one symbol of element literals


def format_element(e):
    if e.ctx.n == 1:
        return str(e.coeffs[0])
    terms = []
    for i in range(e.ctx.n - 1, -1, -1):
        c = e.coeffs[i]
        if not c:
            continue
        if i == 0:
            terms.append(str(c))
        else:
            var = SYMBOL if i == 1 else f"{SYMBOL}^{i}"
            terms.append(var if c == 1 else f"{c}*{var}")
    return "+".join(terms) if terms else "0"


def parse_element(ctx, s):
    """Parse the literal syntax; inverse of format_element."""
    text = s.replace(" ", "")
    if not text:
        raise ParseError("empty element literal")
    terms = _split_terms(text, s)
    coeffs = [0] * ctx.n
    for sgn, term in terms:
        head, exp = _split_power(term, SYMBOL)
        coef = 1 if head is None else _digits(head,
                                              f"bad term {_quote(term)}")
        if exp >= ctx.n:
            raise ParseError(f"exponent {exp} too large for {ctx.name}")
        coeffs[exp] = (coeffs[exp] + sgn * coef) % ctx.p
    return ctx.elem(coeffs)


def _split_terms(text, original):
    """(sign, term) pairs of a literal cut at its +/- signs outside
    parentheses; parse_element and polyalg.parse_poly share it."""
    terms = []
    depth = 0
    sign = 1
    i = 0
    if text[0] in "+-":
        sign = -1 if text[0] == "-" else 1
        i = 1
    start = i
    while i <= len(text):
        if i == len(text):
            if i == start:
                raise ParseError(f"malformed literal {_quote(original)}")
            terms.append((sign, text[start:i]))
            break
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
            if depth < 0:
                raise ParseError(f"unbalanced parens in {_quote(original)}")
        elif ch in "+-" and depth == 0:
            if i == start:
                raise ParseError(f"malformed literal {_quote(original)}")
            terms.append((sign, text[start:i]))
            sign = -1 if ch == "-" else 1
            start = i + 1
        i += 1
    if depth:
        raise ParseError(f"unbalanced parens in {_quote(original)}")
    return terms


def _split_power(term, var):
    """(head, e) for a term head*var^e, head*var, var^e or var: head is None
    when the term starts at var, and the whole term, with e = 0, when var
    does not occur.  parse_element and polyalg.parse_poly share it."""
    if var not in term:
        return term, 0
    head, _, tail = term.partition(var)
    if head and not head.endswith("*"):
        raise ParseError(f"missing '*' before {var} in {_quote(term)}")
    if tail and not tail.startswith("^"):
        raise ParseError(f"bad exponent in {_quote(term)}")
    exp = _digits(tail[1:], f"bad exponent in {_quote(term)}") if tail else 1
    return (head[:-1] if head else None), exp


def _quote(text):
    """repr(text) for an error message, cut to ECHO_WIDTH characters."""
    if len(text) <= ECHO_WIDTH:
        return repr(text)
    return f"{text[:ECHO_WIDTH]!r}... ({len(text)} characters)"


def _digits(text, message):
    """int(text) for a run of ASCII digits, else ParseError(message), also
    for a run past Python's int-string limit."""
    try:
        if text.isascii() and text.isdigit():
            return int(text)
    except ValueError:
        pass
    raise ParseError(message)
