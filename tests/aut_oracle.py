"""The reference closure for the automorphism tests.

``aut_closure`` lists every element of the group that some Auts of one
curve generate, each built as an Aut and so checked against the law
f^(q-1) * h = h o mobius.  ``autgroup.closure`` never lists the group; the
tests compare its order, orbits, stabilizers and membership with this list.
``identity``, ``is_identity``, ``invert`` and ``is_automorphism`` are the
group operations the tests check the tables with.  ``lawful_map_count``
counts the lawful maps over GF(q^2) by enumeration, a route to the group
order that uses no generator, no Aut and no closure.
"""

import itertools

from cycloff import autgroup as ag
from cycloff import gf
from cycloff.errors import CertificateFailed
from cycloff.polyalg import INFINITY, Poly, RatFunc


def identity(curve):
    return ag.Aut(curve, (1, 0, 0, 1), 1)


def is_identity(a):
    # canonical key of v -> v, y -> y: to_int packs 1 as 1 and 0 as 0
    return a._key == ((1, 0, 0, 1), (1,), (1,))


def is_automorphism(candidate, curve):
    """Does the candidate satisfy the defining relation for this curve?"""
    return candidate._satisfies_law(curve)


def invert(a):
    curve = a.curve
    aa, ab, ac, ad = a.mobius
    ext = curve.ext
    fv = a.f.compose_fractional(Poly(ext, (-ab, ad)), Poly(ext, (aa, -ac)))
    out = ag.Aut(curve, (ad, -ab, -ac, aa), fv ** -1)
    if not (is_identity(ag.compose(a, out))
            and is_identity(ag.compose(out, a))):
        raise CertificateFailed("inverse does not compose to the identity")
    return out


def aut_closure(gens):
    """Every element of <gens> by breadth-first search, in the order found.

    Each element is reached as g o x for a generator g and an element x
    found before it; finiteness and cancellation make the words a group.
    """
    gens = tuple(gens)
    found = [identity(gens[0].curve)]
    seen = set(found)
    for x in found:  # found doubles as the breadth-first queue
        for g in gens:
            z = ag.compose(g, x)
            if z not in seen:
                seen.add(z)
                found.append(z)
    return tuple(found)


def _image(mob, x):
    """m(x) for the Mobius map v -> (a v + b)/(c v + d); None is infinity."""
    a, b, c, d = mob
    num, den = (a, c) if x is None else (a * x + b, c * x + d)
    return None if den.is_zero() else num * den.inverse()


def lawful_map_count(curve):
    """The number of maps v -> m(v), y -> f y over GF(q^2) with
    f^(q-1) h = h o m.

    m must send the q+3 branch points, the zeros and poles of h, to
    themselves and keep e(P) = v_P(h) mod q-1, as (q-1) div f =
    div(h o m) - div h.  Such an m is fixed by its images of the branch
    points 0, 1 and infinity, so every ordered triple of distinct branch
    points is tried.  For a kept m, r = h o m / h has order a multiple of
    q-1 at every branch point and no other zero or pole; with f0 the
    product of (v - P)^(v_P(r)/(q-1)) over the finite branch points,
    r = lambda f0^(q-1), and the lawful f are the q-1 roots
    f = lambda^(1/(q-1)) f0 when lambda is a constant with a (q-1)-th root
    in GF(q^2), that is lambda^(q+1) = 1.
    """
    ext, q = curve.ext, curve.q
    h = curve.h.embed_into(ext)
    finite = [gf.embed(c, ext) for c in curve.ctx.iter_elements()]
    finite += curve.quad_roots
    e = {x: h.valuation(x) % (q - 1) for x in finite}
    e[None] = h.valuation(INFINITY) % (q - 1)
    count = 0
    for p_inf, p0, p1 in itertools.permutations(e, 3):
        # columns: the images of infinity and 0, scaled so that 1 -> p1
        u_inf, u0, u1 = ((ext.one, ext.zero) if p is None else (p, ext.one)
                         for p in (p_inf, p0, p1))
        s_inf = u1[0] * u0[1] - u1[1] * u0[0]
        s0 = u_inf[0] * u1[1] - u_inf[1] * u1[0]
        mob = (s_inf * u_inf[0], s0 * u0[0], s_inf * u_inf[1], s0 * u0[1])
        if any(e.get(_image(mob, x), -1) != e[x] for x in e):
            continue
        a, b, c, d = mob
        r = h.compose_fractional(Poly(ext, (b, a)), Poly(ext, (d, c))) / h
        f0 = RatFunc.constant(ext.one)
        for x in finite:
            f0 = f0 * RatFunc.from_poly(Poly(ext, (-x, ext.one))) ** (
                r.valuation(x) // (q - 1))
        lam = r / f0 ** (q - 1)
        if lam.is_constant() and lam.num.lc ** (q + 1) == ext.one:
            count += q - 1
    return count
