"""The reference Galois action and unit arithmetic for the tests.

``transport`` pushes a residue unit u = c0 + c1 T through the torsion
relation x = gamma v - y^(q-1) inside the curve's Kummer algebra and reads
the map off the result: sigma_u(y) = C_u(y) = c1 (y^q + x y) + c0 y must
be f(v) y, and sigma_u(v) = (x + sigma_u(y)^(q-1))/gamma must be a
fractional-linear function of v.  ``autgroup.galois_aut`` writes the same
map in closed form; the tests compare the two.

``unit_mul``, ``unit_pow``, ``unit_order`` and ``unit_group_generator``
are the unit group of GF(q)[T]/(M) by Poly products reduced mod M, the
order by powering at each prime factor of q^2 - 1 and the generator by
the first unit of full order.  ``carlitz.Modulus`` reads its generator
and powers from its table of discrete logs in GF(q^2); the tests compare
the two, and check the Galois action against products taken here.
"""

from cycloff import autgroup as ag
from cycloff import gf
from cycloff.carlitz import UnitClass
from cycloff.polyalg import Poly


def unit_mul(mod, u, w):
    return UnitClass(u.rep * w.rep % mod.as_poly())


def unit_pow(mod, u, e):
    m = mod.as_poly()
    return UnitClass(gf.power(u.rep, e % (mod.q ** 2 - 1),
                              lambda a, b: a * b % m, Poly.one(mod.ctx)))


def unit_order(mod, u):
    n = mod.q ** 2 - 1
    order = n
    for p in gf.factorize(n):
        while order % p == 0 and unit_pow(mod, u, order // p).rep.is_one():
            order //= p
    return order


def unit_group_generator(mod):
    n = mod.q ** 2 - 1
    return next(u for u in mod.iter_units() if unit_order(mod, u) == n)


def transport(curve, u):
    """sigma_u on (v, y) by arithmetic in the curve algebra, as an Aut."""
    q = curve.q
    c0, c1 = u.rep.coeff(0), u.rep.coeff(1)
    y = curve.y()
    x = curve.scalar(Poly.constant(curve.gamma) * Poly.gen(curve.ctx)) \
        - y ** (q - 1)
    sy = (y ** q).scale(c1) + (x.scale(c1) + curve.scalar(c0)) * y
    if any(sy.coords[i] for i in range(q - 1) if i != 1):
        raise ValueError("image of y is not an f(v) multiple of y")
    f = sy.coords[1]
    if not f:
        raise ValueError("image of y collapsed to zero")
    sv = (x + sy ** (q - 1)).scale(curve.gamma.inverse())
    if any(sv.coords[i] for i in range(1, q - 1)):
        raise ValueError("image of v leaves the rational subfield")
    w = sv.coords[0]
    if w.num.degree > 1 or w.den.degree > 1:
        raise ValueError("image of v is not fractional-linear")
    return ag.Aut(curve, (w.num.coeff(1), w.num.coeff(0),
                          w.den.coeff(1), w.den.coeff(0)), f)
