"""The reference closure for the automorphism tests.

``aut_closure`` lists every element of the group that some Auts of one
curve generate, each built as an Aut and so checked against the law
f^(q-1) * h = h o mobius.  ``autgroup.closure`` never lists the group; the
tests compare its order, orbits, stabilizers and membership with this list.
``identity``, ``invert`` and ``is_automorphism`` are the group operations
the tests check the tables with.
"""

from cycloff import autgroup as ag
from cycloff.errors import CertificateFailed
from cycloff.polyalg import Poly


def identity(curve):
    return ag.Aut(curve, (1, 0, 0, 1), 1)


def is_automorphism(candidate, curve):
    """Does the candidate satisfy the defining relation for this curve?"""
    return candidate._satisfies_law(curve)


def invert(a):
    curve = a.curve
    aa, ab, ac, ad = a.mobius
    ext = curve.ext
    fv = a.f.compose_fractional(Poly(ext, (-ab, ad)), Poly(ext, (aa, -ac)))
    out = ag.Aut(curve, (ad, -ab, -ac, aa), fv ** -1)
    if not (ag.compose(a, out).is_identity and ag.compose(out, a).is_identity):
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
