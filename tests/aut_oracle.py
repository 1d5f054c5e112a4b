"""The reference closure for the automorphism tests.

``aut_closure`` lists every element of the group that some Auts of one
curve generate, each built as an Aut and so checked against the law
f^(q-1) * h = h o mobius.  ``autgroup.closure`` never lists the group; the
tests compare its order, orbits, stabilizers and membership with this list.
"""

from cycloff import autgroup as ag


def aut_closure(gens):
    """Every element of <gens> by breadth-first search, in the order found.

    Each element is reached as g o x for a generator g and an element x
    found before it; finiteness and cancellation make the words a group.
    """
    gens = tuple(gens)
    found = [ag.identity(gens[0].curve)]
    seen = set(found)
    for x in found:  # found doubles as the breadth-first queue
        for g in gens:
            z = ag.compose(g, x)
            if z not in seen:
                seen.add(z)
                found.append(z)
    return tuple(found)
