"""The divisor workload's elements: a fixed pool of seeded draws.

The family is the one the place tests draw from: every filled coordinate is
n(v)/d(v) with deg n <= 2 and d in {1, v, v+1}.  At q=3 a coordinate is
filled with probability 0.6; at q=5, 7, 8 and 9 exactly one coordinate is
filled, because denser draws there mostly exceed the splitting-field cap.
Draw ``i`` at ``q`` depends only on ``(q, i)``, so its divisor can be
checked against the hash recorded for it, whatever order a run uses.
"""

import random

# standard curves at gamma = 1: q -> ((p, n), modulus T^2 + aT + b as (a, b))
CURVES = {3: ((3, 1), "0", "1"), 5: ((5, 1), "0", "2"), 7: ((7, 1), "0", "1"),
          8: ((2, 3), "1", "1"), 9: ((3, 2), "0", "g+1")}

# Every run computes the whole pool; the run seed fixes how the curves take
# turns.  Single draws at q=3 cost from 5 ms to 10 s, so a sample per seed
# would move the total by more than a layer change does.
POOL = {3: 60, 5: 80, 7: 100, 8: 80, 9: 80}


def standard_curves():
    from cycloff.gf import create_field, parse_element
    from cycloff.kummer import KummerCurve
    curves = {}
    for q, ((p, n), a, b) in CURVES.items():
        ctx = create_field(p, n)
        curves[q] = KummerCurve(parse_element(ctx, a), parse_element(ctx, b),
                                ctx.one)
    return curves


def draw(curve, rng, max_coord_deg=2):
    """One nonzero element of the family on ``curve``."""
    from cycloff.polyalg import Poly, RatFunc
    ctx = curve.ctx
    n = curve.q - 1

    def vpoly(*ints):
        return Poly(ctx, [ctx.from_int(c) for c in ints])

    dens = [vpoly(1), vpoly(0, 1), vpoly(1, 1)]
    while True:
        coords = [RatFunc.zero(ctx) for _ in range(n)]
        idxs = (rng.sample(range(n), 1) if curve.q != 3
                else [i for i in range(n) if rng.random() < 0.6])
        for i in idxs:
            num = vpoly(*[rng.randrange(ctx.order)
                          for _ in range(rng.randint(1, max_coord_deg + 1))])
            if not num.is_zero():
                coords[i] = RatFunc(num, dens[rng.randrange(3)])
        e = curve.from_coords(coords)
        if any(not r.is_zero() for r in e.coords):
            return e


def session_order(seed):
    """The pool as a seeded interleaving of the curves.

    Each curve keeps its own draw order, so a first-call cost (a field
    built, an embedding table filled) lands on the same draw of that curve
    in every session; only costs that two curves share can move.
    """
    turns = [q for q, size in POOL.items() for _ in range(size)]
    random.Random(seed).shuffle(turns)
    taken = dict.fromkeys(POOL, 0)
    order = []
    for q in turns:
        order.append(f"{q}:{taken[q]}")
        taken[q] += 1
    return order


def elements(curves, keys):
    """The draws named by ``keys`` (``"q:i"``), in that order."""
    out = []
    for key in keys:
        q = int(key.split(":")[0])
        out.append((key, draw(curves[q], random.Random(f"divisors:{key}"))))
    return out
