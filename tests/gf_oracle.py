"""Reference discrete logs and roots for the field tests.

``bsgs_dlog`` is Shanks' baby-step giant-step on the field's generator, one
table of about sqrt(Q) powers per field, and ``nth_roots_by_dlog`` reads
k-th roots off that log.  ``gf.FieldCtx.nth_roots`` takes no log at all;
the tests compare it with these on fields past ``gf.TABLE_CAP``.
"""

import functools
from math import gcd, isqrt


@functools.lru_cache(maxsize=None)
def _baby_steps(ctx):
    order = ctx.order - 1
    m = isqrt(order - 1) + 1 if order > 1 else 1
    baby = {}
    acc = ctx.one
    for j in range(m):
        baby.setdefault(acc.coeffs, j)
        acc = acc * ctx.generator
    return m, baby, ctx.generator ** (-m)


def bsgs_dlog(ctx, w):
    """log of w base ``ctx.generator``, w nonzero."""
    m, baby, giant = _baby_steps(ctx)
    acc = w
    for i in range(m + 1):
        j = baby.get(acc.coeffs)
        if j is not None:
            return (i * m + j) % (ctx.order - 1)
        acc = acc * giant
    raise AssertionError("no log found; the generator is not primitive")


def nth_roots_by_dlog(ctx, w, k):
    """All y with y^k = w in lex order: with d = gcd(k, Q-1), the roots are
    g^x0 zeta^t, t < d, for one solution x0 and zeta = g^((Q-1)/d)."""
    if w.is_zero():
        return [ctx.zero]
    order = ctx.order - 1
    d = gcd(k, order)
    ell = bsgs_dlog(ctx, w)
    if ell % d:
        return []
    step = order // d
    x0 = (ell // d) * pow(k // d, -1, step) % step
    zeta = ctx.generator ** step
    roots = [ctx.generator ** x0]
    for _ in range(d - 1):
        roots.append(roots[-1] * zeta)
    return sorted(roots, key=lambda e: e.coeffs)
