"""Vectorized affine point counting over big extension fields.

Everything is exact int64 arithmetic on base-p coefficient vectors; numpy is
infrastructure only.  An element of GF(p^m) is a row of m digits; products
are schoolbook convolutions folded through the precomputed reduction rows of
the field modulus, and q-power Frobenius is a matrix over GF(p).  The norm
down to GF(q) uses the addition-chain N_{2t} = N_t * Frob^t(N_t), so the
power-residue predicate h(c)^((q^k-1)/(q-1)) = 1 becomes an equality of two
norms and never needs a division.
"""

from concurrent.futures import ThreadPoolExecutor

import numpy as np

from . import gf
from .gf import embed


def _tables(E):
    p, m = E.p, E.n
    red = np.array([list(row) for row in E._red], dtype=np.int64).reshape(
        m - 1, m)
    frob = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        basis = E.elem([0] * i + [1])
        frob[i] = (basis ** p).coeffs
    return red, frob


def _mul_const_matrix(E, x):
    m = E.n
    out = np.zeros((m, m), dtype=np.int64)
    for i in range(m):
        out[i] = (x * E.elem([0] * i + [1])).coeffs
    return out


def _matpow(mat, e, p):
    out = np.eye(mat.shape[0], dtype=np.int64)
    base = mat % p
    while e:
        if e & 1:
            out = out @ base % p
        base = base @ base % p
        e >>= 1
    return out


def _mul(A, B, red, p):
    m = A.shape[1]
    out = np.zeros((A.shape[0], 2 * m - 1), dtype=np.int64)
    for i in range(m):
        out[:, i:i + m] += A[:, i:i + 1] * B
    return (out[:, :m] + out[:, m:] @ red) % p


def _norm_chain(Z, e, frob_q, red, p):
    # Z^(1 + q + ... + q^(e-1)) via a binary ladder on the conjugate count
    bits = bin(e)[2:]
    R = Z
    t = 1
    Ft = frob_q
    for b in bits[1:]:
        R = _mul(R, R @ Ft % p, red, p)
        t *= 2
        Ft = Ft @ Ft % p
        if b == "1":
            R = _mul(Z, R @ frob_q % p, red, p)
            t += 1
            Ft = Ft @ frob_q % p
    return R


def bulk_affine_count(curve, k, threads=1):
    """(q-1) * #{c in GF(q^k): h(c) defined, nonzero, of trivial norm}."""
    ctx = curve.ctx
    p, n, q = ctx.p, ctx.n, curve.q
    m = n * k
    E = gf._big_field(p, m)
    red, frob_p = _tables(E)
    frob_q = _matpow(frob_p, n, p)
    mul_gam = _mul_const_matrix(E, embed(curve.gamma, E))
    mul_a = _mul_const_matrix(E, embed(curve.modulus.a, E))
    b_over_g = np.array(
        embed(curve.modulus.b * curve.gamma.inverse(), E).coeffs,
        dtype=np.int64)
    pows = p ** np.arange(m, dtype=np.int64)
    total_order = p ** m

    def span(lo, hi):
        idx = np.arange(lo, hi, dtype=np.int64)
        C = (idx[:, None] // pows) % p
        csq = _mul(C, C, red, p)
        u = (csq @ mul_gam + C @ mul_a + b_over_g) % p
        w = (C @ frob_q - C) % p
        live = u.any(axis=1) & w.any(axis=1)
        nu = _norm_chain((-u) % p, k, frob_q, red, p)
        nw = _norm_chain(w, k, frob_q, red, p)
        return int(((nu == nw).all(axis=1) & live).sum())

    chunk = 1 << 16
    ranges = [(lo, min(lo + chunk, total_order))
              for lo in range(0, total_order, chunk)]
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            hits = sum(pool.map(lambda r: span(*r), ranges))
    else:
        hits = sum(span(*r) for r in ranges)
    return (q - 1) * hits
