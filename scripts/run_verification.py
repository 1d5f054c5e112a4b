#!/usr/bin/env python3
"""Reproduce the headline numbers for every q in one run.

For each field size this prints the modulus used, rational place count,
genus by closed form and by ramification bookkeeping, the L-polynomial
where the zeta pipeline applies (q <= places.ZETA_Q_CAP), and the automorphism group
order with its orbit sizes.  Exits nonzero if any recomputed value
disagrees with its expected counterpart.
"""

import argparse
import sys
import time

from cycloff import (
    CycModel,
    KummerCurve,
    count_degree_one,
    create_field,
    format_poly,
    genus_formula,
    group_report,
    rh_check,
    verify_prop31,
    zeta,
)
from cycloff.carlitz import Modulus
from cycloff.places import ZETA_Q_CAP

QSPECS = {3: (3, 1), 4: (2, 2), 5: (5, 1), 7: (7, 1), 8: (2, 3), 9: (3, 2)}


def standard_modulus(q, ctx):
    if q == 4:
        return Modulus(ctx.one, ctx.t_class)
    if q == 8:
        return Modulus(ctx.one, ctx.one)
    if q == 9:
        return Modulus(ctx.zero, ctx.generator)
    if q == 5:
        return Modulus(ctx.zero, ctx.elem(2))
    return Modulus(ctx.zero, ctx.one)


def run(qs):
    failures = 0
    for q in qs:
        t0 = time.monotonic()
        ctx = create_field(*QSPECS[q])
        mod = standard_modulus(q, ctx)
        gamma = ctx.elem(2) if q == 3 else ctx.one
        curve = KummerCurve(mod.a, mod.b, gamma)
        model = CycModel(mod)

        print(f"== q = {q}, modulus {format_poly(mod.as_poly(), 'T')}, "
              f"gamma = {gamma}")

        cert = verify_prop31(q, mod.a, mod.b, gamma)
        n1 = count_degree_one(curve, 1)
        g = genus_formula(q)
        rc = rh_check(q)
        line = (f"   certificate {'ok' if cert.ok else 'FAIL'} | "
                f"N_1 = {n1} (want {q + 1}) | genus {g} "
                f"(ramification route {rc.genus})")
        bad = not cert.ok or n1 != q + 1 or not rc.ok or rc.genus != g
        print(line)

        if q <= ZETA_Q_CAP:
            zd = zeta(curve)
            print(f"   L = {list(zd.coeffs)} | zeta genus {zd.genus}")
            bad = bad or zd.genus != g

        rep = group_report(curve, model)
        expected = 6 * (q * q - 1) if q == 3 else 2 * (q * q - 1)
        print(f"   aut order {rep['order']} (want {expected}) | "
              f"orbit sizes {rep['orbit_sizes']}")
        bad = bad or rep["order"] != expected
        if q == 3:
            pgl = rep["q3_pgl23"]
            print(f"   central quotient acts as S_4: {pgl}")
            bad = bad or pgl is not True

        print(f"   [{time.monotonic() - t0:.1f}s]"
              + ("  ** MISMATCH **" if bad else ""))
        failures += bad
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, action="append",
                    help="restrict to one or more field sizes")
    args = ap.parse_args()
    qs = args.q or sorted(QSPECS)
    bad = run(qs)
    if bad:
        print(f"{bad} field size(s) FAILED")
        return 1
    print("all field sizes verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
