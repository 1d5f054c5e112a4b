#!/usr/bin/env python3
"""Reproduce the headline numbers for every q in one run.

Runs ``cycloff verify -q Q -M M all`` in this process for each standard
modulus and prints a summary of its report: the modulus and twist, the
elimination certificate, N_1, the genus by closed form and by
ramification, the L-polynomial where the zeta pipeline applies, and the
automorphism group order with its orbit sizes.  Exits nonzero if any
report has an error or a false entry in ``paper_claims``.
"""

import argparse
import contextlib
import io
import json
import sys
import time

from cycloff import cli

# the moduli whose reports perfbench/golden records
MODULI = ((3, "T^2+1"), (4, "T^2+T+g"), (5, "T^2+2"), (7, "T^2+1"),
          (8, "T^2+T+1"), (9, "T^2+g+1"))


def verify(q, modulus):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", "-q", str(q), "-M", modulus, "all"])
    return code, json.loads(out.getvalue())


def summary(doc):
    reps = doc["reports"]
    genus = reps["genus"]
    cert = "ok" if reps["construct"]["elimination_ok"] else "FAIL"
    yield (f"== q = {doc['q']}, modulus {doc['modulus']}, "
           f"gamma = {doc['gamma']}")
    yield (f"   certificate {cert} | N_1 = {reps['count']['N'][0]} | "
           f"genus {genus['genus_formula']} "
           f"(ramification route {genus['genus_rh']})")
    if "zeta" in reps:
        yield (f"   L = {reps['zeta']['L']} | zeta genus "
               f"{reps['zeta']['genus_zeta']}")
    yield (f"   aut order {doc['aut_order']} | orbit sizes "
           f"{reps['aut']['orbit_sizes']}")
    if "quotient" in doc:
        yield f"   central quotient: {doc['quotient']}"


def run(qs):
    failures = 0
    for q, modulus in MODULI:
        if q not in qs:
            continue
        t0 = time.monotonic()
        code, doc = verify(q, modulus)
        if code == 2:
            print(f"== q = {q}, modulus {modulus}: {doc['error']}")
        else:
            print("\n".join(summary(doc)))
            false = [k for k, ok in doc["paper_claims"].items() if not ok]
            if false:
                print(f"   false claims: {', '.join(false)}")
        print(f"   [{time.monotonic() - t0:.2f}s]"
              + ("  ** MISMATCH **" if code else ""))
        failures += code != 0
    return failures


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--q", type=int, action="append",
                    help="restrict to one or more field sizes")
    args = ap.parse_args()
    qs = args.q or [q for q, _ in MODULI]
    bad = run(qs)
    if bad:
        print(f"{bad} field size(s) FAILED")
        return 1
    print("all field sizes verified")
    return 0


if __name__ == "__main__":
    sys.exit(main())
