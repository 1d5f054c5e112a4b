#!/usr/bin/env python3
"""Record the outputs the benchmark checks against, from the current source.

    python3 perfbench/record_goldens.py

Writes ``perfbench/golden/verify_q{3,4,5,7,8,9}.json`` (the exact bytes of
``cycloff verify -q Q -M M all``) and ``perfbench/golden/divisors.json``
(for each pool draw, the first 16 hex digits of the SHA-256 of its divisor
string, or ``!`` and the error name when the draw is refused).  Run it only
when a change is meant to alter these outputs, and say so in the change.
"""

import json
import os
import sys
import tempfile

from run import GOLDEN, RESULTS, SWEEP, ZETA, spawn


def main():
    os.makedirs(GOLDEN, exist_ok=True)
    os.makedirs(RESULTS, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=RESULTS) as work:
        for q, modulus in sorted({**SWEEP, **ZETA}.items()):
            out = os.path.join(work, f"q{q}.out")
            _, code, _ = spawn(["cli", f"q{q}", "-", "--", "verify", "-q",
                                str(q), "-M", modulus, "all"], out)
            if code != 0:
                sys.exit(f"verify -q {q} exited {code}")
            os.replace(out, os.path.join(GOLDEN, f"verify_q{q}.json"))
        out = os.path.join(work, "divisors.json")
        _, code, _ = spawn(["divisors", "0", out, "-"], out + ".log")
        if code != 0:
            sys.exit(f"divisor session exited {code}")
        with open(out, encoding="utf-8") as fh:
            jobs = json.load(fh)["jobs"]
    for key, _, digest, degree in jobs:
        if degree not in (0, None):
            sys.exit(f"draw {key} has a divisor of degree {degree}")
    recorded = {key: digest for key, _, digest, _ in
                sorted(jobs, key=lambda j: tuple(map(int, j[0].split(":"))))}
    with open(os.path.join(GOLDEN, "divisors.json"), "w",
              encoding="utf-8") as fh:
        json.dump(recorded, fh, indent=0)
        fh.write("\n")
    refused = sum(d.startswith("!") for d in recorded.values())
    print(f"recorded 6 reports and {len(recorded)} draws ({refused} refused)")


if __name__ == "__main__":
    main()
