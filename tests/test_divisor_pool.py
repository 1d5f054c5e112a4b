"""The benchmark's divisor pool against the hashes recorded for it.

``perfbench/draws.py`` builds the 400 draws and ``perfbench/golden/
divisors.json`` holds the SHA-256 prefix of each divisor string, or the
refusal recorded for it; both are read, never written.
"""

import importlib.util
import json
import pathlib
from collections import Counter
from hashlib import sha256

from cycloff import places, polyalg
from cycloff.errors import GenericPlaceUnsupported, TooLarge
from cycloff.places import Generic, divisor

BENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def load_draws():
    spec = importlib.util.spec_from_file_location("draws", BENCH / "draws.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_divisor_pool_reproduces_the_recorded_hashes():
    draws = load_draws()
    golden = json.loads((BENCH / "golden" / "divisors.json").read_text(
        encoding="utf-8"))
    assert len(golden) == sum(draws.POOL.values())
    curves = draws.standard_curves()
    wrong = []
    for key, e in draws.elements(curves, list(golden)):
        recorded = golden[key]
        try:
            dv = divisor(e)
        except (GenericPlaceUnsupported, TooLarge):
            # a recorded refusal may become a divisor of degree 0, but a
            # recorded divisor must not become a refusal
            if not recorded.startswith("!"):
                wrong.append((key, "refused"))
            continue
        if dv.degree != 0:
            wrong.append((key, f"degree {dv.degree}"))
        elif not recorded.startswith("!") and (
                sha256(str(dv).encode()).hexdigest()[:16] != recorded):
            wrong.append((key, "hash"))
    assert wrong == []


def test_divisor_skips_work_that_cannot_change_it(monkeypatch):
    # a guard by counts, not timings, on the first 20 draws of each q:
    # a one-term element lifts no series, a rational point where no
    # coordinate has a zero or a pole peels no (v - a), each polynomial is
    # Taylor-shifted once per tied point, and a place whose leading terms
    # do not cancel lifts its y-branch at one term only
    draws = load_draws()
    curves = draws.standard_curves()
    keys = [f"{q}:{i}" for q in draws.POOL for i in range(20)]
    real_series = places._generic_valuation
    real_shift = places._taylor_shift
    real_branch = places._y_branch
    real_mult = polyalg.root_multiplicity
    series, peeled, shifts, branches = [], set(), Counter(), []

    def counted_series(curve, coords, c, ys, point):
        branches.clear()
        v = real_series(curve, coords, c, ys, point)
        series.append((c, v, tuple(branches)))
        return v

    def counted_shift(f, K, c):
        shifts[c] += 1
        return real_shift(f, K, c)

    def counted_branch(H, y0, n, m):
        branches.append(m)
        return real_branch(H, y0, n, m)

    def counted_mult(f, c):
        peeled.add(c)
        return real_mult(f, c)

    monkeypatch.setattr(places, "_generic_valuation", counted_series)
    monkeypatch.setattr(places, "_taylor_shift", counted_shift)
    monkeypatch.setattr(places, "_y_branch", counted_branch)
    monkeypatch.setattr(polyalg, "root_multiplicity", counted_mult)
    one_term_generic = skipped = settled = 0
    tied = set()
    for key, e in draws.elements(curves, keys):
        ctx = e.alg.ctx
        filled = [r for r in e.coords if r]
        series.clear()
        peeled.clear()
        shifts.clear()
        try:
            dv = divisor(e)
        except GenericPlaceUnsupported:
            dv = None
        if len(filled) == 1:
            assert series == [], key
            one_term_generic += dv is not None and any(
                isinstance(P, Generic) for P in dv.support)
        # h.num, h.den and each filled num and den, whatever the number of
        # places and precisions; shifts are keyed by c embedded in the
        # fiber field
        points = {c for c, _, _ in series}
        assert len(shifts) == len(points), key
        assert set(shifts.values()) <= {2 + 2 * len(filled)}, key
        for c, v, ms in series:
            if v == min(r.valuation(c) for r in filled):
                assert ms == (1,), key
                settled += 1
        tied |= {(key, c) for c in points}
        special = {a for a in ctx.iter_elements()
                   if any(not r.num(a) or not r.den(a) for r in filled)}
        assert {c for c in peeled if c.ctx is ctx} == special, key
        skipped += ctx.order - len(special)
    assert one_term_generic >= 5 and skipped >= 400
    assert len(tied) >= 10 and settled >= 10


def test_each_divisor_makes_one_distinct_degree_pass(monkeypatch):
    # a guard by counts on the first 20 draws of each q: the norm numerator
    # and the coordinate denominators are split as one support polynomial,
    # so no denominator gets a pass of its own
    draws = load_draws()
    curves = draws.standard_curves()
    keys = [f"{q}:{i}" for q in draws.POOL for i in range(20)]
    real = places._distinct_degree
    passes = []

    def counted(f, top):
        passes.append(f)
        return real(f, top)

    monkeypatch.setattr(places, "_distinct_degree", counted)
    several = 0
    for key, e in draws.elements(curves, keys):
        filled = [r for r in e.coords if r]
        # a split per polynomial would pass these one at a time
        split_alone = {r.den.monic() for r in filled} | {filled[0].num.monic()}
        several += len(split_alone) > 1
        passes.clear()
        try:
            divisor(e)
        except GenericPlaceUnsupported:
            pass
        assert len(passes) <= 1, key
    assert several >= 50
