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

from cycloff import gf, places, polyalg
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
    # a guard by counts, not timings, on the first 20 draws of each q: no
    # draw lifts a series or takes a Taylor shift, since a tied point is
    # settled from its leading terms and the norm; a one-term element has
    # no tied point, a rational point where no coordinate has a zero or a
    # pole peels no (v - a), and a one-term element whose numerator and
    # denominator lie wholly on the ramified locus splits nothing and takes
    # no gcd with h.num * h.den
    draws = load_draws()
    curves = draws.standard_curves()
    keys = [f"{q}:{i}" for q in draws.POOL for i in range(20)]
    real_series = places._generic_valuation
    real_shift = places._taylor_shift
    real_tied = places._tied_fiber
    real_peel = places._exp_peel
    real_split = places._closed_points
    real_gcd = polyalg.poly_gcd
    series, shifts, tied, peeled, split, gcds = [], [], [], set(), [], []

    def counted_series(curve, coords, c, ys):
        series.append(c)
        return real_series(curve, coords, c, ys)

    def counted_shift(f, K, c):
        shifts.append(c)
        return real_shift(f, K, c)

    def counted_tied(fiber, s0, terms, vn):
        settled, left = real_tied(fiber, s0, terms, vn)
        tied.append((fiber, s0, dict(settled), list(left)))
        return settled, left

    def counted_peel(a, b, ctx):
        # b = v - c on exponent lists for a rational point c, or M
        if len(b) == 2:
            peeled.add(-polyalg._from_exps(ctx, b).coeff(0))
        return real_peel(a, b, ctx)

    def counted_split(curve, f):
        split.append(f)
        return real_split(curve, f)

    def counted_gcd(f, g):
        gcds.append((f, g))
        return real_gcd(f, g)

    monkeypatch.setattr(places, "_generic_valuation", counted_series)
    monkeypatch.setattr(places, "_taylor_shift", counted_shift)
    monkeypatch.setattr(places, "_tied_fiber", counted_tied)
    monkeypatch.setattr(places, "_exp_peel", counted_peel)
    monkeypatch.setattr(places, "_closed_points", counted_split)
    monkeypatch.setattr(places, "poly_gcd", counted_gcd)
    monkeypatch.setattr(polyalg, "poly_gcd", counted_gcd)
    one_term_generic = skipped = on_locus = 0
    settled = Counter()
    for key, e in draws.elements(curves, keys):
        ctx, h = e.alg.ctx, e.alg.h
        hnd = h.num * h.den
        filled = [r for r in e.coords if r]
        tied.clear()
        peeled.clear()
        split.clear()
        gcds.clear()
        try:
            dv = divisor(e)
        except GenericPlaceUnsupported:
            dv = None
        assert series == [] and shifts == [], key
        if len(filled) == 1:
            assert tied == [], key
            one_term_generic += dv is not None and any(
                isinstance(P, Generic) for P in dv.support)
            # f divides a power of hnd exactly when every root of f is one
            # of hnd's
            r = filled[0]
            if all((hnd ** f.degree) % f == 0 for f in (r.num, r.den)):
                assert split == [] and all(hnd not in fg for fg in gcds), key
                on_locus += 1
        for fiber, s0, out, left in tied:
            # every place over c is settled at s0 by a nonzero leading sum,
            # or above it by the norm
            assert left == [] and set(out) == set(fiber), key
            assert min(out.values()) == s0 == min(
                r.valuation(fiber[0].c) for r in filled), key
            settled[max(out.values()) > s0] += 1
        special = {a for a in ctx.iter_elements()
                   if any(not r.num(a) or not r.den(a) for r in filled)}
        assert peeled == special, key
        skipped += ctx.order - len(special)
    assert one_term_generic >= 5 and skipped >= 400 and on_locus >= 77
    assert sum(settled.values()) >= 10 and settled[True] >= 1


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


def test_divisor_pool_takes_no_log(monkeypatch):
    # a guard by counts over the whole pool: fiber roots come from
    # FieldCtx.nth_roots, which needs neither a discrete log nor, past
    # gf.TABLE_CAP, a generator of the field
    draws = load_draws()
    curves = draws.standard_curves()
    logs, searches = [], []
    real_dlog, real_generator = gf.FieldCtx.dlog, gf.FieldCtx.generator

    def counted_dlog(ctx, w):
        logs.append(ctx)
        return real_dlog(ctx, w)

    def counted_generator(ctx):
        if ctx.order > gf.TABLE_CAP:
            searches.append(ctx)
        return real_generator.fget(ctx)

    monkeypatch.setattr(gf.FieldCtx, "dlog", counted_dlog)
    monkeypatch.setattr(gf.FieldCtx, "generator", property(counted_generator))
    keys = [f"{q}:{i}" for q, size in draws.POOL.items() for i in range(size)]
    fibers = 0
    for key, e in draws.elements(curves, keys):
        try:
            dv = divisor(e)
        except (GenericPlaceUnsupported, TooLarge):
            continue
        fibers += any(isinstance(P, Generic) and P.ys.ctx.order > gf.TABLE_CAP
                      for P in dv.support)
    assert logs == [] and searches == []
    assert fibers >= 5
