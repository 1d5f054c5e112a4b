"""Command line front end emitting deterministic JSON reports.

Key order in every payload is fixed by construction, so identical
configurations give byte-identical output.  Exit codes: ``verify``
returns 0 only when every entry of the ``paper_claims`` block is true
and 1 otherwise; any library error, or a failed ``--out`` write (made
before stdout), prints ``{"error": {"code", "message"}}`` and exits 2.
Every pipeline is deterministic.
"""

import argparse
import functools
import json
import sys

from . import gf
from .autgroup import group_report
from .carlitz import CycModel, Modulus
from .errors import (CycloffError, OutputFailed, ParseError, TooLarge,
                     WrongQ, ZeroElement)
from .kummer import KummerCurve, elimination_certificate
from .places import (
    PIPELINE_Q_CAP,
    ZETA_Q_CAP,
    Divisor,
    RamInfinity,
    RamQuadratic,
    count_degree_one,
    genus_formula,
    genus_rh,
    lspace_check,
    ramified_places,
    zeta,
)
from .polyalg import Poly, format_poly, parse_poly
from .record import Record, set_field


class RunConfig(Record):
    __slots__ = ("command", "q", "modulus", "gamma", "k", "out", "which")

    def __init__(self, command, q, modulus, gamma=None, k=1, out=None,
                 which=None):
        set_field(self, "command", command)
        set_field(self, "q", q)
        set_field(self, "modulus", modulus)
        set_field(self, "gamma", gamma)
        set_field(self, "k", k)
        set_field(self, "out", out)
        set_field(self, "which", which)


def _parse_modulus(ctx, literal):
    f = parse_poly(ctx, literal)
    if f.degree != 2 or f.coeff(2) != 1:
        raise ParseError(f"modulus {gf._quote(literal)} is not a monic "
                         "quadratic in T")
    return Modulus(f.coeff(1), f.coeff(0))


def _pick_gamma(cfg, ctx, mod):
    if cfg.gamma is not None:
        g = gf.parse_element(ctx, cfg.gamma)
        if g.is_zero():
            raise ZeroElement("gamma must be a nonzero scalar")
        return g
    # every gamma model of the q=3 curve carries the order-48 group; group
    # pipelines at q=3, T^2+1 still default to gamma = 2 only so that the
    # recorded report perfbench/golden/verify_q3.json stays byte-identical
    wants_group = cfg.command == "aut" or (
        cfg.command == "verify" and cfg.which in ("aut", "all"))
    if wants_group and ctx.order == 3 and mod.a.is_zero() and mod.b == ctx.one:
        return ctx.elem(2)
    return ctx.one


class _Run:
    """One configuration, resolved on first use.

    The modulus and gamma, the curve, the torsion model and the
    Riemann-Hurwitz genus are each computed once and shared by every
    section of a ``verify`` run.  Nothing is resolved up front, so
    ``zeta`` still reports its own cap before any modulus error.
    """

    def __init__(self, cfg):
        self.cfg = cfg

    @functools.cached_property
    def resolved(self):
        cfg = self.cfg
        if cfg.q > PIPELINE_Q_CAP:
            raise TooLarge(f"pipelines are capped at q <= {PIPELINE_Q_CAP}")
        if cfg.q < 3:
            raise WrongQ(f"the covers need q >= 3, got q={cfg.q}")
        ctx = gf.field_from_order(cfg.q)
        mod = _parse_modulus(ctx, cfg.modulus)
        return mod, _pick_gamma(cfg, ctx, mod)

    @functools.cached_property
    def curve(self):
        mod, gamma = self.resolved
        return KummerCurve(mod.a, mod.b, gamma)

    @functools.cached_property
    def model(self):
        return CycModel(self.resolved[0])

    @functools.cached_property
    def genus_rh(self):
        return genus_rh(self.curve)


def _minpoly_str(model):
    parts = []
    for i in range(model.n, -1, -1):
        c = model.minpoly[i]
        if c.is_zero():
            continue
        cs = format_poly(c, var="x")
        if i == 0:
            parts.append(cs)
            continue
        ystr = "y" if i == 1 else f"y^{i}"
        parts.append(ystr if cs == "1" else f"({cs})*{ystr}")
    return "+".join(parts)


def _model_header(run):
    mod, gamma = run.resolved
    return {
        "q": run.cfg.q,
        "modulus": format_poly(mod.as_poly(), "T"),
        "gamma": gf.format_element(gamma),
    }


def cmd_construct(run):
    model, curve = run.model, run.curve
    cert = elimination_certificate(model, curve.gamma)
    report = _model_header(run)
    report.update({
        "carlitz_operator": str(model.carlitz_m),
        "torsion_minpoly": _minpoly_str(model),
        "kummer_model": (
            f"y^{curve.q - 1} = ({format_poly(curve.h.num, 'v')})"
            f"/({format_poly(curve.h.den, 'v')})"),
        "elimination_ok": cert.ok,
    })
    return report, {"elimination_certificate": cert.ok}


def cmd_genus(run):
    report = _model_header(run)
    g_rh, g_form = run.genus_rh, genus_formula(run.cfg.q)
    report.update({
        "genus_formula": g_form,
        "genus_rh": g_rh,
        "rh_ok": g_rh == g_form,
    })
    return report, {"genus_formula_matches_rh": g_rh == g_form}


def cmd_count(run):
    cfg, curve = run.cfg, run.curve
    if cfg.k < 1:
        raise ParseError(f"-k must be a positive degree, not {cfg.k}")
    counts = [count_degree_one(curve, j) for j in range(1, cfg.k + 1)]
    report = _model_header(run)
    report["N"] = counts
    return report, {"rational_places_q_plus_1": counts[0] == cfg.q + 1}


def cmd_zeta(run):
    cfg = run.cfg
    if cfg.q > ZETA_Q_CAP:
        raise TooLarge(f"the zeta pipeline is capped at q <= {ZETA_Q_CAP}, "
                       f"where its reports are recorded; got q={cfg.q}")
    counts, coeffs = zeta(run.curve)
    g_rh, g_zeta, g_form = run.genus_rh, len(coeffs) // 2, genus_formula(cfg.q)
    report = _model_header(run)
    report.update({
        "N": list(counts),
        "L": list(coeffs),
        "genus_zeta": g_zeta,
        "genus_formula": g_form,
        "rh_ok": g_rh == g_form,
    })
    claims = {
        "genus_three_ways": g_rh == g_zeta == g_form,
        "rh_ok": g_rh == g_form,
    }
    return report, claims


def cmd_aut(run):
    q = run.cfg.q
    rep = group_report(run.curve)
    # aut_order_matches compares the closure of the generators with
    # 2(q^2-1), or 48 at q = 3, where epsilon, a third generator, exists on
    # every model.  The closure is a subgroup of that order.  That it is
    # the full group is the paper's theorem at odd q; at q = 4 and 8 the
    # order is MXY2016's group over F_q.  tests/aut_oracle.py counts the
    # lawful maps v -> m(v), y -> f y over GF(q^2) by enumeration, a second
    # route to the same number; neither step verifies the geometric group.
    expected = (6 if q == 3 else 2) * (q ** 2 - 1)
    claims = {"aut_order_matches": rep["order"] == expected}
    if q == 3:
        claims["aut_quotient_pgl23"] = rep["q3_pgl23"] is True
    return rep, claims


def cmd_lspaces(run):
    q, curve = run.cfg.q, run.curve
    pinf = RamInfinity(q)
    qb, qg = [p for p in ramified_places(curve)
              if isinstance(p, RamQuadratic)]
    one_el = curve.one()
    v_el = curve.scalar(Poly.gen(curve.ctx))
    y_inv = curve.y().inverse()
    v_over_y = v_el * y_inv

    base = lspace_check([one_el, v_el], Divisor({pinf: q - 1}))
    mixed = lspace_check([y_inv], Divisor({pinf: q - 2, qb: 1, qg: 1}))
    top = lspace_check([v_over_y], Divisor({pinf: 2 * q - 3, qb: 1, qg: 1}))
    plain = lspace_check([y_inv], Divisor({pinf: 2 * q - 3}))

    checks = {
        "one_v_independent_in_base_space": base.ok,
        "inv_y_in_mixed_space": all(mixed.members),
        "v_over_y_in_top_space": all(top.members),
        "v_over_y_pole_attained":
            top.divisors[0].coeff(pinf) == -(2 * q - 3),
        "inv_y_outside_plain_space": not plain.members[0],
    }
    report = _model_header(run)
    report.update(checks)
    return report, {"lspace_memberships": all(checks.values())}


_SECTIONS = (
    ("construct", cmd_construct),
    ("genus", cmd_genus),
    ("count", cmd_count),
    ("zeta", cmd_zeta),
    ("aut", cmd_aut),
    ("lspaces", cmd_lspaces),
)
_COMMANDS = dict(_SECTIONS)
VERIFY_TARGETS = (*_COMMANDS, "all")


def cmd_verify(run):
    cfg = run.cfg
    report = _model_header(run)
    if cfg.which == "all":
        targets = [name for name, _ in _SECTIONS
                   if name != "zeta" or cfg.q <= ZETA_Q_CAP]
    else:
        targets = [cfg.which]
    reports = {}
    claims = {}
    for name, fn in _SECTIONS:
        if name not in targets:
            continue
        section, section_claims = fn(run)
        reports[name] = section
        claims.update(section_claims)
    if "aut" in reports:
        report["aut_order"] = reports["aut"]["order"]
        if reports["aut"]["q3_pgl23"] is True:
            report["quotient"] = "PGL(2,3)"
    report["reports"] = reports
    report["paper_claims"] = claims
    return report, all(claims.values())


def build_config(argv):
    parser = argparse.ArgumentParser(
        prog="cycloff",
        description="Exact verification pipelines for torsion function "
                    "fields with a quadratic modulus.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in (*_COMMANDS, "verify"):
        sp = sub.add_parser(name)
        sp.add_argument("-q", type=int, required=True,
                        help="field size, a prime power with 3 <= q <= 9")
        sp.add_argument("-M", required=True, dest="modulus",
                        help='modulus literal, e.g. "T^2+1"')
        sp.add_argument("--gamma", default=None,
                        help="twist scalar literal; defaults per pipeline")
        if name in ("count", "verify"):
            sp.add_argument("-k", type=int, default=1,
                            help="largest constant-field extension degree")
        sp.add_argument("--out", default=None,
                        help="also write the JSON payload to this path")
        if name == "verify":
            sp.add_argument("which", choices=VERIFY_TARGETS)
    ns = parser.parse_args(argv)
    return RunConfig(command=ns.command, q=ns.q, modulus=ns.modulus,
                     gamma=ns.gamma, k=getattr(ns, "k", 1), out=ns.out,
                     which=getattr(ns, "which", None))


def main(argv=None):
    cfg = build_config(argv)
    run = _Run(cfg)
    try:
        if cfg.command == "verify":
            report, ok = cmd_verify(run)
            code = 0 if ok else 1
        else:
            report, _ = _COMMANDS[cfg.command](run)
            code = 0
    except CycloffError as exc:
        report, code = _error(exc), 2
    try:
        if cfg.out:
            with open(cfg.out, "w", encoding="utf-8") as fh:
                fh.write(json.dumps(report, indent=2) + "\n")
    except OSError as exc:
        report, code = _error(OutputFailed(
            f"cannot write --out {cfg.out!r}: {exc.strerror or exc}")), 2
    sys.stdout.write(json.dumps(report, indent=2) + "\n")
    return code


def _error(exc):
    return {"error": {"code": type(exc).__name__, "message": str(exc)}}


if __name__ == "__main__":
    sys.exit(main())
