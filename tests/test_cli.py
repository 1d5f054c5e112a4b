"""End-to-end checks of the command line front end and its JSON contract."""

import functools
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cycloff import autgroup, carlitz, cli, gf, places
from cycloff.carlitz import iter_irreducible_moduli
from cycloff.kummer import KummerCurve

ROOT = Path(__file__).resolve().parents[1]
# read only: the benchmark's reference reports, one per sweep modulus
GOLDEN = ROOT / "perfbench" / "golden"


def _run(argv, capsys):
    code = cli.main(argv)
    return code, capsys.readouterr().out


def _run_json(argv, capsys):
    code, out = _run(argv, capsys)
    return code, json.loads(out)


def test_build_config_defaults():
    cfg = cli.build_config(["construct", "-q", "3", "-M", "T^2+1"])
    assert cfg == cli.RunConfig(command="construct", q=3, modulus="T^2+1")


def test_construct_q3(capsys):
    code, doc = _run_json(["construct", "-q", "3", "-M", "T^2+1"], capsys)
    assert code == 0
    assert doc == {
        "q": 3,
        "modulus": "T^2+1",
        "gamma": "1",
        "carlitz_operator": "z^9+(x^3+x)*z^3+(x^2+1)*z",
        "torsion_minpoly": "y^8+(x^3+x)*y^2+x^2+1",
        "kummer_model": "y^2 = (2*v^2+2)/(v^3+2*v)",
        "elimination_ok": True,
    }


def test_construct_accepts_an_irreducible_q5_modulus(capsys):
    # -2 = 3 is a non-square mod 5, so T^2+2 has no rational root
    code, doc = _run_json(["construct", "-q", "5", "-M", "T^2+2"], capsys)
    assert code == 0 and doc["elimination_ok"] is True


def test_construct_rejects_a_reducible_modulus(capsys):
    # -4 = 1 is a square mod 5
    code, doc = _run_json(["construct", "-q", "5", "-M", "T^2+4"], capsys)
    assert code == 2
    assert doc["error"]["code"] == "ReducibleModulus"


@pytest.mark.parametrize("literal", ["T^3+1", "T^2+$", "2*T^2+1", "T+1"])
def test_modulus_literal_rejected(literal, capsys):
    code, doc = _run_json(["construct", "-q", "3", "-M", literal], capsys)
    assert code == 2
    assert doc["error"]["code"] == "ParseError"


def test_field_size_guards(capsys):
    code, doc = _run_json(["construct", "-q", "6", "-M", "T^2+1"], capsys)
    assert code == 2 and doc["error"]["code"] == "NotPrime"
    code, doc = _run_json(["construct", "-q", "11", "-M", "T^2+1"], capsys)
    assert code == 2 and doc["error"]["code"] == "TooLarge"


@pytest.mark.parametrize("argv", [
    ["construct"], ["genus"], ["count"], ["zeta"], ["aut"], ["lspaces"],
    ["verify", "all"]], ids=lambda argv: argv[0])
def test_q2_is_refused_with_a_typed_error(argv, capsys):
    # T^2+T+1 is irreducible over GF(2), but the cover y^(q-1) = h(v)
    # degenerates there
    code, doc = _run_json(argv[:1] + ["-q", "2", "-M", "T^2+T+1"] + argv[1:],
                          capsys)
    assert code == 2
    assert doc["error"]["code"] == "WrongQ"


def test_gamma_flag_guards(capsys):
    code, doc = _run_json(["construct", "-q", "3", "-M", "T^2+1",
                           "--gamma", "0"], capsys)
    assert code == 2 and doc["error"]["code"] == "ZeroElement"
    code, doc = _run_json(["construct", "-q", "3", "-M", "T^2+1",
                           "--gamma", "z"], capsys)
    assert code == 2 and doc["error"]["code"] == "ParseError"


def test_verify_all_q3(capsys):
    code, doc = _run_json(["verify", "-q", "3", "-M", "T^2+1", "all"],
                          capsys)
    assert code == 0
    assert doc["gamma"] == "2"  # group pipeline picks the twisted model
    assert doc["aut_order"] == 48
    assert doc["quotient"] == "PGL(2,3)"
    assert doc["reports"]["zeta"]["N"] == [4, 6]
    assert doc["reports"]["zeta"]["L"] == [1, 0, -2, 0, 9]
    assert set(doc["paper_claims"]) == {
        "elimination_certificate",
        "genus_formula_matches_rh",
        "rational_places_q_plus_1",
        "genus_three_ways",
        "rh_ok",
        "aut_order_matches",
        "aut_quotient_pgl23",
        "lspace_memberships",
    }
    assert all(doc["paper_claims"].values())


def test_verify_all_builds_one_curve_and_one_model(monkeypatch, capsys):
    calls = []
    for name in ("KummerCurve", "CycModel"):
        owner = getattr(cli, name)

        def counted(self, *args, _real=owner.__init__, _name=name):
            calls.append(_name)
            _real(self, *args)
        monkeypatch.setattr(owner, "__init__", counted)
    real_parse = cli._parse_modulus

    def parse(*args):
        calls.append("resolve")
        return real_parse(*args)
    monkeypatch.setattr(cli, "_parse_modulus", parse)
    code, _ = _run(["verify", "-q", "3", "-M", "T^2+1", "all"], capsys)
    assert code == 0
    assert sorted(calls) == ["CycModel", "KummerCurve", "resolve"]


def test_verify_all_builds_one_unit_log_table_per_modulus(monkeypatch,
                                                          capsys):
    # make_rho (aut) and the L-polynomial (zeta) both read GF(q)[T]/(M)
    # from the one unit-log table; a fresh cache counts its builds and reads
    built, reads, build = [], [], carlitz._unit_logs.__wrapped__

    @functools.lru_cache(maxsize=None)
    def fresh(mod):
        built.append(mod)
        return build(mod)

    def read(mod):
        reads.append(mod)
        return fresh(mod)
    monkeypatch.setattr(carlitz, "_unit_logs", read)
    monkeypatch.setattr(places, "_unit_logs", read)
    for modulus in ("T^2+2", "T^2+3"):
        code, _ = _run(["verify", "-q", "5", "-M", modulus, "all"], capsys)
        assert code == 0
    assert [str(m) for m in built] == ["T^2+2", "T^2+3"]
    assert len(reads) > len(built)


GOLDEN_RUNS = [(3, "T^2+1"), (4, "T^2+T+g"), (5, "T^2+2"), (7, "T^2+1"),
               (8, "T^2+T+1"), (9, "T^2+g+1")]


@pytest.mark.parametrize("q,modulus", GOLDEN_RUNS)
def test_verify_all_matches_the_golden_report(q, modulus, capsys):
    code, out = _run(["verify", "-q", str(q), "-M", modulus, "all"], capsys)
    assert code == 0
    assert out.encode("utf-8") == (GOLDEN / f"verify_q{q}.json").read_bytes()


def test_run_verification_script_drives_the_golden_runs():
    # the script's modulus table is the golden one, and every run passes
    path = ROOT / "scripts" / "run_verification.py"
    spec = importlib.util.spec_from_file_location("run_verification", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    assert list(script.MODULI) == GOLDEN_RUNS
    paths = [str(ROOT / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))
    done = subprocess.run([sys.executable, str(path)], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.count("== q = ") == len(GOLDEN_RUNS)
    assert done.stdout.endswith("all field sizes verified\n")


def test_verify_zeta_capped(capsys):
    code, doc = _run_json(["verify", "-q", "7", "-M", "T^2+1", "zeta"],
                          capsys)
    assert code == 2
    assert doc["error"]["code"] == "TooLarge"


def _load_oracle(name):
    path = Path(__file__).resolve().parent / f"{name}.py"
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_verify_all_past_the_caps(monkeypatch, capsys):
    # the first modulus of fields no golden reaches: characteristics 11 and
    # 13, GF(2^4), GF(5^2) and GF(3^3), each splitting M by the log-table
    # scan in GF(q^2) of order 121 to 729.  zeta runs at q = 11, 13 and 16
    # only: past them it alone takes seconds, as its cost grows about as
    # q^5 (0.02 s at q = 9, 1.25 s at q = 23 and 8.0 s at q = 31, 96 % of
    # it l_polynomial's cyclic convolutions).  GF(37^2) is past the log
    # tables, so q = 37 is refused.  The test takes about 1.5 s, half of it
    # the enumeration oracle at q = 16
    oracle = _load_oracle("aut_oracle")
    for q in (11, 13, 16, 25, 27, 37):
        for owner in (places, cli):
            monkeypatch.setattr(owner, "PIPELINE_Q_CAP", 37)
            monkeypatch.setattr(owner, "ZETA_Q_CAP",
                                q if q in (11, 13, 16) else 5)
        ctx = gf.field_from_order(q)
        mod = next(iter_irreducible_moduli(ctx))
        code, doc = _run_json(["verify", "-q", str(q), "-M", str(mod),
                               "all"], capsys)
        if q == 37:
            assert code == 2 and doc["error"]["code"] == "TooLarge"
            continue
        assert code == 0 and all(doc["paper_claims"].values())
        assert ("zeta" in doc["reports"]) == (q in (11, 13, 16))
        assert doc["aut_order"] == 2 * (q * q - 1)
        if q in (11, 16):
            curve = KummerCurve(mod.a, mod.b, ctx.one)
            assert oracle.lawful_map_count(curve) == doc["aut_order"]


def test_verify_genus_q5(capsys):
    code, doc = _run_json(["verify", "-q", "5", "-M", "T^2+T+1", "genus"],
                          capsys)
    assert code == 0
    sec = doc["reports"]["genus"]
    assert sec["genus_formula"] == sec["genus_rh"] == 9
    assert doc["paper_claims"] == {"genus_formula_matches_rh": True}


def test_verify_aut_q5(capsys):
    code, doc = _run_json(["verify", "-q", "5", "-M", "T^2+2", "aut"],
                          capsys)
    assert code == 0
    assert doc["aut_order"] == 48 == 2 * (5 ** 2 - 1)
    assert "quotient" not in doc
    assert doc["reports"]["aut"]["q3_pgl23"] is None


def test_verify_aut_q3_untwisted_model(capsys):
    # gamma = 1 pins the plain model; it is isomorphic to the gamma = 2
    # model, and make_epsilon carries epsilon to it, so the closure reaches
    # the order-48 group there too
    code, doc = _run_json(["verify", "-q", "3", "-M", "T^2+1",
                           "--gamma", "1", "aut"], capsys)
    assert code == 0
    assert doc["aut_order"] == 48 == 6 * (3 ** 2 - 1)
    assert doc["quotient"] == "PGL(2,3)"
    assert doc["paper_claims"] == {"aut_order_matches": True,
                                   "aut_quotient_pgl23": True}


def test_verify_accepts_every_section_that_all_runs(capsys):
    # the verify targets are the sections themselves, construct included
    assert cli.VERIFY_TARGETS == (*(name for name, _ in cli._SECTIONS),
                                  "all")
    code, doc = _run_json(["verify", "-q", "3", "-M", "T^2+1", "construct"],
                          capsys)
    assert code == 0
    assert doc["paper_claims"] == {"elimination_certificate": True}
    assert list(doc["reports"]) == ["construct"]


def test_aut_builds_no_torsion_model(monkeypatch, capsys):
    # rho is read off the curve's modulus and gamma alone
    def refuse(self, *args):
        raise AssertionError("aut built a CycModel")
    monkeypatch.setattr(cli.CycModel, "__init__", refuse)
    code, doc = _run_json(["aut", "-q", "5", "-M", "T^2+2"], capsys)
    assert code == 0 and doc["order"] == 48


def test_a_law_failure_of_epsilon_is_a_typed_error(monkeypatch, capsys):
    # the law check must fail the run, not drop epsilon as if the model
    # carried none and then report the smaller group
    real = autgroup.make_epsilon

    def epsilon_with_a_failing_law(curve):
        monkeypatch.setattr(autgroup, "_law_scalar", lambda *args: None)
        return real(curve)
    monkeypatch.setattr(autgroup, "make_epsilon", epsilon_with_a_failing_law)
    code, doc = _run_json(["verify", "-q", "3", "-M", "T^2+1", "aut"],
                          capsys)
    assert code == 2
    assert doc["error"]["code"] == "CertificateFailed"
    assert "map violates" in doc["error"]["message"]


def test_aut_schema_is_the_module_report(capsys):
    code, doc = _run_json(["aut", "-q", "3", "-M", "T^2+1"], capsys)
    assert code == 0
    assert set(doc) == {"generators", "order", "orbit_sizes",
                        "stabilizer_orders", "q3_pgl23"}
    assert doc["order"] == 48  # auto-twist applies to the standalone command


def test_count_q4(capsys):
    code, doc = _run_json(["count", "-q", "4", "-M", "T^2+T+g"], capsys)
    assert code == 0
    assert doc["N"] == [5]
    code, doc = _run_json(["count", "-q", "4", "-M", "T^2+T+g",
                           "-k", "2"], capsys)
    assert code == 0
    assert len(doc["N"]) == 2 and doc["N"][0] == 5


def test_k_is_read_by_count_and_verify_only(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["aut", "-q", "3", "-M", "T^2+1", "-k", "2"])
    assert exc.value.code == 2
    capsys.readouterr()
    code, doc = _run_json(["verify", "-q", "3", "-M", "T^2+1", "-k", "2",
                           "all"], capsys)
    assert code == 0
    assert len(doc["reports"]["count"]["N"]) == 2


def test_lspaces_q5(capsys):
    code, doc = _run_json(["verify", "-q", "5", "-M", "T^2+2", "lspaces"],
                          capsys)
    assert code == 0
    sec = doc["reports"]["lspaces"]
    assert sec["one_v_independent_in_base_space"] is True
    assert sec["inv_y_in_mixed_space"] is True
    assert sec["v_over_y_in_top_space"] is True
    assert sec["v_over_y_pole_attained"] is True
    assert sec["inv_y_outside_plain_space"] is True


def test_output_is_byte_deterministic(capsys):
    _, first = _run(["construct", "-q", "3", "-M", "T^2+1"], capsys)
    _, second = _run(["construct", "-q", "3", "-M", "T^2+1"], capsys)
    assert first == second
    _, first = _run(["verify", "-q", "5", "-M", "T^2+T+1", "genus"], capsys)
    _, second = _run(["verify", "-q", "5", "-M", "T^2+T+1", "genus"], capsys)
    assert first == second


def test_out_flag_writes_the_same_bytes(tmp_path, capsys):
    target = tmp_path / "report.json"
    _, out = _run(["genus", "-q", "5", "-M", "T^2+2",
                   "--out", str(target)], capsys)
    assert target.read_text(encoding="utf-8") == out


@pytest.mark.parametrize("argv,code", [
    (["-M", "T^2+1", "--out", "{missing}/report.json"], "OutputFailed"),
    (["-M", "1" * 5000 + "*T^2+1"], "ParseError"),
    (["-M", "T^2+1", "--gamma", "1" * 5000], "ParseError"),
    (["-M", "T^2000000+1"], "ParseError"),
    (["-M", "T^\u00b2+1"], "ParseError"),
    (["-M", "(" + "1" * 5000 + ")*T^2+1"], "ParseError"),
    (["-M", "T^2+(" + "1" * 5000], "ParseError"),
    (["-M", "T^2+" + "1+" * 2500 + "+1"], "ParseError"),
    (["-M", "T^3" + "+1" * 2500], "ParseError"),
], ids=["out-in-missing-dir", "long-coefficient", "long-gamma",
        "huge-degree", "superscript-exponent", "long-parenthesised",
        "long-unbalanced", "long-malformed", "long-not-quadratic"])
def test_bad_inputs_exit_two_with_one_error_document(argv, code, tmp_path,
                                                      capsys):
    # a failed --out write prints the error in place of the report, and a
    # digit run past Python's int-string limit or a degree past
    # gf.ORDER_CAP is refused by the parser, with no traceback; a parse
    # error names the bad part once, cut to gf.ECHO_WIDTH characters
    argv = [a.format(missing=tmp_path / "missing") for a in argv]
    exit_code = cli.main(["verify", "-q", "3", *argv, "genus"])
    out, err = capsys.readouterr()
    assert (exit_code, err) == (2, "")
    doc = json.loads(out)
    assert list(doc) == ["error"] and doc["error"]["code"] == code
    assert code != "ParseError" or len(out.encode()) < 300
    assert not (tmp_path / "missing").exists()


@pytest.mark.parametrize("k", ["0", "-2"])
def test_count_rejects_a_nonpositive_degree(k, capsys):
    code, doc = _run_json(["count", "-q", "3", "-M", "T^2+1", "-k", k],
                          capsys)
    assert code == 2
    assert doc["error"]["code"] == "ParseError"


def test_zeta_and_counts_do_not_import_numpy():
    # a fresh interpreter, so no other test has imported numpy first
    script = (
        "import io, sys, contextlib\n"
        "from cycloff import cli, gf\n"
        "from cycloff.kummer import KummerCurve\n"
        "from cycloff.places import count_degree_one\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        "    assert cli.main(['zeta', '-q', '5', '-M', 'T^2+2']) == 0\n"
        "F = gf.create_field(3)\n"
        "assert count_degree_one(KummerCurve(F.zero, F.one, F.one), 12) "
        "== 530126\n"
        "assert 'numpy' not in sys.modules\n")
    src = Path(__file__).resolve().parents[1] / "src"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr


def test_failed_claim_exits_one(monkeypatch, capsys):
    # a deliberately wrong closed form must flip the exit code, not crash
    monkeypatch.setattr(cli, "genus_formula", lambda q: -1)
    code, doc = _run_json(["verify", "-q", "5", "-M", "T^2+2", "genus"],
                          capsys)
    assert code == 1
    assert doc["paper_claims"] == {"genus_formula_matches_rh": False}
