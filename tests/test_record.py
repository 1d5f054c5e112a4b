"""The value classes on ``record.Record``: no dataclasses at import, and the
behaviour the frozen dataclasses had."""

import pathlib
import subprocess
import sys

import pytest

from cycloff import cli
from cycloff.carlitz import Modulus, UnitClass
from cycloff.errors import NotAUnit, ReducibleModulus
from cycloff.gf import create_field
from cycloff.kummer import (
    EliminationCertificate,
    PowerSubstitution,
    kummer_normalize,
    roundtrip_certificate,
)
from cycloff.places import (
    Generic,
    LSpaceReport,
    RamFinite,
    RamInfinity,
    RamQuadratic,
)
from cycloff.polyalg import Poly

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"

F3 = create_field(3)
F9 = create_field(3, 2)
G, H = F9.generator, F9.generator ** 3


def test_cli_import_loads_no_dataclasses():
    # -S skips site, so nothing but the package's own imports can pull the
    # modules in; bytecode is not written next to the source
    probe = (f"import sys; sys.path.insert(0, {str(SRC)!r}); "
             "import cycloff.cli; "
             "print(sorted(m for m in ('dataclasses', 'inspect') "
             "if m in sys.modules))")
    run = subprocess.run([sys.executable, "-S", "-B", "-c", probe],
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout.strip() == "[]"


# (one instance, an equal one built separately, one differing in a field)
CASES = {
    "Modulus": (lambda: Modulus(F3.zero, F3.one),
                lambda: Modulus(F3.one, F3.elem(2))),
    "UnitClass": (lambda: UnitClass(Poly(F3, (F3.one, F3.one))),
                  lambda: UnitClass(Poly(F3, (F3.one,)))),
    "EliminationCertificate": (
        lambda: EliminationCertificate(ok=True, residual=0),
        lambda: EliminationCertificate(ok=False, residual=0)),
    "PowerSubstitution": (lambda: PowerSubstitution(r=3, s=-1),
                          lambda: PowerSubstitution(r=3, s=-1, symbol="w")),
    "RoundTrip": (lambda: roundtrip_certificate(5, 1, 1, 0, 2),
                  lambda: roundtrip_certificate(5, 2, 1, 0, 2)),
    "RamFinite": (lambda: RamFinite(F3.one), lambda: RamFinite(F3.zero)),
    "RamInfinity": (lambda: RamInfinity(3), lambda: RamInfinity(5)),
    "RamQuadratic": (lambda: RamQuadratic(G), lambda: RamQuadratic(H)),
    "Generic": (lambda: Generic(k=2, c=G, ys=H, degree=2),
                lambda: Generic(k=2, c=G, ys=H, degree=4)),
    "LSpaceReport": (lambda: LSpaceReport((True,), True, ()),
                     lambda: LSpaceReport((False,), True, ())),
    "RunConfig": (lambda: cli.RunConfig("verify", 3, "T^2+1", which="all"),
                  lambda: cli.RunConfig("verify", 3, "T^2+1", k=2,
                                        which="all")),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_equality_and_hash_per_class(name):
    make, other = CASES[name]
    a, b, c = make(), make(), other()
    assert type(a).__name__ == name
    assert a is not b and a == b and not a != b and hash(a) == hash(b)
    assert a != c and not a == c
    assert len({a, b, c}) == 2


@pytest.mark.parametrize("name", sorted(CASES))
def test_hash_is_kept_from_the_fields(name):
    # the first hash is the hash of the field values, stored once; later
    # calls return it, and equality and repr do not depend on it
    make, other = CASES[name]
    a, b = make(), make()
    text = repr(a)
    assert hash(a) == hash(type(a)._fields(a)) == a._hash
    assert hash(a) == a._hash and hash(b) == hash(a)
    assert repr(a) == text and a == b and a != other()
    assert "_hash" not in type(a).__slots__ and "_hash=" not in text


def test_places_differ_across_classes():
    # one field value under three kinds, and Generic against a tuple
    places = [RamFinite(F9.one), RamQuadratic(F9.one), RamInfinity(3),
              Generic(k=1, c=F9.one, ys=F9.one, degree=1)]
    for i, a in enumerate(places):
        for j, b in enumerate(places):
            assert (a == b) == (i == j)
    assert len(set(places)) == 4
    assert Generic(1, F9.one, F9.one, 1) != (1, F9.one, F9.one, 1)


@pytest.mark.parametrize("name", sorted(CASES))
def test_assignment_and_deletion_raise(name):
    a = CASES[name][0]()
    field = type(a).__slots__[0]
    before = getattr(a, field)
    with pytest.raises(AttributeError):
        setattr(a, field, before)
    with pytest.raises(AttributeError):
        delattr(a, field)
    with pytest.raises(AttributeError):
        a.extra = 1
    assert getattr(a, field) is before


def test_constructor_checks_are_kept():
    with pytest.raises(ReducibleModulus):
        Modulus(F3.zero, F3.elem(2))  # T^2 + 2 = (T-1)(T+1)
    with pytest.raises(NotAUnit):
        UnitClass(Poly.zero(F3))
    with pytest.raises(NotAUnit):
        UnitClass(Poly(F3, (F3.one, F3.one, F3.one)))


def test_constructor_defaults():
    assert PowerSubstitution(3, -1) == PowerSubstitution(r=3, s=-1,
                                                         symbol="u")
    assert PowerSubstitution(3, -1).symbol == "u"
    assert kummer_normalize(4, 3, u="w").symbol == "w"
    cfg = cli.RunConfig(command="zeta", q=5, modulus="T^2+2")
    assert (cfg.gamma, cfg.k, cfg.out, cfg.which) == (None, 1, None, None)


def test_repr_text():
    assert repr(PowerSubstitution(r=3, s=-1)) == (
        "PowerSubstitution(r=3, s=-1, symbol='u')")
    assert repr(RamInfinity(3)) == "RamInfinity(q=3)"
    assert repr(RamFinite(F3.one)) == f"RamFinite(alpha={F3.one!r})"
    assert repr(Generic(2, G, H, 4)) == (
        f"Generic(k=2, c={G!r}, ys={H!r}, degree=4)")
    assert repr(cli.RunConfig("count", 4, "T^2+T+g", k=3)) == (
        "RunConfig(command='count', q=4, modulus='T^2+T+g', gamma=None, "
        "k=3, out=None, which=None)")
    assert repr(EliminationCertificate(ok=True, residual=0)) == (
        "EliminationCertificate(ok=True, residual=0)")

