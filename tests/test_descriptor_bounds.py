import itertools
import math

import pytest

from halolab.bounds import (bound_report, identity_bound, iterated_log,
                            log_over_loglog, phi, phi_inverse, power)
from halolab.descriptor import parse_descriptor
from halolab.errors import ContractViolation, NotInDomainError, ParseError
from halolab.groups import GroupHandle, ZdGroup, make_group
from halolab.halo import HaloGroup, enumerate_block
from halolab.isoperimetry import profile_exact

CORPUS = [
    "Z", "Z:lex", "Z^2", "Z^2:lex", "Z^3", "C2", "C12", "H3",
    "Z x C3", "Z x Z", "C2 x C3 x C5", "H3 x Z",
    "shuffler(Z)", "shuffler(Z^2)", "shuffler(H3)", "shuffler(Z x C3)",
    "shuffler(shuffler(Z))", "shuffler(shuffler(shuffler(Z)))",
    "wreath(C2, Z)", "wreath(C3, Z^2)", "wreath(C2, wreath(C2, Z))",
    "wreath(C2 x C3, Z)", "wreath(C2, H3)", "wreath(C5, C7)",
    "juggler(2, Z)", "juggler(3, Z^2)", "juggler(2, shuffler(Z))",
    "juggler(4, H3)", "juggler(2, Z x C3)",
    "designer(C2, Z)", "designer(C3, Z^2)", "designer(C2, H3)",
    "designer(C2 x C2, Z)", "designer(C4, wreath(C2, Z))",
    "cloner(GF2, Z)", "cloner(GF3, Z)", "cloner(GF4, Z^2)",
    "cloner(GF5, H3)", "cloner(GF2, shuffler(Z))", "cloner(GF3, Z x Z)",
    "upcloner(GF2, Z:lex)", "upcloner(GF3, Z:lex)",
    "upcloner(GF2, Z^2:lex)", "upcloner(GF4, Z^2:lex)",
    "upcloner(GF5, Z^3:lex)", "upcloner(GF2, Z^4:lex)",
    "wreath(C2, cloner(GF3, Z))", "shuffler(wreath(C2, Z))",
    "designer(C2, juggler(2, Z))", "juggler(2, wreath(C2, Z))",
]


def test_parser_round_trip_corpus():
    assert len(CORPUS) == 50
    for text in CORPUS:
        assert parse_descriptor(text).spec == text


def test_parser_builds_groups():
    for text in CORPUS[:20]:
        group = parse_descriptor(text)
        assert isinstance(group, GroupHandle)
        e = group.identity()
        for g in group.generators():
            assert group.multiply(g, group.invert(g)) == e


def test_upcloner_parses_over_every_ordered_base():
    """The upcloner's order rule is its constructor's has_total_order
    check, so every ordered base parses, named ``:lex`` or not."""
    for text in ("upcloner(GF2, H3)", "upcloner(GF2, Z^2)", "upcloner(GF3, Z x Z)"):
        group = parse_descriptor(text)
        assert group.family == "upcloner" and group.base.has_total_order
        assert group.spec == text
        assert parse_descriptor(group.spec).spec == text


def _first_use_generators(halo):
    """The generator list and base offset as the halo once built them on
    the first call to generators(): lamp generators, then base ones."""
    lamp_part = [(g, halo.base.identity()) for g in halo.lamp_generators()]
    base_part = [(halo.lamp_identity(), s) for s in halo.base.generators()]
    return lamp_part + base_part, len(lamp_part)


def _family_block(halo, sites):
    """L(sites) as each family's own loop once listed it, in order, with
    every lamp built by make_lamp."""
    family, sites = halo.family, sorted(sites)
    values = halo.fiber.elements() if family in ("wreath", "designer") else ()
    maps = [dict(zip(sites, v)) for v in itertools.product(values, repeat=len(sites))]
    perms = [dict(zip(sites, images)) for images in itertools.permutations(sites)]
    if family == "wreath":
        return [halo.make_lamp(m) for m in maps]
    if family == "shuffler":
        return [halo.make_lamp(p) for p in perms]
    if family == "designer":
        return [halo.make_lamp((m, p)) for m in maps for p in perms]
    if family == "juggler":
        points = [(x, i) for x in sites for i in range(halo.tracks)]
        return [halo.make_lamp(dict(zip(points, images)))
                for images in itertools.permutations(points)]
    gf, n = halo.gf, len(sites)
    if family == "upcloner":
        pairs = list(itertools.combinations(sites, 2))
        return [halo.make_lamp(dict(zip(pairs, values)))
                for values in itertools.product(gf.elements, repeat=len(pairs))]
    # cloner: rows top to bottom, each outside the span of the rows above,
    # every choice in the lexicographic order of GF(q)^n
    vectors = list(itertools.product(range(gf.q), repeat=n))
    out = []

    def extend(rows):
        if len(rows) == n:
            out.append(halo.make_lamp({(p, q): x for p, row in zip(sites, rows)
                                       for q, x in zip(sites, row)}))
            return
        span = set()
        for coeffs in itertools.product(range(gf.q), repeat=len(rows)):
            v = (0,) * n
            for c, row in zip(coeffs, rows):
                v = tuple(gf.add(a, gf.mul(c, b)) for a, b in zip(v, row))
            span.add(v)
        for v in vectors:
            if v not in span:
                extend(rows + [v])

    extend([])
    return out


def test_generators_and_blocks_equal_the_first_use_builds_on_every_corpus_halo():
    halos = [g for g in map(parse_descriptor, CORPUS) if isinstance(g, HaloGroup)]
    assert len(halos) == 38
    for halo in halos:
        gens, offset = _first_use_generators(halo)
        assert halo.generators() == gens, halo.spec
        assert halo.base_gen_offset == offset, halo.spec
        e, s = halo.base.identity(), halo.base.generators()[0]
        for sites in ([s], [s, e]):
            assert enumerate_block(halo, sites) == _family_block(halo, sites), halo.spec


# One fault each: (text, exception type, message, position or None).
INVALID = [
    ("C0", ParseError, "C m requires m >= 1", 0),
    ("C1", ContractViolation, "C_m requires m >= 2", None),
    ("C2 x C1", ContractViolation, "C_m requires m >= 2", None),
    ("Z^0", ParseError, "Z^d requires d >= 1", 0),
    ("Z^", ParseError, "expected an integer", 2),
    ("Z^2:lex x C0", ParseError, "C m requires m >= 1", 10),
    ("juggler(0, Z)", ParseError, "juggler needs at least one track", 0),
    ("juggler(2 Z)", ParseError, "expected ','", 10),
    ("cloner(GF7, Z)", ParseError,
     "GF(7) not supported; q must be one of (2, 3, 4, 5)", 7),
    ("upcloner(GF2, C5)", ContractViolation,
     "order required: upcloner needs a totally ordered base", None),
    ("upcloner(GF2, Z x C3)", ContractViolation,
     "order required: upcloner needs a totally ordered base", None),
    ("upcloner(GF2, wreath(C2, Z))", ContractViolation,
     "order required: upcloner needs a totally ordered base", None),
    ("wreath(Z, Z)", ContractViolation, "wreath fiber must be a finite group", None),
    ("designer(H3, Z)", ContractViolation, "designer fiber must be a finite group", None),
    ("wreath(C2)", ParseError, "expected ','", 9),
    ("shuffler(Z", ParseError, "expected ')'", 10),
    ("wreath(C2, Z) trailing", ParseError, "trailing input", 14),
    ("", ParseError, "expected an atom or halo family, found 'end of input'", 0),
    ("Z x", ParseError, "expected an atom or halo family, found 'end of input'", 3),
    ("nonsense(", ParseError, "expected an atom or halo family, found 'nonsense'", 0),
]


@pytest.mark.parametrize("text, error, message, position", INVALID,
                         ids=[row[0] or "empty" for row in INVALID])
def test_invalid_descriptors(text, error, message, position):
    with pytest.raises(error) as exc:
        make_group(text)
    assert type(exc.value) is error
    if position is None:
        assert str(exc.value) == message
    else:
        assert str(exc.value) == f"{message} (at position {position})"
        assert exc.value.position == position


def test_phi_inverse_examples():
    assert abs(phi_inverse("shuffler", None, 18.0) - 3.0) < 1e-6
    assert abs(phi_inverse("wreath", 2, 2.0) - 1.0) < 1e-6
    with pytest.raises(NotInDomainError):
        phi_inverse("wreath", 2, 1.0)
    # juggler(0) has no lamps to shuffle: phi(t) = t made phi_inverse(10) = 10
    with pytest.raises(ContractViolation, match="juggler requires at least one track"):
        phi_inverse("juggler", 0, 10.0)


def test_phi_round_trip_grid():
    cases = [("wreath", 2), ("shuffler", None), ("juggler", 2),
             ("designer", 2), ("cloner", 2), ("cloner", 3), ("upcloner", 2)]
    for family, params in cases:
        for x in (3.0, 10.0, 1e3, 1e6, 1e9):
            if x < phi(family, params, 1.0):
                continue
            t = phi_inverse(family, params, x)
            assert abs(phi(family, params, t) - x) / x < 1e-6


def test_phi_monotone():
    for family, params in (("shuffler", None), ("cloner", 2)):
        vals = [phi(family, params, t) for t in [1, 1.5, 2, 2.5, 3, 4, 5.5]]
        assert vals == sorted(vals)
        assert len(set(vals)) == len(vals)


def test_iterated_log_domain_guard():
    lnln = iterated_log(2)
    with pytest.raises(NotInDomainError):
        lnln(math.e)  # ln(ln(e)) = 0; below the guarded floor e * margin
    assert abs(lnln(100.0) - math.log(math.log(100.0))) < 1e-12
    lnlnln = iterated_log(3)
    with pytest.raises(NotInDomainError):
        lnlnln(15.0)  # e^e ~ 15.15


def test_log_over_loglog():
    b = log_over_loglog()
    x = 1e6
    assert abs(b(x) - math.log(x) / math.log(math.log(x))) < 1e-12


def test_bound_report_fits_z_profile():
    pts = profile_exact(ZdGroup(1, False), 8, 9)
    rows = bound_report(pts, [identity_bound()])
    assert len(rows) == 1
    assert abs(rows[0].c - 0.5) < 1e-12
    assert rows[0].rms_residual < 1e-12
    assert rows[0].note == "finite-range indication, not a proof"
    assert bound_report(pts, []) == []


def test_bound_report_with_dilations():
    pts = profile_exact(ZdGroup(1, False), 6, 7)
    rows = bound_report(pts, [identity_bound(), power(0.5)], dilations=(1, 2, 4))
    assert len(rows) == 6
    # c * (K n) fit for the linear bound: c = 0.5 / K
    fits = {(r.bound, r.dilation): r.c for r in rows}
    assert abs(fits[("x", 2)] - 0.25) < 1e-12
