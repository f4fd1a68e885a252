"""Group-descriptor grammar and parser.

    descriptor := halo | product
    product    := atom ("x" atom)*
    atom       := "Z" [":lex"] | "Z^" int [":lex"] | "C" int | "H3"
    halo       := family "(" args ")"
    family     := wreath | shuffler | juggler | designer | cloner | upcloner
    args       := wreath/designer: descriptor "," descriptor
                  shuffler:        descriptor
                  juggler:         int "," descriptor
                  cloner/upcloner: "GF" int "," descriptor

``:lex`` only names the order of Z^d, which is lexicographic either way.
Nesting is allowed anywhere a descriptor is.  The parser builds each group
as soon as its text is read, through ``halo.make_halo`` for a halo, so a
construction fault (C1, a wreath fiber that is not finite, an upcloner
over a base that is not ordered) is reported, without a position, before
a later syntax fault.  Parse errors carry the byte offset of the offending
token.
``parse_descriptor(text).spec == text`` on canonical forms (commas followed
by one space, " x " around products).
"""
from __future__ import annotations

from .errors import ContractViolation, ParseError
from .gf import GF
from .groups import CyclicGroup, GroupHandle, HeisenbergGroup, ProductGroup, ZdGroup
from .halo import FAMILIES, make_halo


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos] == " ":
            self.pos += 1

    def peek_word(self) -> str:
        self.skip_ws()
        i = self.pos
        while i < len(self.text) and self.text[i].isalpha():
            i += 1
        return self.text[self.pos:i]

    def take(self, literal: str):
        self.skip_ws()
        if not self.text.startswith(literal, self.pos):
            raise ParseError(f"expected {literal!r}", self.pos)
        self.pos += len(literal)

    def try_take(self, literal: str) -> bool:
        self.skip_ws()
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def take_int(self) -> int:
        self.skip_ws()
        i = self.pos
        while i < len(self.text) and self.text[i].isdigit():
            i += 1
        if i == self.pos:
            raise ParseError("expected an integer", self.pos)
        value = int(self.text[self.pos:i])
        self.pos = i
        return value


def parse_descriptor(text: str) -> GroupHandle:
    """The group a descriptor names; its ``spec`` is the canonical text."""
    sc = _Scanner(text)
    group = _parse(sc)
    sc.skip_ws()
    if sc.pos != len(text):
        raise ParseError("trailing input", sc.pos)
    return group


def _parse(sc: _Scanner) -> GroupHandle:
    word = sc.peek_word()
    if word in FAMILIES:
        return _parse_halo(sc, word)
    return _parse_product(sc)


def _parse_halo(sc: _Scanner, family: str) -> GroupHandle:
    start = sc.pos
    sc.take(family)
    sc.take("(")
    if family == "shuffler":
        params = None
    elif family == "juggler":
        params = sc.take_int()
        if params < 1:
            raise ParseError("juggler needs at least one track", start)
        sc.take(",")
    elif family in ("cloner", "upcloner"):
        gf_pos = sc.pos
        sc.take("GF")
        try:
            params = GF(sc.take_int())
        except ContractViolation as exc:  # GF's own check, reported at the GF
            raise ParseError(str(exc), gf_pos) from None
        sc.take(",")
    else:  # wreath / designer: the fiber
        params = _parse(sc)
        sc.take(",")
    base = _parse(sc)
    sc.take(")")
    return make_halo(family, params, base)


def _parse_product(sc: _Scanner) -> GroupHandle:
    group = _parse_atom(sc)
    while sc.try_take("x"):
        group = ProductGroup(group, _parse_atom(sc))
    return group


def _parse_atom(sc: _Scanner) -> GroupHandle:
    sc.skip_ws()
    pos = sc.pos
    if sc.try_take("Z"):
        d = sc.take_int() if sc.try_take("^") else 1
        if d < 1:
            raise ParseError("Z^d requires d >= 1", pos)
        return ZdGroup(d, sc.try_take(":lex"))
    if sc.try_take("H3"):
        return HeisenbergGroup()
    if sc.try_take("C"):
        m = sc.take_int()
        if m < 1:
            raise ParseError("C m requires m >= 1", pos)
        return CyclicGroup(m)
    word = sc.peek_word()
    raise ParseError(f"expected an atom or halo family, found {word or 'end of input'!r}",
                     pos)
