"""Small finite fields GF(q) for q in {2, 3, 4, 5}.

Elements are plain ints 0..q-1.  For prime q arithmetic is mod-q; GF(4)
uses the explicit table of GF(2)[x]/(x^2+x+1) with 2 = x and 3 = x+1.
"""
from __future__ import annotations

from .errors import ContractViolation

_GF4_MUL = {
    (0, 0): 0, (0, 1): 0, (0, 2): 0, (0, 3): 0,
    (1, 0): 0, (1, 1): 1, (1, 2): 2, (1, 3): 3,
    (2, 0): 0, (2, 1): 2, (2, 2): 3, (2, 3): 1,
    (3, 0): 0, (3, 1): 3, (3, 2): 1, (3, 3): 2,
}


class GF:
    """Field arithmetic on ints 0..q-1."""

    SUPPORTED = (2, 3, 4, 5)

    def __init__(self, q: int):
        if type(q) is not int or q not in self.SUPPORTED:  # 2.0 == 2, but 2.0 is no order
            raise ContractViolation(f"GF({q!r}) not supported; q must be one of {self.SUPPORTED}")
        self.q = q

    def __repr__(self):
        return f"GF({self.q})"

    def __eq__(self, other):
        return isinstance(other, GF) and other.q == self.q

    def __hash__(self):
        return hash(("GF", self.q))

    @property
    def elements(self) -> range:
        return range(self.q)

    @property
    def units(self) -> range:
        return range(1, self.q)

    def add(self, a: int, b: int) -> int:
        if self.q == 4:
            return a ^ b
        return (a + b) % self.q

    def neg(self, a: int) -> int:
        if self.q == 4:
            return a
        return (-a) % self.q

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.q == 4:
            return _GF4_MUL[(a, b)]
        return (a * b) % self.q

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of 0 in GF(q)")
        for b in self.units:
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("unreachable: every unit has an inverse")
