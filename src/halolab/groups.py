"""Base-group abstraction and concrete instances.

Groups are exposed through :class:`GroupHandle`: identity / multiply /
invert / generators plus canonical, hashable element encodings.  Concrete
groups: Z^d (optionally with the lexicographic total order), finite cyclic
C_m, the discrete Heisenberg group H3(Z), finite symmetric groups, and
direct products.  Cayley balls are computed by breadth-first search and
carry exact word lengths plus parent pointers for geodesic words.
"""
from __future__ import annotations

import functools
import operator
import sys
from typing import Any, Dict, Iterable, List, Optional, Tuple

from .errors import BudgetError, ContractViolation

Element = Any

DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3  # bytes, per ball computation


class GroupHandle:
    """A finitely generated group with canonical element encodings.

    Subclasses must provide identity/multiply/invert/generators.  Elements
    are immutable values with structural equality (tuples, ints), totally
    ordered by ``<``; that order breaks every tie deterministically.

    ``step(a, i)`` is the right multiplication a * generators()[i] for
    0 <= i < len(generators()); it must equal ``multiply(a,
    generators()[i])`` exactly.  The default calls multiply on a generator
    list fetched once per handle; a subclass may override it with a
    cheaper edit of ``a`` (halo products do).
    """

    spec: str = "?"
    has_total_order: bool = False

    def identity(self) -> Element:
        raise NotImplementedError

    def multiply(self, a: Element, b: Element) -> Element:
        raise NotImplementedError

    def invert(self, a: Element) -> Element:
        raise NotImplementedError

    def generators(self) -> List[Element]:
        """Ordered list of non-identity generators, closed under inversion."""
        raise NotImplementedError

    @functools.cached_property
    def _step_generators(self) -> List[Element]:
        return self.generators()

    def step(self, a: Element, i: int) -> Element:
        """a * generators()[i], for 0 <= i < len(generators())."""
        return self.multiply(a, self._step_generators[i])

    def compare(self, a: Element, b: Element) -> int:
        """Translation-invariant total order; only on ordered groups."""
        raise ContractViolation(f"group {self.spec} has no total order")

    def element_str(self, a: Element) -> str:
        return repr(a)

    def is_finite(self) -> bool:
        return False

    def elements(self) -> List[Element]:
        raise ContractViolation(f"group {self.spec} is not finite")

    def __repr__(self):
        return f"<group {self.spec}>"


class ZdGroup(GroupHandle):
    """Z^d with generating set {+-e_i}; elements are int d-tuples."""

    def __init__(self, d: int = 1, lex: bool = False):
        if d < 1:
            raise ContractViolation("Z^d requires d >= 1")
        self.d = d
        self.lex = lex
        self.has_total_order = lex
        self.spec = ("Z" if d == 1 else f"Z^{d}") + (":lex" if lex else "")
        self._gens = []
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            self._gens.append(e)
            self._gens.append(self.invert(e))

    def identity(self):
        return (0,) * self.d

    def multiply(self, a, b):
        return tuple(map(operator.add, a, b))

    def step(self, a, i):
        return tuple(map(operator.add, a, self._gens[i]))

    def invert(self, a):
        return tuple(-x for x in a)

    def generators(self):
        return list(self._gens)  # a copy, so no caller can edit the shared list

    def compare(self, a, b):
        if not self.lex:
            return super().compare(a, b)
        if a == b:
            return 0
        return -1 if a < b else 1  # tuple comparison is lexicographic

    def element_str(self, a):
        return ",".join(str(x) for x in a)


class CyclicGroup(GroupHandle):
    """C_m, residues 0..m-1, generators {+1, -1} (deduplicated for m=2)."""

    def __init__(self, m: int):
        if m < 2:
            raise ContractViolation("C_m requires m >= 2")
        self.m = m
        self.spec = f"C{m}"

    def identity(self):
        return 0

    def multiply(self, a, b):
        return (a + b) % self.m

    def invert(self, a):
        return (-a) % self.m

    def generators(self):
        if self.m == 2:
            return [1]
        return [1, self.m - 1]

    def is_finite(self):
        return True

    def elements(self):
        return list(range(self.m))

    def element_str(self, a):
        return str(a)


class HeisenbergGroup(GroupHandle):
    """Discrete Heisenberg group H3(Z).

    Elements are triples (x, y, z) encoding the upper unitriangular
    integer matrix [[1, x, z], [0, 1, y], [0, 0, 1]]; the product law is
    (x,y,z)(x',y',z') = (x+x', y+y', z+z'+x*y').  Generators: +-x, +-y.
    """

    spec = "H3"

    def identity(self):
        return (0, 0, 0)

    def multiply(self, a, b):
        return (a[0] + b[0], a[1] + b[1], a[2] + b[2] + a[0] * b[1])

    def step(self, a, i):
        x, y, z = a  # the product law with generators()[i] written out
        if i == 0:
            return (x + 1, y, z)
        if i == 1:
            return (x - 1, y, z)
        if i == 2:
            return (x, y + 1, z + x)
        return (x, y - 1, z - x)

    def invert(self, a):
        x, y, z = a
        return (-x, -y, -z + x * y)

    def generators(self):
        return [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0)]

    def element_str(self, a):
        return ",".join(str(x) for x in a)


class SymmetricGroup(GroupHandle):
    """Sym({0..m-1}); elements are image tuples, generators adjacent swaps."""

    def __init__(self, m: int):
        if m < 1:
            raise ContractViolation("Sym(m) requires m >= 1")
        self.m = m
        self.spec = f"Sym{m}"

    def identity(self):
        return tuple(range(self.m))

    def multiply(self, a, b):
        # (a*b)(i) = a(b(i))
        return tuple(a[b[i]] for i in range(self.m))

    def invert(self, a):
        out = [0] * self.m
        for i, ai in enumerate(a):
            out[ai] = i
        return tuple(out)

    def generators(self):
        gens = []
        for i in range(self.m - 1):
            img = list(range(self.m))
            img[i], img[i + 1] = img[i + 1], img[i]
            gens.append(tuple(img))
        return gens

    def is_finite(self):
        return True

    def elements(self):
        import itertools

        return [tuple(p) for p in itertools.permutations(range(self.m))]

    def element_str(self, a):
        return ",".join(str(x) for x in a)


class ProductGroup(GroupHandle):
    """Direct product with the union generating set."""

    def __init__(self, left: GroupHandle, right: GroupHandle):
        self.left = left
        self.right = right
        self.spec = f"{left.spec} x {right.spec}"

    def identity(self):
        return (self.left.identity(), self.right.identity())

    def multiply(self, a, b):
        return (self.left.multiply(a[0], b[0]), self.right.multiply(a[1], b[1]))

    def invert(self, a):
        return (self.left.invert(a[0]), self.right.invert(a[1]))

    def generators(self):
        gens = [(s, self.right.identity()) for s in self.left.generators()]
        gens += [(self.left.identity(), s) for s in self.right.generators()]
        return gens

    def is_finite(self):
        return self.left.is_finite() and self.right.is_finite()

    def elements(self):
        return [(a, b) for a in self.left.elements() for b in self.right.elements()]

    def element_str(self, a):
        return f"({self.left.element_str(a[0])})({self.right.element_str(a[1])})"


class Ball:
    """BFS closure of {identity} with exact word lengths and parents.

    ``parents[g] = (h, i)`` means ``g = h * generators[i]`` with
    ``lengths[g] = lengths[h] + 1``; the identity has no parent.
    """

    def __init__(self, group: GroupHandle, radius: int,
                 lengths: Dict[Element, int], parents: Dict[Element, Tuple[Element, int]]):
        self.group = group
        self.radius = radius
        self.lengths = lengths
        self.parents = parents
        self.elements = set(lengths)

    def __len__(self):
        return len(self.lengths)

    def __contains__(self, g):
        return g in self.lengths

    def word_to(self, g: Element) -> List[Tuple[int, int]]:
        """Geodesic word (generator index, +1) pairs reaching g from 1."""
        word = []
        cur = g
        while cur in self.parents:
            prev, i = self.parents[cur]
            word.append((i, 1))
            cur = prev
        word.reverse()
        return word

    def export_json(self) -> List[dict]:
        items = sorted(self.lengths.items(), key=lambda kv: (kv[1], kv[0]))
        return [{"element": self.group.element_str(g), "length": l} for g, l in items]


def ball(group: GroupHandle, radius: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> Ball:
    """Breadth-first Cayley ball of the given radius; each g * s is
    group.step(g, i).

    Raises BudgetError naming the radius reached if the (estimated) memory
    footprint of the element set exceeds ``memory_budget`` bytes.
    """
    if radius < 0:
        raise ContractViolation("radius must be >= 0")
    steps = range(len(group.generators()))
    step = group.step
    e = group.identity()
    lengths: Dict[Element, int] = {e: 0}
    parents: Dict[Element, Tuple[Element, int]] = {}
    frontier = [e]
    per_element = max(64, sys.getsizeof(e) + 64)
    for r in range(1, radius + 1):
        new_frontier = []
        for g in frontier:
            for i in steps:
                h = step(g, i)
                if h not in lengths:
                    lengths[h] = r
                    parents[h] = (g, i)
                    new_frontier.append(h)
        if len(lengths) * per_element > memory_budget:
            raise BudgetError(
                f"ball memory budget exceeded at radius {r} "
                f"({len(lengths)} elements, ~{len(lengths) * per_element} bytes)")
        frontier = new_frontier
        if not frontier:
            break
    return Ball(group, radius, lengths, parents)


def word_length(group: GroupHandle, g: Element, max_radius: int = 64) -> int:
    """Exact word length of g, found by growing BFS balls."""
    r = 1
    while r <= max_radius:
        b = ball(group, r)
        if g in b:
            return b.lengths[g]
        if len(b) == len(ball(group, r - 1)) and r > 1:
            break
        r += 1
    raise ContractViolation(f"element {g!r} not within radius {max_radius}")


def make_group(spec: str) -> GroupHandle:
    """Build a GroupHandle from a descriptor string (see cli grammar)."""
    from .descriptor import parse_descriptor

    return parse_descriptor(spec).build()
