"""Base-group abstraction and concrete instances.

Groups are exposed through :class:`GroupHandle`: identity / multiply /
invert / generators plus canonical, hashable element encodings.  Concrete
groups: Z^d (optionally with the lexicographic total order), finite cyclic
C_m, the discrete Heisenberg group H3(Z), finite symmetric groups, and
direct products.  Cayley balls come from one resumable breadth-first
search (:class:`Ball`) and carry exact word lengths plus parent pointers
for geodesic words.  Each handle keeps one, ``cayley_ball``, for every
reader of word lengths; :func:`ball` makes a fresh one.
"""
from __future__ import annotations

import itertools
import operator
import sys
from typing import Any, Callable, Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

from .errors import BudgetError, ContractViolation

Element = Any

DEFAULT_MEMORY_BUDGET = 2 * 1024 ** 3  # bytes, per ball computation


class GroupHandle:
    """A finitely generated group with canonical element encodings.

    Subclasses must provide identity/multiply/invert/generators and
    is_element, which tells an element from any other value.  Elements
    are immutable values with structural equality (tuples, ints), totally
    ordered by ``<``; that order breaks every tie deterministically.

    ``step(a, i)`` is the right multiplication a * generators()[i] for
    0 <= i < len(generators()); it must equal ``multiply(a,
    generators()[i])`` exactly.  The default calls multiply on a generator
    list fetched once per handle; a subclass may override it with a
    cheaper edit of ``a`` (halo products do).

    ``step_rows(pairs, outside)`` serves the neighbour values of a finitely
    supported function, given as (element, value) pairs, in rows, one
    generator at a time, reading a neighbour outside the support as 0 or
    as outside(f(g)); halo products group the pairs by cursor and serve
    the rows from the groups, one lamp code per run of cursors, each
    cursor's lamp list coded once (see HaloGroup.step_rows).

    ``cayley_ball`` is the handle's own :class:`Ball`, made on first use
    and kept; readers grow it as far as they need, so it equals a fresh
    ``ball(self, r)`` at its radius r, whatever the order of the reads.

    ``has_total_order`` says that ``<`` is also left-invariant: a < b
    exactly when t*a < t*b, for every t.  It is True on Z^d, H3 and
    products of ordered groups; a group with torsion has no such order,
    so it is False on cyclic and symmetric groups and halos.  Left translation is an automorphism of the right
    Cayley graph, so every connected set has a translate whose least
    element under ``<`` is the identity; ``profile_exact`` roots its
    search on that (see there), and the upcloner's lamps are triangular
    with respect to ``<``.
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

    def is_element(self, a: Any) -> bool:
        """Whether a is an element in this handle's encoding."""
        raise NotImplementedError

    @property
    def cayley_ball(self) -> "Ball":
        # not functools.cached_property: its direct write to the instance
        # __dict__ slows every later attribute read on CPython 3.11
        try:
            return self._cayley_ball
        except AttributeError:
            self._cayley_ball = Ball(self)
            return self._cayley_ball

    def step(self, a: Element, i: int) -> Element:
        """a * generators()[i], for 0 <= i < len(generators()); the list is
        fetched on the first step and kept as _step_generators, a plain
        attribute (see cayley_ball)."""
        try:
            gens = self._step_generators
        except AttributeError:
            gens = self._step_generators = self.generators()
        return self.multiply(a, gens[i])

    def step_rows(self, pairs: Iterable[Tuple[Element, Any]],
                  outside: Optional[Callable[[Any], Any]] = None
                  ) -> Iterator[Tuple[Sequence, Iterable]]:
        """Rows (vs, ws) over the support of a function given as pairs
        (element, nonzero value), each element once, an iterable read once:
        the sequence vs holds the values of a run of support elements g,
        and the iterable ws (read once) the values at g * s beside them,
        for one generator s.  Where g * s is outside the support ws reads
        0, or outside(f(g)) when outside is given.  Each pair (g, s)
        appears in exactly one row.  Here one row per generator covers the
        whole support, each neighbour by step."""
        values = dict(pairs)
        vs = list(values.values())
        missing = itertools.repeat(0) if outside is None else list(map(outside, vs))
        get, step = values.get, self.step
        for i in range(len(self.generators())):
            yield vs, list(map(get, map(step, values, itertools.repeat(i)), missing))

    def element_str(self, a: Element) -> str:
        return repr(a)

    def is_finite(self) -> bool:
        return False

    def elements(self) -> List[Element]:
        raise ContractViolation(f"group {self.spec} is not finite")

    def __repr__(self):
        return f"<group {self.spec}>"


def _deep_size(a: Any) -> int:
    """sys.getsizeof of a, plus that of its items when a is a tuple,
    recursively."""
    size = sys.getsizeof(a)
    if type(a) is tuple:
        size += sum(map(_deep_size, a))
    return size


def _is_int_tuple(a: Any, length: int) -> bool:
    return type(a) is tuple and len(a) == length and all(type(x) is int for x in a)


class ZdGroup(GroupHandle):
    """Z^d with generating set {+-e_i}; elements are int d-tuples.

    Tuple ``<`` is the lexicographic order, which translations preserve,
    so every Z^d is ordered.  ``lex`` only names that order in the spec
    (``Z^d:lex``); it changes nothing else.

    ``multiply``, ``step`` and ``invert`` write out the coordinates of Z
    and Z^2, the groups the halos run over; d >= 3 maps over the tuples.
    ``step(a, i)`` adds ``_gens[i]``, so a subclass may list its own
    generators."""

    has_total_order = True

    def __init__(self, d: int = 1, lex: bool = False):
        if d < 1:
            raise ContractViolation("Z^d requires d >= 1")
        self.d = d
        self.lex = lex
        self.spec = ("Z" if d == 1 else f"Z^{d}") + (":lex" if lex else "")
        self._gens = []
        for i in range(d):
            e = tuple(1 if j == i else 0 for j in range(d))
            self._gens.append(e)
            self._gens.append(self.invert(e))

    def identity(self):
        return (0,) * self.d

    def multiply(self, a, b):
        d = self.d
        if d == 2:
            return (a[0] + b[0], a[1] + b[1])
        if d == 1:
            return (a[0] + b[0],)
        return tuple(map(operator.add, a, b))

    def step(self, a, i):
        s = self._gens[i]
        d = self.d
        if d == 2:
            return (a[0] + s[0], a[1] + s[1])
        if d == 1:
            return (a[0] + s[0],)
        return tuple(map(operator.add, a, s))

    def invert(self, a):
        d = self.d
        if d == 2:
            return (-a[0], -a[1])
        if d == 1:
            return (-a[0],)
        return tuple(map(operator.neg, a))

    def generators(self):
        return list(self._gens)  # a copy, so no caller can edit the shared list

    def is_element(self, a):
        return _is_int_tuple(a, self.d)

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

    def is_element(self, a):
        return type(a) is int and 0 <= a < self.m

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

    Tuple ``<`` is left-invariant: a left factor (a, b, c) adds a and b to
    the first two coordinates, and when those agree it adds the same
    c + a*y to the third.
    """

    spec = "H3"
    has_total_order = True

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

    def is_element(self, a):
        return _is_int_tuple(a, 3)

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

    def is_element(self, a):
        return _is_int_tuple(a, self.m) and sorted(a) == list(range(self.m))

    def is_finite(self):
        return True

    def elements(self):
        return [tuple(p) for p in itertools.permutations(range(self.m))]

    def element_str(self, a):
        return ",".join(str(x) for x in a)


class ProductGroup(GroupHandle):
    """Direct product with the union generating set.  Pairs compare
    lexicographically, so the product of two ordered groups is ordered."""

    def __init__(self, left: GroupHandle, right: GroupHandle):
        self.left = left
        self.right = right
        self.has_total_order = left.has_total_order and right.has_total_order
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

    def is_element(self, a):
        return (type(a) is tuple and len(a) == 2
                and self.left.is_element(a[0]) and self.right.is_element(a[1]))

    def is_finite(self):
        return self.left.is_finite() and self.right.is_finite()

    def elements(self):
        return [(a, b) for a in self.left.elements() for b in self.right.elements()]

    def element_str(self, a):
        return f"({self.left.element_str(a[0])})({self.right.element_str(a[1])})"


class Ball:
    """Breadth-first Cayley ball of {identity}, with exact word lengths and
    parents, that can be grown to a larger radius.

    ``parents[g] = (h, i)`` means ``g = h * generators[i]`` with
    ``lengths[g] = lengths[h] + 1``; the identity has no parent.
    ``lengths`` holds the elements in BFS order and ``elements`` is a live
    view of its keys.  The ball keeps its last sphere, and ``grow`` resumes
    the search from it, taking each g * s as group.step(g, i): without
    ``keep``, a ball grown in steps equals a fresh ``ball(group, r)``, with
    the same lengths in the same insertion order and the same parents.
    Memory is estimated per sphere, each element priced like the sphere's
    last one: its recursive tuple size plus 64 bytes of dict entries.

    With ``keep``, a predicate the identity satisfies, the search steps
    only through the elements it accepts: the ball holds the kept elements
    that a path of kept elements reaches, and lengths are the lengths of
    the shortest such paths.
    """

    def __init__(self, group: GroupHandle, keep: Optional[Callable[[Element], bool]] = None):
        e = group.identity()
        self.group = group
        self.keep = keep
        self.radius = 0
        self.lengths: Dict[Element, int] = {e: 0}
        self.parents: Dict[Element, Tuple[Element, int]] = {}
        self.elements = self.lengths.keys()
        self.sphere: List[Element] = [e]  # the elements of length radius
        self._steps = range(len(group.generators()))
        self._bytes = _deep_size(e) + 64  # the estimated footprint

    def __len__(self):
        return len(self.lengths)

    def __contains__(self, g):
        return g in self.lengths

    def grow(self, radius: int, memory_budget: int = DEFAULT_MEMORY_BUDGET) -> "Ball":
        """Extend the ball to the given radius, one sphere at a time.

        Raises BudgetError naming the radius reached if the (estimated)
        memory footprint of the element set exceeds ``memory_budget``
        bytes; the ball stays a complete ball of that radius.
        """
        lengths, parents, step, steps = self.lengths, self.parents, self.group.step, self._steps
        keep = self.keep
        while self.radius < radius:
            # Nothing is left to reach: the ball is the whole (finite)
            # group or, with keep, every kept element a kept path reaches.
            if not self.sphere:
                self.radius = radius
                break
            r = self.radius + 1
            sphere = []
            for g in self.sphere:
                for i in steps:
                    h = step(g, i)
                    if h not in lengths and (keep is None or keep(h)):
                        lengths[h] = r
                        parents[h] = (g, i)
                        sphere.append(h)
            self.sphere, self.radius = sphere, r
            if sphere:
                self._bytes += len(sphere) * (_deep_size(sphere[-1]) + 64)
            if self._bytes > memory_budget:
                raise BudgetError(
                    f"ball memory budget exceeded at radius {r} "
                    f"({len(lengths)} elements, ~{self._bytes} bytes)")
        return self

    def reach(self, g: Element, max_radius: int) -> bool:
        """Grow sphere by sphere until g is in the ball, the radius is
        max_radius or nothing is left to reach; whether g is in the ball."""
        while g not in self.lengths and self.radius < max_radius and self.sphere:
            self.grow(self.radius + 1)
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
    """Breadth-first Cayley ball of the given radius: a new Ball grown to it.

    Raises BudgetError naming the radius reached if the (estimated) memory
    footprint of the element set exceeds ``memory_budget`` bytes.
    """
    if radius < 0:
        raise ContractViolation("radius must be >= 0")
    return Ball(group).grow(radius, memory_budget)


def word_length(group: GroupHandle, g: Element, max_radius: float = 64) -> int:
    """Exact word length of g, read off the group's cayley_ball, grown
    until it holds g, reaches max_radius or stops growing.  A value that is
    no element is refused before the ball grows for it, and a length past
    max_radius is refused however far the ball has grown: the answer
    depends on the arguments alone."""
    b = group.cayley_ball
    length = b.lengths.get(g)
    if length is None:
        if not group.is_element(g):
            raise ContractViolation(f"{g!r} is not an element of {group.spec}")
        if b.reach(g, max_radius):
            length = b.lengths[g]
    if length is None or length > max_radius:
        raise ContractViolation(f"element {g!r} not within radius {max_radius}")
    return length


def make_group(spec: str) -> GroupHandle:
    """The GroupHandle a descriptor string names (grammar in
    ``halolab.descriptor``); its ``spec`` is the canonical form."""
    from .descriptor import parse_descriptor

    return parse_descriptor(spec)
