"""Subgroup embeddings between halo products: the finitary-wreath subgroup
of a shuffler over a finite-index subgroup, the injective non-surjective
shuffler endomorphism, and lamplighter subgroups of juggler, designer and
cloner products.  Each morphism's homomorphism check runs one fixed list
of pairs, exhaustive on a ball of the domain.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .errors import ContractViolation, NotInDomainError, UnsupportedFamilyError
from .gf import GF
from .groups import CyclicGroup, GroupHandle, SymmetricGroup, ZdGroup
from .halo import make_halo

_WITNESS_RADIUS = 4  # the working ball of shuffler_endomorphism's checks


@dataclass(frozen=True)
class CosetSystem:
    """A subgroup K of H with a transversal S: every h factors uniquely as
    k*s with k in K, s in S."""

    member: Callable[[Any], bool]           # k in K?
    transversal: Tuple                      # coset representatives S
    decompose: Callable[[Any], Tuple]       # h -> (k, s)
    k_to_base: Callable[[Any], Any]         # K -> codomain base group element
    index: int                              # m = [H:K]
    K_group: GroupHandle = None             # abstract copy of K


def coset_system_mZ(m: int) -> CosetSystem:
    """mZ inside Z with transversal {0, ..., m-1}."""
    if m < 2:
        raise ContractViolation("index m must be >= 2")
    return CosetSystem(
        member=lambda k: k[0] % m == 0,
        transversal=tuple((i,) for i in range(m)),
        decompose=lambda h: ((h[0] - h[0] % m,), (h[0] % m,)),
        k_to_base=lambda k: (k[0] // m,),
        index=m,
        K_group=ZdGroup(1, False),
    )


@dataclass
class GroupMorphism:
    """A homomorphism given by a closed-form mapping rule, with built-in
    verification on balls of the domain, read off its cayley_ball: the
    homomorphism check proves, not samples (see homomorphism_counterexample)."""

    domain: GroupHandle
    codomain: GroupHandle
    map: Callable[[Any], Any]
    name: str = "morphism"
    member: Optional[Callable[[Any], bool]] = None  # restricts the domain
    not_surjective_witness: Any = None
    # per radius, what _domain_images returns, kept on the morphism
    _images: Dict[int, Tuple[List, Dict]] = field(
        default_factory=dict, init=False, repr=False, compare=False)

    def _domain_images(self, radius: int) -> Tuple[List, Dict]:
        """The sorted domain ball of this radius, cut to member, and the
        image of each of its elements, mapped once per radius."""
        if radius < 1:
            raise ContractViolation(f"check radius must be >= 1, not {radius}")
        if radius not in self._images:
            lengths = self.domain.cayley_ball.grow(radius).lengths
            elems = sorted(g for g, l in lengths.items()
                           if l <= radius and (self.member is None or self.member(g)))
            self._images[radius] = elems, {g: self.map(g) for g in elems}
        return self._images[radius]

    def preserves_identity(self) -> bool:
        return self.map(self.domain.identity()) == self.codomain.identity()

    def homomorphism_counterexample(self, pairs: int = 1000, radius: int = 4,
                                    seed: int = 0):
        """None, or the first pair (a, b) of a fixed list with phi(ab) !=
        phi(a)phi(b).  Without member the list is (1, 1) and (g, s) for g
        in Ball(radius - 1), s a generator, and None proves phi(ab) =
        phi(a)phi(b) whenever |a| + |b| <= radius: (1, 1) gives phi(1) = 1,
        and by induction on |b|, for b = b's with |b'| = |b| - 1, ab' lies
        in Ball(radius - 1), so phi(ab) = phi(ab')phi(s) =
        phi(a)phi(b')phi(s) = phi(a)phi(b), as (b', s) is listed too.
        With member the generators need not be members: the list is every
        ordered pair of members of the ball, a product that is no member
        skipped.  ``pairs`` and ``seed`` choose nothing; radius < 1 would
        check no pair but (1, 1) and raises ContractViolation."""
        elems, image = self._domain_images(radius)
        if self.member is None:
            e, lengths = self.domain.identity(), self.domain.cayley_ball.lengths
            checked = [(e, e)] + [(g, s) for g in elems if lengths[g] < radius
                                  for s in self.domain.generators()]
        else:
            checked = [(a, b) for a in elems for b in elems]
        for a, b in checked:
            ab = self.domain.multiply(a, b)
            if self.member is not None and not self.member(ab):
                continue
            phi_ab = image[ab] if ab in image else self.map(ab)
            if phi_ab != self.codomain.multiply(image[a], image[b]):
                return (a, b)
        return None

    def injective_on_ball(self, radius: int = 4) -> bool:
        image = self._domain_images(radius)[1]
        return len(set(image.values())) == len(image)

    def check(self, pairs: int = 1000, radius: int = 4, seed: int = 0) -> Dict[str, Tuple[bool, Any]]:
        """``pairs`` and ``seed`` choose nothing (see homomorphism_counterexample)."""
        cex = self.homomorphism_counterexample(pairs, radius, seed)
        out = {
            "identity": (self.preserves_identity(), None),
            "homomorphism": (cex is None, cex),
            "injective_on_ball": (self.injective_on_ball(radius), None),
        }
        if self.not_surjective_witness is not None:
            out["not_surjective"] = (True, self.not_surjective_witness)
        return out


# ---------------------------------------------------------------------------

def wreath_in_shuffler(H: GroupHandle, cosets: CosetSystem) -> GroupMorphism:
    """The coset-preserving subgroup G of Shuffler(H) maps isomorphically
    into Sym(m) wreath K: (sigma, h) with h in K and sigma stabilizing
    every coset k*S goes to (f_sigma, h) with f_sigma(k) = the permutation
    of S induced by s -> k^{-1} sigma(k s).
    """
    shuffler = make_halo("shuffler", None, H)
    m = cosets.index
    codomain = make_halo("wreath", SymmetricGroup(m), cosets.K_group)
    S = list(cosets.transversal)
    s_index = {s: i for i, s in enumerate(S)}

    def in_G(g) -> bool:
        sigma, h = g
        if not cosets.member(h):
            return False
        for x, y in sigma:
            kx, _ = cosets.decompose(x)
            ky, _ = cosets.decompose(y)
            if kx != ky:
                return False
        return True

    def phi(g):
        if not in_G(g):
            raise NotInDomainError(
                "element is not coset-preserving with cursor in K")
        sigma, h = g
        by_coset: Dict[Any, Dict[int, int]] = {}
        for x, y in sigma:
            k, s = cosets.decompose(x)
            _, s2 = cosets.decompose(y)
            by_coset.setdefault(k, {})[s_index[s]] = s_index[s2]
        lamp = codomain.make_lamp({
            cosets.k_to_base(k): tuple(moved.get(i, i) for i in range(m))
            for k, moved in by_coset.items()})
        return (lamp, cosets.k_to_base(h))

    return GroupMorphism(shuffler, codomain, phi,
                         name=f"FSym({m}) wreath K inside {shuffler.spec}",
                         member=in_G)


@dataclass(frozen=True)
class BaseEndomorphism:
    """An injective endomorphism of a base group with decidable image."""

    group: GroupHandle
    map: Callable[[Any], Any]
    in_image: Callable[[Any], bool]
    name: str = "psi"


def doubling(d: int, lex: bool = False) -> BaseEndomorphism:
    """Coordinate-wise doubling on Z^d: injective, image = even vectors."""
    return BaseEndomorphism(
        group=ZdGroup(d, lex),
        map=lambda v: tuple(2 * c for c in v),
        in_image=lambda v: all(c % 2 == 0 for c in v),
        name="doubling",
    )


def shuffler_endomorphism(H: GroupHandle, psi: Optional[BaseEndomorphism] = None
                          ) -> GroupMorphism:
    """phi(sigma, g) = (sigma-bar, psi(g)) with sigma-bar = psi sigma psi^{-1}
    on the image of psi and the identity off it.  Injective, never surjective;
    a concrete element without preimage is searched for and attached, and
    certified by a preimage search over Ball(_WITNESS_RADIUS).
    """
    if psi is None:
        if not isinstance(H, ZdGroup):
            raise ContractViolation("a psi endomorphism is required for this base")
        psi = doubling(H.d, H.lex)
    shuffler = make_halo("shuffler", None, H)

    # injectivity of psi on the working ball
    lengths = H.cayley_ball.grow(_WITNESS_RADIUS).lengths
    images = [psi.map(h) for h, l in lengths.items() if l <= _WITNESS_RADIUS]
    if len(set(images)) < len(images):
        raise ContractViolation("psi is not injective on the working ball")

    def phi(g):
        sigma, h = g
        bar = shuffler.make_lamp({psi.map(x): psi.map(y) for x, y in sigma})
        return (bar, psi.map(h))

    # non-surjectivity witness: a transposition whose support leaves im(psi)
    lengths = shuffler.cayley_ball.grow(max(2, _WITNESS_RADIUS)).lengths
    witness = None
    for g in sorted(g for g, l in lengths.items() if l <= 2):
        sites = shuffler.lamp_sites(g[0])
        if sites and any(not psi.in_image(x) for x in sites):
            witness = g
            break
    if witness is not None:
        # certify by exhaustive preimage search
        for g, l in lengths.items():
            if l <= _WITNESS_RADIUS and phi(g) == witness:
                raise ContractViolation("claimed witness has a preimage")

    return GroupMorphism(shuffler, shuffler, phi,
                         name=f"conjugation-by-{psi.name} endomorphism",
                         not_surjective_witness=witness)


def lamplighter_in_halo(family: str, params, H: GroupHandle) -> GroupMorphism:
    """An injective homomorphism from a wreath product into the halo:
    juggler hosts Sym(tracks) wreath H via track permutations, designer
    hosts F wreath H via its wreath part, cloner over GF(q), q >= 3, hosts
    the unit-group wreath product via diagonal matrices."""
    if family not in ("juggler", "designer", "cloner"):
        raise UnsupportedFamilyError(
            f"no lamplighter embedding implemented for family {family!r}")
    codomain = make_halo(family, params, H)
    if family == "juggler":
        r = codomain.tracks
        if r < 2:
            raise ContractViolation("juggler embedding needs >= 2 tracks")
        domain = make_halo("wreath", SymmetricGroup(r), H)

        def phi(g):
            lamp, h = g
            moved = {}
            for x, perm in lamp:
                for i, pi in enumerate(perm):
                    if pi != i:
                        moved[(x, i)] = (x, pi)
            return (codomain.make_lamp(moved), h)

        return GroupMorphism(domain, codomain, phi,
                             name=f"Sym({r}) wreath base inside {codomain.spec}")

    if family == "designer":
        domain = make_halo("wreath", codomain.fiber, H)

        def phi(g):
            lamp, h = g
            return (codomain.make_lamp((dict(lamp), {})), h)

        return GroupMorphism(domain, codomain, phi,
                             name=f"{codomain.fiber.spec} wreath base inside {codomain.spec}")

    gf = codomain.gf  # the cloner
    if gf.q == 2:
        raise UnsupportedFamilyError(
            "cloner over GF(2) has a trivial unit group; the diagonal "
            "subgroup degenerates — use q >= 3")
    gen = _primitive_element(gf)
    order = gf.q - 1
    domain = make_halo("wreath", CyclicGroup(order), H)
    powers = [1]
    for _ in range(order - 1):
        powers.append(gf.mul(powers[-1], gen))

    def phi(g):
        lamp, h = g
        entries = {(x, x): powers[c] for x, c in lamp}
        return (codomain.make_lamp(entries), h)

    return GroupMorphism(domain, codomain, phi,
                         name=f"C{order} wreath base inside {codomain.spec}")


def _primitive_element(gf: GF):
    for u in gf.units:
        x, order = u, 1
        while x != 1:
            x = gf.mul(x, u)
            order += 1
        if order == gf.q - 1:
            return u
    raise ContractViolation("no primitive element found")  # unreachable
