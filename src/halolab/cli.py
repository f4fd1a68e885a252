"""Command-line interface.

Subcommands: ball, profile, folner, growth, lift, decompose, net, ystar,
embed, bounds, run.  Group arguments use the descriptor grammar, e.g.
"wreath(C2, Z)", "shuffler(Z^2)", "upcloner(GF2, Z^2:lex)".
"""
from __future__ import annotations

import argparse
import json
import random
import sys
from fractions import Fraction
from typing import List, Optional

from .bounds import phi, phi_inverse
from .decompose import decompose_gluing, decompose_upcloner, evaluate_word
from .embeddings import (coset_system_mZ, lamplighter_in_halo, shuffler_endomorphism,
                         wreath_in_shuffler)
from .errors import ContractViolation, HalolabError
from .experiment import load_config, run_experiment, write_profile_csv
from .gf import GF
from .groups import CyclicGroup, HeisenbergGroup, ZdGroup, ball, make_group
from .halo import HaloGroup, UpclonerHalo, enumerate_block, lamp_growth
from .isoperimetry import (FiniteFunction, folner_function, gradient_ratio,
                           almost_invariant_lift, profile_exact,
                           profile_heuristic)
from .lampgraph import (build_Ystar, check_iso_to_lamplighter, complete_graph,
                        greedy_net, net_check_counts,
                        net_is_maximal_in_interior, net_is_separated)


# argparse turns an ArgumentTypeError into one error line and exit status 2

def _parse_interval(text: str):
    """--support: "lo" or "lo:hi", the base interval lo..hi of Z, with
    lo <= hi."""
    lo, _, hi = text.partition(":")
    try:
        lo, hi = int(lo), int(hi or lo)
    except ValueError:
        lo = None
    if lo is None or hi < lo:
        raise argparse.ArgumentTypeError(f"interval {text!r} is not lo or lo:hi "
                                         "with integers lo <= hi")
    return lo, hi


def _integer_at_least(least: int, name: str):
    """The argparse type of an integer option >= least; name says what
    the option counts."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < least:
            raise argparse.ArgumentTypeError(f"{name} {text!r} is not an integer >= {least}")
        return value
    return parse


def _parse_sites(text: str):
    """--sites: semicolon-separated points, each comma-separated integers;
    _base_site reads them as base elements once the group is known."""
    try:
        return [tuple(int(c) for c in p.split(",")) for p in text.split(";")]
    except ValueError:
        raise argparse.ArgumentTypeError(f"sites {text!r} are not points of "
                                         "comma-separated integers") from None


def _base_site(base, point):
    """A --sites point in the element syntax of base: a bare residue for
    C_m, a tuple of integers for Z^d and H3 (as element_str writes them)."""
    if isinstance(base, CyclicGroup) and len(point) == 1:
        return point[0]
    if isinstance(base, (CyclicGroup, ZdGroup, HeisenbergGroup)):
        return point
    raise ContractViolation(f"--sites has no syntax for elements of the base {base.spec}; "
                            "sites can be given over C_m, Z^d and H3")


def _parse_params(text: Optional[str]):
    if text is None:
        return None
    if text.upper().startswith("GF") and text[2:].isdigit():
        return GF(int(text[2:]))
    if text.isdigit():
        return int(text)
    return make_group(text)


def cmd_ball(args) -> int:
    g = make_group(args.group)
    b = ball(g, args.radius, memory_budget=args.budget_mem)
    by_r = {}
    for elem, ln in b.lengths.items():
        by_r[ln] = by_r.get(ln, 0) + 1
    total = 0
    for r in range(args.radius + 1):
        total += by_r.get(r, 0)
        print(f"radius {r}: sphere {by_r.get(r, 0)}, ball {total}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(b.export_json(), fh, indent=1)
        print(f"wrote {args.out}")
    return 0


def _points(args, g):
    radius = args.radius if args.radius is not None else args.n_max - 1
    if args.method == "exact":
        return profile_exact(g, args.n_max, radius)
    return profile_heuristic(g, args.n_max, args.method, seed=args.seed)


def cmd_profile(args) -> int:
    g = make_group(args.group)
    pts = _points(args, g)
    for pt in pts:
        val = "inf" if pt.value is None else str(pt.value)
        print(f"n={pt.n} value={val} method={pt.method} exact={pt.exact}")
    if args.out:
        write_profile_csv(args.out, pts)
        print(f"wrote {args.out}")
    return 0


def cmd_folner(args) -> int:
    g = make_group(args.group)
    pts = _points(args, g)
    val = folner_function(pts, Fraction(1, args.target))
    if val is None:
        print(f"Folner(1/{args.target}): no witness within the searched range")
    else:
        kind = ("exact over connected sets through the identity" if pts[-1].exact
                else "upper bound within searched range")
        print(f"Folner(1/{args.target}) = {val} ({kind})")
    return 0


def cmd_growth(args) -> int:
    params = _parse_params(args.params)
    for n in range(args.n_max + 1):
        print(f"Lambda({n}) = {lamp_growth(args.family, params, n)}")
    return 0


def cmd_lift(args) -> int:
    halo = make_group(args.group)
    if not isinstance(halo, HaloGroup):
        print("lift requires a halo-product group", file=sys.stderr)
        return 2
    base = halo.base
    if not (isinstance(base, ZdGroup) and base.d == 1):
        print(f"lift requires a halo over Z; the base of {halo.spec} is {base.spec}",
              file=sys.stderr)
        return 2
    lo, hi = args.support
    one = Fraction(1) if args.p == 1 else 1.0
    f = FiniteFunction({(i,): one for i in range(lo, hi + 1)}, args.p)
    g = almost_invariant_lift(halo, f)
    rf, rg = gradient_ratio(base, f), gradient_ratio(halo, g)
    print(f"|supp f| = {len(f.entries)}, |supp g| = {len(g.entries)}")
    print(f"ratio(f) = {rf}")
    print(f"ratio(g) = {rg}")
    equal = rf == rg if args.p == 1 else abs(rf - rg) <= 1e-10 * abs(rf)
    print(f"equal: {equal}")
    return 0 if equal else 1


def cmd_decompose(args) -> int:
    halo = make_group(args.group)
    if not isinstance(halo, HaloGroup):
        print("decompose requires a halo-product group", file=sys.stderr)
        return 2
    block = enumerate_block(halo, [_base_site(halo.base, p) for p in args.sites])
    ident = halo.lamp_identity()
    lamps = sorted((l for l in block if l != ident), key=repr)
    if not lamps:  # a round trip of the identity would check nothing
        print(f"block size {len(block)}; no lamp but the identity")
        print("error: the block holds only the identity lamp; there is nothing to decompose",
              file=sys.stderr)
        return 1
    lamp = random.Random(args.seed).choice(lamps)
    decomposer = decompose_upcloner if isinstance(halo, UpclonerHalo) else decompose_gluing
    word = decomposer(halo, lamp)
    check = evaluate_word(halo, word) == (lamp, halo.base.identity())
    print(f"block size {len(block)}; picked lamp {lamp!r}")
    print(f"word length {len(word)}; round-trip ok: {check}")
    return 0 if check else 1


def cmd_net(args) -> int:
    g = make_group(args.group)
    net = greedy_net(g, args.radius, args.D)
    print(f"X0 ({len(net.X0)} points): "
          + ", ".join(g.element_str(x) for x in net.X0))
    separated, maximal = net_is_separated(net), net_is_maximal_in_interior(net)
    pairs, points = net_check_counts(net)
    print(f"separated (>= D+2 = {net.separation}): {separated} ({pairs} pairs examined)")
    print(f"maximal in interior: {maximal} ({points} interior points examined)")
    # a check that examined nothing holds vacuously and proves nothing
    if not pairs:
        print("error: the separation check examined no pair: the net has one point",
              file=sys.stderr)
    if not points:
        print("error: the maximality check examined no interior point: "
              f"radius < D+2 = {net.separation}", file=sys.stderr)
    return 0 if separated and maximal and pairs and points else 1


def cmd_ystar(args) -> int:
    halo = make_group(args.group)
    if not isinstance(halo, HaloGroup):
        print("ystar requires a halo-product group", file=sys.stderr)
        return 2
    net = greedy_net(halo.base, args.radius, args.D)
    s0 = halo.base.generators()[0]
    Y = build_Ystar(halo, net, s0, args.radius)
    print(f"net size {len(net.X0)}; Y* has {len(Y.vertices)} vertices, "
          f"{len(Y.edges)} edges")
    ok, _ = check_iso_to_lamplighter(Y, complete_graph(Y.block_size), net.graph)
    print(f"isomorphic to block-over-net lamplighter graph: {ok}")
    if args.out:
        Y.export_edge_list(args.out)
        print(f"wrote {args.out}")
    return 0 if ok else 1


def cmd_embed(args) -> int:
    base = make_group(args.base)
    if args.construction == "wreath-in-shuffler":
        morphism = wreath_in_shuffler(base, coset_system_mZ(args.index))
    elif args.construction == "endomorphism":
        morphism = shuffler_endomorphism(base)
    else:
        morphism = lamplighter_in_halo(args.family, _parse_params(args.params), base)
    print(morphism.name)
    failed = False
    results = morphism.check(radius=args.check_radius)
    for prop, (ok, extra) in results.items():
        line = f"  {prop}: {'pass' if ok else 'FAIL'}"
        if not ok and extra is not None:
            line += f" (counterexample: {extra!r})"
        if prop == "not_surjective" and extra is not None:
            line += f" (witness without preimage: {extra!r})"
        print(line)
        failed = failed or not ok
    return 1 if failed else 0


def cmd_bounds(args) -> int:
    params = _parse_params(args.params)
    for x in args.x:
        t = phi_inverse(args.family, params, x)
        back = phi(args.family, params, t)
        print(f"x={x:g}: phi_inverse={t:.9g} (phi(t)={back:.6g})")
    return 0


def cmd_run(args) -> int:
    config = load_config(args.config)
    manifest = run_experiment(config, args.out)
    print(f"artifacts in {args.out}: {', '.join(manifest['artifacts'])}")
    for w in manifest["warnings"]:
        print(f"warning: {w}")
    return 0


def _option(*flags, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding one option, for the subcommands that read it."""
    parent = argparse.ArgumentParser(add_help=False)
    parent.add_argument(*flags, **kwargs)
    return parent


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="halolab",
                                  description=__doc__.splitlines()[0])
    group = _option("--group", required=True,
                    help="group descriptor, e.g. wreath(C2, Z)")
    seed = _option("--seed", type=int, default=0)
    out = _option("--out", help="output file or directory")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", parents=[group, out], help="Cayley ball census")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--budget-mem", type=int, default=2 * 1024 ** 3,
                   dest="budget_mem", help="memory budget in bytes")
    p.set_defaults(fn=cmd_ball)

    for name, fn in (("profile", cmd_profile), ("folner", cmd_folner)):
        parents = [group, seed, out] if name == "profile" else [group, seed]
        p = sub.add_parser(name, parents=parents)
        p.add_argument("--n-max", type=int, required=True, dest="n_max")
        p.add_argument("--method", default="exact",
                       choices=["exact", "greedy", "anneal"])
        p.add_argument("--radius", type=int, default=None)
        if name == "folner":
            p.add_argument("--target", type=_integer_at_least(1, "target"), required=True,
                           help="n for target ratio 1/n, an integer >= 1")
        p.set_defaults(fn=fn)

    p = sub.add_parser("growth", help="lamp growth table")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--n-max", type=_integer_at_least(0, "site count"), default=5,
                   dest="n_max")
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("lift", parents=[group],
                       help="almost-invariant lift of a base indicator")
    p.add_argument("--support", type=_parse_interval, default="0",
                   help="base interval lo:hi")
    p.add_argument("--p", type=_integer_at_least(1, "norm exponent"), default=1,
                   help="norm exponent, an integer >= 1")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("decompose", parents=[group, seed])
    p.add_argument("--sites", type=_parse_sites, required=True,
                   help="semicolon-separated base points, e.g. '0;1' or '0,0;0,1'; "
                        "a list that starts with a negative site needs the = form, "
                        "--sites=-1;0;2")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("net", parents=[group], help="greedy separated net")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(fn=cmd_net)

    p = sub.add_parser("ystar", parents=[group, out],
                       help="block-over-net subgraph and isomorphism check")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(fn=cmd_ystar)

    p = sub.add_parser("embed")
    p.add_argument("--construction", required=True,
                   choices=["wreath-in-shuffler", "endomorphism", "lamplighter"])
    p.add_argument("--base", default="Z")
    p.add_argument("--index", type=int, default=2, help="subgroup index m")
    p.add_argument("--family", default="juggler")
    p.add_argument("--params", default="2")
    p.add_argument("--check-radius", type=int, default=4, dest="check_radius",
                   help="the check covers every pair a, b with |a| + |b| <= this")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("bounds", help="phi_inverse table")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("run", help="run an experiment config")
    p.add_argument("--config", required=True)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(fn=cmd_run)

    return top


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except HalolabError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
