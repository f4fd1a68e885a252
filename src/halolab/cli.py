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
from .descriptor import parse_descriptor
from .errors import HalolabError
from .gf import GF
from .groups import ball
from .halo import (HaloGroup, UpclonerHalo, commutativity_constant,
                   enumerate_block, lamp_growth)
from .isoperimetry import (FiniteFunction, folner_function, gradient_ratio,
                           almost_invariant_lift, profile_exact,
                           profile_heuristic)
from .lampgraph import (build_Ystar, check_iso_to_lamplighter, complete_graph,
                        greedy_net, net_is_maximal_in_interior,
                        net_is_separated)


def _build_group(spec: str):
    return parse_descriptor(spec).build()


def _parse_point(text: str):
    return tuple(int(c) for c in text.split(","))


def _parse_params(text: Optional[str]):
    if text is None:
        return None
    if text.upper().startswith("GF"):
        return GF(int(text[2:]))
    if text.isdigit():
        return int(text)
    return _build_group(text)


def cmd_ball(args) -> int:
    g = _build_group(args.group)
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
    g = _build_group(args.group)
    pts = _points(args, g)
    for pt in pts:
        val = "inf" if pt.value is None else str(pt.value)
        print(f"n={pt.n} value={val} method={pt.method} exact={pt.exact}")
    if args.out:
        from .experiment import write_profile_csv
        write_profile_csv(args.out, pts)
        print(f"wrote {args.out}")
    return 0


def cmd_folner(args) -> int:
    g = _build_group(args.group)
    pts = _points(args, g)
    val = folner_function(pts, Fraction(1, args.target))
    kind = "exact" if args.method == "exact" else "upper bound"
    if val is None:
        print(f"Folner(1/{args.target}): no witness within the searched range")
    else:
        print(f"Folner(1/{args.target}) = {val} ({kind} within searched range)")
    return 0


def cmd_growth(args) -> int:
    params = _parse_params(args.params)
    for n in range(args.n_max + 1):
        print(f"Lambda({n}) = {lamp_growth(args.family, params, n)}")
    return 0


def cmd_lift(args) -> int:
    halo = _build_group(args.group)
    if not isinstance(halo, HaloGroup):
        print("lift requires a halo-product group", file=sys.stderr)
        return 2
    lo, _, hi = args.support.partition(":")
    lo, hi = int(lo), int(hi or lo)
    base = halo.base
    one = Fraction(1) if args.p == 1 else 1.0
    f = FiniteFunction({(i,): one for i in range(lo, hi + 1)}, args.p)
    g = almost_invariant_lift(halo, f)
    rf, rg = gradient_ratio(base, f), gradient_ratio(halo, g)
    print(f"|supp f| = {len(f.entries)}, |supp g| = {len(g.entries)}")
    print(f"ratio(f) = {rf}")
    print(f"ratio(g) = {rg}")
    print(f"equal: {rf == rg if args.p == 1 else abs(rf - rg) <= 1e-10 * abs(rf)}")
    return 0


def cmd_decompose(args) -> int:
    halo = _build_group(args.group)
    if not isinstance(halo, HaloGroup):
        print("decompose requires a halo-product group", file=sys.stderr)
        return 2
    sites = [_parse_point(p) for p in args.sites.split(";")]
    block = enumerate_block(halo, sites)
    rng = random.Random(args.seed)
    lamp = rng.choice(sorted(block, key=repr))
    decomposer = decompose_upcloner if isinstance(halo, UpclonerHalo) else decompose_gluing
    word = decomposer(halo, lamp)
    check = evaluate_word(halo, word) == (lamp, halo.base.identity())
    print(f"block size {len(block)}; picked lamp {lamp!r}")
    print(f"word length {len(word)}; round-trip ok: {check}")
    return 0


def cmd_net(args) -> int:
    g = _build_group(args.group)
    net = greedy_net(g, args.radius, args.D)
    print(f"X0 ({len(net.X0)} points): "
          + ", ".join(g.element_str(x) for x in net.X0))
    print(f"separated (>= D+2 = {net.separation}): {net_is_separated(net)}")
    print(f"maximal in interior: {net_is_maximal_in_interior(net)}")
    return 0


def cmd_ystar(args) -> int:
    halo = _build_group(args.group)
    if not isinstance(halo, HaloGroup):
        print("ystar requires a halo-product group", file=sys.stderr)
        return 2
    net = greedy_net(halo.base, args.radius, args.D)
    s0 = halo.base.generators()[0]
    Y = build_Ystar(halo, net, s0, args.radius)
    print(f"net size {len(net.X0)}; Y* has {len(Y.vertices)} vertices, "
          f"{len(Y.edges)} edges")
    block = enumerate_block(halo, {halo.base.identity(), s0})
    big = set(net.bigstep)
    net_edges = [(x, y) for i, x in enumerate(net.X0) for y in net.X0[i + 1:]
                 if halo.base.multiply(halo.base.invert(x), y) in big]
    from .lampgraph import graph_from_edges
    A = graph_from_edges(net_edges, extra_vertices=net.X0,
                         basepoint=net.X0[0] if net.X0 else None)
    ok, _ = check_iso_to_lamplighter(Y, complete_graph(len(block)), A)
    print(f"isomorphic to block-over-net lamplighter graph: {ok}")
    if args.out:
        Y.export_edge_list(args.out)
        print(f"wrote {args.out}")
    return 0


def cmd_embed(args) -> int:
    from .embeddings import (coset_system_mZ, lamplighter_in_halo,
                             shuffler_endomorphism, wreath_in_shuffler)
    base = _build_group(args.base)
    if args.construction == "wreath-in-shuffler":
        morphism = wreath_in_shuffler(base, coset_system_mZ(args.index))
    elif args.construction == "endomorphism":
        morphism = shuffler_endomorphism(base)
    elif args.construction == "lamplighter":
        morphism = lamplighter_in_halo(args.family, _parse_params(args.params), base)
    else:
        print(f"unknown construction {args.construction}", file=sys.stderr)
        return 2
    print(morphism.name)
    failed = False
    results = morphism.check(pairs=args.pairs, radius=args.check_radius,
                             seed=args.seed)
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
    from .experiment import load_config, run_experiment
    config = load_config(args.config)
    manifest = run_experiment(config, args.out)
    print(f"artifacts in {args.out}: {', '.join(manifest['artifacts'])}")
    for w in manifest["warnings"]:
        print(f"warning: {w}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(prog="halolab",
                                  description=__doc__.splitlines()[0])
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--group", help="group descriptor, e.g. wreath(C2, Z)")
    common.add_argument("--p", type=int, default=1, help="norm exponent")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--budget-mem", type=int, default=2 * 1024 ** 3,
                        dest="budget_mem", help="memory budget in bytes")
    common.add_argument("--out", help="output file or directory")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("ball", parents=[common], help="Cayley ball census")
    p.add_argument("--radius", type=int, required=True)
    p.set_defaults(fn=cmd_ball)

    for name, fn in (("profile", cmd_profile), ("folner", cmd_folner)):
        p = sub.add_parser(name, parents=[common])
        p.add_argument("--n-max", type=int, required=True, dest="n_max")
        p.add_argument("--method", default="exact",
                       choices=["exact", "greedy", "anneal"])
        p.add_argument("--radius", type=int, default=None)
        if name == "folner":
            p.add_argument("--target", type=int, required=True,
                           help="n for target ratio 1/n")
        p.set_defaults(fn=fn)

    p = sub.add_parser("growth", parents=[common], help="lamp growth table")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--n-max", type=int, default=5, dest="n_max")
    p.set_defaults(fn=cmd_growth)

    p = sub.add_parser("lift", parents=[common],
                       help="almost-invariant lift of a base indicator")
    p.add_argument("--support", default="0", help="base interval lo:hi")
    p.set_defaults(fn=cmd_lift)

    p = sub.add_parser("decompose", parents=[common])
    p.add_argument("--sites", required=True,
                   help="semicolon-separated base points, e.g. '0;1' or '0,0;0,1'")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("net", parents=[common], help="greedy separated net")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(fn=cmd_net)

    p = sub.add_parser("ystar", parents=[common],
                       help="block-over-net subgraph and isomorphism check")
    p.add_argument("--radius", type=int, required=True)
    p.add_argument("--D", type=int, required=True)
    p.set_defaults(fn=cmd_ystar)

    p = sub.add_parser("embed", parents=[common])
    p.add_argument("--construction", required=True,
                   choices=["wreath-in-shuffler", "endomorphism", "lamplighter"])
    p.add_argument("--base", default="Z")
    p.add_argument("--index", type=int, default=2, help="subgroup index m")
    p.add_argument("--family", default="juggler")
    p.add_argument("--params", default="2")
    p.add_argument("--pairs", type=int, default=1000)
    p.add_argument("--check-radius", type=int, default=4, dest="check_radius")
    p.set_defaults(fn=cmd_embed)

    p = sub.add_parser("bounds", parents=[common], help="phi_inverse table")
    p.add_argument("--family", required=True)
    p.add_argument("--params", default=None)
    p.add_argument("--x", type=float, nargs="+", required=True)
    p.set_defaults(fn=cmd_bounds)

    p = sub.add_parser("run", parents=[common], help="run an experiment config")
    p.add_argument("--config", required=True)
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
