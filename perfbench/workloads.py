"""The four benchmark workloads.

Each workload has a set-up and a round; ``profile`` also has a finish step:

- ``<name>_setup(hl, seed)``: builds the groups and halos and generates the
  seeded inputs.  Timed as ``setup_s``.
- ``<name>_round(hl, inputs, rnd)``: one round of program calls on freshly
  built group and halo instances, so per-instance caches (base balls,
  edge tables) are paid in every round, as every user run pays them.
  Only the calls passed through ``rnd.call`` are timed.
- ``profile_finish(rounds, outputs, inputs)``: checks that need the whole run
  (only ``profile`` has them: its oracle is costly and its work count
  comes from the oracle).

Checks compare against ``oracles`` or against properties the method must
have, never against stored output of an earlier version.
"""
from __future__ import annotations

import itertools
import json
import os
import random
import shutil
import statistics
import sys
import tempfile
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import hostspeed
import oracles

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
LAYERS = ("groups", "halo", "isoperimetry", "decompose", "embeddings",
          "lampgraph", "experiment")


def import_halolab():
    """Import the checkout's halolab; the namespace holds its modules."""
    if not (SRC / "halolab" / "__init__.py").is_file():
        raise FileNotFoundError(f"no halolab sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import importlib

    mods = {name: importlib.import_module(f"halolab.{name}")
            for name in LAYERS + ("gf",)}
    return SimpleNamespace(**mods)


class Round:
    """One round: timed program calls and the outcome of each operation.

    Times are kept per operation (by name, the same in every round), so a
    run can take each operation's median over its rounds: a burst of
    noise then spoils one operation of one round, not the run's figure.
    """

    OUTSIDE = "(between operations)"

    def __init__(self, sampler=None):
        self.sampler = sampler  # hostspeed.Sampler running during the round, if any
        self.wall = {}         # operation -> seconds inside program calls
        self.spans = []        # (operation, start, end, seconds, counts toward the rate)
        self.attempted = 0
        self.failed = 0
        self.problems = []     # failed output checks
        self.work = 0          # work units done, for the work rate
        self.extra = {}        # per-layer figures measured by the workload
        self._op = self.OUTSIDE

    def call(self, fn, *args, rate=True, **kwargs):
        stolen = self.sampler.stolen if self.sampler else 0.0
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            t1 = time.perf_counter()
            dt = t1 - t0
            if self.sampler:
                dt -= self.sampler.stolen - stolen
                self.spans.append((self._op, t0, t1, dt, rate))
            self.wall[self._op] = self.wall.get(self._op, 0.0) + dt

    def scaled(self, rate_only=False):
        """operation -> seconds inside program calls, each call scaled to
        the reference host speed by the sampler that ran during it."""
        out = {}
        for op, t0, t1, dt, rate in self.spans:
            if rate or not rate_only:
                out[op] = out.get(op, 0.0) + dt * self.sampler.scale(t0, t1)
        return out

    def op(self, name, calls, check):
        """Run one operation: ``calls()`` makes the program calls and
        returns their outputs, ``check(outputs)`` returns a list of
        problems.  An exception from the program counts as a failure."""
        self.attempted += 1
        self._op = name
        try:
            out = calls()
        except Exception as exc:  # the program failed: count it, keep going
            self.failed += 1
            print(f"{name}: {type(exc).__name__}: {exc}", file=sys.stderr)
            return None
        finally:
            self._op = self.OUTSIDE
        self.problems += [f"{name}: {p}" for p in check(out)]
        return out


def median_total(per_round) -> float:
    """Sum over operations of the operation's median time over rounds;
    ``per_round`` holds one dict operation -> seconds for each round."""
    keys = set().union(*per_round)
    return sum(statistics.median(times.get(k, 0.0) for times in per_round) for k in keys)


# ---------------------------------------------------------------------------
# profile: exact isoperimetric profiles through run_experiment

PROFILE_CONFIGS = (("Z^2", 9, 8, oracles.zd_neighbours(2)),
                   ("H3", 8, 7, oracles.h3_neighbours()))


def profile_setup(hl, seed):
    # The exact search is deterministic: the seed only reaches the config
    # (and so the manifest), the searched problem is fixed.
    return [{"group": g, "n_max": n, "radius": r, "method": "exact", "seed": seed}
            for g, n, r, _ in PROFILE_CONFIGS]


def profile_round(hl, configs, rnd):
    SCRATCH.mkdir(exist_ok=True)
    artifacts = []
    for cfg in configs:
        out_dir = tempfile.mkdtemp(dir=SCRATCH)
        try:
            def calls():
                rnd.call(hl.experiment.run_experiment, cfg, out_dir)
                return {name: (Path(out_dir) / name).read_bytes()
                        for name in sorted(os.listdir(out_dir))}

            files = rnd.op(f"profile {cfg['group']}", calls, lambda files: [])
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        artifacts.append(files)
        if files is not None:
            rnd.extra["artifact_bytes"] = (rnd.extra.get("artifact_bytes", 0)
                                           + sum(map(len, files.values())))
    SCRATCH.rmdir()
    return artifacts


def _check_profile(cfg, files, sets: oracles.ConnectedSets):
    problems = []
    n_max = cfg["n_max"]
    rows = files["profile.csv"].decode().split("\r\n")
    if rows[0] != "n,value_num,value_den_or_float,method,exact,witness_size":
        return [f"unexpected CSV header {rows[0]!r}"]
    rows = [r.split(",") for r in rows[1:] if r]
    witnesses = json.loads(files["witnesses.json"])
    manifest = json.loads(files["manifest.json"])
    if manifest["seed"] != cfg["seed"] or manifest["warnings"]:
        problems.append(f"manifest seed/warnings: {manifest['seed']}, {manifest['warnings']}")
    if [int(r[0]) for r in rows] != list(range(1, n_max + 1)) or len(witnesses) != n_max:
        return problems + ["profile does not list n = 1..n_max"]
    best_so_far = Fraction(0)
    previous = Fraction(0)
    for (n, num, den, method, exact, wsize), wit in zip(rows, witnesses):
        n = int(n)
        value = Fraction(int(num), int(den))
        best_so_far = max(best_so_far, sets.best[n])
        if not wit.get("A"):
            problems.append(f"n={n}: no witness")
            continue
        A = [tuple(int(c) for c in s.split(",")) for s in wit["A"]]
        identity = (0,) * len(A[0])
        if method != "exact" or exact != "true" or not wit["exact"]:
            problems.append(f"n={n}: not marked exact")
        if value < previous:
            problems.append(f"n={n}: profile decreases")
        if value != best_so_far:
            problems.append(f"n={n}: value {value} != brute force {best_so_far}")
        if identity not in A or not sets.is_connected(A) or len(A) > n:
            problems.append(f"n={n}: witness not connected / missing identity / too big")
        elif sets.boundary_ratio(A) != value or int(wsize) != len(A):
            problems.append(f"n={n}: witness ratio {sets.boundary_ratio(A)} != {value}")
        previous = value
    return problems


def profile_finish(rounds, outputs, configs):
    problems = []
    total = 0
    for i, (cfg, (_g, n_max, _r, (identity, nbrs))) in enumerate(zip(configs, PROFILE_CONFIGS)):
        sets = oracles.ConnectedSets(identity, nbrs, n_max)
        if cfg["group"] == "Z^2":
            marked = [k * a for k, a in enumerate(oracles.A001168[:n_max], 1)]
            if [sets.counts[k] for k in range(1, n_max + 1)] != marked:
                problems.append("Z^2 connected-set counts disagree with A001168")
        total += sets.total()
        runs = [out[i] for out in outputs if out[i] is not None]
        for files in runs:
            if files != runs[0]:
                problems.append(f"{cfg['group']}: artifacts differ between rounds")
        if runs:
            problems += [f"{cfg['group']}: {p}" for p in _check_profile(cfg, runs[0], sets)]
    for rnd in rounds:
        rnd.work = total
    return problems


# ---------------------------------------------------------------------------
# lift: almost-invariant lift and exact p = 1 gradient ratios

LIFT_FAMILIES = ("wreath", "shuffler", "juggler", "designer", "cloner", "upcloner")
LIFT_SUPPORTS = (1, 2, 3)      # delta_0, indicator_01, indicator_02
BLOCK_BUDGET = 10 ** 6


def _halos_over_z(hl):
    Z = hl.groups.ZdGroup(1, False)
    ZLEX = hl.groups.ZdGroup(1, True)
    C2 = hl.groups.CyclicGroup(2)
    make = hl.halo.make_halo
    return {"wreath": make("wreath", C2, Z), "shuffler": make("shuffler", None, Z),
            "juggler": make("juggler", 2, Z), "designer": make("designer", C2, Z),
            "cloner": make("cloner", hl.gf.GF(2), Z),
            "upcloner": make("upcloner", hl.gf.GF(2), ZLEX)}


def lift_setup(hl, seed):
    rng = random.Random(seed)
    _halos_over_z(hl)  # construction belongs to set-up; rounds build their own
    combos = []
    for family in LIFT_FAMILIES:
        for size in LIFT_SUPPORTS:
            # every combo whose block L(V), |V| = |U| + 2, fits the budget
            if oracles.lamp_growth(family, size + 2) > BLOCK_BUDGET:
                continue
            offset = rng.randint(-5, 5)
            scale = Fraction(rng.randint(1, 9), rng.randint(1, 9))
            f = hl.isoperimetry.FiniteFunction(
                {(offset + i,): scale for i in range(size)}, 1)
            combos.append((family, size, f))
    return combos


def lift_round(hl, combos, rnd):
    halos = rnd.call(_halos_over_z, hl)
    iso = hl.isoperimetry
    for family, size, f in combos:
        halo = halos[family]
        lam = oracles.lamp_growth(family, size + 2)

        def calls():
            g = rnd.call(iso.almost_invariant_lift, halo, f)
            return (len(g.entries), rnd.call(iso.gradient_ratio, halo, g),
                    rnd.call(iso.gradient_ratio, halo.base, f))

        def check(out):
            entries, rg, rf = out
            problems = []
            if entries != size * lam:
                problems.append(f"|supp g| = {entries}, expected {size} * {lam}")
            expected = oracles.interval_gradient_ratio(size)
            if not (isinstance(rg, Fraction) and rg == rf == expected):
                problems.append(f"ratios {rg!r}, {rf!r}, expected {expected}")
            if len(halo.generators()) != oracles.GENERATORS_OVER_Z[family]:
                problems.append("unexpected generating set")
            return problems

        rnd.op(f"lift {family}/|U|={size}", calls, check)
        rnd.work += size * lam * oracles.GENERATORS_OVER_Z[family]


# ---------------------------------------------------------------------------
# certify: generator words for block elements, and checked morphisms

GLUING = ("wreath", "shuffler", "juggler", "designer", "cloner")
KIND = {"wreath": "wreath", "shuffler": "shuffler", "juggler": "juggler",
        "designer": "designer", "cloner": "matrix", "upcloner": "matrix"}
GLUING_SITES = [list(c) for k in (1, 2, 3) for c in itertools.combinations(range(-2, 3), k)]
UPCLONER_WINDOW = [(i, j) for i in range(4) for j in range(4)]
UPCLONER_OFFSETS = ((-2, -2), (1, 1))
REFERENCE_SHARE = 10           # one word in this many is re-evaluated by the oracle


def _dominated(a, b):
    return a != b and all(x <= y for x, y in zip(a, b))


def _upcloner_site_sets():
    """Site sets whose pairwise displacements all lie in N^2 (the range
    on which upcloner elements decompose), translated to a few places."""
    chains = [list(c) for k in (2, 3) for c in itertools.combinations(UPCLONER_WINDOW, k)
              if all(_dominated(a, b) for a, b in zip(c, c[1:]))]
    return [[(a + dx, b + dy) for a, b in chain]
            for dx, dy in UPCLONER_OFFSETS for chain in chains]


def _certify_halos(hl):
    halos = _halos_over_z(hl)
    del halos["upcloner"]
    halos["upcloner"] = hl.halo.make_halo("upcloner", hl.gf.GF(2), hl.groups.ZdGroup(2, True))
    return halos


def certify_setup(hl, seed):
    rng = random.Random(seed)
    halos = _certify_halos(hl)
    items = []
    plan = [(f, [(s,) for s in sites]) for f in GLUING for sites in GLUING_SITES]
    plan += [("upcloner", sites) for sites in _upcloner_site_sets()]
    for family, sites in plan:
        halo = halos[family]
        if family == "juggler":
            # The BFS factoring cost of a juggler element varies several-fold
            # with the element, so a random pick among the ten three-site
            # blocks moved the whole round by +-20% between seeds.  Juggler
            # elements are one fixed lamp per site set instead, translated by
            # a seeded offset, which leaves the factoring work unchanged.
            shift = rng.randint(-3, 3)
            sites = [(s + shift,) for (s,) in sites]
        full = [lamp for lamp in hl.halo.enumerate_block(halo, sites)
                if halo.lamp_sites(lamp) == frozenset(sites)]
        if not full:  # e.g. GL(1, 2) is trivial
            continue
        full.sort(key=lambda lamp: oracles.mapping_key(KIND[family], lamp))
        pick = len(full) // 2 if family == "juggler" else rng.randrange(len(full))
        items.append((family, full[pick]))
    reference = set(rng.sample(range(len(items)), len(items) // REFERENCE_SHARE))
    check_seeds = [rng.randrange(2 ** 31) for _ in range(5)]
    return items, reference, check_seeds


def _reference_agrees(halo, kind, word, lamp):
    ref = oracles.ReferenceHalo(kind, 2)
    zero = tuple(0 for _ in halo.base.identity())
    empty = ({}, {}) if kind == "designer" else {}
    gens = [(oracles.lamp_mapping(kind, g), c) for g, c in halo.generators()]
    got = ref.evaluate(word, gens, (empty, zero))
    return got == (oracles.lamp_mapping(kind, lamp), zero)


def certify_round(hl, inputs, rnd):
    items, reference, check_seeds = inputs
    dec = hl.decompose
    halos = rnd.call(_certify_halos, hl)
    for i, (family, lamp) in enumerate(items):
        halo = halos[family]
        kind = KIND[family]
        decompose = dec.decompose_upcloner if family == "upcloner" else dec.decompose_gluing

        def calls():
            word = rnd.call(decompose, halo, lamp)
            return word, rnd.call(dec.evaluate_word, halo, word)

        def check(out):
            word, (got, cursor) = out
            if (oracles.lamp_mapping(kind, got) != oracles.lamp_mapping(kind, lamp)
                    or cursor != halo.base.identity()):
                return ["word does not evaluate to (lamp, 1)"]
            if i in reference and not _reference_agrees(halo, kind, word, lamp):
                return ["reference evaluator disagrees"]
            return []

        out = rnd.op(f"certify {family} #{i}", calls, check)
        if out is not None:
            rnd.work += len(out[0])

    emb = hl.embeddings
    Z = hl.groups.ZdGroup(1, False)
    builders = (lambda: emb.wreath_in_shuffler(Z, emb.coset_system_mZ(2)),
                lambda: emb.shuffler_endomorphism(Z),
                lambda: emb.lamplighter_in_halo("juggler", 2, Z),
                lambda: emb.lamplighter_in_halo("designer", hl.groups.CyclicGroup(2), Z),
                lambda: emb.lamplighter_in_halo("cloner", 3, Z))
    for j, (build, seed) in enumerate(zip(builders, check_seeds)):
        def calls():
            m = rnd.call(build, rate=False)
            return m, rnd.call(m.check, pairs=1000, radius=4, seed=seed, rate=False)

        def check(out):
            m, results = out
            problems = [f"{prop} fails" for prop, (ok, _) in results.items() if not ok]
            if j == 1:
                w = m.not_surjective_witness
                # the doubling endomorphism's image moves even sites only
                if w is None or not any(x[0] % 2 for x in dict(w[0])):
                    problems.append("no valid non-surjectivity witness")
            return problems

        rnd.op(f"morphism #{j}", calls, check)


# ---------------------------------------------------------------------------
# net: separated nets in Z^2, and Y* against the lamplighter graph

NET_RADIUS, NET_D = 7, 1
YSTAR_RADIUS = 3
YSTAR_FAMILIES = ("shuffler", "wreath")


def _greedy_net_l1(d, radius, D):
    """Greedy (D+2)-separated net of the l1 ball, in order of length."""
    net = []
    for p in sorted(oracles.l1_ball(d, radius), key=lambda p: (sum(map(abs, p)), p)):
        if all(oracles.l1(p, x) >= D + 2 for x in net):
            net.append(p)
    return net


def net_setup(hl, seed):
    rng = random.Random(seed)
    hl.groups.ZdGroup(2)  # construction belongs to set-up; rounds build their own
    _halos_over_z(hl)
    return {family: (rng.choice((1, -1)),) for family in YSTAR_FAMILIES}


def _check_net(X0, radius, D):
    X0 = list(X0)
    sep = D + 2
    problems = []
    if any(sum(map(abs, x)) > radius for x in X0):
        problems.append("net point outside the ball")
    if any(oracles.l1(a, b) < sep for a, b in itertools.combinations(X0, 2)):
        problems.append("net not separated")
    if any(all(oracles.l1(p, x) > sep for x in X0)
           for p in oracles.l1_ball(len(X0[0]), radius - sep)):
        problems.append("net not maximal in the interior")
    return problems


def net_round(hl, s0s, rnd):
    lg = hl.lampgraph
    Z2 = rnd.call(hl.groups.ZdGroup, 2)

    def calls():
        net = rnd.call(lg.greedy_net, Z2, NET_RADIUS, NET_D)
        return net, [rnd.call(fn, net) for fn in
                     (lg.net_is_separated, lg.net_is_maximal_in_interior, lg.net_metric_check)]

    def check(out):
        net, verdicts = out
        return (_check_net(net.X0, NET_RADIUS, NET_D)
                + [f"check {i} false" for i, ok in enumerate(verdicts) if ok is not True])

    rnd.op("net Z^2", calls, check)
    interior = [x for x in _greedy_net_l1(2, NET_RADIUS, NET_D)
                if sum(map(abs, x)) <= NET_RADIUS - NET_D - 2]
    rnd.work += len(interior) * (len(interior) - 1)

    halos = rnd.call(_halos_over_z, hl, rate=False)
    Z = hl.groups.ZdGroup(1, False)
    for family in YSTAR_FAMILIES:
        halo = halos[family]
        k = oracles.lamp_growth(family, 2)

        def calls():
            net = rnd.call(lg.greedy_net, Z, YSTAR_RADIUS, NET_D, rate=False)
            Y = rnd.call(lg.build_Ystar, halo, net, s0s[family], YSTAR_RADIUS, rate=False)
            m = len(net.X0)
            ok, mapping = rnd.call(lg.check_iso_to_lamplighter, Y, lg.complete_graph(k),
                                   lg.complete_graph(m), rate=False)
            return net, Y, ok, mapping

        def check(out):
            net, Y, ok, mapping = out
            m = len(net.X0)
            problems = _check_net(net.X0, YSTAR_RADIUS, NET_D)
            if (len(Y.vertices), len(Y.edges)) != oracles.ystar_counts(
                    k, list(net.X0), 2 * NET_D + 5):
                problems.append(f"Y* has {len(Y.vertices)} vertices, {len(Y.edges)} edges")
            # the target graph, checked by its own counts before use
            L = lg.lamplighter_graph(lg.complete_graph(k), lg.complete_graph(m), m).graph
            nv, ne, deg = oracles.lamplighter_counts(k, m)
            adj = L.adjacency
            if (len(L.vertices), len(L.edges)) != (nv, ne) or any(
                    len(adj[v]) != deg for v in L.vertices):
                problems.append("lamplighter graph has the wrong shape")
            if not ok or not oracles.verify_isomorphism(mapping, Y.vertices, Y.edges,
                                                            L.vertices, L.edges):
                problems.append("isomorphism not verified")
            return problems

        rnd.op(f"ystar {family}", calls, check)


def _no_finish(rounds, outputs, inputs):
    return []


WORKLOADS = {
    "profile": (profile_setup, profile_round, profile_finish),
    "lift": (lift_setup, lift_round, _no_finish),
    "certify": (certify_setup, certify_round, _no_finish),
    "net": (net_setup, net_round, _no_finish),
}


def timed_setup(name, seed):
    """Import halolab, build the groups and halos, generate the inputs;
    returns (halolab namespace, inputs, seconds at the reference host
    speed)."""
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        t0 = time.perf_counter()
        stolen = sampler.stolen
        hl = import_halolab()
        inputs = WORKLOADS[name][0](hl, seed)
        t1 = time.perf_counter()
    finally:
        sampler.stop()
    return hl, inputs, (t1 - t0 - (sampler.stolen - stolen)) * sampler.scale(t0, t1)
