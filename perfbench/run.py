"""halolab benchmark: one workload per process, one JSON result line.

    python3 perfbench/run.py --workload {profile,lift,certify,net,all}
                             --seed N --seconds S --trace {0,1}

The run sets up (import, groups and halos, seeded inputs), then repeats
whole rounds of the workload until S seconds have passed, checking every
output.  With --trace 0 it reports the end-to-end metrics; with --trace 1
it then runs one more round with every public halolab function wrapped
and reports the per-layer metrics.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
See perfbench/README.md for the workloads, metrics and reference figures.
"""
from __future__ import annotations

import argparse
import inspect
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed
import spans
import workloads

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 9      # set-ups per run, each in a fresh interpreter but the first
PROBE_TIMEOUT_S = 60


def _setup_probe(name: str, seed: int) -> float:
    code = ("import sys; sys.path.insert(0, sys.argv[1]); import workloads; "
            "print(workloads.timed_setup(sys.argv[2], int(sys.argv[3]))[2])")
    out = subprocess.run([sys.executable, "-c", code, str(HERE), name, str(seed)],
                         cwd=workloads.ROOT, capture_output=True, text=True,
                         timeout=PROBE_TIMEOUT_S, check=True)
    return float(out.stdout.strip().splitlines()[-1])


def _pairs_sampled(args, kwargs, result):
    from halolab.embeddings import GroupMorphism

    bound = inspect.signature(GroupMorphism.homomorphism_counterexample.__wrapped__).bind(
        *args, **kwargs)
    bound.apply_defaults()
    return bound.arguments["pairs"]


MEASURES = {
    "halo.enumerate_block": lambda a, k, r: len(r),
    "decompose.decompose_gluing": lambda a, k, r: len(r),
    "decompose.decompose_upcloner": lambda a, k, r: len(r),
    "lampgraph.build_Ystar": lambda a, k, r: len(r.vertices),
    "embeddings.GroupMorphism.homomorphism_counterexample": _pairs_sampled,
}


def per_layer_metrics(t: spans.Tracer, traced: workloads.Round, untraced_wall: float):
    us = 1e-3
    m = {
        "groups.multiply_calls": (t.calls("groups", "multiply"), "count"),
        "groups.multiply_ns": (t.self_per_call_ns("groups", "multiply"), "ns"),
        "groups.ball_calls": (t.calls("groups", "ball"), "count"),
        "groups.ball_s": (t.inclusive_s("groups", "ball"), "s"),
        "halo.multiply_calls": (t.calls("halo", "multiply"), "count"),
        "halo.multiply_us": (t.self_per_call_ns("halo", "multiply") * us, "us"),
        "halo.lamp_compose_calls": (t.calls("halo", "lamp_compose"), "count"),
        "halo.lamp_compose_us": (t.self_per_call_ns("halo", "lamp_compose") * us, "us"),
        "halo.enumerate_block_s": (t.inclusive_s("halo", "enumerate_block"), "s"),
        "halo.block_elements": (t.extra("halo", "enumerate_block"), "count"),
        "isoperimetry.boundary_calls": (t.calls("isoperimetry", "boundary"), "count"),
        "isoperimetry.boundary_us": (t.self_per_call_ns("isoperimetry", "boundary") * us, "us"),
        "isoperimetry.profile_exact_s": (t.inclusive_s("isoperimetry", "profile_exact"), "s"),
        "isoperimetry.almost_invariant_lift_s":
            (t.inclusive_s("isoperimetry", "almost_invariant_lift"), "s"),
        "isoperimetry.gradient_ratio_s": (t.inclusive_s("isoperimetry", "gradient_ratio"), "s"),
        "decompose.words": (t.calls("decompose", "decompose_gluing")
                            + t.calls("decompose", "decompose_upcloner"), "count"),
        "decompose.letters": (t.extra("decompose", "decompose_gluing")
                              + t.extra("decompose", "decompose_upcloner"), "count"),
        "decompose.decompose_s": (t.inclusive_s("decompose", "decompose_gluing")
                                  + t.inclusive_s("decompose", "decompose_upcloner"), "s"),
        "decompose.evaluate_word_s": (t.inclusive_s("decompose", "evaluate_word"), "s"),
        "embeddings.check_s": (t.inclusive_s("embeddings", "check"), "s"),
        "embeddings.pairs_checked":
            (t.extra("embeddings", "homomorphism_counterexample"), "count"),
        "lampgraph.greedy_net_s": (t.inclusive_s("lampgraph", "greedy_net"), "s"),
        "lampgraph.net_metric_check_s": (t.inclusive_s("lampgraph", "net_metric_check"), "s"),
        "lampgraph.build_Ystar_s": (t.inclusive_s("lampgraph", "build_Ystar"), "s"),
        "lampgraph.graph_isomorphism_s": (t.inclusive_s("lampgraph", "graph_isomorphism"), "s"),
        "lampgraph.ystar_vertices": (t.extra("lampgraph", "build_Ystar"), "count"),
        "experiment.self_s": (t.inclusive_s("experiment", "run_experiment")
                              - t.inclusive_s("isoperimetry", "profile_exact"), "s"),
        "experiment.artifact_bytes": (traced.extra.get("artifact_bytes", 0), "bytes"),
        "run.wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (sum(traced.wall.values()) - untraced_wall, "s"),
    }
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    _setup, round_fn, finish_fn = workloads.WORKLOADS[name]
    hl, inputs, first_setup = workloads.timed_setup(name, seed)
    setup_times = [first_setup] + [_setup_probe(name, seed)
                                   for _ in range(SETUP_SAMPLES - 1)]

    rounds, outputs = [], []
    sampler = hostspeed.Sampler()
    sampler.start()
    try:
        start = time.perf_counter()
        while not rounds or time.perf_counter() - start < seconds:
            rnd = workloads.Round(sampler)
            outputs.append(round_fn(hl, inputs, rnd))
            rounds.append(rnd)
    finally:
        sampler.stop()
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    traced = None
    if trace:
        tracer = spans.Tracer([getattr(hl, layer) for layer in workloads.LAYERS], MEASURES)
        traced = workloads.Round()
        tracer.install()
        try:
            outputs.append(round_fn(hl, inputs, traced))
        finally:
            tracer.uninstall()
        print("\n".join(tracer.report()), file=sys.stderr)

    every = rounds + ([traced] if traced else [])
    problems = [p for rnd in every for p in rnd.problems]
    problems += finish_fn(every, outputs, inputs)
    for p in problems[:20]:
        print(f"CHECK FAILED {p}", file=sys.stderr)

    wall = workloads.median_total([rnd.wall for rnd in rounds])
    if trace:
        metrics = per_layer_metrics(tracer, traced, wall)
    else:
        ref_rate_time = workloads.median_total([rnd.scaled(rate_only=True) for rnd in rounds])
        metrics = {
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "ref_wall_s": {"value": workloads.median_total([rnd.scaled() for rnd in rounds]),
                           "unit": "s"},
            "peak_rss_mib": {"value": peak_rss_mib, "unit": "MiB"},
            "ref_work_per_s": {"value": rounds[0].work / ref_rate_time, "unit": "1/s"},
        }
    return {"correct": not problems,
            "attempted": sum(rnd.attempted for rnd in every),
            "failed": sum(rnd.failed for rnd in every),
            "metrics": metrics}


def run_all(args) -> int:
    """Every workload in its own fresh process; one combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in workloads.WORKLOADS:
        proc = subprocess.run([sys.executable, str(HERE / "run.py"), "--workload", name,
                               "--seed", str(args.seed), "--seconds", str(args.seconds),
                               "--trace", str(args.trace)],
                              capture_output=True, text=True, check=False)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0 or not proc.stdout.strip():
            print(f"workload {name} exited with {proc.returncode}", file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        print(f"{name}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} " + " ".join(
                  f"{k}={v['value']:.6g} {v['unit']}" for k, v in result["metrics"].items()))
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for k, v in result["metrics"].items():
            combined["metrics"][f"{name}.{k}"] = v
    print(json.dumps(combined))
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload == "all":
        return run_all(args)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (FileNotFoundError, ImportError) as exc:
        print(f"cannot run the benchmark: {exc}", file=sys.stderr)
        return 2
    for k, v in result["metrics"].items():
        print(f"{k} = {v['value']:.6g} {v['unit']}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
