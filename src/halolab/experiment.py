"""Reproducible experiment driver: config in, artifact directory out.

Artifacts: config.json (normalized copy), profile.csv (RFC 4180, header
row, CRLF line endings), witnesses.json, manifest.json (seed, versions,
warnings), and optionally plot.svg.  Reruns with the same config are
byte-identical.
"""
from __future__ import annotations

import csv
import json
import math
import os
import platform
from typing import Any, Dict, List, Sequence

from . import __version__
from .bounds import (bound_report, identity_bound, iterated_log,
                     log_over_loglog, power)
from .errors import ContractViolation
from .groups import make_group
from .isoperimetry import ProfilePoint, profile_exact, profile_heuristic

_REQUIRED = object()

_SCHEMA = {
    "group": (str, _REQUIRED),
    "p": ((int, float), 1),
    "n_max": (int, _REQUIRED),
    "method": (str, "exact"),
    "radius": (int, None),
    "seed": (int, 0),
    "steps": (int, 2000),
    "budget": (int, 2 * 10 ** 6),
    "bounds": (list, []),
    "plot": (bool, False),
}

_BOUND_NAMES = {
    "x": identity_bound,
    "sqrt": lambda: power(0.5),
    "ln": lambda: iterated_log(1),
    "lnln": lambda: iterated_log(2),
    "ln/lnln": log_over_loglog,
}


def _validate(config: Dict) -> Dict:
    out = {}
    for key, (typ, default) in _SCHEMA.items():
        if key in config and config[key] is not None:
            v = config[key]
            if typ is not bool and isinstance(v, bool) or not isinstance(v, typ):
                raise ContractViolation(
                    f"config field '{key}': expected {typ}, got {type(v).__name__}")
            out[key] = v
        elif default is _REQUIRED:
            raise ContractViolation(f"config field '{key}': required")
        else:
            out[key] = default
    for key in config:
        if key not in _SCHEMA:
            raise ContractViolation(f"config field '{key}': unknown")
    for key in ("n_max", "budget"):
        if out[key] < 1:
            raise ContractViolation(f"config field '{key}': must be >= 1")
    if not out["p"] >= 1:
        raise ContractViolation("config field 'p': must be >= 1")
    if out["method"] not in ("exact", "greedy", "anneal"):
        raise ContractViolation("config field 'method': must be exact|greedy|anneal")
    for b in out["bounds"]:
        if b not in _BOUND_NAMES:
            raise ContractViolation(
                f"config field 'bounds': unknown bound {b!r}; "
                f"known: {sorted(_BOUND_NAMES)}")
    if out["radius"] is None:
        out["radius"] = out["n_max"] - 1
    return out


def _csv_row(pt: ProfilePoint) -> List[str]:
    if pt.value is None:
        num, den = "", "inf"
    else:
        num, den = str(pt.value.numerator), str(pt.value.denominator)
    return [str(pt.n), num, den, pt.method, str(pt.exact).lower(), str(len(pt.witness.A))]


def write_profile_csv(path: str, points: Sequence[ProfilePoint]) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh, dialect="excel")  # RFC 4180: CRLF, quoting as needed
        w.writerow(["n", "value_num", "value_den_or_float", "method",
                    "exact", "witness_size"])
        for pt in points:
            w.writerow(_csv_row(pt))


def _witness_json(group, pt: ProfilePoint) -> Dict[str, Any]:
    return {"n": pt.n, "method": pt.method, "exact": pt.exact,
            "A": sorted(group.element_str(g) for g in pt.witness.A),
            "boundary_size": len(pt.witness.boundary)}


def _plot_svg(points: Sequence[ProfilePoint], fits) -> str:
    """Minimal log-log polyline plot, no external dependencies."""
    data = [(pt.n, pt.value_float) for pt in points
            if pt.value is not None and pt.value_float > 0]
    if not data:
        return "<svg xmlns='http://www.w3.org/2000/svg' width='480' height='320'/>"
    W, H, M = 480, 320, 40
    lx = [math.log(n) for n, _ in data]
    ly = [math.log(v) for _, v in data]
    x0, x1 = min(lx), max(lx) or 1.0
    y0, y1 = min(ly), max(ly)
    if x1 == x0:
        x1 = x0 + 1
    if y1 == y0:
        y1 = y0 + 1

    def sx(x):
        return M + (x - x0) / (x1 - x0) * (W - 2 * M)

    def sy(y):
        return H - M - (y - y0) / (y1 - y0) * (H - 2 * M)

    pts = " ".join(f"{sx(a):.2f},{sy(b):.2f}" for a, b in zip(lx, ly))
    lines = [f"<svg xmlns='http://www.w3.org/2000/svg' width='{W}' height='{H}'>",
             f"<rect width='{W}' height='{H}' fill='white'/>",
             f"<polyline points='{pts}' fill='none' stroke='black' stroke-width='1.5'/>"]
    for fit, bexpr in fits:
        fpts = []
        for n, _ in data:
            if fit.dilation * n < bexpr.domain_min:
                continue
            v = fit.c * bexpr(fit.dilation * n)
            if v > 0:
                fpts.append(f"{sx(math.log(n)):.2f},{sy(math.log(v)):.2f}")
        if fpts:
            lines.append(f"<polyline points='{' '.join(fpts)}' fill='none' "
                         f"stroke='gray' stroke-dasharray='4 3'/>")
    lines.append(f"<text x='{M}' y='{H - 8}' font-size='11'>"
                 f"log n vs log value (profile solid, fitted bounds dashed)</text>")
    lines.append("</svg>")
    return "\n".join(lines)


def run_experiment(config: Dict, out_dir: str) -> Dict[str, Any]:
    """Run one experiment stanza; returns the manifest dict."""
    cfg = _validate(dict(config))
    group = make_group(cfg["group"])

    warnings: List[str] = []
    if cfg["p"] != 1:
        warnings.append(f"{cfg['method']} search optimizes the p=1 profile; "
                        "p is recorded but ignored")
    if cfg["method"] == "exact":
        points = profile_exact(group, cfg["n_max"], cfg["radius"],
                               budget=cfg["budget"])
        if points and not points[-1].exact:
            warnings.append("search budget or window truncated the exact "
                            "search; every point marked exact=false, "
                            "values are lower bounds")
    else:
        points = profile_heuristic(group, cfg["n_max"], cfg["method"],
                                   seed=cfg["seed"], steps=cfg["steps"])

    # Only now: a config rejected above leaves no directory behind.
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "config.json"), "w") as fh:
        json.dump(cfg, fh, indent=1, sort_keys=True)
    write_profile_csv(os.path.join(out_dir, "profile.csv"), points)
    with open(os.path.join(out_dir, "witnesses.json"), "w") as fh:
        json.dump([_witness_json(group, pt) for pt in points], fh,
                  indent=1, sort_keys=True)

    fit_rows = []
    if cfg["bounds"]:
        bexprs = [(name, _BOUND_NAMES[name]()) for name in cfg["bounds"]]
        fits = bound_report(points, [b for _, b in bexprs])
        fit_rows = [fit.__dict__ for fit in fits]
        with open(os.path.join(out_dir, "bounds.json"), "w") as fh:
            json.dump(fit_rows, fh, indent=1, sort_keys=True)
        if cfg["plot"]:
            paired = list(zip(fits, [b for _, b in bexprs]))
            svg = _plot_svg(points, paired)
            with open(os.path.join(out_dir, "plot.svg"), "w") as fh:
                fh.write(svg)
    elif cfg["plot"]:
        with open(os.path.join(out_dir, "plot.svg"), "w") as fh:
            fh.write(_plot_svg(points, []))

    manifest = {
        "seed": cfg["seed"],
        "group": cfg["group"],
        "method": cfg["method"],
        "versions": {"halolab": __version__,
                     "python": platform.python_version()},
        "warnings": sorted(warnings),
        "artifacts": sorted(os.listdir(out_dir) + ["manifest.json"]),
    }
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, indent=1, sort_keys=True)
    return manifest


def load_config(path: str) -> Dict:
    """JSON config, or simple `key = value` lines (value parsed as JSON)."""
    with open(path) as fh:
        text = fh.read()
    stripped = text.lstrip()
    if stripped.startswith("{"):
        return json.loads(text)
    out: Dict[str, Any] = {}
    for lineno, line in enumerate(text.splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ContractViolation(f"config line {lineno}: expected key = value")
        key, _, value = line.partition("=")
        try:
            out[key.strip()] = json.loads(value.strip())
        except json.JSONDecodeError:
            out[key.strip()] = value.strip()
    return out
