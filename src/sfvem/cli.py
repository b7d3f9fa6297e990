"""Batch command line front-end.

Subcommands map one-to-one onto the experiment artifacts: generate-mesh
writes a mesh file, check-polygon the stability audit CSV, solve a nodal
solution CSV, convergence (and its both-methods alias compare) the error
table, rate summary, and a dependency-free SVG log-log plot. All outputs
are bit-reproducible from the flags and seed. Configuration comes from
defaults, then an optional key=value file, then flags (flags win).
"""
from __future__ import annotations

import argparse
import logging
import math
import os
import sys
from dataclasses import dataclass, fields, replace

import numpy as np

from . import analysis
from .element import effective_ell
from .errors import SfvemError
from .geometry import is_simple, signed_area
from .mesh import (
    CatalogPolygon,
    generate_distorted_grid,
    generate_voronoi,
    read_mesh,
    write_mesh,
)
from .poly import build_benchmark_coefficients, bubble_problem, poisson_problem
from .system import assemble, solve, write_solution_csv

log = logging.getLogger(__name__)

# a rule-compliant audit passes when the constants are its only kernel
# (sigma_min/sigma_max at most KERNEL_THRESHOLD) and the rank margin
# sigma_r/sigma_max is at least AUDIT_THRESHOLD
AUDIT_THRESHOLD = 1e-8
KERNEL_THRESHOLD = 1e-11


@dataclass(frozen=True)
class RunConfig:
    """Resolved parameters of one CLI invocation."""

    mesh: str | None = None
    generator: str = "grid"
    n: int = 16
    seeds: int = 64
    delta: float = 0.3
    distortion: float = 0.25
    lloyd_iters: int = 3
    seed: int = 42
    method: str = "both"
    ell_offset: int = 0
    theta: float = math.pi / 6
    r1: float = 0.9
    r2: float = 0.3
    levels: tuple = (8, 16, 32, 64)
    out: str = "."
    problem: str = "benchmark"
    polygon: str | None = None

    def validate(self):
        if self.generator not in ("grid", "voronoi"):
            raise ValueError(f"generator must be grid or voronoi, got {self.generator!r}")
        if self.method not in ("sfvem", "vem", "both"):
            raise ValueError(f"method must be sfvem, vem, or both, got {self.method!r}")
        if self.problem not in ("benchmark", "poisson", "bubble"):
            raise ValueError(f"unknown problem {self.problem!r}")
        if self.n < 1 or self.seeds < 1 or self.lloyd_iters < 0:
            raise ValueError("n and seeds must be >= 1, lloyd-iters >= 0")
        if not 0.0 <= self.delta < 0.5:
            raise ValueError(f"delta must lie in [0, 0.5), got {self.delta}")
        if not 0.0 <= self.distortion < 1.0:
            raise ValueError(f"distortion must lie in [0, 1), got {self.distortion}")
        if not (0.0 <= self.r1 <= 1.0 and 0.0 <= self.r2 <= 1.0):
            raise ValueError("r1 and r2 must lie in [0, 1]")
        if not self.levels or any(n < 1 for n in self.levels):
            raise ValueError("levels must be positive integers")


def _parse_levels(text: str) -> tuple:
    try:
        return tuple(int(t) for t in text.replace(",", " ").split())
    except ValueError:
        raise ValueError(f"levels must be a comma-separated integer list, got {text!r}") from None


def _read_config_file(path: str) -> dict:
    out = {}
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{ln}: expected key=value")
            key, value = (s.strip() for s in line.split("=", 1))
            key = key.replace("-", "_")
            if key == "levels":
                out[key] = _parse_levels(value)
            else:
                out[key] = _FLAGS.get(key, {}).get("type", str)(value)
    return out


class _Parser(argparse.ArgumentParser):
    # input errors exit 1; argparse's default of 2 is reserved for audit failures
    def error(self, message):
        self.print_usage(sys.stderr)
        raise _UsageError(message)


class _UsageError(SystemExit):
    def __init__(self, message):
        print(f"error: {message}", file=sys.stderr)
        super().__init__(1)


# every flag, in --help order; each subcommand registers only those it reads
_FLAGS = {
    "mesh": dict(help="mesh file (overrides the generator)"),
    "generator": dict(choices=["grid", "voronoi"]),
    "n": dict(type=int, help="grid cells per side"),
    "seeds": dict(type=int, help="voronoi seed count"),
    "delta": dict(type=float, help="grid distortion fraction"),
    "distortion": dict(type=float, help="voronoi vertex distortion"),
    "lloyd_iters": dict(type=int, help="voronoi relaxation sweeps"),
    "seed": dict(type=int, help="RNG seed"),
    "method": dict(choices=["sfvem", "vem", "both"]),
    "ell_offset": dict(type=int,
                       help="added to the per-cell degree rule (may be negative)"),
    "theta": dict(type=float, help="diffusion rotation angle"),
    "r1": dict(type=float, help="benchmark parameter R1"),
    "r2": dict(type=float, help="benchmark parameter R2"),
    "levels": dict(help="comma-separated refinement levels"),
    "out": dict(help="output directory"),
    "problem": dict(choices=["benchmark", "poisson", "bubble"]),
    "polygon": dict(help="polygon file (one 'x y' pair per line, CCW)"),
}
_MESH_FLAGS = {"mesh", "generator", "n", "seeds", "delta", "distortion",
               "lloyd_iters", "seed", "out"}
_PROBLEM_FLAGS = {"problem", "theta", "r1", "r2"}
_STUDY_FLAGS = ((_MESH_FLAGS - {"mesh", "n", "seeds"}) | _PROBLEM_FLAGS
                | {"levels", "ell_offset"})


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="sfvem",
                     description="Stabilization-free virtual element experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", help="key=value file; flags override it")
        for flag, kwargs in _FLAGS.items():
            if flag in flags:
                p.add_argument("--" + flag.replace("_", "-"), **kwargs)

    add("generate-mesh", "write a mesh file for the chosen generator",
        _MESH_FLAGS)
    add("check-polygon", "run the spectral stability audit",
        {"polygon", "ell_offset", "out"})
    add("solve", "assemble and solve once, export the nodal solution",
        _MESH_FLAGS | _PROBLEM_FLAGS | {"method", "ell_offset"})
    add("convergence", "refinement study with error table, rates, and plot",
        _STUDY_FLAGS | {"method"})
    add("compare", "convergence with both methods forced", _STUDY_FLAGS)
    return parser


def _resolve_config(args: argparse.Namespace) -> RunConfig:
    config = RunConfig()
    if args.config:
        file_values = _read_config_file(args.config)
        unknown = set(file_values) - {f.name for f in fields(RunConfig)}
        if unknown:
            raise ValueError(f"{args.config}: unknown keys {sorted(unknown)}")
        config = replace(config, **file_values)
    flag_values = {}
    for f in fields(RunConfig):
        value = getattr(args, f.name, None)
        if value is not None:
            flag_values[f.name] = value
    if "levels" in flag_values:
        flag_values["levels"] = _parse_levels(flag_values["levels"])
    config = replace(config, **flag_values)
    if args.command == "compare":
        config = replace(config, method="both")
    config.validate()
    return config


def _make_problem(config: RunConfig):
    if config.problem == "benchmark":
        return build_benchmark_coefficients(config.r1, config.r2, config.theta)
    if config.problem == "poisson":
        return poisson_problem()
    return bubble_problem()


def _load_or_generate_mesh(config: RunConfig):
    if config.mesh is not None:
        return read_mesh(config.mesh)
    if config.generator == "grid":
        return generate_distorted_grid(config.n, config.delta, config.seed)
    return generate_voronoi(config.seeds, config.lloyd_iters, config.seed,
                            config.distortion)


def _outpath(config: RunConfig, name: str) -> str:
    os.makedirs(config.out, exist_ok=True)
    return os.path.join(config.out, name)


# ---------------------------------------------------------------------------
# subcommands


def cmd_generate_mesh(config: RunConfig) -> int:
    mesh = _load_or_generate_mesh(config)
    path = _outpath(config, "mesh.txt")
    write_mesh(mesh, path)
    print(f"wrote {path}: {mesh.n_vertices} vertices, {mesh.n_cells} cells, "
          f"{len(mesh.boundary_vertices)} boundary vertices")
    return 0


def _read_polygon_file(path: str) -> CatalogPolygon:
    points = []
    with open(path, "r", encoding="utf-8") as fh:
        for ln, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise ValueError(f"{path}:{ln}: expected 'x y'")
            try:
                x, y = float(parts[0]), float(parts[1])
            except ValueError:
                raise ValueError(f"{path}:{ln}: bad coordinate") from None
            if not (math.isfinite(x) and math.isfinite(y)):
                raise ValueError(f"{path}:{ln}: non-finite coordinate")
            points.append([x, y])
    pts = np.asarray(points, dtype=float)
    if len(pts) < 3:
        raise ValueError(f"{path}: polygon needs at least 3 vertices")
    if signed_area(pts) <= 0.0:
        raise ValueError(f"{path}: vertices must be counterclockwise")
    if not is_simple(pts):
        raise ValueError(f"{path}: polygon is self-intersecting")
    name = os.path.splitext(os.path.basename(path))[0]
    return CatalogPolygon(name, pts)


def cmd_check_polygon(config: RunConfig) -> int:
    if config.polygon is not None:
        poly = _read_polygon_file(config.polygon)
        ell = effective_ell(poly.n_vertices, config.ell_offset)
        audits = [analysis.spectral_audit(poly, ell)]
    else:
        audits = analysis.audit_catalog(config.ell_offset)
    path = _outpath(config, "audit.csv")
    analysis.write_audit_csv(audits, path)

    failed = 0
    for audit in audits:
        compliant = audit.ell >= effective_ell(audit.n_vertices)
        kernel = audit.sigma_min / audit.sigma_max
        ok = (kernel <= KERNEL_THRESHOLD
              and audit.sigma_r_over_max >= AUDIT_THRESHOLD)
        marker = ""
        if not ok:
            marker = (f"  sigma_min/sigma_max={kernel:9.3e}"
                      + ("  [FAIL]" if compliant else "  [below rule, exploratory]"))
        print(f"{audit.name:16s} N={audit.n_vertices:2d} ell={audit.ell:2d} "
              f"sigma_r/sigma_max={audit.sigma_r_over_max:9.3e}{marker}")
        if not ok:
            if compliant:
                failed += 1
            else:
                print(f"warning: {audit.name} (N={audit.n_vertices}) ran below "
                      f"the degree rule; instability is expected", file=sys.stderr)
    print(f"wrote {path}")
    if failed:
        print(f"error: {failed} rule-compliant polygon(s) failed the audit: "
              f"sigma_min/sigma_max above {KERNEL_THRESHOLD:g} or "
              f"sigma_r/sigma_max fell below {AUDIT_THRESHOLD:g}", file=sys.stderr)
        return 2
    return 0


def cmd_solve(config: RunConfig) -> int:
    mesh = _load_or_generate_mesh(config)
    spec = _make_problem(config)
    method = config.method if config.method != "both" else "sfvem"
    system = assemble(mesh, spec, method, config.ell_offset)
    solution = solve(system)
    path = _outpath(config, "solution.csv")
    write_solution_csv(solution, path)
    print(f"wrote {path}: {mesh.n_vertices} rows, method={method}, "
          f"residual={solution.residual:.3e}")
    return 0


def cmd_convergence(config: RunConfig) -> int:
    spec = _make_problem(config)
    if spec.exact_u is None:
        raise ValueError(f"problem {config.problem!r} has no exact solution "
                         f"to measure errors against")
    methods = ("sfvem", "vem") if config.method == "both" else (config.method,)
    path = _outpath(config, "convergence.csv")
    # stream the CSV so partial results survive a failed level
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(analysis.CONVERGENCE_HEADER + "\n")
        fh.flush()

        def flush_record(record):
            fh.write(analysis.convergence_row(record) + "\n")
            fh.flush()
            errs = " ".join(
                f"e0_{m}={getattr(record, f'e0_{m}'):.4e} "
                f"e1_{m}={getattr(record, f'e1_{m}'):.4e}"
                for m in methods
            )
            print(f"level {record.level}: h={record.h:.4e} "
                  f"ndof={record.ndof} {errs}")

        records = analysis.convergence_study(
            spec, config.levels, generator=config.generator,
            delta=config.delta, seed=config.seed,
            lloyd_iters=config.lloyd_iters, distortion=config.distortion,
            ell_offset=config.ell_offset, methods=methods,
            on_record=flush_record,
        )
    print(f"wrote {path}")
    if len(records) < 2:
        print("single level: rate fitting skipped")
        return 0
    rates = analysis.fit_rates(records)
    for method, (a0, a1) in rates.items():
        print(f"{method}: alpha0={a0:.3f} alpha1={a1:.3f}")
    svg = _outpath(config, "convergence.svg")
    _write_loglog_svg(records, rates, methods, svg)
    print(f"wrote {svg}")
    return 0


# ---------------------------------------------------------------------------
# minimal SVG log-log plot (CSV stays the authoritative artifact)

_SERIES_STYLE = {
    ("sfvem", 0): ("#1f77b4", "none"),
    ("sfvem", 1): ("#d62728", "none"),
    ("vem", 0): ("#1f77b4", "6 4"),
    ("vem", 1): ("#d62728", "6 4"),
}


def _write_loglog_svg(records, rates, methods, path,
                      width=640, height=480, margin=70):
    xs = np.log10([r.h for r in records])
    series = []
    for method in methods:
        if method not in rates:
            continue
        for which in (0, 1):
            errs = [getattr(r, f"e{which}_{method}") for r in records]
            ys = np.log10(errs)
            rate = rates[method][which]
            color, dash = _SERIES_STYLE[(method, which)]
            series.append((f"e{which} {method} (rate {rate:.2f})",
                           ys, color, dash))
    ally = np.concatenate([s[1] for s in series])
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ally.min()), float(ally.max())
    xpad = 0.05 * (x1 - x0 or 1.0)
    ypad = 0.05 * (y1 - y0 or 1.0)
    x0, x1 = x0 - xpad, x1 + xpad
    y0, y1 = y0 - ypad, y1 + ypad
    pw, ph = width - 2 * margin, height - 2 * margin

    def px(x):
        return margin + (x - x0) / (x1 - x0) * pw

    def py(y):
        return height - margin - (y - y0) / (y1 - y0) * ph

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
        f'height="{height}" viewBox="0 0 {width} {height}">',
        f'<rect width="{width}" height="{height}" fill="white"/>',
        f'<rect x="{margin}" y="{margin}" width="{pw}" height="{ph}" '
        f'fill="none" stroke="black"/>',
        f'<text x="{width / 2:.1f}" y="{height - 15}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14">log10 h</text>',
        f'<text x="20" y="{height / 2:.1f}" text-anchor="middle" '
        f'font-family="sans-serif" font-size="14" '
        f'transform="rotate(-90 20 {height / 2:.1f})">log10 error</text>',
    ]
    for r, x in zip(records, xs):
        parts.append(
            f'<line x1="{px(x):.2f}" y1="{height - margin}" '
            f'x2="{px(x):.2f}" y2="{height - margin + 6}" stroke="black"/>')
        parts.append(
            f'<text x="{px(x):.2f}" y="{height - margin + 20}" '
            f'text-anchor="middle" font-family="sans-serif" font-size="11">'
            f'{r.h:.3g}</text>')
    for ytick in np.linspace(y0 + ypad, y1 - ypad, 5):
        parts.append(
            f'<line x1="{margin - 6}" y1="{py(ytick):.2f}" x2="{margin}" '
            f'y2="{py(ytick):.2f}" stroke="black"/>')
        parts.append(
            f'<text x="{margin - 10}" y="{py(ytick) + 4:.2f}" '
            f'text-anchor="end" font-family="sans-serif" font-size="11">'
            f'{ytick:.2f}</text>')
    for label, ys, color, dash in series:
        pts = " ".join(f"{px(x):.2f},{py(y):.2f}" for x, y in zip(xs, ys))
        dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        for x, y in zip(xs, ys):
            parts.append(f'<circle cx="{px(x):.2f}" cy="{py(y):.2f}" r="3" '
                         f'fill="{color}"/>')
    ly = margin + 16
    for label, _, color, dash in series:
        dash_attr = f' stroke-dasharray="{dash}"' if dash != "none" else ""
        parts.append(f'<line x1="{width - margin - 180}" y1="{ly}" '
                     f'x2="{width - margin - 150}" y2="{ly}" '
                     f'stroke="{color}" stroke-width="1.5"{dash_attr}/>')
        parts.append(f'<text x="{width - margin - 144}" y="{ly + 4}" '
                     f'font-family="sans-serif" font-size="12">{label}</text>')
        ly += 18
    parts.append("</svg>")
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


# ---------------------------------------------------------------------------

_COMMANDS = {
    "generate-mesh": cmd_generate_mesh,
    "check-polygon": cmd_check_polygon,
    "solve": cmd_solve,
    "convergence": cmd_convergence,
    "compare": cmd_convergence,
}


def main(argv=None) -> int:
    logging.basicConfig(format="%(levelname)s %(name)s: %(message)s")
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        config = _resolve_config(args)
        return _COMMANDS[args.command](config)
    except _UsageError as exc:
        return exc.code
    except (SfvemError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
