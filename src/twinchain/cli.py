"""Experiment driver: relax interface states, sweep sizes, estimate layers.

Subcommands
    minimize   relax the kinked chain for each n and write full reports
    scan       tabulate total and rescaled energies across n
    layers     boundary/internal layer estimates and the K=3 composition
    diagnose   threshold census and good-row selection on relaxed states
    fit-decay  exponential fit of the deviation between two snapshots

Every output file embeds the resolved configuration, values are written
with 17 significant digits, and identical configurations produce
bit-identical files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from .analysis import (GoodLines, classify, deviation_profile, find_good_lines,
                       fit_exponential, interface_positions,
                       save_classification, save_profile)
from .energy import (chain_energy, default_jump_threshold,
                     local_energy_threshold_census, save_breakdown)
from .gamma import (CLAMP_RATIO, LayerSpec, estimate_EK, estimate_layer,
                    save_layer_estimates)
from .lattice import load_chain, save_chain
from .minimize import (MinimizeOptions, newton_minimize, preoptimize_middle,
                       twin_chain)
from .wells import boundary_gradient, build_wells

G17 = "%.17g"


@dataclass(frozen=True)
class ExperimentConfig:
    a: float = math.sqrt(2.0)
    lam: float = 0.5
    n_list: tuple = (40, 100, 200)
    alpha: float = 0.4
    delta: float = 0.1
    variable_tau: bool = False
    quick: bool = False
    svg: bool = False
    out: Path = Path("runs")

    def header(self):
        ns = " ".join(str(n) for n in self.n_list)
        return (f"config a={G17 % self.a} lambda={G17 % self.lam} n=[{ns}] "
                f"alpha={G17 % self.alpha} delta={G17 % self.delta} "
                f"variable_tau={int(self.variable_tau)} "
                f"quick={int(self.quick)}")


def _interface_column(cfg: ExperimentConfig, n: int) -> int:
    """Volume fraction mapped to the kink column: lam=1/2 centres it."""
    col = int(round((2.0 * cfg.lam - 1.0) * n))
    return max(-(n - 1), min(n - 1, col))


# ---------------------------------------------------------------------------
# plumbing


def _write(path: Path, lines):
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def write_svg_polyline(path, xs, ys, title=""):
    """Minimal static line plot; axes span the data range exactly."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    w, h, pad = 640, 400, 50
    x0, x1 = float(xs.min()), float(xs.max())
    y0, y1 = float(ys.min()), float(ys.max())
    sx = (w - 2 * pad) / (x1 - x0 if x1 > x0 else 1.0)
    sy = (h - 2 * pad) / (y1 - y0 if y1 > y0 else 1.0)
    pts = " ".join(f"{pad + (x - x0) * sx:.2f},{h - pad - (y - y0) * sy:.2f}"
                   for x, y in zip(xs, ys))
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{w}" height="{h}">',
        f'<rect width="{w}" height="{h}" fill="white"/>',
        f'<text x="{w // 2}" y="20" text-anchor="middle">{title}</text>',
        f'<line x1="{pad}" y1="{h - pad}" x2="{w - pad}" y2="{h - pad}" stroke="black"/>',
        f'<line x1="{pad}" y1="{pad}" x2="{pad}" y2="{h - pad}" stroke="black"/>',
        f'<text x="{pad}" y="{h - pad + 16}" font-size="10">{x0:.6g}</text>',
        f'<text x="{w - pad}" y="{h - pad + 16}" text-anchor="end" font-size="10">{x1:.6g}</text>',
        f'<text x="{pad - 4}" y="{h - pad}" text-anchor="end" font-size="10">{y0:.6g}</text>',
        f'<text x="{pad - 4}" y="{pad}" text-anchor="end" font-size="10">{y1:.6g}</text>',
        f'<polyline points="{pts}" fill="none" stroke="steelblue" stroke-width="1.5"/>',
        "</svg>",
    ]
    _write(Path(path), lines)


def _relax(cfg: ExperimentConfig, n: int):
    """Shared pipeline: kinked chain, middle-atom warm start, full Newton."""
    wells = build_wells(cfg.a)
    chain = twin_chain(n, wells, interface_column=_interface_column(cfg, n))
    warm = preoptimize_middle(chain)
    opts = MinimizeOptions(variable_tau=cfg.variable_tau)
    report = newton_minimize(warm, opts)
    return wells, warm, report


def _map_runs(cfg: ExperimentConfig, fn):
    """Per-n dispatch; results come back in n_list order."""
    return [fn(n) for n in cfg.n_list]


def _exit_status(command, cfg: ExperimentConfig, runs) -> int:
    """1 with a stderr line naming every n whose relaxation did not converge, else 0."""
    failures = [str(n) for n, (_, _, report) in zip(cfg.n_list, runs)
                if not report.converged]
    if failures:
        print(f"{command} failed to converge for n = " + ", ".join(failures),
              file=sys.stderr)
        return 1
    return 0


# ---------------------------------------------------------------------------
# subcommands


def cmd_minimize(cfg: ExperimentConfig) -> int:
    head = cfg.header()
    runs = _map_runs(cfg, lambda n: _relax(cfg, n))
    no_fit = []
    for n, (wells, warm, report) in zip(cfg.n_list, runs):
        final = report.final_chain
        bd = chain_energy(final)
        out = cfg.out
        save_chain(final, out / f"chain-n{n}.txt", header=head)
        save_chain(warm, out / f"reference-n{n}.txt", header=head)
        save_breakdown(bd, out / f"breakdown-n{n}.csv", header=head)
        cls = classify(final, wells)
        save_classification(cls, out / f"classification-n{n}.csv", header=head)
        profile = deviation_profile(final, warm)
        for side, lo, hi in (("right", 2, n - 2), ("left", -(n - 2), -2)):
            try:
                fit = fit_exponential(profile, window=(lo, hi))
            except ValueError as exc:
                # e.g. a start that already meets the gradient stop: no deviation
                no_fit.append(f"n = {n} {side} ({exc})")
                continue
            save_profile(fit, out / f"profile-{side}-n{n}.csv", header=head)
        interfaces = interface_positions(cls, tol=0.2)
        lines = [
            f"# {head}",
            "# minimize-report v1",
            f"n={n}",
            f"converged={int(report.converged)}",
            f"stop_reason={report.stop_reason}",
            f"iterations={report.iterations}",
            f"final_gradient_norm={G17 % report.grad_norm_history[-1]}",
            f"total_energy={G17 % bd.total}",
            f"rescaled_energy={G17 % bd.rescaled}",
            f"admissibility_violations={report.admissibility_violations}",
            f"interfaces={len(interfaces)}",
        ]
        _write(out / f"report-n{n}.txt", lines)
    status = _exit_status("minimize", cfg, runs)
    if no_fit:
        print("minimize has no decay fit for " + ", ".join(no_fit), file=sys.stderr)
        return 1
    return status


def cmd_scan(cfg: ExperimentConfig) -> int:
    head = cfg.header()
    rows = []
    runs = _map_runs(cfg, lambda n: _relax(cfg, n))
    for n, (wells, warm, report) in zip(cfg.n_list, runs):
        bd = chain_energy(report.final_chain)
        rows.append((n, report.final_chain.lam, bd.total, bd.rescaled,
                     report.iterations, int(report.converged)))
    lines = [f"# {head}", "# scan v1",
             "n,lambda_n,total_energy,rescaled_energy,iterations,converged"]
    for n, lam, total, resc, iters, conv in rows:
        lines.append(f"{n},{G17 % lam},{G17 % total},{G17 % resc},{iters},{conv}")
    _write(cfg.out / "scan.csv", lines)

    plot = [f"# {head}", "# log10(n) log10(total_energy)"]
    for n, _, total, _, _, _ in rows:
        plot.append(f"{G17 % math.log10(n)} {G17 % math.log10(total)}")
    _write(cfg.out / "scan-loglog.dat", plot)
    if cfg.svg:
        write_svg_polyline(cfg.out / "scan.svg",
                           [r[0] for r in rows], [r[3] for r in rows],
                           title="rescaled energy vs n")
    return _exit_status("scan", cfg, runs)


def cmd_layers(cfg: ExperimentConfig) -> int:
    head = cfg.header()
    wells = build_wells(cfg.a)
    F = boundary_gradient(wells, cfg.lam).F
    height = 6 if cfg.quick else 16
    L = CLAMP_RATIO * height
    seq = (4, 6) if cfg.quick else (8, 12, 16)

    flat = LayerSpec("C", wells.U0, wells.U0, (0.0, 0.0), L, height)
    flat_entry = (flat, estimate_layer(flat, wells, n_sequence=seq))
    first, (b_plus, c, b_minus) = estimate_EK([F, wells.U0, wells.QU1, F], wells,
                                              n=height, n_sequence=seq)
    second, _ = estimate_EK([F, wells.QU1, wells.U0, F], wells, n=height,
                            n_sequence=seq)
    save_layer_estimates([flat_entry, c, b_plus, b_minus], cfg.out / "layers.csv",
                         header=head)
    n_ref = 20 if cfg.quick else 40
    ref = newton_minimize(twin_chain(n_ref, wells,
                                     interface_column=_interface_column(cfg, n_ref)))
    h1 = chain_energy(ref.final_chain).rescaled
    best = min(first, second)
    lines = [
        f"# {head}",
        "# layer-composition v1",
        f"ek_first_ordering={G17 % first}",
        f"ek_second_ordering={G17 % second}",
        f"ek_min={G17 % best}",
        f"reference_n={n_ref}",
        f"reference_rescaled_energy={G17 % h1}",
        f"relative_gap={G17 % (abs(best - h1) / h1)}",
    ]
    _write(cfg.out / "composition.txt", lines)
    if not ref.converged:
        print(f"layers failed to converge for reference n = {n_ref}", file=sys.stderr)
        return 1
    return 0


def cmd_diagnose(cfg: ExperimentConfig) -> int:
    head = cfg.header()
    rows = []
    runs = _map_runs(cfg, lambda n: _relax(cfg, n))
    for n, (wells, warm, report) in zip(cfg.n_list, runs):
        bd = chain_energy(report.final_chain)
        census = local_energy_threshold_census(bd, default_jump_threshold(wells))
        found = find_good_lines(bd, alpha=cfg.alpha, delta=cfg.delta,
                                max_hard_sites=None)
        if isinstance(found, GoodLines):
            jm, j0, jp, status = found.j_minus, found.j_zero, found.j_plus, "ok"
        else:
            jm = j0 = jp = ""
            status = found.reason.replace(",", ";")
        rows.append((n, census.threshold, census.site_count, census.row_count,
                     jm, j0, jp, status))
    lines = [f"# {head}", "# diagnose v1",
             "n,threshold,sites_above,rows_above,j_minus,j_zero,j_plus,status"]
    for n, thr, sites, nrows, jm, j0, jp, status in rows:
        lines.append(f"{n},{G17 % thr},{sites},{nrows},{jm},{j0},{jp},{status}")
    _write(cfg.out / "diagnose.csv", lines)
    return _exit_status("diagnose", cfg, runs)


def cmd_fit_decay(cfg: ExperimentConfig, chain_path, reference_path, lo, hi) -> int:
    try:
        profile = deviation_profile(load_chain(chain_path), load_chain(reference_path))
        fit = fit_exponential(profile, window=(lo, hi))
    except (OSError, ValueError) as exc:  # bad inputs are usage errors
        print(f"twinchain fit-decay: error: {exc}", file=sys.stderr)
        return 2
    save_profile(fit, cfg.out / "fit-decay.csv", header=cfg.header())
    print(f"rate={G17 % fit.rate} amplitude={G17 % fit.amplitude} "
          f"r_squared={G17 % fit.r_squared}")
    return 0


# ---------------------------------------------------------------------------
# argument handling


def _build_parser():
    shared = argparse.ArgumentParser(add_help=False)
    shared.add_argument("--a", type=float, default=None,
                        help="primary stretch (default sqrt 2)")
    shared.add_argument("--lambda", dest="lam", type=float, default=None,
                        help="volume fraction in (0, 1)")
    shared.add_argument("--n", dest="n_list", metavar="N", type=int,
                        action="append", default=None,
                        help="chain half-width; repeatable")
    shared.add_argument("--alpha", type=float, default=None)
    shared.add_argument("--delta", type=float, default=None)
    shared.add_argument("--variable-tau", action="store_true", default=None)
    shared.add_argument("--quick", action="store_true", default=None,
                        help="small sizes for smoke runs")
    shared.add_argument("--svg", action="store_true", default=None)
    shared.add_argument("--out", type=Path, default=None,
                        help="output directory (default runs/)")
    shared.add_argument("--config", type=Path, default=None,
                        help="JSON file with the same keys; flags override")

    parser = argparse.ArgumentParser(
        prog="twinchain",
        description="two-well chain experiments: relaxation, scaling, layers")
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("minimize", parents=[shared])
    sub.add_parser("scan", parents=[shared])
    sub.add_parser("layers", parents=[shared])
    sub.add_parser("diagnose", parents=[shared])
    fit = sub.add_parser("fit-decay", parents=[shared])
    fit.add_argument("--chain", type=Path, required=True)
    fit.add_argument("--reference", type=Path, required=True)
    fit.add_argument("--lo", type=int, required=True)
    fit.add_argument("--hi", type=int, required=True)
    return parser


# config key -> (config field, accepted JSON types); "n" must list integers.
# Booleans pass as numbers here but fail every numeric range check below.
# Each flag's argparse dest is its config field
_CONFIG_KEYS = {"a": ("a", (int, float)), "lambda": ("lam", (int, float)),
                "n": ("n_list", list), "alpha": ("alpha", (int, float)),
                "delta": ("delta", (int, float)), "variable_tau": ("variable_tau", bool),
                "quick": ("quick", bool), "svg": ("svg", bool), "out": ("out", str)}


def _resolve_config(args, parser) -> ExperimentConfig:
    cfg = ExperimentConfig()
    raw = {}
    if args.config is not None:
        try:
            raw = json.loads(Path(args.config).read_text())
        except (OSError, ValueError) as exc:
            parser.error(f"cannot read config file: {exc}")
        if not isinstance(raw, dict):
            parser.error("config file must hold a JSON object")
        unknown = set(raw) - set(_CONFIG_KEYS)
        if unknown:
            parser.error(f"unknown config keys: {sorted(unknown)}")
        for key, value in raw.items():
            name, types = _CONFIG_KEYS[key]
            if not isinstance(value, types) or (
                    name == "n_list" and not all(isinstance(v, int) for v in value)):
                parser.error(f"config key {key!r} has the wrong JSON type: {value!r}")
    fields = {_CONFIG_KEYS[key][0]: value for key, value in raw.items()}
    for name, _ in _CONFIG_KEYS.values():  # flags override the config file
        if getattr(args, name) is not None:
            fields[name] = getattr(args, name)
    if "n_list" in fields:
        fields["n_list"] = tuple(fields["n_list"])
    if "out" in fields:
        fields["out"] = Path(fields["out"])
    cfg = replace(cfg, **fields)
    if cfg.quick and "n_list" not in fields:
        cfg = replace(cfg, n_list=(8,))

    try:
        build_wells(cfg.a)
    except ValueError as exc:
        parser.error(f"--a: {exc}")
    if not 0.0 < cfg.lam < 1.0:
        parser.error("--lambda must lie strictly inside (0, 1)")
    if not cfg.n_list:
        parser.error("at least one --n is required")
    if any(n < 8 for n in cfg.n_list):
        parser.error("--n must be at least 8 (per-side decay fits need room)")
    if not 0.0 < cfg.alpha < 1.0:
        parser.error("--alpha must lie in (0, 1)")
    if not 0.0 < cfg.delta < 0.25:
        parser.error("--delta must lie in (0, 1/4)")
    return cfg


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    cfg = _resolve_config(args, parser)
    cfg.out.mkdir(parents=True, exist_ok=True)
    if args.command == "minimize":
        return cmd_minimize(cfg)
    if args.command == "scan":
        return cmd_scan(cfg)
    if args.command == "layers":
        return cmd_layers(cfg)
    if args.command == "diagnose":
        return cmd_diagnose(cfg)
    return cmd_fit_decay(cfg, args.chain, args.reference, args.lo, args.hi)


if __name__ == "__main__":
    sys.exit(main())
