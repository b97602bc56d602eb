"""Command-line front end.

Every subcommand is a thin shell over one library operation, and takes
its inputs as flags only.  argparse rejects a missing required flag, or one
the command does not read, with exit 2 before anything runs.  A command
returns its output files (the library's results as they are), a manifest
of every input it ran with, defaults included, and a summary line.  Only
once it has succeeded does ``main`` write them under
out/<command>/<label>/, so a failed command writes nothing.  ``main`` adds
the manifest's header: ``tool_version``, ``delta_units`` and ``command``.
All runs are deterministic.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import re
import sys
from dataclasses import asdict
from pathlib import Path

import numpy as np

from . import __version__
from .chain import BendSpec, ChainSpec, Protocol, spec_to_dict
from .metrics import (
    FitDivergedError,
    SweepTable,
    SweepRow,
    TransferResult,
    fit_gaussian,
    fit_linear,
    sweep_alpha,
    sweep_kappa,
    transfer_metrics,
)
from .optimize import DEFAULT_INTERVAL, optimize_detuning
from .photonic import DeviceParams, design_layout, parasitic_check
from .reference import (
    DEFAULT_RATIO_GRID_STEP,
    ReferencePoint,
    calibrate_protocol1,
    default_calibration_window,
    reference,
)
from .spectral import SpectrumReport, spectrum_report

EXIT_USAGE = 2
EXIT_NUMERICAL = 3
EXIT_IO = 4

FIGURE_DEFAULT_N = (12, 13, 21, 25)
# every grid point costs at least one first arrival, so a larger grid is a
# typo, and a far larger one would not fit in memory
MAX_GRID_POINTS = 2**20


def parse_grid(text: str) -> np.ndarray:
    """Inclusive `start:step:end` grid (both ends, half-step tolerance; at
    least one and at most ``MAX_GRID_POINTS`` points, all finite), or a
    comma-separated list of values."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise ValueError(f"grid must be start:step:end, got {text!r}")
        start, step, end = (float(p) for p in parts)
        if not (math.isfinite(start) and math.isfinite(end) and 0 < step < math.inf):
            raise ValueError(f"grid needs finite ends and a finite step > 0, got {text!r}")
        span = (end - start) / step + 0.5  # steps after start, half-step tolerance
        if not 0.0 <= span < MAX_GRID_POINTS:
            raise ValueError(f"grid {text!r} holds {'no' if span < 0 else 'too many'} points")
        return start + step * np.arange(math.floor(span) + 1)
    return np.array([float(v) for v in text.split(",")])


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a negative number in exponent form
    (``-1.5e-1``, ``-4e0``) as a value.  Python 3.11's argparse knows only
    ``-1`` and ``-0.15`` as numbers and takes the rest for option flags.
    No option abbreviates (``--alpha`` is not ``--alpha-range``).
    Subparsers are made of the same class."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")


def _chain_args(parser: argparse.ArgumentParser, *flags: str) -> None:
    """--protocol, --n and --ratio, and those of --omega0, --alpha, --kappa
    and --delta named in ``flags``; --protocol, --n, --alpha and --kappa are
    required."""
    parser.add_argument("--protocol", type=int, choices=(1, 2), required=True, help="1 or 2")
    parser.add_argument("--n", type=int, dest="n_sites", required=True,
                        help="number of sites")
    if "omega0" in flags:
        parser.add_argument("--omega0", type=float, default=1.0)
    parser.add_argument("--ratio", type=float, dest="boundary_ratio",
                        help="boundary coupling ratio (Protocol 1)")
    if "alpha" in flags:
        parser.add_argument("--alpha", type=int, required=True, help="corner site index")
    if "kappa" in flags:
        parser.add_argument("--kappa", type=float, required=True,
                            help="bend strength g/Omega_max")
    if "delta" in flags:
        parser.add_argument("--delta", type=float, default=0.0, dest="delta_alpha",
                            metavar="DELTA", help="corner detuning (units of omega0)")


def _out_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--out", type=Path, default=Path("out"))
    parser.add_argument("--label", default=None,
                        help="run directory name (defaults to the command)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bentchain",
        description="State transfer through bent qubit chains: references, "
        "bend sweeps, corner-defect optimization, spectra, and "
        "waveguide layouts.",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("reference", help="unbent-chain reference (p0, t0)")
    _chain_args(p, "omega0")
    _out_args(p)

    p = sub.add_parser("calibrate", help="calibrate Protocol 1 boundary ratio")
    p.add_argument("--n", type=int, dest="n_sites", required=True)
    p.add_argument("--omega0", type=float, default=1.0)
    p.add_argument("--grid", default=f"{DEFAULT_RATIO_GRID_STEP}:{DEFAULT_RATIO_GRID_STEP}:1",
                   help="ratio grid, start:step:end")
    p.add_argument("--window", type=float, default=None,
                   help="arrival window (default: max(0.8 N, 8) / omega0)")
    _out_args(p)

    p = sub.add_parser("metrics", help="bent-chain transfer metrics (q, s)")
    _chain_args(p, "omega0", "alpha", "kappa", "delta")
    _out_args(p)

    p = sub.add_parser("sweep-kappa", help="sweep bend strength at fixed corner")
    _chain_args(p, "omega0", "alpha")
    p.add_argument("--grid", default="0:0.1:1", help="kappa grid")
    p.add_argument("--optimize", action="store_true",
                   help="also optimize the corner detuning per point")
    _out_args(p)

    p = sub.add_parser("sweep-alpha", help="sweep corner position at fixed kappa")
    _chain_args(p, "omega0", "kappa")
    p.add_argument("--alpha-range", default=None,
                   help="alpha grid (default 2:1:ceil(N/2))")
    p.add_argument("--no-optimize", action="store_true")
    _out_args(p)

    p = sub.add_parser("optimize", help="optimal corner detuning for one bend")
    _chain_args(p, "omega0", "alpha", "kappa")
    p.add_argument("--interval", nargs=2, type=float, default=DEFAULT_INTERVAL,
                   metavar=("LO", "HI"),
                   help="detuning search interval, units of Omega_max "
                   "(default: -4 0.5)")
    _out_args(p)

    p = sub.add_parser("spectrum", help="eigenvalue gaps and overlaps")
    _chain_args(p, "omega0", "alpha", "kappa")
    _out_args(p)

    p = sub.add_parser("design", help="waveguide separations for the chain")
    _chain_args(p)  # design_layout sets omega0 from t0 / L
    p.add_argument("--L", type=float, required=True, help="device length, cm")
    p.add_argument("--eta", type=float, default=19.5, help="coupling prefactor, 1/cm")
    p.add_argument("--xi", type=float, default=0.152, help="decay rate, 1/um")
    p.add_argument("--wavelength", type=float, default=633.0, help="nm")
    _out_args(p)

    p = sub.add_parser("fit", help="fit a sweep CSV (gaussian q(kappa) or "
                                   "linear delta_opt(kappa))")
    p.add_argument("--kind", choices=("gaussian", "linear"), required=True)
    p.add_argument("--input", type=Path, required=True)
    p.add_argument("--kappa-cut", type=float, default=0.7)
    _out_args(p)

    p = sub.add_parser("figure", help="reproduce a figure's data files")
    p.add_argument("tag", choices=("fig2", "fig3", "fig4", "fig5"))
    _out_args(p)

    return parser


def _resolve_chain(args) -> ChainSpec:
    """The chain of the command's flags (omega0 = 1 for ``design``, which
    takes no --omega0)."""
    try:
        return ChainSpec(Protocol(args.protocol), args.n_sites,
                         omega0=getattr(args, "omega0", 1.0),
                         boundary_ratio=args.boundary_ratio)
    except ValueError as exc:
        raise ValueError(f"bad chain parameter: {exc}") from None


def _run_dir(args) -> Path:
    """out/<command>/<label>, the label defaulting to the figure tag or the
    command name."""
    return args.out / args.command / (args.label or getattr(args, "tag", args.command))


def _write(path: Path, content) -> None:
    """Write one output file.  A ``.csv`` file takes ``(header, rows)``:
    floats come out by ``repr`` (shortest round trip), ints as they are and
    None as an empty cell.  Anything else is written as indented JSON, with
    sorted keys for the manifest only."""
    with open(path, "w", newline="") as fh:
        if path.suffix == ".csv":
            header, rows = content
            csv.writer(fh).writerows([header, *rows])
        else:
            json.dump(content, fh, indent=2, sort_keys=path.name == "manifest.json")
            fh.write("\n")


_SWEEP_COLUMNS = ["axis", "p", "t", "q", "s", "delta_opt", "q_opt", "s_opt", "on_boundary"]


def _table_content(table: SweepTable):
    """A sweep table as CSV ``(header, rows)``; a row without an optimum
    leaves the optimum columns empty.  ``on_boundary`` is 1 for an optimum
    pinned at an end of its detuning interval, else 0."""
    rows = []
    for row in table.rows:
        opt = row.optimized
        rows.append([row.axis_value, row.result.p, row.result.t, row.result.q,
                     row.result.s, *((opt.delta_star, opt.q_opt, opt.s_opt,
                                      int(opt.on_boundary))
                                     if opt else (None,) * 4)])
    return _SWEEP_COLUMNS, rows


def _spectrum_content(report: SpectrumReport):
    """Gap k (between eigenvalues k and k+1) of each spectrum, and the
    unperturbed initial-state overlap of level k, as CSV ``(header, rows)``."""
    gaps = zip(report.gaps["unperturbed"].tolist(), report.gaps["bent"].tolist(),
               report.gaps["bent_optimized"].tolist(),
               report.overlaps.tolist())
    return (["k", "gap_unperturbed", "gap_bent", "gap_optimized", "overlap_unperturbed"],
            [[k, *values] for k, values in enumerate(gaps, start=1)])


def _protocol_chain(proto: int, n: int) -> tuple[ChainSpec, ReferencePoint]:
    """Unbent chain and reference: Protocol 2 as is, Protocol 1 at its
    calibrated boundary ratio."""
    if proto == 2:
        spec = ChainSpec(protocol=Protocol.PROTOCOL_2, n_sites=n)
        return spec, reference(spec)
    ref = calibrate_protocol1(n)
    spec = ChainSpec(protocol=Protocol.PROTOCOL_1, n_sites=n,
                     boundary_ratio=ref.boundary_ratio)
    return spec, ref


# Each command returns ({file name: content}, manifest, summary line); main
# writes the files and the manifest under _run_dir, then prints the summary.


def cmd_reference(args):
    spec = _resolve_chain(args)
    ref = reference(spec)
    return ({"reference.json": ref.to_dict()},
            {"chain": spec_to_dict(spec)},
            f"reference: protocol={spec.protocol.value} N={spec.n_sites} "
            f"p0={ref.p0:.8f} t0={ref.t0:.6g}")


def cmd_calibrate(args):
    ref = calibrate_protocol1(args.n_sites, ratio_grid=parse_grid(args.grid),
                              window=args.window, omega0=args.omega0)
    window = args.window
    if window is None:
        window = default_calibration_window(args.n_sites, args.omega0)
    return ({"calibration.json": ref.to_dict()},
            {"n_sites": args.n_sites, "omega0": args.omega0, "window": window,
             "grid": args.grid},
            f"calibrate: N={args.n_sites} ratio={ref.boundary_ratio:.6f} "
            f"p0={ref.p0:.6f} t0={ref.t0:.6g}")


def cmd_metrics(args):
    spec = _resolve_chain(args)
    bend = BendSpec(args.alpha, args.kappa, args.delta_alpha)
    result = transfer_metrics(spec, bend, reference(spec))
    return ({"metrics.json": asdict(result)},
            # the chain's delta_alpha is BendSpec's, an energy in omega0 units
            {"delta_units": "omega0", "chain": spec_to_dict(spec, bend)},
            f"metrics: q={result.q:.6f} s={result.s:.6f} p={result.p:.6f} "
            f"t={result.t:.6g}")


def cmd_sweep_kappa(args):
    spec = _resolve_chain(args)
    grid = parse_grid(args.grid)
    table = sweep_kappa(spec, args.alpha, grid, optimize=args.optimize)
    name = "sweep_kappa.csv"
    qs = [r.result.q for r in table.rows]
    return ({name: _table_content(table)},
            {"grid": args.grid, "optimize": args.optimize, "chain": table.metadata},
            f"sweep-kappa: {len(table.rows)} points, q range "
            f"[{min(qs):.4f}, {max(qs):.4f}] -> {_run_dir(args) / name}")


def cmd_sweep_alpha(args):
    spec = _resolve_chain(args)
    if args.alpha_range:
        alphas = parse_grid(args.alpha_range)
    else:
        alphas = range(2, math.ceil(spec.n_sites / 2) + 1)
    table = sweep_alpha(spec, args.kappa, alphas, optimize=not args.no_optimize)
    name = "sweep_alpha.csv"
    return ({name: _table_content(table)},
            {"alphas": [int(a) for a in alphas], "chain": table.metadata},
            f"sweep-alpha: {len(table.rows)} corners at kappa={args.kappa} -> "
            f"{_run_dir(args) / name}")


def cmd_optimize(args):
    spec = _resolve_chain(args)
    bend = BendSpec(args.alpha, args.kappa)
    lo, hi = args.interval
    res = optimize_detuning(spec, bend, reference(spec), interval=(lo, hi))
    flag = " (boundary)" if res.on_boundary else ""
    return ({"optimize.json": asdict(res)},
            {"interval": [lo, hi], "chain": spec_to_dict(spec, bend)},
            f"optimize: delta*={res.delta_star:.6f} q_opt={res.q_opt:.6f} "
            f"s_opt={res.s_opt:.6f}{flag}")


def cmd_spectrum(args):
    spec = _resolve_chain(args)
    bend = BendSpec(args.alpha, args.kappa)
    res = optimize_detuning(spec, bend, reference(spec))
    report = spectrum_report(spec, bend, res.delta_energy)
    return ({"spectrum.csv": _spectrum_content(report)},
            {"delta_star": res.delta_star, "chain": spec_to_dict(spec, bend)},
            f"spectrum: gap distortion bent={report.gap_distortion['bent']:.6g} "
            f"optimized={report.gap_distortion['bent_optimized']:.6g} -> "
            f"{_run_dir(args) / 'spectrum.csv'}")


def cmd_design(args):
    spec = _resolve_chain(args)
    dev = DeviceParams(eta=args.eta, xi=args.xi, length=args.L,
                       wavelength=args.wavelength)
    layout = design_layout(spec, dev)
    parasitic = parasitic_check(layout, dev)
    d = layout.separations.tolist()
    c = layout.couplings_physical.tolist()
    files = {
        "layout.csv": (["j", "d_um", "coupling_per_cm"],
                       [[j, *dc] for j, dc in enumerate(zip(d, c), start=1)]),
        "layout.json": {"device": asdict(dev), "omega0_per_cm": layout.omega0_physical,
                        "separations_um": d, "couplings_per_cm": c},
    }
    return (files,
            {"device": asdict(dev), "chain": spec_to_dict(spec)},
            f"design: separations {min(d):.6g}..{max(d):.6g} um, "
            f"omega0={layout.omega0_physical:.6g}/cm, "
            f"max parasitic ratio {parasitic.max_ratio:.6g}")


def cmd_fit(args):
    with open(args.input, newline="") as fh:
        reader = csv.DictReader(fh)
        present = reader.fieldnames or []
        rows = list(reader)
    needed = ("axis", "p", "t", "q", "s") if args.kind == "gaussian" else ("delta_opt", "axis")
    missing = [name for name in needed if name not in present]
    if missing:
        raise ValueError(f"{args.input}: {args.kind} fit needs a {missing[0]} column")

    if args.kind == "gaussian":
        table = SweepTable(
            axis="kappa",
            rows=[
                SweepRow(
                    axis_value=float(r["axis"]),
                    result=TransferResult(p=float(r["p"]), t=float(r["t"]),
                                          q=float(r["q"]), s=float(r["s"])),
                )
                for r in rows
            ],
        )
        report = fit_gaussian(table)
        summary = (f"fit gaussian: A={report.params[0]:.6g} "
                   f"sigma={report.params[1]:.6g} rms={report.residual_rms:.3g}")
    else:
        pairs = [(float(r["axis"]), float(r["delta_opt"])) for r in rows if r.get("delta_opt")]
        report = fit_linear(pairs, kappa_cut=args.kappa_cut)
        summary = (f"fit linear: slope={report.params[0]:.6g} "
                   f"intercept={report.params[1]:.6g} rms={report.residual_rms:.3g}")
    manifest = {"kind": args.kind, "input": str(args.input)}
    if args.kind == "linear":  # the gaussian fit has no cut
        manifest["kappa_cut"] = args.kappa_cut
    return {"fit.json": asdict(report)}, manifest, summary


def _figure_panel(panel: tuple) -> tuple[str, tuple]:
    """One figure panel, ``(kind, protocol, N, alpha, kappa)``, as its CSV
    file name and content: a kappa sweep at a fixed corner, a corner sweep
    at a fixed kappa, or the spectra of one bend."""
    kind, proto, n, alpha, kappa = panel
    spec, ref = _protocol_chain(proto, n)
    if kind == "kappa":
        table = sweep_kappa(spec, alpha, parse_grid("0:0.1:1"), optimize=True, ref=ref)
        return f"p{proto}_n{n}_alpha{alpha}_kappa.csv", _table_content(table)
    if kind == "alpha":
        table = sweep_alpha(spec, kappa, range(2, math.ceil(n / 2) + 1), ref=ref)
        return f"p{proto}_n{n}_kappa{kappa}_alpha.csv", _table_content(table)
    bend = BendSpec(alpha=alpha, kappa=kappa)
    res = optimize_detuning(spec, bend, ref)
    report = spectrum_report(spec, bend, res.delta_energy)
    return (f"p{proto}_n{n}_alpha{alpha}_kappa{kappa}_spectrum.csv",
            _spectrum_content(report))


def cmd_figure(args):
    if args.tag in ("fig2", "fig3"):
        proto = 1 if args.tag == "fig2" else 2
        panels = [("kappa", proto, n, math.ceil(n / 2), None) for n in FIGURE_DEFAULT_N]
    elif args.tag == "fig4":
        panels = [("alpha", proto, n, None, 0.4) for proto in (1, 2) for n in FIGURE_DEFAULT_N]
    else:  # fig5: spectra for N=25, alpha=12
        panels = [("spectrum", 1, 25, 12, 0.5), ("spectrum", 2, 25, 12, 0.3)]

    files = dict(map(_figure_panel, panels))
    return (files,
            {"tag": args.tag, "files": sorted(files),
             "axes": {"kappa": "bend strength g/Omega_max",
                      "alpha": "corner site index",
                      "q": "P / P0", "s": "T / T0",
                      "delta_opt": "optimal detuning, units of Omega_max"}},
            f"figure {args.tag}: {len(files)} files -> {_run_dir(args)}")


COMMANDS = {
    "reference": cmd_reference,
    "calibrate": cmd_calibrate,
    "metrics": cmd_metrics,
    "sweep-kappa": cmd_sweep_kappa,
    "sweep-alpha": cmd_sweep_alpha,
    "optimize": cmd_optimize,
    "spectrum": cmd_spectrum,
    "design": cmd_design,
    "fit": cmd_fit,
    "figure": cmd_figure,
}


_PARSER = build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _PARSER.parse_args(argv)
    try:
        files, manifest, summary = COMMANDS[args.command](args)
        run_dir = _run_dir(args)
        run_dir.mkdir(parents=True, exist_ok=True)
        for name, content in files.items():
            _write(run_dir / name, content)
        _write(run_dir / "manifest.json",
               {"tool_version": __version__, "delta_units": "omega_max",
                "command": args.command, **manifest})
        print(summary)
        return 0
    # LinAlgError is a ValueError subclass: catch it before ValueError
    except (FitDivergedError, FloatingPointError, np.linalg.LinAlgError) as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
