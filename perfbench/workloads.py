"""The benchmark's workloads: seeded task lists that drive bentchain's public
API and CLI.

A workload's inputs are made in ``setup`` (part of the measured set-up
time); ``tasks(r)`` then yields pass ``r``'s tasks, drawn from
``(workload, seed, r)`` alone, so a pass is the same on every run and
commit.  Each pass draws its chain sizes from fixed bins, so passes cost
about the same whatever the seed.

A task is one public-API operation (with the Hamiltonian it acts on) or one
CLI command.  ``call`` is the timed part; ``inspect`` checks the output
cheaply, returns a digest that must repeat bit for bit, and, for claims,
the values the oracle recomputes after the timed loop.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import bentchain as bc
import bentchain.cli  # noqa: F401  (the CLI is driven in-process)
from oracle import P1_REFERENCE_WINDOW, calibration_window

P1 = bc.Protocol.PROTOCOL_1
P2 = bc.Protocol.PROTOCOL_2

P2_P0_TOL = 1e-9
NORM_TOL = 1e-10


@dataclass
class Claim:
    """An output the oracle recomputes.

    kind "reference": (p0, t0) of the unbent chain.
    kind "arrival": (q, s) of ``bend`` against the unbent reference.
    kind "optimal": q_opt, which must not fall below the oracle's q at
    delta = 0 for the same bend.
    kind "trace": p_end of an amplitude trace at ``times``.
    ``ref_window`` is None for Protocol 2's analytic reference, otherwise
    the window the library searched for the unbent first maximum.
    """

    kind: str
    spec: object
    bend: object = None
    ref_window: float | None = None
    values: tuple = ()
    task: int = -1  # index of the task in pass 0; -1 for set-up outputs


@dataclass
class Inspection:
    digest: str
    problems: list[str] = field(default_factory=list)
    claims: list[Claim] = field(default_factory=list)


@dataclass
class Task:
    kind: str
    call: Callable[[], object]
    inspect: Callable[[object], Inspection]
    meta: dict = field(default_factory=dict)


def _digest(*values) -> str:
    h = hashlib.sha256()
    for v in values:
        if isinstance(v, np.ndarray):
            h.update(np.ascontiguousarray(v).tobytes())
        else:
            h.update(repr(v).encode())
    return h.hexdigest()


def _nonfinite(name: str, *values) -> list[str]:
    bad = [v for v in values if not np.all(np.isfinite(v))]
    return [f"{name}: non-finite output"] if bad else []


def _has_nonfinite(path: Path) -> bool:
    """Whether a written CSV or JSON file holds a NaN or infinity."""
    text = path.read_text()
    if path.suffix == ".json":
        found = []
        json.loads(text, parse_constant=found.append)
        return bool(found)
    for row in csv.reader(io.StringIO(text)):
        for cell in row:
            try:
                if not math.isfinite(float(cell)):
                    return True
            except ValueError:
                pass
    return False


def _files_digest(run_dir: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(run_dir.iterdir()):
        h.update(f.name.encode())
        h.update(f.read_bytes())
    return h.hexdigest()


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run ``bentchain.cli.main`` in-process, capturing its console output."""
    buf = io.StringIO()
    with redirect_stdout(buf), redirect_stderr(buf):
        code = bc.cli.main(argv)
    return code, buf.getvalue()


def _spec_args(spec) -> list[str]:
    args = ["--protocol", str(spec.protocol.value), "--n", str(spec.n_sites)]
    if spec.boundary_ratio is not None:
        args += ["--ratio", repr(spec.boundary_ratio)]
    return args


def stratum(rng: random.Random, lo: float, hi: float, k: int, n: int) -> float:
    """Uniform draw from the k-th (mod n) of n equal parts of [lo, hi].
    Rotating k across a pass's slots spreads every pass over the whole
    range, which keeps the cost of a pass nearly independent of the seed."""
    return lo + (hi - lo) * ((k % n) + rng.random()) / n


def corner(rng: random.Random, n_sites: int, k: int, n: int = 3) -> int:
    """A corner site 2..N-1 from the k-th (mod n) of n bands along the chain."""
    return 2 + min(int(stratum(rng, 0.0, 1.0, k, n) * (n_sites - 2)), n_sites - 3)


def _inspect_optimization(spec, bend, ref_window):
    """Checks an OptimizationResult; its claims are the tuned arrival and
    q_opt >= q(delta=0)."""

    def inspect(res) -> Inspection:
        vals = (res.delta_star, res.delta_energy, res.q_opt, res.s_opt)
        tuned = bc.BendSpec(alpha=bend.alpha, kappa=bend.kappa, delta_alpha=res.delta_energy)
        flat = bc.BendSpec(alpha=bend.alpha, kappa=bend.kappa)
        return Inspection(
            digest=_digest(*vals, res.evaluations, res.on_boundary),
            problems=_nonfinite("optimize_detuning", *vals),
            claims=[Claim("arrival", spec, tuned, ref_window, (res.q_opt, res.s_opt)),
                    Claim("optimal", spec, flat, ref_window, (res.q_opt,))],
        )

    return inspect


class Workload:
    name = ""
    # fixed per workload so runs of faster and slower commits compare at the
    # same percentile; the highest that leaves at least ten tasks above it
    # in a run of this workload at the seed baseline
    tail_percentile = 90
    # passes in a traced run: fixed work, so its counts repeat exactly
    trace_passes = 1
    # CLI output subdirectory, set by the runner: "u" untraced, "t" traced
    mode = "u"

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self.problems: list[str] = []  # invariant failures found in setup

    def rng(self, tag) -> random.Random:
        return random.Random(f"{self.name}:{self.seed}:{tag}")

    def setup(self) -> None:
        pass

    def warm_up(self) -> None:
        """Touch every code path once so lazy imports and BLAS start-up are
        paid in set-up, not in the first timed task."""
        spec = bc.ChainSpec(P2, 8)
        bend = bc.BendSpec(alpha=4, kappa=0.3)
        ref = bc.reference(spec)
        bc.transfer_metrics(spec, bend, ref)
        bc.evolve(bc.build_hamiltonian(spec, bend), ref.t0)
        bc.spectrum_report(spec, bend, -0.1)
        out = self.workdir / "warmup"
        code, _ = _cli(["reference", "--protocol", "2", "--n", "5", "--out", str(out)])
        if code != 0:
            raise RuntimeError(f"warm-up CLI call exited {code}")

    def tasks(self, r: int) -> list[Task]:
        raise NotImplementedError

    def post_check(self, records: list[tuple[int, Task, Inspection]]):
        """Checks on pass 0's outputs that are too slow for the timed loop.
        Returns (task index, problem) pairs and further oracle claims."""
        return [], []

    def setup_claims(self) -> list[Claim]:
        return []


class Optimize(Workload):
    """Corner-detuning optimization: single bends, warm-started detuning
    curves and optimized corner sweeps (scaled-down fig2/fig3/fig4 panels)."""

    name = "optimize"
    tail_percentile = 70
    trace_passes = 3
    P1_SIZES = (13, 21)  # fig2's panel sizes
    P2_BINS = ((9, 12), (13, 16), (17, 20), (21, 25))
    SWEEP_N = 11

    def setup(self) -> None:
        self.p1 = []  # calibrated Protocol 1 chains: (spec, ref)
        for n in self.P1_SIZES:
            ref = bc.calibrate_protocol1(n)
            spec = bc.ChainSpec(P1, n, boundary_ratio=ref.boundary_ratio)
            self.p1.append((spec, ref))
        self.p2 = {}
        for n in range(9, 26):
            spec = bc.ChainSpec(P2, n)
            ref = bc.reference(spec)
            if not abs(ref.p0 - 1.0) <= P2_P0_TOL:
                self.problems.append(f"Protocol 2 N={n}: p0={ref.p0!r} != 1")
            self.p2[n] = (spec, ref)

    @staticmethod
    def _p1_window(spec):
        return calibration_window(spec.n_sites, spec.omega0)

    def _chain(self, protocol, which):
        if protocol is P1:
            spec, ref = self.p1[which]
            return spec, ref, self._p1_window(spec)
        spec, ref = self.p2[which]
        return spec, ref, None

    def tasks(self, r: int) -> list[Task]:
        rng = self.rng(r)
        tasks = []
        for i in range(8):
            if i % 2 == 0:
                spec, ref, win = self._chain(P1, i // 4)
            else:
                spec, ref, win = self._chain(P2, rng.randint(*self.P2_BINS[i // 2]))
            bend = bc.BendSpec(alpha=corner(rng, spec.n_sites, i + r),
                               kappa=stratum(rng, 0.1, 0.9, i + r, 8))
            tasks.append(Task(
                "optimize_detuning",
                lambda s=spec, b=bend, f=ref: bc.optimize_detuning(s, b, f),
                _inspect_optimization(spec, bend, win),
            ))

        # warm-started curve over three adjacent kappas (fig2)
        spec, ref, win = self._chain(P1, 0)
        alpha = corner(rng, spec.n_sites, r)
        k0 = stratum(rng, 0.1, 0.6, r, 5)
        kappas = np.array([k0, k0 + 0.1, k0 + 0.2])

        def inspect_curve(curve, spec=spec, alpha=alpha, win=win):
            claims, digests, problems = [], [], []
            for kappa, res in curve:
                bend = bc.BendSpec(alpha=alpha, kappa=kappa)
                sub = _inspect_optimization(spec, bend, win)(res)
                claims += sub.claims
                digests.append(sub.digest)
                problems += sub.problems
            if len(curve) != len(kappas):
                problems.append("detuning_curve: wrong number of points")
            return Inspection(_digest(*digests), problems, claims)

        tasks.append(Task(
            "detuning_curve",
            lambda s=spec, a=alpha, k=kappas, f=ref: bc.detuning_curve(s, a, k, f),
            inspect_curve,
        ))

        # optimized corner sweep over the first half of the chain (fig4)
        spec, ref, win = self._chain(P2, self.SWEEP_N)
        kappa = stratum(rng, 0.1, 0.9, r, 4)
        alphas = range(2, math.ceil(spec.n_sites / 2) + 1)

        def inspect_sweep(table, spec=spec, kappa=kappa, win=win):
            claims, digests, problems = [], [], []
            for row in table.rows:
                bend = bc.BendSpec(alpha=int(row.axis_value), kappa=kappa)
                res = row.result
                digests.append(_digest(row.axis_value, res.p, res.t, res.q, res.s))
                problems += _nonfinite("sweep_alpha", res.p, res.t, res.q, res.s)
                claims.append(Claim("arrival", spec, bend, win, (res.q, res.s)))
                sub = _inspect_optimization(spec, bend, win)(row.optimized)
                claims += sub.claims
                digests.append(sub.digest)
                problems += sub.problems
            if len(table.rows) != len(alphas):
                problems.append("sweep_alpha: wrong number of rows")
            return Inspection(_digest(*digests), problems, claims)

        tasks.append(Task(
            "sweep_alpha",
            lambda s=spec, k=kappa, a=alphas, f=ref: bc.sweep_alpha(s, k, a, optimize=True, ref=f),
            inspect_sweep,
        ))
        return tasks

    def setup_claims(self) -> list[Claim]:
        return [Claim("reference", spec, None, self._p1_window(spec), (ref.p0, ref.t0))
                for spec, ref in self.p1]


class CalibrateSweep(Workload):
    """Protocol 1 calibration, then plain CLI sweeps on the calibrated
    chains, plus CLI metrics points on larger Protocol 2 chains."""

    name = "calibrate_sweep"
    tail_percentile = 90
    trace_passes = 10
    CAL_BINS = ((4, 10), (11, 17), (18, 25))
    METRIC_BINS = ((40, 60), (61, 80), (81, 100))

    def tasks(self, r: int) -> list[Task]:
        rng = self.rng(r)
        calibrated: dict[int, object] = {}
        tasks = []
        for slot, (lo, hi) in enumerate(self.CAL_BINS):
            n = rng.randint(lo, hi)

            def inspect_cal(ref, slot=slot, n=n):
                spec = bc.ChainSpec(P1, n, boundary_ratio=ref.boundary_ratio)
                calibrated[slot] = spec
                vals = (ref.p0, ref.t0, ref.boundary_ratio)
                return Inspection(
                    _digest(*vals), _nonfinite("calibrate_protocol1", *vals),
                    [Claim("reference", spec, None, calibration_window(n), (ref.p0, ref.t0))],
                )

            tasks.append(Task("calibrate_protocol1",
                              lambda n=n: bc.calibrate_protocol1(n), inspect_cal))
            alpha = corner(rng, n, r + slot)
            tasks.append(self._cli_task(
                "sweep-kappa", f"r{r}k{slot}",
                lambda slot=slot: calibrated[slot],
                lambda spec, alpha=alpha: ["--alpha", str(alpha), "--grid", "0:0.1:1"],
            ))
            kappa = stratum(rng, 0.1, 0.9, r + slot, 3)
            tasks.append(self._cli_task(
                "sweep-alpha", f"r{r}a{slot}",
                lambda slot=slot: calibrated[slot],
                lambda spec, kappa=kappa: ["--kappa", repr(kappa), "--no-optimize"],
            ))
        for slot, (lo, hi) in enumerate(self.METRIC_BINS):
            spec = bc.ChainSpec(P2, rng.randint(lo, hi))
            alpha = corner(rng, spec.n_sites, r + slot)
            kappa = stratum(rng, 0.1, 0.9, r + slot, 3)
            tasks.append(self._cli_task(
                "metrics", f"r{r}m{slot}", lambda spec=spec: spec,
                lambda spec, a=alpha, k=kappa: ["--alpha", str(a), "--kappa", repr(k)],
            ))
        return tasks

    def _cli_task(self, command, label, spec_fn, args_fn) -> Task:
        """A CLI command on a chain known only once earlier tasks ran."""
        task = Task(f"cli.{command}", None, None)

        def call():
            spec = spec_fn()
            args = args_fn(spec)
            # recorded for post_check
            task.meta.update(spec=spec, options=dict(zip(args[::2], args[1::2])), label=label)
            return _cli([command, *_spec_args(spec), *args,
                         "--out", str(self.workdir / "cli" / self.mode), "--label", label])

        def inspect(result):
            code, console = result
            if code != 0:
                return Inspection("", [f"{command} {label}: exit code {code}: {console.strip()}"])
            run_dir = self.workdir / "cli" / self.mode / command / label
            problems = [f"{command} {label}: non-finite value in {f.name}"
                        for f in run_dir.iterdir() if _has_nonfinite(f)]
            return Inspection(_files_digest(run_dir), problems)

        task.call, task.inspect = call, inspect
        return task

    def post_check(self, records):
        """Written CSVs and JSON parse back to the values the library API
        returns for the same inputs; their rows become oracle claims."""
        problems, claims = [], []
        for idx, task, insp in records:
            if not task.kind.startswith("cli.") or insp.problems:
                continue
            command = task.kind[len("cli."):]
            spec, opt, label = task.meta["spec"], task.meta["options"], task.meta["label"]
            run_dir = self.workdir / "cli" / "u" / command / label
            if command == "metrics":
                bend = bc.BendSpec(alpha=int(opt["--alpha"]), kappa=float(opt["--kappa"]))
                ref = bc.reference(spec)
                if not abs(ref.p0 - 1.0) <= P2_P0_TOL:
                    problems.append((idx, f"Protocol 2 N={spec.n_sites}: p0={ref.p0!r} != 1"))
                res = bc.transfer_metrics(spec, bend, ref)
                got = json.loads((run_dir / "metrics.json").read_text())
                want = {"p": res.p, "t": res.t, "q": res.q, "s": res.s}
                if got != want:
                    problems.append((idx, f"metrics {label}: JSON {got} != API {want}"))
                claims.append(Claim("arrival", spec, bend, None, (res.q, res.s), idx))
                continue
            if command == "sweep-kappa":
                alpha = int(opt["--alpha"])
                grid = np.sort(bc.cli.parse_grid(opt["--grid"]))
                table = bc.sweep_kappa(spec, alpha, grid)
                bends = [bc.BendSpec(alpha=alpha, kappa=float(k)) for k in grid]
            else:
                kappa = float(opt["--kappa"])
                alphas = range(2, math.ceil(spec.n_sites / 2) + 1)
                table = bc.sweep_alpha(spec, kappa, alphas, optimize=False)
                bends = [bc.BendSpec(alpha=a, kappa=kappa) for a in alphas]
            with open(run_dir / f"{command.replace('-', '_')}.csv", newline="") as fh:
                rows = list(csv.DictReader(fh))
            if len(rows) != len(table.rows):
                problems.append((idx, f"{command} {label}: {len(rows)} CSV rows, "
                                       f"API {len(table.rows)}"))
                continue
            for rec, row, bend in zip(rows, table.rows, bends):
                want = [row.axis_value, row.result.p, row.result.t, row.result.q, row.result.s]
                got = [float(rec[k]) for k in ("axis", "p", "t", "q", "s")]
                if got != want:
                    problems.append((idx, f"{command} {label}: CSV row {got} != API {want}"))
                claims.append(Claim("arrival", spec, bend, P1_REFERENCE_WINDOW,
                                    (row.result.q, row.result.s), idx))
        return problems, claims


class TraceSpectrum(Workload):
    """Large Protocol 2 chains: full amplitude traces, spectrum reports,
    waveguide layouts and CLI fits of a generated sweep CSV."""

    name = "trace_spectrum"
    tail_percentile = 95
    trace_passes = 80
    N_BINS = ((40, 79), (80, 119), (120, 159), (160, 200))
    ETA, XI = 19.5, 0.152  # 1/cm, 1/um: the CLI's default device
    TRACE_SAMPLES = 64

    def setup(self) -> None:
        """Write the sweep CSVs the fit tasks read: a Gaussian q(kappa) and a
        linear delta*(kappa), each with small seeded noise."""
        rng = np.random.default_rng([self.seed, 7])
        kappa = np.round(np.arange(21) * 0.05, 10)
        self.truth = {"gaussian": (rng.uniform(0.95, 1.0), rng.uniform(0.3, 0.8)),
                      "linear": (rng.uniform(-4.0, -2.0), rng.uniform(-0.1, 0.1))}
        amp, sigma = self.truth["gaussian"]
        slope, icpt = self.truth["linear"]
        q = amp * np.exp(-kappa**2 / (2 * sigma**2)) + rng.normal(0.0, 1e-4, kappa.size)
        delta = slope * kappa + icpt + rng.normal(0.0, 1e-4, kappa.size)
        self.csv = {"gaussian": self.workdir / "gaussian.csv",
                    "linear": self.workdir / "linear.csv"}
        for kind, path in self.csv.items():
            with open(path, "w", newline="") as fh:
                w = csv.writer(fh)
                w.writerow(["axis", "p", "t", "q", "s", "delta_opt", "q_opt", "s_opt"])
                for k, qq, d in zip(kappa, q, delta):
                    w.writerow([repr(float(k)), repr(float(qq)), "1.0", repr(float(qq)), "1.0",
                                repr(float(d)) if kind == "linear" else "", "", ""])

    def tasks(self, r: int) -> list[Task]:
        rng = self.rng(r)
        tasks = []
        chains = []
        for lo, hi in self.N_BINS:
            spec = bc.ChainSpec(P2, rng.randint(lo, hi))
            bend = bc.BendSpec(alpha=corner(rng, spec.n_sites, r + len(chains)),
                               kappa=stratum(rng, 0.1, 0.9, r + len(chains), 4))
            chains.append((spec, bend))
        for spec, bend in chains:
            t_end = math.pi / 2.0  # the Protocol 2 arrival time at omega0 = 1
            picks = np.sort(np.array(rng.sample(range(4096), self.TRACE_SAMPLES)))

            def inspect_evolve(trace, spec=spec, bend=bend, picks=picks):
                norms = trace.norms()
                problems = _nonfinite("evolve", trace.p_end, norms)
                dev = float(np.max(np.abs(norms - 1.0)))
                if not dev <= NORM_TOL:
                    problems.append(f"evolve N={spec.n_sites}: trace norm off by {dev:.3g}")
                picks = picks[picks < trace.times.size]
                claim = Claim("trace", spec, bend, None,
                              (trace.times[picks].copy(), trace.p_end[picks].copy()))
                return Inspection(
                    _digest(norms, trace.p_end, trace.amplitudes[-1], trace.amplitudes[:, -1]),
                    problems, [claim])

            tasks.append(Task(
                "evolve",
                lambda s=spec, b=bend, t=t_end: bc.evolve(bc.build_hamiltonian(s, b), t),
                inspect_evolve,
            ))
        for spec, bend in chains:
            delta = rng.uniform(-2.0, 0.0) * bc.omega_max(spec)

            def inspect_spectrum(rep):
                vals = [np.concatenate(list(rep.eigenvalues.values())),
                        list(rep.gap_distortion.values()),
                        list(rep.gap_distortion_weighted.values())]
                problems = _nonfinite("spectrum_report", *vals)
                if any(np.any(np.diff(v) < 0) for v in rep.eigenvalues.values()):
                    problems.append("spectrum_report: eigenvalues not ascending")
                return Inspection(_digest(*[np.asarray(v, dtype=float) for v in vals]), problems)

            tasks.append(Task(
                "spectrum_report",
                lambda s=spec, b=bend, d=delta: bc.spectrum_report(s, b, d),
                inspect_spectrum,
            ))
        for spec, _ in chains[r % 2::2]:
            # the strongest coupling sqrt((N-j) j) * omega0_phys must stay
            # below eta, with omega0_phys = (pi/2) / L
            j = np.arange(1, spec.n_sites)
            min_length = (math.pi / 2.0) * float(np.sqrt((spec.n_sites - j) * j).max()) / self.ETA
            dev = bc.DeviceParams(eta=self.ETA, xi=self.XI,
                                  length=min_length * rng.uniform(1.2, 2.5))
            layouts = {}

            def inspect_layout(layout, dev=dev, layouts=layouts):
                layouts["layout"] = layout
                d, c = layout.separations, layout.couplings_physical
                problems = _nonfinite("design_layout", d, c)
                if np.any(d <= 0) or np.any(c >= dev.eta):
                    problems.append("design_layout: coupling at or above eta")
                back = dev.eta * np.exp(-dev.xi * d)
                if not np.allclose(back, c, rtol=1e-12, atol=0.0):
                    problems.append("design_layout: separations do not reproduce couplings")
                return Inspection(_digest(d, c, layout.omega0_physical), problems)

            def inspect_parasitic(rep):
                problems = _nonfinite("parasitic_check", rep.ratios)
                if not 0.0 < rep.max_ratio < 1.0:
                    problems.append(f"parasitic_check: max ratio {rep.max_ratio!r}")
                return Inspection(_digest(rep.ratios, rep.max_ratio), problems)

            tasks.append(Task("design_layout",
                              lambda s=spec, v=dev: bc.design_layout(s, v), inspect_layout))
            tasks.append(Task("parasitic_check",
                              lambda v=dev, l=layouts: bc.parasitic_check(l["layout"], v),
                              inspect_parasitic))
        kind = ("gaussian", "linear")[r % 2]
        label = f"r{r}"

        def inspect_fit(result, kind=kind, label=label):
            code, console = result
            if code != 0:
                return Inspection("", [f"fit {label}: exit code {code}: {console.strip()}"])
            run_dir = self.workdir / "cli" / self.mode / "fit" / label
            rep = json.loads((run_dir / "fit.json").read_text())
            problems = _nonfinite("fit", *rep["params"], rep["residual_rms"])
            if not np.allclose(rep["params"], self.truth[kind], rtol=0.0, atol=1e-2):
                problems.append(f"fit {kind}: {rep['params']} far from {self.truth[kind]}")
            return Inspection(_files_digest(run_dir), problems)

        tasks.append(Task(
            "cli.fit",
            lambda k=kind, l=label: _cli(["fit", "--kind", k, "--input", str(self.csv[k]),
                                          "--out", str(self.workdir / "cli" / self.mode),
                                          "--label", l]),
            inspect_fit,
        ))
        return tasks


WORKLOADS = {w.name: w for w in (Optimize, CalibrateSweep, TraceSpectrum)}
