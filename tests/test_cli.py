import argparse
import contextlib
import csv
import io
import json
import math
import re
import tempfile
import warnings
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from bentchain import (
    BendSpec,
    ChainSpec,
    DeviceParams,
    FitReport,
    OptimizationResult,
    Protocol,
    TransferResult,
    __version__,
    design_layout,
    detuning_curve,
    fit_linear,
    optimize_detuning,
    parasitic_check,
    reference,
    spectrum_report,
    sweep_kappa,
    transfer_metrics,
)
from bentchain import cli
from bentchain.cli import EXIT_IO, EXIT_NUMERICAL, EXIT_USAGE, main, parse_grid


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestParseGrid:
    def test_range_syntax_inclusive(self):
        np.testing.assert_allclose(
            parse_grid("0:0.25:1"), [0.0, 0.25, 0.5, 0.75, 1.0], atol=1e-12
        )

    def test_comma_list(self):
        np.testing.assert_allclose(parse_grid("0.1,0.4,0.2"), [0.1, 0.4, 0.2])

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            parse_grid("0:0:1")

    @pytest.mark.parametrize("text", ["0:0.1:inf", "-inf:0.1:1", "0:nan:1", "nan:0.1:1"])
    def test_nonfinite_range_rejected(self, text):
        with pytest.raises(ValueError, match="finite"):
            parse_grid(text)

    def test_empty_range_rejected(self):
        with pytest.raises(ValueError, match="holds no points"):
            parse_grid("1:0.1:0")

    def test_overflowing_point_count_rejected(self):
        # a subnormal step makes (end - start) / step overflow to inf
        with pytest.raises(ValueError, match="holds too many points"):
            parse_grid("0:1e-320:1")

    def test_end_within_half_step(self):
        assert parse_grid("0:0.1:-0.04").tolist() == [0.0]

    def test_point_count_beyond_limit_rejected(self):
        # 1e12 points would ask numpy for terabytes; refused before allocating
        with pytest.raises(ValueError, match="holds too many points"):
            parse_grid("0:1e-12:1")
        assert parse_grid(f"1:1:{cli.MAX_GRID_POINTS}").size == cli.MAX_GRID_POINTS


class TestCommands:
    def test_reference(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "reference", "--protocol", "2", "--n", "9",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "p0=1.00000000" in out
        run_dir = tmp_path / "reference" / "reference"
        payload = json.loads((run_dir / "reference.json").read_text())
        assert math.isclose(payload["t0"], math.pi / 2, rel_tol=1e-10)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["delta_units"] == "omega_max"

    def test_metrics_long_protocol1_chain(self, tmp_path, capsys):
        # the reference used to stop at 40/omega0, before this chain's
        # arrival: q=1.176933 s=1.000000 p=0.000000 t=40.000000
        code, out, _ = run(
            capsys, "metrics", "--protocol", "1", "--n", "100",
            "--ratio", "0.49391866199349327", "--alpha", "50", "--kappa", "0.3",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "metrics" / "metrics" / "metrics.json").read_text())
        assert 0.5 < payload["q"] < 1 and 0.5 < payload["p"] < 1
        assert payload["t"] > 40 and payload["t"] / payload["s"] > 40  # t0 > 40

    def test_metrics_matches_library(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "metrics", "--protocol", "2", "--n", "13",
            "--alpha", "7", "--kappa", "0.4", "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads(
            (tmp_path / "metrics" / "metrics" / "metrics.json").read_text()
        )
        spec = ChainSpec(Protocol.PROTOCOL_2, 13)
        expected = transfer_metrics(spec, BendSpec(alpha=7, kappa=0.4),
                                    reference(spec))
        assert math.isclose(payload["q"], expected.q, rel_tol=1e-12)
        assert math.isclose(payload["s"], expected.s, rel_tol=1e-12)

    def test_metrics_delta_units(self, tmp_path, capsys):
        # metrics reads --delta as an energy in omega0 units, as BendSpec
        # does; the optimizer's detunings are in units of Omega_max
        code, _, _ = run(
            capsys, "metrics", "--protocol", "2", "--n", "13", "--alpha", "7",
            "--kappa", "0.4", "--delta", "-1", "--out", str(tmp_path),
        )
        assert code == 0
        manifest = json.loads(
            (tmp_path / "metrics" / "metrics" / "manifest.json").read_text())
        assert manifest["chain"]["delta_alpha"] == -1.0
        assert manifest["delta_units"] == "omega0"
        code, _, _ = run(
            capsys, "optimize", "--protocol", "2", "--n", "13", "--alpha", "7",
            "--kappa", "0.4", "--out", str(tmp_path),
        )
        assert code == 0
        manifest = json.loads(
            (tmp_path / "optimize" / "optimize" / "manifest.json").read_text())
        assert manifest["delta_units"] == "omega_max"

    def test_sweep_kappa_csv(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "sweep-kappa", "--protocol", "2", "--n", "9",
            "--alpha", "5", "--grid", "0:0.5:1", "--out", str(tmp_path),
        )
        assert code == 0
        csv_path = tmp_path / "sweep-kappa" / "sweep-kappa" / "sweep_kappa.csv"
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "axis,p,t,q,s,delta_opt,q_opt,s_opt,on_boundary"
        assert len(lines) == 4
        # no optimum: the optimum columns and its boundary flag are empty
        assert all(line.endswith(",,,,") for line in lines[1:])

    def test_sweep_kappa_csv_roundtrip(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--grid", "0,0.4", "--optimize", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "sweep-kappa" / "sweep-kappa" / "sweep_kappa.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        table = sweep_kappa(ChainSpec(Protocol.PROTOCOL_2, 9), 5, [0.0, 0.4], optimize=True)
        assert rows[0] == ["axis", "p", "t", "q", "s", "delta_opt", "q_opt", "s_opt",
                           "on_boundary"]
        assert len(rows) == 3
        assert [r[8] for r in rows[1:]] == [
            str(int(r.optimized.on_boundary)) for r in table.rows]
        assert float(rows[1][0]) == 0.0
        assert math.isclose(float(rows[1][3]), table.rows[0].result.q, rel_tol=1e-12)
        assert math.isclose(
            float(rows[2][5]), table.rows[1].optimized.delta_star, rel_tol=1e-12
        )

    def test_optimize_and_label(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "optimize", "--protocol", "2", "--n", "13",
            "--alpha", "7", "--kappa", "0.5", "--label", "demo",
            "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads(
            (tmp_path / "optimize" / "demo" / "optimize.json").read_text()
        )
        spec = ChainSpec(Protocol.PROTOCOL_2, 13)
        expected = optimize_detuning(
            spec, BendSpec(alpha=7, kappa=0.5), reference(spec)
        )
        assert math.isclose(payload["delta_star"], expected.delta_star,
                            rel_tol=1e-9)
        assert payload["q_opt"] >= 0.99

    def test_optimize_interior_optimum_not_flagged(self, tmp_path, capsys):
        # the best coarse detuning is the -4 end of the default interval,
        # but the refined optimum lies inside it
        code, out, _ = run(
            capsys, "optimize", "--protocol", "2", "--n", "12", "--alpha", "5",
            "--kappa", "0.75", "--out", str(tmp_path),
        )
        assert code == 0
        assert "delta*=-3.996232" in out and "(boundary)" not in out
        payload = json.loads(
            (tmp_path / "optimize" / "optimize" / "optimize.json").read_text()
        )
        assert payload["on_boundary"] is False

    def test_calibrate_interior_optimum_does_not_warn(self, tmp_path, capsys):
        # the best grid ratio is the last one, 0.4, but the refined ratio
        # lies inside the grid
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(
                capsys, "calibrate", "--n", "5", "--grid", "0.05:0.05:0.4",
                "--out", str(tmp_path),
            )
        assert code == 0 and "ratio=0.392759" in out
        assert [str(w.message) for w in caught] == []

    def test_spectrum(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "spectrum", "--protocol", "2", "--n", "9",
            "--alpha", "5", "--kappa", "0.3", "--out", str(tmp_path),
        )
        assert code == 0
        csv_path = tmp_path / "spectrum" / "spectrum" / "spectrum.csv"
        header = csv_path.read_text().splitlines()[0]
        assert header == "k,gap_unperturbed,gap_bent,gap_optimized,overlap_unperturbed"

    def test_spectrum_csv(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "spectrum", "--protocol", "2", "--n", "9",
            "--alpha", "5", "--kappa", "0.4", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "spectrum" / "spectrum" / "spectrum.csv"
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "k",
            "gap_unperturbed",
            "gap_bent",
            "gap_optimized",
            "overlap_unperturbed",
        ]
        assert len(rows) == 9  # header + 8 gaps
        assert math.isclose(float(rows[1][1]), 2.0, abs_tol=1e-9)
        spec, bend = ChainSpec(Protocol.PROTOCOL_2, 9), BendSpec(alpha=5, kappa=0.4)
        res = optimize_detuning(spec, bend, reference(spec))
        rep = spectrum_report(spec, bend, res.delta_energy)
        expected = np.column_stack([rep.gaps["unperturbed"], rep.gaps["bent"],
                                    rep.gaps["bent_optimized"],
                                    rep.overlaps[:-1]])
        got = np.array(rows[1:], dtype=float)
        assert got[:, 0].tolist() == list(range(1, 9))
        np.testing.assert_allclose(got[:, 1:], expected, rtol=0, atol=1e-12)

    def test_design(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "design", "--protocol", "2", "--n", "9",
            "--L", "10", "--out", str(tmp_path),
        )
        assert code == 0
        assert "separations 21.8655..24.8796 um" in out
        layout = (tmp_path / "design" / "design" / "layout.csv").read_text()
        assert layout.splitlines()[0] == "j,d_um,coupling_per_cm"

    def test_design_layout_json_roundtrip(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "design", "--protocol", "2", "--n", "9",
            "--L", "10", "--out", str(tmp_path),
        )
        assert code == 0
        payload = json.loads((tmp_path / "design" / "design" / "layout.json").read_text())
        dev = DeviceParams(eta=19.5, xi=0.152, length=10.0)
        assert payload["device"] == asdict(dev)
        assert DeviceParams(**payload["device"]) == dev
        layout = design_layout(ChainSpec(Protocol.PROTOCOL_2, 9), dev)
        assert payload["separations_um"] == layout.separations.tolist()
        assert payload["couplings_per_cm"] == layout.couplings_physical.tolist()
        assert payload["omega0_per_cm"] == layout.omega0_physical

    def test_sweep_alpha_flags_pinned_optima(self, tmp_path, capsys):
        # corner 2 of this chain at kappa 0.4 is pinned at the -4 end of the
        # default detuning interval (as in figure fig4)
        code, _, _ = run(
            capsys, "sweep-alpha", "--protocol", "2", "--n", "21", "--kappa", "0.4",
            "--alpha-range", "2,3", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "sweep-alpha" / "sweep-alpha" / "sweep_alpha.csv"
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert (rows[0]["delta_opt"], rows[0]["on_boundary"]) == ("-4.0", "1")
        assert rows[1]["on_boundary"] == "0"

    @pytest.mark.parametrize("flags", [True, False], ids=["with", "without"])
    def test_fit_reads_sweeps_with_or_without_on_boundary(self, tmp_path, capsys, flags):
        code, _, _ = run(
            capsys, "sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--grid", "0.1:0.1:0.6", "--optimize", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "sweep-kappa" / "sweep-kappa" / "sweep_kappa.csv"
        if not flags:  # as the sweeps were written before the column existed
            with open(path, newline="") as fh:
                rows = [r[:8] for r in csv.reader(fh)]
            with open(path, "w", newline="") as fh:
                csv.writer(fh).writerows(rows)
        fits = {}
        for kind in ("gaussian", "linear"):
            code, _, _ = run(capsys, "fit", "--kind", kind, "--input", str(path),
                             "--out", str(tmp_path), "--label", kind)
            assert code == 0
            fits[kind] = json.loads((tmp_path / "fit" / kind / "fit.json").read_text())
        assert fits["linear"]["params"][0] < 0

    def test_manifests_record_resolved_configuration(self, tmp_path, capsys):
        # calibrate records omega0 and the window and grid it ran with,
        # defaults included; fit records the cut of a linear fit only
        for flags, resolved in (
            (("--omega0", "2"), (2.0, 4.0, "0.05:0.05:1")),  # window max(0.8 N, 8) / omega0
            (("--window", "6.5", "--grid", "0.1:0.1:1"), (1.0, 6.5, "0.1:0.1:1")),
        ):
            code, _, _ = run(capsys, "calibrate", "--n", "9", *flags, "--out", str(tmp_path))
            assert code == 0
            manifest = json.loads(
                (tmp_path / "calibrate" / "calibrate" / "manifest.json").read_text())
            assert (manifest["omega0"], manifest["window"], manifest["grid"]) == resolved
        path = tmp_path / "sweep.csv"
        kappas = np.linspace(0.0, 0.8, 9)
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["axis", "p", "t", "q", "s", "delta_opt"],
                                      *([k, 1.0, 1.0, math.exp(-2 * k * k), 1.0, -2 * k]
                                        for k in kappas)])
        for kind, flags, cut in (("linear", ("--kappa-cut", "0.5"), 0.5),
                                 ("linear", (), 0.7), ("gaussian", (), None)):
            code, _, _ = run(capsys, "fit", "--kind", kind, "--input", str(path), *flags,
                             "--out", str(tmp_path))
            assert code == 0
            manifest = json.loads((tmp_path / "fit" / "fit" / "manifest.json").read_text())
            assert manifest.get("kappa_cut") == cut

    def test_fit_linear_from_curve(self, tmp_path, capsys):
        # sweep-kappa --optimize writes the optimal-detuning curve, cell for
        # cell as detuning_curve gives it, and fit reads it from there
        code, _, _ = run(
            capsys, "sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--grid", "0.1:0.1:0.5", "--optimize", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "sweep-kappa" / "sweep-kappa" / "sweep_kappa.csv"
        with open(path, newline="") as fh:
            rows = [r[5:] for r in csv.reader(fh)][1:]
        spec = ChainSpec(Protocol.PROTOCOL_2, 9)
        curve = detuning_curve(spec, 5, parse_grid("0.1:0.1:0.5"), reference(spec))
        assert rows == [[repr(res.delta_star), repr(res.q_opt), repr(res.s_opt),
                         str(int(res.on_boundary))] for _, res in curve]
        code, out, _ = run(
            capsys, "fit", "--kind", "linear", "--input", str(path), "--out", str(tmp_path),
        )
        assert code == 0
        assert "slope=" in out
        payload = json.loads((tmp_path / "fit" / "fit" / "fit.json").read_text())
        expected = fit_linear([(kappa, res.delta_star) for kappa, res in curve])
        assert payload["params"] == list(expected.params) and expected.params[0] < 0

    def test_fit_overflowing_residuals(self, tmp_path, capsys):
        # the squared residuals overflowed: fit.json held "residual_rms":
        # Infinity with exit 0, and numpy warned
        path = tmp_path / "in.csv"
        path.write_text("axis,delta_opt\n0.1,1e300\n0.2,-1e300\n0.3,1e300\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, _ = run(capsys, "fit", "--kind", "linear", "--input", str(path),
                               "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "fit" / "fit" / "fit.json").read_text())
        assert math.isclose(report["residual_rms"], math.sqrt(8 / 9) * 1e300, rel_tol=1e-12)

    def test_optimize_interval_negative_bound(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "optimize", "--protocol", "2", "--n", "13", "--alpha", "7",
            "--kappa", "0.5", "--interval", "-3", "0.5", "--out", str(tmp_path),
        )
        assert code == 0
        run_dir = tmp_path / "optimize" / "optimize"
        payload = json.loads((run_dir / "optimize.json").read_text())
        spec = ChainSpec(Protocol.PROTOCOL_2, 13)
        expected = optimize_detuning(
            spec, BendSpec(alpha=7, kappa=0.5), reference(spec), interval=(-3.0, 0.5)
        )
        assert payload["delta_star"] == expected.delta_star
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["interval"] == [-3.0, 0.5]

    def test_deterministic_output(self, tmp_path, capsys):
        paths = []
        for tag in ("a", "b"):
            out_dir = tmp_path / tag
            run(
                capsys, "sweep-kappa", "--protocol", "2", "--n", "9",
                "--alpha", "5", "--grid", "0:0.2:0.6", "--optimize",
                "--out", str(out_dir),
            )
            paths.append(out_dir / "sweep-kappa" / "sweep-kappa" / "sweep_kappa.csv")
        assert paths[0].read_bytes() == paths[1].read_bytes()


class TestErrors:
    def test_missing_chain_args(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["reference", "--out", str(tmp_path)])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert "the following arguments are required: --protocol, --n" in out.err
        assert out.out == "" and not any(tmp_path.iterdir())

    def test_bad_alpha(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "metrics", "--protocol", "2", "--n", "9",
            "--alpha", "9", "--kappa", "0.4", "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE

    def test_nonfinite_delta_is_usage_error(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "metrics", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--kappa", "0.4", "--delta", "inf", "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert "delta_alpha must be finite" in err
        assert "nan" not in out

    def test_linalg_error_is_numerical(self, tmp_path, capsys, monkeypatch):
        def fail(args):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")

        monkeypatch.setitem(cli.COMMANDS, "reference", fail)
        code, _, err = run(
            capsys, "reference", "--protocol", "2", "--n", "9", "--out", str(tmp_path)
        )
        assert code == EXIT_NUMERICAL
        assert "numerical error" in err

    @pytest.mark.parametrize("command", ["metrics", "optimize"])
    def test_zero_reference_probability_is_numerical(self, tmp_path, capsys, command):
        # so weak a boundary coupling leaves p0 = 0 in the reference window
        code, out, err = run(
            capsys, command, "--protocol", "1", "--n", "9", "--ratio", "1e-300",
            "--alpha", "4", "--kappa", "0.5", "--out", str(tmp_path),
        )
        assert code == EXIT_NUMERICAL
        assert "numerical error" in err and "p0" in err
        assert "nan" not in out and not list(tmp_path.rglob("*.json"))

    @pytest.mark.parametrize("device,name", [
        (["--L", "nan"], "length"),
        (["--L", "10", "--xi", "nan"], "xi"),
        (["--L", "10", "--eta", "inf"], "eta"),
        (["--L", "10", "--wavelength", "nan"], "wavelength"),
    ])
    def test_nonfinite_device_is_usage_error(self, tmp_path, capsys, device, name):
        code, out, err = run(
            capsys, "design", "--protocol", "2", "--n", "9", *device,
            "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert f"{name} must be finite" in err
        assert "nan" not in out
        assert not list(tmp_path.rglob("layout.*"))

    @pytest.mark.parametrize("device", [
        ("--L", "10", "--xi", "5e-324"), ("--L", "10", "--xi", "1e-310"),
        ("--L", "1e300", "--eta", "1e300"),
    ], ids=["xi-subnormal", "xi-1e-310", "ratio-underflows"])
    def test_unrepresentable_separation_is_numerical(self, tmp_path, capsys, device):
        # the separations overflowed, and parasitic_check divided by a zero
        # coupling (exit 1); or C / eta underflowed to 0, and math.log raised
        # "math domain error" (exit 2)
        code, out, err = run(capsys, "design", "--protocol", "2", "--n", "9", *device,
                             "--out", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "separation not finite: coupling" in err and "eta=" in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_calibrate_zero_window_is_usage_error(self, tmp_path, capsys):
        # a window of 0 is rejected, not replaced by the default window
        code, out, err = run(
            capsys, "calibrate", "--n", "9", "--window", "0", "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert "window must be finite and > 0" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("omega0", ["0", "-1", "nan"])
    def test_calibrate_bad_omega0_is_usage_error(self, tmp_path, capsys, omega0):
        # rejected before the default window divides by it
        code, out, err = run(
            capsys, "calibrate", "--n", "6", "--omega0", omega0, "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert "omega0" in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_infinite_reference_time_is_numerical(self, tmp_path, capsys):
        # t0 = pi/(2*omega0) overflows: no NaN p0 or infinite t0 is written
        code, out, err = run(
            capsys, "reference", "--protocol", "2", "--n", "9", "--omega0", "1e-320",
            "--out", str(tmp_path),
        )
        assert code == EXIT_NUMERICAL
        assert "non-finite reference" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("reference", "--protocol", "1", "--n", "9", "--ratio", "0.7", "--omega0", "1e-308"),
        ("calibrate", "--n", "9", "--omega0", "1e-308"),
    ], ids=["reference", "calibrate"])
    def test_infinite_derived_window_is_numerical(self, tmp_path, capsys, argv):
        # the window max(40, 0.8 N)/omega0 or max(0.8 N, 8)/omega0 overflows:
        # a numerical failure, unlike an infinite --window (a usage error)
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert "non-finite window" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ("metrics", "--protocol", "1", "--n", "25", "--ratio", "1e308", "--alpha", "12",
         "--kappa", "0.5", "--omega0", "10"),
        ("metrics", "--protocol", "2", "--n", "9", "--alpha", "5", "--kappa", "0.4",
         "--omega0", "1.7e308"),
        ("optimize", "--protocol", "2", "--n", "13", "--alpha", "7", "--kappa", "0.5",
         "--omega0", "1e307"),
        ("metrics", "--protocol", "2", "--n", "3", "--omega0", "1e-308", "--alpha", "2",
         "--kappa", "0.5", "--delta", "1e308"),
        ("optimize", "--protocol", "2", "--n", "3", "--omega0", "1e308", "--alpha", "2",
         "--kappa", "0"),
    ], ids=["metrics-p1", "metrics-p2", "optimize", "scale-clip", "optimize-n3"])
    def test_overflowing_matrix_is_numerical(self, tmp_path, capsys, argv):
        # a coupling or detuning that overflows gave exit 2 with "scan needs
        # nan grid points", or exit 3 with "Eigenvalues did not converge";
        # numpy warned as a coupling, a detuning term or a scaled entry
        # overflowed
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == EXIT_NUMERICAL
        assert re.search("non-finite matrix|overflow", err)
        assert "did not converge" not in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("interval", [("0", "nan"), ("-1", "inf"), ("nan", "nan"),
                                          ("-1e308", "1e308")])
    def test_nonfinite_interval_is_usage_error(self, tmp_path, capsys, interval):
        code, out, err = run(
            capsys, "optimize", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--kappa", "0.4", "--interval", *interval, "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert "invalid interval" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("kind,text", [
        ("linear", "axis,delta_opt\n0.1,-0.2\n0.2,nan\n0.3,-0.6\n0.4,-0.8\n"),
        ("gaussian", "axis,p,t,q,s\n" + "".join(
            f"{k / 10},1,1,{'inf' if k == 3 else 1 - k / 100},1\n" for k in range(6))),
    ], ids=["linear", "gaussian"])
    def test_fit_nonfinite_point_is_usage_error(self, tmp_path, capsys, kind, text):
        path = tmp_path / "in.csv"
        path.write_text(text)
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "fit", "--kind", kind, "--input", str(path), "--out", str(out_dir)
        )
        assert code == EXIT_USAGE
        assert "fit points must be finite" in err
        assert out == "" and not out_dir.exists()

    def test_fit_overflowing_parameters_is_numerical(self, tmp_path, capsys):
        path = tmp_path / "in.csv"
        path.write_text("axis,delta_opt\n0.1,1.7e308\n0.2,1.7e308\n0.3,-1.7e308\n")
        out_dir = tmp_path / "out"
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            code, out, err = run(capsys, "fit", "--kind", "linear", "--input", str(path),
                                 "--out", str(out_dir))
        assert code == EXIT_NUMERICAL
        assert "linear fit is not finite" in err
        assert out == "" and not out_dir.exists()

    @pytest.mark.parametrize("kind,text,reason", [
        ("linear", "axis,delta_opt\n0.1,-1\n0.1,-2\n0.1,-3\n", "2 distinct kappa"),
        # kappas one ulp apart: the slope is as undetermined as with equal ones
        ("linear", "axis,delta_opt\n0.1,1\n0.1,2\n0.10000000000000002,3\n",
         "2 distinct kappa"),
        ("gaussian", "axis,p,t,q,s\n" + "".join(
            f"{k},1,1,{q},1\n" for k, q in
            [(0.3, 0.8), (-0.3, 0.8), (0.3, 0.81), (-0.3, 0.79), (0.3, 0.8)]),
         "2 distinct |kappa|"),
    ], ids=["linear", "linear-ulps-apart", "gaussian"])
    def test_fit_undetermined_is_usage_error(self, tmp_path, capsys, kind, text, reason):
        path = tmp_path / "in.csv"
        path.write_text(text)
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "fit", "--kind", kind, "--input", str(path), "--out", str(out_dir)
        )
        assert code == EXIT_USAGE
        assert reason in err
        assert out == "" and not out_dir.exists()

    def test_fit_gaussian_on_alpha_sweep_is_usage_error(self, tmp_path, capsys):
        # the CLI reads every input as a kappa sweep; the corners 2..11 of
        # an alpha sweep used to be fitted as kappas and exit 3
        code, _, _ = run(
            capsys, "sweep-alpha", "--protocol", "1", "--ratio", "0.6", "--n", "21",
            "--kappa", "0.9", "--no-optimize", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "sweep-alpha" / "sweep-alpha" / "sweep_alpha.csv"
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "fit", "--kind", "gaussian", "--input", str(path), "--out", str(out_dir)
        )
        assert code == EXIT_USAGE
        assert "gaussian fit expects kappa within [-1, 1]" in err
        assert out == "" and not out_dir.exists()

    def test_non_integer_alpha_range_is_usage_error(self, tmp_path, capsys):
        # 2.7 used to truncate to a second corner 2
        code, out, err = run(
            capsys, "sweep-alpha", "--protocol", "2", "--n", "9", "--kappa", "0.4",
            "--alpha-range", "2,2.7", "--no-optimize", "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert "integer corners" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "0:0.1:inf"],
        ["sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "1:0.1:0"],
        ["sweep-alpha", "--protocol", "2", "--n", "9", "--kappa", "0.4", "--alpha-range",
         "2:1:inf"],
        ["sweep-alpha", "--protocol", "2", "--n", "9", "--kappa", "0.4", "--alpha-range",
         "5:1:2"],
        ["calibrate", "--n", "6", "--grid", "0.1:0.1:inf"],
        ["calibrate", "--n", "6", "--grid", "1:0.1:0.5"],
        ["sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "0:1e-12:1"],
    ])
    def test_bad_grid_range_is_usage_error(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error: grid")
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("argv", [
        ["sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "0.5,0.5"],
        ["sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "0.3,0.2,0.3"],
        ["sweep-alpha", "--protocol", "2", "--n", "9", "--kappa", "0.4", "--alpha-range", "2,2"],
        ["sweep-alpha", "--protocol", "2", "--n", "9", "--kappa", "0.4", "--alpha-range", "3,2,3"],
        ["sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "0.5,0.5",
         "--optimize"],
        ["calibrate", "--n", "13", "--grid", "0.7,0.7"],
    ])
    def test_repeated_sweep_value_is_usage_error(self, tmp_path, capsys, argv):
        code, out, err = run(capsys, *argv, "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert err.startswith("error: repeated")
        assert out == "" and not any(tmp_path.iterdir())

    def test_empty_corner_range_is_usage_error(self, tmp_path, capsys):
        # N = 2 has no interior corner, so the default range 2..ceil(N/2) is empty
        code, out, err = run(capsys, "sweep-alpha", "--protocol", "2", "--n", "2",
                             "--kappa", "0.4", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "corner range is empty" in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_nan_calibration_ratio_is_usage_error(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "calibrate", "--n", "6", "--grid", "nan,0.5", "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert "ratio grid must lie within (0, 1]" in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_figure_failing_spectrum_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # fig5's second spectrum fails after the first one has succeeded
        calls = []

        def second_call_fails(*args):
            calls.append(args)
            if len(calls) == 2:
                raise FloatingPointError("gap distortion is not finite")
            return spectrum_report(*args)

        monkeypatch.setattr(cli, "spectrum_report", second_call_fails)
        code, out, err = run(capsys, "figure", "fig5", "--out", str(tmp_path))
        assert code == EXIT_NUMERICAL and len(calls) == 2
        assert "numerical error" in err
        assert out == "" and not any(tmp_path.iterdir())

    def test_figure_failing_panel_writes_nothing(self, tmp_path, capsys, monkeypatch):
        # fig2's second panel fails after the first one has succeeded
        calls = []

        def second_panel_fails(panel):
            calls.append(panel)
            if len(calls) == 2:
                raise FloatingPointError("p0 is not positive")
            return "first_panel.csv", (["axis"], [])

        monkeypatch.setattr(cli, "_figure_panel", second_panel_fails)
        code, out, err = run(capsys, "figure", "fig2", "--out", str(tmp_path))
        assert code == EXIT_NUMERICAL and len(calls) == 2
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("kind,text,missing", [
        ("gaussian", "", "axis"),
        ("gaussian", "axis,p,t,q\n0.1,1,1,1\n", "s"),
        ("linear", "a,delta_opt\n1,2\n", "axis"),
        ("linear", "kappa,q_opt\n0.1,1\n", "delta_opt"),
    ])
    def test_fit_input_missing_column(self, tmp_path, capsys, kind, text, missing):
        path = tmp_path / "in.csv"
        path.write_text(text)
        code, _, err = run(
            capsys, "fit", "--kind", kind, "--input", str(path), "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert f"needs a {missing} column" in err


# the smallest argv each subcommand accepts
MINIMAL_ARGV = {
    "reference": ["--protocol", "2", "--n", "9"],
    "calibrate": ["--n", "6"],
    "metrics": ["--protocol", "2", "--n", "9", "--alpha", "5", "--kappa", "0.4"],
    "sweep-kappa": ["--protocol", "2", "--n", "9", "--alpha", "5"],
    "sweep-alpha": ["--protocol", "2", "--n", "9", "--kappa", "0.4"],
    "optimize": ["--protocol", "2", "--n", "9", "--alpha", "5", "--kappa", "0.4"],
    "spectrum": ["--protocol", "2", "--n", "9", "--alpha", "5", "--kappa", "0.4"],
    "design": ["--protocol", "2", "--n", "9", "--L", "10"],
    "fit": ["--kind", "linear", "--input", "sweep.csv"],
    "figure": ["fig5"],
}


def _minimal(command: str) -> list[str]:
    return [command, *MINIMAL_ARGV[command]]


# every option of every subcommand, --help aside
OPTION_SURFACE = {
    "reference": ["--label", "--n", "--omega0", "--out", "--protocol", "--ratio"],
    "calibrate": ["--grid", "--label", "--n", "--omega0", "--out", "--window"],
    "metrics": ["--alpha", "--delta", "--kappa", "--label", "--n", "--omega0",
                "--out", "--protocol", "--ratio"],
    "sweep-kappa": ["--alpha", "--grid", "--label", "--n", "--omega0",
                    "--optimize", "--out", "--protocol", "--ratio"],
    "sweep-alpha": ["--alpha-range", "--kappa", "--label", "--n",
                    "--no-optimize", "--omega0", "--out", "--protocol", "--ratio"],
    "optimize": ["--alpha", "--interval", "--kappa", "--label", "--n", "--omega0",
                 "--out", "--protocol", "--ratio"],
    "spectrum": ["--alpha", "--kappa", "--label", "--n", "--omega0", "--out",
                 "--protocol", "--ratio"],
    "design": ["--L", "--eta", "--label", "--n", "--out", "--protocol", "--ratio",
               "--wavelength", "--xi"],
    "fit": ["--input", "--kappa-cut", "--kind", "--label", "--out"],
    "figure": ["--label", "--out"],
}


def _subparsers() -> dict[str, argparse.ArgumentParser]:
    (subparsers,) = [a for a in cli.build_parser()._actions
                     if isinstance(a, argparse._SubParsersAction)]
    return subparsers.choices


class TestOptionSurface:
    """Each subcommand accepts only the options it reads."""

    def test_option_surface_pinned(self):
        # a flag added, or left on a command that does not read it, must
        # change this table on purpose
        surface = {command: sorted(option for action in sub._actions
                                   if not isinstance(action, argparse._HelpAction)
                                   for option in action.option_strings)
                   for command, sub in _subparsers().items()}
        assert surface == OPTION_SURFACE

    @pytest.mark.parametrize("argv", [
        ["metrics", "--protocol", "2", "--n", "9", "--alpha", "5", "--kappa", "0.4",
         "--format", "json"],
        ["reference", "--protocol", "2", "--n", "9", "--jobs", "2"],
        ["reference", "--protocol", "2", "--n", "9", "--window", "3"],
        ["fit", "--kind", "linear", "--input", "sweep.csv", "--config", "x.json"],
        ["calibrate", "--n", "6", "--cache", "x.json"],
        # bend flags and omega0 of commands that do not read them; sweep-alpha's
        # --alpha is no abbreviation of --alpha-range
        [*_minimal("sweep-alpha"), "--alpha", "3"],
        [*_minimal("sweep-alpha"), "--delta", "-1"],
        [*_minimal("sweep-kappa"), "--kappa", "0.4"],
        [*_minimal("sweep-kappa"), "--delta", "-1"],
        # the table format option and the command that are deleted
        [*_minimal("sweep-kappa"), "--optimize", "--format", "json"],
        [*_minimal("sweep-alpha"), "--format", "csv"],
        ["curve", "--protocol", "2", "--n", "9", "--alpha", "5"],
        [*_minimal("optimize"), "--delta", "-1"],
        [*_minimal("spectrum"), "--delta", "-1"],
        [*_minimal("design"), "--omega0", "2.5"],
        *([*_minimal(command), "--epsilon", "0.37"] for command in MINIMAL_ARGV),
        ["figure", "fig5", "--jobs", "2"],
        # the chain file option that is deleted
        [*_minimal("reference"), "--config", "x.json"],
        [*_minimal("metrics"), "--config", "x.json"],
    ])
    def test_unread_option_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,flag", [
        *((command, "--alpha")
          for command in ("metrics", "sweep-kappa", "optimize", "spectrum")),
        *((command, "--kappa") for command in ("metrics", "sweep-alpha", "optimize", "spectrum")),
    ])
    def test_missing_bend_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        # metrics, optimize and spectrum used to run a kappa = 0 bend
        argv = _minimal(command)
        i = argv.index(flag)
        with pytest.raises(SystemExit) as exc:
            main([*argv[:i], *argv[i + 2:], "--out", str(tmp_path)])
        out = capsys.readouterr()
        assert exc.value.code == EXIT_USAGE
        assert f"the following arguments are required: {flag}\n" in out.err
        assert out.out == "" and not any(tmp_path.iterdir())


def _minimal_run(capsys, monkeypatch, tmp_path, command, *flags):
    """Run ``command`` with its minimal argv in ``tmp_path`` (fit reading a
    small linear sweep.csv there); return the exit code, stdout and the run
    directory."""
    monkeypatch.chdir(tmp_path)
    if command == "fit":
        with open("sweep.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["axis", "delta_opt"],
                                      *([k, -2 * k] for k in (0.1, 0.2, 0.3, 0.4))])
    code, out, _ = run(capsys, *_minimal(command), *flags, "--out", "out")
    (run_dir,) = (tmp_path / "out" / command).iterdir()
    return code, out, run_dir


class TestRunRecord:
    """main writes every manifest's header, and the payloads are the
    library's result dataclasses, field for field."""

    @pytest.mark.parametrize("command", list(MINIMAL_ARGV))
    def test_manifest_header(self, tmp_path, capsys, monkeypatch, command):
        code, _, run_dir = _minimal_run(capsys, monkeypatch, tmp_path, command)
        assert code == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["command"] == command
        assert manifest["tool_version"] == __version__
        assert manifest["delta_units"] == ("omega0" if command == "metrics" else "omega_max")

    @pytest.mark.parametrize("command,result_type", [
        ("metrics", TransferResult), ("optimize", OptimizationResult), ("fit", FitReport),
    ])
    def test_payload_has_the_result_fields(self, tmp_path, capsys, monkeypatch, command,
                                           result_type):
        code, _, run_dir = _minimal_run(capsys, monkeypatch, tmp_path, command)
        assert code == 0
        payload = json.loads((run_dir / f"{command}.json").read_text())
        assert list(payload) == [f.name for f in fields(result_type)]

    @pytest.mark.parametrize("omega0", ["1e-160", "1", "1e200"])
    @pytest.mark.parametrize("command,name,key", [
        ("metrics", "metrics.json", "t"),
        ("reference", "reference.json", "t0"),
        ("calibrate", "calibration.json", "t0"),
    ])
    def test_summary_time_matches_file(self, tmp_path, capsys, monkeypatch, omega0,
                                       command, name, key):
        # a fixed-decimal time printed 0.000000 at omega0 = 1e200
        code, out, run_dir = _minimal_run(capsys, monkeypatch, tmp_path, command,
                                          "--omega0", omega0)
        assert code == 0
        printed = float(re.search(rf" {key}=(\S+)", out).group(1))
        written = json.loads((run_dir / name).read_text())[key]
        assert math.isclose(printed, written, rel_tol=5e-6)

    @pytest.mark.parametrize("device", [("--L", "10"), ("--L", "1e9"),
                                        ("--L", "10", "--xi", "1e300")],
                             ids=["10", "1e9", "xi1e300"])
    def test_design_summary_matches_layout(self, tmp_path, capsys, monkeypatch, device):
        # fixed decimals printed omega0=0.00000/cm and a parasitic ratio of
        # 0.0000 for a device of length 1e9, and separations of 0.00 um at
        # xi = 1e300/um
        code, out, run_dir = _minimal_run(capsys, monkeypatch, tmp_path, "design", *device)
        assert code == 0
        layout = json.loads((run_dir / "layout.json").read_text())
        printed = float(re.search(r" omega0=(\S+)/cm", out).group(1))
        assert math.isclose(printed, layout["omega0_per_cm"], rel_tol=5e-6)
        printed = [float(v) for v in re.search(r"separations (\S+)\.\.(\S+) um", out).groups()]
        d = layout["separations_um"]
        assert all(math.isclose(p, v, rel_tol=5e-6) for p, v in zip(printed, (min(d), max(d))))
        dev = DeviceParams(**layout["device"])
        ratio = parasitic_check(design_layout(ChainSpec(Protocol.PROTOCOL_2, 9), dev),
                                dev).max_ratio
        printed = float(re.search(r"max parasitic ratio (\S+)", out).group(1))
        assert ratio > 0.0 and math.isclose(printed, ratio, rel_tol=5e-6)

    @pytest.mark.parametrize("kind,rows,names", [
        ("linear", [(k, 1.25e-8 * k) for k in (0.1, 0.2, 0.3)], ("slope", "intercept")),
        ("gaussian", [(k, 1e-9 * math.exp(-2 * k * k)) for k in (0.0, 0.2, 0.4, 0.6, 0.8, 1.0)],
         ("A", "sigma")),
    ], ids=["linear", "gaussian"])
    def test_fit_summary_matches_file(self, tmp_path, capsys, kind, rows, names):
        # fixed decimals printed a slope and an amplitude of 0.000000
        path = tmp_path / "sweep.csv"
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows([["axis", "p", "t", "q", "s", "delta_opt"],
                                      *([k, 1.0, 1.0, v, 1.0, v] for k, v in rows)])
        code, out, _ = run(capsys, "fit", "--kind", kind, "--input", str(path),
                           "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / "fit" / "fit" / "fit.json").read_text())
        for name, value in zip(names, report["params"]):
            printed = float(re.search(rf" {name}=(\S+)", out).group(1))
            assert value != 0.0 and math.isclose(printed, value, rel_tol=5e-6)


def _float_options():
    return [(command, action.option_strings[-1], action.nargs or 1)
            for command, sub in _subparsers().items()
            for action in sub._actions if action.type is float]


class TestNegativeExponentForm:
    """A negative number in exponent form is a value, not an option flag."""

    def test_float_options_are_found(self):
        # an empty list would leave the parametrized test below with no case
        assert len(_float_options()) >= 12

    @pytest.mark.parametrize("command,option,nargs", _float_options())
    def test_float_option_reads_exponent_form(self, command, option, nargs):
        parser = cli.build_parser()
        base = [command, *MINIMAL_ARGV[command], option]
        exponent = parser.parse_args([*base, *["-1.5e-1"] * nargs])
        decimal = parser.parse_args([*base, *["-0.15"] * nargs])
        assert exponent == decimal

    @pytest.mark.parametrize("argv,exponent,decimal", [
        (["metrics", "--protocol", "2", "--n", "13", "--alpha", "7", "--kappa", "0.4",
          "--delta", "{}"], "-1.5e-1", "-0.15"),
        (["optimize", "--protocol", "2", "--n", "13", "--alpha", "7", "--kappa", "0.5",
          "--interval", "{}", "0.5"], "-4e0", "-4"),
    ], ids=["metrics-delta", "optimize-interval"])
    def test_same_output_as_decimal_form(self, tmp_path, capsys, argv, exponent, decimal):
        outputs = []
        for value in (exponent, decimal):
            code, out, _ = run(capsys, *(a.replace("{}", value) for a in argv),
                               "--out", str(tmp_path / value))
            assert code == 0
            run_dir = tmp_path / value / argv[0] / argv[0]
            outputs.append((out, {p.name: p.read_bytes() for p in run_dir.iterdir()}))
        assert outputs[0] == outputs[1]


# edge values: the smallest subnormal to the largest finite float, signed
# zeros and NaN, with the ordinary values between
EDGE_OMEGA0 = [5e-324, 1e-320, 1e-308, 1e-300, 1.0, 1e300, 1e307, 1e308, 1.7e308,
               0.0, -0.0, math.nan]
EDGE_DELTA = [1e308, -1e308, 0.0, -1.0]
EDGE_RATIO = [1e-300, 0.7, 1e300]
EDGE_KAPPA = [-0.0, 1e-320, 1.0, 1.5, math.nan]
# optimize's --interval ends: the default pair among them, and ends whose
# width overflows
EDGE_INTERVAL_LO = [-1.7e308, -1e308, -4.0, -0.0]
EDGE_INTERVAL_HI = [0.0, 0.5, 1e308, 1.7e308]
# design's --L, --eta, --xi and --wavelength: ordinary values, up to two of
# them replaced by edge values
DEVICE_FLAGS = {"--L": 10.0, "--eta": 19.5, "--xi": 0.152, "--wavelength": 633.0}
EDGE_DEVICE = [5e-324, 1e-310, 1e-300, 1e300, 1.7e308, 0.0, -1.0, math.inf, math.nan]
# a fit input's axis (mostly kappas a gaussian fit accepts) and its q and
# delta_opt
EDGE_AXIS = [-1e300, -1.0, -0.0, 5e-324, 0.1, 0.3, 0.7, 1.0, math.nan]
EDGE_FIT_VALUE = [5e-324, -0.0, 0.5, -1.0, 1e-300, 1e300, -1e300, 1.7e308, -1.7e308,
                  math.nan]


@st.composite
def _contract_argv(draw):
    """A command line, and for fit the (axis, value) rows of its input
    (whose path is the argument "INPUT")."""
    command = draw(st.sampled_from(["reference", "metrics", "optimize", "sweep-kappa",
                                    "sweep-alpha", "spectrum", "calibrate", "design",
                                    "fit"]))
    if command == "fit":
        rows = draw(st.lists(st.tuples(st.sampled_from(EDGE_AXIS),
                                       st.sampled_from(EDGE_FIT_VALUE)),
                             min_size=3, max_size=8))
        kind = draw(st.sampled_from(["gaussian", "linear"]))
        return [command, "--kind", kind, "--input", "INPUT"], rows
    n = draw(st.integers(3, 9))
    if command == "calibrate":
        return [command, "--n", str(n), "--omega0", repr(draw(st.sampled_from(EDGE_OMEGA0)))], []
    protocol = draw(st.sampled_from([1, 2]))
    argv = [command, "--protocol", str(protocol), "--n", str(n)]
    if command == "design":  # an ordinary chain on an edge device
        if protocol == 1:
            argv += ["--ratio", "0.7"]
        edges = draw(st.dictionaries(st.sampled_from(list(DEVICE_FLAGS)),
                                     st.sampled_from(EDGE_DEVICE), max_size=2))
        for flag, ordinary in DEVICE_FLAGS.items():
            argv += [flag, repr(edges.get(flag, ordinary))]
        return argv, []
    if command == "optimize":
        argv += ["--interval", repr(draw(st.sampled_from(EDGE_INTERVAL_LO))),
                 repr(draw(st.sampled_from(EDGE_INTERVAL_HI)))]
    if command in ("optimize", "spectrum") and draw(st.booleans()):
        # an ordinary bend, so that optimize reaches its interval check and
        # spectrum, at an edge omega0, can reach its eigen-solves
        ratio = ["--ratio", "0.7"] if protocol == 1 else []
        omega0 = (["--omega0", repr(draw(st.sampled_from(EDGE_OMEGA0)))]
                  if command == "spectrum" else [])
        return argv + [*ratio, *omega0, "--alpha", "2", "--kappa", "0.4"], []
    if protocol == 1:
        argv += ["--ratio", repr(draw(st.sampled_from(EDGE_RATIO)))]
    argv += ["--omega0", repr(draw(st.sampled_from(EDGE_OMEGA0)))]
    if command not in ("reference", "sweep-alpha"):
        argv += ["--alpha", str(draw(st.sampled_from([1, 2, n - 1, n])))]
    if command in ("metrics", "optimize", "sweep-alpha", "spectrum"):
        argv += ["--kappa", repr(draw(st.sampled_from(EDGE_KAPPA)))]
    if command == "metrics":
        argv += ["--delta", repr(draw(st.sampled_from(EDGE_DELTA)))]
    if command == "sweep-kappa":
        argv += ["--optimize", "--grid", "0:0.5:1"]
    return argv, []


def _finite_numbers(value) -> bool:
    """Whether every number in a JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(case=_contract_argv())
def test_cli_contract_at_edge_values(case):
    # exit 0, 2, 3 or 4 and no RuntimeWarning; a run that succeeds writes
    # finite numbers only (a CSV optimum cell may be empty), and any other
    # leaves --out empty
    argv, rows = case
    with tempfile.TemporaryDirectory() as tmp, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        source, out = Path(tmp) / "sweep.csv", Path(tmp) / "out"
        with open(source, "w", newline="") as fh:
            csv.writer(fh).writerows([["axis", "p", "t", "q", "s", "delta_opt"],
                                      *([x, 1.0, 1.0, v, 1.0, v] for x, v in rows)])
        try:
            code = main([str(source) if a == "INPUT" else a for a in argv]
                        + ["--out", str(out)])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, EXIT_USAGE, EXIT_NUMERICAL, EXIT_IO)
        files = [p for p in out.rglob("*") if p.is_file()]
        if code != 0:
            assert not files
        for path in files:
            if path.suffix == ".csv":
                with open(path, newline="") as fh:
                    cells = [c for row in list(csv.reader(fh))[1:] for c in row if c]
                assert all(math.isfinite(float(c)) for c in cells), path.name
            else:
                assert _finite_numbers(json.loads(path.read_text())), path.name
