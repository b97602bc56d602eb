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

    def test_curve_manifest_records_only_the_corner(self, tmp_path, capsys):
        # curve optimizes each kappa of its grid: the chain it records has
        # the corner but no kappa or delta_alpha of a bend
        code, _, _ = run(
            capsys, "curve", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--grid", "0.2,0.4", "--out", str(tmp_path),
        )
        assert code == 0
        manifest = json.loads((tmp_path / "curve" / "curve" / "manifest.json").read_text())
        assert manifest["chain"] == {"protocol": 2, "n_sites": 9, "omega0": 1.0, "alpha": 5}

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

    def test_sweep_kappa_json(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--grid", "0,0.4", "--format", "json", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "sweep-kappa" / "sweep-kappa" / "sweep_kappa.json"
        payload = json.loads(path.read_text())
        table = sweep_kappa(ChainSpec(Protocol.PROTOCOL_2, 9), 5, [0.0, 0.4])
        assert payload["axis"] == "kappa"
        assert payload["metadata"]["n_sites"] == 9
        assert len(payload["rows"]) == 2
        for rec, row in zip(payload["rows"], table.rows):
            assert math.isclose(rec["q"], row.result.q, rel_tol=1e-12)
            assert rec["delta_opt"] is None and rec["on_boundary"] is None

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
                                    rep.overlaps["unperturbed"][:-1]])
        got = np.array(rows[1:], dtype=float)
        assert got[:, 0].tolist() == list(range(1, 9))
        np.testing.assert_allclose(got[:, 1:], expected, rtol=0, atol=1e-12)

    def test_design(self, tmp_path, capsys):
        code, out, _ = run(
            capsys, "design", "--protocol", "2", "--n", "9",
            "--L", "10", "--out", str(tmp_path),
        )
        assert code == 0
        assert "21.87" in out and "24.88" in out
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
            "--alpha-range", "2,3", "--format", "json", "--out", str(tmp_path),
        )
        assert code == 0
        path = tmp_path / "sweep-alpha" / "sweep-alpha" / "sweep_alpha.json"
        rows = json.loads(path.read_text())["rows"]
        assert [(r["delta_opt"], r["on_boundary"]) for r in rows][0] == (-4.0, 1)
        assert rows[1]["on_boundary"] == 0

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
        code, _, _ = run(
            capsys, "curve", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--grid", "0.1:0.1:0.5", "--out", str(tmp_path),
        )
        assert code == 0
        curve_csv = tmp_path / "curve" / "curve" / "curve.csv"
        code, out, _ = run(
            capsys, "fit", "--kind", "linear", "--input", str(curve_csv),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "slope=" in out
        payload = json.loads((tmp_path / "fit" / "fit" / "fit.json").read_text())
        assert payload["params"][0] < 0

    def test_config_file(self, tmp_path, capsys):
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps(
            {"protocol": 2, "n_sites": 9, "alpha": 5, "kappa": 0.4}
        ))
        code, out, _ = run(
            capsys, "metrics", "--config", str(cfg), "--out", str(tmp_path)
        )
        assert code == 0
        # CLI flags override config values
        code2, out2, _ = run(
            capsys, "metrics", "--config", str(cfg), "--kappa", "0.0",
            "--out", str(tmp_path),
        )
        assert code2 == 0
        q2 = json.loads(
            (tmp_path / "metrics" / "metrics" / "metrics.json").read_text()
        )["q"]
        assert math.isclose(q2, 1.0, abs_tol=1e-8)

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
        code, _, err = run(capsys, "reference", "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert "error" in err

    def test_missing_config_file(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "reference", "--protocol", "2", "--n", "9",
            "--config", str(tmp_path / "nope.json"), "--out", str(tmp_path),
        )
        assert code == EXIT_IO

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
        def fail(args, config):
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

    def test_malformed_config_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "chain.json"
        cfg.write_text("{bad")
        code, _, err = run(
            capsys, "metrics", "--config", str(cfg), "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: config")

    @pytest.mark.parametrize("content", [
        [1, 2],
        {"protocol": 2, "n_sites": None, "alpha": 5, "kappa": 0.4},
    ])
    def test_config_of_wrong_type_is_usage_error(self, tmp_path, capsys, content):
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps(content))
        code, _, err = run(
            capsys, "metrics", "--config", str(cfg), "--out", str(tmp_path)
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: ")

    # Infinity (which json reads) used to escape as an OverflowError
    @pytest.mark.parametrize("key,value", [
        ("protocol", 2.9), ("n_sites", 9.7), ("n_sites", True), ("n_sites", math.inf),
        ("alpha", 5.5),
    ])
    def test_config_non_integral_integer_is_usage_error(self, tmp_path, capsys, key, value):
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps(
            {"protocol": 2, "n_sites": 9, "alpha": 5, "kappa": 0.4, key: value}
        ))
        out_dir = tmp_path / "out"
        code, _, err = run(
            capsys, "metrics", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == EXIT_USAGE
        assert f"{key} must be an integer" in err
        assert not out_dir.exists()

    @pytest.mark.parametrize("key", [
        "omega0", "boundary_ratio", "kappa", "delta_alpha",
    ])
    def test_config_bool_float_field_is_usage_error(self, tmp_path, capsys, key):
        # float() read true as 1.0: kappa true ran a kappa = 1 bend
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps(
            {"protocol": 2, "n_sites": 9, "alpha": 5, "kappa": 0.4, key: True}
        ))
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "metrics", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == EXIT_USAGE
        assert f"{key} must be a number" in err
        assert out == "" and not out_dir.exists()

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

    @pytest.mark.parametrize("interval", [("0", "nan"), ("-1", "inf"), ("nan", "nan")])
    def test_nonfinite_interval_is_usage_error(self, tmp_path, capsys, interval):
        code, out, err = run(
            capsys, "optimize", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--kappa", "0.4", "--interval", *interval, "--out", str(tmp_path),
        )
        assert code == EXIT_USAGE
        assert "invalid interval" in err
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("kind,text", [
        ("linear", "kappa,delta_opt\n0.1,-0.2\n0.2,nan\n0.3,-0.6\n0.4,-0.8\n"),
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

    @pytest.mark.parametrize("kind,text,reason", [
        ("linear", "axis,delta_opt\n0.1,-1\n0.1,-2\n0.1,-3\n", "2 distinct kappa"),
        ("gaussian", "axis,p,t,q,s\n" + "".join(
            f"{k},1,1,{q},1\n" for k, q in
            [(0.3, 0.8), (-0.3, 0.8), (0.3, 0.81), (-0.3, 0.79), (0.3, 0.8)]),
         "2 distinct |kappa|"),
    ], ids=["linear", "gaussian"])
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

    def test_sweep_alpha_config_kappa_list_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({"protocol": 2, "n_sites": 9, "kappa": [1]}))
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "sweep-alpha", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: bad chain parameter: kappa")
        assert out == "" and not out_dir.exists()

    def test_sweep_alpha_config_kappa_bool_is_usage_error(self, tmp_path, capsys):
        # float(True) ran every corner at kappa = 1
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({"protocol": 2, "n_sites": 9, "kappa": True}))
        out_dir = tmp_path / "out"
        code, out, err = run(
            capsys, "sweep-alpha", "--config", str(cfg), "--out", str(out_dir)
        )
        assert code == EXIT_USAGE
        assert err.startswith("error: bad chain parameter: kappa")
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
        ["curve", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "0:0.1:inf"],
        ["curve", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "1:0.1:0"],
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
        ["curve", "--protocol", "2", "--n", "9", "--alpha", "5", "--grid", "0.5,0.5"],
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
        ("linear", "a,b\n1,2\n", "axis or kappa"),
        ("linear", "kappa,q_opt\n0.1,1\n", "delta_opt or delta_star"),
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
    "curve": ["--protocol", "2", "--n", "9", "--alpha", "5"],
    "spectrum": ["--protocol", "2", "--n", "9", "--alpha", "5", "--kappa", "0.4"],
    "design": ["--protocol", "2", "--n", "9", "--L", "10"],
    "fit": ["--kind", "linear", "--input", "curve.csv"],
    "figure": ["fig5"],
}


def _minimal(command: str) -> list[str]:
    return [command, *MINIMAL_ARGV[command]]


# every option of every subcommand, --help aside
OPTION_SURFACE = {
    "reference": ["--config", "--label", "--n", "--omega0", "--out", "--protocol", "--ratio"],
    "calibrate": ["--grid", "--label", "--n", "--omega0", "--out", "--window"],
    "metrics": ["--alpha", "--config", "--delta", "--kappa", "--label", "--n", "--omega0",
                "--out", "--protocol", "--ratio"],
    "sweep-kappa": ["--alpha", "--config", "--format", "--grid", "--label", "--n", "--omega0",
                    "--optimize", "--out", "--protocol", "--ratio"],
    "sweep-alpha": ["--alpha-range", "--config", "--format", "--kappa", "--label", "--n",
                    "--no-optimize", "--omega0", "--out", "--protocol", "--ratio"],
    "optimize": ["--alpha", "--config", "--interval", "--kappa", "--label", "--n", "--omega0",
                 "--out", "--protocol", "--ratio"],
    "curve": ["--alpha", "--config", "--grid", "--label", "--n", "--omega0", "--out",
              "--protocol", "--ratio"],
    "spectrum": ["--alpha", "--config", "--kappa", "--label", "--n", "--omega0", "--out",
                 "--protocol", "--ratio"],
    "design": ["--L", "--config", "--eta", "--label", "--n", "--out", "--protocol", "--ratio",
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
        ["fit", "--kind", "linear", "--input", "curve.csv", "--config", "x.json"],
        ["calibrate", "--n", "6", "--cache", "x.json"],
        # bend flags and omega0 of commands that do not read them; sweep-alpha's
        # --alpha is no abbreviation of --alpha-range
        [*_minimal("sweep-alpha"), "--alpha", "3"],
        [*_minimal("sweep-alpha"), "--delta", "-1"],
        [*_minimal("sweep-kappa"), "--kappa", "0.4"],
        [*_minimal("sweep-kappa"), "--delta", "-1"],
        [*_minimal("curve"), "--kappa", "0.4"],
        [*_minimal("curve"), "--delta", "-1"],
        [*_minimal("optimize"), "--delta", "-1"],
        [*_minimal("spectrum"), "--delta", "-1"],
        [*_minimal("design"), "--omega0", "2.5"],
        *([*_minimal(command), "--epsilon", "0.37"] for command in MINIMAL_ARGV),
        ["figure", "fig5", "--jobs", "2"],
    ])
    def test_unread_option_is_usage_error(self, tmp_path, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(tmp_path)])
        assert exc.value.code == EXIT_USAGE
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command,flag", [
        *((command, "--alpha")
          for command in ("metrics", "sweep-kappa", "optimize", "curve", "spectrum")),
        *((command, "--kappa") for command in ("metrics", "sweep-alpha", "optimize", "spectrum")),
    ])
    def test_missing_bend_flag_is_usage_error(self, tmp_path, capsys, command, flag):
        # metrics, optimize and spectrum used to run a kappa = 0 bend
        argv = _minimal(command)
        i = argv.index(flag)
        code, out, err = run(capsys, *argv[:i], *argv[i + 2:], "--out", str(tmp_path))
        assert code == EXIT_USAGE
        assert err == f"error: {command} needs {flag}\n"
        assert out == "" and not any(tmp_path.iterdir())

    @pytest.mark.parametrize("command", ["reference", "sweep-alpha", "design"])
    def test_config_keys_not_read_are_ignored(self, tmp_path, capsys, command):
        # keys of flags the command does not take, even invalid ones
        argv = MINIMAL_ARGV[command][4:]  # all but --protocol 2 --n 9
        cfg = tmp_path / "chain.json"
        cfg.write_text(json.dumps({"protocol": 2, "n_sites": 9}))
        unread = tmp_path / "unread.json"
        unread.write_text(json.dumps({
            "protocol": 2, "n_sites": 9, "epsilon": 0.37, "delta_alpha": True,
            **({"omega0": 2.5} if command == "design" else {}),
            **({"alpha": 1} if command == "sweep-alpha" else {"alpha": 5, "kappa": True}),
        }))
        outputs = []
        for config in (cfg, unread):
            out_dir = tmp_path / config.stem
            code, out, _ = run(capsys, command, *argv, "--config", str(config),
                               "--out", str(out_dir))
            assert code == 0
            run_dir = out_dir / command / command
            outputs.append({p.name: p.read_bytes() for p in run_dir.iterdir()})
        assert outputs[0] == outputs[1]

    def test_sweep_takes_format(self, tmp_path, capsys):
        code, _, _ = run(
            capsys, "sweep-kappa", "--protocol", "2", "--n", "9", "--alpha", "5",
            "--grid", "0:0.5:1", "--format", "json", "--out", str(tmp_path),
        )
        assert code == 0
        assert (tmp_path / "sweep-kappa" / "sweep-kappa" / "sweep_kappa.json").exists()


def _minimal_run(capsys, monkeypatch, tmp_path, command, *flags):
    """Run ``command`` with its minimal argv in ``tmp_path`` (fit reading a
    small linear curve.csv there); return the exit code, stdout and the run
    directory."""
    monkeypatch.chdir(tmp_path)
    if command == "fit":
        with open("curve.csv", "w", newline="") as fh:
            csv.writer(fh).writerows([["kappa", "delta_opt"],
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

    @pytest.mark.parametrize("length", ["10", "1e9"])
    def test_design_summary_matches_layout(self, tmp_path, capsys, monkeypatch, length):
        # fixed decimals printed omega0=0.00000/cm and a parasitic ratio of
        # 0.0000 for a device of length 1e9
        code, out, run_dir = _minimal_run(capsys, monkeypatch, tmp_path, "design",
                                          "--L", length)
        assert code == 0
        layout = json.loads((run_dir / "layout.json").read_text())
        printed = float(re.search(r" omega0=(\S+)/cm", out).group(1))
        assert math.isclose(printed, layout["omega0_per_cm"], rel_tol=5e-6)
        dev = DeviceParams(**layout["device"])
        ratio = parasitic_check(design_layout(ChainSpec(Protocol.PROTOCOL_2, 9), dev),
                                dev).max_ratio
        printed = float(re.search(r"max parasitic ratio (\S+)", out).group(1))
        assert ratio > 0.0 and math.isclose(printed, ratio, rel_tol=5e-6)


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


@st.composite
def _contract_argv(draw):
    command = draw(st.sampled_from(["reference", "metrics", "optimize", "sweep-kappa",
                                    "sweep-alpha", "spectrum", "calibrate"]))
    n = draw(st.integers(3, 9))
    omega0 = repr(draw(st.sampled_from(EDGE_OMEGA0)))
    if command == "calibrate":
        return [command, "--n", str(n), "--omega0", omega0]
    protocol = draw(st.sampled_from([1, 2]))
    argv = [command, "--protocol", str(protocol), "--n", str(n), "--omega0", omega0]
    if protocol == 1:
        argv += ["--ratio", repr(draw(st.sampled_from(EDGE_RATIO)))]
    if command not in ("reference", "sweep-alpha"):
        argv += ["--alpha", str(draw(st.sampled_from([1, 2, n - 1, n])))]
    if command in ("metrics", "optimize", "sweep-alpha", "spectrum"):
        argv += ["--kappa", repr(draw(st.sampled_from(EDGE_KAPPA)))]
    if command == "metrics":
        argv += ["--delta", repr(draw(st.sampled_from(EDGE_DELTA)))]
    if command == "sweep-kappa":
        argv += ["--optimize", "--grid", "0:0.5:1"]
    return argv


def _finite_numbers(value) -> bool:
    """Whether every number in a JSON value is finite."""
    if isinstance(value, dict):
        return all(_finite_numbers(v) for v in value.values())
    if isinstance(value, list):
        return all(_finite_numbers(v) for v in value)
    return not isinstance(value, float) or math.isfinite(value)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(argv=_contract_argv())
def test_cli_contract_at_edge_values(argv):
    # exit 0, 2, 3 or 4 and no RuntimeWarning; a run that succeeds writes
    # finite numbers only (a CSV optimum cell may be empty), and any other
    # leaves --out empty
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings(), \
            contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        warnings.simplefilter("error", RuntimeWarning)
        try:
            code = main([*argv, "--out", out])
        except SystemExit as exc:
            code = exc.code
        assert code in (0, EXIT_USAGE, EXIT_NUMERICAL, EXIT_IO)
        files = [p for p in Path(out).rglob("*") if p.is_file()]
        if code != 0:
            assert not files
        for path in files:
            if path.suffix == ".csv":
                with open(path, newline="") as fh:
                    cells = [c for row in list(csv.reader(fh))[1:] for c in row if c]
                assert all(math.isfinite(float(c)) for c in cells), path.name
            else:
                assert _finite_numbers(json.loads(path.read_text())), path.name
