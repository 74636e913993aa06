import csv
import io
import itertools
import math
from pathlib import Path

import numpy as np
import pytest

from dmasim import DmaDesign, ScenarioConfig, resonance_grid
from dmasim.cli import _configs_from_args, build_parser, main
from dmasim.experiments import SPECTRUM_HEADER, ExperimentPlan, _write_csv, read_body, run_plan, spectrum_rows
from dmasim.metrics import run_beamformer
from dmasim.channel import effective_channel
from dmasim.params import _CONFIG_KEYS, save_config


@pytest.fixture
def small_cfg():
    return ScenarioConfig(b=2e8, k=8)


@pytest.fixture
def small_design():
    return DmaDesign(n_slot=8)


def table(path) -> list[dict]:
    """A written CSV's rows, each {column: cell}."""
    return list(csv.DictReader(io.StringIO(read_body(path))))


def parse_spectrum_csv(path) -> tuple[list[dict], dict]:
    """Read a spectrum CSV back: (per-subcarrier dicts, summary dict)."""
    per_k: list[dict] = []
    summary: dict = {}
    for row in table(path):
        if row["k"] == "summary":
            summary = {
                "scenario_id": row["scenario_id"],
                "algorithm": row["algorithm"],
                "g_sum": float(row["gain"]),
                "capacity": float(row["rho"]),
                "rate": float(row["se_k"]),
            }
        else:
            per_k.append({**row, "k": int(row["k"]), **{c: float(row[c]) for c in ("f_k", "gain", "rho", "se_k")}})
    return per_k, summary


class TestPlanValidation:
    def test_unknown_kind(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentPlan(kind="sweep-everything", out_dir=tmp_path)

    def test_unsorted_axis(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentPlan(kind="sweep-angle", out_dir=tmp_path, axis=(0.5, -0.5))

    def test_non_finite_axis(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentPlan(kind="sweep-angle", out_dir=tmp_path, axis=(0.0, math.inf))

    def test_bad_trial_count(self, tmp_path):
        with pytest.raises(ValueError):
            ExperimentPlan(kind="multipath-mc", out_dir=tmp_path, trials=0)

    @pytest.mark.parametrize(
        "kwargs,message",
        [
            ({"trials": 2.5}, "trials must be an integer >= 1, got 2.5"),  # unchecked, a TypeError inside numpy
            ({"r_res": 2.5}, "r_res must be an integer >= 1, got 2.5"),
            ({"seed": 1.5}, "seed must be an integer >= 0, got 1.5"),
            ({"seed": -1}, "seed must be an integer >= 0, got -1"),  # unchecked, numpy's message without the field
        ],
    )
    def test_rejects_fractional_count_or_negative_seed(self, tmp_path, kwargs, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            ExperimentPlan(kind="multipath-mc", out_dir=tmp_path, **kwargs)

    def test_integral_float_counts_kept_as_ints(self, tmp_path):
        plan = ExperimentPlan(kind="multipath-mc", out_dir=tmp_path, trials=2.0, seed=3.0, r_res=51.0)
        assert (plan.trials, plan.seed, plan.r_res) == (2, 3, 51)
        assert {type(plan.trials), type(plan.seed), type(plan.r_res)} == {int}

    def test_rejected_before_any_output(self, tmp_path, small_cfg, small_design):
        plan = ExperimentPlan(kind="multipath-mc", out_dir=tmp_path / "mc", axis=(1.0, 1.5), trials=2, r_res=51)
        with pytest.raises(ValueError, match=r"^l_path must be an integer >= 1, got 1\.5$"):  # MultipathSpec's rule
            run_plan(plan, small_cfg, small_design)
        assert not (tmp_path / "mc" / "multipath_mc.csv").exists()


    @pytest.mark.parametrize(
        "kind,axis",
        [
            ("validate-approx", (1e9, 1e12)),
            ("sweep-bandwidth", (-1.0, 1e8)),
            ("sweep-tuning", (1e9, 1e12)),
            ("sweep-lambda", (0.5, 1.5)),
            ("sweep-angle", (0.0, 2.0)),
            ("sweep-spacing", (-0.01, 0.005)),
            ("sweep-damping", (-1.0, 50.0)),
            ("max-rate", (1e9, 1e12)),
            ("multipath-mc", (1.0, 1.5)),
        ],
    )
    def test_axis_checked_before_any_solve(self, tmp_path, monkeypatch, small_cfg, small_design, kind, axis):
        def no_solve(*args):
            raise AssertionError("channel built before the axis was checked")

        monkeypatch.setattr("dmasim.experiments.effective_channel", no_solve)
        monkeypatch.setattr("dmasim.experiments.multipath_channel", no_solve)
        trials = {"trials": 2} if kind == "multipath-mc" else {}  # the other kinds reject a trial count
        plan = ExperimentPlan(kind=kind, out_dir=tmp_path / "out", axis=axis, r_res=51, **trials)
        with pytest.raises(ValueError):
            run_plan(plan, small_cfg, small_design)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind", ["sweep-tuning", "multipath-mc"])
    def test_resolution_checked_before_any_solve(self, tmp_path, monkeypatch, small_cfg, small_design, kind):
        def no_solve(*args):
            raise AssertionError("channel built before the resolution was checked")

        monkeypatch.setattr("dmasim.experiments.effective_channel", no_solve)
        monkeypatch.setattr("dmasim.experiments.multipath_channel", no_solve)
        trials = {"trials": 2} if kind == "multipath-mc" else {}
        with pytest.raises(ValueError, match="^r_res must be an integer >= 1, got 0$"):
            plan = ExperimentPlan(kind=kind, out_dir=tmp_path / "out", axis=(1.0,), r_res=0, **trials)
            run_plan(plan, small_cfg, small_design)
        assert not (tmp_path / "out").exists()


class TestDeterminism:
    def test_rerun_is_byte_identical_after_timestamp(self, tmp_path, small_cfg, small_design):
        plans = [
            ExperimentPlan(kind="sweep-angle", out_dir=tmp_path / "a", axis=(-0.5, 0.0, 0.5), r_res=101),
            ExperimentPlan(kind="sweep-angle", out_dir=tmp_path / "b", axis=(-0.5, 0.0, 0.5), r_res=101),
        ]
        first = run_plan(plans[0], small_cfg, small_design)
        second = run_plan(plans[1], small_cfg, small_design)
        assert read_body(first[0]) == read_body(second[0])

    def test_multipath_seeded_rerun(self, tmp_path, small_cfg, small_design):
        out = []
        for sub in ("a", "b"):
            plan = ExperimentPlan(
                kind="multipath-mc", out_dir=tmp_path / sub, axis=(1.0, 2.0), trials=3, seed=9, r_res=51
            )
            out.append(read_body(run_plan(plan, small_cfg, small_design)[0]))
        assert out[0] == out[1]


class TestSpectrumSchema:
    def test_round_trip(self, tmp_path, small_cfg, small_design):
        channels = effective_channel(small_cfg, small_design)
        grid = resonance_grid(small_design, channels.grid)
        _, spectrum = run_beamformer("center-frequency", channels, small_cfg, grid)
        rows = spectrum_rows("s1", "center-frequency", channels.grid.frequencies, spectrum)
        per_k, summary = parse_spectrum_csv(_write_csv(tmp_path / "spectrum.csv", SPECTRUM_HEADER, rows))
        assert len(per_k) == small_cfg.k
        assert per_k[3]["gain"] == spectrum.gain[3]
        assert summary["g_sum"] == spectrum.g_sum
        assert summary["capacity"] == spectrum.capacity
        assert summary["rate"] == spectrum.rate

    def test_every_row_parses_back(self, tmp_path, small_cfg, small_design):
        plan = ExperimentPlan(kind="sweep-bandwidth", out_dir=tmp_path, axis=(1e8, 2e8), r_res=101)
        written = run_plan(plan, small_cfg, small_design)
        spectra = [p for p in written if p.name.startswith("spectrum_")]
        assert len(spectra) == 2
        for path in spectra:
            per_k, summary = parse_spectrum_csv(path)
            assert len(per_k) == small_cfg.k
            assert summary["algorithm"] in ("center-frequency", "successive")
            assert summary["capacity"] == pytest.approx(np.mean([r["se_k"] for r in per_k]), rel=1e-12)


class TestValidateApprox:
    def test_produces_three_csv_files(self, tmp_path, cfg, design):
        plan = ExperimentPlan(kind="validate-approx", out_dir=tmp_path, r_res=301)
        written = run_plan(plan, cfg, design)
        names = sorted(p.name for p in written)
        assert names == ["lambda_sweep.csv", "per_subcarrier.csv", "tuning_sweep.csv"]
        for path in written:
            assert table(path)  # at least one row

    def test_sweeps_reuse_the_channel_of_every_design(self, monkeypatch, tmp_path, cfg, design):
        # both 50 MHz sweeps solve on one scenario and one channel object: b_tune and lambda_frac, the fields they
        # move, must stay out of h, and each design brings its own taper; the per-subcarrier study solves on its own
        solved = []

        def record(alg, channels, scenario, grid):
            solved.append((channels, scenario, grid.design))
            return run_beamformer(alg, channels, scenario, grid)

        monkeypatch.setattr("dmasim.experiments.run_beamformer", record)
        run_plan(ExperimentPlan(kind="validate-approx", out_dir=tmp_path, r_res=51), cfg, design)
        narrow, wide = solved[:10], solved[10:]
        assert len({(d.b_tune, d.lambda_frac) for _, _, d in narrow}) == 10
        assert len({id(scenario) for _, scenario, _ in narrow}) == 1 and narrow[0][1].k == 16
        assert len({id(channels) for channels, _, _ in narrow}) == 1
        assert len(wide) == 1 and wide[0][1].k == 64
        for channels, scenario, d in solved:
            assert np.array_equal(channels.h, effective_channel(scenario, d).h)


class TestSweepKinds:
    @pytest.mark.parametrize(
        "kind,name",
        [
            ("sweep-tuning", "sweep_tuning.csv"),
            ("sweep-lambda", "sweep_lambda.csv"),
            ("sweep-damping", "sweep_damping.csv"),
        ],
    )
    def test_sweeps_write_one_row_per_point(self, tmp_path, small_cfg, small_design, kind, name):
        axes = {"sweep-tuning": (5e8, 1e9), "sweep-lambda": (0.3, 0.6), "sweep-damping": (50.0, 100.0)}
        plan = ExperimentPlan(kind=kind, out_dir=tmp_path, axis=axes[kind], r_res=51)
        written = run_plan(plan, small_cfg, small_design)
        assert written[0].name == name
        assert len(table(written[0])) == 2

    def test_spacing_sweep_keeps_aperture(self, tmp_path, small_cfg):
        design = DmaDesign(n_slot=32, d_x=0.005)  # aperture 0.16 m
        lam = 0.02
        plan = ExperimentPlan(kind="sweep-spacing", out_dir=tmp_path, axis=(lam / 4, lam / 2), r_res=51)
        written = run_plan(plan, small_cfg, design)
        assert [int(r["n_slot"]) for r in table(written[0])] == [32, 16]

    def test_max_rate_rows(self, tmp_path, small_cfg, small_design):
        plan = ExperimentPlan(kind="max-rate", out_dir=tmp_path, axis=(5e8, 1e9), r_res=51)
        written = run_plan(plan, small_cfg, small_design)
        rows = table(written[0])
        assert len(rows) == 2
        for r in rows:
            assert float(r["d_max_succ"]) >= float(r["d_max_cf"]) * 0.99  # successive at least matches


class TestMaxRate:
    @staticmethod
    def rates(tmp_path, cfg, design):
        """(d_max_cf, d_max_succ) per tuning bandwidth 0.5, 1 and 2 x Gamma."""
        axis = tuple(design.gamma * scale for scale in (0.5, 1.0, 2.0))
        written = run_plan(ExperimentPlan(kind="max-rate", out_dir=tmp_path, axis=axis, r_res=201), cfg, design)
        return [(float(r["d_max_cf"]), float(r["d_max_succ"])) for r in table(written[0])]

    def test_successive_max_rate_non_decreasing_in_tuning(self, tmp_path, cfg, design):
        succ = [s for _, s in self.rates(tmp_path, cfg, design)]
        assert all(b >= a * 0.99 for a, b in zip(succ, succ[1:]))

    def test_successive_max_rate_dominates_center_frequency(self, tmp_path, cfg, design):
        for cf, succ in self.rates(tmp_path, cfg, design):
            assert succ >= cf * 0.999


class TestMultipathMc:
    def test_aggregates_mean_and_stderr(self, tmp_path, small_cfg, small_design):
        plan = ExperimentPlan(kind="multipath-mc", out_dir=tmp_path, axis=(1.0, 4.0), trials=4, seed=5, r_res=51)
        written = run_plan(plan, small_cfg, small_design)
        rows = table(written[0])
        assert len(rows) == 4  # two path counts x two algorithms
        for r in rows:
            assert int(r["trials"]) == 4
            assert float(r["stderr_se"]) >= 0.0

    def test_pinned_single_path_matches_los_pipeline(self, tmp_path, small_cfg, small_design):
        plan = ExperimentPlan(
            kind="multipath-mc", out_dir=tmp_path, axis=(1.0,), trials=2, seed=1, r_res=101, pin_los=True
        )
        written = run_plan(plan, small_cfg, small_design)
        channels = effective_channel(small_cfg, small_design)
        grid = resonance_grid(small_design, channels.grid, 101)
        for row in table(written[0]):
            _, spectrum = run_beamformer(row["algorithm"], channels, small_cfg, grid)
            assert float(row["mean_se"]) == pytest.approx(spectrum.capacity, rel=1e-12)
            assert float(row["stderr_se"]) == pytest.approx(0.0, abs=1e-12)  # deterministic trials


class TestCli:
    @pytest.mark.parametrize(
        "kind,axis",
        [
            ("validate-approx", None),
            ("sweep-bandwidth", "1e8,2e8"),
            ("sweep-tuning", "5e8,1e9"),
            ("sweep-lambda", "0.3,0.6"),
            ("sweep-angle", "-0.3,0.3"),
            ("sweep-spacing", "0.005,0.01"),
            ("sweep-damping", "50,100"),
            ("max-rate", "5e8,1e9"),
            ("multipath-mc", "1,2"),
        ],
    )
    def test_every_kind_runs(self, tmp_path, capsys, kind, axis):
        args = [kind, "--out", str(tmp_path), "--n-slot", "8", "--r-res", "51"]
        if kind != "validate-approx":  # it sets its own subcarrier counts
            args += ["--k", "8"]
        if kind == "multipath-mc":
            args += ["--trials", "2"]
        if axis is not None:
            args.append(f"--axis={axis}")
        assert main(args) == 0
        written = [Path(p) for p in capsys.readouterr().out.strip().splitlines()]
        assert written and all(p.exists() for p in written)

    def test_sweep_angle_happy_path(self, tmp_path, capsys):
        assert main(["sweep-angle", "--out", str(tmp_path), "--axis=-0.3,0.3", "--k", "8", "--n-slot", "8", "--r-res", "51"]) == 0
        out = capsys.readouterr().out.strip().splitlines()
        assert out == [str(tmp_path / "sweep_angle.csv")]

    def test_config_file_with_override(self, tmp_path, capsys):
        cfg_path = tmp_path / "scenario.cfg"
        save_config(cfg_path, ScenarioConfig(b=2e8, k=8), DmaDesign(n_slot=8, lambda_frac=0.5))
        argv = ["sweep-lambda", "--config", str(cfg_path), "--axis", "0.2,0.4", "--r-res", "51", "--q", "70"]
        assert main([*argv, "--out", str(tmp_path)]) == 0
        assert [float(r["lambda"]) for r in table(tmp_path / "sweep_lambda.csv")] == [0.2, 0.4]
        # the sweep sets its own Lambda, so the file's Lambda changes nothing and a note says so
        assert capsys.readouterr().err == "dmasim: note: sweep-lambda ignores the config keys Lambda\n"

    def test_invalid_axis_fails_with_diagnostic(self, tmp_path, capsys):
        code = main(["sweep-angle", "--out", str(tmp_path), "--axis=0.5,-0.5"])
        assert code == 1
        assert "dmasim: error:" in capsys.readouterr().err

    def test_invalid_field_fails_with_diagnostic(self, tmp_path, capsys):
        code = main(["sweep-angle", "--out", str(tmp_path), "--lambda", "1.5", "--axis", "0.0"])
        assert code == 1
        assert "dmasim: error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv,config",
        [
            # the tuning sweep is valid, the wide-tuning lambda sweep is not
            (["validate-approx", "--f-t", "3e9", "--f-c10", "1e9"], None),
            (["sweep-tuning", "--b", "nan", "--axis", "1e9"], None),
            (["sweep-tuning"], "K = inf\n"),
            (["sweep-tuning"], "K = 64.9\n"),
            (["multipath-mc", "--seed", "-1", "--trials", "2", "--k", "8"], None),
            # a path count past the bound, such as a tuning value given to the path axis: rejected before any draw
            (["multipath-mc", "--axis", "1e9", "--k", "8"], None),
            # an SNR past the float range: inf, which the successive solve rejects, and no numpy warning
            (["multipath-mc", "--axis", "1", "--trials", "2", "--k", "8", "--r", "1e-160"], None),
            (["multipath-mc", "--axis", "1", "--trials", "2", "--k", "8", "--p-in-tot", "1e308"], None),
            (["multipath-mc", "--axis", "1", "--trials", "2", "--k", "8", "--t-temp", "1e-320"], None),
            # past the float range: the leakage constant, and the subcarriers at or below 0 Hz, each with no numpy warning
            (["sweep-tuning", "--axis", "1e9", "--k", "8", "--d-x", "1e-320"], None),
            (["sweep-tuning", "--axis", "1e9", "--k", "8", "--b", "1e308"], None),
            # past the float range: the element phases, which the channel's finiteness check reports with no numpy warning
            (["sweep-tuning", "--axis", "1e9", "--k", "8", "--eps-r", "1e308"], None),
            (["sweep-tuning", "--axis", "1e9", "--k", "8", "--d-x", "1e308"], None),
            # an aperture length, or its ratio to a spacing, past the float range, and a zero spacing
            (["sweep-spacing", "--axis", "0.005,0.01", "--k", "8", "--d-x=1e308"], None),
            (["sweep-spacing", "--axis", "1e-310", "--k", "8"], None),
            (["sweep-spacing", "--axis", "0,0.01", "--k", "8"], None),
        ],
    )
    def test_failed_run_writes_nothing(self, tmp_path, capsys, argv, config):
        args = [*argv, "--out", str(tmp_path / "out"), "--n-slot", "8", "--r-res", "51"]
        if config is not None:
            (tmp_path / "bad.cfg").write_text(config)
            args += ["--config", str(tmp_path / "bad.cfg")]
        assert main(args) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("dmasim: error:")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "start",
        [
            ["sweep-tuning", "--axis", "1e9", "--k", "8", "--n-slot", "8", "--r-res", "51"],
            ["multipath-mc", "--axis", "2", "--trials", "2", "--k", "8", "--n-slot", "8", "--r-res", "51"],
            ["validate-approx", "--axis", "1e9", "--n-slot", "8", "--r-res", "51"],
            ["sweep-bandwidth", "--axis", "1e8", "--k", "8", "--n-slot", "8", "--r-res", "51"],
            ["sweep-lambda", "--axis", "0.3", "--k", "8", "--n-slot", "8", "--r-res", "51"],
            ["sweep-angle", "--axis", "0.3", "--k", "8", "--n-slot", "8", "--r-res", "51"],
            ["sweep-spacing", "--axis", "0.005,0.01", "--k", "8", "--n-slot", "8", "--r-res", "51"],
            ["sweep-damping", "--axis", "100", "--k", "8", "--n-slot", "8", "--r-res", "51"],
            ["max-rate", "--axis", "1e9", "--k", "8", "--n-slot", "8", "--r-res", "51"],
        ],
    )
    def test_extreme_setting_ends_in_one_of_three_ways(self, tmp_path, capsys, start):
        # every config key at every float extreme, set by its flag and by a one-line config file:
        # a finite table, one error line (after a note, for a key the kind ignores), or a usage error
        values = ["1e308", "-1e308", "1e-308", "-1e-308", "5e-324", "0", "-0", "1e300", "1e-300", "1e30", "1e-30"]
        values += ["nan", "inf", "-inf", "1", "2", "3"]
        bad = []
        for i, (key, value, route) in enumerate(itertools.product(_CONFIG_KEYS, values, ("flag", "file"))):
            out, flag = tmp_path / f"out{i}", "--" + key.lower().replace("_", "-")
            if route == "flag":
                argv = [*start, f"{flag}={value}"]
            else:  # the file's value is the one read, so a flag setting the same key goes
                (tmp_path / f"{i}.cfg").write_text(f"{key} = {value}\n")
                at = start.index(flag) if flag in start else len(start)
                argv = [*start[:at], *start[at + 2 :], "--config", str(tmp_path / f"{i}.cfg")]
            try:
                code = main([*argv, "--out", str(out)])
            except SystemExit as exc:
                code = exc.code
            except Exception as exc:  # a traceback, or a numpy warning, which this suite raises as an error
                code = repr(exc)
            err = capsys.readouterr().err.splitlines()
            if code == 0:
                cells = [cell for path in out.glob("*.csv") for row in table(path) for cell in row.values()]
                ended = bool(cells) and not [cell for cell in cells if cell.lstrip("+-").lower() in ("nan", "inf")]
            elif code == 1:
                err = err[1:] if err and err[0].startswith("dmasim: note:") else err
                ended = len(err) == 1 and err[0].startswith("dmasim: error:") and not out.exists()
            else:
                ended = code == 2 and err[0].startswith("usage: dmasim") and not out.exists()
            if not ended:
                bad.append((route, key, value, code, err))
        assert bad == []

    def test_overflowing_snr_of_an_ignored_distance_is_only_noted(self, tmp_path, capsys):
        # validate-approx reads only gains, so an SNR the file's r overflows must not stop it or warn
        (tmp_path / "near.cfg").write_text("r = 1e-160\n")
        argv = ["validate-approx", "--config", str(tmp_path / "near.cfg"), "--n-slot", "8", "--r-res", "51"]
        assert main([*argv, "--out", str(tmp_path / "out")]) == 0
        assert capsys.readouterr().err == "dmasim: note: validate-approx ignores the config keys r\n"

    def test_removed_coupling_key_is_unknown(self, tmp_path, capsys):
        cfg_path = tmp_path / "coupl.cfg"
        cfg_path.write_text("F_coupl = 1\n", encoding="utf-8")
        assert main(["sweep-tuning", "--config", str(cfg_path), "--out", str(tmp_path / "out")]) == 1
        assert capsys.readouterr().err.splitlines() == [f"dmasim: error: {cfg_path}:1: unknown config key 'F_coupl'"]
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["sweep-tuning", "--seed", "3"],
            ["sweep-tuning", "--trials", "2"],
            ["sweep-tuning", "--pin-los"],
            ["sweep-tuning", "--f-coupl", "2"],
            ["sweep-tuning", "--b-tune", "1e9"],
            ["sweep-lambda", "--lambda", "0.5"],
            ["sweep-angle", "--phi-t", "0.1"],
            ["sweep-damping", "--q", "80"],
            ["max-rate", "--b", "1e9"],
            ["validate-approx", "--r", "50"],
            ["validate-approx", "--k", "32"],
        ],
    )
    def test_flag_without_effect_is_a_usage_error(self, tmp_path, capsys, flags):
        # a kind registers no flag for a setting it never reads (experiments.IGNORED); the coupling factor is gone
        with pytest.raises(SystemExit) as exc:
            main([*flags, "--out", str(tmp_path / "out"), "--n-slot", "8", "--r-res", "51"])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_carrier_flag_moves_the_design_carrier(self, tmp_path):
        args = ["sweep-angle", "--out", str(tmp_path), "--f-t", "12e9", "--f-c10", "8e9"]
        cfg, design = _configs_from_args(build_parser().parse_args(args))
        assert cfg.f_t == design.f_t == 12e9

    def test_cached_parser_starts_each_parse_from_defaults(self):
        parser = build_parser()
        parser.parse_args(["multipath-mc", "--trials", "3", "--k", "8"])
        args = build_parser().parse_args(["multipath-mc"])
        assert build_parser() is parser
        assert args.trials is None and args.k is None

    def test_validate_approx_notes_ignored_b_and_k(self, tmp_path, capsys):
        # the kind sets its own bandwidths and subcarrier counts: it has no --b or --k, and the
        # config file's B and K change no body and get a note
        for flags in (["--k", "32"], ["--b", "1e9"]):
            with pytest.raises(SystemExit) as exc:
                main(["validate-approx", "--out", str(tmp_path / "flag"), "--n-slot", "8", "--r-res", "51", *flags])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err
        assert not (tmp_path / "flag").exists()
        kb_cfg = tmp_path / "kb.cfg"
        kb_cfg.write_text("K = 8\nB = 1e9\n", encoding="utf-8")
        bodies, notes = [], []
        for i, flags in enumerate([[], ["--config", str(kb_cfg)]]):
            out = tmp_path / str(i)
            assert main(["validate-approx", "--out", str(out), "--n-slot", "8", "--r-res", "51", *flags]) == 0
            bodies.append({p.name: read_body(p) for p in sorted(out.glob("*.csv"))})
            notes.append(capsys.readouterr().err.splitlines())
        assert len(bodies[0]) == 3 and bodies[1] == bodies[0]
        assert notes == [[], ["dmasim: note: validate-approx ignores the config keys B, K"]]

    def test_plan_rejects_monte_carlo_fields_outside_multipath_mc(self, tmp_path):
        with pytest.raises(ValueError, match=r"^sweep-tuning does not read trials, seed, pin_los$"):
            ExperimentPlan(kind="sweep-tuning", out_dir=tmp_path, axis=(1e9,), trials=7, seed=3, pin_los=True)
        with pytest.raises(ValueError, match=r"^validate-approx does not read seed$"):
            ExperimentPlan(kind="validate-approx", out_dir=tmp_path, seed=1)
        plan = ExperimentPlan(kind="multipath-mc", out_dir=tmp_path, trials=7, seed=3, pin_los=True)
        assert (plan.trials, plan.seed, plan.pin_los) == (7, 3, True)


def test_readme_library_example_runs(capsys):
    import re

    text = (Path(__file__).parent.parent / "README.md").read_text()
    block = re.search(r"## Library example.*?```python\n(.*?)```", text, re.S).group(1)
    scope = {}
    exec(block, scope)
    cfg, channels, grid, spectrum, approx = (scope[n] for n in ("cfg", "channels", "grid", "spectrum", "approx"))
    kc = cfg.k // 2
    assert spectrum.capacity > 0 and spectrum.rate == cfg.b * spectrum.capacity
    assert approx.shape == (cfg.k,)
    printed = [float(v) for v in capsys.readouterr().out.split()]
    assert printed == [spectrum.capacity, spectrum.rate, spectrum.gain[kc], approx[kc]]
    # the approximation models the center-frequency configuration
    _, cf_spectrum = run_beamformer("center-frequency", channels, cfg, grid)
    assert cf_spectrum.gain[kc] == pytest.approx(approx[kc], rel=0.10)
