"""Release gate: eleven numbered acceptance criteria for the simulator.

Each criterion prints one [PASS]/[FAIL] line with its measured numbers
(run with `pytest tests/test_acceptance.py -v -s` to see them). Analytic
identities are checked at tight tolerances; trend criteria run the same
experiment pipelines the CLI exposes.
"""

import csv
import io
import math
import time
from pathlib import Path

import numpy as np

from dmasim import (
    DmaDesign,
    ScenarioConfig,
    center_frequency_beamformer,
    effective_channel,
    fill_penalty,
    leakage_penalty,
    linear_phase_approx,
    normalized_polarizability,
    resonance_grid,
    run_beamformer,
    snr_profile,
    squint_gain_from_phase,
    subcarrier_grid,
    successive_beamformer,
    wavelength,
)
from dmasim.experiments import ExperimentPlan, read_body, run_plan
from oracles import fill_penalty_mc_stderr, leakage_penalty_exact


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {num:2d} ({name}): {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def test_criterion_01_constrained_weight_circle():
    rng = np.random.default_rng(101)
    worst = 0.0
    for _ in range(100):
        q = 10.0 ** rng.uniform(-1, 4)
        f_t = 10.0 ** rng.uniform(9, 11)
        design = DmaDesign(q=q, f_t=f_t, f_c10=1e6, b_tune=0.0)
        f = 10.0 ** rng.uniform(8, 12, 1000)
        f_r = 10.0 ** rng.uniform(8, 12, 1000)
        w = normalized_polarizability(f, f_r, design)
        worst = max(worst, float(np.max(np.abs(np.abs(w + 0.5j) - 0.5))))
    report(1, "weight circle membership", worst <= 1e-12, f"max | |w+j/2| - 1/2 | = {worst:.3e} over 1e5 samples")


def test_criterion_02_leakage_penalty_closed_form():
    worst = 0.0
    for lam in (0.1, 0.5, 0.9, 0.99):
        design = DmaDesign(n_slot=4096, lambda_frac=lam)
        worst = max(worst, abs(leakage_penalty(lam) - leakage_penalty_exact(design)))
    spot = leakage_penalty(0.9)
    ok = worst <= 1e-4 and abs(spot - 0.9029) <= 5e-4
    report(2, "leakage penalty vs finite sum", ok, f"max |closed - exact| = {worst:.3e}; value(0.9) = {spot:.6f}")


def test_criterion_03_fill_penalty_vs_monte_carlo():
    details = []
    ok = fill_penalty(0.0) == 0.0 and fill_penalty(math.pi) == 1.0
    for i, xi in enumerate((0.1, 0.5, 1.0, 2.0, 3.0)):
        value, stderr = fill_penalty_mc_stderr(xi, 1_000_000, seed=300 + i)
        gap = abs(fill_penalty(xi) - value)
        ok = ok and gap <= 3.0 * stderr
        details.append(f"xi={xi}: |gap|={gap:.2e} (3se={3 * stderr:.2e})")
    report(3, "fill penalty vs sampling oracle", ok, "; ".join(details) + "; endpoints exact")


def test_criterion_04_squint_gain_vs_explicit_sum():
    n = 32
    rng = np.random.default_rng(404)
    chi = rng.uniform(-math.pi, math.pi, 1000)
    closed = squint_gain_from_phase(chi, n)
    explicit = np.abs(np.exp(1j * chi[:, None] * np.arange(n)[None, :]).sum(axis=1) / (2 * math.sqrt(n))) ** 2
    rel = float(np.max(np.abs(closed - explicit) / explicit))
    center_exact = squint_gain_from_phase(0.0, n) == n / 4
    nulls = np.array([squint_gain_from_phase(2 * math.pi * m / n, n) for m in range(1, n)])
    ok = rel <= 1e-10 and center_exact and bool(np.all(nulls < 1e-20))
    report(
        4,
        "squint gain vs explicit sum",
        ok,
        f"max rel err = {rel:.3e}; center == n/4: {center_exact}; max null = {nulls.max():.2e}",
    )


def test_criterion_05_linear_phase_convergence_order():
    # Halving ladder starting at delta0 = Gamma/(16*pi). The first steps sit
    # in a mixed regime where the cubic arctan remainder dominates (ratio ~8
    # for large Q); the second-order ratio 4 emerges as delta shrinks, which
    # is what the ladder certifies.
    design = DmaDesign()
    f_r = design.f_t

    def max_err(delta):
        f = f_r + np.linspace(-delta, delta, 2001)
        true = np.angle(normalized_polarizability(f, f_r, design))
        return float(np.max(np.abs(true - linear_phase_approx(f, f_r, design))))

    deltas = [design.gamma / (16 * math.pi) / 2**i for i in range(13)]
    errors = [max_err(d) for d in deltas]
    ratios = [a / b for a, b in zip(errors, errors[1:])]
    tail = ratios[-3:]
    ok = all(3.6 <= r <= 4.4 for r in tail)
    ladder = ", ".join(f"{r:.2f}" for r in ratios)
    report(
        5,
        "linear phase model is second order",
        ok,
        f"halving ratios from Gamma/(16*pi): [{ladder}]; converged tail {[f'{r:.3f}' for r in tail]} in [3.6, 4.4]",
    )


def test_criterion_06_gain_approximation_validation(tmp_path: Path):
    cfg = ScenarioConfig()
    plan = ExperimentPlan(kind="validate-approx", out_dir=tmp_path, r_res=1001)  # tuning axis Gamma/4 .. 4*Gamma
    tables = {}
    for path in run_plan(plan, cfg, DmaDesign()):
        rows = csv.DictReader(io.StringIO(read_body(path)))
        tables[path.name] = [{name: float(v) for name, v in row.items()} for row in rows]

    tuning_err = max(row["rel_err"] for row in tables["tuning_sweep.csv"])
    lambda_err = max(row["rel_err"] for row in tables["lambda_sweep.csv"])
    region = [row for row in tables["per_subcarrier.csv"] if abs(row["f_k"] - cfg.f_t) <= row["b_tune"] / 4.0]
    sub_err = max(abs(row["approx_gain"] - row["sim_gain"]) / row["sim_gain"] for row in region)

    ok = tuning_err <= 0.15 and lambda_err <= 0.05 and sub_err <= 0.10
    report(
        6,
        "gain approximation tracks simulation",
        ok,
        f"tuning sweep max rel = {tuning_err:.4f} (<=0.15); radiated-power sweep max rel = {lambda_err:.4f} "
        f"(<=0.05); per-subcarrier max rel = {sub_err:.4f} (<=0.10 over {len(region)} subcarriers)",
    )


def test_criterion_07_wideband_spectral_efficiency_trends():
    design = DmaDesign()
    se_cf, se_succ = [], []
    for b in (2.5e8, 5e8, 7.5e8, 1e9, 1.25e9, 1.5e9, 1.75e9, 2e9):
        cfg = ScenarioConfig(b=b)
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, 501)  # one grid per subcarrier set
        _, s_cf = run_beamformer("center-frequency", channels, cfg, grid)
        _, s_succ = run_beamformer("successive", channels, cfg, grid)
        se_cf.append(s_cf.capacity)
        se_succ.append(s_succ.capacity)
    se_cf, se_succ = np.array(se_cf), np.array(se_succ)
    wins = float(np.mean(se_succ >= se_cf))
    never_much_worse = bool(np.all(se_succ >= se_cf * 0.97))
    monotone = all(b <= a * 1.01 for a, b in zip(se_cf, se_cf[1:])) and all(
        b <= a * 1.01 for a, b in zip(se_succ, se_succ[1:])
    )
    ok = wins >= 0.9 and never_much_worse and monotone
    report(
        7,
        "successive vs center-frequency over bandwidth",
        ok,
        f"successive wins at {wins:.0%} of points; min ratio {float(np.min(se_succ / se_cf)):.3f}; "
        f"both SE curves non-increasing: {monotone}",
    )


def test_criterion_08_steering_angle_flatness():
    design = DmaDesign()
    grid = resonance_grid(design, subcarrier_grid(ScenarioConfig()), 501)  # the steering angle keeps the subcarriers
    variations = {}
    for algorithm in ("center-frequency", "successive"):
        values = []
        for deg in range(-60, 61, 20):
            cfg = ScenarioConfig(phi_t=math.radians(deg))
            channels = effective_channel(cfg, design)
            _, spectrum = run_beamformer(algorithm, channels, cfg, grid)
            values.append(spectrum.capacity)
        values = np.array(values)
        variations[algorithm] = float((values.max() - values.min()) / values.mean())
    ok = all(v <= 0.15 for v in variations.values())
    report(
        8,
        "spectral efficiency flat across steering angles",
        ok,
        "; ".join(f"{alg}: variation/mean = {v:.4f} (<=0.15)" for alg, v in variations.items()),
    )


def test_criterion_09_denser_spacing_wins_at_fixed_aperture():
    cfg = ScenarioConfig()
    lam = wavelength(15e9)
    results = {}
    for algorithm in ("center-frequency", "successive"):
        ses = []
        for d_x, n_slot in ((lam / 2, 16), (lam / 3, 24), (lam / 4, 32)):
            design = DmaDesign(n_slot=n_slot, d_x=d_x)
            channels = effective_channel(cfg, design)
            _, spectrum = run_beamformer(algorithm, channels, cfg, resonance_grid(design, channels.grid, 501))
            ses.append(spectrum.capacity)
        results[algorithm] = ses
    # listed from lambda/2 down to lambda/4: SE must rise pairwise (1% slack)
    ok = all(b > a * 0.99 and b > a for ses in results.values() for a, b in zip(ses, ses[1:]))
    detail = "; ".join(
        f"{alg}: " + " -> ".join(f"{v:.3f}" for v in ses) + " (lambda/2, lambda/3, lambda/4)"
        for alg, ses in results.items()
    )
    report(9, "denser spacing at fixed aperture", ok, detail)


def test_criterion_10_grid_scan_complexity_scales_linearly():
    cfg = ScenarioConfig(k=16)
    rho = snr_profile(cfg)

    def successive_solve(n_slot, r_res):
        design = DmaDesign(n_slot=n_slot)
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, r_res)
        return lambda: successive_beamformer(channels, rho, grid)

    def center_solve(n_slot, r_res):
        design = DmaDesign(n_slot=n_slot)
        channels = effective_channel(cfg, design)
        grid = resonance_grid(design, channels.grid, r_res)
        return lambda: center_frequency_beamformer(channels, grid)

    def ratio(small, large, solves):
        # the sizes alternate solve by solve, so a spell of host load slows both alike, and the least of many
        # single solves is one that no spell reached
        best = [math.inf, math.inf]
        for _ in range(solves):
            for i, run in enumerate((small, large)):
                start = time.perf_counter()
                run()
                best[i] = min(best[i], time.perf_counter() - start)
        return best[1] / best[0]

    # 4x the n_slot * r_res work must cost at most 2x linear, i.e. 8x time
    succ_ratio = ratio(successive_solve(32, 1000), successive_solve(64, 2000), 5)
    cf_ratio = ratio(center_solve(32, 1000), center_solve(64, 2000), 1000)
    ok = 1.0 <= succ_ratio <= 8.0 and 1.0 <= cf_ratio <= 8.0
    report(
        10,
        "beamformer cost linear in n_slot*r_res",
        ok,
        f"4x work -> successive {succ_ratio:.2f}x, center-frequency {cf_ratio:.2f}x (allowed <= 8x)",
    )


def test_criterion_11_multipath_monte_carlo_gap(tmp_path: Path):
    cfg = ScenarioConfig(k=32)
    design = DmaDesign(n_slot=16)
    plan = ExperimentPlan(
        kind="multipath-mc", out_dir=tmp_path, axis=(1.0, 2.0, 4.0), trials=200, seed=7, r_res=201
    )
    (csv_path,) = run_plan(plan, cfg, design)
    stats: dict[tuple[float, str], tuple[float, float]] = {}
    for row in csv.DictReader(io.StringIO(read_body(csv_path))):
        stats[(float(row["l_path"]), row["algorithm"])] = (float(row["mean_se"]), float(row["stderr_se"]))
    gaps = [stats[(l, "successive")][0] - stats[(l, "center-frequency")][0] for l in (1.0, 2.0, 4.0)]
    succ4, cf4 = stats[(4.0, "successive")], stats[(4.0, "center-frequency")]
    ok = succ4[0] > cf4[0] and gaps[0] < gaps[1] < gaps[2]
    detail = (
        f"L=4: successive {succ4[0]:.3f}+-{succ4[1]:.3f} vs center-frequency {cf4[0]:.3f}+-{cf4[1]:.3f}; "
        f"gap over L=(1,2,4): " + " -> ".join(f"{g:.3f}" for g in gaps)
    )
    report(11, "multipath Monte-Carlo advantage grows with paths", ok, detail)
