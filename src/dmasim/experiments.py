"""Batch experiment runner: validation and sweep studies emitting CSV files.

Every experiment is deterministic given its plan, scenario, and design: CSV
bodies are byte-identical across reruns, with a single timestamp comment line
at the top of each file. Monte-Carlo kinds derive one child seed per trial
from the plan seed, so ordering never depends on execution details.
"""

from __future__ import annotations

import csv
import math
from collections.abc import Callable
from dataclasses import dataclass, fields
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from .approx import gain_breakdown, power_normalized_gain
from .beamform import DEFAULT_R_RES, resonance_grid
from .channel import MultipathSpec, effective_channel, multipath_channel
from .metrics import ALGORITHMS, GainSpectrum, run_beamformer
from .params import DmaDesign, ScenarioConfig, _require_counts, override_fields, wavelength

# Validation-study scenario knobs: a small signal bandwidth isolates the fill
# and leakage factors; the sweeps resolve it on few subcarriers, the
# per-subcarrier study on many.
VALIDATE_B = 5e7
VALIDATE_NARROW_K = 16
VALIDATE_WIDE_TUNING = 8e9
VALIDATE_SUBCARRIER_K = 64
DEFAULT_LAMBDA_AXIS = (0.1, 0.3, 0.5, 0.7, 0.9)
DEFAULT_RATE_B_AXIS = (2.5e8, 5e8, 1e9, 1.5e9, 2e9)
DEFAULT_ANGLE_AXIS = tuple(math.radians(a) for a in range(-60, 61, 20))


@dataclass(frozen=True)
class ExperimentPlan:
    """One batch experiment: a kind, its sweep axis, and output location."""

    kind: str
    out_dir: Path
    axis: tuple = ()  # sweep values; empty selects the kind's default axis
    trials: int = 200  # multipath-mc only
    seed: int = 0  # multipath-mc only
    r_res: int = DEFAULT_R_RES
    pin_los: bool = False  # multipath-mc only: pin the first path to the LOS angle

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        axis = tuple(float(v) for v in self.axis)
        if not all(math.isfinite(v) for v in axis):
            raise ValueError("sweep axis values must be finite")
        if list(axis) != sorted(axis):
            raise ValueError("sweep axis values must be sorted ascending")
        if unread := [f.name for f in fields(self) if f.name in IGNORED[self.kind] and getattr(self, f.name) != f.default]:
            raise ValueError(f"{self.kind} does not read {', '.join(unread)}")
        _require_counts(self, trials=1, seed=0, r_res=1)
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "out_dir", Path(self.out_dir))


def _write_csv(path: Path, header: list[str], rows: list[list]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as handle:
        handle.write(f"# generated {datetime.now(timezone.utc).isoformat()}\n")
        writer = csv.writer(handle)
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, (float, np.floating)) else v for v in row])
    return path


def read_body(path) -> str:
    """A file _write_csv wrote, after its `# generated` line: the header and rows, their \r\n row ends kept."""
    stamp, _, body = Path(path).read_bytes().decode("utf-8").partition("\n")  # bytes: no newline translation
    if not stamp.startswith("# generated "):
        raise ValueError(f"{path} does not start with a '# generated' line")
    return body


SPECTRUM_HEADER = ["scenario_id", "algorithm", "k", "f_k", "gain", "rho", "se_k"]


def spectrum_rows(scenario_id: str, algorithm: str, frequencies, spectrum: GainSpectrum) -> list[list]:
    """Per-subcarrier result rows plus one summary row.

    The summary row reuses the three numeric columns as (g_sum, capacity,
    rate) and is flagged by k == "summary".
    """
    rows = [
        [scenario_id, algorithm, k, float(f), spectrum.gain[k], spectrum.rho[k], spectrum.se[k]]
        for k, f in enumerate(frequencies)
    ]
    rows.append([scenario_id, algorithm, "summary", "", spectrum.g_sum, spectrum.capacity, spectrum.rate])
    return rows


def _both_algorithms(cfg: ScenarioConfig, design: DmaDesign, r_res: int) -> dict[str, GainSpectrum]:
    channels = effective_channel(cfg, design)
    grid = resonance_grid(design, channels.grid, r_res)
    return {alg: run_beamformer(alg, channels, cfg, grid)[1] for alg in ALGORITHMS}


def _overrides(obj, field: str, axis) -> list:
    """One copy of a config per axis value with `field` set to it.

    Building every copy up front validates the whole axis before any solve.
    """
    return [override_fields(obj, **{field: float(v)}) for v in axis]


def _gamma_axis(design: DmaDesign) -> tuple:
    """Default tuning-bandwidth axis: multiples of the damping factor."""
    return tuple(design.gamma * s for s in (0.25, 0.5, 1.0, 2.0, 4.0))


def validation_points(cfg: ScenarioConfig, designs: list, r_res: int) -> list[tuple]:
    """(design, center-frequency GainSpectrum, ApproxBreakdown, power-normalized approximate gain) per design.

    All designs are scored on one LOS channel, built from designs[0], each with its own leakage taper: the
    fields a validation study moves, b_tune and lambda_frac, stay out of h.
    """
    channels = effective_channel(cfg, designs[0])
    points = []
    for d in designs:
        _, spectrum = run_beamformer("center-frequency", channels, cfg, resonance_grid(d, channels.grid, r_res))
        breakdown = gain_breakdown(cfg, d)
        points.append((d, spectrum, breakdown, power_normalized_gain(breakdown, d)))
    return points


# A runner takes (plan, scenario, design) and returns {file name: (header, rows)}.
_Tables = dict[str, tuple[list[str], list[list]]]

_SPECTRUM_COLUMN = {"capacity": "se", "rate": "rate", "g_sum": "g_sum"}


def _per_algorithm(quantity: str) -> list[str]:
    """The quantity's column of each algorithm, `<quantity>_<suffix>`, in ALGORITHMS order."""
    return [f"{quantity}_{suffix}" for suffix in ALGORITHMS.values()]


def _sum_rows(points: list[tuple], field: str, penalty: str) -> list[list]:
    """Rows [design.<field>, simulated g_sum, approximate g_sum, breakdown.<penalty>, rel_err]."""
    rows = []
    for d, spectrum, breakdown, approx in points:
        approx_sum = float(np.sum(approx))
        rel_err = abs(approx_sum - spectrum.g_sum) / spectrum.g_sum
        rows.append([getattr(d, field), spectrum.g_sum, approx_sum, getattr(breakdown, penalty), rel_err])
    return rows


def _validate_approx(plan: ExperimentPlan, cfg: ScenarioConfig, design: DmaDesign) -> _Tables:
    """The tuning and lambda sweeps share one 50 MHz channel of few subcarriers; the wide design alone gets many."""
    tuning = _overrides(design, "b_tune", plan.axis or _gamma_axis(design))
    wide = override_fields(design, b_tune=VALIDATE_WIDE_TUNING)
    narrow = override_fields(cfg, b=VALIDATE_B, k=VALIDATE_NARROW_K)
    swept = validation_points(narrow, tuning + _overrides(wide, "lambda_frac", DEFAULT_LAMBDA_AXIS), plan.r_res)
    sub_cfg = override_fields(cfg, b=VALIDATE_B, k=VALIDATE_SUBCARRIER_K)
    [(_, spectrum, breakdown, approx)] = validation_points(sub_cfg, [wide], plan.r_res)
    flat = [breakdown.fill_penalty, breakdown.leakage_penalty, wide.b_tune]
    g_cf = f"g_{ALGORITHMS['center-frequency']}_sum"  # validation scores only the center-frequency beamformer
    return {
        "tuning_sweep.csv": (
            ["b_tune", g_cf, "g_approx_sum", "fill_penalty", "rel_err"],
            _sum_rows(swept[: len(tuning)], "b_tune", "fill_penalty"),
        ),
        "lambda_sweep.csv": (
            ["lambda", g_cf, "g_approx_sum", "leakage_penalty", "rel_err"],
            _sum_rows(swept[len(tuning) :], "lambda_frac", "leakage_penalty"),
        ),
        "per_subcarrier.csv": (
            ["k", "f_k", "sim_gain", "approx_gain", "squint_gain", "fill_penalty", "leakage_penalty", "b_tune"],
            [
                [k, float(f_k), spectrum.gain[k], approx[k], breakdown.squint_gain[k], *flat]
                for k, f_k in enumerate(sub_cfg.subcarriers.frequencies)
            ],
        ),
    }


@dataclass(frozen=True)
class _Sweep:
    """Override one scenario or design field over an axis and run both algorithms at each point."""

    file: str
    column: str  # axis column of the CSV
    field: str  # the overridden field: of DmaDesign if it has one, else of ScenarioConfig
    default_axis: Callable[[DmaDesign], tuple]
    reported: tuple[str, ...]  # GainSpectrum fields, one column per algorithm each
    spectra: bool = False  # also write the unswept configuration's per-subcarrier spectra

    def __call__(self, plan: ExperimentPlan, cfg: ScenarioConfig, design: DmaDesign) -> _Tables:
        axis = plan.axis or self.default_axis(design)
        on_design = hasattr(design, self.field)
        rows = []
        for point in _overrides(design if on_design else cfg, self.field, axis):
            point_cfg, point_design = (cfg, point) if on_design else (point, design)
            spectra = _both_algorithms(point_cfg, point_design, plan.r_res)
            values = [getattr(spectra[alg], name) for name in self.reported for alg in ALGORITHMS]
            rows.append([getattr(point, self.field)] + values)
        header = [self.column] + [c for name in self.reported for c in _per_algorithm(_SPECTRUM_COLUMN[name])]
        tables = {self.file: (header, rows)}
        if self.spectra:
            grid_freqs = cfg.subcarriers.frequencies
            for alg, spectrum in _both_algorithms(cfg, design, plan.r_res).items():
                tables[f"spectrum_{alg}.csv"] = (SPECTRUM_HEADER, spectrum_rows("template", alg, grid_freqs, spectrum))
        return tables


def _sweep_spacing(plan: ExperimentPlan, cfg: ScenarioConfig, design: DmaDesign) -> _Tables:
    """Fixed aperture length: each spacing gets round(aperture / d_x) elements."""
    lam = wavelength(design.f_t)
    aperture = design.n_slot * design.d_x
    points = []  # each spacing's design is built first, so a zero spacing fails before the division
    for spaced in _overrides(design, "d_x", plan.axis or (lam / 4.0, lam / 3.0, lam / 2.0)):
        if not math.isfinite(ratio := aperture / spaced.d_x):
            raise ValueError("aperture length over element spacing must be finite")
        points.append(override_fields(spaced, n_slot=max(1, round(ratio))))
    rows = []
    for d in points:
        spectra = _both_algorithms(cfg, d, plan.r_res)
        rows.append([d.d_x, d.n_slot] + [spectra[alg].capacity for alg in ALGORITHMS])
    return {"sweep_spacing.csv": (["d_x", "n_slot", *_per_algorithm("se")], rows)}


def _max_rate(plan: ExperimentPlan, cfg: ScenarioConfig, design: DmaDesign) -> _Tables:
    """Per tuning bandwidth, each algorithm's best data rate over the signal-bandwidth axis."""
    designs = _overrides(design, "b_tune", plan.axis or _gamma_axis(design))
    points = _overrides(cfg, "b", DEFAULT_RATE_B_AXIS)
    rows = []
    for d in designs:
        spectra = [_both_algorithms(point, d, plan.r_res) for point in points]
        rows.append([d.b_tune] + [max(s[alg].rate for s in spectra) for alg in ALGORITHMS])
    return {"max_rate.csv": (["b_tune", *_per_algorithm("d_max")], rows)}


def _multipath_mc(plan: ExperimentPlan, cfg: ScenarioConfig, design: DmaDesign) -> _Tables:
    axis = plan.axis or (1.0, 2.0, 4.0)
    l_paths = [MultipathSpec(l_path=v).l_path for v in axis]  # each checked before any channel is built
    grid = resonance_grid(design, cfg.subcarriers, plan.r_res)
    rows = []
    for l_idx, l_path in enumerate(l_paths):
        per_alg = {alg: [] for alg in ALGORITHMS}
        for trial in range(plan.trials):
            child = int(np.random.SeedSequence((plan.seed, l_idx, trial)).generate_state(1)[0])
            spec = MultipathSpec(l_path=l_path, seed=child, pin_first_to_los=plan.pin_los)
            channels = multipath_channel(spec, cfg, design)
            for alg in ALGORITHMS:
                _, spectrum = run_beamformer(alg, channels, cfg, grid)
                per_alg[alg].append(spectrum.capacity)
        for alg in ALGORITHMS:
            values = np.asarray(per_alg[alg])
            stderr = float(values.std(ddof=1) / math.sqrt(values.size)) if values.size > 1 else 0.0
            rows.append([float(l_path), alg, float(values.mean()), stderr, values.size])
    return {"multipath_mc.csv": (["l_path", "algorithm", "mean_se", "stderr_se", "trials"], rows)}


_RUNNERS: dict[str, Callable[[ExperimentPlan, ScenarioConfig, DmaDesign], _Tables]] = {
    "validate-approx": _validate_approx,
    "sweep-bandwidth": _Sweep(
        "sweep_bandwidth.csv", "b", "b", lambda _: DEFAULT_RATE_B_AXIS, ("capacity", "rate"), spectra=True
    ),
    "sweep-tuning": _Sweep("sweep_tuning.csv", "b_tune", "b_tune", _gamma_axis, ("capacity", "g_sum")),
    "sweep-lambda": _Sweep(
        "sweep_lambda.csv", "lambda", "lambda_frac", lambda _: DEFAULT_LAMBDA_AXIS, ("capacity", "g_sum")
    ),
    "sweep-angle": _Sweep("sweep_angle.csv", "phi_t", "phi_t", lambda _: DEFAULT_ANGLE_AXIS, ("capacity",)),
    "sweep-spacing": _sweep_spacing,
    "sweep-damping": _Sweep("sweep_damping.csv", "q", "q", lambda _: (50.0, 100.0, 200.0), ("capacity", "rate")),
    "max-rate": _max_rate,
    "multipath-mc": _multipath_mc,
}
KINDS = tuple(_RUNNERS)

# Settings (plan, scenario or design fields) a kind never reads; the CLI gives it no flag for them and ExperimentPlan
# rejects the plan ones. Validation compares gains, which have no SNR, at its own bandwidth, k and tuning range.
_MONTE_CARLO = frozenset({"trials", "seed", "pin_los"})
IGNORED = {kind: _MONTE_CARLO for kind in KINDS} | {
    "validate-approx": _MONTE_CARLO | {"b", "k", "b_tune", "r", "p_in_tot", "t_temp", "g_dma"},
    "sweep-tuning": _MONTE_CARLO | {"b_tune"},
    "sweep-lambda": _MONTE_CARLO | {"lambda_frac"},
    "sweep-angle": _MONTE_CARLO | {"phi_t"},
    "sweep-damping": _MONTE_CARLO | {"q"},
    "max-rate": _MONTE_CARLO | {"b", "b_tune"},
    "multipath-mc": frozenset(),
}


def run_plan(plan: ExperimentPlan, cfg: ScenarioConfig, design: DmaDesign) -> list[Path]:
    """Execute one experiment plan; returns the written file paths.

    Every file is computed before the first is written, so a run that fails
    leaves no output behind.
    """
    tables = _RUNNERS[plan.kind](plan, cfg, design)
    return [_write_csv(plan.out_dir / name, header, rows) for name, (header, rows) in tables.items()]
