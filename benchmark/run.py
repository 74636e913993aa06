"""dmasim benchmark: closed-loop batch CLI jobs, end-to-end and per-layer metrics.

Run from the repository root:

    python3 benchmark/run.py --workload mc-multipath --seed 1 --seconds 30 --trace 0

One client in one process calls ``dmasim.cli.main(argv)`` in-process, one job
after another (a closed loop: the next job starts when the previous returns).
A job is one CLI invocation writing its CSVs into a scratch directory. The job
list is generated from ``--seed``; the program receives nothing but the
generated CLI arguments. Sizes are pinned in ``WORKLOADS`` below.

``--trace 0`` measures for ``--seconds`` with tracing off and reports the
end-to-end metrics. ``--trace 1`` runs each job of a fixed list twice,
untraced and traced, and reports per-layer call counts and self times (span
time minus child-span time), computed kernel counts and the tracing overhead.
Every job's CSVs are checked after the timing stops. The last stdout line is
one JSON object: {"correct", "attempted", "failed", "metrics"}.

``--record-reference`` rewrites ``reference.json``: the CSV bodies of the first
jobs of every workload at seed 0, which later seed-0 runs must match.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import importlib
import io
import json
import math
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
REFERENCE = BENCH_DIR / "reference.json"

SETUP_MIN_REPS = 3
SETUP_MIN_SECONDS = 1.5  # set up repeatedly until both minimums are met; report the median
REFERENCE_JOBS = 3
REF_RTOL = 1e-9  # above float rounding, below any change in a chosen configuration
REF_ATOL = 1e-12
GAMMA = 2 * math.pi * 15e9 / 100.0  # default damping factor 2*pi*f_t/q [rad/s]
GAMMA_MULTIPLES = (0.25, 4.0)  # log-uniform range of seeded b_tune / Gamma
PATH_COUNTS = (1, 2, 4)
VALIDATE_AXIS_POINTS = 5
VALIDATE_LAMBDA_POINTS = 5  # experiments.DEFAULT_LAMBDA_AXIS
VALIDATE_SUBCARRIERS = 64  # experiments.VALIDATE_SUBCARRIER_K

# mc-multipath is the paper's Monte-Carlo study: the successive scan plus the
# seeded multipath channel. los-large is an LOS sweep at the large size, where
# the successive scan takes over 95% and peak memory shows. approx-validate runs
# the LOS channel, center-frequency beamformer and closed-form approximation and
# bypasses both the successive scan and the multipath channel. It runs at the
# large size because its 15-25 ms jobs at 32 x 1001 swing by 1.6x with the load
# of a shared host, too much for a steady median between runs.
#
# index: separates the workloads' random streams; sizes: pinned job sizes
# (tiny: for the self-tests only); job_s: nominal job time on a 2-CPU Xeon VM,
# which sizes the fixed job list of a traced run to about --seconds.
WORKLOADS = {
    "mc-multipath": {
        "index": 0,
        "sizes": {"n_slot": 32, "r_res": 1001, "k": 64, "trials": 8},
        "tiny": {"n_slot": 8, "r_res": 51, "k": 8, "trials": 2},
        "job_s": 0.25,
    },
    "los-large": {
        "index": 1,
        "sizes": {"n_slot": 256, "r_res": 4001, "k": 64},
        "tiny": {"n_slot": 16, "r_res": 101, "k": 8},
        "job_s": 0.8,
    },
    "approx-validate": {
        "index": 2,
        "sizes": {"n_slot": 256, "r_res": 4001},
        "tiny": {"n_slot": 8, "r_res": 51},
        "job_s": 0.18,
    },
}

# (required columns, text columns) per output file; every other cell must be
# a finite, non-negative number (gains, SE, penalties, errors, axis values).
OUTPUTS = {
    "multipath-mc": {
        "multipath_mc.csv": (["l_path", "algorithm", "mean_se", "stderr_se", "trials"], {"algorithm"}),
    },
    "sweep-tuning": {
        "sweep_tuning.csv": (["b_tune", "se_cf", "se_succ", "g_sum_cf", "g_sum_succ"], set()),
    },
    "validate-approx": {
        "tuning_sweep.csv": (["b_tune", "g_cf_sum", "g_approx_sum", "fill_penalty", "rel_err"], set()),
        "lambda_sweep.csv": (["lambda", "g_cf_sum", "g_approx_sum", "leakage_penalty", "rel_err"], set()),
        "per_subcarrier.csv": (
            ["k", "f_k", "sim_gain", "approx_gain", "squint_gain", "fill_penalty", "leakage_penalty", "b_tune"],
            set(),
        ),
    },
}

# Traced layers: public functions, wrapped in every dmasim module that binds them.
LAYERS = (
    "cli.main",
    "experiments.run_plan",
    "params.override_fields",
    "params.subcarrier_grid",
    "channel.effective_channel",
    "channel.multipath_channel",
    "element.normalized_polarizability",
    "element.dma_weight_matrix",
    "beamform.center_frequency_beamformer",
    "beamform.successive_beamformer",
    "metrics.run_beamformer",
    "metrics.resonance_spectrum",
    "approx.gain_breakdown",
    "approx.power_normalized_gain",
)


class SetupError(Exception):
    """The program could not be imported from this checkout."""


@dataclass(frozen=True)
class Job:
    """One CLI invocation and the work its inputs imply."""

    index: int
    argv: tuple
    axis: tuple
    succ_calls: int  # successive_beamformer calls
    cf_calls: int  # center_frequency_beamformer calls
    n_slot: int
    r_res: int
    k: int

    @property
    def solves(self) -> int:
        """run_beamformer calls: sweep points or trials x algorithms."""
        return self.succ_calls + self.cf_calls

    @property
    def grid_evals(self) -> int:
        """Computed grid visits: n_slot*r_res*k per successive scan, n_slot*r_res per center-frequency scan."""
        return self.n_slot * self.r_res * (self.succ_calls * self.k + self.cf_calls)

    @property
    def bytes_computed(self) -> int:
        """Computed bytes of the arrays the scans materialise.

        Successive: the (r_res, k) complex weight table, then per element two
        complex and five real (r_res, k) temporaries (72 B per grid visit).
        Center-frequency: the complex achievable-weight vector, then a complex
        and a real (r_res, n_slot) distance table (24 B per grid visit).
        """
        succ = self.succ_calls * (16 * self.r_res * self.k + 72 * self.n_slot * self.r_res * self.k)
        cf = self.cf_calls * (16 * self.r_res + 24 * self.n_slot * self.r_res)
        return succ + cf


def make_job(workload: str, seed: int, index: int, sizes: dict) -> Job:
    """Job `index` of a workload; a pure function of (workload, seed, index, sizes)."""
    spec = WORKLOADS[workload]
    rng = np.random.default_rng([seed, spec["index"], index])
    n_slot, r_res = sizes["n_slot"], sizes["r_res"]
    size_args = ["--n-slot", str(n_slot), "--r-res", str(r_res)]
    lo, hi = (math.log(m) for m in GAMMA_MULTIPLES)
    if workload == "mc-multipath":
        l_path, trials = PATH_COUNTS[index % len(PATH_COUNTS)], sizes["trials"]
        child = int(rng.integers(2**31))
        argv = ["--axis", str(l_path), "--trials", str(trials), "--seed", str(child), "--k", str(sizes["k"])]
        argv = ("multipath-mc", *argv, *size_args)
        return Job(index, argv, (float(l_path),), trials, trials, n_slot, r_res, sizes["k"])
    if workload == "los-large":
        b_tune = GAMMA * math.exp(rng.uniform(lo, hi))
        argv = ["--axis", repr(b_tune), "--k", str(sizes["k"])]
        return Job(index, ("sweep-tuning", *argv, *size_args), (b_tune,), 1, 1, n_slot, r_res, sizes["k"])
    axis = tuple(sorted(GAMMA * math.exp(v) for v in rng.uniform(lo, hi, VALIDATE_AXIS_POINTS)))
    argv = ["--axis", ",".join(repr(v) for v in axis)]
    cf_calls = len(axis) + VALIDATE_LAMBDA_POINTS + 1
    return Job(index, ("validate-approx", *argv, *size_args), axis, 0, cf_calls, n_slot, r_res, VALIDATE_SUBCARRIERS)


# ----------------------------------------------------------------------------- tracing


class Tracer:
    """In-memory spans (name, start, end, parent, job, self seconds) and layer counters."""

    def __init__(self):
        self.spans: list = []
        self.stack: list = []  # [span index, child seconds]
        self.job = -1
        self.pinned = 0
        self.elements = 0
        self.channel_bytes = 0

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        observe = {
            "beamform.center_frequency_beamformer": lambda a, r: self._pinned(a[1], r),
            "beamform.successive_beamformer": lambda a, r: self._pinned(a[2], r),
            "channel.effective_channel": self._channel,
            "channel.multipath_channel": self._channel,
        }.get(name)

        def traced(*args, **kwargs):
            idx = len(spans)
            parent = stack[-1][0] if stack else -1
            spans.append(None)
            stack.append([idx, 0.0])
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                child = stack.pop()[1]
                if stack:
                    stack[-1][1] += end - start
                spans[idx] = (name, start, end, parent, self.job, end - start - child)
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _pinned(self, grid, res):
        edges = (res.f_r == grid.values[0]) | (res.f_r == grid.values[-1])
        self.pinned += int(np.count_nonzero(edges))
        self.elements += res.f_r.size

    def _channel(self, _args, channels):
        self.channel_bytes += sum(a.nbytes for a in (channels.h, channels.h_att, channels.phases) if a is not None)


@contextlib.contextmanager
def traced_layers(tracer: Tracer):
    """Replace each layer function in every dmasim module that binds it; restore on exit."""
    modules = [m for name, m in sys.modules.items() if name == "dmasim" or name.startswith("dmasim.")]
    patches = []
    try:
        for layer in LAYERS:
            module_name, fn_name = layer.split(".")
            original = getattr(sys.modules[f"dmasim.{module_name}"], fn_name)
            wrapper = tracer.wrap(layer, original)
            for module in modules:
                if getattr(module, fn_name, None) is original:
                    setattr(module, fn_name, wrapper)
                    patches.append((module, fn_name, original))
        yield
    finally:
        for module, fn_name, original in reversed(patches):
            setattr(module, fn_name, original)


# ----------------------------------------------------------------------------- running jobs


@dataclass
class JobRun:
    job: Job
    seconds: float
    out: Path
    error: str | None  # None when main returned 0
    bodies: dict = field(default_factory=dict)  # csv name -> body without the '# generated' line


def import_cli():
    """Import dmasim afresh from this checkout's src/ and return its cli module."""
    for name in [n for n in sys.modules if n == "dmasim" or n.startswith("dmasim.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    try:
        cli = importlib.import_module("dmasim.cli")
    except ImportError as exc:
        raise SetupError(f"cannot import dmasim from {SRC}: {exc}") from exc
    if SRC.resolve() not in Path(cli.__file__).resolve().parents:
        raise SetupError(f"dmasim was imported from {cli.__file__}, not from {SRC}")
    return cli


def run_job(cli, job: Job, out: Path) -> JobRun:
    argv = [*job.argv, "--out", str(out)]
    sink = io.StringIO()
    error = None
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        start = time.perf_counter()
        try:
            code = cli.main(argv)
        except (Exception, SystemExit):  # a failing job is counted, never fatal
            code, error = None, traceback.format_exc(limit=3)
        seconds = time.perf_counter() - start
    if error is None and code != 0:
        error = f"exit code {code}: {sink.getvalue().strip()}"
    return JobRun(job, seconds, out, error)


def setup(workload: str, seed: int, sizes: dict, out_root: Path):
    """Import dmasim afresh, then run one warm-up job; repeated. Returns (cli, seconds of each repetition)."""
    warmup = make_job(workload, seed, 0, sizes)
    times = []
    while len(times) < SETUP_MIN_REPS or sum(times) < SETUP_MIN_SECONDS:
        start = time.perf_counter()
        cli = import_cli()
        run_job(cli, warmup, out_root / "warmup")
        times.append(time.perf_counter() - start)
    return cli, times


# ----------------------------------------------------------------------------- output checks


def read_body(path: Path) -> str:
    text = path.read_bytes().decode("utf-8")  # no newline translation: bodies compare byte for byte
    return text.split("\n", 1)[1] if text.startswith("# generated") else text


def check_body(body: str, columns: list, text_columns: set) -> list[dict]:
    rows = list(csv.DictReader(io.StringIO(body)))
    header = next(csv.reader(io.StringIO(body)), [])
    if header != columns:
        raise ValueError(f"columns {header}, expected {columns}")
    for row in rows:
        for col, value in row.items():
            if col not in text_columns and not (math.isfinite(float(value)) and float(value) >= 0.0):
                raise ValueError(f"{col}={value} is not a finite non-negative number")
    return rows


def cells_match(body: str, ref: str) -> bool:
    got, want = (list(csv.reader(io.StringIO(b))) for b in (body, ref))
    if [len(r) for r in got] != [len(r) for r in want]:
        return False
    for a, b in zip((c for r in got for c in r), (c for r in want for c in r)):
        try:
            x, y = float(a), float(b)
        except ValueError:
            if a != b:
                return False
            continue
        if not math.isclose(x, y, rel_tol=REF_RTOL, abs_tol=REF_ATOL):
            return False
    return True


def check_job(run: JobRun, reference: dict | None) -> None:
    """Read and check one job's CSVs; records the first failure in run.error."""
    if run.error is not None:
        return
    job = run.job
    try:
        for name, (columns, text_columns) in OUTPUTS[job.argv[0]].items():
            body = read_body(run.out / name)
            rows = check_body(body, columns, text_columns)
            run.bodies[name] = body
            if name == "multipath_mc.csv":
                if sorted(r["algorithm"] for r in rows) != ["center-frequency", "successive"]:
                    raise ValueError("expected one row per algorithm")
                if any(float(r["l_path"]) != job.axis[0] or int(r["trials"]) != job.succ_calls for r in rows):
                    raise ValueError("path count or trial count differs from the job")
            elif name in ("sweep_tuning.csv", "tuning_sweep.csv"):
                if tuple(float(r["b_tune"]) for r in rows) != job.axis:
                    raise ValueError("b_tune column differs from the job axis")
            elif name == "lambda_sweep.csv" and len(rows) != VALIDATE_LAMBDA_POINTS:
                raise ValueError(f"expected {VALIDATE_LAMBDA_POINTS} lambda rows")
            elif name == "per_subcarrier.csv" and len(rows) != job.k:
                raise ValueError(f"expected {job.k} subcarrier rows")
            if reference is not None and str(job.index) in reference:
                if not cells_match(body, reference[str(job.index)][name]):
                    raise ValueError(f"{name} differs from the recorded seed-0 reference")
    except (OSError, ValueError, KeyError, TypeError) as exc:  # TypeError: a row with missing or extra cells
        run.error = f"output check: {exc!r}"


def check_multipath_gap(runs: list[JobRun]) -> None:
    """Acceptance criterion 11 over a run: per path count, mean successive SE >= mean center-frequency SE."""
    by_l: dict = {}
    for run in runs:
        if run.error is None and "multipath_mc.csv" in run.bodies:
            for row in csv.DictReader(io.StringIO(run.bodies["multipath_mc.csv"])):
                by_l.setdefault(float(row["l_path"]), {}).setdefault(row["algorithm"], []).append(float(row["mean_se"]))
    for l_path, per_alg in by_l.items():
        if statistics.fmean(per_alg["successive"]) < statistics.fmean(per_alg["center-frequency"]):
            for run in runs:
                if run.error is None and run.job.axis[0] == l_path:
                    run.error = f"criterion 11: successive mean SE below center-frequency at L={l_path:g}"


def load_reference(workload: str, seed: int, sizes: dict) -> dict | None:
    """Recorded seed-0 bodies, by job index; None unless seed 0 runs at the pinned sizes."""
    if seed != 0 or sizes != WORKLOADS[workload]["sizes"] or not REFERENCE.exists():
        return None
    return json.loads(REFERENCE.read_text(encoding="utf-8"))[workload]


def check_runs(workload: str, runs: list[JobRun], reference: dict | None) -> None:
    for run in runs:
        check_job(run, reference)
    if workload == "mc-multipath":
        check_multipath_gap(runs)


# ----------------------------------------------------------------------------- metrics


def tail(latencies_ms: list) -> tuple[float, float, int]:
    """(value, percentile, jobs beyond) of the highest percentile with at least ten jobs beyond it.

    With ten jobs or fewer no such percentile exists, and the maximum stands in.
    """
    ordered = sorted(latencies_ms)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], 100.0, 0
    return ordered[n - 11], 100.0 * (n - 10) / n, 10


def environment(workload: str, seed: int, sizes: dict) -> dict:
    cpu = platform.processor() or "unknown"
    with contextlib.suppress(OSError):
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "workload": workload,
        "seed": seed,
        "sizes": sizes,
    }


def git_sha() -> str:
    """HEAD of the checkout, read from .git without running git; 'unknown' outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


@dataclass
class Report:
    correct: bool
    attempted: int
    failed: int
    metrics: dict  # name -> (value, unit)
    notes: list  # human-readable lines printed before the result
    jobs: list  # argv of every job run
    bodies: dict  # job index -> {csv name: body}
    record: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)


def run_untraced(workload: str, seed: int, seconds: float, sizes: dict, out_root: Path) -> Report:
    cli, setup_times = setup(workload, seed, sizes, out_root)
    runs: list[JobRun] = []
    start = time.perf_counter()
    deadline = start + seconds
    index = 0
    while time.perf_counter() < deadline:
        job = make_job(workload, seed, index, sizes)
        runs.append(run_job(cli, job, out_root / f"job{index}"))
        index += 1
    wall = time.perf_counter() - start
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6  # before the checks read CSVs
    check_runs(workload, runs, load_reference(workload, seed, sizes))

    latencies = [r.seconds * 1e3 for r in runs]
    failed = sum(r.error is not None for r in runs)
    tail_ms, tail_pct, beyond = tail(latencies)
    solves = sum(r.job.solves for r in runs if r.error is None)
    metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "solves_per_s": (solves / wall, "1/s"),
        "job_ms_p50": (statistics.median(latencies), "ms"),
        "job_ms_tail": (tail_ms, "ms"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
    }
    notes = [
        f"jobs: {len(runs)} attempted, {failed} failed, failed_frac = {failed / len(runs):.6g} [1]",
        f"job_ms_tail is p{tail_pct:.2f} of {len(runs)} jobs ({beyond} beyond it)",
        f"setup_s is the median of {len(setup_times)} set-ups, {min(setup_times):.4f} to {max(setup_times):.4f} s",
    ]
    return Report(
        correct=failed == 0,
        attempted=len(runs),
        failed=failed,
        metrics=metrics,
        notes=notes + failure_notes(runs),
        jobs=[r.job.argv for r in runs],
        bodies={r.job.index: r.bodies for r in runs},
        record={"latencies_ms": latencies, "wall_s": wall, "setup_s_runs": setup_times},
    )


def run_traced(workload: str, seed: int, seconds: float, sizes: dict, out_root: Path) -> Report:
    """A fixed job list, each job run once untraced and once traced; per-layer counts repeat exactly for a seed."""
    cli, _ = setup(workload, seed, sizes, out_root)
    count = max(REFERENCE_JOBS, int(seconds / (2 * WORKLOADS[workload]["job_s"])))
    jobs = [make_job(workload, seed, i, sizes) for i in range(count)]

    tracer = Tracer()
    plain, traced = [], []
    for job in jobs:  # alternate which run of a pair goes first, so both see the same machine state
        for traced_turn in ((False, True) if job.index % 2 == 0 else (True, False)):
            if traced_turn:
                tracer.job = job.index
                with traced_layers(tracer):
                    traced.append(run_job(cli, job, out_root / f"traced{job.index}"))
            else:
                plain.append(run_job(cli, job, out_root / f"plain{job.index}"))
    plain_wall = sum(r.seconds for r in plain)
    traced_wall = sum(r.seconds for r in traced)

    reference = load_reference(workload, seed, sizes)
    check_runs(workload, plain, reference)
    check_runs(workload, traced, reference)
    for a, b in zip(plain, traced):
        if b.error is None and a.bodies != b.bodies:
            b.error = "traced CSV bodies differ from the untraced run"

    calls = {layer: 0 for layer in LAYERS}
    self_s = {layer: 0.0 for layer in LAYERS}
    for name, _start, _end, _parent, _job, own in tracer.spans:
        calls[name] += 1
        self_s[name] += own
    expected = {
        "metrics.run_beamformer": sum(j.solves for j in jobs),
        "beamform.successive_beamformer": sum(j.succ_calls for j in jobs),
        "beamform.center_frequency_beamformer": sum(j.cf_calls for j in jobs),
        "cli.main": len(jobs),
    }
    mismatches = [f"{k}: traced {calls[k]} calls, job inputs imply {v}" for k, v in expected.items() if calls[k] != v]

    metrics = {}
    for layer in LAYERS:
        metrics[f"{layer}.calls"] = (calls[layer], "count")
        metrics[f"{layer}.self_ms"] = (self_s[layer] * 1e3, "ms")
    metrics["experiments.csv_bytes"] = (sum(len(b.encode()) for r in traced for b in r.bodies.values()), "B")
    metrics["channel.bytes_out"] = (tracer.channel_bytes, "B")
    metrics["beamform.grid_evals"] = (sum(j.grid_evals for j in jobs), "count")
    metrics["beamform.bytes_computed"] = (sum(j.bytes_computed for j in jobs), "B")
    metrics["beamform.edge_pinned_frac"] = (tracer.pinned / max(tracer.elements, 1), "1")
    metrics["trace.overhead_frac"] = (traced_wall / plain_wall - 1.0, "1")

    runs = plain + traced
    failed = sum(r.error is not None for r in runs)
    total_self = sum(self_s.values())
    shares = sorted(((s / total_self if total_self else 0.0, layer) for layer, s in self_s.items()), reverse=True)
    notes = [
        f"jobs: {count}, each run untraced ({plain_wall:.3f} s in all) and traced ({traced_wall:.3f} s); "
        f"{failed} runs failed",
        "beamform.grid_evals and beamform.bytes_computed are computed from job sizes, not measured",
        "self-time shares: " + ", ".join(f"{layer} {share:.1%}" for share, layer in shares[:4]),
        *mismatches,
    ]
    return Report(
        correct=failed == 0 and not mismatches,
        attempted=len(runs),
        failed=failed,
        metrics=metrics,
        notes=notes + failure_notes(runs),
        jobs=[j.argv for j in jobs],
        bodies={r.job.index: r.bodies for r in traced},
        record={"plain_wall_s": plain_wall, "traced_wall_s": traced_wall},
        spans=tracer.spans,
    )


def failure_notes(runs: list[JobRun], limit: int = 5) -> list[str]:
    failed = [r for r in runs if r.error is not None]
    return [f"job {r.job.index} failed: {r.error.strip().splitlines()[-1]}" for r in failed[:limit]]


def run(workload: str, seed: int, seconds: float, trace: bool, sizes: dict | None = None) -> Report:
    """Run one workload; job outputs go to a scratch directory removed afterwards."""
    sizes = sizes or WORKLOADS[workload]["sizes"]
    out_root = BENCH_DIR / "out" / str(os.getpid())
    try:
        body = run_traced if trace else run_untraced
        report = body(workload, seed, seconds, sizes, out_root)
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    report.record["environment"] = environment(workload, seed, sizes)
    return report


def write_results(report: Report, workload: str, seed: int, trace: bool) -> Path:
    """Write the run record, and the spans of a traced run, under results/."""
    results = BENCH_DIR / "results"
    results.mkdir(exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    record = {**report.record, "metrics": {k: {"value": v, "unit": u} for k, (v, u) in report.metrics.items()}}
    path = results / f"{stem}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    if report.spans:
        with open(results / f"{stem}-spans.jsonl", "w", encoding="utf-8") as handle:
            handle.write(json.dumps(["name", "start_s", "end_s", "parent_span", "job", "self_s"]) + "\n")
            for span in report.spans:
                handle.write(json.dumps(span) + "\n")
    return path


def record_reference() -> None:
    """Store the CSV bodies of the first REFERENCE_JOBS jobs of each workload at seed 0."""
    cli = import_cli()
    reference = {}
    out_root = BENCH_DIR / "out" / str(os.getpid())
    try:
        for workload, spec in WORKLOADS.items():
            jobs = [make_job(workload, 0, i, spec["sizes"]) for i in range(REFERENCE_JOBS)]
            runs = [run_job(cli, job, out_root / f"job{job.index}") for job in jobs]
            check_runs(workload, runs, None)
            errors = [r.error for r in runs if r.error is not None]
            if errors:
                raise SetupError(f"{workload}: {errors[0]}")
            reference[workload] = {str(r.job.index): r.bodies for r in runs}
    finally:
        shutil.rmtree(out_root, ignore_errors=True)
    REFERENCE.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="tiny sizes, for the benchmark's self-tests")
    parser.add_argument("--record-reference", action="store_true", help="rewrite reference.json and exit")
    args = parser.parse_args(argv)
    try:
        if args.record_reference:
            record_reference()
            print(f"wrote {REFERENCE}")
            return 0
        if args.workload is None:
            parser.error("--workload is required")
        if not args.seconds > 0:
            parser.error("--seconds must be positive")
        sizes = WORKLOADS[args.workload]["tiny" if args.tiny else "sizes"]
        report = run(args.workload, args.seed, args.seconds, bool(args.trace), sizes)
    except SetupError as exc:
        print(f"benchmark: error: {exc}", file=sys.stderr)
        return 2
    path = write_results(report, args.workload, args.seed, bool(args.trace))
    env = report.record["environment"]
    print(f"dmasim benchmark: workload={args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}")
    print("environment: " + " ".join(f"{k}={v}" for k, v in env.items() if k not in ("workload", "seed")))
    for line in report.notes:
        print(line)
    for name, (value, unit) in report.metrics.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"record: {path.relative_to(ROOT)}")
    result = {
        "correct": report.correct,
        "attempted": report.attempted,
        "failed": report.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in report.metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
