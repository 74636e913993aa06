"""Golden CSV bodies: every experiment kind, run through the CLI at a small size.

Each case pins the sha256 of every CSV body it writes (the `# generated`
timestamp line is excluded). A refactor that keeps behaviour keeps every body
byte for byte; re-record a hash only for an intended change of output. The
hashes were recorded with Python 3.11 and numpy 2.4 on x86-64; the last bits
of a float may differ on another numpy or CPU.
"""

import contextlib
import hashlib
import io
from pathlib import Path

import pytest

from dmasim.cli import main

SMALL = ["--k", "8", "--n-slot", "8", "--r-res", "51"]
MONTE_CARLO = ["--trials", "3", "--seed", "5"]  # multipath-mc takes these; the other kinds reject them

EXPLICIT_AXES = {
    "validate-approx": "5e8,1e9",
    "sweep-bandwidth": "1e8,2e8",
    "sweep-tuning": "5e8,1e9",
    "sweep-lambda": "0.3,0.6",
    "sweep-angle": "-0.3,0.3",
    "sweep-spacing": "0.005,0.01",
    "sweep-damping": "50,100",
    "max-rate": "5e8,1e9",
    "multipath-mc": "1,2",
}


def _argv(kind: str, *extra: str) -> list[str]:
    small = SMALL[2:] if kind == "validate-approx" else SMALL  # that kind has no --k: it sets its own
    return [kind, *small, *(MONTE_CARLO if kind == "multipath-mc" else []), *extra]


CASES = {
    **{f"{kind}-axis": _argv(kind, f"--axis={axis}") for kind, axis in EXPLICIT_AXES.items()},
    **{f"{kind}-default": _argv(kind) for kind in EXPLICIT_AXES},
    "multipath-mc-pin-los": _argv("multipath-mc", "--pin-los"),
}


def _run(argv, out: Path) -> dict:
    """Run one CLI job; return {file name: sha256 of its body}."""
    with contextlib.redirect_stdout(io.StringIO()):
        assert main([*argv, "--out", str(out)]) == 0
    digests = {}
    for path in sorted(out.glob("*.csv")):
        header, body = path.read_bytes().split(b"\n", 1)
        assert header.startswith(b"# generated ")
        digests[path.name] = hashlib.sha256(body).hexdigest()
    return digests


GOLDEN = {
    "validate-approx-axis": {
        "lambda_sweep.csv": "92c5cd17e34442f6d4369034db1bb87c074bd5ae49a0d48191ed441511d27cc0",
        "per_subcarrier.csv": "ba45c9352bcfe1e099532c2e004a6076c44679d382b3b9c0f46f5ee5dd5b89de",
        "tuning_sweep.csv": "f5438cd8cecf6c6fb348b2465599cb5e09c21aeb5fbb807ab818fb6c917eecd0",
    },
    "sweep-bandwidth-axis": {
        "spectrum_center-frequency.csv": "647f067966d735a82163c7019d2622df63295409ff3dcfac5428763687243867",
        "spectrum_successive.csv": "32bb2f2b492cc3fc59ee601777d30da3333a54b3c5cac46e5801447cb6c21c98",
        "sweep_bandwidth.csv": "6d32f27f85975a334279ce0187f5cdcfa334c504b5c4309f8d491b8c66642ca8",
    },
    "sweep-tuning-axis": {
        "sweep_tuning.csv": "9a04b642491eff4b5770ce7b611d8beea6277e01fd23a27ae3c80a125773a97b",
    },
    "sweep-lambda-axis": {
        "sweep_lambda.csv": "fdc8e116af3a23e73d89966fb107fbe89d06f8fa67812a24a901627e25869b0d",
    },
    "sweep-angle-axis": {
        "sweep_angle.csv": "977427f0033b334b1968ede7f6bd7f7dd90c0015020b0575d9642439b8379b4c",
    },
    "sweep-spacing-axis": {
        "sweep_spacing.csv": "0d832bb7f85bf0cbe4f8b4edaddb9f92713370369d43185f09484db2ec2d4688",
    },
    "sweep-damping-axis": {
        "sweep_damping.csv": "86fb44df6656ba7b06b9b80d8a37cd5b94e42db57ee282ca6847c881f47785ee",
    },
    "max-rate-axis": {
        "max_rate.csv": "c56284d42b5087cba21e95a9dba622744c75b1d747fe065deebcefbf82a74ada",
    },
    "multipath-mc-axis": {
        "multipath_mc.csv": "af7be796b42ab23454cc9962b7361e698d84e92e12e5f93c8c7aefac3aaaaf49",
    },
    "validate-approx-default": {
        "lambda_sweep.csv": "92c5cd17e34442f6d4369034db1bb87c074bd5ae49a0d48191ed441511d27cc0",
        "per_subcarrier.csv": "ba45c9352bcfe1e099532c2e004a6076c44679d382b3b9c0f46f5ee5dd5b89de",
        "tuning_sweep.csv": "a019934342a242c930318e2a170afa47b724ecc1b82149c7c4c148219ee72d30",
    },
    "sweep-bandwidth-default": {
        "spectrum_center-frequency.csv": "647f067966d735a82163c7019d2622df63295409ff3dcfac5428763687243867",
        "spectrum_successive.csv": "32bb2f2b492cc3fc59ee601777d30da3333a54b3c5cac46e5801447cb6c21c98",
        "sweep_bandwidth.csv": "ad93677a35a1f13290d2f612b1ce7b139ceb061f17c0da053cfdadf03f27cc68",
    },
    "sweep-tuning-default": {
        "sweep_tuning.csv": "91c826e7f642d218915d784cd3286e79c6cb1ab5b09ffe25827d1e7f472a62f8",
    },
    "sweep-lambda-default": {
        "sweep_lambda.csv": "250583562df611650241a86f0098dc18fda952e598a01571ef8afc7d3aebb930",
    },
    "sweep-angle-default": {
        "sweep_angle.csv": "699859333f527e96fd9d510b5d21670a4a745ca257571d4e7209593da269df13",
    },
    "sweep-spacing-default": {
        "sweep_spacing.csv": "a328c067906687b8d3bf22cde1fe45244b05b13e3cc4d9c941ee6f03420d748d",
    },
    "sweep-damping-default": {
        "sweep_damping.csv": "6966dfff3fd56e26e3844454fd83cfa4c0c5b9cd22c4ff4d6077331f9be5feb9",
    },
    "max-rate-default": {
        "max_rate.csv": "53abd329587672deefa84363d037d3e656420a39692a6aa2594519a4dafe64f7",
    },
    "multipath-mc-default": {
        "multipath_mc.csv": "ef6981aaac4938d51f7dcf5df6ecb3ad1fc827e59c7f18512fa4dc6a177e316b",
    },
    "multipath-mc-pin-los": {
        "multipath_mc.csv": "00afe155586db6fc9698d570d4acd2a2235b1a6d80ef8c341c33082ca8718b65",
    },
}


@pytest.mark.parametrize("case_id", sorted(CASES))
def test_csv_bodies_match_golden(tmp_path, case_id):
    assert _run(CASES[case_id], tmp_path) == GOLDEN[case_id]
