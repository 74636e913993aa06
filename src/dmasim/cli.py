"""Batch CLI: one subcommand per experiment kind, CSV output.

Scenario and design come from an optional flat key=value config file; every
config key has an override flag, named "--" + the key in lowercase with "_"
as "-". Only the Monte-Carlo kinds take --trials, --seed and --pin-los. Exit
code 0 on success, 2 with a usage line for a bad argument, 1 with a one-line
diagnostic for a run that fails; a run that fails writes no CSV.
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .experiments import KINDS, MONTE_CARLO_KINDS, ExperimentPlan, run_plan
from .params import _DESIGN_KEYS, _INT_FIELDS, _SCENARIO_KEYS, DmaDesign, ScenarioConfig, load_config, override_fields


_PLAN_FLAGS = ("r_res", "trials", "seed", "pin_los")  # ExperimentPlan fields; a kind may lack some


@functools.cache  # parsing leaves the parser unchanged, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmasim", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment")
        p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
        p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
        p.add_argument("--axis", type=str, default=None, help="comma-separated sweep values (ascending)")
        # the plan flags default to None, so ExperimentPlan holds the one set of defaults
        p.add_argument("--r-res", type=int, default=None, help="resonance grid resolution")
        if kind in MONTE_CARLO_KINDS:
            p.add_argument("--trials", type=int, default=None, help="Monte-Carlo trial count")
            p.add_argument("--seed", type=int, default=None, help="master seed")
            p.add_argument("--pin-los", action="store_true", default=None, help="pin the first ray to the LOS angle")
        for key, (field, help_text) in {**_SCENARIO_KEYS, **_DESIGN_KEYS}.items():
            flag = "--" + key.lower().replace("_", "-")
            typ = int if field in _INT_FIELDS else float
            p.add_argument(flag, dest=field, type=typ, default=None, help=f"override {help_text}")
    return parser


def _configs_from_args(args) -> tuple[ScenarioConfig, DmaDesign]:
    if args.config is not None:
        cfg, design = load_config(args.config)
    else:
        cfg, design = ScenarioConfig(), DmaDesign()
    cfg = override_fields(cfg, **{field: getattr(args, field) for field, _ in _SCENARIO_KEYS.values()})
    design = override_fields(design, **{field: getattr(args, field) for field, _ in _DESIGN_KEYS.values()})
    return cfg, design


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, design = _configs_from_args(args)
        default = ScenarioConfig()
        if args.kind == "validate-approx" and (cfg.b != default.b or cfg.k != default.k):
            print("dmasim: note: validate-approx sets its own b and k; the given B and K are ignored", file=sys.stderr)
        axis = tuple(float(v) for v in args.axis.split(",")) if args.axis else ()
        given = {name: getattr(args, name) for name in _PLAN_FLAGS if getattr(args, name, None) is not None}
        plan = ExperimentPlan(kind=args.kind, out_dir=args.out, axis=axis, **given)
        written = run_plan(plan, cfg, design)
    except (ValueError, OSError) as exc:
        print(f"dmasim: error: {exc}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
