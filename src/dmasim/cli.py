"""Batch CLI: one subcommand per experiment kind, CSV output.

Scenario and design come from an optional flat key=value config file. A kind
has an override flag, "--" + the key in lowercase with "_" as "-", for each
setting it reads and none for one it ignores (experiments.IGNORED); a config
file that sets an ignored key gets a note on stderr.
Exit code 0 on success, 2 with a usage line for a bad argument, 1 with a
one-line diagnostic for a run that fails; a run that fails writes no CSV.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import asdict, fields
from pathlib import Path

from .experiments import IGNORED, KINDS, ExperimentPlan, run_plan
from .params import _CONFIG_KEYS, _INT_FIELDS, DmaDesign, ScenarioConfig, load_config, override_fields


_PLAN_FLAGS = {  # ExperimentPlan field -> add_argument keywords; flags default to None, the dataclasses hold defaults
    "r_res": {"type": int, "help": "resonance grid resolution"},
    "trials": {"type": int, "help": "Monte-Carlo trial count"},
    "seed": {"type": int, "help": "master seed"},
    "pin_los": {"action": "store_true", "help": "pin the first ray to the LOS angle"},
}


@functools.cache  # parsing leaves the parser unchanged, so one per process serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="dmasim", description=__doc__)
    sub = parser.add_subparsers(dest="kind", required=True)
    settings = {"--" + field.replace("_", "-"): (field, kwargs) for field, kwargs in _PLAN_FLAGS.items()}
    for key, (field, help_text) in _CONFIG_KEYS.items():
        typ = int if field in _INT_FIELDS else float
        settings["--" + key.lower().replace("_", "-")] = (field, {"type": typ, "help": f"override {help_text}"})
    for kind in KINDS:
        p = sub.add_parser(kind, help=f"run the {kind} experiment", allow_abbrev=False)  # --r is not --r-res
        p.add_argument("--config", type=Path, default=None, help="flat key=value config file")
        p.add_argument("--out", type=Path, default=Path("results"), help="output directory")
        p.add_argument("--axis", type=str, default=None, help="comma-separated sweep values (ascending)")
        for flag, (field, kwargs) in settings.items():
            if field not in IGNORED[kind]:
                p.add_argument(flag, dest=field, default=None, **kwargs)
    return parser


def _configs_from_args(args) -> tuple[ScenarioConfig, DmaDesign]:
    cfg, design = load_config(args.config) if args.config is not None else (ScenarioConfig(), DmaDesign())
    given = {field: getattr(args, field, None) for field, _ in _CONFIG_KEYS.values()}  # None: no such flag or not given
    return tuple(override_fields(obj, **{f.name: given[f.name] for f in fields(obj)}) for obj in (cfg, design))


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg, design = _configs_from_args(args)
        # a kind has no flag for a setting it ignores, so only a config file can set one
        values, defaults = {**asdict(cfg), **asdict(design)}, {**asdict(ScenarioConfig()), **asdict(DmaDesign())}
        if ignored := [key for key, (f, _) in _CONFIG_KEYS.items() if f in IGNORED[args.kind] and values[f] != defaults[f]]:
            print(f"dmasim: note: {args.kind} ignores the config keys {', '.join(ignored)}", file=sys.stderr)
        axis = tuple(float(v) for v in args.axis.split(",")) if args.axis else ()
        given = {name: getattr(args, name) for name in _PLAN_FLAGS if getattr(args, name, None) is not None}
        plan = ExperimentPlan(kind=args.kind, out_dir=args.out, axis=axis, **given)
        written = run_plan(plan, cfg, design)
    except (ValueError, OSError, MemoryError) as exc:  # MemoryError: a size past what the host can allocate
        print(f"dmasim: error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 1
    for path in written:
        print(path)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
