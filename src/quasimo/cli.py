"""Config-driven experiment runner.

``quasimo run --config cfg.json`` builds a model from the config's "model"
section, a workflow from its "workflow" section, executes, and writes the CSV
the workflow's ``csv_table`` lays out (time-dependent ``step,time,exp_val``;
qite ``step,beta,energy``; vqe, qaoa and other workflows ``eval,energy``).
Floats are printed with repr, so a fixed seed gives byte-identical output.

Exit codes: 0 success, 2 config error (the message names the offending
key), 3 runtime error; ``validate`` exits 0 when accepted, 1 when rejected.
The environment variable QUASIMO_SEED is the seed fallback when neither
--seed nor the config provides one.
"""

import argparse
import csv
import json
import os
import sys
from pathlib import Path

from . import ansatz, model as model_mod, workflow as workflow_mod
from .optimizer import config_value
from .tapering import auto_sector, find_z2_symmetries, taper
from .validation import ValidationCriteria, accept_results

SEED_ENV_VAR = "QUASIMO_SEED"

EXIT_OK = 0
EXIT_REJECTED = 1
EXIT_CONFIG = 2
EXIT_RUNTIME = 3


class ConfigError(ValueError):
    pass


def _fmt(value) -> str:
    if isinstance(value, float):
        return repr(value)
    return str(value)


def _load_config(path: str) -> dict:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from exc
    try:
        config = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    if not isinstance(config, dict):
        raise ConfigError("config must be a JSON object")
    unknown = set(config) - {"model", "workflow", "evaluator", "output"}
    if unknown:
        raise ConfigError(f"unknown config section '{sorted(unknown)[0]}'")
    for section in ("model", "workflow"):
        if section not in config:
            raise ConfigError(f"config needs a '{section}' section")
    for section, value in config.items():
        if not isinstance(value, dict):
            raise ConfigError(f"config section '{section}' must be a JSON object")
    output = config.get("output", {})
    unknown = set(output) - {"csv"}
    if unknown:
        raise ConfigError(f"unknown output key '{sorted(unknown)[0]}'")
    if "csv" in output:
        name = output["csv"]
        # Path("..").name is "..", and Path("").name is "".
        if not (isinstance(name, str) and Path(name).name == name and name not in ("", "..")):
            raise ConfigError(f"output key 'csv' must be a bare file name, got {name!r}")
    return config


def _build_model(section: dict):
    section = dict(section)
    kind = section.pop("kind", None)
    if kind is None:
        raise ConfigError("model section needs a 'kind' key")
    transform = section.pop("transform", None)
    if transform not in (None, "qubit-tapering"):
        raise ConfigError(f"unknown model transform '{transform}'")
    built = model_mod.create_model(kind, section)
    if transform is None:
        return built
    symmetries = find_z2_symmetries(built.hamiltonian)
    sector = auto_sector(built.hamiltonian, symmetries)
    tapered = taper(built.hamiltonian, symmetries, sector)
    width = tapered.width
    if width == 0:
        raise ConfigError("qubit-tapering removed every qubit; nothing to simulate")
    if width == 1:
        circuit = ansatz.rx_ry()
    else:
        circuit = ansatz.hardware_efficient(width, 1)
    return model_mod.create_from_parts(circuit, tapered, name=f"{kind}-tapered")


def _effective_seed(args_seed, workflow_section: dict):
    if args_seed is not None:
        return args_seed
    if "seed" in workflow_section:
        return config_value(workflow_section, "seed", int)
    return config_value(os.environ, SEED_ENV_VAR, int, 0)


def _write_csv(path: Path, header, rows) -> None:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
    path.write_text("\n".join(lines) + "\n")


def _cmd_run(args) -> int:
    try:
        config = _load_config(args.config)
        workflow_section = dict(config["workflow"])
        name = workflow_section.pop("name", None)
        if name is None:
            raise ConfigError("workflow section needs a 'name' key")
        evaluator_section = dict(config.get("evaluator", {}))
        unknown = set(evaluator_section) - {"shots", "seed"}
        if unknown:
            raise ConfigError(f"unknown evaluator key '{sorted(unknown)[0]}'")
        clash = evaluator_section.keys() & workflow_section.keys()
        if clash:
            raise ConfigError(
                f"config key '{sorted(clash)[0]}' is set in both the 'evaluator' and "
                "'workflow' sections; give one"
            )
        workflow_section.update(evaluator_section)
        workflow_section["seed"] = _effective_seed(args.seed, workflow_section)
        if args.shots is not None:
            workflow_section["shots"] = args.shots
        built = _build_model(config["model"])
        flow = workflow_mod.get_workflow(name, workflow_section)
        flow.check_model(built)
    except (workflow_mod.UnknownWorkflowError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        result = flow.execute(built)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        filename = config.get("output", {}).get("csv", f"{name}.csv")
        out_path = out_dir / filename
        header, rows = flow.csv_table(result)
        _write_csv(out_path, header, rows)
    except Exception as exc:  # runtime failures map to a distinct exit code
        print(f"runtime error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME

    if not args.quiet:
        if "energy" in result:
            print(f"energy = {_fmt(float(result['energy']))}")
        print(f"wrote {out_path}")
    return EXIT_OK


def _cmd_list(items, filter_text) -> int:
    for name in items:
        if filter_text in name:
            print(name)
    return EXIT_OK


def _read_column(path: str, column):
    try:
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ConfigError(f"{path} has no header row")
            name = column if column is not None else reader.fieldnames[-1]
            if name not in reader.fieldnames:
                raise ConfigError(f"{path} has no column '{name}'")
            values = []
            for row in reader:
                # DictReader files a long row's extra fields under None and
                # fills a short row's missing ones with None.
                if None in row or None in row.values():
                    raise ConfigError(
                        f"{path} line {reader.line_num}: the row does not have the "
                        f"header's {len(reader.fieldnames)} field(s)"
                    )
                values.append(float(row[name]))
            if not values:
                raise ConfigError(f"{path} has no data rows")
            return values
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from exc
    except ConfigError:
        raise
    except ValueError as exc:
        raise ConfigError(f"non-numeric data in {path}: {exc}") from exc


def _cmd_validate(args) -> int:
    try:
        series = _read_column(args.results, args.column)
        try:
            reference = [float(args.reference)]
        except ValueError:
            reference = _read_column(args.reference, args.column)
        else:
            if args.measure == "rmse":
                raise ConfigError("rmse needs a reference CSV, not a scalar")
        if args.measure == "abs-diff":
            series, reference = series[-1], reference[-1]
        criteria = ValidationCriteria(args.measure, args.threshold, reference)
        accepted, measured = accept_results({criteria.key: series}, criteria)
    except ValueError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(f"{args.measure} = {_fmt(measured)} ({'accepted' if accepted else 'rejected'})")
    return EXIT_OK if accepted else EXIT_REJECTED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="quasimo", description="Config-driven quantum simulation workflows."
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="execute a workflow described by a config file")
    run.add_argument("--config", required=True, help="path to a JSON config")
    run.add_argument("--seed", type=int, default=None, help="override the RNG seed")
    run.add_argument(
        "--shots", type=int, default=None, help="switch the evaluator to sampled tomography"
    )
    run.add_argument("--out", default=".", help="output directory (default: .)")
    run.add_argument("--quiet", action="store_true", help="suppress the summary line")

    lw = sub.add_parser("list-workflows", help="print registered workflow names")
    lw.add_argument("filter", nargs="?", default="", help="substring filter")
    lm = sub.add_parser("list-models", help="print built-in model kinds")
    lm.add_argument("filter", nargs="?", default="", help="substring filter")

    val = sub.add_parser("validate", help="compare a results CSV against a reference")
    val.add_argument("results", help="results CSV produced by 'run'")
    val.add_argument(
        "--reference", required=True, help="reference CSV path or a scalar value"
    )
    val.add_argument("--measure", choices=("abs-diff", "rmse"), default="abs-diff")
    val.add_argument("--threshold", type=float, required=True)
    val.add_argument(
        "--column", default=None, help="CSV column to compare (default: last column)"
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "list-workflows":
        return _cmd_list(workflow_mod.list_workflows(), args.filter)
    if args.command == "list-models":
        return _cmd_list(model_mod.list_models(), args.filter)
    return _cmd_validate(args)


if __name__ == "__main__":
    sys.exit(main())
