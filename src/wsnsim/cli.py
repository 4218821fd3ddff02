"""Command-line entry point: config parsing, batch execution, output layout."""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field as dc_field, replace
from pathlib import Path

from .model import FieldConfig, RadioParams
from .reporting import write_round_csv, write_summary_json
from .simulator import algorithm, algorithm_names, run_simulation

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_RUNTIME = 2


class ConfigError(Exception):
    pass


FORMATS = ("csv", "json")


@dataclass
class RunConfig:
    field: FieldConfig = dc_field(default_factory=FieldConfig)
    radio: RadioParams = dc_field(default_factory=RadioParams)
    algorithms: list[str] = dc_field(default_factory=list)
    seeds: list[int] = dc_field(default_factory=lambda: [0])
    output_dir: Path = Path("out")
    formats: set[str] = dc_field(default_factory=lambda: set(FORMATS))


def _parse(kind: type, raw: str, where: str):
    try:
        return kind(raw)
    except ValueError:
        noun = "an integer" if kind is int else "a number"
        raise ConfigError(f"{where}: cannot parse {raw!r} as {noun}") from None


def _unique(values: list, key: str) -> list:
    """values, unless one is repeated: a batch runs each (algorithm, seed) once."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{key}: {v!r} given more than once")
    return values


# Scalar config key -> (owner, its keyword or BS axis, type).
_SCALAR_KEYS = {
    "side": ("field", "side_m", float),
    "nodes": ("field", "node_count", int),
    "p": ("field", "base_probability", float),
    "advanced_fraction": ("field", "advanced_fraction", float),
    "advanced_energy_factor": ("field", "advanced_energy_factor", float),
    "initial_energy": ("field", "initial_energy", float),
    "max_rounds": ("field", "max_rounds", int),
    "bs_x": ("bs", 0, float),
    "bs_y": ("bs", 1, float),
    "elec_energy_per_bit": ("radio", "elec_energy_per_bit", float),
    "fs_amp": ("radio", "fs_amp", float),
    "mp_amp": ("radio", "mp_amp", float),
    "aggregation_energy_per_bit": ("radio", "aggregation_energy_per_bit", float),
    "packet_bits": ("radio", "packet_bits", int),
}


def parse_config(path: str | Path) -> RunConfig:
    """Read a key-value config file; unset keys keep the built-in defaults.

    Lines are `key = value`; `#` and `;` start comments; `[section]` headers
    are allowed for grouping and otherwise ignored. Unknown keys, unparsable
    values, and out-of-range values are configuration errors naming the key
    and line. An unset BS coordinate is the centre of the configured side.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    owners: dict[str, dict] = {"field": {}, "radio": {}, "bs": {}}
    cfg = RunConfig()
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip().lower(), raw.strip()
        where = f"line {lineno}: key {key!r}"
        values = [v.strip() for v in raw.split(",") if v.strip()]   # a list key's items
        if key in _SCALAR_KEYS:
            owner, name, kind = _SCALAR_KEYS[key]
            owners[owner][name] = _parse(kind, raw, where)
        elif key == "algorithms":
            cfg.algorithms = _unique([v.lower() for v in values], where)
            for name in cfg.algorithms:
                if name not in algorithm_names():
                    raise ConfigError(f"line {lineno}: unknown algorithm {name!r}")
        elif key == "seeds":
            cfg.seeds = _unique([_parse(int, v, where) for v in values], where)
        elif key == "output_dir":
            cfg.output_dir = Path(raw)
        elif key == "formats":
            cfg.formats = {v.lower() for v in values}
            bad = cfg.formats.difference(FORMATS)
            if bad:
                raise ConfigError(f"line {lineno}: unknown format(s) {sorted(bad)}")
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    side = owners["field"].get("side_m", FieldConfig.side_m)
    owners["field"]["bs_position"] = tuple(owners["bs"].get(axis, side / 2) for axis in (0, 1))
    try:
        cfg.field = FieldConfig(**owners["field"])
        cfg.radio = RadioParams(**owners["radio"])
    except (ValueError, ArithmeticError) as exc:   # e.g. nodes beyond the float range
        raise ConfigError(str(exc)) from exc
    if not cfg.seeds:
        raise ConfigError("seeds must be non-empty")
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsim",
        description="Round-based LEACH/SEP clustering simulator")
    parser.add_argument("--config", type=Path, help="config file path")
    parser.add_argument("--algorithm", action="append", default=None,
                        help="algorithm name (repeatable; overrides config)")
    parser.add_argument("--seed", action="append", type=int, default=None,
                        help="seed (repeatable; overrides config)")
    parser.add_argument("--rounds", type=int, default=None,
                        help="override maximum number of rounds")
    parser.add_argument("--output-dir", type=Path, default=None)
    parser.add_argument("--format", action="append", choices=FORMATS,
                        default=None, help="output format (repeatable)")
    parser.add_argument("--list-algorithms", action="store_true",
                        help="print the algorithm registry and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_algorithms:
        for name in algorithm_names():
            print(name)
        return EXIT_OK

    try:
        cfg = parse_config(args.config) if args.config else RunConfig()
        if args.algorithm:
            cfg.algorithms = _unique([a.lower() for a in args.algorithm], "--algorithm")
        if args.seed:
            cfg.seeds = _unique(list(args.seed), "--seed")
        if args.rounds is not None:   # FieldConfig rejects a negative count
            cfg.field = replace(cfg.field, max_rounds=args.rounds)
        if args.output_dir is not None:
            cfg.output_dir = args.output_dir
        if args.format:
            cfg.formats = set(args.format)
        if not cfg.algorithms:
            raise ConfigError("no algorithms selected; use --algorithm or the "
                              "'algorithms' config key (--list-algorithms to enumerate)")
        specs = [algorithm(name) for name in cfg.algorithms]
    except (ConfigError, ValueError) as exc:
        print(f"wsnsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summaries = []
        for spec in specs:
            algo_dir = cfg.output_dir / spec.name
            if "csv" in cfg.formats:
                algo_dir.mkdir(parents=True, exist_ok=True)
            for seed in cfg.seeds:
                summary = run_simulation(cfg.field, cfg.radio, spec, seed)
                summaries.append(summary)
                if "csv" in cfg.formats:
                    write_round_csv(summary, algo_dir / f"seed-{seed}.csv")
        if "json" in cfg.formats:
            cfg.output_dir.mkdir(parents=True, exist_ok=True)
            write_summary_json(summaries, cfg.output_dir / "summary.json")
    except (OSError, ValueError, ArithmeticError) as exc:   # e.g. a float overflow
        print(f"wsnsim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
