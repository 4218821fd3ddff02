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


@dataclass
class RunConfig:
    field: FieldConfig = dc_field(default_factory=FieldConfig)
    radio: RadioParams = dc_field(default_factory=RadioParams)
    algorithms: list[str] = dc_field(default_factory=list)
    seeds: list[int] = dc_field(default_factory=lambda: [0])
    output_dir: Path = Path("out")
    formats: set[str] = dc_field(default_factory=lambda: {"csv", "json"})


def _parse_float(raw, key, line):
    try:
        return float(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key {key!r}: cannot parse {raw!r} as a number")


def _parse_int(raw, key, line):
    try:
        return int(raw)
    except ValueError:
        raise ConfigError(f"line {line}: key {key!r}: cannot parse {raw!r} as an integer")


def _unique(values: list, key: str) -> list:
    """values, unless one is repeated: a batch runs each (algorithm, seed) once."""
    for i, v in enumerate(values):
        if v in values[:i]:
            raise ConfigError(f"{key}: {v!r} given more than once")
    return values


_FIELD_KEYS = {
    "side": ("side_m", _parse_float),
    "nodes": ("node_count", _parse_int),
    "p": ("base_probability", _parse_float),
    "advanced_fraction": ("advanced_fraction", _parse_float),
    "advanced_energy_factor": ("advanced_energy_factor", _parse_float),
    "initial_energy": ("initial_energy", _parse_float),
    "max_rounds": ("max_rounds", _parse_int),
}
_RADIO_KEYS = {
    "elec_energy_per_bit": ("elec_energy_per_bit", _parse_float),
    "fs_amp": ("fs_amp", _parse_float),
    "mp_amp": ("mp_amp", _parse_float),
    "aggregation_energy_per_bit": ("aggregation_energy_per_bit", _parse_float),
    "packet_bits": ("packet_bits", _parse_int),
}


def parse_config(path: str | Path) -> RunConfig:
    """Read a key-value config file; unset keys keep the built-in defaults.

    Lines are `key = value`; `#` and `;` start comments; `[section]` headers
    are allowed for grouping and otherwise ignored. Unknown keys, unparsable
    values, and out-of-range values are configuration errors naming the key
    and line.
    """
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8")
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc

    field_kw: dict = {}
    radio_kw: dict = {}
    cfg = RunConfig()
    bs_x = bs_y = None
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        key, _, raw = line.partition("=")
        key, raw = key.strip().lower(), raw.strip()
        if key in _FIELD_KEYS:
            attr, parse = _FIELD_KEYS[key]
            field_kw[attr] = parse(raw, key, lineno)
        elif key in _RADIO_KEYS:
            attr, parse = _RADIO_KEYS[key]
            radio_kw[attr] = parse(raw, key, lineno)
        elif key == "bs_x":
            bs_x = _parse_float(raw, key, lineno)
        elif key == "bs_y":
            bs_y = _parse_float(raw, key, lineno)
        elif key == "algorithms":
            cfg.algorithms = _unique([a.strip().lower() for a in raw.split(",") if a.strip()],
                                     f"line {lineno}: key {key!r}")
            for name in cfg.algorithms:
                if name not in algorithm_names():
                    raise ConfigError(f"line {lineno}: unknown algorithm {name!r}")
        elif key == "seeds":
            cfg.seeds = _unique([_parse_int(s.strip(), key, lineno)
                                 for s in raw.split(",") if s.strip()],
                                f"line {lineno}: key {key!r}")
        elif key == "output_dir":
            cfg.output_dir = Path(raw)
        elif key == "formats":
            formats = {f.strip().lower() for f in raw.split(",") if f.strip()}
            bad = formats - {"csv", "json"}
            if bad:
                raise ConfigError(f"line {lineno}: unknown format(s) {sorted(bad)}")
            cfg.formats = formats
        else:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")

    side = field_kw.get("side_m", 100.0)
    if bs_x is not None or bs_y is not None:
        field_kw["bs_position"] = (bs_x if bs_x is not None else side / 2,
                                   bs_y if bs_y is not None else side / 2)
    try:
        cfg.field = FieldConfig(**field_kw)
        cfg.radio = RadioParams(**radio_kw)
    except ValueError as exc:
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
    parser.add_argument("--format", action="append", choices=("csv", "json"),
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
    except (OSError, ValueError) as exc:
        print(f"wsnsim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
