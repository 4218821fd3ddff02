"""Command-line entry point: config parsing, batch execution, output layout."""
from __future__ import annotations

import argparse
import sys
from dataclasses import dataclass, field as dc_field, fields
from pathlib import Path

from .model import FieldConfig, RadioParams, _require_int, check_range
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
    origins: dict[str, str] = dc_field(default_factory=dict)   # a field's name -> where set

    def locate(self, message: str) -> str:
        """message, led by where the first field it names was set: a cross-field
        check leads with the field it bounds, which may have kept its default."""
        named = [(message.find(name), where) for name, where in self.origins.items()
                 if name in message]
        return f"{min(named)[1]}: {message}" if named else message


def _number(raw: str) -> int | float:
    """raw as an int where int() reads it, else as a float: the model's rules
    then decide whether its setting takes that kind of number. An integer that
    int() refuses for its length is refused, not read as the float inf."""
    for kind in (int, float):
        try:
            value = kind(raw)
        except ValueError:
            continue
        if kind is float and raw.strip().lstrip("+-").replace("_", "").isdecimal():
            raise ValueError("cannot parse an integer of more than"
                             f" {sys.get_int_max_str_digits()} digits, the interpreter's limit")
        return value
    raise ValueError(f"cannot parse {raw!r} as a number")


def _unique(values: list) -> list:
    """values, unless one is repeated: a batch runs each (algorithm, seed) once."""
    first = {}
    for i, v in enumerate(values):
        if first.setdefault(v, i) != i:
            raise ValueError(f"{v!r} given more than once")
    return values


# Scalar config key -> the keyword it sets, or the BS axis, as messages name it.
_SCALAR_KEYS = {
    "side": "side_m", "nodes": "node_count", "p": "base_probability",
    "advanced_fraction": "advanced_fraction", "advanced_energy_factor": "advanced_energy_factor",
    "initial_energy": "initial_energy", "max_rounds": "max_rounds",
    "bs_x": "bs_position x", "bs_y": "bs_position y",
    "elec_energy_per_bit": "elec_energy_per_bit", "fs_amp": "fs_amp", "mp_amp": "mp_amp",
    "aggregation_energy_per_bit": "aggregation_energy_per_bit", "packet_bits": "packet_bits",
}
_RADIO = {f.name for f in fields(RadioParams)}

# Flag -> (the config key it overrides, argparse action, help); a list key's flag repeats.
_FLAGS = {
    "--algorithm": ("algorithms", "append", "algorithm name or comma list (repeatable)"),
    "--seed": ("seeds", "append", "seed >= 0 or comma list (repeatable)"),
    "--rounds": ("max_rounds", "store", "maximum number of rounds"),
    "--output-dir": ("output_dir", "store", "output directory"),
    "--format": ("formats", "append", f"{' or '.join(FORMATS)}, or comma list (repeatable)"),
}


def _config_lines(path: str | Path):
    """Yield (key, raw value, where) for each `key = value` line of a config file."""
    path = Path(path)
    try:
        text = path.read_text(encoding="utf-8-sig")   # a leading BOM is not part of a key
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from exc
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].split(";", 1)[0].strip()
        if not line or (line.startswith("[") and line.endswith("]")):
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {rawline!r}")
        key, _, raw = line.partition("=")
        key = key.strip().lower()
        yield key, raw.strip(), f"line {lineno}: key {key!r}"


def _build(settings) -> RunConfig:
    """Check (key, raw value, where) settings in order, later overriding; errors name where."""
    numbers: dict[str, int | float] = {}   # a keyword or BS axis -> its number
    cfg = RunConfig()
    for key, raw, where in settings:
        values = [v.strip() for v in raw.split(",") if v.strip()]   # a list key's items
        try:
            if name := _SCALAR_KEYS.get(key):
                numbers[name] = _number(raw)
                cfg.origins[name] = where
            elif key == "algorithms":
                cfg.algorithms = _unique([algorithm(v).name for v in values])
            elif key in ("seeds", "formats") and not values or key == "output_dir" and not raw:
                raise ValueError(f"{key} must be non-empty")   # "" would be the working dir
            elif key == "output_dir":
                cfg.output_dir = Path(raw)
            elif key == "seeds":
                cfg.seeds = _unique([_require_int("seeds", _number(v), 0) for v in values])
            elif key == "formats":
                cfg.formats = {v.lower() for v in values}
                if bad := cfg.formats.difference(FORMATS):
                    raise ValueError(f"unknown format(s) {sorted(bad)}")
            else:
                raise ValueError("unknown key")
        except ValueError as exc:
            raise ConfigError(f"{where}: {exc}") from None

    bs = tuple(numbers.pop(f"bs_position {axis}", None) for axis in "xy")
    radio = {name: numbers.pop(name) for name in _RADIO.intersection(numbers)}
    try:
        cfg.field = FieldConfig(bs_position=bs, **numbers)
        cfg.radio = RadioParams(**radio)
        check_range(cfg.field.side_m, cfg.field.node_count, cfg.radio)   # every charge
    except ValueError as exc:
        raise ConfigError(cfg.locate(str(exc))) from exc
    return cfg


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsnsim",
        description="Round-based LEACH/SEP clustering simulator")
    parser.add_argument("--config", help="config file path")
    for flag, (key, action, text) in _FLAGS.items():
        parser.add_argument(flag, dest=key, action=action, metavar=flag[2:].upper(),
                            help=f"{text}; overrides the config key {key!r}")
    parser.add_argument("--list-algorithms", action="store_true",
                        help="print the algorithm registry and exit")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    if args.list_algorithms:
        for name in algorithm_names():
            print(name)
        return EXIT_OK

    # Each given flag is a setting of its config key, after (so overriding) the file's.
    flags = [(key, ",".join(raw) if isinstance(raw, list) else raw, flag)
             for flag, (key, *_) in _FLAGS.items() if (raw := getattr(args, key)) is not None]
    try:
        lines = _config_lines(args.config) if args.config is not None else ()
        cfg = _build([*lines, *flags])
        if not cfg.algorithms:
            raise ConfigError("no algorithms selected; use --algorithm or the "
                              "'algorithms' config key (--list-algorithms to enumerate)")
    except ConfigError as exc:
        print(f"wsnsim: configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        summaries = []
        for spec in map(algorithm, cfg.algorithms):
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
    except OSError as exc:   # not located: its path may contain a field's name
        print(f"wsnsim: error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME
    except ValueError as exc:   # e.g. a run's kappa
        print(f"wsnsim: error: {cfg.locate(str(exc))}", file=sys.stderr)
        return EXIT_RUNTIME
    return EXIT_OK


def entrypoint() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    entrypoint()
