import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wsnsim import algorithm_names
from wsnsim.cli import (_SCALAR_KEYS, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, ConfigError, main,
                        parse_config)


def write_cfg(tmp_path, text, name="run.cfg"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestParseConfig:
    def test_empty_file_keeps_defaults(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, ""))
        assert cfg.field.node_count == 100
        assert cfg.field.side_m == 100.0
        assert cfg.field.bs_position == (50.0, 50.0)
        assert cfg.field.base_probability == 0.1
        assert cfg.radio.packet_bits == 4000
        assert cfg.seeds == [0]
        assert cfg.formats == {"csv", "json"}

    def test_full_config(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, """
            [field]
            side = 200        # metres
            nodes = 50
            p = 0.05
            advanced_fraction = 0.2
            advanced_energy_factor = 2.0
            initial_energy = 0.25
            max_rounds = 100
            bs_x = 10
            bs_y = 20
            [radio]
            packet_bits = 2000
            elec_energy_per_bit = 50e-9
            [run]
            algorithms = leach, sep-kef-1-2-p
            seeds = 1, 2, 3
            output_dir = results
            formats = json
        """))
        assert cfg.field.side_m == 200.0
        assert cfg.field.node_count == 50
        assert cfg.field.bs_position == (10.0, 20.0)
        assert cfg.field.max_rounds == 100
        assert cfg.radio.packet_bits == 2000
        assert cfg.algorithms == ["leach", "sep-kef-1-2-p"]
        assert cfg.seeds == [1, 2, 3]
        assert str(cfg.output_dir) == "results"
        assert cfg.formats == {"json"}

    def test_bs_defaults_to_centre_of_overridden_side(self, tmp_path):
        cfg = parse_config(write_cfg(tmp_path, "side = 60\nbs_x = 5\n"))
        assert cfg.field.bs_position == (5.0, 30.0)

    @pytest.mark.parametrize("side, centre", [(40, 20.0), (200, 100.0)])
    def test_bs_defaults_to_centre_of_configured_side(self, tmp_path, side, centre):
        cfg = parse_config(write_cfg(tmp_path, f"side = {side}\n"))
        assert cfg.field.bs_position == (centre, centre)

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = write_cfg(tmp_path, "nodes = 10\nbogus = 3\n")
        with pytest.raises(ConfigError, match=r"line 2.*bogus"):
            parse_config(path)

    def test_unparsable_value_names_key_and_line(self, tmp_path):
        path = write_cfg(tmp_path, "\nnodes = many\n")
        with pytest.raises(ConfigError, match=r"line 2.*nodes.*many"):
            parse_config(path)

    def test_unknown_algorithm_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "algorithms = leach, leech\n")
        with pytest.raises(ConfigError, match="leech"):
            parse_config(path)

    def test_out_of_range_value_rejected(self, tmp_path):
        path = write_cfg(tmp_path, "p = 1.5\n")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_node_count_beyond_float_range_rejected(self, tmp_path):
        # The total-energy check cannot convert it to a float.
        with pytest.raises(ConfigError, match="too large"):
            parse_config(write_cfg(tmp_path, f"nodes = {10 ** 400}\n"))

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"Keys: (.*?)\.\s", readme, re.S).group(1)
        assert re.findall(r"`(\w+)`", sentence) == \
            list(_SCALAR_KEYS) + ["algorithms", "seeds", "output_dir", "formats"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no-such"):
            parse_config(tmp_path / "no-such.cfg")

    def test_line_without_equals(self, tmp_path):
        path = write_cfg(tmp_path, "just words\n")
        with pytest.raises(ConfigError, match="line 1"):
            parse_config(path)


class TestMain:
    def run_ok(self, argv):
        rc = main(argv)
        assert rc == EXIT_OK
        return rc

    def test_list_algorithms(self, capsys):
        assert main(["--list-algorithms"]) == EXIT_OK
        printed = capsys.readouterr().out.split()
        assert sorted(printed) == sorted(algorithm_names())
        assert len(printed) == 18

    def test_no_algorithm_is_config_error(self, capsys, tmp_path):
        assert main(["--output-dir", str(tmp_path)]) == EXIT_CONFIG
        assert "configuration error" in capsys.readouterr().err

    def test_unknown_algorithm_flag(self, capsys, tmp_path):
        rc = main(["--algorithm", "nope", "--output-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG
        assert "nope" in capsys.readouterr().err

    @pytest.mark.parametrize("line, name", [("initial_energy = nan", "initial_energy"),
                                            ("side = inf", "side_m"),
                                            ("bs_x = nan", "bs_position x")])
    def test_non_finite_config_value_is_config_error(self, capsys, tmp_path, line, name):
        cfg = write_cfg(tmp_path, f"{line}\nalgorithms = leach\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{name} must be finite" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv, key, value", [
        (["--algorithm", "leach", "--algorithm", "LEACH"], "--algorithm", "'leach'"),
        (["--algorithm", "leach", "--seed", "1", "--seed", "1"], "--seed", "1")])
    def test_repeated_flag_value_is_config_error(self, capsys, tmp_path, argv, key, value):
        rc = main(argv + ["--rounds", "1", "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert "configuration error" in err and f"{key}: {value} given more than once" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, value", [("algorithms = sep, leach, sep", "'sep'"),
                                             ("seeds = 1, 2, 1", "1")])
    def test_repeated_config_value_is_config_error(self, capsys, tmp_path, line, value):
        cfg = write_cfg(tmp_path, f"algorithms = leach\n{line}\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        key = line.split()[0]
        err = capsys.readouterr().err
        assert f"line 2: key '{key}': {value} given more than once" in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, argv, message", [
        ("", ["--seed", "x"], "--seed: cannot parse 'x' as an integer"),
        ("", ["--rounds", "x"], "--rounds: cannot parse 'x' as an integer"),
        ("", ["--format", "xml"], "--format: unknown format(s) ['xml']"),
        ("", ["--algorithm", "nope"], "--algorithm: unknown algorithm 'nope'; known: leach,"),
        ("", ["--seed", "-2"], "--seed: seeds must be integers >= 0, got -2"),
        ("", ["--rounds", "-1"], "--rounds: max_rounds must be an integer >= 0, got -1"),
        ("seeds = 3, -3\n", [], "line 2: key 'seeds': seeds must be integers >= 0, got -3"),
        ("formats =\n", [], "line 2: key 'formats': formats must be non-empty"),
        ("", ["--format", ""], "--format: formats must be non-empty"),
        ("nodes = 10\nmax_rounds = 5\np = 1.5\n", [],
         "line 4: key 'p': base_probability must be in (0, 1], got 1.5"),
        ("bs_y = -1\n", [], "line 2: key 'bs_y': bs_position y must be in [0, side_m = 100.0]"),
        ("mp_amp = 1\n", [],   # fs_amp keeps its default: the message names mp_amp's line
         "line 2: key 'mp_amp': fs_amp must be greater than mp_amp (1.0), got 1e-11"),
    ], ids=["seed-x", "rounds-x", "format-xml", "algorithm-nope", "seed-negative",
            "rounds-negative", "seeds-negative", "formats-empty", "format-empty", "p", "bs_y",
            "mp_amp"])
    def test_bad_value_is_config_error_naming_its_origin(self, capsys, tmp_path, text, argv,
                                                         message):
        cfg = write_cfg(tmp_path, f"algorithms = leach\n{text}")
        rc = main(["--config", str(cfg), *argv, "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"wsnsim: configuration error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    def test_flag_values_are_comma_lists_in_any_case(self, tmp_path):
        out = tmp_path / "out"
        self.run_ok(["--algorithm", "LEACH", "--seed", "1,2", "--format", "CSV",
                     "--rounds", "5", "--output-dir", str(out)])
        assert sorted(p.name for p in (out / "leach").iterdir()) == ["seed-1.csv", "seed-2.csv"]
        assert not (out / "summary.json").exists()

    @pytest.mark.parametrize("module", ["wsnsim", "wsnsim.cli"])
    def test_module_entry_point(self, module):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")]))}
        out = subprocess.run([sys.executable, "-m", module, "--list-algorithms"],
                             env=env, capture_output=True, text=True, timeout=60)
        assert out.returncode == EXIT_OK
        assert out.stdout.split() == algorithm_names()

    def test_outputs_independent_of_hash_seed(self, tmp_path):
        # A set or dict iterated in hash order anywhere on the output path
        # would make the bytes depend on the interpreter's string hashing.
        cfg = write_cfg(tmp_path, "nodes = 40\ninitial_energy = 0.02\nmax_rounds = 150\n"
                                  "algorithms = leach, sep-kep, leach-kef-1-2-p, "
                                  "sep-kef-1-1-p-learning\nseeds = 1, 2\n")
        src = str(Path(__file__).resolve().parents[1] / "src")
        outputs = []
        for hash_seed in ("0", "4242"):
            out = tmp_path / f"hash-{hash_seed}"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed, "PYTHONPATH": os.pathsep.join(
                filter(None, [src, os.environ.get("PYTHONPATH")]))}
            run = subprocess.run([sys.executable, "-m", "wsnsim", "--config", str(cfg),
                                  "--output-dir", str(out)],
                                 env=env, capture_output=True, text=True, timeout=120)
            assert run.returncode == EXIT_OK, run.stderr
            outputs.append({p.relative_to(out): p.read_bytes()
                            for p in sorted(out.rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 4 * 2 + 1   # a CSV per run, and summary.json
        assert outputs[0] == outputs[1]

    def test_negative_rounds_rejected(self, tmp_path):
        rc = main(["--algorithm", "leach", "--rounds", "-1",
                   "--output-dir", str(tmp_path)])
        assert rc == EXIT_CONFIG

    def test_end_to_end_outputs(self, tmp_path):
        out = tmp_path / "out"
        self.run_ok(["--algorithm", "leach", "--algorithm", "sep",
                     "--seed", "1", "--seed", "2", "--rounds", "40",
                     "--output-dir", str(out)])
        for algo in ("leach", "sep"):
            for seed in (1, 2):
                csv = out / algo / f"seed-{seed}.csv"
                assert csv.exists()
                lines = csv.read_text().splitlines()
                assert len(lines) == 41  # header + 40 rounds
        data = json.loads((out / "summary.json").read_text())
        assert len(data) == 4
        assert {(e["algorithm"], e["seed"]) for e in data} == \
            {("leach", 1), ("leach", 2), ("sep", 1), ("sep", 2)}

    def test_rerun_byte_identical(self, tmp_path):
        args = ["--algorithm", "leach-kef-1-1-p", "--seed", "7",
                "--rounds", "60"]
        out1, out2 = tmp_path / "a", tmp_path / "b"
        self.run_ok(args + ["--output-dir", str(out1)])
        self.run_ok(args + ["--output-dir", str(out2)])
        csv1 = (out1 / "leach-kef-1-1-p" / "seed-7.csv").read_bytes()
        csv2 = (out2 / "leach-kef-1-1-p" / "seed-7.csv").read_bytes()
        assert csv1 == csv2
        assert (out1 / "summary.json").read_bytes() == \
            (out2 / "summary.json").read_bytes()

    def test_format_json_only_skips_csv(self, tmp_path):
        out = tmp_path / "out"
        self.run_ok(["--algorithm", "leach", "--rounds", "10",
                     "--format", "json", "--output-dir", str(out)])
        assert (out / "summary.json").exists()
        assert not (out / "leach").exists()

    def test_flags_override_config(self, tmp_path):
        cfg = write_cfg(tmp_path, "algorithms = sep\nseeds = 9\nmax_rounds = 15\n")
        out = tmp_path / "out"
        self.run_ok(["--config", str(cfg), "--algorithm", "leach",
                     "--seed", "3", "--output-dir", str(out)])
        assert (out / "leach" / "seed-3.csv").exists()
        assert not (out / "sep").exists()
        # max_rounds from the config file still applies (not overridden)
        lines = (out / "leach" / "seed-3.csv").read_text().splitlines()
        assert len(lines) == 16

    @pytest.mark.parametrize("text", ["side = 1e100",                  # OverflowError in pow
                                      "side = 1e-200\nbs_x = 0",       # ZeroDivisionError
                                      "fs_amp = 1e100\nmp_amp = 1e-300"])
    def test_float_overflow_is_one_line_runtime_error(self, capsys, tmp_path, text):
        cfg = write_cfg(tmp_path, f"{text}\nalgorithms = leach\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("wsnsim: error: ") and err.count("\n") == 1

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        rc = main(["--algorithm", "leach", "--rounds", "5",
                   "--output-dir", str(blocker)])
        assert rc == EXIT_RUNTIME
        assert "error" in capsys.readouterr().err
