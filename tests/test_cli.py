import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from wsnsim import algorithm_names
from wsnsim.cli import (_SCALAR_KEYS, EXIT_CONFIG, EXIT_OK, EXIT_RUNTIME, ConfigError, _build,
                        _config_lines, _unique, main)

# Settings that pass the per-field checks but whose arithmetic leaves the float
# range, each with its exit code and the part of its one-line error that names
# the settings. The crossover (by RadioParams) and the field diagonal (of the
# side and the radio) are checked when the config is read, so they exit 1 and
# name the line; the kappa check depends on the deployment, so it runs per run
# and exits 2 (runtime error).
OUT_OF_RANGE = {
    # the diagonal's d^2 * d^2 overflows
    "side = 1e100": (EXIT_CONFIG, "line 1: key 'side': side_m"),
    # the diagonal's d^2 underflows to 0
    "side = 1e-200\nbs_x = 0": (EXIT_CONFIG, "line 1: key 'side': side_m"),
    # the crossover d^2 overflows
    "fs_amp = 1e100\nmp_amp = 1e-300": (EXIT_CONFIG, "fs_amp / mp_amp"),
    # d^2 is finite, d^2 * d^2 is not
    "side = 1e80": (EXIT_CONFIG, "line 1: key 'side': side_m"),
    # d_opt^2 underflows
    "side = 1e-155": (EXIT_RUNTIME, "kappa of side_m, node_count, fs_amp and mp_amp"),
    # every node's d^2 to a corner BS underflows to 0, so their mean distance is 0
    "side = 1.2e-162\nnodes = 2\nbs_x = 0\nbs_y = 0":
        (EXIT_RUNTIME, "kappa of side_m, node_count, fs_amp and mp_amp"),
    # a packet's aggregation is finite, a head's table for all 100 nodes is not
    "packet_bits = 10\naggregation_energy_per_bit = 1e306":
        (EXIT_CONFIG, "line 1: key 'packet_bits': node_count * packet_bits"),
}
ERROR_PREFIX = {EXIT_RUNTIME: "wsnsim: error: ", EXIT_CONFIG: "wsnsim: configuration error: "}


def parse_config(path):
    return _build(_config_lines(path))


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
        # No float holds it; the node ceiling alone rejects it.
        with pytest.raises(ConfigError, match="^line 1: key 'nodes': node_count must be at most"):
            parse_config(write_cfg(tmp_path, f"nodes = {10 ** 400}\n"))

    def test_readme_lists_every_config_key(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        sentence = re.search(r"Keys: (.*?)\.\s", readme, re.S).group(1)
        assert re.findall(r"`(\w+)`", sentence) == \
            list(_SCALAR_KEYS) + ["algorithms", "seeds", "output_dir", "formats"]

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="no-such"):
            parse_config(tmp_path / "no-such.cfg")

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path):
        path = tmp_path / "bom.cfg"
        path.write_text("nodes = 10\nseeds = 4\n", encoding="utf-8-sig")
        assert path.read_bytes().startswith(b"\xef\xbb\xbfnodes")
        cfg = parse_config(path)
        assert cfg.field.node_count == 10 and cfg.seeds == [4]

    def test_first_repeat_is_named(self):
        assert _unique([3, 1, 2]) == [3, 1, 2]
        with pytest.raises(ValueError, match="^1 given more than once$"):
            _unique([3, 1, 2, 1, 3])

    def test_repeat_check_is_linear(self):
        calls = []

        class Probe:
            def __init__(self, key):
                self.key = key

            def __hash__(self):
                return hash(self.key)

            def __eq__(self, other):
                calls.append(1)
                return self.key == other.key

            def __repr__(self):
                return f"Probe({self.key})"

        probes = [Probe(k) for k in range(2000)] + [Probe(7)]
        with pytest.raises(ValueError, match=r"^Probe\(7\) given more than once$"):
            _unique(probes)
        assert len(calls) < 10 * len(probes)

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
        ("", ["--seed", "x"], "--seed: cannot parse 'x' as a number"),
        ("", ["--rounds", "x"], "--rounds: cannot parse 'x' as a number"),
        ("", ["--format", "xml"], "--format: unknown format(s) ['xml']"),
        ("", ["--algorithm", "nope"], "--algorithm: unknown algorithm 'nope'; known: leach,"),
        ("", ["--seed", "-2"], "--seed: seeds must be an integer >= 0, got -2"),
        ("", ["--rounds", "-1"], "--rounds: max_rounds must be an integer >= 0, got -1"),
        ("seeds = 3, -3\n", [], "line 2: key 'seeds': seeds must be an integer >= 0, got -3"),
        ("formats =\n", [], "line 2: key 'formats': formats must be non-empty"),
        ("", ["--format", ""], "--format: formats must be non-empty"),
        ("nodes = 10\nmax_rounds = 5\np = 1.5\n", [],
         "line 4: key 'p': base_probability must be in (0, 1], got 1.5"),
        ("bs_y = -1\n", [], "line 2: key 'bs_y': bs_position y must be in [0, side_m = 100.0]"),
        ("mp_amp = 1e-320\n", [],   # fs_amp keeps its default: the message names mp_amp's line
         "line 2: key 'mp_amp': fs_amp / mp_amp must be finite, got inf"),
        ("fs_amp = 1e100\nmp_amp = 1e-300\n", [],   # the crossover d^2 overflows
         "line 2: key 'fs_amp': fs_amp / mp_amp must be finite, got inf"),
        # a number of the wrong kind gets the library's message
        ("nodes = 1.5\n", [], "line 2: key 'nodes': node_count must be an integer >= 1, got 1.5"),
        ("packet_bits = 4e3\n", [],
         "line 2: key 'packet_bits': packet_bits must be an integer >= 1, got 4000.0"),
        ("", ["--seed", "1.0"], "--seed: seeds must be an integer >= 0, got 1.0"),
    ], ids=["seed-x", "rounds-x", "format-xml", "algorithm-nope", "seed-negative",
            "rounds-negative", "seeds-negative", "formats-empty", "format-empty", "p", "bs_y",
            "mp_amp", "fs_amp-over-mp_amp", "nodes-float", "packet_bits-float", "seed-float"])
    def test_bad_value_is_config_error_naming_its_origin(self, capsys, tmp_path, text, argv,
                                                         message):
        cfg = write_cfg(tmp_path, f"algorithms = leach\n{text}")
        rc = main(["--config", str(cfg), *argv, "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"wsnsim: configuration error: {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("line, twin", [("side = 100", "side = 100.0"),
                                            ("bs_x = 10", "bs_x = 10.0"),
                                            ("p = 1", "p = 1.0"),
                                            ("bs_x = -0", "bs_x = 0.0"),
                                            ("bs_x = -0.0", "bs_x = 0")])
    def test_equal_values_write_equal_bytes(self, tmp_path, line, twin):
        outputs = []
        for name, text in (("a", line), ("b", twin)):
            cfg = write_cfg(tmp_path, f"nodes = 20\nmax_rounds = 5\n{text}\n", f"{name}.cfg")
            self.run_ok(["--config", str(cfg), "--algorithm", "leach",
                         "--output-dir", str(tmp_path / name)])
            outputs.append({p.relative_to(tmp_path / name): p.read_bytes()
                            for p in sorted((tmp_path / name).rglob("*")) if p.is_file()})
        assert len(outputs[0]) == 2 and outputs[0] == outputs[1]

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

    @pytest.mark.parametrize("text", list(OUT_OF_RANGE))
    def test_float_overflow_is_one_line_runtime_error(self, capsys, tmp_path, text):
        cfg = write_cfg(tmp_path, f"{text}\nalgorithms = leach\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == OUT_OF_RANGE[text][0]
        err = capsys.readouterr().err
        assert err.startswith(ERROR_PREFIX[rc]) and err.count("\n") == 1

    @pytest.mark.parametrize("text", list(OUT_OF_RANGE))
    def test_float_range_error_names_the_settings(self, capsys, tmp_path, text):
        cfg = write_cfg(tmp_path, f"{text}\nalgorithms = leach\n")
        main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert OUT_OF_RANGE[text][1] in capsys.readouterr().err

    @pytest.mark.parametrize("key, value, message", [
        ("nodes", 10 ** 400, "node_count must be at most 16777215"),
        # it scales each per-bit constant, so it passes the real rule too
        ("packet_bits", 10 ** 400, "packet_bits must be finite"),
        # a packet's electronics cost, which no distance enters, overflows
        ("elec_energy_per_bit", 1e308, "elec_energy_per_bit * packet_bits must be finite"),
        # a float holds it, but one getrandbits call cannot draw its 2 * N positions
        ("nodes", 10 ** 20, "node_count must be at most"),
        # a packet's aggregation cost, which every head pays per member
        ("aggregation_energy_per_bit", 1e308,
         "aggregation_energy_per_bit * packet_bits must be finite"),
        # a packet's free-space cost, which the crossover check would blame on side
        ("fs_amp", 1.7e308, "fs_amp * packet_bits must be finite"),
    ], ids=["nodes", "packet_bits", "elec_energy_per_bit", "nodes-index",
            "aggregation_energy_per_bit", "fs_amp"])
    def test_value_beyond_float_range_names_its_line(self, capsys, tmp_path, key, value,
                                                     message):
        cfg = write_cfg(tmp_path, f"{key} = {value}\nalgorithms = leach\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"wsnsim: configuration error: line 1: key '{key}': {message}")
        assert err.count("\n") == 1
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("key, value", [
        ("elec_energy_per_bit", 1e308), ("fs_amp", 1.7e308), ("mp_amp", 1.7e308),
        ("aggregation_energy_per_bit", 1e308)])
    def test_constant_times_packet_bits_names_the_constants_line(self, capsys, tmp_path,
                                                                 key, value):
        # packet_bits is set too, on an earlier line; the constant's line is named.
        cfg = write_cfg(tmp_path, f"packet_bits = 4000\n{key} = {value}\nalgorithms = leach\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == (f"wsnsim: configuration error: line 2: key '{key}': "
                                           f"{key} * packet_bits must be finite, got inf\n")

    def test_node_count_beyond_one_draw_call_names_its_line(self, capsys, tmp_path):
        # 2 * 2**24 draws of 64 bits each exceed the C int bit count of one
        # getrandbits call; the field is rejected before it is deployed.
        cfg = write_cfg(tmp_path, "nodes = 16777216\nalgorithms = leach\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == ("wsnsim: configuration error: line 1: key 'nodes': "
                                           "node_count must be at most 16777215: its 2 * N "
                                           "position draws, of 64 bits each, come from one "
                                           "getrandbits call, whose bit count is a C int, "
                                           "got 16777216\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(not getattr(sys, "get_int_max_str_digits", int)(),
                        reason="this interpreter reads integers of any length")
    @pytest.mark.parametrize("key, extra, message", [
        *((key, 700, "cannot parse an integer of more than {limit} digits, the interpreter's"
                     " limit\n") for key in ("nodes", "seeds", "max_rounds", "packet_bits",
                                             "side")),
        ("nodes", 0, "node_count must be at most 16777215"),   # read, and the model decides
    ], ids=["nodes", "seeds", "max_rounds", "packet_bits", "side", "nodes-at-the-limit"])
    def test_integer_of_many_digits_names_its_line(self, capsys, tmp_path, key, extra,
                                                   message):
        # Past the limit int() refuses it: it is neither read as the float inf
        # nor echoed in full.
        limit = sys.get_int_max_str_digits()
        cfg = write_cfg(tmp_path, f"{key} = {'1' * (limit + extra)}\nalgorithms = leach\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"wsnsim: configuration error: line 1: key '{key}': "
                              + message.format(limit=limit))
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("text, argv, where", [
        ("output_dir =\n", [], "line 2: key 'output_dir'"),
        ("", ["--output-dir", ""], "--output-dir")], ids=["line", "flag"])
    def test_empty_output_dir_is_config_error(self, capsys, tmp_path, monkeypatch, text,
                                              argv, where):
        # Path("") is the working directory, which would take the outputs.
        monkeypatch.chdir(tmp_path)
        cfg = write_cfg(tmp_path, f"algorithms = leach\n{text}max_rounds = 2\n")
        rc = main(["--config", str(cfg), *argv])
        assert rc == EXIT_CONFIG
        assert capsys.readouterr().err == \
            f"wsnsim: configuration error: {where}: output_dir must be non-empty\n"
        assert [p.name for p in tmp_path.iterdir()] == ["run.cfg"]

    @pytest.mark.parametrize("text, where", [
        ("side = 1e-155\n", "line 1: key 'side'"),
        ("nodes = 100\nside = 1e-155\n", "line 2: key 'side'")])   # side_m is named first
    def test_run_time_kappa_error_names_its_line(self, capsys, tmp_path, text, where):
        cfg = write_cfg(tmp_path, f"{text}algorithms = leach\n")
        rc = main(["--config", str(cfg), "--output-dir", str(tmp_path / "out")])
        assert rc == EXIT_RUNTIME
        assert capsys.readouterr().err.startswith(
            f"wsnsim: error: {where}: kappa of side_m, node_count, fs_amp and mp_amp must be"
            " finite and positive, got inf\n")

    def test_io_error_is_not_located(self, capsys, tmp_path):
        # The path names side_m, which the config sets; an I/O error names no setting.
        blocker = tmp_path / "side_m"
        blocker.write_text("not a directory")
        cfg = write_cfg(tmp_path, "side = 90\nalgorithms = leach\nmax_rounds = 2\n")
        rc = main(["--config", str(cfg), "--output-dir", str(blocker)])
        assert rc == EXIT_RUNTIME
        err = capsys.readouterr().err
        assert err.startswith("wsnsim: error: ") and "line 1" not in err

    def test_unwritable_output_is_runtime_error(self, capsys, tmp_path):
        blocker = tmp_path / "occupied"
        blocker.write_text("not a directory")
        rc = main(["--algorithm", "leach", "--rounds", "5",
                   "--output-dir", str(blocker)])
        assert rc == EXIT_RUNTIME
        assert "error" in capsys.readouterr().err
