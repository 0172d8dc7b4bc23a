import json
import shlex
from pathlib import Path

import numpy as np
import pytest

from bellbound import cli, npa
from bellbound.errors import SolverError


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestBound:
    def test_maximally_entangled(self, capsys):
        code, out, _ = run(capsys, "bound", "--state", "pure", "--theta", "0.7854")
        assert code == 0
        assert "6.928203" in out
        assert "violation        yes" in out

    def test_werner_half(self, capsys):
        code, out, _ = run(
            capsys, "bound", "--state", "werner", "--p", "0.5", "--json"
        )
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["tight_bound"] - 2 * np.sqrt(3)) < 1e-9
        assert payload["violated"] is False

    def test_product_state(self, capsys):
        code, out, _ = run(capsys, "bound", "--state", "pure", "--theta", "0")
        assert code == 0
        assert "4.000000" in out
        assert "violation        no" in out

    def test_bad_theta_exits_2(self, capsys):
        code, _, err = run(capsys, "bound", "--state", "pure", "--theta", "2.0")
        assert code == 2
        assert "configuration error" in err

    def test_state_file(self, capsys, tmp_path):
        from bellbound import singlet

        path = tmp_path / "state.json"
        path.write_text(singlet().to_json())
        code, out, _ = run(capsys, "bound", "--state-file", str(path), "--json")
        assert code == 0
        assert abs(json.loads(out)["tight_bound"] - 4 * np.sqrt(3)) < 1e-9


class TestMeasure:
    def test_singlet_tightness(self, capsys):
        code, out, _ = run(capsys, "measure", "--state", "singlet", "--json")
        assert code == 0
        payload = json.loads(out)
        assert payload["tightness"]["proportionality_ok"]
        assert payload["tightness"]["gram_sum_ok"]
        assert payload["tightness"]["alice_aligned"]
        assert abs(payload["tightness"]["gram_sum"] + 2.0) < 1e-8
        assert len(payload["strategy"]["bob"]) == 4

    def test_degenerate_state_exits_2(self, capsys):
        code, _, err = run(capsys, "measure", "--state", "werner", "--p", "0")
        assert code == 2


class TestClassicalAndTsirelson:
    def test_chained3(self, capsys):
        code, out, _ = run(capsys, "classical", "--expr", "chained", "--n", "3")
        assert code == 0
        assert "4.000000" in out

    def test_ebi_level_one(self, capsys):
        code, out, _ = run(capsys, "tsirelson", "--expr", "ebi", "--level", "1")
        assert code == 0
        assert "6.92820" in out


class TestGramDemo:
    def test_values(self, capsys):
        code, out, _ = run(capsys, "gram-demo")
        assert code == 0
        assert "primal optimum   -2.000000" in out
        assert "dual optimum     -2.000000" in out
        assert "-0.500000 -0.500000 -0.500000 -0.500000" in out

    def test_json(self, capsys):
        code, out, _ = run(capsys, "gram-demo", "--json")
        payload = json.loads(out)
        assert code == 0 and payload["ok"]
        assert payload["certificate_min_eigenvalue"] >= -1e-9


class TestRandomness:
    def test_no_violation_curve(self, capsys, tmp_path):
        out_file = tmp_path / "curve.csv"
        code, out, _ = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "ebi",
            "--grid", "0:0.5:5", "--out", str(out_file),
        )
        assert code == 0
        lines = out_file.read_text().strip().split("\n")
        assert lines[0] == "param,bell_value,guessing_probability,min_entropy_bits"
        assert len(lines) == 6
        for line in lines[1:]:
            fields = line.split(",")
            assert float(fields[2]) == 1.0 and float(fields[3]) == 0.0

    def test_deterministic_output(self, capsys, tmp_path):
        args = [
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0.9:1:3", "--seed", "7",
        ]
        first = tmp_path / "a.csv"
        second = tmp_path / "b.csv"
        assert run(capsys, *args, "--out", str(first))[0] == 0
        assert run(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()

    def test_entropy_matches_probability_column(self, capsys, tmp_path):
        out_file = tmp_path / "c.csv"
        code, _, _ = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0.9:1:3", "--out", str(out_file),
        )
        assert code == 0
        # 12 significant digits cap the representable identity error at
        # half an ulp of the entropy column (~5e-12 for entropies above 1).
        for line in out_file.read_text().strip().split("\n")[1:]:
            fields = [float(v) for v in line.split(",")]
            assert abs(fields[3] + np.log2(fields[2])) <= 6e-12

    def test_first_failure_stops_the_sweep(self, capsys, tmp_path, monkeypatch):
        calls = []

        def boom(*args, **kwargs):
            calls.append(args)
            raise SolverError("synthetic failure")

        monkeypatch.setattr(npa, "min_entropy_curve", boom)
        out_file = tmp_path / "e.csv"
        code, _, _ = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0.9:1:5", "--out", str(out_file),
        )
        assert code == 3
        assert len(calls) == 1
        assert out_file.read_text() == npa.CURVE_CSV_HEADER + "\n# truncated\n"

    def test_compare_failure_exits_3(self, capsys, tmp_path, monkeypatch):
        original = npa.min_entropy_curve

        def fail_chsh(family, grid, expr, *args):
            if expr.name == "chsh":
                raise SolverError("synthetic failure")
            return original(family, grid, expr, *args)

        monkeypatch.setattr(npa, "min_entropy_curve", fail_chsh)
        code, out, err = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "ebi", "--level", "1",
            "--grid", "0.95:1:2", "--out", str(tmp_path / "f.csv"),
            "--compare", "chsh",
        )
        assert code == 3
        assert "max entropy" in out and "crossover" not in out
        assert "numerical failure: synthetic failure" in err

    def test_solver_failure_truncates(self, capsys, tmp_path, monkeypatch):
        def boom(*args, **kwargs):
            raise SolverError("synthetic failure")

        monkeypatch.setattr(npa, "min_entropy_curve", boom)
        out_file = tmp_path / "d.csv"
        code, _, err = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0.9:1:3", "--out", str(out_file),
        )
        assert code == 3
        assert out_file.read_text().strip().endswith("# truncated")
        assert "solver failure" in err

    def test_grid_outside_domain_exits_2(self, capsys):
        code, _, err = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0:2:5",
        )
        assert code == 2

    def test_out_of_range_pair_exits_2(self, capsys, monkeypatch):
        # No grid point violates, so no guessing SDP would see the pair; the
        # pair is rejected before the Tsirelson solve, even on a cold cache.
        def no_solve(*args, **kwargs):
            raise AssertionError("an SDP was solved for a bad input pair")

        monkeypatch.setattr(npa, "_tsirelson_cache", {})
        monkeypatch.setattr(npa, "solve", no_solve)
        code, out, err = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0:0.5:3", "--pair", "9,9",
        )
        assert code == 2
        assert out == ""
        assert "input pair (9, 9)" in err

    def test_thread_env_override(self, capsys, tmp_path, monkeypatch):
        # Sweeps have no thread knobs: --threads is unknown and
        # BELLBOUND_THREADS is ignored.
        args = ["randomness", "--family", "werner", "--expr", "chsh",
                "--grid", "0.95:1:2"]
        with pytest.raises(SystemExit) as exc:
            cli.main([*args, "--threads", "2"])
        assert exc.value.code == 2
        plain, env = tmp_path / "plain.csv", tmp_path / "env.csv"
        assert run(capsys, *args, "--out", str(plain))[0] == 0
        monkeypatch.setenv("BELLBOUND_THREADS", "2")
        assert run(capsys, *args, "--out", str(env))[0] == 0
        assert env.read_bytes() == plain.read_bytes()
        assert len(plain.read_text().strip().split("\n")) == 3

    def test_json_summary(self, capsys, tmp_path):
        args = ["randomness", "--family", "werner", "--expr", "ebi", "--level", "1",
                "--grid", "0.95:1:3", "--compare", "chsh"]
        plain_csv, json_csv = tmp_path / "plain.csv", tmp_path / "json.csv"
        code, plain, _ = run(capsys, *args, "--out", str(plain_csv))
        assert code == 0
        code, out, _ = run(capsys, *args, "--out", str(json_csv), "--json")
        assert code == 0
        assert json_csv.read_bytes() == plain_csv.read_bytes()
        payload = json.loads(out)
        assert set(payload) == {"max_entropy_bits", "argmax_param", "crossover"}
        words = plain.split("\n")[0].split()  # max entropy E bits at param P
        entropy, param = words[2], words[-1]
        assert abs(payload["max_entropy_bits"] - float(entropy)) <= 5e-7
        assert abs(payload["argmax_param"] - float(param)) <= 5e-7
        crossover = plain.split("\n")[1].rsplit(" ", 1)[1]
        assert abs(payload["crossover"] - float(crossover)) <= 5e-7

    def test_json_summary_without_crossover(self, capsys, tmp_path):
        code, out, _ = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0:0.5:2", "--out", str(tmp_path / "g.csv"), "--json",
        )
        assert code == 0
        assert json.loads(out) == {
            "max_entropy_bits": 0.0, "argmax_param": 0.0, "crossover": None
        }

    def test_seed_is_a_randomness_option(self, capsys):
        parser = cli.build_parser()
        assert parser.parse_args(["randomness", "--seed", "3"]).seed == 3
        for command in (["bound", "--state", "singlet"], ["gram-demo"],
                        ["classical", "--expr", "chsh"]):
            with pytest.raises(SystemExit) as exc:
                cli.main([*command, "--seed", "3"])
            assert exc.value.code == 2

    def test_missing_grid_exits_2(self, capsys):
        code, _, _ = run(capsys, "randomness", "--family", "werner", "--expr", "chsh")
        assert code == 2

    def test_compare_reports_crossover(self, capsys, tmp_path):
        out_file = tmp_path / "cmp.csv"
        code, out, _ = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "ebi",
            "--grid", "0.95:1:3", "--out", str(out_file), "--compare", "chsh",
        )
        assert code == 0
        assert "crossover vs chsh" in out
        assert "max entropy" in out


class TestConfigFile:
    def test_config_supplies_defaults(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"state": "werner", "p": 0.5, "json": True}))
        code, out, _ = run(capsys, "--config", str(config), "bound")
        assert code == 0
        payload = json.loads(out)
        assert abs(payload["tight_bound"] - 2 * np.sqrt(3)) < 1e-9

    def test_cli_overrides_config(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"state": "werner", "p": 0.5}))
        code, out, _ = run(
            capsys, "--config", str(config), "bound", "--p", "1.0", "--json"
        )
        assert code == 0
        assert abs(json.loads(out)["tight_bound"] - 4 * np.sqrt(3)) < 1e-9

    def test_config_lists_match_flags(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps(
            {"grid": [0.95, 1, 2], "pair": [0, 0], "level": "1", "json": True, "seed": 7}
        ))
        command = ["randomness", "--family", "werner", "--expr", "chsh"]
        from_config, from_flags = tmp_path / "config.csv", tmp_path / "flags.csv"
        assert run(capsys, "--config", str(config), *command,
                   "--out", str(from_config))[0] == 0
        assert run(capsys, *command, "--grid", "0.95:1:2", "--pair", "0,0",
                   "--level", "1", "--json", "--seed", "7",
                   "--out", str(from_flags))[0] == 0
        assert from_config.read_bytes() == from_flags.read_bytes()

    def test_flag_overrides_config_list(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": [0.9, 1, 5], "level": 1}))
        command = ["randomness", "--family", "werner", "--expr", "chsh",
                   "--grid", "0.95:1:2"]
        overridden, plain = tmp_path / "overridden.csv", tmp_path / "plain.csv"
        assert run(capsys, "--config", str(config), *command,
                   "--out", str(overridden))[0] == 0
        assert run(capsys, *command, "--level", "1", "--out", str(plain))[0] == 0
        assert overridden.read_bytes() == plain.read_bytes()
        assert len(plain.read_text().strip().split("\n")) == 3

    def test_config_values_are_parsed_like_flags(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"grid": "0.9:oops"}))
        with pytest.raises(SystemExit) as exc:
            cli.main(["--config", str(config), "randomness", "--family", "werner",
                      "--expr", "chsh"])
        assert exc.value.code == 2
        config.write_text(json.dumps({"expr": "chained", "n": "4", "json": True}))
        code, out, _ = run(capsys, "--config", str(config), "classical")
        assert code == 0
        assert json.loads(out) == {"classical_bound": 6.0}

    def test_unknown_config_keys_exit_2(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"sede": 3, "jsn": True}))
        code, out, err = run(capsys, "--config", str(config), "bound", "--state", "singlet")
        assert code == 2 and out == ""
        assert "configuration error: unknown option(s) in config: jsn, sede" in err

    def test_keys_of_other_subcommands_are_kept(self, capsys, tmp_path):
        config = tmp_path / "config.json"
        config.write_text(json.dumps({"state": "singlet", "seed": 3, "grid": "0.9:1:2",
                                      "level": "1", "json": True}))
        code, out, _ = run(capsys, "--config", str(config), "bound")
        assert code == 0
        assert abs(json.loads(out)["tight_bound"] - 4 * np.sqrt(3)) < 1e-9

    def test_missing_config_exits_2(self, capsys):
        code, _, _ = run(capsys, "--config", "/nonexistent.json", "gram-demo")
        assert code == 2


class TestReadme:
    def test_command_line_examples_parse(self):
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Command line", 1)[1].split("```bash\n", 1)[1]
        block = block.split("```", 1)[0].replace("\\\n", " ")
        commands = [shlex.split(line, comments=True) for line in block.splitlines()]
        commands = [words for words in commands if words]
        assert len(commands) >= 8
        parser = cli.build_parser()
        for words in commands:
            assert words[0] == "bellbound"
            parser.parse_args(words[1:])


class TestArgumentErrors:
    def test_unknown_command(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["frobnicate"])
        assert exc.value.code == 2

    def test_bad_grid_spec(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["randomness", "--family", "werner", "--expr", "chsh",
                      "--grid", "oops"])
        assert exc.value.code == 2
