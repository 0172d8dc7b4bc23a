import json

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
        pooled = tmp_path / "pooled.csv"
        assert run(capsys, *args, "--out", str(first))[0] == 0
        assert run(capsys, *args, "--out", str(second))[0] == 0
        assert first.read_bytes() == second.read_bytes()
        # Points computed two at a time give the serial default's bytes.
        assert run(capsys, *args, "--threads", "2", "--out", str(pooled))[0] == 0
        assert pooled.read_bytes() == first.read_bytes()

    def test_entropy_matches_probability_column(self, capsys, tmp_path):
        out_file = tmp_path / "c.csv"
        code, _, _ = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0.9:1:3", "--out", str(out_file), "--threads", "2",
        )
        assert code == 0
        # 12 significant digits cap the representable identity error at
        # half an ulp of the entropy column (~5e-12 for entropies above 1).
        for line in out_file.read_text().strip().split("\n")[1:]:
            fields = [float(v) for v in line.split(",")]
            assert abs(fields[3] + np.log2(fields[2])) <= 6e-12

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

    def test_thread_env_override(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("BELLBOUND_THREADS", "2")
        out_file = tmp_path / "env.csv"
        code, _, _ = run(
            capsys,
            "randomness", "--family", "werner", "--expr", "chsh",
            "--grid", "0.95:1:2", "--out", str(out_file),
        )
        assert code == 0
        assert len(out_file.read_text().strip().split("\n")) == 3

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

    def test_missing_config_exits_2(self, capsys):
        code, _, _ = run(capsys, "--config", "/nonexistent.json", "gram-demo")
        assert code == 2


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
