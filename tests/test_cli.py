import json
import os

import pytest

from halolab.cli import main
from halolab.errors import ContractViolation, ParseError
from halolab.experiment import load_config, run_experiment


def test_ball(capsys):
    assert main(["ball", "--group", "Z^2", "--radius", "2"]) == 0
    out = capsys.readouterr().out
    assert "radius 2: sphere 8, ball 13" in out


def test_ball_export(tmp_path, capsys):
    out = tmp_path / "ball.json"
    assert main(["ball", "--group", "Z", "--radius", "1", "--out", str(out)]) == 0
    data = json.loads(out.read_text())
    assert len(data) == 3


def test_profile_and_csv(tmp_path, capsys):
    out = tmp_path / "profile.csv"
    assert main(["profile", "--group", "Z", "--n-max", "4",
                 "--out", str(out)]) == 0
    text = capsys.readouterr().out
    assert "n=4 value=2 method=exact exact=True" in text
    raw = out.read_bytes()
    assert raw.startswith(b"n,value_num,value_den_or_float,method,exact,witness_size\r\n")


def test_folner(capsys):
    assert main(["folner", "--group", "Z", "--n-max", "6", "--target", "2"]) == 0
    assert "Folner(1/2) = 4" in capsys.readouterr().out


def test_growth(capsys):
    assert main(["growth", "--family", "cloner", "--params", "GF2",
                 "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "Lambda(3) = 168" in out


def test_lift(capsys):
    assert main(["lift", "--group", "shuffler(Z)", "--support", "0:0"]) == 0
    out = capsys.readouterr().out
    assert "|supp g| = 6" in out and "equal: True" in out


def test_decompose(capsys):
    assert main(["decompose", "--group", "shuffler(Z)", "--sites", "0;1;2",
                 "--seed", "4"]) == 0
    assert "round-trip ok: True" in capsys.readouterr().out


def test_net(capsys):
    assert main(["net", "--group", "Z", "--radius", "12", "--D", "1"]) == 0
    out = capsys.readouterr().out
    assert "separated (>= D+2 = 3): True" in out
    assert "maximal in interior: True" in out


def test_ystar(capsys):
    assert main(["ystar", "--group", "shuffler(Z)", "--radius", "3",
                 "--D", "1"]) == 0
    out = capsys.readouterr().out
    assert "24 vertices" in out
    assert "isomorphic to block-over-net lamplighter graph: True" in out


def test_embed(capsys):
    assert main(["embed", "--construction", "lamplighter", "--family",
                 "designer", "--params", "C2", "--base", "Z",
                 "--pairs", "100", "--check-radius", "3"]) == 0
    out = capsys.readouterr().out
    assert "homomorphism: pass" in out


def test_bounds(capsys):
    assert main(["bounds", "--family", "shuffler", "--x", "18"]) == 0
    assert "phi_inverse=3" in capsys.readouterr().out


def test_error_reporting(capsys):
    assert main(["ball", "--group", "upcloner(GF2, Z^2)", "--radius", "1"]) == 1
    assert "order required" in capsys.readouterr().err


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "Z", "n_max": 4, "method": "exact"}))
    out_dir = tmp_path / "arts"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "profile.csv").exists()
    assert (out_dir / "manifest.json").exists()


def test_run_experiment_reruns_byte_identical(tmp_path):
    cfg = {"group": "wreath(C2, Z)", "n_max": 5, "method": "anneal",
           "seed": 11, "bounds": ["x"], "plot": True}
    run_experiment(cfg, str(tmp_path / "a"))
    run_experiment(cfg, str(tmp_path / "b"))
    for name in os.listdir(tmp_path / "a"):
        assert (tmp_path / "a" / name).read_bytes() == \
            (tmp_path / "b" / name).read_bytes(), name


def test_run_experiment_budget_warning(tmp_path):
    manifest = run_experiment({"group": "Z^2", "n_max": 9, "method": "exact",
                               "budget": 50}, str(tmp_path / "o"))
    assert any("budget" in w for w in manifest["warnings"])


def test_run_experiment_schema_errors(tmp_path):
    cases = [
        ({"n_max": 4}, ContractViolation, "config field 'group'"),
        ({"group": "Z", "n_max": 4, "mehtod": "exact"}, ContractViolation,
         "config field 'mehtod'"),
        ({"group": "Z", "n_max": 4, "workers": 1}, ContractViolation,
         "config field 'workers': unknown"),
        ({"group": "Z^2", "n_max": 4, "method": "exact", "budget": 0},
         ContractViolation, "config field 'budget': must be >= 1"),
        ({"group": "Z", "n_max": 0, "method": "greedy"}, ContractViolation,
         "config field 'n_max': must be >= 1"),
        ({"group": "Zz", "n_max": 4}, ParseError, "position"),
        ({"group": "Z", "n_max": 4, "radius": -1}, ContractViolation,
         "radius must be >= 0"),
    ]
    for i, (config, error, message) in enumerate(cases):
        out = tmp_path / f"run{i}"
        with pytest.raises(error) as exc:
            run_experiment(config, str(out))
        assert message in str(exc.value)
        assert not out.exists(), f"rejected config {config} left {out} behind"


def test_load_config_key_value(tmp_path):
    p = tmp_path / "cfg.txt"
    p.write_text('group = "Z"\nn_max = 4\nmethod = "greedy"  # comment\n')
    assert load_config(str(p)) == {"group": "Z", "n_max": 4, "method": "greedy"}
