import json
import os
import pathlib
import subprocess
import sys

import pytest

import halolab
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


def test_folner_labels_a_truncated_search_an_upper_bound(capsys):
    """Radius 1 cuts the search short, so profile marks every point
    exact=False; the exact method's answer is then only an upper bound."""
    assert main(["folner", "--group", "Z", "--n-max", "6", "--radius", "1",
                 "--target", "1"]) == 0
    assert capsys.readouterr().out == "Folner(1/1) = 2 (upper bound within searched range)\n"


def test_growth(capsys):
    assert main(["growth", "--family", "cloner", "--params", "GF2",
                 "--n-max", "3"]) == 0
    out = capsys.readouterr().out
    assert "Lambda(3) = 168" in out


def test_lift(capsys):
    assert main(["lift", "--group", "shuffler(Z)", "--support", "0:0"]) == 0
    out = capsys.readouterr().out
    assert "|supp g| = 6" in out and "equal: True" in out


@pytest.mark.parametrize("group, base", [("shuffler(Z^2)", "Z^2"),
                                         ("wreath(C2, H3)", "H3")])
def test_lift_needs_a_base_of_z(group, base, capsys):
    assert main(["lift", "--group", group, "--support", "0:1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"lift requires a halo over Z; the base of {group} is {base}\n"


def test_decompose(capsys):
    assert main(["decompose", "--group", "shuffler(Z)", "--sites", "0;1;2",
                 "--seed", "4"]) == 0
    assert "round-trip ok: True" in capsys.readouterr().out


def test_decompose_sites_starting_with_a_negative_site(capsys):
    # as a separate word "-1;0;2" reads as an option; the = form is the way
    with pytest.raises(SystemExit):
        main(["decompose", "--group", "shuffler(Z)", "--sites", "-1;0;2"])
    assert "expected one argument" in capsys.readouterr().err
    assert main(["decompose", "--group", "shuffler(Z)", "--sites=-1;0;2",
                 "--seed", "4"]) == 0
    out = capsys.readouterr().out
    assert "block size 6;" in out and "round-trip ok: True" in out


@pytest.mark.parametrize("argv", [
    ["lift", "--group", "shuffler(Z)", "--support", "a:b"],
    ["lift", "--group", "shuffler(Z)", "--support", "0:1:2"],
    ["decompose", "--group", "shuffler(Z)", "--sites", "0;x"],
    ["decompose", "--group", "shuffler(Z)", "--sites", "0;;1"],
])
def test_malformed_numbers_are_one_error_line_and_exit_2(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and repr(argv[-1]) in errors[0] and "integers" in errors[0]


@pytest.mark.parametrize("argv, shown", [
    (["lift", "--group", "shuffler(Z)", "--support", "3:1"], "'3:1'"),
    (["growth", "--family", "shuffler", "--n-max", "-1"], "'-1'"),
    (["folner", "--group", "Z", "--n-max", "3", "--target", "0"], "'0'"),
    (["folner", "--group", "Z", "--n-max", "3", "--target=-2"], "'-2'"),
], ids=["lift-support-3:1", "growth-n-max--1", "folner-target-0", "folner-target--2"])
def test_ranges_that_select_nothing_are_one_error_line_and_exit_2(argv, shown, capsys):
    """An empty --support used to fail late in gradient_ratio (exit 1), a
    negative --n-max printed no table and exited 0, --target 0 ended in a
    ZeroDivisionError traceback and --target -2 printed Folner(1/-2)."""
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and shown in errors[0]


@pytest.mark.parametrize("method", ["exact", "greedy", "anneal"])
def test_profile_n_max_zero_is_one_error_line_for_every_method(method, capsys):
    """The heuristic methods used to print nothing and exit 0."""
    assert main(["profile", "--group", "Z", "--n-max", "0", "--method", method]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: n_max must be >= 1"]


@pytest.mark.parametrize("command, group, radius, D", [
    ("net", "Z", -1, 1), ("net", "Z", 3, -1), ("ystar", "wreath(C2, Z)", -1, 1)])
def test_a_negative_net_radius_or_d_is_one_error_line(command, group, radius, D, capsys):
    """greedy_net rejects them; a negative radius used to print an empty
    net whose checks passed, exit 0."""
    assert main([command, "--group", group, f"--radius={radius}", f"--D={D}"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        f"error: greedy_net needs radius >= 0 and D >= 0, not {radius}, {D}"]


@pytest.mark.parametrize("p", ["0", "-1"])
def test_lift_norm_exponent_below_one_is_one_error_line_and_exit_2(p, capsys):
    with pytest.raises(SystemExit) as exc:
        main(["lift", "--group", "shuffler(Z)", "--support", "0:1", f"--p={p}"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "Traceback" not in captured.err
    errors = [line for line in captured.err.splitlines() if "error:" in line]
    assert len(errors) == 1 and repr(p) in errors[0] and ">= 1" in errors[0]


def test_lift_at_p_2_compares_float_ratios(capsys):
    assert main(["lift", "--group", "shuffler(Z)", "--support", "0:1", "--p=2"]) == 0
    out = capsys.readouterr().out
    assert "|supp g| = 48" in out and "equal: True" in out


@pytest.mark.parametrize("group, sites, size", [("wreath(C2, C5)", "0;1", 4),
                                                ("shuffler(C5)", "4;0;1", 6),
                                                ("shuffler(H3)", "0,0,0;1,0,0", 2),
                                                ("juggler(2, Z^2)", "0,0;0,1", 24)])
def test_decompose_reads_sites_in_the_base_element_syntax(group, sites, size, capsys):
    assert main(["decompose", "--group", group, "--sites", sites, "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert f"block size {size};" in out and "round-trip ok: True" in out


def test_decompose_site_outside_a_cyclic_base_is_reported(capsys):
    assert main(["decompose", "--group", "wreath(C2, C5)", "--sites", "0;7"]) == 1
    assert capsys.readouterr().err == "error: site 7 is not an element of C5\n"


@pytest.mark.parametrize("group, base", [("wreath(C2, Z x C3)", "Z x C3"),
                                         ("shuffler(wreath(C2, Z))", "wreath(C2, Z)")])
def test_decompose_sites_over_a_base_without_text_syntax_name_the_base(group, base, capsys):
    assert main(["decompose", "--group", group, "--sites", "0;1"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = captured.err.splitlines()
    assert len(errors) == 1 and errors[0].startswith("error: ") and f"base {base};" in errors[0]


def test_decompose_rejects_sites_that_are_not_base_elements(capsys):
    assert main(["decompose", "--group", "wreath(C2, Z)", "--sites", "0,1;2,3"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "error: site (0, 1) is not an element of Z\n"


@pytest.mark.parametrize("group", ["shuffler(Z)", "cloner(GF2, Z)", "upcloner(GF2, Z)"])
def test_decompose_counts_a_repeated_site_once(group, capsys):
    assert main(["decompose", "--group", group, "--sites", "0;0", "--seed", "1"]) == 0
    out = capsys.readouterr().out
    assert "block size 1;" in out and "round-trip ok: True" in out


def test_net(capsys):
    assert main(["net", "--group", "Z", "--radius", "12", "--D", "1"]) == 0
    out = capsys.readouterr().out
    assert "separated (>= D+2 = 3): True" in out
    assert "maximal in interior: True" in out


def test_net_prints_what_each_check_examined(capsys):
    assert main(["net", "--group", "Z", "--radius", "12", "--D", "1"]) == 0
    captured = capsys.readouterr()
    assert "separated (>= D+2 = 3): True (36 pairs examined)" in captured.out
    assert "maximal in interior: True (19 interior points examined)" in captured.out
    assert captured.err == ""


def test_net_exits_1_when_its_checks_examine_nothing(capsys):
    """A one-point net with no interior point used to print both checks
    True and exit 0."""
    assert main(["net", "--group", "Z^2", "--radius", "2", "--D", "1"]) == 1
    captured = capsys.readouterr()
    assert "separated (>= D+2 = 3): True (0 pairs examined)" in captured.out
    assert "maximal in interior: True (0 interior points examined)" in captured.out
    assert captured.err.splitlines() == [
        "error: the separation check examined no pair: the net has one point",
        "error: the maximality check examined no interior point: radius < D+2 = 3"]


def test_python_m_halolab_runs_the_cli(tmp_path):
    src = pathlib.Path(halolab.__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(src), *filter(None, [os.environ.get("PYTHONPATH")])]))
    run = subprocess.run([sys.executable, "-m", "halolab", "net", "--group", "Z",
                          "--radius", "12", "--D", "1"],
                         cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert "maximal in interior: True (19 interior points examined)" in run.stdout
    assert list(tmp_path.iterdir()) == []


def test_ystar(capsys):
    assert main(["ystar", "--group", "shuffler(Z)", "--radius", "3",
                 "--D", "1"]) == 0
    out = capsys.readouterr().out
    assert "24 vertices" in out
    assert "isomorphic to block-over-net lamplighter graph: True" in out


def test_ystar_wreath_radius_6(capsys):
    assert main(["ystar", "--group", "wreath(C2, Z)", "--radius", "6",
                 "--D", "1"]) == 0
    out = capsys.readouterr().out
    assert "5120 vertices" in out
    assert "isomorphic to block-over-net lamplighter graph: True" in out


def test_embed(capsys):
    assert main(["embed", "--construction", "lamplighter", "--family",
                 "designer", "--params", "C2", "--base", "Z",
                 "--pairs", "100", "--check-radius", "3"]) == 0
    out = capsys.readouterr().out
    assert "homomorphism: pass" in out


@pytest.mark.parametrize("option, message", [
    (["--pairs", "0"], "a homomorphism check needs pairs >= 1, not 0"),
    (["--check-radius", "-1"], "check radius must be >= 0, not -1"),
], ids=["no-pairs", "negative-radius"])
def test_embed_rejects_a_check_of_nothing(option, message, capsys):
    """A check with no pairs used to print 'homomorphism: pass' and exit 0,
    and a negative radius died in rng.choice([])."""
    assert main(["embed", "--construction", "endomorphism", "--base", "Z"] + option) == 1
    captured = capsys.readouterr()
    assert "pass" not in captured.out
    assert captured.err == f"error: {message}\n"


def test_lift_exits_1_when_the_ratios_differ(monkeypatch, capsys):
    monkeypatch.setattr("halolab.cli.gradient_ratio", lambda group, f: len(f.entries))
    assert main(["lift", "--group", "shuffler(Z)", "--support", "0:0"]) == 1
    assert "equal: False" in capsys.readouterr().out


def test_decompose_exits_1_when_the_round_trip_fails(monkeypatch, capsys):
    monkeypatch.setattr("halolab.cli.evaluate_word", lambda halo, word: None)
    assert main(["decompose", "--group", "shuffler(Z)", "--sites", "0;1;2",
                 "--seed", "4"]) == 1
    assert "round-trip ok: False" in capsys.readouterr().out


@pytest.mark.parametrize("check, line", [
    ("net_is_separated", "separated (>= D+2 = 3): False"),
    ("net_is_maximal_in_interior", "maximal in interior: False"),
])
def test_net_exits_1_when_a_net_check_fails(check, line, monkeypatch, capsys):
    monkeypatch.setattr(f"halolab.cli.{check}", lambda net: False)
    assert main(["net", "--group", "Z", "--radius", "12", "--D", "1"]) == 1
    assert line in capsys.readouterr().out


def test_ystar_exits_1_when_the_isomorphism_check_fails(monkeypatch, capsys):
    monkeypatch.setattr("halolab.cli.check_iso_to_lamplighter", lambda Y, K, net: (False, None))
    assert main(["ystar", "--group", "shuffler(Z)", "--radius", "3", "--D", "1"]) == 1
    assert "isomorphic to block-over-net lamplighter graph: False" in capsys.readouterr().out


def test_bounds(capsys):
    assert main(["bounds", "--family", "shuffler", "--x", "18"]) == 0
    assert "phi_inverse=3" in capsys.readouterr().out


# A missing or wrong --params: the family's parameter check rejects it.
BAD_PARAMS_ARGV = [
    (["growth", "--family", "cloner"],
     "cloner field must be a GF or an order in (2, 3, 4, 5), not None"),
    (["bounds", "--family", "juggler", "--params", "0", "--x", "10"],
     "juggler requires at least one track"),
    (["embed", "--construction", "lamplighter", "--family", "juggler", "--params", "C2"],
     "juggler track count must be an int, not <group C2>"),
    (["embed", "--construction", "lamplighter", "--family", "designer", "--params", "2"],
     "designer fiber must be a group, not 2"),
    (["growth", "--family", "cloner", "--params", "GFx"],
     "expected an atom or halo family, found 'GFx' (at position 0)"),
]


@pytest.mark.parametrize("argv, message", BAD_PARAMS_ARGV,
                         ids=["growth-no-params", "bounds-juggler-0", "embed-juggler-C2",
                              "embed-designer-2", "growth-GFx"])
def test_bad_params_are_one_error_line_and_exit_1(argv, message, capsys):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {message}\n"


def test_error_reporting(capsys):
    assert main(["ball", "--group", "upcloner(GF2, C5)", "--radius", "1"]) == 1
    assert "order required" in capsys.readouterr().err


def test_run_subcommand(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "Z", "n_max": 4, "method": "exact"}))
    out_dir = tmp_path / "arts"
    assert main(["run", "--config", str(cfg), "--out", str(out_dir)]) == 0
    assert (out_dir / "profile.csv").exists()
    assert (out_dir / "manifest.json").exists()


def test_options_are_scoped_to_the_subcommands_that_read_them(capsys):
    rejected = [
        (["profile", "--group", "Z", "--n-max", "3", "--p", "2"], "--p"),
        (["profile", "--group", "Z", "--n-max", "3", "--budget-mem", "1"], "--budget-mem"),
        (["growth", "--family", "shuffler", "--group", "Z"], "--group"),
        (["ball", "--radius", "1"], "--group"),
    ]
    for argv, flag in rejected:
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
        assert flag in capsys.readouterr().err, argv


def test_run_requires_out(tmp_path, monkeypatch, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"group": "Z", "n_max": 3}))

    def no_search(*args, **kwargs):
        raise AssertionError("the search ran")

    monkeypatch.setattr("halolab.cli.run_experiment", no_search)
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", str(cfg)])
    assert exc.value.code == 2
    assert "--out" in capsys.readouterr().err


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


@pytest.mark.parametrize("method", ["exact", "greedy", "anneal"])
def test_run_experiment_warns_that_every_method_ignores_p(method, tmp_path):
    """Every method searches sets, so every one optimizes the p=1 profile:
    a config with p != 1 keeps its p in config.json and gets one warning."""
    cfg = {"group": "Z", "n_max": 4, "method": method}
    warned = run_experiment(dict(cfg, p=3), str(tmp_path / "p3"))["warnings"]
    assert warned == [f"{method} search optimizes the p=1 profile; p is recorded but ignored"]
    assert json.loads((tmp_path / "p3" / "config.json").read_text())["p"] == 3
    assert run_experiment(dict(cfg, p=1), str(tmp_path / "p1"))["warnings"] == []


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
        ({"group": "Z", "n_max": 3, "p": True}, ContractViolation,
         "config field 'p': expected"),
        ({"group": "Z", "n_max": 3, "p": 0.5}, ContractViolation,
         "config field 'p': must be >= 1"),
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
