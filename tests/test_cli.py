import ast
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

from levybarrier import ModelError
from levybarrier.cli import main
from levybarrier.config import (ConfigError, aux_inputs_from, parse_config,
                                regime_model_from, sim_config_from,
                                solver_options_from)

AUX_CONFIG = """
# single-regime problem on the Brownian model with W_1 = sinh
[levy.base]
drift_mu = 0.0
sigma = 1.4142135623730951
jump_rate = 0.0

[problem]
phi = 2.0
lambda = 0.0
delta = 1.0
payoff_knots = [[0.0, 0.0], [1.0, 1.0]]
payoff_tail_slope = 1.0

[sim]
paths = 20000
dt = 0.002
tmax = 19.0
seed = 3
"""

REGIME_CONFIG = """
[levy.a]
drift_mu = 0.0
sigma = 1.4142135623730951
jump_rate = 0.0

[levy.b]
drift_mu = 0.0
sigma = 1.4142135623730951
jump_rate = 0.0

[chain]
states = ["a", "b"]
switch_rates = [[0.0, 1.0], [1.0, 0.0]]
discounts = [1.0, 1.0]

[problem]
phi = 2.0
delta = 1.0

[solver]
tol = 1e-8
grid_points = 1200

[sim]
paths = 4000
dt = 0.004
tmax = 19.0
seed = 5
"""


DEMOS = Path(__file__).resolve().parents[1] / "demos"


@pytest.fixture
def aux_config(tmp_path):
    p = tmp_path / "aux.cfg"
    p.write_text(AUX_CONFIG)
    return p


@pytest.fixture
def regime_config(tmp_path):
    p = tmp_path / "regime.cfg"
    p.write_text(REGIME_CONFIG)
    return p


def _report(out: str) -> dict:
    pairs = {}
    for line in out.splitlines():
        if "=" in line and " " not in line.strip():
            k, _, v = line.partition("=")
            pairs[k] = v
    return pairs


def test_config_line_anchored_diagnostics():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config("[a]\nx = 1\noops\n")
    with pytest.raises(ConfigError, match="line 1"):
        parse_config("x = 1\n")
    with pytest.raises(ConfigError, match="line 2"):
        parse_config("[a]\nx = not!a!literal\n")
    with pytest.raises(ConfigError, match="^line 1: empty section name$"):
        parse_config("[ ]\n")
    with pytest.raises(ConfigError,
                       match="^line 3: section clashes with key$"):
        parse_config("[a]\nx = 1\n[a.x]\n")


_REGIME_PROBLEM = "[problem]\nphi = 2.0\ndelta = 1.0\n"


@pytest.mark.parametrize("reader, text, message", [
    (aux_inputs_from, "[problem]\nphi = 2.0\n", "levy: required"),
    (aux_inputs_from, AUX_CONFIG.split("[problem]")[0], "problem: required"),
    (aux_inputs_from, AUX_CONFIG + "[levy.base]\njump_mix = [1.0, 2.0]\n",
     "levy.base.jump_mix: expected [[weight, rate], ...]"),
    (regime_model_from, AUX_CONFIG, "chain: required"),
    (regime_model_from, REGIME_CONFIG.replace(_REGIME_PROBLEM, ""),
     "problem: required"),
    (regime_model_from, REGIME_CONFIG + '[chain]\nstates = ["a", "c"]\n',
     "levy.c: required"),
    (regime_model_from, REGIME_CONFIG + "[levy.b]\nsigma = -1.0\n",
     "state b: sigma must be nonnegative and finite"),
    (regime_model_from, REGIME_CONFIG + "[jumps.c.a]\n",
     "jumps.c: unknown state"),
    (regime_model_from, REGIME_CONFIG + "[jumps.a.c]\n",
     "jumps.a.c: unknown state"),
    (regime_model_from, REGIME_CONFIG + '[jumps.a.b]\nkind = "uniform"\n',
     "jumps.a.b.kind: unknown kind 'uniform'"),
])
def test_config_reader_errors(reader, text, message):
    with pytest.raises(ModelError, match=f"^{re.escape(message)}$"):
        reader(parse_config(text))


@pytest.mark.parametrize("value", ["2.5", "None", "True", '"calm"'])
def test_chain_states_must_be_a_list_of_names(regime_config, capsys, value):
    # a number once crashed on iteration, a string was read by character
    regime_config.write_text(regime_config.read_text()
                             + f"\n[chain]\nstates = {value}\n")
    rc = main(["solve-regime", "--config", str(regime_config)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == (f"chain.states: expected a list of state names, got "
                   f"{ast.literal_eval(value)!r}\n")


def test_explicit_no_jump_and_integral_float_grid():
    tree = parse_config(REGIME_CONFIG + '[jumps.a.b]\nkind = "none"\n'
                        "[solver]\ngrid_points = 2e3\n")
    assert regime_model_from(tree).switch_jumps == {(0, 1): ()}
    points = solver_options_from(tree)["grid_points"]
    assert points == 2000 and type(points) is int


def test_missing_config_file_exit_2(tmp_path, capsys):
    rc = main(["solve-aux", "--config", str(tmp_path / "missing.cfg")])
    err = capsys.readouterr().err
    assert rc == 2
    assert err.startswith("config: ") and "missing.cfg" in err


def _demo_with(tmp_path, demo, key, value):
    """demos/<demo> with its first `key = ...` line set to value."""
    p = tmp_path / demo
    p.write_text(re.sub(rf"^{key} = .*$", f"{key} = {value}",
                        (DEMOS / demo).read_text(), count=1, flags=re.M))
    return p


_LARGEST = np.iinfo(np.intp).max
_DRIFT_ONLY = ("sigma**2 / 2 underflows to 0 in float64, so degenerate: "
               "deterministic drift only")


@pytest.mark.parametrize("demo, command, key, value, message", [
    ("aux.cfg", "curve", "sigma", "1e-300", _DRIFT_ONLY),
    ("aux.cfg", "solve-aux", "sigma", "1e-300", _DRIFT_ONLY),
    ("regime.cfg", "solve-regime", "sigma", "1e-300",
     "state calm: " + _DRIFT_ONLY),
    ("aux.cfg", "curve", "sigma", "1e300", "sigma**2 overflows float64"),
    ("aux.cfg", "solve-aux", "sigma", "1e300", "sigma**2 overflows float64"),
    ("regime.cfg", "solve-regime", "sigma", "1e300",
     "state calm: sigma**2 overflows float64"),
    ("aux.cfg", "solve-aux", "lambda", "1e300",
     "delta vanishes next to lam in float64"),
    ("regime.cfg", "solve-regime", "grid_points", "1e300",
     f"solver.grid_points: 1e+300 exceeds the largest array size, "
     f"{_LARGEST}"),
    ("regime.cfg", "solve-regime", "grid_points", str(_LARGEST + 1),
     f"solver.grid_points: {_LARGEST + 1} exceeds the largest array size, "
     f"{_LARGEST}"),
])
def test_float64_edges_exit_2(tmp_path, capsys, demo, command, key, value,
                              message):
    # each crashed, or warned and then exited 3 with a false reason
    rc = main([command, "--config",
               str(_demo_with(tmp_path, demo, key, value))])
    assert rc == 2
    assert capsys.readouterr().err == message + "\n"


@pytest.mark.xfail(strict=True, raises=RuntimeWarning,
                   reason="ROADMAP item 1: the scale sums overflow float64 "
                          "at a small delta or sigma")
@pytest.mark.parametrize("demo, command, key", [
    ("aux.cfg", "curve", "delta"), ("aux.cfg", "solve-aux", "delta"),
    ("aux.cfg", "curve", "sigma"), ("aux.cfg", "solve-aux", "sigma"),
    ("regime.cfg", "solve-regime", "sigma"),
])
def test_small_delta_or_sigma_runs_without_warning(tmp_path, demo, command,
                                                   key):
    rc = main([command, "--config",
               str(_demo_with(tmp_path, demo, key, "1e-9"))])
    assert rc in (0, 2, 3)


def test_regime_model_from_config():
    model = regime_model_from(parse_config(REGIME_CONFIG))
    assert model.states == ("a", "b")
    assert model.phi == 2.0
    assert model.lam[0] == 1.0


def test_sim_config_overrides():
    cfg = sim_config_from(parse_config(AUX_CONFIG), paths=77, seed=9)
    assert cfg.n_paths == 77
    assert cfg.rng_seed == 9
    assert cfg.dt == 0.002


def test_solve_aux_report(aux_config, capsys):
    rc = main(["solve-aux", "--config", str(aux_config)])
    out = capsys.readouterr().out
    assert rc == 0
    rep = _report(out)
    assert float(rep["barrier"]) == pytest.approx(np.arccosh(2.0), abs=1e-5)
    assert float(rep["value_at_zero"]) == pytest.approx(-np.sqrt(3.0),
                                                        abs=1e-9)
    assert float(rep["smooth_fit_barrier_residual"]) <= 1e-8
    assert float(rep["smooth_fit_zero_residual"]) <= 1e-8


def test_solve_aux_csv(aux_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["solve-aux", "--config", str(aux_config), "--out",
               str(out_dir)])
    capsys.readouterr()
    assert rc == 0
    lines = (out_dir / "value_curve.csv").read_text().splitlines()
    assert lines[0] == "x,V,V_prime,hjb_residual"
    first = lines[1].split(",")
    assert len(first) == 4
    # 17-significant-digit round trip
    assert float(first[1]) == pytest.approx(-np.sqrt(3.0), abs=1e-12)


def test_missing_phi_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(AUX_CONFIG.replace("phi = 2.0\n", ""))
    rc = main(["solve-aux", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "problem.phi: required" in err


def test_small_phi_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text(AUX_CONFIG.replace("phi = 2.0", "phi = 0.5"))
    rc = main(["solve-aux", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "phi must exceed 1" in err


def test_parse_error_exit_2(tmp_path, capsys):
    p = tmp_path / "bad.cfg"
    p.write_text("[levy.base\n")
    rc = main(["solve-aux", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line 1" in err


def test_solver_failure_exit_3(tmp_path, capsys):
    p = tmp_path / "hard.cfg"
    p.write_text(REGIME_CONFIG.replace("tol = 1e-8",
                                       "tol = 1e-15\nmax_iter = 3"))
    rc = main(["solve-regime", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 3
    assert "no convergence" in err


@pytest.mark.parametrize("line", ["tol = -1.0", 'tol = "abc"', "max_iter = 0",
                                  "max_iter = 2.5", "grid_points = 0",
                                  "grid_points = 1.5"])
def test_bad_solver_option_exit_2(tmp_path, capsys, line):
    # rejected as a config error, never crashed on, cut or run as given
    p = tmp_path / "bad.cfg"
    p.write_text(REGIME_CONFIG + "\n[solver]\n" + line + "\n")
    rc = main(["solve-regime", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "solver." + line.split()[0] + ":" in err


@pytest.mark.parametrize("line", ['antithetic = "false"', "paths = 2.5",
                                  "seed = 1.9"])
def test_bad_sim_field_exit_2(tmp_path, capsys, line):
    p = tmp_path / "bad.cfg"
    p.write_text(AUX_CONFIG + "\n[sim]\n" + line + "\n")
    rc = main(["simulate", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "sim." + line.split()[0] + ":" in err


@pytest.mark.parametrize("which, section, line", [
    ("aux", "levy.base", 'drift_mu = "abc"'),
    ("aux", "levy.base", 'sigma = "abc"'),
    ("aux", "levy.base", "jump_rate = [1.0]"),
    ("aux", "problem", 'phi = "abc"'),
    ("aux", "problem", 'lambda = "abc"'),
    ("aux", "problem", "delta = None"),
    ("aux", "problem", 'payoff_tail_slope = "abc"'),
    ("aux", "problem", 'payoff_knots = [[0.0, "a"], [1.0, 1.0]]'),
    ("aux", "sim", 'dt = "abc"'),
    ("aux", "sim", 'tmax = "abc"'),
    ("regime", "levy.a", 'drift_mu = "abc"'),
    ("regime", "problem", 'phi = "abc"'),
    ("regime", "chain", 'switch_rates = [["a", 1.0], [1.0, 0.0]]'),
    ("regime", "chain", 'discounts = ["a", 1.0]'),
])
def test_non_numeric_field_exit_2(aux_config, regime_config, capsys, which,
                                  section, line):
    # a config error naming the field, never an uncaught ValueError
    cfg = aux_config if which == "aux" else regime_config
    cfg.write_text(cfg.read_text() + f"\n[{section}]\n{line}\n")
    rc = main(["simulate", "--config", str(cfg), "--paths", "10"])
    err = capsys.readouterr().err
    assert rc == 2
    assert f"{section}.{line.split()[0]}:" in err


@pytest.mark.parametrize("which", ["aux", "regime"])
@pytest.mark.parametrize("command", ["simulate", "verify"])
def test_sim_settings_checked_before_any_solve(aux_config, regime_config,
                                               capsys, monkeypatch, which,
                                               command):
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before [sim] was checked")

    monkeypatch.setattr("levybarrier.cli.solve", no_solve)
    monkeypatch.setattr("levybarrier.cli.barrier_root", no_solve)
    cfg = aux_config if which == "aux" else regime_config
    # an infinite t_max passes the discount-tail check, e^{-q t_max} = 0,
    # but no step count is finite
    for flag, message in (
            (["--dt", "-1.0"], "dt must be positive and finite"),
            (["--tmax", "inf"], "t_max must be finite, got inf")):
        rc = main([command, "--config", str(cfg)] + flag)
        err = capsys.readouterr().err
        assert rc == 2
        assert message in err


# a switch-jump mixture that sums to 1 but has a negative weight
BAD_JUMP = """
[jumps.a.b]
kind = "hyperexp"
weights = [1.5, -0.5]
rates = [3.0, 5.0]
"""


@pytest.mark.parametrize("argv", [["solve-regime"],
                                  ["simulate", "--paths", "10",
                                   "--barrier", "1,1"]])
def test_bad_switch_jump_exit_2(tmp_path, capsys, argv):
    p = tmp_path / "bad.cfg"
    p.write_text(REGIME_CONFIG + BAD_JUMP)
    rc = main(argv[:1] + ["--config", str(p)] + argv[1:])
    err = capsys.readouterr().err
    assert rc == 2
    assert "jump 0->1: mixture weights must be positive" in err


@pytest.mark.parametrize("weights, rates, message", [
    ("[1.0]", "[3.0, 0.01]", "jumps.a.b: weights and rates differ in length"),
    ("1.0", "3.0", "jumps.a.b: weights and rates must be lists of numbers"),
])
def test_switch_jump_lists_exit_2(tmp_path, capsys, weights, rates,
                                  message):
    p = tmp_path / "bad.cfg"
    p.write_text(REGIME_CONFIG + BAD_JUMP.replace(
        "[1.5, -0.5]", weights).replace("[3.0, 5.0]", rates))
    rc = main(["solve-regime", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err


# 1e400 reads as inf: each model value must be finite, or the solvers fail
# with a numpy error (exit 1) or a false numerical reason (exit 3)
@pytest.mark.parametrize("command, demo, old, new, message", [
    ("solve-aux", "aux.cfg", "drift_mu = 0.0", "drift_mu = 1e400",
     "drift_mu must be finite"),
    ("solve-aux", "aux.cfg", "sigma = 1.4142135623730951", "sigma = 1e400",
     "sigma must be nonnegative and finite"),
    ("solve-aux", "aux.cfg", "jump_rate = 0.0",
     "jump_rate = 1e400\njump_mix = [[1.0, 2.0]]", "jump_rate must be nonnegative and finite"),
    ("solve-aux", "aux.cfg", "jump_rate = 0.0",
     "jump_rate = 1.0\njump_mix = [[1.0, 1e400]]",
     "mixture rates must be strictly positive and finite"),
    ("solve-aux", "aux.cfg", "delta = 1.0", "delta = 1e400",
     "delta must be positive and finite"),
    ("solve-aux", "aux.cfg", "lambda = 0.0", "lambda = 1e400",
     "lam must be nonnegative and finite"),
    ("solve-aux", "aux.cfg", "phi = 2.0", "phi = 1e400",
     "phi must exceed 1 and be finite"),
    ("solve-regime", "regime.cfg", "discounts = [0.8, 1.2]",
     "discounts = [1e400, 1.0]", "state calm: discount must be positive and "
     "finite"),
    ("solve-regime", "regime.cfg", "[[0.0, 0.5], [1.0, 0.0]]",
     "[[0.0, 1e400], [1.0, 0.0]]", "switch rates must be nonnegative and finite"),
    ("solve-regime", "regime.cfg", "rates = [3.0]", "rates = [1e400]",
     "jump 0->1: mixture rates must be strictly positive and finite"),
    ("solve-regime", "regime.cfg", "phi = 1.6", "phi = 1e400",
     "phi must exceed 1 and be finite"),
])
def test_non_finite_model_value_exit_2(tmp_path, capsys, command, demo, old,
                                       new, message):
    text = (DEMOS / demo).read_text()
    assert old in text
    p = tmp_path / "bad.cfg"
    p.write_text(text.replace(old, new, 1))
    rc = main([command, "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == message + "\n"


@pytest.mark.parametrize("rate", ["1e-120", "1e-160"])
def test_root_on_a_pole_exit_3(tmp_path, capsys, rate):
    # a mixture rate this small puts a root of psi(s) = q on the pole -rate
    # in float64: a NumericsError naming the root, with no RuntimeWarning
    text = (DEMOS / "aux.cfg").read_text()
    assert "jump_rate = 0.0" in text
    p = tmp_path / "pole.cfg"
    p.write_text(text.replace(
        "jump_rate = 0.0", f"jump_rate = 1.0\njump_mix = [[1.0, {rate}]]"))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rc = main(["solve-aux", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 3
    head, tail = err.split(" of ")
    assert tail == "psi(s) = q is not finite in float64\n"
    root = float(head.removeprefix("psi' at the root "))
    assert abs(root + float(rate)) < 1e-4 * float(rate)


def test_short_discounts_exit_2(tmp_path, capsys):
    # one discount for two states: a one-line reason, not an IndexError
    text = (DEMOS / "regime.cfg").read_text()
    assert "discounts = [0.8, 1.2]" in text
    p = tmp_path / "short.cfg"
    p.write_text(text.replace("discounts = [0.8, 1.2]", "discounts = [0.8]"))
    rc = main(["solve-regime", "--config", str(p)])
    err = capsys.readouterr().err
    assert rc == 2
    assert err == "discounts: expected one per state, shape (2,), got (1,)\n"


def test_solve_regime_collapse(regime_config, tmp_path, capsys):
    out_dir = tmp_path / "out"
    rc = main(["solve-regime", "--config", str(regime_config), "--out",
               str(out_dir)])
    out = capsys.readouterr().out
    assert rc == 0
    rep = _report(out)
    assert float(rep["barrier_a"]) == pytest.approx(np.arccosh(2.0),
                                                    abs=1e-5)
    assert float(rep["barrier_b"]) == pytest.approx(np.arccosh(2.0),
                                                    abs=1e-5)
    assert float(rep["final_rho"]) < 1e-8
    assert "iter=1 rho=" in out
    for s in ("a", "b"):
        lines = (out_dir / f"curve_{s}.csv").read_text().splitlines()
        assert lines[0] == "x,V"


def test_simulate_deterministic_bytes(aux_config, capsys):
    rc1 = main(["simulate", "--config", str(aux_config), "--paths", "2000",
                "--dt", "0.01", "--x0", "0.5"])
    out1 = capsys.readouterr().out
    rc2 = main(["simulate", "--config", str(aux_config), "--paths", "2000",
                "--dt", "0.01", "--x0", "0.5"])
    out2 = capsys.readouterr().out
    assert rc1 == rc2 == 0
    assert out1 == out2
    assert out1.splitlines()[0] == "mean,std_error,analytic"


def test_simulate_matches_analytic(aux_config, capsys):
    rc = main(["simulate", "--config", str(aux_config), "--paths", "20000",
               "--dt", "0.002", "--x0", "0.6"])
    out = capsys.readouterr().out
    assert rc == 0
    mean, se, analytic = map(float, out.splitlines()[1].split(","))
    assert abs(mean - analytic) <= 3.0 * se


@pytest.mark.parametrize("name", ["aux", "regime"])
def test_simulate_starts_below_zero(name, capsys):
    # both simulators take any finite start, priced at slope phi below 0
    rc = main(["simulate", "--config", str(DEMOS / f"{name}.cfg"), "--paths",
               "2000", "--dt", "0.005", "--x0", "-0.3"])
    out = capsys.readouterr().out
    assert rc == 0
    mean, se, analytic = map(float, out.splitlines()[1].split(","))
    assert abs(mean - analytic) <= 3.0 * se


@pytest.mark.parametrize("which, extra, message", [
    ("regime", ["--barrier", "1.2"], "--barrier: expected 2 value(s)"),
    ("regime", ["--barrier", "1.2", "--state", "b"], "--barrier"),
    ("regime", ["--state", "stress"], "--state: unknown state 'stress'"),
    ("regime", ["--barrier", "1.2,1.3", "--state", "stress"],
     "--state: unknown state"),
    ("aux", ["--barrier", "1.0,1.2"], "--barrier: expected 1 value(s)"),
    ("aux", ["--barrier", "wide"], "comma-separated numbers"),
    ("aux", ["--barrier", "-1.0"], "positive and finite"),
    ("aux", ["--state", "stress"], "levy.stress: unknown state"),
    # one path, or one antithetic pair, has no standard error
    ("aux", ["--paths", "1"], "n_paths must be an integer >= 2"),
    ("aux", ["--paths", "2", "--antithetic"],
     "n_paths must be an integer >= 3 when antithetic"),
])
def test_simulate_bad_inputs_exit_2(aux_config, regime_config, capsys, which,
                                    extra, message):
    cfg = aux_config if which == "aux" else regime_config
    rc = main(["simulate", "--config", str(cfg), "--paths", "10"] + extra)
    err = capsys.readouterr().err
    assert rc == 2
    assert message in err


def test_curve_csv(aux_config, capsys):
    rc = main(["curve", "--config", str(aux_config)])
    out = capsys.readouterr().out
    assert rc == 0
    lines = out.splitlines()
    assert lines[0] == "x,W,Z,Zbar"
    x, w, z, zbar = map(float, lines[-1].split(","))
    assert w == pytest.approx(np.sinh(x), rel=1e-12)
    assert z == pytest.approx(np.cosh(x), rel=1e-12)


@pytest.mark.parametrize("x0", ["nan", "-1", "0", "inf"])
def test_curve_bad_x0_exit_2(aux_config, capsys, x0):
    # --x0 is the curve's right end
    rc = main(["curve", "--config", str(aux_config), "--x0", x0])
    cap = capsys.readouterr()
    assert rc == 2
    assert cap.out == ""
    assert "--x0: the curve's right end must be positive and finite" in cap.err


@pytest.mark.parametrize("command, name, extra", [
    ("simulate", "simulate.csv", ["--paths", "200", "--dt", "0.01"]),
    ("curve", "scale_curve.csv", []),
])
def test_out_csv_equals_stdout(aux_config, tmp_path, capsys, command, name,
                               extra):
    out_dir = tmp_path / "a" / "b"
    rc = main([command, "--config", str(aux_config), "--out", str(out_dir)]
              + extra)
    out = capsys.readouterr().out
    assert rc == 0
    assert (out_dir / name).read_text() == out


def test_simulate_regime_demo(capsys):
    # the cli-demos settings on the demo regime model: the estimate against
    # the solved value, then a start state and point, then fixed barriers
    argv = ["simulate", "--config", str(DEMOS / "regime.cfg"), "--paths",
            "2000", "--dt", "0.005", "--seed", "11"]
    rows = []
    for extra in ([], ["--state", "stress", "--x0", "0.3"],
                  ["--barrier", "1.0,0.8"]):
        rc = main(argv + extra)
        out = capsys.readouterr().out
        assert rc == 0
        assert out.splitlines()[0] == "mean,std_error,analytic"
        rows.append(list(map(float, out.splitlines()[1].split(","))))
    for mean, se, analytic in rows[:2]:
        assert abs(mean - analytic) <= 3.0 * se
    assert np.isnan(rows[2][2])


def test_verify_all_pass(aux_config, capsys):
    rc = main(["verify", "--config", str(aux_config), "--paths", "20000"])
    out = capsys.readouterr().out
    assert rc == 0
    assert "FAIL" not in out
    for name in ("laplace", "smooth_fit_barrier", "smooth_fit_zero",
                 "hjb_interior", "hjb_above", "dominance", "exit_down",
                 "exit_up", "exit_reflected"):
        assert f"PASS {name}" in out


def test_verify_regime_contraction(regime_config, capsys):
    rc = main(["verify", "--config", str(regime_config)])
    out = capsys.readouterr().out
    assert rc == 0
    assert "PASS contraction" in out


@pytest.mark.parametrize("argv", [["solve-regime", "--paths", "10"],
                                  ["verify", "--out", "x"],
                                  ["curve", "--dt", "0.01"]])
def test_unread_flag_exit_2(aux_config, argv, capsys):
    # each command takes only the options it reads
    with pytest.raises(SystemExit) as exc:
        main(argv[:1] + ["--config", str(aux_config)] + argv[1:])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_verify_antithetic(aux_config, capsys):
    ses = []
    for extra in ([], ["--antithetic"]):
        rc = main(["verify", "--config", str(aux_config), "--paths", "4000"]
                  + extra)
        out = capsys.readouterr().out
        assert rc == 0
        line = next(ln for ln in out.splitlines() if " exit_down " in ln)
        ses.append(float(line.rsplit("se=", 1)[1]))
    # antithetic pairs cut the exit_down SE about 2.5-fold
    assert ses[1] < 0.6 * ses[0]


def test_runtime_imports_no_scipy():
    # the library and its command line run on numpy alone; scipy is a
    # test-only dependency (cold start was mostly its import)
    src = Path(__file__).resolve().parents[1] / "src"
    code = ("import sys, levybarrier, levybarrier.cli, levybarrier.config; "
            "print(sorted(m for m in sys.modules if m.startswith('scipy')))")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, timeout=120,
                         env={**os.environ, "PYTHONPATH": str(src)})
    assert out.stdout.strip() == "[]"
