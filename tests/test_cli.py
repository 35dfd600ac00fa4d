"""Command-line surface: flags, config files, CSV schemas, plot scripts."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import qal
import qal.cli
from qal.cli import COMMANDS, emit_plot_script, parse_config, read_csv, run
from qal.core import BareDistribution, QRuleParams, effective_distribution
from qal.errors import ConfigError, UnknownSchema
from test_grid import CORE_COUNTS, usable_cores


def run_in(tmp_path, argv):
    cwd = os.getcwd()
    os.chdir(tmp_path)
    try:
        return run(argv)
    finally:
        os.chdir(cwd)


def strip_timestamp(text: str) -> str:
    return "\n".join(
        line for line in text.splitlines() if not line.startswith("# timestamp")
    )


class TestParseConfig:
    def test_flags_only(self):
        config = parse_config(
            "identity-check",
            {"p": "0.5,0.5", "gamma": "0.2,0.2", "n": "1"},
            seed="7",
            env={},
        )
        assert config.params["p"] == [0.5, 0.5]
        assert config.params["n"] == 1
        assert config.seed == 7
        assert config.provenance["p"] == "flag"
        assert config.provenance["tol"] == "default"

    def test_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# channel setup\np = 0.5,0.5\ngamma = 0.1,0.1\nn = 2\nseed = 3\n")
        config = parse_config(
            "identity-check", {"gamma": "0.2,0.2"}, str(cfg), env={}
        )
        assert config.params["gamma"] == [0.2, 0.2]
        assert config.provenance["gamma"] == "flag"
        assert config.params["p"] == [0.5, 0.5]
        assert config.provenance["p"] == "file"
        assert config.seed == 3
        assert config.provenance["seed"] == "file"

    def test_env_seed_fallback(self):
        config = parse_config(
            "census", {"m": "2", "n": "1"}, env={"QAL_SEED": "99"}
        )
        assert config.seed == 99
        assert config.provenance["seed"] == "env"

    def test_process_environment_seed_under_file_and_flag(self, monkeypatch, tmp_path):
        # with no env= mapping the process environment is read, below file and flag
        monkeypatch.setenv("QAL_SEED", "41")
        config = parse_config("census", {"m": "2", "n": "1"})
        assert (config.seed, config.provenance["seed"]) == (41, "env")
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed = 5\n")
        assert parse_config("census", {"m": "2", "n": "1"}, str(cfg)).seed == 5
        assert parse_config("census", {"m": "2", "n": "1"}, str(cfg), seed="6").seed == 6
        monkeypatch.delenv("QAL_SEED")
        assert parse_config("census", {"m": "2", "n": "1"}).provenance["seed"] == "default"

    def test_empty_file_full_flags(self, tmp_path):
        cfg = tmp_path / "empty.cfg"
        cfg.write_text("# nothing but comments\n\n")
        config = parse_config("census", {"m": "3", "n": "2"}, str(cfg), env={})
        assert config.params["m"] == 3
        assert config.provenance["m"] == "flag"

    def test_trailing_separator_names_the_key(self):
        with pytest.raises(ConfigError, match="p"):
            parse_config("histogram", {"p": "0.5,0.5,"}, env={})

    def test_unknown_file_key_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("banana = 1\n")
        with pytest.raises(ConfigError, match="banana"):
            parse_config("census", {"m": "2", "n": "1"}, str(cfg), env={})

    def test_missing_required(self):
        with pytest.raises(ConfigError, match="--n"):
            parse_config("census", {"m": "2"}, env={})

    def test_wrong_type_names_key_and_type(self):
        with pytest.raises(ConfigError, match="n.*int"):
            parse_config("census", {"m": "2", "n": "two"}, env={})

    def test_config_line_without_equals_rejected(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("m = 2\nn 1\n")
        with pytest.raises(ConfigError, match=r"run\.cfg:2: expected 'key = value'"):
            parse_config("census", {}, str(cfg), env={})

    @pytest.mark.parametrize(
        "command, flags, seed, message",
        [
            ("census", {"m": "2", "n": "1", "p": ".5,.5"}, None, "unknown flag 'p'"),
            ("census", {"m": "2", "n": "1"}, str(2**64), "seed must fit in 64 unsigned bits"),
            ("no-such-command", {}, None, "unknown command 'no-such-command'"),
        ],
    )
    def test_bad_flag_seed_or_command_rejected(self, command, flags, seed, message):
        with pytest.raises(ConfigError, match=message):
            parse_config(command, flags, seed=seed, env={})


class TestCommands:
    def test_histogram_identity_channel(self, tmp_path):
        rc = run_in(tmp_path, ["histogram", "--p", "0.5,0.5", "--gamma", "0,0", "--out", "h.csv"])
        assert rc == 0
        metadata, header, rows = read_csv(tmp_path / "h.csv")
        assert header == ["outcome", "label", "bare", "effective"]
        assert metadata["schema"] == "histogram"
        assert float(metadata["defect"]) == 0.0
        for row in rows:
            assert float(row[2]) == float(row[3])

    def test_histogram_with_losses(self, tmp_path):
        rc = run_in(tmp_path, ["histogram", "--p", "0.5,0.5", "--gamma", "0.2,0.2", "--out", "h.csv"])
        assert rc == 0
        metadata, _, rows = read_csv(tmp_path / "h.csv")
        assert float(metadata["defect"]) == pytest.approx(0.2, abs=1e-12)
        assert [float(r[3]) for r in rows] == pytest.approx([0.4, 0.4], abs=1e-12)

    def test_histogram_with_misreads(self, tmp_path):
        argv = ["histogram", "--p", ".5,.5", "--gamma", ".2,.1", "--misreads", "0,.05,.05,0"]
        assert run_in(tmp_path, argv + ["--out", "h.csv"]) == 0
        _, _, rows = read_csv(tmp_path / "h.csv")
        bare = BareDistribution(np.array([0.0, 1.0]), np.array([0.5, 0.5]))
        rules = QRuleParams(np.array([0.2, 0.1]), np.array([[0.0, 0.05], [0.05, 0.0]]))
        assert [float(r[3]) for r in rows] == effective_distribution(bare, rules).probs.tolist()

    def test_census_rows(self, tmp_path):
        rc = run_in(tmp_path, ["census", "--m", "2", "--n", "2", "--out", "c.csv"])
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "c.csv")
        assert header == ["l", "raw", "reduced"]
        assert [[int(v) for v in row] for row in rows] == [[0, 4, 4], [1, 8, 4], [2, 4, 1]]

    @pytest.mark.parametrize("n", [1074, 1075])
    def test_census_refuses_a_total_past_the_int_string_limit(self, tmp_path, capsys, n):
        # 100^(2N) has 4N + 1 digits: 4297 are written, 4301 refused at once at
        # Python's default limit of 4300, not after the counts are built
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            rc = run_in(tmp_path, ["census", "--m", "100", "--n", str(n), "--out", "c.csv"])
            if n == 1074:
                assert rc == 0
                metadata, _, rows = read_csv(tmp_path / "c.csv")
                assert int(metadata["raw-total"]) == 100**2148 and len(rows) == 1075
                return
        finally:
            sys.set_int_max_str_digits(limit)
        assert rc == 1
        assert capsys.readouterr().err.strip() == (
            "qal census: raw total 100^2150 has 4301 decimal digits, "
            "over Python's limit of 4300 for integer strings"
        )
        assert not (tmp_path / "c.csv").exists()

    def test_identity_check_example(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["identity-check", "--m", "2", "--n", "1", "--p", "0.5,0.5",
             "--gamma", "0.2,0.2", "--seed", "7", "--out", "id.csv"],
        )
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "id.csv")
        record = dict(zip(header, rows[0]))
        assert float(record["xi"]) == pytest.approx(0.8, abs=1e-12)
        assert float(record["amp_sq"]) == pytest.approx(0.8, abs=1e-10)
        assert float(record["gap"]) <= 1e-10
        assert record["feasible"] == "true"

    def test_identity_check_uniform_default(self, tmp_path):
        # --m alone implies a uniform bare distribution
        rc = run_in(
            tmp_path,
            ["identity-check", "--m", "2", "--n", "1", "--gamma", "0.2,0.2", "--out", "id.csv"],
        )
        assert rc == 0
        _, header, rows = read_csv(tmp_path / "id.csv")
        record = dict(zip(header, rows[0]))
        assert float(record["xi"]) == pytest.approx(0.8, abs=1e-12)

    def test_identity_check_infeasible_exit_2(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["identity-check", "--n", "1", "--p", "0.99,0.01", "--gamma", "1,1", "--out", "id.csv"],
        )
        assert rc == 2
        _, header, rows = read_csv(tmp_path / "id.csv")
        record = dict(zip(header, rows[0]))
        assert record["feasible"] == "false"

    def test_phase_solve(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["phase-solve", "--p", "0.5,0.5", "--gamma", "0.2,0.2", "--n", "1", "--out", "ph.csv"],
        )
        assert rc == 0
        metadata, header, rows = read_csv(tmp_path / "ph.csv")
        assert header == ["path", "phase"]
        assert len(rows) == 2
        assert float(metadata["max-residual"]) <= 1e-10
        phases = {row[0]: float(row[1]) for row in rows}
        assert phases["1"] == 0.0
        assert abs(phases["2"]) == pytest.approx(1.7721542475852274, abs=1e-9)

    def test_phase_solve_prints_the_additive_lift(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["phase-solve", "--p", ".2,.3,.5", "--gamma", ".1,.2,.1", "--n", "2",
             "--out", "ph.csv"],
        )
        assert rc == 0
        metadata, _, rows = read_csv(tmp_path / "ph.csv")
        assert "groups" not in metadata
        assert float(metadata["lower-bound"]) <= float(metadata["max-residual"])
        phases = {row[0]: float(row[1]) for row in rows}
        assert len(phases) == 9
        for a, b in [(1, 2), (2, 3), (3, 3)]:
            lifted = phases[f"1;{a}"] + phases[f"1;{b}"]
            assert np.exp(1j * phases[f"{a};{b}"]) == pytest.approx(np.exp(1j * lifted), abs=1e-12)

    @pytest.mark.parametrize("n", [12, 100])
    def test_identity_check_two_labels_any_n(self, tmp_path, n):
        argv = ["identity-check", "--p", ".5,.5", "--gamma", ".2,.2", "--n", str(n)]
        assert run_in(tmp_path, argv + ["--out", "id.csv"]) == 0
        _, header, rows = read_csv(tmp_path / "id.csv")
        record = dict(zip(header, rows[0]))
        assert record["converged"] == "true"
        assert record["bound_vacuous"] == "false"
        assert float(record["xi"]) == pytest.approx(0.8**n, rel=1e-12)
        assert float(record["gap"]) <= float(record["bound"])

    def test_identity_check_flags_a_vacuous_bound(self, tmp_path):
        argv = ["identity-check", "--p", ".2,.3,.5", "--gamma", ".1,.2,.1", "--n", "3"]
        assert run_in(tmp_path, argv + ["--out", "id.csv"]) == 2
        _, header, rows = read_csv(tmp_path / "id.csv")
        assert header[-1] == "bound_vacuous"
        record = dict(zip(header, rows[0]))
        assert record["bound_vacuous"] == "true"
        assert float(record["bound"]) >= max(float(record["xi"]), float(record["amp_sq"]))

    @pytest.mark.parametrize(
        "command, channel",
        [("identity-check", ["--p", ".5,.5"]), ("phase-solve", ["--p", ".5,.5"]),
         ("census", ["--m", "2"])],
    )
    def test_no_rounds_exit_1(self, tmp_path, capsys, command, channel):
        assert run_in(tmp_path, [command, *channel, "--n", "0", "--out", "x.csv"]) == 1
        assert capsys.readouterr().err.strip() == f"qal {command}: n: expected at least 1, got 0"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("flag", ["--restarts", "--max-iter"])
    def test_removed_solver_flags_exit_1(self, tmp_path, capsys, flag):
        argv = ["identity-check", "--p", ".5,.5", "--n", "1", flag, "2"]
        assert run_in(tmp_path, argv) == 1
        assert f"unrecognized arguments: {flag}" in capsys.readouterr().err

    def test_module_entry_point_runs_commands(self, tmp_path):
        src = str(Path(qal.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=path)
        proc = subprocess.run(
            [sys.executable, "-m", "qal.cli", "census", "--m", "2", "--n", "2", "--out", "f.csv"],
            cwd=tmp_path, env=env, capture_output=True, text=True, timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        assert "RuntimeWarning" not in proc.stderr
        assert (tmp_path / "f.csv").stat().st_size > 0

    def test_simulate_game(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["simulate-game", "--p", "0.5,0.5", "--gamma", "0.2,0.2",
             "--labels=-1,1", "--rounds", "1", "--trials", "20000",
             "--seed", "4", "--out", "g.csv"],
        )
        assert rc == 0
        metadata, header, rows = read_csv(tmp_path / "g.csv")
        assert header == ["final_state", "count", "frequency"]
        freqs = {float(r[0]): float(r[2]) for r in rows}
        assert freqs[-1.0] == pytest.approx(0.4, abs=0.02)
        assert freqs[0.0] == pytest.approx(0.2, abs=0.02)
        assert float(metadata["frozen-expected"]) == pytest.approx(0.2, abs=1e-12)

    def test_propagate_game(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["propagate-game", "--p", "0.5,0.5", "--gamma", "0.2,0.2",
             "--labels=-1,1", "--steps", "2", "--boundary", "wrap",
             "--grid-min=-5", "--grid-max=5", "--grid-nodes", "11", "--out", "pg.csv"],
        )
        assert rc == 0
        metadata, _, rows = read_csv(tmp_path / "pg.csv")
        assert float(metadata["mass"]) == pytest.approx(1.0, abs=1e-10)
        probs = {float(r[0]): float(r[1]) for r in rows}
        assert probs[0.0] == pytest.approx(0.36, abs=1e-12)
        assert probs[2.0] == pytest.approx(0.16, abs=1e-12)

    def test_quantum_propagate(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["quantum-propagate", "--eps", "2e-3", "--steps", "100",
             "--grid-min=-10", "--grid-max", "10", "--grid-nodes", "200", "--out", "q.csv"],
        )
        assert rc == 0
        metadata, header, rows = read_csv(tmp_path / "q.csv")
        assert header == ["x", "re", "im", "density"]
        assert len(rows) == 200
        assert float(metadata["norm-factor"]) == pytest.approx(1.0, abs=1e-8)

    def test_quantum_compare(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["quantum-compare", "--potential", "harmonic:1", "--time", "0.2",
             "--eps-ladder", "4e-3,2e-3", "--grid-min=-10", "--grid-max", "10",
             "--grid-nodes", "200", "--out", "qc.csv"],
        )
        assert rc == 0
        metadata, header, rows = read_csv(tmp_path / "qc.csv")
        assert header == ["eps", "l2_error"]
        assert len(rows) == 2
        assert "fitted-order" in metadata

    def test_uncertainty(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["uncertainty", "--n-states", "5", "--grid-min=-14", "--grid-max", "14",
             "--grid-nodes", "560", "--seed", "2", "--out", "u.csv"],
        )
        assert rc == 0
        metadata, _, rows = read_csv(tmp_path / "u.csv")
        assert float(metadata["min-product"]) >= 0.5 - 1e-6
        gaussian = [r for r in rows if r[0] == "gaussian"][0]
        assert float(gaussian[1]) == pytest.approx(0.5, abs=1e-6)

    def test_roughness(self, tmp_path):
        rc = run_in(
            tmp_path,
            ["roughness", "--eps-ladder", "4e-3,2e-3", "--samples", "20000",
             "--steps", "16", "--seed", "3", "--out", "r.csv"],
        )
        assert rc == 0
        metadata, _, rows = read_csv(tmp_path / "r.csv")
        ratios = [float(v) for v in metadata["ratios"].split(";")]
        assert 0.4 <= ratios[0] <= 0.6

    def test_usage_error_exit_1(self, tmp_path, capsys):
        assert run_in(tmp_path, ["census", "--bogus", "1"]) == 1

    def test_validation_error_exit_1(self, tmp_path, capsys):
        rc = run_in(tmp_path, ["histogram", "--p", "0.5,0.5,", "--out", "x.csv"])
        assert rc == 1
        assert "p" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, key",
        [
            (["simulate-game", "--p", ".5,.5", "--drift", "constant:abc"], "drift"),
            (["simulate-game", "--p", ".5,.5", "--gain", "linear:1,2,3"], "gain"),
            (["simulate-game", "--p", ".5,.5", "--drift", "identity:7"], "drift"),
            (["quantum-propagate", "--potential", "harmonic:abc"], "potential"),
            (["quantum-propagate", "--apodization", "gaussian:x"], "apodization"),
        ],
    )
    def test_malformed_shape_option_exit_1(self, tmp_path, capsys, argv, key):
        assert run_in(tmp_path, argv + ["--out", "x.csv"]) == 1
        assert f": {key}: " in capsys.readouterr().err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["quantum-compare", "--eps-ladder", "3e-3,2e-3"],
             "eps 0.003 does not divide the total time"),
            (["quantum-compare", "--time", "-1"], "total time must be positive"),
            (["simulate-game", "--p", ".5,.5", "--trials", "0"], "trials: expected at least 1, got 0"),
            (["quantum-propagate", "--steps", "0"], "steps: expected at least 1, got 0"),
            (["roughness", "--samples", "0"], "samples: expected at least 1, got 0"),
            (["uncertainty", "--sigma0", "0"], "packet width sigma must be positive, got 0.0"),
            (["roughness", "--eps-ladder", "0"], "every eps must be positive, got [0.0]"),
            (["roughness", "--eps-ladder=1e-3,-1e-3"],
             "every eps must be positive, got [0.001, -0.001]"),
            # the default 21-node grid needs --boundary wrap once an edge node's image leaves it
            (["propagate-game", "--p", ".5,.5", "--steps", "2"],
             "image 11.0 falls outside the grid"),
            (["uncertainty", "--alpha", "0"], "action scale alpha must be positive, got 0.0"),
            (["uncertainty", "--alpha", "-1"], "action scale alpha must be positive, got -1.0"),
            (["quantum-compare", "--eps-ladder", "1e-3"],
             "an order needs at least two distinct eps values, got [0.001]"),
            (["quantum-compare", "--eps-ladder", "1e-3,1e-3"],
             "an order needs at least two distinct eps values, got [0.001, 0.001]"),
            # no residual meets a negative tolerance
            (["identity-check", "--p", ".5,.5", "--gamma", ".2,.2", "--n", "2", "--tol", "-1"],
             "tol: expected at least 0.0, got -1.0"),
            # library refusals print their own message
            (["histogram", "--p", ".5,.6"], "probabilities must sum to 1, got np.float64(1.1)"),
            (["quantum-propagate", "--apodization", "gaussian:-1"], "sigma_y must be positive"),
            (["histogram", "--m", "3", "--p", ".5,.5"], "m: expected 3 probabilities, got 2"),
            (["histogram", "--p", ".5,.5", "--labels", "0,1,2"], "labels: expected 2 values, got 3"),
            (["histogram", "--p", ".5,.5", "--gamma", ".1"], "gamma: expected 2 rates, got 1"),
            (["histogram", "--p", ".5,.5", "--misreads", "0,.1"],
             "misreads: expected 4 entries, got 2"),
            (["histogram"], "provide --p or --m"),
            (["simulate-game", "--p", ".5,.5", "--drift", "cubic:1"],
             "drift: unknown name 'cubic', expected one of identity, constant, linear, quadratic"),
            (["propagate-game", "--p", ".5,.5", "--boundary", "flat"],
             "boundary: expected one of error, wrap, got 'flat'"),
            (["quantum-propagate", "--grid-nodes", "1"],
             "grid needs at least two nodes and grid-max > grid-min"),
        ],
    )
    def test_bad_number_exit_1(self, tmp_path, capsys, argv, message):
        assert run_in(tmp_path, argv + ["--out", "x.csv"]) == 1
        assert capsys.readouterr().err.strip() == f"qal {argv[0]}: {message}"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, key, text",
        [
            (["histogram", "--p", "nan,.5"], "p", "nan,.5"),
            (["quantum-propagate", "--eps", "nan"], "eps", "nan"),
            (["roughness", "--mass", "nan"], "mass", "nan"),
            (["simulate-game", "--p", ".5,.5", "--drift", "linear:nan"], "drift", "nan"),
            (["simulate-game", "--p", ".5,.5", "--x0", "inf"], "x0", "inf"),
            (["identity-check", "--p", ".5,.5", "--gamma", "nan,.2", "--n", "2"],
             "gamma", "nan,.2"),
        ],
    )
    def test_non_finite_number_exit_1(self, tmp_path, capsys, argv, key, text):
        assert run_in(tmp_path, argv + ["--out", "x.csv"]) == 1
        message = f"{key}: expected finite numbers, got {text!r}"
        assert capsys.readouterr().err.strip() == f"qal {argv[0]}: {message}"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            # a uniform channel of m < 2 outcomes: 1/m, or no pair to couple
            (["histogram", "--m", "0"], "m: expected at least 2, got 0"),
            (["identity-check", "--m", "0", "--n", "2"], "m: expected at least 2, got 0"),
            # a negative count would write the Gaussian row alone
            (["uncertainty", "--n-states", "-1"], "n-states: expected at least 0, got -1"),
        ],
    )
    def test_count_below_its_floor_exit_1(self, tmp_path, capsys, argv, message):
        assert run_in(tmp_path, argv + ["--out", "x.csv"]) == 1
        assert capsys.readouterr().err.strip() == f"qal {argv[0]}: {message}"
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize(
        "argv, error",
        [
            # the probe width's square overflows a Python float
            (["uncertainty", "--sigma0", "1e300"], "OverflowError"),
            # the state overflows in the game's second round
            (["simulate-game", "--p", ".5,.5", "--labels", "1e308,-1e308",
              "--rounds", "3", "--trials", "10"], "FloatingPointError"),
            # each squared increment underflows to 0, so their ratio is 0/0
            (["roughness", "--mode", "classical", "--eps-ladder", "1e-200,2e-200"],
             "ZeroDivisionError"),
        ],
    )
    def test_float_error_exit_1(self, tmp_path, capsys, argv, error):
        assert run_in(tmp_path, argv + ["--out", "x.csv"]) == 1
        assert capsys.readouterr().err.startswith(f"qal {argv[0]}: {error}: ")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("cores", CORE_COUNTS)
    def test_threaded_game_overflow_exit_1(self, tmp_path, capsys, monkeypatch, cores):
        # 25 blocks of 9 rounds run on two threads wherever two CPUs are usable
        usable_cores(monkeypatch, cores)
        argv = ["simulate-game", "--p", ".5,.5", "--labels", "1e308,-1e308",
                "--rounds", "9", "--trials", "100000", "--out", "x.csv"]
        assert run_in(tmp_path, argv) == 1
        assert capsys.readouterr().err.startswith("qal simulate-game: FloatingPointError: ")
        assert not (tmp_path / "x.csv").exists()

    @given(st.data())
    @settings(max_examples=25, deadline=None)
    def test_float_errors_refuse_no_identity_check(self, tmp_path_factory, data):
        # a solve of a valid channel certifies or not; it is never refused
        m = data.draw(st.integers(2, 5))
        weights = data.draw(hnp.arrays(float, m, elements=st.floats(0.01, 1.0)))
        gamma = data.draw(hnp.arrays(float, m, elements=st.floats(0.0, 1.0)))
        n = data.draw(st.integers(1, 5))
        cells = [",".join(map(repr, v.tolist())) for v in (weights / weights.sum(), gamma)]
        argv = ["identity-check", "--p", cells[0], "--gamma", cells[1], "--n", str(n)]
        assert run_in(tmp_path_factory.mktemp("id"), argv) in (0, 2)

    def test_removed_reference_flag_exit_1(self, tmp_path, capsys):
        assert run_in(tmp_path, ["quantum-compare", "--refine", "4"]) == 1
        assert "unrecognized arguments: --refine" in capsys.readouterr().err

    def test_compare_without_an_order_to_fit_exit_1(self, tmp_path, capsys):
        argv = ["quantum-compare", "--potential", "free", "--out", "qc.csv"]
        assert run_in(tmp_path, argv) == 1
        assert "exact in time" in capsys.readouterr().err
        assert not (tmp_path / "qc.csv").exists()

    def test_no_command_exit_1(self, tmp_path):
        assert run_in(tmp_path, []) == 1

    def test_one_parser_serves_every_call(self, tmp_path, capsys):
        # the argparse tree is built once a process; reusing it changes no outcome
        assert qal.cli._build_parser() is qal.cli._build_parser()
        outcomes = []
        for _ in range(2):
            usage = run_in(tmp_path, ["census", "--no-such-flag"])
            version = run_in(tmp_path, ["--version"])
            valid = run_in(tmp_path, ["census", "--m", "2", "--n", "3", "--out", "c.csv"])
            _, header, rows = read_csv(tmp_path / "c.csv")
            outcomes.append((usage, version, valid, capsys.readouterr().out, header, rows))
        assert outcomes[0] == outcomes[1]
        assert outcomes[0][:4] == (1, 0, 0, f"qal {qal.__version__}\n")


# a small run of every command in the table
SMALL_ARGV = {
    "histogram": ["--p", ".5,.5", "--gamma", ".1,.3"],
    "census": ["--m", "2", "--n", "2"],
    "identity-check": ["--p", ".5,.5", "--gamma", ".2,.2", "--n", "2"],
    "phase-solve": ["--p", ".5,.5", "--gamma", ".2,.2", "--n", "2"],
    "simulate-game": ["--p", ".5,.5", "--gamma", ".2,.2", "--trials", "100"],
    "propagate-game": ["--p", ".5,.5", "--steps", "2", "--boundary", "wrap"],
    "quantum-propagate": ["--steps", "4", "--grid-nodes", "101"],
    "quantum-compare": ["--time", "0.04", "--eps-ladder", "4e-3,2e-3", "--grid-nodes", "101"],
    "uncertainty": ["--n-states", "2", "--grid-nodes", "101"],
    "roughness": ["--eps-ladder", "4e-3,2e-3", "--samples", "200", "--steps", "4"],
}

PLOT_SCHEMAS = {
    "histogram": {"histogram"},
    "convergence": {"convergence", "roughness"},
    "wavepacket": {"wavepacket"},
}


@pytest.fixture(scope="module")
def command_csvs(tmp_path_factory):
    """Exit code and CSV path of one small run of each command."""
    tmp = tmp_path_factory.mktemp("commands")
    return {
        command: (run_in(tmp, [command, *argv, "--out", f"{command}.csv"]), tmp / f"{command}.csv")
        for command, argv in SMALL_ARGV.items()
    }


class TestCsvCells:
    @given(
        hnp.arrays(
            st.sampled_from([np.int64, np.float64, np.float32, np.bool_]),
            hnp.array_shapes(min_dims=1, max_dims=2, max_side=5),
        )
    )
    @settings(max_examples=200, deadline=None)
    def test_array_cell_formats_each_scalar(self, array):
        # oracle: every element formatted as the numpy scalar it is
        expected = ";".join(qal.cli._format_value(v) for v in array.ravel())
        assert qal.cli._format_value(array) == expected

    def test_booleans_print_lower_case(self):
        assert qal.cli._format_value(np.array([True, False])) == "true;false"
        assert qal.cli._format_value(np.bool_(False)) == "false"
        assert qal.cli._format_value([True, np.bool_(True)]) == "true;true"

    def test_rows_may_be_a_one_shot_iterator(self, tmp_path):
        config = parse_config("census", {"m": 2, "n": 1}, out=str(tmp_path / "c.csv"))
        rows = ([np.arange(k), float(k)] for k in range(3))
        qal.cli.write_csv(config, ["path", "phase"], rows)
        assert read_csv(tmp_path / "c.csv")[1:] == (
            ["path", "phase"], [["", "0.0"], ["0", "1.0"], ["0;1", "2.0"]]
        )


class TestCommandTable:
    @pytest.mark.parametrize("command", list(COMMANDS))
    def test_every_command_writes_its_schema(self, command_csvs, command):
        assert set(SMALL_ARGV) == set(COMMANDS)
        code, path = command_csvs[command]
        assert code == 0
        metadata, header, rows = read_csv(path)
        assert metadata["schema"] == COMMANDS[command].schema
        assert rows
        assert all(len(row) == len(header) for row in rows)

    @pytest.mark.parametrize("kind", sorted(PLOT_SCHEMAS))
    def test_plot_kind_accepts_exactly_its_schemas(self, command_csvs, tmp_path, kind):
        accepted = set()
        for command, (_, path) in command_csvs.items():
            try:
                target = emit_plot_script(str(path), kind, str(tmp_path / f"{command}.py"))
            except UnknownSchema:
                continue
            compile(Path(target).read_text(), target, "exec")
            accepted.add(COMMANDS[command].schema)
        assert accepted == PLOT_SCHEMAS[kind]


class TestReproducibility:
    def test_byte_identical_given_seed(self, tmp_path):
        argv = ["simulate-game", "--p", "0.5,0.5", "--gamma", "0.2,0.2",
                "--labels=-1,1", "--rounds", "3", "--trials", "5000",
                "--seed", "11"]
        assert run_in(tmp_path, argv + ["--out", "a.csv"]) == 0
        assert run_in(tmp_path, argv + ["--out", "b.csv"]) == 0
        a = strip_timestamp((tmp_path / "a.csv").read_text())
        b = strip_timestamp((tmp_path / "b.csv").read_text())
        # metadata echoes the out path implicitly via none; rows must agree
        assert a == b

    def test_seed_changes_output(self, tmp_path):
        argv = ["simulate-game", "--p", "0.5,0.5", "--gamma", "0.2,0.2",
                "--labels=-1,1", "--rounds", "3", "--trials", "5000"]
        assert run_in(tmp_path, argv + ["--seed", "1", "--out", "a.csv"]) == 0
        assert run_in(tmp_path, argv + ["--seed", "2", "--out", "b.csv"]) == 0
        a = strip_timestamp((tmp_path / "a.csv").read_text())
        b = strip_timestamp((tmp_path / "b.csv").read_text())
        assert a != b


class TestPlotScripts:
    def test_histogram_script(self, tmp_path):
        run_in(tmp_path, ["histogram", "--p", "0.5,0.5", "--gamma", "0.1,0.3", "--out", "h.csv"])
        target = emit_plot_script(str(tmp_path / "h.csv"), "histogram")
        text = open(target).read()
        assert "matplotlib" in text and "bar" in text

    def test_convergence_script_accepts_roughness(self, tmp_path):
        run_in(tmp_path, ["roughness", "--eps-ladder", "4e-3,2e-3",
                          "--samples", "2000", "--steps", "8", "--out", "r.csv"])
        target = emit_plot_script(str(tmp_path / "r.csv"), "convergence")
        assert "loglog" in open(target).read()

    def test_wavepacket_script(self, tmp_path):
        run_in(tmp_path, ["quantum-propagate", "--steps", "10", "--grid-nodes", "100",
                          "--grid-min=-10", "--grid-max", "10", "--out", "q.csv"])
        target = emit_plot_script(str(tmp_path / "q.csv"), "wavepacket")
        assert "density" in open(target).read()

    def test_unknown_schema_rejected(self, tmp_path):
        run_in(tmp_path, ["census", "--m", "2", "--n", "1", "--out", "c.csv"])
        with pytest.raises(UnknownSchema):
            emit_plot_script(str(tmp_path / "c.csv"), "histogram")

    def test_untagged_csv_rejected(self, tmp_path):
        rogue = tmp_path / "rogue.csv"
        rogue.write_text("a,b\n1,2\n")
        with pytest.raises(UnknownSchema):
            emit_plot_script(str(rogue), "histogram")

    def test_plot_script_subcommand(self, tmp_path):
        run_in(tmp_path, ["histogram", "--p", "0.5,0.5", "--out", "h.csv"])
        rc = run_in(tmp_path, ["plot-script", "h.csv", "--kind", "histogram"])
        assert rc == 0
        assert (tmp_path / "h.histogram.py").exists()
