"""End-to-end command-line behavior and exit codes."""

import math
import os
import sys
import threading
from dataclasses import fields, replace

import numpy as np
import pytest

from testkit import (
    classify_ksets_ref,
    polyline_points_ref,
    rate_fit_tail_ref,
    trace_csv_string,
    verify_H1_ref,
    verify_H2_ref,
)
from nmdesc import cli, problems
from nmdesc.cli import UsageError, _solver_config, main, parse_config, solve
from nmdesc.diagnostics import TooShortToFit, evolution_curve, fit_rate
from nmdesc.palm import PalmConfig
from nmdesc.pg import PgConfig
from nmdesc.svgplot import line_plot_svg
from nmdesc.trace import Trace, read_trace_csv, write_trace_csv


def read_bytes(path):
    with open(path, "rb") as f:
        return f.read()


def write_config(path, text):
    path.write_text(text)
    return str(path)


LOGREG_RUN = """\
# small classification instance
[problem]
kind = logreg
n = 50
p = 100
s = 5
seed = 12
lam = 0.1

[solver]
name = pgenls
max_iters = 800

[output]
trace = {trace}
"""


MC_RUN = """\
[problem]
kind = mc
n1 = 20
n2 = 20
rstar = 2
samples = 150
seed = 3

[solver]
name = palmenls
max_iters = 5

[output]
trace = {trace}
"""


class TestParseConfig:
    def test_sections_and_comments(self):
        cfg = parse_config("# top\n[a]\nx = 1\n\n[b]\ny = inf\n")
        assert cfg == {"a": {"x": "1"}, "b": {"y": "inf"}}

    def test_key_outside_section(self):
        with pytest.raises(UsageError):
            parse_config("x = 1\n")

    def test_missing_equals(self):
        with pytest.raises(UsageError):
            parse_config("[a]\nnonsense\n")


class TestSolverOptions:
    @pytest.mark.parametrize("cls", [PgConfig, PalmConfig])
    def test_every_field_parses_to_its_annotated_type(self, cls):
        # options are parsed by calling the field's type: only int and float
        # parse that way (bool("0") is True), so any other type fails here
        samples = {int: 7, float: 0.25}
        for f in fields(cls):
            cfg = _solver_config(cls, {f.name: str(samples[f.type])})
            value = getattr(cfg, f.name)
            assert type(value) is f.type and value == samples[f.type], f.name
            if f.type is float:
                for text, inf in (("inf", math.inf), ("Infinity", math.inf),
                                  ("-inf", -math.inf)):
                    assert getattr(_solver_config(cls, {f.name: text}), f.name) == inf

    def test_unknown_option_rejected(self):
        with pytest.raises(UsageError):
            _solver_config(PgConfig, {"tau1_0": "1.0"})

    def test_fractional_count_exits_2(self, tmp_path, capsys):
        text = LOGREG_RUN.format(trace=tmp_path / "t.csv").replace(
            "max_iters = 800", "max_iters = 2.5")
        assert main(["run", write_config(tmp_path / "c.cfg", text)]) == 2
        assert "2.5" in capsys.readouterr().err

    # the window memory m, and the backtrack cap, which `validated()`
    # checks next to it; and PALMe's extrapolation cap, which it checks
    # with the line-search method's rule (it once extrapolated with a
    # negative weight and exited 0)
    @pytest.mark.parametrize("name, option, value, message", [
        *(pytest.param(name, option, "-1", f"{option} must be nonnegative",
                       id=name if option == "m" else f"{name}-{option}")
          for option in ("m", "max_backtracks") for name in ("pgenls", "palmenls")),
        *(pytest.param("palme", "beta_max", value, "beta_max must lie in [0, inf)",
                       id=f"palme-beta_max-{value}") for value in ("-0.5", "nan"))])
    def test_negative_memory_exits_2(self, tmp_path, capsys, name, option, value,
                                     message):
        text = MC_RUN if name.startswith("palm") else LOGREG_RUN
        text = text.format(trace=tmp_path / "t.csv").replace(
            "name = pgenls", f"name = {name}").replace(
            "name = palmenls", f"name = {name}").replace(
            "[output]", f"{option} = {value}\n\n[output]")
        assert main(["run", write_config(tmp_path / "c.cfg", text)]) == 2
        assert message in capsys.readouterr().err

    # a first step size that is NaN, zero or negative (a NaN tau1_0 once
    # stopped palmenls at "tolerance" with U = V = 0, and a NaN tau0 made
    # pgenls exit 3 after 60 backtracks), and a negative iteration count,
    # which every run function's loop rejects (it once ran 0 iterations and
    # exited 0)
    @pytest.mark.parametrize("name, option, value, message", [
        *(pytest.param("pgenls", "tau0", value, "tau0 must be positive",
                       id=f"pgenls-tau0-{value}") for value in ("nan", "0", "-1")),
        *(pytest.param("palmenls", option, value, "tau1_0 and tau2_0 must be positive",
                       id=f"palmenls-{option}-{value}")
          for option in ("tau1_0", "tau2_0") for value in ("nan", "0", "-1")),
        *(pytest.param(name, "max_iters", "-5", "max_iters must be nonnegative",
                       id=f"{name}-max_iters") for name in ("pgenls", "fista",
                                                             "palmenls", "palm")),
        # a negative or NaN stop_tol turned the tolerance rule off (pgenls
        # and palmenls ran to max_iters and exited 0), a NaN time_budget the
        # budget, and a negative one stopped after one iteration
        *(pytest.param(name, option, value, f"{option} must lie in [0, inf]",
                       id=f"{name}-{option}-{value}")
          for name in ("pgenls", "fista", "palmenls", "palm")
          for option in ("stop_tol", "time_budget") for value in ("-1", "nan")),
    ])
    def test_bad_start_or_count_exits_2(self, tmp_path, capsys, name, option, value,
                                        message):
        text = MC_RUN if name.startswith("palm") else LOGREG_RUN
        lines = [line for line in text.format(trace=tmp_path / "t.csv").splitlines()
                 if not line.startswith(f"{option} =")]
        text = "\n".join(lines).replace("name = pgenls", f"name = {name}").replace(
            "name = palmenls", f"name = {name}").replace(
            "[output]", f"{option} = {value}\n\n[output]")
        assert main(["run", write_config(tmp_path / "c.cfg", text)]) == 2
        assert message in capsys.readouterr().err

    def test_beta_rule_is_an_unknown_option(self, tmp_path, capsys):
        text = LOGREG_RUN.format(trace=tmp_path / "t.csv").replace(
            "max_iters = 800", "max_iters = 800\nbeta_rule = constant")
        assert main(["run", write_config(tmp_path / "c.cfg", text)]) == 2
        assert "unknown solver option 'beta_rule'" in capsys.readouterr().err


class TestGen:
    def test_logreg_deterministic_files(self, tmp_path, capsys):
        args = ["gen", "logreg", "--n", "10", "--p", "15", "--s", "3",
                "--seed", "4"]
        a, b = str(tmp_path / "a.txt"), str(tmp_path / "b.txt")
        assert main(args + ["--out", a]) == 0
        assert main(args + ["--out", b]) == 0
        assert read_bytes(a) == read_bytes(b)
        out = capsys.readouterr().out
        assert "||A~||=" in out

    def test_mc_observation_count(self, tmp_path, capsys):
        out = str(tmp_path / "mc.txt")
        assert main(["gen", "mc", "--n1", "12", "--n2", "12", "--rstar", "2",
                     "--samples", "50", "--seed", "1", "--out", out]) == 0
        from nmdesc.problems import load_instance

        inst = load_instance(out)
        assert inst.num_obs <= 50
        assert "|Omega|=" in capsys.readouterr().out

    @pytest.mark.parametrize("flag", ["--samples", "--rstar", "--r"])
    def test_mc_size_below_one_exits_2(self, tmp_path, capsys, flag):
        args = {"--n1": "12", "--n2": "12", "--rstar": "2", "--samples": "50"}
        args[flag] = "0"
        argv = ["gen", "mc", "--seed", "1", "--out", str(tmp_path / "mc.txt")]
        assert main(argv + [tok for kv in args.items() for tok in kv]) == 2
        assert "invalid generator parameters" in capsys.readouterr().err

    # each was written with exit 0, and `run` then exited 2 ("obs has a
    # value that is not finite", a tau_min message), or, for mu = -1,
    # solved an objective unbounded below with exit 0
    @pytest.mark.parametrize("family, option, value", [
        *(("mc", "--sigma", value) for value in ("inf", "nan")),
        ("mc", "--lam", "nan"), ("mc", "--mu", "nan"),
        ("logreg", "--mu", "nan"), ("logreg", "--mu", "-1")])
    def test_parameter_without_minimizer_exits_2(self, tmp_path, capsys, family,
                                                 option, value):
        sizes = (["--n1", "12", "--n2", "12", "--rstar", "2", "--samples", "50"]
                 if family == "mc" else ["--n", "10", "--p", "15", "--s", "3"])
        out = tmp_path / "inst.txt"
        assert main(["gen", family, *sizes, "--seed", "1", option, value,
                     "--out", str(out)]) == 2
        assert f"{option[2:]} must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_run_with_rank_zero_exits_2(self, tmp_path, capsys):
        text = MC_RUN.format(trace=tmp_path / "t.csv").replace(
            "seed = 3", "seed = 3\nr = 0")
        assert main(["run", write_config(tmp_path / "c.cfg", text)]) == 2
        assert "invalid generator parameters" in capsys.readouterr().err


class TestRun:
    def test_replay_is_byte_deterministic(self, tmp_path, capsys):
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        c1 = write_config(tmp_path / "c1.cfg",
                          LOGREG_RUN.format(trace=t1))
        c2 = write_config(tmp_path / "c2.cfg",
                          LOGREG_RUN.format(trace=t2))
        assert main(["run", c1, "--replay"]) == 0
        assert main(["run", c2, "--replay"]) == 0
        assert read_bytes(t1) == read_bytes(t2)
        out = capsys.readouterr().out
        assert "solver: pgenls" in out
        assert "support size:" in out

    def test_converges_with_sparse_result(self, tmp_path, capsys):
        # the ridge weight keeps the minimizer attained so the witness
        # tolerance is reachable
        trace = tmp_path / "t.csv"
        text = LOGREG_RUN.format(trace=trace).replace(
            "max_iters = 800", "max_iters = 8000").replace(
            "lam = 0.1", "lam = 0.1\nmu = 1e-4")
        cfg = write_config(tmp_path / "c.cfg", text)
        assert main(["run", cfg]) == 0
        out = capsys.readouterr().out
        assert "stop reason: tolerance" in out
        support = int(out.split("support size:")[1].split()[0])
        assert 0 <= support <= 100

    def test_seed_env_override(self, tmp_path, monkeypatch):
        t1, t2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
        c1 = write_config(tmp_path / "c1.cfg", LOGREG_RUN.format(trace=t1))
        c2 = write_config(tmp_path / "c2.cfg", LOGREG_RUN.format(trace=t2))
        assert main(["run", c1, "--replay"]) == 0
        monkeypatch.setenv("NMDESC_SEED", "99")
        assert main(["run", c2, "--replay"]) == 0
        assert read_bytes(t1) != read_bytes(t2)

    def test_unknown_solver_is_usage_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg",
            "[problem]\nkind = logreg\nn = 5\np = 8\ns = 2\nseed = 0\n"
            "[solver]\nname = sgd\n",
        )
        assert main(["run", cfg]) == 2
        assert "error:" in capsys.readouterr().err

    def test_missing_instance_file_is_io_error(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg",
            "[problem]\ninstance = /nonexistent/inst.txt\n"
            "[solver]\nname = pgenls\n",
        )
        assert main(["run", cfg]) == 4

    @pytest.mark.parametrize("kind, keys, missing", [
        ("logreg", "p = 8\ns = 2\n", "n"),
        ("mc", "n1 = 6\nn2 = 6\nrstar = 1\n", "samples"),
    ])
    def test_missing_problem_key_is_usage_error(self, tmp_path, capsys, kind, keys,
                                                missing):
        cfg = write_config(
            tmp_path / "c.cfg",
            f"[problem]\nkind = {kind}\n{keys}seed = 0\n[solver]\nname = pgenls\n",
        )
        assert main(["run", cfg]) == 2
        assert f"needs {missing} = " in capsys.readouterr().err

    @pytest.mark.parametrize("cut, message", [
        (" p=8", "no p= field"), (None, "empty instance header")])
    def test_instance_header_missing_field_is_usage_error(self, tmp_path, capsys, cut,
                                                          message):
        inst = tmp_path / "inst.txt"
        assert main(["gen", "logreg", "--n", "5", "--p", "8", "--s", "2",
                     "--seed", "1", "--out", str(inst)]) == 0
        lines = inst.read_text().splitlines(keepends=True)
        lines[0] = lines[0].replace(cut, "") if cut else "\n"
        inst.write_text("".join(lines))
        cfg = write_config(tmp_path / "c.cfg",
                           f"[problem]\ninstance = {inst}\n[solver]\nname = pgenls\n")
        capsys.readouterr()
        assert main(["run", cfg]) == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("fault, message", [
        pytest.param(fault, message, id=fault.replace(" ", "-")) for fault, message in (
            ("mc row out of range", "rows has an index outside [0, 6)"),
            ("mc obs short", "obs has shape (8,), expected (9,)"),
            ("mc pair repeated", "Omega repeats a (row, col) pair"),
            ("logreg p over columns", "A has shape (5, 8), expected (5, 12)"),
            ("logreg label 0.5", "b has a label other than -1 or +1"),
            ("logreg nan in A", "A has a value that is not finite"),
            ("mc inf in obs", "obs has a value that is not finite"),
        )])
    def test_malformed_instance_file_is_usage_error(self, tmp_path, capsys, fault,
                                                    message):
        # before the loader checked its arrays, the first two ended in an
        # IndexError traceback and the next two solved silently (a repeated
        # pair keeps one of its two residuals in the dense oracle form);
        # before it checked their values, a label of 0.5 solved, a NaN in A
        # failed in an eigen-solve naming no field, and an inf observation
        # exited 3 at the backtrack cap
        inst = tmp_path / "inst.txt"
        if fault.startswith("mc"):
            gen, solver = ["mc", "--n1", "6", "--n2", "5", "--rstar", "1",
                           "--samples", "12"], "palmenls"
        else:
            gen, solver = ["logreg", "--n", "5", "--p", "8", "--s", "2"], "pgenls"
        assert main(["gen", *gen, "--seed", "1", "--out", str(inst)]) == 0
        lines = inst.read_text().splitlines()
        rows, cols, obs = (line.split() for line in lines[-3:])
        if fault == "mc row out of range":
            rows[0] = "6"
        elif fault == "mc obs short":
            obs.pop()
        elif fault == "mc pair repeated":
            for tokens in (rows, cols, obs):
                tokens.append(tokens[0])
        elif fault == "mc inf in obs":
            obs[0] = "inf"
        elif fault == "logreg label 0.5":
            lines[-3] = " ".join(["0.5", *lines[-3].split()[1:]])
        elif fault == "logreg nan in A":
            lines[1] = " ".join(["nan", *lines[1].split()[1:]])
        else:
            lines[0] = lines[0].replace(" p=8 ", " p=12 ")
        if fault.startswith("mc"):
            lines[-3:] = (" ".join(v) for v in (rows, cols, obs))
        inst.write_text("\n".join(lines) + "\n")
        cfg = write_config(tmp_path / "c.cfg",
                           f"[problem]\ninstance = {inst}\n[solver]\nname = {solver}\n"
                           f"[output]\ntrace = {tmp_path / 't.csv'}\n")
        capsys.readouterr()
        assert main(["run", cfg]) == 2
        assert message in capsys.readouterr().err

    def test_backtrack_cap_writes_partial_trace(self, tmp_path, capsys):
        trace = tmp_path / "partial.csv"
        cfg = write_config(
            tmp_path / "c.cfg",
            "[problem]\nkind = logreg\nn = 30\np = 40\ns = 4\nseed = 3\n"
            "[solver]\nname = pgenls\nmax_backtracks = 0\ntau0 = 1e6\n"
            f"[output]\ntrace = {trace}\n",
        )
        code = main(["run", cfg, "--replay"])
        assert code == 3
        err = capsys.readouterr().err
        assert "solver failure" in err
        assert trace.exists()


# pgls on the desk logistic instance 103: its monotone line search stalls
# on rounding (see tests/test_pg.py)
STALLING = """\
[problem]
kind = logreg
n = 200
p = 2000
s = 20
seed = 103
lam = 1.0
mu = 1e-3
"""


class TestStall:
    def test_run_reports_stall_and_exits_zero(self, tmp_path, capsys):
        trace = tmp_path / "stalled.csv"
        cfg = write_config(
            tmp_path / "c.cfg",
            STALLING + "[solver]\nname = pgls\nstop_tol = 1e-6\nmax_iters = 20000\n"
            f"[output]\ntrace = {trace}\n",
        )
        assert main(["run", cfg, "--replay"]) == 0
        assert "stop reason: stalled" in capsys.readouterr().out
        assert len(read_trace_csv(str(trace))) > 100

    def test_bench_keeps_a_stalled_trial(self, tmp_path, capsys):
        out_dir = tmp_path / "b"
        solver = "stop_tol = 1e-6\nmax_iters = 20000\n"
        cfg = write_config(
            tmp_path / "c.cfg",
            STALLING + f"[bench]\nsolvers = pgls,pgnls\ntrials = 1\nout_dir = {out_dir}\n"
            f"[solver.pgls]\n{solver}[solver.pgnls]\n{solver}",
        )
        assert main(["bench", cfg, "--replay"]) == 0
        assert "failed" not in capsys.readouterr().err
        assert (out_dir / "trace_pgls_trial0.csv").exists()
        with open(out_dir / "bench_e.csv") as f:
            assert f.readline().strip() == "t,pgls,pgnls"


BENCH = """\
[problem]
kind = logreg
n = 40
p = 60
s = 4
seed = 5

[bench]
solvers = pgenls,pgnls,fista
trials = 2
grid_points = 30
out_dir = {out_dir}

[solver.pgenls]
max_iters = 150
stop_tol = 0

[solver.pgnls]
max_iters = 150
stop_tol = 0

[solver.fista]
max_iters = 150
stop_tol = 0
"""


# pgenls and pgnls hit the backtrack cap at once (no backtracks allowed
# and a first step far past the barrier); fista alone is left
BENCH_TWO_FAILING = BENCH.replace(
    "[solver.pgenls]\n", "[solver.pgenls]\nmax_backtracks = 0\ntau0 = 1e6\n"
).replace(
    "[solver.pgnls]\n", "[solver.pgnls]\nmax_backtracks = 0\ntau0 = 1e6\n"
)


class TestSolverFailure:
    def test_bench_records_failed_solvers(self, tmp_path, capsys):
        cfg = write_config(tmp_path / "c.cfg",
                           BENCH_TWO_FAILING.format(out_dir=tmp_path / "b"))
        assert main(["bench", cfg]) == 3
        err = capsys.readouterr().err
        for name in ("pgenls", "pgnls"):
            for t in (0, 1):
                assert f"note: solver {name} failed trial {t}: iteration 0: " in err
        assert "note: solver pgenls failed all trials" in err
        assert "fewer than 2 solvers" in err


class TestBenchFailureLines:
    def test_each_failed_trial_is_reported(self, tmp_path, capsys, monkeypatch):
        # pgnls fails trial 1 only: bench keeps its other trial and says
        # which trial failed and why, once, on stderr
        from nmdesc.nls import BacktrackCapError

        solve_ = cli.solve

        def failing(name, instance, options, seed, lam=None):
            if name == "pgnls" and seed == 6:
                raise BacktrackCapError(7, 60, None)
            return solve_(name, instance, options, seed, lam=lam)

        monkeypatch.setattr(cli, "solve", failing)
        out_dir = tmp_path / "b"
        cfg = write_config(tmp_path / "c.cfg", BENCH.format(out_dir=out_dir))
        assert main(["bench", cfg, "--replay"]) == 0
        err = capsys.readouterr().err
        assert err.splitlines() == [
            "note: solver pgnls failed trial 1: "
            "iteration 7: line search exceeded 60 backtracks"]
        assert (out_dir / "trace_pgnls_trial0.csv").exists()
        assert not (out_dir / "trace_pgnls_trial1.csv").exists()
        with open(out_dir / "bench_e.csv") as f:
            assert f.readline().strip() == "t,pgenls,pgnls,fista"


class TestStepInit:
    def test_solve_reuses_the_problem_norm(self, monkeypatch):
        calls = []

        def counted(*args, **kwargs):
            calls.append(args)
            raise AssertionError("spectral_norm called")

        for name, mod in list(sys.modules.items()):
            if name.split(".")[0] == "nmdesc" and hasattr(mod, "spectral_norm"):
                monkeypatch.setattr(mod, "spectral_norm", counted)
        inst = problems.gen_logreg(n=30, p=50, s=3, seed=2)
        result = solve("pgenls", inst, {"max_iters": "5"}, seed=2)
        assert calls == []
        norm = np.linalg.norm(inst.A_tilde, 2)
        assert result.extras["config"].tau0 == pytest.approx(10.0 / norm, rel=1e-13)


# A start factor whose top two singular values nearly coincide (3.5945 and
# 3.5930): power iteration for its modulus did not converge
MC_NEAR_EQUAL_BENCH = """\
[problem]
kind = mc
n1 = 40
n2 = 40
rstar = 2
samples = 600
sigma = 0.1
seed = 4023173762

[bench]
solvers = palmenls,palmnls,palmels,palmls,palm,palme
trials = 1
out_dir = {out_dir}
""" + "".join(f"\n[solver.{name}]\nmax_iters = 60\n"
              for name in ("palmenls", "palmnls", "palmels", "palmls",
                           "palm", "palme"))


class TestBench:
    def test_mc_start_with_near_equal_singular_values(self, tmp_path, capsys):
        out = tmp_path / "b"
        cfg = write_config(tmp_path / "c.cfg",
                           MC_NEAR_EQUAL_BENCH.format(out_dir=out))
        assert main(["bench", cfg, "--replay"]) == 0
        for name in ("palmenls", "palmnls", "palmels", "palmls", "palm", "palme"):
            records = read_trace_csv(str(out / f"trace_{name}_trial0.csv"))
            assert [r.k for r in records] == list(range(61))

    def test_outputs_and_replay_determinism(self, tmp_path, capsys):
        d1, d2 = tmp_path / "b1", tmp_path / "b2"
        c1 = write_config(tmp_path / "c1.cfg", BENCH.format(out_dir=d1))
        c2 = write_config(tmp_path / "c2.cfg", BENCH.format(out_dir=d2))
        assert main(["bench", c1, "--replay"]) == 0
        assert main(["bench", c2, "--replay"]) == 0
        assert read_bytes(d1 / "bench_e.csv") == read_bytes(d2 / "bench_e.csv")
        traces = sorted(os.listdir(d1))
        assert traces == sorted(os.listdir(d2))
        for name in traces:
            if name.startswith("trace_"):
                assert read_bytes(d1 / name) == read_bytes(d2 / name), name
        assert (d1 / "bench_e.svg").exists()
        assert (d1 / "trace_pgenls_trial0.csv").exists()
        assert (d1 / "trace_fista_trial1.csv").exists()
        with open(d1 / "bench_e.csv") as f:
            header = f.readline().strip().split(",")
            assert header == ["t", "pgenls", "pgnls", "fista"]
            for line in f:
                values = [float(v) for v in line.strip().split(",")[1:]]
                assert all(0.0 <= v <= 1.0 for v in values)

    def test_bench_e_is_the_mean_over_trials(self, tmp_path, capsys):
        out = tmp_path / "b"
        cfg = write_config(tmp_path / "c.cfg", BENCH.format(out_dir=out))
        assert main(["bench", cfg, "--replay"]) == 0
        names = ["pgenls", "pgnls", "fista"]
        trials = []
        for t in (0, 1):
            traces = {}
            for name in names:
                trace = read_trace_csv(str(out / f"trace_{name}_trial{t}.csv"))
                traces[name] = trace.replace(time_s=trace.column("k").astype(np.float64))
            trials.append(traces)
        t_max = max(tr.column("time_s")[-1] for traces in trials for tr in traces.values())
        grid = np.linspace(0.0, t_max, 30)
        curves = [evolution_curve(traces, grid) for traces in trials]
        with open(out / "bench_e.csv") as f:
            assert f.readline().strip() == "t," + ",".join(names)
            rows = [line.strip().split(",") for line in f]
        assert len(rows) == 30
        for j, name in enumerate(names, start=1):
            mean = (curves[0][name] + curves[1][name]) / 2.0
            assert not np.array_equal(curves[0][name], curves[1][name])
            assert [row[j] for row in rows] == [format(v, ".17g") for v in mean.tolist()]

    def test_single_solver_rejected(self, tmp_path, capsys):
        cfg = write_config(
            tmp_path / "c.cfg",
            "[problem]\nkind = logreg\nn = 10\np = 10\ns = 2\nseed = 0\n"
            "[bench]\nsolvers = pgenls\n",
        )
        assert main(["bench", cfg]) == 2

    @pytest.mark.parametrize("points", [0, 1])
    def test_too_few_grid_points_rejected_before_solving(self, tmp_path, capsys,
                                                         points):
        out = tmp_path / "b"
        text = BENCH.format(out_dir=out).replace("grid_points = 30",
                                                 f"grid_points = {points}")
        assert main(["bench", write_config(tmp_path / "c.cfg", text)]) == 2
        assert "grid_points" in capsys.readouterr().err
        assert not out.exists()

    def test_trials_run_on_the_calling_thread(self, tmp_path, capsys, monkeypatch):
        threads = []
        trial = cli._bench_trial

        def recording(*args):
            threads.append(threading.current_thread())
            return trial(*args)

        monkeypatch.setattr(cli, "_bench_trial", recording)
        cfg = write_config(tmp_path / "c.cfg", BENCH.format(out_dir=tmp_path / "b"))
        assert main(["bench", cfg, "--jobs", "1"]) == 0
        assert threads == [threading.main_thread()] * 2

    @pytest.mark.parametrize("jobs", ["0", "-1", "2"])
    def test_jobs_other_than_one_rejected_before_solving(self, tmp_path, capsys, jobs):
        out = tmp_path / "b"
        cfg = write_config(tmp_path / "c.cfg", BENCH.format(out_dir=out))
        assert main(["bench", cfg, "--jobs", jobs]) == 2
        assert "--jobs" in capsys.readouterr().err
        assert not out.exists()


@pytest.fixture(scope="module")
def trace_path(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("diag")
    trace = tmp / "trace.csv"
    cfg = write_config(tmp / "c.cfg", LOGREG_RUN.format(trace=trace))
    assert main(["run", cfg, "--replay"]) == 0
    return trace


class TestDiagAndRates:
    def test_diag_outputs(self, trace_path, tmp_path, capsys):
        prefix = str(tmp_path / "d")
        assert main(["diag", str(trace_path), "--b", "1e9",
                     "--out-prefix", prefix]) == 0
        out = capsys.readouterr().out
        assert "H1 " in out and "pass" in out
        assert "H2 " in out
        assert "|K1|=" in out
        assert os.path.exists(prefix + "_ksets.csv")
        assert os.path.exists(prefix + "_partial_sums.svg")

    # a constant that empties its check (H1 or H2 once printed "pass" on
    # every trace, with exit 0) exits 2 before any verdict is printed
    @pytest.mark.parametrize("option, value", [
        (option, value) for option in ("--a", "--b") for value in ("nan", "inf", "-1")])
    def test_diag_constant_that_empties_a_check_exits_2(self, trace_path, tmp_path,
                                                        capsys, option, value):
        prefix = str(tmp_path / "d")
        assert main(["diag", str(trace_path), option, value,
                     "--out-prefix", prefix]) == 2
        captured = capsys.readouterr()
        assert f"{option[2:]} must lie in [0, inf)" in captured.err
        assert captured.out == ""
        assert not os.path.exists(prefix + "_ksets.csv")

    def test_diag_without_witness_column(self, trace_path, tmp_path, capsys):
        # strip the witness column to simulate a degraded trace
        lines = trace_path.read_text().splitlines()
        header = lines[1].split(",")
        idx = header.index("witness_norm")
        degraded = [lines[0]] + [
            ",".join(v for i, v in enumerate(line.split(",")) if i != idx)
            for line in lines[1:]
        ]
        path = tmp_path / "nowitness.csv"
        path.write_text("\n".join(degraded) + "\n")
        prefix = str(tmp_path / "d2")
        assert main(["diag", str(path), "--b", "1e9",
                     "--out-prefix", prefix]) == 0
        captured = capsys.readouterr()
        assert "no witness column" in captured.err
        assert "H2" not in captured.out

    @pytest.mark.parametrize("flagged_input", [False, True])
    def test_diag_ksets_csv_matches_copy_reference(self, trace_path, tmp_path,
                                                   capsys, flagged_input):
        src = str(trace_path)
        if flagged_input:
            # a trace that already carries K-set flags, reclassified
            assert main(["diag", src, "--out-prefix", str(tmp_path / "pre")]) == 0
            src = str(tmp_path / "pre_ksets.csv")
        prefix = str(tmp_path / "d")
        assert main(["diag", src, "--theta", "0.3", "--out-prefix", prefix]) == 0
        records = list(read_trace_csv(src))
        flags, _, _ = classify_ksets_ref(records, a=0.5e-5, theta=0.3, m=5)
        reference = [
            replace(r, in_K1=flags[r.k][0], in_K2=flags[r.k][1], in_K31=flags[r.k][2])
            if r.k in flags else r
            for r in records
        ]
        assert any(r.in_K1 or r.in_K2 or r.in_K31 for r in reference)
        ref_path = tmp_path / "ref.csv"
        write_trace_csv(str(ref_path), Trace(reference))
        assert read_bytes(prefix + "_ksets.csv") == read_bytes(ref_path)

    @pytest.mark.parametrize("witness", [True, False])
    @pytest.mark.parametrize("blank_lines", [False, True])
    def test_diag_ksets_csv_is_the_flagged_trace_rewritten(
            self, trace_path, tmp_path, capsys, witness, blank_lines):
        # what `write_trace_csv` makes of the flagged trace: the full
        # header, `nan` witnesses for a trace without the column, no blanks
        lines = trace_path.read_text().splitlines()
        if not witness:
            idx = lines[1].split(",").index("witness_norm")
            lines = [lines[0]] + [",".join(v for i, v in enumerate(line.split(","))
                                           if i != idx) for line in lines[1:]]
        if blank_lines:
            lines = lines[:2] + [""] + lines[2:5] + ["", ""] + lines[5:] + [""]
        src = tmp_path / "src.csv"
        src.write_text("\n".join(lines) + "\n")
        prefix = str(tmp_path / "d")
        assert main(["diag", str(src), "--out-prefix", prefix]) == 0
        records = list(read_trace_csv(str(src)))
        flags, _, _ = classify_ksets_ref(records, a=0.5e-5, theta=0.5, m=5)
        flagged = [replace(r, in_K1=flags[r.k][0], in_K2=flags[r.k][1],
                           in_K31=flags[r.k][2]) if r.k in flags else r
                   for r in records]
        expected = trace_csv_string(Trace(flagged))
        assert ("nan" in expected) != witness
        assert read_bytes(prefix + "_ksets.csv").decode() == expected
        capsys.readouterr()

    def test_diag_keeps_the_text_of_hand_edited_fields(self, trace_path, tmp_path,
                                                       capsys):
        # the same values written another way: `0.0` for the replay time
        # `0`, a zero-padded k and the shortest repr of an objective
        lines = trace_path.read_text().splitlines()
        row = lines[3].split(",")
        edited = ["0" + row[0], "0.0", repr(float(row[2]))] + row[3:]
        assert edited[:3] != row[:3]
        src = tmp_path / "edited.csv"
        src.write_text("\n".join(lines[:3] + [",".join(edited)] + lines[4:]) + "\n")
        assert main(["diag", str(trace_path), "--out-prefix", str(tmp_path / "a")]) == 0
        assert main(["diag", str(src), "--out-prefix", str(tmp_path / "b")]) == 0
        want = read_bytes(str(tmp_path / "a_ksets.csv")).decode().splitlines()
        got = read_bytes(str(tmp_path / "b_ksets.csv")).decode().splitlines()
        assert got[:3] == want[:3] and got[4:] == want[4:]
        assert got[3].split(",") == edited[:11] + want[3].split(",")[11:]
        capsys.readouterr()

    def test_diag_flags_rows_by_k(self, tmp_path, capsys):
        # rows numbered from 3: a row takes the flags of the step whose
        # position equals its k; rows with k past the last step keep theirs
        records = [r for r in read_trace_csv(str(self.short_trace(tmp_path)))]
        shifted = [replace(r, k=r.k + 3, in_K2=True) for r in records]
        src = tmp_path / "shifted.csv"
        write_trace_csv(str(src), Trace(shifted))
        prefix = str(tmp_path / "s")
        assert main(["diag", str(src), "--m", "2", "--out-prefix", prefix]) == 0
        flags, _, _ = classify_ksets_ref(shifted, a=0.5e-5, theta=0.5, m=2)
        out = list(read_trace_csv(prefix + "_ksets.csv"))
        for r in out:
            if r.k in flags:
                assert (r.in_K1, r.in_K2, r.in_K31) == flags[r.k]
            else:
                assert r.in_K2 and r.k >= len(out)
        capsys.readouterr()

    @staticmethod
    def short_trace(tmp_path):
        path = tmp_path / "short.csv"
        inst = problems.gen_logreg(n=30, p=60, s=3, seed=5)
        write_trace_csv(str(path), solve("pgenls", inst, {"max_iters": "25"}, seed=5).records)
        return path

    def test_rates_linear_fit(self, trace_path, capsys):
        assert main(["rates", str(trace_path)]) == 0
        out = capsys.readouterr().out
        assert "linear fit: rho=" in out

    @pytest.mark.filterwarnings("ignore:truncating gap series")
    @pytest.mark.parametrize("name, trial_seed, n_iters", [
        # every line-search solver converges in one step on this instance
        ("pgenls", 4152136657, None),
        ("pgls", 4152136657, None),
        # the logistic bench of the benchmark's batch workload, trial 1:
        # FISTA's objective dips below its final value early in the tail
        ("fista", 1, 300),
    ])
    def test_rates_too_short_to_fit(self, tmp_path, capsys, name, trial_seed, n_iters):
        inst = problems.gen_logreg(n=60, p=300, s=5, seed=trial_seed, lam=1.0, mu=1e-3)
        options = {"stop_tol": "1e-6"}
        if n_iters:
            options["max_iters"] = str(n_iters)
        path = tmp_path / "t.csv"
        records = solve(name, inst, options, seed=trial_seed).records
        write_trace_csv(str(path), records)
        with pytest.raises(TooShortToFit) as err:
            fit_rate(rate_fit_tail_ref(records), "linear")
        for mode in ("linear", "sublinear"):
            assert main(["rates", str(path), "--mode", mode]) == 0
            assert capsys.readouterr().out == (
                f"too short to fit: {err.value.points} leading positive tail gaps, "
                "20 needed\n")

    def test_rates_on_header_only_trace(self, tmp_path, capsys):
        path = tmp_path / "empty.csv"
        write_trace_csv(str(path), Trace())
        assert main(["rates", str(path)]) == 0
        assert capsys.readouterr().out == (
            "too short to fit: 0 leading positive tail gaps, 20 needed\n")

    def test_rates_on_garbage_is_parse_error(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("not a trace\n")
        assert main(["rates", str(path)]) == 2


def test_help_exits_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()


def test_missing_command_is_usage_error(capsys):
    assert main([]) == 2
    capsys.readouterr()


# -- diag and rates against the per-record reference loops --------------------

def reference_outputs(path, a, m, theta, b):
    """What `diag` and `rates` print and write for the trace at `path`,
    computed with the reference loops: (diag stdout without its two path
    lines, the K-set CSV text, the partial-sum series, rates stdout)."""
    records = list(read_trace_csv(str(path)))
    passed, first, checked = verify_H1_ref(records, a, m)
    status = "pass" if passed else f"FAIL at k={first}"
    lines = [f"H1 (a={a:g}, m={m}): {status} over {checked} steps"]
    if b is not None:
        h2_passed, ratio, h2_first, _ = verify_H2_ref(records, b)
        status = "pass" if h2_passed else f"FAIL at k={h2_first}"
        lines.append(f"H2 (b={b:g}): {status}, max ratio {ratio:.6g}")
    flags, gaps, omega = classify_ksets_ref(records, a, theta, m)
    counts = [sum(f[i] for f in flags.values()) for i in range(3)]
    lines.append(f"K-sets (theta={theta:g}, omega* estimated {omega:.10g}): "
                 f"|K1|={counts[0]} |K2|={counts[1]} |K31|={counts[2]}")
    flagged = [replace(r, in_K1=flags[r.k][0], in_K2=flags[r.k][1], in_K31=flags[r.k][2])
               if r.k in flags else r for r in records]
    ks = np.arange(1, len(gaps) + 1)
    in_k1 = [flags[j][0] for j in range(1, len(records))]
    sqrt_gaps = np.sqrt(np.maximum(gaps, 0.0))
    series = {
        "K1 partial sum": (ks, np.cumsum(np.where(in_k1, sqrt_gaps, 0.0))),
        "reference 3000/sqrt(k^2.1)": (ks, np.cumsum(3000.0 / np.sqrt(ks.astype(float)**2.1))),
    }
    fit = fit_rate(rate_fit_tail_ref(records), "linear")
    rates = (f"linear fit: rho={fit.rate:.6g} R^2={fit.r_squared:.4f} "
             f"({fit.points} tail points)\n")
    return "\n".join(lines) + "\n", trace_csv_string(Trace(flagged)), series, rates


@pytest.fixture(scope="module")
def desk_traces(tmp_path_factory):
    """A desk-sized pgenls trace (947 rows) and a matrix-completion trace."""
    tmp = tmp_path_factory.mktemp("desk")
    logreg = problems.gen_logreg(n=200, p=2000, s=20, seed=101, lam=1.0, mu=1e-3)
    mc = problems.gen_mc(n1=200, n2=200, r_star=5, num_samples=8000, sigma=0.1,
                         seed=1, lam=1.0)
    paths = {}
    for kind, name, inst, options, seed in (
            ("pgenls", "pgenls", logreg, {"stop_tol": "1e-6", "max_iters": "20000"}, 101),
            ("mc", "palmenls", mc, {"max_iters": "150"}, 1)):
        paths[kind] = tmp / f"{kind}.csv"
        write_trace_csv(str(paths[kind]), solve(name, inst, options, seed).records)
    return paths


@pytest.mark.parametrize("kind", ["pgenls", "mc"])
@pytest.mark.parametrize("a, m, theta, b", [
    (5e-6, 5, 0.5, None),
    (1e-3, 0, 0.3, 1e3),
    (5e-6, 10000, 0.5, 0.5),
])
def test_diag_and_rates_match_reference_loops(desk_traces, tmp_path, capsys,
                                              kind, a, m, theta, b):
    path = desk_traces[kind]
    prefix = str(tmp_path / "d")
    argv = ["diag", str(path), "--a", repr(a), "--m", str(m), "--theta", repr(theta),
            "--out-prefix", prefix]
    assert main(argv + ([] if b is None else ["--b", repr(b)])) == 0
    out = capsys.readouterr().out
    stdout, ksets, series, rates = reference_outputs(path, a, m, theta, b)
    assert out == stdout + (f"K-set CSV -> {prefix}_ksets.csv\n"
                            f"partial-sum plot -> {prefix}_partial_sums.svg\n")
    assert read_bytes(prefix + "_ksets.csv").decode() == ksets
    svg = read_bytes(prefix + "_partial_sums.svg").decode()
    assert svg == line_plot_svg(series, title="partial sums", xlabel="k",
                                ylabel="cumulative sqrt(gap)")
    assert [chunk.split('"')[0] for chunk in svg.split('points="')[1:]] == \
        polyline_points_ref(series)
    assert main(["rates", str(path)]) == 0
    assert capsys.readouterr().out == rates
