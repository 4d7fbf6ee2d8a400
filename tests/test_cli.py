"""End-to-end checks of the command-line entry point.

Everything goes through ``main(argv)`` so the tests see the same parsing,
dispatch, and exit-code mapping a shell user would.
"""

import csv
import io
import json
import os
import pathlib
import subprocess
import sys
from types import SimpleNamespace

import numpy as np
import pytest

import diatomic_dp
from diatomic_dp import cli, diatomic, risky_lp
from diatomic_dp import mdp as mdp_module
from diatomic_dp.cli import main
from diatomic_dp.control import svi
from diatomic_dp.corpus import bundled_corpus, fig1_mdp, random_mdp, stock_corpus
from diatomic_dp.dbo import DistFunction, dbo_iterate
from diatomic_dp.diatomic import pair_rounds, spe
from diatomic_dp.mdp import (
    Mdp,
    Policy,
    evaluate_policy,
    is_balanced,
    load_mdp,
    mdp_to_dict,
    run_sweeps,
    save_mdp,
    state_values,
    value_iteration,
)


def no_solve(*args, **kwargs):
    raise AssertionError("a solver ran before the output paths were checked")


@pytest.fixture()
def fig1_path(tmp_path):
    path = tmp_path / "fig1.json"
    save_mdp(fig1_mdp(), path)
    return str(path)


@pytest.fixture()
def slow_path(tmp_path):
    """An instance whose spe solve takes six rounds (gamma 0.99, uniform policy, alpha 0.1)."""
    path = tmp_path / "slow.json"
    save_mdp(random_mdp(3, 2, gamma=0.99, seed=2), path)
    return str(path)


@pytest.fixture()
def unbalanced_path(tmp_path):
    path = tmp_path / "plain.json"
    save_mdp(random_mdp(2, 2, gamma=0.5, seed=3), path)
    return str(path)


def read_result(out_dir):
    with open(out_dir / "result.json") as fh:
        return json.load(fh)


def read_trace(out_dir):
    with open(out_dir / "trace.csv") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def read_atoms(out_dir, entry):
    """A ``dbo`` entry's (value, prob) rows of ``atoms.npy``."""
    start, stop = entry["atom_rows"]
    return np.load(out_dir / "atoms.npy")[start:stop]


class TestSpe:
    def test_max_iter_rounds_leave_as_many_rows(self, slow_path, tmp_path):
        mdp = load_mdp(slow_path)
        fixed = spe(mdp, Policy.uniform(mdp), 0.1, tol=1e-12)
        assert fixed.iterations > 3  # the cap below stops the run early
        out = tmp_path / "run"
        code = main(["spe", slow_path, "--alpha", "0.1", "--max-iter", "3", "--out", str(out)])
        assert code == 0
        header, rows = read_trace(out)
        assert header[:2] == ["iteration", "residual"]
        assert len(rows) == 3
        assert [r[0] for r in rows] == ["1", "2", "3"]
        result = read_result(out)
        assert result["converged"] is False
        assert result["iterations"] == 3
        capped = run_sweeps(pair_rounds(mdp, Policy.uniform(mdp), 0.1), 1e-10, 3)
        assert result["residual"] == capped.residual
        assert result["q1"] == capped.value.q1.tolist()
        assert result["q2"] == capped.value.q2.tolist()
        # a round's output lies within gamma * residual / (1 - gamma) of the fixed point
        bound = mdp.gamma * result["residual"] / (1.0 - mdp.gamma) + 1e-9
        assert np.abs(np.array(result["q1"]) - fixed.double_q.q1).max() <= bound
        assert np.abs(np.array(result["q2"]) - fixed.double_q.q2).max() <= bound

    def test_uniform_policy_trace_approaches_fixed_point(self, slow_path, tmp_path):
        out = tmp_path / "run"
        argv = ["spe", slow_path, "--alpha", "0.1", "--max-iter", "3", "--out", str(out)]
        assert main(argv) == 0
        header, rows = read_trace(out)
        assert len(rows) == 3
        mdp = load_mdp(slow_path)
        dq = spe(mdp, Policy.uniform(mdp), 0.1, tol=1e-12).double_q
        want = np.concatenate([dq.q1.ravel(), dq.q2.ravel()])
        residuals = [float(r[1]) for r in rows]
        for early, late in zip(residuals, residuals[1:]):
            assert late <= mdp.gamma * early
        got = np.array([float(v) for v in rows[-1][2:]])
        bound = mdp.gamma * residuals[-1] / (1.0 - mdp.gamma) + 1e-9
        assert np.abs(got - want).max() <= bound

    def test_tight_tolerance_converges(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        assert main(["spe", fig1_path, "--out", str(out)]) == 0
        result = read_result(out)
        assert result["converged"] is True
        assert result["iterations"] < 60
        _, rows = read_trace(out)
        assert len(rows) == result["iterations"]

    def test_artifacts_are_byte_identical_across_runs(self, fig1_path, tmp_path):
        argv = ["spe", fig1_path, "--alpha", "0.5", "--max-iter", "20"]
        for name in ("a", "b"):
            assert main(argv + ["--out", str(tmp_path / name)]) == 0
        for fname in ("trace.csv", "result.json"):
            first = (tmp_path / "a" / fname).read_bytes()
            second = (tmp_path / "b" / fname).read_bytes()
            assert first == second

    def test_result_never_echoes_paths(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        assert main(["spe", fig1_path, "--out", str(out)]) == 0
        blob = (out / "result.json").read_text()
        assert fig1_path not in blob
        assert str(tmp_path) not in blob


class TestEval:
    def test_uniform_policy_reaches_plain_values(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        assert main(["eval", fig1_path, "--out", str(out)]) == 0
        result = read_result(out)
        assert result["converged"] is True
        assert result["v"] == pytest.approx([2.0, 4.0], abs=1e-8)

    def test_max_iter_caps_row_count(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        assert main(
            ["eval", fig1_path, "--max-iter", "7", "--out", str(out)]
        ) == 0
        _, rows = read_trace(out)
        assert len(rows) == 7

    def test_inline_policy_table(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        argv = [
            "eval",
            fig1_path,
            "--policy",
            "[[0, 1], [0, 1]]",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        result = read_result(out)
        assert result["v"] == pytest.approx([2.0, 4.0], abs=1e-8)


class TestTrace:
    def test_names_with_commas_or_quotes_are_quoted(self, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({**mdp_to_dict(fig1_mdp()), "states": ["x,1", 'x"2']}))
        out = tmp_path / "run"
        assert main(["eval", str(path), "--max-iter", "3", "--out", str(out)]) == 0
        header, rows = read_trace(out)
        assert header[2:] == ["q_x,1_a1", "q_x,1_a2", 'q_x"2_a1', 'q_x"2_a2']
        text = (out / "trace.csv").read_bytes()
        assert text.startswith(b'iteration,residual,"q_x,1_a1","q_x,1_a2","q_x""2_a1","q_x""2_a2"\r\n')
        assert [len(row) for row in rows] == [6, 6, 6]

    def test_rows_are_the_csv_module_text(self, tmp_path):
        header = ["step", "a,b", 'c"d']
        rows = [
            [1, 0.5, -0.0, 5e-324],
            [np.int64(2), np.float64(0.1), np.float32(0.1), float("nan")],
            [True, float("inf"), -1e300, 7],
            [],
        ]
        cli._write_trace(SimpleNamespace(out=str(tmp_path)), header, rows)
        want = io.StringIO()
        writer = csv.writer(want)
        writer.writerow(header)
        writer.writerows([v if isinstance(v, int) else repr(float(v)) for v in row] for row in rows)
        assert (tmp_path / "trace.csv").read_bytes() == want.getvalue().encode()


class TestControlCommands:
    def test_safe_picks_first_action(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        assert main(["safe", fig1_path, "--out", str(out)]) == 0
        result = read_result(out)
        assert result["action_set_names"] == [["a1"], ["a1"]]
        assert result["v1"] == pytest.approx([2.0, 4.0], abs=1e-7)
        assert result["v2"] == pytest.approx([2.0, 4.0], abs=1e-7)

    def test_risky_picks_second_action(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        assert main(["risky", fig1_path, "--out", str(out)]) == 0
        result = read_result(out)
        assert result["action_set_names"] == [["a2"], ["a2"]]
        assert result["v1"] == pytest.approx([1.5, 3.5], abs=1e-7)
        assert result["v2"] == pytest.approx([2.5, 4.5], abs=1e-7)

    def test_unbalanced_input_exits_2(self, unbalanced_path, tmp_path):
        code = main(
            ["safe", unbalanced_path, "--out", str(tmp_path / "run")]
        )
        assert code == 2


class TestDbo:
    def test_step_trace_and_tail_means(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        argv = [
            "dbo",
            fig1_path,
            "--policy",
            "always:a1",
            "--k",
            "6",
            "--alpha",
            "0.3",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        header, rows = read_trace(out)
        assert header == ["step", "total_atoms", "max_entry_atoms"]
        assert len(rows) == 6
        result = read_result(out)
        entry = result["entries"]["x2_a1"]
        # deterministic self-loop: a single atom at 2 * (1 - 0.5^6) / 0.5
        assert read_atoms(out, entry)[:, 0].tolist() == pytest.approx([3.9375])
        assert entry["avar_left"] == pytest.approx(3.9375)
        assert entry["avar_right"] == pytest.approx(3.9375)


    def test_negative_step_count_exits_2(self, fig1_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["dbo", fig1_path, "--k", "-3", "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: step count must be nonnegative")
        assert not out.exists()

    def test_zero_steps_keep_the_point_mass(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        assert main(["dbo", fig1_path, "--k", "0", "--out", str(out)]) == 0
        assert read_trace(out) == (["step", "total_atoms", "max_entry_atoms"], [])
        entries = read_result(out)["entries"]
        assert read_atoms(out, entries["x1_a1"])[:, 0].tolist() == [0.0]
        # one (0.0, 1.0) row per entry
        assert sorted(e["atom_rows"] for e in entries.values()) == [[i, i + 1] for i in range(4)]
        assert np.load(out / "atoms.npy").tolist() == [[0.0, 1.0]] * 4

    @pytest.mark.parametrize("name", ["fig1", "balanced_s3_seed302"])
    def test_atoms_equal_the_library_table(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        save_mdp(dict(stock_corpus())[name], path)
        mdp = load_mdp(str(path))
        out = tmp_path / "run"
        assert main(["dbo", str(path), "--k", "4", "--out", str(out)]) == 0
        result = read_result(out)
        atoms = np.load(out / "atoms.npy")
        assert atoms.dtype == np.float64 and atoms.shape == (result["total_atoms"], 2)
        rows = sorted(e["atom_rows"] for e in result["entries"].values())
        # the entries' row ranges tile [0, total_atoms) ...
        assert [start for start, _ in rows] == [0, *(stop for _, stop in rows[:-1])]
        assert rows[-1][1] == result["total_atoms"] and all(a < b for a, b in rows)
        # ... in state-major, then action, order
        names = [f"{s}_{a}" for s in mdp.states for a in mdp.actions]
        assert [result["entries"][n]["atom_rows"] for n in names] == rows
        df = dbo_iterate(mdp, Policy.uniform(mdp), DistFunction.dirac_zero(mdp), 4)
        dists = [d for row in df.dists for d in row]
        for name, d in zip(names, dists):
            got = atoms[slice(*result["entries"][name]["atom_rows"])]
            assert got[:, 0].tobytes() == d.values.tobytes()
            assert got[:, 1].tobytes() == d.probs.tobytes()
        # the file is what np.save writes for the stacked table
        saved = io.BytesIO()
        np.save(saved, np.concatenate([np.column_stack((d.values, d.probs)) for d in dists]))
        assert (out / "atoms.npy").read_bytes() == saved.getvalue()

    def test_two_runs_write_identical_atoms(self, fig1_path, tmp_path):
        for run in ("a", "b"):
            assert main(["dbo", fig1_path, "--k", "5", "--out", str(tmp_path / run)]) == 0
        assert (tmp_path / "a" / "atoms.npy").read_bytes() == (tmp_path / "b" / "atoms.npy").read_bytes()


class TestRobustVerify:
    def test_fig1_report(self, fig1_path, tmp_path, capsys):
        out = tmp_path / "run"
        argv = [
            "robust-verify",
            fig1_path,
            "--alpha",
            "0.5",
            "--policy",
            "always:a2",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        assert stdout == (out / "result.json").read_text()  # the report is result.json's text
        printed = json.loads(stdout)
        assert printed["n_candidates"] == 9
        assert printed["ties"] is False
        assert printed["max_deviation"] < 1e-7
        assert printed["per_state"]["x1"]["worst"] == pytest.approx(1.5)
        assert printed["per_state"]["x2"]["best"] == pytest.approx(4.5)
        result = read_result(out)
        kernel = np.asarray(result["kernel"])
        assert kernel.shape == (4, 2, 4)
        assert np.allclose(kernel.sum(axis=2), 1.0)

    @pytest.mark.parametrize("policy", ["uniform", "always:a2"])
    def test_solves_the_pair_once(self, policy, tmp_path, monkeypatch):
        # both actions play fig1's a2, so the uniform policy is coherent too
        fig1 = fig1_mdp()
        twin = Mdp(
            transition=np.repeat(fig1.transition[:, 1:], 2, axis=1),
            reward=np.repeat(fig1.reward[:, 1:], 2, axis=1),
            gamma=fig1.gamma,
        )
        path = tmp_path / "twin.json"
        save_mdp(twin, path)
        solves = []
        stack = diatomic.spe_stack

        def counted(problems, alpha, tol):
            solves.extend(problems)
            return stack(problems, alpha, tol)

        monkeypatch.setattr(diatomic, "spe_stack", counted)
        argv = ["robust-verify", str(path), "--policy", policy, "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        assert len(solves) == 1

    def test_unconverged_pair_exits_3(self, fig1_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mdp_module, "DEFAULT_MAX_ITER", 1)
        out = tmp_path / "run"
        argv = ["robust-verify", fig1_path, "--policy", "always:a2", "--out", str(out)]
        assert main(argv) == 3
        assert capsys.readouterr().err.startswith("error: value pair not converged after 1 rounds")
        assert not out.exists()

    def test_incoherent_policy_exits_2(self, unbalanced_path, tmp_path):
        code = main(
            ["robust-verify", unbalanced_path, "--out", str(tmp_path / "r")]
        )
        assert code == 2


class TestRiskyLp:
    def test_fig1_objective_and_dump(self, fig1_path, tmp_path, capsys):
        out = tmp_path / "run"
        dump = tmp_path / "lp.txt"
        argv = [
            "risky-lp",
            fig1_path,
            "--alpha",
            "0.5",
            "--dump-lp",
            str(dump),
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        result = read_result(out)
        assert result["ok"] is True
        assert result["primal_objective"] == pytest.approx(1.25, abs=1e-7)
        assert result["gap"] <= 1e-7
        assert result["v1"] == pytest.approx([1.5, 3.5], abs=1e-7)
        text = dump.read_text()
        assert text.startswith("max ")
        # one constraint row per state/action/order triple
        assert text.count("<=") == 24
        assert "primal objective" in capsys.readouterr().out

    def test_explicit_weights(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        argv = [
            "risky-lp",
            fig1_path,
            "--nu0",
            "0.9,0.1",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        result = read_result(out)
        assert result["params"]["nu0"] == pytest.approx([0.9, 0.1])
        assert result["v1"] == pytest.approx([1.5, 3.5], abs=1e-7)

    def test_solves_the_balanced_optimum_once(self, tmp_path, monkeypatch):
        path = tmp_path / "balanced.json"
        save_mdp(dict(stock_corpus())["balanced_s3_seed300"], path)
        solves = []
        solve = mdp_module.value_iteration
        monkeypatch.setattr(
            mdp_module,
            "value_iteration",
            lambda *args, **kw: solves.append(args) or solve(*args, **kw),
        )
        argv = ["risky-lp", str(path), "--alpha", "0.4", "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        assert len(solves) == 1

    def test_failed_duality_verdict_exits_3(self, fig1_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(risky_lp, "GAP_TOL", 0.0)  # fig1's recursion deviation is ~5e-13
        out = tmp_path / "run"
        assert main(["risky-lp", fig1_path, "--out", str(out)]) == 3
        assert capsys.readouterr().err.startswith("error: duality check failed")
        result = read_result(out)
        assert result["ok"] is False
        assert result["v1"] == pytest.approx([1.5, 3.5], abs=1e-7)

    def test_nan_weights_exit_2(self, fig1_path, tmp_path, capsys):
        argv = ["risky-lp", fig1_path, "--nu0", "[NaN, 1]", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert "initial weights" in capsys.readouterr().err


class TestInlineJson:
    """Inline --policy tables and --nu0 lists follow the file rules for numbers."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "--policy", '[["0.5", "0.5"], [0, 1]]'],
            ["eval", "--policy", "[[true, false], [0, 1]]"],
            ["spe", "--policy", "[[0.5, 0.5], [null, 1]]"],
            ["risky-lp", "--nu0", '["0.5", 0.5]'],
            ["risky-lp", "--nu0", "[true, 0.5]"],
            ["risky-lp", "--nu0", "[null, 1]"],
        ],
        ids=[
            "policy-text", "policy-bool", "policy-null",
            "weights-text", "weights-bool", "weights-null",
        ],
    )
    def test_non_number_entry_exits_1(self, argv, fig1_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([argv[0], fig1_path, *argv[1:], "--out", str(out)]) == 1
        assert "must be a JSON number" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, code",
        [
            (["eval", "--policy", "[0.5, 0.5]"], 2),
            (["eval", "--policy", "[" * 500 + "]" * 500], 1),
            (["risky-lp", "--nu0", "[[0.5], [0.5, 1]]"], 1),
            (["risky-lp", "--nu0", "[[0.5], [0.5]]"], 2),
            (["risky-lp", "--nu0", "[0.5, 0.5"], 1),
        ],
        ids=["policy-1d", "policy-deep", "weights-ragged", "weights-2d", "weights-bad-json"],
    )
    def test_shape_checks_keep_their_codes(self, argv, code, fig1_path, tmp_path):
        # ragged and NaN policy tables: TestErrorMapping; NaN weights: TestRiskyLp
        assert main([argv[0], fig1_path, *argv[1:], "--out", str(tmp_path / "r")]) == code

    def test_json_and_comma_weights_write_the_same_result(self, fig1_path, tmp_path):
        results = []
        for weights in ("0.9,0.1", "[0.9, 0.1]"):
            out = tmp_path / weights
            assert main(["risky-lp", fig1_path, "--nu0", weights, "--out", str(out)]) == 0
            results.append((out / "result.json").read_bytes())
        assert results[0] == results[1]

    def test_inline_table_matches_the_named_policy(self, fig1_path, tmp_path):
        results = []
        for policy in ("always:0", "[[1, 0], [1, 0]]"):
            out = tmp_path / str(len(results))
            assert main(["spe", fig1_path, "--policy", policy, "--out", str(out)]) == 0
            result = read_result(out)
            del result["params"]
            results.append(result)
        assert results[0] == results[1]


class TestAvar:
    def test_four_atom_example(self, tmp_path, capsys):
        dist = tmp_path / "dist.json"
        atoms = [
            {"value": -5, "prob": 0.2},
            {"value": -1, "prob": 0.4},
            {"value": 4, "prob": 0.2},
            {"value": 8, "prob": 0.2},
        ]
        dist.write_text(json.dumps(atoms))
        out = tmp_path / "run"
        argv = ["avar", str(dist), "--alpha", "0.7", "--out", str(out)]
        assert main(argv) == 0
        result = read_result(out)
        assert result["avar_left"] == pytest.approx(-1.0 / 0.7, abs=1e-12)
        assert result["avar_right"] == pytest.approx(2.0 / 0.3, abs=1e-12)
        assert set(result["params"]) == {"command", "tol", "alpha"}
        assert "left avar" in capsys.readouterr().out

    def test_malformed_distribution_exits_1(self, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text('{"value": 1}')
        assert main(["avar", str(dist), "--out", str(tmp_path / "r")]) == 1

    @pytest.mark.parametrize(
        "entry",
        [
            {"value": "1", "prob": 0.5},
            {"value": True, "prob": 0.5},
            {"value": 1, "prob": "0.5"},
            {"value": 1, "prob": None},
        ],
        ids=["value-text", "value-bool", "prob-text", "prob-null"],
    )
    def test_non_number_atom_exits_1(self, entry, tmp_path, capsys):
        dist = tmp_path / "dist.json"
        dist.write_text(json.dumps([entry, {"value": 2, "prob": 0.5}]))
        out = tmp_path / "run"
        assert main(["avar", str(dist), "--out", str(out)]) == 1
        assert "must be a JSON number" in capsys.readouterr().err
        assert not out.exists()


class TestBundledCorpus:
    def test_files_reload_and_validate(self, tmp_path):
        paths = bundled_corpus(tmp_path / "corpus")
        assert len(paths) == 26
        for path in paths:
            mdp = load_mdp(path)
            assert is_balanced(mdp)
        fig1 = load_mdp(paths[0])
        sol = value_iteration(fig1, tol=1e-12)
        assert np.allclose(sol.q, [[2.0, 2.0], [4.0, 4.0]], atol=1e-9)


class TestLibraryParity:
    """The iterative commands write exactly what the library solvers return."""

    @pytest.mark.parametrize("name", ["fig1", "balanced_s2_seed107", "balanced_s3_seed302"])
    def test_results_equal_library_output(self, name, tmp_path):
        path = tmp_path / f"{name}.json"
        save_mdp(dict(stock_corpus())[name], path)
        mdp = load_mdp(str(path))
        policy = Policy.uniform(mdp)

        def run(*argv):
            out = tmp_path / "-".join(argv)
            assert main([argv[0], str(path), *argv[1:], "--out", str(out)]) == 0
            return read_result(out)

        def same(got, want):
            assert np.array_equal(np.asarray(got), np.asarray(want))

        got = run("eval")
        want = evaluate_policy(mdp, policy)
        for key, value in [("q", want.q), ("v", state_values(want.q, policy))]:
            same(got[key], value)
        assert (got["residual"], got["iterations"]) == (want.residual, want.iterations)

        got = run("spe", "--alpha", "0.3")
        want = spe(mdp, policy, 0.3)
        for key in ("q1", "q2", "mean"):
            same(got[key], getattr(want.double_q, key))
        assert (got["residual"], got["iterations"]) == (want.residual, want.iterations)

        for mode in ("safe", "risky"):
            got = run(mode, "--alpha", "0.3")
            want = svi(mdp, 0.3, mode=mode)
            for key in ("v1", "v2", "q1", "q2", "v_star"):
                same(got[key], getattr(want, key))
            assert got["action_sets"] == [list(group) for group in want.action_sets]
            assert (got["residual"], got["iterations"]) == (want.residual, want.iterations)


class TestFlags:
    @pytest.mark.parametrize(
        "argv, keys",
        [
            (["eval"], {"max_iter", "alpha", "policy"}),
            (["safe"], {"max_iter", "alpha"}),
            (["dbo", "--k", "1"], {"alpha", "policy", "k"}),
            (["robust-verify", "--policy", "always:0"], {"alpha", "policy"}),
            (["risky-lp"], {"alpha", "nu0"}),
        ],
        ids=["eval", "safe", "dbo", "robust-verify", "risky-lp"],
    )
    def test_params_list_the_accepted_flags(self, argv, keys, fig1_path, tmp_path):
        out = tmp_path / "run"
        assert main([argv[0], fig1_path, *argv[1:], "--out", str(out)]) == 0
        assert set(read_result(out)["params"]) == {"command", "tol", *keys}

    @pytest.mark.parametrize(
        "command, flag",
        [
            ("dbo", "--max-iter"),
            ("robust-verify", "--max-iter"),
            ("risky-lp", "--max-iter"),
            ("avar", "--max-iter"),
            ("avar", "--gamma"),
        ],
    )
    def test_unread_flags_refused(self, command, flag, fig1_path, tmp_path, capsys):
        with pytest.raises(SystemExit) as err:
            main([command, fig1_path, flag, "3", "--out", str(tmp_path / "r")])
        assert err.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestJsonText:
    """``result.json`` is the ``json.dumps`` text of the payload, numpy values as ``tolist()``."""

    FORMAT = dict(indent=2, sort_keys=True, default=lambda o: o.tolist())

    def test_bytes_equal_json_dump(self, tmp_path):
        rng = np.random.default_rng(3)
        payload = {
            "finite": rng.standard_normal(5),
            "special": np.array([np.nan, np.inf, -np.inf, -0.0, 5e-324]),
            "empty": np.array([]),
            "empty_rows": np.zeros((0, 3)),
            "empty_cols": np.zeros((2, 0)),
            "table": rng.standard_normal((2, 3)),
            "kernel": np.array([[[0.25, np.nan]], [[1.0, 0.0]]]),
            "ints": np.arange(3),
            "flags": np.array([True, False]),
            "count": np.int64(7),
            "flag": np.bool_(False),
            "scalar": np.float64(0.1),
            "single": np.float32(0.1),
            "zero_dim": np.array(2.5),
            "nested": [1, 2.5, [np.float64(1e300), None, "x"], (), {}],
            "per_state": {"état": {"worst": np.float64(-1.5), "name": "ß✓"}, "s": {}},
            "nan": float("nan"),
        }
        args = SimpleNamespace(out=str(tmp_path))
        for value in (payload, [], {}, np.array([1.0]), np.array([]), float("-inf"), "naïve"):
            want = json.dumps(value, **self.FORMAT)
            assert cli._write_result(args, value) == want
            assert (tmp_path / "result.json").read_bytes() == (want + "\n").encode()

    @pytest.mark.parametrize("command", [name for name, *_ in cli._COMMANDS])
    def test_result_file_is_the_json_dump_text(self, command, fig1_path, tmp_path):
        out = tmp_path / "r"
        assert main(subcommand_argv(command, fig1_path, out)) == 0
        text = (out / "result.json").read_text()
        assert text == json.dumps(json.loads(text), **self.FORMAT) + "\n"


def _first_entry(key, **change):
    """fig1's ``key`` entries with ``change`` applied to the first one, as a document patch."""
    entries = mdp_to_dict(fig1_mdp())[key]
    return {key: [{**entries[0], **change}, *entries[1:]]}


class TestErrorMapping:
    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    @pytest.mark.parametrize("command", ["eval", "spe", "safe", "risky"])
    def test_nonpositive_max_iter_exits_2(self, command, max_iter, fig1_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([command, fig1_path, "--max-iter", max_iter, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: max_iter must be positive")
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch, argv",
        [
            ({"gamma": "abc"}, ["eval"]),
            ({"gamma": None}, ["eval"]),
            ({"states": 5}, ["eval"]),
            ({"transitions": 5}, ["eval"]),
            ({"states": "ab"}, ["eval"]),
            ({"states": {"p": 0, "q": 1}}, ["eval"]),
            ({"states": ["s", "s"]}, ["eval"]),
            ({"actions": ["a", "a"]}, ["eval"]),
            (_first_entry("transitions", x=0.9), ["eval"]),
            (_first_entry("transitions", next=False), ["eval"]),
            ({"gamma": "0.5"}, ["eval"]),
            (_first_entry("transitions", p=True), ["eval"]),
            (_first_entry("transitions", p=None), ["eval"]),
            (_first_entry("rewards", r="2"), ["eval"]),
            ({}, ["eval", "--policy", '[["a", 1]]']),
            ({}, ["eval", "--policy", "[[1, 0], [0]]"]),
            ({}, ["eval", "--policy", "greedy"]),
            ({}, ["risky-lp", "--nu0", "0.5,x"]),
            ([{"value": 1}], ["avar"]),
        ],
        ids=[
            "gamma-text",
            "gamma-null",
            "states-number",
            "transitions-number",
            "states-string",
            "states-object",
            "states-duplicate",
            "actions-duplicate",
            "index-float",
            "index-bool",
            "gamma-numeric-text",
            "mass-bool",
            "mass-null",
            "reward-numeric-text",
            "policy-text",
            "policy-ragged",
            "policy-unknown-form",
            "nu0-comma-text",
            "avar-missing-prob",
        ],
    )
    def test_malformed_input_exits_1(self, patch, argv, tmp_path, capsys):
        path = tmp_path / "m.json"
        doc = patch if isinstance(patch, list) else {**mdp_to_dict(fig1_mdp()), **patch}
        path.write_text(json.dumps(doc))
        out = tmp_path / "run"
        command, *flags = argv
        assert main([command, str(path), *flags, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval", "{deep}"],
            ["avar", "{deep}"],
            ["eval", "{fig1}", "--policy", "[" * 5000 + "]" * 5000],
            ["risky-lp", "{fig1}", "--nu0", "[" * 5000 + "]" * 5000],
        ],
        ids=["mdp-file", "avar-file", "policy", "nu0"],
    )
    def test_deeply_nested_json_exits_1(self, argv, fig1_path, tmp_path, capsys):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000 + "]" * 100_000)
        out = tmp_path / "run"
        argv = [arg.format(deep=deep, fig1=fig1_path) for arg in argv]
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "nested too deeply" in err
        assert not out.exists()

    @pytest.mark.parametrize("command", ["eval", "avar"], ids=["mdp-file", "avar-file"])
    def test_file_that_is_not_utf8_exits_1(self, command, tmp_path, capsys):
        doc = mdp_to_dict(fig1_mdp()) if command == "eval" else [{"value": 1.0, "prob": 1.0}]
        data = json.dumps(doc).encode()
        path = tmp_path / "latin1.json"
        path.write_bytes(data[:-1] + b"\xff" + data[-1:])  # a Latin-1 byte before the last bracket
        out = tmp_path / "run"
        assert main([command, str(path), "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err == f"error: {path}: not UTF-8 text (byte 0xff at offset {len(data) - 1})\n"
        assert not out.exists()

    def test_existing_file_as_out_exits_1(self, fig1_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mdp_module, "policy_sweeps", no_solve)
        monkeypatch.setattr(risky_lp, "duality_gap_check", no_solve)
        out = tmp_path / "afile"
        out.write_text("")
        dump = tmp_path / "x.lp"
        for argv in (["eval", fig1_path], ["risky-lp", fig1_path, "--dump-lp", str(dump)]):
            for target in (out, out / "sub"):
                assert main([*argv, "--out", str(target)]) == 1
                err = capsys.readouterr().err
                assert err.startswith("error: ") and err.count("\n") == 1
                assert str(out) in err
        assert out.read_text() == ""
        assert not dump.exists()

    def test_unwritable_dump_path_exits_1(self, fig1_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(risky_lp, "duality_gap_check", no_solve)
        dump = tmp_path / "missing" / "x.lp"
        argv = ["risky-lp", fig1_path, "--dump-lp", str(dump), "--out", str(tmp_path / "r")]
        assert main(argv) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "No such file or directory" in err
        assert str(dump) in err
        assert not dump.exists() and not (tmp_path / "r").exists()

    @pytest.mark.parametrize(
        "case, code",
        [("transition", 1), ("policy", 2), ("atom", 2)],
    )
    def test_nan_mass_rejected(self, case, code, fig1_path, tmp_path, capsys):
        out = tmp_path / "run"
        if case == "transition":
            doc = mdp_to_dict(fig1_mdp())
            doc["transitions"][0]["p"] = float("nan")
            path = tmp_path / "m.json"
            path.write_text(json.dumps(doc))
            argv = ["eval", str(path)]
        elif case == "policy":
            argv = ["eval", fig1_path, "--policy", "[[NaN, 1], [0, 1]]"]
        else:
            path = tmp_path / "dist.json"
            path.write_text('[{"value": 1, "prob": NaN}, {"value": 2, "prob": 1}]')
            argv = ["avar", str(path)]
        assert main([*argv, "--out", str(out)]) == code
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()

    def test_table_budget_exits_2(self, fig1_path, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(mdp_module, "TABLE_CAP", 7)  # fig1 needs 2 * 2 * 2 entries
        out = tmp_path / "run"
        assert main(["eval", fig1_path, "--out", str(out)]) == 2
        assert "exceed the cap of 7" in capsys.readouterr().err
        assert not out.exists()

    def test_missing_file_exits_1(self, tmp_path):
        code = main(["eval", str(tmp_path / "nope.json"), "--out", str(tmp_path)])
        assert code == 1

    def test_garbage_json_exits_1(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("not json")
        assert main(["spe", str(path), "--out", str(tmp_path / "r")]) == 1

    def test_unknown_action_name_exits_1(self, fig1_path, tmp_path):
        argv = [
            "spe",
            fig1_path,
            "--policy",
            "always:zzz",
            "--out",
            str(tmp_path / "r"),
        ]
        assert main(argv) == 1

    def test_bad_alpha_exits_2(self, fig1_path, tmp_path):
        argv = ["spe", fig1_path, "--alpha", "1.5", "--out", str(tmp_path / "r")]
        assert main(argv) == 2

    def test_gamma_override_applies(self, fig1_path, tmp_path):
        out = tmp_path / "run"
        argv = [
            "eval",
            fig1_path,
            "--policy",
            "always:a1",
            "--gamma",
            "0.25",
            "--out",
            str(out),
        ]
        assert main(argv) == 0
        result = read_result(out)
        # self-loop worth r / (1 - gamma) with the overridden discount
        assert result["v"] == pytest.approx([4.0 / 3.0, 8.0 / 3.0], abs=1e-8)
        assert result["params"]["gamma_override"] == 0.25


# A child that runs the entry point and, at exit, prints the last stderr
# line "loaded: ..." naming numpy and the package modules it imported.
CHILD = (
    "import atexit, sys\n"
    "atexit.register(lambda: print('loaded:', *sorted(m for m in sys.modules\n"
    "    if m == 'numpy' or m.startswith('diatomic_dp.')), file=sys.stderr))\n"
    "from diatomic_dp.cli import main\n"
    "sys.exit(main())\n"
)
SRC = pathlib.Path(diatomic_dp.__file__).parents[1]
# the package modules each subcommand loads besides cli and errors
LOADS = {
    "eval": {"mdp"},
    "avar": {"mdp", "dist"},
    "spe": {"mdp", "dist", "diatomic"},
    "dbo": {"mdp", "dist", "dbo"},
    "safe": {"mdp", "dist", "diatomic", "control"},
    "risky": {"mdp", "dist", "diatomic", "control"},
    "robust-verify": {"mdp", "dist", "diatomic", "returns", "robust"},
    "risky-lp": {"mdp", "dist", "diatomic", "control", "returns", "robust", "simplex", "risky_lp"},
}
HELP = """\
usage: diatomic-dp [-h]
                   {eval,spe,dbo,safe,risky,robust-verify,risky-lp,avar} ...

Command-line front end: load an instance, run a solver, leave artifacts.

positional arguments:
  {eval,spe,dbo,safe,risky,robust-verify,risky-lp,avar}
    eval                classic expected-value policy evaluation
    spe                 two-tail policy evaluation in rounds
    dbo                 unrolled return-distribution steps
    safe                safe sorted value iteration
    risky               risky sorted value iteration
    robust-verify       brute-force kernel extremes against the recursion
    risky-lp            primal/dual linear-programming route
    avar                tail means of a discrete distribution file

options:
  -h, --help            show this help message and exit
"""


def subcommand_argv(command, fig1_path, out):
    """An argv that runs ``command`` to exit 0 on fig1, or on a two-atom file for avar."""
    argv = [command, fig1_path, "--out", str(out)]
    if command == "avar":
        argv[1] = str(pathlib.Path(fig1_path).with_name("dist.json"))
        pathlib.Path(argv[1]).write_text('[{"value": -1, "prob": 0.5}, {"value": 2, "prob": 0.5}]')
    if command == "robust-verify":
        argv += ["--policy", "always:a2"]  # fig1's coherent policy
    return argv


def run_child(argv, cwd, **env):
    """Run ``diatomic-dp argv`` in a fresh interpreter with ``env`` added to the environment;
    return it and the modules it loaded."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path, "COLUMNS": "80", **env}
    proc = subprocess.run(
        [sys.executable, "-c", CHILD, *argv],
        cwd=cwd, env=env, capture_output=True, text=True, timeout=120,
    )
    last = proc.stderr.splitlines()[-1].split()
    assert last[0] == "loaded:", proc.stderr
    return proc, {name.removeprefix("diatomic_dp.") for name in last[1:]}


class TestImportBoundary:
    @pytest.mark.parametrize(
        "argv, code",
        [
            (["--help"], 0),
            *(([name, "--help"], 0) for name in LOADS),
            (["no-such-command"], 2),
            (["eval"], 2),  # no path
        ],
        ids=lambda v: " ".join(v) if isinstance(v, list) else None,
    )
    def test_parser_alone_loads_no_numpy(self, argv, code, tmp_path):
        proc, loaded = run_child(argv, tmp_path)
        assert proc.returncode == code
        assert loaded == {"cli", "errors"}

    def test_refused_out_path_loads_no_numpy(self, fig1_path, tmp_path):
        out = tmp_path / "afile"
        out.write_text("")
        proc, loaded = run_child(["spe", fig1_path, "--out", str(out)], tmp_path)
        assert proc.returncode == 1
        assert loaded == {"cli", "errors"}

    @pytest.mark.parametrize("command", LOADS)
    def test_subcommand_loads_its_modules(self, command, fig1_path, tmp_path):
        proc, loaded = run_child(subcommand_argv(command, fig1_path, tmp_path / "run"), tmp_path)
        assert proc.returncode == 0, proc.stderr
        assert loaded == {"cli", "errors", "numpy", *LOADS[command]}

    def test_help_text_is_unchanged(self, tmp_path):
        proc, _ = run_child(["--help"], tmp_path)
        assert proc.stdout == HELP


class TestLocale:
    """Artifacts do not depend on the locale; stdout escapes what it cannot encode."""

    ASCII = {"LC_ALL": "C", "PYTHONCOERCECLOCALE": "0", "PYTHONUTF8": "0"}

    @pytest.mark.parametrize(
        "command, names",
        [
            ("eval", {"states": ["état", "✓"]}),
            ("safe", {"actions": ["ñ", "b"]}),
            ("risky", {"states": ["état", "✓"], "actions": ["ñ", "b"]}),
        ],
        ids=["eval", "safe", "risky"],
    )
    def test_ascii_locale_writes_the_utf8_bytes(self, command, names, tmp_path):
        path = tmp_path / "named.json"
        path.write_text(json.dumps({**mdp_to_dict(fig1_mdp()), **names}), encoding="utf-8")
        stdout, files = {}, {}
        for label, env in (("ascii", self.ASCII), ("utf8", {"PYTHONUTF8": "1"})):
            out = tmp_path / label
            proc, _ = run_child([command, str(path), "--out", str(out)], tmp_path, **env)
            assert proc.returncode == 0, proc.stderr
            stdout[label] = proc.stdout
            files[label] = [(out / name).read_bytes() for name in ("trace.csv", "result.json")]
        assert files["ascii"] == files["utf8"]
        header = files["ascii"][0].split(b"\r\n")[0].decode("utf-8")
        assert all(f"_{name}" in header for name in names.get("states", []))
        assert stdout["ascii"] == stdout["utf8"].encode("ascii", "backslashreplace").decode()
