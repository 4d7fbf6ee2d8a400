"""End-to-end checks of the command-line entry point.

Everything goes through ``main(argv)`` so the tests see the same parsing,
dispatch, and exit-code mapping a shell user would.
"""

import csv
import json

import numpy as np
import pytest

from diatomic_dp import diatomic
from diatomic_dp import mdp as mdp_module
from diatomic_dp.cli import main
from diatomic_dp.control import svi
from diatomic_dp.corpus import bundled_corpus, fig1_mdp, random_mdp, stock_corpus
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
        assert entry["values"] == pytest.approx([3.9375])
        assert entry["avar_left"] == pytest.approx(3.9375)
        assert entry["avar_right"] == pytest.approx(3.9375)


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
        printed = json.loads(capsys.readouterr().out)
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
        rounds = diatomic.pair_rounds
        monkeypatch.setattr(
            diatomic, "pair_rounds", lambda *args: solves.append(args) or rounds(*args)
        )
        argv = ["robust-verify", str(path), "--policy", policy, "--out", str(tmp_path / "r")]
        assert main(argv) == 0
        assert len(solves) == 1

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

    def test_nan_weights_exit_2(self, fig1_path, tmp_path, capsys):
        argv = ["risky-lp", fig1_path, "--nu0", "[null, 1]", "--out", str(tmp_path / "r")]
        assert main(argv) == 2
        assert "initial weights" in capsys.readouterr().err


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
        assert "left avar" in capsys.readouterr().out

    def test_malformed_distribution_exits_1(self, tmp_path):
        dist = tmp_path / "dist.json"
        dist.write_text('{"value": 1}')
        assert main(["avar", str(dist), "--out", str(tmp_path / "r")]) == 1


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


class TestErrorMapping:
    @pytest.mark.parametrize("max_iter", ["0", "-3"])
    @pytest.mark.parametrize("command", ["eval", "spe", "safe", "risky"])
    def test_nonpositive_max_iter_exits_2(self, command, max_iter, fig1_path, tmp_path, capsys):
        out = tmp_path / "run"
        assert main([command, fig1_path, "--max-iter", max_iter, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("error: max_iter must be positive")
        assert not out.exists()

    @pytest.mark.parametrize(
        "patch, policy",
        [
            ({"gamma": "abc"}, "uniform"),
            ({"gamma": None}, "uniform"),
            ({"states": 5}, "uniform"),
            ({"transitions": 5}, "uniform"),
            ({}, '[["a", 1]]'),
            ({}, "[[1, 0], [0]]"),
        ],
        ids=[
            "gamma-text",
            "gamma-null",
            "states-number",
            "transitions-number",
            "policy-text",
            "policy-ragged",
        ],
    )
    def test_malformed_input_exits_1(self, patch, policy, tmp_path, capsys):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({**mdp_to_dict(fig1_mdp()), **patch}))
        out = tmp_path / "run"
        assert main(["eval", str(path), "--policy", policy, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

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
