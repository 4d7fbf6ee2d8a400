"""Correctness gate: every task's output is checked by an independent route.

A check returns ``None`` when the output is right and a one-line reason
when it is not. Checks run after a round's timed interval has closed, so
they never count toward a task's time. References that several rounds
share are computed once per run and cached in a ``Refs`` object.
"""

from __future__ import annotations

import json
import pathlib

import numpy as np

from diatomic_dp import (
    DistFunction,
    DoubleQ,
    SpeSolve,
    avar_left,
    avar_right,
    bellman_policy_op,
    diatomic_bellman_apply,
    risky_bellman_apply,
    safe_bellman_apply,
)


def mismatch(what: str, got, want, tol: float) -> str | None:
    """Reason string when ``got`` and ``want`` differ by more than ``tol`` anywhere."""
    got = np.asarray(got, dtype=np.float64)
    want = np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return f"{what}: shape {got.shape} differs from {want.shape}"
    err = float(np.abs(got - want).max(initial=0.0))
    if not err <= tol:
        return f"{what}: off by {err:.3e}, allowed {tol:.1e}"
    return None


def first(*reasons: str | None) -> str | None:
    return next((r for r in reasons if r), None)


def error_bound(gamma: float, tol: float) -> float:
    """A-posteriori distance to the fixed point after a sweep with residual ``tol``."""
    return gamma * tol / (1.0 - gamma)


def policy_q(mdp, policy) -> np.ndarray:
    """Q^pi by one dense linear solve, (I - gamma P_pi) q = r_bar."""
    s, a = mdp.n_states, mdp.n_actions
    link = np.einsum("xay,yb->xayb", mdp.transition, policy.probs).reshape(s * a, s * a)
    q = np.linalg.solve(np.eye(s * a) - mdp.gamma * link, mdp.expected_reward.ravel())
    return q.reshape(s, a)


def k_step_mean(mdp, policy, k: int) -> np.ndarray:
    """Expected k-step return of every entry: k policy Bellman steps from zero."""
    q = np.zeros((mdp.n_states, mdp.n_actions))
    for _ in range(k):
        q = bellman_policy_op(mdp, policy, q)
    return q


class Refs:
    """Per-run cache of reference results, keyed by whatever the caller names them."""

    def __init__(self):
        self._cache: dict = {}

    def get(self, key, compute):
        if key not in self._cache:
            self._cache[key] = compute()
        return self._cache[key]


# --- library outputs -------------------------------------------------------


def check_spe(mdp, policy, alpha: float, tol: float, sol: SpeSolve, q_pi: np.ndarray) -> str | None:
    """The pair's mean is Q^pi, and one more sweep moves it by at most the error bound."""
    dq = sol.double_q
    bound = error_bound(mdp.gamma, tol)
    scale = 1.0 + float(np.abs(q_pi).max())
    extra = diatomic_bellman_apply(mdp, policy, dq)
    residual = max(float(np.abs(extra.q1 - dq.q1).max()), float(np.abs(extra.q2 - dq.q2).max()))
    return first(
        mismatch("spe mean vs linear solve of Q^pi", dq.mean, q_pi, bound + 1e-9 * scale),
        None if residual <= bound else f"extra sweep residual {residual:.3e} exceeds {bound:.1e}",
        None if dq.alpha == alpha else f"pair carries alpha {dq.alpha}, asked {alpha}",
    )


def perturb_spe(sol: SpeSolve) -> SpeSolve:
    """Self-check input: the left table shifted by 1e-3."""
    dq = sol.double_q
    return SpeSolve(DoubleQ(dq.q1 - 1e-3, dq.q2, dq.alpha), sol.residual, sol.iterations)


def check_sweep(mdp, alpha: float, dq: DoubleQ) -> str | None:
    """One sweep from the zero pair: its mean is the expected one-step reward."""
    scale = 1.0 + float(np.abs(mdp.reward).max())
    return first(
        mismatch("sweep mean vs expected reward", dq.mean, mdp.expected_reward, 1e-9 * scale),
        None if (dq.q1 <= dq.q2 + 1e-12).all() else "left table above right table",
    )


def check_evaluate(mdp, tol: float, sol, q_pi: np.ndarray) -> str | None:
    scale = 1.0 + float(np.abs(q_pi).max())
    return mismatch("Q^pi vs linear solve", sol.q, q_pi, error_bound(mdp.gamma, tol) + 1e-9 * scale)


def check_svi(mdp, alpha: float, tol: float, res) -> str | None:
    """One more safe/risky sweep from the returned vectors stays within the bound."""
    apply_step = risky_bellman_apply if res.mode == "risky" else safe_bellman_apply
    step = apply_step(mdp, res.v1, res.v2, alpha, v_star=res.v_star)
    residual = float(np.abs(step.v1 - res.v1).max())
    bound = error_bound(mdp.gamma, tol)
    return first(
        None if residual <= bound else f"extra {res.mode} sweep residual {residual:.3e} exceeds {bound:.1e}",
        None if all(res.action_sets) else "a state has an empty action set",
    )


def check_report(report) -> str | None:
    """Certificate, duality and bracketing reports carry their own verdict."""
    return None if report.ok else f"{type(report).__name__} not ok: {report!r:.300}"


def check_worst_best(res, pair: DoubleQ, choices) -> str | None:
    """Kernel extremes equal the recursion's pair at the chosen actions (criterion 6)."""
    idx = np.arange(len(choices))
    return first(
        mismatch("worst case vs spe q1", res.v_worst, pair.q1[idx, list(choices)], 1e-7),
        mismatch("best case vs spe q2", res.v_best, pair.q2[idx, list(choices)], 1e-7),
    )


def check_return_avars(mdp, policy, alpha: float, k: int, left, right) -> str | None:
    """Tail means bracket the k-step mean and average back to it."""
    mean = k_step_mean(mdp, policy, k)
    scale = 1.0 + float(np.abs(mean).max())
    return first(
        mismatch("alpha*left + (1-alpha)*right vs k-step mean", alpha * left + (1 - alpha) * right, mean, 1e-9 * scale),
        None if (left <= mean + 1e-9 * scale).all() and (mean <= right + 1e-9 * scale).all()
        else "tail means do not bracket the k-step mean",
    )


def dbo_tails(df: DistFunction, alpha: float, call) -> tuple[np.ndarray, np.ndarray]:
    """Left/right tail means of every entry of a distribution table."""
    left = np.array([[call("dist.avar_left", avar_left, d, alpha) for d in row] for row in df.dists])
    right = np.array([[call("dist.avar_right", avar_right, d, 1.0 - alpha) for d in row] for row in df.dists])
    return left, right


# --- CLI artifacts ---------------------------------------------------------


def read_result(out_dir: pathlib.Path) -> dict | None:
    try:
        with open(out_dir / "result.json") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError):
        return None


def check_cli(returncode: int, stderr: str, result: dict | None, compare) -> str | None:
    """Exit code 0, a readable result.json, and values equal to the library's."""
    if returncode != 0:
        return f"exit code {returncode}: {stderr.strip()[-200:]}"
    if result is None:
        return "result.json missing or unreadable"
    return compare(result)
