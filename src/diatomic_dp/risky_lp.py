"""Linear-programming route to the risky tail values.

The risky recursion has an equivalent LP over the per-state tail values
V1 alone: the paired variable for each state is an affine function of V1
once the classic optimum is pinned, so it is substituted out. One
inequality row per (state, admissible action, visit order) makes the
feasible region the set of tail-value vectors dominated by every
admissible kernel choice; maximizing a positively weighted sum drives V1
to the risky fixed point. The dual over row multipliers is built from the
same system transposed; strong duality between the two is a checkable
claim, not an assumption.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .control import svi
from .diatomic import _check_alpha
from . import simplex
from .errors import PreconditionError, ResourceError
from .mdp import Mdp, _require_balanced
from .robust import _order_rows, visit_orders
from .simplex import EQ, LEQ, LpProblem, solve

GAP_TOL = 1e-7


def _validated_nu0(mdp: Mdp, nu0) -> np.ndarray:
    if nu0 is None:
        return np.full(mdp.n_states, 1.0 / mdp.n_states)
    nu0 = np.asarray(nu0, dtype=np.float64)
    if nu0.shape != (mdp.n_states,):
        raise PreconditionError(
            f"initial weights have shape {nu0.shape}, want ({mdp.n_states},)"
        )
    if not np.isfinite(nu0).all():
        raise PreconditionError("initial weights contain non-finite entries")
    if nu0.min() <= 0.0:
        raise PreconditionError("initial weights must be strictly positive")
    if abs(nu0.sum() - 1.0) > 1e-9:
        raise PreconditionError(f"initial weights sum to {nu0.sum()}, want 1")
    return nu0


def risky_constraint_rows(mdp: Mdp, alpha: float):
    """The shared row system (matrix, rhs, labels) behind both LPs.

    Row (x, a, sigma) bounds V1(x) by the worst-substate one-step value
    under the kernel induced by visit order sigma, with the paired
    substate value eliminated via (V*(x') - alpha V1(x')) / (1 - alpha).
    Labels carry (x, a, sigma sequence) in row order. More rows than
    ``simplex.ROW_CAP`` raise ResourceError before any row is built.
    """
    _check_alpha(alpha)
    _, v_star = _require_balanced(mdp)

    s = mdp.n_states
    entries = [(x, a) for x in range(s) for a in mdp.action_sets[x]]
    sequences = visit_orders(s)
    n_rows = len(sequences) * len(entries)
    if n_rows > simplex.ROW_CAP:
        raise ResourceError(f"{n_rows} constraint rows exceed the cap of {simplex.ROW_CAP}")
    r_rep = np.repeat(mdp.reward, 2, axis=2)
    low, _ = _order_rows(mdp, alpha, entries)
    ratio = alpha / (1.0 - alpha)
    scale = mdp.gamma / (1.0 - alpha)
    blocks, rhs, labels = [], [], []
    for (x, a), low_xa in zip(entries, low.swapaxes(0, 1)):
        block = np.zeros((len(sequences), s))
        block[:, x] += 1.0
        block -= mdp.gamma * (low_xa[:, 0::2] - ratio * low_xa[:, 1::2])
        blocks.append(block)
        # one 1-D dot per row: a matrix-vector product rounds differently
        rhs.extend(row @ r_rep[x, a] + scale * (row[1::2] @ v_star) for row in low_xa)
        labels.extend((x, a, seq) for seq in sequences)
    return np.concatenate(blocks), np.array(rhs), tuple(labels)


def _primal(mdp: Mdp, alpha: float, nu0) -> tuple[LpProblem, tuple]:
    """``build_risky_primal``'s problem together with its row labels."""
    nu0 = _validated_nu0(mdp, nu0)
    mat, rhs, labels = risky_constraint_rows(mdp, alpha)
    n = mdp.n_states
    problem = LpProblem(
        c=(1.0 - mdp.gamma) * nu0,
        a=mat,
        row_senses=[LEQ] * mat.shape[0],
        b=rhs,
        sense="max",
        lower=np.full(n, -np.inf),
        upper=np.full(n, np.inf),
    )
    return problem, labels


def build_risky_primal(mdp: Mdp, alpha: float, nu0=None) -> LpProblem:
    """Maximize (1 - gamma) <nu0, V1> under every (x, a, sigma) bound."""
    return _primal(mdp, alpha, nu0)[0]


def _dual_of(primal: LpProblem) -> LpProblem:
    """Occupancy-style minimization over one multiplier per primal row.

    Transpose of the primal system: equality row per state balancing the
    multiplier mass against discounted worst-substate inflow, multipliers
    nonnegative, objective the rows' reward-plus-optimum payouts.
    """
    return LpProblem(
        c=primal.b,
        a=primal.a.T,
        row_senses=[EQ] * primal.n_vars,
        b=primal.c,
        sense="min",
    )


def build_risky_dual(mdp: Mdp, alpha: float, nu0=None) -> LpProblem:
    """The dual of ``build_risky_primal`` (see ``_dual_of``)."""
    return _dual_of(build_risky_primal(mdp, alpha, nu0))


@dataclass(frozen=True)
class GapReport:
    """Strong-duality and cross-method agreement for one instance.

    problem is the primal that was solved and labels its rows' (x, a,
    visit order), as ``risky_constraint_rows`` returns them.
    """

    ok: bool
    gap: float
    primal_objective: float
    dual_objective: float
    v1: np.ndarray
    recursion_deviation: float
    problem: LpProblem
    labels: tuple


def duality_gap_check(mdp: Mdp, alpha: float, nu0=None) -> GapReport:
    """Solve both LPs and compare against the risky recursion.

    ok requires three things at once: both LPs optimal, |primal - dual|
    within ``GAP_TOL``, and the primal argmax matching the recursion's tail
    values entrywise within ``GAP_TOL``.
    """
    problem, labels = _primal(mdp, alpha, nu0)
    primal = solve(problem)
    dual = solve(_dual_of(problem))
    if not (primal.optimal and dual.optimal):
        return GapReport(
            ok=False,
            gap=np.inf,
            primal_objective=np.nan,
            dual_objective=np.nan,
            v1=np.full(mdp.n_states, np.nan),
            recursion_deviation=np.inf,
            problem=problem,
            labels=labels,
        )
    gap = abs(primal.objective_value - dual.objective_value)
    control = svi(mdp, alpha, mode="risky")
    deviation = float(np.abs(primal.x - control.v1).max())
    return GapReport(
        ok=gap <= GAP_TOL and deviation <= GAP_TOL,
        gap=gap,
        primal_objective=primal.objective_value,
        dual_objective=dual.objective_value,
        v1=primal.x,
        recursion_deviation=deviation,
        problem=problem,
        labels=labels,
    )
