"""Dense two-phase simplex for the desk-scale programs used here.

The solver favors determinism and transparent failure over speed: Bland's
entering rule throughout (degenerate vertices from tied particles are the
norm, not the exception), a pivot log carried into errors, and explicit
post-solve feasibility and complementary-slackness checks.

Dual values follow the sensitivity convention: dual_values[i] is the rate
of change of the user's objective per unit of constraint i's right-hand
side, whatever mix of senses and optimization direction the problem uses.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ResourceError, SolverError, StructuralError

VAR_CAP = 2_000
ROW_CAP = 10_000
PIVOT_CAP = 20_000
PIVOT_TOL = 1e-9
FEAS_TOL = 1e-8
SLACKNESS_TOL = 1e-7

LEQ, EQ, GEQ = "<=", "==", ">="
_SENSES = (LEQ, EQ, GEQ)


@dataclass(frozen=True)
class LpProblem:
    """min or max of c @ x subject to row constraints and variable bounds.

    ``row_senses`` entries are "<=", "==", ">=". Bounds default to x >= 0;
    use -inf/inf for unbounded sides.
    """

    c: np.ndarray
    a: np.ndarray
    row_senses: tuple[str, ...]
    b: np.ndarray
    sense: str = "max"
    lower: np.ndarray | None = None
    upper: np.ndarray | None = None

    def __init__(self, c, a, row_senses, b, sense="max", lower=None, upper=None):
        c = np.asarray(c, dtype=np.float64)
        a = np.atleast_2d(np.asarray(a, dtype=np.float64))
        b = np.asarray(b, dtype=np.float64)
        if c.ndim != 1:
            raise StructuralError(f"objective must be a vector, got shape {c.shape}")
        n = c.shape[0]
        if a.shape != (b.shape[0], n):
            raise StructuralError(
                f"constraint matrix {a.shape} does not match {b.shape[0]} rows "
                f"and {n} variables"
            )
        row_senses = tuple(row_senses)
        if len(row_senses) != b.shape[0] or any(s not in _SENSES for s in row_senses):
            raise StructuralError(f"row senses must be one of {_SENSES} per row")
        if sense not in ("min", "max"):
            raise DomainError(f"optimization sense must be min or max, got {sense!r}")
        lower = np.zeros(n) if lower is None else np.asarray(lower, dtype=np.float64)
        upper = np.full(n, np.inf) if upper is None else np.asarray(upper, dtype=np.float64)
        if lower.shape != (n,) or upper.shape != (n,):
            raise StructuralError("bounds must have one entry per variable")
        if not (np.all(np.isfinite(c)) and np.all(np.isfinite(a)) and np.all(np.isfinite(b))):
            raise DomainError("objective, matrix and right-hand sides must be finite")
        if np.any(np.isnan(lower)) or np.any(np.isnan(upper)):
            raise DomainError("bounds may be infinite but not NaN")
        for name, val in (("c", c), ("a", a), ("b", b), ("lower", lower), ("upper", upper)):
            object.__setattr__(self, name, val)
            val.flags.writeable = False
        object.__setattr__(self, "row_senses", row_senses)
        object.__setattr__(self, "sense", sense)

    @property
    def n_vars(self) -> int:
        return self.c.shape[0]

    @property
    def n_rows(self) -> int:
        return self.b.shape[0]


@dataclass(frozen=True)
class LpSolution:
    status: str  # optimal | infeasible | unbounded
    x: np.ndarray | None
    objective_value: float | None
    dual_values: np.ndarray | None

    @property
    def optimal(self) -> bool:
        return self.status == "optimal"


def _pivot(tab: np.ndarray, basis: np.ndarray, row: int, col: int) -> None:
    tab[row] /= tab[row, col]
    factor = tab[:, col].copy()
    factor[row] = 0.0
    # the pivot row is mostly zeros, and a zero leaves its column as it is
    cols = np.flatnonzero(tab[row])
    tab[:, cols] -= np.outer(factor, tab[row, cols])
    basis[row] = col


def _bland_step(tab, basis, allowed, log) -> str:
    """One simplex step on a tableau whose last row holds reduced costs.

    Returns "optimal", "unbounded" or "pivoted". ``allowed`` masks the
    columns eligible to enter.
    """
    z = tab[-1, :-1]
    candidates = np.flatnonzero((z < -PIVOT_TOL) & allowed)
    if candidates.size == 0:
        return "optimal"
    col = int(candidates[0])  # Bland: smallest eligible index enters
    rates = tab[:-1, col]
    rhs = tab[:-1, -1]
    rows = np.flatnonzero(rates > PIVOT_TOL)
    if rows.size == 0:
        return "unbounded"
    ratios = np.maximum(rhs[rows], 0.0) / rates[rows]
    best = ratios.min()
    tied = rows[ratios <= best + PIVOT_TOL * (1.0 + abs(best))]
    row = int(tied[np.argmin(basis[tied])])  # Bland: smallest basic index leaves
    log.append((int(basis[row]), col))
    _pivot(tab, basis, row, col)
    return "pivoted"


def _run_phase(tab, basis, allowed, log, what: str) -> str:
    for _ in range(PIVOT_CAP):
        state = _bland_step(tab, basis, allowed, log)
        if state != "pivoted":
            return state
    raise SolverError(f"{what} exceeded {PIVOT_CAP} pivots without terminating; " + _log_tail(log))


def solve(p: LpProblem) -> LpSolution:
    """Two-phase dense simplex with Bland's anti-cycling rule.

    The problem is rewritten over shifted nonnegative variables (free ones
    split in two), finite upper bounds become extra rows, and the result
    is mapped back. Solutions carry duals for the user's rows only.
    """
    if p.n_vars > VAR_CAP or p.n_rows > ROW_CAP:
        raise ResourceError(
            f"problem size {p.n_vars} vars x {p.n_rows} rows exceeds the "
            f"{VAR_CAP} x {ROW_CAP} cap"
        )

    n = p.n_vars
    minimize = p.sense == "min"
    c_user = p.c if minimize else -p.c

    # x = offset + spread @ y with y >= 0; finite upper bounds become rows
    cols = []  # one (var, sign) per y column
    offset = np.zeros(n)
    extra_rows, extra_rhs = [], []
    for j in range(n):
        lo, hi = p.lower[j], p.upper[j]
        if np.isinf(lo) and np.isinf(hi):
            cols.append((j, 1.0))
            cols.append((j, -1.0))
        elif np.isinf(hi):
            offset[j] = lo
            cols.append((j, 1.0))
        elif np.isinf(lo):
            offset[j] = hi
            cols.append((j, -1.0))
        else:
            offset[j] = lo
            cols.append((j, 1.0))
            row = np.zeros(n)
            row[j] = 1.0
            extra_rows.append(row)
            extra_rhs.append(hi)

    spread = np.zeros((n, len(cols)))
    for k, (j, sign) in enumerate(cols):
        spread[j, k] = sign

    a_all = np.vstack([p.a] + [r[None, :] for r in extra_rows]) if extra_rows else p.a
    b_all = np.concatenate([p.b, np.asarray(extra_rhs)]) if extra_rhs else p.b
    senses = list(p.row_senses) + [LEQ] * len(extra_rows)
    m = a_all.shape[0]

    mat = a_all @ spread
    rhs = b_all - a_all @ offset
    cost = spread.T @ c_user

    flipped = rhs < 0.0
    mat[flipped] *= -1.0
    rhs = np.abs(rhs)
    flip_sense = {LEQ: GEQ, GEQ: LEQ, EQ: EQ}
    senses = [flip_sense[s] if f else s for s, f in zip(senses, flipped)]

    # slack (+1) for <=, surplus (-1) for >=; artificials where the slack
    # cannot seed the basis
    n_struct = mat.shape[1]
    slack_cols, art_rows = [], []
    for i, s in enumerate(senses):
        if s == LEQ:
            slack_cols.append((i, 1.0))
        elif s == GEQ:
            slack_cols.append((i, -1.0))
            art_rows.append(i)
        else:
            art_rows.append(i)
    n_slack = len(slack_cols)
    n_art = len(art_rows)
    width = n_struct + n_slack + n_art

    full = np.zeros((m, width))
    full[:, :n_struct] = mat
    for k, (i, sign) in enumerate(slack_cols):
        full[i, n_struct + k] = sign
    for k, i in enumerate(art_rows):
        full[i, n_struct + n_slack + k] = 1.0

    basis = np.empty(m, dtype=np.int64)
    for k, (i, sign) in enumerate(slack_cols):
        if sign > 0:
            basis[i] = n_struct + k
    for k, i in enumerate(art_rows):
        basis[i] = n_struct + n_slack + k

    tab = np.zeros((m + 1, width + 1))
    tab[:-1, :-1] = full
    tab[:-1, -1] = rhs
    log: list[tuple[int, int]] = []
    live = np.ones(m, dtype=bool)  # rows surviving redundancy removal

    if n_art:
        # phase 1: unit costs on the artificials, priced out over the basis
        tab[-1, n_struct + n_slack : width] = 1.0
        for i in art_rows:
            tab[-1] -= tab[i]
        allowed = np.ones(width, dtype=bool)
        state = _run_phase(tab, basis, allowed, log, "phase 1")
        if state == "unbounded":
            raise SolverError("phase 1 reported an unbounded direction; " + _log_tail(log))
        scale = 1.0 + float(np.abs(rhs).max(initial=0.0))
        if -tab[-1, -1] > FEAS_TOL * scale:
            return LpSolution("infeasible", None, None, None)
        # drive leftover zero-level artificials out of the basis
        for i in range(m):
            if basis[i] < n_struct + n_slack:
                continue
            row_entries = np.flatnonzero(np.abs(tab[i, : n_struct + n_slack]) > PIVOT_TOL)
            if row_entries.size:
                log.append((int(basis[i]), int(row_entries[0])))
                _pivot(tab, basis, i, int(row_entries[0]))
            else:
                live[i] = False  # row is redundant at this vertex
        if not live.all():
            tab = np.vstack([tab[:-1][live], tab[-1][None, :]])
            basis = basis[live]

    # phase 2 on the same tableau with the real costs priced out
    tab[-1, :] = 0.0
    tab[-1, :n_struct] = cost
    for i in range(len(basis)):
        if tab[-1, basis[i]] != 0.0:
            tab[-1] -= tab[-1, basis[i]] * tab[i]
    allowed = np.zeros(width, dtype=bool)
    allowed[: n_struct + n_slack] = True
    state = _run_phase(tab, basis, allowed, log, "phase 2")
    if state == "unbounded":
        return LpSolution("unbounded", None, None, None)

    y = np.zeros(width)
    y[basis] = tab[:-1, -1]
    x = offset + spread @ y[:n_struct]
    objective = float(p.c @ x)

    # duals for the surviving equality-form rows via the final basis
    cost_full = np.zeros(width)
    cost_full[:n_struct] = cost
    bmat = full[np.flatnonzero(live)][:, basis]
    try:
        duals_live = np.linalg.solve(bmat.T, cost_full[basis])
    except np.linalg.LinAlgError as exc:
        raise SolverError(f"singular basis at optimum; {_log_tail(log)}") from exc
    duals = np.zeros(m)
    duals[live] = duals_live
    duals[flipped] *= -1.0
    if not minimize:
        duals *= -1.0
    duals = duals[: p.n_rows]

    _self_check(p, x, duals, objective, log)
    return LpSolution("optimal", x, objective, duals)


def _log_tail(log) -> str:
    tail = ", ".join(f"{a}->{e}" for a, e in log[-12:])
    return f"last pivots (leaving->entering): {tail or 'none'}"


def _self_check(p: LpProblem, x, duals, objective, log) -> None:
    scale = 1.0 + float(np.abs(p.b).max(initial=0.0)) + abs(objective)
    resid = p.a @ x - p.b
    for i, s in enumerate(p.row_senses):
        bad = (
            resid[i] > FEAS_TOL * scale
            if s == LEQ
            else -resid[i] > FEAS_TOL * scale
            if s == GEQ
            else abs(resid[i]) > FEAS_TOL * scale
        )
        if bad:
            raise SolverError(
                f"optimal vertex violates row {i} ({s}) by {resid[i]:.3e}; "
                + _log_tail(log)
            )
        if abs(duals[i] * resid[i]) > SLACKNESS_TOL * scale:
            raise SolverError(
                f"complementary slackness fails on row {i}: dual {duals[i]:.3e} "
                f"with slack {resid[i]:.3e}; " + _log_tail(log)
            )
    below = p.lower - x
    above = x - p.upper
    worst = max(below.max(initial=-np.inf), above.max(initial=-np.inf))
    if worst > FEAS_TOL * scale:
        raise SolverError(
            f"optimal vertex leaves the variable box by {worst:.3e}; " + _log_tail(log)
        )
