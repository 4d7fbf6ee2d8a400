"""Tabular MDPs, policies and the classic expected-value solvers."""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass, replace
from functools import cached_property
from typing import Any, Callable, Iterable, Iterator

import numpy as np

from .errors import (
    ConvergenceError,
    DomainError,
    InputError,
    PreconditionError,
    ResourceError,
    StructuralError,
)

ROW_SUM_REJECT = 1e-6
DEFAULT_TOL = 1e-10
DEFAULT_MAX_ITER = 10_000
REFERENCE_TOL = 1e-12  # solves that later steps take as exact (Q*, reference fixed points)
BALANCE_TOL = 1e-6  # largest Q* spread over a state's actions that still counts as balanced
TIE_TOL = 1e-8  # actions within this of a state's best value are tied
TABLE_CAP = 10_000_000  # most S*A*S entries a loaded document's dense tables may hold


def _normalize_rows(rows: np.ndarray, what: str) -> np.ndarray:
    """Validate that rows are distributions; renormalize away float noise.

    Deviations below ROW_SUM_REJECT are treated as rounding debris and the
    row is rescaled to sum exactly to one; anything larger is rejected.
    """
    if np.any(rows < -1e-12):
        raise DomainError(f"{what} contains negative entries (min {rows.min()})")
    rows = np.maximum(rows, 0.0)
    sums = rows.sum(axis=-1)
    if not np.all(np.isfinite(sums)):  # a NaN or infinite entry spoils its row's sum
        raise DomainError(f"{what} contains non-finite entries")
    if np.any(np.abs(sums - 1.0) > ROW_SUM_REJECT):
        bad = np.unravel_index(np.argmax(np.abs(sums - 1.0)), sums.shape)
        raise DomainError(
            f"{what} row {bad} sums to {sums[bad]}, deviation exceeds {ROW_SUM_REJECT}"
        )
    return rows / sums[..., None]


@dataclass(frozen=True)
class Mdp:
    """Finite MDP with dense (state, action, next-state) tables.

    ``action_sets`` lists the admissible original action indices per state;
    it defaults to every action everywhere. Restricting it (see
    ``reduce_to_balanced``) keeps the dense tables and indexing intact, so
    actions are always addressed by their original index.
    """

    transition: np.ndarray
    reward: np.ndarray
    gamma: float
    states: tuple[str, ...] = ()
    actions: tuple[str, ...] = ()
    action_sets: tuple[tuple[int, ...], ...] = ()

    def __post_init__(self):
        t = np.asarray(self.transition, dtype=np.float64)
        r = np.asarray(self.reward, dtype=np.float64)
        if t.ndim != 3 or t.shape[0] != t.shape[2]:
            raise StructuralError(f"transition table has shape {t.shape}, want (S, A, S)")
        if r.shape != t.shape:
            raise StructuralError(
                f"reward table shape {r.shape} does not match transitions {t.shape}"
            )
        if not np.all(np.isfinite(r)):
            raise DomainError("rewards must be finite")
        if not 0.0 <= self.gamma < 1.0:
            raise DomainError(f"discount must lie in [0, 1), got {self.gamma}")
        s, a, _ = t.shape
        object.__setattr__(self, "transition", _normalize_rows(t, "transition"))
        object.__setattr__(self, "reward", r)
        if not self.states:
            object.__setattr__(self, "states", tuple(f"x{i + 1}" for i in range(s)))
        if not self.actions:
            object.__setattr__(self, "actions", tuple(f"a{j + 1}" for j in range(a)))
        if len(self.states) != s or len(self.actions) != a:
            raise StructuralError("state/action name counts do not match table shape")
        if len(set(self.states)) != s or len(set(self.actions)) != a:
            raise StructuralError("state and action names must be unique")
        if not self.action_sets:
            object.__setattr__(self, "action_sets", tuple(tuple(range(a)) for _ in range(s)))
        sets = tuple(tuple(sorted(set(g))) for g in self.action_sets)
        if len(sets) != s or any(not g or g[0] < 0 or g[-1] >= a for g in sets):
            raise StructuralError("action_sets must name at least one valid action per state")
        object.__setattr__(self, "action_sets", sets)
        self.transition.setflags(write=False)
        self.reward.setflags(write=False)

    @property
    def n_states(self) -> int:
        return self.transition.shape[0]

    @property
    def n_actions(self) -> int:
        return self.transition.shape[1]

    @cached_property
    def action_mask(self) -> np.ndarray:
        """Boolean (S, A) mask of admissible pairs, built once and read-only."""
        mask = np.zeros((self.n_states, self.n_actions), dtype=bool)
        for x, group in enumerate(self.action_sets):
            mask[x, list(group)] = True
        mask.setflags(write=False)
        return mask

    @cached_property
    def _balance(self) -> tuple[np.ndarray, float, tuple[int, int, int]]:
        """Q* (read-only) with ``balance_gap``'s (gap, witness), solved once per MDP."""
        q_star = value_iteration(self, tol=REFERENCE_TOL).q
        q_star.setflags(write=False)
        worst = (0.0, (0, self.action_sets[0][0], self.action_sets[0][0]))
        for x, group in enumerate(self.action_sets):
            vals = q_star[x, list(group)]
            spread = float(vals.max() - vals.min())
            if spread > worst[0]:
                worst = (spread, (x, group[int(vals.argmax())], group[int(vals.argmin())]))
        return q_star, *worst

    @property
    def expected_reward(self) -> np.ndarray:
        """r_bar(x, a) = sum_x' P(x'|x,a) r(x,a,x')."""
        return np.einsum("xay,xay->xa", self.transition, self.reward)

    def with_reward(self, reward: np.ndarray) -> "Mdp":
        return replace(self, reward=np.asarray(reward, dtype=np.float64))

    def reward_span(self) -> float:
        return float(np.abs(self.reward[self.transition > 0.0]).max(initial=0.0))


@dataclass(frozen=True)
class Policy:
    """Stationary stochastic policy as a (S, A) row-stochastic table."""

    probs: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.probs, dtype=np.float64)
        if p.ndim != 2:
            raise StructuralError(f"policy table must be 2-d, got shape {p.shape}")
        object.__setattr__(self, "probs", _normalize_rows(p, "policy"))
        self.probs.setflags(write=False)

    @staticmethod
    def uniform(mdp: Mdp) -> "Policy":
        return Policy(mdp.action_mask / mdp.action_mask.sum(axis=1, keepdims=True))

    @staticmethod
    def always(mdp: Mdp, action: int) -> "Policy":
        return Policy.deterministic(mdp, [action] * mdp.n_states)

    @staticmethod
    def deterministic(mdp: Mdp, choices) -> "Policy":
        choices = list(choices)
        if len(choices) != mdp.n_states:
            raise StructuralError("need one action choice per state")
        p = np.zeros((mdp.n_states, mdp.n_actions))
        for x, a in enumerate(choices):
            if a not in mdp.action_sets[x]:
                raise DomainError(f"action {a} is not admissible in state {x}")
            p[x, a] = 1.0
        return Policy(p)

    def support(self, x: int) -> tuple[int, ...]:
        return tuple(int(a) for a in np.flatnonzero(self.probs[x] > 0.0))


def check_policy(mdp: Mdp, policy: Policy) -> None:
    if policy.probs.shape != (mdp.n_states, mdp.n_actions):
        raise StructuralError(
            f"policy shape {policy.probs.shape} does not match MDP "
            f"({mdp.n_states}, {mdp.n_actions})"
        )
    stray = policy.probs[~mdp.action_mask]
    if stray.size and stray.max(initial=0.0) > 0.0:
        raise DomainError("policy puts mass on an action outside the state's action set")


@dataclass(frozen=True)
class QSolve:
    """Fixed-point solve output: the table plus convergence diagnostics."""

    q: np.ndarray
    residual: float
    iterations: int


def bellman_policy_op(mdp: Mdp, policy: Policy, q: np.ndarray) -> np.ndarray:
    """One application of the expected Bellman operator for ``policy``."""
    check_policy(mdp, policy)
    v = (policy.probs * q).sum(axis=1)
    target = mdp.reward + mdp.gamma * v[None, None, :]
    return np.einsum("xay,xay->xa", mdp.transition, target)


def operator_sweeps(step: Callable[[Any], Any], start: Any) -> Iterator[tuple[Any, float]]:
    """Yield ``(x, sup-norm of x - previous)`` for x = step(previous), from ``start`` on, forever."""
    prev = start
    while True:
        x = step(prev)
        yield x, float(np.abs(x - prev).max())
        prev = x


@dataclass(frozen=True)
class SweepRun:
    """Where ``run_sweeps`` stopped: the last sweep's output, its residual and the sweep count."""

    value: Any
    residual: float
    iterations: int
    converged: bool

    def require_converged(self, what: str, unit: str = "sweeps") -> "SweepRun":
        """This run, or ConvergenceError naming ``what`` if it stopped above tolerance."""
        if not self.converged:
            raise ConvergenceError(
                f"{what} not converged after {self.iterations} {unit} "
                f"(residual {self.residual})",
                residual=self.residual,
                iterations=self.iterations,
            )
        return self


def run_sweeps(
    sweeps: Iterable[tuple[Any, float]],
    tol: float,
    max_iter: int | None = None,
    on_sweep: Callable[[int, Any, float], None] | None = None,
) -> SweepRun:
    """The one fixed-point loop: walk ``sweeps`` until a residual is at most ``tol``.

    ``sweeps`` yields one (value, residual) per iteration: a sweep, or a
    round for ``diatomic._rounds``. Stops after ``max_iter`` of them
    (``DEFAULT_MAX_ITER`` when None, read at call time) without raising;
    the returned run says whether it converged.
    ``on_sweep(iteration, value, residual)`` sees every iteration performed.
    """
    if max_iter is None:
        max_iter = DEFAULT_MAX_ITER
    if max_iter < 1:
        raise DomainError(f"max_iter must be positive, got {max_iter}")
    if not tol > 0.0:
        raise DomainError(f"tolerance must be positive, got {tol}")
    sweeps = iter(sweeps)
    for it in range(1, max_iter + 1):
        value, residual = next(sweeps)
        if on_sweep is not None:
            on_sweep(it, value, residual)
        if residual <= tol:
            break
    return SweepRun(value, residual, it, residual <= tol)


def policy_sweeps(mdp: Mdp, policy: Policy) -> Iterator[tuple[np.ndarray, float]]:
    """Sweeps of the policy's expected Bellman operator from the zero table."""
    check_policy(mdp, policy)
    q0 = np.zeros((mdp.n_states, mdp.n_actions))
    return operator_sweeps(lambda q: bellman_policy_op(mdp, policy, q), q0)


def evaluate_policy(mdp: Mdp, policy: Policy, tol: float = DEFAULT_TOL) -> QSolve:
    """Iterate the policy's Bellman operator to its unique fixed point Q^pi."""
    run = run_sweeps(policy_sweeps(mdp, policy), tol).require_converged("policy evaluation")
    return QSolve(run.value, run.residual, run.iterations)


def _masked_max(q: np.ndarray, mask: np.ndarray) -> np.ndarray:
    return np.where(mask, q, -np.inf).max(axis=1)


def value_iteration(mdp: Mdp, tol: float = DEFAULT_TOL) -> QSolve:
    """Optimal-value iteration over the admissible actions."""
    mask = mdp.action_mask

    def step(q):
        v = _masked_max(q, mask)
        target = mdp.reward + mdp.gamma * v[None, None, :]
        return np.einsum("xay,xay->xa", mdp.transition, target)

    q0 = np.zeros((mdp.n_states, mdp.n_actions))
    run = run_sweeps(operator_sweeps(step, q0), tol).require_converged("value iteration")
    return QSolve(run.value, run.residual, run.iterations)


def state_values(q: np.ndarray, policy: Policy) -> np.ndarray:
    return (policy.probs * q).sum(axis=1)


def optimal_action_sets(mdp: Mdp, q_star: np.ndarray) -> tuple:
    """Per state, the admissible actions within ``TIE_TOL`` of the best value."""
    out = []
    for x, group in enumerate(mdp.action_sets):
        vals = q_star[x, list(group)]
        best = vals.max()
        out.append(tuple(a for a, v in zip(group, vals) if v >= best - TIE_TOL))
    return tuple(out)


def reduce_to_balanced(mdp: Mdp) -> Mdp:
    """Restrict each state to its optimal actions.

    The returned MDP shares the dense tables; its ``action_sets`` field is
    the per-state list of surviving original action indices (that list is
    the index remapping: nothing is renumbered).
    """
    return replace(mdp, action_sets=optimal_action_sets(mdp, mdp._balance[0]))


def balance_gap(mdp: Mdp) -> tuple[float, tuple[int, int, int]]:
    """Largest per-state spread of Q* over admissible actions, with its witness.

    Returns (gap, (x, best_action, worst_action)).
    """
    return mdp._balance[1:]


def is_balanced(mdp: Mdp) -> bool:
    """True when every admissible action is optimal in its state (within ``BALANCE_TOL``)."""
    return mdp._balance[1] <= BALANCE_TOL


def _require_balanced(mdp: Mdp) -> tuple[np.ndarray, np.ndarray]:
    """(Q*, V*) of a balanced MDP, or PreconditionError naming the offending state."""
    q_star, gap, (x, best, worst) = mdp._balance
    if gap > BALANCE_TOL:
        raise PreconditionError(
            f"not balanced: state {x} has Q* spread {gap:.3e} between "
            f"actions {best} and {worst} (tolerance {BALANCE_TOL})"
        )
    return q_star, _masked_max(q_star, mdp.action_mask)


# ---------------------------------------------------------------------------
# JSON interchange
# ---------------------------------------------------------------------------

def json_number(value: Any, what: str) -> float:
    """A JSON number as a float; InputError for true/false, strings, null and the rest."""
    if not isinstance(value, (int, float)) or isinstance(value, bool):  # bool is an int
        raise InputError(f"{what} must be a JSON number, got {value!r}")
    try:
        return float(value)
    except OverflowError as exc:  # an integer beyond the float range
        raise InputError(f"{what} is out of range ({exc})") from exc


def _entry_columns(entries: list, value_key: str, shape: tuple) -> list | None:
    """The (x, a, next, value) columns of the non-empty ``entries``, read column by column.

    None unless every entry has int indices inside ``shape`` and an int or
    float value within the float range; the per-entry reader then names the
    first entry that is wrong.
    """
    try:
        columns = list(zip(*map(operator.itemgetter("x", "a", "next", value_key), entries)))
    except (KeyError, TypeError):
        return None
    if not all({int}.issuperset(map(type, c)) for c in columns[:3]):  # bool is an int subclass
        return None
    if not {int, float}.issuperset(map(type, columns[3])):
        return None
    try:
        index = [np.fromiter(c, np.int64, len(c)) for c in columns[:3]]
        value = np.fromiter(map(float, columns[3]), np.float64, len(entries))
    except OverflowError:
        return None
    if not all(((0 <= i) & (i < n)).all() for i, n in zip(index, shape)):
        return None
    return [*index, value]


def mdp_from_dict(doc: dict) -> Mdp:
    try:
        gamma = json_number(doc["gamma"], "gamma")
        states, actions = doc["states"], doc["actions"]
    except KeyError as exc:
        raise InputError(f"missing required key {exc} in MDP document") from exc
    if not (isinstance(states, list) and isinstance(actions, list) and states and actions):
        raise InputError("states and actions must be non-empty JSON lists")
    s, a = len(states), len(actions)
    if s * a * s > TABLE_CAP:  # checked before the two dense tables exist
        raise ResourceError(f"{s * a * s} S*A*S table entries exceed the cap of {TABLE_CAP}")
    transition = np.zeros((s, a, s))
    reward = np.zeros((s, a, s))

    def entry(i, e, value_key, what):
        """Entry #i's (x, a, next, value), or InputError naming what is wrong with it."""
        try:
            x, j, y, v = e["x"], e["a"], e["next"], e[value_key]
        except (KeyError, TypeError) as exc:
            raise InputError(f"bad {what} entry #{i}: {e!r} ({exc})") from exc
        if not all(type(n) is int for n in (x, j, y)):  # bool is an int subclass
            raise InputError(f"{what} entry #{i} has a non-integer index: {e!r}")
        if not (0 <= x < s and 0 <= j < a and 0 <= y < s):
            raise InputError(f"{what} entry #{i} indexes out of range: {e!r}")
        return x, j, y, json_number(v, f"{what} entry #{i} {value_key!r}")

    def fill(entries, table, value_key, what):
        if not isinstance(entries, list):
            raise InputError(f"{what} entries must be a JSON list, got {type(entries).__name__}")
        if not entries:
            return
        columns = _entry_columns(entries, value_key, (s, a, s))
        if columns is None:  # some entry is wrong, or of an unusual type: read them one by one
            rows = (entry(i, e, value_key, what) for i, e in enumerate(entries))
            columns = [np.array(c) for c in zip(*rows)]
        # in document order, so duplicate entries sum as a loop of += would
        np.add.at(table, tuple(columns[:3]), columns[3])

    fill(doc.get("transitions", []), transition, "p", "transition")
    fill(doc.get("rewards", []), reward, "r", "reward")
    try:
        return Mdp(
            transition=transition,
            reward=reward,
            gamma=gamma,
            states=tuple(str(n) for n in states),
            actions=tuple(str(n) for n in actions),
        )
    except (DomainError, StructuralError) as exc:
        raise InputError(f"invalid MDP document: {exc}") from exc


def mdp_to_dict(mdp: Mdp) -> dict:
    transitions = []
    rewards = []
    for x in range(mdp.n_states):
        for a in range(mdp.n_actions):
            for y in range(mdp.n_states):
                p = float(mdp.transition[x, a, y])
                r = float(mdp.reward[x, a, y])
                if p > 0.0:
                    transitions.append({"x": x, "a": a, "next": y, "p": p})
                    if r != 0.0:
                        rewards.append({"x": x, "a": a, "next": y, "r": r})
    return {
        "gamma": mdp.gamma,
        "states": list(mdp.states),
        "actions": list(mdp.actions),
        "transitions": transitions,
        "rewards": rewards,
    }


def read_json(path: str) -> Any:
    """The parsed JSON file, or InputError naming the path (and line and column,
    or the offset of the first byte that is not UTF-8)."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as exc:
        raise InputError(
            f"{path}: not UTF-8 text (byte 0x{exc.object[exc.start]:02x} at offset {exc.start})"
        ) from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    except RecursionError:
        raise InputError(f"{path}: JSON nested too deeply to read") from None
    except OSError as exc:
        raise InputError(f"{path}: {exc.strerror or exc}") from exc


def load_mdp(path: str) -> Mdp:
    doc = read_json(path)
    if not isinstance(doc, dict):
        raise InputError(f"{path}: top-level JSON value must be an object")
    return mdp_from_dict(doc)


def save_mdp(mdp: Mdp, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(mdp_to_dict(mdp), fh, indent=2, sort_keys=True)
        fh.write("\n")
