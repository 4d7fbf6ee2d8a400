"""Command-line front end: load an instance, run a solver, leave artifacts.

Iterative commands write ``trace.csv`` (one row per iteration performed:
a sweep for ``eval``, ``safe`` and ``risky``, a round of order iteration
for ``spe``) and ``result.json`` into the output directory; one-shot
commands write ``result.json`` only. Output is deterministic: identical configuration
produces byte-identical files, so diffing artifacts across runs is a
meaningful check.

Exit codes: 0 success, 1 unreadable or malformed input, 2 violated
preconditions or exhausted resource budgets, 3 failed convergence or a
broken mathematical property.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import pathlib
import sys

import numpy as np

from .control import ControlSweeps
from .dbo import DistFunction, dbo_iterate
from .diatomic import pair_rounds, spe
from .dist import DiscreteDist, avar_left, avar_right, expectation
from .errors import (
    ConvergenceError,
    DiatomicError,
    InputError,
    PropertyFailure,
    SolverError,
)
from .mdp import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    Mdp,
    Policy,
    SweepRun,
    load_mdp,
    policy_sweeps,
    read_json,
    run_sweeps,
    state_values,
)
from .risky_lp import duality_gap_check
from .robust import worst_best_case

# numpy arrays and non-float scalars become plain lists and numbers
_JSON_FORMAT = dict(indent=2, sort_keys=True, default=lambda o: o.tolist())


def _out_dir(args) -> pathlib.Path:
    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_result(args, payload: dict) -> None:
    with open(_out_dir(args) / "result.json", "w") as fh:
        json.dump(payload, fh, **_JSON_FORMAT)
        fh.write("\n")


def _write_trace(args, header, rows) -> None:
    with open(_out_dir(args) / "trace.csv", "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for row in rows:
            writer.writerow(
                [v if isinstance(v, int) else repr(float(v)) for v in row]
            )


def _load_mdp(args) -> Mdp:
    mdp = load_mdp(args.path)
    if getattr(args, "gamma", None) is not None:
        mdp = dataclasses.replace(mdp, gamma=args.gamma)
    return mdp


def _parse_policy(mdp: Mdp, text: str) -> Policy:
    if text == "uniform":
        return Policy.uniform(mdp)
    if text.startswith("always:"):
        name = text.split(":", 1)[1]
        if name in mdp.actions:
            return Policy.always(mdp, mdp.actions.index(name))
        try:
            return Policy.always(mdp, int(name))
        except ValueError:
            raise InputError(
                f"unknown action {name!r}; choices are {list(mdp.actions)} "
                "or a numeric index"
            ) from None
    if text.lstrip().startswith("["):
        try:
            rows = np.asarray(json.loads(text), dtype=np.float64)
        except json.JSONDecodeError as exc:
            raise InputError(f"inline policy is not valid JSON: {exc.msg}") from exc
        except (TypeError, ValueError) as exc:
            raise InputError(f"inline policy is not a numeric table: {exc}") from exc
        return Policy(rows)
    raise InputError(
        f"policy {text!r} not understood; use 'uniform', 'always:<action>' "
        "or an inline JSON table"
    )


def _parse_nu0(text: str) -> np.ndarray:
    try:
        if text.lstrip().startswith("["):
            return np.asarray(json.loads(text), dtype=np.float64)
        return np.asarray([float(tok) for tok in text.split(",")], dtype=np.float64)
    except (json.JSONDecodeError, ValueError) as exc:
        raise InputError(f"cannot parse weights {text!r}: {exc}") from exc


def _params(args, **extra) -> dict:
    base = {
        "command": args.command,
        "seed": args.seed,
        "tol": args.tol,
        "max_iter": args.max_iter,
    }
    if getattr(args, "gamma", None) is not None:
        base["gamma_override"] = args.gamma
    base.update(extra)
    return base


def _entry_headers(mdp: Mdp, prefix: str):
    return [
        f"{prefix}_{s}_{a}" for s in mdp.states for a in mdp.actions
    ]


def _run_traced(args, sweeps, header, row) -> SweepRun:
    """Run ``sweeps`` to --tol or --max-iter, writing one trace row per iteration."""
    rows = []
    run = run_sweeps(
        sweeps,
        args.tol,
        args.max_iter,
        on_sweep=lambda it, value, residual: rows.append([it, residual, *row(value)]),
    )
    _write_trace(args, ["iteration", "residual", *header], rows)
    return run


def _cmd_eval(args) -> int:
    mdp = _load_mdp(args)
    policy = _parse_policy(mdp, args.policy)
    run = _run_traced(
        args, policy_sweeps(mdp, policy), _entry_headers(mdp, "q"), lambda q: q.ravel()
    )
    _write_result(
        args,
        {
            "params": _params(args, alpha=None, policy=args.policy),
            "converged": run.converged,
            "iterations": run.iterations,
            "residual": run.residual,
            "q": run.value,
            "v": state_values(run.value, policy),
        },
    )
    print(f"eval: {run.iterations} iterations, residual {run.residual!r}")
    return 0


def _cmd_spe(args) -> int:
    mdp = _load_mdp(args)
    policy = _parse_policy(mdp, args.policy)
    run = _run_traced(
        args,
        pair_rounds(mdp, policy, args.alpha),
        [*_entry_headers(mdp, "q1"), *_entry_headers(mdp, "q2")],
        lambda dq: [*dq.q1.ravel(), *dq.q2.ravel()],
    )
    dq = run.value
    _write_result(
        args,
        {
            "params": _params(args, alpha=args.alpha, policy=args.policy),
            "converged": run.converged,
            "iterations": run.iterations,
            "residual": run.residual,
            "q1": dq.q1,
            "q2": dq.q2,
            "mean": dq.mean,
        },
    )
    print(f"spe: {run.iterations} iterations, residual {run.residual!r}")
    return 0


def _cmd_dbo(args) -> int:
    mdp = _load_mdp(args)
    policy = _parse_policy(mdp, args.policy)
    df = DistFunction.dirac_zero(mdp)
    rows = []
    for step in range(1, args.k + 1):
        df = dbo_iterate(mdp, policy, df, 1)
        rows.append([step, df.total_atoms(), df.max_atoms()])
    _write_trace(args, ["step", "total_atoms", "max_entry_atoms"], rows)
    entries = {}
    for x, sname in enumerate(mdp.states):
        for a, aname in enumerate(mdp.actions):
            d = df.entry(x, a)
            entries[f"{sname}_{aname}"] = {
                "values": d.values,
                "probs": d.probs,
                "mean": expectation(d),
                "avar_left": avar_left(d, args.alpha),
                "avar_right": avar_right(d, 1.0 - args.alpha),
            }
    _write_result(
        args,
        {
            "params": _params(args, alpha=args.alpha, policy=args.policy, k=args.k),
            "total_atoms": df.total_atoms(),
            "entries": entries,
        },
    )
    print(f"dbo: {args.k} steps, {df.total_atoms()} atoms")
    return 0


def _cmd_control(args, mode: str) -> int:
    mdp = _load_mdp(args)
    sweeps = ControlSweeps(mdp, args.alpha, mode)
    run = _run_traced(
        args,
        sweeps,
        [*[f"v1_{s}" for s in mdp.states], *[f"v2_{s}" for s in mdp.states]],
        lambda step: [*step.v1, *step.v2],
    )
    res = sweeps.result(run)
    _write_result(
        args,
        {
            "params": _params(args, alpha=args.alpha),
            "mode": mode,
            "converged": run.converged,
            "iterations": res.iterations,
            "residual": res.residual,
            "v1": res.v1,
            "v2": res.v2,
            "q1": res.q1,
            "q2": res.q2,
            "v_star": res.v_star,
            "action_sets": res.action_sets,
            "action_set_names": [
                [mdp.actions[a] for a in group] for group in res.action_sets
            ],
        },
    )
    sets = ", ".join(
        f"{s}:{{{','.join(mdp.actions[a] for a in group)}}}"
        for s, group in zip(mdp.states, res.action_sets)
    )
    print(f"{mode}: {res.iterations} iterations, action sets {sets}")
    return 0


def _cmd_robust_verify(args) -> int:
    mdp = _load_mdp(args)
    policy = _parse_policy(mdp, args.policy)
    sol = spe(mdp, policy, args.alpha, tol=min(args.tol, DEFAULT_TOL))
    res = worst_best_case(mdp, policy, args.alpha, double_q=sol.double_q)
    v1, v2 = (state_values(table, policy) for table in (sol.double_q.q1, sol.double_q.q2))
    deviation = float(
        max(np.abs(res.v_worst - v1).max(), np.abs(res.v_best - v2).max())
    )
    payload = {
        "params": _params(args, alpha=args.alpha, policy=args.policy),
        "per_state": {
            sname: {
                "worst": res.v_worst[x],
                "best": res.v_best[x],
                "recursion_v1": v1[x],
                "recursion_v2": v2[x],
            }
            for x, sname in enumerate(mdp.states)
        },
        "max_deviation": deviation,
        "n_candidates": res.n_candidates,
        "ties": res.ties,
        "kernel": res.kernel.probs,
    }
    _write_result(args, payload)
    print(json.dumps(payload, **_JSON_FORMAT))
    return 0


def _format_lp(problem, labels) -> str:
    names = [f"V1[{x}]" for x in range(problem.n_vars)]
    lines = [
        f"{problem.sense} "
        + " + ".join(f"{float(c)!r}*{n}" for c, n in zip(problem.c, names))
    ]
    lines.append("subject to")
    for i in range(problem.n_rows):
        terms = " + ".join(
            f"{float(problem.a[i, j])!r}*{names[j]}" for j in range(problem.n_vars)
        )
        x, a, seq = labels[i]
        lines.append(
            f"  [x={x} a={a} order={''.join(map(str, seq))}] "
            f"{terms} {problem.row_senses[i]} {float(problem.b[i])!r}"
        )
    lines.append("variables free")
    return "\n".join(lines) + "\n"


def _cmd_risky_lp(args) -> int:
    mdp = _load_mdp(args)
    nu0 = _parse_nu0(args.nu0) if args.nu0 else None
    report = duality_gap_check(mdp, args.alpha, nu0)
    if args.dump_lp:
        with open(args.dump_lp, "w") as fh:
            fh.write(_format_lp(report.problem, report.labels))
    _write_result(
        args,
        {
            "params": _params(args, alpha=args.alpha, nu0=nu0),
            "ok": report.ok,
            "primal_objective": report.primal_objective,
            "dual_objective": report.dual_objective,
            "gap": report.gap,
            "v1": report.v1,
            "recursion_deviation": report.recursion_deviation,
        },
    )
    print(f"primal objective: {report.primal_objective!r}")
    print(f"dual objective:   {report.dual_objective!r}")
    print(f"gap:              {report.gap!r}")
    print("V1: " + " ".join(repr(float(v)) for v in report.v1))
    if not report.ok:
        raise PropertyFailure(
            f"duality check failed: gap {report.gap!r}, recursion deviation "
            f"{report.recursion_deviation!r}"
        )
    return 0


def _load_dist(path: str) -> DiscreteDist:
    doc = read_json(path)
    if not isinstance(doc, list):
        raise InputError(f"{path}: expected a JSON list of {{value, prob}} entries")
    try:
        values = [float(e["value"]) for e in doc]
        probs = [float(e["prob"]) for e in doc]
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: bad distribution entry ({exc})") from exc
    return DiscreteDist(values, probs)


def _cmd_avar(args) -> int:
    d = _load_dist(args.path)
    left = avar_left(d, args.alpha)
    right = avar_right(d, 1.0 - args.alpha)
    _write_result(
        args,
        {
            "params": _params(args, alpha=args.alpha),
            "mean": expectation(d),
            "avar_left": left,
            "avar_right": right,
        },
    )
    print(f"left avar at {args.alpha!r}: {left!r}")
    print(f"right avar at {1.0 - args.alpha!r}: {right!r}")
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diatomic-dp",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, *, alpha=False, policy=False, k=False, lp=False):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("path", help="MDP JSON file (distribution JSON for avar)")
        cmd.add_argument("--out", default=".", help="output directory for artifacts")
        cmd.add_argument("--tol", type=float, default=DEFAULT_TOL)
        cmd.add_argument("--max-iter", type=int, default=DEFAULT_MAX_ITER)
        cmd.add_argument("--seed", type=int, default=0)
        cmd.add_argument("--gamma", type=float, default=None, help="discount override")
        if alpha:
            cmd.add_argument("--alpha", type=float, default=0.5)
        if policy:
            cmd.add_argument(
                "--policy",
                default="uniform",
                help="'uniform', 'always:<action>' or inline JSON rows",
            )
        if k:
            cmd.add_argument("--k", type=int, default=5, help="number of steps")
        if lp:
            cmd.add_argument("--nu0", default=None, help="initial state weights")
            cmd.add_argument("--dump-lp", default=None, help="write the primal here")
        return cmd

    add("eval", "classic expected-value policy evaluation", policy=True)
    add("spe", "two-tail policy evaluation in rounds", alpha=True, policy=True)
    add("dbo", "unrolled return-distribution steps", alpha=True, policy=True, k=True)
    add("safe", "safe sorted value iteration", alpha=True)
    add("risky", "risky sorted value iteration", alpha=True)
    add(
        "robust-verify",
        "brute-force kernel extremes against the recursion",
        alpha=True,
        policy=True,
    )
    add("risky-lp", "primal/dual linear-programming route", alpha=True, lp=True)
    add("avar", "tail means of a discrete distribution file", alpha=True)
    return parser


_DISPATCH = {
    "eval": _cmd_eval,
    "spe": _cmd_spe,
    "dbo": _cmd_dbo,
    "safe": lambda args: _cmd_control(args, "safe"),
    "risky": lambda args: _cmd_control(args, "risky"),
    "robust-verify": _cmd_robust_verify,
    "risky-lp": _cmd_risky_lp,
    "avar": _cmd_avar,
}


def _exit_code(exc: DiatomicError) -> int:
    if isinstance(exc, InputError):
        return 1
    if isinstance(exc, (ConvergenceError, PropertyFailure, SolverError)):
        return 3
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _DISPATCH[args.command](args)
    except DiatomicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)


if __name__ == "__main__":
    sys.exit(main())
