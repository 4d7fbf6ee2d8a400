"""Command-line front end: load an instance, run a solver, leave artifacts.

Iterative commands write ``trace.csv`` (one row per iteration performed:
a sweep for ``eval``, a round of order iteration for ``spe``, ``safe``
and ``risky``) and ``result.json`` into the output directory. ``dbo``
writes ``trace.csv`` (one row per step), ``atoms.npy`` (the final table's
atoms as float64 (value, prob) rows, which each ``result.json`` entry
indexes by ``atom_rows``) and ``result.json``; the other one-shot
commands write ``result.json`` only. Output is deterministic: identical configuration
produces byte-identical files, so diffing artifacts across runs is a
meaningful check.

Exit codes: 0 success, 1 unreadable or malformed input or an unusable
output path, 2 violated preconditions or exhausted resource budgets, 3
failed convergence or a broken mathematical property.

Each handler imports numpy and the solver modules it calls when it runs,
so ``--help``, usage errors and refused output paths load neither.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from .errors import (
    ConvergenceError,
    DiatomicError,
    InputError,
    PropertyFailure,
    SolverError,
)

if TYPE_CHECKING:
    import pathlib

    import numpy as np

    from .dist import DiscreteDist
    from .mdp import Mdp, Policy, SweepRun


def _out_dir(args) -> pathlib.Path:
    import pathlib

    out = pathlib.Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _check_outputs(args) -> None:
    """Raise, before any solve, the OSError that writing an artifact would raise.

    The nearest existing path at or above --out must be a directory, and
    the directory of a --dump-lp file must exist.
    """
    import errno
    import os
    import pathlib

    out = pathlib.Path(args.out)
    found = next(path for path in (out, *out.parents) if path.exists())
    if not found.is_dir():
        raise NotADirectoryError(errno.ENOTDIR, os.strerror(errno.ENOTDIR), str(found))
    dump = getattr(args, "dump_lp", None)
    if dump and not pathlib.Path(dump).parent.is_dir():
        raise FileNotFoundError(errno.ENOENT, os.strerror(errno.ENOENT), dump)


def _write_result(args, payload: dict) -> str:
    """Write ``payload`` to ``result.json`` and return its text; numpy values go as ``tolist()``."""
    import json

    text = json.dumps(payload, indent=2, sort_keys=True, default=lambda o: o.tolist())
    (_out_dir(args) / "result.json").write_text(text + "\n")
    return text


def _write_trace(args, header, rows) -> None:
    """Write ``trace.csv``: the header through ``csv``, which quotes names that need it,
    and the all-numeric rows joined into the bytes ``csv`` would write."""
    import csv

    with open(_out_dir(args) / "trace.csv", "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerow(header)
        fh.writelines(
            ",".join([str(v) if isinstance(v, int) else repr(float(v)) for v in row]) + "\r\n"
            for row in rows
        )


def _load_mdp(args) -> Mdp:
    import dataclasses

    from .mdp import load_mdp

    mdp = load_mdp(args.path)
    if getattr(args, "gamma", None) is not None:
        mdp = dataclasses.replace(mdp, gamma=args.gamma)
    return mdp


def _parse_policy(mdp: Mdp, text: str) -> Policy:
    from .mdp import Policy

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
        return Policy(_json_array(text, "inline policy"))
    raise InputError(
        f"policy {text!r} not understood; use 'uniform', 'always:<action>' "
        "or an inline JSON table"
    )


def _json_array(text: str, what: str) -> np.ndarray:
    """Inline JSON lists, nested to any depth, read entry by entry with ``json_number``."""
    import json

    import numpy as np

    from .mdp import json_number

    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InputError(f"{what} is not valid JSON: {exc.msg}") from exc
    except RecursionError:
        raise InputError(f"{what} is JSON nested too deeply to read") from None
    # a worklist, not recursion: the nesting depth is the user's
    lists = [(doc, "")]
    for node, where in lists:
        for i, entry in enumerate(node):
            if isinstance(entry, list):
                lists.append((entry, f"{where}[{i}]"))
            else:
                node[i] = json_number(entry, f"{what} entry {where}[{i}]")
    try:
        return np.array(doc, dtype=np.float64)
    except ValueError as exc:  # rows of different lengths, or too deep for an array
        raise InputError(f"{what} is not a numeric table: {exc}") from exc


def _params(args, **extra) -> dict:
    base = {"command": args.command, "tol": args.tol}
    if hasattr(args, "max_iter"):  # the iterative subcommands
        base["max_iter"] = args.max_iter
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
    from .mdp import run_sweeps

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
    from .mdp import policy_sweeps, state_values

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
    from .diatomic import pair_rounds

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
    import numpy as np

    from .dbo import DistFunction, dbo_steps
    from .dist import avar_left, avar_right, expectation

    mdp = _load_mdp(args)
    policy = _parse_policy(mdp, args.policy)
    df = DistFunction.dirac_zero(mdp)
    rows = []
    for step, df in enumerate(dbo_steps(mdp, policy, df, args.k), 1):
        rows.append([step, df.total_atoms(), df.max_atoms()])
    _write_trace(args, ["step", "total_atoms", "max_entry_atoms"], rows)
    entries = {}
    stop = 0
    with open(_out_dir(args) / "atoms.npy", "wb") as fh:
        # np.save's bytes for the (total_atoms, 2) float64 table, written an entry
        # at a time: one stacked copy of the table would raise the peak RSS by its size
        shape = (df.total_atoms(), 2)
        np.lib.format.write_array_header_1_0(
            fh, {"descr": np.dtype(np.float64).str, "fortran_order": False, "shape": shape}
        )
        for x, sname in enumerate(mdp.states):
            for a, aname in enumerate(mdp.actions):
                d = df.entry(x, a)
                np.column_stack((d.values, d.probs)).tofile(fh)
                start, stop = stop, stop + d.n_atoms
                entries[f"{sname}_{aname}"] = {
                    "atom_rows": [start, stop],
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


def _cmd_control(args) -> int:
    from .control import ControlRounds

    mdp = _load_mdp(args)
    rounds = ControlRounds(mdp, args.alpha, args.command)
    run = _run_traced(
        args,
        rounds,
        [*[f"v1_{s}" for s in mdp.states], *[f"v2_{s}" for s in mdp.states]],
        lambda step: [*step.v1, *step.v2],
    )
    res = rounds.result(run)
    _write_result(
        args,
        {
            "params": _params(args, alpha=args.alpha),
            "mode": args.command,
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
    line = f"{args.command}: {res.iterations} iterations, action sets {sets}"
    encoding = getattr(sys.stdout, "encoding", None) or "utf-8"  # None on an io.StringIO
    print(line.encode(encoding, "backslashreplace").decode(encoding))  # as stderr escapes
    return 0


def _cmd_robust_verify(args) -> int:
    import numpy as np

    from .diatomic import spe
    from .mdp import DEFAULT_TOL, state_values
    from .robust import worst_best_case

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
    print(_write_result(args, payload))
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
    import numpy as np

    from .risky_lp import duality_gap_check

    mdp = _load_mdp(args)
    nu0 = args.nu0 or None
    if nu0 and nu0.lstrip().startswith("["):
        nu0 = _json_array(nu0, "weight list")
    elif nu0:
        try:
            nu0 = np.array([float(tok) for tok in nu0.split(",")])
        except ValueError as exc:
            raise InputError(f"cannot parse weights {args.nu0!r}: {exc}") from exc
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
    from .dist import DiscreteDist
    from .mdp import json_number, read_json

    doc = read_json(path)
    if not isinstance(doc, list):
        raise InputError(f"{path}: expected a JSON list of {{value, prob}} entries")
    try:
        values = [json_number(e["value"], f"{path}: entry #{i} value") for i, e in enumerate(doc)]
        probs = [json_number(e["prob"], f"{path}: entry #{i} prob") for i, e in enumerate(doc)]
    except (KeyError, TypeError) as exc:
        raise InputError(f"{path}: bad distribution entry ({exc})") from exc
    return DiscreteDist(values, probs)


def _cmd_avar(args) -> int:
    from .dist import avar_left, avar_right, expectation

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


# One row per subcommand: name, handler, help, and the flags it reads
# besides path, --out and --tol.
_COMMANDS = (
    ("eval", _cmd_eval, "classic expected-value policy evaluation",
     ("--max-iter", "--gamma", "--policy")),
    ("spe", _cmd_spe, "two-tail policy evaluation in rounds",
     ("--max-iter", "--gamma", "--alpha", "--policy")),
    ("dbo", _cmd_dbo, "unrolled return-distribution steps",
     ("--gamma", "--alpha", "--policy", "--k")),
    ("safe", _cmd_control, "safe sorted value iteration", ("--max-iter", "--gamma", "--alpha")),
    ("risky", _cmd_control, "risky sorted value iteration", ("--max-iter", "--gamma", "--alpha")),
    ("robust-verify", _cmd_robust_verify, "brute-force kernel extremes against the recursion",
     ("--gamma", "--alpha", "--policy")),
    ("risky-lp", _cmd_risky_lp, "primal/dual linear-programming route",
     ("--gamma", "--alpha", "--nu0", "--dump-lp")),
    ("avar", _cmd_avar, "tail means of a discrete distribution file", ("--alpha",)),
)


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diatomic-dp",
        description=__doc__.split("\n\n")[0],
    )
    sub = parser.add_subparsers(dest="command", required=True)
    flags = {
        "--max-iter": dict(type=int, default=None),
        "--gamma": dict(type=float, default=None, help="discount override"),
        "--alpha": dict(type=float, default=0.5),
        "--policy": dict(
            default="uniform", help="'uniform', 'always:<action>' or inline JSON rows"
        ),
        "--k": dict(type=int, default=5, help="number of steps"),
        "--nu0": dict(default=None, help="initial state weights"),
        "--dump-lp": dict(default=None, help="write the primal here"),
    }
    for name, run, help_text, names in _COMMANDS:
        cmd = sub.add_parser(name, help=help_text)
        cmd.set_defaults(run=run)
        cmd.add_argument("path", help="MDP JSON file (distribution JSON for avar)")
        cmd.add_argument("--out", default=".", help="output directory for artifacts")
        cmd.add_argument("--tol", type=float, default=None)
        for flag in names:
            cmd.add_argument(flag, **flags[flag])
    return parser


def _exit_code(exc: DiatomicError) -> int:
    if isinstance(exc, InputError):
        return 1
    if isinstance(exc, (ConvergenceError, PropertyFailure, SolverError)):
        return 3
    return 2


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _check_outputs(args)
        from . import mdp  # the owner of the --tol and --max-iter defaults

        if args.tol is None:
            args.tol = mdp.DEFAULT_TOL
        if getattr(args, "max_iter", 0) is None:  # the iterative subcommands
            args.max_iter = mdp.DEFAULT_MAX_ITER
        return args.run(args)
    except DiatomicError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return _exit_code(exc)
    except OSError as exc:  # inputs are read through read_json, so this is an output path
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
