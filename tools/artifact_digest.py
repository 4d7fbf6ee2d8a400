"""Print a digest of every CLI artifact over a fixed matrix of runs.

Runs ``diatomic_dp.cli.main`` in-process on each ``corpus.bundled_corpus``
file (fig1 first) and on one four-atom distribution file, and prints one
line per run: the argv, the exit code, and a sha256 of ``result.json``,
``trace.csv``, ``atoms.npy``, the ``risky-lp --dump-lp`` file, stdout and
stderr ("-" for a file the run did not write). The same lines cover the parser alone,
at ``COLUMNS=80``: ``--help``, every ``<subcommand> --help``, a missing
path and an unknown subcommand, whose ``SystemExit`` code is the exit code.
It then prints one line per call of the library routes the CLI does not
reach, over the stock corpus: the route, its arguments, and a sha256 of
the bytes of its result (``exact_return_avars`` with the uniform policy
and with every deterministic policy at the extreme levels 0.05 and 0.95,
the ``dbo_iterate`` table after six steps, ``bavar_vs_avar_gap`` reports
for every deterministic policy, ``simplex.solve`` on the three-state
risky primals, the ``risk_neutral_kernel`` followed by the
``permutation_kernel`` of every ``visit_orders`` entry, the
``optimality_certificate`` reports in both modes, whose ``spe`` solve of
every deterministic policy decides their floats, and the
``coherence_axioms_check`` reports of the uniform policy at every state of
fig1 and the three-state instances, whose floats come from ``spe`` solves
on perturbed reward tables, and the one-sweep entry points:
``diatomic_bellman_apply`` with the uniform and ``always:0`` policies from
the ramp pair (q, 2q + 1), q = 0, 1, 2, ... over the entries, and one
``safe_bellman_apply`` and one ``risky_bellman_apply`` from
(0, v* / (1 - alpha)), each at alpha 0.3 and 0.7): 689 run lines and 996
library lines, 1685 in all.
Two source trees whose outputs are byte-identical print identical lines:

    PYTHONPATH=old/src python3 tools/artifact_digest.py /tmp/digest-old > old.txt
    PYTHONPATH=new/src python3 tools/artifact_digest.py /tmp/digest-new > new.txt
    diff old.txt new.txt

The runs use paths relative to the work directory, so the printed lines
do not depend on where it is.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import shutil

import numpy as np

from diatomic_dp import cli, corpus
from diatomic_dp.control import (
    ControlRounds,
    optimality_certificate,
    risky_bellman_apply,
    safe_bellman_apply,
)
from diatomic_dp.dbo import DistFunction, dbo_iterate
from diatomic_dp.diatomic import DoubleQ, diatomic_bellman_apply
from diatomic_dp.mdp import Policy, load_mdp
from diatomic_dp.returns import exact_return_avars
from diatomic_dp.risky_lp import build_risky_primal
from diatomic_dp.robust import (
    bavar_vs_avar_gap,
    coherence_axioms_check,
    permutation_kernel,
    risk_neutral_kernel,
    visit_orders,
)
from diatomic_dp.simplex import solve

FOUR_ATOMS = [
    {"value": -5, "prob": 0.2},
    {"value": -1, "prob": 0.4},
    {"value": 4, "prob": 0.2},
    {"value": 8, "prob": 0.2},
]
DUMP = "primal.lp"  # the --dump-lp target, relative to the work directory


def ramp(n: int) -> list[float]:
    """Weights proportional to 1..n."""
    return [(i + 1) / (n * (n + 1) / 2) for i in range(n)]


def ramp_table(n_states: int, n_actions: int) -> str:
    """An inline JSON --policy table: state x plays ``ramp(n_actions)`` rotated by x."""
    row = ramp(n_actions)
    return json.dumps([row[x % n_actions:] + row[:x % n_actions] for x in range(n_states)])


def mdp_runs(path: str):
    """The argv list (without --out) of every run on one MDP file."""
    for cmd in ("eval", "spe"):
        for policy in ("uniform", "always:0"):
            yield [cmd, path, "--policy", policy]
    yield ["spe", path, "--max-iter", "20"]
    yield ["eval", path, "--max-iter", "3"]
    for cmd in ("safe", "risky"):
        for alpha in ("0.3", "0.5", "0.7"):
            yield [cmd, path, "--alpha", alpha]
        yield [cmd, path, "--alpha", "0.3", "--max-iter", "3"]
    yield ["dbo", path, "--k", "4"]
    yield ["dbo", path, "--policy", "always:0", "--k", "6"]
    for policy in ("uniform", "always:0"):
        for alpha in ("0.3", "0.5"):
            yield ["robust-verify", path, "--policy", policy, "--alpha", alpha]
    yield ["risky-lp", path]
    yield ["risky-lp", path, "--dump-lp", DUMP]
    mdp = load_mdp(path)
    weights = ramp(mdp.n_states)
    yield ["risky-lp", path, "--nu0", ",".join(map(repr, weights)), "--dump-lp", DUMP]
    # the inline JSON forms of --policy and --nu0
    table = ramp_table(mdp.n_states, mdp.n_actions)
    yield ["eval", path, "--policy", table]
    yield ["spe", path, "--policy", table, "--alpha", "0.3"]
    yield ["risky-lp", path, "--nu0", json.dumps(weights), "--dump-lp", DUMP]


def digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def read(path: pathlib.Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


def digest_arrays(*arrays) -> str:
    """sha256 over each array's length and float64 bytes ("-" for None)."""
    parts = [b"-" if a is None else np.asarray(a, dtype=np.float64).tobytes() for a in arrays]
    return digest(b"".join(len(part).to_bytes(8, "little") + part for part in parts))


def library_lines():
    """One line per library-route call on the stock corpus."""
    for name, mdp in corpus.stock_corpus():
        uniform = Policy.uniform(mdp)
        k = 12 if mdp.n_states == 2 else 10  # the three-state trees are wider
        for alpha in (0.2, 0.5, 0.8):
            tails = exact_return_avars(mdp, uniform, alpha, k)
            yield f"exact_return_avars {name} uniform {alpha=} {k=} {digest_arrays(*tails)}"
        for choices in itertools.product(*mdp.action_sets):
            label = "pi" + "".join(map(str, choices))
            for alpha in (0.05, 0.95):
                tails = exact_return_avars(mdp, Policy.deterministic(mdp, choices), alpha, k)
                yield f"exact_return_avars {name} {label} {alpha=} {k=} {digest_arrays(*tails)}"
        df = dbo_iterate(mdp, uniform, DistFunction.dirac_zero(mdp), 6)
        atoms = [a for row in df.dists for d in row for a in (d.values, d.probs)]
        yield f"dbo_iterate {name} uniform k=6 {digest_arrays(*atoms)}"
        for choices in itertools.product(*mdp.action_sets):
            label = "pi" + "".join(map(str, choices))
            for alpha in (0.3, 0.7):
                report = repr(bavar_vs_avar_gap(mdp, Policy.deterministic(mdp, choices), alpha, 30))
                yield f"bavar_vs_avar_gap {name} {label} {alpha=} k=30 {digest(report.encode())}"
        if mdp.n_states == 3:
            for alpha in (0.25, 0.4, 0.6):
                sol = solve(build_risky_primal(mdp, alpha))
                arrays = digest_arrays(sol.x, [sol.objective_value], sol.dual_values)
                yield f"solve {name} risky_primal {alpha=} {sol.status} {arrays}"
        for alpha in (0.3, 0.7):
            kernels = [risk_neutral_kernel(mdp, alpha)]
            kernels += [permutation_kernel(mdp, alpha, o) for o in visit_orders(mdp.n_states)]
            yield f"kernels {name} {alpha=} {digest_arrays(*(k.probs for k in kernels))}"
        for mode in ("safe", "risky"):
            for alpha in (0.3, 0.7):
                report = repr(optimality_certificate(mdp, alpha, mode))
                yield f"optimality_certificate {name} {mode} {alpha=} {digest(report.encode())}"
        if name == "fig1" or mdp.n_states == 3:
            for x in range(mdp.n_states):
                report = repr(coherence_axioms_check(mdp, uniform, 0.3, x)).encode()
                yield f"coherence_axioms_check {name} uniform alpha=0.3 {x=} {digest(report)}"
        ramp_q = np.arange(float(mdp.n_states * mdp.n_actions)).reshape(mdp.n_states, -1)
        for alpha in (0.3, 0.7):
            for label, policy in (("uniform", uniform), ("always:0", Policy.always(mdp, 0))):
                dq = diatomic_bellman_apply(mdp, policy, DoubleQ(ramp_q, 2.0 * ramp_q + 1.0, alpha))
                arrays = digest_arrays(dq.q1, dq.q2)
                yield f"diatomic_bellman_apply {name} {label} {alpha=} {arrays}"
            v1 = np.zeros(mdp.n_states)
            v2 = ControlRounds(mdp, alpha).v_star / (1.0 - alpha)
            for mode, sweep in (("safe", safe_bellman_apply), ("risky", risky_bellman_apply)):
                step = sweep(mdp, v1, v2, alpha)
                arrays = digest_arrays(step.q1, step.v1, step.v2, step.q2)
                yield f"{mode}_bellman_apply {name} {alpha=} {arrays}"


def run_one(argv: list[str], out: str) -> str:
    pathlib.Path(DUMP).unlink(missing_ok=True)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            code = cli.main([*argv, "--out", out])
        except SystemExit as exc:
            code = exc.code
        except Exception as exc:  # a traceback is an outcome to compare too
            code = f"raised:{type(exc).__name__}"
    files = [read(pathlib.Path(out) / name) for name in ("result.json", "trace.csv", "atoms.npy")]
    files.append(read(pathlib.Path(DUMP)))
    streams = [s.getvalue().encode() for s in (stdout, stderr)]
    return " ".join([" ".join(argv), f"exit={code}", *(digest(d) for d in files + streams)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", help="directory for the corpus files and run outputs")
    work = pathlib.Path(parser.parse_args().workdir)
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    os.environ["COLUMNS"] = "80"  # argparse wraps help and usage text to it
    for sub in ("corpus", "runs"):
        shutil.rmtree(sub, ignore_errors=True)
    paths = [os.path.relpath(p) for p in corpus.bundled_corpus("corpus")]
    dist = pathlib.Path("corpus") / "four_atoms.json"
    dist.write_text(json.dumps(FOUR_ATOMS))
    runs = [argv for path in paths for argv in mdp_runs(path)]
    runs += [["avar", str(dist), "--alpha", alpha] for alpha in ("0.3", "0.7")]
    runs += [["--help"], *([name, "--help"] for name, *_ in cli._COMMANDS), ["eval"], ["no-such-command"]]
    for i, argv in enumerate(runs):
        print(run_one(argv, f"runs/{i:04d}"), flush=True)
    for line in library_lines():
        print(line, flush=True)


if __name__ == "__main__":
    main()
