"""The two benchmark workloads, each a fixed list of seeded tasks.

A workload's set-up builds its inputs from the seed and returns the task
list of one round; the runner repeats that round in a closed loop (one
task at a time, at most one child process) for the measured interval.
Each task calls public functions of ``diatomic_dp`` through the tracer,
so a traced round records one span per call, and carries the check that
judges its output outside the timed interval.

Why these two (see NOTES.md for the full argument):

* ``library`` -- in-process calls, in two parts. The large solves are few
  long ``spe``/``svi``/``evaluate_policy`` runs on S = 40..100, A = 4
  instances, half dense and half sparse; their time goes to the projected
  ``diatomic`` sweep, where a faster two-tail solver must show. The small
  certificates are hundreds of calls on S <= 3 instances through the
  independent routes (certificates, kernel brute force, LP duality,
  exact k-step tails, unrolled distributions); per-call overhead
  dominates them, so a solver that only wins on big inputs shows up in
  the median task time.
* ``cli_corpus`` -- one ``diatomic-dp`` child process per task, start-up
  included; the only workload where the ``cli`` module does real work.
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import subprocess
import sys
import threading
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

import gate
import gen
from diatomic_dp import (
    DistFunction,
    DoubleQ,
    Policy,
    avar_left,
    avar_right,
    bavar_vs_avar_gap,
    build_risky_primal,
    corpus,
    dbo_iterate,
    diatomic_bellman_apply,
    duality_gap_check,
    evaluate_policy,
    load_mdp,
    optimality_certificate,
    save_mdp,
    solve,
    spe,
    svi,
    worst_best_case,
)
from diatomic_dp import cli
from diatomic_dp.dist import DiscreteDist
from diatomic_dp.returns import exact_return_avars
from spans import Tracer

# large solves: three sizes, each dense and sparse; gamma ranges are narrow
# so that the sweep count, and with it the round time, varies little
# between seeds.
SOLVE_SIZES = (40, 70, 100)
SOLVE_ACTIONS = 4
SPARSE_SUCCESSORS = 4
SOLVE_TOL = 1e-8

# small certificates
CERT_SHAPES = ((2, 2), (2, 3), (3, 2), (3, 3))  # (S, A), cycled so cost does not depend on the seed
CERT_INSTANCES = 20
TINY_SPE_TOL = 1e-12
BAVAR_K = 30
DBO_K = 6
# The simplex pivot count on the 540-row three-state LPs, and with it the
# slowest tasks of the round, swings with alpha; a fixed level keeps the
# round's tail from depending on the seed.
LP_ALPHA = 0.4

# cli_corpus
CLI_ROTATION = ("spe", "safe", "risky", "eval", "dbo", "robust-verify")
CLI_TOL = 1e-10
CLI_BIG_STATES = 50
CLI_ENTRY = "import sys; from diatomic_dp.cli import main; sys.exit(main())"
CHILD_TIMEOUT = 120  # seconds


@dataclass
class Task:
    id: str
    kind: str
    run: Callable[[Tracer], Any]
    check: Callable[[Any], str | None]
    perturb: Callable[[Any], Any] | None = None
    argv: list[str] | None = None  # CLI tasks only


@dataclass
class Workload:
    tasks: list[Task]
    instances: list[dict]
    # traced pass only: in-process calls made once after the rounds;
    # returns (calls attempted, failure reasons)
    probe: Callable[[Tracer], tuple[int, list[str]]] | None = None


@dataclass(frozen=True)
class CliOut:
    returncode: int
    stderr: str
    out_dir: pathlib.Path


@dataclass
class Context:
    """Where a run may write, and how it starts ``diatomic-dp`` children."""

    root: pathlib.Path
    work: pathlib.Path
    env: dict

    def command(self, *args: str) -> list[str]:
        """argv of a child that runs the console-script entry point."""
        return [sys.executable, "-c", CLI_ENTRY, *args]

    def run(self, argv: list[str]) -> subprocess.CompletedProcess:
        """Run a child to completion with its output captured.

        The wait blocks in ``waitpid``. ``subprocess.run(timeout=...)``
        would instead poll with sleeps of up to 50 ms, which rounds every
        measured child time up to that grid; a timer kills a child that
        outlives CHILD_TIMEOUT instead.
        """
        proc = subprocess.Popen(argv, env=self.env, cwd=self.root, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, text=True)
        killer = threading.Timer(CHILD_TIMEOUT, proc.kill)
        killer.start()
        try:
            out, err = proc.communicate()
        finally:
            killer.cancel()
        return subprocess.CompletedProcess(argv, proc.returncode, out, err)

    def run_cli(self, argv: list[str]) -> CliOut:
        proc = self.run(self.command(*argv))
        return CliOut(proc.returncode, proc.stderr, pathlib.Path(argv[argv.index("--out") + 1]))


# --- task builders ---------------------------------------------------------


def _count_sweeps(tr: Tracer, inst: gen.Instance, sweeps: int) -> None:
    if tr.enabled:
        rec = inst.record
        tr.count("diatomic.sweeps", sweeps)
        tr.count("diatomic.particles", sweeps * rec["particles"])
        tr.count("diatomic.live_particles", sweeps * rec["live_particles"])


def spe_task(inst: gen.Instance, refs: gate.Refs, tol: float) -> Task:
    mdp, pi, alpha = inst.mdp, inst.policy, inst.alpha

    def run(tr):
        sol = tr.call("diatomic.spe", spe, mdp, pi, alpha, tol=tol)
        _count_sweeps(tr, inst, sol.iterations)
        return sol

    def check(sol):
        q_pi = refs.get(("q_pi", inst.name), lambda: gate.policy_q(mdp, pi))
        return gate.check_spe(mdp, pi, alpha, tol, sol, q_pi)

    return Task(f"spe/{inst.name}", "spe", run, check, gate.perturb_spe)


def sweep_probe(instances: list[gen.Instance]):
    """Traced pass only: one ``diatomic_bellman_apply`` from the zero pair per instance."""

    def probe(tr: Tracer) -> tuple[int, list[str]]:
        failures = []
        for inst in instances:
            zero = DoubleQ.zeros(inst.mdp, inst.alpha)
            dq = tr.call("diatomic.diatomic_bellman_apply", diatomic_bellman_apply, inst.mdp, inst.policy, zero)
            reason = gate.check_sweep(inst.mdp, inst.alpha, dq)
            if reason:
                failures.append(f"sweep/{inst.name}: {reason}")
        return len(instances), failures

    return probe


def evaluate_task(inst: gen.Instance, refs: gate.Refs, tol: float) -> Task:
    mdp, pi = inst.mdp, inst.policy

    def run(tr):
        sol = tr.call("mdp.evaluate_policy", evaluate_policy, mdp, pi, tol=tol)
        tr.count("mdp.evaluate_iterations", sol.iterations)
        return sol

    def check(sol):
        return gate.check_evaluate(mdp, tol, sol, refs.get(("q_pi", inst.name), lambda: gate.policy_q(mdp, pi)))

    return Task(f"evaluate/{inst.name}", "evaluate", run, check)


def svi_task(inst: gen.Instance, mode: str, tol: float) -> Task:
    mdp, alpha = inst.mdp, inst.alpha

    def run(tr):
        res = tr.call("control.svi", svi, mdp, alpha, mode=mode, tol=tol)
        tr.count("control.svi_sweeps", res.iterations)
        return res

    return Task(f"svi_{mode}/{inst.name}", "svi", run, lambda res: gate.check_svi(mdp, alpha, tol, res))


def worst_best_task(inst: gen.Instance, choices, refs: gate.Refs) -> Task:
    mdp, pi, alpha = inst.mdp, inst.policy, inst.alpha

    def run(tr):
        res = tr.call("robust.worst_best_case", worst_best_case, mdp, pi, alpha)
        tr.count("robust.kernel_candidates", res.n_candidates)
        return res

    def check(res):
        pair = refs.get(("pair", inst.name), lambda: spe(mdp, pi, alpha, tol=TINY_SPE_TOL).double_q)
        return gate.check_worst_best(res, pair, choices)

    return Task(f"worst_best/{inst.name}", "worst_best", run, check)


def bavar_task(inst: gen.Instance) -> Task:
    def run(tr):
        return tr.call("robust.bavar_vs_avar_gap", bavar_vs_avar_gap, inst.mdp, inst.policy, inst.alpha, BAVAR_K)

    return Task(f"bavar/{inst.name}", "bavar", run, gate.check_report)


def exact_avars_task(inst: gen.Instance, k: int) -> Task:
    mdp, pi, alpha = inst.mdp, inst.policy, inst.alpha

    def run(tr):
        return tr.call("returns.exact_return_avars", exact_return_avars, mdp, pi, alpha, k)

    def check(out):
        return gate.check_return_avars(mdp, pi, alpha, k, *out)

    return Task(f"exact_k{k}/{inst.name}", "exact_avars", run, check)


def dbo_task(inst: gen.Instance, k: int, refs: gate.Refs) -> Task:
    mdp, pi, alpha = inst.mdp, inst.policy, inst.alpha

    def run(tr):
        df = tr.call("dbo.dbo_iterate", dbo_iterate, mdp, pi, DistFunction.dirac_zero(mdp), k)
        if tr.enabled:
            tr.count("dbo.atoms", df.total_atoms())
        return gate.dbo_tails(df, alpha, tr.call)

    def check(out):
        want = refs.get(("exact", inst.name, k), lambda: exact_return_avars(mdp, pi, alpha, k))
        return gate.first(
            gate.mismatch("dbo left tails vs exact_return_avars", out[0], want[0], 1e-9),
            gate.mismatch("dbo right tails vs exact_return_avars", out[1], want[1], 1e-9),
        )

    return Task(f"dbo_k{k}/{inst.name}", "dbo", run, check)


def gap_task(name: str, mdp, alpha: float) -> Task:
    def run(tr):
        return tr.call("risky_lp.duality_gap_check", duality_gap_check, mdp, alpha)

    return Task(f"duality/{name}", "duality", run, gate.check_report)


def lp_primal_task(name: str, mdp, alpha: float, refs: gate.Refs) -> Task:
    """Risky LP rows and one simplex solve, judged against the risky recursion."""
    n_orders = int(np.prod(np.arange(1, 2 * mdp.n_states + 1))) // 2**mdp.n_states
    want_rows = n_orders * sum(len(g) for g in mdp.action_sets)

    def run(tr):
        problem = tr.call("risky_lp.build_risky_primal", build_risky_primal, mdp, alpha)
        tr.count("risky_lp.rows", problem.n_rows)
        return problem.n_rows, tr.call("simplex.solve", solve, problem)

    def check(out):
        n_rows, sol = out
        if n_rows != want_rows:
            return f"{n_rows} LP rows, want {want_rows}"
        if not sol.optimal:
            return f"primal LP status {sol.status}"
        v1 = refs.get(("risky_v1", name), lambda: svi(mdp, alpha, mode="risky", tol=1e-12).v1)
        return gate.mismatch("LP argmax vs risky recursion", sol.x, v1, 1e-7)

    return Task(f"lp_primal/{name}", "lp_primal", run, check)


def certificate_task(name: str, mdp, alpha: float, mode: str) -> Task:
    def run(tr):
        rep = tr.call("control.optimality_certificate", optimality_certificate, mdp, alpha, mode)
        tr.count("control.certificate_candidates", rep.n_checked)
        return rep

    return Task(f"certificate_{mode}/{name}", "certificate", run, gate.check_report)


# --- workloads -------------------------------------------------------------


def large_solves(seed: int, tr: Tracer) -> Workload:
    rng = np.random.default_rng([seed, 1])
    refs = gate.Refs()
    tasks, records, randoms = [], [], []
    for s in SOLVE_SIZES:
        for succ in (None, SPARSE_SUCCESSORS):
            shape = "dense" if succ is None else f"sparse{succ}"
            mdp = gen.random_mdp(rng, s, SOLVE_ACTIONS, float(rng.uniform(0.60, 0.63)), succ)
            inst = gen.Instance(f"random_{shape}_s{s}", mdp, float(rng.uniform(0.1, 0.9)), gen.random_policy(rng, mdp))
            bal = gen.balanced_mdp(rng, s, SOLVE_ACTIONS, float(rng.uniform(0.85, 0.90)), succ)
            binst = gen.Instance(f"balanced_{shape}_s{s}", bal, float(rng.uniform(0.2, 0.5)), Policy.uniform(bal))
            tasks += [
                spe_task(inst, refs, SOLVE_TOL),
                evaluate_task(inst, refs, SOLVE_TOL),
                svi_task(binst, "safe", SOLVE_TOL),
                svi_task(binst, "risky", SOLVE_TOL),
            ]
            records += [inst.record, binst.record]
            randoms.append(inst)
    return Workload(tasks, records, sweep_probe(randoms))


def small_certificates(seed: int, tr: Tracer) -> Workload:
    rng = np.random.default_rng([seed, 2])
    refs = gate.Refs()
    tasks, records = [], []
    for name, mdp in tr.call("corpus.stock_corpus", corpus.stock_corpus):
        alpha = float(rng.uniform(0.3, 0.7))
        policies = list(gen.deterministic_policies(mdp))
        for pi, choices in policies:
            inst = gen.Instance(f"{name}/pi{''.join(map(str, choices))}", mdp, alpha, pi)
            tasks += [spe_task(inst, refs, TINY_SPE_TOL), worst_best_task(inst, choices, refs)]
        pi, choices = policies[int(rng.integers(len(policies)))]
        tasks.append(bavar_task(gen.Instance(f"{name}/pi{''.join(map(str, choices))}", mdp, alpha, pi)))
        uniform = gen.Instance(f"{name}/uniform", mdp, float(rng.uniform(0.2, 0.8)), Policy.uniform(mdp))
        # k = 12 on the two-state instances, 10 on the three-state ones,
        # whose k = 12 trees cost ~0.6 s each
        tasks.append(exact_avars_task(uniform, 12 if mdp.n_states == 2 else 10))
        tasks.append(dbo_task(uniform, DBO_K, refs))
        if mdp.n_states == 2:
            tasks.append(gap_task(name, mdp, LP_ALPHA))
        else:
            tasks.append(lp_primal_task(name, mdp, LP_ALPHA, refs))
        records.append(uniform.record)
    for i in range(CERT_INSTANCES):
        n, a_n = CERT_SHAPES[i % len(CERT_SHAPES)]
        gamma = float(rng.uniform(0.3, 0.6))
        mdp = tr.call("corpus.random_balanced_mdp", corpus.random_balanced_mdp, n, a_n, gamma, int(rng.integers(1 << 30)))
        inst = gen.Instance(f"crit9_{i}_s{n}a{a_n}", mdp, float(rng.uniform(0.2, 0.5)), Policy.uniform(mdp))
        tasks += [certificate_task(inst.name, mdp, inst.alpha, mode) for mode in ("safe", "risky")]
        records.append(inst.record)
    return Workload(tasks, records)


def _parse_policy(mdp, text: str) -> Policy:
    if text == "uniform":
        return Policy.uniform(mdp)
    return Policy.always(mdp, int(text.split(":", 1)[1]))


def _cli_compare(sub: str, path: str, alpha: float | None, policy: str | None, k: int | None):
    """Library result for the same arguments, as a function that judges result.json."""
    tol = 1e-9
    if sub == "avar":
        with open(path) as fh:
            doc = json.load(fh)
        d = DiscreteDist([e["value"] for e in doc], [e["prob"] for e in doc])
        left, right = avar_left(d, alpha), avar_right(d, 1.0 - alpha)
        return lambda r: gate.first(
            gate.mismatch("avar_left", r["avar_left"], left, tol),
            gate.mismatch("avar_right", r["avar_right"], right, tol),
        )
    mdp = load_mdp(path)
    pi = _parse_policy(mdp, policy) if policy else None
    if sub == "eval":
        q = evaluate_policy(mdp, pi, tol=CLI_TOL).q
        return lambda r: gate.mismatch("q", r["q"], q, tol)
    if sub == "spe":
        dq = spe(mdp, pi, alpha, tol=CLI_TOL).double_q
        return lambda r: gate.first(gate.mismatch("q1", r["q1"], dq.q1, tol), gate.mismatch("q2", r["q2"], dq.q2, tol))
    if sub in ("safe", "risky"):
        res = svi(mdp, alpha, mode=sub, tol=CLI_TOL)
        sets = [list(g) for g in res.action_sets]
        return lambda r: gate.first(
            gate.mismatch("v1", r["v1"], res.v1, tol),
            gate.mismatch("q1", r["q1"], res.q1, tol),
            None if r["action_sets"] == sets else f"action sets {r['action_sets']} vs svi {sets}",
        )
    if sub == "dbo":
        df = dbo_iterate(mdp, pi, DistFunction.dirac_zero(mdp), k)
        left, right = gate.dbo_tails(df, alpha, lambda _name, fn, *args: fn(*args))
        names = [f"{s}_{a}" for s in mdp.states for a in mdp.actions]

        def compare(r):
            got = [[r["entries"][n]["avar_left"] for n in names], [r["entries"][n]["avar_right"] for n in names]]
            return gate.first(
                None if r["total_atoms"] == df.total_atoms() else f"{r['total_atoms']} atoms vs {df.total_atoms()}",
                gate.mismatch("dbo tail means", got, [left.ravel(), right.ravel()], tol),
            )

        return compare
    if sub == "robust-verify":
        res = worst_best_case(mdp, pi, alpha)
        return lambda r: gate.first(
            gate.mismatch("worst", [r["per_state"][x]["worst"] for x in mdp.states], res.v_worst, tol),
            gate.mismatch("best", [r["per_state"][x]["best"] for x in mdp.states], res.v_best, tol),
            None if r["n_candidates"] == res.n_candidates else "candidate count differs",
        )
    if sub == "risky-lp":
        rep = duality_gap_check(mdp, alpha)
        return lambda r: gate.first(
            None if r["ok"] and rep.ok else "duality check not ok",
            gate.mismatch("primal objective", r["primal_objective"], rep.primal_objective, tol),
            gate.mismatch("v1", r["v1"], rep.v1, tol),
        )
    raise ValueError(f"no reference for subcommand {sub!r}")


def cli_task(index: int, ctx: Context, refs: gate.Refs, sub: str, path, alpha=None, policy=None, k=None) -> Task:
    out_dir = ctx.work / "runs" / f"{index:02d}-{sub}"
    argv = [sub, str(path), "--out", str(out_dir), "--tol", repr(CLI_TOL)]
    if alpha is not None:
        argv += ["--alpha", repr(alpha)]
    if policy is not None:
        argv += ["--policy", policy]
    if k is not None:
        argv += ["--k", str(k)]
    task_id = f"cli_{sub}/{index:02d}-{pathlib.Path(path).stem}"

    def run(tr):
        out = tr.call(f"cli.{sub}", ctx.run_cli, argv)
        if tr.enabled:
            tr.count("cli.artifact_bytes", sum(f.stat().st_size for f in out.out_dir.iterdir()))
        return out

    def check(out: CliOut):
        compare = refs.get(task_id, lambda: _cli_compare(sub, str(path), alpha, policy, k))
        result = gate.read_result(out.out_dir) if out.returncode == 0 else None
        for artifact in out.out_dir.glob("*"):
            artifact.unlink()  # the next round must write its own
        return gate.check_cli(out.returncode, out.stderr, result, compare)

    def perturb(out: CliOut) -> CliOut:
        return CliOut(3, "perturbed exit code", out.out_dir)

    return Task(task_id, "cli", run, check, perturb, argv)


def cli_corpus(seed: int, tr: Tracer, ctx: Context) -> Workload:
    rng = np.random.default_rng([seed, 3])
    refs = gate.Refs()
    inputs = ctx.work / "inputs"
    paths = tr.call("corpus.bundled_corpus", corpus.bundled_corpus, str(inputs / "corpus"))
    big = gen.balanced_mdp(rng, CLI_BIG_STATES, SOLVE_ACTIONS, float(rng.uniform(0.75, 0.80)), None)
    big_path = inputs / f"balanced_s{CLI_BIG_STATES}.json"
    tr.call("mdp.save_mdp", save_mdp, big, str(big_path))
    dist_path = inputs / "dist.json"
    with open(dist_path, "w") as fh:
        json.dump(gen.distribution(rng, 64), fh)
    fig1 = ctx.root / "src" / "diatomic_dp" / "data" / "fig1.json"

    def alpha():
        return float(rng.uniform(0.25, 0.5))

    specs = [
        dict(sub="eval", path=fig1, policy="uniform"),
        dict(sub="spe", path=fig1, alpha=alpha(), policy="always:1"),
        dict(sub="dbo", path=fig1, alpha=alpha(), policy="uniform", k=DBO_K),
        dict(sub="safe", path=fig1, alpha=alpha()),
        dict(sub="risky", path=fig1, alpha=alpha()),
        dict(sub="robust-verify", path=fig1, alpha=alpha(), policy="always:1"),
        dict(sub="risky-lp", path=fig1, alpha=alpha()),
        dict(sub="avar", path=dist_path, alpha=alpha()),
    ]
    # subcommands and policies follow the file index, not the seed: they
    # set the cost (a uniform-policy dbo on a three-state file makes 6x the
    # atoms of a deterministic one), and the cost should not move with the seed
    for i, path in enumerate(p for p in paths if pathlib.Path(p).stem != "fig1"):
        sub = CLI_ROTATION[i % len(CLI_ROTATION)]
        spec = dict(sub=sub, path=path)
        if sub != "eval":
            spec["alpha"] = alpha()
        if sub in ("spe", "eval"):
            spec["policy"] = "uniform" if i % 2 else "always:0"
        if sub == "dbo":
            spec.update(policy="uniform", k=DBO_K)
        if sub == "robust-verify":
            spec["policy"] = f"always:{i % 2}"
        specs.append(spec)
    specs += [
        dict(sub="spe", path=big_path, alpha=alpha(), policy="uniform"),
        dict(sub="safe", path=big_path, alpha=alpha()),
        dict(sub="eval", path=big_path, policy="uniform"),
    ]
    tasks = [cli_task(i, ctx, refs, **spec) for i, spec in enumerate(specs)]
    (ctx.work / "runs").mkdir(parents=True, exist_ok=True)
    records = [{"name": big_path.name, "S": big.n_states, "A": big.n_actions, "gamma": big.gamma,
                "nnz": int(np.count_nonzero(big.transition)), "bytes": big_path.stat().st_size}]
    mdp_files = sorted({str(s["path"]) for s in specs if s["sub"] != "avar"})

    def probe(tr: Tracer) -> tuple[int, list[str]]:
        """In-process layers: ``load_mdp`` on every input file, and every argv through ``cli.main``."""
        failures = []
        for path in mdp_files:
            tr.call("mdp.load_mdp", load_mdp, path)
        with contextlib.redirect_stdout(io.StringIO()):
            for task in tasks:
                argv = list(task.argv)
                argv[argv.index("--out") + 1] = str(ctx.work / "inproc")
                code = tr.call("cli.main", cli.main, argv)
                if code != 0:
                    failures.append(f"{task.id} in-process: exit code {code}")
        return len(mdp_files) + len(tasks), failures

    return Workload(tasks, records, probe)


def library(seed: int, tr: Tracer, ctx: Context) -> Workload:
    """The large solves, then the small certificates, as one round."""
    large, small = large_solves(seed, tr), small_certificates(seed, tr)
    return Workload(large.tasks + small.tasks, large.instances + small.instances, large.probe)


WORKLOADS = {
    "library": library,
    "cli_corpus": cli_corpus,
}
