"""diatomic-dp benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a checkout:

    python3 bench/run.py --workload library --seed 1 --seconds 50 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the
separate traced pass and prints the per-layer metrics. The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``. A results file (and, traced, a spans file)
is written under ``.bench_out/``. See bench/NOTES.md.
"""

from __future__ import annotations

import os
import sys

# the benchmark leaves no __pycache__ behind in bench/ or src/
sys.dont_write_bytecode = True
# BLAS pools size themselves when numpy loads, so the cap goes into the
# environment before any import that could load numpy; children inherit it.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

from spans import Tracer, layer_self_times, span_totals  # noqa: E402

ROOT = pathlib.Path.cwd()
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_REPEATS = 5  # setup_s is the median of this many complete set-ups
MIN_ROUNDS = 3  # untraced rounds always run; the tail percentile is fixed from them
TAIL_BEYOND = 10  # the tail percentile keeps at least this many tasks beyond it
PROBE_REPEATS = 5  # traced pass: child-process start-up probes, median reported
STARTUP_EVERY = 1.5  # untraced: a `diatomic-dp --help` probe after each this many seconds of task time
LAYERS = ("diatomic", "control", "mdp", "robust", "risky_lp", "simplex", "returns", "dbo", "dist", "cli", "bench")
SUBCOMMANDS = ("eval", "spe", "dbo", "safe", "risky", "robust-verify", "risky-lp", "avar")


class Failed:
    """Output slot of a task that raised."""

    def __init__(self, reason: str):
        self.reason = reason


@dataclass
class Measurement:
    untraced_walls: list[float] = field(default_factory=list)
    traced_walls: list[float] = field(default_factory=list)
    task_times: list[float] = field(default_factory=list)  # untraced rounds only
    id_times: dict[str, list[float]] = field(default_factory=dict)  # untraced rounds only
    startup: list[float] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    selfcheck: tuple[int, list[str]] = (0, [])
    tracer: Tracer = field(default_factory=lambda: Tracer(True))


def run_round(tasks, tr: Tracer, probe=None):
    """One closed-loop pass over the task list: (wall, per-task times, outputs, probe time).

    ``probe``, if given, runs between tasks each time STARTUP_EVERY seconds
    of task time have passed since it last ran. Its time is left out of
    the wall and returned on its own.
    """
    times, outs = [], []
    probing, since_probe = 0.0, 0.0
    start = time.perf_counter()
    for task in tasks:
        with tr.task(task.id):
            t0 = time.perf_counter()
            try:
                out = task.run(tr)
            except Exception as exc:  # a raising task is a failed task, the loop goes on
                out = Failed(f"{type(exc).__name__}: {exc}")
            times.append(time.perf_counter() - t0)
        outs.append(out)
        since_probe += times[-1]
        if probe is not None and since_probe >= STARTUP_EVERY:
            p0 = time.perf_counter()
            probe()
            probing += time.perf_counter() - p0
            since_probe = 0.0
    return time.perf_counter() - start - probing, times, outs, probing


def judge(task, out) -> str | None:
    if isinstance(out, Failed):
        return out.reason
    try:
        return task.check(out)
    except Exception as exc:  # a check that cannot run means the output is unusable
        return f"check raised {type(exc).__name__}: {exc}"


def gate_selfcheck(tasks, outs) -> tuple[int, list[str]]:
    """Feed perturbed outputs to the gate; every one must be rejected."""
    missed, n = [], 0
    for task, out in zip(tasks, outs):
        if task.perturb is None or isinstance(out, Failed):
            continue
        n += 1
        if judge(task, task.perturb(out)) is None:
            missed.append(task.id)
    return n, missed


def child_seconds(ctx, argv, repeats: int) -> list[float]:
    """Wall time of ``repeats`` runs of a child that must exit 0."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        proc = ctx.run(argv)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"{argv[-1]!r} probe exited with {proc.returncode}: {proc.stderr[-300:]}")
    return times


def set_up(build, seed: int, tr: Tracer, ctx):
    """Build the workload SETUP_REPEATS times from scratch; returns (workload, times)."""
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(ctx.work, ignore_errors=True)
        ctx.work.mkdir(parents=True)
        t0 = time.perf_counter()
        wl = build(seed, tr, ctx)
        seen = set()
        for task in wl.tasks:  # warm-up: the first task of each kind, unjudged
            if task.kind not in seen:
                seen.add(task.kind)
                run_round([task], Tracer(False))
        times.append(time.perf_counter() - t0)
    return wl, times


def measure(tasks, seconds: float, traced: bool, ctx) -> Measurement:
    """Whole rounds in a closed loop, checks after each round's timed interval.

    Untraced: at least MIN_ROUNDS rounds, with start-up probes spread
    through them. Traced: untraced and traced rounds alternate, at least
    one of each. Stops where the measured time, probes included, lands
    closest to ``seconds``.
    """
    m = Measurement()
    help_argv = ctx.command("--help")
    if not traced:  # warm-up: the first child reads cold files and may compile bytecode
        child_seconds(ctx, help_argv, 1)
    elapsed = 0.0
    while True:
        tracing_round = traced and len(m.untraced_walls) > len(m.traced_walls)
        probe = None if traced else lambda: m.startup.extend(child_seconds(ctx, help_argv, 1))
        wall, times, outs, probing = run_round(tasks, m.tracer if tracing_round else Tracer(False), probe)
        elapsed += wall + probing
        if tracing_round:
            m.traced_walls.append(wall)
        else:
            m.untraced_walls.append(wall)
            m.task_times += times
            for task, t in zip(tasks, times):
                m.id_times.setdefault(task.id, []).append(t)
        m.attempted += len(tasks)
        m.failures += [f"{task.id}: {reason}" for task, out in zip(tasks, outs) if (reason := judge(task, out))]
        rounds = len(m.untraced_walls) + len(m.traced_walls)
        if rounds == 1:
            m.selfcheck = gate_selfcheck(tasks, outs)
        done = len(m.untraced_walls) >= (1 if traced else MIN_ROUNDS) and len(m.traced_walls) >= int(traced)
        if done and elapsed + elapsed / rounds / 2 > seconds:
            return m


def metric(value: float, unit: str) -> dict:
    return {"value": float(value), "unit": unit}


def interquartile_mean(values) -> float:
    """Mean of the middle half: as robust to stray slow samples as a median,
    but it moves smoothly, not in jumps, when the share of slow samples shifts."""
    values = sorted(values)
    cut = len(values) // 4
    return statistics.fmean(values[cut:len(values) - cut])


def end_to_end(m: Measurement, setup_times, tasks, rss_of_children: bool, np):
    n_min = MIN_ROUNDS * len(tasks)
    tail_pct = 100.0 * (n_min - TAIL_BEYOND) / n_min
    self_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    child_rss = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    metrics = {
        "setup_s": metric(statistics.median(setup_times), "s"),
        "wall_s": metric(statistics.median(m.untraced_walls), "s"),
        "task_s.p50": metric(np.percentile(m.task_times, 50), "s"),
        "task_s.tail": metric(np.percentile(m.task_times, tail_pct), "s"),
        "startup_s": metric(interquartile_mean(m.startup), "s"),
        "peak_rss_mb": metric(child_rss if rss_of_children else self_rss, "MB"),
        "ok_frac": metric(1.0 - len(m.failures) / m.attempted, "fraction"),
    }
    extra = {
        "tail_percentile": tail_pct, "task_samples": len(m.task_times), "rounds": len(m.untraced_walls),
        "round_walls": m.untraced_walls, "tasks_per_round": len(tasks),
        "task_s_by_kind": {k: float(np.median([t for task in tasks if task.kind == k for t in m.id_times[task.id]]))
                           for k in dict.fromkeys(task.kind for task in tasks)},
        "task_s_by_id": m.id_times,
        "setup_times": setup_times, "startup_times": m.startup, "rss_mb": {"self": self_rss, "children": child_rss},
    }
    return metrics, extra


def per_layer(m: Measurement, setup_tracer: Tracer, probe_tracer: Tracer, ctx):
    """Per traced round, except the per-process cli probes and the one-pass probes."""
    n_rounds = len(m.traced_walls)
    totals = span_totals(m.tracer.spans)
    probe = span_totals(probe_tracer.spans)
    counts = m.tracer.counts

    def busy(*names):
        return sum(totals.get(n, (0, 0.0))[1] for n in names) / n_rounds

    def counted(name):
        return counts.get(name, 0.0) / n_rounds

    interp = child_seconds(ctx, [sys.executable, "-c", "pass"], PROBE_REPEATS)
    import_cmd = "import time; t = time.perf_counter(); import diatomic_dp.cli; print(time.perf_counter() - t)"
    imports = [float(ctx.run([sys.executable, "-c", import_cmd]).stdout) for _ in range(PROBE_REPEATS)]
    cli_calls: dict[str, list[float]] = {}
    for name, start, end, _, _ in m.tracer.spans:
        if name.startswith("cli."):
            cli_calls.setdefault(name, []).append((end - start) * 1e-9)
    particles = counted("diatomic.particles")
    layers = layer_self_times(m.tracer.spans)
    values = {
        "diatomic.spe_s": (busy("diatomic.spe"), "s"),
        "diatomic.spe_calls": (totals.get("diatomic.spe", (0, 0.0))[0] / n_rounds, "count"),
        "diatomic.sweeps": (counted("diatomic.sweeps"), "count"),
        "diatomic.sweep_s": (probe.get("diatomic.diatomic_bellman_apply", (0, 0.0))[1], "s"),
        "diatomic.particles": (particles, "count"),
        "diatomic.live_particles": (counted("diatomic.live_particles"), "count"),
        "diatomic.live_frac": (counted("diatomic.live_particles") / particles if particles else 0.0, "fraction"),
        "control.svi_s": (busy("control.svi"), "s"),
        "control.svi_sweeps": (counted("control.svi_sweeps"), "count"),
        "control.certificate_s": (busy("control.optimality_certificate"), "s"),
        "control.certificate_candidates": (counted("control.certificate_candidates"), "count"),
        "mdp.evaluate_policy_s": (busy("mdp.evaluate_policy"), "s"),
        "mdp.evaluate_iterations": (counted("mdp.evaluate_iterations"), "count"),
        "mdp.load_s": (probe.get("mdp.load_mdp", (0, 0.0))[1], "s"),
        "robust.worst_best_s": (busy("robust.worst_best_case"), "s"),
        "robust.kernel_candidates": (counted("robust.kernel_candidates"), "count"),
        "robust.bavar_gap_s": (busy("robust.bavar_vs_avar_gap"), "s"),
        "risky_lp.rows_s": (busy("risky_lp.build_risky_primal"), "s"),
        "risky_lp.rows": (counted("risky_lp.rows"), "count"),
        "simplex.solve_s": (busy("simplex.solve"), "s"),
        "risky_lp.gap_check_s": (busy("risky_lp.duality_gap_check"), "s"),
        "returns.exact_avars_s": (busy("returns.exact_return_avars"), "s"),
        "dbo.iterate_s": (busy("dbo.dbo_iterate"), "s"),
        "dbo.atoms": (counted("dbo.atoms"), "count"),
        "dist.avar_s": (busy("dist.avar_left", "dist.avar_right"), "s"),
        "cli.interp_s": (statistics.median(interp), "s"),
        "cli.import_s": (statistics.median(imports), "s"),
        **{f"cli.{sub}_s": (statistics.median(cli_calls.get(f"cli.{sub}", [0.0])), "s") for sub in SUBCOMMANDS},
        "cli.inproc_s": (probe.get("cli.main", (0, 0.0))[1], "s"),
        "cli.artifact_bytes": (counted("cli.artifact_bytes"), "bytes"),
        "corpus.generate_s": (sum(s for n, (_, s) in span_totals(setup_tracer.spans).items()
                                  if n.startswith("corpus.")) / SETUP_REPEATS, "s"),
        "trace.overhead_s": (statistics.median(m.traced_walls) - statistics.median(m.untraced_walls), "s"),
        **{f"{layer}.self_s": (layers.get(layer, 0.0) / n_rounds, "s") for layer in LAYERS},
    }
    extra = {"traced_walls": m.traced_walls, "untraced_walls": m.untraced_walls,
             "layer_self_s": {k: v / n_rounds for k, v in layers.items()}}
    return {name: metric(v, unit) for name, (v, unit) in values.items()}, extra


def environment(np) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads": {var: os.environ[var] for var in THREAD_VARS},
        "machine": platform.machine(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "diatomic_dp" / "__init__.py").is_file():
        print(f"error: {SRC / 'diatomic_dp'} not found; run from the root of a diatomic-dp checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import diatomic_dp
    from workloads import WORKLOADS, Context

    if pathlib.Path(diatomic_dp.__file__).resolve().parent != (SRC / "diatomic_dp").resolve():
        print(f"error: imported diatomic_dp from {diatomic_dp.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2

    # Children cache bytecode under src/ like an installed package does,
    # whatever the caller's PYTHONDONTWRITEBYTECODE; the first child compiles.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    ctx = Context(ROOT, OUT / f"work-{args.workload}-{args.seed}-{os.getpid()}", dict(env, PYTHONPATH=str(SRC)))
    traced = bool(args.trace)
    setup_tracer = Tracer(traced)
    try:
        wl, setup_times = set_up(WORKLOADS[args.workload], args.seed, setup_tracer, ctx)
        m = measure(wl.tasks, args.seconds, traced, ctx)
        if not traced:
            metrics, extra = end_to_end(m, setup_times, wl.tasks, args.workload == "cli_corpus", np)
        else:
            probe_tracer = Tracer(True)
            if wl.probe is not None:
                n, probe_failures = wl.probe(probe_tracer)
                m.attempted += n
                m.failures += probe_failures
            metrics, extra = per_layer(m, setup_tracer, probe_tracer, ctx)
            extra["spans_file"] = str(OUT / f"spans-{args.workload}-seed{args.seed}.json")
            with open(extra["spans_file"], "w") as fh:
                json.dump({"fields": ["name", "start_ns", "end_ns", "parent", "task"],
                           "rounds": len(m.traced_walls), "spans": m.tracer.spans,
                           "probe_spans": probe_tracer.spans, "setup_spans": setup_tracer.spans}, fh)
    finally:
        shutil.rmtree(ctx.work, ignore_errors=True)

    n_perturbed, missed = m.selfcheck
    correct = not m.failures and n_perturbed > 0 and not missed
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(np), "correct": correct, "attempted": m.attempted, "failures": m.failures,
        "gate_selfcheck": {"perturbed": n_perturbed, "not_rejected": missed},
        "metrics": metrics, "instances": wl.instances, **extra,
    }
    results_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(results_path, "w") as fh:
        json.dump(report, fh, indent=1)

    print(f"# environment: {json.dumps(report['environment'])}")
    for line in m.failures[:20]:
        print(f"# FAILED {line}")
    print(f"# gate self-check: {n_perturbed} perturbed outputs, {len(missed)} not rejected {missed[:5]}")
    if not traced:
        print(f"# {extra['rounds']} rounds x {len(wl.tasks)} tasks; tail = p{extra['tail_percentile']:.2f} "
              f"of {extra['task_samples']} task times")
    for name, mv in metrics.items():
        print(f"# {name} = {mv['value']:.6g} {mv['unit']}")
    print(f"# results: {results_path}")
    print(json.dumps({"correct": correct, "attempted": m.attempted, "failed": len(m.failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
