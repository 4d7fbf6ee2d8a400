"""Print a digest of every CLI artifact over a fixed matrix of runs.

Runs ``diatomic_dp.cli.main`` in-process on each ``corpus.bundled_corpus``
file (fig1 first) and on one four-atom distribution file, and prints one
line per run: the argv, the exit code, and a sha256 of ``result.json``,
``trace.csv``, the ``risky-lp --dump-lp`` file, stdout and stderr ("-"
for a file the run did not write).
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
import json
import os
import pathlib
import shutil

from diatomic_dp import cli, corpus
from diatomic_dp.mdp import load_mdp

FOUR_ATOMS = [
    {"value": -5, "prob": 0.2},
    {"value": -1, "prob": 0.4},
    {"value": 4, "prob": 0.2},
    {"value": 8, "prob": 0.2},
]
DUMP = "primal.lp"  # the --dump-lp target, relative to the work directory


def ramp_weights(n: int) -> str:
    """Initial weights proportional to 1..n, as a --nu0 argument."""
    return ",".join(repr((i + 1) / (n * (n + 1) / 2)) for i in range(n))


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
    weights = ramp_weights(load_mdp(path).n_states)
    yield ["risky-lp", path, "--nu0", weights, "--dump-lp", DUMP]


def digest(data: bytes | None) -> str:
    return "-" if data is None else hashlib.sha256(data).hexdigest()


def read(path: pathlib.Path) -> bytes | None:
    return path.read_bytes() if path.exists() else None


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
    files = [read(pathlib.Path(out) / name) for name in ("result.json", "trace.csv")]
    files.append(read(pathlib.Path(DUMP)))
    streams = [s.getvalue().encode() for s in (stdout, stderr)]
    return " ".join([" ".join(argv), f"exit={code}", *(digest(d) for d in files + streams)])


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("workdir", help="directory for the corpus files and run outputs")
    work = pathlib.Path(parser.parse_args().workdir)
    work.mkdir(parents=True, exist_ok=True)
    os.chdir(work)
    for sub in ("corpus", "runs"):
        shutil.rmtree(sub, ignore_errors=True)
    paths = [os.path.relpath(p) for p in corpus.bundled_corpus("corpus")]
    dist = pathlib.Path("corpus") / "four_atoms.json"
    dist.write_text(json.dumps(FOUR_ATOMS))
    runs = [argv for path in paths for argv in mdp_runs(path)]
    runs += [["avar", str(dist), "--alpha", alpha] for alpha in ("0.3", "0.7")]
    for i, argv in enumerate(runs):
        print(run_one(argv, f"runs/{i:04d}"), flush=True)


if __name__ == "__main__":
    main()
