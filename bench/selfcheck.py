"""Checks of the benchmark itself.

Run from the root of a checkout: ``python3 bench/selfcheck.py``.  It checks
that

- the input generators are deterministic for a seed, across processes with
  different string hashing, and that another seed gives other inputs;
- every oracle agrees with the program on one pass of every workload at a
  small seed, the CLI's failures being exactly its known defects;
- a deliberately wrong expected value, a raising query and a known-defect
  query failing for another reason are counted as failures without
  stopping the run;
- the reference sampler reproduces pinned estimates;
- ``BENCHMARK.json`` names the workloads and metrics ``run.py`` reports.

Exits with status 1 and a message on the first problem.
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import model  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402
from model import F  # noqa: E402

LIBRARY = ("exact_lasso", "decide_certified", "sample_stream")
SMALL_SEED = 0


def fail(message: str) -> None:
    print(f"selfcheck: FAIL: {message}")
    sys.exit(1)


def labels(name: str, seed: int) -> list[str]:
    """Input labels of one workload, built in this process."""
    if name == "cli_roundtrip":
        workdir = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
        workdir.mkdir(parents=True, exist_ok=True)
        runner = workloads.CliRunner(ROOT, workdir)
        try:
            wl = workloads.cli_roundtrip(seed, ROOT, workdir, runner)
        finally:
            runner.close()
        files = sorted((p.name, p.read_text()) for p in workdir.iterdir())
        shutil.rmtree(workdir)
        return [q.label for q in wl.queries] + [f"{n} {workloads._sha(t)}" for n, t in files]
    wl = getattr(workloads, name)(seed, run.Program())
    return [q.label for q in wl.queries]


def check_determinism() -> None:
    for name in run.WORKLOADS:
        runs = []
        for hashseed in ("1", "2"):
            env = dict(os.environ, PYTHONHASHSEED=hashseed)
            out = subprocess.run(
                [sys.executable, str(Path(__file__)), "--labels", name, str(SMALL_SEED)],
                capture_output=True, text=True, env=env, check=True).stdout
            runs.append(json.loads(out))
        if runs[0] != runs[1]:
            fail(f"{name}: inputs differ between two builds with seed {SMALL_SEED}")
        if labels(name, SMALL_SEED + 1) == runs[0]:
            fail(f"{name}: seeds {SMALL_SEED} and {SMALL_SEED + 1} give the same inputs")
        print(f"ok: {name} inputs are a function of the seed ({len(runs[0])} queries)")


def one_pass(wl) -> dict:
    stats = run._new_stats()
    run.run_passes(wl.queries, 0, 1, stats)
    return stats


def check_oracles() -> None:
    for name in LIBRARY:
        stats = one_pass(getattr(workloads, name)(SMALL_SEED, run.Program()))
        if stats["failed"]:
            fail(f"{name}: {stats['failed']} answers disagree with the oracles: {stats['unexpected']}")
        print(f"ok: {name} program and oracles agree on all {stats['attempted']} queries")
    workdir = ROOT / ".bench_work" / f"selfcheck-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = workloads.CliRunner(ROOT, workdir)
    try:
        wl = workloads.cli_roundtrip(SMALL_SEED, ROOT, workdir, runner)
        stats = one_pass(wl)
    finally:
        runner.close()
        shutil.rmtree(workdir)
    defects = sum(1 for q in wl.queries if q.known_defect)
    if stats["unexpected"] or stats["failed"] != defects:
        fail(f"cli_roundtrip: {stats['failed']} failed, {defects} known defects, "
             f"unexpected: {stats['unexpected']}")
    print(f"ok: cli_roundtrip agrees on {stats['attempted'] - defects} queries; "
          f"{defects} known-defect queries fail as documented")


def check_failures_are_counted() -> None:
    wl = workloads.exact_lasso(SMALL_SEED, run.Program())
    good = wl.queries[0]

    def boom():
        raise RuntimeError("deliberate")

    queries = [
        good,
        workloads.Query("wrong", good.call, workloads._equals(F(7, 3))),
        workloads.Query("raises", boom, workloads._equals(None)),
        workloads.Query("defect-other-error", boom, workloads._equals(None), known_defect="limit"),
        workloads.Query("defect", lambda: (_ for _ in ()).throw(ValueError("Exceeds the limit")),
                        workloads._equals(None), known_defect="Exceeds the limit"),
    ]
    stats = one_pass(workloads.Workload("t", queries))
    if (stats["attempted"], stats["failed"]) != (5, 4):
        fail(f"expected 4 of 5 queries failed, got {stats['failed']} of {stats['attempted']}")
    if sorted(stats["unexpected"]) != ["defect-other-error", "raises", "wrong"]:
        fail(f"wrong unexpected failures: {stats['unexpected']}")
    print("ok: wrong answers, raising queries and known defects are counted, and the run goes on")


def check_reference_sampler() -> None:
    # Pinned from the documented algorithm (splitmix64 per-sample streams,
    # bitwise interval refinement); a change here means the reference moved.
    pinned = [((), ("1", "0"), 1000, 7, 0.657), (("0",), ("1",), 500, 12345, 0.524)]
    for stem, cycle, n, seed, mean in pinned:
        got, _ = oracles.reference_mc(model.m_id(), stem, cycle, n, seed)
        if got != mean:
            fail(f"reference sampler gives {got} for {stem};{cycle} n={n} seed={seed}, pinned {mean}")
    print("ok: reference sampler reproduces its pinned estimates")


def check_benchmark_json() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        fail("BENCHMARK.json workloads differ from run.WORKLOADS")
    for key, listed in (("end_to_end", run.END_TO_END), ("per_layer", run.PER_LAYER)):
        if [(m["name"], m["unit"]) for m in spec[key]] != listed:
            fail(f"BENCHMARK.json {key} differs from run.py")
    print("ok: BENCHMARK.json matches run.py")


def main() -> None:
    if len(sys.argv) == 4 and sys.argv[1] == "--labels":
        print(json.dumps(labels(sys.argv[2], int(sys.argv[3]))))
        return
    check_benchmark_json()
    check_reference_sampler()
    check_failures_are_counted()
    check_determinism()
    check_oracles()
    print("selfcheck: all checks passed")


if __name__ == "__main__":
    main()
