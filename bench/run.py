"""The probuchi benchmark: one closed-loop caller, exact answers checked.

Usage, from the root of a checkout:

    python3 bench/run.py --workload exact_lasso --seed 1 --seconds 20 --trace 0

Workloads: exact_lasso, decide_certified, sample_stream, cli_roundtrip (see
``workloads.py``).  The program is the checkout's own ``src/probuchi``;
the benchmark refuses to run without it.  Set-up (import, generating inputs
and expected answers, writing files, a warm-up) is repeated
``SETUP_REPEATS`` times and reported as its median.  The timed phase then
runs whole passes over the workload's query list, one query at a time,
until ``--seconds`` have passed and at least ``MIN_QUERIES`` were made.
Times are rescaled to a fixed machine speed by a probe run beside them
(``speed.py``); the record line gives them unscaled as well.

With ``--trace 0`` the last line of standard output is a JSON object with
the end-to-end metrics; with ``--trace 1`` the first third of the time runs
untraced and the rest with spans around the program's public functions,
and the metrics are the per-layer ones.  Every per-layer time and count is
a total per pass over the query list.  The line before the result records
the workload's input sizes and why it was chosen.
"""

from __future__ import annotations

import argparse
import importlib
import json
import os
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import speed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MODULES = ("core", "graphs", "markov", "construct", "decide", "sim", "textio", "cli")
SETUP_REPEATS = 3
MIN_QUERIES = 100
PROBE_EVERY_S = 0.02
WORKLOADS = ("exact_lasso", "decide_certified", "sample_stream", "cli_roundtrip")

END_TO_END = [
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]

# name, unit; every time and count is a total per pass
PER_LAYER = [
    ("markov.build_lasso_chain.self_s", "s"),
    ("markov.chain_nodes", "count"),
    ("markov.solve_linear.self_s", "s"),
    ("markov.unknowns", "count"),
    ("markov.lasso_acceptance.calls", "count"),
    ("markov.lasso_acceptance.self_s", "s"),
    ("markov.bsccs_accepting", "count"),
    ("markov.bsccs_rejecting", "count"),
    ("markov.word_matrix.self_s", "s"),
    ("markov.final_passage_matrix.self_s", "s"),
    ("core.validate.calls", "count"),
    ("core.validate.self_s", "s"),
    ("graphs.tarjan_sccs.calls", "count"),
    ("graphs.tarjan_sccs.self_s", "s"),
    ("construct.complement_to_fpm.self_s", "s"),
    ("construct.hpba_to_nba.self_s", "s"),
    ("decide.transition_monoid.self_s", "s"),
    ("decide.monoid_elements", "count"),
    ("decide.nba_universality.self_s", "s"),
    ("decide.profile_elements", "count"),
    ("decide.nba_complement.self_s", "s"),
    ("decide.complement_states", "count"),
    ("decide.certify.total_s", "s"),
    ("decide.lassos_probed", "count"),
    ("sim.mc_lasso_estimate.self_s", "s"),
    ("sim.samples_per_s", "1/s"),
    ("sim.MonitorSession.feed.self_s", "s"),
    ("sim.symbols_per_s", "1/s"),
    ("textio.parse.self_s", "s"),
    ("textio.parse.bytes_per_s", "B/s"),
    ("textio.serialize.self_s", "s"),
    ("cli.interpreter_s", "s"),
    ("cli.import_s", "s"),
    ("cli.run.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
    ("failed_frac", "ratio"),
]


class Program:
    """The checkout's probuchi modules, freshly imported."""

    def __init__(self) -> None:
        for name in [k for k in sys.modules if k == "probuchi" or k.startswith("probuchi.")]:
            del sys.modules[name]
        importlib.invalidate_caches()
        for name in MODULES:
            setattr(self, name, importlib.import_module(f"probuchi.{name}"))
        where = Path(self.core.__file__).resolve()
        if SRC.resolve() not in where.parents:
            raise SystemExit(f"bench: imported probuchi from {where}, not from {SRC}")


def build(name: str, seed: int, workdir: Path, runner):
    """Import (library workloads), generate inputs and expected answers,
    write files (CLI workload) and warm up: the set-up a run pays once."""
    import workloads

    if name == "cli_roundtrip":
        wl = workloads.cli_roundtrip(seed, ROOT, workdir, runner)
    else:
        wl = getattr(workloads, name)(seed, Program())
    for q in wl.warmup:
        try:
            q.call()
        except Exception:  # failures are counted in the timed phase
            pass
    return wl


def run_passes(queries, seconds: float, min_queries: int, stats: dict) -> None:
    """Whole passes over ``queries`` until time and count are both reached.

    A speed probe (see ``speed.py``) runs before a query whenever
    ``PROBE_EVERY_S`` of query time has passed since the last one.  Each
    query's time is then rescaled by the median of the probes around it:
    the two before it and the two after.
    """
    start = time.perf_counter()
    probes = [speed.probe_s()]
    raws: list[float] = []
    last_probe: list[int] = []  # per query, the index of the probe before it
    since = 0.0
    while True:
        for q in queries:
            if since >= PROBE_EVERY_S:
                probes.append(speed.probe_s())
                since = 0.0
            t0 = time.perf_counter()
            try:
                result, error = q.call(), None
            except Exception as exc:  # a raising query is a failed query
                result, error = None, exc
            # a child process is timed by the spawner, around spawn and wait
            raw = getattr(result, "elapsed_s", time.perf_counter() - t0)
            since += raw
            raws.append(raw)
            last_probe.append(len(probes) - 1)
            stats["attempted"] += 1
            ok = error is None and _check(q, result)
            if ok:
                stats["correct"] += 1
                continue
            stats["failed"] += 1
            if not _known_defect(q, result, error):
                stats["unexpected"].append(q.kind)
        stats["passes"] += 1
        if time.perf_counter() - start >= seconds and stats["attempted"] >= min_queries:
            break
    probes.append(speed.probe_s())
    for raw, j in zip(raws, last_probe):
        dt = raw * speed.REFERENCE_S / statistics.median(probes[max(0, j - 1):j + 3])
        stats["busy_s"] += dt
        stats["latencies"].append(dt)
        stats["raw_busy_s"] += raw
        stats["raw_latencies"].append(raw)


def _check(q, result) -> bool:
    try:
        return bool(q.check(result))
    except Exception:  # a malformed answer is a wrong answer
        return False


def _known_defect(q, result, error) -> bool:
    if q.known_defect is None:
        return False
    text = str(error) if error is not None else getattr(result, "stderr", "")
    return q.known_defect in text


def _new_stats() -> dict:
    return {"latencies": [], "raw_latencies": [], "attempted": 0, "failed": 0,
            "unexpected": [], "correct": 0, "busy_s": 0.0, "raw_busy_s": 0.0, "passes": 0}


def _merge(a: dict, b: dict) -> dict:
    return {k: a[k] + b[k] for k in a}


def _ops_per_s(stats: dict, busy: str = "busy_s") -> float:
    return stats["correct"] / stats[busy]


def raw_times(stats: dict) -> dict:
    """The end-to-end times before rescaling, for the record line."""
    lat = sorted(stats["raw_latencies"])
    return {"ops_per_s": _ops_per_s(stats, "raw_busy_s"),
            "op_p50_ms": 1000 * statistics.median(lat),
            "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
            "time_scale": stats["busy_s"] / stats["raw_busy_s"]}


def end_to_end(stats: dict, setups: list[float], runner) -> dict:
    lat = sorted(stats["latencies"])
    return {
        "ops_per_s": _ops_per_s(stats),
        "op_p50_ms": 1000 * statistics.median(lat),
        "op_p90_ms": 1000 * statistics.quantiles(lat, n=10)[8],
        "setup_s": statistics.median(setups),
        # the largest CLI child's, or this process's
        "peak_rss_mb": (runner.peak_kb if runner is not None
                        else resource.getrusage(resource.RUSAGE_SELF).ru_maxrss) / 1024.0,
    }


def per_layer(traced_runs: list[dict], passes: int, stats: dict, overhead: float) -> dict:
    import spans

    span_list: list = []
    counts: dict[str, float] = {}
    interp = imp = 0.0
    for rec in traced_runs:
        offset = len(span_list)
        span_list.extend([n, s, e, p + offset if p >= 0 else -1] for n, s, e, p in rec["spans"])
        for k, v in rec["counts"].items():
            counts[k] = counts.get(k, 0.0) + v
        interp += rec.get("interpreter_s", 0.0)
        imp += rec.get("import_s", 0.0)
    summary = spans.summarize(span_list)

    def stat(span: str, key: str) -> float:
        return summary.get(span, {}).get(key, 0.0)

    def rate(amount: float, span: str) -> float:
        t = stat(span, "total_s")
        return amount / t if t else 0.0

    values = {}
    for metric, _unit in PER_LAYER:
        head, _, last = metric.rpartition(".")
        if last in ("self_s", "calls") and head in summary:
            values[metric] = stat(head, last) / passes
        else:
            values[metric] = counts.get(metric, 0.0) / passes
    values.update({
        "decide.certify.total_s": stat("decide.certify", "total_s") / passes,
        "decide.lassos_probed": stat("decide.certify", "calls") / passes,
        "sim.samples_per_s": rate(counts.get("sim.samples", 0.0), "sim.mc_lasso_estimate"),
        "sim.symbols_per_s": rate(stat("sim.MonitorSession.feed", "calls"), "sim.MonitorSession.feed"),
        "textio.parse.bytes_per_s": rate(counts.get("textio.parse.bytes", 0.0), "textio.parse"),
        "cli.interpreter_s": interp / passes,
        "cli.import_s": imp / passes,
        "trace.overhead_frac": overhead,
        "failed_frac": stats["failed"] / stats["attempted"],
    })
    return values


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (SRC / "probuchi" / "__init__.py").is_file():
        print(f"bench: no program sources at {SRC / 'probuchi'}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import spans
    import workloads

    workdir = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    runner = None
    try:
        if args.workload == "cli_roundtrip":
            runner = workloads.CliRunner(ROOT, workdir)
        setups, raw_setups = [], []
        for _ in range(SETUP_REPEATS):
            before = [speed.probe_s() for _ in range(3)]
            t0 = time.perf_counter()
            wl = build(args.workload, args.seed, workdir, runner)
            raw_setups.append(time.perf_counter() - t0)
            after = [speed.probe_s() for _ in range(3)]
            setups.append(raw_setups[-1] * speed.REFERENCE_S / statistics.median(before + after))

        stats = _new_stats()
        if not args.trace:
            run_passes(wl.queries, args.seconds, MIN_QUERIES, stats)
            metrics = end_to_end(stats, setups, runner)
            units = dict(END_TO_END)
        else:
            run_passes(wl.queries, args.seconds / 3, 1, stats)
            untraced = _ops_per_s(stats)
            traced = _new_stats()
            if runner is not None:
                runner.launcher = HERE / "cli_launcher.py"
                run_passes(wl.queries, 2 * args.seconds / 3, 1, traced)
                records = runner.records
            else:
                tracer = spans.Tracer()
                restore = tracer.install()
                try:
                    run_passes(wl.queries, 2 * args.seconds / 3, 1, traced)
                finally:
                    restore()
                records = [tracer.export()]
                (workdir.parent / f"spans-{args.workload}-{args.seed}.json").write_text(
                    json.dumps(records[0]["spans"]))
            overhead = 1 - _ops_per_s(traced) / untraced
            stats = _merge(stats, traced)
            metrics = per_layer(records, traced["passes"], stats, overhead)
            units = dict(PER_LAYER)

        print(json.dumps({"workload": wl.name, "why": wl.why, "passes": stats["passes"],
                          "raw": dict(raw_times(stats), setup_s=statistics.median(raw_setups)),
                          "queries_per_pass": len(wl.queries), "failed_frac":
                          stats["failed"] / stats["attempted"],
                          "unexpected_failures": sorted(set(stats["unexpected"])),
                          "sizes": wl.sizes}, default=list))
        print(json.dumps({
            "correct": not stats["unexpected"],
            "attempted": stats["attempted"],
            "failed": stats["failed"],
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
