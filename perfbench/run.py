"""Fixed-work end-to-end benchmark of the STCG reproduction, split by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload stcg-cold --seed 1 --seconds 25 --trace 0

``--workload`` is one of ``stcg-cold``, ``stcg-warm``, ``fuzz-sweep``,
``sldv-unroll``, or ``all`` (each workload untraced, then traced).  The
benchmark repeats passes over the workload's fixed cell list until
``--seconds`` have elapsed (at least one pass) and reports medians over
passes; end-to-end times are rescaled to full host speed by
``hostspeed.HostMeter``.  ``--trace 0`` reports the end-to-end metrics;
``--trace 1`` reruns the cells with provenance off and with tracing on,
and reports the per-layer metrics plus where the time goes.  Every generated suite is
replayed through the reference interpreter, and every cell's suite digest
must match its first run (and, for ``stcg-warm``, its cold run).  The
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

from hostspeed import HostMeter
from spans import ROOTS, Spans, instrument

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def _import_program() -> None:
    """Put the checkout's ``src`` first on the path; refuse any other copy."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        sys.exit(f"perfbench: no program sources under {SRC}")
    sys.path.insert(0, SRC)
    import repro

    if not os.path.abspath(repro.__file__).startswith(SRC + os.sep):
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


WORKLOADS = ("stcg-cold", "stcg-warm", "fuzz-sweep", "sldv-unroll")

#: End-to-end metric units (the --trace 0 result).
END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "decision_cov": "ratio",
    "condition_cov": "ratio",
    "mcdc_cov": "ratio",
    "suite_steps": "count",
}

#: Per-layer metric units (the --trace 1 result).
PER_LAYER = {
    "solver.encodings": "count",
    "solver.encode_s": "s",
    "core.scan_self_s": "s",
    "core.pairs_visited": "count",
    "core.tree_nodes": "count",
    "cache.encoding_hit_ratio": "ratio",
    "cache.compiled_hit_ratio": "ratio",
    "cache.verdict_skips": "count",
    "solver.calls": "count",
    "solver.sat_ratio": "ratio",
    "solver.contract_s": "s",
    "solver.sample_s": "s",
    "solver.split_s": "s",
    "solver.avm_s": "s",
    "solverc.constraints_compiled": "count",
    "solverc.compiled_stage_share": "ratio",
    "model.steps": "count",
    "model.sim_s": "s",
    "model.steps_per_s": "1/s",
    "kernel.fallback_blocks": "count",
    "coverage.s": "s",
    "fuzz.executions": "count",
    "fuzz.retained_ratio": "ratio",
    "fuzz.mutate_s": "s",
    "store.load_s": "s",
    "store.save_s": "s",
    "store.bytes_read": "bytes",
    "store.bytes_written": "bytes",
    "store.hits": "count",
    "store.rejected": "count",
    "sldv.unroll_s": "s",
    "sldv.solve_s": "s",
    "sldv.replay_s": "s",
    "provenance.overhead_ratio": "ratio",
    "obs.trace_overhead_ratio": "ratio",
    "models.build_s": "s",
    "generator.init_s": "s",
}

#: The layer expected to take the largest share of each workload (the
#: report says whether the traced run agrees).
PREDICTED_TOP = {
    "stcg-cold": ("solver.encode",),
    "stcg-warm": ("store.load", "cache"),
    "fuzz-sweep": ("model",),
    "sldv-unroll": ("solver.avm",),
}

SOLVER_STAGES = ("fold", "contract", "sample", "split", "avm")


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


class Checker:
    """Checks every pass; counts attempted and failed cell runs.

    A cell run fails when it raises, stops short of its fixed work, gives
    a suite whose reference replay disagrees with the coverage the
    generator reported, or gives a suite whose digest differs from the
    cell's first run (drift).  Drift fails the run but not ``correct``:
    the drifted suite is replayed and checked like any other.
    """

    def __init__(self, replay):
        self._replay = replay
        self._replayed = set()
        self.reference = {}
        self.attempted = 0
        #: (kind, message); kind is "error", "replay" or "drift".
        self.failures = []

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and all(
            kind == "drift" for kind, _ in self.failures
        )

    def check(self, label: str, passed) -> None:
        for run in passed.runs:
            self.attempted += 1
            name = f"{run.cell.name} [{label}]"
            if not run.ok:
                self.failures.append(("error", f"{name}: {run.error}"))
                continue
            if (run.cell, run.digest) not in self._replayed:
                self._replayed.add((run.cell, run.digest))
                replayed = self._replay(run.cell.model, run.result.suite)
                if replayed != run.coverage:
                    self.failures.append((
                        "replay",
                        f"{name}: reference replay gave {replayed}, "
                        f"the generator reported {run.coverage}",
                    ))
                    continue
            expected = self.reference.setdefault(run.cell, run.digest)
            if run.digest != expected:
                self.failures.append((
                    "drift",
                    f"{name}: suite digest {run.digest[:12]} drifted "
                    f"from {expected[:12]}",
                ))


def _median(values):
    return statistics.median(values) if values else 0.0


def _layer_metrics(passed, spans):
    """Per-layer numbers of one traced pass, and its solver seconds by stage."""
    tools = {}
    for run in passed.runs:
        if run.result is not None:
            tools.setdefault(run.cell.tool, []).append(run.result)

    def stat(tool_names, key):
        return sum(
            result.stats.get(key, 0)
            for tool in tool_names for result in tools.get(tool, ())
        )

    def section(tool_names, name, key):
        return sum(
            ((result.trace_data or {}).get(name) or {}).get(key, 0) or 0
            for tool in tool_names for result in tools.get(tool, ())
        )

    def phase(tool_names, name):
        return sum(
            (((result.trace_data or {}).get("phase_totals") or {})
             .get(name) or {}).get("seconds", 0.0)
            for tool in tool_names for result in tools.get(tool, ())
        )

    stages = {stage: 0.0 for stage in SOLVER_STAGES}
    for results in tools.values():
        for result in results:
            for stage, stat_ in ((result.trace_data or {})
                                 .get("solver_stages") or {}).items():
                stages[stage] = stages.get(stage, 0.0) + stat_.get("seconds", 0.0)

    hosts = ("STCG", "Fuzz")
    solving = ("STCG", "SLDV")
    calls = stat(solving, "solver_calls")
    enc_hits = section(hosts, "cache", "encoding_hits")
    enc_total = enc_hits + section(hosts, "cache", "encoding_misses")
    comp_hits = section(hosts, "cache", "compiled_hits")
    comp_total = comp_hits + section(hosts, "cache", "compiled_misses")
    executions = stat(("Fuzz",), "fuzz_executions")
    steps = spans.counts.get("model.steps", 0)
    sim_s = spans.self_s("model")
    metrics = {
        "solver.encodings": spans.calls("solver.encode"),
        "solver.encode_s": spans.inclusive_s("solver.encode"),
        "core.scan_self_s": phase(("STCG",), "solve_scan")
        - phase(("STCG",), "encode") - phase(("STCG",), "solve"),
        "core.pairs_visited": stat(("STCG",), "solver_calls")
        + stat(("STCG",), "const_false_skips")
        + stat(("STCG",), "verdict_skips"),
        "core.tree_nodes": stat(hosts, "tree_nodes"),
        "cache.encoding_hit_ratio": _ratio(enc_hits, enc_total),
        "cache.compiled_hit_ratio": _ratio(comp_hits, comp_total),
        "cache.verdict_skips": stat(hosts, "verdict_skips"),
        "solver.calls": calls,
        "solver.sat_ratio": _ratio(stat(solving, "sat"), calls),
        "solver.contract_s": stages["contract"],
        "solver.sample_s": stages["sample"],
        "solver.split_s": stages["split"],
        "solver.avm_s": stages["avm"],
        "solverc.constraints_compiled": section(
            hosts, "solverc", "constraints_compiled"),
        "solverc.compiled_stage_share": _ratio(
            spans.counts.get("solver.compiled_calls", 0),
            spans.counts.get("solver.calls", 0)),
        "model.steps": steps,
        "model.sim_s": sim_s,
        "model.steps_per_s": _ratio(steps, sim_s),
        "kernel.fallback_blocks": section(hosts, "kernel", "fallback_blocks"),
        "coverage.s": spans.self_s("coverage"),
        "fuzz.executions": executions,
        "fuzz.retained_ratio": _ratio(
            stat(("Fuzz",), "fuzz_retained"), executions),
        "fuzz.mutate_s": spans.inclusive_s("fuzz.mutate"),
        "store.load_s": spans.inclusive_s("store.load"),
        "store.save_s": spans.inclusive_s("store.save"),
        "store.bytes_read": spans.counts.get("store.bytes_read", 0),
        "store.bytes_written": spans.counts.get("store.bytes_written", 0),
        "store.hits": spans.counts.get("store.hit", 0),
        "store.rejected": spans.counts.get("store.rejected", 0),
        "sldv.unroll_s": phase(("SLDV",), "unroll"),
        "sldv.solve_s": phase(("SLDV",), "solve"),
        "sldv.replay_s": phase(("SLDV",), "replay"),
    }
    return metrics, stages


def _where_time_goes(spans, stages, wall: float) -> list:
    """(layer, self seconds) of one traced pass, largest first.

    The solver's self time is split by pipeline stage; what is left of it
    (certification, bookkeeping) is ``solver.other``.  ``unattributed``
    is the pass's wall time outside every generator run.
    """
    rows = {layer: agg[2] for layer, agg in spans.totals.items()}
    solver_self = rows.pop("solver", 0.0)
    for stage, seconds in stages.items():
        if seconds:
            rows[f"solver.{stage}"] = seconds
    rows["solver.other"] = solver_self - sum(stages.values())
    rows["unattributed"] = wall - sum(
        spans.inclusive_s(layer) for _, _, layer in ROOTS
    )
    return sorted(rows.items(), key=lambda item: -item[1])


def _result_line(checker, metrics: dict, units: dict) -> dict:
    return {
        "correct": checker.correct,
        "attempted": checker.attempted,
        "failed": checker.failed,
        "metrics": {
            name: {"value": metrics[name], "unit": units[name]}
            for name in units
        },
    }


def _release(passed) -> None:
    """Drop the generation results of a checked pass (memory)."""
    for run in passed.runs:
        run.result = None


def _print_cells(passed) -> None:
    print(f"  {'cell (first pass)':<28}{'wall_s':>9}{'reads':>9}{'steps':>7}"
          f"{'dec':>7}{'cond':>7}{'mcdc':>7}  digest")
    for run in passed.runs:
        decision, condition, mcdc = run.coverage
        print(f"  {run.cell.name:<28}{run.wall_s:>9.3f}{run.reads:>9}"
              f"{run.suite_steps:>7}{decision:>7.3f}{condition:>7.3f}"
              f"{mcdc:>7.3f}  {run.digest[:12] or '-'}")


def _print_where(workload: str, rows, wall: float) -> None:
    print(f"  where the time goes (self time, traced pass of {wall:.3f} s):")
    for layer, seconds in rows:
        if not seconds:
            continue
        print(f"    {layer:<22}{seconds:>9.3f} s {_ratio(seconds, wall):>7.1%}")
    top = rows[0][0]
    predicted = PREDICTED_TOP[workload]
    verdict = "as predicted" if top in predicted else "NOT as predicted"
    print(f"  largest layer: {top}; predicted: {' or '.join(predicted)}"
          f" -> {verdict}")


def bench(workload: str, seed: int, seconds: float, traced: bool,
          meter: HostMeter) -> dict:
    """Run one workload; print its report; return the result object."""
    from workloads import (
        PLAIN, Variant, Workspace, make_cells, replay_coverage, run_pass,
    )

    provenance_off = Variant(provenance=False)
    tracing = Variant(trace=True)
    variants = [PLAIN, provenance_off, tracing] if traced else [PLAIN]
    cells = make_cells(workload, seed)
    checker = Checker(replay_coverage)
    workspace = Workspace(ROOT)
    #: variant -> cell -> wall seconds at full host speed, of each pass
    walls = {variant: {cell: [] for cell in cells} for variant in variants}
    setups = []
    #: (raw wall, median host slow-down) of each plain pass
    raw = []
    layers = []
    where = None
    first = None
    population_s = 0.0
    try:
        warm_dirs = None
        if workload == "stcg-warm":
            warm_dirs = workspace.warm_dirs(cells)
            cold = run_pass(workload, cells, PLAIN, workspace, meter,
                            warm_dirs=warm_dirs)
            population_s = cold.scaled_s
            checker.check("cold", cold)
            _release(cold)
        started = time.perf_counter()
        rounds = 0
        while rounds == 0 or time.perf_counter() - started < seconds:
            shift = rounds % len(variants)
            for variant in variants[shift:] + variants[:shift]:
                spans = Spans() if variant.trace else None
                if spans is None:
                    passed = run_pass(workload, cells, variant, workspace,
                                      meter, warm_dirs=warm_dirs)
                else:
                    with instrument(spans):
                        passed = run_pass(workload, cells, variant, workspace,
                                          meter, warm_dirs=warm_dirs)
                checker.check(f"round {rounds + 1}, {variant.label}", passed)
                for run in passed.runs:
                    walls[variant][run.cell].append(run.scaled_wall_s)
                if variant is PLAIN:
                    setups.append((
                        sum(run.setup_build_s / run.slowdown
                            for run in passed.runs),
                        sum(run.setup_init_s / run.slowdown
                            for run in passed.runs),
                    ))
                    raw.append((passed.wall_s, _median(
                        [run.slowdown for run in passed.runs])))
                    if first is None:
                        first = passed
                if spans is not None:
                    row, stages = _layer_metrics(passed, spans)
                    layers.append(row)
                    # Spans include the sampler's time; so does this wall.
                    where = (spans, stages, passed.wall_s + sum(
                        run.sampler_s for run in passed.runs))
                _release(passed)
            rounds += 1
    finally:
        workspace.close()

    def fixed_work_s(variant) -> float:
        """Wall time of one pass at full host speed: the sum of each
        cell's median."""
        return sum(_median(times) for times in walls[variant].values())

    wall = fixed_work_s(PLAIN)
    passes = [sum(times[i] for times in walls[PLAIN].values())
              for i in range(len(setups))]
    print(f"perfbench {workload} seed={seed} cells={len(cells)} "
          f"rounds={rounds} wall_s={wall:.3f} (at full host speed: sum of "
          f"per-cell medians; pass totals "
          f"{' '.join(f'{p:.3f}' for p in passes)})")
    print(f"  raw pass wall times (host slow-down): "
          f"{' '.join(f'{w:.3f} ({x:.2f}x)' for w, x in raw)}")
    _print_cells(first)
    for kind, message in checker.failures:
        print(f"  FAILED ({kind}): {message}")
    print(f"  error_rate {_ratio(checker.failed, checker.attempted):.4f} "
          f"({checker.failed} of {checker.attempted} cell runs failed)")
    if not traced:
        runs = first.runs
        metrics = {
            "wall_s": wall,
            "setup_s": _median([b + i for b, i in setups]) + population_s,
            "peak_rss_mb": resource.getrusage(
                resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "decision_cov": statistics.mean(r.coverage[0] for r in runs),
            "condition_cov": statistics.mean(r.coverage[1] for r in runs),
            "mcdc_cov": statistics.mean(r.coverage[2] for r in runs),
            "suite_steps": sum(r.suite_steps for r in runs),
        }
        return _result_line(checker, metrics, END_TO_END)

    metrics = {
        name: _median([row[name] for row in layers])
        for name in layers[0]
    }
    metrics["provenance.overhead_ratio"] = _ratio(
        wall, fixed_work_s(provenance_off)) - 1.0
    metrics["obs.trace_overhead_ratio"] = _ratio(
        fixed_work_s(tracing), wall) - 1.0
    metrics["models.build_s"] = _median([b for b, _ in setups])
    metrics["generator.init_s"] = _median([i for _, i in setups])
    print(f"  provenance on/off: {wall:.3f} / "
          f"{fixed_work_s(provenance_off):.3f} s; traced: "
          f"{fixed_work_s(tracing):.3f} s")
    spans, stages, traced_wall = where
    if spans.missing:
        print(f"  entry points not found (their layers read 0): "
              f"{', '.join(spans.missing)}")
    _print_where(workload, _where_time_goes(spans, stages, traced_wall),
                 traced_wall)
    return _result_line(checker, metrics, PER_LAYER)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_program()
    with HostMeter() as meter:
        if args.workload != "all":
            result = bench(args.workload, args.seed, args.seconds,
                           bool(args.trace), meter)
            print(json.dumps(result))
            return 0
        combined = {"correct": True, "attempted": 0, "failed": 0,
                    "metrics": {}}
        for workload in WORKLOADS:
            for traced in (False, True):
                result = bench(workload, args.seed, args.seconds, traced,
                               meter)
                print(f"{workload} trace={int(traced)} {json.dumps(result)}")
                combined["correct"] = (combined["correct"]
                                       and result["correct"])
                combined["attempted"] += result["attempted"]
                combined["failed"] += result["failed"]
                for name, metric in result["metrics"].items():
                    combined["metrics"][f"{workload}:{name}"] = metric
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
