"""The repository benchmark: four seeded workloads, one command.

    python3 perfbench/run.py --workload {train,kernels,serve,hybrid} \\
        --seed N --seconds S --trace {0,1} \\
        [--rtol R] [--slo-p99-ms L] [--max-unattributed U]

Run from the repository root: the engine is imported from ``src/`` next
to this directory, and the run fails when it is missing.  The last line
of standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it print every metric with
its unit and sample count.

``--trace 0`` measures the end-to-end metrics with every tracer off.
``--trace 1`` alternates traced and untraced rounds, reports time per
round spent in each layer's public functions (see ``spans.py``), writes
the spans to ``perfbench/out/<workload>-seed<N>.trace.json``, and checks
that the count metrics repeat exactly for one seed.  The definitions of
every metric are in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import statistics
import sys
import threading
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUPS = 5  # set-ups per run; setup_s is their median
MIN_ROUNDS = 3
FIXED_RATE = 200.0  # serve: offered requests/s of the latency phase
WINDOW = 500  # serve: requests per fixed-rate window
PAIRS = 100  # serve: engine/NumPy request pairs per window
BURST = 64  # serve: requests per burst of the run_s phase
BURSTS = 5  # serve: bursts per window
PROBE_REQUESTS = 1000  # serve: requests per ladder probe and per round
WORKLOADS = ("train", "kernels", "serve", "hybrid")
#: Count metrics that must repeat exactly for one seed.
DETERMINISTIC = ("n_plans_evaluated", "n_programs_compiled",
                 "n_instructions_executed", "n_decompressions", "n_recompiles")


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--rtol", type=float, default=1e-6,
                        help="max-abs error allowed, relative to the "
                             "reference's max-abs value")
    parser.add_argument("--slo-p99-ms", type=float, default=50.0,
                        help="serve: p99 latency limit of rps_at_slo")
    parser.add_argument("--max-unattributed", type=float, default=0.1,
                        help="traced run fails above this unattributed share")
    return parser.parse_args(argv)


def import_engine() -> None:
    """Put ``src/`` first on the path and check the engine loads from it."""
    if not (SRC / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: engine source not found at {SRC}")
    sys.path.insert(0, str(SRC))
    import repro

    if Path(repro.__file__).resolve().parent != SRC / "repro":
        sys.exit(f"perfbench: imported repro from {repro.__file__}, not {SRC}")


# ----------------------------------------------------------------------
# Helpers
# ----------------------------------------------------------------------
def pct_ms(values, q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) * 1e3


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def geomean(values) -> float:
    return math.exp(statistics.fmean(math.log(v) for v in values))


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def cpu_ticks() -> tuple[int, int] | None:
    """(steal, total) jiffies of all CPUs, where the kernel reports them."""
    try:
        with open("/proc/stat") as handle:
            fields = [int(v) for v in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def setup_once(workload, seed: int) -> float:
    """Set the workload up; returns the seconds set-up took.

    The previous set-up's garbage is collected first, so peak memory
    does not depend on when the collector last ran.  Afterwards every
    object set-up left alive is frozen out of the collector, so
    collections in the measured phase scan only what it allocates.
    """
    gc.unfreeze()
    workload.close()
    gc.collect()
    start = time.perf_counter()
    workload.setup(seed)
    seconds = time.perf_counter() - start
    gc.collect()
    gc.freeze()
    return seconds


def timed_setups(workload, seed: int, n: int) -> list[float]:
    return [setup_once(workload, seed) for _ in range(n)]


class Tally:
    """Units attempted and failed, with the first failure's report."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def add(self, attempted: int, failed: int, error: str | None = None):
        self.attempted += attempted
        self.failed += failed
        if failed and self.first_error is None:
            self.first_error = error


# ----------------------------------------------------------------------
# Batch workloads: train, kernels, hybrid
# ----------------------------------------------------------------------
class RoundResult:
    def __init__(self, units, counts):
        self.units = units
        self.counts = counts
        self.engine_s: dict[str, float] = {}
        self.reference_s: dict[str, float] = {}

    @property
    def seconds(self) -> float:
        return sum(self.engine_s.values())


def one_round(workload, rtol: float, tally: Tally, recorder=None) -> RoundResult:
    """Every program once on the engine, then against its reference.

    The recorder (if any) is installed only while the engine runs, so
    the references and the comparison are never traced.
    """
    import reference
    from workloads import Round

    ctx = Round(recorder)
    done = []
    if recorder is not None:
        recorder.install()
    try:
        for program in workload.programs:
            before = len(ctx.units)
            start = time.perf_counter()
            try:
                output, error = program.run(ctx), None
            except Exception:  # a failed unit is counted, not fatal
                output, error = None, traceback.format_exc()
            done.append((program, output, error, time.perf_counter() - start,
                         len(ctx.units) - before))
    finally:
        if recorder is not None:
            recorder.uninstall()
    result = RoundResult(ctx.units, ctx.counts())
    for program, output, error, seconds, n_units in done:
        start = time.perf_counter()
        expected = program.reference()
        result.reference_s[program.name] = time.perf_counter() - start
        result.engine_s[program.name] = seconds
        if error is None and not reference.agrees(output, expected, rtol):
            error = f"{workload.name}/{program.name}: output disagrees with NumPy"
        # A program that fails fails all its units (at least one).
        tally.add(max(n_units, 1), 0 if error is None else max(n_units, 1), error)
    return result


def batch_untraced(workload, args, tally: Tally):
    setups = timed_setups(workload, args.seed, SETUPS)
    rounds: list[RoundResult] = []
    deadline = time.perf_counter() + args.seconds
    while len(rounds) < MIN_ROUNDS or time.perf_counter() < deadline:
        rounds.append(one_round(workload, args.rtol, tally))
    workload.close()
    units = [u for r in rounds for u in r.units]
    programs = list(rounds[0].engine_s)
    # Per-program medians over rounds: a round hit by a stall of the host
    # does not move them.  Each round times a program and its reference
    # back to back, so their per-round ratio cancels slower stretches of
    # the host.
    engine = {p: statistics.median(r.engine_s[p] for r in rounds)
              for p in programs}
    paired = {p: statistics.median(r.engine_s[p] / r.reference_s[p]
                                   for r in rounds)
              for p in programs}
    metrics = {
        "setup_s": statistics.median(setups),
        "vs_numpy": geomean(paired.values()),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": len(setups), "vs_numpy": len(rounds)}
    info = [("run_s", sum(engine.values()), "s", len(rounds)),
            ("p50_ms", pct_ms(units, 50), "ms", len(units)),
            ("p90_ms", pct_ms(units, 90), "ms", len(units)),
            ("p99_ms", pct_ms(units, 99), "ms", len(units))]
    return metrics, samples, info


def layer_metrics(summary: dict, per_round: float, work_seconds: float) -> dict:
    """Per-round layer times from a span summary (``per_round`` divides)."""
    inc = summary["inclusive"]

    def per(name):
        return inc.get(name, 0.0) / per_round

    metrics = {
        "api.bind_s": per("api.bind"),
        "hops.rewrites_s": per("hops.rewrites"),
        "codegen.optimize_s": per("codegen.optimize"),
        "codegen.explore_s": per("codegen.explore"),
        "codegen.enumerate_s": per("codegen.enumerate"),
        "codegen.construct_s": per("codegen.construct"),
        "codegen.plan_cache_s": per("codegen.plan_cache"),
        "compiler.compile_s": per("compiler.compile"),
        "compiler.lower_s": per("compiler.lower"),
        "compiler.compile_share": ratio(inc.get("compiler.compile", 0.0),
                                        work_seconds),
        "runtime.dispatch_s": summary["self"].get("runtime.dispatch", 0.0) / per_round,
        "runtime.fused_s": per("runtime.fused"),
        "runtime.basic_s": per("runtime.basic"),
        "runtime.convert_s": per("runtime.convert"),
        "runtime.distributed_s": per("runtime.distributed"),
        "serve.submit_s": per("serve.submit"),
        "serve.bind_s": per("serve.bind"),
        "serve.exec_s": per("serve.exec"),
    }
    for layer in ("api", "hops", "codegen", "compiler", "runtime", "serve"):
        metrics[f"{layer}.self_s"] = summary["layer_self"].get(layer, 0.0) / per_round
    return metrics


def count_metrics(counts: dict) -> dict:
    return {
        "codegen.plans_evaluated": counts["n_plans_evaluated"],
        "codegen.plan_cache_hit_ratio": ratio(counts["plan_cache_hits"],
                                              counts["plan_cache_lookups"]),
        "compiler.programs_compiled": counts["n_programs_compiled"],
        "compiler.recompiles": counts["n_recompiles"],
        "runtime.instructions": counts["n_instructions_executed"],
        "runtime.compiled_share": ratio(
            counts["n_compiled_runs"],
            counts["n_compiled_runs"] + counts["n_interpreted_runs"]),
        "runtime.decompressions": counts["n_decompressions"],
        "runtime.sim_network_s": counts["sim_seconds"],
    }


def batch_traced(workload, args, tally: Tally, recorder) -> dict:
    import spans

    setup_once(workload, args.seed)
    traced: list[RoundResult] = []
    plain: list[RoundResult] = []
    deadline = time.perf_counter() + args.seconds
    while (len(traced) < 2 or len(plain) < 2
           or time.perf_counter() < deadline):
        if len(traced) < len(plain):
            traced.append(one_round(workload, args.rtol, tally, recorder))
        else:
            plain.append(one_round(workload, args.rtol, tally))
    summary = spans.summarize(recorder.spans)
    unit_total, unit_missing = spans.unattributed(recorder.spans)
    metrics = layer_metrics(summary, len(traced),
                            sum(r.seconds for r in traced))
    metrics["unattributed_share"] = ratio(unit_missing, unit_total)
    metrics["trace_overhead"] = (statistics.median(r.seconds for r in traced)
                                 / statistics.median(r.seconds for r in plain))
    metrics.update({k: 0.0 for k in ("serve.queue_ms_p50", "serve.spec_hit_ratio",
                                     "serve.batched_share", "serve.gen_late_ms")})
    return metrics


def batch_counts(workload, seed: int, args, tally: Tally) -> dict:
    """Counter deltas of one round right after a fresh set-up."""
    setup_once(workload, seed)
    counts = one_round(workload, args.rtol, tally).counts
    workload.close()
    return counts


# ----------------------------------------------------------------------
# The serve workload
# ----------------------------------------------------------------------
def serve_untraced(workload, args, tally: Tally):
    import openloop

    setups = timed_setups(workload, args.seed, SETUPS)
    checked: list = []
    bursts: list[float] = []
    latency: list[float] = []
    paired: list[float] = []
    paired_failed = 0
    # Bursts, fixed-rate windows and paired NumPy timings interleave, so
    # each samples the whole run rather than one stretch of it.
    n_windows = max(2, round(0.6 * args.seconds * FIXED_RATE / WINDOW))
    for _ in range(n_windows):
        for _ in range(BURSTS):
            seconds, sent = workload.burst(BURST)
            bursts.append(seconds)
            checked.extend(sent)
        sent = workload.open_loop(FIXED_RATE, WINDOW)
        checked.extend(sent)
        latency.extend(s.latency for s in sent)
        failed, ratios = workload.paired(PAIRS)
        paired_failed += failed
        paired.extend(ratios)
    n_measured = len(checked)
    rps = openloop.rate_at_slo(workload, args.slo_p99_ms / 1e3, PROBE_REQUESTS,
                               time.perf_counter() + 0.4 * args.seconds,
                               on_probe=checked.extend)
    tally.add(len(checked) + n_windows * PAIRS,
              sum(not s.ok for s in checked) + paired_failed,
              "serve: a request raised or disagreed with NumPy")
    workload.close()

    metrics = {
        "setup_s": statistics.median(setups),
        "vs_numpy": statistics.median(paired),
        "peak_rss_mb": peak_rss_mb(),
    }
    samples = {"setup_s": len(setups), "vs_numpy": len(paired)}
    info = [("run_s", statistics.median(bursts), "s", len(bursts)),
            ("p50_ms", pct_ms(latency, 50), "ms", len(latency)),
            ("p90_ms", pct_ms(latency, 90), "ms", len(latency)),
            ("p99_ms", pct_ms(latency, 99), "ms", len(latency)),
            (f"rps_at_slo (p99 <= {args.slo_p99_ms:g} ms)", rps, "1/s",
             len(checked) - n_measured)]
    return metrics, samples, info


def serve_traced(workload, args, tally: Tally, recorder) -> dict:
    import numpy as np

    import spans
    from workloads import COUNT_FIELDS, snapshot

    setup_once(workload, args.seed)
    main = threading.get_ident()
    window = int(FIXED_RATE / 2)  # half a second of load per window
    traced: list = []
    plain: list = []
    deltas = dict.fromkeys(COUNT_FIELDS, 0)
    deadline = time.perf_counter() + args.seconds
    while (len(traced) < 2 * window or len(plain) < 2 * window
           or time.perf_counter() < deadline):
        if len(traced) < len(plain):
            start = snapshot(workload.engine.stats)
            recorder.install()
            try:
                traced.extend(workload.open_loop(FIXED_RATE, window))
            finally:
                recorder.uninstall()
            end = snapshot(workload.engine.stats)
            for key in deltas:
                deltas[key] += end[key] - start[key]
        else:
            plain.extend(workload.open_loop(FIXED_RATE, window))
    tally.add(len(traced) + len(plain),
              sum(not s.ok for s in traced + plain),
              "serve: a request raised or disagreed with NumPy")
    workload.close()

    # Attribution on the scheduler's worker: each batch runs in one
    # window of exec_seconds (shared by its requests), which its
    # bind/execute spans should cover; the rest is scheduler bookkeeping.
    busy = sum({s.telemetry["exec_seconds"] for s in traced if s.ok})
    covered = sum(s.duration for s in recorder.spans
                  if s.parent is None and s.tid != main)

    per_round = len(traced) / PROBE_REQUESTS
    summary = spans.summarize(recorder.spans)
    work_seconds = sum(s.latency for s in traced)
    metrics = layer_metrics(summary, per_round, work_seconds)
    metrics["serve.queue_ms_p50"] = pct_ms(
        [s.telemetry["queue_seconds"] for s in traced if s.ok], 50)
    metrics["serve.spec_hit_ratio"] = ratio(
        deltas["n_specialization_hits"],
        deltas["n_specialization_hits"] + deltas["n_specialization_misses"])
    metrics["serve.batched_share"] = ratio(deltas["n_requests_batched"],
                                          deltas["n_requests_served"])
    metrics["serve.gen_late_ms"] = float(np.mean([s.late for s in traced])) * 1e3
    metrics["unattributed_share"] = ratio(busy - covered, busy)
    metrics["trace_overhead"] = (
        statistics.median(s.latency for s in traced)
        / statistics.median(s.latency for s in plain))
    return metrics


def serve_counts(workload, seed: int, args, tally: Tally) -> dict:
    """Counter deltas of PROBE_REQUESTS requests run one at a time after
    a fresh set-up."""
    from workloads import COUNT_FIELDS, snapshot

    setup_once(workload, seed)
    before = snapshot(workload.engine.stats)
    failed, _ = workload.paired(PROBE_REQUESTS)
    after = snapshot(workload.engine.stats)
    tally.add(PROBE_REQUESTS, failed,
              "serve: a request raised or disagreed with NumPy")
    workload.close()
    return {k: after[k] - before[k] for k in COUNT_FIELDS}


# ----------------------------------------------------------------------
# Entry point
# ----------------------------------------------------------------------
def declared_metrics() -> tuple[dict, dict]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return ({m["name"]: m["unit"] for m in spec["end_to_end"]},
            {m["name"]: m["unit"] for m in spec["per_layer"]})


def report(metrics: dict, units: dict, samples: dict, info: list,
           tally: Tally, gates_ok: bool) -> dict:
    """Print every metric with unit and sample count; build the result.

    ``info`` rows are printed only: absolute times and tails, which
    repeat too poorly on a shared 2-vCPU VM to be gated (see README.md).
    """
    missing = set(units) - set(metrics)
    extra = set(metrics) - set(units)
    if missing or extra:
        sys.exit(f"perfbench: metrics {sorted(missing)} missing, "
                 f"{sorted(extra)} undeclared in BENCHMARK.json")
    rows = [(name, metrics[name], units[name], samples.get(name))
            for name in units] + list(info)
    for name, value, unit, n in rows:
        count = f"  (n={n})" if n is not None else ""
        print(f"{name:32s} {value:14.6g} {unit}{count}")
    print(f"{'failed_frac':32s} {ratio(tally.failed, tally.attempted):14.6g} "
          f"ratio  ({tally.failed} of {tally.attempted} units)")
    return {
        "correct": tally.failed == 0 and gates_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    end_to_end, per_layer = declared_metrics()
    import_engine()
    import openloop
    import spans
    from workloads import BATCH

    is_serve = args.workload == "serve"
    workload = openloop.Serve(args.rtol) if is_serve else BATCH[args.workload]()
    ticks = cpu_ticks()
    tally = Tally()
    gates_ok = True
    if not args.trace:
        run = serve_untraced if is_serve else batch_untraced
        metrics, samples, info = run(workload, args, tally)
        result = report(metrics, end_to_end, samples, info, tally, gates_ok)
    else:
        recorder = spans.Recorder(spans.layer_targets())
        traced = serve_traced if is_serve else batch_traced
        metrics = traced(workload, args, tally, recorder)
        counter = serve_counts if is_serve else batch_counts
        first = counter(workload, args.seed, args, tally)
        again = counter(workload, args.seed, args, tally)
        other = counter(workload, args.seed + 1, args, tally)
        metrics.update(count_metrics(first))
        unstable = [k for k in DETERMINISTIC if first[k] != again[k]]
        print(f"counts seed {args.seed}: "
              + ", ".join(f"{k}={first[k]}" for k in DETERMINISTIC))
        print(f"counts seed {args.seed + 1}: "
              + ", ".join(f"{k}={other[k]}" for k in DETERMINISTIC))
        if unstable:
            gates_ok = False
            print(f"FAIL: counts differ between two runs of seed {args.seed}: "
                  + ", ".join(f"{k} {first[k]} vs {again[k]}" for k in unstable))
        if metrics["unattributed_share"] > args.max_unattributed:
            gates_ok = False
            print(f"FAIL: unattributed_share {metrics['unattributed_share']:.4f} "
                  f"exceeds {args.max_unattributed}")
        out = ROOT / "perfbench" / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        n_events = recorder.export_chrome(str(out))
        print(f"trace: {n_events} spans in {out.relative_to(ROOT)}")
        result = report(metrics, per_layer, {}, [], tally, gates_ok)
    after = cpu_ticks()
    if ticks and after and after[1] > ticks[1]:
        # Time the hypervisor gave to other guests: context for a slow run.
        print(f"host steal: {100.0 * (after[0] - ticks[0]) / (after[1] - ticks[1]):.1f}% of CPU time")
    if tally.first_error:
        print(tally.first_error, file=sys.stderr)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
