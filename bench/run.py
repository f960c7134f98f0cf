"""fanobalance benchmark: one seeded, single-process run of one workload.

    python3 bench/run.py --workload reproduce --seed 1 --seconds 30 --trace 0

With ``--trace 0`` the run times the workload's operations until their raw
times add up to ``--seconds``, at least ``MIN_OPS`` have run and the last
cycle of the operation mix is complete, and reports the end-to-end
metrics.  Reported times are scaled to the uncontended speed of the machine
that sized the benchmark (see clock.py); the raw times go to the result
file as well.  With ``--trace 1`` it runs a fixed number of operations
untraced and twice traced (see tracing.py), checks that the answers and the
call counts agree, and reports the per-layer metrics.  Either way every
answer is checked, a result file goes to ``bench/out/`` and the last line
of standard output is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.

The package is imported from ``src/`` of the checkout that holds this
script; no install is needed, and the run fails without a result when
``src/fanobalance`` is missing.  See NOTES.md for why each workload and
size was chosen.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import itertools
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
import types
from collections import Counter
from pathlib import Path
from time import perf_counter

import clock
from tracing import MODULES, Tracer
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"

SETUP_SAMPLES = 5  # this process plus four fresh interpreters; the median is reported
CLI_SAMPLES = 8
MIN_OPS = 100  # so that the 90th percentile has ten samples beyond it
CLI_SUMMARY = "summary: 25 matched, 0 mismatched, 1 unclassified"
SUBPROCESS_TIMEOUT_S = 60

END_TO_END = (
    ("ops_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_p90_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("cli_verify_all_s", "s"),
)

# Per-layer metrics of the traced run.  Call counts and self times cover the
# traced set-up, the traced operations and, on reproduce, one in-process
# ``fanobal verify-all``.
LAYER_CALLS = (
    "linalg.span_rank", "linalg.in_span", "linalg.dot", "linalg.primitive",
    "linalg.solve_square", "linalg.determinant",
    "cones.dual_extreme_rays", "cones.contains", "cones.minimal_supported_face",
    "intersection.pair", "intersection.eval_product", "intersection.surface_restriction_form",
    "criteria.reider_effective", "criteria.reider_separates", "criteria.deformation_floor",
    "database.record_from_json", "database.validate", "classifier.classify",
)
LAYER_SELF = (
    "linalg.span_rank", "cones.dual_extreme_rays", "cones.cone_from_generators",
    "cones.cone_from_facets", "cones.contains", "cones.minimal_supported_face",
    "cones.nonneg_combination", "intersection.pair", "intersection.eval_product",
    "invariants.a_invariant", "invariants.b_invariant", "invariants.compute_report",
    "invariants.zariski_decompose", "database.load_builtin", "database.record_from_json",
    "classifier.classify", "classifier.verify_all", "cli.main",
)
LAYER_DERIVED = (
    ("cones.dual_extreme_rays.constraints_in", "count"),
    ("cones.dual_extreme_rays.rays_out", "count"),
    ("cones.dd_calls_per_cone", "ratio"),
    ("cones.contains.member_ratio", "ratio"),
    ("cones.span_rank_per_contains", "ratio"),
    ("classifier.pair_calls_per_classify", "ratio"),
    ("database.validate_per_record", "ratio"),
    ("database.validate_per_record_cli", "ratio"),
    ("trace.overhead_ratio", "ratio"),
    ("trace.spans", "count"),
)


def import_package() -> types.SimpleNamespace:
    """Import fanobalance from this checkout's ``src``; exit 2 when absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        package = importlib.import_module("fanobalance")
    except ImportError as exc:
        print(f"error: cannot import fanobalance from {src}: {exc}", file=sys.stderr)
        sys.exit(2)
    if src.resolve() not in Path(package.__file__).resolve().parents:
        print(f"error: fanobalance resolved to {package.__file__}, not under {src}",
              file=sys.stderr)
        sys.exit(2)
    names = ("cones", "classifier", "database", "errors", "intersection", "invariants")
    return types.SimpleNamespace(
        **{n: importlib.import_module(f"fanobalance.{n}") for n in names})


def _run_child(argv: list[str], env=None) -> tuple[float, float, subprocess.CompletedProcess]:
    """Run a subprocess; return its raw and scaled wall seconds and the process."""
    before = clock.calibrate()
    start = perf_counter()
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=SUBPROCESS_TIMEOUT_S)
    raw = perf_counter() - start
    return raw, clock.scale(raw, before, clock.calibrate()), proc


def timed_setup(workload, seed: int):
    """Import the package and build the workload's inputs, timed."""
    before = clock.calibrate()
    start = perf_counter()
    fb = import_package()
    state = workload.build(fb, seed)
    raw = perf_counter() - start
    return fb, state, raw, clock.scale(raw, before, clock.calibrate())


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Raw and scaled set-up seconds of a fresh interpreter, timed by itself."""
    *_, proc = _run_child([sys.executable, str(Path(__file__)), "--workload", workload,
                           "--seed", str(seed), "--seconds", "0", "--trace", "0",
                           "--setup-probe"])
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    raw, scaled = proc.stdout.split()[-2:]
    return float(raw), float(scaled)


def cli_probe() -> tuple[float, float, bool]:
    """Raw and scaled wall seconds of a cold ``python -m fanobalance.cli verify-all``."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    raw, scaled, proc = _run_child([sys.executable, "-m", "fanobalance.cli", "verify-all"], env)
    ok = proc.returncode == 0 and CLI_SUMMARY in proc.stdout.splitlines()
    return raw, scaled, ok


def run_op(op, watch: clock.Stopwatch) -> tuple[object, bool]:
    """Time one operation, then check its answer outside the timing."""
    try:
        answer = watch.time(op.run)
    except Exception:  # an operation that raises counts as failed; keep measuring
        traceback.print_exc(file=sys.stderr)
        return None, False
    try:
        ok = bool(op.check(answer))
    except Exception:
        traceback.print_exc(file=sys.stderr)
        ok = False
    if not ok:
        print(f"check failed: {op.kind}", file=sys.stderr)
    return answer, ok


def measure(ops, seconds: float, cycle: int) -> tuple[clock.Stopwatch, int]:
    """Run operations until their summed raw latency reaches ``seconds``, at
    least ``MIN_OPS`` have run and the last cycle of the mix is complete, so
    that every run has the same mix of operation kinds."""
    watch, failed, busy = clock.Stopwatch(), 0, 0.0
    while busy < seconds or len(watch.raw) < MIN_OPS or len(watch.raw) % cycle:
        _answer, ok = run_op(next(ops), watch)
        failed += not ok
        busy += watch.raw[-1]
    return watch, failed


def summarize(latencies: list[float], setups: list[float], clis: list[float]) -> dict:
    return {
        "ops_per_s": len(latencies) / sum(latencies),
        "op_p50_ms": statistics.median(latencies) * 1000,
        "op_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1000,
        "setup_s": statistics.median(setups),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "cli_verify_all_s": statistics.median(clis),
    }


def run_untraced(workload, fb, state, args, setup: tuple[float, float]) -> dict:
    # Probes are spread over the run (before, between and after the timed
    # operations) so that they sample more than one stretch of host load.
    setups = [setup] + [setup_probe(args.workload, args.seed)
                        for _ in range(SETUP_SAMPLES // 2)]
    clis = [cli_probe() for _ in range(CLI_SAMPLES // 2)]
    reference_ok = workload.reference_check(fb, state)
    watch, failed = measure(workload.operations(fb, state, args.seed), args.seconds,
                            workload.cycle)
    setups += [setup_probe(args.workload, args.seed) for _ in range(len(setups), SETUP_SAMPLES)]
    clis += [cli_probe() for _ in range(len(clis), CLI_SAMPLES)]
    scaled = summarize(watch.scaled(), [s for _, s in setups], [c[1] for c in clis])
    raw = summarize(watch.raw, [r for r, _ in setups], [c[0] for c in clis])
    cli_ok = all(c[2] for c in clis)
    attempted = len(watch.raw)
    return {
        "correct": reference_ok and cli_ok and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": scaled[name], "unit": unit} for name, unit in END_TO_END},
        "extra": {
            "failed_ratio": {"value": failed / attempted, "unit": "ratio"},
            "raw_metrics": raw,
            "samples": {"operations": attempted,
                        "setup_s": [s for _, s in setups], "cli_verify_all_s": [c[1] for c in clis]},
            "reference_check": reference_ok,
            "cli_check": cli_ok,
        },
    }


def traced_pass(workload, fb, seed: int, n_ops: int) -> dict:
    """Set-up, ``n_ops`` operations and (on reproduce) an in-process CLI run,
    all traced.  Returns the tracer, per-section call counts and answers."""
    watch = clock.Stopwatch()
    with Tracer() as tracer:
        state = workload.build(fb, seed)
        after_setup = Counter(tracer.calls)
        answers = []
        for op in itertools.islice(workload.operations(fb, state, seed), n_ops):
            try:
                answers.append(watch.time(op.run))
            except Exception:  # the untraced pass has reported it; compare as None
                answers.append(None)
        after_ops = Counter(tracer.calls)
        cli_ok = True
        if workload.name == "reproduce":
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                code = fb.cli.main(["verify-all"])
            cli_ok = code == 0 and CLI_SUMMARY in out.getvalue().splitlines()
    return {
        "tracer": tracer, "answers": answers, "busy": sum(watch.scaled()), "cli_ok": cli_ok,
        "setup": after_setup, "ops": after_ops - after_setup,
        "cli": tracer.calls - after_ops,
    }


def layer_metrics(traced: dict, n_ops: int, overhead: float) -> dict:
    tracer = traced["tracer"]
    calls, extra = tracer.calls, tracer.extra
    self_s = tracer.self_times()

    def ratio(a, b):
        return a / b if b else 0.0

    values = {f"{name}.calls": (calls[name], "count") for name in LAYER_CALLS}
    values.update({f"{name}.self_s": (self_s[name], "s") for name in LAYER_SELF})
    for module in MODULES:
        total = sum(s for name, s in self_s.items() if name.split(".")[0] == module)
        values[f"{module}.self_s"] = (total, "s")
    setup, ops, cli = traced["setup"], traced["ops"], traced["cli"]
    derived = {
        "cones.dual_extreme_rays.constraints_in": extra["cones.dual_extreme_rays.constraints_in"],
        "cones.dual_extreme_rays.rays_out": extra["cones.dual_extreme_rays.rays_out"],
        "cones.dd_calls_per_cone": ratio(
            calls["cones.dual_extreme_rays"],
            calls["cones.cone_from_generators"] + calls["cones.cone_from_facets"]),
        "cones.contains.member_ratio": ratio(extra["cones.contains.members"],
                                             calls["cones.contains"]),
        "cones.span_rank_per_contains": ratio(
            extra["linalg.span_rank.under.cones.contains"], calls["cones.contains"]),
        "classifier.pair_calls_per_classify": ratio(
            extra["intersection.pair.under.classifier.classify"], calls["classifier.classify"]),
        # validations of one record by one load plus one verify pass; 2 today
        "database.validate_per_record": ratio(
            setup["database.validate"] + ops["database.validate"] / n_ops,
            setup["database.record_from_json"]),
        "database.validate_per_record_cli": ratio(cli["database.validate"],
                                                  cli["database.record_from_json"]),
        "trace.overhead_ratio": overhead,
        "trace.spans": len(tracer.spans),
    }
    values.update({name: (derived[name], unit) for name, unit in LAYER_DERIVED})
    return {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}


def run_traced(workload, fb, state, args) -> dict:
    fb.cli = importlib.import_module("fanobalance.cli")
    n_ops = workload.trace_ops
    reference_ok = workload.reference_check(fb, state)
    ops = list(itertools.islice(workload.operations(fb, state, args.seed), n_ops))
    watch = clock.Stopwatch()
    results = [run_op(op, watch) for op in ops]
    untraced_busy = sum(watch.scaled())
    failed = sum(not ok for _, ok in results)
    first = traced_pass(workload, fb, args.seed, n_ops)
    second = traced_pass(workload, fb, args.seed, n_ops)
    answers = [answer for answer, _ in results]
    same_answers = answers == first["answers"] == second["answers"]
    same_counts = (first["tracer"].calls == second["tracer"].calls
                   and first["tracer"].extra == second["tracer"].extra)
    if not same_answers:
        print("traced and untraced answers differ", file=sys.stderr)
    if not same_counts:
        print("call counts differ between the two traced passes", file=sys.stderr)
    overhead = second["busy"] / untraced_busy - 1
    write_spans(second["tracer"], args)
    return {
        "correct": (reference_ok and failed == 0 and same_answers and same_counts
                    and first["cli_ok"] and second["cli_ok"]),
        "attempted": n_ops,
        "failed": failed,
        "metrics": layer_metrics(second, n_ops, overhead),
        "extra": {"traced_operations": n_ops, "untraced_ops_s": untraced_busy,
                  "traced_ops_s": second["busy"], "same_answers": same_answers,
                  "same_counts": same_counts},
    }


def write_spans(tracer: Tracer, args) -> None:
    names = sorted({s[0] for s in tracer.spans})
    index = {name: i for i, name in enumerate(names)}
    origin = tracer.spans[0][1] if tracer.spans else 0.0
    payload = {
        "names": names,
        "fields": ["name", "start_s", "end_s", "parent"],
        "spans": [[index[n], round(s - origin, 9), round(e - origin, 9), p]
                  for n, s, e, p in tracer.spans],
        "calls": dict(sorted(tracer.calls.items())),
    }
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    path.write_text(json.dumps(payload, separators=(",", ":")) + "\n", encoding="utf-8")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=SUBPROCESS_TIMEOUT_S)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


def report(result: dict, args) -> None:
    env = {"git_sha": git_sha(), "python": platform.python_version(),
           "nproc": os.cpu_count(), "workload": args.workload, "seed": args.seed,
           "seconds": args.seconds, "trace": args.trace}
    print(" ".join(f"{k}={v}" for k, v in env.items()))
    shown = dict(result["metrics"])
    if "failed_ratio" in result["extra"]:
        shown["failed_ratio"] = result["extra"]["failed_ratio"]
    for name, m in shown.items():
        print(f"{name:<44} {m['value']:>14.6g} {m['unit']}")
    print(f"attempted={result['attempted']} failed={result['failed']} "
          f"correct={result['correct']}")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps({**env, **result}, indent=2, sort_keys=True) + "\n",
                    encoding="utf-8")
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed",
                                                   "metrics")}))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="print this interpreter's raw and scaled set-up seconds")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the operations, the calibrations and the subprocesses,
        # so that a calibration sees the load of the CPU whose time it scales.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    fb, state, raw, scaled = timed_setup(workload, args.seed)
    if args.setup_probe:
        print(repr(raw), repr(scaled))
        return 0
    if args.trace:
        result = run_traced(workload, fb, state, args)
    else:
        result = run_untraced(workload, fb, state, args, (raw, scaled))
    report(result, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
