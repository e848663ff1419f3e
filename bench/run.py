"""bernspec benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload matrix --seed 1 --seconds 30 --trace 0

Runs from the root of a checkout and imports bernspec from its src/.  Ops
run in a closed loop, one at a time, from this one thread.  With --trace 0
the run measures the end-to-end metrics with tracing off: set-up seconds,
peak RSS, and op costs in units of a reference kernel timed around each op,
which cancels the host's drift in CPU speed (raw seconds are reported in
the details too).  With --trace 1 it
runs a fixed list of ops, each once untraced and once traced, and reports the
per-layer metrics.  Every op's output is checked outside the timed region.
Before the final line the run prints one JSON object with its environment,
the workload's rationale and details; the final line is the result.
"""

import time

_PROCESS_START = time.perf_counter()

import argparse  # noqa: E402  (set-up time starts before the imports)
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

MIN_OPS = 100  # leaves at least 10 samples beyond p90
REFERENCE_ITERATIONS = 2500  # about 5 ms of reference work
LOOP_WALL_CAP_S = 120.0  # start no cycle after this, whatever MIN_OPS says
SETUP_PROBES = 3  # fresh processes that each set up once more
SELF_TEST_DIGITS = 4

# Which end-to-end metric each layer metric should move, and where.
LAYER_TABLE = [
    ("exact.in_zero_set.{calls,self_s,true_ratio}, exact.reduce_argument.{calls,self_s}",
     "ops_per_kref, op_ref_p50", "verify, matrix", "transform"),
    ("exact.mu_hat.{calls,self_s,exact_zero_ratio,max_error_bound,products_per_nonzero}, "
     "exact.mu_hat_product.{calls,self_s}", "entries_per_s, coeffs_per_s",
     "matrix, transform", "verify"),
    ("exact.chaos_game_estimate.{self_s,samples_per_s}", "op_ref_p90", "transform", "others"),
    ("spectrum.word_value.{calls,self_s}, spectrum.enumerate_spectrum.{calls,self_s,words}",
     "entries_per_s, ops_per_kref", "matrix, verify", "transform (N calls, not N^2)"),
    ("operators.verify_cuntz_relations.{self_s,checks}", "op_ref_p90", "verify", "others"),
    ("operators.{parseval_partial,expand_exponential}.{calls,self_s}, "
     "operators.coeff_useful_ratio", "coeffs_per_s", "transform", "matrix, verify"),
    ("matrixlab.TruncatedMatrix.build.{self_s,entries}", "entries_per_s, peak_rss_mib",
     "matrix", "others"),
    ("matrixlab.export.{self_s,bytes}", "op_ref_p50", "matrix", "others"),
    ("matrixlab.<verifier>.{self_s,checks}", "ops_per_kref", "verify", "others"),
    ("report.violations, cli.{calls,self_s,stdout_bytes}", "setup_s, op_ref_p50",
     "all, small", "-"),
]


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="set up once, print the set-up time and exit")
    return parser.parse_args(argv)


def import_program() -> SimpleNamespace:
    """bernspec from this checkout's src/, never from anywhere else."""
    if not (SRC / "bernspec" / "__init__.py").is_file():
        raise SystemExit(f"error: no bernspec sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import bernspec
    import bernspec.cli
    if SRC not in Path(bernspec.__file__).resolve().parents:
        raise SystemExit(f"error: imported bernspec from {bernspec.__file__}, not {SRC}")
    return SimpleNamespace(package=bernspec, **{
        name: sys.modules[f"bernspec.{name}"] for name in tracing.MODULES})


def environment(seed: int) -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            cpu = next((line.split(":", 1)[1].strip() for line in info
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(), "numpy": numpy.__version__,
        "nproc": os.cpu_count(), "cpu": cpu, "commit": git_commit(), "seed": seed,
    }


def git_commit() -> str:
    # read directly: the benchmark may run in a checkout that is not a repository
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def reference_seconds() -> float:
    """Time of a fixed pure-Python kernel: a gauge of the machine's current speed.

    The host's CPU speed drifts by tens of percent from minute to minute.
    The kernel's mix (small tuples, generator sums, big-int powers, dict
    stores) resembles bernspec's interpreter-bound work, so its time drifts
    with the ops' times, and an op's time over the kernel's time does not.
    """
    start = time.perf_counter()
    total = 0
    table = {}
    for i in range(REFERENCE_ITERATIONS):
        word = (i & 1, (i >> 1) & 1, (i >> 2) & 1, 1)
        total += sum(b * 4 ** (k + 1) for k, b in enumerate(word)) % 7
        table[word] = (total, total * 0.5)
    return time.perf_counter() - start


def run_checked(program, workload, op, problems, tracer=None) -> float:
    """Run one op and check its output; returns the op's seconds."""
    outcome = workloads.run_op(program, op, tracer)
    if tracer is not None and op.argv:
        tracer.count("cli.stdout_bytes", len(outcome.stdout.encode()))
    found = workload.check(op, outcome)
    if found:
        problems.append({"op": op.label, "argv": " ".join(op.argv), "problems": found[:3]})
    return outcome.seconds


def checker_self_test(program, outdir: Path) -> list[str]:
    """Build a small matrix and make sure the checker rejects corrupted copies."""
    n, p = 2, 3
    argv = ["matrix", "--n", str(n), "--p", str(p), "--max-digits", str(SELF_TEST_DIGITS),
            "--csv", "selftest.csv", "--pgm", "selftest.pgm", "--json-file", "selftest.json"]
    outcome = workloads.run_op(program, workloads.Op("selftest", tuple(argv)))
    if outcome.error or outcome.rc != 0:
        return [f"self-test matrix failed: {outcome.error or outcome.rc}"]
    return checks.self_test(
        (outdir / "selftest.csv").read_text(), (outdir / "selftest.pgm").read_bytes(),
        (outdir / "selftest.json").read_text(), n, p, SELF_TEST_DIGITS)


def probe_setup(args) -> list[float]:
    """Set-up times of fresh processes, each doing what this run's set-up did."""
    times = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, str(Path(__file__)), "--workload", args.workload,
             "--seed", str(args.seed), "--setup-probe"],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True)
        times.append(json.loads(done.stdout.splitlines()[-1])["setup_s"])
    return times


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    program = import_program()
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=OUT_DIR, prefix="run-") as tmp:
        outdir = Path(tmp)
        os.environ["BERNSPEC_OUTPUT_DIR"] = tmp
        workload = workloads.WORKLOADS[args.workload](args.seed, outdir)
        cycles = [workload.cycle()]
        warm_op = workload.warmup(cycles[0])
        warm = workloads.run_op(program, warm_op)
        setup_s = time.perf_counter() - _PROCESS_START
        if args.setup_probe:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        warm_problems = workload.check(warm_op, warm)
        if args.trace:
            result, details = traced_run(program, workload, cycles, args)
        else:
            result, details = timed_run(program, workload, cycles, args, setup_s)
        self_test = checker_self_test(program, outdir)
        details.update(workload.notes())
    result["correct"] = not (result["failed"] or warm_problems or self_test)
    why = next(w["why"] for w in spec["workloads"] if w["name"] == args.workload)
    print(json.dumps({"info": {
        "workload": args.workload, "why": why, "environment": environment(args.seed),
        "layer_table": [dict(zip(("layer_metrics", "should_move", "on", "little_or_none_on"),
                                 row)) for row in LAYER_TABLE],
        "warmup": {"op": warm_op.label, "problems": warm_problems},
        "checker_self_test": self_test or "pass", **details}}))
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = result.pop("values")
    result["metrics"] = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                         for m in wanted}
    print(json.dumps(result))
    return 0


def timed_run(program, workload, cycles, args, setup_s):
    """Whole cycles until --seconds of op time and MIN_OPS ops have run."""
    ops, durations, costs, problems = [], [], [], []
    references = [reference_seconds()]
    loop_start = time.perf_counter()
    while (sum(durations) < args.seconds or len(durations) < MIN_OPS) \
            and time.perf_counter() - loop_start < LOOP_WALL_CAP_S:
        cycle = cycles.pop() if cycles else workload.cycle()
        for op in cycle:
            seconds = run_checked(program, workload, op, problems)
            references.append(reference_seconds())
            durations.append(seconds)
            # cost: the op's time in units of the reference kernel run around it
            costs.append(2 * seconds / (references[-2] + references[-1]))
        ops += cycle
    peak_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup_samples = [setup_s] + probe_setup(args)
    timed_s = sum(durations)
    deciles = statistics.quantiles(durations, n=10)
    cost_deciles = statistics.quantiles(costs, n=10)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_kref": 1000 * len(costs) / sum(costs),
        "op_ref_p50": cost_deciles[4],
        "op_ref_p90": cost_deciles[8],
        "peak_rss_mib": peak_rss_mib,
    }
    by_label: dict[str, list[float]] = {}
    for op, seconds in zip(ops, durations):
        by_label.setdefault(op.label, []).append(seconds)
    details = {
        "ops": len(durations), "timed_s": timed_s,
        "samples_beyond_p90": sum(c > cost_deciles[8] for c in costs),
        "ops_per_s": len(durations) / timed_s, "op_s_p50": deciles[4], "op_s_p90": deciles[8],
        "reference_s_median": statistics.median(references),
        "failed_ratio": len(problems) / len(durations),
        "setup_samples_s": setup_samples,
        "op_s_median_by_label": {k: statistics.median(v) for k, v in sorted(by_label.items())},
        "problems": problems[:10],
    }
    if workload.work_metric:
        details[workload.work_metric] = workload.work(ops) / timed_s
    return {"attempted": len(durations), "failed": len(problems), "values": values}, details


def traced_run(program, workload, cycles, args):
    """A fixed list of ops, each untraced and traced; counts repeat run to run."""
    while len(cycles) < workload.trace_cycles:
        cycles.append(workload.cycle())
    ops = [op for cycle in cycles for op in cycle]
    tracer = tracing.Tracer()
    plain, traced, problems = [], [], []
    for index, op in enumerate(ops):
        # each op runs untraced and traced back to back, alternating which
        # goes first, so the overhead is not confounded with warm-up
        tracer.op_index = index
        for with_tracer in (False, True) if index % 2 == 0 else (True, False):
            if not with_tracer:
                plain.append(run_checked(program, workload, op, problems))
                continue
            tracer.install(program)
            try:
                traced.append(run_checked(program, workload, op, problems, tracer))
            finally:
                tracer.uninstall()
    values = tracer.layer_metrics()
    plain_s, traced_s = sum(plain), sum(traced)
    values["trace.overhead_s"] = traced_s - plain_s
    values["trace.overhead_ratio"] = (traced_s - plain_s) / plain_s
    evaluations = tracer.counters.get("operators.evaluations", 0)
    values["operators.coeff_useful_ratio"] = (
        workload.work(workload.coefficient_ops(ops)) / evaluations if evaluations else 0.0)
    for name in ("entries_per_s", "coeffs_per_s"):  # measured untraced; 0 where not work
        values[name] = workload.work(ops) / plain_s if workload.work_metric == name else 0.0
    spans_file = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.json"
    spans_file.write_text(json.dumps({"ops": [op.label for op in ops],
                                      "spans": tracer.spans}))
    details = {
        "ops": len(ops), "untraced_s": plain_s, "traced_s": traced_s,
        "spans": len(tracer.spans), "spans_file": str(spans_file.relative_to(ROOT)),
        "problems": problems[:10],
    }
    result = {"attempted": 2 * len(ops), "failed": len(problems), "values": values}
    return result, details


if __name__ == "__main__":
    sys.exit(main())
