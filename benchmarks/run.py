"""quasimo benchmark: three workflow workloads driven through the public API.

    python3 benchmarks/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 benchmarks/run.py --configs

Run from the repository root.  One run builds its inputs from the seed, runs
one discarded warm-up execution, then times set-up (``create_model`` +
``get_workflow``) and ``execute()`` repeatedly for about ``--seconds``
seconds, and finally checks every timed execution against an oracle and
against the first one's bits.  ``--trace 1`` adds one execution with every layer
boundary wrapped in a span, plus the layer sweep.

Standard output: an ``env`` line, a ``report`` line with every metric by
name and unit, and a last line ``{"correct", "attempted", "failed",
"metrics"}`` holding the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``).  ``--configs`` runs each ``configs/*.json`` once
through the CLI and prints exit codes and wall times, ungated.

See benchmarks/README.md for why each workload and metric was chosen.
"""

import argparse
import ctypes
import hashlib
import itertools
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench-out"
SETUP_BURST = 10  # set-ups per burst, at least
SETUP_BURST_S = 0.05  # and for at least this long
MIN_EXECUTIONS = 2
EXIT_NO_PROGRAM = 2
EXIT_USAGE = 2
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
# glibc mallopt parameters, from malloc.h
M_TRIM_THRESHOLD = -1
M_MMAP_THRESHOLD = -3

# Boundaries every workload's traced execution crosses: these report times.
UNIVERSAL_BOUNDARIES = (
    "simulator.apply_gate",
    "simulator.run",
    "circuit.Circuit",
    "costfn.evaluate_state",
    "workflow.execute",
    "model.create_model",
)
# Per traced execution, apply_gate calls are reported as gates_applied, and
# create_model and execute run exactly once.
CALLS_VARY = ("simulator.run", "circuit.Circuit", "costfn.evaluate_state")
# Boundaries only some workloads cross: their call counts are per-layer
# metrics; their times go to the report line only, since a time that is 0 on
# every run of a workload carries no measurement.
COUNTED_BOUNDARIES = (
    "simulator.expectation",
    "simulator.apply_pauli_string",
    "pauli.PauliOperator.terms",
    "circuit.bind_parameters",
    "circuit.exp_pauli",
    "circuit.compose",
    "costfn.evaluate",
    "optimizer.spsa_minimize",
    "optimizer.nelder_mead_minimize",
)


def _pin_environment():
    """Make the process single-threaded and its allocator history-free.

    BLAS threads are pinned to 1 before numpy loads.  glibc's default malloc
    thresholds adapt to past frees: the simulator's 1-3 MiB temporaries are
    then returned to the OS and faulted back in a pattern set by heap
    history, so every other 16-qubit Trotter step took about 144k page
    faults (0.3 s of system time) and solve times became bimodal.  Fixed
    thresholds keep freed blocks in the heap.  Returns whether mallopt took.
    """
    for var in BLAS_THREAD_VARS:
        os.environ[var] = "1"
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):  # not glibc
        return False
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt(M_TRIM_THRESHOLD, 1 << 30) == 1 and mallopt(M_MMAP_THRESHOLD, 1 << 25) == 1


def _metric(value, unit):
    return {"value": value, "unit": unit}


def _tail_percentile(count):
    """p99, or the highest whole percentile with at least ten samples beyond
    it when there are fewer than 1000 samples (never below the median)."""
    return min(99, max(50, 100 * (count - 10) // count)) if count else 50


def _percentile(samples, q):
    import numpy as np

    return float(np.percentile(samples, q)) if samples else 0.0


def _median(values):
    return statistics.median(values) if values else 0.0


def _environment(malloc_pinned):
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, ValueError):
        blas = "unknown"
    digest = hashlib.sha256()
    for path in sorted((SRC / "quasimo").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode())
            digest.update(path.read_bytes())
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "malloc_pinned": malloc_pinned,
        "nproc": os.cpu_count(),
        "commit": _git_commit(),
        "src_sha256": digest.hexdigest(),
    }


def _git_commit():
    """HEAD's commit read from .git, or None outside a git checkout."""
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
    return None


class Run:
    """Timings and outcomes of one benchmark run of one workload."""

    def __init__(self, workload, seed):
        self.workload = workload
        self.inputs = workload.inputs(seed)
        self.setup_s, self.solve_s, self.eval_s = [], [], []
        self.eval_runs = []  # each timed execution's evaluation times, in order
        self.outcomes = []  # a WorkflowResult, or the message of what it raised

    def execute(self, record=True, warmup=False):
        """Set up and execute once; returns (set-up, solve) seconds, or None
        if either raised.  A warm-up runs the workload's warm-up inputs and
        keeps its outcome only if it raised."""
        inputs = self.workload.warmup_inputs(self.inputs) if warmup else self.inputs
        evals = []
        start = perf_counter()
        try:
            model, flow = self.workload.setup(inputs, evals)
            ready = perf_counter()
            result = flow.execute(model)
        except Exception as exc:  # counted as a failed run, reported by message
            self.outcomes.append(f"{type(exc).__name__}: {exc}")
            return None
        done = perf_counter()
        if not warmup:
            self.outcomes.append(result)
        if record:
            self.setup_s.append(ready - start)
            self.solve_s.append(done - ready)
            self.eval_s.extend(evals)
            self.eval_runs.append(evals)
        return ready - start, done - ready

    def measure(self, seconds):
        """Warm up once, then time at least two executions, and more until
        ``seconds`` have passed.  Bursts of set-up-only repeats before and
        after the warm-up and after every execution sample set-up across the
        whole run."""
        self._setup_burst()
        if self.execute(record=False, warmup=True) is None:
            return
        self._setup_burst()
        start = perf_counter()
        attempts = 0
        while attempts < MIN_EXECUTIONS or perf_counter() - start < seconds:
            timing = self.execute()
            attempts += 1
            if timing:
                self._setup_burst()

    def _setup_burst(self):
        began = perf_counter()
        for count in itertools.count():
            start = perf_counter()
            if count >= SETUP_BURST and start - began >= SETUP_BURST_S:
                return
            try:
                self.workload.setup(self.inputs, [])
            except Exception:  # the executions report what set-up raises
                return
            self.setup_s.append(perf_counter() - start)

    def failures(self):
        """Messages for every execution that raised, differed from the first
        result's bits, or failed the workload's correctness check."""
        messages = []
        results = [r for r in self.outcomes if not isinstance(r, str)]
        reference = None
        if results:
            try:
                reference = self.workload.reference(self.inputs)
            except Exception as exc:  # the oracle itself failed: every run fails
                return [f"oracle raised {type(exc).__name__}: {exc}"] * len(self.outcomes)
        first = self.workload.fingerprint(results[0]) if results else None
        for index, outcome in enumerate(self.outcomes):
            if isinstance(outcome, str):
                messages.append(f"execution {index} raised {outcome}")
                continue
            if self.workload.fingerprint(outcome) != first:
                messages.append(f"execution {index} is not bit-identical to execution 0")
                continue
            problem = self.workload.check(outcome, self.inputs, reference)
            if problem:
                messages.append(f"execution {index}: {problem}")
        return messages


def solve_envelope(solve_s, eval_runs):
    """Execution time with every evaluation at its fastest.

    The timed executions of a run replay the same evaluations bit for bit,
    so evaluation i costs the same work in each of them.  The envelope is
    the sum over i of the fastest time any execution took for evaluation i,
    plus the smallest remainder (execution time minus its evaluations:
    optimizer, workflow and state preparation).  Executions whose evaluation
    counts differ cannot be lined up; the fastest execution is taken then.
    """
    if not solve_s:
        return 0.0
    counts = {len(evals) for evals in eval_runs}
    if len(counts) != 1 or len(eval_runs) != len(solve_s):
        return min(solve_s)
    fastest_evals = [min(column) for column in zip(*eval_runs)]
    remainder = min(total - sum(evals) for total, evals in zip(solve_s, eval_runs))
    return sum(fastest_evals) + remainder


def end_to_end_metrics(run, peak_rss_mb):
    """Gated metrics are best cases, which hold still when the host's speed
    changes mode (see README): the fastest set-up and evaluation, and the
    execution time with every evaluation at its fastest.  The report adds
    the fastest and median execution and the evaluation tail."""
    q = _tail_percentile(len(run.eval_s))
    metrics = {
        "setup_s": _metric(min(run.setup_s, default=0.0), "s"),
        "solve_s": _metric(solve_envelope(run.solve_s, run.eval_runs), "s"),
        "eval_ms.min": _metric(min(run.eval_s, default=0.0) * 1e3, "ms"),
        "peak_rss_mb": _metric(peak_rss_mb, "MB"),
    }
    info = {
        "executions_timed": len(run.solve_s),
        "solve_s_samples": run.solve_s,
        "solve_s.fastest_execution": min(run.solve_s, default=0.0),
        "solve_s.median": _median(run.solve_s),
        "setup_samples": len(run.setup_s),
        "setup_s.median": _median(run.setup_s),
        "eval_samples": len(run.eval_s),
        "eval_ms.p50": _median(run.eval_s) * 1e3,
        "eval_ms.p99": _percentile(run.eval_s, q) * 1e3,
        "eval_ms.p99_is_percentile": q,
        "eval_ms_deciles": [_percentile(run.eval_s, d) * 1e3 for d in range(10, 100, 10)],
    }
    return metrics, info


def traced_execution(run, seed):
    """One traced execution: per-layer metrics, all boundary stats, and the
    spans file it wrote."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    try:
        timing = run.execute(record=False)
    finally:
        tracer.restore()
    traced_solve = timing[1] if timing else 0.0

    stats = tracer.boundary_stats()
    counters = tracer.counters
    empty = {"calls": 0, "total_s": 0.0, "self_s": 0.0}
    boundary = {name: stats.get(name, empty) for name in UNIVERSAL_BOUNDARIES + COUNTED_BOUNDARIES}
    for name, value in stats.items():
        boundary.setdefault(name, value)

    metrics = {}
    for name in UNIVERSAL_BOUNDARIES:
        entry = boundary[name]
        if name in CALLS_VARY:
            metrics[f"{name}.calls"] = _metric(entry["calls"], "count")
        metrics[f"{name}.self_s"] = _metric(entry["self_s"], "s")
        metrics[f"{name}.us_per_call"] = _metric(
            entry["total_s"] / max(entry["calls"], 1) * 1e6, "us"
        )
    gate = boundary["simulator.apply_gate"]
    metrics["simulator.gates_applied"] = _metric(gate["calls"], "count")
    metrics["simulator.apply_gate.computed_gbps"] = _metric(
        counters["simulator.apply_gate.computed_bytes"] / max(gate["total_s"], 1e-12) / 1e9,
        "GB/s",
    )
    for name in COUNTED_BOUNDARIES:
        metrics[f"{name}.calls"] = _metric(boundary[name]["calls"], "count")
    metrics["ansatz.calls"] = _metric(
        sum(v["calls"] for k, v in boundary.items() if k.startswith("ansatz.")), "count"
    )
    metrics["circuit.gates_constructed"] = _metric(counters["circuit.gates_constructed"], "count")
    evals = counters["optimizer.evals"]
    metrics["circuit.builds_per_eval"] = _metric(
        boundary["circuit.Circuit"]["calls"] / evals if evals else 0.0, "ratio"
    )
    metrics["costfn.shots_drawn"] = _metric(counters["costfn.shots_drawn"], "count")
    metrics["optimizer.evals"] = _metric(evals, "count")
    untraced = min(run.solve_s, default=0.0)
    metrics["trace.overhead_ratio"] = _metric(
        traced_solve / untraced if untraced else 0.0, "ratio"
    )

    optimizer_self = sum(
        boundary[n]["self_s"] for n in ("optimizer.spsa_minimize", "optimizer.nelder_mead_minimize")
    )
    details = {
        name: {
            "calls": v["calls"],
            "self_s": v["self_s"],
            "us_per_call": v["total_s"] / max(v["calls"], 1) * 1e6,
        }
        for name, v in sorted(boundary.items())
    }
    details["optimizer.self_us_per_eval"] = optimizer_self / evals * 1e6 if evals else 0.0
    details["traced_solve_s"] = traced_solve

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"trace-{run.workload.name}-seed{seed}.npz"
    import numpy as np

    np.savez_compressed(spans_path, **tracer.spans())
    details["spans_file"] = spans_path.relative_to(ROOT).as_posix()
    details["spans"] = len(tracer.name_id)
    return metrics, details


def benchmark(args, env):
    from sweep import layer_sweep
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"benchmark: unknown workload {args.workload!r}; known: {sorted(WORKLOADS)}",
              file=sys.stderr)
        return EXIT_USAGE
    print(json.dumps({"env": env}), flush=True)
    run = Run(WORKLOADS[args.workload], args.seed)
    run.measure(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    end_to_end, info = end_to_end_metrics(run, peak_rss_mb)
    metrics = end_to_end
    if args.trace:
        metrics, info["boundaries"] = traced_execution(run, args.seed)
        timings, info["sweep_computed_bytes"] = layer_sweep(args.seed)
        metrics.update({k: _metric(v, "us") for k, v in timings.items()})
    failures = run.failures()
    attempted = len(run.outcomes)
    info["fail_ratio"] = _metric(len(failures) / max(attempted, 1), "ratio")
    info["failures"] = failures[:20]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "metrics": {**end_to_end, **metrics},
        "info": info,
    }
    print(json.dumps({"report": report}), flush=True)
    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    print(json.dumps(result), flush=True)
    return 0


def configs_pass(env):
    """Each bundled config once through the CLI, into a scratch directory
    inside the checkout; exit codes and wall times are information only."""
    import tempfile

    from quasimo.cli import main as cli_main

    print(json.dumps({"env": env}), flush=True)
    rows = []
    with tempfile.TemporaryDirectory(dir=ROOT, prefix=".bench-configs-") as out:
        for path in sorted((ROOT / "configs").glob("*.json")):
            start = perf_counter()
            code = cli_main(["run", "--config", str(path), "--out", out, "--quiet"])
            rows.append(
                {"config": path.name, "exit_code": code, "wall_s": perf_counter() - start}
            )
            print(json.dumps(rows[-1]), flush=True)
    print(json.dumps({"configs": rows}), flush=True)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", help="trotter-quench, qaoa-multistart or vqe-h2-shots")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--configs", action="store_true", help="run configs/*.json once through the CLI"
    )
    args = parser.parse_args(argv)
    if not args.configs and args.workload is None:
        parser.error("--workload is required unless --configs is given")

    malloc_pinned = _pin_environment()
    if not (SRC / "quasimo" / "__init__.py").is_file():
        print(f"benchmark: no quasimo sources at {SRC}; run from a full checkout", file=sys.stderr)
        return EXIT_NO_PROGRAM
    sys.path.insert(0, str(SRC))
    import quasimo

    if Path(quasimo.__file__).resolve().parent != SRC / "quasimo":
        print(f"benchmark: imported quasimo from {quasimo.__file__}, not {SRC}", file=sys.stderr)
        return EXIT_NO_PROGRAM
    env = _environment(malloc_pinned)
    return configs_pass(env) if args.configs else benchmark(args, env)


if __name__ == "__main__":
    sys.exit(main())
