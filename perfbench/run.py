"""Benchmark of the sbparity command line, end to end and layer by layer.

    python3 perfbench/run.py --workload dense-theorem --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  One process drives ``sbparity.cli.main``
in-process as a closed loop with a single client: each op is one CLI call,
and the next starts when the previous returns.  The ops of a workload
(``workloads.py``) run in passes, each pass running every op once, until
``--seconds`` have elapsed at the end of a pass.  BLAS is pinned to one
thread.  Times are reference-speed times (``calibration.py``); the raw wall
times are reported beside them under ``wall.``.

``--trace 0`` reports the end-to-end metrics: set-up time (a fresh
interpreter importing ``sbparity.cli``), the median op time, the time of one
pass and the peak RSS; the tail op time and the times per subcommand are
printed beside them.  ``--trace 1`` alternates untraced and traced passes and reports per-layer metrics from the traced ones (see
``spans.py``) plus the tracing overhead.  Every output is checked against an
independent oracle (``oracles.py``) outside the timed region; a mismatch, a
wrong exit code or an exception counts the op as failed.
A workload's probe ops of a known defect run once, untimed, after the timed
passes; their verdicts are printed and recorded apart and do not enter the
counts.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The full record, with the
environment, is written to ``.bench_out/results/``.
"""

import os

# Pin BLAS before numpy loads; the set-up subprocesses inherit the setting.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import contextlib  # noqa: E402
import hashlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
GOLDEN = ROOT / "tests" / "data" / "phase_diagram_golden.csv"
OUT_DIR = ROOT / ".bench_out"

SETUP_SAMPLES = 7
TAIL_BEYOND = 10
EXPECTED_EXIT = 0

# Per-subcommand detail metric: (name prefix, Op.size key dividing the op time).
COMMAND_METRICS = {
    "theorem": ("theorem_ms", None),
    "spectrum": ("spectrum_ms", None),
    "parity-audit": ("audit_ms", None),
    "phase-diagram": ("sweep_point_ms", "points"),
}

# Per-layer metrics: span -> (fields, facts).  Span names are spans.py's.
LAYER_SPANS = {
    "spectra.eigen_lowest": (("calls", "self_ms"), ("max_residual",)),
    "spectra.theorem_report": (("self_ms",), ()),
    "symmat.SymmetricMatrix.to_dense": (("calls", "self_ms"), ("bytes",)),
    "fockspace.d_matrix": (("calls", "self_ms"), ("pairs",)),
    "fockspace.single_mode_l_table": (("calls", "self_ms"), ("entries",)),
    "fockspace.l_element_single": (("calls", "self_ms"), ()),
    "fockspace.enumerate_basis": (("self_ms",), ()),
    "hamiltonian.assemble_branch": (("calls", "self_ms"), ()),
    "parity.d_square_audit": (("self_ms",), ("flops",)),
    "parity.critical_alpha": (("calls",), ()),
    "parity.parity_deficiency": (("calls", "self_ms"), ()),
    "bath.discretize_bath": (("calls", "self_ms"), ()),
    "cli.main": (("self_ms",), ()),
    "cli.dumps": (("self_ms",), ()),
}
LAYER_MODULES = ("bath", "fockspace", "hamiltonian", "symmat", "spectra", "parity", "cli")
FACT_UNITS = {"bytes": "B", "flops": "flop", "pairs": "count", "entries": "count",
              "max_residual": "1"}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values, beyond=TAIL_BEYOND):
    """(value, percentile): the highest percentile with at least ``beyond``
    samples above it.  Short runs keep fewer than half the samples above it
    instead, so the tail never falls below the median."""
    ordered = sorted(values)
    idx = len(ordered) - min(beyond, (len(ordered) - 1) // 2) - 1
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


# ---------------------------------------------------------------------------
# Environment
# ---------------------------------------------------------------------------

def source_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "sbparity").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                          capture_output=True, text=True, check=False)
    return proc.stdout.strip() or None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def environment(seed):
    import numpy as np
    import scipy

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": {var: os.environ.get(var) for var in BLAS_THREAD_VARS},
        "git_commit": git_commit(),
        "source_sha256": source_digest(),
        "seed": seed,
    }


# ---------------------------------------------------------------------------
# Running ops
# ---------------------------------------------------------------------------

def measure_setup(samples=SETUP_SAMPLES):
    """Wall seconds of a fresh interpreter importing sbparity.cli.

    Not scaled to reference time: start-up (exec, mapping libraries, reading
    bytecode) did not follow the calibration kernels, and its raw wall
    times spread less between runs than scaled ones."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    walls = []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import sbparity.cli"], env=env,
                       cwd=ROOT, check=True, stdin=subprocess.DEVNULL,
                       stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
        walls.append(time.perf_counter() - start)
    return walls


@dataclass
class Execution:
    slot: str
    wall: float
    error: str | None
    digest: str | None
    out_bytes: int
    traced: bool
    timed: bool


@dataclass
class Pass:
    traced: bool
    executions: list
    spans: dict = field(default_factory=dict)  # name -> (calls, self s, facts)

    @property
    def wall(self):
        return sum(e.wall for e in self.executions)


class Runner:
    """Runs a workload's ops through ``sbparity.cli.main``.

    Keeps per execution its times, exit status and output digest, and each
    distinct output per slot for the checks.  Without a calibrator no
    calibration kernels run.
    """

    def __init__(self, ops, workdir, calibrator, tracer=None):
        import sbparity.cli

        self.cli = sbparity.cli
        self.ops = ops
        self.calibrator = calibrator
        self.tracer = tracer
        self.argv = []
        for i, op in enumerate(ops):
            cfg = workdir / f"op{i}.json"
            cfg.write_text(json.dumps(op.config))
            self.argv.append([op.command, "--config", str(cfg),
                              "--out", str(workdir / f"op{i}.out")])
        self.executions = []
        self.outputs = {}  # (slot, digest) -> bytes

    def run(self, i, timed=True, traced=False):
        """One op, followed by one calibration tick."""
        op = self.ops[i]
        sink = io.StringIO()
        error = None
        with contextlib.redirect_stdout(sink):
            start = time.perf_counter()
            try:
                exit_code = self.cli.main(self.argv[i])
            except Exception as exc:  # an escaped exception is a failed op
                exit_code = None
                error = f"{type(exc).__name__}: {exc}"
            wall = time.perf_counter() - start
        if self.calibrator is not None:
            self.calibrator.tick()
        if error is None and exit_code != EXPECTED_EXIT:
            lines = sink.getvalue().strip().splitlines()
            error = f"exit {exit_code}" + (f": {lines[-1][:200]}" if lines else "")
        out = Path(self.argv[i][-1])
        digest, size = None, 0
        if out.exists():
            data = out.read_bytes()
            out.unlink()
            digest, size = hashlib.sha256(data).hexdigest(), len(data)
            self.outputs.setdefault((op.slot, digest), data)
        record = Execution(op.slot, wall, error, digest, size, traced, timed)
        self.executions.append(record)
        return record

    def run_passes(self, seconds):
        """A warm-up pass, then whole passes until ``seconds`` have elapsed.
        With a tracer, passes alternate untraced and traced."""
        for i in range(len(self.ops)):
            self.run(i, timed=False)
        passes = []
        deadline = time.perf_counter() + seconds
        min_passes = 2 if self.tracer is not None else 1
        while len(passes) < min_passes or time.perf_counter() < deadline:
            traced = self.tracer is not None and len(passes) % 2 == 1
            current = Pass(traced, [])
            if traced:
                self.tracer.reset()
                self.tracer.install()
            try:
                for i in range(len(self.ops)):
                    current.executions.append(self.run(i, traced=traced))
            finally:
                if traced:
                    self.tracer.remove()
            if traced:
                current.spans = {name: (st.calls, st.self, st.facts)
                                 for name, st in self.tracer.stats.items()}
            passes.append(current)
        return passes


# ---------------------------------------------------------------------------
# Checking
# ---------------------------------------------------------------------------

def check_output(op, data, cache):
    import oracles

    if op.slot == "phase-diagram/golden":
        return None if data == GOLDEN.read_bytes() else "output differs from the golden CSV"
    text = data.decode()
    if op.command == "phase-diagram":
        return oracles.check_sweep(op.config, text)
    try:
        body = json.loads(text)
    except json.JSONDecodeError as exc:
        return f"output is not JSON: {exc}"
    check = {"theorem": oracles.check_theorem, "spectrum": oracles.check_spectrum,
             "parity-audit": oracles.check_audit}[op.command]
    return check(op.config, body, cache)


def judge(runner):
    """Failure reason per execution (None when it passed)."""
    import oracles

    cache = oracles.OracleCache()
    by_slot = {op.slot: op for op in runner.ops}
    verdicts = {key: check_output(by_slot[key[0]], data, cache)
                for key, data in runner.outputs.items()}
    untraced = {(e.slot, e.digest) for e in runner.executions if not e.traced}
    reasons = []
    for e in runner.executions:
        if e.error is not None:
            reasons.append(e.error)
        elif e.digest is None:
            reasons.append("no output written")
        elif e.traced and (e.slot, e.digest) not in untraced:
            reasons.append("traced output differs from the untraced output")
        else:
            reasons.append(verdicts[e.slot, e.digest])
    return reasons


def run_probes(ops, workdir):
    """Run each probe op once, untimed, and check it: a dict per op with its
    slot and its failure reason (None when it agrees with its oracle)."""
    if not ops:
        return []
    workdir.mkdir()
    runner = Runner(ops, workdir, None)
    for i in range(len(ops)):
        runner.run(i, timed=False)
    return [{"slot": e.slot, "reason": reason}
            for e, reason in zip(runner.executions, judge(runner))]


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def slot_times(runner, scale=1.0, traced=False):
    """Timed ms per slot, times ``scale``; untraced (or traced) executions."""
    out = {op.slot: [] for op in runner.ops}
    for e in runner.executions:
        if e.timed and e.traced == traced:
            out[e.slot].append(e.wall * scale * 1e3)
    return out


def op_summary(per_slot):
    """op_ms.p50 (median over ops of each op's median), op_ms.tail (pooled),
    pass_ms (sum over ops of each op's median)."""
    medians = [statistics.median(t) for t in per_slot.values()]
    pooled = [t for times in per_slot.values() for t in times]
    value, pct = tail(pooled)
    return {"op_ms.p50": statistics.median(medians), "op_ms.tail": value,
            "op_ms.tail_percentile": pct, "op_ms.samples": len(pooled),
            "pass_ms": sum(medians), "pass_ms.samples": min(map(len, per_slot.values()))}


def end_to_end(runner, setup):
    """(metrics, detail): the bounded metrics in reference time, and the
    per-subcommand metrics and wall-clock figures beside them."""
    per_slot = slot_times(runner, runner.calibrator.factor())
    ref = op_summary(per_slot)
    wall = op_summary(slot_times(runner))
    metrics = {
        "setup_s": (statistics.median(setup), "s"),
        "op_ms.p50": (ref["op_ms.p50"], "ms"),
        "pass_ms": (ref["pass_ms"], "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    detail = {
        "setup_s.samples": (len(setup), "count"),
        "op_ms.samples": (ref["op_ms.samples"], "count"),
        "op_ms.tail": (ref["op_ms.tail"], "ms"),
        "op_ms.tail_percentile": (ref["op_ms.tail_percentile"], "%"),
        "pass_ms.samples": (ref["pass_ms.samples"], "count"),
    }
    for command, (prefix, divisor) in COMMAND_METRICS.items():
        values = [t / (op.size[divisor] if divisor else 1)
                  for op in runner.ops if op.command == command
                  for t in per_slot[op.slot]]
        if values:
            value, pct = tail(values)
            detail[f"{prefix}.p50"] = (statistics.median(values), "ms")
            detail[f"{prefix}.tail"] = (value, "ms")
            detail[f"{prefix}.tail_percentile"] = (pct, "%")
            detail[f"{prefix}.samples"] = (len(values), "count")
    for key in ("op_ms.p50", "op_ms.tail", "pass_ms"):
        detail[f"wall.{key}"] = (wall[key], "ms")
    return metrics, detail


def per_layer(passes, scale):
    """Per-layer metrics per pass: medians over the traced passes, times in
    reference ms (wall times ``scale``)."""
    traced = [p for p in passes if p.traced]
    untraced = [p for p in passes if not p.traced]

    def per_pass(fn):
        return [fn(p.spans) for p in traced]

    def span(spans, name):
        return spans.get(name, (0, 0.0, {}))

    metrics = {}
    for name, (fields, facts) in LAYER_SPANS.items():
        if "calls" in fields:
            metrics[f"{name}.calls"] = (
                statistics.median(per_pass(lambda s: span(s, name)[0])), "count")
        if "self_ms" in fields:
            metrics[f"{name}.self_ms"] = (
                statistics.median(per_pass(lambda s: span(s, name)[1] * scale * 1e3)), "ms")
        for fact in facts:
            values = per_pass(lambda s: span(s, name)[2].get(fact, 0))
            value = max(values) if fact == "max_residual" else statistics.median(values)
            metrics[f"{name}.{fact}"] = (float(value), FACT_UNITS[fact])
    for module in LAYER_MODULES:
        metrics[f"{module}.self_ms"] = (statistics.median(per_pass(
            lambda s: sum(v[1] for k, v in s.items() if k.split(".", 1)[0] == module)
            * scale * 1e3)),
            "ms")
    metrics["cli.out_bytes"] = (
        statistics.median(sum(e.out_bytes for e in p.executions) for p in traced), "B")
    metrics["trace.overhead_ms"] = (
        (statistics.median(p.wall for p in traced)
         - statistics.median(p.wall for p in untraced)) * scale * 1e3, "ms")
    return metrics


def span_table(passes, scale):
    """Every span's calls and self time (reference ms) per traced pass."""
    traced = [p for p in passes if p.traced]
    names = sorted({n for p in traced for n in p.spans})
    return {
        name: {
            "calls": statistics.median(p.spans.get(name, (0,))[0] for p in traced),
            "self_ms": statistics.median(
                p.spans.get(name, (0, 0.0))[1] * scale * 1e3 for p in traced),
        }
        for name in names
    }


# ---------------------------------------------------------------------------
# Main
# ---------------------------------------------------------------------------

def run_workload(name, seed, seconds, trace_mode):
    import workloads
    from calibration import Calibrator

    workload = workloads.WORKLOADS[name]
    ops = workload.make_ops(seed)
    setup = [] if trace_mode else measure_setup()
    calibrator = Calibrator(workload.calibration)
    sys.path.insert(0, str(SRC))
    env = environment(seed)

    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        tracer = None
        if trace_mode:
            import spans

            tracer = spans.Tracer()
        runner = Runner(ops, workdir, calibrator, tracer)
        passes = runner.run_passes(seconds)
        if trace_mode:
            metrics, detail = per_layer(passes, calibrator.factor()), {}
        else:
            metrics, detail = end_to_end(runner, setup)
        reasons = judge(runner)
        probes = run_probes(workload.probes, workdir / "probes")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(runner.executions)
    failures = {}
    for e, reason in zip(runner.executions, reasons):
        if reason is not None:
            failures[e.slot, reason] = failures.get((e.slot, reason), 0) + 1
    failed = sum(failures.values())
    detail["fail_frac"] = (failed / attempted, "1")
    cal_ms = [t * 1e3 for t in calibrator.history]
    detail["calibration.kernel_ms.p50"] = (statistics.median(cal_ms), "ms")
    detail["calibration.kernel_ms.min"] = (min(cal_ms), "ms")
    detail["calibration.kernel_ms.max"] = (max(cal_ms), "ms")
    detail["calibration.factor"] = (calibrator.factor(), "1")

    ref = slot_times(runner, calibrator.factor())
    wall = slot_times(runner)
    record = {
        "workload": name,
        "why": workload.why,
        "seconds": seconds,
        "trace": int(trace_mode),
        "environment": env,
        "passes": len(passes),
        "attempted": attempted,
        "failed": failed,
        "failures": [{"slot": s, "reason": r, "ops": c} for (s, r), c in failures.items()],
        "known_defect_probes": probes,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        "detail": {k: {"value": v, "unit": u} for k, (v, u) in detail.items()},
        "ops": [{"slot": op.slot, "command": op.command, "size": op.size,
                 "samples": len(ref[op.slot]),
                 "median_ms": statistics.median(ref[op.slot]) if ref[op.slot] else None,
                 "ref_ms": ref[op.slot], "wall_ms": wall[op.slot], "config": op.config}
                for op in ops],
    }
    if trace_mode:
        record["spans"] = span_table(passes, calibrator.factor())
    report(record)
    results = OUT_DIR / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{name}-seed{seed}-trace{int(trace_mode)}.json"
    path.write_text(json.dumps(record, indent=1) + "\n")
    print(f"results: {path.relative_to(ROOT)}")
    return {"correct": failed == 0, "attempted": attempted, "failed": failed,
            "metrics": record["metrics"]}


def report(record):
    env = record["environment"]
    print(f"workload {record['workload']}  seed {env['seed']}  seconds {record['seconds']}"
          f"  trace {record['trace']}  passes {record['passes']}")
    print(f"  why: {record['why']}")
    print(f"  env: nproc {env['nproc']} ({env['cpus_usable']} usable), {env['cpu_model']}, "
          f"python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {env['blas']}, threads {env['blas_threads']}, commit {env['git_commit']}")
    print("  ops (median reference ms):")
    for op in record["ops"]:
        size = " ".join(f"{k}={v}" for k, v in op["size"].items())
        median = f"{op['median_ms']:10.2f}" if op["median_ms"] is not None else "         -"
        print(f"    {op['slot']:<24} {median}  n={op['samples']:<4} {size}")
    for title in ("metrics", "detail"):
        print(f"  {title}:")
        for name, m in record[title].items():
            print(f"    {name:<44} {m['value']:14.6g} {m['unit']}")
    print(f"  failed {record['failed']} of {record['attempted']} ops")
    for f in record["failures"]:
        print(f"    {f['slot']}: {f['ops']} ops: {f['reason']}")
    probes = record["known_defect_probes"]
    if probes:
        wrong = sum(p["reason"] is not None for p in probes)
        print(f"  known-defect probes (untimed, not in the counts above): "
              f"{wrong} of {len(probes)} disagree with their oracle")
        for p in probes:
            print(f"    {p['slot']}: {p['reason'] or 'agrees'}")


def main(argv=None):
    import workloads

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "sbparity" / "cli.py").is_file():
        print(f"sbparity source not found under {SRC}", file=sys.stderr)
        return 2
    if args.workload == "all":
        code = 0
        for name in workloads.WORKLOADS:
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(args.trace)],
                check=False)
            code = max(code, proc.returncode)
        return code
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
