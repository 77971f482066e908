"""Tests of the benchmark itself: seeded inputs, tracing that changes no
output, the predicted bypass counts, and oracles that catch wrong output.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
for path in (str(ROOT / "src"), str(BENCH)):
    if path not in sys.path:
        sys.path.insert(0, path)

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from sbparity import cli  # noqa: E402

SEED = 7


def run_op(op, tmp_path, name="out"):
    cfg = tmp_path / f"{name}.json"
    cfg.write_text(json.dumps(op.config))
    out = tmp_path / f"{name}.dat"
    code = cli.main([op.command, "--config", str(cfg), "--out", str(out)])
    return code, out.read_bytes()


def traced_op(op, tmp_path, name="traced"):
    tracer = spans.Tracer()
    tracer.install()
    try:
        code, data = run_op(op, tmp_path, name)
    finally:
        tracer.remove()
    return code, data, tracer


# ---------------------------------------------------------------------------
# Inputs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_inputs(name):
    make = workloads.WORKLOADS[name].make_ops
    first, again, other = make(SEED), make(SEED), make(SEED + 1)
    assert [(op.slot, op.command, op.config) for op in first] == [
        (op.slot, op.command, op.config) for op in again]
    assert [op.config for op in first] != [op.config for op in other]
    # Sizes, and with them the work per op, do not depend on the seed.
    assert [op.size for op in first] == [op.size for op in other]


def test_workload_sizes():
    dense = workloads.dense_theorem_ops(SEED)
    assert sorted({op.size["dim"] for op in dense}) == [961, 969, 1820]
    strong = workloads.strong_coupling_ops(SEED)
    assert all(op.size["dim"] <= 121 for op in strong)
    assert workloads.DEFECT_PROBES[0].config == workloads.REPRO_CONFIG
    assert workloads.WORKLOADS["strong-coupling"].probes == workloads.DEFECT_PROBES
    sweep = workloads.phase_sweep_ops(SEED)
    assert sweep[0].config == workloads.GOLDEN_CONFIG


# ---------------------------------------------------------------------------
# Tracing
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_traced_and_untraced_outputs_are_identical(name, tmp_path):
    for i, op in enumerate(workloads.WORKLOADS[name].make_ops(SEED)):
        code, plain = run_op(op, tmp_path, f"plain{i}")
        traced_code, traced, _ = traced_op(op, tmp_path, f"traced{i}")
        assert traced_code == code
        assert traced == plain, op.slot


def test_tracer_restores_every_original():
    import sbparity
    from sbparity import fockspace, spectra, symmat

    before = (cli.main, spectra.d_matrix, fockspace.d_matrix, sbparity.d_matrix,
              symmat.SymmetricMatrix.to_dense)
    tracer = spans.Tracer()
    tracer.install()
    try:
        # One wrapper per function, bound under every name that held it.
        assert spectra.d_matrix is fockspace.d_matrix is sbparity.d_matrix
        assert spectra.d_matrix is not before[1]
    finally:
        tracer.remove()
    after = (cli.main, spectra.d_matrix, fockspace.d_matrix, sbparity.d_matrix,
             symmat.SymmetricMatrix.to_dense)
    assert all(a is b for a, b in zip(before, after))


def test_self_time_excludes_wrapped_children(tmp_path):
    op = workloads.dense_theorem_ops(SEED)[0]
    _, _, tracer = traced_op(op, tmp_path)
    stats = tracer.stats
    main = stats["cli.main"]
    assert main.calls == 1
    assert 0.0 <= main.self < main.total
    total_self = sum(st.self for st in stats.values())
    assert total_self == pytest.approx(main.total, rel=1e-6)
    assert stats["fockspace.d_matrix"].facts["pairs"] == 969 * 970 // 2
    assert stats["spectra.eigen_lowest"].calls == 2


def test_phase_sweep_bypasses_tables_and_eigensolver(tmp_path):
    counts = {}
    for i, op in enumerate(workloads.phase_sweep_ops(SEED)):
        _, _, tracer = traced_op(op, tmp_path, f"sweep{i}")
        for name, st in tracer.stats.items():
            counts[name] = counts.get(name, 0) + st.calls
    for name in ("spectra.eigen_lowest", "fockspace.d_matrix",
                 "fockspace.single_mode_l_table"):
        assert counts.get(name, 0) == 0
    assert counts["parity.critical_alpha"] == 2 * workloads.SWEEP_STEPS


def test_strong_coupling_dims_stay_small(tmp_path):
    for i, op in enumerate(workloads.strong_coupling_ops(SEED) + list(workloads.DEFECT_PROBES)):
        _, _, tracer = traced_op(op, tmp_path, f"strong{i}")
        table = tracer.stats["fockspace.d_matrix"]
        # pairs = dim (dim + 1) / 2 per call
        assert table.facts["pairs"] <= table.calls * 121 * 122 // 2


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------

def test_theorem_oracle_rejects_the_known_defect_and_a_small_error(tmp_path):
    cache = oracles.OracleCache()
    repro = workloads.DEFECT_PROBES[0]
    _, data = run_op(repro, tmp_path)
    reason = oracles.check_theorem(repro.config, json.loads(data), cache)
    assert reason is not None and reason.startswith("e_gs")

    good = workloads.Op("theorem/small-q", "theorem",
                        workloads._single_mode_config(0.5, 0.2, 60), {})
    _, data = run_op(good, tmp_path)
    body = json.loads(data)
    assert oracles.check_theorem(good.config, body, cache) is None
    body["e_plus_min"] += 1e-6
    assert oracles.check_theorem(good.config, body, cache) is not None


def test_defect_probes_are_run_checked_and_reported(tmp_path):
    import run

    probes = run.run_probes(workloads.DEFECT_PROBES, tmp_path / "probes")
    assert [p["slot"] for p in probes] == [op.slot for op in workloads.DEFECT_PROBES]
    repro = probes[0]["reason"]
    assert repro is not None and repro.startswith("e_gs")


def test_dense_oracles_accept_correct_and_reject_perturbed_output(tmp_path):
    cache = oracles.OracleCache()
    ops = {op.command: op for op in workloads.dense_theorem_ops(SEED)[:3]}
    checks = {"theorem": oracles.check_theorem, "spectrum": oracles.check_spectrum,
              "parity-audit": oracles.check_audit}
    bodies = {}
    for command, op in ops.items():
        _, data = run_op(op, tmp_path, command)
        bodies[command] = json.loads(data)
        assert checks[command](op.config, bodies[command], cache) is None, command
    bodies["spectrum"]["minus"]["vectors"][1][3] += 1e-4
    assert oracles.check_spectrum(ops["spectrum"].config, bodies["spectrum"], cache)
    bodies["parity-audit"]["d2_diag_residuals"][5] += 1e-6
    assert oracles.check_audit(ops["parity-audit"].config, bodies["parity-audit"], cache)


def test_audit_oracle_enforces_row_norm_bound(tmp_path):
    op = workloads.Op("parity-audit/small-q", "parity-audit",
                      workloads._single_mode_config(0.5, 0.2, 60), {})
    _, data = run_op(op, tmp_path)
    body = json.loads(data)
    assert oracles.check_audit(op.config, body, oracles.OracleCache()) is None
    body["d2_diag_residuals"][-1] = 1.5
    assert "row-norm" in oracles.check_audit(op.config, body, oracles.OracleCache())


def test_sweep_oracle_recomputes_deficiency(tmp_path):
    op = workloads.phase_sweep_ops(SEED)[1]
    _, data = run_op(op, tmp_path)
    text = data.decode()
    assert oracles.check_sweep(op.config, text) is None
    rows = text.splitlines()
    cells = rows[3].split(",")
    cells[1] = repr(float(cells[1]) * (1 + 1e-6))
    rows[3] = ",".join(cells)
    assert "deficiency" in oracles.check_sweep(op.config, "\n".join(rows) + "\n")


def test_vacuum_deficiency_matches_a_direct_sum():
    qs = [0.7, 0.3]
    cap = 6
    kept = 0.0
    for n0 in range(cap + 1):
        for n1 in range(cap + 1 - n0):
            kept += math.prod(math.exp(-4 * q * q) * (4 * q * q) ** n / math.factorial(n)
                              for q, n in zip(qs, (n0, n1)))
    assert oracles.vacuum_deficiency(qs, "total-quanta", cap) == pytest.approx(1 - kept, rel=1e-12)


# ---------------------------------------------------------------------------
# The command
# ---------------------------------------------------------------------------

def test_tail_is_the_highest_percentile_with_ten_beyond():
    import run

    assert run.tail(list(range(100))) == (89, 90.0)
    value, _ = run.tail([1.0, 2.0, 3.0, 4.0])
    assert value >= 2.5


def test_fails_without_the_program_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "phase-sweep", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_benchmark_json_lists_what_the_benchmark_emits():
    import run

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in workloads.WORKLOADS.items()}
    passes = [run.Pass(False, []), run.Pass(True, [])]
    emitted = run.per_layer(passes, 1.0)
    assert [m["name"] for m in spec["per_layer"]] == list(emitted)
    assert all(m["unit"] == emitted[m["name"]][1] for m in spec["per_layer"])
