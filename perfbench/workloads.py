"""Seeded inputs for the benchmark workloads.

A workload is a fixed list of ops; one op is one ``sbparity`` CLI call (a
subcommand plus a JSON config).  The seed draws the physical parameters
within fixed ranges, while the sizes (modes, cap, truncation policy) are
fixed, so the basis dimension and with it the work per op is the same on
every seed.  The same seed always yields the same ops.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

OMEGA_C = 1.0
LAMBDA_DISC = 2.0


@dataclass(frozen=True)
class Op:
    """One CLI call: ``sbparity <command> --config <config> --out <file>``.

    ``size`` records what sets the work: dim, modes, cap and policy (or the
    number of sweep points for ``phase-diagram``).
    """

    slot: str
    command: str
    config: dict
    size: dict


@dataclass(frozen=True)
class Workload:
    """``calibration`` names the kernels of calibration.py that match the
    work of the workload's ops.  ``probes`` are fixed ops of a known defect,
    run and checked once per run, untimed, and reported apart."""

    name: str
    why: str
    make_ops: object  # seed -> list[Op]
    calibration: tuple
    probes: tuple = ()


def basis_dim(n_modes: int, policy: str, cap: int) -> int:
    if policy == "per-mode":
        return (cap + 1) ** n_modes
    return math.comb(cap + n_modes, n_modes)


def _size(n_modes, policy, cap):
    return {"dim": basis_dim(n_modes, policy, cap), "modes": n_modes,
            "cap": cap, "policy": policy}


# ---------------------------------------------------------------------------
# dense-theorem: multi-mode bases of dim ~960-1820, where the eigensolve, the
# dense conversion and the D gather dominate.
# ---------------------------------------------------------------------------

DENSE_BASES = (
    # (label, n_modes, policy, cap)
    ("m3-tq16", 3, "total-quanta", 16),
    ("m2-pm30", 2, "per-mode", 30),
    ("m4-tq12", 4, "total-quanta", 12),
)
DENSE_COMMANDS = ("theorem", "spectrum", "parity-audit")
DENSE_K_LEVELS = 4


def dense_theorem_ops(seed: int) -> list[Op]:
    rng = random.Random(f"dense-theorem:{seed}")
    ops = []
    for label, n_modes, policy, cap in DENSE_BASES:
        config = {
            "model": {
                "delta": rng.uniform(0.05, 0.5),
                "omega_c": OMEGA_C,
                "s": rng.uniform(0.3, 1.0),
                "alpha": rng.uniform(0.05, 0.5),
            },
            "disc": {"n_modes": n_modes, "lambda_disc": LAMBDA_DISC},
            "trunc": {"policy": policy, "cap": cap},
            "solver": {"k_levels": DENSE_K_LEVELS},
        }
        for command in DENSE_COMMANDS:
            ops.append(Op(f"{command}/{label}", command, config,
                          _size(n_modes, policy, cap)))
    return ops


# ---------------------------------------------------------------------------
# strong-coupling: single-mode bases at caps 60 and 120.  The Python kernel
# table is nearly all of each op; the eigensolve (dim <= 121) is negligible.
# ---------------------------------------------------------------------------

STRONG_CAPS = (60, 120)
# The seeded q range per cap: the range where the current kernel still passes
# every oracle.  Its cancelling sum breaks the audit's row-norm bound from
# q ~ 1.38 at cap 60 and q ~ 0.85 at cap 120, and the theorem soon after; the
# fixed probe ops below show that.  The cost of the kernel table depends on
# the cap, not on q.
STRONG_Q_RANGE = {60: (0.5, 1.2), 120: (0.5, 0.7)}
STRONG_Q_PER_CAP = 2
STRONG_COMMANDS = ("theorem", "parity-audit")


def _single_mode_config(q: float, delta: float, cap: int) -> dict:
    omega = 1.0
    return {
        "model": {"delta": delta, "omega_c": OMEGA_C, "s": 1.0, "alpha": 0.0,
                  "modes": [[omega, 2.0 * omega * q]]},
        "trunc": {"policy": "per-mode", "cap": cap},
    }


def strong_coupling_ops(seed: int) -> list[Op]:
    rng = random.Random(f"strong-coupling:{seed}")
    ops = []
    for cap in STRONG_CAPS:
        for i in range(STRONG_Q_PER_CAP):
            config = _single_mode_config(rng.uniform(*STRONG_Q_RANGE[cap]),
                                         rng.uniform(0.05, 0.5), cap)
            for command in STRONG_COMMANDS:
                ops.append(Op(f"{command}/c{cap}-{i}", command, config,
                              _size(1, "per-mode", cap)))
    return ops


# The known kernel defect: ops whose output the current kernel gets wrong
# with exit 0.  They run once per strong-coupling run, untimed, and are
# reported apart from the workload's ops.  The first is the reproduction
# config, whose e_gs should be -4.000184.
REPRO_CONFIG = {
    "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.0,
              "modes": [[1.0, 4.0]]},
    "trunc": {"cap": 60},
}
DEFECT_PROBES = (
    Op("theorem/repro-c60", "theorem", REPRO_CONFIG, _size(1, "per-mode", 60)),
    Op("theorem/c120-q1.5", "theorem", _single_mode_config(1.5, 0.1, 120),
       _size(1, "per-mode", 120)),
    Op("parity-audit/c120-q1.5", "parity-audit", _single_mode_config(1.5, 0.1, 120),
       _size(1, "per-mode", 120)),
    Op("theorem/c120-q3", "theorem", _single_mode_config(3.0, 0.1, 120),
       _size(1, "per-mode", 120)),
    Op("theorem/c40-q3", "theorem", _single_mode_config(3.0, 0.1, 40),
       _size(1, "per-mode", 40)),
)


# ---------------------------------------------------------------------------
# phase-sweep: the alpha_c phase diagram.  Only bath and parity work here: no
# D table and no eigensolve.
# ---------------------------------------------------------------------------

# Same config as the pinned regression file tests/data/phase_diagram_golden.csv.
GOLDEN_CONFIG = {
    "model": {"delta": 0.1, "omega_c": 1.0, "s": 1.0, "alpha": 0.1},
    "disc": {"n_modes": 30, "lambda_disc": 2.0},
    "trunc": {"cap": 20},
    "parity": {"epsilon": 0.01, "m_ref": 0},
    "sweep": {"variable": "s", "from": 0.25, "to": 1.0, "steps": 16},
}
SWEEP_STEPS = 16


def phase_sweep_ops(seed: int) -> list[Op]:
    rng = random.Random(f"phase-sweep:{seed}")
    seeded = {
        "model": {"delta": 0.1, "omega_c": OMEGA_C, "s": 1.0, "alpha": 0.1},
        "disc": {"n_modes": 30, "lambda_disc": LAMBDA_DISC},
        "trunc": {"cap": 20},
        "parity": {"epsilon": rng.uniform(0.005, 0.05), "m_ref": 2},
        "sweep": {"variable": "s", "from": rng.uniform(0.3, 0.5),
                  "to": rng.uniform(0.8, 1.0), "steps": SWEEP_STEPS},
    }
    size = {"points": SWEEP_STEPS, "modes": 30, "cap": 20, "policy": "per-mode"}
    return [
        Op("phase-diagram/golden", "phase-diagram", GOLDEN_CONFIG, size),
        Op("phase-diagram/mref2", "phase-diagram", seeded, size),
    ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload("dense-theorem",
                 "multi-mode dim 961-1820 theorem, spectrum and audit: "
                 "eigensolve, dense conversion and D gather dominate",
                 dense_theorem_ops, ("gemm", "stream")),
        Workload("strong-coupling",
                 "single-mode caps 60/120 at q the kernel gets right: the Python "
                 "kernel table dominates, eigensolve negligible; probes the known defect",
                 strong_coupling_ops, ("interp", "gemm"), DEFECT_PROBES),
        Workload("phase-sweep",
                 "alpha_c phase diagrams (golden and m_ref 2): bath and "
                 "parity only, bypassing D tables and the eigensolve",
                 phase_sweep_ops, ("interp",)),
    )
}
