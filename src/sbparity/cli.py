"""Command-line interface: configuration, sweeps, and bit-stable output.

Subcommands
-----------
theorem        ground-state verdict for one parameter point (JSON)
spectrum       lowest branch eigenpairs (JSON)
phase-diagram  critical dissipation vs bath exponent sweep (CSV)
parity-audit   squared-parity audit over the truncated basis (JSON)
alpha-c        critical dissipation at a single point (JSON)
closure        bare-basis closure counting for (n_modes, cap) (JSON)

Configuration is a single JSON object.  Model parameters may appear at the
top level (``delta``, ``omega_c``, ``s``, ``alpha``) or nested under
``model``; the remaining sections are ``disc`` (n_modes, lambda_disc),
``trunc`` (policy, cap), ``solver`` (tol, max_iter, k_levels), ``parity``
(epsilon, m_ref), ``sweep`` (variable, from, to, steps) and ``output``
(path, the file written instead of stdout unless ``--out`` names one; an
unwritable path exits 1).  Unknown keys are rejected.  ``model.modes`` may
carry an explicit [[omega, lam], ...] list (decreasing omega), overriding
the logarithmic discretization; this is how decoupled or unit-frequency
single-mode configurations are expressed exactly.  Only ``theorem``,
``spectrum`` and ``parity-audit`` accept it: ``alpha-c``, ``phase-diagram``
and ``closure`` discretize ``disc.n_modes`` modes from the spectral law and
reject ``model.modes`` with exit 1.  ``closure`` counts the per-mode bare
basis and rejects ``trunc.policy`` "total-quanta" with exit 1 too.
``alpha-c`` and ``phase-diagram`` enumerate no basis: under "total-quanta"
they sum the deficiency by a truncated convolution over the modes, and
refuse with exit 1 a sum needing more than ``parity.MAX_CONVOLUTION_WORK``
multiply-adds.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical invariant
violation, 3 solver failure, 4 search failure.

Output conventions
------------------
Every float is printed with 17 significant digits so that emitted values
round-trip exactly; repeated runs of the same build and config produce
byte-identical output.  JSON reports carry the result fields, a ``config``
echo, and a ``versions`` stamp.  Non-finite floats appear as the strings
"inf"/"-inf"/"NaN" in JSON and as ``NaN`` cells in CSV.

CSV formats (header row mandatory, LF line endings):

* phase-diagram: ``s,alpha_c,epsilon,n_tr,n_modes,lambda_disc,beta,o_value,
  m_ref`` plus ``alpha_c_ref`` when ``--reference`` is given.  A reference
  curve file has columns ``s,alpha_c,label`` with one label and strictly
  increasing s; it is linearly interpolated onto the sweep grid (NaN outside
  its range).
* table dumps (``parity-audit --dump-tables PREFIX``): ``row,col,value``,
  lower triangle only, written to ``PREFIX_l.csv`` and ``PREFIX_d.csv``.
* matrix dumps (``spectrum --dump-matrix PREFIX``): ``i,j,value``, lower
  triangle only, written to ``PREFIX_hplus.csv`` and ``PREFIX_hminus.csv``.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import scipy

from . import __version__
from .bath import BathModel, SpectralLaw, bath_from_modes, bath_ladder, discretize_bath
from .errors import (
    CapacityError,
    ConfigError,
    ConvergenceError,
    InvariantViolation,
    ParameterError,
    SearchError,
    SolverError,
    SpinBosonError,
)
from .fockspace import (BasisSet, PerModeCap, TotalQuantaCap, d_matrix, default_policy,
                        enumerate_basis, l_matrix)
from .hamiltonian import Branch, ModelParams, assemble_branch, degenerate_energy_set
from .parity import critical_alpha, closure_report, d_square_audit
from .spectra import DEFAULT_MAX_ITER, solve_branches, theorem_report

__all__ = ["RunConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_SOLVER = 3
EXIT_SEARCH = 4


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class RunConfig:
    delta: float
    omega_c: float
    s: float
    alpha: float
    modes: tuple | None
    n_modes: int
    lambda_disc: float
    policy: str | None
    cap: int
    tol: float
    max_iter: int
    k_levels: int
    epsilon: float
    m_ref: object
    sweep: dict | None
    output: dict | None

    def echo(self, bath: BathModel | None = None) -> dict:
        """The configuration as run.  ``bath`` is the bath the command built,
        if it built one: its mode count and discretization ratio (null for
        explicit ``model.modes``) are echoed under ``disc``."""
        if bath is None:
            disc = {"n_modes": self.n_modes, "lambda_disc": self.lambda_disc}
        else:
            disc = {"n_modes": bath.n_modes, "lambda_disc": bath.lambda_disc}
        out = {
            "model": {
                "delta": self.delta,
                "omega_c": self.omega_c,
                "s": self.s,
                "alpha": self.alpha,
            },
            "disc": disc,
            "trunc": {"policy": self.policy, "cap": self.cap},
            "solver": {
                "tol": self.tol,
                "max_iter": self.max_iter,
                "k_levels": self.k_levels,
            },
            "parity": {"epsilon": self.epsilon, "m_ref": self.m_ref},
        }
        if self.modes is not None:
            out["model"]["modes"] = [[m, l] for m, l in self.modes]
        if self.sweep is not None:
            out["sweep"] = dict(self.sweep)
        if self.output is not None:
            out["output"] = dict(self.output)
        return out


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key {key!r} in configuration")
        out[key] = value
    return out


def _require_number(section, key, value, low=None, low_strict=None):
    name = f"{section}.{key}" if section else key
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f'field "{name}": expected a number, got {value!r}')
    value = float(value)
    if not math.isfinite(value) and not (key == "lambda_disc" and value == math.inf):
        raise ConfigError(f'field "{name}": must be finite, got {value!r}')
    if low is not None and value < low:
        raise ConfigError(f'field "{name}": must satisfy {key} >= {low}, got {value!r}')
    if low_strict is not None and value <= low_strict:
        raise ConfigError(f'field "{name}": must satisfy {key} > {low_strict}, got {value!r}')
    return value


def _require_int(section, key, value, low):
    name = f"{section}.{key}" if section else key
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f'field "{name}": expected an integer, got {value!r}')
    if value < low:
        raise ConfigError(f'field "{name}": must satisfy {key} >= {low}, got {value!r}')
    return value


def _check_keys(section, mapping, allowed):
    unknown = set(mapping) - set(allowed)
    if unknown:
        where = f" in section {section!r}" if section else ""
        raise ConfigError(f"unknown key {sorted(unknown)[0]!r}{where}")


def parse_config(raw: dict) -> RunConfig:
    """Validate a decoded configuration object and apply defaults."""
    if not isinstance(raw, dict):
        raise ConfigError("top-level configuration must be a JSON object")
    raw = dict(raw)
    model = dict(raw.pop("model", {}))
    # Top-level shorthand for the model block.
    for key in ("delta", "omega_c", "s", "alpha", "modes"):
        if key in raw:
            if key in model:
                raise ConfigError(f"key {key!r} given both at top level and under model")
            model[key] = raw.pop(key)
    disc = dict(raw.pop("disc", {}))
    trunc = dict(raw.pop("trunc", {}))
    solver = dict(raw.pop("solver", {}))
    parity = dict(raw.pop("parity", {}))
    sweep = raw.pop("sweep", None)
    output = raw.pop("output", None)
    _check_keys(None, raw, ())

    _check_keys("model", model, ("delta", "omega_c", "s", "alpha", "modes"))
    for key in ("delta", "omega_c", "s", "alpha"):
        if key not in model:
            raise ConfigError(f'field "model.{key}" is required')
    delta = _require_number("model", "delta", model["delta"], low=0.0)
    omega_c = _require_number("model", "omega_c", model["omega_c"], low_strict=0.0)
    s = _require_number("model", "s", model["s"], low_strict=0.0)
    alpha = _require_number("model", "alpha", model["alpha"], low=0.0)
    modes = None
    if model.get("modes") is not None:
        entries = model["modes"]
        if not isinstance(entries, list) or not entries:
            raise ConfigError('field "model.modes": expected a non-empty list of [omega, lam] pairs')
        parsed = []
        for i, pair in enumerate(entries):
            if not isinstance(pair, list) or len(pair) != 2:
                raise ConfigError(f'field "model.modes[{i}]": expected [omega, lam]')
            parsed.append((
                _require_number("model", f"modes[{i}].omega", pair[0], low_strict=0.0),
                _require_number("model", f"modes[{i}].lam", pair[1], low=0.0),
            ))
        modes = tuple(parsed)

    _check_keys("disc", disc, ("n_modes", "lambda_disc"))
    n_modes = _require_int("disc", "n_modes", disc.get("n_modes", 30), low=1)
    lambda_disc = _require_number("disc", "lambda_disc", disc.get("lambda_disc", 2.0), low_strict=1.0)

    _check_keys("trunc", trunc, ("policy", "cap"))
    policy = trunc.get("policy")
    if policy is not None and policy not in ("per-mode", "total-quanta"):
        raise ConfigError(
            f'field "trunc.policy": must be "per-mode" or "total-quanta", got {policy!r}'
        )
    cap = _require_int("trunc", "cap", trunc.get("cap", 20), low=0)

    _check_keys("solver", solver, ("tol", "max_iter", "k_levels"))
    tol = _require_number("solver", "tol", solver.get("tol", 1e-10), low_strict=0.0)
    max_iter = _require_int("solver", "max_iter", solver.get("max_iter", DEFAULT_MAX_ITER), low=1)
    k_levels = _require_int("solver", "k_levels", solver.get("k_levels", 1), low=1)

    _check_keys("parity", parity, ("epsilon", "m_ref"))
    epsilon = _require_number("parity", "epsilon", parity.get("epsilon", 0.01), low_strict=0.0)
    if epsilon >= 1.0:
        raise ConfigError(f'field "parity.epsilon": must satisfy epsilon < 1, got {epsilon!r}')
    m_ref = parity.get("m_ref", 0)
    if isinstance(m_ref, bool) or not isinstance(m_ref, (int, list)):
        raise ConfigError('field "parity.m_ref": expected an integer or a list of integers')
    if isinstance(m_ref, list):
        for i, v in enumerate(m_ref):
            _require_int("parity", f"m_ref[{i}]", v, low=0)
    else:
        _require_int("parity", "m_ref", m_ref, low=0)

    if sweep is not None:
        if not isinstance(sweep, dict):
            raise ConfigError('field "sweep": expected an object')
        _check_keys("sweep", sweep, ("variable", "from", "to", "steps"))
        for key in ("variable", "from", "to", "steps"):
            if key not in sweep:
                raise ConfigError(f'field "sweep.{key}" is required when sweep is given')
        if sweep["variable"] != "s":
            raise ConfigError(
                f'field "sweep.variable": only "s" sweeps are supported, got {sweep["variable"]!r}'
            )
        lo = _require_number("sweep", "from", sweep["from"], low_strict=0.0)
        hi = _require_number("sweep", "to", sweep["to"], low_strict=0.0)
        _require_int("sweep", "steps", sweep["steps"], low=1)
        if hi < lo:
            raise ConfigError('field "sweep.to": must satisfy to >= from')

    if output is not None:
        if not isinstance(output, dict):
            raise ConfigError('field "output": expected an object')
        _check_keys("output", output, ("path",))
        path = output.get("path")
        if path is not None and (not isinstance(path, str) or not path):
            raise ConfigError(f'field "output.path": expected a non-empty string, got {path!r}')

    return RunConfig(
        delta=delta, omega_c=omega_c, s=s, alpha=alpha, modes=modes,
        n_modes=n_modes, lambda_disc=lambda_disc, policy=policy, cap=cap,
        tol=tol, max_iter=max_iter, k_levels=k_levels,
        epsilon=epsilon, m_ref=m_ref, sweep=sweep, output=output,
    )


def load_config(path) -> RunConfig:
    """Read and validate a JSON configuration file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    try:
        raw = json.loads(text, object_pairs_hook=_reject_duplicates)
    except json.JSONDecodeError as exc:
        raise ConfigError(
            f"parse error at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return parse_config(raw)


def build_bath(cfg: RunConfig) -> BathModel:
    law = SpectralLaw(cfg.alpha, cfg.s, cfg.omega_c)
    if cfg.modes is not None:
        return bath_from_modes(cfg.modes, law=law)
    return discretize_bath(law, cfg.n_modes, cfg.lambda_disc)


def build_basis(cfg: RunConfig, bath: BathModel) -> BasisSet:
    if cfg.policy == "per-mode":
        policy = PerModeCap(cfg.cap)
    elif cfg.policy == "total-quanta":
        policy = TotalQuantaCap(cfg.cap)
    else:
        policy = default_policy(bath.n_modes, cfg.cap)
    try:
        return enumerate_basis(bath.n_modes, policy)
    except CapacityError as exc:
        raise CapacityError(
            f"{exc} ({bath.n_modes} modes, {policy.kind} cap {policy.cap}); lower "
            f"disc.n_modes (or list fewer model.modes) or trunc.cap, or set "
            f'trunc.policy to "total-quanta", which keeps comb(cap + n_modes, n_modes) '
            f"states instead of (cap + 1)**n_modes"
        ) from None


def _reject_explicit_modes(cfg: RunConfig, command: str) -> None:
    """``command`` builds its baths from the spectral law, so explicit modes
    would be silently ignored; refuse them instead."""
    if cfg.modes is not None:
        raise ConfigError(
            f'{command} discretizes disc.n_modes modes from the spectral law; '
            f'field "model.modes" is not accepted'
        )


def resolve_m_ref(cfg: RunConfig, n_modes: int) -> tuple[int, ...]:
    """Integer shorthand k puts k quanta on the highest-frequency mode."""
    if isinstance(cfg.m_ref, int):
        return (cfg.m_ref,) + (0,) * (n_modes - 1)
    vec = tuple(int(v) for v in cfg.m_ref)
    if len(vec) != n_modes:
        raise ConfigError(
            f'field "parity.m_ref": length {len(vec)} does not match {n_modes} modes'
        )
    return vec


# ---------------------------------------------------------------------------
# Deterministic serialization
# ---------------------------------------------------------------------------

def format_float(x: float) -> str:
    """17-significant-digit decimal form; exact round-trip for doubles."""
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    if x == 0.0:
        return "0"  # fold -0.0, whose sign a JSON round-trip would drop
    return format(float(x), ".17g")


def _json_fragment(value, parts):
    if value is None:
        parts.append("null")
    elif isinstance(value, bool):
        parts.append("true" if value else "false")
    elif isinstance(value, (int, np.integer)):
        parts.append(str(int(value)))
    elif isinstance(value, (float, np.floating)):
        value = float(value)
        if math.isfinite(value):
            parts.append(format_float(value))
        else:
            parts.append(json.dumps(format_float(value)))
    elif isinstance(value, str):
        parts.append(json.dumps(value))
    elif isinstance(value, (list, tuple, np.ndarray)):
        parts.append("[")
        for i, item in enumerate(value):
            if i:
                parts.append(", ")
            _json_fragment(item, parts)
        parts.append("]")
    elif isinstance(value, dict):
        parts.append("{")
        for i, (key, item) in enumerate(value.items()):
            if i:
                parts.append(", ")
            parts.append(json.dumps(str(key)))
            parts.append(": ")
            _json_fragment(item, parts)
        parts.append("}")
    else:
        raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(obj) -> str:
    """Deterministic JSON with 17-significant-digit floats, LF-terminated."""
    parts = []
    _json_fragment(obj, parts)
    parts.append("\n")
    return "".join(parts)


def _versions() -> dict:
    return {"sbparity": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _emit(text: str, out_path) -> None:
    if out_path:
        try:
            Path(out_path).write_text(text)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path}: {exc}") from exc
    else:
        sys.stdout.write(text)


def _emit_error(exc: Exception) -> None:
    payload = {"error": {"type": type(exc).__name__, "message": str(exc)}}
    sys.stdout.write(dumps(payload))


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _triplet_csv(header, matrix: np.ndarray) -> str:
    rows = []
    for i, row in enumerate(matrix):
        for j in range(i + 1):
            rows.append((i, j, format_float(row[j])))
    return _csv_text(header, rows)


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

def run_theorem(cfg: RunConfig, out_path=None) -> int:
    bath = build_bath(cfg)
    basis = build_basis(cfg, bath)
    params = ModelParams(delta=cfg.delta, bath=bath, basis=basis)
    try:
        report = theorem_report(params, tol=cfg.tol, max_iter=cfg.max_iter)
    except InvariantViolation as exc:
        payload = getattr(exc, "report", None)
        if payload is None:
            raise  # no report to attach: the plain error JSON from main
        body = payload.as_dict()
        body["invariant_violation"] = str(exc)
        body["config"] = cfg.echo(bath)
        body["versions"] = _versions()
        _emit(dumps(body), out_path)
        return EXIT_INVARIANT
    body = report.as_dict()
    body["config"] = cfg.echo(bath)
    body["versions"] = _versions()
    _emit(dumps(body), out_path)
    return EXIT_OK


def run_spectrum(cfg: RunConfig, out_path=None, dump_matrix=None) -> int:
    bath = build_bath(cfg)
    basis = build_basis(cfg, bath)
    params = ModelParams(delta=cfg.delta, bath=bath, basis=basis)
    if dump_matrix:
        table = d_matrix(basis, bath)
        for name, branch in (("plus", Branch.EVEN), ("minus", Branch.ODD)):
            h = assemble_branch(params, branch, table)
            _emit(_triplet_csv(("i", "j", "value"), h), f"{dump_matrix}_h{name}.csv")
    k = min(cfg.k_levels, basis.dim)
    _, res_plus, res_minus = solve_branches(params, k, k, cfg.tol, cfg.max_iter)
    branches = {
        name: {
            "values": list(res.values),
            "vectors": [list(res.vectors[:, i]) for i in range(res.vectors.shape[1])],
            "residual": res.residual,
        }
        for name, res in (("plus", res_plus), ("minus", res_minus))
    }
    body = {
        "plus": branches["plus"],
        "minus": branches["minus"],
        "degenerate_energy_set": list(degenerate_energy_set(basis, bath)[:k]),
        "config": cfg.echo(bath),
        "versions": _versions(),
    }
    _emit(dumps(body), out_path)
    return EXIT_OK


def run_parity_audit(cfg: RunConfig, out_path=None, dump_tables=None) -> int:
    bath = build_bath(cfg)
    basis = build_basis(cfg, bath)
    if dump_tables:
        table = d_matrix(basis, bath)
        _emit(_triplet_csv(("row", "col", "value"), l_matrix(basis, bath)), f"{dump_tables}_l.csv")
        _emit(_triplet_csv(("row", "col", "value"), table), f"{dump_tables}_d.csv")
    audit = d_square_audit(basis, bath)
    body = audit.as_dict()
    body["config"] = cfg.echo(bath)
    body["versions"] = _versions()
    _emit(dumps(body), out_path)
    return EXIT_OK


def run_alpha_c(cfg: RunConfig, out_path=None) -> int:
    _reject_explicit_modes(cfg, "alpha-c")
    m_ref = resolve_m_ref(cfg, cfg.n_modes)
    point = critical_alpha(
        bath_ladder(cfg.s, cfg.omega_c, cfg.n_modes, cfg.lambda_disc), cfg.cap,
        epsilon=cfg.epsilon, m_ref=m_ref, policy=cfg.policy or "per-mode",
    )
    body = point.as_dict()
    body["config"] = cfg.echo()
    body["versions"] = _versions()
    _emit(dumps(body), out_path)
    return EXIT_OK


def run_closure(cfg: RunConfig, out_path=None) -> int:
    _reject_explicit_modes(cfg, "closure")
    if cfg.policy == "total-quanta":
        raise ConfigError(
            'closure counts the per-mode bare basis; field "trunc.policy" '
            '"total-quanta" is not accepted'
        )
    report = closure_report(cfg.n_modes, cfg.cap)
    body = report.as_dict()
    body["config"] = cfg.echo()
    body["versions"] = _versions()
    _emit(dumps(body), out_path)
    return EXIT_OK


def load_reference_curve(path):
    """Read a reference curve CSV with columns s,alpha_c,label (one label)."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read reference curve {path}: {exc}") from exc
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise ConfigError(f"reference curve {path} is empty") from None
    if [h.strip() for h in header] != ["s", "alpha_c", "label"]:
        raise ConfigError(
            f"reference curve {path} must have header s,alpha_c,label"
        )
    s_vals, a_vals, labels = [], [], set()
    for lineno, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 3:
            raise ConfigError(f"reference curve {path}:{lineno}: expected 3 columns")
        try:
            s_vals.append(float(row[0]))
            a_vals.append(float(row[1]))
        except ValueError as exc:
            raise ConfigError(f"reference curve {path}:{lineno}: {exc}") from exc
        labels.add(row[2])
    if not s_vals:
        raise ConfigError(f"reference curve {path} has no data rows")
    if len(labels) != 1:
        raise ConfigError(
            f"reference curve {path} must carry exactly one label, got {sorted(labels)}"
        )
    if any(not math.isfinite(v) for v in s_vals + a_vals):
        raise ConfigError(f"reference curve {path} contains non-finite values")
    if any(b <= a for a, b in zip(s_vals, s_vals[1:])):
        raise ConfigError(f"reference curve {path}: s must be strictly increasing")
    return labels.pop(), np.array(s_vals), np.array(a_vals)


def _format_m_ref(m_ref) -> str:
    if isinstance(m_ref, int):
        return str(m_ref)
    return ";".join(str(int(v)) for v in m_ref)


def run_phase_diagram(cfg: RunConfig, out_path=None, reference=None) -> int:
    _reject_explicit_modes(cfg, "phase-diagram")
    if cfg.sweep is None:
        raise ConfigError("phase-diagram requires a sweep section with variable \"s\"")
    lo, hi, steps = float(cfg.sweep["from"]), float(cfg.sweep["to"]), int(cfg.sweep["steps"])
    if not (0.0 < lo and hi <= 1.2):
        raise ConfigError('field "sweep": the s range must lie within (0, 1.2]')
    if steps == 1:
        points = [lo]
    else:
        # Pin the endpoint exactly so it is not lost to accumulated rounding.
        points = [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]
    m_ref = resolve_m_ref(cfg, cfg.n_modes)
    m_ref_text = _format_m_ref(cfg.m_ref)

    def solve(s_val):
        ladder = bath_ladder(s_val, cfg.omega_c, cfg.n_modes, cfg.lambda_disc)
        try:
            pt = critical_alpha(
                ladder, cfg.cap, epsilon=cfg.epsilon, m_ref=m_ref,
                policy=cfg.policy or "per-mode",
            )
            return pt.alpha_c, pt.beta, pt.o_value
        except SearchError:
            return math.nan, ladder.at(1.0).beta, math.nan

    solved = [solve(s_val) for s_val in points]

    ref_interp = None
    if reference is not None:
        _, ref_s, ref_a = load_reference_curve(reference)
        ref_interp = np.interp(points, ref_s, ref_a, left=math.nan, right=math.nan)

    header = ["s", "alpha_c", "epsilon", "n_tr", "n_modes", "lambda_disc",
              "beta", "o_value", "m_ref"]
    if ref_interp is not None:
        header.append("alpha_c_ref")
    rows = []
    failed = False
    for i, (s_val, (alpha_c, beta, o_value)) in enumerate(zip(points, solved)):
        if math.isnan(alpha_c):
            failed = True
        row = [
            format_float(s_val),
            format_float(alpha_c),
            format_float(cfg.epsilon),
            cfg.cap,
            cfg.n_modes,
            format_float(cfg.lambda_disc),
            format_float(beta),
            format_float(o_value),
            m_ref_text,
        ]
        if ref_interp is not None:
            row.append(format_float(float(ref_interp[i])))
        rows.append(row)
    _emit(_csv_text(header, rows), out_path)
    return EXIT_SEARCH if failed else EXIT_OK


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap onto the config exit code.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


def _build_parser() -> _Parser:
    parser = _Parser(prog="sbparity", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, **extra_flags):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
        return p

    add("theorem", "ground-state verdict for one parameter point")
    add("spectrum", "lowest eigenpairs of both parity branches",
        **{"--dump-matrix": dict(default=None, metavar="PREFIX",
                                 help="also dump branch matrices as CSV triplets")})
    add("parity-audit", "squared-parity audit over the truncated basis",
        **{"--dump-tables": dict(default=None, metavar="PREFIX",
                                 help="also dump L and D tables as CSV triplets")})
    add("alpha-c", "critical dissipation at the configured point",
        **{"--epsilon": dict(default=None, type=float,
                             help="override parity.epsilon from the config")})
    add("closure", "bare-basis closure counting for (n_modes, cap)")
    add("phase-diagram", "critical dissipation vs s sweep (CSV)",
        **{"--reference": dict(default=None, metavar="CSV",
                               help="reference curve to interpolate as an extra column"),
           "--epsilon": dict(default=None, type=float,
                             help="override parity.epsilon from the config")})
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        epsilon = getattr(args, "epsilon", None)
        if epsilon is not None:
            if not 0.0 < epsilon < 1.0:
                raise ConfigError(f'flag "--epsilon": must lie in (0, 1), got {epsilon!r}')
            cfg = dataclasses.replace(cfg, epsilon=float(epsilon))
        out_path = args.out or ((cfg.output or {}).get("path"))
        if args.command == "theorem":
            return run_theorem(cfg, out_path)
        if args.command == "spectrum":
            return run_spectrum(cfg, out_path, dump_matrix=args.dump_matrix)
        if args.command == "parity-audit":
            return run_parity_audit(cfg, out_path, dump_tables=args.dump_tables)
        if args.command == "alpha-c":
            return run_alpha_c(cfg, out_path)
        if args.command == "closure":
            return run_closure(cfg, out_path)
        if args.command == "phase-diagram":
            return run_phase_diagram(cfg, out_path, reference=args.reference)
        raise ConfigError(f"unknown command {args.command!r}")
    except (ConfigError, ParameterError, CapacityError) as exc:
        _emit_error(exc)
        return EXIT_CONFIG
    except InvariantViolation as exc:
        _emit_error(exc)
        return EXIT_INVARIANT
    except (SolverError, ConvergenceError) as exc:
        _emit_error(exc)
        return EXIT_SOLVER
    except SearchError as exc:
        _emit_error(exc)
        return EXIT_SEARCH


if __name__ == "__main__":
    sys.exit(main())
