"""Command-line interface: configuration, sweeps, and bit-stable output.

A subcommand is its ``COMMANDS`` entry (runner, help text, extra flags) and
its ``run_*`` runner; ``main`` writes the report of every one and maps errors
onto the ``EXIT_*`` codes.  The configuration is one JSON object checked
against ``CONFIG_SCHEMA``, which gives every key its bounds and default.
Each input has one home, so none can be given twice: every parameter is a
configuration key, the output path is ``--out`` and the other flags name
extra files to read or write.
``alpha-c`` and ``phase-diagram`` enumerate no basis: under "total-quanta"
they sum the deficiency by a truncated convolution over the modes, and
refuse with exit 1 a sum needing more than ``parity.MAX_CONVOLUTION_WORK``
multiply-adds.

Every float is printed with 17 significant digits, so emitted values
round-trip exactly and repeated runs of one build and config give identical
bytes; CSV files have a header row and LF line endings.  README.md is the
reference for users: the subcommands, the configuration and which commands
accept which keys, the JSON and CSV formats, and the exit codes.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import io
import json
import math
import operator
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .bath import BathModel, SpectralLaw, bath_from_modes, bath_ladder, discretize_bath
from .errors import (
    CapacityError,
    ConfigError,
    InvariantViolation,
    ParameterError,
    SearchError,
    SolverError,
)
from .fockspace import BasisSet, default_policy, enumerate_basis, l_matrix
from .hamiltonian import ModelParams, degenerate_energy_set
from .parity import closure_report, critical_alpha, critical_alphas, d_square_audit
from .spectra import DEFAULT_MAX_ITER, solve_branches, theorem_report

__all__ = ["RunConfig", "load_config", "main"]

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_INVARIANT = 2
EXIT_SOLVER = 3
EXIT_SEARCH = 4

# Each error class main reports, as its error JSON on stdout, and the exit code
# it ends the run with.  Any other exception propagates.
EXIT_CODES = {ConfigError: EXIT_CONFIG, ParameterError: EXIT_CONFIG, CapacityError: EXIT_CONFIG,
              InvariantViolation: EXIT_INVARIANT, SolverError: EXIT_SOLVER,
              SearchError: EXIT_SEARCH}

# Most points a phase-diagram sweep takes.  All are binned before the first
# search, each ~2.2 KB at 30 modes, and each takes 1-1.5 ms of search there at
# cap 20 (2-vCPU x86 host), so 1e5 points are ~0.2 GB and ~2 min.
MAX_SWEEP_STEPS = 100_000


# ---------------------------------------------------------------------------
# Configuration
# ---------------------------------------------------------------------------

def _check(name, value, kind, bounds):
    """``value`` of the field ``name`` as parsed, if it is of ``kind`` ("int",
    "number", which is finite, or "number or inf") and satisfies ``bounds``,
    (op, limit) pairs tested in order, op one of ">=", ">", "<" and "<=".  A
    function ``kind`` checks a key of its own form."""
    if callable(kind):
        return kind(name, value, bounds)
    if isinstance(value, bool) or not isinstance(value, int if kind == "int" else (int, float)):
        expected = "an integer" if kind == "int" else "a number"
        raise ConfigError(f'field "{name}": expected {expected}, got {value!r}')
    if kind != "int":
        try:
            value = float(value)
        except OverflowError:  # an integer past the double range, read as 1e400 is
            value = math.inf if value > 0 else -math.inf
        if not math.isfinite(value) and not (kind == "number or inf" and value == math.inf):
            raise ConfigError(f'field "{name}": must be finite, got {value!r}')
    for op, limit in bounds:
        if not _OPS[op](value, limit):
            key = name.split(".", 1)[1]
            raise ConfigError(f'field "{name}": must satisfy {key} {op} {limit}, got {value!r}')
    return value


_OPS = {">=": operator.ge, ">": operator.gt, "<": operator.lt, "<=": operator.le}


def _modes(name, value, bounds):
    if value is None:
        return None
    if not isinstance(value, list) or not value:
        raise ConfigError(f'field "{name}": expected a non-empty list of [omega, lam] pairs')
    pairs = []
    for i, pair in enumerate(value):
        if not isinstance(pair, list) or len(pair) != 2:
            raise ConfigError(f'field "{name}[{i}]": expected [omega, lam]')
        pairs.append((_check(f"{name}[{i}].omega", pair[0], "number", ((">", 0.0),)),
                      _check(f"{name}[{i}].lam", pair[1], "number", ((">=", 0.0),))))
    return tuple(pairs)


def _m_ref(name, value, bounds):
    if isinstance(value, bool) or not isinstance(value, (int, list)):
        raise ConfigError(f'field "{name}": expected an integer or a list of integers')
    if isinstance(value, int):
        return _check(name, value, "int", bounds)
    for i, v in enumerate(value):
        _check(f"{name}[{i}]", v, "int", bounds)
    return value


def _policy(name, value, bounds):
    if value not in (None, "per-mode", "total-quanta"):
        raise ConfigError(f'field "{name}": must be "per-mode" or "total-quanta", got {value!r}')
    return value


def _sweep_variable(name, value, bounds):
    if value != "s":
        raise ConfigError(f'field "{name}": only "s" sweeps are supported, got {value!r}')
    return value


# Every configuration key, named once: section -> key -> (kind, bounds,
# required, default), in the order of the RunConfig fields and the config
# echo.  ``bounds`` holds every (op, limit) pair the key must satisfy, so a
# key's lower and upper bounds are both here.  The optional section "sweep" is
# checked when given, then kept and echoed as given.
CONFIG_SCHEMA = {
    "model": {"delta": ("number", ((">=", 0.0),), True, None),
              "omega_c": ("number", ((">", 0.0),), True, None),
              "s": ("number", ((">", 0.0),), True, None),
              "alpha": ("number", ((">=", 0.0),), True, None),
              "modes": (_modes, (), False, None)},
    "disc": {"n_modes": ("int", ((">=", 1),), False, 30),
             "lambda_disc": ("number or inf", ((">", 1.0),), False, 2.0)},
    "trunc": {"policy": (_policy, (), False, None),
              "cap": ("int", ((">=", 0),), False, 20)},
    "solver": {"tol": ("number", ((">", 0.0),), False, 1e-10),
               "max_iter": ("int", ((">=", 1),), False, DEFAULT_MAX_ITER),
               "k_levels": ("int", ((">=", 1),), False, 1)},
    "parity": {"epsilon": ("number", ((">", 0.0), ("<", 1)), False, 0.01),
               "m_ref": (_m_ref, ((">=", 0),), False, 0)},
    "sweep": {"variable": (_sweep_variable, (), True, None),
              "from": ("number", ((">", 0.0),), True, None),
              "to": ("number", ((">", 0.0),), True, None),
              "steps": ("int", ((">=", 1), ("<=", MAX_SWEEP_STEPS)), True, None)},
}
_OPTIONAL_SECTIONS = ("sweep",)


def _echo(cfg) -> dict:
    """The configuration as run.  Explicit ``model.modes`` are the modes
    used, so ``disc`` then echoes their count and a null ratio."""
    out = {}
    for section, rows in CONFIG_SCHEMA.items():
        if section not in _OPTIONAL_SECTIONS:
            out[section] = {key: getattr(cfg, key) for key in rows}
        elif getattr(cfg, section) is not None:
            out[section] = dict(getattr(cfg, section))
    if cfg.modes is None:
        del out["model"]["modes"]
    else:
        out["disc"] = {"n_modes": len(cfg.modes), "lambda_disc": None}
    return out


RunConfig = dataclasses.make_dataclass(
    "RunConfig", [key for section, rows in CONFIG_SCHEMA.items() for key in rows
                  if section not in _OPTIONAL_SECTIONS] + list(_OPTIONAL_SECTIONS),
    frozen=True, namespace={"echo": _echo, "__module__": __name__})


def _reject_duplicates(pairs):
    out = {}
    for key, value in pairs:
        if key in out:
            raise ConfigError(f"duplicate key {key!r} in configuration")
        out[key] = value
    return out


def _object(section, value):
    if value is not None and not isinstance(value, dict):
        raise ConfigError(f'field "{section}": expected an object')
    return value or {}


def parse_config(raw: dict) -> RunConfig:
    """Check a decoded configuration against CONFIG_SCHEMA and apply its
    defaults.  Of several errors the first found is raised: an unknown
    top-level key, then section by section the unknown keys, the missing ones
    and each key in order."""
    if not isinstance(raw, dict):
        raise ConfigError("top-level configuration must be a JSON object")
    raw = dict(raw)
    given = {section: raw.pop(section, None) for section in CONFIG_SCHEMA}
    if raw:
        raise ConfigError(f"unknown key {sorted(raw)[0]!r}")
    fields = dict.fromkeys(_OPTIONAL_SECTIONS)
    for section, rows in CONFIG_SCHEMA.items():
        if section in _OPTIONAL_SECTIONS and given[section] is None:
            continue
        values = _object(section, given[section])
        unknown = sorted(set(values) - set(rows))
        if unknown:
            raise ConfigError(f"unknown key {unknown[0]!r} in section {section!r}")
        for key, (_, _, required, _) in rows.items():
            if required and key not in values:
                when = " when sweep is given" if section == "sweep" else ""
                raise ConfigError(f'field "{section}.{key}" is required{when}')
        checked = {key: _check(f"{section}.{key}", values.get(key, default), kind, bounds)
                   for key, (kind, bounds, _, default) in rows.items()}
        if section == "sweep" and checked["to"] < checked["from"]:
            raise ConfigError('field "sweep.to": must satisfy to >= from')
        fields.update({section: values} if section in _OPTIONAL_SECTIONS else checked)
    return RunConfig(**fields)


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
    except ValueError as exc:  # an integer literal past Python's digit limit
        raise ConfigError(f"parse error: {exc}") from exc
    return parse_config(raw)


def build_bath(cfg: RunConfig) -> BathModel:
    law = SpectralLaw(cfg.alpha, cfg.s, cfg.omega_c)
    if cfg.modes is not None:
        return bath_from_modes(cfg.modes, law=law)
    return discretize_bath(law, cfg.n_modes, cfg.lambda_disc)


def build_basis(cfg: RunConfig, bath: BathModel) -> BasisSet:
    policy = cfg.policy or default_policy(bath.n_modes)
    try:
        return enumerate_basis(bath.n_modes, cfg.cap, policy)
    except CapacityError as exc:
        advice = ('; trunc.policy "total-quanta" already keeps the fewer states'
                  if policy == "total-quanta" else
                  ', or set trunc.policy to "total-quanta", which keeps '
                  "comb(cap + n_modes, n_modes) states instead of (cap + 1)**n_modes")
        raise CapacityError(
            f"{exc} ({bath.n_modes} modes, {policy} cap {cfg.cap}); lower "
            f"disc.n_modes (or list fewer model.modes) or trunc.cap{advice}"
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
    """Integer shorthand k puts k quanta on mode 0, the highest-frequency
    mode.  Below s = 1 that mode has the smallest displacement q, so an
    integer m_ref rarely moves alpha_c; a list can excite any mode."""
    if isinstance(cfg.m_ref, int):
        return (cfg.m_ref,) + (0,) * (n_modes - 1)
    vec = tuple(cfg.m_ref)
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
    elif isinstance(value, np.ndarray) and value.dtype.kind == "f" and value.ndim:
        if value.ndim > 1:
            _json_fragment(list(value), parts)  # row by row
        elif np.isfinite(value).all() and not (np.signbit(value) & (value == 0.0)).any():
            # No entry whose ".17g" text format_float changes: one % pass.
            parts.append("[%s]" % ", ".join(["%.17g"] * len(value)) % tuple(value.tolist()))
        else:
            _json_fragment(value.tolist(), parts)
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
    # scipy is imported here, for its version: phase-diagram prints no stamp
    # and loads no scipy at all.
    import scipy

    return {"sbparity": __version__, "numpy": np.__version__, "scipy": scipy.__version__}


def _emit(chunks, out_path) -> None:
    """Write the text ``chunks`` to ``out_path``, or to stdout, as they come."""
    if out_path:
        try:
            with open(out_path, "w") as out:
                out.writelines(chunks)
        except OSError as exc:
            raise ConfigError(f"cannot write output {out_path}: {exc}") from exc
    else:
        sys.stdout.writelines(chunks)


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    return buf.getvalue()


def _triplet_csv(header, matrix: np.ndarray):
    """The lower triangle of ``matrix`` as CSV (row, column, value) lines, one
    chunk per matrix row, so a dump is written as it is formed."""
    yield ",".join(header) + "\n"
    for i, row in enumerate(matrix):
        yield "".join([f"{i},{j},{format_float(value)}\n"
                       for j, value in enumerate(row[: i + 1].tolist())])


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------
#
# A runner takes (cfg, args) and returns (exit code, body).  The body is a
# dict for a JSON report, which main ends with the config echo and the
# versions stamp, or the CSV text of phase-diagram.

def _fields(result) -> dict:
    """A result dataclass as its fields, in declaration order."""
    return {field.name: getattr(result, field.name) for field in dataclasses.fields(result)}


def _model_params(cfg: RunConfig) -> ModelParams:
    bath = build_bath(cfg)
    return ModelParams(delta=cfg.delta, bath=bath, basis=build_basis(cfg, bath))


def run_theorem(cfg: RunConfig, args):
    params = _model_params(cfg)
    try:
        report = theorem_report(params, tol=cfg.tol, max_iter=cfg.max_iter)
    except InvariantViolation as exc:
        if exc.report is None:
            raise  # no report to attach: the plain error JSON from main
        body = {**_fields(exc.report), "invariant_violation": str(exc)}
        return EXIT_INVARIANT, body
    return EXIT_OK, _fields(report)


def run_spectrum(cfg: RunConfig, args):
    params = _model_params(cfg)
    if args.dump_matrix:
        for name, branch in zip(("plus", "minus"), params.branches):
            _emit(_triplet_csv(("i", "j", "value"), branch.dense()),
                  f"{args.dump_matrix}_h{name}.csv")
    k = min(cfg.k_levels, params.basis.dim)
    _, res_plus, res_minus = solve_branches(params, k, cfg.tol, cfg.max_iter)
    body = {
        name: {"values": res.values, "vectors": res.vectors.T, "residual": res.residual}
        for name, res in (("plus", res_plus), ("minus", res_minus))
    }
    body["degenerate_energy_set"] = degenerate_energy_set(params)[:k]
    return EXIT_OK, body


def run_parity_audit(cfg: RunConfig, args):
    params = _model_params(cfg)
    basis, bath = params.basis, params.bath
    if args.dump_tables:
        table = params.parity.dense()
        _emit(_triplet_csv(("row", "col", "value"), l_matrix(basis, bath)),
              f"{args.dump_tables}_l.csv")
        _emit(_triplet_csv(("row", "col", "value"), table), f"{args.dump_tables}_d.csv")
    return EXIT_OK, _fields(d_square_audit(basis, bath))


def run_alpha_c(cfg: RunConfig, args):
    _reject_explicit_modes(cfg, "alpha-c")
    m_ref = resolve_m_ref(cfg, cfg.n_modes)
    point = critical_alpha(
        bath_ladder(cfg.s, cfg.omega_c, cfg.n_modes, cfg.lambda_disc), cfg.cap,
        epsilon=cfg.epsilon, m_ref=m_ref, policy=cfg.policy or "per-mode",
    )
    return EXIT_OK, _fields(point)


def run_closure(cfg: RunConfig, args):
    _reject_explicit_modes(cfg, "closure")
    if cfg.policy == "total-quanta":
        raise ConfigError(
            'closure counts the per-mode bare basis; field "trunc.policy" '
            '"total-quanta" is not accepted'
        )
    try:
        report = closure_report(cfg.n_modes, cfg.cap)
    except ParameterError as exc:
        raise ConfigError(f'fields "disc.n_modes" and "trunc.cap": {exc}') from None
    ratio = report.ratio
    body = {**_fields(report), "ratio": f"{ratio.numerator}/{ratio.denominator}",
            "ratio_value": report.ratio_value, "conclusion": report.conclusion}
    return EXIT_OK, body


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


def run_phase_diagram(cfg: RunConfig, args):
    _reject_explicit_modes(cfg, "phase-diagram")
    if cfg.sweep is None:
        raise ConfigError("phase-diagram requires a sweep section with variable \"s\"")
    lo, hi, steps = float(cfg.sweep["from"]), float(cfg.sweep["to"]), int(cfg.sweep["steps"])
    if hi > 1.2:
        raise ConfigError('field "sweep": the s range must lie within (0, 1.2]')
    if steps == 1:
        points = [lo]
    else:
        # Pin the endpoint exactly so it is not lost to accumulated rounding.
        points = [lo + i * (hi - lo) / (steps - 1) for i in range(steps - 1)] + [hi]
    m_ref = resolve_m_ref(cfg, cfg.n_modes)
    m_ref_text = str(cfg.m_ref) if isinstance(cfg.m_ref, int) else ";".join(map(str, m_ref))

    ladders = [bath_ladder(s_val, cfg.omega_c, cfg.n_modes, cfg.lambda_disc) for s_val in points]
    outcomes = critical_alphas(ladders, cfg.cap, epsilon=cfg.epsilon, m_ref=m_ref,
                               policy=cfg.policy or "per-mode")

    ref_interp = None
    if args.reference is not None:
        _, ref_s, ref_a = load_reference_curve(args.reference)
        ref_interp = np.interp(points, ref_s, ref_a, left=math.nan, right=math.nan)

    header = ["s", "alpha_c", "epsilon", "n_tr", "n_modes", "lambda_disc",
              "beta", "o_value", "m_ref"]
    if ref_interp is not None:
        header.append("alpha_c_ref")
    shared = [format_float(cfg.epsilon), cfg.cap, cfg.n_modes, format_float(cfg.lambda_disc)]
    rows = []
    for i, (s_val, ladder, pt) in enumerate(zip(points, ladders, outcomes)):
        if isinstance(pt, SearchError):
            alpha_c, beta, o_value = math.nan, ladder.beta, math.nan
        else:
            alpha_c, beta, o_value = pt.alpha_c, pt.beta, pt.o_value
        row = [format_float(s_val), format_float(alpha_c), *shared,
               format_float(beta), format_float(o_value), m_ref_text]
        if ref_interp is not None:
            row.append(format_float(float(ref_interp[i])))
        rows.append(row)
    failed = any(isinstance(pt, SearchError) for pt in outcomes)
    return (EXIT_SEARCH if failed else EXIT_OK), _csv_text(header, rows)


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on usage errors; remap onto the config exit code.
    def error(self, message):
        self.print_usage(sys.stderr)
        sys.stderr.write(f"{self.prog}: error: {message}\n")
        raise SystemExit(EXIT_CONFIG)


# Subcommand name -> (runner, help text, extra flags).
COMMANDS = {
    "theorem": (run_theorem, "ground-state verdict for one parameter point", {}),
    "spectrum": (run_spectrum, "lowest eigenpairs of both parity branches",
                 {"--dump-matrix": dict(default=None, metavar="PREFIX",
                                        help="also dump branch matrices as CSV triplets")}),
    "parity-audit": (run_parity_audit, "squared-parity audit over the truncated basis",
                     {"--dump-tables": dict(default=None, metavar="PREFIX",
                                            help="also dump L and D tables as CSV triplets")}),
    "alpha-c": (run_alpha_c, "critical dissipation at the configured point", {}),
    "closure": (run_closure, "bare-basis closure counting for (n_modes, cap)", {}),
    "phase-diagram": (run_phase_diagram, "critical dissipation vs s sweep (CSV)",
                      {"--reference": dict(default=None, metavar="CSV",
                                           help="reference curve to interpolate as an extra column")}),
}


def _build_parser() -> _Parser:
    parser = _Parser(prog="sbparity", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, help_text, extra_flags) in COMMANDS.items():
        p = sub.add_parser(name, help=help_text)
        p.add_argument("--config", required=True, help="path to the JSON configuration")
        p.add_argument("--out", default=None, help="write output to this path instead of stdout")
        for flag, kwargs in extra_flags.items():
            p.add_argument(flag, **kwargs)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.config)
        code, body = COMMANDS[args.command][0](cfg, args)
        if isinstance(body, dict):
            body = dumps({**body, "config": cfg.echo(), "versions": _versions()})
        _emit((body,), args.out)
        return code
    except tuple(EXIT_CODES) as exc:
        sys.stdout.write(dumps({"error": {"type": type(exc).__name__, "message": str(exc)}}))
        return next(code for cls, code in EXIT_CODES.items() if isinstance(exc, cls))


if __name__ == "__main__":
    sys.exit(main())
