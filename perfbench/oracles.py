"""Independent checks of every op's output.

Nothing here goes through the displaced-basis kernel under test
(``_l_single_log`` and the tables built from it):

* single-mode ``theorem``: a bare-number-basis spin-boson diagonalization,
  split into its two parity sectors, at a cutoff raised until it converges;
* multi-mode ``theorem`` and ``spectrum``: per-mode parity tables from the
  public bare-basis ``overlap_oracle``, combined over the basis and solved
  with dense ``scipy.linalg.eigh``;
* ``parity-audit``: the row-norm bound of a truncated orthogonal matrix
  (every ``|(D^2)_mm - 1| <= 1``, which also bounds ``max|D| <= 1``), the
  vacuum row against the exact Poisson tail, and for multi-mode bases every
  row norm against the ``overlap_oracle`` table;
* the ``m_ref`` sweep: the deficiency at each reported alpha_c, recomputed
  from the exact rationals of ``l_scaled_rational``;
* the golden sweep: a byte comparison with the pinned regression file.

Each check returns ``None`` when the output agrees, or a one-line reason.
Oracle results are cached per distinct config by :class:`OracleCache`.
"""

from __future__ import annotations

import csv
import io
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import scipy.linalg
from scipy.special import gammainc

EPS = float(np.finfo(float).eps)
# Slack factor on the solver tolerance, as in the program's own invariant checks.
SLACK = 10.0
DEFAULT_TOL = 1e-10
GAP_RESOLUTION_FACTOR = 1e3
# |deficiency(alpha_c) - epsilon| allowed: the bisection target 1e-10 plus
# rounding of the 17-digit CSV fields.
SWEEP_DEFICIENCY_TOL = 1e-9
REL_TOL = 1e-9


# ---------------------------------------------------------------------------
# Bath and basis, recomputed from their definitions
# ---------------------------------------------------------------------------

def log_bath(alpha, s, omega_c, n_modes, lambda_disc):
    """(omega, lam) per geometric bin of J(w) = 2 pi alpha wc^(1-s) w^s.

    lam**2 is (1/pi) times the integral of J over the bin, omega the
    J-weighted mean frequency of the bin.
    """
    modes = []
    for k in range(n_modes):
        hi = omega_c / lambda_disc ** k
        lo = hi / lambda_disc
        w1 = hi ** (s + 1.0) - lo ** (s + 1.0)
        w2 = hi ** (s + 2.0) - lo ** (s + 2.0)
        lam2 = 2.0 * alpha * omega_c ** (1.0 - s) * w1 / (s + 1.0)
        omega = (s + 1.0) / (s + 2.0) * w2 / w1
        modes.append((omega, math.sqrt(lam2)))
    return modes


def config_modes(config):
    model = config["model"]
    if model.get("modes") is not None:
        return [tuple(m) for m in model["modes"]]
    disc = config.get("disc", {})
    return log_bath(model["alpha"], model["s"], model["omega_c"],
                    disc.get("n_modes", 30), disc.get("lambda_disc", 2.0))


def basis_vectors(n_modes, policy, cap):
    """Occupation vectors in lexicographic order."""
    vecs = itertools.product(range(cap + 1), repeat=n_modes)
    if policy == "total-quanta":
        vecs = (v for v in vecs if sum(v) <= cap)
    return np.array(list(vecs), dtype=np.int64).reshape(-1, n_modes)


def config_policy(config, n_modes):
    policy = config.get("trunc", {}).get("policy")
    if policy is None:
        policy = "per-mode" if n_modes <= 2 else "total-quanta"
    return policy


# ---------------------------------------------------------------------------
# Bare-basis diagonalization (single mode)
# ---------------------------------------------------------------------------

def bare_fock_hamiltonian(omega, lam, delta, cap):
    """Full spin-boson Hamiltonian in the bare product basis.

    -delta/2 sigma_x + omega a+a + lam/2 (a+ + a) sigma_z over
    {|up, n>, |down, n>} with n <= cap.  No parity decomposition, no
    displaced states, no L elements.
    """
    dim = cap + 1
    n = np.arange(dim)
    a = np.diag(np.sqrt(n[1:].astype(float)), 1)
    x = a + a.T
    hosc = np.diag(omega * n.astype(float))
    h = np.zeros((2 * dim, 2 * dim))
    h[:dim, :dim] = hosc + 0.5 * lam * x
    h[dim:, dim:] = hosc - 0.5 * lam * x
    h[:dim, dim:] = -0.5 * delta * np.eye(dim)
    h[dim:, :dim] = -0.5 * delta * np.eye(dim)
    return h


def bare_sector_levels(omega, lam, delta, cap, k):
    """Lowest k levels of the even and odd parity sectors.

    The parity operator is sigma_x (-1)^(a+a); its sectors are spanned by
    (|up, n> +/- (-1)^n |down, n>) / sqrt(2).  The even sector holds the
    branch H0 - (delta/2) D.
    """
    h = bare_fock_hamiltonian(omega, lam, delta, cap)
    dim = cap + 1
    n = np.arange(dim)
    sign = np.where(n % 2, -1.0, 1.0)
    out = []
    for parity in (1.0, -1.0):
        u = np.zeros((2 * dim, dim))
        u[n, n] = math.sqrt(0.5)
        u[dim + n, n] = parity * sign * math.sqrt(0.5)
        out.append(scipy.linalg.eigh(u.T @ h @ u, eigvals_only=True,
                                     subset_by_index=[0, k - 1]))
    return out[0], out[1]


def converged_bare_levels(omega, lam, delta, k=1, step=40, max_cap=2000):
    """Bare sector levels at a cutoff where raising it by ``step`` changes
    nothing beyond 1e-12 relative."""
    q = lam / (2.0 * omega)
    cap = 80 + int(8.0 * q * q)
    prev = bare_sector_levels(omega, lam, delta, cap, k)
    while cap < max_cap:
        cap += step
        cur = bare_sector_levels(omega, lam, delta, cap, k)
        scale = max(1.0, float(np.max(np.abs(np.concatenate(cur)))))
        if all(np.max(np.abs(a - b)) <= 1e-12 * scale for a, b in zip(prev, cur)):
            return cur
        prev = cur
    raise RuntimeError(f"bare basis did not converge below cutoff {max_cap}")


# ---------------------------------------------------------------------------
# Displaced-basis reference from the bare-basis overlap oracle (multi-mode)
# ---------------------------------------------------------------------------

def overlap_table(omega, lam, cap):
    """Single-mode D(m, n), m, n <= cap, through ``sbparity.overlap_oracle``."""
    from sbparity import ConvergenceError, bath_from_modes, overlap_oracle

    bath = bath_from_modes([(omega, lam)])
    q = lam / (2.0 * omega)
    cutoff = cap + 40 + int(8.0 * q * q)
    while True:
        try:
            table = np.empty((cap + 1, cap + 1))
            for m in range(cap + 1):
                for n in range(m + 1):
                    table[m, n] = table[n, m] = overlap_oracle((m,), (n,), bath, cutoff)
            return table
        except ConvergenceError:
            cutoff += 40


class DenseReference:
    """Branch matrices of one config assembled from oracle tables."""

    def __init__(self, config, k):
        model = config["model"]
        self.delta = float(model["delta"])
        modes = config_modes(config)
        n_modes = len(modes)
        cap = config["trunc"]["cap"]
        self.tol = config.get("solver", {}).get("tol", DEFAULT_TOL)
        occ = basis_vectors(n_modes, config_policy(config, n_modes), cap)
        self.dim = occ.shape[0]
        d = np.ones((self.dim, self.dim))
        for j, (omega, lam) in enumerate(modes):
            table = overlap_table(omega, lam, int(occ[:, j].max()))
            d *= table[np.ix_(occ[:, j], occ[:, j])]
        self.d = d
        omegas = np.array([w for w, _ in modes])
        qs = np.array([lam / (2.0 * w) for w, lam in modes])
        self.e_min_eo = -math.fsum(omegas * qs * qs)
        self.h0 = occ @ omegas + self.e_min_eo
        self.scale = max(1.0, float(np.max(np.abs(self.h0))) + 0.5 * self.delta)
        self.levels = {}
        for name, sign in (("plus", -1.0), ("minus", 1.0)):
            self.levels[name] = scipy.linalg.eigh(
                self.branch(sign), eigvals_only=True,
                subset_by_index=[0, min(k, self.dim) - 1])

    def branch(self, sign):
        h = sign * (0.5 * self.delta) * self.d
        h[np.diag_indices(self.dim)] += self.h0
        return h


class SingleModeReference:
    """Bare-basis levels of a single-mode config."""

    def __init__(self, config, k):
        model = config["model"]
        self.delta = float(model["delta"])
        (omega, lam), = config_modes(config)
        cap = config["trunc"]["cap"]
        self.tol = config.get("solver", {}).get("tol", DEFAULT_TOL)
        q = lam / (2.0 * omega)
        self.e_min_eo = -omega * q * q
        self.scale = max(1.0, max(abs(omega * cap + self.e_min_eo), -self.e_min_eo)
                         + 0.5 * self.delta)
        plus, minus = converged_bare_levels(omega, lam, self.delta, k)
        self.levels = {"plus": plus, "minus": minus}


class OracleCache:
    """Reference objects, built once per distinct config."""

    def __init__(self):
        self._refs = {}

    def reference(self, config):
        key = json.dumps(config, sort_keys=True)
        if key not in self._refs:
            k = config.get("solver", {}).get("k_levels", 1)
            single = len(config_modes(config)) == 1
            cls = SingleModeReference if single else DenseReference
            self._refs[key] = cls(config, k)
        return self._refs[key]


# ---------------------------------------------------------------------------
# Per-command checks
# ---------------------------------------------------------------------------

def _close(a, b, atol):
    return a is not None and math.isfinite(a) and abs(a - b) <= atol


def check_theorem(config, body, cache):
    ref = cache.reference(config)
    atol = SLACK * ref.tol * ref.scale
    e_plus = float(ref.levels["plus"][0])
    e_minus = float(ref.levels["minus"][0])
    e_gs = min(e_plus, e_minus)
    expect = {
        "e_gs": e_gs,
        "e_plus_min": e_plus,
        "e_minus_min": e_minus,
        "e_min_eo": ref.e_min_eo,
        "margin": ref.e_min_eo - e_gs,
        "measured_gap": e_minus - e_plus,
    }
    for key, value in expect.items():
        got = body.get(key)
        if not isinstance(got, (int, float)) or not _close(got, value, atol):
            return f"{key} = {got!r}, oracle {value:.17g} (tol {atol:.1e})"
    gap = e_minus - e_plus
    predicted = body.get("predicted_gap")
    if predicted is not None and not _close(predicted, gap, atol + 1e-6 * abs(gap)):
        return f"predicted_gap = {predicted!r}, oracle gap {gap:.17g}"
    floor = GAP_RESOLUTION_FACTOR * EPS * ref.scale
    if abs(gap) > 2.0 * floor and ref.e_min_eo - e_gs > atol:
        allowed = {"strictly-below"}
    elif abs(gap) < 0.5 * floor:
        allowed = {"indeterminate-below-resolution"}
    else:
        allowed = {"strictly-below", "indeterminate-below-resolution"}
    if body.get("verdict") not in allowed:
        return f"verdict {body.get('verdict')!r}, oracle allows {sorted(allowed)}"
    return None


def check_spectrum(config, body, cache):
    ref = cache.reference(config)
    k = min(config.get("solver", {}).get("k_levels", 1), ref.dim)
    atol = SLACK * ref.tol * ref.scale
    for name, sign in (("plus", -1.0), ("minus", 1.0)):
        branch = body.get(name) or {}
        values = branch.get("values")
        vectors = branch.get("vectors")
        if not isinstance(values, list) or len(values) != k:
            return f"{name}.values is not a list of {k} levels"
        if not isinstance(vectors, list) or len(vectors) != k:
            return f"{name}.vectors is not a list of {k} vectors"
        for i, (got, want) in enumerate(zip(values, ref.levels[name])):
            if not _close(got, float(want), atol):
                return f"{name}.values[{i}] = {got!r}, oracle {want:.17g} (tol {atol:.1e})"
        h = ref.branch(sign)
        for i, vec in enumerate(vectors):
            v = np.array(vec, dtype=float)
            if v.shape != (ref.dim,):
                return f"{name}.vectors[{i}] has length {v.shape}, expected {ref.dim}"
            if abs(float(v @ v) - 1.0) > 1e-10:
                return f"{name}.vectors[{i}] is not normalized"
            if v[int(np.argmax(np.abs(v)))] < 0.0:
                return f"{name}.vectors[{i}] breaks the sign convention"
            resid = float(np.linalg.norm(h @ v - values[i] * v))
            if resid > atol:
                return f"{name}.vectors[{i}] oracle residual {resid:.3e} > {atol:.1e}"
        del h
    expect_deg = np.sort(ref.h0)[:k]
    got_deg = body.get("degenerate_energy_set")
    if not isinstance(got_deg, list) or len(got_deg) != k or any(
            not _close(g, float(w), 1e-12 * ref.scale) for g, w in zip(got_deg, expect_deg)):
        return "degenerate_energy_set differs from the sorted H0 diagonal"
    return None


def vacuum_deficiency(qs, policy, cap):
    """1 - sum over the truncated basis of D(0, n)**2, exactly.

    D(0, n)**2 factorizes into Poisson weights with mean 4 q**2 per mode, so
    the per-mode truncation keeps prod_k P(X_k <= cap) and the total-quanta
    truncation keeps P(sum_k X_k <= cap), a Poisson of mean 4 sum q**2.
    """
    mus = [4.0 * q * q for q in qs]
    if policy == "total-quanta":
        return float(gammainc(cap + 1, math.fsum(mus)))
    kept = math.fsum(math.log1p(-float(gammainc(cap + 1, mu))) for mu in mus)
    return -math.expm1(kept)


def check_audit(config, body, cache):
    modes = config_modes(config)
    n_modes = len(modes)
    policy = config_policy(config, n_modes)
    cap = config["trunc"]["cap"]
    qs = [lam / (2.0 * w) for w, lam in modes]
    sum_q2 = math.fsum(q * q for q in qs)
    if body.get("m") != [0] * n_modes or body.get("n_tr") != cap:
        return f"m/n_tr = {body.get('m')!r}/{body.get('n_tr')!r}"
    scale = math.exp(-4.0 * sum_q2)
    got_scale = body.get("scale")
    if not isinstance(got_scale, (int, float)) or abs(got_scale - scale) > REL_TOL * scale:
        return f"scale = {got_scale!r}, expected exp(-4 sum q^2) = {scale:.17g}"
    deficiency = vacuum_deficiency(qs, policy, cap)
    tol = 1e-11 * max(1.0, 4.0 * sum_q2)
    got_def = body.get("deficiency")
    if not isinstance(got_def, (int, float)) or abs(got_def - deficiency) > tol:
        return f"deficiency = {got_def!r}, exact Poisson tail {deficiency:.17g}"
    o_value = body.get("o_value")
    if not isinstance(o_value, (int, float)) or abs(o_value * scale - (1.0 - deficiency)) > tol:
        return f"o_value * scale = {o_value!r} * {scale:.3g} is not 1 - deficiency"
    resid = body.get("d2_diag_residuals")
    if not isinstance(resid, list) or not resid or not all(
            isinstance(r, (int, float)) for r in resid):
        return "d2_diag_residuals missing or not numeric"
    resid = np.array(resid, dtype=float)
    if not np.all(np.isfinite(resid)) or float(np.max(resid)) > 1.0 + 1e-12:
        return (f"row-norm bound broken: max |(D^2)_mm - 1| = {float(np.max(resid)):.6g} > 1 "
                "(a truncated orthogonal matrix has row norms <= 1)")
    if abs(resid[0] - deficiency) > tol:
        return f"vacuum row residual {resid[0]:.17g} != exact deficiency {deficiency:.17g}"
    offdiag = body.get("d2_max_offdiag")
    if not isinstance(offdiag, (int, float)) or not math.isfinite(offdiag) or offdiag > 1.0 + 1e-12:
        return f"d2_max_offdiag = {offdiag!r} breaks Cauchy-Schwarz bound 1"
    if n_modes > 1:
        ref = cache.reference(config)
        if resid.shape != (ref.dim,):
            return f"d2_diag_residuals has {resid.size} rows, expected {ref.dim}"
        want = np.abs(np.einsum("ij,ij->i", ref.d, ref.d) - 1.0)
        worst = float(np.max(np.abs(resid - want)))
        if worst > 1e-10:
            return f"d2_diag_residuals differ from the oracle row norms by {worst:.3e}"
    return None


def _sweep_points(sweep):
    lo, hi, steps = float(sweep["from"]), float(sweep["to"]), int(sweep["steps"])
    if steps == 1:
        return [lo]
    return [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]


def _log_o_exact(m, q, cap):
    """log of sum_{n <= cap} L(m, n; q)**2 from exact rationals."""
    from sbparity.fockspace import l_scaled_rational

    qf = Fraction(q)
    total = Fraction(0)
    for n in range(cap + 1):
        total += l_scaled_rational(m, n, qf) ** 2 * math.factorial(m) * math.factorial(n)
    return math.log(total.numerator) - math.log(total.denominator)


def check_sweep(config, text):
    """Deficiency at each reported alpha_c equals epsilon (per-mode policy)."""
    rows = list(csv.reader(io.StringIO(text)))
    header = ["s", "alpha_c", "epsilon", "n_tr", "n_modes", "lambda_disc",
              "beta", "o_value", "m_ref"]
    if not rows or rows[0] != header:
        return f"header {rows[0] if rows else None!r}"
    points = _sweep_points(config["sweep"])
    if len(rows) - 1 != len(points):
        return f"{len(rows) - 1} rows, expected {len(points)}"
    disc = config["disc"]
    n_modes, lambda_disc = disc["n_modes"], disc["lambda_disc"]
    cap = config["trunc"]["cap"]
    parity = config["parity"]
    epsilon, m_ref = parity["epsilon"], parity["m_ref"]
    m = [m_ref] + [0] * (n_modes - 1)
    omega_c = config["model"]["omega_c"]
    for i, (row, s_expect) in enumerate(zip(rows[1:], points)):
        s, alpha_c, eps_col, n_tr, n_col, lam_col, beta, o_value, m_col = row
        s, alpha_c, beta, o_value = float(s), float(alpha_c), float(beta), float(o_value)
        where = f"row {i + 1} (s={s:.6g})"
        if abs(s - s_expect) > 1e-12:
            return f"{where}: s off the sweep grid"
        if (float(eps_col), int(n_tr), int(n_col), float(lam_col), m_col) != (
                epsilon, cap, n_modes, lambda_disc, str(m_ref)):
            return f"{where}: echoed parameters differ from the config"
        if not (math.isfinite(alpha_c) and alpha_c > 0.0):
            return f"{where}: alpha_c = {alpha_c!r}"
        modes = log_bath(alpha_c, s, omega_c, n_modes, lambda_disc)
        qs = [lam / (2.0 * w) for w, lam in modes]
        sum_q2 = math.fsum(q * q for q in qs)
        if abs(beta - 2.0 * sum_q2 / alpha_c) > REL_TOL * beta:
            return f"{where}: beta = {beta!r}, expected {2.0 * sum_q2 / alpha_c:.17g}"
        log_o = math.fsum(_log_o_exact(mk, q, cap) for mk, q in zip(m, qs))
        deficiency = -math.expm1(log_o - 4.0 * sum_q2)
        if abs(deficiency - epsilon) > SWEEP_DEFICIENCY_TOL:
            return (f"{where}: exact deficiency at alpha_c is {deficiency:.17g}, "
                    f"target epsilon {epsilon!r}")
        if log_o < 700.0 and abs(o_value - math.exp(log_o)) > REL_TOL * math.exp(log_o):
            return f"{where}: o_value = {o_value!r}, exact {math.exp(log_o):.17g}"
    return None
