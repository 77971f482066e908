"""Bosonic environment: power-law spectral density and its logarithmic
discretization into a finite set of coupled modes.

The continuum bath J(w) = 2*pi*alpha*omega_c**(1-s)*w**s on (0, omega_c] is
binned geometrically.  Each bin contributes one mode whose squared coupling
carries the full spectral weight of the bin and whose frequency is the
J-weighted bin mean, so the total weight (1/pi) * integral of J is conserved
over the covered range by construction.  Only the factor alpha of each
squared coupling depends on the dissipation strength: a :class:`BathLadder`
holds everything else, so the critical-alpha search takes one ladder as its
bath and bins the law once.  A :class:`LadderStack` rescales the ladders of
many sweep points to their own alphas in one array pass, and
:meth:`BathLadder.at` is its one-row case.

Derived scalars used downstream, each from one formula:

* ``sum_wq2``  -- sum over modes of omega_k * q_k**2; the polaron shift.
* ``sum_q2``   -- sum over modes of q_k**2.  Both sums are exactly rounded,
  and a ParameterError if they overflow a double.
* ``beta``     -- 2 * sum_q2 / alpha, :attr:`BathLadder.beta`: no alpha changes
  it, as every q_k**2 is linear in alpha.  The continuum analogue diverges for
  s <= 1, so beta inherits a dependence on (n_modes, lambda_disc) that is
  reported alongside every quantity built from it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ParameterError, check_count, is_real

__all__ = [
    "SpectralLaw",
    "BathModel",
    "BathLadder",
    "LadderStack",
    "bath_ladder",
    "discretize_bath",
    "bath_from_modes",
    "e_min_eo",
]


def _check_alpha(alpha: float) -> None:
    if not (is_real(alpha) and alpha >= 0.0 and math.isfinite(alpha)):
        raise ParameterError(f"alpha must satisfy alpha >= 0, got {alpha}")


def _check_shape(s: float, omega_c: float) -> None:
    if not (is_real(s) and s > 0.0 and math.isfinite(s)):
        raise ParameterError(f"s must satisfy s > 0, got {s}")
    if not (is_real(omega_c) and omega_c > 0.0 and math.isfinite(omega_c)):
        raise ParameterError(f"omega_c must satisfy omega_c > 0, got {omega_c}")


@dataclass(frozen=True)
class SpectralLaw:
    """Continuum spectral density J(w) = 2*pi*alpha*omega_c**(1-s)*w**s.

    Parameters
    ----------
    alpha : float
        Dimensionless dissipation strength, >= 0.
    s : float
        Bath exponent (> 0): s < 1 sub-ohmic, s = 1 ohmic, s > 1 super-ohmic.
    omega_c : float
        Cutoff frequency (> 0); J vanishes above it.
    """

    alpha: float
    s: float
    omega_c: float

    def __post_init__(self):
        _check_alpha(self.alpha)
        _check_shape(self.s, self.omega_c)

def _check_omega(omega: float) -> None:
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ParameterError(f"mode frequency must be > 0, got {omega}")


def _check_lam(lam: float) -> None:
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ParameterError(f"mode coupling must be >= 0, got {lam}")


@dataclass(frozen=True)
class BathModel:
    """Immutable discretized bath plus its two mode sums.

    The modes are the three parallel tuples: mode k has frequency
    ``omegas[k]``, coupling ``lams[k]`` and displacement ``qs[k]`` =
    lams[k] / (2 * omegas[k]), binned or listed alike.  Safe to share
    across workers; all operations on it are pure.
    """

    omegas: tuple[float, ...]
    lams: tuple[float, ...]
    qs: tuple[float, ...]
    sum_wq2: float
    sum_q2: float

    @property
    def n_modes(self) -> int:
        return len(self.qs)


def _mode_sum(name: str, terms) -> float:
    try:
        return math.fsum(terms)
    except OverflowError:
        raise ParameterError(f"{name} overflows a double") from None


def _sum_wq2(omegas, qs) -> float:
    return _mode_sum("sum_k omega_k * q_k**2", [w * q * q for w, q in zip(omegas, qs)])


def _beta(sum_q2: float, alpha: float) -> float:
    return 2.0 * sum_q2 / alpha


@dataclass(frozen=True)
class BathLadder:
    """The alpha-free part of a logarithmic discretization.

    Bin k has upper edge hi_k = omega_c * lambda_disc**-k, frequency
    ``omegas[k]`` = hi_k * f_shape and squared coupling
    2*alpha * ``wc_pow`` * ``hi_pows[k]`` * ``w_shape``, with
    wc_pow = omega_c**(1-s) and hi_pows[k] = hi_k**(s+1).  Only the factor
    alpha depends on the dissipation strength, so a ladder is the bath input
    of :func:`sbparity.parity.critical_alpha`, whose bisection steps, from
    alpha = 1 on, rescale it through a :class:`LadderStack`.  Build it with
    :func:`bath_ladder`; ``wc_pow`` and ``hi_pows`` carry omega_c.
    """

    s: float
    lambda_disc: float
    omegas: tuple[float, ...]
    hi_pows: tuple[float, ...]
    wc_pow: float
    w_shape: float

    @property
    def beta(self) -> float:
        """2 * sum_q2 / alpha, which no alpha > 0 changes; taken at alpha = 1."""
        return _beta(self.at(1.0).sum_q2, 1.0)

    def at(self, alpha: float) -> BathModel:
        """The discretized bath at dissipation strength ``alpha``, identical
        to :func:`discretize_bath` on the law with this alpha.

        Raises
        ------
        ParameterError
            If alpha is negative or not finite, or a coupling or a sum overflows at alpha.
        """
        _check_alpha(alpha)
        lams, qs, sums, errors = LadderStack([self]).at([0], [alpha])
        if errors:
            raise errors[0]
        qs = tuple(qs[0].tolist())
        return BathModel(omegas=self.omegas, lams=tuple(lams[0].tolist()), qs=qs,
                         sum_wq2=_sum_wq2(self.omegas, qs), sum_q2=sums[0])


class LadderStack:
    """Ladders of one mode count stacked as (ladders, modes) arrays, so that
    many of them are rescaled to their own alphas in one array pass."""

    def __init__(self, ladders):
        # 2*omega past the double range is inf: q is then 0, or ``at`` refuses the row.
        with np.errstate(over="ignore"):
            self.two_omegas = 2.0 * np.array([ladder.omegas for ladder in ladders])
        self.hi_pows = np.array([ladder.hi_pows for ladder in ladders])
        self.wc_pow = np.array([ladder.wc_pow for ladder in ladders])
        self.w_shape = np.array([ladder.w_shape for ladder in ladders])

    def at(self, rows, alphas) -> tuple[np.ndarray, np.ndarray, list, dict]:
        """The ladders ``rows[i]`` at ``alphas[i]`` (finite and >= 0, not checked
        here): couplings and displacements as (rows, modes) arrays, sum_q2 as a
        list, and the ParameterError of each row whose couplings are not finite
        or whose sum_q2 overflows, keyed by i (its sum_q2 is None)."""
        # The squared coupling 2.0 * alpha * wc_pow * h * w_shape, rounded left to right.
        rows = np.asarray(rows)
        with np.errstate(over="ignore", invalid="ignore"):  # reported per row below
            scale = 2.0 * np.asarray(alphas) * self.wc_pow[rows]
            lams = np.sqrt(scale[:, None] * self.hi_pows[rows] * self.w_shape[rows, None])
            qs = lams / self.two_omegas[rows]
            q2 = (qs * qs).tolist()
        sums, errors = [None] * len(q2), {}
        for i, (row, finite) in enumerate(zip(q2, np.isfinite(lams).all(axis=1).tolist())):
            try:
                if not finite:
                    for lam in lams[i].tolist():
                        _check_lam(lam)
                sums[i] = _mode_sum("sum_k q_k**2", row)
            except ParameterError as exc:
                errors[i] = exc
        return lams, qs, sums, errors


def bath_ladder(s: float, omega_c: float, n_modes: int, lambda_disc: float) -> BathLadder:
    """The geometric bins of :func:`discretize_bath`, without alpha.

    Raises
    ------
    ParameterError
        If s or omega_c is invalid, n_modes < 1, lambda_disc <= 1, a bin
        weight factor overflows, a bin edge underflows to zero or a mode
        frequency comes out non-finite.
    """
    _check_shape(s, omega_c)
    n_modes = check_count("n_modes", n_modes, 1)
    if not lambda_disc > 1.0:
        raise ParameterError(f"lambda_disc must satisfy lambda_disc > 1, got {lambda_disc}")
    r = 1.0 / lambda_disc  # 0.0 for lambda_disc = inf: one bin spans (0, omega_c]
    # Bin-shape factors, identical for every bin of a geometric ladder:
    # weight(hi)   = 2*alpha*omega_c**(1-s) * hi**(s+1) * w_shape
    # omega(hi)    = hi * f_shape
    w_shape = (1.0 - r ** (s + 1.0)) / (s + 1.0)
    f_shape = ((s + 1.0) * (1.0 - r ** (s + 2.0))) / ((s + 2.0) * (1.0 - r ** (s + 1.0)))
    omegas, hi_pows = [], []
    try:
        wc_pow = omega_c ** (1.0 - s)
        for k in range(n_modes):
            hi = omega_c * r ** k
            if hi <= 0.0:
                raise ParameterError(
                    f"bin edge underflowed at mode {k}; reduce n_modes or lambda_disc"
                )
            hi_pows.append(hi ** (s + 1.0))
            omega = hi * f_shape
            _check_omega(omega)
            omegas.append(omega)
    except OverflowError:
        raise ParameterError(
            f"model.omega_c = {omega_c!r} with model.s = {s!r} overflows the bin "
            f"weights omega_c**(1-s) * hi**(s+1)"
        ) from None
    return BathLadder(s=s, lambda_disc=lambda_disc, omegas=tuple(omegas),
                      hi_pows=tuple(hi_pows), wc_pow=wc_pow, w_shape=w_shape)


def discretize_bath(law: SpectralLaw, n_modes: int, lambda_disc: float) -> BathModel:
    """Bin the continuum law into ``n_modes`` geometric bins.

    Bin k covers [omega_c * lambda_disc**-(k+1), omega_c * lambda_disc**-k].
    Per bin the squared coupling is (1/pi) * integral of J over the bin and
    the frequency is the J-weighted mean, evaluated in ratio form so that
    deep bins never underflow before their weight does.  ``lambda_disc`` may
    be ``math.inf``, in which case a single bin spans (0, omega_c].

    Raises
    ------
    ParameterError
        If the law is invalid, n_modes < 1, lambda_disc <= 1, the lowest
        bin edge underflows to zero, or a mode comes out non-finite.
    """
    return bath_ladder(law.s, law.omega_c, n_modes, lambda_disc).at(law.alpha)


def bath_from_modes(modes, law: SpectralLaw | None = None) -> BathModel:
    """Assemble a bath from explicit (omega, lam) pairs of real numbers,
    checked as :meth:`BathLadder.at` checks its modes, q = lam / (2 * omega).

    Pairs must be ordered by strictly decreasing frequency; a malformed pair
    is a ParameterError naming its index.  A ``law``, used but not stored,
    bounds them by its omega_c.
    """
    omegas, lams = [], []
    for i, pair in enumerate(modes):
        try:
            omega, lam = pair
        except (TypeError, ValueError):
            omega = lam = None
        if not (is_real(omega) and is_real(lam)):
            raise ParameterError(f"mode {i} must be an (omega, lam) pair of numbers, got {pair!r}")
        _check_omega(omega)
        _check_lam(lam)
        omegas.append(omega)
        lams.append(lam)
    if not omegas:
        raise ParameterError("at least one mode is required")
    if not all(a > b for a, b in zip(omegas, omegas[1:])):
        raise ParameterError("modes must be ordered by decreasing frequency")
    if law is not None and any(omega > law.omega_c for omega in omegas):
        raise ParameterError("mode frequencies must lie in (0, omega_c]")
    qs = tuple(lam / (2.0 * omega) for lam, omega in zip(lams, omegas))
    sum_q2 = _mode_sum("sum_k q_k**2", [q * q for q in qs])  # its overflow is reported first
    return BathModel(omegas=tuple(omegas), lams=tuple(lams), qs=qs,
                     sum_wq2=_sum_wq2(omegas, qs), sum_q2=sum_q2)


def e_min_eo(bath: BathModel) -> float:
    """Lowest branch-degeneracy energy: -sum_k lam_k**2 / (4*omega_k)."""
    return -bath.sum_wq2
