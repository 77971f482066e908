"""Bosonic environment: power-law spectral density and its logarithmic
discretization into a finite set of coupled modes.

The continuum bath J(w) = 2*pi*alpha*omega_c**(1-s)*w**s on (0, omega_c] is
binned geometrically.  Each bin contributes one mode whose squared coupling
carries the full spectral weight of the bin and whose frequency is the
J-weighted bin mean, so the total weight (1/pi) * integral of J is conserved
over the covered range by construction.  Only the factor alpha of each
squared coupling depends on the dissipation strength: a :class:`BathLadder`
holds everything else, so the critical-alpha search takes one ladder as its
bath and bins the law once.

Derived scalars used downstream:

* ``sum_wq2``  -- sum over modes of omega_k * q_k**2; the polaron shift.
* ``sum_q2``   -- sum over modes of q_k**2.
* ``beta``     -- 2 * sum_q2 / alpha; independent of alpha because every
  q_k**2 scales linearly with alpha.  The continuum analogue diverges for
  s <= 1, so beta inherits a dependence on (n_modes, lambda_disc) that is
  reported alongside every quantity built from it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

from .errors import ParameterError

__all__ = [
    "SpectralLaw",
    "Mode",
    "BathModel",
    "BathLadder",
    "bath_ladder",
    "discretize_bath",
    "bath_from_modes",
    "e_min_eo",
    "e_min_eo_continuum",
]


def _check_alpha(alpha: float) -> None:
    if not (alpha >= 0.0 and math.isfinite(alpha)):
        raise ParameterError(f"alpha must satisfy alpha >= 0, got {alpha}")


def _check_shape(s: float, omega_c: float) -> None:
    if not (s > 0.0 and math.isfinite(s)):
        raise ParameterError(f"s must satisfy s > 0, got {s}")
    if not (omega_c > 0.0 and math.isfinite(omega_c)):
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

    def j(self, omega: float) -> float:
        """Spectral density at frequency ``omega`` (0 outside (0, omega_c])."""
        if omega <= 0.0 or omega > self.omega_c:
            return 0.0
        return 2.0 * math.pi * self.alpha * self.omega_c ** (1.0 - self.s) * omega ** self.s


def _check_omega(omega: float) -> None:
    if not (omega > 0.0 and math.isfinite(omega)):
        raise ParameterError(f"mode frequency must be > 0, got {omega}")


def _check_lam(lam: float) -> None:
    if not (lam >= 0.0 and math.isfinite(lam)):
        raise ParameterError(f"mode coupling must be >= 0, got {lam}")


@dataclass(frozen=True)
class Mode:
    """One discretized bath mode.

    ``q`` is the dimensionless displacement lam / (2 * omega), kept as a
    property so the defining relation can never drift out of sync.
    """

    omega: float
    lam: float

    def __post_init__(self):
        _check_omega(self.omega)
        _check_lam(self.lam)

    @property
    def q(self) -> float:
        return self.lam / (2.0 * self.omega)


@dataclass(frozen=True)
class BathModel:
    """Immutable discretized bath plus the derived scalars.

    ``lambda_disc`` is the geometric bin ratio, None when the modes were
    supplied directly.  Mode k has frequency ``omegas[k]``, coupling
    ``lams[k]`` and displacement ``qs[k]`` = lams[k] / (2 * omegas[k]);
    ``modes`` offers the same as :class:`Mode` objects, built on first
    access.  Safe to share across workers; all operations on it are pure.
    """

    lambda_disc: float | None
    omegas: tuple[float, ...]
    lams: tuple[float, ...]
    qs: tuple[float, ...]
    sum_wq2: float
    sum_q2: float
    beta: float

    @property
    def n_modes(self) -> int:
        return len(self.qs)

    @functools.cached_property
    def modes(self) -> tuple[Mode, ...]:
        return tuple(Mode(omega, lam) for omega, lam in zip(self.omegas, self.lams))


def _derived_sums(omegas, qs) -> tuple[float, float]:
    sum_wq2 = math.fsum(w * q * q for w, q in zip(omegas, qs))
    sum_q2 = math.fsum(q * q for q in qs)
    return sum_wq2, sum_q2


@dataclass(frozen=True)
class BathLadder:
    """The alpha-free part of a logarithmic discretization.

    Bin k has upper edge hi_k = omega_c * lambda_disc**-k, frequency
    ``omegas[k]`` = hi_k * f_shape and squared coupling
    2*alpha * ``wc_pow`` * ``hi_pows[k]`` * ``w_shape``, with
    wc_pow = omega_c**(1-s) and hi_pows[k] = hi_k**(s+1).  Only the factor
    alpha depends on the dissipation strength, so a ladder is the bath input
    of :func:`sbparity.parity.critical_alpha`, which calls :meth:`at` once
    per bisection step.  Build it with :func:`bath_ladder`.
    """

    s: float
    omega_c: float
    lambda_disc: float
    omegas: tuple[float, ...]
    hi_pows: tuple[float, ...]
    wc_pow: float
    w_shape: float

    def at(self, alpha: float) -> BathModel:
        """The discretized bath at dissipation strength ``alpha``, identical
        to :func:`discretize_bath` on the law with this alpha.

        Raises
        ------
        ParameterError
            If alpha is negative or not finite, or a mode coupling comes out
            non-finite.
        """
        _check_alpha(alpha)
        # The product 2.0 * alpha * wc_pow * h * w_shape, rounded left to right.
        scale, w_shape = 2.0 * alpha * self.wc_pow, self.w_shape
        lams = tuple(math.sqrt(scale * h * w_shape) for h in self.hi_pows)
        for lam in lams:
            _check_lam(lam)
        qs = tuple(lam / (2.0 * omega) for lam, omega in zip(lams, self.omegas))
        sum_wq2, sum_q2 = _derived_sums(self.omegas, qs)
        if alpha > 0.0:
            beta = 2.0 * sum_q2 / alpha
        else:
            # q_k**2 is exactly linear in alpha, so expose the slope at alpha = 1.
            beta = self.at(1.0).beta
        return BathModel(lambda_disc=self.lambda_disc, omegas=self.omegas,
                         lams=lams, qs=qs, sum_wq2=sum_wq2, sum_q2=sum_q2, beta=beta)


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
    if not isinstance(n_modes, int) or n_modes < 1:
        raise ParameterError(f"n_modes must be an integer >= 1, got {n_modes}")
    if not lambda_disc > 1.0:
        raise ParameterError(f"lambda_disc must satisfy lambda_disc > 1, got {lambda_disc}")
    r = 0.0 if math.isinf(lambda_disc) else 1.0 / lambda_disc
    # Bin-shape factors, identical for every bin of a geometric ladder:
    # weight(hi)   = 2*alpha*omega_c**(1-s) * hi**(s+1) * w_shape
    # omega(hi)    = hi * f_shape
    w_shape = (1.0 - r ** (s + 1.0)) / (s + 1.0)
    f_shape = ((s + 1.0) * (1.0 - r ** (s + 2.0))) / ((s + 2.0) * (1.0 - r ** (s + 1.0)))
    omegas, hi_pows = [], []
    try:
        wc_pow = omega_c ** (1.0 - s)
        for k in range(n_modes):
            hi = omega_c * r ** k if k else omega_c
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
    return BathLadder(s=s, omega_c=omega_c, lambda_disc=lambda_disc, omegas=tuple(omegas),
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
    """Assemble a bath from explicit (omega, lam) modes.

    Modes must be ordered by strictly decreasing frequency.  A ``law``, used
    but not stored, bounds them by its omega_c and makes ``beta``
    2*sum_q2/alpha when its alpha > 0; for a decoupled bath beta is 0, and
    otherwise it is NaN because the alpha-scaling argument that makes beta
    well defined does not apply to hand-picked couplings.
    """
    modes = tuple(m if isinstance(m, Mode) else Mode(*m) for m in modes)
    if not modes:
        raise ParameterError("at least one mode is required")
    for a, b in zip(modes, modes[1:]):
        if not a.omega > b.omega:
            raise ParameterError("modes must be ordered by decreasing frequency")
    if law is not None and any(m.omega > law.omega_c for m in modes):
        raise ParameterError("mode frequencies must lie in (0, omega_c]")
    omegas = tuple(m.omega for m in modes)
    qs = tuple(m.q for m in modes)
    sum_wq2, sum_q2 = _derived_sums(omegas, qs)
    if law is not None and law.alpha > 0.0:
        beta = 2.0 * sum_q2 / law.alpha
    elif sum_q2 == 0.0:
        beta = 0.0
    else:
        beta = math.nan
    return BathModel(lambda_disc=None, omegas=omegas,
                     lams=tuple(m.lam for m in modes), qs=qs,
                     sum_wq2=sum_wq2, sum_q2=sum_q2, beta=beta)


def e_min_eo(bath: BathModel) -> float:
    """Lowest branch-degeneracy energy: -sum_k lam_k**2 / (4*omega_k)."""
    return -bath.sum_wq2


def e_min_eo_continuum(law: SpectralLaw) -> float:
    """Continuum counterpart of :func:`e_min_eo`: -alpha*omega_c/(2*s)."""
    return -law.alpha * law.omega_c / (2.0 * law.s)
