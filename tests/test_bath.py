"""Bath discretization: weight conservation, derived scalars, convergence."""

import math
import re

import numpy as np
import pytest
from scipy.integrate import quad

from sbparity import (
    ParameterError,
    SpectralLaw,
    bath_from_modes,
    discretize_bath,
    e_min_eo,
)
from sbparity.bath import LadderStack, bath_ladder

from conftest import e_min_eo_continuum, spectral_density


def total_weight_quad(law, lo, hi):
    """Oracle: (1/pi) * integral of J over [lo, hi] by adaptive quadrature."""
    val, _ = quad(lambda w: spectral_density(law, w) / math.pi, lo, hi)
    return val


def test_spectral_law_validation():
    with pytest.raises(ParameterError):
        SpectralLaw(-0.1, 1.0, 1.0)
    with pytest.raises(ParameterError):
        SpectralLaw(0.1, 0.0, 1.0)
    with pytest.raises(ParameterError):
        SpectralLaw(0.1, 1.0, 0.0)
    law = SpectralLaw(0.1, 0.5, 2.0)
    assert spectral_density(law, 0.0) == 0.0
    assert spectral_density(law, 2.5) == 0.0
    assert spectral_density(law, 1.0) == pytest.approx(2.0 * math.pi * 0.1 * 2.0 ** 0.5)


def test_discretize_validation():
    law = SpectralLaw(0.1, 1.0, 1.0)
    with pytest.raises(ParameterError):
        discretize_bath(law, 0, 2.0)
    with pytest.raises(ParameterError):
        discretize_bath(law, 3, 1.0)
    with pytest.raises(ParameterError):
        discretize_bath(law, 3, 0.5)


def test_zero_coupling_is_fully_decoupled():
    bath = discretize_bath(SpectralLaw(0.0, 1.0, 1.0), 3, 2.0)
    assert all(lam == 0.0 for lam in bath.lams) and all(q == 0.0 for q in bath.qs)
    assert bath.sum_q2 == 0.0
    assert bath.sum_wq2 == 0.0
    assert e_min_eo(bath) == 0.0


def test_single_bin_carries_the_full_weight():
    # Analytic: (1/pi) * int_0^1 2*pi*0.1*w dw = 0.1.
    law = SpectralLaw(0.1, 1.0, 1.0)
    bath = discretize_bath(law, 1, math.inf)
    lam2 = bath.lams[0] ** 2
    assert lam2 == pytest.approx(0.1, abs=1e-14)
    assert lam2 == pytest.approx(total_weight_quad(law, 0.0, 1.0), abs=1e-12)


@pytest.mark.parametrize("s", [0.5, 1.0, 1.7])
@pytest.mark.parametrize("lam_disc,n_modes", [(2.0, 12), (1.5, 25), (4.0, 8)])
def test_weight_conservation_over_covered_range(s, lam_disc, n_modes):
    law = SpectralLaw(0.3, s, 1.5)
    bath = discretize_bath(law, n_modes, lam_disc)
    total = math.fsum(lam ** 2 for lam in bath.lams)
    lowest_edge = law.omega_c * lam_disc ** -n_modes
    closed = (
        2.0 * law.alpha * law.omega_c ** (1.0 - s)
        * (law.omega_c ** (s + 1.0) - lowest_edge ** (s + 1.0)) / (s + 1.0)
    )
    assert total == pytest.approx(closed, rel=1e-12)
    assert total == pytest.approx(
        total_weight_quad(law, lowest_edge, law.omega_c), rel=1e-10
    )


@pytest.mark.parametrize("s", [0.5, 1.0])
def test_weight_conservation_full_integral(s):
    # With 40 octave bins the uncovered tail is ~2**(-40*(s+1)), far below
    # the 1e-10 relative tolerance against the full continuum integral.
    law = SpectralLaw(0.1, s, 1.0)
    bath = discretize_bath(law, 40, 2.0)
    total = math.fsum(lam ** 2 for lam in bath.lams)
    assert total == pytest.approx(total_weight_quad(law, 0.0, 1.0), rel=1e-10)


def test_sum_wq2_approaches_continuum_with_more_modes():
    law = SpectralLaw(0.1, 1.0, 1.0)
    target = -e_min_eo_continuum(law)  # alpha*omega_c/(2s) = 0.05
    assert target == 0.05
    err = {n: abs(discretize_bath(law, n, 2.0).sum_wq2 - target) for n in (2, 10, 40)}
    assert err[40] < err[10] < err[2]
    assert err[40] < 2e-3  # remaining bias is the finite bin width at Lambda=2


def test_e_min_eo_converges_monotonically_on_lambda_ladder():
    law = SpectralLaw(0.1, 1.0, 1.0)
    target = e_min_eo_continuum(law)
    errors = [
        abs(e_min_eo(discretize_bath(law, 120, lam_disc)) - target)
        for lam_disc in (4.0, 2.0, 1.5, 1.25)
    ]
    assert all(a > b for a, b in zip(errors, errors[1:]))


def test_e_min_eo_single_mode():
    bath = bath_from_modes([(1.0, 1.0)])
    assert e_min_eo(bath) == -0.25


def test_e_min_eo_continuum_reference():
    assert e_min_eo_continuum(SpectralLaw(0.2, 0.5, 1.0)) == pytest.approx(-0.2, abs=1e-15)


def test_beta_is_alpha_invariant():
    b1 = discretize_bath(SpectralLaw(0.1, 1.0, 1.0), 40, 2.0)
    b2 = discretize_bath(SpectralLaw(0.2, 1.0, 1.0), 40, 2.0)
    assert 2.0 * b1.sum_q2 / 0.1 == pytest.approx(2.0 * b2.sum_q2 / 0.2, rel=1e-12)
    # The ladder, which alpha = 0 also bins, carries the same alpha-independent value.
    assert bath_ladder(1.0, 1.0, 40, 2.0).beta == pytest.approx(2.0 * b1.sum_q2 / 0.1, rel=1e-12)


def test_beta_two_independent_routes_agree():
    # Route 1: the implementation's closed-form bin sums.  Route 2: adaptive
    # quadrature for the per-bin weight and mean frequency.
    alpha, s, wc, n_modes, lam_disc = 0.1, 1.0, 1.0, 40, 2.0
    law = SpectralLaw(alpha, s, wc)
    beta_quad = 0.0
    for k in range(n_modes):
        hi = wc * lam_disc ** -k
        lo = wc * lam_disc ** -(k + 1)
        lam2, _ = quad(lambda w: spectral_density(law, w) / math.pi, lo, hi)
        wmean_num, _ = quad(lambda w: w * spectral_density(law, w) / math.pi, lo, hi)
        omega_k = wmean_num / lam2
        beta_quad += 2.0 * (lam2 / (4.0 * omega_k ** 2)) / alpha
    assert bath_ladder(s, wc, n_modes, lam_disc).beta == pytest.approx(beta_quad, rel=1e-10)


def test_q_definition_holds_for_every_mode():
    bath = discretize_bath(SpectralLaw(0.3, 0.7, 2.0), 25, 1.8)
    for omega, lam, q in zip(bath.omegas, bath.lams, bath.qs, strict=True):
        assert q == lam / (2.0 * omega)


def test_modes_ordered_and_within_cutoff():
    bath = discretize_bath(SpectralLaw(0.3, 0.7, 2.0), 25, 1.8)
    omegas = bath.omegas
    assert all(a > b for a, b in zip(omegas, omegas[1:]))
    assert all(0.0 < w <= 2.0 for w in omegas)


def test_bath_from_modes_validation():
    with pytest.raises(ParameterError):
        bath_from_modes([])
    with pytest.raises(ParameterError):
        bath_from_modes([(0.5, 0.1), (1.0, 0.1)])  # increasing frequency
    with pytest.raises(ParameterError):
        bath_from_modes([(-1.0, 0.0)])
    assert bath_from_modes([(1.0, 0.0)]).sum_q2 == 0.0
    law = SpectralLaw(0.2, 1.0, 1.5)
    with pytest.raises(ParameterError, match=re.escape("frequencies must lie in (0, omega_c]")):
        bath_from_modes([(2.0, 0.1), (1.0, 0.1)], law)
    pairs = [(1.5, 0.6), (0.5, 0.3)]
    qs = [lam / (2.0 * omega) for omega, lam in pairs]
    assert bath_from_modes(pairs, law).sum_q2 == math.fsum(q * q for q in qs)


@pytest.mark.parametrize("modes, bad", [
    ([(1.0,)], 0),
    ([(1.0, 0.5, 2.0)], 0),
    ([1.0], 0),
    ([("a", 0.5)], 0),
    ([(2.0, 0.1), (1.0, None)], 1),
    ([(2.0, 0.1), (True, 0.5)], 1),
])
def test_bath_from_modes_refuses_malformed_pairs(modes, bad):
    # Once a bare TypeError from the mode constructor.
    with pytest.raises(ParameterError, match=rf"^mode {bad} must be an \(omega, lam\) pair"):
        bath_from_modes(modes)


def test_deep_ladders_stay_finite():
    # Ratio-form binning must not produce zero or non-finite frequencies even
    # when bin weights underflow.
    bath = discretize_bath(SpectralLaw(0.1, 1.0, 1.0), 200, 4.0)
    assert all(w > 0.0 and math.isfinite(w) for w in bath.omegas)
    assert math.isfinite(bath.sum_wq2)


def mode_loop_bath(law, n_modes, lambda_disc):
    """Reference: the per-mode loop that binned one (omega, lam) pair at a
    time, checked by bath_from_modes, returning (omegas, lams, qs, sum_wq2,
    sum_q2)."""
    alpha, s, wc = law.alpha, law.s, law.omega_c
    r = 0.0 if math.isinf(lambda_disc) else 1.0 / lambda_disc
    w_shape = (1.0 - r ** (s + 1.0)) / (s + 1.0)
    f_shape = ((s + 1.0) * (1.0 - r ** (s + 2.0))) / ((s + 2.0) * (1.0 - r ** (s + 1.0)))
    pairs = []
    for k in range(n_modes):
        hi = wc * r ** k if k else wc
        if hi <= 0.0:
            raise ParameterError(
                f"bin edge underflowed at mode {k}; reduce n_modes or lambda_disc"
            )
        lam2 = 2.0 * alpha * wc ** (1.0 - s) * hi ** (s + 1.0) * w_shape
        pairs.append((hi * f_shape, math.sqrt(lam2)))
    bath = bath_from_modes(pairs)
    omegas, lams, qs = bath.omegas, bath.lams, bath.qs
    sum_wq2 = math.fsum(w * q * q for w, q in zip(omegas, qs))
    sum_q2 = math.fsum(q * q for q in qs)
    return omegas, lams, qs, sum_wq2, sum_q2


def bits(values):
    return [float(v).hex() for v in values]


@pytest.mark.parametrize("s", [0.05, 0.1, 0.25, 0.5, 0.75, 1.0, 1.2])
@pytest.mark.parametrize("omega_c, n_modes, lambda_disc", [
    (1.0, 30, 2.0), (1.5, 25, 1.5), (0.3, 200, 4.0), (1.0, 1, math.inf), (2.0, 3, 10.0),
])
def test_discretize_bath_is_bit_identical_to_the_mode_loop(s, omega_c, n_modes, lambda_disc):
    ladder = bath_ladder(s, omega_c, n_modes, lambda_disc)
    for alpha in (0.0, 1e-6, 0.01, 0.1, 0.37, 1.0, 2.5, 1e3):
        law = SpectralLaw(alpha, s, omega_c)
        omegas, lams, qs, sum_wq2, sum_q2 = mode_loop_bath(law, n_modes, lambda_disc)
        for bath in (discretize_bath(law, n_modes, lambda_disc), ladder.at(alpha)):
            assert bits(bath.omegas) == bits(omegas)
            assert bits(bath.lams) == bits(lams)
            assert bits(bath.qs) == bits(qs)
            assert bits([bath.sum_wq2, bath.sum_q2]) == bits([sum_wq2, sum_q2])
            assert bath.lambda_disc == lambda_disc
        if alpha == 1.0:  # beta is the ladder's: 2 * sum_q2 / alpha at alpha = 1
            assert bits([ladder.beta]) == bits([2.0 * sum_q2])


def test_alpha_0_needs_no_bath_at_alpha_1():
    # Couplings overflow at alpha = 1, so the ladder has no beta; the
    # decoupled bath at alpha = 0 does not ask for one.
    ladder = bath_ladder(0.5, 1e200, 2, 2.0)
    bath = ladder.at(0.0)
    assert bath.qs == (0.0, 0.0) and bath.sum_q2 == 0.0 and bath.sum_wq2 == 0.0
    with pytest.raises(ParameterError, match="mode coupling must be >= 0, got inf"):
        ladder.beta


@pytest.mark.parametrize("alpha", [-0.1, -math.inf, math.nan, math.inf])
def test_ladder_rejects_invalid_alpha_as_the_law_does(alpha):
    with pytest.raises(ParameterError) as law_error:
        SpectralLaw(alpha, 0.5, 1.0)
    with pytest.raises(ParameterError) as ladder_error:
        bath_ladder(0.5, 1.0, 3, 2.0).at(alpha)
    assert str(ladder_error.value) == str(law_error.value)
    assert str(ladder_error.value).startswith("alpha must satisfy alpha >= 0")


@pytest.mark.parametrize("law, n_modes, lambda_disc", [
    (SpectralLaw(0.1, 1.0, 1.0), 1100, 2.0),  # bin edge underflows at mode 1075
    (SpectralLaw(1e300, 1.0, 1e10), 3, 2.0),  # squared coupling overflows to inf
])
def test_discretize_bath_errors_match_the_mode_loop(law, n_modes, lambda_disc):
    with pytest.raises(ParameterError) as old:
        mode_loop_bath(law, n_modes, lambda_disc)
    with pytest.raises(ParameterError) as new:
        discretize_bath(law, n_modes, lambda_disc)
    assert str(new.value) == str(old.value)


def test_ladder_stack_rescales_every_row_as_at_does():
    # Rows of several ladders at their own alphas, in one array pass: each
    # row's couplings, displacements and sum_q2 must carry the bits of the
    # mode loop, and a row whose couplings overflow must get its error.
    rng = np.random.default_rng(7)
    params = [(float(s), float(wc), float(lam))
              for s, wc, lam in zip(rng.uniform(0.05, 1.2, 12), rng.uniform(0.2, 3.0, 12),
                                    rng.uniform(1.2, 5.0, 12))]
    params.append((1.0, 1e153, 2.0))  # couplings overflow from alpha ~ 240
    ladders = [bath_ladder(s, wc, 40, lam) for s, wc, lam in params]
    stack = LadderStack(ladders)
    failed = 0
    for _ in range(40):
        rows = sorted(rng.choice(len(ladders), size=int(rng.integers(1, 14)), replace=False))
        alphas = (10.0 ** rng.uniform(-6.0, 4.0, len(rows))).tolist()
        lams, qs, sums, errors = stack.at(rows, alphas)
        for i, (row, alpha) in enumerate(zip(rows, alphas)):
            s, wc, lam = params[row]
            if i in errors:
                with pytest.raises(ParameterError) as expected:
                    mode_loop_bath(SpectralLaw(alpha, s, wc), 40, lam)
                assert str(errors[i]) == str(expected.value)
                assert sums[i] is None
            else:
                _, lams_i, qs_i, _, sum_q2 = mode_loop_bath(SpectralLaw(alpha, s, wc), 40, lam)
                assert bits(lams[i]) == bits(lams_i)
                assert bits(qs[i]) == bits(qs_i)
                assert bits([sums[i]]) == bits([sum_q2])
        failed += len(errors)
    assert failed
