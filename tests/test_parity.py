"""Diagonal invariance sums, deficiency, critical dissipation, audit, and
closure counting.  Oracles: partial exponential series in exact arithmetic,
the regularized upper incomplete gamma from scipy, brentq root solving, and
brute-force table enumeration."""

import math
import random
import re
import time
from decimal import Decimal, localcontext
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq
from scipy.special import gammainc, gammaincc, gammaln

from sbparity import (
    BathLadder,
    CapacityError,
    InvariantViolation,
    ModelParams,
    ParameterError,
    SearchError,
    SpectralLaw,
    bath_from_modes,
    bath_ladder,
    closure_report,
    critical_alpha,
    critical_alphas,
    d_square_audit,
    discretize_bath,
    eigen_lowest,
    enumerate_basis,
    o_diagonal,
    parity_deficiency,
    theorem_report,
)

from sbparity import parity
from sbparity.bath import _beta
from sbparity.fockspace import l_matrix, l_scaled_rational, single_mode_d_table
from sbparity.parity import (
    MAX_CONVOLUTION_WORK,
    _deficiency,
    _log_l2_row,
    _log_o,
)

from conftest import index_of, single_mode_bath

# Single mode with q**2 = alpha/2, i.e. beta = 2*q**2/alpha = 1.
BETA_ONE_LADDER = BathLadder(s=1.0, lambda_disc=math.inf, omegas=(1.0,),
                             hi_pows=(1.0,), wc_pow=1.0, w_shape=1.0)


def _log_sum_exp(logs):
    shift = float(np.max(logs))
    if shift == float("-inf"):
        return shift
    return shift + math.log(float(np.sum(np.exp(logs - shift))))


def series_log_l2_row(m, q, n_tr):
    """log L(m, n; q)**2 as one row, with the vacuum row (m = 0, q != 0) the
    partial exponential series mu**n / n!, mu = 4 q**2."""
    if m == 0 and q != 0.0:
        n = np.arange(n_tr + 1, dtype=float)
        return n * math.log(4.0 * q * q) - gammaln(n + 1.0)
    return _log_l2_row(m, q, n_tr)


# ---------------------------------------------------------------------------
# o_diagonal
# ---------------------------------------------------------------------------

def test_o_partial_series_small_case():
    # q = 0.5: O at the vacuum with cap 1 is 1 + 4q**2 = 2.
    bath = single_mode_bath(1.0, 1.0)
    assert o_diagonal((0,), bath, 1) == pytest.approx(2.0, rel=1e-14)


@pytest.mark.parametrize("q", [0.1, 0.5, 0.9, 1.0])
def test_o_vacuum_is_partial_exponential_series(q):
    bath = bath_from_modes([(1.0, 2.0 * q)])
    mu = 4.0 * q * q
    term = Fraction(1)
    partial = Fraction(1)
    mu_frac = Fraction(mu)  # exact binary value of the double
    for n in range(51):
        got = o_diagonal((0,), bath, n)
        assert got == pytest.approx(float(partial), rel=1e-12)
        term = term * mu_frac / (n + 1)
        partial += term


def test_o_zero_displacement_is_one():
    bath = bath_from_modes([(1.0, 0.0), (0.5, 0.0)])
    for m in [(0, 0), (1, 0), (2, 2)]:
        assert o_diagonal(m, bath, max(m) + 1) == 1.0


def test_o_scaled_limit_reaches_one():
    bath = single_mode_bath(1.0, 1.0)  # mu = 1
    scale = math.exp(-4.0 * bath.sum_q2)
    assert scale * o_diagonal((0,), bath, 60) == pytest.approx(1.0, rel=1e-13)


def test_o_monotone_in_cap():
    bath = single_mode_bath(1.0, 1.4)
    values = [o_diagonal((2,), bath, n) for n in range(25)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_o_general_m_matches_brute_force():
    bath = bath_from_modes([(1.0, 0.9), (0.6, 0.5)])
    cap = 6
    basis = enumerate_basis(2, cap, "per-mode")
    for m in [(0, 0), (1, 0), (2, 1)]:
        brute = math.fsum(l_matrix(basis, bath)[index_of(basis, m)] ** 2)
        assert o_diagonal(m, bath, cap) == pytest.approx(brute, rel=1e-12)


def test_o_total_quanta_matches_brute_force():
    bath = bath_from_modes([(1.0, 0.9), (0.6, 0.5)])
    cap = 5
    basis = enumerate_basis(2, cap, "total-quanta")
    for m in [(0, 0), (1, 1)]:
        brute = math.fsum(l_matrix(basis, bath)[index_of(basis, m)] ** 2)
        assert o_diagonal(m, bath, cap, policy="total-quanta") == pytest.approx(
            brute, rel=1e-12
        )


def exact_l2(m, n, q):
    """L(m, n; q)**2 as an exact rational."""
    return l_scaled_rational(m, n, q) ** 2 * math.factorial(m) * math.factorial(n)


@pytest.mark.parametrize("m", [1, 2, 3, 4, 5])
@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(3, 2), Fraction(3)])
def test_o_and_deficiency_at_excited_reference_match_exact_row_sums(m, q):
    bath = bath_from_modes([(1.0, 2.0 * float(q))])
    scale = math.exp(-4.0 * float(q) ** 2)
    for n_tr in (m, 20, 60):
        exact = sum(exact_l2(m, n, q) for n in range(n_tr + 1))
        assert o_diagonal((m,), bath, n_tr) == pytest.approx(float(exact), rel=1e-12)
        assert parity_deficiency(bath, n_tr, (m,)) == pytest.approx(
            1.0 - scale * float(exact), abs=1e-12
        )


@pytest.mark.parametrize(
    "policy, n_modes",
    [("per-mode", 2), ("total-quanta", 2), ("total-quanta", 3)],
    ids=["per-mode", "total-quanta", "total-quanta-3-modes"],
)
def test_two_mode_deficiency_matches_exact_sums(policy, n_modes):
    # q = lam / (2 omega), chosen so that every float q is exact.
    q = (Fraction(3, 2), Fraction(3), Fraction(1, 2))[:n_modes]
    bath = bath_from_modes([(1.0, 3.0), (0.5, 3.0), (0.25, 0.25)][:n_modes])
    assert [Fraction(qk) for qk in bath.qs] == list(q)
    scale = math.exp(-4.0 * bath.sum_q2)
    n_tr = 24
    basis = enumerate_basis(n_modes, n_tr, policy)
    refs = [(1, 0), (0, 2), (5, 3)] if n_modes == 2 else [(1, 0, 0), (0, 2, 1), (5, 3, 2)]
    for m in refs:
        rows = [[exact_l2(mk, n, qk) for n in range(n_tr + 1)] for mk, qk in zip(m, q)]
        exact = sum(math.prod((row[nk] for row, nk in zip(rows, n)), start=Fraction(1))
                    for n in basis.occupations)
        assert o_diagonal(m, bath, n_tr, policy) == pytest.approx(float(exact), rel=1e-12)
        assert parity_deficiency(bath, n_tr, m, policy) == pytest.approx(
            1.0 - scale * float(exact), abs=1e-12
        )


def _log_o_enumerated(m, bath, cap):
    """log O under a total-quanta cap by summing over the enumerated basis."""
    occ = enumerate_basis(bath.n_modes, cap, "total-quanta").occupations
    log_prod = np.zeros(occ.shape[0])
    for k, q in enumerate(bath.qs):
        log_prod += series_log_l2_row(m[k], q, cap)[occ[:, k]]
    return _log_sum_exp(log_prod)


def test_total_quanta_convolution_matches_enumeration():
    rng = np.random.default_rng(20131)
    for _ in range(150):
        n_modes = int(rng.integers(1, 6))
        cap = int(rng.integers(0, 12))
        omegas = sorted(rng.uniform(0.1, 1.0, n_modes), reverse=True)
        bath = bath_from_modes([(w, 2.0 * w * rng.uniform(0.0, 1.7)) for w in omegas])
        m = tuple(int(v) for v in rng.integers(0, 4, n_modes))
        got, ref = _log_o(m, bath, cap, "total-quanta"), _log_o_enumerated(m, bath, cap)
        if ref == -math.inf:  # the reference lies beyond the cap
            assert got == ref
        else:
            assert abs(got - ref) <= 1e-13 * max(1.0, abs(ref))


@pytest.mark.parametrize("alpha", [0.01, 0.1, 0.3, 1.0, 3.0])
def test_total_quanta_vacuum_deficiency_is_incomplete_gamma(alpha):
    # By the multinomial theorem the vacuum sum over |n| <= N is the partial
    # exponential series in mu = 4 * sum_q2, so 1 - deficiency = Q(N+1, mu).
    bath = discretize_bath(SpectralLaw(alpha, 1.0, 1.0), 30, 2.0)
    mu = 4.0 * bath.sum_q2
    deficiency = parity_deficiency(bath, 20, policy="total-quanta")
    assert abs(1.0 - deficiency - gammaincc(21, mu)) <= 1e-14 * max(1.0, mu)


def test_total_quanta_sum_beyond_work_guard_is_refused():
    bath = discretize_bath(SpectralLaw(0.2, 1.0, 1.0), 30, 2.0)
    cap = 100_000
    assert 29 * (cap + 1) ** 2 > MAX_CONVOLUTION_WORK
    with pytest.raises(CapacityError, match="disc.n_modes or trunc.cap"):
        parity_deficiency(bath, cap, policy="total-quanta")
    # One mode needs no convolution at any cap.
    assert parity_deficiency(bath_from_modes([(1.0, 1.0)]), cap, policy="total-quanta") == 0.0


def test_o_capped_out_reference_state_at_zero_displacement():
    # With q = 0 the only contribution is n == m; capping it out removes
    # the state entirely from the truncated resolution.
    bath = bath_from_modes([(1.0, 0.0)])
    assert o_diagonal((3,), bath, 1) == 0.0
    assert parity_deficiency(bath, 1, (3,)) == 1.0


def test_o_overflows_to_inf():
    bath = bath_from_modes([(1.0, 2.0 * math.sqrt(1000.0))])  # 4q^2 = 4000
    assert o_diagonal((0,), bath, 300) == math.inf
    # The scaled combination stays finite in log space.
    assert 0.0 <= parity_deficiency(bath, 300) <= 1.0


def per_row_log_o(m, bath, n_tr):
    """Reference per-mode log O: one log-sum-exp per mode, each row on its own."""
    return math.fsum(_log_sum_exp(series_log_l2_row(mk, q, n_tr)) for mk, q in zip(m, bath.qs))


@pytest.mark.parametrize("seed", range(40))
def test_per_mode_log_o_is_bit_identical_to_the_per_row_sum(seed):
    # Random baths of 1-40 modes with some decoupled (q = 0) modes, caps
    # 0-60 and excited references: the batched vacuum rows must not move a
    # single bit, since the phase-diagram bytes rest on them.
    rng = np.random.default_rng(seed)
    for _ in range(5):
        n_modes = int(rng.integers(1, 41))
        cap = int(rng.integers(0, 61))
        omegas = np.sort(rng.uniform(0.01, 2.0, n_modes))[::-1]
        q = rng.uniform(0.0, 3.0, n_modes) * (rng.random(n_modes) > 0.2)
        bath = bath_from_modes(list(zip(omegas, 2.0 * omegas * q)))
        m = tuple(int(v) for v in rng.integers(0, cap + 1, n_modes) * (rng.random(n_modes) < 0.3))
        assert _log_o(m, bath, cap, "per-mode") == per_row_log_o(m, bath, cap)


def per_row_convolved_log_o(m, bath, n_tr):
    """Reference total-quanta log O: each row built, scaled and convolved on its own."""
    logs, acc = [], None
    for mk, q in zip(m, bath.qs):
        row = series_log_l2_row(mk, q, n_tr)
        shift = float(np.max(row))
        if shift == -math.inf:
            return shift
        w = np.exp(row - shift)
        acc = w if acc is None else np.convolve(acc, w)[: n_tr + 1]
        top = float(np.max(acc))
        if top == 0.0:
            return -math.inf
        acc /= top
        logs += (shift, math.log(top))
    logs.append(math.log(float(np.sum(acc))))
    return math.fsum(logs)


@pytest.mark.parametrize("seed", range(10))
def test_total_quanta_log_o_is_bit_identical_to_the_per_row_convolution(seed):
    # The rows of both policies come from one array; the total-quanta bytes
    # must not move either.
    rng = np.random.default_rng(1000 + seed)
    for _ in range(5):
        n_modes = int(rng.integers(1, 31))
        cap = int(rng.integers(0, 41))
        omegas = np.sort(rng.uniform(0.01, 2.0, n_modes))[::-1]
        q = rng.uniform(0.0, 3.0, n_modes) * (rng.random(n_modes) > 0.2)
        bath = bath_from_modes(list(zip(omegas, 2.0 * omegas * q)))
        m = tuple(int(v) for v in rng.integers(0, 4, n_modes) * (rng.random(n_modes) < 0.3))
        assert _log_o(m, bath, cap, "total-quanta") == per_row_convolved_log_o(m, bath, cap)


@pytest.mark.parametrize("seed", range(8))
def test_stacked_log_o_is_bit_identical_per_bath(seed):
    # One array over many baths, as a lockstep search round builds it: each
    # bath's log O must carry the bits it has alone.  1-30 modes, caps 5-60,
    # references 0-3, decoupled modes.
    rng = np.random.default_rng(500 + seed)
    policy = ("per-mode", "total-quanta")[seed % 2]
    for _ in range(6):
        n_modes = int(rng.integers(1, 31))
        cap = int(rng.integers(5, 61 if policy == "per-mode" else 31))
        m = (int(rng.integers(0, 4)),) + tuple(
            int(v) for v in rng.integers(0, 4, n_modes - 1) * (rng.random(n_modes - 1) < 0.1))
        omegas = np.sort(rng.uniform(0.01, 2.0, n_modes))[::-1]
        baths = [bath_from_modes(list(zip(omegas, 2.0 * omegas * q)))
                 for q in rng.uniform(0.0, 3.0, (20, n_modes)) * (rng.random((20, n_modes)) > 0.1)]
        got = parity._LogO(m, n_modes, cap, policy)(np.array([bath.qs for bath in baths]))
        reference = per_row_log_o if policy == "per-mode" else per_row_convolved_log_o
        assert got == [reference(m, bath, cap) for bath in baths]


@pytest.mark.parametrize("policy", ["per-mode", "total-quanta"])
def test_mixed_stack_log_o_keeps_each_bath_bits(policy):
    # One call over ordinary baths and four special ones: a decoupled vacuum
    # mode, a decoupled excited last mode, O = 0 (q = 0 under the reference
    # 25 the cap of 20 leaves out) and a 4 q**2 that overflows (NaN).  The
    # mask, the (n, baths, modes) layout and the -inf test meet all four;
    # the -inf and the NaN must stay on their own rows.
    rng = np.random.default_rng(7)
    m, cap = (0, 25, 0, 0, 0, 2), 20
    qs = rng.uniform(0.1, 3.0, (16, 6))
    special = {3: (0, 0.0), 6: (5, 0.0), 9: (1, 0.0), 12: (2, 1e155)}  # bath: (mode, q)
    for i, (k, q) in special.items():
        qs[i, k] = q
    got = parity._LogO(m, 6, cap, policy)(qs)
    reference = per_row_log_o if policy == "per-mode" else per_row_convolved_log_o
    for i, row in enumerate(qs.tolist()):
        if i == 12:
            assert math.isnan(got[i])
        else:
            assert got[i] == reference(m, SimpleNamespace(qs=row), cap), i
    assert [i for i, v in enumerate(got) if v == -math.inf] == [9]
    assert [i for i, v in enumerate(got) if math.isnan(v)] == [12]


@pytest.mark.parametrize("cap, m_last", [(127, 3), (128, 3), (129, 3), (170, 3), (1000, 0)])
def test_per_mode_log_o_stays_bit_identical_past_the_pairwise_block(cap, m_last):
    # numpy sums a row pairwise in blocks of 128; excited rows stop at the
    # factorial guard of 170.
    bath = discretize_bath(SpectralLaw(2.0, 0.5, 1.0), 12, 2.0)
    m = (0,) * 11 + (m_last,)
    assert _log_o(m, bath, cap, "per-mode") == per_row_log_o(m, bath, cap)


def test_o_validation():
    bath = single_mode_bath()
    with pytest.raises(ParameterError):
        o_diagonal((0, 0), bath, 3)
    with pytest.raises(ParameterError):
        o_diagonal((0,), bath, -1)
    with pytest.raises(ParameterError, match="unknown truncation policy 'fancy'"):
        o_diagonal((0,), bath, 3, policy="fancy")
    # Named as such, not as a basis that m_ref falls outside.
    with pytest.raises(ParameterError, match="unknown truncation policy 'fancy'"):
        critical_alpha(bath_ladder(0.5, 1.0, 2, 2.0), 5, m_ref=(6, 0), policy="fancy")


# ---------------------------------------------------------------------------
# parity_deficiency
# ---------------------------------------------------------------------------

def test_deficiency_zero_at_zero_coupling():
    bath = discretize_bath(SpectralLaw(0.0, 0.5, 1.0), 10, 2.0)
    assert parity_deficiency(bath, 5) == 0.0


def test_deficiency_closed_form_value():
    # 4q**2 = 1 and cap 1: 1 - exp(-1) * (1 + 1).
    bath = single_mode_bath(1.0, 1.0)
    assert parity_deficiency(bath, 1) == pytest.approx(
        1.0 - 2.0 * math.exp(-1.0), abs=1e-12
    )


def test_deficiency_matches_poisson_cdf_product():
    # Oracle: the scaled per-mode factors are regularized upper incomplete
    # gamma values Q(N+1, 4q**2); the implementation sums series in log space.
    bath = discretize_bath(SpectralLaw(0.4, 0.6, 1.0), 8, 2.0)
    for cap in (1, 3, 10):
        oracle = 1.0 - math.prod(
            float(gammaincc(cap + 1, 4.0 * q ** 2)) for q in bath.qs
        )
        assert parity_deficiency(bath, cap) == pytest.approx(oracle, abs=1e-10)


def test_deficiency_monotone_in_alpha():
    values = [
        parity_deficiency(discretize_bath(SpectralLaw(a, 0.5, 1.0), 12, 2.0), 8)
        for a in np.linspace(0.0, 2.0, 15)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_deficiency_bounds():
    for alpha in (0.0, 0.3, 5.0, 100.0):
        bath = discretize_bath(SpectralLaw(alpha, 0.7, 1.0), 10, 2.0)
        for cap in (0, 2, 20):
            value = parity_deficiency(bath, cap)
            assert 0.0 <= value <= 1.0


def test_deficiency_general_m_consistent_with_brute_force():
    bath = bath_from_modes([(1.0, 0.8), (0.5, 0.3)])
    cap = 8
    m = (1, 2)
    basis = enumerate_basis(2, cap, "per-mode")
    brute = 1.0 - math.exp(-4.0 * bath.sum_q2) * math.fsum(
        l_matrix(basis, bath)[index_of(basis, m)] ** 2
    )
    assert parity_deficiency(bath, cap, m) == pytest.approx(brute, abs=1e-12)


# ---------------------------------------------------------------------------
# critical_alpha
# ---------------------------------------------------------------------------

def test_critical_alpha_single_mode_analytic_case():
    # With beta = 1 and cap 1 the condition reads 1 - exp(-x)(1 + x) = eps at
    # x = 2*alpha; brentq on that scalar equation is the oracle.
    oracle_x = brentq(lambda x: 1.0 - math.exp(-x) * (1.0 + x) - 0.01, 1e-8, 5.0,
                      xtol=1e-15)
    point = critical_alpha(BETA_ONE_LADDER, n_tr=1, epsilon=0.01)
    assert point.alpha_c == pytest.approx(oracle_x / 2.0, abs=1e-8)
    assert point.alpha_c == pytest.approx(0.0742773701266329, abs=1e-8)
    assert point.beta == pytest.approx(1.0, rel=1e-12)
    # The deficiency at the root sits on epsilon.
    assert parity_deficiency(BETA_ONE_LADDER.at(point.alpha_c), 1) == pytest.approx(
        0.01, abs=1e-10
    )


def test_critical_alpha_monotone_in_cap():
    ladder = bath_ladder(0.5, 1.0, 30, 2.0)
    values = [
        critical_alpha(ladder, n_tr=n, epsilon=0.01).alpha_c
        for n in (5, 10, 20, 40)
    ]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_critical_alpha_monotone_in_epsilon():
    ladder = bath_ladder(0.7, 1.0, 20, 2.0)
    a_small = critical_alpha(ladder, n_tr=10, epsilon=0.005).alpha_c
    a_large = critical_alpha(ladder, n_tr=10, epsilon=0.05).alpha_c
    assert a_large >= a_small


def test_critical_alpha_grows_as_epsilon_approaches_one():
    point_mid = critical_alpha(BETA_ONE_LADDER, n_tr=1, epsilon=0.5)
    point_high = critical_alpha(BETA_ONE_LADDER, n_tr=1, epsilon=1.0 - 1e-9)
    assert point_high.alpha_c > point_mid.alpha_c > 0.0


def test_critical_alpha_reports_search_failure():
    # A huge cap keeps the deficiency near zero for every alpha below the
    # search ceiling, so no bracket exists.
    with pytest.raises(SearchError):
        critical_alpha(bath_ladder(1.0, 1.0, 1, 2.0), n_tr=40_000, epsilon=0.5)


@pytest.mark.parametrize("epsilon", [1e-4, 1e-6, 1e-8, 1e-9, 1e-10, 1e-12, 1e-14])
def test_critical_alpha_meets_a_relative_tolerance_or_refuses(epsilon):
    # A fixed absolute stopping tolerance of 1e-10 once returned the same
    # alpha_c, with deficiency ~1e-14, for every epsilon from 1e-10 down.
    ladder = bath_ladder(1.0, 1.0, 30, 2.0)
    m_ref = (2,) + (0,) * 29
    try:
        point = critical_alpha(ladder, n_tr=20, epsilon=epsilon, m_ref=m_ref)
    except SearchError as exc:
        # Here 1 - exp(x) resolves the deficiency to a few 1e-15 only.
        assert epsilon < 1e-4
        assert "bisection stalled" in str(exc)
        return
    bath = discretize_bath(SpectralLaw(point.alpha_c, 1.0, 1.0), 30, 2.0)
    deficiency = parity_deficiency(bath, 20, m_ref)
    assert abs(deficiency - epsilon) <= 1e-6 * epsilon


def test_critical_alpha_validation():
    ladder = bath_ladder(0.5, 1.0, 5, 2.0)
    with pytest.raises(ParameterError):
        critical_alpha(ladder, n_tr=5, epsilon=0.0)
    with pytest.raises(ParameterError):
        critical_alpha(ladder, n_tr=5, epsilon=1.0)
    for epsilon in (None, "0.1"):
        message = f"epsilon must lie in (0, 1), got {epsilon}"
        with pytest.raises(ParameterError, match=re.escape(message)):
            critical_alpha(ladder, n_tr=5, epsilon=epsilon)
    with pytest.raises(ParameterError):
        critical_alpha(bath_ladder(-1.0, 1.0, 5, 2.0), n_tr=5, epsilon=0.01)


@pytest.mark.parametrize("policy, m_ref", [("per-mode", (3, 0)), ("total-quanta", (2, 1))])
def test_critical_alpha_refuses_reference_outside_basis(policy, m_ref):
    # At alpha -> 0 such a reference has deficiency 1, so no root is sought.
    ladder = bath_ladder(0.8, 1.0, 2, 2.0)
    with pytest.raises(ParameterError, match="parity.m_ref .*trunc.cap"):
        critical_alpha(ladder, n_tr=2, m_ref=m_ref, policy=policy)
    inside = (2, 0) if policy == "per-mode" else (1, 1)
    assert critical_alpha(ladder, n_tr=2, m_ref=inside, policy=policy).alpha_c > 0.0


@pytest.mark.parametrize("m_ref", [0, 2, 2.0, (0.0, 1.0), ("0", "1"), "01", [None, 0]])
def test_reference_occupation_must_be_a_sequence_of_integers(m_ref):
    # The integer shorthand is the CLI's; the library names the form it takes.
    ladder = bath_ladder(0.5, 1.0, 2, 2.0)
    with pytest.raises(ParameterError, match="must be a sequence of 2 integers, got "):
        critical_alpha(ladder, 10, 0.01, m_ref)
    with pytest.raises(ParameterError, match="must be a sequence of 2 integers"):
        parity_deficiency(ladder.at(0.1), 10, m_ref)
    assert critical_alpha(ladder, 10, 0.01, np.array([0, 1])).m_ref == (0, 1)


LADDER = bath_ladder(0.5, 1.0, 2, 2.0)


def _three_level_branch():
    """The even branch of one decoupled mode at cap 2 and delta 3:
    diag(-1.5, 2.5, 0.5), out of order."""
    bath = bath_from_modes([(1.0, 0.0)])
    return ModelParams(3.0, bath, enumerate_basis(1, 2, "per-mode")).branches[0]


BOOL_SLIPS = {
    "discretize_bath-n_modes": (lambda: discretize_bath(SpectralLaw(0.1, 1.0, 1.0), True, 2.0),
                                "n_modes must be an integer >= 1, got True"),
    "bath_ladder-n_modes": (lambda: bath_ladder(0.5, 1.0, True, 2.0),
                            "n_modes must be an integer >= 1, got True"),
    "closure_report-n_modes": (lambda: closure_report(True, 4),
                               "n_modes must be an integer >= 1, got True"),
    "closure_report-n_tr": (lambda: closure_report(2, True), "n_tr must be an integer >= 0, got True"),
    "o_diagonal-cap": (lambda: o_diagonal((0, 0), LADDER.at(0.1), True),
                       "truncation cap must be an integer >= 0, got True"),
    "parity_deficiency-cap": (lambda: parity_deficiency(LADDER.at(0.1), True),
                              "truncation cap must be an integer >= 0, got True"),
    "critical_alpha-cap": (lambda: critical_alpha(LADDER, True),
                           "truncation cap must be an integer >= 0, got True"),
    "critical_alphas-cap": (lambda: critical_alphas([LADDER], True),
                            "truncation cap must be an integer >= 0, got True"),
    "critical_alpha-m_ref": (lambda: critical_alpha(LADDER, 10, 0.01, (True, 0)),
                             "must be a sequence of 2 integers, got (True, 0)"),
    "parity_deficiency-m_ref": (lambda: parity_deficiency(LADDER.at(0.1), 10, [0, False]),
                                "must be a sequence of 2 integers, got [0, False]"),
    "eigen_lowest-k": (lambda: eigen_lowest(_three_level_branch(), True, 1e-10),
                       "k must lie in [1, 3], got True"),
    "eigen_lowest-float-k": (lambda: eigen_lowest(_three_level_branch(), 2.5, 1e-10),
                             "k must lie in [1, 3], got 2.5"),
    "eigen_lowest-max_iter": (lambda: eigen_lowest(_three_level_branch(), 1, 1e-10, True),
                              "max_iter must be >= 1, got True"),
    "eigen_lowest-float-max_iter": (lambda: eigen_lowest(_three_level_branch(), 1, 1e-10, 2.5),
                                    "max_iter must be >= 1, got 2.5"),
}


@pytest.mark.parametrize("call, message", BOOL_SLIPS.values(), ids=BOOL_SLIPS)
def test_a_bool_is_not_a_count(call, message):
    # Once True ran as 1: a 1-mode bath, ratio 1/2, cap 1, m_ref (1, 0).  A
    # float ran truncated, or as itself where only a comparison read it.
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


def _small_model(delta=0.1):
    return ModelParams(delta, LADDER.at(0.1), enumerate_basis(2, 3, "per-mode"))


BOOL_NUMBERS = {
    "ModelParams-delta": (lambda: _small_model(True),
                          "delta must satisfy delta >= 0 (use the branch-swap identity for "
                          "negative tunneling), got True"),
    "SpectralLaw-alpha": (lambda: SpectralLaw(True, 0.5, 1.0),
                          "alpha must satisfy alpha >= 0, got True"),
    "SpectralLaw-s": (lambda: SpectralLaw(0.1, True, 1.0), "s must satisfy s > 0, got True"),
    "SpectralLaw-omega_c": (lambda: SpectralLaw(0.1, 0.5, True),
                            "omega_c must satisfy omega_c > 0, got True"),
    "bath_ladder-s": (lambda: bath_ladder(True, 1.0, 3, 2.0), "s must satisfy s > 0, got True"),
    "bath_ladder-omega_c": (lambda: bath_ladder(0.5, True, 3, 2.0),
                            "omega_c must satisfy omega_c > 0, got True"),
    "BathLadder.at-alpha": (lambda: LADDER.at(True), "alpha must satisfy alpha >= 0, got True"),
    "eigen_lowest-tol": (lambda: eigen_lowest(_three_level_branch(), 1, True),
                         "tol must be > 0, got True"),
    "theorem_report-tol": (lambda: theorem_report(_small_model(), tol=True),
                           "tol must be > 0, got True"),
}


@pytest.mark.parametrize("call, message", BOOL_NUMBERS.values(), ids=BOOL_NUMBERS)
def test_a_bool_is_not_a_number(call, message):
    # Once True ran as 1.0: a delta, an alpha, an s or omega_c of 1, and a
    # solve at tol 1.
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


def test_a_numpy_float_is_a_number():
    law = SpectralLaw(np.float64(0.1), np.float64(0.5), np.float64(1.0))
    assert discretize_bath(law, 3, 2.0) == discretize_bath(SpectralLaw(0.1, 0.5, 1.0), 3, 2.0)
    assert LADDER.at(np.float64(0.1)) == LADDER.at(0.1)
    assert _small_model(np.float64(0.1)).delta == 0.1
    branch = _three_level_branch()
    assert np.array_equal(eigen_lowest(branch, 2, np.float64(1e-10)).values, [-1.5, 0.5])


def _basis_of(n):
    basis = enumerate_basis(n(2), n(3), "total-quanta")
    return basis.cap, type(basis.cap), basis.occupations.tolist()


def _closure_of(n):
    # (n_tr + 1)**n_modes wraps in int64 here.
    report = closure_report(n(30), n(20))
    return report, type(report.independent_equations)


NUMPY_COUNTS = {
    "enumerate_basis": _basis_of,
    "discretize_bath": lambda n: discretize_bath(SpectralLaw(0.1, 0.5, 1.0), n(3), 2.0),
    "bath_ladder": lambda n: bath_ladder(0.5, 1.0, n(3), 2.0),
    "closure_report": _closure_of,
    "o_diagonal": lambda n: o_diagonal((0, 1), LADDER.at(0.1), n(5), "total-quanta"),
    "parity_deficiency": lambda n: parity_deficiency(LADDER.at(0.1), n(5)),
    "critical_alpha": lambda n: critical_alpha(LADDER, n(5)),
    "critical_alphas": lambda n: critical_alphas([LADDER, LADDER], n(5)),
    "eigen_lowest": lambda n: eigen_lowest(_three_level_branch(), n(2), 1e-10, n(5)
                                           ).values.tolist(),
}


@pytest.mark.parametrize("call", NUMPY_COUNTS.values(), ids=NUMPY_COUNTS)
def test_a_numpy_integer_is_a_count(call):
    # A numpy integer runs as the Python int of the same value.
    assert call(np.int64) == call(int)


REFUSALS = {
    "o_diagonal-cap": (lambda: o_diagonal((0, 0), LADDER.at(0.1), 1_000_001),
                       "truncation cap 1000001 exceeds the series guard of 1000000"),
    "critical_alpha-cap": (lambda: critical_alpha(LADDER, 1_000_001),
                           "truncation cap 1000001 exceeds the series guard of 1000000"),
    "parity_deficiency-negative-m": (lambda: parity_deficiency(LADDER.at(0.1), 10, (0, -1)),
                                     "occupations must be >= 0, got -1"),
    "critical_alpha-negative-m": (lambda: critical_alpha(LADDER, 10, 0.01, (-2, 0)),
                                  "occupations must be >= 0, got -2"),
    "parity_deficiency-m-above-170": (lambda: parity_deficiency(LADDER.at(0.1), 200, (171, 0)),
                                      "reference occupation 171 exceeds the guard of 170"),
    "critical_alpha-m-above-170": (lambda: critical_alpha(LADDER, 200, 0.01, (0, 171)),
                                   "reference occupation 171 exceeds the guard of 170"),
}


@pytest.mark.parametrize("call, message", REFUSALS.values(), ids=REFUSALS)
def test_caps_and_occupations_out_of_range_are_refused(call, message):
    with pytest.raises(ParameterError, match=re.escape(message)):
        call()


# At alpha = 1, 4 * q_k**2 of its last mode (1.5e308) overflows a double.
OVERFLOWING_PARITY_SUM = bath_ladder(0.01, 1.0, 3, 3.1622776601683794e155)


@pytest.mark.filterwarnings("error::RuntimeWarning")  # once two, from _LogO
def test_search_refuses_a_point_whose_parity_sum_overflows():
    # log O is NaN there, and the NaN deficiency once returned alpha_c = 1.
    # In a sweep it ends the search, after a refused rescale of the same round.
    message = "4 * q_k**2 overflows a double at alpha = 1.0"
    with pytest.raises(ParameterError, match=re.escape(message)):
        critical_alpha(OVERFLOWING_PARITY_SUM, 4)
    nan_coupling = BathLadder(s=1.0, lambda_disc=2.0, omegas=(1.0, 0.5, 0.25),
                              hi_pows=(1.0, math.nan, 1.0), wc_pow=1.0, w_shape=1.0)
    ladders = [bath_ladder(0.5, 1.0, 3, 2.0), OVERFLOWING_PARITY_SUM]
    with pytest.raises(ParameterError, match=re.escape(message)):
        critical_alphas(ladders, 4)
    for order in (ladders + [nan_coupling], [nan_coupling] + ladders):
        with pytest.raises(ParameterError, match="got nan"):
            critical_alphas(order, 4)
    # The bath itself is built at any alpha; only the search refuses it.
    assert math.isinf(4.0 * OVERFLOWING_PARITY_SUM.at(1.0).qs[2] ** 2)


@pytest.mark.parametrize("m_ref", [(1, 2, 0), (3, 0, 0)])
def test_critical_alpha_at_excited_reference_matches_exact_deficiency(m_ref):
    # The deficiency at the returned alpha_c, recomputed from the exact
    # rational L of every mode at the discretized q_k, sits on epsilon.
    cap, epsilon, s = 10, 0.01, 0.5
    point = critical_alpha(bath_ladder(s, 1.0, 3, 2.0), n_tr=cap, epsilon=epsilon, m_ref=m_ref)
    assert point.m_ref == m_ref
    bath = discretize_bath(SpectralLaw(point.alpha_c, s, 1.0), 3, 2.0)
    o_exact = Fraction(1)
    for mk, q in zip(m_ref, bath.qs):
        o_exact *= sum(exact_l2(mk, n, Fraction(q)) for n in range(cap + 1))
    deficiency = 1.0 - math.exp(-4.0 * sum(q ** 2 for q in bath.qs)) * float(o_exact)
    assert abs(deficiency - epsilon) <= 1e-9


def test_critical_alpha_logarithmic_form():
    point = critical_alpha(bath_ladder(0.5, 1.0, 10, 2.0), n_tr=20, epsilon=0.01)
    # ln(O)/2beta at the root differs from alpha_c exactly by ln(1-eps)/2beta.
    expected = point.alpha_c + math.log(1.0 - point.epsilon) / (2.0 * point.beta)
    assert point.ln_o_over_2beta == pytest.approx(expected, rel=1e-9)


def _decimal_vacuum_row_sum(mu: Decimal, cap: int) -> Decimal:
    """exp(-mu) * sum_{j <= cap} mu**j / j!, in the current decimal context."""
    term = total = Decimal(1)
    for j in range(1, cap + 1):
        term = term * mu / j
        total += term
    return (-mu).exp() * total


def decimal_deficiency(qs, cap: int, m_ref, policy: str) -> Decimal:
    """1 - exp(-4 * sum_q2) * O at 50 digits from the float q's: a vacuum row
    is the partial exponential series at mu = 4 q**2 (under total-quanta, the
    one series at mu = 4 * sum_q2, by the multinomial theorem) and an excited
    row is the exact rational sum of L(m, n)**2."""
    with localcontext() as ctx:
        ctx.prec = 50
        if policy == "total-quanta":
            return 1 - _decimal_vacuum_row_sum(sum(4 * Decimal(q) ** 2 for q in qs), cap)
        o_scaled = Decimal(1)
        for q, m in zip(qs, m_ref):
            mu = 4 * Decimal(q) ** 2
            if m == 0:
                o_scaled *= _decimal_vacuum_row_sum(mu, cap)
            else:
                row = sum(exact_l2(m, n, Fraction(q)) for n in range(cap + 1))
                o_scaled *= (-mu).exp() * Decimal(row.numerator) / Decimal(row.denominator)
        return 1 - o_scaled


def _alpha_c_cases(seed: int, count: int):
    """``count`` (s, omega_c, n_modes, lambda_disc, cap, epsilon, m_ref, policy)
    cases drawn from the corners of the CLI's range.  Every other per-mode
    case whose cap holds two quanta and lies under the factorial guard puts
    them on the lowest-frequency (last) mode, the excitation that moves
    alpha_c."""
    rng, excite = random.Random(seed), False
    for _ in range(count):
        s = rng.choice([0.05, 0.3, 0.5, 1.0, 1.2])
        omega_c = rng.choice([1e-3, 1.0, 1e3])
        n_modes = rng.choice([3, 8, 30])
        lambda_disc = rng.choice([1.1, 2.0, 8.0])
        cap = rng.choice([0, 5, 20, 200])
        epsilon = rng.choice([1e-6, 1e-3, 0.01, 0.5])
        policy = rng.choice(["per-mode", "total-quanta"])
        m_ref = (0,) * n_modes
        if policy == "per-mode" and 2 <= cap <= 170:
            excite = not excite
            if excite:
                m_ref = (0,) * (n_modes - 1) + (2,)
        yield s, omega_c, n_modes, lambda_disc, cap, epsilon, m_ref, policy


def _oracle_miss(s, omega_c, n_modes, lambda_disc, cap, epsilon, m_ref, policy) -> float:
    """|deficiency(alpha_c) - epsilon| at 50 digits, in units of the
    tolerance that critical_alpha promises."""
    ladder = bath_ladder(s, omega_c, n_modes, lambda_disc)
    point = critical_alpha(ladder, cap, epsilon, m_ref, policy)
    deficiency = decimal_deficiency(ladder.at(point.alpha_c).qs, cap, m_ref, policy)
    return float(abs(deficiency - Decimal(epsilon))) / min(1e-10, 1e-6 * epsilon)


def test_critical_alpha_meets_its_tolerance_against_a_50_digit_oracle():
    misses, searched = {}, 0
    for case in _alpha_c_cases(seed=5, count=48):
        try:
            miss = _oracle_miss(*case)
        except SearchError:
            continue
        searched += 1
        if miss > 1.0:
            misses[case] = miss
    assert searched >= 40
    assert misses == {}


@pytest.mark.xfail(strict=True, reason="1 - exp(log O - 4 * sum_q2) loses about "
                   "eps * 4 * sum_q2 (8.8e-13 here), so a root met to 1e-12 on the "
                   "float deficiency misses it on the true one")
def test_critical_alpha_tolerance_at_a_large_sum_q2():
    # 30 modes at per-mode cap 200: alpha_c is 702 and 4 * sum_q2 is 4007.
    # The float deficiency sits 6.2e-13 below epsilon, the true one 2.0e-12.
    assert _oracle_miss(1.0, 1.0, 30, 1.1, 200, 1e-6, (0,) * 30, "per-mode") <= 1.0


def gammaincc_alpha_c(ladder, cap: int, epsilon: float, policy: str) -> float:
    """alpha_c of the vacuum from scipy's regularized upper incomplete gamma
    Q, solved with brentq.  Per-mode the deficiency is
    1 - prod_k Q(cap + 1, 4 alpha q_k**2), with q_k the displacement at
    alpha = 1; under total-quanta it is one factor,
    1 - Q(cap + 1, 4 alpha sum_k q_k**2) (DLMF 8.4.10).  Shares no code with
    the partial series of the search."""
    mus = np.array([4.0 * q * q for q in ladder.at(1.0).qs])
    if policy == "total-quanta":
        mus = np.array([math.fsum(mus)])

    def miss(alpha):
        return 1.0 - float(np.prod(gammaincc(cap + 1, alpha * mus))) - epsilon

    return brentq(miss, 1e-12, parity.MAX_BRACKET_ALPHA, xtol=1e-300)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
@pytest.mark.parametrize("cap, policy, n_modes", [
    (1000, "per-mode", 30), (100_000, "per-mode", 30), (1000, "total-quanta", 30),
    # The largest total-quanta caps the convolution guard admits at 30 and 2 modes.
    (1312, "total-quanta", 30), (7070, "total-quanta", 2),
], ids=["1000-per-mode", "100000-per-mode", "1000-total-quanta", "1312-total-quanta-30",
        "7070-total-quanta-2"])
def test_critical_alpha_at_large_caps_meets_the_incomplete_gamma_oracle(s, cap, policy,
                                                                        n_modes):
    # log n! up to the cap comes from fockspace.log_factorials.  Agreement
    # measured 3.5e-10 (per-mode) and 5.5e-10 (total-quanta) at most.
    ladder = bath_ladder(s, 1.0, n_modes, 2.0)
    alpha_c = critical_alpha(ladder, cap, 0.01, policy=policy).alpha_c
    assert alpha_c == pytest.approx(gammaincc_alpha_c(ladder, cap, 0.01, policy), rel=1e-9)


def test_vacuum_search_takes_a_decoupled_mode_above_the_factorial_guard():
    # 511 of these 1000 couplings underflow to q = 0; their rows are 0 at
    # n = 0 and -inf beyond, with no Laguerre row and so no factorial guard.
    ladder = bath_ladder(1.2, 1.0, 1000, 2.0)
    assert sum(q == 0.0 for q in ladder.at(1.0).qs) == 511
    point = critical_alpha(ladder, 200)
    assert point.alpha_c > 0.0 and math.isfinite(point.beta)
    assert critical_alpha(ladder, 20).alpha_c == 9.969510793685913


# alpha_c follows one Poisson law at the vacuum.  Mode k's weight beyond the
# cap N is the tail T_k = P(Poisson(4 alpha q_k**2) > N) = gammainc(N + 1,
# 4 alpha q_k**2) (DLMF 8.4.10), with q_k its displacement at alpha = 1.
POISSON_CAPS = [0, 1, 10, 100, 1000]
POISSON_EPSILON = 0.01


def poisson_root(cap: int, epsilon: float) -> tuple[float, float]:
    """mu* with gammainc(cap + 1, mu*) = epsilon, and the relative error in
    a root that the search's tolerance on the deficiency allows there:
    tol / (mu* * pmf(cap; mu*)) with tol = min(1e-10, 1e-6 * epsilon), the
    tail's slope in mu being the Poisson pmf, plus 1e-14 for rounding."""
    mu = brentq(lambda m: gammainc(cap + 1, m) - epsilon, 0.0, 2.0 * cap + 10.0,
                xtol=1e-300, rtol=1e-15)
    pmf = math.exp(cap * math.log(mu) - mu - gammaln(cap + 1.0))
    return mu, min(1e-10, 1e-6 * epsilon) / (mu * pmf) + 1e-14


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("cap", POISSON_CAPS)
def test_total_quanta_alpha_c_is_the_poisson_root_over_two_beta(s, cap):
    # Under total-quanta the modes convolve into one Poisson variable of mean
    # 4 alpha sum q_k**2 = 2 alpha beta, so alpha_c = mu* / (2 beta).
    # Measured worst: 6.7e-9 at s 0.5, cap 0, against a bound of 1.0e-8.
    ladder = bath_ladder(s, 1.0, 30, 2.0)
    mu, bound = poisson_root(cap, POISSON_EPSILON)
    alpha_c = critical_alpha(ladder, cap, POISSON_EPSILON, policy="total-quanta").alpha_c
    assert abs(alpha_c / (mu / (2.0 * ladder.beta)) - 1.0) <= bound


@pytest.mark.parametrize("s", [0.3, 0.5, 1.0])
@pytest.mark.parametrize("cap", POISSON_CAPS)
def test_per_mode_alpha_c_lies_between_the_poisson_tails(s, cap):
    # Under per-mode caps the deficiency 1 - prod_k (1 - T_k) lies between
    # max_k T_k and sum_k T_k, so alpha_c lies between the root of
    # sum_k T_k = epsilon (below) and that of max_k T_k = epsilon (above),
    # each widened by the search's bound.  From cap 100 or so the largest-q
    # mode alone sets alpha_c, the bracket collapses, and at cap 1000
    # alpha_c sat 9e-11 relative above the upper root.
    ladder = bath_ladder(s, 1.0, 30, 2.0)
    q2 = np.array(ladder.at(1.0).qs) ** 2
    mu, bound = poisson_root(cap, POISSON_EPSILON)
    upper = mu / (4.0 * q2.max())
    lower = brentq(lambda a: float(np.sum(gammainc(cap + 1, 4.0 * a * q2))) - POISSON_EPSILON,
                   0.0, 2.0 * upper, xtol=1e-300, rtol=1e-15)
    alpha_c = critical_alpha(ladder, cap, POISSON_EPSILON).alpha_c
    assert lower * (1.0 - bound) <= alpha_c <= upper * (1.0 + bound)


# ---------------------------------------------------------------------------
# critical_alphas: the lockstep search against the one-point loop
# ---------------------------------------------------------------------------

def sequential_critical_alpha(ladder, n_tr, epsilon, m_ref, policy):
    """The one-point search as a plain loop over ladder.at(alpha) (reference).
    Returns (alpha_c, beta, o_value)."""
    tol = min(1e-10, 1e-6 * epsilon)
    probe = ladder.at(1.0)
    m = tuple(m_ref) if m_ref is not None else (0,) * probe.n_modes
    reference_log_o = per_row_log_o if policy == "per-mode" else per_row_convolved_log_o

    def miss(bath):
        return _deficiency(reference_log_o(m, bath, n_tr), bath.sum_q2) - epsilon

    hi = 1.0
    f_hi = miss(probe)
    while f_hi < 0.0:
        hi *= 2.0
        if hi > 1e4:
            raise SearchError(
                f"deficiency stays below epsilon={epsilon:g} for alpha up to "
                f"{1e4:g} (last value {f_hi + epsilon:.6g}); no bracket"
            )
        f_hi = miss(ladder.at(hi))
    lo = 0.0
    root = hi
    f_root = f_hi
    for _ in range(500):
        if abs(f_root) <= tol:
            break
        mid = 0.5 * (lo + hi)
        if mid <= lo or mid >= hi:
            break
        f_mid = miss(ladder.at(mid))
        if abs(f_mid) <= abs(f_root):
            root, f_root = mid, f_mid
        if f_mid < 0.0:
            lo = mid
        else:
            hi = mid
    if abs(f_root) > tol:
        raise SearchError(
            f"bisection stalled at deficiency error {f_root:.3e} "
            f"(target {tol:g}) near alpha = {root:.17g}"
        )
    bath_c = ladder.at(root)
    log_o = reference_log_o(m, bath_c, n_tr)
    try:
        o_value = math.exp(log_o)
    except OverflowError:
        o_value = math.inf
    return root, _beta(bath_c.sum_q2, root), o_value


def assert_matches_the_loop(ladders, n_tr, epsilon, m_ref, policy):
    got = critical_alphas(ladders, n_tr, epsilon, m_ref, policy)
    assert len(got) == len(ladders)
    for ladder, outcome in zip(ladders, got):
        try:
            expected = sequential_critical_alpha(ladder, n_tr, epsilon, m_ref, policy)
        except SearchError as exc:
            assert isinstance(outcome, SearchError) and str(outcome) == str(exc)
            continue
        assert (outcome.alpha_c, outcome.beta, outcome.o_value) == expected
    return got


@pytest.mark.parametrize("seed", range(12))
def test_lockstep_search_equals_the_one_point_loop(seed, monkeypatch):
    # Random sweeps, both policies, references 0-3 and lists, epsilon
    # 1e-4-0.3; chunks of 1-4 points, so most sweeps span several chunks.
    rng = np.random.default_rng(300 + seed)
    policy = ("per-mode", "total-quanta")[seed % 2]
    n_modes = int(rng.integers(1, 13))
    cap = int(rng.integers(3, 25))
    points = int(rng.integers(1, 9))
    monkeypatch.setattr(parity, "SEARCH_CHUNK_ENTRIES", int(rng.integers(1, 5)) * n_modes * (cap + 1))
    if rng.random() < 0.5:
        m_ref = (int(rng.integers(0, 4)),) + (0,) * (n_modes - 1)
    else:
        m_ref = tuple(int(v) for v in rng.integers(0, 2, n_modes))
    if policy == "total-quanta" and sum(m_ref) > cap:
        m_ref = (0,) * n_modes
    epsilon = float(10.0 ** rng.uniform(-4.0, math.log10(0.3)))
    lambda_disc = float(rng.uniform(1.5, 4.0))
    ladders = [bath_ladder(float(s), 1.0, n_modes, lambda_disc)
               for s in np.sort(rng.uniform(0.1, 1.2, points))]
    assert_matches_the_loop(ladders, cap, epsilon, m_ref, policy)


@pytest.mark.parametrize("policy", ["per-mode", "total-quanta"])
def test_lockstep_search_keeps_failed_points_beside_solved_ones(policy, monkeypatch):
    # One mode at cap 14000: no bracket below alpha = 1e4 from s ~ 0.7 on.
    monkeypatch.setattr(parity, "SEARCH_CHUNK_ENTRIES", 5 * 14001)
    ladders = [bath_ladder(float(s), 1.0, 1, 2.0) for s in np.linspace(0.1, 1.2, 12)]
    got = assert_matches_the_loop(ladders, 14000, 0.5, None, policy)
    kinds = [isinstance(outcome, SearchError) for outcome in got]
    assert any(kinds) and not all(kinds)


@pytest.mark.parametrize("m_ref", [(0, 0, 0), (0, 0, 2), (1, 0, 1)])
def test_lockstep_search_takes_a_decoupled_mode(m_ref):
    # hi_pows 0 makes the last coupling exactly 0 at every alpha.
    ladders = [BathLadder(s=1.0, lambda_disc=2.0, omegas=(0.8, 0.4, 0.2),
                          hi_pows=(1.0, h, 0.0), wc_pow=1.0, w_shape=w)
               for h, w in ((0.25, 0.3), (0.2, 0.4), (0.3, 0.25))]
    for policy in ("per-mode", "total-quanta"):
        assert_matches_the_loop(ladders, 12, 0.02, m_ref, policy)


# A single mode with q**2 = alpha whose coupling overflows from alpha = 32
# on: its search doubles past 16 at cap 450 and stops at 32.
LATE_OVERFLOW = BathLadder(s=1.0, lambda_disc=2.0, omegas=(math.sqrt(1.5e306),),
                           hi_pows=(1.0,), wc_pow=3e306, w_shape=1.0)
# A coupling that is NaN at every alpha, so the search fails in its first round.
NAN_COUPLING = BathLadder(s=1.0, lambda_disc=2.0, omegas=(1.0,),
                          hi_pows=(math.nan,), wc_pow=1.0, w_shape=1.0)
# The same with a second, sound mode.
NAN_PAIR = BathLadder(s=1.0, lambda_disc=2.0, omegas=(1.0, 0.5),
                      hi_pows=(math.nan, 1.0), wc_pow=1.0, w_shape=1.0)


# Its q is inf at alpha = 1 though its coupling is finite: log O refuses an
# excited row of it, and is NaN for its vacuum row.
INF_Q = BathLadder(s=1.0, lambda_disc=2.0, omegas=(1e-300,),
                   hi_pows=(1.0,), wc_pow=1e300, w_shape=1.0)
# Two modes, the second's 4 * q**2 past the double range at alpha = 1, and
# the same with every q inf; under m_ref (1, 0) only log O refuses the second.
NAN_LOG_O = BathLadder(s=1.0, lambda_disc=2.0, omegas=(1.0, 0.5),
                       hi_pows=(1.0, 5e307), wc_pow=1.0, w_shape=1.0)
INF_Q_PAIR = BathLadder(s=1.0, lambda_disc=2.0, omegas=(1e-300, 5e-301),
                        hi_pows=(1.0, 1.0), wc_pow=1e300, w_shape=1.0)
SOUND = bath_ladder(1.0, 1.0, 1, 2.0)
COUPLING_NAN = "mode coupling must be >= 0, got nan"
Q_INF = "displacement q must be finite and >= 0, got inf"


@pytest.mark.parametrize("ladders, cap, m_ref, message", [
    # The NaN point fails at once, the overflowing one five rounds later.
    ((SOUND, LATE_OVERFLOW, NAN_COUPLING), 450, None, COUPLING_NAN),
    ((SOUND, NAN_COUPLING, LATE_OVERFLOW), 450, None, COUPLING_NAN),
    ((LATE_OVERFLOW, NAN_COUPLING, SOUND), 450, None, COUPLING_NAN),
    # The excited row of INF_Q fails at once, whose refusal comes from log O.
    ((LATE_OVERFLOW, INF_Q), 150, (1,), Q_INF),
    ((INF_Q, LATE_OVERFLOW), 150, (1,), Q_INF),
    # In one round the rescale refuses before log O does ...
    ((INF_Q, NAN_COUPLING), 150, (1,), COUPLING_NAN),
    # ... and log O before a point's own check.
    ((NAN_LOG_O, INF_Q_PAIR), 10, (1, 0), Q_INF),
], ids=["sound-late-nan", "sound-nan-late", "late-nan-sound", "late-infq", "infq-late",
        "infq-nan", "nanlogo-infq"])
def test_lockstep_search_raises_the_first_fault_it_meets(ladders, cap, m_ref, message):
    # Each point alone raises a fault of its own; together, the fault met in
    # the earliest round ends the search, whichever point it belongs to.
    for ladder in ladders:
        if ladder is not SOUND:
            with pytest.raises(ParameterError):
                critical_alpha(ladder, cap, 0.01, m_ref)
    with pytest.raises(ParameterError, match=re.escape(message)):
        critical_alphas(list(ladders), cap, 0.01, m_ref)


def test_lockstep_search_refuses_ladders_of_different_mode_counts():
    three = bath_ladder(0.5, 1.0, 3, 2.0)
    with pytest.raises(ParameterError, match="share their mode count"):
        critical_alphas([bath_ladder(0.5, 1.0, 2, 2.0), three], 10)
    # Before any search, so also before the first ladder's own error.
    with pytest.raises(ParameterError, match="share their mode count"):
        critical_alphas([NAN_PAIR, three], 10)


def test_lockstep_search_reads_its_ladders_chunk_by_chunk(monkeypatch):
    # The working arrays stay bounded by the chunk, whatever the number of
    # points: the search takes its ladders a slice at a time, and takes none
    # after the chunk of a failed point.
    monkeypatch.setattr(parity, "SEARCH_CHUNK_ENTRIES", 3 * 2 * 11)
    chunks = []
    search_chunk = parity._search_chunk

    def recorded(chunk, *args):
        chunks.append((ladders.index(chunk[0]), len(chunk)))
        return search_chunk(chunk, *args)

    monkeypatch.setattr(parity, "_search_chunk", recorded)
    ladders = [bath_ladder(0.5 + 0.05 * i, 1.0, 2, 2.0) for i in range(10)]
    assert len(critical_alphas(ladders, 10, 0.01)) == 10
    assert chunks == [(0, 3), (3, 3), (6, 3), (9, 1)]
    chunks.clear()
    ladders[4] = NAN_PAIR
    with pytest.raises(ParameterError, match="got nan"):
        critical_alphas(ladders, 10, 0.01)
    assert chunks == [(0, 3), (3, 3)]


def test_a_chunk_raises_its_first_refused_rows_error():
    # The first refused row ends the chunk, so no empty stack reaches log O,
    # which an excited row's recurrence cannot take empty.
    log_o = parity._LogO((1,), 1, 10, "per-mode")
    inf_coupling = BathLadder(s=1.0, lambda_disc=2.0, omegas=(1.0,),
                              hi_pows=(math.inf,), wc_pow=1.0, w_shape=1.0)
    with pytest.raises(ParameterError, match="got nan"):
        parity._search_chunk([NAN_COUPLING, inf_coupling], log_o, 0.01)
    with pytest.raises(ParameterError, match="got inf"):
        parity._search_chunk([inf_coupling, NAN_COUPLING], log_o, 0.01)


def test_lockstep_search_checks_the_convolution_guard_once_per_search(monkeypatch):
    # Its work depends on the mode count and the cap alone, which every
    # ladder of a search shares, so the four chunks check it once, before
    # any ladder's own check.
    monkeypatch.setattr(parity, "SEARCH_CHUNK_ENTRIES", 3 * 2 * 11)
    calls = []
    check = parity._check_policy
    monkeypatch.setattr(parity, "_check_policy", lambda *args: calls.append(args) or check(*args))
    ladders = [bath_ladder(0.5 + 0.05 * i, 1.0, 2, 2.0) for i in range(10)]
    assert len(critical_alphas(ladders, 10, 0.01, policy="total-quanta")) == 10
    assert calls == [("total-quanta", 2, 10)]
    cap = 8000  # (2 - 1) * 8001**2 multiply-adds, above the guard
    with pytest.raises(CapacityError, match="above the guard"):
        critical_alphas([NAN_PAIR] + ladders, cap, 0.01, policy="total-quanta")
    with pytest.raises(CapacityError, match="above the guard"):
        critical_alphas(ladders + [NAN_PAIR], cap, 0.01, policy="total-quanta")


@pytest.mark.parametrize("failing", [0, 1])
@pytest.mark.parametrize("cap, m_ref, policy, error, message", [
    (20, (25, 0), "per-mode", ParameterError, "lies outside the per-mode basis"),
    (parity.MAX_SERIES_CAP + 1, None, "per-mode", ParameterError, "series guard"),
    (8000, None, "total-quanta", CapacityError, "above the guard"),
])
def test_a_shared_fault_outranks_every_ladders_own(failing, cap, m_ref, policy, error,
                                                   message):
    # Whichever ladder fails at alpha = 1, the inputs all points share are
    # checked first; once ladder 0's own error came before them.
    ladders = [bath_ladder(0.5, 1.0, 2, 2.0), bath_ladder(0.6, 1.0, 2, 2.0)]
    ladders[failing] = NAN_PAIR
    with pytest.raises(error, match=message):
        critical_alphas(ladders, cap, 0.01, m_ref, policy)


def test_the_search_builds_no_bath_per_point(monkeypatch):
    calls = []
    at = BathLadder.at
    monkeypatch.setattr(BathLadder, "at", lambda self, alpha: calls.append(alpha) or at(self, alpha))
    ladders = [bath_ladder(s, 1.0, 30, 2.0) for s in np.linspace(0.3, 1.0, 16)]
    assert len(critical_alphas(ladders, 20)) == 16
    assert calls == []


def test_lockstep_search_sets_up_once_per_search(monkeypatch):
    # The reference occupation, like every check the points share, is
    # normalized once per search: four chunks of ladders cost no more setup
    # than one ladder does.
    monkeypatch.setattr(parity, "SEARCH_CHUNK_ENTRIES", 3 * 2 * 11)
    calls = []
    normalize = parity._normalize_m
    monkeypatch.setattr(parity, "_normalize_m", lambda *args: calls.append(args) or normalize(*args))
    ladders = [bath_ladder(0.5 + 0.05 * i, 1.0, 2, 2.0) for i in range(10)]
    assert len(critical_alphas(ladders[:1], 10, 0.01, m_ref=(0, 1))) == 1
    alone = len(calls)
    calls.clear()
    swept = critical_alphas(ladders, 10, 0.01, m_ref=(0, 1))
    assert len(calls) == alone
    # So a one-shot iterable serves every ladder, not just the first.
    assert critical_alphas(ladders, 10, 0.01, m_ref=iter((0, 1))) == swept


def test_a_sweep_of_one_point_chunks_builds_log_factorials_once(monkeypatch):
    # From per-mode cap 333 at 30 modes a chunk holds one point; the table
    # of log k! up to the cap is still built once per search.
    ladders = [bath_ladder(s, 1.0, 30, 2.0) for s in (0.3, 0.5, 0.8)]
    alone = [critical_alpha(ladder, 400) for ladder in ladders]
    calls = []
    build = parity.log_factorials
    monkeypatch.setattr(parity, "log_factorials", lambda n: calls.append(n) or build(n))
    assert parity.SEARCH_CHUNK_ENTRIES // (30 * 401) <= 1  # one point a chunk
    swept = critical_alphas(ladders, 400)
    assert calls == [400]
    assert [p.alpha_c.hex() for p in swept] == [p.alpha_c.hex() for p in alone]
    assert swept == alone


def test_lockstep_search_checks_every_ladder_against_the_first(monkeypatch):
    # Chunks of three 2-mode ladders at cap 10: a mode count that changes in
    # a later chunk is refused too, and named by its index in the search.
    monkeypatch.setattr(parity, "SEARCH_CHUNK_ENTRIES", 3 * 2 * 11)
    two = [bath_ladder(0.5 + 0.05 * i, 1.0, 2, 2.0) for i in range(4)]
    three = bath_ladder(0.5, 1.0, 3, 2.0)
    with pytest.raises(ParameterError, match="ladder 3 has 3 modes, the first one 2"):
        critical_alphas(two[:3] + [three, three], 10, 0.01)
    with pytest.raises(ParameterError, match="ladder 4 has 3 modes, the first one 2"):
        critical_alphas(two + [three], 10, 0.01)
    # An explicit reference names the ladder too, not the reference's length.
    with pytest.raises(ParameterError, match="ladder 3 has 3 modes, the first one 2"):
        critical_alphas(two[:3] + [three], 10, 0.01, m_ref=(0, 1))


# ---------------------------------------------------------------------------
# d_square_audit
# ---------------------------------------------------------------------------

def test_audit_zero_displacement_is_exact():
    bath = bath_from_modes([(1.0, 0.0), (0.5, 0.0)])
    basis = enumerate_basis(2, 3, "per-mode")
    audit = d_square_audit(basis, bath)
    assert np.all(audit.d2_diag_residuals == 0.0)
    assert audit.d2_max_offdiag == 0.0
    assert audit.deficiency == 0.0
    assert audit.o_value == 1.0


def test_audit_small_cap_matches_deficiency_closed_form():
    bath = single_mode_bath(1.0, 1.0)  # 4q^2 = 1
    basis = enumerate_basis(1, 1, "per-mode")
    audit = d_square_audit(basis, bath)
    assert audit.d2_diag_residuals[0] == pytest.approx(
        1.0 - 2.0 * math.exp(-1.0), abs=1e-12
    )
    assert audit.deficiency == pytest.approx(audit.d2_diag_residuals[0], abs=1e-12)


def test_audit_large_cap_restores_invariance_at_vacuum():
    bath = bath_from_modes([(1.0, 0.6)])  # q = 0.3, Poisson tail beyond 30 is tiny
    basis = enumerate_basis(1, 30, "per-mode")
    audit = d_square_audit(basis, bath)
    assert audit.d2_diag_residuals[0] <= 1e-12
    assert audit.d2_diag_residuals[-1] >= audit.d2_diag_residuals[0]


def test_audit_consistency_with_parity_deficiency():
    bath = bath_from_modes([(1.0, 0.8), (0.4, 0.3)])
    for cap, policy in ((5, "per-mode"), (6, "total-quanta")):
        basis = enumerate_basis(2, cap, policy)
        audit = d_square_audit(basis, bath)
        direct = parity_deficiency(bath, cap, (0, 0), policy)
        assert audit.deficiency == pytest.approx(direct, abs=1e-12)
        assert audit.d2_diag_residuals[0] == pytest.approx(direct, abs=1e-12)


def _extended_precision_audit(basis, bath):
    """|(D@D)_mm - 1| and max off-diagonal |(D@D)_mn|, with D gathered from
    the float64 single-mode tables and squared in extended precision."""
    occ = basis.occupations
    d = np.ones((basis.dim, basis.dim), dtype=np.longdouble)
    for k, q in enumerate(bath.qs):
        table = single_mode_d_table(q, basis.cap).astype(np.longdouble)
        d *= table[np.ix_(occ[:, k], occ[:, k])]
    square = d @ d
    diag = np.abs(np.diagonal(square) - 1)
    np.fill_diagonal(square, 0)
    return diag, np.max(np.abs(square))


AUDIT_Q = (1.1, 0.7, 0.4, 0.2)

AUDIT_CASES = {
    "m1-pm30": (1, 30, "per-mode"),
    "m1-tq30": (1, 30, "total-quanta"),
    "m2-pm8": (2, 8, "per-mode"),
    "m2-tq12": (2, 12, "total-quanta"),
    "m3-pm5": (3, 5, "per-mode"),
    "m3-tq8": (3, 8, "total-quanta"),
    "m4-pm3": (4, 3, "per-mode"),
    "m4-tq6": (4, 6, "total-quanta"),
}


def _audit_case(case):
    if case == "cap0":
        return bath_from_modes([(1.0, 1.0), (0.5, 0.3)]), enumerate_basis(2, 0, "total-quanta")
    if case == "q0-beside-coupled":
        return bath_from_modes([(1.0, 1.6), (0.5, 0.0)]), enumerate_basis(2, 10, "total-quanta")
    if case == "m1-cap120-q1.5":
        return bath_from_modes([(1.0, 3.0)]), enumerate_basis(1, 120, "per-mode")
    n_modes, cap, policy = AUDIT_CASES[case]
    bath = bath_from_modes([(0.5 ** k, 2.0 * q * 0.5 ** k) for k, q in enumerate(AUDIT_Q[:n_modes])])
    return bath, enumerate_basis(n_modes, cap, policy)


@pytest.mark.parametrize(
    "case", [*AUDIT_CASES, "cap0", "q0-beside-coupled", "m1-cap120-q1.5"]
)
def test_audit_matches_extended_precision_square(case):
    # The audit squares D from per-mode pieces without forming it; the
    # reference forms D and squares it densely in extended precision.
    bath, basis = _audit_case(case)
    audit = d_square_audit(basis, bath)
    diag, offdiag = _extended_precision_audit(basis, bath)
    assert audit.d2_diag_residuals.shape == (basis.dim,)
    assert np.max(np.abs(audit.d2_diag_residuals - diag)) <= 1e-14
    assert abs(audit.d2_max_offdiag - offdiag) <= 1e-14


# ---------------------------------------------------------------------------
# closure_report
# ---------------------------------------------------------------------------

def test_closure_examples():
    assert closure_report(1, 9).ratio == Fraction(1, 10)
    assert closure_report(100, 9).ratio == Fraction(10)
    assert closure_report(10, 99).ratio == Fraction(1, 10)
    assert closure_report(1, 9).ratio_value == 0.1


def test_closure_counts():
    rep = closure_report(3, 4)
    assert rep.unknowns_discarded == 3 * 5 ** 2
    assert rep.independent_equations == 5 ** 3
    assert Fraction(rep.unknowns_discarded, rep.independent_equations) == rep.ratio


def test_closure_vanishes_with_growing_cap():
    values = [closure_report(4, n).ratio for n in (9, 99, 999)]
    assert all(b < a for a, b in zip(values, values[1:]))


@settings(max_examples=60, deadline=None)
@given(n_modes=st.integers(1, 50), n_tr=st.integers(0, 200))
def test_closure_ratio_is_exact(n_modes, n_tr):
    rep = closure_report(n_modes, n_tr)
    assert rep.ratio == Fraction(n_modes, n_tr + 1)
    assert rep.unknowns_discarded * (n_tr + 1) == rep.independent_equations * n_modes


def test_closure_validation():
    with pytest.raises(ParameterError):
        closure_report(0, 5)
    with pytest.raises(ParameterError):
        closure_report(2, -1)


@pytest.mark.parametrize("n_modes, n_tr", [
    (10 ** 400, 20),  # a power of ~1.8e400 bits, never formed
    (4000, 20),  # counts of 5289 digits, past Python's int-to-str limit
    (2 ** 1024, 0),  # a ratio one past the double range
])
def test_closure_refuses_counts_it_cannot_print(n_modes, n_tr):
    start = time.perf_counter()
    with pytest.raises(ParameterError, match="digits"):
        closure_report(n_modes, n_tr)
    assert time.perf_counter() - start < 1.0


def test_closure_returns_counts_at_the_digit_limit():
    # unknowns_discarded 4297 * 10**4296 has 4300 digits, Python's default limit.
    rep = closure_report(4297, 9)
    assert rep.unknowns_discarded == 4297 * 10 ** 4296
    assert rep.independent_equations == 10 ** 4297
