"""Basis enumeration and parity matrix elements against independent routes:
an exact rational evaluation and the bare-basis expansion oracle."""

import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import gammaln

from sbparity import (
    CapacityError,
    ConvergenceError,
    ParameterError,
    bath_from_modes,
    cli,
    default_policy,
    enumerate_basis,
    fockspace,
    overlap_oracle,
)
from sbparity.fockspace import (
    FACTORIAL_GUARD,
    KroneckerParity,
    _recurrence_factors,
    l_matrix,
    l_scaled_rational,
    log_factorials,
    single_mode_d_row,
    single_mode_d_table,
    single_mode_l_table,
)
from sbparity.parity import MAX_SERIES_CAP

from conftest import index_of, single_mode_bath


# ---------------------------------------------------------------------------
# Basis enumeration
# ---------------------------------------------------------------------------

def test_single_mode_enumeration():
    basis = enumerate_basis(1, 2, "per-mode")
    assert basis.occupations.tolist() == [[0], [1], [2]]
    assert basis.dim == 3


def test_two_mode_per_mode_enumeration():
    basis = enumerate_basis(2, 1, "per-mode")
    assert basis.occupations.tolist() == [[0, 0], [0, 1], [1, 0], [1, 1]]
    assert basis.dim == 4


def test_total_quanta_count_is_stars_and_bars():
    basis = enumerate_basis(3, 2, "total-quanta")
    assert basis.dim == math.comb(5, 3) == 10
    assert all(sum(v) <= 2 for v in basis.occupations)


def test_enumeration_is_lexicographic_with_zero_first():
    for cap, policy in ((3, "per-mode"), (4, "total-quanta")):
        basis = enumerate_basis(3, cap, policy)
        rows = basis.occupations.tolist()
        assert rows[0] == [0, 0, 0]
        assert rows == sorted(rows)


def test_index_round_trip():
    basis = enumerate_basis(2, 5, "total-quanta")
    for i, vec in enumerate(basis.occupations):
        assert index_of(basis, vec) == i


def test_capacity_guard(monkeypatch):
    with pytest.raises(CapacityError):
        enumerate_basis(6, 9, "per-mode")  # 10**6 states
    monkeypatch.setattr(fockspace, "MAX_BASIS_STATES", 10 ** 6)
    enumerate_basis(6, 9, "per-mode")  # the guard raised


def test_default_policy_switches_at_three_modes():
    assert [default_policy(n) for n in (1, 2, 3, 30)] == [
        "per-mode", "per-mode", "total-quanta", "total-quanta"]


@settings(max_examples=50, deadline=None)
@given(n_modes=st.integers(1, 3), cap=st.integers(0, 4))
def test_per_mode_enumeration_is_bijective(n_modes, cap):
    basis = enumerate_basis(n_modes, cap, "per-mode")
    assert basis.dim == (cap + 1) ** n_modes
    assert len(set(map(tuple, basis.occupations.tolist()))) == basis.dim
    assert all(index_of(basis, v) == i for i, v in enumerate(basis.occupations))


def _policy_keeps(cap, policy, vec) -> bool:
    return (sum(vec) if policy == "total-quanta" else max(vec)) <= cap


@pytest.mark.parametrize("policy", ["per-mode", "total-quanta"],
                         ids=["PerModeCap", "TotalQuantaCap"])
@pytest.mark.parametrize("n_modes", [1, 2, 3, 4])
def test_enumeration_matches_the_filtered_product(policy, n_modes):
    for cap in range(7):
        basis = enumerate_basis(n_modes, cap, policy)
        assert (basis.cap, basis.policy) == (cap, policy)
        expected = [list(v) for v in itertools.product(range(cap + 1), repeat=n_modes)
                    if _policy_keeps(cap, policy, v)]
        assert basis.occupations.tolist() == expected
        assert basis.occupations.dtype == np.int64
        assert (basis.dim, basis.n_modes) == (len(expected), n_modes)
        assert not basis.occupations[0].any()
        with pytest.raises(ValueError):
            basis.occupations[0, 0] = 1


@pytest.mark.parametrize("n_modes, cap", [(12, 3), (30, 2)])
def test_total_quanta_enumeration_beyond_the_product(n_modes, cap):
    occ = enumerate_basis(n_modes, cap, "total-quanta").occupations
    rows = occ.tolist()
    assert len(rows) == math.comb(cap + n_modes, n_modes)
    assert len(set(map(tuple, rows))) == len(rows)
    assert rows == sorted(rows)
    assert occ.sum(axis=1).max() <= cap and occ.min() == 0


@pytest.mark.parametrize("n_modes, policy", [
    pytest.param(2, ("per-mode", "per-mode"), id="2-per-mode"),
    pytest.param(2, (2, None), id="2-None"),
    (2, (2.5, "per-mode")),
    (2, (2.0, "total-quanta")),
    (2, (True, "per-mode")),
    (2, (False, "total-quanta")),
    (2, (-1, "per-mode")),
    (True, (2, "per-mode")),
    (2.0, (2, "total-quanta")),
    (0, (2, "total-quanta")),
    (2, (2, "box")),
])
def test_enumeration_refuses_malformed_input(n_modes, policy):
    # policy is a (cap, policy) pair.
    with pytest.raises(ParameterError):
        enumerate_basis(n_modes, *policy)


# ---------------------------------------------------------------------------
# Single-mode kernel
# ---------------------------------------------------------------------------

def test_l_vacuum_is_one():
    for q in (0.0, 0.2, 1.0, 3.0):
        assert single_mode_l_table(q, 0)[0, 0] == 1.0


def test_l_one_one_closed_form():
    # Exact rational route first, then the kernel against it.
    q = Fraction(1, 2)
    assert l_scaled_rational(1, 1, q) == Fraction(0)          # 4q^2 - 1 at q = 1/2
    assert l_scaled_rational(1, 1, Fraction(3, 10)) == Fraction(9, 25) - 1
    assert single_mode_l_table(0.3, 1)[1, 1] == pytest.approx(4 * 0.09 - 1.0, abs=1e-15)
    assert single_mode_l_table(0.0, 1)[1, 1] == -1.0


def test_l_at_zero_displacement_is_signed_identity():
    assert np.array_equal(single_mode_l_table(0.0, 5), np.diag((-1.0) ** np.arange(6)))


def test_l_symmetry_is_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        table = single_mode_l_table(float(rng.uniform(0.0, 1.5)), 11)
        assert np.array_equal(table, table.T)


def test_l_zero_row_closed_form():
    q = 0.6
    row = single_mode_l_table(q, 11)[0]
    for n in range(12):
        closed = (2 * q) ** n / math.sqrt(math.factorial(n))
        assert row[n] == pytest.approx(closed, rel=1e-12)


def test_l_against_exact_rational_up_to_occupation_ten(rng):
    worst = 0.0
    for _ in range(300):
        m = int(rng.integers(0, 11))
        n = int(rng.integers(0, 11))
        qf = Fraction(int(rng.integers(1, 100)), 100)
        exact = float(l_scaled_rational(m, n, qf)) * math.sqrt(
            math.factorial(m) * math.factorial(n)
        )
        got = single_mode_l_table(float(qf), 10)[m, n]
        worst = max(worst, abs(got - exact) / max(1.0, abs(exact)))
    assert worst < 1e-11


@settings(max_examples=80, deadline=None)
@given(
    m=st.integers(0, 10),
    n=st.integers(0, 10),
    q=st.fractions(min_value=Fraction(1, 50), max_value=1, max_denominator=50),
)
def test_l_matches_rational_reference(m, n, q):
    exact = float(l_scaled_rational(m, n, q)) * math.sqrt(
        math.factorial(m) * math.factorial(n)
    )
    got = single_mode_l_table(float(q), max(m, n))[m, n]
    assert got == pytest.approx(exact, abs=1e-10, rel=1e-10)


def exact_d(m, n, q):
    """D(m, n; q) from the exact rational sum, evaluated in log space."""
    r = l_scaled_rational(m, n, q)
    if r == 0:
        return 0.0
    log_abs = math.log(abs(r.numerator)) - math.log(r.denominator)
    log_d = log_abs + 0.5 * (math.lgamma(m + 1) + math.lgamma(n + 1)) - 2.0 * float(q) ** 2
    return math.copysign(math.exp(log_d), r)


@settings(max_examples=100, deadline=None)
@given(
    m=st.integers(0, 80),
    n=st.integers(0, 80),
    q=st.fractions(min_value=0, max_value=5, max_denominator=50),
)
def test_d_matches_rational_reference_up_to_occupation_eighty(m, n, q):
    bath = bath_from_modes([(1.0, 2.0 * float(q))])
    table = KroneckerParity(enumerate_basis(1, max(m, n), "per-mode"), bath).dense()
    assert table[m, n] == pytest.approx(exact_d(m, n, q), abs=1e-12)


@pytest.mark.parametrize("q, cap", [(2, 40), (3, 120), (5, 170)])
def test_d_table_edge_rows_match_rational_reference(q, cap):
    # The last row and the diagonal carry the largest cancellations of the
    # alternating sum; every entry must still be exact to a few ulps of 1.
    bath = bath_from_modes([(1.0, 2.0 * q)])
    d = KroneckerParity(enumerate_basis(1, cap, "per-mode"), bath).dense()
    for n in range(0, cap + 1, 10):
        assert d[cap, n] == pytest.approx(exact_d(cap, n, Fraction(q)), abs=1e-12)
        assert d[n, n] == pytest.approx(exact_d(n, n, Fraction(q)), abs=1e-12)


def test_l_multiplicative_across_modes():
    bath = bath_from_modes([(1.0, 0.8), (0.5, 0.7)])
    basis = enumerate_basis(2, 4, "per-mode")
    combined = l_matrix(basis, bath)
    t0, t1 = (single_mode_l_table(q, 4) for q in bath.qs)
    for mv, nv in [((2, 3), (1, 0)), ((0, 4), (2, 2)), ((1, 1), (1, 1))]:
        product = t0[mv[0], nv[0]] * t1[mv[1], nv[1]]
        assert combined[index_of(basis, mv), index_of(basis, nv)] == product


def test_l_occupation_guard():
    with pytest.raises(CapacityError):
        single_mode_l_table(0.5, 171)
    with pytest.raises(ParameterError):
        single_mode_l_table(0.5, -1)


@pytest.mark.parametrize("q", [-0.5, -1e-300, math.nan, math.inf, -math.inf])
def test_kernel_refuses_a_displacement_not_finite_or_negative(q):
    # Once a bare "math domain error" for q < 0 and NaN tables for NaN or inf.
    calls = (
        lambda: single_mode_l_table(q, 4),
        lambda: single_mode_d_table(q, 4),
        lambda: single_mode_d_row(1, q, 4),
        lambda: single_mode_d_row(1, np.array([0.5, q]), 4),
    )
    for call in calls:
        with pytest.raises(ParameterError, match="displacement q must be finite and >= 0"):
            call()


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("q", [1e3, 6.8e153, 1e300])
def test_kernel_tables_past_the_double_range_are_quiet(q):
    # L overflows to inf, and past q ~ 6.7e153 D is NaN, which the |D| <= 1
    # guard refuses; once numpy warned on stderr at both.
    assert np.isinf(single_mode_l_table(q, 170)).any()
    d = single_mode_d_table(q, 4)
    assert d[0, 0] == 0.0
    assert np.isnan(d[1:, 1:]).all() == (q > 6.7e153)


def test_log_factorials_round_as_gammaln_bit_for_bit():
    # log k! seeds the kernel and the partial exponential series; the golden
    # bytes rest on the rounding of scipy's gammaln, which scipy.special took
    # ~0.3 s to import for.  A scipy or libm that rounds otherwise fails here.
    n = MAX_SERIES_CAP
    expected = gammaln(np.arange(n + 1) + 1.0)
    assert np.array_equal(log_factorials(n).view(np.int64), expected.view(np.int64))
    for n_max in (0, 1, 11, 12, 13, 998, 999):  # the branch edges of Cephes lgam
        assert np.array_equal(log_factorials(n_max).view(np.int64),
                              expected[: n_max + 1].view(np.int64))
    k, half_lgamma, _ = _recurrence_factors(FACTORIAL_GUARD, FACTORIAL_GUARD)
    assert np.array_equal(half_lgamma.view(np.int64), (0.5 * gammaln(k + 1.0)).view(np.int64))


# ---------------------------------------------------------------------------
# D table
# ---------------------------------------------------------------------------

def test_d_table_single_mode_values():
    bath = single_mode_bath(1.0, 1.0)  # q = 0.5
    basis = enumerate_basis(1, 3, "per-mode")
    table = KroneckerParity(basis, bath).dense()
    assert table[0, 0] == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert table[0, 1] == pytest.approx(math.exp(-0.5), rel=1e-12)
    assert table[1, 0] == table[0, 1]


def test_d_table_zero_coupling_is_signed_diagonal():
    bath = bath_from_modes([(1.0, 0.0), (0.5, 0.0)])
    basis = enumerate_basis(2, 2, "per-mode")
    dense = KroneckerParity(basis, bath).dense()
    signs = np.array([(-1.0) ** sum(v) for v in basis.occupations])
    assert np.array_equal(dense, np.diag(signs))


def test_d_table_matches_per_pair_product():
    bath = bath_from_modes([(1.0, 0.9), (0.6, 0.4)])
    basis = enumerate_basis(2, 3, "per-mode")
    table = KroneckerParity(basis, bath).dense()
    expected = math.exp(-2.0 * bath.sum_q2) * l_matrix(basis, bath)
    assert np.allclose(table, expected, rtol=1e-13, atol=1e-300)


def test_d_table_capacity_guard(monkeypatch):
    bath = single_mode_bath()
    basis = enumerate_basis(1, 30, "per-mode")
    monkeypatch.setattr(fockspace, "MAX_TABLE_DIM", 10)
    with pytest.raises(CapacityError):
        KroneckerParity(basis, bath).dense()


def test_dense_is_gathered_once_and_read_only():
    bath = bath_from_modes([(1.0, 0.9), (0.6, 0.4)])
    parity = KroneckerParity(enumerate_basis(2, 3, "per-mode"), bath)
    d = parity.dense()
    assert parity.dense() is d
    assert not d.flags.writeable
    with pytest.raises(ValueError):
        d[0, 0] = 0.0


def test_d_table_occupation_guard():
    # Above the factorial guard exp(-2 q**2) seeds underflow and the
    # recurrence would return exact zeros, so occupations stop at the guard.
    bath = single_mode_bath()
    KroneckerParity(enumerate_basis(1, FACTORIAL_GUARD, "per-mode"), bath).dense()
    with pytest.raises(CapacityError):
        KroneckerParity(enumerate_basis(1, FACTORIAL_GUARD + 1, "per-mode"), bath).dense()


@pytest.mark.parametrize(
    "modes, policy",
    [
        ([(1.0, 1.3)], (12, "per-mode")),
        ([(1.0, 0.9), (0.6, 0.4)], (7, "per-mode")),
        ([(1.0, 0.9), (0.6, 0.0), (0.3, 0.5)], (6, "total-quanta")),
        ([(1.0, 0.7), (0.5, 0.6), (0.25, 0.2), (0.125, 0.1)], (4, "total-quanta")),
    ],
)
def test_kronecker_parity_matches_dense_table(modes, policy, rng):
    # The mode-by-mode product, through the box embedding on total-quanta
    # bases, against the gathered dense table.
    bath = bath_from_modes(modes)
    basis = enumerate_basis(len(modes), *policy)
    parity = KroneckerParity(basis, bath)
    dense = parity.dense()
    for x in rng.standard_normal((3, basis.dim)):
        assert np.allclose(parity.apply(x), dense @ x, rtol=0.0, atol=1e-13)
    # Products take one vector; a block is refused, not misread.
    with pytest.raises(ParameterError, match="one vector"):
        parity.apply(rng.standard_normal((basis.dim, 3)))


def test_kronecker_parity_guards(tmp_path, capsys):
    # 10 modes at total-quanta cap 4: 1001 states in a box of 5**10.  The
    # object builds and gathers its dense D; only a product meets the box guard.
    bath = bath_from_modes([(1.0 / 2 ** k, 0.5) for k in range(10)])
    basis = enumerate_basis(10, 4, "total-quanta")
    parity = KroneckerParity(basis, bath)
    assert parity.dense().shape == (1001, 1001)
    with pytest.raises(CapacityError, match="box of 9765625 states"):
        parity.apply(np.ones(basis.dim))
    with pytest.raises(ParameterError):
        KroneckerParity(enumerate_basis(2, 2, "per-mode"), bath).dense()
    # The theorem on that basis takes the dense path and succeeds.
    config = {"model": {"delta": 0.3, "omega_c": 1.0, "s": 0.6, "alpha": 0.2},
              "disc": {"n_modes": 10}, "trunc": {"policy": "total-quanta", "cap": 4}}
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config))
    assert cli.main(["theorem", "--config", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["verdict"] == "strictly-below"


def test_spectra_invariant_under_odd_row_sign_flip():
    # Flipping the sign of every odd-occupation row/column of D is a
    # similarity transform, so branch spectra cannot depend on the basis-wide
    # sign convention of the odd elements.
    bath = single_mode_bath(1.0, 1.2)
    basis = enumerate_basis(1, 12, "per-mode")
    d = KroneckerParity(basis, bath).dense()
    h0 = np.diag([v[0] * 1.0 for v in basis.occupations]) - bath.sum_wq2 * np.eye(basis.dim)
    flip = np.diag([(-1.0) ** v[0] for v in basis.occupations])
    for sign in (+1.0, -1.0):
        h = h0 + sign * 0.15 * d
        h_flipped = h0 + sign * 0.15 * (flip @ d @ flip)
        ev = scipy.linalg.eigvalsh(h)
        ev_f = scipy.linalg.eigvalsh(h_flipped)
        assert np.allclose(ev, ev_f, atol=1e-12)


# ---------------------------------------------------------------------------
# Bare-basis oracle
# ---------------------------------------------------------------------------

def test_oracle_vacuum_matches_closed_form():
    bath = bath_from_modes([(1.0, 0.6)])  # q = 0.3
    got = overlap_oracle((0,), (0,), bath, 60)
    assert got == pytest.approx(math.exp(-2 * 0.09), abs=1e-10)


def test_oracle_zero_displacement_orthogonality():
    bath = bath_from_modes([(1.0, 0.0)])
    assert overlap_oracle((0,), (1,), bath, 10) == 0.0
    assert overlap_oracle((1,), (1,), bath, 10) == -1.0


def test_oracle_insufficient_cutoff_reports_deficit():
    bath = bath_from_modes([(1.0, 2.0)])  # q = 1
    with pytest.raises(ConvergenceError) as err:
        overlap_oracle((4,), (4,), bath, 6)
    assert err.value.deficit is not None
    assert err.value.deficit > 1e-12


def test_oracle_agrees_with_d_table_on_random_draws(rng):
    # 100 draws across one- and two-mode baths, total occupation <= 8.
    for _ in range(100):
        n_modes = int(rng.integers(1, 3))
        qs = rng.uniform(0.05, 1.0, size=n_modes)
        omegas = np.sort(rng.uniform(0.2, 2.0, size=n_modes))[::-1]
        bath = bath_from_modes(
            [(float(w), float(2.0 * w * q)) for w, q in zip(omegas, qs)]
        )
        while True:
            m = tuple(int(v) for v in rng.integers(0, 5, size=n_modes))
            n = tuple(int(v) for v in rng.integers(0, 5, size=n_modes))
            if sum(m) + sum(n) <= 8:
                break
        basis = enumerate_basis(n_modes, 4, "per-mode")
        table = KroneckerParity(basis, bath).dense()
        direct = table[index_of(basis, m), index_of(basis, n)]
        assert overlap_oracle(m, n, bath, 80) == pytest.approx(direct, abs=1e-8)


# ---------------------------------------------------------------------------
# Truncated-resolution decay
# ---------------------------------------------------------------------------

def test_d_square_residual_small_in_the_inner_block():
    # With 4q^2 <= 1 and cap 32 the inner half of the table resolves the
    # identity to 1e-6; the residual grows toward the cutoff edge.
    cap = 32
    bath = bath_from_modes([(1.0, 1.0)])  # 4q^2 = 1
    basis = enumerate_basis(1, cap, "per-mode")
    d = KroneckerParity(basis, bath).dense()
    residual = d @ d - np.eye(cap + 1)
    half = cap // 2
    inner = np.abs(residual[: half + 1, : half + 1]).max()
    assert inner <= 1e-6
    assert abs(residual[cap, cap]) > inner  # reported, not bounded


def masked_square(parity):
    """The audit's square with the 0/1 mask over every padded entry and the
    maximum over each whole block (reference): the same G and Q stacks and
    the same tensordot calls as :meth:`KroneckerParity.square`."""
    tables, occ = parity.tables, parity.basis.occupations
    starts = np.flatnonzero(occ[:, -1] == 0)
    room = np.maximum.reduceat(occ[:, -1], starts)
    order = np.argsort(room, kind="stable")
    starts, room = starts[order], room[order]
    cuts = [0, *(np.flatnonzero(np.diff(room)) + 1), len(room)]
    groups = [(room[lo], lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
    d_prefix = fockspace._gather(occ[starts, :-1], tables[:-1])
    last = tables[-1]
    g = np.empty((len(groups),) + d_prefix.shape)
    q = np.empty((len(groups),) + last.shape)
    for i, (r, lo, hi) in enumerate(groups):
        np.matmul(d_prefix[:, lo:hi], d_prefix[lo:hi], out=g[i])
        np.matmul(last[:, : r + 1], last[: r + 1], out=q[i])
    inside = np.arange(last.shape[0]) <= room[:, None]
    diag = np.empty(parity.basis.dim)
    offdiag = 0.0
    for r, lo, hi in groups:
        block = np.tensordot(g[:, lo:hi, lo:], q[:, : r + 1, :], axes=(0, 0))
        block *= inside[None, lo:, None, :]
        v = np.arange(hi - lo)[:, None]
        a = np.arange(r + 1)
        diag[starts[lo:hi, None] + a] = block[v, v, a, a]
        block[v, v, a, a] = 0.0
        offdiag = max(offdiag, float(np.max(block)), -float(np.min(block)))
    return diag, offdiag


# One mode; one room (per-mode); one prefix per room; a 1 x 1 last room.
SQUARE_LAYOUTS = [(1, 40, "per-mode"), (2, 12, "per-mode"), (3, 6, "per-mode"),
                  (2, 20, "total-quanta"), (3, 10, "total-quanta"), (4, 6, "total-quanta"),
                  (6, 5, "total-quanta")]


@pytest.mark.parametrize("n_modes, cap, policy", SQUARE_LAYOUTS)
@pytest.mark.parametrize("q", [0.1, 2.0])
def test_square_keeps_the_bits_of_the_masked_scan(n_modes, cap, policy, q):
    # The padded last-mode occupations are zeroed by slice instead of by the
    # mask; the diagonal and the largest off-diagonal magnitude keep every bit.
    bath = bath_from_modes([(0.7 ** k, 2.0 * q * (1.0 - 0.1 * k) * 0.7 ** k)
                            for k in range(n_modes)])
    parity = KroneckerParity(enumerate_basis(n_modes, cap, policy), bath)
    diag, offdiag = parity.square()
    ref_diag, ref_offdiag = masked_square(parity)
    assert np.array_equal(diag.view(np.int64), ref_diag.view(np.int64))
    assert offdiag > 0.0
    assert offdiag.hex() == ref_offdiag.hex()


def test_single_mode_l_table_matches_elements():
    # Entry (m, n) has the same bits in every table of cap >= max(m, n), so
    # reading it from the smallest such table reads the dumped value.
    small = single_mode_l_table(0.7, 5)
    for cap in (10, 40, FACTORIAL_GUARD):
        assert np.array_equal(single_mode_l_table(0.7, cap)[:6, :6], small)


def exact_l(m, n, q):
    """L(m, n; q) from the exact rational sum; its square m! n! r**2 is
    exact, so only the float conversion and the square root round."""
    r = l_scaled_rational(m, n, q)
    return math.copysign(math.sqrt(r * r * math.factorial(m) * math.factorial(n)), r)


@pytest.mark.parametrize("q", [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3),
                               Fraction(5)])
def test_l_table_matches_rational_reference_up_to_cap_170(q):
    # --dump-tables prints L up to the largest cap the CLI accepts.  The
    # corners, the mid-diagonal and 25 seeded pairs are held to the D tests'
    # absolute bound of 1e-12, scaled to L by exp(2 q**2).
    cap = FACTORIAL_GUARD
    table = single_mode_l_table(float(q), cap)
    rng = np.random.default_rng(int(10 * q))
    pairs = [(0, 0), (0, cap), (cap, 0), (cap, cap), (cap // 2, cap // 2),
             *rng.integers(0, cap + 1, size=(25, 2)).tolist()]
    bound = 1e-12 * math.exp(2.0 * float(q) ** 2)
    for m, n in pairs:
        assert table[m, n] == pytest.approx(exact_l(m, n, q), abs=bound), (m, n)
