"""Truncated multi-mode occupation bases and the matrix elements of the
bosonic parity factor between displaced oscillator number states.

The single-mode overlap factor

    L(m, n; q) = sum_{j=0}^{min(m,n)} (-1)**j * sqrt(m! n!) * (2q)**(m+n-2j)
                 / ((m-j)! (n-j)! j!)

scaled by exp(-2 q**2) is the single-mode parity element D(m, n).  With
x = 2q, t = x**2 and k = m - n >= 0 it is a normalized associated Laguerre
polynomial (Cahill & Glauber, Phys. Rev. 177, 1857 (1969)):

    L(n+k, n; q) = (-1)**n * x**k * sqrt(n! / (n+k)!) * L_n^(k)(t).

The alternating sum cancels catastrophically, so it is never summed: the
normalized functions obey the three-term recurrence of DLMF §18.9, run in n
along every diagonal k at once, which is stable to about 1e-14 absolute over
the whole occupation range.  D is the stored quantity, because
L * exp(-2 sum_k q_k**2) is 0 * inf at strong coupling; L is formed only on
request, from the same recurrence without the exp(-2 q**2) seed.  An exact
rational evaluation backs the unit tests, and :func:`overlap_oracle` gives
an independent route through the bare number basis.

Over a multi-mode basis D is one object, :class:`KroneckerParity`, built
from the per-mode tables: it applies D to a vector one mode at a time,
gathers it into one dense dim x dim array, and squares it for the parity
audit.

The sign convention fixed by the oracle under q = +lam/(2*omega):
D(0, 1) = +2q * exp(-2q**2) for a single mode.  Branch spectra are invariant
under flipping the sign of every odd row (a similarity transform), which is
covered by a property test.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, lru_cache

import numpy as np
from scipy.special import gammaln

from .bath import BathModel
from .errors import CapacityError, ConvergenceError, InvariantViolation, ParameterError

__all__ = [
    "PerModeCap",
    "TotalQuantaCap",
    "default_policy",
    "BasisSet",
    "enumerate_basis",
    "l_element_single",
    "l_element",
    "l_scaled_rational",
    "single_mode_l_table",
    "single_mode_d_table",
    "single_mode_d_row",
    "KroneckerParity",
    "l_matrix",
    "overlap_oracle",
    "FACTORIAL_GUARD",
    "MAX_BASIS_STATES",
]

# Occupations above this would overflow Gamma in double precision anyway;
# everything downstream relies on staying below it.
FACTORIAL_GUARD = 170

# Default cap on enumerated basis dimension.
MAX_BASIS_STATES = 200_000

# Default cap on the dimension of the dense D array (memory bound, dim**2 floats).
MAX_TABLE_DIM = 5_000

# Cap on the per-mode box a product embeds its vector in (8 bytes per state),
# checked at each product.
MAX_BOX_STATES = 4_000_000

# |D_mn| <= 1 and (D@D)_mm <= 1 hold exactly; this is their slack in the guards.
D_BOUND = 1.0 + 1e-12

_LGAMMA = math.lgamma


@dataclass(frozen=True)
class PerModeCap:
    """Keep occupation vectors with every entry <= cap."""

    cap: int
    kind = "per-mode"


@dataclass(frozen=True)
class TotalQuantaCap:
    """Keep occupation vectors whose entries sum to <= cap."""

    cap: int
    kind = "total-quanta"


def default_policy(n_modes: int, cap: int):
    """Per-mode cap for one or two modes, total-quanta cap beyond that."""
    return PerModeCap(cap) if n_modes <= 2 else TotalQuantaCap(cap)


@dataclass(frozen=True)
class BasisSet:
    """Lexicographically ordered occupation vectors under a truncation policy.

    Index 0 is always the all-zeros vector; ``index_of`` inverts ``vectors``.
    Immutable after construction.
    """

    n_modes: int
    policy: PerModeCap | TotalQuantaCap
    vectors: tuple[tuple[int, ...], ...]

    @property
    def dim(self) -> int:
        return len(self.vectors)

    @cached_property
    def occupations(self) -> np.ndarray:
        occ = np.array(self.vectors, dtype=np.int64).reshape(self.dim, self.n_modes)
        occ.setflags(write=False)
        return occ

    @cached_property
    def _index(self) -> dict:
        return {v: i for i, v in enumerate(self.vectors)}

    def index_of(self, vec) -> int:
        return self._index[tuple(int(v) for v in vec)]

    @property
    def box_shape(self) -> tuple[int, ...]:
        """Shape of the per-mode box {0..cap}**n_modes that holds the basis
        under either policy."""
        return (self.policy.cap + 1,) * self.n_modes


def _total_quanta_vectors(n_modes: int, cap: int):
    vec = [0] * n_modes
    out = []

    def rec(pos, budget):
        if pos == n_modes - 1:
            for v in range(budget + 1):
                vec[pos] = v
                out.append(tuple(vec))
            vec[pos] = 0
            return
        for v in range(budget + 1):
            vec[pos] = v
            rec(pos + 1, budget - v)
        vec[pos] = 0

    rec(0, cap)
    return out


def enumerate_basis(n_modes: int, policy, max_states: int = MAX_BASIS_STATES) -> BasisSet:
    """Enumerate the truncated basis in lexicographic order.

    Raises
    ------
    CapacityError
        If the basis dimension would exceed ``max_states``.
    """
    if not isinstance(n_modes, int) or n_modes < 1:
        raise ParameterError(f"n_modes must be an integer >= 1, got {n_modes}")
    if policy.cap < 0:
        raise ParameterError(f"truncation cap must be >= 0, got {policy.cap}")
    if isinstance(policy, PerModeCap):
        dim = (policy.cap + 1) ** n_modes
    elif isinstance(policy, TotalQuantaCap):
        dim = math.comb(policy.cap + n_modes, n_modes)
    else:
        raise ParameterError(f"unknown truncation policy {policy!r}")
    if dim > max_states:
        raise CapacityError(
            f"basis would hold {dim} states, above the guard of {max_states}"
        )
    if isinstance(policy, PerModeCap):
        vectors = tuple(itertools.product(range(policy.cap + 1), repeat=n_modes))
    else:
        vectors = tuple(_total_quanta_vectors(n_modes, policy.cap))
    return BasisSet(n_modes=n_modes, policy=policy, vectors=vectors)


def _check_occupation(n: int):
    if n > FACTORIAL_GUARD:
        raise CapacityError(
            f"occupation {n} exceeds the factorial guard of {FACTORIAL_GUARD}"
        )
    if n < 0:
        raise ParameterError(f"occupations must be >= 0, got {n}")


def _single_mode_block(q, m_max: int, n_max: int, scaled: bool) -> np.ndarray:
    """Single-mode L(m, n; q) for m <= m_max, n <= n_max, times exp(-2 q**2)
    when ``scaled`` (that is, D).

    ``q`` is a float, giving one (m_max + 1, n_max + 1) block, or a 1-D
    array, giving one block per entry stacked along a leading axis.  Runs
    the normalized Laguerre recurrence in j = min(m, n) for
    min(m_max, n_max) + 1 steps, vectorized over the diagonals k = |m - n|
    and over the entries of ``q``, with the sign (-1)**j folded in.  The seed
    is formed in logs, so the scaled block never meets exp(+2 q**2).  Every
    entry is rounded as a scalar q would round it.  A q that is not finite
    or is below 0 raises ParameterError.
    """
    qs = np.array(q, dtype=float, ndmin=1)
    bad = ~(np.isfinite(qs) & (qs >= 0.0))
    if bad.any():
        raise ParameterError(
            f"displacement q must be finite and >= 0, got {qs[bad][0].item()!r}"
        )
    out = np.zeros((len(qs), m_max + 1, n_max + 1))
    k, half_lgamma, factors = _recurrence_factors(m_max, n_max)
    x = 2.0 * qs
    t = (x * x)[:, None]
    log_x = np.array([math.log(v) if v != 0.0 else 0.0 for v in x.tolist()])
    f = np.exp((-0.5 * t if scaled else 0.0) + k * log_x[:, None] - half_lgamma)
    f_prev = np.zeros_like(f)
    for j, (diag, back, ahead) in enumerate(factors):
        out[:, j:, j] = f[:, : m_max + 1 - j]  # (j + k, j)
        out[:, j, j + 1:] = f[:, 1 : n_max + 1 - j]  # (j, j + k), k >= 1
        if j + 1 < len(factors):
            # (t - diag) is -(diag - t) exactly.
            f, f_prev = ((t - diag) * f - back * f_prev) / ahead, f
    zero = qs == 0.0
    if zero.any():
        j = np.arange(len(factors))
        identity = np.zeros((m_max + 1, n_max + 1))
        identity[j, j] = np.where(j % 2, -1.0, 1.0)
        out[zero] = identity
    return out if np.ndim(q) else out[0]


@lru_cache(maxsize=64)
def _recurrence_factors(m_max: int, n_max: int):
    """The k-only factors of :func:`_single_mode_block`, read-only: k,
    0.5 * lgamma(k + 1) and, per step j, (2j + 1 + k, sqrt(j (j + k)),
    sqrt((j + 1)(j + 1 + k)))."""
    k = np.arange(max(m_max, n_max) + 1)
    factors = tuple((2 * j + 1 + k, np.sqrt(j * (j + k)), np.sqrt((j + 1) * (j + 1 + k)))
                    for j in range(min(m_max, n_max) + 1))
    half_lgamma = 0.5 * gammaln(k + 1.0)
    for array in (k, half_lgamma, *itertools.chain.from_iterable(factors)):
        array.setflags(write=False)
    return k, half_lgamma, factors


def l_element_single(m: int, n: int, q: float) -> float:
    """Single-mode L(m, n; q) in double precision."""
    _check_occupation(m)
    _check_occupation(n)
    return float(_single_mode_block(q, m, n, scaled=False)[m, n])


def l_element(m, n, bath: BathModel) -> float:
    """Multi-mode L element: product of per-mode factors."""
    m = tuple(int(v) for v in m)
    n = tuple(int(v) for v in n)
    if len(m) != bath.n_modes or len(n) != bath.n_modes:
        raise ParameterError(
            f"occupation vectors of length {len(m)}/{len(n)} do not match "
            f"{bath.n_modes} bath modes"
        )
    out = 1.0
    for mk, nk, q in zip(m, n, bath.qs):
        out *= l_element_single(mk, nk, q)
    return out


def l_scaled_rational(m: int, n: int, q: Fraction) -> Fraction:
    """Exact L(m, n; q) / sqrt(m! n!) for rational q (test reference)."""
    q = Fraction(q)
    total = Fraction(0)
    for j in range(min(m, n) + 1):
        total += (
            Fraction((-1) ** j)
            * (2 * q) ** (m + n - 2 * j)
            / (math.factorial(m - j) * math.factorial(n - j) * math.factorial(j))
        )
    return total


def single_mode_l_table(q: float, cap: int) -> np.ndarray:
    """Symmetric (cap+1) x (cap+1) table of single-mode L values."""
    _check_occupation(cap)
    return _single_mode_block(q, cap, cap, scaled=False)


def single_mode_d_table(q: float, cap: int) -> np.ndarray:
    """Symmetric (cap+1) x (cap+1) table of single-mode D values."""
    _check_occupation(cap)
    return _single_mode_block(q, cap, cap, scaled=True)


def single_mode_d_row(m: int, q, n_max: int) -> np.ndarray:
    """Single-mode row [D(m, 0; q), ..., D(m, n_max; q)], in min(m, n_max) + 1
    steps; for a 1-D array ``q``, one such row per entry, in one recurrence."""
    _check_occupation(m)
    _check_occupation(n_max)
    return _single_mode_block(q, m, n_max, scaled=True)[..., m, :]


def _mode_tables(basis: BasisSet, bath: BathModel, table) -> list[np.ndarray]:
    """``table(q, cap)`` for every mode, up to that mode's cap in ``basis``."""
    if basis.n_modes != bath.n_modes:
        raise ParameterError(
            f"basis has {basis.n_modes} modes but bath has {bath.n_modes}"
        )
    return [table(q, size - 1) for q, size in zip(bath.qs, basis.box_shape)]


def _gather(occ: np.ndarray, tables) -> np.ndarray:
    """len(occ) x len(occ) product over modes, in mode order, of the
    single-mode ``tables`` gathered at the occupation rows ``occ`` (all ones
    when there are no modes)."""
    out = np.ones((len(occ), len(occ)))
    for k, table in enumerate(tables):
        out *= table[np.ix_(occ[:, k], occ[:, k])]
    return out


def _check_table_dim(dim: int, max_dim: int = MAX_TABLE_DIM):
    if dim > max_dim:
        raise CapacityError(
            f"dense parity table of dimension {dim} exceeds guard {max_dim}"
        )


def l_matrix(basis: BasisSet, bath: BathModel) -> np.ndarray:
    """Multi-mode L over ``basis`` as a dense array, for table dumps only;
    may overflow to inf at large coupling, where D does not."""
    return _gather(basis.occupations, _mode_tables(basis, bath, single_mode_l_table))


class KroneckerParity:
    """The parity matrix D over ``basis``, built from the single-mode tables.

    On the per-mode box D is exactly the Kronecker product of the
    single-mode tables, so D @ x is applied one mode axis at a time in
    O(box * sum_k (cap_k + 1)) (the "shuffle" product of Fernandes, Plateau
    & Stewart, J. ACM 45(3), 1998).  A total-quanta basis is a subset of
    the box: vectors are embedded by their flat box index, multiplied and
    restricted back, which is exact because D over the subset is the
    principal submatrix of the box operator.  :meth:`dense` gathers D into
    one dim x dim array and :meth:`square` squares it for the parity audit.
    The tables are built and checked once, on first use; the box guard is
    checked at each product, so a box too large for products keeps the rest.
    """

    def __init__(self, basis: BasisSet, bath: BathModel):
        self.basis = basis
        self.bath = bath
        self.box = math.prod(basis.box_shape)

    @cached_property
    def tables(self) -> list[np.ndarray]:
        """Single-mode D tables up to each mode's cap in ``basis``.  Every
        element of D is a product of their entries, so |D| <= 1 holds once it
        holds for each table: InvariantViolation if not, or if one is NaN."""
        tables = _mode_tables(self.basis, self.bath, single_mode_d_table)
        for k, table in enumerate(tables):
            worst = max(np.max(table), -np.min(table))  # NaN if any entry is NaN
            if not worst <= D_BOUND:
                raise InvariantViolation(f"mode {k}: max|D| = {worst:.6g} breaks |D| <= 1")
        return tables

    @cached_property
    def _index(self) -> np.ndarray | None:
        """Flat box index of each state; None when the basis is the box."""
        if self.box > MAX_BOX_STATES:
            raise CapacityError(
                f"per-mode box of {self.box} states exceeds guard {MAX_BOX_STATES}"
            )
        # Lexicographic order is C order on the box, so the flat indices ascend.
        return (None if self.box == self.basis.dim
                else np.ravel_multi_index(self.basis.occupations.T, self.basis.box_shape))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.basis.dim, self.basis.dim)

    def __matmul__(self, x) -> np.ndarray:
        return self.apply(x)

    def apply(self, x) -> np.ndarray:
        """D @ x for one vector x of shape (dim,); CapacityError if the box
        holds more than MAX_BOX_STATES states."""
        x = np.asarray(x, dtype=float)
        if x.shape != self.shape[:1]:
            raise ParameterError(f"D takes one vector of shape {self.shape[:1]}, got {x.shape}")
        index = self._index
        if index is None:
            t = x
        else:
            t = np.zeros(self.box)
            t[index] = x
        # Each step contracts the leading mode axis and moves it to the back,
        # so after every mode the axes are back in order.
        for table in self.tables:
            t = t.reshape(table.shape[0], -1).T @ table.T
        t = t.reshape(-1)
        return t if index is None else t[index]

    def dense(self, max_dim: int = MAX_TABLE_DIM) -> np.ndarray:
        """D as one dim x dim array, each entry the product over modes of
        table entries, so exactly symmetric; CapacityError above ``max_dim``."""
        _check_table_dim(self.basis.dim, max_dim)
        return _gather(self.basis.occupations, self.tables)

    def square(self) -> tuple[np.ndarray, float]:
        """The diagonal of D@D, one entry per basis state, and its largest
        off-diagonal magnitude, from per-mode pieces.

        Write each basis state as a prefix u over modes 0..n-2 and a
        last-mode occupation a <= room(u), where room(u) is the cap under a
        per-mode cap and cap - |u| under a total-quanta cap.  Summing the
        middle index over the basis gives

            (D@D)[(v,a),(w,c)] = sum_r G_r[v,w] * Q_r[a,c],
            G_r = D'[:, U_r] @ D'[U_r, :],    Q_r = T[:, :r+1] @ T[:r+1, :],

        with D' the parity matrix over the prefix basis, U_r the prefixes of
        room r and T the last mode's table.  A per-mode basis has the single
        room cap, so D@D = D'@D' (x) T@T; a single mode has one empty
        prefix, so D@D = T@T.  Neither D nor any dim x dim product is
        formed: the prefixes are sorted by room and each group of rows with
        room s is paired with the columns of room >= s, which covers every
        unordered pair of the symmetric D@D once.  The last-mode axis is
        padded to cap + 1 and masked.

        A per-mode basis still squares to one dim x dim block, so the
        dimension guard of :meth:`dense` holds here too.
        """
        _check_table_dim(self.basis.dim)
        tables = self.tables
        occ = self.basis.occupations
        # Lexicographic order runs the last mode fastest, so each prefix owns
        # the contiguous states from its last-mode occupation 0 up to its room.
        starts = np.flatnonzero(occ[:, -1] == 0)
        room = np.maximum.reduceat(occ[:, -1], starts)
        order = np.argsort(room, kind="stable")
        starts, room = starts[order], room[order]
        # One group (room r, sorted positions lo:hi) per distinct room.
        cuts = [0, *(np.flatnonzero(np.diff(room)) + 1), len(room)]
        groups = [(room[lo], lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])]
        d_prefix = _gather(occ[starts, :-1], tables[:-1])
        last = tables[-1]
        g = np.empty((len(groups),) + d_prefix.shape)
        q = np.empty((len(groups),) + last.shape)
        for i, (r, lo, hi) in enumerate(groups):
            np.matmul(d_prefix[:, lo:hi], d_prefix[lo:hi], out=g[i])
            np.matmul(last[:, : r + 1], last[: r + 1], out=q[i])
        # Padded last-mode occupations c > room(w) lie outside the basis.
        inside = np.arange(last.shape[0]) <= room[:, None]
        diag = np.empty(self.basis.dim)
        offdiag = 0.0
        for r, lo, hi in groups:
            # Rows of room r against every column of room >= r: by symmetry
            # this meets each unordered pair of states once.
            block = np.tensordot(g[:, lo:hi, lo:], q[:, : r + 1, :], axes=(0, 0))
            block *= inside[None, lo:, None, :]  # axes (v, w, a, c)
            v = np.arange(hi - lo)[:, None]
            a = np.arange(r + 1)
            diag[starts[lo:hi, None] + a] = block[v, v, a, a]
            block[v, v, a, a] = 0.0
            offdiag = max(offdiag, float(np.max(block)), -float(np.min(block)))
        return diag, offdiag


# ---------------------------------------------------------------------------
# Independent oracle: contract the parity factor through the bare number basis.
# ---------------------------------------------------------------------------

NORM_DEFICIT_TOL = 1e-12


def _displaced_coeffs(n: int, q: float, cutoff: int) -> np.ndarray:
    """Bare-basis coefficients of the displaced number state |n>_A.

    Expands (a+ + q)**n / sqrt(n!) * exp(-q a+ - q**2/2) |0> by the binomial
    theorem and the exponential series; entry j is <j | n>_A.
    """
    if q == 0.0:
        out = np.zeros(cutoff + 1)
        if n <= cutoff:
            out[n] = 1.0
        return out
    logq = math.log(q)
    pref = -0.5 * q * q - 0.5 * _LGAMMA(n + 1)
    out = np.empty(cutoff + 1)
    for j in range(cutoff + 1):
        terms = []
        for i in range(min(j, n) + 1):
            mag = (
                pref
                + _LGAMMA(n + 1) - _LGAMMA(i + 1) - _LGAMMA(n - i + 1)  # log C(n, i)
                + (n - i) * logq + (j - i) * logq
                + 0.5 * _LGAMMA(j + 1) - _LGAMMA(j - i + 1)
            )
            terms.append((mag, -1.0 if (j - i) % 2 else 1.0))
        shift = max(t[0] for t in terms)
        acc = math.fsum(sign * math.exp(mag - shift) for mag, sign in terms)
        out[j] = math.exp(shift) * acc if acc != 0.0 else 0.0
    return out


def overlap_oracle(m, n, bath: BathModel, bare_cutoff: int) -> float:
    """Parity matrix element between displaced states via the bare basis.

    Fully independent of the L-formula route: the displaced states are
    expanded in the bare number basis from their defining expression, the
    bare parity signs (-1)**j are applied, and the expansions contracted.

    Raises
    ------
    ConvergenceError
        If any expansion norm falls short of 1 by more than 1e-12; carries
        the achieved deficit.
    """
    m = tuple(int(v) for v in m)
    n = tuple(int(v) for v in n)
    if len(m) != bath.n_modes or len(n) != bath.n_modes:
        raise ParameterError(
            f"occupation vectors of length {len(m)}/{len(n)} do not match "
            f"{bath.n_modes} bath modes"
        )
    for v in (*m, *n):
        _check_occupation(v)
    if bare_cutoff < 0:
        raise ParameterError(f"bare_cutoff must be >= 0, got {bare_cutoff}")
    parity = np.where(np.arange(bare_cutoff + 1) % 2, -1.0, 1.0)
    value = 1.0
    for mk, nk, q in zip(m, n, bath.qs):
        cm = _displaced_coeffs(mk, q, bare_cutoff)
        cn = _displaced_coeffs(nk, q, bare_cutoff)
        for occ, c in ((mk, cm), (nk, cn)):
            deficit = max(0.0, 1.0 - float(c @ c))
            if deficit > NORM_DEFICIT_TOL:
                raise ConvergenceError(
                    f"bare cutoff {bare_cutoff} leaves norm deficit {deficit:.3e} "
                    f"for displaced state n={occ}, q={q:.6g}",
                    deficit=deficit,
                )
        value *= float(np.sum(parity * cm * cn))
    return value
