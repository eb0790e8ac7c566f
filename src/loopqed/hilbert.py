"""Truncated state space for one two-level atom and two cavity modes.

The joint space is atom (levels 1 and 2) tensor mode "+" tensor mode "-",
with each mode truncated at a configurable photon cutoff.  Flat indexing is
atom-major, then the "+" photon number, then the "-" photon number:

    index(level, n, m) = ((level - 1) * (nmax_plus + 1) + n) * (nmax_minus + 1) + m

This order is part of the public contract (ramsey.close_and_detect reads
the level-1 and level-2 halves of the vector).  Amplitudes are complex
numpy arrays; operators are stored sparse.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse

__all__ = [
    "SpaceConfig",
    "StateVector",
    "OperatorMatrix",
    "TruncationError",
    "make_space",
    "state_index",
    "fock_state",
    "coherent_mode_coefficients",
    "coherent_tail_mass",
    "annihilation",
    "atomic_projector",
    "atomic_raise",
]

NORM_TOL = 1e-10
HERMITICITY_TOL = 1e-12
DEFAULT_TAIL_TOL = 1e-3


class TruncationError(ValueError):
    """Raised when a requested state does not fit the photon cutoffs."""


@dataclass(frozen=True)
class SpaceConfig:
    """Shape of the truncated joint space.

    Parameters
    ----------
    nmax_plus : int
        Highest photon number kept in mode "+".
    nmax_minus : int
        Highest photon number kept in mode "-".

    The atom always has exactly two levels, labelled 1 (lower) and 2 (upper).
    """

    nmax_plus: int
    nmax_minus: int

    def __post_init__(self):
        if self.nmax_plus < 0 or self.nmax_minus < 0:
            raise ValueError(
                f"photon cutoffs must be >= 0, got ({self.nmax_plus}, {self.nmax_minus})"
            )

    @property
    def dim(self) -> int:
        return 2 * (self.nmax_plus + 1) * (self.nmax_minus + 1)


def make_space(nmax_plus: int, nmax_minus: int) -> SpaceConfig:
    """Build a SpaceConfig with the given per-mode photon cutoffs."""
    return SpaceConfig(nmax_plus, nmax_minus)


def state_index(space: SpaceConfig, level: int, n: int, m: int) -> int:
    """Flat index of the basis state |level, n, m>.

    Raises ValueError if any label is outside the space.
    """
    if level not in (1, 2):
        raise ValueError(f"atom level must be 1 or 2, got {level}")
    if not 0 <= n <= space.nmax_plus:
        raise ValueError(f"mode + photon number {n} outside [0, {space.nmax_plus}]")
    if not 0 <= m <= space.nmax_minus:
        raise ValueError(f"mode - photon number {m} outside [0, {space.nmax_minus}]")
    return ((level - 1) * (space.nmax_plus + 1) + n) * (space.nmax_minus + 1) + m


@dataclass
class StateVector:
    """Complex amplitude vector over a SpaceConfig.

    `normalized` records whether the vector is meant to be unit norm.  When
    True the constructor enforces it within 1e-10; intermediates that are not
    unit norm must be created with normalized=False.
    """

    amplitudes: np.ndarray
    space: SpaceConfig
    normalized: bool = True

    def __post_init__(self):
        amps = np.asarray(self.amplitudes, dtype=complex)
        if amps.shape != (self.space.dim,):
            raise ValueError(
                f"amplitude shape {amps.shape} does not match space dim {self.space.dim}"
            )
        self.amplitudes = amps
        if self.normalized:
            nrm = float(np.linalg.norm(amps))
            if abs(nrm - 1.0) > NORM_TOL:
                raise ValueError(f"state flagged normalized has norm {nrm!r}")

    @property
    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))


@dataclass
class OperatorMatrix:
    """Sparse operator on a SpaceConfig with an optional hermiticity guarantee."""

    entries: sparse.spmatrix
    space: SpaceConfig
    hermitian: bool = False

    def __post_init__(self):
        mat = sparse.csr_matrix(self.entries, dtype=complex)
        if mat.shape != (self.space.dim, self.space.dim):
            raise ValueError(
                f"operator shape {mat.shape} does not match space dim {self.space.dim}"
            )
        self.entries = mat
        if self.hermitian:
            dev = abs(mat - mat.conj().T)
            worst = dev.max() if dev.nnz else 0.0
            if worst > HERMITICITY_TOL:
                raise ValueError(
                    f"operator flagged hermitian deviates from H = H^dag by {worst:.3e}"
                )

    def dense(self) -> np.ndarray:
        return self.entries.toarray()


def _canonical_mode(mode: str) -> str:
    if mode in ("plus", "+"):
        return "plus"
    if mode in ("minus", "-"):
        return "minus"
    raise ValueError(f"mode must be 'plus'/'+' or 'minus'/'-', got {mode!r}")


def fock_state(space: SpaceConfig, level: int, n: int, m: int) -> StateVector:
    """Basis state |level, n, m> as a unit StateVector."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[state_index(space, level, n, m)] = 1.0
    return StateVector(amps, space)


def coherent_mode_coefficients(
    alpha: complex, nmax: int, tail_tol: float = DEFAULT_TAIL_TOL
) -> np.ndarray:
    """Renormalized truncated coherent amplitudes for a single mode.

    Returns c[0..nmax] with c_n proportional to e^{-|alpha|^2/2} alpha^n /
    sqrt(n!), rescaled to unit norm.  Raises TruncationError when the
    probability mass beyond nmax reaches tail_tol.
    """
    tail = coherent_tail_mass(alpha, nmax)
    if tail >= tail_tol:
        raise TruncationError(
            f"coherent state alpha={alpha} leaves tail mass {tail:.3e} beyond "
            f"nmax={nmax} (tail_tol={tail_tol:.1e}); enlarge the space"
        )
    # stable recurrence c_{k+1} = c_k * alpha / sqrt(k+1)
    coeffs = np.zeros(nmax + 1, dtype=complex)
    coeffs[0] = math.exp(-abs(alpha) ** 2 / 2.0)
    for k in range(nmax):
        coeffs[k + 1] = coeffs[k] * alpha / math.sqrt(k + 1)
    kept = float(np.sum(np.abs(coeffs) ** 2))
    return coeffs / math.sqrt(kept)


def coherent_tail_mass(alpha: complex, nmax: int) -> float:
    """Poisson probability mass beyond nmax for amplitude alpha."""
    lam = abs(alpha) ** 2
    kept = 0.0
    term = math.exp(-lam)
    for k in range(nmax + 1):
        kept += term
        term *= lam / (k + 1)
    return max(0.0, 1.0 - kept)


def annihilation(space: SpaceConfig, mode: str) -> OperatorMatrix:
    """Annihilation operator for mode "plus" or "minus".

    Matrix elements <n-1|a|n> = sqrt(n) within the truncated ladder; the
    highest kept level simply has no state above it.
    """
    mode = _canonical_mode(mode)
    rows, cols, vals = [], [], []
    for level in (1, 2):
        for n in range(space.nmax_plus + 1):
            for m in range(space.nmax_minus + 1):
                col = state_index(space, level, n, m)
                if mode == "plus" and n >= 1:
                    rows.append(state_index(space, level, n - 1, m))
                    cols.append(col)
                    vals.append(math.sqrt(n))
                elif mode == "minus" and m >= 1:
                    rows.append(state_index(space, level, n, m - 1))
                    cols.append(col)
                    vals.append(math.sqrt(m))
    mat = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(space.dim, space.dim), dtype=complex
    )
    return OperatorMatrix(mat, space, hermitian=False)


def atomic_projector(space: SpaceConfig, level: int) -> OperatorMatrix:
    """Projector onto atom level 1 or 2 (identity on the modes)."""
    if level not in (1, 2):
        raise ValueError(f"atom level must be 1 or 2, got {level}")
    diag = np.zeros(space.dim)
    for n in range(space.nmax_plus + 1):
        for m in range(space.nmax_minus + 1):
            diag[state_index(space, level, n, m)] = 1.0
    return OperatorMatrix(sparse.diags(diag).tocsr(), space, hermitian=True)


def atomic_raise(space: SpaceConfig) -> OperatorMatrix:
    """Atomic raising operator |2><1| (identity on the modes)."""
    rows, cols = [], []
    for n in range(space.nmax_plus + 1):
        for m in range(space.nmax_minus + 1):
            rows.append(state_index(space, 2, n, m))
            cols.append(state_index(space, 1, n, m))
    vals = np.ones(len(rows))
    mat = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(space.dim, space.dim), dtype=complex
    )
    return OperatorMatrix(mat, space, hermitian=False)
