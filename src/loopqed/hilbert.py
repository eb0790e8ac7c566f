"""Truncated state space for one two-level atom and two cavity modes.

The joint space is atom (levels 1 and 2) tensor mode "+" tensor mode "-",
with each mode truncated at a configurable photon cutoff.  Flat indexing is
atom-major, then the "+" photon number, then the "-" photon number:

    index(level, n, m) = ((level - 1) * (nmax_plus + 1) + n) * (nmax_minus + 1) + m

This order is part of the public contract (ramsey.close_and_detect reads
the level-1 and level-2 halves of the vector).  basis_labels gives the
integer labels of every flat index as one table, from which the model,
the sector maps, the ideal phase map and the re-embedding of a state into
another space (embed_state) are all built.  A box (a, b) holds excitation
sector k whole iff k <= min(a, b) (require_complete, complete_box).
Amplitudes are complex numpy arrays; operators are the model's dense
blocks, so nothing here needs scipy.
"""

from __future__ import annotations

import math
from collections import namedtuple

import numpy as np

__all__ = [
    "SpaceConfig",
    "StateVector",
    "TruncationError",
    "make_space",
    "state_index",
    "basis_labels",
    "embed_state",
    "complete_box",
    "require_complete",
    "fock_state",
    "coherent_mode_coefficients",
    "coherent_tail_mass",
]

NORM_TOL = 1e-10
DEFAULT_TAIL_TOL = 1e-3


class TruncationError(ValueError):
    """Raised when a requested state does not fit the photon cutoffs.

    alpha is the coherent amplitude at fault, when a coherent state is.
    """

    def __init__(self, message: str, alpha: complex | None = None):
        super().__init__(message)
        self.alpha = alpha


class _Checked:
    """Base of a namedtuple record whose __new__ checks its fields: its _make,
    and so _replace, build through that __new__, not tuple.__new__."""

    __slots__ = ()

    @classmethod
    def _make(cls, fields):
        return cls(*fields)


class SpaceConfig(_Checked, namedtuple("SpaceConfig", "nmax_plus nmax_minus")):
    """Shape of the truncated joint space.

    Parameters
    ----------
    nmax_plus : int
        Highest photon number kept in mode "+".
    nmax_minus : int
        Highest photon number kept in mode "-".

    The atom always has exactly two levels, labelled 1 (lower) and 2 (upper).
    """

    __slots__ = ()

    def __new__(cls, nmax_plus: int, nmax_minus: int):
        if not all(isinstance(n, (int, np.integer)) for n in (nmax_plus, nmax_minus)):
            raise ValueError(f"photon cutoffs must be integers, got ({nmax_plus}, {nmax_minus})")
        if nmax_plus < 0 or nmax_minus < 0:
            raise ValueError(f"photon cutoffs must be >= 0, got ({nmax_plus}, {nmax_minus})")
        return super().__new__(cls, nmax_plus, nmax_minus)

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


def basis_labels(space: SpaceConfig) -> np.ndarray:
    """Integer labels (level - 1, n, m) of every basis state, by flat index.

    Returns a (3, dim) int array whose column k labels flat index k.  The
    first row is the atomic excitation, 0 on level 1 and 1 on level 2, so
    the column sums are the total excitation of each state.
    """
    return np.indices((2, space.nmax_plus + 1, space.nmax_minus + 1)).reshape(3, -1)


class StateVector:
    """Complex amplitude vector over a SpaceConfig, or a batch of them.

    amplitudes is (dim,) for one state or (B, dim) for a batch of B states
    in the same space, one per row.  `normalized` records whether each
    vector is meant to be unit norm.  When True the constructor enforces it
    within 1e-10 (a non-finite norm fails too); intermediates that are not
    unit norm must be created with normalized=False.
    """

    __slots__ = ("amplitudes", "space", "normalized")

    def __init__(self, amplitudes: np.ndarray, space: SpaceConfig, normalized: bool = True):
        amps = np.asarray(amplitudes, dtype=complex)
        if amps.ndim not in (1, 2) or amps.shape[-1] != space.dim:
            raise ValueError(f"amplitude shape {amps.shape} does not match space dim {space.dim}")
        self.amplitudes, self.space, self.normalized = amps, space, normalized
        if normalized:
            nrm = np.atleast_1d(np.linalg.norm(amps, axis=-1))
            # written so that a NaN norm fails too
            bad = ~(np.abs(nrm - 1.0) <= NORM_TOL)
            if bad.any():
                raise ValueError(
                    f"state flagged normalized has norm {float(nrm[bad][0])!r}"
                )

    @property
    def norm(self):
        """The norm: a float for one state, a (B,) array for a batch."""
        nrm = np.linalg.norm(self.amplitudes, axis=-1)
        return float(nrm) if nrm.ndim == 0 else nrm


def embed_state(state: StateVector, space: SpaceConfig) -> StateVector:
    """The same state written in another space, matched by basis label.

    Each amplitude moves to the flat index of its (level, n, m) in space;
    labels absent there must carry zero amplitude, else TruncationError.
    A batch keeps its rows.
    """
    level, n, m = basis_labels(state.space)
    held = np.any(state.amplitudes.reshape(-1, state.space.dim) != 0, axis=0)
    if np.any(n[held] > space.nmax_plus) or np.any(m[held] > space.nmax_minus):
        raise TruncationError(
            f"state occupies photon numbers beyond the cutoffs "
            f"({space.nmax_plus}, {space.nmax_minus})"
        )
    # state_index for every held label at once
    index = np.ravel_multi_index(
        (level[held], n[held], m[held]), (2, space.nmax_plus + 1, space.nmax_minus + 1)
    )
    amps = np.zeros(state.amplitudes.shape[:-1] + (space.dim,), dtype=complex)
    amps[..., index] = state.amplitudes[..., held]
    return StateVector(amps, space, normalized=state.normalized)


def complete_box(state: StateVector) -> SpaceConfig:
    """The box (K, K), K the highest excitation sector any row of state occupies.

    It holds every occupied sector whole (require_complete); an all-zero
    state gives (0, 0).
    """
    held = np.any(state.amplitudes.reshape(-1, state.space.dim) != 0, axis=0)
    top = int(basis_labels(state.space).sum(axis=0)[held].max(initial=0))
    return make_space(top, top)


def require_complete(space: SpaceConfig, sectors) -> None:
    """Raise TruncationError unless space holds every excitation sector whole.

    sectors is one sector number or an array of them.  Sector k puts up to
    k photons in either mode, so the box (a, b) holds it whole iff
    k <= min(a, b).  The message names the lowest cut sector and the box
    (K, K), K the highest sector, that holds them all.
    """
    sectors = np.atleast_1d(sectors)
    cut = sectors[sectors > min(space.nmax_plus, space.nmax_minus)]
    if cut.size:
        top = sectors.max()
        raise TruncationError(
            f"excitation sector {cut.min()} is cut by the cutoffs ({space.nmax_plus}, "
            f"{space.nmax_minus}); the box ({top}, {top}) holds every occupied sector whole"
        )


def fock_state(space: SpaceConfig, level: int, n: int, m: int) -> StateVector:
    """Basis state |level, n, m> as a unit StateVector."""
    amps = np.zeros(space.dim, dtype=complex)
    amps[state_index(space, level, n, m)] = 1.0
    return StateVector(amps, space)


def coherent_mode_coefficients(
    alpha, nmax: int, tail_tol=DEFAULT_TAIL_TOL
) -> np.ndarray:
    """Renormalized truncated coherent amplitudes for a single mode.

    Returns c[0..nmax] with c_n proportional to e^{-|alpha|^2/2} alpha^n /
    sqrt(n!), rescaled to unit norm.  alpha may also be a sequence of
    amplitudes, with tail_tol one tolerance or one for each; the result then
    has one row of coefficients per amplitude.  Raises ValueError on a
    non-finite amplitude, and TruncationError, naming the first amplitude
    at fault, when the probability mass beyond nmax reaches tail_tol.
    """
    alphas = list(alpha) if np.ndim(alpha) else [alpha]
    values = np.array(alphas, dtype=complex)
    finite = np.isfinite(values)
    if not finite.all():
        raise ValueError(
            f"coherent amplitude must be finite, got {alphas[np.argmin(finite)]}"
        )
    tails = coherent_tail_mass(values, nmax)
    tols = np.broadcast_to(tail_tol, tails.shape)
    over = tails >= tols
    if over.any():
        i = int(np.argmax(over))
        raise TruncationError(
            f"coherent state alpha={alphas[i]} leaves tail mass {tails[i]:.3e} beyond "
            f"nmax={nmax} (tail_tol={tols[i]:.1e}); enlarge the space",
            alphas[i],
        )
    # stable recurrence c_{k+1} = c_k * alpha / sqrt(k+1), one amplitude a row
    coeffs = np.zeros((len(alphas), nmax + 1), dtype=complex)
    coeffs[:, 0] = [math.exp(-abs(a) ** 2 / 2.0) for a in alphas]
    for k in range(nmax):
        coeffs[:, k + 1] = coeffs[:, k] * values / math.sqrt(k + 1)
    kept = np.sum(np.abs(coeffs) ** 2, axis=-1)
    coeffs /= np.sqrt(kept)[:, None]
    return coeffs if np.ndim(alpha) else coeffs[0]


def coherent_tail_mass(alpha, nmax: int):
    """Poisson probability mass beyond nmax for amplitude alpha.

    alpha may be an array of amplitudes, giving an array of tails.  A
    non-finite amplitude gives NaN.  A finite amplitude whose |alpha|^2
    overflows gives 1: it keeps no mass at or below nmax.
    """
    values = np.asarray(alpha)
    with np.errstate(over="ignore"):
        lam = np.minimum(np.abs(values) ** 2, np.finfo(float).max)
    lam = np.where(np.isfinite(values), lam, np.nan)
    kept = np.zeros_like(lam)
    term = np.exp(-lam)
    for k in range(nmax + 1):
        kept += term
        term *= lam / (k + 1)
    tail = np.maximum(0.0, 1.0 - kept)
    return float(tail) if tail.ndim == 0 else tail
