"""Effective atom-plus-two-mode Hamiltonian with a steerable drive polarization.

The physical picture: a two-level atom is driven by a classical field whose
polarization point on the Poincare sphere is set by two angles (theta, phi),
and it exchanges excitation with two degenerate cavity modes of opposite
circular polarization.  After adiabatic elimination of the far-detuned
intermediate level, the dynamics lives in the space of hilbert.py with

    H = shift2 * P2 + shift1 * (N+ + N-) * P1
        + lam * [ (u+ a+ + u- a-) |2><1| + h.c. ]

where shift2 = omega_drive**2 / delta, shift1 = g**2 / delta, and
lam = g * omega_drive / delta.  The complex weights (u+, u-) encode the drive
polarization.  Angular frequencies are in rad/ms, times in ms.  Each
matrix element is fixed by the integer labels (level, n, m) of its row
and column, so HamiltonianFactory and the excitation-sector maps are
built from hilbert.basis_labels, with no operator products.

Gauge convention for the weights, used consistently everywhere:

    u+ = cos(theta / 2)
    u- = sin(theta / 2) * exp(+i * phi)

This choice is single valued on the sphere minus the south pole, so a closed
polarization loop that stays off the south pole returns (u+, u-) to the exact
same pair, with no global sign flip.  All phase bookkeeping in phases.py
assumes this convention.
"""

from __future__ import annotations

import math
from collections import namedtuple
from functools import cached_property
from types import SimpleNamespace

import numpy as np

from .hilbert import SpaceConfig, _Checked, basis_labels

__all__ = [
    "ModelParams",
    "default_params",
    "coupling_weights",
    "HamiltonianFactory",
    "excitation_operator",
    "excitation_sector_indices",
    "TWO_PI",
]

TWO_PI = 2.0 * math.pi


class ModelParams(_Checked, namedtuple("ModelParams", "g omega_drive delta")):
    """Physical rates of the effective model, all in rad/ms.

    Parameters
    ----------
    g : float
        Atom-cavity coupling rate (single mode, vacuum).
    omega_drive : float
        Classical drive Rabi rate.
    delta : float
        Detuning of drive and cavity from the eliminated intermediate level.
        Must be positive; the elimination is trustworthy when it dominates
        both g and omega_drive.  Every rate must be finite.
    """

    __slots__ = ()

    def __new__(cls, g: float = TWO_PI * 50.0, omega_drive: float = TWO_PI * 50.0,
                delta: float = 3.0 * TWO_PI * 50.0):
        # written so that NaN fails too
        if not 0.0 < delta < math.inf:
            raise ValueError(f"delta must be > 0 and finite, got {delta}")
        if not (0.0 <= g < math.inf and 0.0 <= omega_drive < math.inf):
            raise ValueError(f"g and omega_drive must be >= 0 and finite, got {g}, {omega_drive}")
        return super().__new__(cls, g, omega_drive, delta)

    @property
    def lam(self) -> float:
        """Effective vacuum flip rate g * omega_drive / delta."""
        return self.g * self.omega_drive / self.delta

    @property
    def shift_upper(self) -> float:
        """Light shift of atom level 2, omega_drive**2 / delta."""
        return self.omega_drive**2 / self.delta

    @property
    def shift_lower_per_photon(self) -> float:
        """Light shift of atom level 1 per cavity photon, g**2 / delta."""
        return self.g**2 / self.delta

    @property
    def flip_period(self) -> float:
        """Duration of one full vacuum excitation exchange, 2 pi / lam, in ms."""
        if self.lam == 0.0:
            raise ValueError("flip period undefined at lam = 0")
        return TWO_PI / self.lam


def default_params() -> ModelParams:
    """Reference parameter set: g = omega_drive = 2 pi * 50 rad/ms, delta = 3 omega."""
    return ModelParams()


def coupling_weights(
    theta: float | np.ndarray, phi: float | np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Drive weights (u+, u-) for sphere point (theta, phi).

    Single-valued convention: u+ = cos(theta/2), u- = sin(theta/2) e^{i phi}.
    |u+|^2 + |u-|^2 = 1 for any input.  The angles broadcast: arrays of
    angles give arrays of weights.
    """
    half = np.multiply(0.5, theta)
    return np.cos(half) + 0j, np.sin(half) * (np.cos(phi) + 1j * np.sin(phi))


class HamiltonianFactory:
    """Precomputed pieces of H so assembly is one gather of drive weights.

    The Hamiltonian at any sphere point is

        H(theta, phi) = D + lam * (u+ C+ + u- C- + h.c.)

    with D the diagonal light-shift part, shift2 on level 2 and
    shift1 * (n + m) on level 1, and C+- = a+- |2><1| the fixed couplings:
    C+ takes |1,n,m> to sqrt(n) |2,n-1,m> and C- takes |1,n,m> to
    sqrt(m) |2,n,m-1>.  Every entry follows from the integer labels of
    its row and column (hilbert.basis_labels), so the pieces are built
    straight from them, and D holds the exact integer n + m.  The pieces
    (D, C+, C-, C+^H, C-^H) have disjoint supports, so each entry of H is
    one piece's real value times that piece's weight, one of
    (1, lam u+, lam u-, conj(lam u+), conj(lam u-)).  dense() gathers the
    weight of each entry and takes that single rounded product, so H is
    exactly Hermitian.  Dense arrays are kept because every propagation
    step diagonalizes H anyway.

    When sector lists flat indices (one or more whole excitation sectors,
    see excitation_sector_indices), the pieces are built on that block
    only and dense() returns exactly dense()[np.ix_(sector, sector)] of
    the full factory, bit for bit, at a fraction of the cost.  When sector
    is a 2-D array of such index rows, dense() returns the
    (rows, width, width) stack of their blocks; the index space.dim stands
    for a padding state whose row and column are exactly zero, so rows of
    unequal sectors can be padded to one width.
    """

    def __init__(
        self, space: SpaceConfig, params: ModelParams, sector: list[int] | None = None
    ):
        self.params = params
        idx = np.arange(space.dim) if sector is None else np.asarray(sector, dtype=int)
        # the padding state's level -1 gives it no diagonal and no coupling
        labels = np.append(basis_labels(space), [[-1], [0], [0]], axis=1)
        self._labels = labels[:, idx]
        level, n, m = self._labels
        row, col = (..., slice(None), None), (..., None, slice(None))
        diag = np.select(
            [level == 1, level == 0],
            [params.shift_upper, params.shift_lower_per_photon * (n + m)],
        )
        # a level-1 column raised to a level-2 row, one photon fewer
        raised = (level[row] == 1) & (level[col] == 0)
        plus = raised & (n[row] == n[col] - 1) & (m[row] == m[col])
        minus = raised & (n[row] == n[col]) & (m[row] == m[col] - 1)
        c_plus = np.where(plus, np.sqrt(n[col]), 0.0)
        c_minus = np.where(minus, np.sqrt(m[col]), 0.0)
        # C+, C-, C+^H, C-^H: disjoint, off the diagonal and nonzero on their
        # supports, so sums give each entry's one value and piece (0 is D),
        # which indexes the weights of dense()
        pieces = [c_plus, c_minus, c_plus.swapaxes(-1, -2), c_minus.swapaxes(-1, -2)]
        self._value = np.where(np.eye(idx.shape[-1], dtype=bool), diag[col], sum(pieces))
        self._piece = sum(k * (c != 0) for k, c in enumerate(pieces, 1))

    def dense(self, theta: float | np.ndarray, phi: float | np.ndarray) -> np.ndarray:
        """Dense H at sphere point (theta, phi): one matrix, or a stack of blocks.

        Arrays of angles give the Hamiltonians of every point at once, on
        leading axes of the angles' shape; each equals the single point's
        H bit for bit.
        """
        s = self.params.lam * np.stack(coupling_weights(theta, phi), axis=-1)
        weights = np.concatenate([np.ones_like(s[..., :1]), s, s.conj()], axis=-1)
        return np.take(weights, self._piece, axis=-1) * self._value

    @property
    def minus_photons(self) -> np.ndarray:
        """Photon number m of mode "-" on each state of the block (0 on padding).

        The azimuth is a diagonal frame in any truncation:
        H(theta, phi) = exp(-i phi N-) H(theta, 0) exp(i phi N-).
        """
        return self._labels[2]

    def mode_rotation(self) -> np.ndarray:
        """Dense K = -(i/2)(a+^H a- - a-^H a+) on the same states as dense().

        K rotates the two modes into each other and carries the drive down
        a meridian: H(theta, 0) = exp(-i theta K) H(0, 0) exp(i theta K).
        The identity holds on every complete excitation sector, k <=
        min(nmax_plus, nmax_minus); a sector cut by a cutoff lacks states
        the rotation reaches, and there it fails.  The array is the
        factory's own, built once; do not modify it.
        """
        return self._frame_pieces[1]

    def drive_frame(
        self, theta: float | np.ndarray, theta_rate: float, phi_rate: float
    ) -> np.ndarray:
        """Generator G of the drive frame W = exp(-i phi N-) exp(-i theta K).

        While the drive moves at rates (theta_rate, phi_rate), the state
        chi = W^H psi obeys i dchi/dt = G chi with

            G = H(0, 0) - theta_rate K
                - phi_rate [cos^2(theta/2) N- + sin^2(theta/2) N+
                            + (1/2) sin(theta) (a+^H a- + a-^H a+)],

        the bracket being exp(i theta K) N- exp(-i theta K).  G does not
        depend on phi, so on an azimuth leg (constant theta) and on a
        meridian leg (phi_rate = 0) it does not move at all.  The identity
        needs the same complete sectors as mode_rotation.  theta broadcasts
        like dense()'s angles: an array of angles gives the generators of
        every point, on leading axes of its shape.  The fixed matrices are
        built on the first call, so a call is one broadcast of them.
        """
        pole, k_mat, n_minus, n_plus, hop = self._frame_pieces
        t = np.reshape(theta, np.shape(theta) + (1,) * pole.ndim)
        turned = np.cos(0.5 * t) ** 2 * n_minus + np.sin(0.5 * t) ** 2 * n_plus
        turned += 0.5 * np.sin(t) * hop
        return pole - theta_rate * k_mat - phi_rate * turned

    @cached_property
    def _frame_pieces(self) -> tuple[np.ndarray, ...]:
        """H(0, 0), K, the dense N- and N+ and a+^H a- + a-^H a+ on the block."""
        level, n, m = self._labels
        row, col = (..., slice(None), None), (..., None, slice(None))
        # a+^H a-: one photon moved from mode "-" to mode "+", on either level
        hop = np.where(
            (level[row] == level[col]) & (n[row] == n[col] + 1) & (m[row] == m[col] - 1),
            np.sqrt(n[row] * m[col]),
            0.0,
        )
        eye = np.eye(n.shape[-1])
        return (
            self.dense(0.0, 0.0), -0.5j * (hop - hop.swapaxes(-1, -2)),
            m[..., None] * eye, n[..., None] * eye, hop + hop.swapaxes(-1, -2),
        )


def excitation_sector_indices(space: SpaceConfig, n_exc: int) -> list[int]:
    """Flat indices of basis states with total excitation n_exc.

    Total excitation counts photons in both modes plus one for atom level 2.
    Propagation never mixes sectors, so restricting to one sector is exact.
    """
    return np.flatnonzero(basis_labels(space).sum(axis=0) == n_exc).tolist()


def excitation_operator(space: SpaceConfig) -> SimpleNamespace:
    """Conserved total excitation N+ + N- + P2, a scipy.sparse diagonal under .entries.

    Commutes with H at every sphere point, so propagation never mixes
    excitation sectors.  Its entries are the exact integer labels
    (level - 1) + n + m, so states of one sector compare equal.  Imports
    scipy, which nothing on the run path needs.
    """
    from scipy import sparse

    labels = basis_labels(space).sum(axis=0)
    return SimpleNamespace(entries=sparse.diags(labels, dtype=labels.dtype))
