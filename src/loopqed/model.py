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
polarization.  Angular frequencies are in rad/ms, times in ms.

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
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from .hilbert import (
    OperatorMatrix,
    SpaceConfig,
    annihilation,
    atomic_projector,
    atomic_raise,
    state_index,
)

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


@dataclass(frozen=True)
class ModelParams:
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
        both g and omega_drive.
    """

    g: float = TWO_PI * 50.0
    omega_drive: float = TWO_PI * 50.0
    delta: float = 3.0 * TWO_PI * 50.0

    def __post_init__(self):
        if self.delta <= 0.0:
            raise ValueError("delta must be > 0")
        if self.g < 0 or self.omega_drive < 0:
            raise ValueError("g and omega_drive must be >= 0")

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


def coupling_weights(theta: float, phi: float) -> tuple[complex, complex]:
    """Drive weights (u+, u-) for sphere point (theta, phi).

    Single-valued convention: u+ = cos(theta/2), u- = sin(theta/2) e^{i phi}.
    |u+|^2 + |u-|^2 = 1 for any input.
    """
    half = 0.5 * theta
    return (
        complex(math.cos(half)),
        complex(math.sin(half)) * complex(math.cos(phi), math.sin(phi)),
    )


class HamiltonianFactory:
    """Precomputed pieces of H so per-step assembly is one weighted sum.

    The Hamiltonian at any sphere point is

        H(theta, phi) = D + lam * (u+ C+ + u- C- + h.c.)

    with D the diagonal light-shift part and C± = a± |2><1| the fixed
    structure matrices.  dense() forms it as one product of the weights
    (1, lam u+, conj(lam u+), lam u-, conj(lam u-)) with the stacked pieces
    (D, C+, C+^H, C-, C-^H).  The pieces have disjoint supports, so each
    entry of H is a single rounded product and H is exactly Hermitian.
    Dense arrays are kept because every propagation step diagonalizes H
    anyway.

    When sector lists flat indices (one or more whole excitation sectors,
    see excitation_sector_indices), the pieces are cut down to that block and
    dense() returns exactly dense()[np.ix_(sector, sector)] of the full
    factory, bit for bit, at a fraction of the cost.  When sector is a 2-D
    array of such index rows, dense() returns the (rows, width, width) stack
    of their blocks; the index space.dim stands for a padding state whose
    row and column are exactly zero, so rows of unequal sectors can be
    padded to one width.
    """

    def __init__(
        self, space: SpaceConfig, params: ModelParams, sector: list[int] | None = None
    ):
        self.space = space
        self.params = params
        p2 = atomic_projector(space, 2).entries
        p1 = atomic_projector(space, 1).entries
        a_plus = annihilation(space, "plus").entries
        a_minus = annihilation(space, "minus").entries
        number_total = (a_plus.conj().T @ a_plus) + (a_minus.conj().T @ a_minus)
        raise_op = atomic_raise(space).entries
        diag = params.shift_upper * p2 + params.shift_lower_per_photon * (
            number_total @ p1
        )
        idx = np.arange(space.dim) if sector is None else np.asarray(sector, dtype=int)
        d, c_plus, c_minus = (
            np.pad(p.toarray(), (0, 1))[idx[..., :, None], idx[..., None, :]]
            for p in (diag, a_plus @ raise_op, a_minus @ raise_op)
        )
        self._shape = d.shape
        pieces = (d, c_plus, c_plus.conj().swapaxes(-1, -2),
                  c_minus, c_minus.conj().swapaxes(-1, -2))
        self._pieces = np.stack(pieces).reshape(len(pieces), -1)

    def dense(self, theta: float, phi: float) -> np.ndarray:
        """Dense H at sphere point (theta, phi): one matrix, or a stack of blocks."""
        u_plus, u_minus = coupling_weights(theta, phi)
        s_plus, s_minus = self.params.lam * u_plus, self.params.lam * u_minus
        weights = np.array(
            [1.0, s_plus, s_plus.conjugate(), s_minus, s_minus.conjugate()]
        )
        return (weights @ self._pieces).reshape(self._shape)


def _excitation_labels(space: SpaceConfig) -> np.ndarray:
    """Integer total excitation of every basis state, by flat index."""
    labels = np.empty(space.dim, dtype=int)
    for level in (1, 2):
        for n in range(space.nmax_plus + 1):
            for m in range(space.nmax_minus + 1):
                labels[state_index(space, level, n, m)] = (level - 1) + n + m
    return labels


def excitation_sector_indices(space: SpaceConfig, n_exc: int) -> list[int]:
    """Flat indices of basis states with total excitation n_exc.

    Total excitation counts photons in both modes plus one for atom level 2.
    Propagation never mixes sectors, so restricting to one sector is exact.
    """
    return np.flatnonzero(_excitation_labels(space) == n_exc).tolist()


def excitation_operator(space: SpaceConfig) -> OperatorMatrix:
    """Conserved total excitation N+ + N- + P2.

    Commutes with H at every sphere point, so propagation never mixes
    excitation sectors.  Diagonal in the basis; its entries are the exact
    integer labels (level - 1) + n + m, so states of one sector compare
    equal.
    """
    labels = _excitation_labels(space).astype(float)
    return OperatorMatrix(sparse.diags(labels).tocsr(), space, hermitian=True)
