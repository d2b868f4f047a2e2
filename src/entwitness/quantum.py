"""Two-qubit states: Pauli featurization, random ensembles, PPT labeling, twirl.

States live in the computational product basis |00>, |01>, |10>, |11> with the
first qubit as the left tensor factor. A state is fully described by the 15
expectation values of the non-trivial Pauli products sigma_i (x) sigma_j, and
the entanglement label comes from the sign of det of the partial transpose,
cross-checkable against the smallest partial-transpose eigenvalue.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

HERMITICITY_TOL = 1e-12
TRACE_TOL = 1e-12
PSD_TOL = 1e-10
IMAG_TOL = 1e-10

# Ranks of the random-state ensembles: 4 is Hilbert-Schmidt, 1 pure states. A range,
# which messages give as RANKS[0]..RANKS[-1].
RANKS = (1, 2, 3, 4)

_SIGMA = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)

#: (i, j) Pauli index pairs of the 15 stored features, lexicographic, (0,0) excluded.
FEATURE_INDEX_PAIRS: tuple[tuple[int, int], ...] = tuple(
    (i, j) for i in range(4) for j in range(4) if (i, j) != (0, 0)
)

#: Feature column names, g01 .. g33, matching FEATURE_INDEX_PAIRS order.
FEATURE_NAMES: tuple[str, ...] = tuple(f"g{i}{j}" for i, j in FEATURE_INDEX_PAIRS)

_PAULI_PRODUCTS = np.stack(
    [np.kron(_SIGMA[i], _SIGMA[j]) for i in range(4) for j in range(4)]
)
_PAULI_15 = _PAULI_PRODUCTS[1:]


def _gather_table(coefs: np.ndarray) -> np.ndarray:
    """Rows of a [x; -x; 0] stack whose sums give coefs @ x, term by term in input order.

    `coefs` is (outputs, inputs) with entries in {0, 1, -1} and at most four
    nonzeros per output; the table is (4, outputs), padded with the zero row.
    """
    outputs, inputs = coefs.shape
    table = np.full((4, outputs), 2 * inputs)
    for out, row in enumerate(coefs):
        (cols,) = np.nonzero(row)
        table[: cols.size, out] = np.where(row[cols] > 0, cols, cols + inputs)
    return table


def _complex_coefs(z: np.ndarray) -> np.ndarray:
    """Complex coefficients z (outputs, inputs) as real ones on interleaved (re, im) parts."""
    coefs = np.zeros((2 * z.shape[0], 2 * z.shape[1]))
    coefs[0::2, 0::2] = z.real
    coefs[0::2, 1::2] = -z.imag
    coefs[1::2, 0::2] = z.imag
    coefs[1::2, 1::2] = z.real
    return coefs


# Each Pauli product has one nonzero per row, one of +-1 and +-i, so both maps
# are exact sums of at most four signed terms: +-1 or +-i flips a sign or swaps
# real and imaginary parts exactly, and a zero term never changes a running sum
# that starts at +0. Added in the einsums' order, (i, j) row-major for a feature
# and k for a matrix entry, they equal "nij,kji->nk" and "nk,kij->nij" bytewise.
_FEATURE_TABLE = _gather_table(
    _complex_coefs(np.swapaxes(_PAULI_15, 1, 2).reshape(15, 16))
)
_MATRIX_TABLE = _gather_table(_complex_coefs(_PAULI_15.reshape(15, 16).T)[:, 0::2])

# Feature positions used by the cylindrical twirl.
_GXX, _GYY = 4, 9
_GXY, _GYX = 5, 8
_TWIRL_ZEROED = (0, 1, 3, 6, 7, 10, 12, 13)

_SINGLET = np.array([0.0, 1.0, -1.0, 0.0], dtype=complex) / np.sqrt(2.0)


class NumericIntegrityError(ArithmeticError):
    """A quantity that must be real up to tolerance came out complex."""


class EntanglementLabel(NamedTuple):
    entangled: bool
    det_pt: float


@dataclass(frozen=True, eq=False)
class DensityMatrix:
    """A validated two-qubit state: Hermitian, unit trace, positive semidefinite."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        mat = np.array(self.matrix, dtype=complex)
        if mat.shape != (4, 4):
            raise ValueError(f"density matrix must be 4x4, got shape {mat.shape}")
        if not np.isfinite(mat).all():
            raise ValueError("density matrix has a non-finite entry")
        if np.abs(mat - mat.conj().T).max() > HERMITICITY_TOL:
            raise ValueError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(mat) - 1.0) > TRACE_TOL:
            raise ValueError("density matrix trace differs from 1 beyond tolerance")
        if np.linalg.eigvalsh(mat).min() < -PSD_TOL:
            raise ValueError("density matrix has a negative eigenvalue beyond tolerance")
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def purity(self) -> float:
        return float(np.trace(self.matrix @ self.matrix).real)


def pauli_basis() -> list[np.ndarray]:
    """All 16 products sigma_i (x) sigma_j, identity pair first, then lexicographic."""
    return [p.copy() for p in _PAULI_PRODUCTS]


def _check_rank(rank: int) -> None:
    # A bool or a float such as 2.0 compares equal to an allowed rank but is no
    # integer: numpy would fail on it later with a TypeError.
    is_integer = isinstance(rank, (int, np.integer)) and not isinstance(rank, bool)
    if not is_integer or rank not in RANKS:
        raise ValueError(f"rank must be an integer in {RANKS[0]}..{RANKS[-1]}, got {rank!r}")


def random_density_matrix(rng: np.random.Generator, rank: int = 4) -> DensityMatrix:
    """Draw a random state G G^dag / tr(G G^dag) with G a 4 x rank complex Gaussian.

    At rank 4 this samples the Hilbert-Schmidt-induced measure; lower ranks give
    rank-deficient states (rank 1 is a Haar-random pure state).
    """
    return DensityMatrix(_random_density_matrices(rng, 1, rank)[0])


def _random_density_matrices(
    rng: np.random.Generator, count: int, rank: int = 4
) -> np.ndarray:
    """`count` draws of random_density_matrix as one (count, 4, 4) array, unvalidated."""
    _check_rank(rank)
    g = rng.standard_normal((count, 2, 4, rank))
    ginibre = g[:, 0] + 1j * g[:, 1]
    rho = ginibre @ np.conj(np.swapaxes(ginibre, 1, 2))
    traces = np.einsum("nii->n", rho).real
    return rho / traces[:, None, None]


def _signed_sums(table: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Sum the `table` terms of the (k, n) input rows, starting from +0 like einsum."""
    k, n = rows.shape
    stack = np.empty((2 * k + 1, n))
    stack[:k] = rows
    np.negative(stack[:k], out=stack[k : 2 * k])
    stack[2 * k] = 0.0
    out = np.zeros((table.shape[1], n))
    for rows_of_term in table:
        out += stack[rows_of_term]
    return out


def _features_of_matrices(mats: np.ndarray) -> np.ndarray:
    n = mats.shape[0]
    parts = np.ascontiguousarray(mats, dtype=complex).reshape(n, 16).view(float).T
    raw = _signed_sums(_FEATURE_TABLE, parts)
    worst = np.abs(raw[1::2]).max()
    if worst > IMAG_TOL:
        raise NumericIntegrityError(
            f"Pauli expectation has imaginary part {worst:.3e} above {IMAG_TOL:.0e}"
        )
    return np.ascontiguousarray(raw[0::2].T)


def features_from_state(rho: DensityMatrix) -> np.ndarray:
    """The 15 Pauli expectations tr(rho (sigma_i (x) sigma_j)), in FEATURE_NAMES order."""
    return _features_of_matrices(rho.matrix[None, :, :])[0]


def _matrices_from_features(gammas: np.ndarray) -> np.ndarray:
    n = gammas.shape[0]
    parts = _signed_sums(_MATRIX_TABLE, np.asarray(gammas, dtype=float).T)
    mats = np.ascontiguousarray(parts.T).view(complex).reshape(n, 4, 4)
    mats += np.eye(4)
    return mats / 4.0


def state_from_features(gamma: np.ndarray) -> np.ndarray:
    """Reconstruct (1/4)(I + sum_k gamma_k sigma_i (x) sigma_j) from 15 features.

    The result is Hermitian by construction but not checked for positivity; the
    input need not correspond to a physical state.
    """
    gamma = np.asarray(gamma, dtype=float)
    if gamma.shape != (15,):
        raise ValueError(f"expected 15 features, got shape {gamma.shape}")
    if not np.isfinite(gamma).all():
        raise ValueError("features must be finite")
    return _matrices_from_features(gamma[None, :])[0]


def _partial_transpose_batch(mats: np.ndarray) -> np.ndarray:
    n = mats.shape[0]
    return (
        mats.reshape(n, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(n, 4, 4)
    )


def partial_transpose(rho: np.ndarray) -> np.ndarray:
    """Transpose the second-qubit indices: entry ((a,b),(c,d)) -> ((a,d),(c,b))."""
    mat = np.asarray(rho)
    if mat.shape != (4, 4):
        raise ValueError(f"expected a 4x4 matrix, got shape {mat.shape}")
    return _partial_transpose_batch(mat[None])[0]


def _det_pt_of_matrices(mats: np.ndarray) -> np.ndarray:
    dets = np.linalg.det(_partial_transpose_batch(mats))
    worst = np.abs(dets.imag).max()
    if worst > IMAG_TOL:
        raise NumericIntegrityError(
            f"det of partial transpose has imaginary part {worst:.3e} above {IMAG_TOL:.0e}"
        )
    return np.ascontiguousarray(dets.real)


def det_partial_transpose(rho: DensityMatrix) -> float:
    """Determinant of the partial transpose (LU with pivoting; real part returned)."""
    return float(_det_pt_of_matrices(rho.matrix[None, :, :])[0])


def _ppt_labels(det_pt: np.ndarray) -> np.ndarray:
    """The one label rule, elementwise: entangled iff det of the partial transpose is < 0."""
    return det_pt < 0.0


def is_entangled(rho: DensityMatrix) -> EntanglementLabel:
    """Label a state entangled iff det of its partial transpose is negative (`_ppt_labels`)."""
    det = det_partial_transpose(rho)
    return EntanglementLabel(entangled=bool(_ppt_labels(det)), det_pt=det)


def min_eigenvalue_pt(rho: DensityMatrix) -> float:
    """Smallest eigenvalue of the partial transpose; the independent PPT oracle."""
    return float(np.linalg.eigvalsh(partial_transpose(rho.matrix))[0])


def werner_state(p: float) -> DensityMatrix:
    """The mixture p |psi-><psi-| + (1-p) I/4; entangled exactly when p > 1/3."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing parameter must lie in [0, 1], got {p}")
    rho = p * np.outer(_SINGLET, _SINGLET.conj()) + (1.0 - p) * np.eye(4) / 4.0
    return DensityMatrix(rho)


def _twirl_features(gammas: np.ndarray) -> np.ndarray:
    """Project feature rows onto the subspace invariant under R_z (x) R_z rotations."""
    out = np.array(gammas, dtype=float)
    out[:, list(_TWIRL_ZEROED)] = 0.0
    mean_xx_yy = (gammas[:, _GXX] + gammas[:, _GYY]) / 2.0
    anti_xy = (gammas[:, _GXY] - gammas[:, _GYX]) / 2.0
    out[:, _GXX] = mean_xx_yy
    out[:, _GYY] = mean_xx_yy
    out[:, _GXY] = anti_xy
    out[:, _GYX] = -anti_xy
    return out


def twirl_cylindrical(rho: DensityMatrix) -> DensityMatrix:
    """Average rho over simultaneous z-rotations R_z(theta) (x) R_z(theta).

    Computed analytically on the Pauli features: the z-sector entries survive,
    the xx/yy pair is symmetrized, the xy/yx pair is antisymmetrized, and every
    other entry vanishes. The result is again a valid state and a fixed point
    of the operation.
    """
    gamma = _twirl_features(features_from_state(rho)[None, :])[0]
    return DensityMatrix(state_from_features(gamma))
