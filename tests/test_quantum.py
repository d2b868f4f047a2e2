"""Tests for state representation, featurization, PPT labeling and the twirl."""

import warnings

import numpy as np
import pytest

from entwitness import quantum
from entwitness.quantum import (
    DensityMatrix,
    NumericIntegrityError,
    det_partial_transpose,
    features_from_state,
    is_entangled,
    min_eigenvalue_pt,
    partial_transpose,
    pauli_basis,
    random_density_matrix,
    state_from_features,
    twirl_cylindrical,
    werner_state,
)

# Measured once over 10^5 rank-4 samples (seed 0); asserted band +/- 0.01.
SEPARABLE_FRACTION = 0.242

SX = np.array([[0, 1], [1, 0]], dtype=complex)
SY = np.array([[0, -1j], [1j, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
I2 = np.eye(2, dtype=complex)

PHI_PLUS = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
SINGLET = np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2)


def bloch_product(vec):
    """Single-qubit state from a Bloch vector, for building product states."""
    return (I2 + vec[0] * SX + vec[1] * SY + vec[2] * SZ) / 2


class TestPauliBasis:
    def test_sixteen_matrices_in_order(self):
        basis = pauli_basis()
        assert len(basis) == 16
        assert np.array_equal(basis[0], np.eye(4))
        assert np.allclose(basis[15], np.diag([1, -1, -1, 1]))

    def test_square_to_identity_and_traceless(self):
        for k, mat in enumerate(pauli_basis()):
            assert np.allclose(mat @ mat, np.eye(4))
            assert np.allclose(mat, mat.conj().T)
            if k > 0:
                assert abs(np.trace(mat)) < 1e-14

    def test_matches_explicit_kron(self):
        sigmas = [I2, SX, SY, SZ]
        basis = pauli_basis()
        k = 0
        for i in range(4):
            for j in range(4):
                assert np.array_equal(basis[k], np.kron(sigmas[i], sigmas[j]))
                k += 1


class TestRandomDensityMatrix:
    def test_invariants_hold(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            rho = random_density_matrix(rng).matrix
            assert np.abs(rho - rho.conj().T).max() <= 1e-12
            assert abs(np.trace(rho) - 1.0) <= 1e-12
            assert np.linalg.eigvalsh(rho).min() >= -1e-10

    def test_rank_one_is_pure(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            assert random_density_matrix(rng, rank=1).purity() == pytest.approx(1.0, abs=1e-10)

    @pytest.mark.parametrize(
        "rank",
        [0, 5, -1, 2.0, True, False, np.float64(2.0), "2"],
        ids=["0", "5", "-1", "float", "True", "False", "numpy-float", "str"],
    )
    def test_rank_out_of_range(self, rank):
        with pytest.raises(ValueError, match="rank must be an integer in 1..4"):
            random_density_matrix(np.random.default_rng(0), rank=rank)
        with pytest.raises(ValueError, match="rank must be an integer in 1..4"):
            quantum._random_density_matrices(np.random.default_rng(0), 3, rank)

    def test_numpy_integer_rank_accepted(self):
        def draws(rank):
            single = random_density_matrix(np.random.default_rng(0), rank=rank).matrix
            return single, quantum._random_density_matrices(np.random.default_rng(0), 3, rank)

        for mine, reference in zip(draws(np.int64(2)), draws(2)):
            assert np.array_equal(mine, reference)

    def test_batch_consumes_stream_like_singles(self):
        batch = quantum._random_density_matrices(np.random.default_rng(123), 16)
        rng = np.random.default_rng(123)
        singles = np.stack([random_density_matrix(rng).matrix for _ in range(16)])
        assert np.abs(batch - singles).max() < 1e-14

    def test_separable_fraction_near_measured_constant(self):
        mats = quantum._random_density_matrices(np.random.default_rng(0), 100_000)
        fraction = np.mean(quantum._det_pt_of_matrices(mats) >= 0)
        assert fraction == pytest.approx(SEPARABLE_FRACTION, abs=0.01)


class TestFeatures:
    def test_maximally_mixed_all_zero(self):
        gamma = features_from_state(DensityMatrix(np.eye(4) / 4))
        assert np.abs(gamma).max() < 1e-14

    def test_computational_product_state(self):
        rho = np.zeros((4, 4), dtype=complex)
        rho[0, 0] = 1.0
        gamma = features_from_state(DensityMatrix(rho))
        expected = dict.fromkeys(quantum.FEATURE_NAMES, 0.0)
        expected.update({"g03": 1.0, "g30": 1.0, "g33": 1.0})
        for name, value in zip(quantum.FEATURE_NAMES, gamma):
            assert value == pytest.approx(expected[name], abs=1e-12)

    def test_bell_state_against_direct_traces(self):
        rho = np.outer(PHI_PLUS, PHI_PLUS.conj())
        gamma = features_from_state(DensityMatrix(rho))
        sigmas = [I2, SX, SY, SZ]
        direct = [
            np.trace(rho @ np.kron(sigmas[i], sigmas[j])).real
            for (i, j) in quantum.FEATURE_INDEX_PAIRS
        ]
        assert np.allclose(gamma, direct, atol=1e-12)
        by_name = dict(zip(quantum.FEATURE_NAMES, gamma))
        assert by_name["g11"] == pytest.approx(1.0, abs=1e-12)
        assert by_name["g22"] == pytest.approx(-1.0, abs=1e-12)
        assert by_name["g33"] == pytest.approx(1.0, abs=1e-12)
        assert sum(abs(v) > 1e-12 for v in gamma) == 3

    def test_features_bounded_on_random_states(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            gamma = features_from_state(random_density_matrix(rng))
            assert np.all(np.abs(gamma) <= 1.0 + 1e-12)

    def test_imaginary_residue_rejected(self):
        crooked = np.eye(4, dtype=complex) / 4
        crooked[0, 1] = 0.3j  # not Hermitian, so expectations go complex
        with pytest.raises(NumericIntegrityError):
            quantum._features_of_matrices(crooked[None])


def einsum_expectations(mats):
    """The dense complex map the sparse feature map replaced, imaginary parts kept."""
    return np.einsum("nij,kji->nk", mats, quantum._PAULI_15)


def einsum_matrices(gammas):
    """The dense complex map the sparse matrix map replaced."""
    mats = np.einsum("nk,kij->nij", gammas.astype(float), quantum._PAULI_15)
    mats += np.eye(4)
    return mats / 4.0


def feature_sets(n, seed):
    """Features of random states of rank 1-4, twirled, negated and rounded.

    Twirled and rounded rows hold exact zeros, and negating them gives -0.0.
    """
    rng = np.random.default_rng(seed)
    for rank in (1, 2, 3, 4):
        mats = quantum._random_density_matrices(rng, n, rank)
        gammas = einsum_expectations(mats).real
        twirled = quantum._twirl_features(gammas)
        for variant in (gammas, twirled, -gammas, -twirled):
            yield variant
            yield np.round(variant, 1)


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


class TestExactPauliMaps:
    """The gathered sums equal the einsums they replaced, byte for byte."""

    @pytest.mark.parametrize("n", [1, 2, 3, 8192])
    def test_matrices_equal_einsum(self, n):
        for gammas in feature_sets(n, seed=n):
            mats = quantum._matrices_from_features(gammas)
            reference = einsum_matrices(gammas)
            assert same_bytes(mats.real.copy(), reference.real.copy())
            assert same_bytes(mats.imag.copy(), reference.imag.copy())

    @pytest.mark.parametrize("n", [1, 2, 3, 8192])
    def test_features_equal_einsum(self, n):
        rng = np.random.default_rng(n + 1)
        states = [quantum._random_density_matrices(rng, n, rank) for rank in (1, 2, 3, 4)]
        rebuilt = [einsum_matrices(gammas) for gammas in feature_sets(n, seed=n)]
        # Negating rebuilt matrices turns their exact zeros into -0.0.
        for mats in states + rebuilt + [-mats for mats in rebuilt]:
            reference = np.ascontiguousarray(einsum_expectations(mats).real)
            assert same_bytes(quantum._features_of_matrices(mats), reference)

    def test_per_state_api_equals_einsum(self):
        rng = np.random.default_rng(11)
        for rank in (1, 2, 3, 4):
            rho = random_density_matrix(rng, rank)
            gamma = features_from_state(rho)
            assert same_bytes(gamma, einsum_expectations(rho.matrix[None])[0].real.copy())
            assert same_bytes(state_from_features(gamma), einsum_matrices(gamma[None])[0])

    def test_non_hermitian_raises_with_einsum_residue(self):
        crooked = np.eye(4, dtype=complex) / 4
        crooked[0, 1] = 0.3j
        crooked[2, 3] = 0.2 - 0.1j
        worst = np.abs(einsum_expectations(crooked[None]).imag).max()
        with pytest.raises(NumericIntegrityError, match=f"imaginary part {worst:.3e} "):
            quantum._features_of_matrices(crooked[None])


class TestStateFromFeatures:
    def test_zero_features_give_maximally_mixed(self):
        assert np.allclose(state_from_features(np.zeros(15)), np.eye(4) / 4)

    def test_round_trip(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            rho = random_density_matrix(rng)
            back = state_from_features(features_from_state(rho))
            assert np.abs(back - rho.matrix).max() <= 1e-12

    def test_unphysical_features_go_negative(self):
        gamma = np.zeros(15)
        gamma[quantum.FEATURE_NAMES.index("g33")] = 2.0
        mat = state_from_features(gamma)
        assert np.abs(mat - mat.conj().T).max() < 1e-14
        assert np.linalg.eigvalsh(mat).min() < 0

    def test_shape_validated(self):
        with pytest.raises(ValueError):
            state_from_features(np.zeros(14))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite(self, bad):
        gamma = np.zeros(15)
        gamma[4] = bad
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^features must be finite$"):
                state_from_features(gamma)


class TestPartialTranspose:
    def test_fixes_diagonal(self):
        diag = np.diag([0.1, 0.2, 0.3, 0.4]).astype(complex)
        assert np.array_equal(partial_transpose(diag), diag)

    def test_index_permutation(self):
        mat = np.arange(16, dtype=complex).reshape(4, 4)
        expected = np.array(
            [[0, 4, 2, 6], [1, 5, 3, 7], [8, 12, 10, 14], [9, 13, 11, 15]],
            dtype=complex,
        )
        assert np.array_equal(partial_transpose(mat), expected)

    def test_involution_and_trace(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            rho = random_density_matrix(rng).matrix
            pt = partial_transpose(rho)
            assert np.array_equal(partial_transpose(pt), rho)
            assert np.trace(pt) == pytest.approx(np.trace(rho))

    def test_bell_state_eigenvalues(self):
        pt = partial_transpose(np.outer(PHI_PLUS, PHI_PLUS.conj()))
        eigs = np.sort(np.linalg.eigvalsh(pt))
        assert np.allclose(eigs, [-0.5, 0.5, 0.5, 0.5], atol=1e-12)


class TestDetPartialTranspose:
    def test_maximally_mixed(self):
        assert det_partial_transpose(DensityMatrix(np.eye(4) / 4)) == pytest.approx(1 / 256)

    def test_singlet(self):
        rho = DensityMatrix(np.outer(SINGLET, SINGLET.conj()))
        assert det_partial_transpose(rho) == pytest.approx(-1 / 16, abs=1e-12)

    def test_werner_boundary_value(self):
        assert abs(det_partial_transpose(werner_state(1 / 3))) <= 1e-12

    def test_imaginary_residue_rejected(self):
        # Partial transpose of this is [[.25,.5j],[.5,.25]] (+ diag), det complex.
        crooked = np.eye(4, dtype=complex) / 4
        crooked[0, 1] = 0.5
        crooked[1, 0] = 0.5j
        with pytest.raises(NumericIntegrityError):
            quantum._det_pt_of_matrices(crooked[None])


class TestIsEntangled:
    def test_product_states_separable(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            a = rng.standard_normal(3)
            b = rng.standard_normal(3)
            a *= rng.uniform(0, 1) / np.linalg.norm(a)
            b *= rng.uniform(0, 1) / np.linalg.norm(b)
            rho = DensityMatrix(np.kron(bloch_product(a), bloch_product(b)))
            assert not is_entangled(rho).entangled

    def test_werner_states(self):
        assert is_entangled(werner_state(0.5)).entangled
        assert not is_entangled(werner_state(0.2)).entangled

    def test_label_matches_det_sign(self):
        rng = np.random.default_rng(6)
        for _ in range(100):
            label = is_entangled(random_density_matrix(rng))
            assert label.entangled == (label.det_pt < 0)


class TestMinEigenvaluePt:
    def test_maximally_mixed(self):
        assert min_eigenvalue_pt(DensityMatrix(np.eye(4) / 4)) == pytest.approx(0.25)

    def test_singlet(self):
        rho = DensityMatrix(np.outer(SINGLET, SINGLET.conj()))
        assert min_eigenvalue_pt(rho) == pytest.approx(-0.5, abs=1e-12)

    def test_sign_agreement_with_determinant(self):
        # A two-qubit partial transpose has at most one negative eigenvalue,
        # so the determinant sign and the minimum-eigenvalue sign must agree.
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(2000):
            rho = random_density_matrix(rng)
            label = is_entangled(rho)
            if abs(label.det_pt) <= 1e-12:
                continue
            assert label.entangled == (min_eigenvalue_pt(rho) < 0)
            checked += 1
        assert checked > 1900


class TestWernerState:
    def test_endpoints(self):
        assert np.allclose(werner_state(0.0).matrix, np.eye(4) / 4)
        assert werner_state(1.0).purity() == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize("p", [-0.1, 1.1])
    def test_domain(self, p):
        with pytest.raises(ValueError):
            werner_state(p)

    def test_entanglement_boundary_by_bisection(self):
        lo, hi = 0.0, 1.0
        while hi - lo > 1e-9:
            mid = (lo + hi) / 2
            if is_entangled(werner_state(mid)).entangled:
                hi = mid
            else:
                lo = mid
        assert (lo + hi) / 2 == pytest.approx(1 / 3, abs=1e-6)


class TestTwirl:
    @staticmethod
    def grid_average(mat, points=256):
        acc = np.zeros((4, 4), dtype=complex)
        for theta in np.arange(points) * (2 * np.pi / points):
            rz = np.diag([np.exp(-0.5j * theta), np.exp(0.5j * theta)])
            u = np.kron(rz, rz)
            acc += u @ mat @ u.conj().T
        return acc / points

    def test_diagonal_states_unchanged(self):
        rho = DensityMatrix(np.diag([0.4, 0.3, 0.2, 0.1]).astype(complex))
        assert np.abs(twirl_cylindrical(rho).matrix - rho.matrix).max() < 1e-14

    def test_singlet_unchanged(self):
        rho = DensityMatrix(np.outer(SINGLET, SINGLET.conj()))
        assert np.abs(twirl_cylindrical(rho).matrix - rho.matrix).max() < 1e-14

    def test_matches_numerical_average(self):
        rng = np.random.default_rng(8)
        for _ in range(20):
            rho = random_density_matrix(rng)
            analytic = twirl_cylindrical(rho).matrix
            numeric = self.grid_average(rho.matrix)
            assert np.abs(analytic - numeric).max() <= 1e-10

    def test_idempotent_and_trace_preserving(self):
        rng = np.random.default_rng(9)
        for _ in range(20):
            rho = random_density_matrix(rng)
            once = twirl_cylindrical(rho)
            twice = twirl_cylindrical(once)
            assert np.abs(once.matrix - twice.matrix).max() <= 1e-12
            assert np.trace(once.matrix).real == pytest.approx(1.0, abs=1e-12)

    def test_output_is_valid_state(self):
        # DensityMatrix construction inside twirl validates PSD already;
        # spot-check the eigenvalues stay comfortably non-negative.
        rng = np.random.default_rng(10)
        for _ in range(20):
            out = twirl_cylindrical(random_density_matrix(rng))
            assert np.linalg.eigvalsh(out.matrix).min() >= -1e-12


class TestDensityMatrixValidation:
    def test_rejects_non_hermitian(self):
        mat = np.eye(4, dtype=complex) / 4
        mat[0, 1] = 0.1
        with pytest.raises(ValueError):
            DensityMatrix(mat)

    def test_rejects_wrong_trace(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.eye(4, dtype=complex))

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(ValueError):
            DensityMatrix(np.diag([0.8, 0.4, -0.1, -0.1]).astype(complex))

    @pytest.mark.parametrize(
        "entries",
        [{(0, 1): np.nan, (1, 0): np.nan}, {(0, 1): np.inf, (1, 0): np.inf},
         {(0, 0): np.nan}, {(2, 3): complex(0, np.nan), (3, 2): complex(0, np.nan)}],
        ids=["nan-pair", "inf-pair", "nan-diagonal", "nan-imaginary-pair"],
    )
    def test_rejects_non_finite(self, entries):
        mat = np.eye(4, dtype=complex) / 4
        for index, value in entries.items():
            mat[index] = value
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^density matrix has a non-finite entry$"):
                DensityMatrix(mat)

    def test_matrix_is_read_only(self):
        rho = werner_state(0.5)
        with pytest.raises(ValueError):
            rho.matrix[0, 0] = 1.0
