import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symflow import circuit, estimators, liealg, nummat, pauli
from conftest import random_skew, sqrt_pinv_psd


X = pauli.word_matrix("X")
Y = pauli.word_matrix("Y")
Z = pauli.word_matrix("Z")
SWAP = 0.5 * sum(pauli.word_matrix(w) for w in ("II", "XX", "YY", "ZZ"))


def test_trace_inner_pauli_values():
    assert nummat.trace_inner(1j * Z, 1j * Z) == pytest.approx(1.0, abs=1e-14)
    assert nummat.trace_inner(1j * X, 1j * Y) == pytest.approx(0.0, abs=1e-14)
    assert nummat.trace_inner(1j * np.eye(4), 1j * SWAP) == pytest.approx(0.5, abs=1e-14)


def test_trace_inner_shape_error():
    with pytest.raises(ValueError):
        nummat.trace_inner(np.eye(2), np.eye(4))


def test_trace_inner_symmetric_positive(rng):
    for _ in range(20):
        d = int(rng.choice([2, 3, 4]))
        x, y = random_skew(d, rng), random_skew(d, rng)
        assert nummat.trace_inner(x, y) == pytest.approx(nummat.trace_inner(y, x), abs=1e-12)
        assert nummat.trace_inner(x, x) > 0


def test_expm_skew_zero_scale(rng):
    x = random_skew(4, rng)
    assert np.allclose(nummat.expm_skew(x, 0.0), np.eye(4), atol=1e-14)


def test_expm_skew_rotation_closed_form():
    # exp(-i pi X / 2) = -iX
    assert np.allclose(nummat.expm_skew(-0.5j * X, np.pi), -1j * X, atol=1e-14)


def test_expm_skew_unitary_many(rng):
    for d in (2, 4, 8):
        for _ in range(100):
            u = nummat.expm_skew(random_skew(d, rng), 1.0)
            assert np.max(np.abs(u.conj().T @ u - np.eye(d))) < 1e-12


def test_expm_skew_rejects_non_skew():
    with pytest.raises(nummat.ContractViolation):
        nummat.expm_skew(np.eye(2))


NAN_2X2 = np.full((2, 2), np.nan)
ONE_QUBIT_X = circuit.CircuitSpec(1, (circuit.rotation("X", (0,), param=0),), 1)
KET_0 = circuit.basis_state("0")


@pytest.mark.parametrize("call", [
    lambda: nummat.require_skew_hermitian(NAN_2X2),
    lambda: nummat.require_skew_hermitian(np.diag([1j * np.inf, 0.0])),
    lambda: estimators.hadamard_omega(ONE_QUBIT_X, [0.3], 0, NAN_2X2, KET_0, "theta"),
    lambda: estimators.insertion_m(ONE_QUBIT_X, [0.3], KET_0, pauli.parse_pauli_sum("Z", 1),
                                   NAN_2X2, "theta"),
    lambda: liealg.lie_closure([NAN_2X2]),
    lambda: liealg.subspace(2, [NAN_2X2]),
    lambda: pauli.pauli_decompose(NAN_2X2),
    lambda: pauli.pauli_sum(1, {"X": np.nan, "Z": 1}),
    lambda: pauli.pauli_sum(1, {"X": np.inf}),
    lambda: pauli.parse_pauli_sum("Z", 1) * np.nan,
    lambda: nummat.orthonormal_rows(NAN_2X2),
    lambda: circuit.rotation("X", (0,), angle=np.nan),
    lambda: circuit.Gate(pauli.parse_pauli_sum("X", 1), (0,), param=0, scale=np.nan),
    lambda: circuit.apply_gates(ONE_QUBIT_X, [0.3], np.array([np.nan, 1.0])),
    lambda: circuit.evaluate(ONE_QUBIT_X, [0.3], np.array([np.nan, 1.0])),
], ids=["require_skew_hermitian-nan", "require_skew_hermitian-inf", "hadamard_omega",
        "insertion_m", "lie_closure", "subspace", "pauli_decompose", "pauli_sum-nan",
        "pauli_sum-inf", "pauli_sum-scaled", "orthonormal_rows", "gate-angle", "gate-scale",
        "apply_gates", "evaluate"])
def test_non_finite_input_rejected(call):
    """A NaN or infinite entry or coefficient raises instead of passing a
    tolerance test (NaN compares false) or being pruned as small."""
    with pytest.raises(ValueError, match="non-finite entry"):
        call()


def test_pinv_psd_diagonal():
    assert np.allclose(nummat.pinv_psd(np.diag([4.0, 0.0])), np.diag([0.25, 0.0]))
    assert np.allclose(nummat.pinv_psd(np.eye(3)), np.eye(3))


@pytest.mark.parametrize("a", [0.3, -0.8, 1.0, -1.0])
def test_pinv_psd_two_level_gram(a):
    # [[1, -a], [-a, 1]] has eigenpairs (1 -+ a, (1, +-1)/sqrt2); the
    # pseudo-inverse has entries ((1-a)^+ +- (1+a)^+) / 2
    g = np.array([[1.0, -a], [-a, 1.0]])
    lo = 0.0 if abs(1 - a) < 1e-12 else 1.0 / (1 - a)
    hi = 0.0 if abs(1 + a) < 1e-12 else 1.0 / (1 + a)
    want = 0.5 * np.array([[lo + hi, lo - hi], [lo - hi, lo + hi]])
    assert np.allclose(nummat.pinv_psd(g), want, atol=1e-12)
    if abs(a) == 1.0:
        assert np.linalg.matrix_rank(nummat.pinv_psd(g)) == 1


@settings(deadline=None, max_examples=30)
@given(seed=st.integers(0, 10**6), k=st.integers(1, 6))
def test_pinv_psd_penrose_identities(seed, k):
    rng = np.random.default_rng(seed)
    b = rng.standard_normal((k, k + 1))
    g = b @ b.T
    gp = nummat.pinv_psd(g)
    assert np.max(np.abs(g @ gp @ g - g)) < 1e-10 * max(1.0, np.max(np.abs(g)))
    assert np.max(np.abs(gp @ g @ gp - gp)) < 1e-10 * max(1.0, np.max(np.abs(gp)))


def test_pinv_psd_rejects_asymmetric():
    with pytest.raises(nummat.ContractViolation):
        nummat.pinv_psd(np.array([[1.0, 0.5], [0.0, 1.0]]))


def test_sqrt_pinv_squares_to_pinv(rng):
    b = rng.standard_normal((4, 4))
    g = b @ b.T
    r = sqrt_pinv_psd(g)
    assert np.allclose(r @ r, nummat.pinv_psd(g), atol=1e-10)
    # Loewdin's route: the rows of (G^+)^{1/2} V span what orthonormal_frame keeps
    vecs = rng.standard_normal((5, 3)) @ rng.standard_normal((3, 6))
    gram = vecs @ vecs.T
    lowdin = sqrt_pinv_psd(gram) @ vecs
    out, coeffs = nummat.orthonormal_frame(vecs)
    assert out.shape == (3, 6)
    assert np.allclose(lowdin.T @ lowdin, out.T @ out, atol=1e-10)
    assert np.allclose(coeffs.T @ coeffs, nummat.pinv_psd(gram), atol=1e-10)


def test_nullspace_zero_and_identity():
    rows = nummat.nullspace_real(np.zeros((3, 3)))
    assert rows.shape == (3, 3)
    assert np.allclose(rows @ rows.T, np.eye(3), atol=1e-12)
    assert nummat.nullspace_real(np.eye(3)).shape == (0, 3)


def test_nullspace_rank_one(rng):
    m = np.outer(rng.standard_normal(4), rng.standard_normal(4))
    rows = nummat.nullspace_real(m)
    assert rows.shape == (3, 4)
    for r in rows:
        assert np.linalg.norm(m @ r) < 1e-10


def _frame_of(vecs) -> tuple[np.ndarray, np.ndarray]:
    """orthonormal_frame of complex tangents: (unembedded rows, coefficients)."""
    rows, coeffs = nummat.orthonormal_frame(nummat.embed_real(np.stack(vecs)))
    return nummat.unembed(rows), coeffs


def test_embed_real_on_stacks(rng):
    vecs = rng.standard_normal((3, 4)) + 1j * rng.standard_normal((3, 4))
    emb = nummat.embed_real(vecs)
    assert emb.shape == (3, 8)
    assert np.array_equal(emb[1], nummat.embed_real(vecs[1]))
    assert np.array_equal(nummat.unembed(emb), vecs)
    assert np.allclose(emb @ emb.T, np.real(vecs.conj() @ vecs.T), atol=1e-14)


def test_orthonormal_frame_identity_gram():
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    vecs = [1j * plus, 1j * minus]
    out, coeffs = _frame_of(vecs)
    assert len(out) == 2
    got = {tuple(np.round(np.abs(v), 12)) for v in out}
    want = {tuple(np.round(np.abs(v), 12)) for v in vecs}
    assert got == want
    assert np.allclose(coeffs.T @ coeffs, np.eye(2), atol=1e-12)


def test_orthonormal_frame_duplicate():
    v = np.array([1.0, 2.0j, -1.0])
    v = v / np.linalg.norm(v)
    out, coeffs = _frame_of([v, v])
    assert len(out) == 1
    assert np.linalg.norm(out[0]) == pytest.approx(1.0, abs=1e-12)
    assert np.allclose(coeffs.T @ coeffs, nummat.pinv_psd(np.ones((2, 2))), atol=1e-12)


def test_orthonormal_frame_scaled_pair():
    plus = np.array([1, 1]) / np.sqrt(2)
    minus = np.array([1, -1]) / np.sqrt(2)
    vecs = [2j * plus, 2j * minus]
    out, coeffs = _frame_of(vecs)
    assert len(out) == 2
    for a in range(2):
        for b in range(2):
            want = 1.0 if a == b else 0.0
            assert np.real(np.vdot(out[a], out[b])) == pytest.approx(want, abs=1e-10)
    assert np.allclose(coeffs.T @ coeffs, 0.25 * np.eye(2), atol=1e-12)


@settings(deadline=None, max_examples=25)
@given(seed=st.integers(0, 10**6), k=st.integers(2, 5), r=st.integers(1, 5))
def test_orthonormal_frame_outputs_orthonormal(seed, k, r):
    """Rows are orthonormal, equal coeffs @ vecs and count the rank of the
    Gram matrix; coeffs^T coeffs is its pseudo-inverse, also when the k
    vectors span only min(k, r) directions."""
    rng = np.random.default_rng(seed)
    mix = rng.standard_normal((k, r))  # real mixing: Re<a|b> sees real spans
    vecs = list(mix @ (rng.standard_normal((r, 6)) + 1j * rng.standard_normal((r, 6))))
    gram = np.array([[np.real(np.vdot(a, b)) for b in vecs] for a in vecs])
    out, coeffs = _frame_of(vecs)
    assert len(out) == np.linalg.matrix_rank(gram, tol=1e-10) == min(k, r)
    for a in range(len(out)):
        for b in range(len(out)):
            want = 1.0 if a == b else 0.0
            assert np.real(np.vdot(out[a], out[b])) == pytest.approx(want, abs=1e-10)
    assert np.allclose(coeffs @ np.stack(vecs), out, atol=1e-10)
    scale = max(1.0, np.max(np.abs(nummat.pinv_psd(gram))))
    assert np.max(np.abs(coeffs.T @ coeffs - nummat.pinv_psd(gram))) < 1e-8 * scale


def test_rank_tol_env_override(monkeypatch):
    monkeypatch.setenv("SYMFLOW_TOL", "1e-3")
    assert nummat.rank_tol() == 1e-3
    monkeypatch.delenv("SYMFLOW_TOL")
    assert nummat.rank_tol() == nummat.DEFAULT_RANK_TOL


@pytest.mark.parametrize("value", ["abc", "nan", "inf", "-1", "0", "1", "2.5"])
def test_rank_tol_rejects_bad_env(monkeypatch, value):
    monkeypatch.setenv("SYMFLOW_TOL", value)
    with pytest.raises(ValueError, match="SYMFLOW_TOL"):
        nummat.rank_tol()


def test_gram_schmidt_keeps_order_and_cuts_relative_to_each_norm(monkeypatch):
    e = np.eye(3)
    vecs = [2.0 * e[0], 3.0 * e[0] + 3e-11 * e[1], 1e-13 * e[2], e[1] + e[2]]
    monkeypatch.delenv("SYMFLOW_TOL", raising=False)
    basis = nummat.GramSchmidt(3)
    assert np.array_equal(basis.extend(vecs[:2]), e[:1])  # 1e-11 of its norm: dependent
    assert np.allclose(basis.extend(vecs[2:]), [(e[1] + e[2]) / np.sqrt(2)], atol=1e-15)
    monkeypatch.setenv("SYMFLOW_TOL", "1e-12")
    rows = nummat.GramSchmidt(3).extend(vecs)  # the residual 1e-13 stays below the floor
    assert np.allclose(rows, e[[0, 1, 2]], atol=1e-15)


def test_psd_rank_cut_has_absolute_floor():
    """A Gram matrix of roundoff-size tangents (entries ~1e-33) has rank 0,
    not the rank its relative spectrum would suggest."""
    g = 1e-33 * np.diag([1.0, 0.5])
    assert np.all(nummat.pinv_psd(g) == 0.0)
    out, coeffs = _frame_of([1e-17 * np.ones(2), 1e-17j * np.ones(2)])
    assert out.shape == (0, 2) and coeffs.shape == (0, 2)
