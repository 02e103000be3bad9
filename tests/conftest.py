import warnings
from unittest import mock

import numpy as np
import pytest

from symflow import circuit, estimators, liealg, nummat, pauli, tangent

# Hypothesis imports its failure-patch writer, and libcst with it, only once
# a test fails; libcst's import warns DeprecationWarning, which under
# ``-W error`` would end the run in an INTERNALERROR instead of the
# falsifying example.  Importing it here, quietly, keeps the report.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass


def random_skew(d: int, rng: np.random.Generator) -> np.ndarray:
    a = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    return (a - a.conj().T) / 2.0


def random_state(n: int, rng: np.random.Generator) -> np.ndarray:
    v = rng.standard_normal(2**n) + 1j * rng.standard_normal(2**n)
    return v / np.linalg.norm(v)


def random_word(n_wires: int, rng: np.random.Generator) -> str:
    return "".join(rng.choice(list("XYZ"), size=n_wires))


def random_circuit(n: int, p: int, rng: np.random.Generator,
                   n_fixed: int = 1) -> circuit.CircuitSpec:
    """Random Pauli-rotation circuit with p trainable and n_fixed frozen gates."""
    gates = []
    for j in range(p):
        k = int(rng.integers(1, min(n, 2) + 1))
        wires = tuple(int(w) for w in rng.choice(n, size=k, replace=False))
        gates.append(circuit.rotation(random_word(k, rng), wires, param=j))
    for _ in range(n_fixed):
        k = int(rng.integers(1, min(n, 2) + 1))
        wires = tuple(int(w) for w in rng.choice(n, size=k, replace=False))
        gates.append(circuit.rotation(random_word(k, rng), wires,
                                      angle=float(rng.uniform(0, 2 * np.pi))))
    rng.shuffle(gates)
    return circuit.CircuitSpec(n, tuple(gates), p)


def random_observable(n: int, rng: np.random.Generator, n_terms: int = 3) -> pauli.PauliSum:
    coeffs = {}
    for _ in range(n_terms):
        word = "".join(rng.choice(list("IXYZ"), size=n))
        coeffs[word] = coeffs.get(word, 0.0) + float(rng.standard_normal())
    return pauli.pauli_sum(n, coeffs)


def pauli_subspace(d: int, words, scales=None) -> liealg.Subspace:
    """Subspace spanned by i * (scaled Pauli-word combinations)."""
    mats = []
    for entry in words:
        m = sum(pauli.word_matrix(w) for w in ((entry,) if isinstance(entry, str) else entry))
        m = 1j * np.asarray(m, dtype=complex)
        m = m / np.sqrt(liealg.trace_inner(m, m))
        mats.append(m)
    return liealg.subspace(d, mats)


def span_of(mats, d: int) -> liealg.Subspace:
    """Subspace spanning possibly non-orthogonal skew matrices."""
    from symflow.nummat import orthonormal_rows

    rows = np.stack([liealg.coords(m, d) for m in mats])
    return liealg.subspace_from_rows(orthonormal_rows(rows), d)


def span_rows(vectors) -> np.ndarray:
    if not len(vectors):
        return np.zeros((0, 0))
    return nummat.orthonormal_rows(nummat.embed_real(np.stack(vectors)))


def same_tangent_span(vecs, targets, tol: float = 1e-8) -> bool:
    """Span equality of two families of state tangents via projectors."""
    if len(vecs) != len(targets):
        return False
    if not len(vecs):
        return True
    a = span_rows(vecs)
    b = span_rows(targets)
    if a.shape != b.shape:
        return False
    return bool(np.max(np.abs(a.T @ a - b.T @ b)) < tol)


# Second routes to library quantities, kept here as oracles.

def real_overlap(x, y) -> float:
    """Re <x|y> on state tangents."""
    x = np.asarray(x, dtype=complex)
    y = np.asarray(y, dtype=complex)
    if x.shape != y.shape:
        raise ValueError(f"shape mismatch {x.shape} vs {y.shape}")
    return float(np.real(np.vdot(x, y)))


ANCILLA_PLUS = np.array([1.0, 1.0], dtype=complex) / np.sqrt(2.0)


def ancilla_expectation(anc: estimators.AncillaCircuit, psi0) -> complex:
    """<phi| X (x) B |phi> for one ancilla circuit simulated on all n+1
    qubits from |+> (x) psi0."""
    phi = circuit.apply(anc.base, [], np.kron(ANCILLA_PLUS, np.asarray(psi0, dtype=complex)))
    return complex(np.vdot(phi, pauli.to_matrix(anc.observable) @ phi))


def ancilla_omega(c, theta, j: int, z_b, psi0, action: str,
                  decompose_generator: bool = False) -> float:
    """``estimators.hadamard_omega`` from the (n+1)-qubit simulation of every
    circuit of ``estimators.build_ancilla_circuit``:
    i * sum_l chi_l <phi_l| X (x) B |phi_l>."""
    circuits = estimators.build_ancilla_circuit(c, theta, j, z_b, action, decompose_generator)
    total = sum(anc.chi * ancilla_expectation(anc, psi0) for anc in circuits)
    return float(np.real(1j * total))


def ancilla_m(c, theta, psi0, m: pauli.PauliSum, z_a, action: str) -> float:
    """``estimators.insertion_m`` from the (n+1)-qubit simulation of the m
    circuits: ancilla in |+>, each word w_l of z_a controlled at the action
    point between the shifted gates, and Y (x) M read at the output.  For
    the imaginary chi_l of a skew-Hermitian z_a, 2 Re sum_l chi_l <a|M|b_l>
    is -2 sum_l Im(chi_l) <Y (x) M>_l."""
    theta = circuit.check_theta(c, theta)
    point = circuit.action_point(c, action)
    gates = [estimators._shift_gate(g, theta) for g in c.gates]
    readout = np.kron(pauli.word_matrix("Y"), pauli.to_matrix(m))
    phi0 = np.kron(ANCILLA_PLUS, np.asarray(psi0, dtype=complex))
    total = 0.0
    for word, chi in pauli.pauli_decompose(z_a).terms:
        ctrl = estimators._controlled_word_gate(word)
        layout = gates[:point] + ([ctrl] if ctrl is not None else []) + gates[point:]
        phi = circuit.apply(circuit.CircuitSpec(c.n_qubits + 1, tuple(layout), 0), [], phi0)
        total += -2.0 * chi.imag * float(np.real(np.vdot(phi, readout @ phi)))
    return total


def dense_branch_overlaps(c, theta, psi0, decomposition, b, control: int, measure: int):
    """``estimators._branch_overlaps`` with every word applied as its dense
    matrix, ``pauli.word_matrix(w) @ x``, in place of its signed permutation."""
    x = circuit.apply_gates(c, theta, psi0, 0, control)
    words = [pauli.word_matrix(w) @ x for w, _ in decomposition.terms]
    rows = circuit.apply_gates(c, theta, np.stack([x] + words), control, measure)
    b_on_a = b(rows[0])
    chi = np.array([chi for _, chi in decomposition.terms], dtype=complex)
    return chi, rows[1:] @ b_on_a.conj()


def on_dense_words(estimate, *args):
    """An estimator's value with its words applied as dense matrices."""
    with mock.patch.object(estimators, "_branch_overlaps", dense_branch_overlaps):
        return estimate(*args)


def ad_matrix(ys: np.ndarray, d: int) -> np.ndarray:
    """Real matrix of x -> ([y_1, x], ..., [y_k, x]) in fixed coordinates,
    shape (k*d*d, d*d), for a (k, d, d) stack of y; built d columns at a time."""
    ys = ys[:, None]
    cols = []
    for unit_rows in np.eye(d * d).reshape(d, d, d * d):
        e = liealg.from_coords(unit_rows, d)
        cols.append(liealg.coords(ys @ e - e @ ys, d))
    return np.concatenate(cols, axis=1).transpose(0, 2, 1).reshape(-1, d * d)


def commutant_oracle(sub: liealg.Subspace) -> liealg.Subspace:
    """The commutant as the SVD nullspace of the dense (k*d*d, d*d) ad-matrix."""
    d = sub.dim_ambient
    return liealg.subspace_from_rows(nummat.nullspace_real(ad_matrix(sub.basis, d)), d)


def sqrt_pinv_psd(g) -> np.ndarray:
    """Principal square root of ``nummat.pinv_psd(g)``."""
    evals, vecs = np.linalg.eigh(nummat.pinv_psd(g))
    return (vecs * np.sqrt(np.clip(evals, 0.0, None))) @ vecs.T


def cost_partial_commutator(c, theta, j: int, psi0, m: pauli.PauliSum) -> float:
    """d C / d theta_j via <psi0| [M~, Omega_j] |psi0> with the conjugated
    observable M~ = U^dag M U and the right-effective generator Omega_j."""
    theta = circuit.check_theta(c, theta)
    u = circuit.build_unitary(c, theta)
    m_tilde = u.conj().T @ pauli.to_matrix(m) @ u
    omega = circuit.effective_generator(c, theta, j, "right")
    comm = m_tilde @ omega - omega @ m_tilde
    return float(np.real(np.vdot(psi0, comm @ np.asarray(psi0, dtype=complex))))


def omega_anticommutator(sym, c, theta, psi0, basis_kind: str = "vertical") -> np.ndarray:
    """omega[b, j] via (1/2) <{z_b^dag, Omega_j}> at the action point:
    right-effective generators at psi0 for the theta action, left-effective
    generators at psi(theta) for the left action."""
    z_mats = tangent.z_basis(sym, basis_kind)
    theta = circuit.check_theta(c, theta)
    if sym.action == "theta":
        base, side = np.asarray(psi0, dtype=complex), "right"
    else:
        base, side = circuit.apply(c, theta, psi0), "left"
    omegas = [circuit.effective_generator(c, theta, j, side) for j in range(c.n_params)]
    out = np.zeros((len(z_mats), c.n_params))
    for b, z in enumerate(z_mats):
        zd = z.conj().T
        for j, om in enumerate(omegas):
            out[b, j] = 0.5 * float(np.real(np.vdot(base, (zd @ om + om @ zd) @ base)))
    return out


def _intersect_by_projectors(p_a, p_b) -> tuple[np.ndarray, bool]:
    """Orthonormal rows of range(p_a) intersected with range(p_b): the
    eigenvectors of p_a p_b p_a at eigenvalue 1 (to 1e-8, so principal
    angles up to about 1e-4 count as zero).  Also whether some principal
    angle has its sine, a singular value of p_a (1 - p_b), between 1e-12
    and 1e-2: there this route and a rank cut of 1e-10 can disagree."""
    m = p_a @ p_b @ p_a
    evals, vecs = np.linalg.eigh((m + m.T) / 2.0)
    sines = np.linalg.svd(p_a - p_a @ p_b, compute_uv=False)
    return vecs[:, evals >= 1.0 - 1e-8].T, bool(np.any((sines > 1e-12) & (sines < 1e-2)))


def state_four_split_oracle(sym, c, theta, psi0) -> tuple[tuple[np.ndarray, ...], bool]:
    """Embedded orthonormal rows of the (cov, both, equi, vert) parts of
    ``tangent.state_four_decomposition``, intersected through projectors,
    and whether any of the four intersections is near its cut."""
    from symflow.nummat import orthonormal_rows

    vertical = tangent.evaluate(sym, c, theta, psi0)
    equivariant = tangent.evaluate(sym, c, theta, psi0, "equivariant")

    def rows(onb):  # a (k, d) stack of tangents, embedded row by row in R^{2d}
        return orthonormal_rows(np.concatenate([onb.real, onb.imag], axis=1))

    t_rows = tangent.state_tangent_rows(vertical.psi)
    v_rows, e_rows = rows(vertical.frame.onb), rows(equivariant.frame.onb)
    h_rows = orthonormal_rows(t_rows - (t_rows @ v_rows.T) @ v_rows)
    p_v, p_e, p_h = (r.T @ r for r in (v_rows, e_rows, h_rows))
    eye = np.eye(len(p_v))
    equi, near_equi = _intersect_by_projectors(p_e, p_v)
    both, near_both = _intersect_by_projectors(p_e, p_h)
    cov, near_cov = _intersect_by_projectors(p_h, eye - p_e)
    vert, near_vert = _intersect_by_projectors(p_v, eye - equi.T @ equi)
    return (cov, both, equi, vert), near_equi or near_both or near_cov or near_vert


def induced_split_oracle(sym, c, theta, psi0) -> tuple[liealg.Subspace, liealg.Subspace]:
    """``tangent.induced_algebra_split`` through the real (2d, d*d) action
    matrix, whose column a is the embedded action tangent of basis element
    a of u(d): the stabilizer of t and the action kernel are its
    nullspaces."""
    from symflow.nummat import embed_real, nullspace_real, orthonormal_rows

    theta = circuit.check_theta(c, theta)
    point = circuit.action_point(c, sym.action)
    phi = circuit.apply_gates(c, theta, psi0, 0, point)

    def tangents(xs):  # embedded action tangents of a stack of x, as columns
        return embed_real(circuit.apply_gates(c, theta, xs @ phi, point)).T

    action = tangents(liealg.skew_basis(c.dim))
    v_rows = orthonormal_rows(tangents(sym.generators.basis).T)
    p_v = v_rows.T @ v_rows
    t_rows = sym.generators.rows
    t0_rows = nullspace_real(action @ t_rows.T) @ t_rows
    active_t = t_rows - (t_rows @ t0_rows.T) @ t0_rows
    span_rows = orthonormal_rows(np.vstack([t_rows, sym.commutant.rows]))
    cols = action @ span_rows.T
    inter_rows = nullspace_real(cols - p_v @ cols) @ span_rows
    kernel_rows = nullspace_real(action)
    if inter_rows.shape[0] and kernel_rows.shape[0]:
        inter_rows = nullspace_real(kernel_rows @ inter_rows.T) @ inter_rows
    perp_rows = orthonormal_rows(np.vstack([active_t, inter_rows]))
    return (liealg.subspace_from_rows(nullspace_real(perp_rows), c.dim),
            liealg.subspace_from_rows(perp_rows, c.dim))


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


# frequently used circuit: global_phase(t3) RX(t2) RY(t1) on one qubit
def single_qubit_example() -> circuit.CircuitSpec:
    return circuit.CircuitSpec(1, (
        circuit.rotation("Y", (0,), param=0),
        circuit.rotation("X", (0,), param=1),
        circuit.Gate(pauli.parse_pauli_sum("-I", 1), (0,), param=2),
    ), 3)


# two-qubit example: CRX(t3; control=wire1, target=wire0) RY2(t2) RY1(t1)
def two_qubit_example() -> circuit.CircuitSpec:
    crx = pauli.parse_pauli_sum("0.25*XI - 0.25*XZ", 2)
    return circuit.CircuitSpec(2, (
        circuit.rotation("Y", (0,), param=0),
        circuit.rotation("Y", (1,), param=1),
        circuit.Gate(crx, (0, 1), param=2),
    ), 3)


def su2_tensor_subspace() -> liealg.Subspace:
    return pauli_subspace(4, [("XI", "IX"), ("YI", "IY"), ("ZI", "IZ")])
