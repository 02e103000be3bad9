import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from symflow import circuit, cli, liealg, pauli, tangent
from symflow.nummat import (ContractViolation, embed_real, expm_skew, nullspace_real,
                            orthonormal_rows, trace_inner)
from conftest import (
    induced_split_oracle,
    pauli_subspace,
    random_circuit,
    random_skew,
    random_state,
    real_overlap,
    same_tangent_span,
    single_qubit_example,
    state_four_split_oracle,
    su2_tensor_subspace,
)


X, Y, Z, I2 = (pauli.word_matrix(w) for w in "XYZI")
PLUS = np.array([1, 1]) / np.sqrt(2)
MINUS = np.array([1, -1]) / np.sqrt(2)
T_Z = liealg.subspace(2, [1j * Z])
ID1 = circuit.CircuitSpec(1, (), 0)
ID2 = circuit.CircuitSpec(2, (), 0)


def bell(sign):
    return (circuit.basis_state("00") + sign * circuit.basis_state("11")) / np.sqrt(2)


def singlet():
    return (circuit.basis_state("01") - circuit.basis_state("10")) / np.sqrt(2)


def test_real_overlap_basics():
    zero = circuit.basis_state("0")
    assert real_overlap(zero, 1j * zero) == pytest.approx(0.0, abs=1e-14)
    assert real_overlap(1j * PLUS, 1j * PLUS) == pytest.approx(1.0, abs=1e-14)
    with pytest.raises(ValueError):
        real_overlap(zero, circuit.basis_state("00"))


def test_real_overlap_anticommutator_identity(rng):
    psi = random_state(2, rng)
    for _ in range(10):
        x, y = random_skew(4, rng), random_skew(4, rng)
        direct = real_overlap(x @ psi, y @ psi)
        anti = x @ y + y @ x
        assert direct == pytest.approx(-0.5 * np.vdot(psi, anti @ psi).real, abs=1e-12)


def test_symmetry_spec_requires_closure():
    with pytest.raises(ContractViolation):
        tangent.SymmetrySpec(pauli_subspace(2, ["X", "Y"]), "theta")
    with pytest.raises(ValueError):
        tangent.SymmetrySpec(T_Z, "middle")


def test_vertical_frame_u1_on_plus(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    fr = tangent.vertical_frame(tangent.SymmetrySpec(T_Z, "theta"), c, theta, PLUS)
    assert fr.rank == 1
    u = circuit.build_unitary(c, theta)
    assert same_tangent_span(list(fr.onb), [u @ (1j * MINUS)])


def test_vertical_frame_su2_on_01():
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    fr = tangent.vertical_frame(sym, ID2, [], circuit.basis_state("01"))
    assert fr.rank == 2
    assert same_tangent_span(list(fr.onb), [1j * bell(1), bell(-1)])


def test_vertical_frame_rank_zero_on_singlet():
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    fr = tangent.vertical_frame(sym, ID2, [], singlet())
    assert fr.rank == 0
    assert len(fr.onb) == 0


def test_vertical_rank_deficit_counts_stabilizer():
    # rank <= dim t, deficit = number of generators acting trivially
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    for psi, deficit in ((circuit.basis_state("01"), 1), (singlet(), 3),
                         (random_state(2, np.random.default_rng(1)), 0)):
        fr = tangent.vertical_frame(sym, ID2, [], psi)
        assert fr.rank <= sym.generators.dim
        cols = np.stack([embed_real(z @ psi) for z in sym.generators.basis], axis=1)
        assert nullspace_real(cols).shape[0] == deficit
        assert fr.rank == sym.generators.dim - deficit


def test_equivariant_frame_u1_theta(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    sym = tangent.SymmetrySpec(T_Z, "theta")
    fr = tangent.equivariant_frame(sym, c, theta, PLUS)
    assert fr.rank == 2
    u = circuit.build_unitary(c, theta)
    assert same_tangent_span(list(fr.onb), [u @ (1j * PLUS), u @ (1j * MINUS)])


def test_equivariant_frame_left_gram(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    sym = tangent.SymmetrySpec(T_Z, "left")
    fr = tangent.equivariant_frame(sym, c, theta, PLUS)
    a = np.sin(theta[0]) * np.cos(theta[1])
    assert np.allclose(np.diag(fr.gram), [1.0, 1.0], atol=1e-12)
    assert fr.gram[0, 1] == pytest.approx(-a, abs=1e-12) or \
        fr.gram[0, 1] == pytest.approx(a, abs=1e-12)
    # rank drops at the singular envelope s1 c2 = +-1
    sing = np.array([np.pi / 2, 0.0, 0.4])
    fr_sing = tangent.equivariant_frame(sym, c, sing, PLUS)
    assert fr_sing.rank == 1


@pytest.mark.parametrize("eps", [1e-7, 1e-6, 1e-5])
def test_equivariant_frame_keeps_short_directions(eps):
    """RY(eps)|0> under i*Z: the commutant tangents i psi and iZ psi have
    singular values about sqrt(2) and eps / sqrt(2), both far above the
    1e-10 rank cut, so the frame has rank 2 and spans its raw tangents."""
    c = circuit.CircuitSpec(1, (circuit.rotation("Y", (0,), param=0),), 1)
    sym = tangent.SymmetrySpec(T_Z, "left")
    fr = tangent.equivariant_frame(sym, c, [eps], circuit.basis_state("0"))
    assert fr.rank == 2
    onb = np.concatenate([fr.onb.real, fr.onb.imag], axis=1)
    raw = np.concatenate([fr.raw.real, fr.raw.imag], axis=1)
    residual = raw - (raw @ onb.T) @ onb
    assert np.max(np.abs(residual)) < 1e-10 * np.max(np.linalg.norm(raw, axis=1))


def test_equivariant_frame_global_phase(rng):
    c = single_qubit_example()
    theta = rng.uniform(0, 2 * np.pi, 3)
    sym = tangent.SymmetrySpec(liealg.subspace(2, [1j * I2]), "left")
    fr = tangent.equivariant_frame(sym, c, theta, PLUS)
    # commutant of global phases is all of u(2): tangents span the full
    # unitary tangent space, rank 2d - 1 = 3
    assert fr.rank == 3
    psi = circuit.apply(c, theta, PLUS)
    assert any(abs(real_overlap(v, 1j * psi)) > 1e-8 for v in fr.onb)


def test_theta_action_gram_is_theta_independent(rng):
    c = single_qubit_example()
    sym = tangent.SymmetrySpec(T_Z, "theta")
    grams = []
    for _ in range(10):
        theta = rng.uniform(0, 2 * np.pi, 3)
        grams.append(tangent.vertical_frame(sym, c, theta, PLUS).gram)
    for g in grams[1:]:
        assert np.max(np.abs(g - grams[0])) < 1e-12


def test_state_four_decomposition_plus():
    sym = tangent.SymmetrySpec(T_Z, "theta")
    sd = tangent.state_four_decomposition(sym, ID1, [], PLUS)
    assert same_tangent_span(sd.cov, [MINUS])
    assert same_tangent_span(sd.both, [1j * PLUS])
    assert same_tangent_span(sd.equi, [1j * MINUS])
    assert len(sd.vert) == 0
    assert sd.residual_dim == 0


def test_state_four_decomposition_01():
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    sd = tangent.state_four_decomposition(sym, ID2, [], circuit.basis_state("01"))
    s01, s10 = circuit.basis_state("01"), circuit.basis_state("10")
    assert same_tangent_span(sd.cov, [s10, 1j * bell(-1), bell(1)])
    assert same_tangent_span(sd.both, [1j * s01, 1j * s10])
    assert len(sd.equi) == 0
    assert same_tangent_span(sd.vert, [1j * bell(1), bell(-1)])
    assert sd.residual_dim == 0


def test_state_four_decomposition_singlet():
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    sd = tangent.state_four_decomposition(sym, ID2, [], singlet())
    assert len(sd.vert) == 0 and len(sd.equi) == 0
    assert len(sd.both) == 1 and same_tangent_span(sd.both, [1j * singlet()])
    assert len(sd.cov) == 6
    assert sd.residual_dim == 0


def test_state_four_lists_orthonormal(rng):
    c = random_circuit(2, 2, rng)
    theta = rng.uniform(0, 2 * np.pi, 2)
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "left")
    sd = tangent.state_four_decomposition(sym, c, theta, random_state(2, rng))
    groups = [sd.cov, sd.both, sd.equi, sd.vert]
    flat = [v for g in groups for v in g]
    for a in range(len(flat)):
        for b in range(len(flat)):
            want = 1.0 if a == b else 0.0
            assert real_overlap(flat[a], flat[b]) == pytest.approx(want, abs=1e-10)


def _collective(letter: str, n: int) -> str:
    return " + ".join("i*" + "I" * q + letter + "I" * (n - q - 1) for q in range(n))


SPLIT_SYMMETRIES = {
    "su2": lambda n: [_collective(ch, n) for ch in "XYZ"],
    "u1": lambda n: [_collective("Z", n)],
    "z0": lambda n: ["i*Z" + "I" * (n - 1)],
}


SPLIT_CASES = given(
    n=st.integers(1, 3), action=st.sampled_from(["left", "theta"]),
    kind=st.sampled_from(sorted(SPLIT_SYMMETRIES)), seed=st.integers(0, 10**6),
    quarter=st.lists(st.booleans(), min_size=3, max_size=3), basis_psi0=st.booleans())


def split_case(n, action, kind, seed, quarter, basis_psi0):
    """Symmetry, random circuit, angles and input state of one drawn split
    case: each angle an exact multiple of pi/2 where ``quarter`` says so,
    a uniform draw otherwise."""
    rng = np.random.default_rng(seed)
    c = random_circuit(n, 3, rng)
    theta = np.where(quarter, rng.integers(0, 4, 3) * np.pi / 2, rng.uniform(0, 2 * np.pi, 3))
    psi0 = (circuit.basis_state("".join(rng.choice(["0", "1"], size=n))) if basis_psi0
            else random_state(n, rng))
    return cli.symmetry_from_strings(SPLIT_SYMMETRIES[kind](n), action, n), c, theta, psi0


@settings(deadline=None, max_examples=60)
@SPLIT_CASES
def test_state_split_matches_projector_oracle(n, action, kind, seed, quarter, basis_psi0):
    """The four parts, from nullspaces of small row products, against the
    eigenvectors of projector products.  Angles are exact multiples of
    pi/2, where the splits degenerate, or uniform draws.  The oracle
    resolves principal angles only down to about 1e-4, so a draw that puts
    one between 1e-12 and 1e-2 (about 1 in 3000) is discarded."""
    sym, c, theta, psi0 = split_case(n, action, kind, seed, quarter, basis_psi0)
    wants, near_cut = state_four_split_oracle(sym, c, theta, psi0)
    assume(not near_cut)
    sd = tangent.state_four_decomposition(sym, c, theta, psi0)
    for part, want in zip((sd.cov, sd.both, sd.equi, sd.vert), wants):
        assert len(part) == len(want)
        got = np.reshape([embed_real(v) for v in part], (-1, 2 * c.dim))
        assert np.max(np.abs(got.T @ got - want.T @ want)) < 1e-10


@settings(deadline=None, max_examples=60)
@SPLIT_CASES
def test_induced_split_matches_action_matrix_oracle(n, action, kind, seed, quarter, basis_psi0):
    """The split from the t + u_t tangents and the kernel projection
    x -> QxQ against the nullspaces of the full (2d, d*d) action matrix."""
    sym, c, theta, psi0 = split_case(n, action, kind, seed, quarter, basis_psi0)
    for got, want in zip(tangent.induced_algebra_split(sym, c, theta, psi0),
                         induced_split_oracle(sym, c, theta, psi0)):
        assert got.dim == want.dim
        assert liealg.span_distance(got, want) < 1e-10


@pytest.mark.parametrize("eps, counts", [(0.0, (2, 0, 1, 0)), (1e-6, (1, 1, 1, 0)),
                                         (1e-4, (1, 1, 1, 0)), (0.3, (1, 1, 1, 0))])
def test_state_split_resolves_small_angles(eps, counts):
    """RY(eps)|0> under the Z symmetry: the commutant tangents i psi and
    i Z psi differ by about eps, so every eps > 0 well above the rank
    tolerance splits as generic, with no residual."""
    c = circuit.CircuitSpec(1, (circuit.rotation("Y", (0,), param=0),), 1)
    sym = tangent.SymmetrySpec(T_Z, "left")
    sd = tangent.state_four_decomposition(sym, c, [eps], circuit.basis_state("0"))
    assert (len(sd.cov), len(sd.both), len(sd.equi), len(sd.vert)) == counts
    assert sd.residual_dim == 0


def test_induced_split_u1_at_zero():
    sym = tangent.SymmetrySpec(T_Z, "theta")
    u_par, u_perp = tangent.induced_algebra_split(sym, ID1, [], circuit.basis_state("0"))
    assert liealg.span_distance(u_perp, pauli_subspace(2, ["I", "Z"])) < 1e-10
    assert liealg.span_distance(u_par, pauli_subspace(2, ["X", "Y"])) < 1e-10


def test_induced_split_u1_at_plus_matches_canonical():
    sym = tangent.SymmetrySpec(T_Z, "theta")
    u_par, u_perp = tangent.induced_algebra_split(sym, ID1, [], PLUS)
    assert liealg.span_distance(u_perp, T_Z) < 1e-10
    assert u_par.dim == 3


def test_induced_split_su2_at_01():
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    u_par, u_perp = tangent.induced_algebra_split(sym, ID2, [], circuit.basis_state("01"))
    target = pauli_subspace(4, [("XI", "IX"), ("YI", "IY")])
    assert liealg.span_distance(u_perp, target) < 1e-10
    assert not liealg.is_subalgebra(u_perp)
    assert u_par.dim == 14


@pytest.mark.parametrize("action", ["theta", "left"])
@pytest.mark.parametrize("split", [tangent.state_four_decomposition, tangent.induced_algebra_split])
def test_split_takes_one_pass(split, action, rng, monkeypatch):
    """Each split carries psi and its action tangents in one batched pass:
    one gate application per gate, and no evaluation sweep."""
    c = random_circuit(2, 3, rng, n_fixed=2)
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
    sym.commutant  # solved before counting; it applies no gates
    apply_gate, calls = circuit.apply_gate, []
    monkeypatch.setattr(circuit, "apply_gate", lambda *a: calls.append(1) or apply_gate(*a))
    monkeypatch.setattr(circuit, "evaluate", lambda *a, **k: pytest.fail("evaluate called"))
    split(sym, c, rng.uniform(0, 2 * np.pi, 3), random_state(2, rng))
    assert len(calls) == len(c.gates) == 5


@pytest.mark.parametrize("action", ["theta", "left"])
def test_induced_split_carries_only_symmetry_and_commutant(action, rng, monkeypatch):
    """The split needs no basis of u(d): its batch holds phi and an
    orthonormal basis of t + u_t, 1 + 5 rows for collective su(2) on two
    qubits, where u_t = span{i I, i SWAP}; the t tangents are read from
    those of t + u_t, which contains t."""
    c = random_circuit(2, 3, rng, n_fixed=2)
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), action)
    sym.commutant  # solved before counting
    apply_gate, batches = circuit.apply_gate, []
    monkeypatch.setattr(circuit, "apply_gate",
                        lambda psi, *a: batches.append(np.shape(psi)) or apply_gate(psi, *a))
    monkeypatch.setattr(liealg, "skew_basis", lambda d: pytest.fail("skew_basis called"))
    tangent.induced_algebra_split(sym, c, rng.uniform(0, 2 * np.pi, 3), random_state(2, rng))
    # under left the action point is the output, so the batch meets no gate
    assert batches == ([(1 + 5, 4)] * 5 if action == "theta" else [(4,)] * 5)


def test_induced_split_su2_at_singlet():
    sym = tangent.SymmetrySpec(su2_tensor_subspace(), "theta")
    u_par, u_perp = tangent.induced_algebra_split(sym, ID2, [], singlet())
    assert u_perp.dim == 0
    assert u_par.dim == 16
    assert liealg.is_subalgebra(u_par)


def _induced_split_on_unitaries(t: liealg.Subspace, u: np.ndarray):
    """Free right action on the unitary group itself: tangents are u @ x
    with the rescaled Frobenius inner product."""
    d = t.dim_ambient
    basis = liealg.skew_basis(d)

    def emb(mat):
        v = (u @ mat).ravel()
        return np.concatenate([v.real, v.imag])

    v_rows = orthonormal_rows(np.stack([emb(x) for x in t.basis]))
    p_v = v_rows.T @ v_rows
    comm = liealg.commutant(t)
    span_rows = orthonormal_rows(np.vstack([t.rows, comm.rows]))
    cols = []
    for row in span_rows:
        tau = emb(liealg.from_coords(row, d))
        cols.append(tau - p_v @ tau)
    coeffs = nullspace_real(np.stack(cols, axis=1))
    inter = coeffs @ span_rows if coeffs.size else np.zeros((0, d * d))
    # the action is free: the kernel is empty and t0 is trivial
    full_cols = np.stack([emb(liealg.from_coords(r, d)) for r in np.eye(d * d)], axis=1)
    assert nullspace_real(full_cols).shape[0] == 0
    perp_rows = orthonormal_rows(np.vstack([t.rows, inter]))
    u_perp = liealg.subspace_from_rows(perp_rows, d)
    u_par = liealg.subspace_from_rows(nullspace_real(perp_rows), d)
    return u_par, u_perp


def test_free_action_split_matches_canonical(rng):
    # for the free right-regular action on unitaries the induced split is
    # exactly (orth(t), t)
    for t in (T_Z, su2_tensor_subspace()):
        d = t.dim_ambient
        u = expm_skew(random_skew(d, rng), 1.0)
        u_par, u_perp = _induced_split_on_unitaries(t, u)
        assert liealg.span_distance(u_perp, t) < 1e-10
        rows = nullspace_real(t.rows)
        assert liealg.span_distance(u_par, liealg.subspace_from_rows(rows, d)) < 1e-10
