import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symflow import liealg, nummat, pauli
from symflow.nummat import ContractViolation, expm_skew, orthonormal_rows, trace_inner
from conftest import commutant_oracle, pauli_subspace, random_skew, span_of, su2_tensor_subspace


I2 = np.eye(2, dtype=complex)
X, Y, Z = (pauli.word_matrix(w) for w in "XYZ")
SWAP = 0.5 * sum(pauli.word_matrix(w) for w in ("II", "XX", "YY", "ZZ"))


def brute_force_closure_dim(generators, max_rounds=60):
    """Independent oracle: stack flattened matrices, add commutators until
    the matrix rank stops growing."""
    mats = [np.asarray(g) for g in generators]
    rank = np.linalg.matrix_rank(np.stack([m.ravel() for m in mats]), tol=1e-9)
    for _ in range(max_rounds):
        new = list(mats)
        for a in mats:
            for b in mats:
                new.append(a @ b - b @ a)
        new_rank = np.linalg.matrix_rank(np.stack([m.ravel() for m in new]), tol=1e-9)
        mats = new
        if new_rank == rank:
            return rank
        rank = new_rank
    raise RuntimeError("oracle did not stabilize")


def haar_twirl_u1(x, generator, n_points=1000):
    """Quadrature twirl over exp(alpha * generator), alpha in [0, 2pi)."""
    acc = np.zeros_like(np.asarray(x, dtype=complex))
    for alpha in np.linspace(0.0, 2.0 * np.pi, n_points, endpoint=False):
        u = expm_skew(generator, alpha)
        acc += u @ x @ u.conj().T
    return acc / n_points


def test_lie_closure_single_generator():
    assert liealg.lie_closure([-0.5j * X]).dim == 1


def test_lie_closure_su2():
    sub = liealg.lie_closure([-0.5j * X, -0.5j * Z])
    assert sub.dim == 3
    assert liealg.span_distance(sub, pauli_subspace(2, ["X", "Y", "Z"])) < 1e-10


def test_lie_closure_ising_golden():
    gens = [-0.5j * pauli.word_matrix(w) for w in ("ZZ", "XI", "IX")]
    sub = liealg.lie_closure(gens)
    assert sub.dim == brute_force_closure_dim(gens)
    assert sub.dim == 6  # frozen from the brute-force oracle
    assert liealg.is_subalgebra(sub)


def test_lie_closure_empty():
    with pytest.raises(ValueError):
        liealg.lie_closure([])


def test_lie_closure_reads_rank_tol_once(monkeypatch):
    calls = []

    def counting_rank_tol():
        calls.append(1)
        return 1e-10

    monkeypatch.setattr(nummat, "rank_tol", counting_rank_tol)
    sub = liealg.lie_closure([1j * pauli.word_matrix(w) for w in ("XI", "ZZ", "IY")])
    assert sub.dim > 3  # many candidates went through the rank test
    assert len(calls) == 1


def test_commutant_of_z():
    comm = liealg.commutant(liealg.subspace(2, [1j * Z]))
    assert comm.dim == 2
    assert liealg.span_distance(comm, pauli_subspace(2, ["I", "Z"])) < 1e-10


def test_commutant_of_su2_tensor():
    comm = liealg.commutant(su2_tensor_subspace())
    assert comm.dim == 2
    target = liealg.subspace(4, [1j * np.eye(4), 1j * (SWAP - np.eye(4) / 2) / np.sqrt(3 / 4)])
    assert liealg.span_distance(comm, target) < 1e-10


def test_commutant_of_full_algebra():
    for d in (2, 4):
        comm = liealg.commutant(liealg.full_space(d))
        assert comm.dim == 1
        assert liealg.span_distance(comm, liealg.subspace(d, [1j * np.eye(d)])) < 1e-10


def test_commutant_of_empty_is_everything():
    assert liealg.commutant(liealg.Subspace(2, ())).dim == 4


def test_center_abelian():
    t = liealg.subspace(2, [1j * Z])
    assert liealg.span_distance(liealg.center(t), t) < 1e-10


def test_center_su2_tensor_trivial():
    assert liealg.center(su2_tensor_subspace()).dim == 0


def test_center_u2():
    c = liealg.center(liealg.full_space(2))
    assert c.dim == 1
    assert liealg.span_distance(c, liealg.subspace(2, [1j * I2])) < 1e-10


def test_center_of_unclosed_subspace():
    """span{iX, iY} is not bracket-closed and no element of it commutes
    with the rest: its center is empty, with no warning."""
    assert liealg.center(pauli_subspace(2, ["X", "Y"])).dim == 0


@pytest.mark.parametrize("words, dim", [(["ZI", "IX", "IY", "IZ"], 1), (["IZ", "XI", "YI"], 1),
                                        (["ZI", "IZ", "XX"], 0), (["ZZ", "XX", "YY"], 3)])
def test_center_is_symmetry_part_of_commutant(words, dim):
    """Closed or not, the center is every element of t commuting with t."""
    t = pauli_subspace(4, words)
    z = liealg.center(t)
    assert z.dim == dim
    for x in z.basis:
        assert t.contains(x)
        assert max(np.max(np.abs(x @ b - b @ x)) for b in t.basis) < 1e-12


def test_four_decomposition_u1_in_u2():
    fd = liealg.four_decomposition(liealg.subspace(2, [1j * Z]))
    assert fd.dims == (2, 1, 1, 0)
    assert liealg.span_distance(fd.r, pauli_subspace(2, ["X", "Y"])) < 1e-10
    assert liealg.span_distance(fd.ut_centerless, pauli_subspace(2, ["I"])) < 1e-10
    assert liealg.span_distance(fd.center_t, pauli_subspace(2, ["Z"])) < 1e-10


def test_four_decomposition_global_phase():
    fd = liealg.four_decomposition(liealg.subspace(2, [1j * I2]))
    assert fd.dims == (0, 3, 1, 0)
    assert liealg.span_distance(fd.ut_centerless, pauli_subspace(2, ["X", "Y", "Z"])) < 1e-10


def test_four_decomposition_su2_tensor():
    fd = liealg.four_decomposition(su2_tensor_subspace())
    assert fd.dims == (11, 2, 0, 3)
    r_mats = [1j * (pauli.word_matrix(a) - pauli.word_matrix(b))
              for a, b in (("XX", "YY"), ("XX", "ZZ"),
                           ("XI", "IX"), ("YI", "IY"), ("ZI", "IZ"))]
    r_mats += [1j * pauli.word_matrix(w) for w in ("XY", "YX", "XZ", "ZX", "YZ", "ZY")]
    assert liealg.span_distance(fd.r, span_of(r_mats, 4)) < 1e-10
    assert liealg.span_distance(fd.t_centerless, su2_tensor_subspace()) < 1e-10


def test_four_decomposition_dims_and_orthogonality(rng):
    for d in (2, 4):
        t = liealg.lie_closure([random_skew(d, rng) for _ in range(2)])
        fd = liealg.four_decomposition(t)
        assert sum(fd.dims) == d * d
        parts = [fd.r, fd.ut_centerless, fd.center_t, fd.t_centerless]
        for i in range(4):
            for j in range(i + 1, 4):
                for a in parts[i].basis:
                    for b in parts[j].basis:
                        assert abs(trace_inner(a, b)) < 1e-10


def test_four_decomposition_rejects_non_closed():
    with pytest.raises(ContractViolation):
        liealg.four_decomposition(pauli_subspace(2, ["X", "Y"]))


def test_twirl_fixes_range(rng):
    comm = liealg.commutant(liealg.subspace(2, [1j * Z]))
    x = sum(rng.standard_normal() * b for b in comm.basis)
    assert np.allclose(liealg.twirl_project(x, comm), x, atol=1e-12)


def test_twirl_kills_off_commutant():
    comm = liealg.commutant(liealg.subspace(2, [1j * Z]))
    assert np.max(np.abs(liealg.twirl_project(1j * X, comm))) < 1e-14


def test_twirl_idempotent(rng):
    comm = liealg.commutant(liealg.subspace(2, [1j * Z]))
    for _ in range(10):
        x = random_skew(2, rng)
        once = liealg.twirl_project(x, comm)
        assert np.allclose(liealg.twirl_project(once, comm), once, atol=1e-12)


def test_twirl_matches_haar_quadrature(rng):
    for gen in (1j * Z, 1j * I2):
        comm = liealg.commutant(liealg.subspace(2, [gen]))
        for _ in range(20):
            x = random_skew(2, rng)
            got = liealg.twirl_project(x, comm)
            want = haar_twirl_u1(x, gen)
            assert np.max(np.abs(got - want)) < 1e-6


def test_twirl_operator_idempotent_as_matrix():
    for d, gen in ((2, 1j * Z), (4, su2_tensor_subspace().basis[0])):
        comm = liealg.commutant(liealg.subspace(d, [gen]) if d == 2 else su2_tensor_subspace())
        basis = liealg.skew_basis(d)
        t_mat = np.stack(
            [liealg.coords(liealg.twirl_project(e, comm), d) for e in basis], axis=1
        )
        assert np.max(np.abs(t_mat @ t_mat - t_mat)) < 1e-12


def test_is_subalgebra_examples():
    assert not liealg.is_subalgebra(pauli_subspace(2, ["X", "Y"]))
    swap_comm = liealg.commutant(su2_tensor_subspace())
    assert liealg.is_subalgebra(swap_comm)  # span{iI, iSWAP}
    assert liealg.is_subalgebra(liealg.Subspace(2, ()))


def test_commutant_closure_lemmas(rng):
    # the commutant of any algebra is an algebra, the center and both
    # centerless parts are algebras too
    for d in (2, 4, 8):
        t = liealg.lie_closure([random_skew(d, rng) for _ in range(2)])
        fd = liealg.four_decomposition(t)
        assert liealg.is_subalgebra(liealg.commutant(t))
        assert liealg.is_subalgebra(fd.center_t)
        assert liealg.is_subalgebra(fd.ut_centerless)
        assert liealg.is_subalgebra(fd.t_centerless)


def test_commutant_invariant_under_group_conjugation(rng):
    # commuting with the algebra and with the exponentiated group coincide
    for t in (liealg.subspace(2, [1j * Z]), su2_tensor_subspace()):
        comm = liealg.commutant(t)
        d = t.dim_ambient
        for _ in range(50):
            coeffs = rng.standard_normal(t.dim)
            s = expm_skew(sum(c * b for c, b in zip(coeffs, t.basis)), 1.0)
            for x in comm.basis:
                assert np.max(np.abs(s @ x @ s.conj().T - x)) < 1e-10


def test_subspace_validation():
    with pytest.raises(ContractViolation):
        liealg.subspace(2, [1j * Z, 1j * Z])
    with pytest.raises(ContractViolation):
        liealg.subspace(2, [Z])  # Hermitian, not skew


def test_subspace_report_lines():
    lines = liealg.subspace_report(pauli_subspace(2, ["I", "Z"]), "sub")
    assert lines[0] == "sub: dim 2"
    assert "i*I" in lines[1]


def basis_einsum_oracle(x, d: int) -> np.ndarray:
    """Coordinates as trace inner products with an explicit i*P basis."""
    n = d.bit_length() - 1
    basis = np.stack([1j * pauli.word_matrix(w) for w in pauli.all_words(n)])
    return np.real(np.einsum("aij,ij->a", basis.conj(), x)) / d


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_coords_round_trips(n, rng):
    d = 2**n
    x = random_skew(d, rng)
    v = liealg.coords(x, d)
    if n <= 4:
        assert np.max(np.abs(v - basis_einsum_oracle(x, d))) < 1e-12
    assert np.max(np.abs(liealg.from_coords(v, d) - x)) < 1e-12
    w = rng.standard_normal((3, d * d))
    assert np.max(np.abs(liealg.coords(liealg.from_coords(w, d), d) - w)) < 1e-12


def test_coordinates_reject_non_power_of_two():
    for call in (
        lambda: liealg.coords(np.zeros((3, 3)), 3),
        lambda: liealg.coords(np.zeros((6, 6))),
        lambda: liealg.coords(np.zeros((4, 4)), 2),
        lambda: liealg.from_coords(np.zeros(9), 3),
        lambda: liealg.from_coords(np.zeros(16), 2),
        lambda: liealg.skew_basis(3),
    ):
        with pytest.raises(ValueError):
            call()


def collective(letter: str, n: int):
    return tuple("I" * q + letter + "I" * (n - q - 1) for q in range(n))


@pytest.mark.parametrize("words, closed_form", [
    ([collective(ch, 4) for ch in "XYZ"], 14),  # collective su(2): Catalan C_4
    ([collective("Z", 4)], 70),                 # total-Z u(1): C(8, 4)
    (["ZZZZ"], 128),                            # i*Z^{(x)4}: d^2 / 2
])
def test_commutant_closed_form_dims_n4(words, closed_form):
    t = pauli_subspace(16, words)
    assert liealg.commutant(t).dim == closed_form
    fd = liealg.four_decomposition(t)
    assert fd.ut_centerless.dim + fd.center_t.dim == closed_form


@pytest.mark.parametrize("words, closed_form", [
    ([collective(ch, 5) for ch in "XYZ"], 42),  # collective su(2): Catalan C_5
    ([collective("Z", 5)], 252),                # total-Z u(1): C(10, 5)
    (["ZZZZZ"], 512),                           # i*Z^{(x)5}: d^2 / 2
])
def test_commutant_closed_form_dims_n5(words, closed_form):
    assert liealg.commutant(pauli_subspace(32, words)).dim == closed_form


@pytest.mark.parametrize("n", [3, 4])
@pytest.mark.parametrize("kind", ["su2", "u1", "parity"])
def test_commutant_matches_dense_route_on_bench_symmetries(kind, n):
    words = {"su2": [collective(ch, n) for ch in "XYZ"], "u1": [collective("Z", n)],
             "parity": ["Z" * n]}[kind]
    t = pauli_subspace(2**n, words)
    got, want = liealg.commutant(t), commutant_oracle(t)
    assert got.dim == want.dim
    assert liealg.span_distance(got, want) <= 1e-12


def exact_word_rows(rows) -> np.ndarray:
    """The Pauli-word index of each row, asserting that every row is a
    signed coordinate unit vector, exactly."""
    assert np.all(np.sum(rows != 0, axis=1) == 1)
    assert np.all(np.abs(rows[rows != 0]) == 1.0)
    return np.nonzero(rows)[1]


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_word_spanned_commutant_comes_back_as_words(n):
    """The commutant of i*Z^{(x)n} is the d^2/2 words commuting with Z^{(x)n}."""
    words = pauli.all_words(n)
    index = exact_word_rows(liealg.commutant(pauli_subspace(2**n, ["Z" * n])).rows)
    want = [a for a, w in enumerate(words) if pauli.commuting([w, "Z" * n])]
    assert sorted(index) == want and len(want) == 2 ** (2 * n - 1)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_total_z_commutant_leads_with_its_z_words(n):
    comm = liealg.commutant(pauli_subspace(2**n, [collective("Z", n)]))
    z_words = [a for a, w in enumerate(pauli.all_words(n)) if set(w) <= {"I", "Z"}]
    assert sorted(exact_word_rows(comm.rows[:2**n])) == z_words
    assert np.max(np.abs(comm.rows[2**n:, z_words]), initial=0.0) < 1e-12
    assert comm.dim == {2: 6, 3: 20, 4: 70}[n]  # C(2n, n)


def drawn_subspace(kind: str, n: int, rng) -> liealg.Subspace:
    """A subspace of u(2**n): the span or the closure of a few Pauli sums,
    of dense random skew matrices, the empty subspace or all of u(d)."""
    d = 2**n
    if kind == "empty":
        return liealg.Subspace(d, ())
    if kind == "full":
        return liealg.full_space(d)
    if kind == "dense":
        return span_of([random_skew(d, rng) for _ in range(rng.integers(1, 4))], d)
    sums = [sum(rng.choice([-2.0, -1.0, -0.5, 0.5, 1.0, 2.0])
                * pauli.word_matrix("".join(rng.choice(list("IXYZ"), n)))
                for _ in range(rng.integers(1, 4))) for _ in range(rng.integers(1, 4))]
    gens = [1j * m for m in sums if np.max(np.abs(m)) > 0]
    if not gens:
        return liealg.Subspace(d, ())
    return liealg.lie_closure(gens) if kind == "closed" else span_of(gens, d)


@settings(deadline=None, max_examples=60)
@given(seed=st.integers(0, 10**6), n=st.integers(1, 3),
       kind=st.sampled_from(["sums", "closed", "dense", "empty", "full"]))
def test_commutant_matches_ad_matrix_oracle(seed, n, kind):
    """Same dims and span as the dense ad-matrix nullspace, also after an
    orthogonal re-basis of the input rows, which moves the generic element."""
    rng = np.random.default_rng(seed)
    t = drawn_subspace(kind, n, rng)
    want = commutant_oracle(t)
    q, _ = np.linalg.qr(rng.standard_normal((t.dim, t.dim)))
    for sub in (t, liealg.Subspace(t.dim_ambient, q @ t.rows)):
        got = liealg.commutant(sub)
        assert got.dim == want.dim
        assert liealg.span_distance(got, want) <= 1e-12


# Differential tests: the row-based projections against the per-element
# trace_inner loops they replaced, kept here as oracles.

def residual_norm_oracle(x, sub):
    r = np.asarray(x, dtype=complex).copy()
    for b in sub.basis:
        r -= trace_inner(b, x) * b
    return float(np.sqrt(abs(trace_inner(r, r))))


def project_onto_oracle(x, sub):
    out = np.zeros_like(np.asarray(x, dtype=complex))
    for b in sub.basis:
        out += trace_inner(b, x) * b
    return out


def complement_within_oracle(sub, inner):
    rows = np.stack([liealg.coords(b, sub.dim_ambient) for b in sub.basis])
    for b in inner.basis:
        r = liealg.coords(b, sub.dim_ambient)
        rows = rows - np.outer(rows @ r, r)
    return liealg.subspace_from_rows(orthonormal_rows(rows), sub.dim_ambient)


def is_subalgebra_oracle(sub, tol=liealg.SUBALGEBRA_TOL):
    for a in range(sub.dim):
        for b in range(a + 1, sub.dim):
            x, y = sub.basis[a], sub.basis[b]
            comm = x @ y - y @ x
            scale = max(1.0, np.sqrt(abs(trace_inner(comm, comm))))
            if residual_norm_oracle(comm, sub) > tol * scale:
                return False
    return True


def random_rows_subspace(d, dim, rng):
    q, _ = np.linalg.qr(rng.standard_normal((d * d, dim)))
    return liealg.subspace_from_rows(q.T, d)


def random_complex(d, rng):
    return rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))


@pytest.mark.parametrize("d", [2, 4, 8])
def test_row_projections_match_trace_inner_loops(d, rng):
    for dim in (1, d * d // 2, d * d - 1):
        sub = random_rows_subspace(d, dim, rng)
        for x in (random_skew(d, rng), random_complex(d, rng)):
            assert abs(liealg.residual_norm(x, sub) - residual_norm_oracle(x, sub)) < 1e-12
            want = project_onto_oracle(x, sub)
            assert np.max(np.abs(liealg.project_onto(x, sub) - want)) < 1e-12
            assert np.max(np.abs(liealg.twirl_project(x, sub) - want)) < 1e-12
            assert sub.contains(want) and not sub.contains(x)
        inner = random_rows_subspace(d, 1, rng)
        outer_rows = orthonormal_rows(np.vstack([sub.rows, inner.rows]))
        outer = liealg.subspace_from_rows(outer_rows, d)
        got = liealg.complement_within(outer, inner)
        want = complement_within_oracle(outer, inner)
        assert got.dim == want.dim == outer.dim - 1
        assert liealg.span_distance(got, want) < 1e-12


@pytest.mark.parametrize("d", [2, 4, 8])
def test_is_subalgebra_matches_trace_inner_loop(d, rng):
    # a generic pair generates all of u(d) or su(d); one generic element's
    # commutant is abelian of dimension d
    closed = [liealg.commutant(liealg.lie_closure([random_skew(d, rng)]))]
    if d < 8:
        closed.append(liealg.lie_closure([random_skew(d, rng) for _ in range(2)]))
    for sub in closed:
        assert liealg.is_subalgebra(sub) and is_subalgebra_oracle(sub)
    for dim in (2, 3, d * d // 2):
        sub = random_rows_subspace(d, dim, rng)
        assert liealg.is_subalgebra(sub) is is_subalgebra_oracle(sub)
    if d == 8:
        for dim in (2, 5, 20, 63):
            sub = random_rows_subspace(d, dim, rng)
            assert not liealg.is_subalgebra(sub)
            assert not is_subalgebra_oracle(sub)


def test_subspace_keeps_validated_matrices_bitwise(rng):
    mats = []  # Gram-Schmidt on matrices, an orthonormal basis built outside liealg
    for _ in range(5):
        r = random_skew(4, rng)
        for b in mats:
            r -= trace_inner(b, r) * b
        mats.append(r / np.sqrt(trace_inner(r, r)))
    sub = liealg.subspace(4, mats)
    assert np.array_equal(sub.basis, np.stack(mats))
    assert not sub.basis.flags.writeable
    assert sub.rows.shape == (5, 16) and sub.dim == 5
    assert np.max(np.abs(sub.rows - liealg.coords(np.stack(mats), 4))) == 0.0


def test_subspace_from_rows_builds_its_basis_once(rng):
    sub = random_rows_subspace(4, 3, rng)
    assert sub.basis is sub.basis
    assert np.array_equal(sub.basis, liealg.from_coords(sub.rows, 4))
    assert len(sub.basis) == 3 and [b.shape for b in sub.basis] == [(4, 4)] * 3
    assert liealg.Subspace(2, ()).basis.shape == (0, 2, 2)
    assert liealg.full_space(2).dim == 4


def test_subspace_validation_names_the_worst_pair():
    nearly_z = (1j * Z + 1e-3j * Y) / np.sqrt(1 + 1e-6)
    with pytest.raises(ContractViolation, match=r"<1,2> = 1\.000e\+00"):
        liealg.subspace(2, [1j * X, 1j * Z, nearly_z])
    with pytest.raises(ValueError):
        liealg.subspace(2, [np.eye(4) * 1j])
