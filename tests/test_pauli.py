from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from symflow import pauli


PAULI = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


def kron_oracle(word: str) -> np.ndarray:
    return reduce(np.kron, (PAULI[ch] for ch in word))


def test_parse_single_letters():
    assert np.allclose(pauli.to_matrix(pauli.parse_pauli_sum("Z", 1)), np.diag([1, -1]))
    assert np.allclose(pauli.to_matrix(pauli.parse_pauli_sum("I", 1)), np.eye(2))


def test_parse_two_qubit_sum_kron_oracle():
    got = pauli.to_matrix(pauli.parse_pauli_sum("XX - YY", 2))
    assert np.allclose(got, kron_oracle("XX") - kron_oracle("YY"), atol=1e-14)


def test_parse_coefficients():
    p = pauli.parse_pauli_sum("0.5*XY - ZI + 2i*YY", 2)
    c = p.coeffs()
    assert c["XY"] == pytest.approx(0.5)
    assert c["ZI"] == pytest.approx(-1.0)
    assert c["YY"] == pytest.approx(2j)
    q = pauli.parse_pauli_sum("-i*Z + 1.5e-2*X", 1)
    assert q.coeffs()["Z"] == pytest.approx(-1j)
    assert q.coeffs()["X"] == pytest.approx(0.015)
    # a sign after an exponent marker is part of the literal, not a separator
    assert pauli.parse_pauli_sum("1e-3*X - 2.5E+1i*Z", 1).terms == (("X", 0.001), ("Z", -25j))


def test_parse_errors():
    with pytest.raises(ValueError):
        pauli.parse_pauli_sum("XQ", 2)
    with pytest.raises(ValueError):
        pauli.parse_pauli_sum("XX", 3)
    with pytest.raises(ValueError):
        pauli.parse_pauli_sum("foo*XX", 2)
    with pytest.raises(ValueError):
        pauli.parse_pauli_sum("", 1)


@pytest.mark.parametrize("text, n, message", [
    ("X +", 1, "malformed Pauli term ''"),
    ("--X", 1, "malformed Pauli term ''"),
    ("+", 1, "malformed Pauli term ''"),
    ("2 X Y", 2, "word 'Y' has length 1, expected 2"),
    ("2 X Y", 1, "bad coefficient '2 X' in term '2 X Y'"),
    ("infX", 1, "bad coefficient 'inf' in term 'infX'"),
])
def test_parse_error_messages(text, n, message):
    with pytest.raises(ValueError) as exc:
        pauli.parse_pauli_sum(text, n)
    assert str(exc.value) == message


@pytest.mark.parametrize("coeffs, n, text", [
    ({"X": 1, "Y": -1, "Z": 1j}, 1, "X - Y + i*Z"),
    ({"XX": -1j, "YY": -1}, 2, "-i*XX - YY"),
    ({"X": 1e300, "Y": -0.5j}, 1, "1e+300*X - 0.5i*Y"),
    ({"Z": complex(0.5 * pauli.COEFF_PRUNE_TOL, -2.0)}, 1, "-2.0i*Z"),  # real part below the cut
    ({}, 2, "0*II"),
])
def test_format_pins(coeffs, n, text):
    assert pauli.format_pauli_sum(pauli.pauli_sum(n, coeffs)) == text


def test_format_rejects_mixed_coefficient():
    with pytest.raises(ValueError) as exc:
        pauli.format_pauli_sum(pauli.pauli_sum(1, {"X": 1 + 1j}))
    assert str(exc.value) == "coefficient (1+1j) is neither real nor purely imaginary"


def test_zero_sum_matrix():
    p = pauli.parse_pauli_sum("0*XX", 2)
    assert p.terms == ()
    assert np.allclose(pauli.to_matrix(p), np.zeros((4, 4)))


def test_swap_from_pauli_combination():
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    p = pauli.parse_pauli_sum("0.5*II + 0.5*XX + 0.5*YY + 0.5*ZZ", 2)
    assert np.allclose(pauli.to_matrix(p), swap, atol=1e-14)
    back = pauli.pauli_decompose(swap)
    assert set(back.coeffs()) == {"II", "XX", "YY", "ZZ"}
    assert all(c == pytest.approx(0.5) for c in back.coeffs().values())


def test_decompose_identity():
    p = pauli.pauli_decompose(np.eye(2))
    assert p.terms == (("I", 1.0 + 0.0j),)


def test_decompose_random_hermitian_real_coeffs(rng):
    a = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (a + a.conj().T) / 2
    p = pauli.pauli_decompose(h)
    assert all(abs(c.imag) < 1e-12 for c in p.coeffs().values())
    assert np.allclose(pauli.to_matrix(p), h, atol=1e-12)


def test_decompose_rejects_bad_dimension():
    for call in (
        lambda: pauli.pauli_decompose(np.eye(3)),
        lambda: pauli.pauli_decompose(np.eye(1)),
        lambda: pauli.pauli_transform(np.eye(6)),
        lambda: pauli.pauli_transform(np.ones((2, 4))),
        lambda: pauli.inverse_pauli_transform(np.ones(8)),
        lambda: pauli.inverse_pauli_transform(np.ones(1)),
    ):
        with pytest.raises(ValueError):
            call()


def word_loop_oracle(m) -> np.ndarray:
    """tr(P m)/d one Kronecker-built word at a time, in all_words order."""
    m = np.asarray(m, dtype=complex)
    d = m.shape[-1]
    words = pauli.all_words(d.bit_length() - 1)
    return np.stack([np.einsum("ji,...ij->...", kron_oracle(w), m) / d for w in words],
                    axis=-1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_pauli_transform_matches_word_loop(n):
    rng = np.random.default_rng(100 + n)
    d = 2**n
    single = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    stack = rng.standard_normal((2, 3, d, d)) + 1j * rng.standard_normal((2, 3, d, d))
    for m in (single, stack):
        coeffs = pauli.pauli_transform(m)
        assert coeffs.shape == m.shape[:-2] + (d * d,)
        assert np.max(np.abs(coeffs - word_loop_oracle(m))) < 1e-12
        assert np.max(np.abs(pauli.inverse_pauli_transform(coeffs) - m)) < 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_pauli_decompose_word_set_matches_word_loop(n):
    rng = np.random.default_rng(200 + n)
    d = 2**n
    words = pauli.all_words(n)
    sparse = {w: float(rng.standard_normal()) for w in rng.choice(words, size=min(5, d))}
    # entries far below the prune threshold, which both routes must drop
    m = pauli.to_matrix(pauli.pauli_sum(n, sparse)) + 1e-15 * rng.standard_normal((d, d))
    got = pauli.pauli_decompose(m).coeffs()
    oracle = word_loop_oracle(m)
    want = {w: c for w, c in zip(words, oracle) if abs(c) > pauli.COEFF_PRUNE_TOL}
    assert set(got) == set(want) == set(sparse)
    assert all(abs(got[w] - want[w]) < 1e-12 for w in want)


@st.composite
def pauli_sums(draw):
    n = draw(st.integers(1, 3))
    n_terms = draw(st.integers(1, 4))
    coeffs = {}
    for _ in range(n_terms):
        word = "".join(draw(st.sampled_from("IXYZ")) for _ in range(n))
        # exactly 1.0 prints with no magnitude: "X", "-X", "i*X"
        mag = draw(st.one_of(st.just(1.0), st.floats(0.01, 10.0, allow_nan=False)))
        sign = draw(st.sampled_from([1.0, -1.0]))
        kind = draw(st.sampled_from(["real", "imag"]))
        coeffs[word] = sign * mag * (1j if kind == "imag" else 1.0)
    return pauli.pauli_sum(n, coeffs)


@settings(deadline=None, max_examples=50)
@given(p=pauli_sums())
def test_parse_format_round_trip(p):
    back = pauli.parse_pauli_sum(pauli.format_pauli_sum(p), p.n_qubits)
    assert [w for w, _ in back.terms] == [w for w, _ in p.terms]
    for (_, a), (_, b) in zip(back.terms, p.terms):
        assert abs(a - b) < 1e-12


@settings(deadline=None, max_examples=30)
@given(p=pauli_sums())
def test_decompose_matrix_round_trip(p):
    back = pauli.pauli_decompose(pauli.to_matrix(p))
    assert np.allclose(pauli.to_matrix(back), pauli.to_matrix(p), atol=1e-12)


def test_unitary_decomposition_single_word():
    """A skew-Hermitian operator's Pauli sum is its unitary decomposition."""
    assert pauli.pauli_decompose(1j * PAULI["Z"]).terms == (("Z", 1j),)


def test_unitary_decomposition_two_terms():
    z = 1j * (PAULI["X"] + PAULI["Z"]) / np.sqrt(2)
    dec = pauli.pauli_decompose(z)
    assert len(dec.terms) == 2
    assert all(abs(abs(chi) - 1 / np.sqrt(2)) < 1e-12 for _, chi in dec.terms)
    assert np.allclose(pauli.to_matrix(dec), z, atol=1e-12)


def test_unitary_decomposition_swap():
    swap = pauli.to_matrix(pauli.parse_pauli_sum("0.5*II+0.5*XX+0.5*YY+0.5*ZZ", 2))
    dec = pauli.pauli_decompose(1j * swap)
    assert len(dec.terms) == 4
    assert all(chi == pytest.approx(0.5j) for _, chi in dec.terms)


def test_unitary_decomposition_terms_unitary_orthogonal(rng):
    z = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    z = (z - z.conj().T) / 2
    dec = pauli.pauli_decompose(z)
    assert dec.is_skew_hermitian()
    mats = [pauli.word_matrix(w) for w, _ in dec.terms]
    for m in mats:
        assert np.allclose(m.conj().T @ m, np.eye(4), atol=1e-14)
    for a in range(len(mats)):
        for b in range(a + 1, len(mats)):
            assert abs(np.trace(mats[a].conj().T @ mats[b])) < 1e-12
    assert np.allclose(pauli.to_matrix(dec), z, atol=1e-12)


def test_embed():
    p = pauli.parse_pauli_sum("0.5*XY", 2)
    e = pauli.embed(p, (2, 0), 3)
    assert e.coeffs() == {"YIX": 0.5}
    with pytest.raises(ValueError):
        pauli.embed(p, (0,), 3)
