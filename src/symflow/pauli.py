"""Pauli-word sums: parsing, formatting, matrix construction and trace
projection.  The projection of a skew-Hermitian z, :func:`pauli_decompose`,
is its unitary decomposition z = sum_l chi_l w_l into Pauli words w_l with
imaginary chi_l = tr(w_l z) / d.

Text grammar: ``term (("+"|"-") term)*`` with ``term = [coeff ("*")?] word``,
``coeff`` a real literal optionally suffixed by ``i``/``j`` (bare ``i``
means ``1i``), and ``word`` a string over ``{I, X, Y, Z}``.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache, reduce

import numpy as np

from .nummat import require_finite

COEFF_PRUNE_TOL = 1e-12

PAULI_1Q = {
    "I": np.eye(2, dtype=complex),
    "X": np.array([[0, 1], [1, 0]], dtype=complex),
    "Y": np.array([[0, -1j], [1j, 0]], dtype=complex),
    "Z": np.array([[1, 0], [0, -1]], dtype=complex),
}


@dataclass(frozen=True)
class PauliSum:
    """Linear combination of Pauli words, canonically ordered and pruned."""

    n_qubits: int
    terms: tuple[tuple[str, complex], ...]

    def coeffs(self) -> dict[str, complex]:
        return dict(self.terms)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits

    def is_hermitian(self) -> bool:
        return all(abs(c.imag) <= COEFF_PRUNE_TOL for _, c in self.terms)

    def is_skew_hermitian(self) -> bool:
        return all(abs(c.real) <= COEFF_PRUNE_TOL for _, c in self.terms)

    def __mul__(self, scalar: complex) -> "PauliSum":
        return pauli_sum(self.n_qubits, {w: scalar * c for w, c in self.terms})

    __rmul__ = __mul__

    def __str__(self) -> str:
        return format_pauli_sum(self)


def pauli_sum(n_qubits: int, coeffs: dict[str, complex]) -> PauliSum:
    """Canonical constructor: validates words, merges, prunes, sorts."""
    if n_qubits < 1:
        raise ValueError("n_qubits must be positive")
    clean: dict[str, complex] = {}
    for word, c in coeffs.items():
        if len(word) != n_qubits or any(ch not in "IXYZ" for ch in word):
            raise ValueError(f"bad Pauli word {word!r} for {n_qubits} qubit(s)")
        clean[word] = clean.get(word, 0.0) + complex(c)
    require_finite(list(clean.values()), "Pauli coefficients")
    terms = tuple(
        (w, clean[w]) for w in sorted(clean) if abs(clean[w]) > COEFF_PRUNE_TOL
    )
    return PauliSum(n_qubits, terms)


_SIGN_SPLIT = re.compile(r"(?<![eE])([+-])")


def _parse_coeff(text: str) -> complex:
    text = text.strip()
    imaginary = text.endswith(("i", "j"))
    body = text[:-1].strip() if imaginary else text
    value = float(body) if body else 1.0
    if not np.isfinite(value):
        raise ValueError(f"coefficient {text!r} is not finite")
    return 1j * value if imaginary else complex(value)


def parse_pauli_sum(text: str, n_qubits: int) -> PauliSum:
    """Parse the +/- separated Pauli-sum grammar, e.g. ``"0.5*XY - ZI"``."""
    stripped = text.strip()
    if not stripped:
        raise ValueError("empty Pauli-sum string")
    pieces = _SIGN_SPLIT.split(stripped)
    # pieces = [term, sign, term, ...]; a leading sign leaves an empty first term
    signed = list(zip(["+"] + pieces[1::2], pieces[0::2]))[0 if pieces[0] else 1:]
    coeffs: dict[str, complex] = {}
    for sign, piece in signed:
        piece = piece.strip()
        m = re.fullmatch(r"(.*?)\*?\s*([IXYZ]+)", piece)
        if m is None:
            raise ValueError(f"malformed Pauli term {piece!r}")
        head, word = m.group(1).strip(), m.group(2)
        if len(word) != n_qubits:
            raise ValueError(
                f"word {word!r} has length {len(word)}, expected {n_qubits}"
            )
        try:
            coeff = _parse_coeff(head)
        except ValueError as exc:
            raise ValueError(f"bad coefficient {head!r} in term {piece!r}") from exc
        coeffs[word] = coeffs.get(word, 0.0) + (-coeff if sign == "-" else coeff)
    return pauli_sum(n_qubits, coeffs)


def format_pauli_sum(p: PauliSum) -> str:
    """Inverse of :func:`parse_pauli_sum` for real/imaginary coefficients;
    the empty sum prints as ``0*I...I``."""
    if not p.terms:
        return "0*" + "I" * p.n_qubits
    out = []
    for word, c in p.terms:
        if abs(c.imag) <= COEFF_PRUNE_TOL:
            value, suffix = c.real, ""
        elif abs(c.real) <= COEFF_PRUNE_TOL:
            value, suffix = c.imag, "i"
        else:
            raise ValueError(f"coefficient {c} is neither real nor purely imaginary")
        mag = ("" if abs(value) == 1.0 else repr(abs(value))) + suffix
        out += [" - " if value < 0 else " + ", f"{mag}*{word}" if mag else word]
    out[0] = out[0].strip(" +")  # the leading joiner becomes "-" or nothing
    return "".join(out)


@lru_cache(maxsize=4096)
def word_matrix(word: str) -> np.ndarray:
    mat = reduce(np.kron, (PAULI_1Q[ch] for ch in word))
    mat.setflags(write=False)
    return mat


@lru_cache(maxsize=4096)
def word_action(word: str) -> tuple[np.ndarray, np.ndarray]:
    """A Pauli word P as a signed permutation (src, phase), qubit 0 the leading
    bit: P v = ``phase * v[..., src]``; a Pauli's row sums are its nonzeros."""
    src = np.arange(2 ** len(word)) ^ int("".join("01"[ch in "XY"] for ch in word), 2)
    phase = reduce(np.kron, (PAULI_1Q[ch].sum(axis=1) for ch in word))
    src.setflags(write=False)
    phase.setflags(write=False)
    return src, phase


def commuting(words) -> bool:
    """Whether Pauli words commute pairwise: an even count of differing non-I letters."""
    return not any(sum("I" != x != y != "I" for x, y in zip(a, b)) % 2
                   for i, a in enumerate(words) for b in words[:i])


def to_matrix(p: PauliSum) -> np.ndarray:
    d = p.dim
    out = np.zeros((d, d), dtype=complex)
    for word, c in p.terms:
        out += c * word_matrix(word)
    return out


@lru_cache(maxsize=8)
def all_words(n_qubits: int) -> tuple[str, ...]:
    words = [""]
    for _ in range(n_qubits):
        words = [w + ch for w in words for ch in "IXYZ"]
    return tuple(sorted(words))


def qubit_count(d: int) -> int:
    """n for d = 2**n (n >= 1); ValueError for any other dimension."""
    n = int(d).bit_length() - 1
    if n < 1 or 2**n != d:
        raise ValueError(f"dimension {d} is not a power of 2")
    return n


# One qubit's entry pair (i, j), flattened as 2*i + j, to its Pauli letter
# s in IXYZ order: tr(s m)/2 = sum_ij s[j, i] m[i, j] / 2; and back.
_PAIR_TO_LETTER = np.stack([PAULI_1Q[ch].T.ravel() for ch in "IXYZ"]) / 2
_LETTER_TO_PAIR = np.stack([PAULI_1Q[ch].ravel() for ch in "IXYZ"], axis=1)


def _per_qubit(single: np.ndarray, x: np.ndarray, n: int) -> np.ndarray:
    """Apply a 4x4 map to every base-4 digit of the leading axis of x,
    shape (4**n, B) -> (B, 4**n).  Each pass maps the leading digit and
    rotates it behind the others, so after n passes the digits are back
    in order with the batch axis in front."""
    for _ in range(n):
        x = (single @ x.reshape(4, -1)).T
    return x.reshape(-1, 4**n)


def pauli_transform(m) -> np.ndarray:
    """tr(P m) / d for every word P in ``all_words`` order, in O(n d^2).

    Takes a d x d matrix or any stack of them, shape (..., d, d), and
    returns shape (..., d*d); d must be 2**n.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    lead, d = m.shape[:-2], m.shape[-1]
    n = qubit_count(d)
    # (batch, i_0..i_{n-1}, j_0..j_{n-1}) -> (i_0, j_0, ..., i_{n-1}, j_{n-1}, batch)
    order = [a for k in range(n) for a in (1 + k, 1 + n + k)] + [0]
    x = m.reshape(-1, *(2,) * (2 * n)).transpose(order).reshape(d * d, -1)
    return _per_qubit(_PAIR_TO_LETTER, x, n).reshape(*lead, d * d)


def inverse_pauli_transform(c) -> np.ndarray:
    """sum_P c_P P for coefficients in ``all_words`` order: shape
    (..., d*d) -> (..., d, d), the inverse of :func:`pauli_transform`."""
    c = np.asarray(c)
    lead, size = c.shape[:-1], c.shape[-1]
    n = (size.bit_length() - 1) // 2
    if n < 1 or 4**n != size:
        raise ValueError(f"{size} coefficients is not 4**n for n >= 1")
    x = _per_qubit(_LETTER_TO_PAIR, c.reshape(-1, size).T, n)
    # (batch, i_0, j_0, ..., i_{n-1}, j_{n-1}) -> (batch, i_0..i_{n-1}, j_0..j_{n-1})
    order = [0] + [1 + 2 * k for k in range(n)] + [2 + 2 * k for k in range(n)]
    d = 2**n
    return x.reshape(-1, *(2,) * (2 * n)).transpose(order).reshape(*lead, d, d)


def pauli_decompose(m) -> PauliSum:
    """Project a matrix onto Pauli words: coeff(P) = tr(P m) / d."""
    m = require_finite(m)
    if m.ndim != 2:
        raise ValueError(f"expected a square matrix, got {m.shape}")
    coeffs = pauli_transform(m)
    n = qubit_count(m.shape[0])
    words = all_words(n)
    # all_words is sorted, so this is the canonical, pruned term order
    kept = np.flatnonzero(np.abs(coeffs) > COEFF_PRUNE_TOL)
    return PauliSum(n, tuple((words[a], complex(coeffs[a])) for a in kept))


def embed(p: PauliSum, wires, n_qubits: int) -> PauliSum:
    """Place a local Pauli sum on the given wires of a larger register."""
    wires = tuple(wires)
    if len(wires) != p.n_qubits:
        raise ValueError("wire count does not match the local qubit count")
    if len(set(wires)) != len(wires) or any(not 0 <= w < n_qubits for w in wires):
        raise ValueError(f"bad wires {wires} for {n_qubits} qubit(s)")
    coeffs = {}
    for word, c in p.terms:
        full = ["I"] * n_qubits
        for ch, w in zip(word, wires):
            full[w] = ch
        coeffs["".join(full)] = c
    return pauli_sum(n_qubits, coeffs) if coeffs else PauliSum(n_qubits, ())
