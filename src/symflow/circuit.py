"""Parametrized circuit model and exact statevector simulation.

A circuit is an ordered gate list applied left-to-right in time; gate j
implements exp(i * scale * angle * H) for a Hermitian Pauli-sum generator
H on its wires (scale defaults to -1, so standard rotations use H = P/2
and a global phase gate uses H = -I).  Effective generators, state and
cost partial derivatives, and the circuit's dynamical Lie algebra are
derived from the same model.  :func:`apply_gates` carries states between
any two gate positions; the symmetry acts at one (:func:`action_point`).

The evaluation core is :func:`evaluate`: one pass over the gates carries
psi, every partial d_j psi and the symmetry tangents as one batch of
states, so everything downstream is a matrix product on its result.
The frame of the symmetry tangents comes from one SVD of their real
embedding, cut by the ``nummat`` rank rule: it gives an orthonormal
frame of their span, its rank and the pseudo-inverse of their Gram matrix.
A gate's generator is one cached table of full-register Pauli words P, each a
signed permutation of the amplitudes (:func:`gate_words`): :func:`kappa` applies
kappa = i * scale * H from it, and :func:`apply_gate` a gate whose words commute
as rotations cos a + i sin a P; others take the eigen route (:func:`gate_unitary`).
A cost spec (:class:`ExpectationCost`, :class:`SquaredSumCost`) checks its
observables once, holds their matrices, and maps psi to the cost and its
covector g, dC = 2 Re <g|d psi>.
"""
from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property, lru_cache
from math import cos, sin

import numpy as np

from . import liealg, pauli
from .nummat import embed_real, orthonormal_frame, require_finite, unembed

DENSE_QUBIT_CAP = 10
SPECTRUM_CACHE_SIZE = 256

Statevector = np.ndarray


@dataclass(frozen=True)
class Gate:
    """One gate: exp(i * scale * angle * H) with Hermitian generator H.

    Exactly one of ``param`` (trainable angle index) and ``angle`` (fixed
    angle) must be set.
    """

    generator: pauli.PauliSum
    wires: tuple[int, ...]
    param: int | None = None
    angle: float | None = None
    scale: float = -1.0

    def __post_init__(self):
        object.__setattr__(self, "wires", tuple(self.wires))
        if (self.param is None) == (self.angle is None):
            raise ValueError("gate needs exactly one of param index or fixed angle")
        if len(set(self.wires)) != len(self.wires):
            raise ValueError(f"repeated wires {self.wires}")
        if self.generator.n_qubits != len(self.wires):
            raise ValueError("generator qubit count does not match wires")
        if not self.generator.is_hermitian():
            raise ValueError("gate generator must be Hermitian (real coefficients)")
        require_finite([self.scale, self.angle or 0.0], "gate angle and scale")


@dataclass(frozen=True)
class CircuitSpec:
    """Gate sequence in time order with a fixed trainable-parameter count."""

    n_qubits: int
    gates: tuple[Gate, ...] = field(default_factory=tuple)
    n_params: int = 0

    def __post_init__(self):
        object.__setattr__(self, "gates", tuple(self.gates))
        seen = set()
        for g in self.gates:
            if any(not 0 <= w < self.n_qubits for w in g.wires):
                raise ValueError(f"gate wires {g.wires} out of range")
            if g.param is not None:
                if not 0 <= g.param < self.n_params:
                    raise ValueError(f"param index {g.param} out of range")
                if g.param in seen:
                    raise ValueError(f"parameter {g.param} used by more than one gate")
                seen.add(g.param)

    @property
    def dim(self) -> int:
        return 2**self.n_qubits


def rotation(word: str, wires, param: int | None = None, angle: float | None = None) -> Gate:
    """Standard Pauli rotation exp(-i * theta * P / 2)."""
    wires = tuple(wires)
    return Gate(pauli.parse_pauli_sum(word, len(wires)) * 0.5, wires,
                param=param, angle=angle)


def check_theta(c: CircuitSpec, theta) -> np.ndarray:
    theta = np.atleast_1d(np.asarray(theta, dtype=float))
    if theta.shape != (c.n_params,):
        raise ValueError(f"theta has shape {theta.shape}, expected ({c.n_params},)")
    if not np.all(np.isfinite(theta)):
        raise ValueError("theta entries must be finite")
    return theta


def action_point(c: CircuitSpec, action: str) -> int:
    """Gate position where the symmetry acts: 0 (the input state) under
    ``theta``, len(c.gates) (the output state) under ``left``."""
    if action not in ("left", "theta"):
        raise ValueError(f"action must be 'left' or 'theta', got {action!r}")
    return 0 if action == "theta" else len(c.gates)


def gate_angle(g: Gate, theta: np.ndarray) -> float:
    return float(theta[g.param]) if g.param is not None else float(g.angle)


@lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def generator_spectrum(generator: pauli.PauliSum) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvalues and eigenvectors of a Hermitian gate generator, computed
    once per distinct generator (the cache holds at most
    ``SPECTRUM_CACHE_SIZE`` of them); the arrays are read-only."""
    evals, vecs = np.linalg.eigh(pauli.to_matrix(generator))
    evals.setflags(write=False)
    vecs.setflags(write=False)
    return evals, vecs


def gate_unitary(g: Gate, theta: np.ndarray) -> np.ndarray:
    """Local unitary exp(angle * (i * scale * H)), a phase multiply in the
    cached eigenbasis of H."""
    evals, vecs = generator_spectrum(g.generator)
    phases = np.exp(1j * g.scale * gate_angle(g, theta) * evals)
    return (vecs * phases) @ vecs.conj().T


@lru_cache(maxsize=1024)
def _wire_order(wires: tuple[int, ...], n: int) -> tuple[list[int], list[int]]:
    """Axis order of a (B, 2, ..., 2) batch that puts the gate's wires
    first, and its inverse."""
    axes = [w + 1 for w in wires]
    order = axes + [a for a in range(n + 1) if a not in axes]
    return order, [order.index(a) for a in range(n + 1)]


def apply_local(state: Statevector, mat: np.ndarray, wires, n: int) -> Statevector:
    """Apply a 2^k x 2^k operator to the given wires of an n-qubit state,
    or of every row of a (B, 2^n) batch of states, in one matrix product."""
    psi = np.asarray(state, dtype=complex)
    order, inverse = _wire_order(tuple(wires), n)
    t = psi.reshape(-1, *(2,) * n).transpose(order)
    t = (mat @ t.reshape(len(mat), -1)).reshape(t.shape)
    return t.transpose(inverse).reshape(psi.shape)


@lru_cache(maxsize=SPECTRUM_CACHE_SIZE)
def gate_words(generator: pauli.PauliSum, wires: tuple[int, ...], n: int):
    """(word, h_w, src, phase) per full-register word of sum_w h_w P_w; whether all commute."""
    terms = pauli.embed(generator, wires, n).terms
    return (tuple((w, h.real, *pauli.word_action(w)) for w, h in terms),
            pauli.commuting([w for w, _ in terms]))


def apply_gate(psi: Statevector, g: Gate, theta, n: int, undone: bool = False) -> Statevector:
    """Gate g, or its inverse if ``undone``, on an n-qubit state or (B, 2^n) batch:
    prod_w exp(i scale angle h_w P_w), one gather per commuting word; else eigen route."""
    words, commuting = gate_words(g.generator, g.wires, n)
    if not commuting:
        u = gate_unitary(g, theta)
        return apply_local(psi, u.conj().T if undone else u, g.wires, n)
    angle = g.scale * gate_angle(g, theta) * (-1.0 if undone else 1.0)
    for _, h, src, phase in words:
        psi = cos(angle * h) * psi + (1j * sin(angle * h) * phase) * psi.take(src, axis=-1)
    return psi


def kappa(psi: Statevector, g: Gate, n: int) -> Statevector:
    """kappa psi = i scale sum_w h_w P_w psi on an n-qubit state or (B, 2^n)
    batch, one gather per word of the gate's table."""
    out = np.zeros(np.shape(psi), dtype=complex)
    for _, h, src, phase in gate_words(g.generator, g.wires, n)[0]:
        out += (1j * g.scale * h * phase) * psi.take(src, axis=-1)
    return out


def _check_states(c: CircuitSpec, states) -> np.ndarray:
    psi = require_finite(states, "state")
    if psi.ndim not in (1, 2) or psi.shape[-1] != c.dim:
        raise ValueError(f"state has shape {psi.shape}, expected ({c.dim},) or (B, {c.dim})")
    return psi


def segment(c: CircuitSpec, start: int, stop: int) -> list[tuple[Gate, bool]]:
    """The gates that carry a state from gate position start to stop, each
    with whether it is undone: gates[stop:start] reversed if stop < start."""
    if not 0 <= min(start, stop) <= max(start, stop) <= len(c.gates):
        raise ValueError(f"gate positions {start}, {stop} outside 0..{len(c.gates)}")
    if stop < start:
        return [(g, True) for g in reversed(c.gates[stop:start])]
    return [(g, False) for g in c.gates[start:stop]]


def apply_gates(c: CircuitSpec, theta, psi0: Statevector, start: int = 0,
                stop: int | None = None) -> Statevector:
    """Carry a state or a (B, d) batch of states from gate position start to
    stop (default: the end), backwards when stop < start."""
    theta = check_theta(c, theta)
    psi = _check_states(c, psi0)
    for g, undone in segment(c, start, len(c.gates) if stop is None else stop):
        psi = apply_gate(psi, g, theta, c.n_qubits, undone)
    return psi


def apply(c: CircuitSpec, theta, psi0: Statevector) -> Statevector:
    return apply_gates(c, theta, psi0)


def build_unitary(c: CircuitSpec, theta) -> np.ndarray:
    """Full dense circuit unitary (capped at 10 qubits): the circuit applied
    to every basis state in one batch."""
    if c.n_qubits > DENSE_QUBIT_CAP:
        raise ValueError(f"dense build capped at {DENSE_QUBIT_CAP} qubits")
    return apply(c, theta, np.eye(c.dim, dtype=complex)).T


def _gate_index(c: CircuitSpec, j) -> int | None:
    """Position of the gate that parameter j drives, None if it drives none;
    ValueError unless j is an integer in 0..n_params-1."""
    if isinstance(j, bool) or not isinstance(j, (int, np.integer)) or not 0 <= j < c.n_params:
        raise ValueError(f"parameter index {j!r} is not an integer in 0..{c.n_params - 1}")
    return next((k for k, g in enumerate(c.gates) if g.param == j), None)


def effective_generator(c: CircuitSpec, theta, j: int, side: str = "right") -> np.ndarray:
    """Skew-Hermitian generator of the parameter-j direction of change,
    pulled to the right (U^dag dU) or left ((dU) U^dag) of the circuit: its
    columns are the basis states carried from that end to the gate, hit by
    kappa and carried back (zero if j drives no gate)."""
    ends = {"right": 0, "left": len(c.gates)}
    if side not in ends:
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    theta, k = check_theta(c, theta), _gate_index(c, j)
    if k is None:
        return np.zeros((c.dim, c.dim), dtype=complex)
    rows = apply_gates(c, theta, np.eye(c.dim, dtype=complex), ends[side], k)
    return apply_gates(c, theta, kappa(rows, c.gates[k], c.n_qubits), k, ends[side]).T


def state_partial(c: CircuitSpec, theta, j: int, psi0: Statevector) -> Statevector:
    """Tangent vector d|psi(theta)>/d theta_j (zero if j drives no gate).

    One re-simulation per parameter; :func:`evaluate` gets every partial
    from a single sweep.  Kept as the independent reference.
    """
    theta, k, psi0 = check_theta(c, theta), _gate_index(c, j), _check_states(c, psi0)
    if k is None:
        return np.zeros(psi0.shape, dtype=complex)
    psi = kappa(apply_gates(c, theta, psi0, 0, k), c.gates[k], c.n_qubits)
    return apply_gates(c, theta, psi, k)


@dataclass(frozen=True, eq=False)
class TangentFrame:
    """Raw symmetry tangents (rows), their Gram matrix, and what one SVD of
    their real embedding gives: an orthonormal frame ``onb = coeffs @ raw``
    of their span (rows), its ``rank``, and the Gram pseudo-inverse
    ``coeffs.T @ coeffs``."""

    raw: np.ndarray
    gram: np.ndarray
    coeffs: np.ndarray
    onb: np.ndarray
    rank: int

    @property
    def gram_pinv(self) -> np.ndarray:
        """G^+ under the frame's rank cut."""
        return self.coeffs.T @ self.coeffs

    @property
    def cond(self) -> float:
        """Largest over smallest kept singular value of the embedded raw
        tangents (1.0 at rank 0): row i of coeffs has norm 1 / s_i."""
        norms = np.linalg.norm(self.coeffs, axis=1)
        return float(norms.max() / norms.min()) if self.rank else 1.0


@dataclass(frozen=True, eq=False)
class Evaluation:
    """One sweep's output at (circuit, theta, psi0, symmetry generators):
    the state psi, the partials d_j psi as rows (zero for a parameter that
    drives no gate), and the frame of the symmetry tangents at psi."""

    psi: np.ndarray
    partials: np.ndarray
    frame: TangentFrame

    def gradient(self, covector: np.ndarray) -> np.ndarray:
        """2 Re <covector|d_j psi> for every j: the gradient of a cost whose
        differential is dC = 2 Re <covector|d psi> (covector = M psi for
        the expectation of M)."""
        return 2.0 * np.real(self.partials.conj() @ covector)


def evaluate(c: CircuitSpec, theta, psi0: Statevector, generators=(),
             action: str = "left") -> Evaluation:
    """psi, all partials and the symmetry frame from one pass over the gates.

    The batch starts as psi0 (plus z_b psi0 for each generator z_b under
    the ``theta`` action); at each trainable gate the row kappa psi joins
    it, and every gate acts on the whole batch.  Since kappa commutes with
    its own gate, the row is exactly d_j psi once the pass ends.  Under
    the ``left`` action the tangents are z_b psi at the output state.
    """
    action_point(c, action)  # rejects an unknown action
    theta = check_theta(c, theta)
    psi0 = _check_states(c, psi0)
    if psi0.ndim != 1:
        raise ValueError(f"psi0 has shape {psi0.shape}, expected ({c.dim},)")
    z = np.asarray(generators, dtype=complex)
    if z.size and z.shape[1:] != (c.dim, c.dim):
        raise ValueError("symmetry generators do not match the state dimension")
    z = z.reshape(-1, c.dim, c.dim)
    order = [g.param for g in c.gates if g.param is not None]
    at_action = z @ psi0 if action == "theta" else np.zeros((0, c.dim), dtype=complex)
    carried = 1 + len(at_action)
    batch = np.empty((carried + len(order), c.dim), dtype=complex)
    batch[0] = psi0
    batch[1:carried] = at_action
    live = carried
    for g in c.gates:
        batch[:live] = apply_gate(batch[:live], g, theta, c.n_qubits)
        if g.param is not None:
            batch[live] = kappa(batch[0], g, c.n_qubits)
            live += 1
    psi = batch[0]
    partials = np.zeros((c.n_params, c.dim), dtype=complex)
    partials[order] = batch[carried:]
    frame = _frame(batch[1:carried] if action == "theta" else z @ psi)
    return Evaluation(psi, partials, frame)


def _frame(raw: np.ndarray) -> TangentFrame:
    """Frame of the tangents ``raw`` from one SVD of their real embedding:
    its right singular vectors are the orthonormal rows coeffs @ raw, so
    a direction counts when its singular value passes the rank rule."""
    rows, coeffs = orthonormal_frame(embed_real(raw))
    return TangentFrame(raw, np.real(raw.conj() @ raw.T), coeffs, unembed(rows), len(rows))


class _ObservableCost:
    """Shared part of the cost specs: the observables are checked once, at
    construction, and their dense matrices are built once, on first use."""

    def __post_init__(self):
        if not all(m.is_hermitian() for m in self.observables):
            raise ValueError("observable must be Hermitian")

    @cached_property
    def matrices(self) -> tuple[np.ndarray, ...]:
        return tuple(pauli.to_matrix(m) for m in self.observables)


@dataclass(frozen=True)
class ExpectationCost(_ObservableCost):
    """C(theta) = <psi(theta)| M |psi(theta)> for a Hermitian observable M."""

    observable: pauli.PauliSum

    @property
    def observables(self) -> tuple[pauli.PauliSum, ...]:
        return (self.observable,)

    def value_and_covector(self, psi: np.ndarray) -> tuple[float, np.ndarray]:
        """C at psi and the covector g = M psi, dC = 2 Re <g|d psi>."""
        m_psi = self.matrices[0] @ psi
        return float(np.real(np.vdot(psi, m_psi))), m_psi


@dataclass(frozen=True)
class SquaredSumCost(_ObservableCost):
    """C(theta) = sum_M <psi(theta)| M |psi(theta)>^2."""

    observables: tuple[pauli.PauliSum, ...]

    def value_and_covector(self, psi: np.ndarray) -> tuple[float, np.ndarray]:
        """C at psi and the covector g = sum_M 2 <M> M psi, dC = 2 Re <g|d psi>."""
        m_psis = [mat @ psi for mat in self.matrices]
        values = [float(np.real(np.vdot(psi, m_psi))) for m_psi in m_psis]
        return float(sum(v**2 for v in values)), sum(2.0 * v * g for v, g in zip(values, m_psis))


CostSpec = ExpectationCost | SquaredSumCost


def as_cost(m: CostSpec | pauli.PauliSum) -> CostSpec:
    """A cost spec, or the expectation of a bare Hermitian Pauli sum."""
    return ExpectationCost(m) if isinstance(m, pauli.PauliSum) else m


def cost(c: CircuitSpec, theta, psi0: Statevector, m: CostSpec | pauli.PauliSum) -> float:
    """The cost at psi(theta); a bare Pauli sum M is the expectation <M>."""
    return as_cost(m).value_and_covector(apply(c, theta, psi0))[0]


def cost_partial(c: CircuitSpec, theta, j: int, psi0: Statevector,
                 m: CostSpec | pauli.PauliSum) -> float:
    """d C / d theta_j, entry j of :func:`cost_gradient`."""
    _gate_index(c, j)  # ValueError unless j is an integer in 0..p-1
    return float(cost_gradient(c, theta, psi0, m)[j])


def cost_gradient(c: CircuitSpec, theta, psi0: Statevector,
                  m: CostSpec | pauli.PauliSum) -> np.ndarray:
    """All d C / d theta_j = 2 Re <g|d_j psi> from one sweep, g the cost's
    covector (M psi for the expectation of M)."""
    ev = evaluate(c, theta, psi0)
    return ev.gradient(as_cost(m).value_and_covector(ev.psi)[1])


def dla(c: CircuitSpec) -> liealg.Subspace:
    """Dynamical Lie algebra: the closure of the embedded gate generators."""
    n = c.n_qubits
    return liealg.lie_closure([1j * g.scale * pauli.to_matrix(pauli.embed(g.generator, g.wires, n))
                               for g in c.gates])


def basis_state(label: str) -> Statevector:
    """Computational basis state from a bit string, qubit 0 leftmost."""
    if not label or any(ch not in "01" for ch in label):
        raise ValueError(f"bad basis-state label {label!r}")
    n = len(label)
    psi = np.zeros(2**n, dtype=complex)
    psi[int(label, 2)] = 1.0
    return psi


def random_product_state(n: int, seed: int) -> Statevector:
    """Seeded random product state; deterministic for a given seed."""
    rng = np.random.default_rng(seed)
    psi = np.ones(1, dtype=complex)
    for _ in range(n):
        amp = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        psi = np.kron(psi, amp / np.linalg.norm(amp))
    return psi
