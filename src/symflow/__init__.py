"""Symmetry-aware derivatives of parametrized quantum circuits.

Equivariant and covariant projected derivatives, Lie-algebra
decompositions, tangent-space splits, vector potentials, and the
covariant quantum natural gradient, with exact statevector simulation.
"""
from .circuit import CircuitSpec, ExpectationCost, Gate, SquaredSumCost, rotation
from .liealg import FourDecomposition, Subspace, four_decomposition, lie_closure
from .natgrad import OptTrace, optimize
from .pauli import PauliSum, parse_pauli_sum
from .symgrad import SymGradReport
from .tangent import SymmetrySpec, TangentFrame

__all__ = [
    "CircuitSpec",
    "ExpectationCost",
    "FourDecomposition",
    "Gate",
    "OptTrace",
    "PauliSum",
    "SquaredSumCost",
    "Subspace",
    "SymGradReport",
    "SymmetrySpec",
    "TangentFrame",
    "four_decomposition",
    "lie_closure",
    "optimize",
    "parse_pauli_sum",
    "rotation",
]
