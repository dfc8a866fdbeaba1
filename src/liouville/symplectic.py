"""Weighted symplectic structure, Poisson brackets, and Hamiltonian fields.

The bracket convention used throughout the library is

    {F, G} = sum_j (1/xi_j) (dF/dp_j dG/dq_j - dF/dq_j dG/dp_j)

for weights xi_1..xi_n, so {q_i, p_j} = -delta_ij / xi_i and the flow of a
Hamiltonian H is dq_j/dt = (1/xi_j) dH/dp_j, dp_j/dt = -(1/xi_j) dH/dq_j.
Unit weights recover the canonical equations of motion.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

from .expr import BinOp, Const, Expr, Neg, _chain, _simplify, gradient, simplify

__all__ = [
    "SymplecticStructure", "VectorFieldExpr",
    "poisson_bracket", "hamiltonian_vector_field",
]


@dataclass(frozen=True)
class SymplecticStructure:
    """Phase space T*R^n with weights xi_j (xi_j and 1/xi_j finite)."""

    n: int
    weights: tuple[float, ...]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError("dimension must be at least 1")
        object.__setattr__(self, "weights", tuple(float(w) for w in self.weights))
        if len(self.weights) != self.n:
            raise ValueError(f"expected {self.n} weights, got {len(self.weights)}")
        if any(w == 0.0 for w in self.weights):
            raise ValueError("weights must be nonzero")
        if not all(math.isfinite(w) for w in self.weights):
            raise ValueError(f"weights must be finite, got {self.weights}")
        if not all(math.isfinite(1.0 / w) for w in self.weights):
            raise ValueError(f"weights must have finite reciprocals, got "
                             f"{self.weights}")

    @classmethod
    def canonical(cls, n: int) -> "SymplecticStructure":
        return cls(n, (1.0,) * n)

    @property
    def coordinates(self) -> tuple[str, ...]:
        """Symbol names in state order: q1..qn, p1..pn."""
        return tuple(f"q{j}" for j in range(1, self.n + 1)) + \
            tuple(f"p{j}" for j in range(1, self.n + 1))


@dataclass(frozen=True)
class VectorFieldExpr:
    """Symbolic Hamiltonian vector field: component expressions for (dq, dp)."""

    structure: SymplecticStructure
    dq: tuple[Expr, ...]
    dp: tuple[Expr, ...]

    def __post_init__(self):
        if len(self.dq) != self.structure.n or len(self.dp) != self.structure.n:
            raise ValueError("component count must match the structure dimension")


def poisson_bracket(f: Expr, g: Expr, structure: SymplecticStructure) -> Expr:
    """Simplified expression for {f, g} under the structure's weights."""
    n = structure.n
    df = gradient(f, structure.coordinates)
    dg = gradient(g, structure.coordinates)
    terms = []
    for w, df_dq, df_dp, dg_dq, dg_dp in zip(structure.weights, df[:n], df[n:],
                                             dg[:n], dg[n:]):
        term = simplify(BinOp("-", BinOp("*", df_dp, dg_dq), BinOp("*", df_dq, dg_dp)))
        if term == Const(0.0):
            continue
        terms.append(term if w == 1.0 else BinOp("*", Const(1.0 / w), term))
    total = _chain("+", terms)
    return Const(0.0) if total is None else simplify(total)


def hamiltonian_vector_field(h: Expr, structure: SymplecticStructure) -> VectorFieldExpr:
    """Flow field of h: dq_j = (1/xi_j) dh/dp_j, dp_j = -(1/xi_j) dh/dq_j."""
    n = structure.n
    dh = gradient(h, structure.coordinates)
    dq = []
    dp = []
    # one memo for all 2n components: the partials share subtrees (the
    # 1/r^2 factors of a vortex field), and each is simplified once
    memo: dict = {}
    for w, dh_dq, dh_dp in zip(structure.weights, dh[:n], dh[n:]):
        # gradient's partials are simplified already; only a new node is not
        if w != 1.0:
            dh_dp = _simplify(BinOp("*", Const(1.0 / w), dh_dp), memo)
            dh_dq = BinOp("*", Const(1.0 / w), dh_dq)
        dq.append(dh_dp)
        dp.append(_simplify(Neg(dh_dq), memo))
    return VectorFieldExpr(structure, tuple(dq), tuple(dp))

