"""Weighted symplectic structure, Poisson brackets, and Hamiltonian fields.

The bracket convention used throughout the library is

    {F, G} = sum_j (1/xi_j) (dF/dp_j dG/dq_j - dF/dq_j dG/dp_j)

for weights xi_1..xi_n, so {q_i, p_j} = -delta_ij / xi_i and the flow of a
Hamiltonian H is dq_j/dt = (1/xi_j) dH/dp_j, dp_j/dt = -(1/xi_j) dH/dq_j.
Unit weights recover the canonical equations of motion.
"""
from __future__ import annotations

from dataclasses import dataclass

from .expr import BinOp, Const, Expr, Neg, differentiate, simplify

__all__ = [
    "SymplecticStructure", "VectorFieldExpr",
    "poisson_bracket", "hamiltonian_vector_field",
]


@dataclass(frozen=True)
class SymplecticStructure:
    """Phase space T*R^n with per-degree weights xi_j (all nonzero)."""

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

    @classmethod
    def canonical(cls, n: int) -> "SymplecticStructure":
        return cls(n, (1.0,) * n)


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
    total: Expr | None = None
    for j in range(1, structure.n + 1):
        df_dp = differentiate(f, f"p{j}")
        dg_dq = differentiate(g, f"q{j}")
        df_dq = differentiate(f, f"q{j}")
        dg_dp = differentiate(g, f"p{j}")
        term = simplify(BinOp("-", BinOp("*", df_dp, dg_dq), BinOp("*", df_dq, dg_dp)))
        if term == Const(0.0):
            continue
        w = structure.weights[j - 1]
        if w != 1.0:
            term = BinOp("*", Const(1.0 / w), term)
        total = term if total is None else BinOp("+", total, term)
    if total is None:
        return Const(0.0)
    return simplify(total)


def hamiltonian_vector_field(h: Expr, structure: SymplecticStructure) -> VectorFieldExpr:
    """Flow field of h: dq_j = (1/xi_j) dh/dp_j, dp_j = -(1/xi_j) dh/dq_j."""
    dq = []
    dp = []
    for j in range(1, structure.n + 1):
        w = structure.weights[j - 1]
        dh_dp = differentiate(h, f"p{j}")
        dh_dq = differentiate(h, f"q{j}")
        if w != 1.0:
            dh_dp = BinOp("*", Const(1.0 / w), dh_dp)
            dh_dq = BinOp("*", Const(1.0 / w), dh_dq)
        dq.append(simplify(dh_dp))
        dp.append(simplify(Neg(dh_dq)))
    return VectorFieldExpr(structure, tuple(dq), tuple(dp))

