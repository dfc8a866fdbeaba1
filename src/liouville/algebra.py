"""Lie-algebra analysis of finite invariant sets.

Given an ordered set of invariants H_1..H_k on a weighted phase space, this
module fits structure constants {H_i, H_j} = c0_ij + sum_s c^s_ij H_s from
seeded samples, decides closure and solvability, measures the algebra rank
r = k - rank ||{H_i,H_j}(u)||, extracts Cartan (kernel) directions at a
regular level, checks the dimension condition k + r = 2n, and searches the
fitted algebra's Casimirs for polynomial completions that commute with
every generator.

Numeric rank decisions count the singular values above 1e-8 times the
largest one.  The bracket-matrix rank is read off D^-1 M D^-1, for D the
member-gradient norms at the point, and counts only singular values above
1e-10 as well, so brackets that vanish up to roundoff count as zero;
functional independence scales each Jacobian row to unit norm.
"""
from __future__ import annotations

import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import Callable, Iterable, Sequence

import numpy as np

from .expr import (
    BinOp, Const, DomainError, EvalPoint, Expr, Pow, UnboundSymbolError,
    _chain, _finite_params, _index_bound, _simplify, _symbols,
    compile_functions, gradient, sample_eval_points, simplify,
)
from .symplectic import SymplecticStructure

__all__ = [
    "AlgebraError", "ConvergenceError", "RegularityError", "SamplingError",
    "InvariantSet", "StructureConstants", "RegularElement", "CartanBasis",
    "MishchenkoFomenkoReport",
    "bracket_matrix_at", "fit_structure_constants", "check_closure",
    "is_solvable", "algebra_rank", "cartan_basis_at",
    "mishchenko_fomenko_check", "functional_independence", "find_level_point",
    "search_polynomial_completion", "build_combination",
]

RANK_RCOND = 1e-8
RANK_FLOOR = 1e-10
CLOSURE_TOL = 1e-6
SOLVABLE_RCOND = 1e-6
MAX_COMPLETION_MONOMIALS = 200
_LEVEL_TOL = 1e-10
_LEVEL_MAX_ITER = 200


class AlgebraError(Exception):
    """Base class for algebra-analysis failures."""


class ConvergenceError(AlgebraError):
    pass


class RegularityError(AlgebraError):
    pass


class SamplingError(AlgebraError):
    pass


@dataclass
class InvariantSet:
    """Ordered named invariants sharing one symplectic structure.

    ``params`` binds the members' parameters to finite values; the
    set copies it at construction and owns it, and points carry coordinates
    only.  Member values and gradients come from one function compiled on
    first use (see :func:`compile_functions`), so each point costs one
    call; its outputs match the tree walk ``reference_evaluate`` in
    tests/oracles.py bit for bit.  Every sampled point's outcome is kept,
    keyed by its coordinates, so each verdict that reads sampled points
    evaluates each of them once per set.  Each structure-constant fit is
    kept too, keyed by (samples, seed, allow_central), so ``analyze``'s
    fit, ``cartan``'s closure check and the completion search share one
    read-only fit.
    """

    structure: SymplecticStructure
    names: tuple[str, ...]
    exprs: tuple[Expr, ...]
    params: dict[str, float] = field(default_factory=dict)

    def __post_init__(self):
        self.names = tuple(self.names)
        self.exprs = tuple(self.exprs)
        self.params = _finite_params(self.params)
        if len(self.names) != len(self.exprs):
            raise ValueError("names and expressions must pair up")
        if len(self.names) != len(set(self.names)):
            raise ValueError("member names must be unique")
        if not self.names:
            raise ValueError("an invariant set needs at least one member")
        unbound = set()
        for name, e in zip(self.names, self.exprs):
            variables, params = _symbols((e,))
            d = _index_bound(variables)
            if d > self.structure.n:
                raise ValueError(
                    f"member {name!r} uses index {d}, beyond dimension {self.structure.n}")
            unbound |= params
        unbound -= set(self.params)
        if unbound:
            raise ValueError(f"members use unbound parameters: {sorted(unbound)}")
        self._compiled: Callable | None = None
        self._draws: dict[int, list[EvalPoint]] = {}
        self._outcomes: dict[tuple[float, ...], tuple | str] = {}
        self._fits: dict[tuple[int, int, bool], StructureConstants] = {}

    @property
    def k(self) -> int:
        return len(self.names)

    def _evaluate(self, point: EvalPoint) -> tuple[np.ndarray, np.ndarray]:
        """Read-only (member values (k,), Jacobian (k, 2n)) at a point: a
        point :meth:`sample_points` drew is read from the memo, where a
        DomainError is kept as its message; any other point costs one call
        of the function compiled on first use, whose outputs are the k
        members followed by their k * 2n gradient partials."""
        n = self.structure.n
        if point.n != n:
            raise UnboundSymbolError(
                f"a {point.n}-degree point does not fit a {n}-degree phase space")
        state = point.q + point.p
        outcome = self._outcomes.get(state)
        if isinstance(outcome, str):
            raise DomainError(outcome)
        if outcome is not None:
            return outcome
        if self._compiled is None:
            coords = self.structure.coordinates
            exprs = self.exprs + tuple(
                g for e in self.exprs for g in gradient(e, coords))
            self._compiled = compile_functions(exprs, n, self.params)
        out = np.array(self._compiled(state))
        out.flags.writeable = False
        return out[:self.k], out[self.k:].reshape(self.k, 2 * n)

    def member_values(self, point: EvalPoint) -> np.ndarray:
        return self._evaluate(point)[0]

    def jacobian_at(self, point: EvalPoint) -> np.ndarray:
        """(k, 2n) matrix of dH_i/dq_1..dq_n, dH_i/dp_1..dp_n."""
        return self._evaluate(point)[1]

    def sample_points(self, count: int, seed: int) -> list[EvalPoint]:
        """Seeded points where every member and every member gradient (hence
        the bracket matrix) evaluates.  Batch i is the first ``count``
        points drawn with ``seed + i`` (a draw's first points do not depend
        on its length); points that leave the domain are skipped, up to
        10 * count draws.  A drawn point is evaluated when a request first
        reaches it, and the outcome is memoised by its state, whose
        coordinates lie in +-[0.5, 2], so equal keys are equal bits."""
        good: list[EvalPoint] = []
        drawn = 0
        batch_seed = seed
        while len(good) < count:
            if drawn >= 10 * count:
                raise SamplingError(
                    f"could not find {count} sample points clear of domain errors")
            if len(self._draws.get(batch_seed, ())) < count:
                self._draws[batch_seed] = sample_eval_points(
                    self.structure.n, count, batch_seed)
            for u in self._draws[batch_seed][:count]:
                drawn += 1
                state = u.q + u.p
                if state not in self._outcomes:
                    try:
                        self._outcomes[state] = self._evaluate(u)
                    except DomainError as exc:
                        self._outcomes[state] = str(exc)
                if isinstance(self._outcomes[state], str):
                    continue
                good.append(u)
                if len(good) == count:
                    break
            batch_seed += 1
        return good


@dataclass(frozen=True)
class RegularElement:
    """Level values h_1..h_k with an optional on-level witness point."""

    values: tuple[float, ...]
    witness: EvalPoint | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))


@dataclass
class StructureConstants:
    """Fitted bracket table {H_i,H_j} = c0[i,j] + sum_s c[s,i,j] H_s."""

    names: tuple[str, ...]
    c: np.ndarray           # shape (k, k, k), indexed [s, i, j]
    c0: np.ndarray          # shape (k, k)
    residual: float
    rank_deficient: bool = False

    @property
    def k(self) -> int:
        return len(self.names)

    def jacobi_defect(self) -> float:
        """Max absolute defect of the Jacobi identity in the abstract algebra."""
        c, c0 = self.c, self.c0
        t1 = np.einsum("mij,smk->sijk", c, c)
        t2 = np.einsum("mjk,smi->sijk", c, c)
        t3 = np.einsum("mki,smj->sijk", c, c)
        defect = float(np.max(np.abs(t1 + t2 + t3)))
        z1 = np.einsum("mij,mk->ijk", c, c0)
        z2 = np.einsum("mjk,mi->ijk", c, c0)
        z3 = np.einsum("mki,mj->ijk", c, c0)
        return max(defect, float(np.max(np.abs(z1 + z2 + z3))))


@dataclass
class CartanBasis:
    """Orthonormal coefficient vectors spanning the bracket-matrix kernel."""

    vectors: np.ndarray     # shape (dim, k), orthonormal rows

    @property
    def dimension(self) -> int:
        return int(self.vectors.shape[0])

    def combination_exprs(self, inv: InvariantSet) -> list[Expr]:
        return [build_combination(inv, row) for row in self.vectors]


@dataclass(frozen=True)
class MishchenkoFomenkoReport:
    dim_g: int
    rank_g: int
    dim_m: int
    holds: bool


def _weighted_sum(coeffs: Sequence[float], terms: Sequence[Expr],
                  drop: float) -> Expr | None:
    """Left-nested sum of c * term over the terms with |c| > drop * max |c|."""
    scale = max((abs(float(c)) for c in coeffs), default=0.0)
    return _chain("+", [BinOp("*", Const(float(c)), e)
                        for c, e in zip(coeffs, terms)
                        if not (scale > 0 and abs(float(c)) <= drop * scale)])


def build_combination(inv: InvariantSet, coeffs: Sequence[float]) -> Expr:
    """Expression for sum_i coeffs[i] * H_i, dropping negligible terms."""
    if len(coeffs) != inv.k:
        raise ValueError("coefficient count must match the member count")
    total = _weighted_sum(coeffs, inv.exprs, 1e-14)
    return simplify(total) if total is not None else Const(0.0)


def _numeric_rank(matrix: np.ndarray, rcond: float = RANK_RCOND,
                  floor: float = 0.0) -> tuple[int, np.ndarray, np.ndarray]:
    """(rank, singular values, right singular vectors as rows); the rank
    counts the singular values above max(rcond times the largest, floor).

    A square or tall matrix gets the reduced SVD, whose ``s`` and ``vt``
    equal the full one's bit for bit without building the (rows, rows) U of
    a tall Casimir system.  A wide matrix keeps the full SVD: its reduced
    ``vt`` rows can differ from the full ones in the last bit, and the
    completion search reads the leading rows of its wide exclusion and
    candidate spans.
    """
    rows, cols = matrix.shape
    _, s, vt = np.linalg.svd(matrix, full_matrices=rows < cols)
    return int(np.sum(s > max(rcond * s[0], floor))), s, vt


def _inverse_norms(jac: np.ndarray) -> np.ndarray:
    """1 / norm of each row of ``jac``, and 0 for a zero row, so that a
    row scaled by it stays zero rather than turning into nan.  A finite row
    whose squares overflow (entries above about 1e154) is normed again
    divided by its largest entry; every other row keeps its bits."""
    with np.errstate(over="ignore"):
        # np.linalg.norm's sum of squares for a real array, without the
        # checks around it
        norms = np.sqrt(np.add.reduce(jac * jac, axis=-1))
    big = np.isinf(norms)
    if big.any():
        top = np.max(np.abs(jac[big]), axis=-1, keepdims=True)
        norms[big] = top[:, 0] * np.linalg.norm(jac[big] / top, axis=-1)
    return np.divide(1.0, norms, out=np.zeros_like(norms), where=norms > 0)


def _bracket_rank(m: np.ndarray, jac: np.ndarray) -> int:
    """Numeric rank of the bracket matrix ``m`` of the Jacobian ``jac``:
    the singular values of D^-1 m D^-1, for D the member-gradient norms,
    above max(RANK_RCOND * s_0, RANK_FLOOR)."""
    d = _inverse_norms(jac)
    return _numeric_rank(m * d[:, None] * d[None, :], floor=RANK_FLOOR)[0]


def bracket_matrix_at(inv: InvariantSet, point: EvalPoint) -> np.ndarray:
    """M[i,j] = {H_i, H_j}(point), from the member Jacobian at the point.

    With J = [J_q | J_p] the (k, 2n) Jacobian, M = A - A^T for
    A = (J_p diag(1/xi)) J_q^T, so the diagonal is exactly zero and M is
    exactly antisymmetric.  Raises DomainError where a gradient entry leaves
    the domain or an entry overflows.
    """
    return _bracket_from_jacobian(inv, inv.jacobian_at(point))


def _bracket_from_jacobian(inv: InvariantSet, jac: np.ndarray) -> np.ndarray:
    """Bracket matrices of a (..., k, 2n) Jacobian stack, one product over
    the stack, so a (k, 2n) Jacobian gives its (k, k) matrix."""
    n = inv.structure.n
    inv_weights = 1.0 / np.array(inv.structure.weights)
    with np.errstate(over="ignore", invalid="ignore"):
        a = (jac[..., n:] * inv_weights) @ jac[..., :n].swapaxes(-1, -2)
        m = a - a.swapaxes(-1, -2)
    if not np.all(np.isfinite(m)):
        raise DomainError("non-finite bracket matrix")
    return m


def fit_structure_constants(inv: InvariantSet, samples: int = 60, seed: int = 0,
                            allow_central: bool = False) -> StructureConstants:
    """Weighted least-squares fit of the bracket table over seeded samples.

    Each pair {H_i, H_j} (i < j), read off the bracket matrices at the
    points, is regressed on [1,] H_1..H_k by its own least-squares solve;
    the constant column is present only when ``allow_central`` is set.  A
    bracket value carries rounding error in proportion to
    |grad H_i| |grad H_j|, so each point's row of the pair is weighted by
    1 / (1 + |grad H_i| |grad H_j|): a sample near a singularity, where the
    members and their gradients are huge, cannot swamp the others.  The
    residual is the worst relative misfit beyond one rounding unit on that
    scale, max (|lhs - fit| - eps |grad H_i| |grad H_j|)+ / (1 + |lhs|)
    over pairs and points.  Only that unit is forgiven (a vanishing bracket
    read as 1e-2 from gradients of size 1e7 is rounding), so a large
    gradient never hides a misfit above it.  A single member has the zero
    table and residual 0.
    Antisymmetry of the returned tables holds by construction.  The fit is
    memoised on the set per (samples, seed, allow_central), and its ``c``
    and ``c0`` are read-only, since every caller shares them.
    """
    key = (operator.index(samples), operator.index(seed), bool(allow_central))
    fitted = inv._fits.get(key)
    if fitted is None:
        fitted = inv._fits[key] = _fit(inv, *key)
        fitted.c.flags.writeable = fitted.c0.flags.writeable = False
    return fitted


def _fit(inv: InvariantSet, samples: int, seed: int,
         allow_central: bool) -> StructureConstants:
    k = inv.k
    if samples < k + 2:
        raise ValueError("need more samples than regression columns")
    c = np.zeros((k, k, k))
    c0 = np.zeros((k, k))
    if k == 1:
        return StructureConstants(inv.names, c, c0, 0.0)
    points = inv.sample_points(samples, seed)
    values, jacobians = zip(*map(inv._evaluate, points))
    values = np.array(values)
    jacobians = np.array(jacobians)                             # (m, k, 2n)
    rows, cols = np.triu_indices(k, 1)
    b = _bracket_from_jacobian(inv, jacobians)[:, rows, cols]   # (m, pairs)
    norms = np.linalg.norm(jacobians, axis=2)
    grad_product = norms[:, rows] * norms[:, cols]
    if allow_central:
        design = np.hstack([np.ones((len(points), 1)), values])
    else:
        design = values
    rank, _, _ = _numeric_rank(design)
    rank_deficient = rank < design.shape[1]

    coef = np.empty((design.shape[1], len(rows)))           # (columns, pairs)
    for pair in range(len(rows)):
        w = 1.0 / (1.0 + grad_product[:, pair])
        coef[:, pair] = np.linalg.lstsq(design * w[:, None], b[:, pair] * w,
                                        rcond=None)[0]
    excess = np.abs(design @ coef - b) - np.finfo(float).eps * grad_product
    residual = float(np.max(np.maximum(excess, 0.0) / (1.0 + np.abs(b))))
    if allow_central:
        c0[rows, cols] = coef[0]
        c0[cols, rows] = -coef[0]
        coef = coef[1:]
    c[:, rows, cols] = coef
    c[:, cols, rows] = -coef
    return StructureConstants(inv.names, c, c0, residual, rank_deficient)


def check_closure(constants: StructureConstants) -> bool:
    """True iff the fit residual is below CLOSURE_TOL."""
    return constants.residual <= CLOSURE_TOL


def _closed_fit(inv: InvariantSet, seed: int) -> StructureConstants:
    """``analyze``'s fit (60 samples, ``seed``, central terms allowed);
    raises AlgebraError when the members do not close, so that no Cartan
    basis or Casimir is read off a table that is not an algebra."""
    constants = fit_structure_constants(inv, 60, seed, allow_central=True)
    if not check_closure(constants):
        raise AlgebraError(
            f"the members do not close (fit residual {constants.residual:.3e})")
    return constants


def is_solvable(constants: StructureConstants) -> bool:
    """Derived series of the abstract algebra (central terms ignored).

    Solvable iff repeatedly replacing the algebra by the span of its
    brackets terminates in the zero subspace; the span's rank counts
    singular values above SOLVABLE_RCOND times the largest.
    """
    c = constants.c
    k = constants.k
    basis = np.eye(k)
    while True:
        brackets = np.einsum("ai,bj,sij->abs", basis, basis, c).reshape(-1, k)
        norms = np.linalg.norm(brackets, axis=1)
        brackets = brackets[norms > 1e-14]
        if brackets.shape[0] == 0:
            return True
        dim, _, vt = _numeric_rank(brackets, SOLVABLE_RCOND)
        if dim >= basis.shape[0]:
            return False
        basis = vt[:dim]


def algebra_rank(inv: InvariantSet, probes: Sequence[EvalPoint]
                 ) -> tuple[int, bool]:
    """(rank of G, constant-rank flag) from bracket matrices at the probes.

    rank G = k - max over probes of the numeric rank of ||{H_i,H_j}(u)||,
    read off the matrix scaled by the member-gradient norms.
    """
    if len(probes) < 3:
        raise ValueError("need at least three probe points")
    best, constant = _max_bracket_rank(inv, probes)
    return inv.k - best, constant


def _max_bracket_rank(inv: InvariantSet, points: Iterable[EvalPoint]
                      ) -> tuple[int, bool]:
    """(max numeric bracket-matrix rank, rank equal at every usable point)
    over the points; a point where a member gradient leaves the domain or
    the bracket matrix overflows is skipped."""
    ranks = set()
    for u in points:
        try:
            jac = inv.jacobian_at(u)
            m = _bracket_from_jacobian(inv, jac)
        except DomainError:
            continue
        ranks.add(_bracket_rank(m, jac))
    if not ranks:
        raise SamplingError("every probe hit a domain error (singular locus)")
    return max(ranks), len(ranks) == 1


def find_level_point(inv: InvariantSet, values: Sequence[float],
                     guess: EvalPoint) -> RegularElement:
    """Damped Gauss-Newton on sum_j (H_j(u) - h_j)^2 from the given guess.

    Convergence means the root-sum-square of the component misfits drops to
    1e-10 or below within 200 iterations; the resulting point becomes the
    witness of the returned :class:`RegularElement`.  A trial point where a
    member or a member gradient leaves the domain is rejected, so the
    witness always has a defined bracket matrix.
    """
    target = np.array([float(v) for v in values])
    if len(target) != inv.k:
        raise ValueError("need one target value per member")
    if not np.all(np.isfinite(target)):
        raise ValueError("level values must be finite")
    state = guess.state()
    n = inv.structure.n

    def residual_at(y: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        values, jac = inv._evaluate(EvalPoint(tuple(y[:n]), tuple(y[n:])))
        return values - target, jac

    try:
        values, jac = inv._evaluate(guess)
        r = values - target
    except DomainError as exc:
        raise ConvergenceError(f"guess point is outside the domain: {exc}") from None
    best = float(np.linalg.norm(r))
    for _ in range(_LEVEL_MAX_ITER):
        if best <= _LEVEL_TOL:
            break
        step, *_ = np.linalg.lstsq(jac, -r, rcond=None)
        alpha = 1.0
        improved = False
        while alpha >= 1e-6:
            trial = state + alpha * step
            try:
                r_trial, jac_trial = residual_at(trial)
            except DomainError:
                alpha *= 0.5
                continue
            norm_trial = float(np.linalg.norm(r_trial))
            if norm_trial < best:
                state, r, jac, best = trial, r_trial, jac_trial, norm_trial
                improved = True
                break
            alpha *= 0.5
        if not improved:
            break
    if best > _LEVEL_TOL:
        raise ConvergenceError(
            f"no convergence to the level set; best residual {best:.3e}")
    witness = EvalPoint(tuple(state[:n]), tuple(state[n:]))
    return RegularElement(tuple(target), witness)


def cartan_basis_at(inv: InvariantSet, element: RegularElement,
                    seed: int = 0) -> CartanBasis:
    """Orthonormal kernel of the bracket matrix at the element's witness.

    The element is regular when the kernel dimension at the witness matches
    the generic (minimal) kernel dimension seen over five points sampled
    with ``seed``; a larger kernel means the witness sits on a singular
    stratum.
    """
    if element.witness is None:
        raise RegularityError("regular element has no witness point")
    level, jac = inv._evaluate(element.witness)
    err = float(np.max(np.abs(level - np.array(element.values))))
    if not err <= 1e-8:
        raise RegularityError(
            f"witness misses the level values by {err:.3e}")
    m = _bracket_from_jacobian(inv, jac)
    rank = _bracket_rank(m, jac)
    # the rank comes from the scaled matrix and the kernel from the
    # unscaled one: the scaled kernel is D times this one, and
    # orthonormalising D^-1 times it gives another, equally valid basis,
    # which would change the Cartan vectors every report prints
    kernel = _numeric_rank(m)[2][rank:]
    generic_rank, _ = _max_bracket_rank(inv, inv.sample_points(5, seed))
    if rank != generic_rank:
        raise RegularityError(
            f"bracket-matrix rank {rank} at the witness differs from the "
            f"generic rank {generic_rank}; the element is not regular")
    return CartanBasis(kernel)


def mishchenko_fomenko_check(inv: InvariantSet, probes: Sequence[EvalPoint]
                             ) -> MishchenkoFomenkoReport:
    """Dimension condition dim G + rank G = dim M for the invariant set."""
    r, _ = algebra_rank(inv, probes)
    dim_m = 2 * inv.structure.n
    return MishchenkoFomenkoReport(inv.k, r, dim_m, inv.k + r == dim_m)


def functional_independence(inv: InvariantSet, probes: Sequence[EvalPoint]
                            ) -> bool:
    """True iff the member Jacobian, each row scaled to unit norm, has full
    rank k at every usable probe."""
    if len(probes) < inv.k:
        raise ValueError("need at least k probe points")
    usable = 0
    for u in probes:
        try:
            jac = inv.jacobian_at(u)
        except DomainError:
            continue
        usable += 1
        # ranked transposed: the tall (2n, k) matrix gets the reduced SVD,
        # with no (2n, 2n) basis of right singular vectors
        rank, _, _ = _numeric_rank((jac * _inverse_norms(jac)[:, None]).T)
        if rank < inv.k:
            return False
    if usable < inv.k:
        raise SamplingError("too few probes evaluate cleanly")
    return True


# ---------------------------------------------------------------------------
# polynomial completion


def _monomial_indices(k: int, degree: int) -> list[tuple[int, ...]]:
    """Exponent multi-indices with 1 <= total degree <= degree, ordered."""
    out: list[tuple[int, ...]] = []
    for total in range(1, degree + 1):
        for combo in itertools.combinations_with_replacement(range(k), total):
            alpha = [0] * k
            for i in combo:
                alpha[i] += 1
            out.append(tuple(alpha))
    return out


def _monomial_gradients(values: np.ndarray, monomials: Sequence[tuple[int, ...]]
                        ) -> np.ndarray:
    """d m_alpha / d H_i at each sample; shape (m, n_monomials, k)."""
    m, k = values.shape
    out = np.zeros((m, len(monomials), k))
    for a_idx, alpha in enumerate(monomials):
        for i, a in enumerate(alpha):
            if not a:
                continue
            col = np.full(m, float(a))
            for j, b in enumerate(alpha):
                power = b - 1 if j == i else b
                if power:
                    col = col * values[:, j] ** power
            out[:, a_idx, i] = col
    return out


def _monomial_expr(inv: InvariantSet, alpha: tuple[int, ...]) -> Expr:
    return _chain("*", [e if a == 1 else Pow(e, float(a))
                        for e, a in zip(inv.exprs, alpha) if a])


def search_polynomial_completion(inv: InvariantSet, cartan: CartanBasis,
                                 element: RegularElement, degree: int = 2,
                                 seed: int = 0) -> list[Expr]:
    """Polynomials in H_1..H_k that bracket-commute with every generator:
    the Casimirs of the fitted algebra up to the given degree.

    It reads the set's memoised fit through :func:`_closed_fit`
    (``analyze``'s fit, so after ``analyze`` it builds no bracket matrix):
    {H_i, H_j} = C(h)_ij for C(xi) = c0 + sum_s xi_s c_s.  So P commutes
    with every member iff sum_i dP/dxi_i C(xi)_ij = 0, a linear system in
    P's monomial coefficients imposed at max(40, 4 * monomials)
    standard-normal xi drawn with ``seed``; no phase-space point enters
    it.
    The result is an orthonormal basis of its kernel without constants and
    Cartan combinations, each member checked at 20 fresh xi to
    max_j |sum_i dP_i C_ij| <= 1e-10 (1 + |dP| |C|), and without the span
    of members constant on M (the so(4) Pfaffian on decomposable
    bivectors), found from the rank of their phase-space gradients.
    ``element`` is not read; it stays until the callers pass the constants
    instead.  Raises AlgebraError when the fit does not close, and
    ValueError beyond MAX_COMPLETION_MONOMIALS monomials: the dense SVD of
    the system grows with the square of its row count.
    """
    if degree < 1:
        raise ValueError("degree must be at least 1")
    k = inv.k
    n_mono = math.comb(k + degree, degree) - 1
    if n_mono > MAX_COMPLETION_MONOMIALS:
        raise ValueError(
            f"degree {degree} in {k} members gives {n_mono} monomials; "
            f"the completion ansatz allows at most {MAX_COMPLETION_MONOMIALS}")
    constants = _closed_fit(inv, seed)
    monomials = _monomial_indices(k, degree)
    # one draw of xi: the system reads the first ``count`` rows and the
    # check the last 20; d m_alpha / d xi_i (m, n_mono, k), C(xi) (m, k, k)
    count = max(40, 4 * n_mono)
    xi = np.random.default_rng(seed).standard_normal((count + 20, k))
    grads = _monomial_gradients(xi, monomials)
    c = constants.c0 + np.einsum("ms,sij->mij", xi, constants.c)
    rows = np.einsum("mai,mij->mja", grads[:count], c[:count]).reshape(-1, n_mono)
    rank, _, vt = _numeric_rank(rows)
    kernel = vt[rank:]
    # excluded directions: the Cartan combinations, as the degree-1
    # monomials, which come first
    if cartan.dimension:
        excluded = np.zeros((cartan.dimension, n_mono))
        excluded[:, :k] = cartan.vectors
        ex_rank, _, ex_vt = _numeric_rank(excluded)
        basis_ex = ex_vt[:ex_rank]
        kernel = kernel - (kernel @ basis_ex.T) @ basis_ex
    norms = np.linalg.norm(kernel, axis=1)
    keep = norms > 1e-8 * max(1.0, float(norms.max(initial=0.0)))
    kernel = kernel[keep]
    if kernel.shape[0] == 0:
        return []
    dim, _, vt = _numeric_rank(kernel)
    candidates = vt[:dim]

    grads, c = grads[count:], c[count:]
    cand_grads = np.einsum("pa,mai->mpi", candidates, grads)
    defect = np.max(np.abs(np.einsum("mpi,mij->mpj", cand_grads, c)), axis=2)
    scale = (np.linalg.norm(cand_grads, axis=2)
             * np.linalg.norm(c, axis=(1, 2))[:, None])
    candidates = candidates[np.all(defect <= 1e-10 * (1.0 + scale), axis=0)]
    if len(candidates):
        # drop the span of candidates constant on M: rank their phase-space
        # gradients sum_i dP/dH_i(H(x)) grad H_i(x) at cartan_basis_at's
        # points, each candidate's stacked row scaled to unit norm
        values, jacs = zip(*(inv._evaluate(u)
                             for u in inv.sample_points(5, seed)))
        dp = np.einsum("pa,mai->mpi", candidates,
                       _monomial_gradients(np.array(values), monomials))
        on_m = np.einsum("mpi,mix->pmx", dp, np.array(jacs)).reshape(
            len(candidates), -1)
        r, _, span = _numeric_rank((on_m * _inverse_norms(on_m)[:, None]).T)
        if r < len(candidates):
            candidates = span[:r] @ candidates
    # one memo: the candidates share the monomial trees
    mono_exprs = [_monomial_expr(inv, alpha) for alpha in monomials]
    memo: dict = {}
    out = []
    for vec in candidates:
        total = _weighted_sum(vec, mono_exprs, 1e-12)
        if total is not None:
            out.append(_simplify(total, memo))
    return out
