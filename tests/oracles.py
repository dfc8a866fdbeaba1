"""Numeric oracles shared by the test modules."""
from liouville import DomainError, dimension_of, evaluate, sample_eval_points


def numerically_equivalent(a, b) -> bool:
    """True iff |a - b| <= 1e-9 * (1 + |a|) at every usable one of 40
    seeded sample points.

    Points where either side raises a domain error are skipped; a
    ValueError is raised when every sample is skipped.
    """
    n = max(dimension_of(a), dimension_of(b), 1)
    used = 0
    for u in sample_eval_points(n, 40, seed=0):
        try:
            va = evaluate(a, u)
            vb = evaluate(b, u)
        except DomainError:
            continue
        used += 1
        if abs(va - vb) > 1e-9 * (1.0 + abs(va)):
            return False
    if used == 0:
        raise ValueError("every sampled point hit a domain error")
    return True
