"""Integrability analysis for finite invariant sets of Hamiltonian systems.

The library decides whether a finite set of invariants closes into a Lie
algebra under a (weighted) Poisson bracket, classifies that algebra
(solvability, rank, Cartan directions, the dimension condition linking
algebra size and phase-space dimension), and carries out the associated
quadrature machinery: commuting flows, separable-branch actions, time maps,
and frequency matrices.
"""
from .expr import (
    BinOp, Call, Const, DomainError, EvalPoint, Expr, ExprError, Neg, Param,
    ParseError, Pow, UnboundSymbolError, Var, compile_functions,
    differentiate, dimension_of, evaluate, gradient, parameters_of, parse,
    sample_eval_points, simplify, substitute_param, to_string, variables_of,
)
from .symplectic import SymplecticStructure, VectorFieldExpr, \
    hamiltonian_vector_field, poisson_bracket
from .algebra import (
    CartanBasis, InvariantSet, MishchenkoFomenkoReport, RegularElement,
    StructureConstants, algebra_rank, bracket_matrix_at, cartan_basis_at,
    check_closure, find_level_point, fit_structure_constants,
    functional_independence, is_solvable, mishchenko_fomenko_check,
    search_polynomial_completion,
)
from .flows import (
    IntegrationError, IntegratorConfig, Trajectory, conservation_report,
    flows_commute, integrate, trajectory_to_csv,
)
from .action_angle import (
    ActionSpectrum, ChartDegree, SeparableChart, action_spectrum,
    action_variable, frequency_matrix, picard_fuchs_residual, solve_branch,
    time_map, turning_points,
)
from .catalog import SystemDefinition, get_system, list_systems, probe_points
from .sysfile import export_system_file

__version__ = "0.1.0"
