"""Sampled-data stabilization toolkit for control-affine systems
xdot = f(x) + u g(x): pointwise certification of Lie-bracket decrease
conditions, constructive synthesis of short piecewise-constant control
programs, and closed-loop simulation against arbitrary sampling
partitions with Lyapunov verification.
"""

from .symcalc import (
    DomainError, Expr, ExprError, ParseError,
    compile_expr, differentiate, evaluate, parse, simplify, to_text,
)
from .lie import (
    LieWord, ScalarField, VectorField, WORD_F, WORD_G,
    bracket_word, directional_derivative, enumerate_monomial_products,
    iterated_adjoint, lie_bracket,
)
from .certify import (
    Case, Certificate, GridEntry, SystemDef, certify_grid, certify_point,
)
from .synth import (
    CertificateInconclusive, ControlProgram, MDerivatives, StepResult,
    SynthesisFailed, cbh_residual, composed_flow, flow_endpoint,
    m_derivative_estimates, m_of_t, synthesize_step, two_phase_program,
)
from .simloop import (
    FactCheck, IntegrationError, IntervalRecord, LoopReport, Partition,
    Trajectory, plan_interval, run_closed_loop, verify_facts,
)
from .cli import SystemFile, load_system

__version__ = "0.1.0"
