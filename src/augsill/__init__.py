"""Koopman-style lifted linear models over logistic and RBF dictionaries.

The package learns finite linear approximations of nonlinear dynamics by
lifting measurements through a dictionary of conjunctive logistic and RBF
members (plus polynomial baselines), and ships the numerical studies that
justify the dictionary choice: steep-limit product sweeps, Lie-derivative
closure gaps, expectation bounds, and a dictionary-comparison benchmark.
A logistic/RBF dictionary is its packed geometry: (N, m) centers and
steepness arrays and an (N,) RBF mask, given to ``Dictionary.from_packed``
and evaluated by ``member_values_packed``.
"""

from .dictionaries import (
    Dictionary,
    Family,
    Kind,
    lift,
    lift_jacobian,
    member_values_packed,
    param_gradients,
    polynomial_multi_indices,
    stable_logistic,
    stable_rbf,
)
from .errors import (
    DataError,
    DimensionMismatchError,
    DivergenceError,
    DomainError,
    HypothesisViolationError,
    IntegrationAccuracyError,
    NumericalError,
    ParameterDomainError,
    RateFitError,
    TrainingDivergedError,
    UnsupportedFamilyError,
)
from .systems import (
    Mode,
    SnapshotDataset,
    SystemId,
    SystemSpec,
    Trajectory,
    build_snapshot_dataset,
    integrate,
    read_ensemble,
    sample_initial_conditions,
    simulate_ensemble,
    system_rhs,
    write_ensemble,
)
from .solver import (
    KoopmanModel,
    dmd_baseline,
    fit_k,
    load_model,
    n_step_error,
    save_model,
)
from .trainer import (
    PursuitPool,
    TrainConfig,
    initial_dictionary,
    matching_pursuit_fit,
    sgd_fit,
    varpro_fit,
)
from .closure import (
    BoundRow,
    ClosureReport,
    ErrorBoundParams,
    convergence_rate,
    error_bound,
    expectation_bound_check,
    explosion_growth,
    lie_closure_error,
    polynomial_explosion_demo,
    sample_theorem_config,
    theorem_suite,
)
from .expectation import (
    SamplingSpec,
    expected_value,
    monte_carlo_expectation,
    pdf_g,
)

__version__ = "0.1.0"
