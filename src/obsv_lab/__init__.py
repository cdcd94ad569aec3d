from .expr import (
    Expr,
    ParseError,
    DomainError,
    DerivativeOrderError,
    parse,
    evaluate,
    diff,
    jet,
    nth_derivative_at,
    format_expr,
    free_vars,
)
from .model import (
    CascadeSystem,
    ControlAffineSystem,
    LinearizationResult,
    InvalidSystemError,
    SystemFormatError,
    validate,
    as_control_affine,
    linearize_at,
    preset,
    preset_names,
    load_system,
    load_system_file,
)
from .lie import (
    ObservableWord,
    WordLengthError,
    evaluate_word,
    nested_lie_along_affine,
)
from .obsv import (
    PeriodicityVerdict,
    SystemPeriodicityReport,
    SeparationCertificate,
    RankReport,
    K_MAX_DEFAULT,
    cascade_lflg,
    cascade_lglflg,
    word_lflg,
    word_lglflg,
    detect_period,
    is_aperiodic_system,
    find_separating_observable,
    local_rank,
)
from .sim import (
    BlowUpError,
    EquilibriumPremiseError,
    FeedbackLaw,
    InputError,
    InputSignal,
    Trajectory,
    DistinguishabilityResult,
    integrate,
    integrate_many,
    parse_input_spec,
    indistinguishability_experiment,
    distinguishability_experiment,
    output_feedback_equilibria_check,
)
from .gramian import (
    GramianReport,
    empirical_gramian,
    input_sweep,
    shift_comparison_gramian,
)

__version__ = "0.1.0"
