"""Monte Carlo gradient estimation and inequality verification for Gruschin-type
degenerate diffusion semigroups."""

from .models import (
    Direction,
    Family,
    ModelKind,
    ModelSpec,
    PowerParams,
    TestFunction,
    as_extended,
    bounded_suite,
    builtin_model,
    crosscheck_suite,
    make_constant_identity_model,
    make_extended_demo_model,
    make_power_law_model,
    make_tilted_matrix_model,
    observable,
)
from .paths import (
    PathBatch,
    TimeGrid,
    simulate_batch,
    simulate_terminal_batch,
)
from .rng import PathStreams, derive_seed
from .weights import weight_terms_shared
from .estimators import (
    EstimationError,
    MCEstimate,
    bismut_panel,
    bismut_panels,
    estimate_gradient_bismut,
    estimate_gradient_fd,
    estimate_lq_moment,
    estimate_lq_moments,
    estimate_negative_moment,
    estimate_negative_moments,
    estimate_pt,
    fd_panel,
    pt_panel,
)
from .oracles import negative_moment_exact

__version__ = "0.1.0"
