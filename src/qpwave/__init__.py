"""Computing with quasi-periodic mode sums on finite-rank frequency lattices:
exact mean-value norms, free dispersive evolutions, truncated nonlinear
solvers, and exponent-scan harnesses."""

from .budget import DEFAULT_BUDGET, get_default_budget, set_default_budget
from .errors import (
    BudgetError,
    DegenerateExtremizerError,
    NonContractionError,
    NumericConsistencyError,
    QPWaveError,
    ResonantLatticeError,
)
from .evolution import DispersionSymbol, boost_mixed_norm_check, galilean_boost, propagate
from .kdv import (
    homogeneous_sobolev_norm,
    kdv_rhs,
    kdv_solve,
    mean_zero_part,
    real_field_from_dict,
    real_field_to_dict,
    require_real_field,
    resonance,
    resonance_bound_check,
)
from .lattice import (
    LatticeSpec,
    ball_indices,
    count_in_interval,
    float_lattice,
    integer_lattice,
    max_unit_interval_count,
    min_gap,
    nonresonance_check,
    shell_indices,
    sqrt2_lattice,
)
from .meannorms import (
    ExponentPrediction,
    FitResult,
    MixedNormSpec,
    fit_exponent,
    lp_norm_exact,
    lp_norm_numeric,
    mean_value,
    mean_value_numeric,
    mixed_norm_free,
    predicted_exponent,
)
from .nls import (
    SolveResult,
    SolverConfig,
    SolveTrace,
    cubic_nonlinearity,
    first_picard_iterate,
    power_nonlinearity,
    solve,
)
from .report import ScanReport, ScanRow
from .scalars import QScalar
from .trigpoly import (
    SobolevSpec,
    TrigPoly,
    extremizer,
    multiply,
    project_cube,
    project_freq,
    project_height,
    sobolev_norm,
)
from .verify import (
    BiorthogonalityReport,
    averaged_norm_check,
    bilinear_scan,
    biorthogonality_check,
    picard_blowup_scan,
    random_shell_poly,
    strichartz_scan,
)

__version__ = "0.1.0"
