"""tfq: Cohen-class time-frequency distributions and Born-Jordan tooling.

Signal and grid model with explicit Fourier conventions, distribution
engines (STFT, cross-distribution, tau family, Born-Jordan), the kernel
bank with its ambiguity-domain multipliers, closed-form Gaussian
references, desk-scale quantized operators, and mixed-norm / dilation
experiments.
"""

from .errors import (
    AccuracyError,
    AliasingError,
    DomainError,
    GenerationError,
    GridError,
    ResolutionError,
    SingularPointError,
    SizeError,
    TfqError,
    WindowError,
)
from .grid import (
    AMBIGUITY,
    PHASE_SPACE,
    PhaseSpaceGrid,
    SampledSignal,
    TFMatrix,
    assert_central_support,
    centered_signal_axis,
    dft,
    signal_from_function,
    symplectic_fourier,
)
from .special import cosine_integral, sine_integral
from .gaussians import (
    fourier_wigner_gaussian,
    gaussian,
    wigner_gaussian,
    wigner_gaussian_diag,
)
from .kernels import (
    CohenKernel,
    ambiguity_multiplier,
    born_jordan_kernel,
    delta_kernel,
    tau_kernel,
    theta_growth_integral,
    theta_sigma_cell_averages,
    theta_sigma_d1,
    vg_theta_grid,
)
from .distributions import (
    born_jordan,
    born_jordan_direct,
    cohen,
    stft,
    wigner,
    wigner_grid,
)
from .operators import (
    Symbol,
    apply,
    born_jordan_rule,
    operator_matrix,
    symbol_grid_for,
    symbol_transform,
    tau_rule,
    weak_apply,
    weyl_rule,
)
from .norms import (
    GhostReport,
    MixedNormSpec,
    Rect,
    ScalingFit,
    amalgam_norm,
    canonical_window,
    fit_loglog,
    ghost_energy_report,
    interference_region,
    mixed_norm,
    modulation_norm,
    scaling_experiment,
    scaling_norm,
    scaling_table,
)
from .synth import SignalRecipe, gabor_atom, synth
from . import io

__version__ = "0.1.0"
