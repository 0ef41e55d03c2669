"""Fourier summation on the hexagonal lattice.

Core layers: lattice geometry (homogeneous coordinates, folding, index
shells), grid/spectral transforms, closed-form Poisson-type kernels with
exact high-order radius derivatives, Taylor-Abel-Poisson means with
their deviation and K-functional machinery, and a CLI experiment driver.
"""

from .lattice import (
    from_cartesian,
    index_shell,
    to_cartesian,
)
from .fourier import (
    GridFunction,
    HexGrid,
    ResolutionWarning,
    SpectralFormatError,
    SpectralFunction,
    analyze,
    load_spectral,
    lp_norm,
    make_grid,
    pairwise_sum,
    save_spectral,
    scale_shells,
    synthesize,
)
from .kernels import (
    BernsteinResult,
    bernstein_integral,
    classical_kernel_deriv,
    min_resolution,
    product_integral,
    series_tail_bound,
)
from .means import (
    KfunEstimate,
    apply_operator,
    apply_operator_derivative_form,
    lambda_shells,
    m_p,
    poisson_integral_convolution,
    poisson_integral_spectral,
    radial_derivative,
    remainder_coefficient_check,
    remainder_integral_norm,
)
from .families import (
    FamilySpec,
    basis_family,
    builtin_families,
    kernel_family,
    polynomial_family,
    random_spectrum,
    shell_decay_family,
)
from .verify import CheckResult, run_all_checks

__version__ = "0.1.0"

__all__ = [
    "from_cartesian",
    "index_shell",
    "to_cartesian",
    "GridFunction",
    "HexGrid",
    "ResolutionWarning",
    "SpectralFormatError",
    "SpectralFunction",
    "analyze",
    "load_spectral",
    "lp_norm",
    "make_grid",
    "pairwise_sum",
    "save_spectral",
    "scale_shells",
    "synthesize",
    "BernsteinResult",
    "bernstein_integral",
    "classical_kernel_deriv",
    "min_resolution",
    "product_integral",
    "series_tail_bound",
    "KfunEstimate",
    "apply_operator",
    "apply_operator_derivative_form",
    "lambda_shells",
    "m_p",
    "poisson_integral_convolution",
    "poisson_integral_spectral",
    "radial_derivative",
    "remainder_coefficient_check",
    "remainder_integral_norm",
    "FamilySpec",
    "basis_family",
    "builtin_families",
    "kernel_family",
    "polynomial_family",
    "random_spectrum",
    "shell_decay_family",
    "CheckResult",
    "run_all_checks",
    "__version__",
]
