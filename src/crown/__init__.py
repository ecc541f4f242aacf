"""Numerics for Iwasawa projections on complexified symmetric spaces.

Concrete realizations of SL(n,R) and Sp(n,R), the holomorphically tracked
middle projection on the crown of the symmetric space, exact Weyl-orbit hull
membership, and seeded Monte-Carlo verifiers for the convexity, tube and
Siegel-minor properties of the projection.
"""

from .convexity import (
    CriticalRun,
    ascend_critical,
    critical_point_scan,
    f_a,
    f_a_lambda,
    grad_f,
    gradient_check,
    lemma24_probe,
    verify_complex_convexity,
    verify_kostant_real,
)
from .domains import (
    boundary_path,
    sample_xi,
    verify_boundary,
    verify_image,
    verify_tube_intersection,
)
from .groups import (
    Family,
    GroupContext,
    GroupSpec,
    build_group,
    h_lambda,
    is_regular,
    project_a,
)
from .iwasawa import (
    IwasawaFactors,
    decompose_real,
    k_factor,
    minor_ratios,
    project_complex,
    triangular_part,
)
from .report import VerificationReport
from .rng import substream
from .siegel import cross_check_crown, sample_siegel, verify_siegel
from .weyl import (
    OmegaSpec,
    dominant_rep,
    hull_contains,
    omega_margin,
)

__version__ = "0.1.0"
