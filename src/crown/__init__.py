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
    normalizer_elements,
    separating_functional,
    verify_complex_convexity,
    verify_kostant_real,
    weyl_k_representatives,
)
from .domains import (
    TubeSpec,
    boundary_path,
    boundary_probe,
    sample_xi,
    tube_contains,
    verify_image,
    verify_tube_intersection,
)
from .groups import (
    CovectorIA,
    Family,
    GroupContext,
    GroupSpec,
    RootDatum,
    build_group,
    cartan_involution,
    h_lambda,
    is_regular,
    killing_r,
    project_a,
    split_nak,
)
from .iwasawa import (
    CrownPoint,
    IwasawaFactors,
    decompose_real,
    minor_ratios,
    project_complex,
    project_complex_path,
    reconstruction_residual,
    triangular_part,
)
from .report import VerificationReport
from .rng import substream
from .siegel import SiegelPoint, chi, cross_check_crown, sample_siegel, verify_siegel
from .weyl import (
    OmegaSpec,
    dominant_rep,
    hull_contains,
    omega_margin,
    sample_omega,
    weyl_orbit,
)

__version__ = "0.1.0"
