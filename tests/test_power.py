"""Controls beyond the crown: the verifiers must fail on sets larger than Omega.

A verdict of 0 violations means something only if the verifier can fail.
OmegaSpec refuses a scale above 1, so the controls build their scaled set
without its check; the library keeps the check.  At scale 1.25 the drawn
directions leave the polytope, where log a no longer lands in the hull.
"""

import pytest

from crown import verify_complex_convexity, verify_image
from crown.weyl import OmegaSpec

from conftest import context


def scaled_omega(scale):
    """scale * Omega for any scale, built without OmegaSpec.__post_init__."""
    omega = object.__new__(OmegaSpec)
    for name, value in (("shape", "scale"), ("scale", scale), ("radius", None)):
        object.__setattr__(omega, name, value)
    return omega


CONTROLS = {
    "convexity sl:3 k": lambda omega: verify_complex_convexity(
        context("sl:3"), omega, 200, 7, mode="k"),
    "convexity sp:2 full-g": lambda omega: verify_complex_convexity(
        context("sp:2"), omega, 200, 7, mode="full-g"),
    "image sl:3": lambda omega: verify_image(context("sl:3"), omega, 200, 7),
}


@pytest.mark.parametrize("name", CONTROLS)
def test_verifiers_fail_beyond_the_crown(name):
    # 53, 25 and 18 violations of 200 at scale 1.25; none at scale 1.0
    outside = CONTROLS[name](scaled_omega(1.25))
    inside = CONTROLS[name](scaled_omega(1.0))
    assert outside.violations > 0 and outside.samples_indeterminate == 0
    assert inside.violations == 0 and inside.samples_indeterminate == 0
