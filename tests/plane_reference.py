"""The `Fraction` reference for the plane sets `rot2:`/`refl2:`, which the package builds from integers."""

from fractions import Fraction


def rotation_pair(t: Fraction) -> tuple[Fraction, Fraction]:
    """Exact (cos, sin) with cos^2 + sin^2 = 1 from one rational parameter, by the tangent half-angle map."""
    denom = 1 + t * t
    return (1 - t * t) / denom, 2 * t / denom
