"""Membership tests for the generalized harmonic function classes.

Given structural sets phi and psi, a polynomial field f is

    harmonic            when  laplacian(f) = 0,
    two-step harmonic   when  dirac_left(phi, dirac_left(psi, f)) = 0,
    inframonogenic      when  sandwich(phi, f, psi) = 0,

and hyperholomorphic (left/right) when the corresponding one-sided
Dirac image vanishes.  Everything is an exact zero test on polynomial
coefficients; there is no sampling and no tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product

from .fields import PolyField, _derivatives, _dirac, _laplacian, dirac_left, sandwich
from .structural import StructuralSet
from .verdict import Verdict

HARMONIC = "H"
TWO_SET_HARMONIC = "Hpp"
INFRAMONOGENIC = "I"

_CLASS_ORDER = (HARMONIC, TWO_SET_HARMONIC, INFRAMONOGENIC)


@dataclass(frozen=True)
class RegionLabel:
    """One of the 8 membership regions of {H, Hpp, I}."""

    harmonic: bool
    two_set_harmonic: bool
    inframonogenic: bool

    @classmethod
    def from_classes(cls, classes) -> "RegionLabel":
        """The region of exactly the named classes; a lone string is one class name."""
        classes = {classes} if isinstance(classes, str) else set(classes)
        unknown = classes - set(_CLASS_ORDER)
        if unknown:
            raise ValueError(f"unknown class names {sorted(unknown)}; expected subset of {_CLASS_ORDER}")
        return cls(HARMONIC in classes, TWO_SET_HARMONIC in classes, INFRAMONOGENIC in classes)

    @classmethod
    def all_regions(cls) -> list["RegionLabel"]:
        return [cls(h, p, i) for h, p, i in product((False, True), repeat=3)]

    @property
    def classes(self) -> frozenset:
        names = []
        if self.harmonic:
            names.append(HARMONIC)
        if self.two_set_harmonic:
            names.append(TWO_SET_HARMONIC)
        if self.inframonogenic:
            names.append(INFRAMONOGENIC)
        return frozenset(names)

    def __str__(self) -> str:
        names = [name for name, flag in zip(_CLASS_ORDER, (self.harmonic, self.two_set_harmonic, self.inframonogenic)) if flag]
        return "∩".join(names) if names else "none"


@dataclass(frozen=True)
class ClassMembership:
    harmonic: bool
    two_set_harmonic: bool
    inframonogenic: bool
    hyperholomorphic_left: bool
    hyperholomorphic_right: bool

    @property
    def region(self) -> RegionLabel:
        return RegionLabel(self.harmonic, self.two_set_harmonic, self.inframonogenic)

    def to_json(self) -> dict:
        return {
            "harmonic": self.harmonic,
            "phiPsiHarmonic": self.two_set_harmonic,
            "inframonogenic": self.inframonogenic,
            "hypLeft": self.hyperholomorphic_left,
            "hypRight": self.hyperholomorphic_right,
            "region": str(self.region),
        }


def classify(phi: StructuralSet, psi: StructuralSet, f: PolyField) -> ClassMembership:
    """Membership of f in each class, every one an exact zero test on f's integer terms (see `fields`).

    One derivative list of f serves D_psi f, f D_psi and the Laplacian.  The list of
    D_psi f gives D_phi D_psi f, and the list of f D_psi the sandwich D_phi (f D_psi),
    which equals (D_phi f) D_psi.  The denominators are positive and are dropped, and
    no field is built.
    """
    if phi.m != f.m or psi.m != f.m:
        raise ValueError(f"dimension mismatch: sets {phi.m}/{psi.m}, field {f.m}")
    m = f.m
    phi_rows, psi_rows = phi._rows, psi._rows
    derivatives = _derivatives(f._num, m)
    left_psi = _dirac(derivatives, psi_rows, m, True)
    right_psi = _dirac(derivatives, psi_rows, m, False)
    return ClassMembership(
        harmonic=not any(_laplacian(derivatives).values()),
        two_set_harmonic=not any(_dirac(_derivatives(left_psi, m), phi_rows, m, True).values()),
        inframonogenic=not any(_dirac(_derivatives(right_psi, m), phi_rows, m, True).values()),
        hyperholomorphic_left=not any(left_psi.values()),
        hyperholomorphic_right=not any(right_psi.values()),
    )


def region(phi: StructuralSet, psi: StructuralSet, f: PolyField) -> RegionLabel:
    return classify(phi, psi, f).region


def check_even_odd_split_membership(phi: StructuralSet, psi: StructuralSet, f: PolyField) -> Verdict:
    """A field sits in the inframonogenic (resp. two-step harmonic) kernel
    exactly when both its even and odd parts do."""
    even, odd = f.even_part(), f.odd_part()
    for name, op in (
        ("inframonogenic", lambda g: sandwich(phi, g, psi)),
        ("two-set-harmonic", lambda g: dirac_left(phi, dirac_left(psi, g))),
    ):
        whole = op(f).is_zero()
        split = op(even).is_zero() and op(odd).is_zero()
        if whole != split:
            return Verdict(
                "even-odd-split-membership",
                False,
                lhs=f"{name}: whole field in kernel: {whole}",
                rhs=f"{name}: both parts in kernel: {split}",
            )
    return Verdict("even-odd-split-membership", True)
