"""Bundled worked examples with their expected outcomes.

Five reference polynomials in R^3 (with the standard and the reversed
structural sets) hit every individually named membership region.  A
handful of closed-form operator values, the Psi aggregates on the 2D
rotation and reflection sets, and the same-set aggregate counterexample
round out the tour.  `run_demo` recomputes everything and reports
expected against actual.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .algebra import Multivector
from .classify import INFRAMONOGENIC, HARMONIC, RegionLabel, classify
from .fields import laplacian
from .parser import format_field, parse_field
from .psi import _counterexample_check, _two_dimensional_aggregates, apply_psi_k, apply_psi_plus
from .solver import class_nullspace
from .structural import StructuralSet

REFERENCE_FIELDS = [
    # (expression, expected region classes, expected (hyp_left, hyp_right))
    ("(x2^2 - x1^2)*e[2] - 2*x1*x2*e[3] - x1*e[1,2] + x3*e[2,3]", ("H", "Hpp", "I"), (True, True)),
    ("2*x1*x3*e[1] - x2*e[2] - (x1^2 - x3^2)*e[3]", ("H", "Hpp", "I"), (False, False)),
    ("2*x2*x3*e[1] - (x1^2 + x2^2)*e[2]", ("Hpp", "I"), (False, False)),
    ("x1*x3*e[1] + x2*e[2]", ("H", "I"), (False, False)),
    ("(x1*x2 + x2*x3)*e[2]", ("H", "Hpp"), (False, False)),
]


@dataclass
class DemoItem:
    name: str
    expected: str
    actual: str

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_json(self) -> dict:
        return {"name": self.name, "expected": self.expected, "actual": self.actual, "ok": self.ok}


def _reference_items() -> list[DemoItem]:
    phi = StructuralSet.standard(3)
    psi = StructuralSet.reversed_standard(3)
    items = []
    for expr, classes, hyp in REFERENCE_FIELDS:
        f = parse_field(expr, 3)
        mem = classify(phi, psi, f)
        want = f"region {RegionLabel.from_classes(classes)}, hyp (left,right) {hyp}"
        got = f"region {mem.region}, hyp (left,right) ({mem.hyperholomorphic_left}, {mem.hyperholomorphic_right})"
        items.append(DemoItem(f"classify {expr}", want, got))
    f3 = parse_field(REFERENCE_FIELDS[2][0], 3)
    items.append(DemoItem("laplacian of the third reference field", "-4*e[2]", str(laplacian(f3))))
    return items


def _operator_items() -> list[DemoItem]:
    phi = StructuralSet.standard(3)
    one = Multivector.scalar(3, 1)
    items = [
        DemoItem("level-1 on the unit scalar (m=3, same set)", "-3", str(apply_psi_k(phi, phi, 1, one))),
        DemoItem("even aggregate on the unit scalar (m=3, same set)", "4", str(apply_psi_plus(phi, phi, one))),
        DemoItem(
            "recursion instance k=1 on the unit scalar",
            "9 = 9",
            f"{apply_psi_k(phi, phi, 0, one) * 3 + apply_psi_k(phi, phi, 2, one) * 2}"
            f" = {apply_psi_k(phi, phi, 1, apply_psi_k(phi, phi, 1, one))}",
        ),
    ]
    return items


def _two_dimensional_items() -> list[DemoItem]:
    c1, c2 = Fraction(3, 5), Fraction(4, 5)
    phi = StructuralSet.standard(2)
    comps = [parse_field(s, 2) for s in ("x1*x2", "x1", "x2^2", "x1^2 - x2^2")]
    items = []
    for form, psi, parity in (
        ("rotation", StructuralSet.rotation_2d(c1, c2), "even"),
        ("reflection", StructuralSet.reflection_2d(c1, c2), "odd"),
    ):
        for kind, (actual, want) in zip(("even", "odd"), _two_dimensional_aggregates(phi, psi, comps)):
            items.append(
                DemoItem(f"2d {form}: {kind} aggregate on a sample field", format_field(want), format_field(actual))
            )
        # Parity consequence on actual kernel members.
        for names, label in (((HARMONIC,), "harmonic"), ((INFRAMONOGENIC,), "inframonogenic")):
            member = class_nullspace(phi, psi, 2, names)[0]
            part = member.even_part() if parity == "even" else member.odd_part()
            mem = classify(phi, psi, part)
            items.append(
                DemoItem(
                    f"2d {form}: {parity} part of a {label} field joins both kernels",
                    "harmonic and inframonogenic",
                    "harmonic and inframonogenic"
                    if mem.harmonic and mem.inframonogenic
                    else f"harmonic={mem.harmonic}, inframonogenic={mem.inframonogenic}",
                )
            )
    return items


def _counterexample_items() -> list[DemoItem]:
    items = []
    for m in (2, 3):
        phi = StructuralSet.standard(m)
        f, mem_f, mem_image, ok = _counterexample_check(phi)
        items.append(
            DemoItem(
                f"aggregate counterexample m={m}: {format_field(f)}",
                "field outside both kernels, even-aggregate image inside both",
                "field outside both kernels, even-aggregate image inside both"
                if ok
                else f"field {mem_f.to_json()}, image {mem_image.to_json()}",
            )
        )
    return items


def run_demo() -> list[DemoItem]:
    items = []
    items.extend(_reference_items())
    items.extend(_operator_items())
    items.extend(_two_dimensional_items())
    items.extend(_counterexample_items())
    return items
