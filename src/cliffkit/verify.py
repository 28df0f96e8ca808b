"""Seeded verification suite over every identity the engine exposes.

Each named check draws its own deterministic random stream from
(seed, check name), runs a batch of exact comparisons and reports the
first counterexample if one shows up.  `corrupt` names a check whose
left-hand sides get deliberately perturbed; it exists as a negative
control so the failure-reporting path stays exercised.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Sequence

from .algebra import Multivector, blade_order
from .classify import (
    HARMONIC,
    INFRAMONOGENIC,
    TWO_SET_HARMONIC,
    check_even_odd_split_membership,
    classify,
)
from .fields import PolyField, dirac_left, dirac_right, laplacian, sandwich
from .psi import (
    PsiOperator,
    _counterexample_check,
    _two_dimensional_aggregates,
    check_dirac_psi1_identities,
    check_index_reflection,
    check_inframonogenic_psi1_equivalence,
    check_parts_sandwich,
    check_plus_minus_closed_form,
    check_plus_minus_conjugation,
    check_recursion,
    check_second_order_criterion,
    psi_matrix,
    scalar_action,
    scalar_action_hypergeometric,
)
from .sampling import (
    rand_multivector,
    rand_polyfield,
    rand_rational_structural_set,
    rand_scalar_polyfield,
    rand_signed_permutation,
    rand_structural_pair,
)
from .solver import class_nullspace
from .structural import StructuralSet
from .verdict import Verdict, compare


@dataclass(frozen=True)
class VerifyConfig:
    m_values: tuple[int, ...] = (2, 3, 4, 5)
    trials: int = 50
    seed: int = 0
    degree: int = 3
    corrupt: str | None = None


@dataclass
class CheckResult:
    name: str
    passed: bool
    cases: int
    failure: Verdict | None = None

    def to_json(self) -> dict:
        return {
            "identity": self.name,
            "holds": self.passed,
            "cases": self.cases,
            "lhs": self.failure.lhs if self.failure else None,
            "rhs": self.failure.rhs if self.failure else None,
        }


@dataclass
class SuiteReport:
    config: VerifyConfig
    results: list[CheckResult] = field(default_factory=list)

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.results)

    def to_text(self) -> str:
        lines = []
        for r in self.results:
            if r.passed:
                lines.append(f"PASS  {r.name}  ({r.cases} cases)")
            else:
                lines.append(f"FAIL  {r.name}  ({r.cases} cases)")
                if r.failure:
                    lines.append(f"      identity: {r.failure.identity}")
                    lines.append(f"      lhs: {r.failure.lhs}")
                    lines.append(f"      rhs: {r.failure.rhs}")
        verdict = "all identities hold" if self.all_passed else "FAILURES detected"
        lines.append(f"{sum(r.passed for r in self.results)}/{len(self.results)} checks passed: {verdict}")
        return "\n".join(lines)

    def to_json(self) -> dict:
        return {
            "m": list(self.config.m_values),
            "trials": self.config.trials,
            "seed": self.config.seed,
            "degree": self.config.degree,
            "allPass": self.all_passed,
            "results": [r.to_json() for r in self.results],
        }


class _KernelMemo:
    """The class kernel bases that `_members_for` draws from, each set up once per suite run.

    Keyed by dimension, degree, class names and the coordinates of the sets
    the class operators use; the Laplacian uses none, so every pair shares
    the harmonic kernel.
    """

    def __init__(self):
        self._bases: dict[tuple, Sequence[PolyField]] = {}

    def members(self, phi: StructuralSet, psi: StructuralSet, names: tuple[str, ...], d: int, limit: int) -> list[PolyField]:
        """The first `limit` basis fields of the joint kernel of `names` at degree d; only these are back-substituted."""
        sets = () if names == (HARMONIC,) else (phi, psi)
        key = (phi.m, d, names) + tuple(tuple(map(tuple, s.coordinates())) for s in sets)
        if key not in self._bases:
            self._bases[key] = class_nullspace(phi, psi, d, names)
        basis = self._bases[key]
        return [basis[k] for k in range(min(limit, len(basis)))]


class _Runner:
    """Collects verdicts for one named check, applying the corruption hook.

    With `corrupt` set, equality checks get their left-hand side shifted
    by one and boolean checks are inverted, so the check must fail and
    the reporting path is exercised end to end.  `kernels` is the suite
    run's shared `_KernelMemo`.
    """

    def __init__(self, name: str, corrupt: bool, kernels: _KernelMemo):
        self.name = name
        self.corrupt = corrupt
        self.kernels = kernels
        self.cases = 0
        self.failure: Verdict | None = None

    def add(self, verdict: Verdict) -> None:
        if self.corrupt and verdict.holds:
            verdict = Verdict(verdict.identity, False, lhs="corruption hook active", rhs="verdict inverted")
        self.cases += 1
        if not verdict.holds and self.failure is None:
            self.failure = verdict

    def equal(self, label: str, lhs, rhs) -> None:
        if self.corrupt:
            lhs = lhs + 1
        self.add(compare(label, lhs, rhs))

    def truth(self, label: str, value: bool, detail: str = "") -> None:
        if self.corrupt:
            value = not value
        self.cases += 1
        if not value and self.failure is None:
            self.failure = Verdict(label, False, lhs=detail or "expected condition", rhs="violated")

    def result(self) -> CheckResult:
        return CheckResult(self.name, self.failure is None, self.cases, self.failure)


def _rng_for(cfg: VerifyConfig, name: str) -> random.Random:
    return random.Random(f"{cfg.seed}|{name}")


def _field_trials(cfg: VerifyConfig, m: int) -> int:
    # Field identities cost much more at m = 5+; keep the default suite quick.
    return cfg.trials if m <= 4 else max(10, cfg.trials // 5)


def _pair_fields(cfg: VerifyConfig, rng: random.Random, odd_only: bool = False):
    """For each m and field trial, a random structural pair and then a random field."""
    for m in cfg.m_values:
        if odd_only and not m & 1:
            continue
        for _ in range(_field_trials(cfg, m)):
            phi, psi = rand_structural_pair(rng, m)
            yield phi, psi, rand_polyfield(rng, m, max_degree=cfg.degree)


# -- individual checks -------------------------------------------------------


def _check_dirac_factorization(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        for _ in range(_field_trials(cfg, m)):
            s = rand_rational_structural_set(rng, m)
            f = rand_polyfield(rng, m, max_degree=cfg.degree)
            minus_lap = -laplacian(f)
            run.equal("left-dirac-squared", dirac_left(s, dirac_left(s, f)), minus_lap)
            run.equal("right-dirac-squared", dirac_right(dirac_right(f, s), s), minus_lap)


def _check_sandwich_order(cfg, run):
    for phi, psi, f in _pair_fields(cfg, _rng_for(cfg, run.name)):
        run.equal(
            "sandwich-order-agreement",
            dirac_right(dirac_left(phi, f), psi),
            dirac_left(phi, dirac_right(f, psi)),
        )


def _check_subset_level1_rank(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        pairs = max(2, cfg.trials // 20)
        for _ in range(pairs):
            phi, psi = rand_structural_pair(rng, m)
            odd_sizes = [k for k in range(1, m + 1) if k & 1]
            for size in odd_sizes:
                subset = tuple(sorted(rng.sample(range(1, m + 1), size)))
                mat = psi_matrix(PsiOperator.subset_level1(phi, psi, subset))
                run.add(compare(f"subset-level1-rank[m={m},J={subset}]", mat.rank(), mat.ncols))


def _check_level1_bijective_odd_m(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        if not m & 1:
            continue
        for _ in range(max(2, cfg.trials // 20)):
            phi, psi = rand_structural_pair(rng, m)
            mat = psi_matrix(PsiOperator.level(phi, psi, 1))
            run.add(compare(f"level1-rank[m={m}]", mat.rank(), mat.ncols))


def _check_same_set_scalar_action(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        sets = [StructuralSet.standard(m), rand_signed_permutation(rng, m), rand_rational_structural_set(rng, m)]
        for s in sets:
            levels = [PsiOperator.level(s, s, j) for j in range(m + 1)]
            for mask in blade_order(m):
                blade = Multivector._of(m, {mask: 1})
                k = mask.bit_count()
                for j, op in enumerate(levels):
                    run.equal(
                        f"same-set-scalar-action[m={m},j={j},k={k}]",
                        op.apply(blade),
                        blade * scalar_action(m, j, k),
                    )


def _check_closed_form_vs_hypergeometric(cfg, run):
    for m in cfg.m_values:
        for j in range(m + 1):
            for k in range(m + 1):
                run.equal(
                    f"scalar-action-hypergeometric[m={m},j={j},k={k}]",
                    scalar_action(m, j, k),
                    scalar_action_hypergeometric(m, j, k),
                )


def _check_index_reflection(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        for _ in range(cfg.trials):
            phi = rand_rational_structural_set(rng, m)
            a = rand_multivector(rng, m)
            levels = [PsiOperator.level(phi, phi, j) for j in range(m + 1)]
            if m & 1:
                images = [level.apply(a) for level in levels]
                for j in range(m + 1):
                    run.add(check_index_reflection(images, j))
            else:
                images = [[level.apply(part) for level in levels] for part in map(a.grade_project, range(m + 1))]
                for j in range(m + 1):
                    for k in range(m + 1):
                        run.add(check_index_reflection(images[k], j, k))


def _check_plus_minus_closed_form(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        for _ in range(cfg.trials):
            phi = rand_rational_structural_set(rng, m)
            a = rand_multivector(rng, m)
            run.add(check_plus_minus_closed_form(phi, a))


def _check_plus_conjugation(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        for _ in range(max(5, cfg.trials // 2)):
            phi = rand_rational_structural_set(rng, m)
            a = rand_multivector(rng, m)
            run.add(check_plus_minus_conjugation(phi, a))


def _check_parity_split_commutation(cfg, run):
    for phi, psi, f in _pair_fields(cfg, _rng_for(cfg, run.name)):
        even, odd = f.even_part(), f.odd_part()
        sw = sandwich(phi, f, psi)
        run.equal("sandwich-even-part", sw.even_part(), sandwich(phi, even, psi))
        run.equal("sandwich-odd-part", sw.odd_part(), sandwich(phi, odd, psi))
        ll = dirac_left(phi, dirac_left(psi, f))
        run.equal("left-left-even-part", ll.even_part(), dirac_left(phi, dirac_left(psi, even)))
        run.equal("left-left-odd-part", ll.odd_part(), dirac_left(phi, dirac_left(psi, odd)))


def _check_even_odd_split_membership(cfg, run):
    for phi, psi, f in _pair_fields(cfg, _rng_for(cfg, run.name)):
        run.add(check_even_odd_split_membership(phi, psi, f))


def _check_dirac_psi1(cfg, run, which: str):
    for phi, psi, f in _pair_fields(cfg, _rng_for(cfg, run.name)):
        run.add(check_dirac_psi1_identities(phi, psi, f, which))


def _members_for(run: _Runner, phi: StructuralSet, psi: StructuralSet, names, limit=4):
    return [f for d in (2, 3) for f in run.kernels.members(phi, psi, names, d, limit)]


def _check_inframonogenic_equivalence(cfg, run):
    for phi, psi, f in _pair_fields(cfg, _rng_for(cfg, run.name), odd_only=True):
        run.add(check_inframonogenic_psi1_equivalence(PsiOperator.level(phi, psi, 1), f))
    if 3 in cfg.m_values:
        phi, psi = StructuralSet.standard(3), StructuralSet.reversed_standard(3)
        psi1 = PsiOperator.level(phi, psi, 1)
        for f in _members_for(run, phi, psi, (INFRAMONOGENIC,)):
            run.add(check_inframonogenic_psi1_equivalence(psi1, f))


def _check_second_order_criterion(cfg, run):
    for phi, psi, f in _pair_fields(cfg, _rng_for(cfg, run.name), odd_only=True):
        run.add(check_second_order_criterion(PsiOperator.level(phi, psi, 1), f))
    if 3 in cfg.m_values:
        phi, psi = StructuralSet.standard(3), StructuralSet.reversed_standard(3)
        psi1 = PsiOperator.level(phi, psi, 1)
        for f in _members_for(run, phi, psi, (TWO_SET_HARMONIC,)):
            run.add(check_second_order_criterion(psi1, f))


def _check_parts_sandwich(cfg, run):
    for phi, psi, f in _pair_fields(cfg, _rng_for(cfg, run.name)):
        run.add(check_parts_sandwich(phi, psi, f))


def _check_recursion(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        if m < 2:
            continue
        for _ in range(cfg.trials):
            phi, psi = rand_structural_pair(rng, m)
            a = rand_multivector(rng, m)
            k = rng.randint(1, m - 1)
            run.add(check_recursion(phi, psi, k, a))


def _check_aggregates_map_into_intersection(cfg, run, source: str):
    if 3 not in cfg.m_values:
        run.truth("skipped", True)
        return
    phi, psi = StructuralSet.standard(3), StructuralSet.reversed_standard(3)
    aggregates = (PsiOperator.plus(phi, psi), PsiOperator.minus(phi, psi))
    for f in _members_for(run, phi, psi, (source,), limit=6):
        for op in aggregates:
            image = op.apply(f)
            mem = classify(phi, psi, image)
            run.truth(
                f"aggregate-into-intersection[src={source}]",
                mem.harmonic and mem.inframonogenic,
                detail=f"image of {f} classifies as {mem.to_json()}",
            )


def _check_2d_components(cfg, run, form: str):
    if 2 not in cfg.m_values:
        run.truth("skipped", True)
        return
    rng = _rng_for(cfg, run.name)
    c1, c2 = Fraction(3, 5), Fraction(4, 5)
    phi = StructuralSet.standard(2)
    psi = StructuralSet.rotation_2d(c1, c2) if form == "rotation" else StructuralSet.reflection_2d(c1, c2)
    for _ in range(cfg.trials):
        comps = [rand_scalar_polyfield(rng, 2) for _ in range(4)]
        for kind, (actual, want) in zip(("even", "odd"), _two_dimensional_aggregates(phi, psi, comps)):
            run.equal(f"2d-{form}-{kind}-aggregate", actual, want)
    # Stated consequence: the indicated parity part of a harmonic or
    # inframonogenic field lands in the intersection of both kernels.
    for names in ((HARMONIC,), (INFRAMONOGENIC,)):
        for f in _members_for(run, phi, psi, names):
            part = f.even_part() if form == "rotation" else f.odd_part()
            mem = classify(phi, psi, part)
            run.truth(
                f"2d-{form}-part-in-intersection",
                mem.harmonic and mem.inframonogenic,
                detail=f"{part} classifies as {mem.to_json()}",
            )


def _check_aggregate_counterexample(cfg, run):
    rng = _rng_for(cfg, run.name)
    for m in cfg.m_values:
        if m < 2:
            continue
        for phi in (StructuralSet.standard(m), rand_rational_structural_set(rng, m)):
            _, mem_f, mem_image, holds = _counterexample_check(phi)
            run.truth(
                f"aggregate-counterexample[m={m}]",
                holds,
                detail=f"field {mem_f.to_json()}, image {mem_image.to_json()}",
            )


CHECKS = [
    ("dirac-factorization", _check_dirac_factorization),
    ("sandwich-order-agreement", _check_sandwich_order),
    ("subset-level1-bijective", _check_subset_level1_rank),
    ("level1-bijective-odd-m", _check_level1_bijective_odd_m),
    ("same-set-scalar-action", _check_same_set_scalar_action),
    ("scalar-action-hypergeometric", _check_closed_form_vs_hypergeometric),
    ("psi-index-reflection", _check_index_reflection),
    ("psi-plus-minus-closed-form", _check_plus_minus_closed_form),
    ("psi-plus-conjugation", _check_plus_conjugation),
    ("parity-split-commutation", _check_parity_split_commutation),
    ("even-odd-split-membership", _check_even_odd_split_membership),
    ("dirac-psi1-gradient", lambda cfg, run: _check_dirac_psi1(cfg, run, "gradient")),
    ("dirac-psi1-sandwich", lambda cfg, run: _check_dirac_psi1(cfg, run, "sandwich")),
    ("dirac-psi1-composition", lambda cfg, run: _check_dirac_psi1(cfg, run, "composition")),
    ("inframonogenic-psi1-equivalence", _check_inframonogenic_equivalence),
    ("second-order-criterion", _check_second_order_criterion),
    ("parts-sandwich", _check_parts_sandwich),
    ("psi-recursion", _check_recursion),
    ("harmonic-into-intersection", lambda cfg, run: _check_aggregates_map_into_intersection(cfg, run, HARMONIC)),
    ("inframonogenic-into-intersection", lambda cfg, run: _check_aggregates_map_into_intersection(cfg, run, INFRAMONOGENIC)),
    ("2d-rotation-components", lambda cfg, run: _check_2d_components(cfg, run, "rotation")),
    ("2d-reflection-components", lambda cfg, run: _check_2d_components(cfg, run, "reflection")),
    ("aggregate-counterexample", _check_aggregate_counterexample),
]


def check_names() -> list[str]:
    return [name for name, _ in CHECKS]


def run_suite(cfg: VerifyConfig) -> SuiteReport:
    report = SuiteReport(cfg)
    kernels = _KernelMemo()
    for name, fn in CHECKS:
        run = _Runner(name, corrupt=(cfg.corrupt == name), kernels=kernels)
        fn(cfg, run)
        report.results.append(run.result())
    return report
