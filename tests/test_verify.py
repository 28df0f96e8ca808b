"""The seeded identity suite and its negative control."""

from collections import Counter
from functools import cached_property

from cliffkit import solver
from cliffkit.psi import PsiOperator
from cliffkit.verify import VerifyConfig, check_names, run_suite

QUICK = VerifyConfig(m_values=(2, 3), trials=4, seed=42)


def test_quick_suite_passes():
    report = run_suite(QUICK)
    assert report.all_passed
    assert [r.name for r in report.results] == check_names()
    assert all(r.cases > 0 for r in report.results)


def test_suite_is_deterministic():
    a = run_suite(QUICK).to_text()
    b = run_suite(QUICK).to_text()
    assert a == b


def test_different_seeds_change_nothing_about_validity():
    report = run_suite(VerifyConfig(m_values=(2, 3), trials=3, seed=20260808))
    assert report.all_passed


def test_corruption_hook_fails_named_check_only():
    report = run_suite(VerifyConfig(m_values=(2,), trials=2, corrupt="psi-recursion"))
    assert not report.all_passed
    failing = [r for r in report.results if not r.passed]
    assert [r.name for r in failing] == ["psi-recursion"]
    assert failing[0].failure is not None
    assert "psi-recursion" in failing[0].failure.identity
    text = report.to_text()
    assert "FAIL" in text and "psi-recursion" in text


def test_json_report_schema():
    report = run_suite(VerifyConfig(m_values=(2,), trials=2))
    payload = report.to_json()
    assert set(payload) == {"m", "trials", "seed", "degree", "allPass", "results"}
    for entry in payload["results"]:
        assert set(entry) == {"identity", "holds", "cases", "lhs", "rhs"}


def test_each_class_matrix_is_built_once_per_run(monkeypatch):
    built = []
    original = solver.operator_matrix

    def recording(op, space, **kwargs):
        result = original(op, space, **kwargs)
        built.append((op.name, space.m, space.degree, tuple(result.matrix._int_rows)))
        return result

    monkeypatch.setattr(solver, "operator_matrix", recording)
    report = run_suite(VerifyConfig(m_values=(2, 3), trials=2, seed=3))
    assert report.all_passed
    assert built and len(built) == len(set(built))
    assert {(name, m) for name, m, _, _ in built} >= {("laplacian", 2), ("laplacian", 3), ("sandwich", 3), ("left-left", 3)}


def test_no_psi_operator_is_prepared_twice_for_the_same_sets(monkeypatch):
    # Each check keeps the operator it applies several times, so each (phi, psi, family) table is built once.
    prepared, alive = Counter(), []
    original = PsiOperator.__dict__["_pairs"].func

    def recording(op):
        alive.append(op)  # keeps the sets alive, so their ids are not reused
        prepared[id(op.phi), id(op.psi), op.index_sets] += 1
        return original(op)

    table = cached_property(recording)
    table.__set_name__(PsiOperator, "_pairs")
    monkeypatch.setattr(PsiOperator, "_pairs", table)
    assert run_suite(VerifyConfig(m_values=(2, 3, 4, 5), trials=1, degree=3)).all_passed
    assert prepared
    assert {key: n for key, n in prepared.items() if n > 1} == {}
