"""The seeded identity suite and its negative control."""

from cliffkit import solver
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

    def recording(op, space):
        result = original(op, space)
        built.append((op.name, space.m, space.degree, tuple(result.matrix._int_rows)))
        return result

    monkeypatch.setattr(solver, "operator_matrix", recording)
    report = run_suite(VerifyConfig(m_values=(2, 3), trials=2, seed=3))
    assert report.all_passed
    assert built and len(built) == len(set(built))
    assert {(name, m) for name, m, _, _ in built} >= {("laplacian", 2), ("laplacian", 3), ("sandwich", 3), ("left-left", 3)}
