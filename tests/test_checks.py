"""The mutation harness reruns only what a fault can reach."""

import pytest

from bosonreg import checks
from bosonreg.checks import MUTATIONS, Toolkit, VerifyConfig, run_criteria

FAULT_FREE = [(name, fn) for name, fn, uses_kit in checks._CRITERIA if not uses_kit]

CONFIGS = [VerifyConfig(), VerifyConfig(rank=8, alpha=1.3, beta=0.8, hbar=1.1)]


def test_fault_free_criteria_are_named():
    assert [name for name, _ in FAULT_FREE] == [
        "product-table-closure",
        "phase-covariance",
        "bosonic-filter",
    ]


@pytest.mark.parametrize("cfg", CONFIGS, ids=["defaults", "rank8"])
@pytest.mark.parametrize("name,fn", FAULT_FREE, ids=[name for name, _ in FAULT_FREE])
def test_fault_free_parts_do_not_depend_on_the_toolkit(cfg, name, fn):
    unmutated = fn(cfg, Toolkit(cfg.params))
    for mutation in MUTATIONS[1:]:
        assert fn(cfg, Toolkit(cfg.params, mutation)) == unmutated, mutation


def _outcome(r):
    return r.name, r.passed, r.max_deviation, r.tolerance, r.detail


def test_sensitivity_detail_matches_full_reruns():
    cfg = VerifyConfig()
    *unmutated, sensitivity = run_criteria(cfg)
    notes = []
    for mutation in MUTATIONS[1:]:
        full = run_criteria(cfg, mutation)
        reused = checks._run_base(cfg, mutation, unmutated)
        assert [_outcome(r) for r in reused] == [_outcome(r) for r in full], mutation
        failed = [r.name for r in full if not r.passed]
        notes.append(f"{mutation} -> {', '.join(failed) if failed else 'nothing'}")
    assert sensitivity.name == "mutation-sensitivity"
    assert sensitivity.detail == "; ".join(notes)


def test_fault_free_criteria_run_once_per_default_run(monkeypatch):
    calls = {name: 0 for name, _, _ in checks._CRITERIA}

    def counted(name, fn):
        def wrapper(cfg, kit):
            calls[name] += 1
            return fn(cfg, kit)

        return wrapper

    monkeypatch.setattr(
        checks,
        "_CRITERIA",
        tuple((name, counted(name, fn), uses_kit) for name, fn, uses_kit in checks._CRITERIA),
    )
    results = run_criteria(VerifyConfig())
    assert len(results) == 12
    expected = {name: 4 if uses_kit else 1 for name, _, uses_kit in checks._CRITERIA}
    assert calls == expected
    assert sum(calls.values()) == 35
