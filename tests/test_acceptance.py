"""Acceptance suite: one check per criterion, each printing a pass/fail line.

The checks themselves live next to the verify-paper command so that the CLI
and the test suite exercise the identical code paths.
"""

import pytest

import cfkzero.knots as knots
from cfkzero.cli import (
    _check_cable_closed_forms,
    _check_involutive,
    _check_properties,
    _check_regimes,
    _check_sharpness,
    _check_staircase_extraction,
    _check_sum_oracle,
)

CRITERIA = [
    ("criterion-1 staircase extraction", _check_staircase_extraction, "3 staircases"),
    ("criterion-2 cabling closed forms", _check_cable_closed_forms, "both printed sequences match"),
    ("criterion-3 connected-sum oracle equivalence", _check_sum_oracle, "234 host/summand pairs agree"),
    ("criterion-4 local-equivalence regimes", _check_regimes, "31 regime checks"),
    ("criterion-5 cable sharpness and tau", _check_sharpness, "72 cables"),
    ("criterion-6 involutive identities", _check_involutive, "117 lemma verifications"),
    ("criterion-7 randomized property suites", _check_properties, "1060 randomized cases"),
]


@pytest.mark.parametrize("name,check,want", CRITERIA, ids=[name for name, _, _ in CRITERIA])
def test_acceptance_criterion(name, check, want):
    passed, detail = check()
    print(f"{'PASS' if passed else 'FAIL'} {name}: {detail}")
    assert passed, f"{name}: {detail}"
    assert detail == want


def test_criteria_4_and_7_run_the_sum_pipeline(monkeypatch):
    # gamma0_of would answer E # -E by cancellation and T(2,q) summands by
    # the closed form, so a fault of the pipeline would pass unseen; here
    # the pipeline is wrong on every sum of two knots
    real = knots._sum_gamma0

    def wrong(s1, s2):
        return real(s1, s2) if not s1 or not s2 else ((1, -1), 0)

    monkeypatch.setattr(knots, "_sum_gamma0", wrong)
    for check in (_check_regimes, _check_properties):
        passed, detail = check()
        assert not passed, detail
