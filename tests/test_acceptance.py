"""Acceptance gate: one test per criterion, each printing a PASS/FAIL line.

These run the full verification suites (exhaustive corpora plus seeded
random samples), so this module is by far the slowest part of the test run;
stated wall-clock budgets are asserted alongside exactness.
"""

import pytest

from dodgreedy import selftest

pytestmark = pytest.mark.slow


@pytest.fixture(scope="module")
def greedy_and_ratio():
    return selftest.check_greedy_and_ratio()


def report(result, limit=None):
    verdict = "PASS" if result.passed else "FAIL"
    print(f"{result.name}: {verdict} ({result.seconds:.1f}s) {result.detail}")
    assert result.passed, result.detail
    if limit is not None:
        assert result.seconds < limit, f"{result.name} took {result.seconds:.1f}s"


def test_criterion_1_golden_vectors():
    report(selftest.check_golden_vectors(), limit=1.0)


def test_criterion_2_score_oracle():
    report(selftest.check_score_oracle(), limit=300.0)


def test_criterion_3_greedy_oracle(greedy_and_ratio):
    report(greedy_and_ratio[0], limit=600.0)


def test_criterion_4_ratio_consistency(greedy_and_ratio):
    report(greedy_and_ratio[1], limit=600.0)


def test_criterion_5_trees_greedy_optimal():
    report(selftest.check_trees_greedy_optimal(), limit=120.0)


def test_criterion_6_transform_contract():
    report(selftest.check_transform_contract(), limit=600.0)


def test_criterion_7_reduction_soundness():
    report(selftest.check_reduction_soundness())


def test_criterion_8_pipeline_agreement():
    report(selftest.check_pipeline_agreement())


def test_criterion_9_witness_replay():
    report(selftest.check_witness_replay())
