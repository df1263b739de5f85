"""Acceptance gate: one test per `verify.SUITES` suite, at tier "full".

Every criterion, its tolerance and its wall-time ceiling are defined once,
in `shatterlab.verify`.  Each test here only runs its suite at the full
stated scale with the default seed, prints the line `verify-paper` prints
for it (visible under -s) and asserts that the suite passed; `verify-paper
--tier full` runs the same suites.  The tests keep the names of the criteria
they check.
"""

import pytest

from shatterlab import verify
from shatterlab.verify import DEFAULT_SEED

pytestmark = pytest.mark.filterwarnings("error::RuntimeWarning")

TEST_NAMES = {
    "dtree-grid": "test_criterion_1_and_2_dtree_grid",
    "compression": "test_criterion_3_compression",
    "sauer": "test_criterion_4_sauer",
    "growth": "test_criterion_5_growth_exponents",
    "prune-guarantee": "test_criterion_6_prune_guarantee",
    "overlap": "test_criterion_7_overlap_witness",
    "embedding": "test_criterion_8_embedding_bound",
    "extremal": "test_criterion_9_extremal_oracle",
    "bounds": "test_criterion_10_bound_identities",
    "bh-probe": "test_criterion_11_bondy_hajnal_probe",
}


def _suite_test(name: str):
    def test():
        result = verify.SUITES[name]("full", DEFAULT_SEED)
        print(result.line(), flush=True)
        assert result.passed, result.failures[:5]

    return test


for _name in verify.SUITES:  # a suite without an entry in TEST_NAMES fails collection
    globals()[TEST_NAMES[_name]] = _suite_test(_name)
