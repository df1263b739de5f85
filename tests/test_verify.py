"""The acceptance suites fail when one of their checks is violated.

Each case breaks one input of one check at tier "quick" and asserts that the
suite fails on that check, so a check cannot silently stop being enforced.
"""

import dataclasses
import json
from fractions import Fraction

import pytest

from shatterlab import dtree, randgen, scan, verify
from shatterlab.complexes import SimplicialComplex
from shatterlab.verify import DEFAULT_SEED


def _witness_off_the_unrooted_set(monkeypatch):
    real = dtree.min_density_bruteforce

    def fake(tree, **kwargs):
        value, witness = real(tree, **kwargs)
        return value, witness & (witness - 1)  # same density, one vertex fewer

    monkeypatch.setattr(dtree, "min_density_bruteforce", fake)


def _lone_vertex_in_one_cell(monkeypatch):
    real = dtree.build_Tr

    def fake(d, q, r):
        tree = real(d, q, r)
        if (d, q, r) != (2, 2, 1):
            return tree
        n = tree.complex.n
        grown = SimplicialComplex(n + 1, tree.complex.faces | {1 << n})
        return dataclasses.replace(tree, complex=grown)

    monkeypatch.setattr(dtree, "build_Tr", fake)


def _wrong_growth_exponent(monkeypatch):
    monkeypatch.setattr(randgen, "growth_exponent", lambda s: Fraction(7, 4))


def _wrong_g_k(monkeypatch):
    monkeypatch.setattr(randgen, "g_k", lambda n, k: 93)


def _short_scan(monkeypatch):
    real = scan.dim_ge1_counts
    monkeypatch.setattr(scan, "dim_ge1_counts", lambda *args: real(*args)[:-1])


def _no_embedding_pairs(monkeypatch):
    monkeypatch.setattr(verify, "delta_d", lambda cx, d: 0)


@pytest.mark.parametrize(
    "suite, breaks, message",
    [
        ("dtree-grid", _witness_off_the_unrooted_set, "not at the unrooted vertices"),
        ("dtree-grid", _lone_vertex_in_one_cell, "(d=2,Q=2,r=1) complex is not a d-tree"),
        ("growth", _wrong_growth_exponent, "target exponent 7/4"),
        ("bh-probe", _wrong_growth_exponent, "target exponent 7/4 != 11/5"),
        ("bh-probe", _wrong_g_k, "!= 92"),
        ("prune-guarantee", _short_scan, "not C(80,4)"),
        ("embedding", _no_embedding_pairs, "need 10"),
    ],
    ids=[
        "witness", "d-tree", "growth-target", "probe-target", "probe-g_k_m", "scan-length", "pairs"
    ],
)
def test_suite_fails_on_a_broken_check(monkeypatch, suite, breaks, message):
    breaks(monkeypatch)
    result = verify.SUITES[suite]("quick", DEFAULT_SEED)
    assert not result.passed
    assert any(message in failure for failure in result.failures), result.failures


@pytest.mark.parametrize(
    "suite", sorted(name for name, s in verify.SUITES.items() if s.ceiling_s is not None)
)
def test_suite_fails_over_its_ceiling(monkeypatch, suite):
    record = dataclasses.replace(verify.SUITES[suite], ceiling_s=0.0)
    monkeypatch.setitem(verify.SUITES, suite, record)
    result = verify.SUITES[suite]("quick", DEFAULT_SEED)
    assert not result.passed
    assert result.failures[-1].endswith("ceiling 0.0 s")


def test_suite_line_writes_an_undefined_value_as_null():
    result = verify.SuiteResult("s", True, "t", {"exponent": float("nan")})
    assert json.loads(result.line())["measured"] == {"exponent": None}
