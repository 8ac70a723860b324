"""Gauss line rules built from scratch."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from multiortho.quad import MAX_LINE_NODES, line_rule_nodes
from oracles import gamma_moment_oracle, gauss_node_oracle, gaussian_moment_oracle


# ---------------------------------------------------------------------------
# Gauss line rules


def test_gaussian_rule_examples():
    rule = line_rule_nodes("gaussian", 1)
    assert rule.nodes[0] == 0.0
    assert rule.weights[0] == pytest.approx(math.sqrt(2 * math.pi), rel=1e-15)

    rule3 = line_rule_nodes("gaussian", 3)
    second = float(np.sum(rule3.weights * rule3.nodes**2))
    assert second == pytest.approx(math.sqrt(2 * math.pi), rel=1e-13)


def test_exponential_rule_example():
    rule = line_rule_nodes("exponential", 2, 1)
    third = float(np.sum(rule.weights * rule.nodes**3))
    assert third == pytest.approx(6.0, rel=1e-12)


@given(st.integers(1, 40))
def test_gaussian_moments_exact_to_degree(n):
    """An n-point rule integrates x^j exactly for j <= 2n-1 (weight e^{-x^2/2},
    normalized so moments carry the sqrt(2*pi) factor)."""
    rule = line_rule_nodes("gaussian", n)
    root = math.sqrt(2 * math.pi)
    for j in range(0, 2 * n, max(1, (2 * n) // 7)):
        got = float(np.sum(rule.weights * rule.nodes ** j))
        want = float(gaussian_moment_oracle(j)) * root
        # odd moments cancel between symmetric nodes; measure the error
        # against the non-cancelling magnitude of the summands
        scale = float(np.sum(rule.weights * np.abs(rule.nodes) ** j))
        assert abs(got - want) <= 1e-13 * max(scale, 1.0)


@given(
    st.integers(1, 30),
    st.fractions(min_value=1, max_value=4, max_denominator=4).map(float),
)
def test_exponential_moments_exact_to_degree(n, beta):
    rule = line_rule_nodes("exponential", n, beta)
    for j in range(0, 2 * n, max(1, (2 * n) // 7)):
        got = float(np.sum(rule.weights * rule.nodes ** j))
        want = float(gamma_moment_oracle(j, beta))
        assert got == pytest.approx(want, rel=1e-11)


def test_lifted_weights_consistency():
    """lifted = weight * e^{+W(x)} so that sum(lifted * f) integrates f alone;
    check integral of e^{-x^2/2} equals sqrt(2*pi)."""
    rule = line_rule_nodes("gaussian", 48)
    got = float(np.sum(rule.lifted * np.exp(-rule.nodes**2 / 2)))
    assert got == pytest.approx(math.sqrt(2 * math.pi), rel=1e-12)

    erule = line_rule_nodes("exponential", 48, 2.0)
    got2 = float(np.sum(erule.lifted * np.exp(-2.0 * erule.nodes)))
    assert got2 == pytest.approx(0.5, rel=1e-10)


def test_rules_are_read_only_and_capped():
    rule = line_rule_nodes("gaussian", 8)
    with pytest.raises(ValueError):
        rule.nodes[0] = 1.0
    assert MAX_LINE_NODES == 512
    big = line_rule_nodes("gaussian", MAX_LINE_NODES)
    assert big.nodes.size == MAX_LINE_NODES
    assert np.all(np.diff(big.nodes) > 0)


def test_max_size_rules_high_degree():
    rule = line_rule_nodes("gaussian", MAX_LINE_NODES)
    j = 20
    got = float(np.sum(rule.weights * rule.nodes**j))
    want = float(gaussian_moment_oracle(j)) * math.sqrt(2 * math.pi)
    assert got == pytest.approx(want, rel=1e-11)


@pytest.mark.parametrize("kind, bound", [("gaussian", 2e-15), ("exponential", 2e-12)])
def test_max_size_nodes_match_high_precision_roots(kind, bound):
    """Twenty nodes of each 512-node rule (the three smallest, the three
    largest, the two middle ones and a spread between) against the roots of
    the monic He_512 / L_512 refined by Newton at 40 digits."""
    n = MAX_LINE_NODES
    nodes = line_rule_nodes(kind, n).nodes
    picks = np.unique(
        np.r_[0:3, n // 2 - 1 : n // 2 + 1, np.linspace(0, n - 1, 14).round().astype(int), n - 3 : n]
    )
    roots = gauss_node_oracle(kind, n, nodes[picks])
    rel = [float(abs((z - r) / r)) for z, r in zip(nodes[picks], roots)]
    assert len(rel) == 20
    assert max(rel) <= bound
