"""Shared fixtures: one fully-analyzed polytope per acceptance-family member."""
from __future__ import annotations

import pytest

from figurate.lattice import parse_builtin
from figurate.pipeline import Analysis

ACCEPTANCE_FAMILY = (
    ["simplex:%d" % d for d in range(1, 6)]
    + ["cube:%d" % d for d in range(1, 6)]
    + ["cross:%d" % d for d in range(1, 6)]
    + ["pyramid:square", "prism:triangle", "bipyramid:square"]
)


def make_bundle(spec: str, seed: int = 0, points: int = 3) -> Analysis:
    return Analysis(parse_builtin(spec), seed=seed, points=points)


@pytest.fixture(scope="session")
def family() -> dict[str, Analysis]:
    return {spec: make_bundle(spec) for spec in ACCEPTANCE_FAMILY}


@pytest.fixture(scope="session")
def cube3(family) -> Analysis:
    return family["cube:3"]


@pytest.fixture(scope="session")
def square(family) -> Analysis:
    return family["cube:2"]
