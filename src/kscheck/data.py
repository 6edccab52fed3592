"""Bundled scenario fixtures."""

from __future__ import annotations

from importlib import resources

from .dsl import parse_scenario
from .scenario import KSScenario


def cabello18_text() -> str:
    """Raw text of the bundled 18-ray, 9-context scenario file."""
    return resources.files(__package__).joinpath("data/cabello18.ks").read_text(encoding="utf-8")


def cabello18(*, merge: bool = True) -> KSScenario:
    """The bundled 18-ray, 9-context non-colorable set in dimension 4."""
    return parse_scenario(cabello18_text(), merge=merge)
