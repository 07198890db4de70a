"""The shipped rule pack.

Importing this package registers every built-in rule exactly once;
:func:`repro.analysis.registry.available_rules` triggers the import on
demand, so consumers never need to import the pack explicitly.
"""

from __future__ import annotations

from repro.analysis.registry import _REGISTRY, register_rule
from repro.analysis.rules.determinism import (
    UnorderedIterationRule,
    UnseededRngRule,
    WallClockRule,
)
from repro.analysis.rules.obs import SpanOutsideWithRule
from repro.analysis.rules.units import UnitSuffixRule

__all__ = [
    "UnseededRngRule",
    "WallClockRule",
    "UnorderedIterationRule",
    "UnitSuffixRule",
    "SpanOutsideWithRule",
]

_DEFAULT_RULES = (
    UnseededRngRule,
    WallClockRule,
    UnorderedIterationRule,
    UnitSuffixRule,
    SpanOutsideWithRule,
)

for _rule_class in _DEFAULT_RULES:
    if _rule_class.code not in _REGISTRY:
        register_rule(_rule_class())
