"""Parsing and evaluation of a YARA-language subset over raw file bytes."""

from .model import (
    And,
    ConditionExpr,
    CountCmp,
    FilesizeCmp,
    MatchResult,
    Not,
    OfQuantifier,
    Or,
    PatternDef,
    Rule,
    RuleSet,
    Sha256Eq,
    StringMatch,
    UintCmp,
)
from .parser import parse_rules
from .engine import scan

__all__ = [
    "And", "ConditionExpr", "CountCmp", "FilesizeCmp", "MatchResult", "Not",
    "OfQuantifier", "Or", "PatternDef", "Rule", "RuleSet", "Sha256Eq",
    "StringMatch", "UintCmp", "parse_rules", "scan",
]
