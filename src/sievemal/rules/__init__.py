"""Parsing and evaluation of a YARA-language subset over raw file bytes."""

from .model import RuleSet
from .parser import parse_rules
from .engine import scan

__all__ = ["RuleSet", "parse_rules", "scan"]
