"""Rule AST: pattern definitions, condition expression nodes, rules and sets."""

from __future__ import annotations

from dataclasses import dataclass, field

MAX_CONDITION_DEPTH = 64
MAX_HEX_JUMP = 4096


@dataclass(frozen=True)
class PatternDef:
    id: str                       # includes the leading '$'
    kind: str                     # "text" | "hex" | "regex"
    body: object                  # text: bytes; hex: tuple of items; regex: str
    modifiers: frozenset = frozenset()


# --- condition expression nodes -------------------------------------------

@dataclass(frozen=True)
class StringMatch:
    id: str


@dataclass(frozen=True)
class CountCmp:
    id: str                       # includes the leading '#'
    op: str
    value: int


@dataclass(frozen=True)
class OfQuantifier:
    count: object                 # int | "any" | "all"
    ids: tuple | None             # None means "them"


@dataclass(frozen=True)
class FilesizeCmp:
    op: str
    value: int


@dataclass(frozen=True)
class UintCmp:
    width: int                    # 8 | 16 | 32
    offset: int
    op: str
    value: int


@dataclass(frozen=True)
class Sha256Eq:
    digest: str                   # lowercase hex


@dataclass(frozen=True)
class And:
    items: tuple


@dataclass(frozen=True)
class Or:
    items: tuple


@dataclass(frozen=True)
class Not:
    item: object


def condition_depth(node) -> int:
    if isinstance(node, (And, Or)):
        return 1 + max(condition_depth(i) for i in node.items)
    if isinstance(node, Not):
        return 1 + condition_depth(node.item)
    return 1


def referenced_ids(node) -> list:
    """The $id / #id references of a condition tree in source order, repeats
    included (normalized to '$' form)."""
    if isinstance(node, StringMatch):
        return [node.id]
    if isinstance(node, CountCmp):
        return ["$" + node.id[1:]]
    if isinstance(node, OfQuantifier):
        return list(node.ids or ())
    if isinstance(node, (And, Or)):
        return [ref for item in node.items for ref in referenced_ids(item)]
    if isinstance(node, Not):
        return referenced_ids(node.item)
    return []


@dataclass(frozen=True)
class Rule:
    name: str
    tags: tuple = ()
    meta: dict = field(default_factory=dict)
    strings: tuple = ()
    condition: object = None


@dataclass(frozen=True)
class RuleSet:
    rules: tuple
    role: str = "blocklist"       # "blocklist" | "allowlist"

    def __len__(self):
        return len(self.rules)


@dataclass(frozen=True)
class MatchResult:
    fired: tuple                  # ((rule_name, {pattern_id: (offsets...)}), ...)

    @property
    def verdict(self) -> bool:
        return bool(self.fired)

    @property
    def rule_names(self):
        return tuple(name for name, _ in self.fired)
