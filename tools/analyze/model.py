"""Backend-neutral intermediate representation for mellow-analyze.

Both frontends (frontend_clang.py, frontend_textual.py) lower the
source tree into a Project; the rules (rules.py) only ever consume this
IR, so every rule behaves identically under either backend up to the
precision of the facts a backend can extract.
"""

from __future__ import annotations

from dataclasses import dataclass, field

#: The strong types whose ``.value()`` is an escape from the typed
#: domain (see src/sim/strong_types.hh).
STRONG_TYPES = (
    "LogicalAddr",
    "LineIndex",
    "DeviceAddr",
    "LeveledAddr",
    "BankId",
    "ChannelId",
    "Picojoules",
    "PulseFactor",
)

#: Underlying template/class names the clang backend sees after alias
#: resolution, mapped back to "a strong type".
STRONG_CLASS_NAMES = ("StrongOrdinal", "Quantity", "PulseFactor")

#: Rule identifiers (shared with the suppression annotations).
RULE_VALUE_ESCAPE = "value-escape"
RULE_LAYERING = "layering"
RULE_NONDET_HANDLER = "nondet-handler"
RULE_REQUEST_LIFETIME = "request-lifetime"
#: Global-state confinement (tools/analyze/confinement.toml).
RULE_CONFINEMENT_GLOBAL = "confinement-global"
#: Parallel-protocol family (tools/analyze/protocol.toml).
RULE_LOCK_ORDER = "lock-order"
RULE_ATOMIC_ORDER = "atomic-order"
RULE_HANDLER_BLOCKING = "handler-blocking"

ALL_RULES = (
    RULE_VALUE_ESCAPE,
    RULE_LAYERING,
    RULE_NONDET_HANDLER,
    RULE_REQUEST_LIFETIME,
    RULE_CONFINEMENT_GLOBAL,
    RULE_LOCK_ORDER,
    RULE_ATOMIC_ORDER,
    RULE_HANDLER_BLOCKING,
)


@dataclass(frozen=True)
class Finding:
    rule: str
    file: str  # repo-relative path
    line: int  # 1-based
    message: str


@dataclass(frozen=True)
class ValueCall:
    """One ``<recv>.value()`` call on a strong type."""

    file: str
    line: int
    recv_type: str  # one of STRONG_TYPES (or a class name for clang)
    enclosing: str  # qualified enclosing function ("" if unknown)


@dataclass
class FunctionDef:
    """A function definition with the facts the determinism rule needs."""

    name: str  # qualified: "Class::method" or "freeFunction"
    file: str
    start: int  # 1-based body start line
    end: int  # 1-based body end line
    calls: list[tuple[str, int]] = field(default_factory=list)
    #: (identifier, line, what) for banned-API uses in the body.
    banned: list[tuple[str, int, str]] = field(default_factory=list)
    #: (line, container) for range-for over unordered containers.
    unordered_iters: list[tuple[int, str]] = field(default_factory=list)
    #: True for synthetic lambda functions rooted at EventQueue::schedule.
    is_schedule_root: bool = False


@dataclass
class Project:
    """Everything the rules consume."""

    #: path -> raw source lines.
    files: dict[str, list[str]] = field(default_factory=dict)
    #: path -> list of (line, included-path-as-written).
    includes: dict[str, list[tuple[int, str]]] = field(default_factory=dict)
    value_calls: list[ValueCall] = field(default_factory=list)
    functions: list[FunctionDef] = field(default_factory=list)
    #: type/alias name -> (module, defining header) for layering's
    #: cross-module symbol-reference check; ambiguous names excluded.
    symbols: dict[str, tuple[str, str]] = field(default_factory=dict)
