"""Minimal SARIF 2.1.0 emitter shared by mellow-analyze and
mellow-configcheck.

``to_sarif`` defaults to the mellow-analyze driver identity so existing
callers are unchanged; configcheck passes its own tool name, rule list
and descriptions.
"""

from __future__ import annotations

import json

from model import ALL_RULES, Finding

_RULE_DESCRIPTIONS = {
    "value-escape":
        "`.value()` on a strong type outside the whitelisted "
        "conversion sites escapes the typed address/unit domain.",
    "layering":
        "Include or symbol reference crossing module layers outside "
        "the manifest in tools/analyze/layers.toml.",
    "nondet-handler":
        "Nondeterministic API (wall clock, raw RNG, unordered "
        "iteration, I/O) reachable from an EventQueue::schedule "
        "callback.",
    "request-lifetime":
        "A request object is read after ownership was handed to a "
        "queue.",
    "confinement-global":
        "Mutable static-storage state that is not std::atomic, a "
        "sync.hh type, thread_local or const races under the parallel "
        "sweep (tools/analyze/confinement.toml [global]).",
    "lock-order":
        "A cycle in the whole-program lock-acquisition graph built "
        "from LockGuard scopes and MELLOW_REQUIRES annotations: a "
        "static deadlock (tools/analyze/protocol.toml [lock_order]).",
    "atomic-order":
        "A raw std::atomic / std::memory_order spelling outside the "
        "sync.hh wrapper home, or a RelaxedCounter read feeding "
        "control flow instead of statistics "
        "(tools/analyze/protocol.toml [atomic_order]).",
    "handler-blocking":
        "A mutex acquisition or blocking call reachable from an "
        "EventQueue::schedule handler; a blocking handler stalls its "
        "simulation on another thread "
        "(tools/analyze/protocol.toml [handler_blocking]).",
}


def to_sarif(findings: list[Finding], tool_version: str = "1.0.0",
             tool_name: str = "mellow-analyze",
             information_uri: str = "tools/analyze/mellow_analyze.py",
             rule_ids: tuple[str, ...] | None = None,
             rule_descriptions: dict[str, str] | None = None) -> str:
    if rule_ids is None:
        rule_ids = ALL_RULES
    if rule_descriptions is None:
        rule_descriptions = _RULE_DESCRIPTIONS
    rules = [
        {
            "id": rule,
            "shortDescription": {"text": rule_descriptions.get(rule, rule)},
            "defaultConfiguration": {"level": "error"},
        }
        for rule in rule_ids
    ]
    results = [
        {
            "ruleId": f.rule,
            "level": "error",
            "message": {"text": f.message},
            "locations": [
                {
                    "physicalLocation": {
                        "artifactLocation": {
                            "uri": f.file,
                            "uriBaseId": "SRCROOT",
                        },
                        "region": {"startLine": f.line},
                    }
                }
            ],
        }
        for f in findings
    ]
    doc = {
        "$schema": ("https://raw.githubusercontent.com/oasis-tcs/"
                    "sarif-spec/master/Schemata/sarif-schema-2.1.0.json"),
        "version": "2.1.0",
        "runs": [
            {
                "tool": {
                    "driver": {
                        "name": tool_name,
                        "informationUri": information_uri,
                        "version": tool_version,
                        "rules": rules,
                    }
                },
                "originalUriBaseIds": {"SRCROOT": {"uri": "file:///"}},
                "results": results,
            }
        ],
    }
    return json.dumps(doc, indent=2)
