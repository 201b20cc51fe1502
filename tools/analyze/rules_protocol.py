"""The parallel-protocol rule family (lock-order, atomic-order,
handler-blocking), driven by tools/analyze/protocol.toml.

These rules verify what running independent Systems side by side
(runConfigs, DESIGN.md §11) needs from the code: a cycle-free
whole-program lock graph, raw atomics confined to the sync.hh
wrappers, and event handlers that never block. Like the confinement
rule, every fact is computed lexically over the shared IR file map
(plus the frontend-built call graph), so both frontends agree by
construction.
"""

from __future__ import annotations

import re
from collections import defaultdict

from frontend_textual import strip_comments_and_strings
from model import (
    RULE_ATOMIC_ORDER,
    RULE_HANDLER_BLOCKING,
    RULE_LOCK_ORDER,
    Finding,
    Project,
)
from rules import _blocks_in, _module_of

# --- Shared lexical helpers -----------------------------------------

#: `LockGuard guard(<mutex expr>);` acquisition sites (optionally
#: namespace-qualified, as in `sync::LockGuard`).
_GUARD_RE = re.compile(
    r"\b(?:sync\s*::\s*)?LockGuard\s+\w+\s*\(\s*([^()]+?)\s*\)")

#: Bare `<expr>.lock()` acquisition (the rare non-RAII site).
_BARE_LOCK_RE = re.compile(r"([A-Za-z_]\w*)\s*\.\s*lock\s*\(\s*\)")

_REQUIRES_RE = re.compile(r"\bMELLOW_REQUIRES\s*\(([^()]*)\)")


def _normalize_lock(expr: str, enclosing: str) -> str:
    """Canonical identity of a lock expression: strip dereferences and
    `this->`, and qualify bare member-looking names with the enclosing
    class so `_mutex` in two classes stays two locks."""
    expr = expr.strip()
    expr = re.sub(r"^\s*(?:this\s*->\s*|[*&]\s*)+", "", expr)
    expr = re.sub(r"\s+", "", expr)
    if "::" in expr or "." in expr or "->" in expr:
        return expr
    if "::" in enclosing:
        cls = enclosing.rsplit("::", 1)[0]
        return f"{cls}::{expr}"
    return expr


def _function_acquisitions(func, clean):
    """(lock_id, line, col, scope_end) for every LockGuard declared in
    @p func's body, scope_end being the close line of the innermost
    block containing the declaration (the RAII release point)."""
    blocks = _blocks_in(clean, func.start, func.end)
    sites = []
    for ln in range(func.start, func.end + 1):
        text = clean[ln - 1]
        for m in _GUARD_RE.finditer(text):
            lock = _normalize_lock(m.group(1), func.name)
            enclosing = [c for o, c, _h in blocks if o <= ln <= c]
            scope_end = min(enclosing) if enclosing else func.end
            sites.append((lock, ln, m.start(), scope_end))
    return sites


def _function_requires(func, clean) -> list[str]:
    """Locks a MELLOW_REQUIRES annotation on @p func's signature says
    are held at entry (signature lines scanned like request-lifetime:
    a few lines above the body open)."""
    held = []
    for ln in range(max(1, func.start - 4), func.start + 1):
        for m in _REQUIRES_RE.finditer(clean[ln - 1]):
            for arg in m.group(1).split(","):
                if arg.strip():
                    held.append(_normalize_lock(arg, func.name))
    return held


def _cleaned(project: Project) -> dict[str, list[str]]:
    return {p: strip_comments_and_strings(ls)
            for p, ls in project.files.items()}


# --- Rule 6: static deadlock-freedom (lock-order) -------------------


def check_lock_order(project: Project, protocol: dict,
                     src_root: str = "src") -> list[Finding]:
    """Build the whole-program lock-acquisition graph — edge A -> B
    when B is acquired (directly, or transitively through a call)
    while A is held via a LockGuard scope or a MELLOW_REQUIRES
    annotation — and report every cycle as a static deadlock."""
    cleaned = _cleaned(project)

    funcs = [f for f in project.functions
             if _module_of(f.file, src_root) is not None
             and f.file in cleaned]

    # Per-function facts.
    acq: dict[int, list] = {}
    req: dict[int, list[str]] = {}
    bare: dict[int, list] = {}
    for f in funcs:
        clean = cleaned[f.file]
        acq[id(f)] = _function_acquisitions(f, clean)
        req[id(f)] = _function_requires(f, clean)
        bare[id(f)] = [
            (_normalize_lock(m.group(1), f.name), ln)
            for ln in range(f.start, f.end + 1)
            for m in _BARE_LOCK_RE.finditer(clean[ln - 1])]

    # Transitive "locks acquired inside" per function, via a fixpoint
    # over the simple-name call graph (same resolution as the
    # determinism rule: conservative, both frontends agree).
    by_simple: dict[str, list] = defaultdict(list)
    for f in funcs:
        by_simple[f.name.split("::")[-1]].append(f)
    trans: dict[int, set[str]] = {
        id(f): {a[0] for a in acq[id(f)]} | {b[0] for b in bare[id(f)]}
        for f in funcs}
    changed = True
    while changed:
        changed = False
        for f in funcs:
            mine = trans[id(f)]
            before = len(mine)
            for callee, _ln in f.calls:
                for target in by_simple.get(callee, []):
                    mine |= trans[id(target)]
            if len(mine) != before:
                changed = True

    # Edges with a deterministic representative site each.
    edges: dict[tuple[str, str], tuple[str, int]] = {}

    def add_edge(a: str, b: str, site: tuple[str, int]) -> None:
        if a == b:
            # Self-edge: re-acquiring a held (non-recursive) mutex.
            edges.setdefault((a, b), site)
            return
        edges.setdefault((a, b), site)

    for f in funcs:
        sites = sorted(acq[id(f)], key=lambda s: (s[1], s[2]))

        def held_at(ln: int, col: int) -> list[str]:
            held = list(req[id(f)])
            for lock, l0, c0, scope_end in sites:
                if (l0, c0) < (ln, col) and ln <= scope_end:
                    held.append(lock)
            return held

        for lock, ln, col, _scope in sites:
            for a in held_at(ln, col):
                add_edge(a, lock, (f.file, ln))
        for lock, ln in bare[id(f)]:
            for a in held_at(ln, 10 ** 9):
                add_edge(a, lock, (f.file, ln))
        for callee, ln in f.calls:
            inner: set[str] = set()
            for target in by_simple.get(callee, []):
                inner |= trans[id(target)]
            if not inner:
                continue
            for a in held_at(ln, 10 ** 9):
                for b in sorted(inner):
                    add_edge(a, b, (f.file, ln))

    # Cycle detection: iterative Tarjan SCC; every SCC with more than
    # one lock (or a self-edge) is a static deadlock.
    graph: dict[str, list[str]] = defaultdict(list)
    for a, b in edges:
        graph[a].append(b)
    for succs in graph.values():
        succs.sort()

    index: dict[str, int] = {}
    low: dict[str, int] = {}
    on_stack: set[str] = set()
    stack: list[str] = []
    sccs: list[list[str]] = []
    counter = [0]

    def strongconnect(root: str) -> None:
        work = [(root, iter(graph.get(root, [])))]
        index[root] = low[root] = counter[0]
        counter[0] += 1
        stack.append(root)
        on_stack.add(root)
        while work:
            node, it = work[-1]
            advanced = False
            for succ in it:
                if succ not in index:
                    index[succ] = low[succ] = counter[0]
                    counter[0] += 1
                    stack.append(succ)
                    on_stack.add(succ)
                    work.append((succ, iter(graph.get(succ, []))))
                    advanced = True
                    break
                if succ in on_stack:
                    low[node] = min(low[node], index[succ])
            if advanced:
                continue
            work.pop()
            if work:
                parent = work[-1][0]
                low[parent] = min(low[parent], low[node])
            if low[node] == index[node]:
                comp = []
                while True:
                    w = stack.pop()
                    on_stack.discard(w)
                    comp.append(w)
                    if w == node:
                        break
                sccs.append(comp)

    for node in sorted(graph):
        if node not in index:
            strongconnect(node)

    findings = []
    for comp in sccs:
        comp = sorted(comp)
        cyclic = len(comp) > 1 or (comp[0], comp[0]) in edges
        if not cyclic:
            continue
        comp_set = set(comp)
        cycle_edges = [(a, b) for (a, b) in edges
                       if a in comp_set and b in comp_set]
        site = min(edges[e] for e in cycle_edges)
        findings.append(Finding(
            RULE_LOCK_ORDER, site[0], site[1],
            "static deadlock: lock-acquisition cycle between "
            + " <-> ".join(comp)
            + "; impose a global lock order or collapse the locks "
              "(protocol.toml [lock_order])"))
    return findings


# --- Rule 7: atomics discipline (atomic-order) ----------------------

_RAW_ATOMIC_RE = re.compile(r"\bstd\s*::\s*(?:atomic\b|atomic_\w+|"
                            r"memory_order\w*)")
_RELAXED_DECL_RE = re.compile(
    r"\b(?:sync\s*::\s*)?RelaxedCounter\s+([A-Za-z_]\w*)")


def check_atomic_order(project: Project, protocol: dict,
                       src_root: str = "src") -> list[Finding]:
    """Raw std::atomic / std::memory_order_* spellings are legal only
    inside the sanctioned wrapper files (src/sim/sync.hh), and a
    RelaxedCounter may feed statistics but never control flow — its
    relaxed reads carry no happens-before edge, so branching on one
    turns a benign stale read into nondeterministic behavior."""
    cfg = protocol.get("atomic_order", {})
    allowed = tuple(cfg.get("allowed_files", ["src/sim/sync.hh"]))
    cleaned = _cleaned(project)

    findings = []

    # Raw atomic spellings outside the wrapper home.
    for path, clean in cleaned.items():
        if _module_of(path, src_root) is None:
            continue
        if allowed and path.endswith(allowed):
            continue
        for i, line in enumerate(clean):
            m = _RAW_ATOMIC_RE.search(line)
            if m:
                findings.append(Finding(
                    RULE_ATOMIC_ORDER, path, i + 1,
                    f"raw `{m.group(0)}` outside the sync.hh wrappers; "
                    f"use or extend the capability-annotated "
                    f"primitives in src/sim/sync.hh "
                    f"(protocol.toml [atomic_order])"))

    # RelaxedCounter reads in control flow.
    counters: set[str] = set()
    for path, clean in cleaned.items():
        for line in clean:
            for m in _RELAXED_DECL_RE.finditer(line):
                counters.add(m.group(1))
    if counters:
        cond_res = {
            name: re.compile(
                r"\b(?:if|while|for|switch)\s*\([^;{}]*\b"
                + re.escape(name) + r"\s*\.\s*value\s*\(")
            for name in counters}
        for path, clean in cleaned.items():
            if _module_of(path, src_root) is None:
                continue
            for i, line in enumerate(clean):
                for name, cond_re in cond_res.items():
                    if cond_re.search(line):
                        findings.append(Finding(
                            RULE_ATOMIC_ORDER, path, i + 1,
                            f"RelaxedCounter `{name}` feeds control "
                            f"flow; relaxed loads order nothing, so "
                            f"branch state may diverge between runs — "
                            f"counters are for stats only "
                            f"(protocol.toml [atomic_order])"))
    return findings


# --- Rule 8: non-blocking handlers (handler-blocking) --------------


def check_handler_blocking(project: Project, protocol: dict,
                           src_root: str = "src") -> list[Finding]:
    """No mutex acquisition or blocking call may be reachable from an
    EventQueue::schedule handler root: a handler that blocks stalls
    its whole simulation on another thread, and lock-based handler
    ordering is exactly the nondeterminism the kernel's (when, seq)
    total order exists to rule out."""
    cfg = protocol.get("handler_blocking", {})
    allowed_files = tuple(cfg.get("allowed_files", []))
    blocking_names = set(cfg.get("blocking_calls", []))
    cleaned = _cleaned(project)

    def file_allowed(path: str) -> bool:
        return path.endswith(allowed_files) if allowed_files else False

    by_simple: dict[str, list] = defaultdict(list)
    for func in project.functions:
        by_simple[func.name.split("::")[-1]].append(func)

    # Worklist from the schedule roots (same machinery as the
    # determinism rule).
    reachable = []
    seen: set[int] = set()
    work = [f for f in project.functions if f.is_schedule_root]
    while work:
        func = work.pop()
        if id(func) in seen:
            continue
        seen.add(id(func))
        if file_allowed(func.file):
            continue
        reachable.append(func)
        for callee, _line in func.calls:
            for target in by_simple.get(callee, []):
                if id(target) not in seen:
                    work.append(target)

    findings = []
    emitted: set[tuple[str, int]] = set()
    for func in reachable:
        clean = cleaned.get(func.file)
        if clean is None:
            continue
        label = ("an EventQueue::schedule callback"
                 if func.is_schedule_root else f"{func.name}()")
        sites = []
        for ln in range(func.start, min(func.end, len(clean)) + 1):
            text = clean[ln - 1]
            if _GUARD_RE.search(text):
                sites.append((ln, "LockGuard acquisition"))
            elif _BARE_LOCK_RE.search(text):
                sites.append((ln, "mutex .lock()"))
        for callee, ln in func.calls:
            if callee in blocking_names:
                sites.append((ln, f"blocking call `{callee}()`"))
        for ln, what in sites:
            key = (func.file, ln)
            if key in emitted:
                continue
            emitted.add(key)
            findings.append(Finding(
                RULE_HANDLER_BLOCKING, func.file, ln,
                f"{what} in {label}, which is reachable from an event "
                f"handler; handlers must never block — move the "
                f"synchronization out of the simulation "
                f"(protocol.toml [handler_blocking])"))
    return findings
