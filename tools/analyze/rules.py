"""The mellow-analyze rule families, computed over the Project IR.

Every rule returns a list of model.Finding; suppression filtering and
output formatting happen in mellow_analyze.py. Rules consume only the
IR (plus the raw file lines for the lexical rules), so they behave the
same under both frontends.
"""

from __future__ import annotations

import re
from collections import defaultdict

from frontend_textual import strip_comments_and_strings
from model import (
    RULE_CONFINEMENT_GLOBAL,
    RULE_LAYERING,
    RULE_NONDET_HANDLER,
    RULE_REQUEST_LIFETIME,
    RULE_VALUE_ESCAPE,
    Finding,
    Project,
)


def _norm_func(name: str) -> str:
    """Normalize a qualified function name for whitelist matching:
    strip namespaces and template arguments, keep `Class::method`."""
    name = re.sub(r"<[^<>]*>", "", name)
    parts = [p for p in name.split("::") if p]
    if len(parts) >= 2:
        return "::".join(parts[-2:])
    return parts[-1] if parts else name


# --- Rule 1: strong-type escape analysis ----------------------------


def check_value_escape(project: Project, whitelists: dict) -> list[Finding]:
    wl = whitelists.get("value_escape", {})
    wl_funcs = {f for f in wl.get("functions", [])}
    wl_files = tuple(wl.get("files", []))

    findings = []
    for call in project.value_calls:
        if call.file.endswith(wl_files) and wl_files:
            continue
        enclosing = _norm_func(call.enclosing) if call.enclosing else ""
        if enclosing and (enclosing in wl_funcs
                          or enclosing.split("::")[-1] in wl_funcs):
            continue
        where = f" in {enclosing}()" if enclosing else ""
        findings.append(Finding(
            RULE_VALUE_ESCAPE, call.file, call.line,
            f".value() on {call.recv_type}{where} escapes the typed "
            f"domain outside the whitelisted conversion sites "
            f"(tools/analyze/whitelists.toml)"))
    return findings


# --- Rule 2: module layering ----------------------------------------


def _module_of(path: str, src_root: str) -> str | None:
    """Module name of a path under @p src_root (e.g. 'nvm'), else None."""
    prefix = src_root.rstrip("/") + "/"
    if not path.startswith(prefix):
        return None
    rest = path[len(prefix):]
    return rest.split("/")[0] if "/" in rest else None


def _collect_symbols(project: Project, src_root: str) -> dict:
    """Top-level type/alias names per module from header files.
    Returns name -> (module, header-path-as-included)."""
    defs: dict[str, set[tuple[str, str]]] = defaultdict(set)
    # The optional MELLOW_* group skips capability-annotation macros
    # (src/sim/sync.hh): `class MELLOW_CAPABILITY("mutex") Mutex`.
    type_re = re.compile(
        r"^(?:class|struct|enum\s+class|enum)\s+"
        r"(?:MELLOW_\w+\s*(?:\([^)]*\)\s*)?)?([A-Z]\w*)")
    alias_re = re.compile(r"^using\s+([A-Z]\w*)\s*=")
    for path, lines in project.files.items():
        if not path.endswith(".hh"):
            continue
        module = _module_of(path, src_root)
        if module is None:
            continue
        header = path[len(src_root.rstrip("/")) + 1:]
        clean = strip_comments_and_strings(lines)
        for i, line in enumerate(clean):
            m = type_re.match(line)
            if m:
                # Skip forward declarations (`class X;` with no body).
                rest = line[m.end():]
                if ";" in rest and "{" not in rest:
                    continue
                defs[m.group(1)].add((module, header))
                continue
            m = alias_re.match(line)
            if m:
                defs[m.group(1)].add((module, header))
    # Names defined in more than one module are ambiguous — drop them.
    return {name: next(iter(homes))
            for name, homes in defs.items()
            if len({mod for mod, _ in homes}) == 1}


def check_layering(project: Project, layers: dict,
                   src_root: str = "src") -> list[Finding]:
    modules = layers.get("modules", {})
    findings = []

    def allowed(from_mod: str, to_mod: str, header: str) -> bool:
        if from_mod == to_mod:
            return True
        spec = modules.get(from_mod)
        if spec is None:
            return True  # unmanifested module: no layering contract yet
        if to_mod in spec.get("deps", []):
            return True
        restricted = spec.get("restricted", {})
        return header in restricted.get(to_mod, [])

    # Include-graph edges.
    for path, incs in project.includes.items():
        from_mod = _module_of(path, src_root)
        if from_mod is None:
            continue
        for line, target in incs:
            to_mod = target.split("/")[0] if "/" in target else from_mod
            if not allowed(from_mod, to_mod, target):
                findings.append(Finding(
                    RULE_LAYERING, path, line,
                    f'module "{from_mod}" may not include "{target}" '
                    f'(layer manifest tools/analyze/layers.toml allows '
                    f'{from_mod} -> {sorted(modules[from_mod].get("deps", []))}'
                    f'{" plus restricted headers" if modules[from_mod].get("restricted") else ""})'))

    # Cross-module symbol references (catches reaching into a foreign
    # module through a transitive include without naming it).
    symbols = _collect_symbols(project, src_root)
    word_res = {name: re.compile(r"\b" + re.escape(name) + r"\b")
                for name in symbols}
    for path, lines in project.files.items():
        from_mod = _module_of(path, src_root)
        if from_mod is None or from_mod not in modules:
            continue
        clean = strip_comments_and_strings(lines)
        reported: set[str] = set()
        for i, line in enumerate(clean):
            for name, (home_mod, header) in symbols.items():
                if home_mod == from_mod or name in reported:
                    continue
                if not word_res[name].search(line):
                    continue
                if allowed(from_mod, home_mod, header):
                    reported.add(name)
                    continue
                reported.add(name)
                findings.append(Finding(
                    RULE_LAYERING, path, i + 1,
                    f'module "{from_mod}" references {name} (defined in '
                    f'{header}, module "{home_mod}") outside its '
                    f'manifested dependencies'))
    return findings


# --- Rule 3: event-handler determinism ------------------------------


def check_nondet_handler(project: Project, whitelists: dict) -> list[Finding]:
    allowed_files = tuple(
        whitelists.get("nondet_handler", {}).get("allowed_files", []))

    def file_allowed(path: str) -> bool:
        return path.endswith(allowed_files) if allowed_files else False

    by_simple_name: dict[str, list] = defaultdict(list)
    for func in project.functions:
        by_simple_name[func.name.split("::")[-1]].append(func)

    roots = [f for f in project.functions if f.is_schedule_root]
    reachable = []
    seen: set[int] = set()
    work = list(roots)
    while work:
        func = work.pop()
        if id(func) in seen:
            continue
        seen.add(id(func))
        if file_allowed(func.file):
            continue
        reachable.append(func)
        for callee, _line in func.calls:
            for target in by_simple_name.get(callee, []):
                if id(target) not in seen:
                    work.append(target)

    findings = []
    emitted: set[tuple[str, int, str]] = set()
    for func in reachable:
        label = ("an EventQueue::schedule callback"
                 if func.is_schedule_root else f"{func.name}()")
        for ident, line, what in func.banned:
            key = (func.file, line, ident)
            if key in emitted:
                continue
            emitted.add(key)
            findings.append(Finding(
                RULE_NONDET_HANDLER, func.file, line,
                f"{what} `{ident}` in {label}, which is reachable from "
                f"an event handler; handlers must stay deterministic "
                f"(use sim/rng, sim/logging, or move this off the "
                f"event path)"))
        for line, container in func.unordered_iters:
            key = (func.file, line, container)
            if key in emitted:
                continue
            emitted.add(key)
            findings.append(Finding(
                RULE_NONDET_HANDLER, func.file, line,
                f"iteration over unordered container `{container}` in "
                f"{label}, which is reachable from an event handler; "
                f"iteration order is not deterministic"))
    return findings


# --- Rule 4: request lifetime ---------------------------------------

_DECL_REQ_TMPL = r"\b(?:TYPES)\s+(\w+)\s*[;,)=(]"
_PTR_ALIAS_TMPL = r"(?:\b(?:TYPES)\s*\*|auto\s*\*)\s*(\w+)\s*=\s*&\s*(\w+)"
_REF_ALIAS_TMPL = r"(?:\b(?:TYPES)|auto)\s*&\s*(\w+)\s*=\s*(\w+)\s*;"


def _blocks_in(clean: list[str], start: int, end: int):
    """Brace blocks ((open_line, close_line, header), 1-based) inside
    [start, end] (1-based line range)."""
    blocks = []
    stack: list[tuple[int, str]] = []
    prev_text = ""
    for ln in range(start, end + 1):
        text = clean[ln - 1]
        for col, ch in enumerate(text):
            if ch == "{":
                header = text[:col].strip() or prev_text.strip()
                stack.append((ln, header))
            elif ch == "}" and stack:
                open_ln, header = stack.pop()
                blocks.append((open_ln, ln, header))
        if text.strip():
            prev_text = text
    return blocks


def check_request_lifetime(project: Project, whitelists: dict) -> list[Finding]:
    cfg = whitelists.get("request_lifetime", {})
    types = cfg.get("request_types", ["MemRequest"])
    methods = cfg.get(
        "queue_methods",
        ["push", "pushFront", "push_front", "push_back", "emplace",
         "emplace_back"])
    types_alt = "|".join(re.escape(t) for t in types)
    decl_re = re.compile(_DECL_REQ_TMPL.replace("TYPES", types_alt))
    ptr_re = re.compile(_PTR_ALIAS_TMPL.replace("TYPES", types_alt))
    ref_re = re.compile(_REF_ALIAS_TMPL.replace("TYPES", types_alt))
    # Only std::move(var) counts as a hand-off: pushing a copy leaves
    # the original perfectly readable.
    enqueue_re = re.compile(
        r"\.\s*(?:" + "|".join(re.escape(m) for m in methods) + r")"
        r"\s*\(\s*std::move\s*\(\s*(\w+)\s*\)")

    findings = []
    cleaned = {p: strip_comments_and_strings(ls)
               for p, ls in project.files.items()}

    for func in project.functions:
        if func.is_schedule_root:
            continue
        clean = cleaned.get(func.file)
        if clean is None:
            continue
        # Request variables: body declarations plus by-value parameters
        # on the few signature lines preceding the body.
        sig_start = max(1, func.start - 4)
        tracked: set[str] = set()
        aliases: dict[str, str] = {}  # alias -> request var
        for ln in range(sig_start, func.end + 1):
            for m in decl_re.finditer(clean[ln - 1]):
                tracked.add(m.group(1))
        if not tracked:
            continue
        for ln in range(func.start, func.end + 1):
            for m in ptr_re.finditer(clean[ln - 1]):
                if m.group(2) in tracked:
                    aliases[m.group(1)] = m.group(2)
            for m in ref_re.finditer(clean[ln - 1]):
                if m.group(2) in tracked:
                    aliases[m.group(1)] = m.group(2)

        blocks = _blocks_in(clean, func.start, func.end)

        def excluded_ranges(enq_line: int) -> list[tuple[int, int]]:
            """Ranges unreachable after the enqueue: else-branches of
            every if-block enclosing the enqueue (transitively through
            else-if chains)."""
            ranges = []
            for open_ln, close_ln, header in blocks:
                if not (open_ln <= enq_line <= close_ln):
                    continue
                if not re.search(r"\bif\b", header):
                    continue
                cur_close = close_ln
                while True:
                    sibling = next(
                        ((o, c, h) for o, c, h in blocks
                         if o == cur_close and re.search(r"\belse\b", h)),
                        None)
                    if sibling is None:
                        break
                    ranges.append((sibling[0], sibling[1]))
                    if re.search(r"\bif\b", sibling[2]):
                        cur_close = sibling[1]
                    else:
                        break
            return ranges

        for ln in range(func.start, func.end + 1):
            text = clean[ln - 1]
            for m in enqueue_re.finditer(text):
                var = m.group(1)
                if var not in tracked:
                    continue
                dead = {var} | {a for a, v in aliases.items() if v == var}
                excl = excluded_ranges(ln)
                use_res = [re.compile(r"\b" + re.escape(d) + r"\b")
                           for d in dead]
                for ln2 in range(ln + 1, func.end + 1):
                    if any(lo <= ln2 <= hi for lo, hi in excl):
                        continue
                    t2 = clean[ln2 - 1]
                    if re.match(r"\s*" + re.escape(var) + r"\s*=[^=]", t2):
                        break  # reassigned; tracking ends
                    for use_re in use_res:
                        um = use_re.search(t2)
                        if um:
                            findings.append(Finding(
                                RULE_REQUEST_LIFETIME, func.file, ln2,
                                f"`{um.group(0)}` is read after the "
                                f"request was handed to a queue at "
                                f"{func.file}:{ln} (moved-from/retained "
                                f"access in {func.name}())"))
                            break
                    else:
                        continue
                    break
    return findings


# --- Rule 5: confinement of global state ----------------------------
#
# Enforces the concurrency model in DESIGN.md §11 from the
# declarations in tools/analyze/confinement.toml. Computed lexically
# over the shared IR file map, so both frontends agree by
# construction.

#: Keywords that can never start a variable definition at namespace
#: scope (filters function bodies, type definitions, using aliases...).
_NS_NONVAR_KEYWORDS = frozenset(
    """using typedef return extern friend template namespace class
    struct enum union public private protected case goto else if for
    while switch do try catch static_assert operator void""".split())

#: A namespace-scope variable definition: `Type name;`,
#: `Type name = init;` or `Type name{init};` on one line. The type may
#: be qualified/templated; the name may be a qualified out-of-class
#: static-member definition (`Type Class::member = init;`).
_NS_VAR_RE = re.compile(
    r"^([A-Za-z_][\w:]*(?:\s*<[^;={}]*>)?(?:\s*[*&])*)\s+"
    r"[A-Za-z_][\w:]*\s*(?:\{[^{}]*\}|\[[^\]]*\]|=[^=;][^;]*)?\s*;")

_STATIC_DECL_RE = re.compile(r"^\s*(?:inline\s+)?static\s+")

#: Declarations carrying one of these are synchronization-aware and
#: exempt from confinement-global (plus whatever confinement.toml's
#: [global].synchronized_types adds).
_EXEMPT_RE = re.compile(r"\bconst\b|\bconstexpr\b|\bthread_local\b")
_BUILTIN_SYNC_MARKERS = ("std::atomic", "std::once_flag")


def _scope_kinds(clean: list[str]):
    """Yield (line_index, at_namespace_scope) for every line, tracking
    a brace stack whose openers are classified as namespace, type, or
    other (function bodies, initializers) scopes. A line starting
    inside an unclosed parenthesis group (the continuation of a
    multi-line declaration) is never at namespace scope."""
    stack: list[str] = []
    paren_depth = 0
    prev_nonblank = ""
    type_open_re = re.compile(
        r"^\s*(?:template\s*<[^<>]*>\s*)?"
        r"(?:class|struct|enum|union)\b")
    for i, line in enumerate(clean):
        yield i, paren_depth == 0 and all(
            kind == "ns" for kind in stack)
        col = 0
        for ch in line:
            if ch == "{":
                header = line[:col].strip() or prev_nonblank
                if re.search(r"\bnamespace\b", header):
                    stack.append("ns")
                elif type_open_re.match(header):
                    stack.append("type")
                else:
                    stack.append("other")
            elif ch == "}" and stack:
                stack.pop()
            elif ch == "(":
                paren_depth += 1
            elif ch == ")" and paren_depth:
                paren_depth -= 1
            col += 1
        if line.strip():
            prev_nonblank = line.strip()


def check_confinement_global(project: Project, confinement: dict,
                             src_root: str = "src") -> list[Finding]:
    """Mutable static-storage state must be synchronized (atomic, a
    sync.hh type, or a manifest-listed type), thread-local, or const:
    anything else is invisible shared state that a parallel sweep
    (runConfigs) would race on."""
    sync_markers = _BUILTIN_SYNC_MARKERS + tuple(
        confinement.get("global", {}).get("synchronized_types", []))

    def exempt(line: str) -> bool:
        return bool(_EXEMPT_RE.search(line)) or any(
            marker in line for marker in sync_markers)

    def is_variable(line: str) -> bool:
        # A '(' before the first initializer/terminator means a
        # function declaration or definition, not a variable.
        head = re.split(r"[={;]", line, maxsplit=1)[0]
        return "(" not in head and "[[" not in head

    findings = []
    for path, lines in project.files.items():
        if _module_of(path, src_root) is None:
            continue
        clean = strip_comments_and_strings(lines)
        for i, at_ns in _scope_kinds(clean):
            line = clean[i]
            stripped = line.strip()
            if not stripped or stripped.startswith("#"):
                continue
            if _STATIC_DECL_RE.match(line):
                # static anywhere: class member, function-local, or
                # file scope — all outlive the run and are shared.
                if exempt(line) or not is_variable(stripped):
                    continue
                findings.append(Finding(
                    RULE_CONFINEMENT_GLOBAL, path, i + 1,
                    "mutable static state is shared across threads; "
                    "make it std::atomic, a sync.hh type, thread_local "
                    "or const (confinement.toml [global])"))
                continue
            if not at_ns:
                continue
            body = re.sub(r"^inline\s+", "", stripped)
            m = _NS_VAR_RE.match(body)
            if not m:
                continue
            first_word = re.split(r"[^\w]", body, maxsplit=1)[0]
            if first_word in _NS_NONVAR_KEYWORDS:
                continue
            if exempt(line) or not is_variable(body):
                continue
            findings.append(Finding(
                RULE_CONFINEMENT_GLOBAL, path, i + 1,
                "mutable namespace-scope state is shared across "
                "threads; make it std::atomic, a sync.hh type, "
                "thread_local or const (confinement.toml [global])"))
    return findings


# The parallel-protocol family lives in rules_protocol.py; imported
# here (after the helpers it reuses are defined) so RULE_CHECKERS
# stays the single dispatch table.
from rules_protocol import (  # noqa: E402
    check_atomic_order,
    check_handler_blocking,
    check_lock_order,
)
from model import (  # noqa: E402
    RULE_ATOMIC_ORDER,
    RULE_HANDLER_BLOCKING,
    RULE_LOCK_ORDER,
)

RULE_CHECKERS = {
    RULE_VALUE_ESCAPE:
        lambda project, layers, wl, conf, proto:
            check_value_escape(project, wl),
    RULE_LAYERING:
        lambda project, layers, wl, conf, proto:
            check_layering(project, layers),
    RULE_NONDET_HANDLER:
        lambda project, layers, wl, conf, proto:
            check_nondet_handler(project, wl),
    RULE_REQUEST_LIFETIME:
        lambda project, layers, wl, conf, proto:
            check_request_lifetime(project, wl),
    RULE_CONFINEMENT_GLOBAL:
        lambda project, layers, wl, conf, proto:
            check_confinement_global(project, conf),
    RULE_LOCK_ORDER:
        lambda project, layers, wl, conf, proto:
            check_lock_order(project, proto),
    RULE_ATOMIC_ORDER:
        lambda project, layers, wl, conf, proto:
            check_atomic_order(project, proto),
    RULE_HANDLER_BLOCKING:
        lambda project, layers, wl, conf, proto:
            check_handler_blocking(project, proto),
}
