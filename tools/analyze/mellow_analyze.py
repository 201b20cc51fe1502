#!/usr/bin/env python3
"""mellow-analyze — semantic static analysis for mellowsim.

Eight rule families the regex lint (tools/mellow_lint.py) cannot
express:

  value-escape      .value() on a strong type outside whitelisted
                    conversion sites (tools/analyze/whitelists.toml)
  layering          include-graph / cross-module symbol references
                    outside the layer manifest (tools/analyze/layers.toml)
  nondet-handler    wall clocks, raw RNG, unordered iteration or I/O
                    reachable from an EventQueue::schedule callback
  request-lifetime  a MemRequest read after std::move() into a queue

plus the confinement rule driven by tools/analyze/confinement.toml
(the concurrency model of DESIGN.md §11, which the parallel sweep of
runConfigs is written against):

  confinement-global  mutable static/namespace-scope state that is not
                      atomic, a sync.hh type, thread_local or const

and the parallel-protocol family driven by
tools/analyze/protocol.toml:

  lock-order        a cycle in the whole-program lock-acquisition
                    graph built from LockGuard / MELLOW_REQUIRES
                    sites (a static deadlock)
  atomic-order      raw std::atomic / std::memory_order spellings
                    outside src/sim/sync.hh, or a RelaxedCounter
                    read feeding control flow instead of stats
  handler-blocking  a mutex acquisition or blocking call reachable
                    from an EventQueue::schedule handler

Findings honour the shared `// mlint: allow(<rule>): <reason>`
suppression syntax (tools/analyze/suppress.py).

Backends: `--backend clang` uses libclang over the exported
compile_commands.json (CI); `--backend textual` is a pure-Python
fallback needing nothing beyond the standard library; `auto` (default)
tries clang and falls back with a warning.

Exit codes: 0 clean, 1 findings (or self-test failure), 2 environment
error (requested backend unavailable, bad manifest, ...).
"""

from __future__ import annotations

import argparse
import os
import re
import sys
import tomllib

from model import ALL_RULES, Finding
from rules import RULE_CHECKERS
from suppress import parse_suppressions

REPO_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
ANALYZE_DIR = os.path.dirname(os.path.abspath(__file__))

EXPECT_RE = re.compile(r"//\s*analyze-expect:\s*([a-z-]+|none)")


def _collect_files(root: str, paths: list[str]) -> dict[str, list[str]]:
    """{root-relative path: lines} for every .cc/.hh under @p paths
    (default: src/)."""
    files: dict[str, list[str]] = {}
    targets = paths or ["src"]
    for target in targets:
        full = os.path.join(root, target)
        if os.path.isfile(full):
            candidates = [full]
        else:
            candidates = []
            for dirpath, _dirs, names in os.walk(full):
                for name in sorted(names):
                    if name.endswith((".cc", ".hh")):
                        candidates.append(os.path.join(dirpath, name))
        for cand in sorted(candidates):
            rel = os.path.relpath(cand, root).replace(os.sep, "/")
            with open(cand, encoding="utf-8") as fh:
                files[rel] = fh.read().splitlines()
    return files


def _load_toml(path: str, what: str) -> dict:
    try:
        with open(path, "rb") as fh:
            return tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        print(f"mellow-analyze: cannot load {what} manifest {path}: {exc}",
              file=sys.stderr)
        sys.exit(2)


def _build_project(backend: str, files: dict[str, list[str]],
                   build_dir: str | None, root: str):
    """Returns (project, backend_used)."""
    if backend in ("auto", "clang"):
        try:
            import frontend_clang
            return (frontend_clang.build_project(files, build_dir, root),
                    "clang")
        except ImportError as exc:
            if backend == "clang":
                print(f"mellow-analyze: clang backend unavailable: {exc}\n"
                      f"  (pip package `libclang`, see "
                      f"tools/analyze/requirements.txt)", file=sys.stderr)
                sys.exit(2)
            print("mellow-analyze: warning: libclang not available; "
                  "falling back to the textual backend "
                  f"({exc})", file=sys.stderr)
    import frontend_textual
    return frontend_textual.build_project(files), "textual"


def _run_rules(project, layers: dict, whitelists: dict,
               confinement: dict, protocol: dict,
               enabled: list[str]) -> list[Finding]:
    findings: list[Finding] = []
    for rule in enabled:
        findings.extend(
            RULE_CHECKERS[rule](project, layers, whitelists, confinement,
                                protocol))

    # Drop suppressed findings.
    sup_cache = {}
    kept = []
    for f in findings:
        lines = project.files.get(f.file)
        if lines is not None:
            if f.file not in sup_cache:
                sup_cache[f.file] = parse_suppressions(lines)
            if sup_cache[f.file].allows(f.rule, f.line):
                continue
        kept.append(f)
    kept.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    # De-duplicate identical findings (both frontends may attribute one
    # site to several overlapping facts).
    seen = set()
    unique = []
    for f in kept:
        key = (f.file, f.line, f.rule, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def _self_test(fixture_root: str, files: dict[str, list[str]],
               findings: list[Finding], enabled: list[str],
               only_rules: set[str]) -> int:
    """Check `// analyze-expect:` directives; returns the exit code."""
    by_file: dict[str, list[Finding]] = {}
    for f in findings:
        by_file.setdefault(f.file, []).append(f)

    failures = []
    checked = 0
    for path, lines in sorted(files.items()):
        if not path.endswith(".cc"):
            continue
        m = EXPECT_RE.search(lines[0]) if lines else None
        if not m:
            continue
        expect = m.group(1)
        if expect != "none" and expect not in ALL_RULES:
            failures.append(f"{path}: unknown analyze-expect rule "
                            f"'{expect}'")
            continue
        if only_rules and expect != "none" and expect not in only_rules:
            continue  # per-rule run: fixture out of scope
        checked += 1
        got = by_file.get(path, [])
        if expect == "none":
            if got:
                listing = "; ".join(
                    f"{g.line}:[{g.rule}]" for g in got)
                failures.append(
                    f"{path}: expected no findings, got {listing}")
        else:
            if not any(g.rule == expect for g in got):
                failures.append(
                    f"{path}: expected a [{expect}] finding, got "
                    + ("; ".join(f"{g.line}:[{g.rule}]" for g in got)
                       if got else "none"))
            stray = [g for g in got if g.rule != expect]
            if stray:
                failures.append(
                    f"{path}: unexpected findings: " + "; ".join(
                        f"{g.line}:[{g.rule}]" for g in stray))

    if not checked:
        print(f"mellow-analyze: self-test found no fixtures under "
              f"{fixture_root}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"self-test FAIL: {failure}")
    print(f"mellow-analyze self-test: {checked - len(set(f.split(':')[0] for f in failures))}"
          f"/{checked} fixtures ok "
          f"(rules: {', '.join(enabled) if enabled else 'none'})")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mellow-analyze",
        description="semantic static analysis for mellowsim")
    parser.add_argument("paths", nargs="*",
                        help="files/directories to analyze "
                             "(default: src/)")
    parser.add_argument("--backend", choices=("auto", "clang", "textual"),
                        default="auto")
    parser.add_argument("-p", "--build-dir", default=None,
                        help="build dir with compile_commands.json "
                             "(clang backend)")
    parser.add_argument("--root", default=REPO_ROOT,
                        help="tree root paths are relative to")
    parser.add_argument("--layers",
                        default=os.path.join(ANALYZE_DIR, "layers.toml"))
    parser.add_argument("--whitelists",
                        default=os.path.join(ANALYZE_DIR, "whitelists.toml"))
    parser.add_argument("--confinement", default=None,
                        help="confinement manifest (default: a "
                             "confinement.toml in the analyzed tree "
                             "root if present, else "
                             "tools/analyze/confinement.toml)")
    parser.add_argument("--protocol", default=None,
                        help="parallel-protocol manifest (default: a "
                             "protocol.toml in the analyzed tree root "
                             "if present, else "
                             "tools/analyze/protocol.toml)")
    parser.add_argument("--sarif", metavar="OUT",
                        help="also write SARIF 2.1.0 to OUT")
    parser.add_argument("--only-rule", action="append", default=[],
                        metavar="RULE", choices=ALL_RULES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE", choices=ALL_RULES,
                        help="disable this rule (repeatable)")
    parser.add_argument("--self-test", metavar="DIR",
                        help="run over the fixture tree DIR and check "
                             "its // analyze-expect: directives")
    args = parser.parse_args(argv)

    enabled = [r for r in ALL_RULES
               if (not args.only_rule or r in args.only_rule)
               and r not in args.disable]

    root = os.path.realpath(args.self_test if args.self_test else args.root)
    files = _collect_files(root, [] if args.self_test else args.paths)
    if not files:
        print("mellow-analyze: no input files", file=sys.stderr)
        return 2

    layers = _load_toml(args.layers, "layer")
    whitelists = _load_toml(args.whitelists, "whitelist")
    # A tree-local confinement.toml (e.g. in the fixture tree) wins
    # over the repo manifest so fixture trees stay self-describing.
    confinement_path = args.confinement
    if confinement_path is None:
        tree_local = os.path.join(root, "confinement.toml")
        confinement_path = (tree_local if os.path.exists(tree_local)
                            else os.path.join(ANALYZE_DIR,
                                              "confinement.toml"))
    confinement = _load_toml(confinement_path, "confinement")
    # Same tree-local override for the parallel-protocol manifest.
    protocol_path = args.protocol
    if protocol_path is None:
        tree_local = os.path.join(root, "protocol.toml")
        protocol_path = (tree_local if os.path.exists(tree_local)
                         else os.path.join(ANALYZE_DIR, "protocol.toml"))
    protocol = _load_toml(protocol_path, "protocol")

    # Self-test always runs the textual backend: the fixtures gate the
    # shared rule logic and must work without libclang.
    backend = "textual" if args.self_test else args.backend
    project, backend_used = _build_project(
        backend, files, args.build_dir, root)

    findings = _run_rules(project, layers, whitelists, confinement,
                          protocol, enabled)

    if args.sarif:
        from sarif import to_sarif
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(to_sarif(findings))

    if args.self_test:
        return _self_test(root, files, findings, enabled,
                          set(args.only_rule))

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    summary = (f"mellow-analyze ({backend_used} backend): "
               f"{len(findings)} finding(s) across {len(files)} files, "
               f"rules: {', '.join(enabled)}")
    print(summary, file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
