#!/usr/bin/env python3
"""mellow-configcheck — constraint-based static verifier for device
configs (configs/<name>.config).

The C++ binding (src/config/device_config.cc) enforces only what it
cannot survive without; this tool carries the full datasheet theory
declared in tools/analyze/configcheck.toml:

  parse-error        a line the KEY-value grammar rejects (the C++
                     parser would fatal() on it)
  unknown-key        a key the schema does not declare (a typo the
                     binding would silently ignore)
  missing-key        a key the binding requires is absent
  range              a value outside its schema range, or a word
                     outside its enum
  unit-mismatch      a value written with a unit suffix (the format is
                     unit-implicit; the schema declares the unit), or
                     a constraint expression mixing dimensions
  timing-inequality  the interface/timing inequality system (burst
                     arithmetic, tFAW window, pulse orderings)
  geometry-arithmetic capacity products, divisibility, power-of-two
                     address-map requirements
  energy-model       sanity versus the paper's Table VI linear model
  controller-sanity  queue-provisioning cross-field checks
  pulse-monotonicity slowing the pulse must strictly lengthen the
                     pulse (no Tick saturation) and strictly gain
                     endurance under Equation 2

Every constraint expression is dimensional: schema keys carry units
(ns, MHz, pJ, bits, B, writes) that propagate through the expression
AST, so a constraint comparing nanoseconds to picojoules is itself a
finding rather than a silent coincidence.

Suppressions reuse the repo-wide syntax on config comment lines::

    LevelingEfficiency 1.5  ; mlint: allow(range): sensitivity sweep

Exit codes: 0 clean, 1 findings (or self-test failure), 2 environment
error (bad manifest, no inputs).
"""

from __future__ import annotations

import argparse
import ast
import math
import os
import re
import sys
import tomllib
from dataclasses import dataclass

from model import Finding
from suppress import parse_suppressions

REPO_ROOT = os.path.realpath(
    os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", ".."))
ANALYZE_DIR = os.path.dirname(os.path.abspath(__file__))

RULE_PARSE = "parse-error"
RULE_UNKNOWN = "unknown-key"
RULE_MISSING = "missing-key"
RULE_RANGE = "range"
RULE_UNIT = "unit-mismatch"
RULE_TIMING = "timing-inequality"
RULE_GEOMETRY = "geometry-arithmetic"
RULE_ENERGY = "energy-model"
RULE_CONTROLLER = "controller-sanity"
RULE_PULSE = "pulse-monotonicity"

ALL_RULES = (
    RULE_PARSE,
    RULE_UNKNOWN,
    RULE_MISSING,
    RULE_RANGE,
    RULE_UNIT,
    RULE_TIMING,
    RULE_GEOMETRY,
    RULE_ENERGY,
    RULE_CONTROLLER,
    RULE_PULSE,
)

RULE_DESCRIPTIONS = {
    RULE_PARSE:
        "A config line the KEY-value grammar rejects; the C++ parser "
        "(src/config/config_file.cc) would fatal() on it.",
    RULE_UNKNOWN:
        "A key tools/analyze/configcheck.toml does not declare — "
        "usually a typo the binding would silently ignore.",
    RULE_MISSING:
        "A key the C++ binding requires (non-Or accessor in "
        "src/config/device_config.cc) is absent.",
    RULE_RANGE:
        "A value outside the schema's [min, max] range, or a word "
        "outside its enum.",
    RULE_UNIT:
        "A value written with a unit suffix in the unit-implicit "
        "format, or a constraint expression mixing dimensions.",
    RULE_TIMING:
        "The interface/timing inequality system: burst arithmetic, "
        "the tFAW window, activation/column/write-pulse orderings.",
    RULE_GEOMETRY:
        "Capacity products, divisibility and power-of-two "
        "requirements of the shift/mask address map.",
    RULE_ENERGY:
        "Energy sanity versus the paper's Table VI linear model.",
    RULE_CONTROLLER:
        "Queue-provisioning cross-field sanity (drain hysteresis, "
        "eager sizing, cancellation bounds).",
    RULE_PULSE:
        "Equation 2 monotonicity: slowing the pulse must strictly "
        "lengthen it (no Tick saturation) and strictly gain "
        "endurance (ExpoFactor > 0).",
}

EXPECT_RE = re.compile(r"configcheck-expect:\s*([a-z-]+|none)")
_NUMBER_RE = re.compile(r"^[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?$")
_SUFFIXED_RE = re.compile(
    r"^(?P<num>[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?)"
    r"(?P<suffix>[a-zA-Z]+)$")

_MAX_INCLUDE_DEPTH = 16
_TICK_MAX = 2**63 - 1

#: PulseFactor ladder the monotonicity rule probes (policy.hh's
#: slow-write factors live inside this envelope).
_PULSE_LADDER = (1.0, 1.5, 2.0, 3.0, 4.0, 8.0)


@dataclass
class Entry:
    key: str
    value: str
    file: str
    line: int


# ---------------------------------------------------------------------
# Config parsing (mirrors src/config/config_file.cc)

def _strip_comment(line: str) -> str:
    for marker in (";", "//"):
        idx = line.find(marker)
        if idx >= 0:
            line = line[:idx]
    if line.lstrip().startswith("#"):
        return ""
    return line


def _rel(path: str) -> str:
    path = os.path.realpath(path)
    if path.startswith(REPO_ROOT + os.sep):
        return os.path.relpath(path, REPO_ROOT).replace(os.sep, "/")
    return path.replace(os.sep, "/")


def parse_config(path: str, findings: list[Finding],
                 depth: int = 0) -> dict[str, Entry]:
    """First-seen-ordered {key: Entry}; overrides update value and
    provenance in place, exactly like ConfigFile::parseLines."""
    entries: dict[str, Entry] = {}
    rel = _rel(path)
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        findings.append(Finding(RULE_PARSE, rel, 1,
                                f"cannot read config: {exc}"))
        return entries

    for lineno, raw in enumerate(lines, start=1):
        code = _strip_comment(raw).strip()
        if not code:
            continue
        parts = code.split(None, 1)
        if len(parts) != 2:
            findings.append(Finding(
                RULE_PARSE, rel, lineno,
                f"expected 'KEY value', got '{code}'"))
            continue
        key, value = parts[0], parts[1].strip()
        if key == "INCLUDE":
            if depth + 1 > _MAX_INCLUDE_DEPTH:
                findings.append(Finding(
                    RULE_PARSE, rel, lineno,
                    "INCLUDE depth exceeds "
                    f"{_MAX_INCLUDE_DEPTH} (cycle?)"))
                continue
            inc = value
            if not os.path.isabs(inc):
                inc = os.path.join(os.path.dirname(path), inc)
            for sub in parse_config(inc, findings, depth + 1).values():
                entries[sub.key] = sub
            continue
        if not re.fullmatch(r"[A-Za-z_][A-Za-z0-9_]*", key):
            findings.append(Finding(
                RULE_PARSE, rel, lineno, f"malformed key '{key}'"))
            continue
        if key in entries:
            old = entries[key]
            old.value, old.file, old.line = value, rel, lineno
        else:
            entries[key] = Entry(key, value, rel, lineno)
    return entries


# ---------------------------------------------------------------------
# Units: {symbol: exponent} dicts; None marks a literal, which is
# dimensionless but unifies with anything (so `tFAW >= 4 * tCK` and
# `BitsPerWrite == 512` both type-check while `tWP >= BaseEndurance`
# does not).

POLY = None

_BASE_UNITS = {
    "ns": {"ns": 1},
    "MHz": {"MHz": 1},
    "pJ": {"pJ": 1},
    "bits": {"bits": 1},
    "B": {"B": 1},
    "writes": {"writes": 1},
    "count": {},
    "ratio": {},
}


def _unit_name(unit) -> str:
    if unit is POLY or not unit:
        return "dimensionless"
    return "*".join(f"{k}^{v}" if v != 1 else k
                    for k, v in sorted(unit.items()))


def _unit_mul(a, b, sign: int):
    if a is POLY and b is POLY:
        return POLY
    a = {} if a is POLY else a
    b = {} if b is POLY else b
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0) + sign * v
        if out[k] == 0:
            del out[k]
    return out


def _unit_join(a, b, context: str):
    """Unit of a +/-/comparison of @p a and @p b; raises on mismatch."""
    if a is POLY:
        return b
    if b is POLY:
        return a
    if a != b:
        raise UnitError(
            f"{context}: {_unit_name(a)} vs {_unit_name(b)}")
    return a


class UnitError(Exception):
    pass


class EvalError(Exception):
    pass


class _Evaluator(ast.NodeVisitor):
    """Evaluates a constraint expression over (value, unit) pairs."""

    def __init__(self, env: dict[str, tuple[float, object]]):
        self.env = env

    def run(self, tree: ast.AST) -> tuple[object, object]:
        return self.visit(tree)

    def visit_Expression(self, node):
        return self.visit(node.body)

    def visit_Constant(self, node):
        if isinstance(node.value, bool) or not isinstance(
                node.value, (int, float)):
            raise EvalError(f"unsupported literal {node.value!r}")
        return float(node.value), POLY

    def visit_Name(self, node):
        if node.id not in self.env:
            raise EvalError(f"unknown identifier '{node.id}'")
        return self.env[node.id]

    def visit_UnaryOp(self, node):
        value, unit = self.visit(node.operand)
        if isinstance(node.op, ast.USub):
            return -value, unit
        if isinstance(node.op, ast.UAdd):
            return value, unit
        raise EvalError("unsupported unary operator")

    def visit_BinOp(self, node):
        lv, lu = self.visit(node.left)
        rv, ru = self.visit(node.right)
        if isinstance(node.op, ast.Add):
            return lv + rv, _unit_join(lu, ru, "addition")
        if isinstance(node.op, ast.Sub):
            return lv - rv, _unit_join(lu, ru, "subtraction")
        if isinstance(node.op, ast.Mult):
            return lv * rv, _unit_mul(lu, ru, +1)
        if isinstance(node.op, ast.Div):
            if rv == 0:
                raise EvalError("division by zero")
            return lv / rv, _unit_mul(lu, ru, -1)
        if isinstance(node.op, ast.Mod):
            if rv == 0:
                raise EvalError("modulo by zero")
            _unit_join(lu, ru, "modulo")
            return math.fmod(lv, rv), lu
        if isinstance(node.op, ast.Pow):
            if ru is not POLY and ru:
                raise UnitError("exponent must be dimensionless")
            if lu is not POLY and lu:
                raise UnitError("power of a dimensioned quantity")
            return lv ** rv, POLY
        raise EvalError("unsupported binary operator")

    def visit_Compare(self, node):
        left = self.visit(node.left)
        result = True
        for op, comparator in zip(node.ops, node.comparators):
            right = self.visit(comparator)
            _unit_join(left[1], right[1], "comparison")
            lv, rv = left[0], right[0]
            if isinstance(op, ast.Lt):
                ok = lv < rv
            elif isinstance(op, ast.LtE):
                ok = lv <= rv
            elif isinstance(op, ast.Gt):
                ok = lv > rv
            elif isinstance(op, ast.GtE):
                ok = lv >= rv
            elif isinstance(op, ast.Eq):
                ok = lv == rv
            elif isinstance(op, ast.NotEq):
                ok = lv != rv
            else:
                raise EvalError("unsupported comparison")
            result = result and ok
            left = right
        return result, POLY

    def visit_BoolOp(self, node):
        values = [self.visit(v)[0] for v in node.values]
        if isinstance(node.op, ast.And):
            return all(values), POLY
        return any(values), POLY

    def visit_Call(self, node):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise EvalError("unsupported call form")
        name = node.func.id
        args = [self.visit(a) for a in node.args]
        if name == "approx":
            if len(args) not in (2, 3):
                raise EvalError("approx(a, b[, rel])")
            _unit_join(args[0][1], args[1][1], "approx")
            rel = args[2][0] if len(args) == 3 else 1e-9
            a, b = args[0][0], args[1][0]
            return math.isclose(a, b, rel_tol=rel, abs_tol=rel), POLY
        if name == "pow2":
            if len(args) != 1:
                raise EvalError("pow2(x)")
            v = args[0][0]
            return (v > 0 and float(v).is_integer()
                    and (int(v) & (int(v) - 1)) == 0), POLY
        if name == "round":
            if len(args) != 1:
                raise EvalError("round(x)")
            return float(round(args[0][0])), args[0][1]
        if name == "abs":
            if len(args) != 1:
                raise EvalError("abs(x)")
            return abs(args[0][0]), args[0][1]
        if name in ("min", "max"):
            if len(args) < 2:
                raise EvalError(f"{name}() needs two arguments")
            unit = args[0][1]
            for a in args[1:]:
                unit = _unit_join(unit, a[1], name)
            fn = min if name == "min" else max
            return fn(a[0] for a in args), unit
        raise EvalError(f"unknown function '{name}'")

    def generic_visit(self, node):
        raise EvalError(
            f"unsupported syntax: {type(node).__name__}")


def _expr_names(tree: ast.AST) -> list[str]:
    """Variable references in source order (constraint anchoring);
    function names in call position are not variables."""
    called = {id(n.func) for n in ast.walk(tree)
              if isinstance(n, ast.Call)}
    names = [n for n in ast.walk(tree)
             if isinstance(n, ast.Name) and id(n) not in called]
    names.sort(key=lambda n: (n.lineno, n.col_offset))
    return [n.id for n in names]


# ---------------------------------------------------------------------
# Checking

def _check_schema(entries: dict[str, Entry], schema: dict, rel: str,
                  findings: list[Finding]) -> dict[str, tuple]:
    """Schema pass: unknown/missing/range/unit diagnostics. Returns
    the typed environment {key: (value, unit)} for constraints, with
    schema defaults substituted for absent optional keys."""
    env: dict[str, tuple] = {}
    words: dict[str, str] = {}

    for entry in entries.values():
        if entry.key not in schema:
            findings.append(Finding(
                RULE_UNKNOWN, entry.file, entry.line,
                f"unknown key '{entry.key}' (not declared in "
                "configcheck.toml; the binding would ignore it)"))

    for key, spec in schema.items():
        unit = spec["unit"]
        entry = entries.get(key)
        if entry is None:
            if spec.get("required", False):
                findings.append(Finding(
                    RULE_MISSING, rel, 1,
                    f"required key '{key}' is missing "
                    f"(unit {unit})"))
            elif "default_key" in spec:
                ref = env.get(spec["default_key"])
                if ref is not None:
                    env[key] = ref
            elif "default" in spec:
                if unit == "word":
                    words[key] = spec["default"]
                elif unit == "flag":
                    env[key] = (1.0 if spec["default"] else 0.0, {})
                else:
                    env[key] = (float(spec["default"]),
                                _BASE_UNITS[unit])
            continue

        value = entry.value
        if unit == "word":
            allowed = spec.get("enum", [])
            if allowed and value not in allowed:
                findings.append(Finding(
                    RULE_RANGE, entry.file, entry.line,
                    f"{key}: '{value}' not in "
                    f"{{{', '.join(allowed)}}}"))
                value = spec.get("default", allowed[0] if allowed
                                 else value)
            words[key] = value
            continue
        if unit == "flag":
            if value not in ("true", "false", "1", "0", "on", "off"):
                findings.append(Finding(
                    RULE_PARSE, entry.file, entry.line,
                    f"{key}: '{value}' is not a boolean "
                    "(true/false/1/0/on/off)"))
                continue
            env[key] = (1.0 if value in ("true", "1", "on") else 0.0,
                        {})
            continue

        m = _SUFFIXED_RE.match(value)
        if m:
            findings.append(Finding(
                RULE_UNIT, entry.file, entry.line,
                f"{key}: value '{value}' carries a unit suffix "
                f"'{m.group('suffix')}'; the format is unit-implicit "
                f"and {key} is declared in {unit}"))
            value = m.group("num")
        elif not _NUMBER_RE.match(value):
            findings.append(Finding(
                RULE_PARSE, entry.file, entry.line,
                f"{key}: '{value}' is not a number "
                f"(declared unit {unit})"))
            continue
        number = float(value)
        lo, hi = spec.get("min"), spec.get("max")
        if ((lo is not None and number < lo)
                or (hi is not None and number > hi)):
            findings.append(Finding(
                RULE_RANGE, entry.file, entry.line,
                f"{key}: {value} outside [{lo}, {hi}] {unit}"))
        env[key] = (number, _BASE_UNITS[unit])

    env["__words__"] = words  # smuggled to the caller, popped there
    return env


def _derive(env: dict, words: dict[str, str], cell_table: dict,
            rel: str, findings: list[Finding]) -> None:
    """The derived quantities constraints may reference."""
    if "CLK" in env and env["CLK"][0] > 0:
        env["tCK"] = (1000.0 / env["CLK"][0], _BASE_UNITS["ns"])
    if "BitsPerWrite" in env and "BusWidth" in env \
            and env["BusWidth"][0] > 0:
        env["lineBeats"] = (
            env["BitsPerWrite"][0] / env["BusWidth"][0], {})
    cell = words.get("Cell", "CellC")
    if "CellEnergyPj" in env:
        per_bit = env["CellEnergyPj"][0]
    else:
        per_bit = cell_table.get(cell)
    if per_bit is not None:
        env["cellBitPj"] = (per_bit, {"pJ": 1, "bits": -1})
    if "BufferReadPj" in env and "RowBufferBytes" in env \
            and env["RowBufferBytes"][0] > 0:
        env["bufferReadPjPerByte"] = (
            env["BufferReadPj"][0] / env["RowBufferBytes"][0],
            {"pJ": 1, "B": -1})


def _check_constraints(env: dict, entries: dict[str, Entry],
                       constraints: list[dict], rel: str,
                       findings: list[Finding]) -> None:
    for spec in constraints:
        try:
            tree = ast.parse(spec["expr"], mode="eval")
        except SyntaxError as exc:
            print(f"mellow-configcheck: bad constraint expression "
                  f"'{spec['id']}': {exc}", file=sys.stderr)
            sys.exit(2)
        names = _expr_names(tree)
        # Anchor the finding at the first referenced key present in
        # the config; fall back to the file head.
        anchor = next((entries[n] for n in names if n in entries),
                      None)
        file = anchor.file if anchor else rel
        line = anchor.line if anchor else 1
        if any(n not in env for n in names):
            # A prerequisite key already produced its own diagnostic
            # (missing/parse/range); don't cascade.
            continue
        try:
            ok, _unit = _Evaluator(env).run(tree)
        except UnitError as exc:
            findings.append(Finding(
                RULE_UNIT, file, line,
                f"constraint '{spec['id']}' mixes dimensions: {exc}"))
            continue
        except EvalError as exc:
            print(f"mellow-configcheck: constraint '{spec['id']}': "
                  f"{exc}", file=sys.stderr)
            sys.exit(2)
        if not ok:
            values = ", ".join(
                f"{n}={env[n][0]:g}" for n in dict.fromkeys(names)
                if n in env)
            findings.append(Finding(
                spec["rule"], file, line,
                f"[{spec['id']}] {spec['message']} "
                f"(with {values})"))


def _slow_write_pulse_ps(twp_ns: float, factor: float) -> int:
    """Mirror of NvmTimingParams::slowWritePulse, in picoseconds."""
    scaled = twp_ns * 1000.0 * factor
    if scaled >= float(_TICK_MAX):
        return _TICK_MAX
    return round(scaled)


def _check_pulse_monotonicity(env: dict, entries: dict[str, Entry],
                              rel: str,
                              findings: list[Finding]) -> None:
    if "tWP" not in env or "ExpoFactor" not in env:
        return
    twp, expo = env["tWP"][0], env["ExpoFactor"][0]
    anchor = entries.get("tWP")
    file = anchor.file if anchor else rel
    line = anchor.line if anchor else 1

    pulses = [_slow_write_pulse_ps(twp, f) for f in _PULSE_LADDER]
    if any(b <= a for a, b in zip(pulses, pulses[1:])):
        findings.append(Finding(
            RULE_PULSE, file, line,
            f"tWP {twp:g} ns saturates the Tick pulse computation "
            f"inside the PulseFactor ladder {_PULSE_LADDER}: slower "
            "factors stop lengthening the pulse"))

    gains = [f ** expo for f in _PULSE_LADDER]
    if any(b <= a for a, b in zip(gains, gains[1:])):
        anchor = entries.get("ExpoFactor") or anchor
        findings.append(Finding(
            RULE_PULSE,
            anchor.file if anchor else rel,
            anchor.line if anchor else 1,
            f"ExpoFactor {expo:g} makes Equation 2 endurance "
            "non-increasing in the pulse width: slow writes would "
            "buy no lifetime"))


# ---------------------------------------------------------------------
# Suppressions: translate config comments (';', leading '#') to the
# C++ '//' form, then reuse the repo-wide parser. Each code line is
# ';'-terminated so a standalone annotation binds to exactly the next
# key line.

def _cxxish(lines: list[str]) -> list[str]:
    out = []
    for raw in lines:
        line = raw
        if line.lstrip().startswith("#"):
            line = line.replace("#", "//", 1)
        semi = line.find(";")
        slashes = line.find("//")
        if semi >= 0 and (slashes < 0 or semi < slashes):
            line = line[:semi] + "//" + line[semi + 1:]
        idx = line.find("//")
        code = line if idx < 0 else line[:idx]
        comment = "" if idx < 0 else line[idx:]
        if code.strip():
            code = code.rstrip() + " ;"
        out.append(code + (" " + comment if comment else ""))
    return out


def _drop_suppressed(findings: list[Finding]) -> list[Finding]:
    sup_cache: dict[str, object] = {}
    kept = []
    for f in findings:
        if f.file not in sup_cache:
            path = os.path.join(REPO_ROOT, f.file)
            try:
                with open(path, encoding="utf-8") as fh:
                    lines = fh.read().splitlines()
                sup_cache[f.file] = parse_suppressions(_cxxish(lines))
            except OSError:
                sup_cache[f.file] = None
        sup = sup_cache[f.file]
        if sup is not None and sup.allows(f.rule, f.line):
            continue
        kept.append(f)
    return kept


# ---------------------------------------------------------------------
# Driver

def check_config(path: str, manifest: dict,
                 enabled: list[str]) -> list[Finding]:
    rel = _rel(path)
    findings: list[Finding] = []
    entries = parse_config(path, findings)
    env = _check_schema(entries, manifest.get("schema", {}), rel,
                        findings)
    words = env.pop("__words__")
    _derive(env, words, manifest.get("cell_energy_pj", {}), rel,
            findings)
    _check_constraints(env, entries, manifest.get("constraint", []),
                       rel, findings)
    _check_pulse_monotonicity(env, entries, rel, findings)

    findings = [f for f in findings if f.rule in enabled]
    findings = _drop_suppressed(findings)
    findings.sort(key=lambda f: (f.file, f.line, f.rule, f.message))
    # De-duplicate (an included file checked via two parents).
    seen, unique = set(), []
    for f in findings:
        key = (f.file, f.line, f.rule, f.message)
        if key not in seen:
            seen.add(key)
            unique.append(f)
    return unique


def _self_test(fixture_dir: str, manifest: dict, enabled: list[str],
               only_rules: set[str]) -> int:
    failures = []
    checked = 0
    paths = []
    for dirpath, _dirs, names in os.walk(fixture_dir):
        for name in sorted(names):
            if name.endswith(".config"):
                paths.append(os.path.join(dirpath, name))
    for path in sorted(paths):
        with open(path, encoding="utf-8") as fh:
            first = fh.readline()
        m = EXPECT_RE.search(first)
        if not m:
            continue
        expect = m.group(1)
        if expect != "none" and expect not in ALL_RULES:
            failures.append(
                f"{path}: unknown configcheck-expect rule '{expect}'")
            continue
        if only_rules and expect != "none" \
                and expect not in only_rules:
            continue  # per-rule run: fixture out of scope
        checked += 1
        got = check_config(path, manifest, enabled)
        name = os.path.basename(path)
        if expect == "none":
            if got:
                listing = "; ".join(f"{g.line}:[{g.rule}]" for g in got)
                failures.append(
                    f"{name}: expected no findings, got {listing}")
        else:
            if not any(g.rule == expect for g in got):
                failures.append(
                    f"{name}: expected a [{expect}] finding, got "
                    + ("; ".join(f"{g.line}:[{g.rule}]" for g in got)
                       if got else "none"))
            stray = [g for g in got if g.rule != expect]
            if stray:
                failures.append(
                    f"{name}: unexpected findings: " + "; ".join(
                        f"{g.line}:[{g.rule}]" for g in stray))

    if not checked:
        print(f"mellow-configcheck: self-test found no fixtures under "
              f"{fixture_dir}", file=sys.stderr)
        return 2
    for failure in failures:
        print(f"self-test FAIL: {failure}")
    print(f"mellow-configcheck self-test: "
          f"{checked - len(failures)}/{checked} fixtures ok "
          f"(rules: {', '.join(enabled)})")
    return 1 if failures else 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="mellow-configcheck",
        description="constraint-based verifier for device configs")
    parser.add_argument("configs", nargs="*",
                        help="config files to check "
                             "(default: configs/*.config)")
    parser.add_argument("--manifest",
                        default=os.path.join(ANALYZE_DIR,
                                             "configcheck.toml"))
    parser.add_argument("--sarif", metavar="OUT",
                        help="also write SARIF 2.1.0 to OUT")
    parser.add_argument("--only-rule", action="append", default=[],
                        metavar="RULE", choices=ALL_RULES,
                        help="run only this rule (repeatable)")
    parser.add_argument("--disable", action="append", default=[],
                        metavar="RULE", choices=ALL_RULES,
                        help="disable this rule (repeatable)")
    parser.add_argument("--self-test", metavar="DIR",
                        help="check the `; configcheck-expect:` "
                             "directives of every fixture in DIR")
    args = parser.parse_args(argv)

    try:
        with open(args.manifest, "rb") as fh:
            manifest = tomllib.load(fh)
    except (OSError, tomllib.TOMLDecodeError) as exc:
        print(f"mellow-configcheck: cannot load manifest "
              f"{args.manifest}: {exc}", file=sys.stderr)
        return 2

    enabled = [r for r in ALL_RULES
               if (not args.only_rule or r in args.only_rule)
               and r not in args.disable]

    if args.self_test:
        return _self_test(os.path.realpath(args.self_test), manifest,
                          enabled, set(args.only_rule))

    configs = args.configs
    if not configs:
        default_dir = os.path.join(REPO_ROOT, "configs")
        configs = sorted(
            os.path.join(default_dir, n)
            for n in os.listdir(default_dir) if n.endswith(".config"))
    if not configs:
        print("mellow-configcheck: no input configs", file=sys.stderr)
        return 2

    findings: list[Finding] = []
    for path in configs:
        findings.extend(check_config(path, manifest, enabled))

    if args.sarif:
        from sarif import to_sarif
        with open(args.sarif, "w", encoding="utf-8") as fh:
            fh.write(to_sarif(
                findings, tool_name="mellow-configcheck",
                information_uri="tools/analyze/configcheck.py",
                rule_ids=ALL_RULES,
                rule_descriptions=RULE_DESCRIPTIONS))

    for f in findings:
        print(f"{f.file}:{f.line}: [{f.rule}] {f.message}")
    print(f"mellow-configcheck: {len(findings)} finding(s) across "
          f"{len(configs)} config(s), rules: {', '.join(enabled)}",
          file=sys.stderr)
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main())
