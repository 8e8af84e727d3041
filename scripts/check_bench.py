#!/usr/bin/env python3
"""Benchmark regression gate; docs/BENCHMARKS.md is its only spec.

    check_bench.py [dir_or_file ...]      # default: current directory

Each ``## `BENCH_x.json` `` section's ``| Field | Type | Meaning |``
tables are that file's schema (a ``?`` type suffix marks an optional
field; ``int`` and ``float`` reject JSON booleans), and the "CI gates"
table (``| File | Bar | Enforced when |``) lists the bars. This script
holds no file name, field name or bound of its own. Every bar prints
PASS, SKIP (condition unmet, value shown) or FAIL. An unknown file, no
file at all, or a malformed doc row fails the run. A built-in self-test
runs first on every call: a gate that cannot fail is no gate.
"""
import json
import operator
import pathlib
import re
import sys

SPEC = pathlib.Path(__file__).resolve().parents[1] / "docs" / "BENCHMARKS.md"
TYPES = {"int": int, "float": (int, float), "str": str, "bool": bool,
         "object": dict, "list": list}
OPS = {">=": operator.ge, "<=": operator.le, ">": operator.gt,
       "<": operator.lt, "==": operator.eq, "!=": operator.ne}
MISSING = object()


def type_ok(value, kind):
    if isinstance(value, bool):  # bool is an int subclass in Python
        return kind == "bool"
    return isinstance(value, TYPES[kind])


def parse_expr(text, fields):
    """`field op literal` -> (field, op, literal); raises ValueError."""
    m = re.fullmatch(r"`(\S+) (\S+) (.+)`", text)
    if not m:
        raise ValueError(f"expected `<field> <op> <literal>`: {text}")
    field, op, lit = m.groups()
    try:
        literal = json.loads(lit)
    except json.JSONDecodeError:
        literal = None
    kind = fields.get(field, ("undocumented",))[0]
    if op not in OPS:
        raise ValueError(f"unknown op '{op}' in {text}")
    if not isinstance(literal, (bool, int, float, str)):
        raise ValueError(f"unparsable literal '{lit}' in {text}")
    if kind not in ("int", "float", "bool", "str") or "[]" in field \
            or not type_ok(literal, kind) \
            or (kind in ("bool", "str") and op not in ("==", "!=")):
        raise ValueError(f"'{op} {lit}' does not apply to {kind} field "
                         f"'{field}'")
    return field, op, literal


def parse_spec(text):
    """-> ({file: {field: (type, optional)}}, [gate], [error])."""
    schemas, gates, errors, gate_rows = {}, [], [], []
    section = header = None
    for n, line in enumerate(text.splitlines(), 1):
        if line.startswith("## "):
            m = re.match(r"## `(BENCH_\w+\.json)`", line)
            section = m and m.group(1)
            if section:
                schemas[section] = {}
        row = [c.strip() for c in line.strip().strip("|").split("|")]
        if not line.startswith("|"):
            header = None
        elif header is None:
            header = row
        elif set("".join(row)) <= set("-: "):
            continue
        elif header == ["File", "Bar", "Enforced when"]:
            gate_rows.append((n, row))
        elif section and header[0] == "Field":
            kind = row[1].removesuffix("?") if len(row) == 3 else None
            if header != ["Field", "Type", "Meaning"] or kind not in TYPES \
                    or not re.fullmatch(r"`[\w.\[\]]+`", row[0]):
                errors.append(f"line {n}: bad field row {line.strip()}")
                continue
            field, schema = row[0].strip("`"), schemas[section]
            for part in re.finditer(r"\[\]|\.", field):  # implied parents
                schema.setdefault(field[:part.start()], (
                    "list" if part.group() == "[]" else "object", False))
            schema[field] = (kind, row[1].endswith("?"))
    for n, row in gate_rows:
        try:
            name = row[0].strip("`")
            if len(row) != 3 or name not in schemas:
                raise ValueError(f"gate row needs a documented file, a bar "
                                 f"and a condition: {' | '.join(row)}")
            cond = None if row[2] == "always" else \
                parse_expr(row[2], schemas[name])
            gates.append((name, parse_expr(row[1], schemas[name]), cond))
        except ValueError as err:
            errors.append(f"line {n}: {err}")
    return schemas, gates, errors


def lookup(data, path):
    """Every value at `path` as (location, value): MISSING where its
    parent lacks it, nothing where the parent itself is absent."""
    found = [("", data)]
    for part in path.split("."):
        key, step = part.removesuffix("[]"), []
        for where, node in found:
            if not isinstance(node, dict):
                continue
            here, value = f"{where}.{key}".lstrip("."), node.get(key, MISSING)
            if not part.endswith("[]"):
                step.append((here, value))
            elif isinstance(value, list):
                step += [(f"{here}[{i}]", v) for i, v in enumerate(value)]
        found = step
    return found


def check(schemas, gates, name, data):
    """Verdicts for one file: [(PASS|SKIP|FAIL, message)]."""
    if name not in schemas:
        return [("FAIL", f"{name}: unknown benchmark file — give it a "
                         f"section in docs/BENCHMARKS.md")]
    out = []
    for field, (kind, optional) in schemas[name].items():
        for where, value in lookup(data, field):
            if value is MISSING and not optional:
                out.append(("FAIL", f"{name}: missing field '{where}'"))
            elif value is not MISSING and not type_ok(value, kind):
                out.append(("FAIL", f"{name}: field '{where}' is "
                                    f"{type(value).__name__}, not {kind}"))

    def measure(field, op, literal):
        """("field = value", "op literal", comparison result or None)."""
        value = next((v for _, v in lookup(data, field)), MISSING)
        if value is MISSING or not type_ok(value, schemas[name][field][0]):
            return f"{field} = unusable", f"{op} {json.dumps(literal)}", None
        shown = f"{value:.4g}" if isinstance(value, float) else \
            json.dumps(value)
        return (f"{field} = {shown}", f"{op} {json.dumps(literal)}",
                OPS[op](value, literal))

    for file, bar, cond in gates:
        if file != name:
            continue
        value, bound, held = measure(*bar)
        when = ""
        if cond:
            cvalue, cbound, cheld = measure(*cond)
            if held is not None and cheld is False:
                out.append(("SKIP", f"{name}: {value} (bar {bound}) "
                                    f"SKIPPED: {cvalue}, enforced when "
                                    f"{cond[0]} {cbound}"))
                continue
            held, when = held and cheld, f" (when {cvalue} {cbound})"
        out.append(("PASS", f"{name}: {value} {bound}{when}") if held else
                   ("FAIL", f"{name}: {value} MISSES the bar {bound}{when}"))
    return out


SELF_TEST_DOC = """## `BENCH_t.json` — self-test
| Field | Type | Meaning |
| --- | --- | --- |
| `x` | float | gated value |
| `n` | int | condition |
| `rows[].k` | str | row field |
| `extra` | object? | optional |

## CI gates
| File | Bar | Enforced when |
| --- | --- | --- |
| `BENCH_t.json` | `x >= 2.0` | `n >= 4` |
"""
SELF_TEST_CASES = [  # (expected verdict, file, JSON) on SELF_TEST_DOC
    ("PASS", "BENCH_t.json", '{"x": 3, "n": 4, "rows": [{"k": "a"}]}'),
    ("FAIL", "BENCH_t.json", '{"x": 1.0, "n": 4, "rows": []}'),
    ("SKIP", "BENCH_t.json", '{"x": 1.0, "n": 1, "rows": []}'),
    ("FAIL", "BENCH_t.json", '{"n": 4, "rows": []}'),
    ("FAIL", "BENCH_t.json", '{"x": true, "n": 4, "rows": []}'),
    ("FAIL", "BENCH_t.json", '{"x": 1.2, "n": true, "rows": []}'),
    ("FAIL", "BENCH_t.json", '{"x": 3.0, "n": 4, "rows": [{}]}'),
    ("FAIL", "BENCH_u.json", '{"x": 3.0, "n": 4, "rows": []}'),
]
SELF_TEST_MALFORMED = [  # gate rows that must each give one doc error
    "| `BENCH_t.json` | `x => 2.0` | always |",
    "| `BENCH_t.json` | `x >= two` | always |",
    "| `BENCH_t.json` | `y >= 2.0` | always |",
]


def self_test():
    """Problems found in this script's own logic (empty when sound)."""
    schemas, gates, problems = parse_spec(SELF_TEST_DOC)
    for want, name, text in SELF_TEST_CASES:
        kinds = {v for v, _ in check(schemas, gates, name, json.loads(text))}
        got = next((k for k in ("FAIL", "SKIP") if k in kinds), "PASS")
        if got != want:
            problems.append(f"{name} {text}: {got}, expected {want}")
    for row in SELF_TEST_MALFORMED:
        if len(parse_spec(f"{SELF_TEST_DOC}{row}\n")[2]) != 1:
            problems.append(f"malformed gate row not rejected: {row}")
    return problems


def main(argv):
    problems = self_test()
    if problems:
        print("\n".join(f"FAIL  self-test: {p}" for p in problems))
        print("\ncheck_bench: the self-test failed; no file was checked")
        return 1
    schemas, gates, errors = parse_spec(SPEC.read_text(encoding="utf-8"))
    results = [("FAIL", f"{SPEC.name}: {e}") for e in errors]
    roots = [pathlib.Path(a) for a in argv[1:]] or [pathlib.Path(".")]
    files = [f for root in roots for f in (
        sorted(root.glob("BENCH_*.json")) if root.is_dir() else [root])]
    if not files:
        results.append(("FAIL", f"no BENCH_*.json found under: "
                                f"{', '.join(str(r) for r in roots)}"))
    for path in files:
        try:
            data = json.loads(path.read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as err:
            results.append(("FAIL", f"{path.name}: unreadable ({err})"))
            continue
        results += check(schemas, gates, path.name, data)

    count = {k: [m for v, m in results if v == k]
             for k in ("PASS", "SKIP", "FAIL")}
    for kind, messages in count.items():
        for msg in messages:
            print(f"{kind}  {msg}")
    if count["FAIL"]:
        print(f"\ncheck_bench: {len(count['FAIL'])} failure(s) across "
              f"{len(files)} file(s)")
        return 1
    print(f"\ncheck_bench: OK ({len(files)} file(s), {len(count['PASS'])} "
          f"bar(s) held, {len(count['SKIP'])} skipped)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
