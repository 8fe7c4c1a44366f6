#!/usr/bin/env python3
"""Fail if docs/OPERATIONS.md and the config structs disagree.

Checks, against the actual source tree:
  * every field of core::ErmsConfig        (src/core/erms.h)
  * every field of judge::Thresholds       (src/judge/thresholds.h)
  * every field of AccessPredictor::Config (src/judge/predictor.h)
  * every ERMS_* environment variable referenced anywhere in
    src/, bench/, examples/ or tests/
must appear in docs/OPERATIONS.md as `name` (backticked), and, the other
way round, every row of a config table (a table under a heading that
names a struct and its header, e.g. "## 2. `judge::Thresholds`
(src/judge/thresholds.h)") must name a field that struct still has.

Stdlib only; the struct parser is deliberately dumb — it splits the
brace-balanced struct body into `;`-terminated statements and keeps
`type name = default;` / `type name{};` / `type name;` members, which is
all these aggregate config structs contain besides small methods.
"""
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
OPS = REPO / "docs" / "OPERATIONS.md"

DECLARATOR_RE = re.compile(r"([A-Za-z_]\w*)\s*(?:\[[^\]]*\])?\s*$")
NOT_MEMBERS = ("enum", "using", "static", "friend", "struct", "class", "typedef")
CONFIG_HEADING_RE = re.compile(r"^#+ [^`]*`(?:[\w:]*::)?(\w+)`.*?(src/[\w/]+\.h)")
TABLE_ROW_RE = re.compile(r"^\|\s*`([^`]+)`\s*\|")


def struct_body(text, struct_name, path):
    m = re.search(rf"struct\s+{struct_name}\s*\{{", text)
    if not m:
        sys.exit(f"error: struct {struct_name} not found in {path}")
    depth, start = 1, m.end()
    pos = start
    while depth > 0:
        if pos >= len(text):
            sys.exit(f"error: unbalanced braces for {struct_name} in {path}")
        if text[pos] == "{":
            depth += 1
        elif text[pos] == "}":
            depth -= 1
        pos += 1
    return text[start : pos - 1]


def fields_of(header, struct_name):
    body = struct_body(header.read_text(), struct_name, header)
    body = re.sub(r"//[^\n]*", "", body)
    body = re.sub(r"/\*.*?\*/", "", body, flags=re.S)
    # Drop nested brace contents (method bodies, brace initializers); a
    # closing brace ends a statement, so `bool valid() const { ... }` does
    # not run into the member after it.
    flat, depth = [], 0
    for ch in body:
        if ch == "{":
            depth += 1
        elif ch == "}":
            depth -= 1
            if depth == 0:
                flat.append(";")
        elif depth == 0:
            flat.append(ch)
    names = []
    for stmt in "".join(flat).split(";"):
        decl = stmt.split("=", 1)[0].strip()
        if not decl or "(" in decl or decl.split()[0] in NOT_MEMBERS:
            continue  # empty, a method/constructor, or a nested type
        m = DECLARATOR_RE.search(decl)
        if m and len(decl.split()) >= 2:
            names.append(m.group(1))
    if not names:
        sys.exit(f"error: no members parsed for {struct_name} in {header}")
    return names


def table_rows(ops):
    """(struct, header, row names) for each config table in OPERATIONS.md."""
    tables, current = [], None
    for line in ops.splitlines():
        if line.startswith("#"):
            m = CONFIG_HEADING_RE.match(line)
            current = (m.group(1), m.group(2), []) if m else None
            if current:
                tables.append(current)
        elif current:
            m = TABLE_ROW_RE.match(line)
            if m:
                current[2].append(m.group(1))
    return tables


def env_knobs():
    knobs = set()
    for sub in ("src", "bench", "examples", "tests"):
        if not (REPO / sub).is_dir():
            continue
        for path in (REPO / sub).rglob("*"):
            if path.suffix in (".h", ".cpp", ".cc"):
                knobs.update(re.findall(r'"(ERMS_[A-Z_]+)"', path.read_text()))
    return sorted(knobs)


def main():
    ops = OPS.read_text()
    documented = set(re.findall(r"`([^`]+)`", ops))

    required = {
        "ErmsConfig": fields_of(REPO / "src/core/erms.h", "ErmsConfig"),
        "judge::Thresholds": fields_of(REPO / "src/judge/thresholds.h", "Thresholds"),
        "AccessPredictor::Config": fields_of(REPO / "src/judge/predictor.h", "Config"),
        "environment": env_knobs(),
    }

    missing = []
    for group, names in required.items():
        for name in names:
            if name not in documented:
                missing.append(f"{group}: {name}")

    stale = []
    for struct, header, rows in table_rows(ops):
        fields = set(fields_of(REPO / header, struct))
        stale += [f"{struct} ({header}): {row}" for row in rows if row not in fields]

    total = sum(len(v) for v in required.values())
    if missing:
        print(f"docs/OPERATIONS.md is missing {len(missing)} of {total} item(s):",
              file=sys.stderr)
        for item in missing:
            print(f"  {item}", file=sys.stderr)
    if stale:
        print(f"docs/OPERATIONS.md documents {len(stale)} field(s) the struct "
              f"no longer has:", file=sys.stderr)
        for item in stale:
            print(f"  {item}", file=sys.stderr)
    if missing or stale:
        return 1
    print(f"OK: all {total} config fields and env knobs are documented "
          f"in docs/OPERATIONS.md, and every config table row names a live field")
    return 0


if __name__ == "__main__":
    sys.exit(main())
