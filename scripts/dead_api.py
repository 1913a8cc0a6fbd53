#!/usr/bin/env python3
"""List header-declared functions with no caller outside their own
translation unit, other than tests.

A function declared in src/<dir>/<stem>.h counts as used when its name
appears as a whole word in a C++ file under src/, examples/, bench/ or
perfbench/ other than <stem>.h and <stem>.cpp. Names found only under
tests/ are reported as "tests only"; names found nowhere else as
"no caller". Matching is by name, after comments and string literals are
stripped, so an overloaded or common name (run, size) always looks used:
the list holds candidates to review, not proof. Declarations are found
by a line-level pattern, not a parser.

Usage (from anywhere):

    python3 scripts/dead_api.py [--root DIR]

Advisory: always exits 0.
"""
import argparse
import pathlib
import re
import sys

CALLER_DIRS = ("src", "examples", "bench", "perfbench")
TEST_DIR = "tests"
SUFFIXES = (".h", ".cpp")

# A declaration line: optional specifiers, a return type of one or more
# tokens, then the name and an opening parenthesis.
DECL = re.compile(
    r"^[ \t]*(?:(?:static|inline|constexpr|virtual|friend|extern|"
    r"\[\[nodiscard\]\])\s+)*"
    r"(?P<type>(?:[\w:<>,]+[ \t*&]+)+?)(?P<name>[A-Za-z_]\w*)\s*\(",
    re.M)
# Leading tokens that make the match a statement, not a declaration.
STATEMENT = {"return", "else", "throw", "new", "delete", "case", "goto",
             "co_return", "using", "typedef", "namespace", "if", "while"}
NOT_FUNCTIONS = {"if", "for", "while", "switch", "sizeof", "catch",
                 "static_assert", "decltype", "alignas", "alignof",
                 "requires", "defined", "noexcept", "return"}
SCOPE_EVENT = re.compile(r"[{}]|\b(?:public|private|protected)\s*:(?!:)")
CLASS_HEAD = re.compile(r"\b(?:class|struct|union)\b")
WORD = re.compile(r"\b[A-Za-z_]\w*\b")
COMMENT_OR_STRING = re.compile(
    r'//[^\n]*|/\*.*?\*/|"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'', re.S)


def strip(text):
    """Blank out comments and literals, keeping line numbers."""
    return COMMENT_OR_STRING.sub(
        lambda m: "\n" * m.group(0).count("\n") if m.group(0)[0] == "/" else '""',
        text)


def sources(root, top):
    base = root / top
    if not base.is_dir():
        return []
    return sorted(p for p in base.rglob("*") if p.suffix in SUFFIXES)


def scope_at(text):
    """(offset, visible) after each brace or access label. Visible means
    namespace scope or the public part of (nested) class bodies: not a
    function body, and not a private or protected section."""
    stack = []  # (kind, access) per open brace
    events = []  # (offset, public?) after each scope change
    last = 0
    for m in SCOPE_EVENT.finditer(text):
        tok = m.group(0)
        if tok == "{":
            head = text[last:m.start()]
            head = re.sub(r"alignas\s*\([^)]*\)", "", head)
            head = head[max(head.rfind(";"), head.rfind("}")) + 1:]
            if CLASS_HEAD.search(head) and "(" not in head and "=" not in head:
                kind = "class"
                access = "private" if re.search(r"\bclass\b(?![^<]*>)", head) else "public"
            elif re.search(r"\bnamespace\b", head):
                kind, access = "namespace", "public"
            else:
                kind, access = "block", "public"
            stack.append([kind, access])
        elif tok == "}":
            if stack:
                stack.pop()
        elif stack and stack[-1][0] == "class":
            stack[-1][1] = tok.split(":")[0].strip()
        last = m.end()
        visible = all(k != "block" and a == "public" for k, a in stack)
        events.append((m.end(), visible))
    return events


def declarations(header_text):
    """(line, name) of every function a header declares as public API."""
    events = scope_at(header_text)
    found = []
    i, visible = 0, True
    for m in DECL.finditer(header_text):
        while i < len(events) and events[i][0] <= m.start():
            visible = events[i][1]
            i += 1
        if not visible:
            continue
        name = m.group("name")
        first = m.group("type").split()[0]
        if name in NOT_FUNCTIONS or first in STATEMENT or not first[0].isalpha():
            continue
        if name.isupper() or name.startswith("operator"):
            continue  # macros and operators
        line = header_text.count("\n", 0, m.start("name")) + 1
        found.append((line, name))
    return found


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", default=pathlib.Path(__file__).resolve().parent.parent,
                        type=pathlib.Path, help="repository root")
    args = parser.parse_args()
    root = args.root.resolve()

    words = {}  # path -> identifiers in it
    for top in CALLER_DIRS + (TEST_DIR,):
        for path in sources(root, top):
            words[path] = set(WORD.findall(strip(path.read_text(errors="replace"))))

    report = []
    for header in sources(root, "src"):
        if header.suffix != ".h":
            continue
        own = {header, header.with_suffix(".cpp")}
        seen = set()
        for line, name in declarations(strip(header.read_text(errors="replace"))):
            if name in seen:
                continue
            seen.add(name)
            users = [p for p, ws in words.items() if p not in own and name in ws]
            if any(TEST_DIR not in p.relative_to(root).parts[:1] for p in users):
                continue
            where = "tests only" if users else "no caller"
            report.append(f"{header.relative_to(root)}:{line}: {name} ({where})")

    for row in report:
        print(row)
    print(f"dead_api: {len(report)} candidate(s); review before deleting "
          f"(name matching only)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
