#!/usr/bin/env python3
"""Fails when a C++ function body spans more than MAX_LINES (150) lines.

Usage: scripts/function_size.py FILE...

Comments and string/char literals are blanked first, so braces inside them
do not count; a ' inside a number is a digit separator (1'000, 0xFF'FF), not
a char literal. A function body is a brace block opened at namespace or
class scope right after a closing parenthesis (parameter list, optionally
followed by qualifiers, a trailing return type or a constructor's
initializer list). Everything nested inside it, lambdas and local classes
included, counts toward that function. The span is the number of lines from
the opening brace to the closing one.
"""

import re
import sys

MAX_LINES = 150
SCOPE_OPENER = re.compile(r"\b(namespace|class|struct|union|enum)\b")


def in_number(text, i):
    """Whether the ' at text[i] continues a numeric literal."""
    j = i
    while j > 0 and (text[j - 1].isalnum() or text[j - 1] in "'."):
        j -= 1
    return j < i and text[j].isdigit()


def strip(text):
    """Blanks comments and string/char literals, keeping newlines."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            i = n if j < 0 else j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c == '"' or (c == "'" and not in_number(text, i)):
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            out.append(c + "\n" * text.count("\n", i, j) + c)
            i = j + 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


def function_spans(text):
    """Yields (name, first line, line count) of every function body."""
    stack = []  # per open brace: "scope" (namespace/class) or "other"
    func_start = None  # (line, name) while inside a function body
    depth_at_func = 0
    statement = []  # text since the last ; { or } at scope level
    line = 1
    for c in strip(text):
        if c == "\n":
            line += 1
        if func_start is not None:
            if c == "{":
                stack.append("other")
            elif c == "}":
                stack.pop()
                if len(stack) == depth_at_func:
                    start, name = func_start
                    yield name, start, line - start + 1
                    func_start = None
                    statement = []
            continue
        if c == "{":
            head = "".join(statement)
            at_scope = all(kind == "scope" for kind in stack)
            if SCOPE_OPENER.search(head) and "(" not in head:
                stack.append("scope")
            elif at_scope and ")" in head:
                names = re.findall(r"([~\w:]+)\s*\(", head)
                func_start = (line, names[0] if names else "?")
                depth_at_func = len(stack)
                stack.append("other")
            else:
                stack.append("other")
            statement = []
        elif c == "}":
            if stack:
                stack.pop()
            statement = []
        elif c == ";":
            statement = []
        else:
            statement.append(c)


def main():
    if len(sys.argv) < 2:
        print(__doc__, file=sys.stderr)
        return 2
    failed = False
    for path in sys.argv[1:]:
        with open(path, encoding="utf-8") as f:
            text = f.read()
        for name, start, span in function_spans(text):
            if span > MAX_LINES:
                print(f"{path}:{start}: {name} spans {span} lines "
                      f"(max {MAX_LINES})")
                failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
