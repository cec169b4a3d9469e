#!/usr/bin/env python3
"""Fails when an options struct under src/ carries per-query context.

The deadline, the explain recorder and the query id travel in one
QueryContext (src/common/query_context.h), passed to each stage beside its
options. An options struct holds only algorithm knobs, so a `Deadline*`,
an `ExplainRecorder*` or a `query_id` member in any `struct *Options`
is a copy creeping back.

    python3 tools/check_options_context.py [--root=REPO]

Exits 0 when no options struct has such a member, 1 otherwise (listing
each offender as file:line). Standard library only.
"""
import argparse
import os
import re
import sys

STRUCT = re.compile(r"\bstruct\s+(\w*Options)\s*(?::[^{;]*)?\{")
FORBIDDEN = (
    ("Deadline*", re.compile(r"\bDeadline\s*\*")),
    ("ExplainRecorder*", re.compile(r"\bExplainRecorder\s*\*")),
    ("query_id", re.compile(r"\bquery_id\s*(?:=|;|\{)")),
)
COMMENT = re.compile(r"//[^\n]*|/\*.*?\*/", re.DOTALL)


def blank_comments(text):
    """Replaces comments with spaces, keeping offsets and line numbers."""
    return COMMENT.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def struct_bodies(text):
    """Yields (name, body_start, body_end) for every `struct *Options {`."""
    for match in STRUCT.finditer(text):
        depth = 1
        pos = match.end()
        while pos < len(text) and depth > 0:
            if text[pos] == "{":
                depth += 1
            elif text[pos] == "}":
                depth -= 1
            pos += 1
        yield match.group(1), match.end(), pos - 1


def offenders(root):
    src = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src):
        for name in sorted(names):
            if not name.endswith((".h", ".hpp", ".cc", ".cpp")):
                continue
            path = os.path.join(dirpath, name)
            with open(path, encoding="utf-8") as fh:
                text = blank_comments(fh.read())
            for struct, begin, end in struct_bodies(text):
                body = text[begin:end]
                for label, pattern in FORBIDDEN:
                    for hit in pattern.finditer(body):
                        line = text.count("\n", 0, begin + hit.start()) + 1
                        yield os.path.relpath(path, root), line, struct, label


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the parent of tools/)")
    args = parser.parse_args()
    found = sorted(offenders(args.root))
    for path, line, struct, label in found:
        print("%s:%d: %s has a member of kind %s" % (path, line, struct, label))
    if found:
        print("check_options_context: %d per-query member(s) in options "
              "structs; pass them in QueryContext instead" % len(found))
        return 1
    print("check_options_context: no options struct carries per-query "
          "context")
    return 0


if __name__ == "__main__":
    sys.exit(main())
