#!/usr/bin/env python3
"""Fails when a library header under src/ is reached only by tests.

A header counts as reached when some file in src/, bench/, examples/ or
servebench/ includes it, other than the header's own .cc. Headers whose
only includers are themselves unreached (or the .cc files of unreached
headers) are unreached too, so the check iterates to a fixpoint.

    python3 tools/check_unreached.py [--root=REPO]

Exits 0 when every header is reached, 1 otherwise (listing the offenders).
Standard library only.
"""
import argparse
import os
import re
import sys

INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)
SCAN_DIRS = ("src", "bench", "examples", "servebench")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp")


def source_files(root):
    for top in SCAN_DIRS:
        for dirpath, _, names in os.walk(os.path.join(root, top)):
            for name in sorted(names):
                if name.endswith(SOURCE_EXTS):
                    yield os.path.relpath(os.path.join(dirpath, name), root)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        default=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        help="repository root (default: the parent of tools/)")
    args = parser.parse_args()

    files = list(source_files(args.root))
    # Headers are named the way they are included: relative to src/.
    headers = {os.path.relpath(f, "src") for f in files
               if f.startswith("src" + os.sep) and f.endswith((".h", ".hpp"))}
    includes = {}
    for f in files:
        with open(os.path.join(args.root, f), encoding="utf-8") as fh:
            includes[f] = set(INCLUDE.findall(fh.read())) & headers

    def own_files(header):
        stem = os.path.join("src", os.path.splitext(header)[0])
        return {os.path.join("src", header), stem + ".cc", stem + ".cpp"}

    unreached = set()
    while True:
        dead_files = set()
        for header in unreached:
            dead_files |= own_files(header)
        newly = set()
        for header in headers - unreached:
            own = own_files(header)
            if not any(header in inc for f, inc in includes.items()
                       if f not in own and f not in dead_files):
                newly.add(header)
        if not newly:
            break
        unreached |= newly

    if unreached:
        print("headers under src/ that nothing outside tests/ reaches:")
        for header in sorted(unreached):
            print("  src/" + header)
        print("Wire each into a production path, figure, example or "
              "benchmark, or delete it with its tests.")
        return 1
    print("check_unreached: all %d src/ headers are reached" % len(headers))
    return 0


if __name__ == "__main__":
    sys.exit(main())
