#!/usr/bin/env python3
"""Fail when a header under src/ has no includer outside the tests.

Every src/**/*.hpp must be #included by at least one file under src/,
bench/ or examples/.  A header that only tests include is code no
program runs: delete it, or give it a caller.  Quoted includes are
resolved against src/ (the tree's include root) and against the
including file's own directory.

Exit code 0 when every header has an includer, 1 with the list of
orphans otherwise.

  $ python3 scripts/check_includes.py
"""

import pathlib
import re
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
INCLUDER_DIRS = ("src", "bench", "examples")
SOURCE_SUFFIXES = {".hpp", ".cpp", ".h", ".cc"}
INCLUDE = re.compile(r'^\s*#\s*include\s+"([^"]+)"', re.MULTILINE)


def included_headers():
    found = set()
    for top in INCLUDER_DIRS:
        for path in (ROOT / top).rglob("*"):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            for name in INCLUDE.findall(path.read_text(errors="replace")):
                for base in (SRC, path.parent):
                    target = (base / name).resolve()
                    if target != path.resolve() and target.is_file():
                        found.add(target)
    return found


def main():
    included = included_headers()
    orphans = sorted(h.relative_to(SRC).as_posix()
                     for h in SRC.rglob("*.hpp")
                     if h.resolve() not in included)
    if orphans:
        print("check_includes: FAIL: headers no file under src/, bench/ "
              "or examples/ includes:", file=sys.stderr)
        for name in orphans:
            print(f"  src/{name}", file=sys.stderr)
        return 1
    print(f"check_includes: OK ({len(list(SRC.rglob('*.hpp')))} headers)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
