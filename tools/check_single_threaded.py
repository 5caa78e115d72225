#!/usr/bin/env python3
"""Check that the serve core and observability stay single-threaded.

The serve engine advances one virtual timeline on one caller
(docs/ENGINE.md), so nothing under src/serve or src/obs may bring in
concurrency. This fails when any source file there

  * includes <thread>, <mutex>, <shared_mutex>, <future>, <atomic> or
    <condition_variable>, or
  * names std::thread, std::async or std::promise in code (comments and
    string literals are ignored).

Usage: python3 tools/check_single_threaded.py [--root REPO_ROOT]

Exits non-zero listing every violation as path:line: text.
"""
import argparse
import pathlib
import re
import sys

SCANNED_DIRS = ("src/serve", "src/obs")
SOURCE_SUFFIXES = (".h", ".hpp", ".cc", ".cpp")
FORBIDDEN_HEADERS = ("thread", "mutex", "shared_mutex", "future", "atomic",
                     "condition_variable")
INCLUDE_RE = re.compile(r"^\s*#\s*include\s*<(%s)>" %
                        "|".join(FORBIDDEN_HEADERS))
NAME_RE = re.compile(r"\bstd\s*::\s*(thread|async|promise)\b")
# A string/char literal or a comment, whichever starts first.
NON_CODE_RE = re.compile(
    r'"(?:\\.|[^"\\\n])*"|\'(?:\\.|[^\'\\\n])*\'|//[^\n]*|/\*.*?\*/',
    re.DOTALL)


def code_only(text: str) -> str:
    """Blank out comments and literals, keeping line breaks in place."""
    return NON_CODE_RE.sub(lambda m: re.sub(r"[^\n]", " ", m.group(0)), text)


def violations(root: pathlib.Path):
    for directory in SCANNED_DIRS:
        for path in sorted((root / directory).rglob("*")):
            if path.suffix not in SOURCE_SUFFIXES or not path.is_file():
                continue
            text = path.read_text(encoding="utf-8")
            original = text.splitlines()
            for number, line in enumerate(code_only(text).splitlines(), 1):
                include = INCLUDE_RE.search(line)
                name = NAME_RE.search(line)
                if include or name:
                    what = ("includes <%s>" % include.group(1) if include
                            else "names std::%s" % name.group(1))
                    yield "%s:%d: %s: %s" % (path.relative_to(root), number,
                                             what, original[number - 1].strip())


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--root", default=str(
        pathlib.Path(__file__).resolve().parent.parent))
    args = parser.parse_args()
    root = pathlib.Path(args.root)
    missing = [d for d in SCANNED_DIRS if not (root / d).is_dir()]
    if missing:
        print("check_single_threaded: missing " + ", ".join(missing))
        return 2
    found = list(violations(root))
    for line in found:
        print(line)
    if found:
        print("check_single_threaded: %d violation(s) under %s" %
              (len(found), " and ".join(SCANNED_DIRS)))
        return 1
    print("check_single_threaded: OK (%s)" % ", ".join(SCANNED_DIRS))
    return 0


if __name__ == "__main__":
    sys.exit(main())
