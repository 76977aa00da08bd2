#!/usr/bin/env python3
"""Count bare `min`/`max` uses in `lib/**/*.ml`.

Stdlib's `min` and `max` are polymorphic: without flambda each use is a C
call into `compare_val`, even on two ints. Library code says what it
compares instead: `Int.min`/`Int.max` on ints, `Float.min`/`Float.max` on
floats.

A use is the identifier `min` or `max` standing alone, as a call
(`max a b`) or as a value (`List.fold_left max 0 xs`). Not counted:

  * comments and string literals;
  * a qualified name, `Int.max`, or a field access, `s.Slo.max`;
  * a label, `~max`, `~max:n`, `?max`;
  * a record field in a type or a record value, `max : int`, `max = v`.

Usage: python3 test/poly_compare.py [ROOT]
Prints one line per use, then the count. Exits 1 if the count is above 0.
"""

import os
import re
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from unused_exports import strip  # noqa: E402

USE = re.compile(r"(?<![\w.'~?])(min|max)(?![\w'])(?!\s*:)(?!\s*=(?!=))")


def uses(root):
    for dirpath, dirnames, files in os.walk(os.path.join(root, "lib")):
        dirnames[:] = sorted(x for x in dirnames if not x.startswith(("_", ".")))
        for f in sorted(files):
            if not f.endswith(".ml"):
                continue
            path = os.path.join(dirpath, f)
            rel = os.path.relpath(path, root)
            for ln, line in enumerate(strip(open(path).read()).split("\n")):
                for m in USE.finditer(line):
                    yield f"{rel}:{ln + 1}: {m.group(1)}"


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    found = list(uses(root))
    for line in found:
        print(line)
    print(f"polymorphic min/max uses: {len(found)}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
