#!/usr/bin/env python3
"""Count exported values that nothing calls.

Every `val` declared in `lib/*/*.mli` must have a caller outside its own
module: a use in some other `.ml` file under `lib/`, `bin/`, `perfbench/`,
`test/` or `examples/`. A use is one of

  * a module-qualified reference, `Router.send` or `Udma_shrimp.Router.send`;
  * a reference through a module alias, `module R = Udma_shrimp.Router`
    then `R.send`;
  * a bare `send` in a file that opens or includes the module (`open`,
    `include`, `let open`, or a local open `Router.( ... )`,
    `Router.[ ... ]` or `Router.{ ... }`).

Comments and string literals are skipped. Names are matched textually, so
the scan errs towards calling a value used; the compiler's unused-value
warning then finds what the removal of an export leaves dead.

A value that must stay exported without a caller carries a comment on the
line directly above its `val`:

    (* kept: <one-line reason> *)

Such values are listed as kept and not counted.

Usage: python3 test/unused_exports.py [ROOT]
Prints one line per unused export, then the count. Exits 1 if the count is
above 0.
"""

import os
import re
import sys

SOURCE_DIRS = ("lib", "bin", "perfbench", "test", "examples")
KEEP_TAG = re.compile(r"\(\*\s*kept:\s*\S")


def strip(text):
    """Blank out comments and string literals, keeping line structure."""
    out = []
    i, n, depth = 0, len(text), 0
    while i < n:
        c = text[i]
        if text.startswith("(*", i):
            depth += 1
            out.append("  ")
            i += 2
        elif depth and text.startswith("*)", i):
            depth -= 1
            out.append("  ")
            i += 2
        elif c == '"':
            # a string literal (also inside comments, where it may hold "*)")
            j = i + 1
            while j < n and text[j] != '"':
                j += 2 if text[j] == "\\" else 1
            out.append(re.sub(r"[^\n]", " ", text[i : j + 1]))
            i = j + 1
        elif not depth and c == "{" and re.match(r"\{([a-z_]*)\|", text[i:]):
            tag = re.match(r"\{([a-z_]*)\|", text[i:]).group(1)
            end = text.find("|" + tag + "}", i)
            end = n if end < 0 else end + len(tag) + 2
            out.append(re.sub(r"[^\n]", " ", text[i:end]))
            i = end
        elif c == "'" and re.match(r"'(\\.|[^\\'])'", text[i:]):
            # a char literal such as '"'; type variables ('a) do not match
            m = re.match(r"'(\\.|[^\\'])'", text[i:])
            out.append(" " * len(m.group(0)))
            i += len(m.group(0))
        else:
            out.append(c if not depth or c == "\n" else " ")
            i += 1
    return "".join(out)


def libraries(root):
    """Map each directory under lib/ to its dune library name."""
    libs = {}
    for d in sorted(os.listdir(os.path.join(root, "lib"))):
        dune = os.path.join(root, "lib", d, "dune")
        if os.path.exists(dune):
            m = re.search(r"\(name\s+(\w+)\)", open(dune).read())
            if m:
                libs[d] = m.group(1)
    return libs


def exports(root, libs):
    """Every `val` of every lib/*/*.mli: {(lib, Module): [(name, line, kept)]}."""
    mods = {}
    for d, lib in libs.items():
        for f in sorted(os.listdir(os.path.join(root, "lib", d))):
            if not f.endswith(".mli"):
                continue
            path = os.path.join(root, "lib", d, f)
            raw = open(path).read().split("\n")
            code = strip("\n".join(raw)).split("\n")
            vals = []
            for ln, line in enumerate(code):
                m = re.match(r"\s*val\s+(?:\(\s*([^\s)]+)\s*\)|([a-z_][\w']*))", line)
                if m:
                    name = m.group(1) or m.group(2)
                    kept = ln > 0 and KEEP_TAG.search(raw[ln - 1]) is not None
                    vals.append((name, ln + 1, kept))
            mods[(lib, f[:-4].capitalize())] = (os.path.relpath(path, root), vals)
    return mods


def sources(root):
    for top in SOURCE_DIRS:
        for dirpath, dirnames, files in os.walk(os.path.join(root, top)):
            dirnames[:] = [x for x in dirnames if not x.startswith(("_", "."))]
            for f in sorted(files):
                if f.endswith(".ml"):
                    yield os.path.join(dirpath, f)


def main():
    root = sys.argv[1] if len(sys.argv) > 1 else os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    libs = libraries(root)
    lib_names = set(libs.values())
    mods = exports(root, libs)
    by_name = {}
    for lib, name in mods:
        by_name.setdefault(name, set()).add((lib, name))
    used = set()

    for path in sources(root):
        rel = os.path.relpath(path, root)
        parts = rel.split(os.sep)
        here = libs.get(parts[1]) if parts[0] == "lib" else None
        own = (here, os.path.basename(path)[:-3].capitalize()) if here else None
        code = strip(open(path).read())
        aliases = {}

        def resolve(p):
            """The exported modules a module path may name in this file."""
            comps = p.split(".")
            last = comps[-1]
            if len(comps) == 1 and last in aliases:
                return aliases[last]
            lib = next((c.lower() for c in comps[:-1] if c.lower() in lib_names), here)
            if (lib, last) in mods:
                return {(lib, last)}
            return by_name.get(last, set())

        for m in re.finditer(r"\bmodule\s+([A-Z]\w*)\s*=\s*([A-Z][\w.]*)", code):
            aliases[m.group(1)] = resolve(m.group(2))

        opened = set()
        for m in re.finditer(
            r"\b(?:open!?|include|let\s+open!?)\s+([A-Z][\w.]*)|\b([A-Z][\w.]*)\.[(\[{]",
            code,
        ):
            opened |= resolve(m.group(1) or m.group(2))

        for m in re.finditer(r"(?<![\w.'])([A-Z]\w*(?:\.[A-Z]\w*)*)\.([a-z_][\w']*)", code):
            for mod in resolve(m.group(1)) - {own}:
                used.add((mod, m.group(2)))

        for mod in opened - {own}:
            for name, _, _ in mods[mod][1]:
                if re.match(r"[a-z_]", name):
                    pat = r"(?<![\w.'])" + re.escape(name) + r"(?![\w'])"
                else:
                    pat = re.escape(name)
                if re.search(pat, code):
                    used.add((mod, name))

    unused, kept = [], []
    for mod, (path, vals) in sorted(mods.items(), key=lambda kv: kv[1][0]):
        for name, line, keep in vals:
            if (mod, name) not in used:
                (kept if keep else unused).append(f"{path}:{line}: {mod[1]}.{name}")
    for line in unused:
        print(line)
    for line in kept:
        print(f"{line} (kept)")
    print(f"unused exports: {len(unused)}")
    return 1 if unused else 0


if __name__ == "__main__":
    sys.exit(main())
