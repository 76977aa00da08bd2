#!/usr/bin/env python3
"""Planted bugs, kept as patches: each one must make its named tests fail.

Every test/mutants/NAME.patch is a unified diff against lib/. Its
header, the '#' lines before the diff, says what the bug is and names
the Alcotest tests that must catch it, one line each:

    # Test: SUITE GROUP INDEX NAME
    # Expect: TEXT

SUITE is the test executable (test/SUITE.exe), GROUP and INDEX select
the test as `SUITE.exe test GROUP INDEX` does, and NAME is the test's
name, checked against the suite's own listing so an index that drifts
is reported instead of running the wrong test. A patch may name several
tests; each must fail. The optional Expect line holds text that every
failing run's output must contain (for a chaos sweep, the violated
invariant, as in "I5 violated"), so a bug that trips some other check
on the way does not count as caught.

The script copies the tree into a cache directory (kept between runs
under the system temporary directory, so dune rebuilds only what a
patch touches), checks that each named test passes on the unpatched
copy, then for each patch: applies it, rebuilds the suites, runs each
named test and requires it to fail, and takes the patch back out. Every
test run is repeated under each of the fixed QCHECK_SEED values in
SEEDS, so a property test draws the same cases on every run of the
script, and a bug its property catches under some seeds only is
reported as missed. A patch that no longer applies, a test that passes
with its bug in (or fails without the Expect text) under any seed, or a
test that fails without it under any seed all make the script exit 1.

Run from the repository root:

    python3 test/mutants.py              # every patch
    python3 test/mutants.py --only NAME  # one patch, test/mutants/NAME.patch
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MUTANTS = os.path.join(ROOT, "test", "mutants")
CACHE = os.path.join(tempfile.gettempdir(), "udma-mutants")
# what building the test suites needs
COPIED = ["dune-project", "lib", "bin", "test"]
# the QCHECK_SEED values every named test runs under
SEEDS = (11, 257, 4099)
TEST_LINE = re.compile(r"^# Test: (\S+) (\S+) (\d+) (.+)$")
EXPECT_LINE = re.compile(r"^# Expect: (.+)$")


def run(cmd, cwd, env=None):
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, env=env)


def sync_tree():
    """Refresh the cached copy from the repository, keeping its _build."""
    os.makedirs(CACHE, exist_ok=True)
    for name in COPIED:
        src, dst = os.path.join(ROOT, name), os.path.join(CACHE, name)
        if os.path.isdir(dst):
            shutil.rmtree(dst)
        elif os.path.exists(dst):
            os.remove(dst)
        if os.path.isdir(src):
            shutil.copytree(src, dst, ignore=shutil.ignore_patterns("_build"))
        else:
            shutil.copy2(src, dst)


def read_mutant(path):
    """The (suite, group, index, name) tests a patch's header names, and
    its Expect text (None without one)."""
    tests, expect = [], None
    with open(path) as f:
        for line in f:
            if not line.startswith("#"):
                break
            line = line.rstrip("\n")
            m = TEST_LINE.match(line)
            if m:
                suite, group, index, name = m.groups()
                tests.append((suite, group, int(index), name))
            m = EXPECT_LINE.match(line)
            if m:
                expect = m.group(1)
    return tests, expect


def build(suite):
    return run(["dune", "build", "--root", ".", f"test/{suite}.exe"], CACHE)


def run_test(suite, group, index):
    """(seed, passed, output) for each seed of SEEDS."""
    exe = os.path.join(CACHE, "_build", "default", "test", f"{suite}.exe")
    runs = []
    for seed in SEEDS:
        env = dict(os.environ, QCHECK_SEED=str(seed))
        r = run([exe, "test", group, str(index)], CACHE, env)
        runs.append((seed, r.returncode == 0, r.stdout + r.stderr))
    return runs


def listed_name(suite, group, index):
    """The suite's own (possibly shortened) name for GROUP INDEX."""
    exe = os.path.join(CACHE, "_build", "default", "test", f"{suite}.exe")
    out = run([exe, "list"], CACHE).stdout
    for line in out.splitlines():
        fields = line.split(None, 2)
        if len(fields) == 3 and fields[0] == group and fields[1] == str(index):
            return fields[2]
    return None


def names_agree(listed, name):
    # Alcotest ends a listed name with "." and shortens a long one with "..."
    if listed.endswith("..."):
        return name.startswith(listed[:-3])
    return listed.rstrip(".") == name.rstrip(".")


def git_apply(patch, *flags):
    return run(["git", "apply", *flags, patch], CACHE)


def main(argv):
    patches = sorted(
        os.path.join(MUTANTS, p) for p in os.listdir(MUTANTS) if p.endswith(".patch")
    )
    if argv[:1] == ["--only"] and len(argv) == 2:
        patches = [p for p in patches if os.path.basename(p) == argv[1] + ".patch"]
        if not patches:
            print(f"no mutant test/mutants/{argv[1]}.patch")
            return 1
    elif argv:
        print("usage: python3 test/mutants.py [--only NAME]")
        return 1
    if not patches:
        print("no mutants under test/mutants")
        return 1
    sync_tree()
    failures = []
    mutants = []
    for patch in patches:
        label = os.path.basename(patch)[: -len(".patch")]
        tests, expect = read_mutant(patch)
        if not tests:
            failures.append(f"{label}: header names no test ('# Test: SUITE GROUP INDEX NAME')")
        else:
            mutants.append((label, patch, tests, expect))

    # every named test passes, under its name, before any bug goes in
    for suite in sorted({t[0] for _, _, tests, _ in mutants for t in tests}):
        b = build(suite)
        if b.returncode != 0:
            print(b.stderr)
            print(f"FAIL: test/{suite}.exe does not build from the unpatched tree")
            return 1
    checked = set()
    for label, _, tests, _ in mutants:
        for suite, group, index, name in tests:
            if (suite, group, index) in checked:
                continue
            checked.add((suite, group, index))
            listed = listed_name(suite, group, index)
            if listed is None or not names_agree(listed, name):
                failures.append(
                    f"{label}: {suite} {group} {index} is {listed!r}, not {name!r}"
                )
            else:
                failed = [seed for seed, ok, _ in run_test(suite, group, index) if not ok]
                if failed:
                    failures.append(
                        f"{label}: {suite} {group} {index} fails without the bug"
                        f" (QCHECK_SEED {failed})"
                    )

    for label, patch, tests, expect in mutants:
        if git_apply(patch, "--check").returncode != 0:
            failures.append(f"{label}: the patch no longer applies")
            print(f"{label:32} does not apply")
            continue
        git_apply(patch)
        try:
            for suite, group, index, name in tests:
                b = build(suite)
                if b.returncode != 0:
                    failures.append(f"{label}: the patched tree does not build")
                    print(b.stderr)
                    verdict = "does not build"
                else:
                    runs = run_test(suite, group, index)
                    passed = [seed for seed, ok, _ in runs if ok]
                    unexpected = [
                        seed for seed, ok, out in runs
                        if not ok and expect is not None and expect not in out
                    ]
                    if passed:
                        failures.append(
                            f"{label}: {suite} {group} {index} ({name}) passes with the"
                            f" bug in (QCHECK_SEED {passed})"
                        )
                        verdict = "MISSED"
                    elif unexpected:
                        failures.append(
                            f"{label}: {suite} {group} {index} ({name}) fails without"
                            f" {expect!r} in its output (QCHECK_SEED {unexpected})"
                        )
                        verdict = "failed otherwise"
                    else:
                        verdict = "caught"
                print(f"{label:32} {verdict} by {suite} {group} {index} ({name})")
        finally:
            git_apply(patch, "-R")

    for f in failures:
        print("FAIL:", f)
    print(f"{len(mutants)} mutants, {len(SEEDS)} seeds each, {len(failures)} failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
