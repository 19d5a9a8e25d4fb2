#!/usr/bin/env python3
"""Repo-specific lint rules for webmon, run as a CTest (`ctest -R webmon_lint`).

Rules:
  guard      Include guards must be WEBMON_<PATH>_H_ derived from the file's
             repo-relative path (src/ stripped), e.g. src/model/cei.h ->
             WEBMON_MODEL_CEI_H_, tests/test_util.h -> WEBMON_TESTS_TEST_UTIL_H_.
  rng        No rand()/srand()/random()/time(nullptr) seeding outside
             src/util/rng.*: all randomness flows through util/rng so runs
             stay reproducible.
  usingns    No `using namespace` at any scope in headers (it leaks into
             every includer).
  sleep      No real-time sleeping/blocking (sleep_for, sleep_until, sleep,
             usleep, nanosleep): the simulation is driven purely by the
             chronon clock, and wall-clock waits make runs timing-dependent
             and fault injection non-reproducible.
  thread     No raw std::thread/std::jthread outside src/util/thread_pool.*:
             all parallelism goes through RunLanes so the determinism
             contract (parallel outputs byte-identical to serial ones) has
             a single enforcement point. Tests may spawn threads to exercise
             concurrency primitives directly.
  rawmutex   No std::mutex/std::condition_variable in files that do not
             include util/thread_annotations.h (directly or via
             util/mutex.h): locking goes through the annotated
             webmon::Mutex/MutexLock wrappers so clang
             -Wthread-safety (the `thread-safety` preset) sees every
             acquisition — a raw std::mutex is invisible to the analysis
             and silently exempts its file from the lock-discipline checks.
             Tests are exempt (they exercise the primitives directly).
  hotpath    Inside the Tick-phase hot functions of the online scheduler,
             the policies' per-chronon hooks, the per-probe bookkeeping
             of the schedule and the fault injector, and the proxy's
             per-event write path (HOTPATH_FUNCTIONS below), no by-value
             construction of std::vector/std::map locals and no
             push_back/emplace_back
             without a `hotpath-alloc-ok:` justification comment on the
             same line or the line directly above. The steady-state
             contract (docs/PERFORMANCE.md "Memory & sustained
             throughput", enforced at runtime by AllocSteadyTest) is that
             a fault-free Step performs zero heap allocations after
             warm-up; this rule keeps per-tick container churn from
             creeping back in. References/pointers to containers and
             member scratch reused across chronons are fine — the comment
             marks every growth point as amortized/reserved on purpose.

Self-test (`--self-test tests/lint`): every fixture carrying a
`// lint-expect: rule[,rule]` header (or `// lint-expect: none`) plus an
`// as-path:` header is linted as if it lived at that path; the run fails
unless the fired rule set matches exactly. Fixtures without a
`// lint-expect:` header belong to other analyzers and are skipped.

Exit status is the number of files with violations (0 = clean). Violations
are printed as file:line: rule: message, one per line.
"""

import argparse
import fnmatch
import os
import re
import sys

# Directories scanned for C++ sources, relative to the repo root.
SOURCE_DIRS = ("src", "tests", "tools", "bench", "examples")
HEADER_EXTS = (".h", ".hpp")
SOURCE_EXTS = (".h", ".hpp", ".cc", ".cpp", ".cxx")
SKIP_DIR_NAMES = {"build", "CMakeFiles", "__pycache__", ".git"}

# Files allowed to use the raw C PRNG / wall clock (the RNG wrapper itself).
RNG_EXEMPT = re.compile(r"^src/util/rng\.(h|cc)$")

# Files allowed to spawn raw threads: the pool itself, plus tests (which
# exercise concurrency primitives directly).
THREAD_EXEMPT = re.compile(r"^(src/util/thread_pool\.(h|cc)|tests/.*)$")

# `std::thread` / `std::jthread` in any position (construction, members,
# hardware_concurrency). std::this_thread does not match: after "std::"
# the pattern requires "thread" or "jthread" immediately.
RAW_THREAD = re.compile(r"\bstd\s*::\s*j?thread\b")

# Files allowed to name std::mutex / std::condition_variable without the
# annotations header: the annotated wrapper itself (whose whole point is to
# wrap them) and tests.
RAWMUTEX_EXEMPT = re.compile(r"^(src/util/mutex\.h|tests/.*)$")

RAW_MUTEX = re.compile(r"\bstd\s*::\s*(mutex|condition_variable)\b")
ANNOTATIONS_INCLUDE = re.compile(
    r'#\s*include\s+"util/(thread_annotations|mutex)\.h"')

BANNED_RANDOMNESS = [
    (re.compile(r"(?<![\w:.])s?rand\s*\("), "call to rand()/srand()"),
    (re.compile(r"(?<![\w:.])random\s*\("), "call to random()"),
    (re.compile(r"(?<![\w:.])time\s*\(\s*(nullptr|NULL|0)\s*\)"),
     "wall-clock seeding via time()"),
]

BANNED_SLEEP = [
    (re.compile(r"\bsleep_(for|until)\s*\("),
     "std::this_thread::sleep_for/sleep_until"),
    (re.compile(r"(?<![\w:.])u?sleep\s*\("), "call to sleep()/usleep()"),
    (re.compile(r"(?<![\w:.])nanosleep\s*\("), "call to nanosleep()"),
]

USING_NAMESPACE = re.compile(r"^\s*using\s+namespace\b")

LINE_COMMENT = re.compile(r"//.*$")

# --- Rule hotpath -----------------------------------------------------------
# Per-chronon hot functions whose bodies must not construct containers or
# grow them without an explicit justification. Keyed by repo-relative file
# pattern (fnmatch); the named methods are the ones on the
# OnlineScheduler::Step call path, including the policy hooks the rank
# phase calls once per chronon or once per candidate, the per-probe
# bookkeeping it calls once per attempt (the schedule's probe lists, the
# injector's draw and the scheduler's health entry, with the helpers that
# create a resource's entry on its first touch), and the proxy's write
# path: Tick's drain and the Submit/Push/Cancel closure bodies, which run
# once per ingested event.
HOTPATH_FUNCTIONS = {
    "src/online/online_scheduler.cc": {
        "Step", "RankScan", "Activate", "AdmitActive", "ProcessExpiries",
        "MarkFailed", "RetireTerminalState", "MoveSlot", "ResizeSlots",
        "IssueProbe", "RecordProbe", "Capture", "IndexPush", "RebuildIndex",
        "SelectFromIndex", "RekeyCei", "CaptureSlots", "SweepSlots",
        "RecordOutcome", "TouchHealth",
    },
    "src/model/schedule.cc": {"AddProbe", "ReserveProbesAt"},
    "src/faults/fault_model.cc": {"OnProbe", "TouchState"},
    "src/online/proxy.cc": {
        "Tick", "MakeSubmitEventLocked", "MakePushEventLocked",
        "MakeCancelEventLocked",
    },
    "src/policy/*.cc": {"Value", "ValueFloor", "BeginChronon"},
}
HOTPATH_ALLOW = "hotpath-alloc-ok:"
HOTPATH_GROW = re.compile(r"\.\s*(push_back|emplace_back)\s*\(")
HOTPATH_CONTAINER = re.compile(r"\bstd\s*::\s*(vector|map)\s*<")
HOTPATH_FUNC_DEF = re.compile(r"::\s*(\w+)\s*\(")


def container_constructed_by_value(code, start):
    """True when the std::vector/std::map spelled at `start` declares a
    by-value object (construction) rather than a reference/pointer type."""
    open_at = code.find("<", start)
    if open_at < 0:
        return False
    depth = 0
    i = open_at
    while i < len(code):
        if code[i] == "<":
            depth += 1
        elif code[i] == ">":
            depth -= 1
            if depth == 0:
                break
        i += 1
    if depth != 0:  # type continues on the next line: be permissive
        return False
    rest = code[i + 1:].lstrip()
    if not rest:
        return False
    # A reference/pointer declarator, a nested template argument, or a
    # qualified name (std::vector<...>::iterator) is not a construction.
    return rest[0] not in "&*>,)>:;"


def check_hotpath(rel_path, lines):
    functions = set()
    for pattern, names in HOTPATH_FUNCTIONS.items():
        if fnmatch.fnmatchcase(rel_path, pattern):
            functions |= names
    if not functions:
        return
    in_hot = False
    depth = 0
    seen_body = False
    for i, line in enumerate(lines):
        code = strip_comment(line)
        if not in_hot:
            m = HOTPATH_FUNC_DEF.search(code)
            if m and m.group(1) in functions:
                in_hot = True
                depth = 0
                seen_body = False
            else:
                continue
        allowed = (HOTPATH_ALLOW in line
                   or (i > 0 and HOTPATH_ALLOW in lines[i - 1]))
        if not allowed:
            for m in HOTPATH_CONTAINER.finditer(code):
                if container_constructed_by_value(code, m.start()):
                    yield i + 1, (
                        "std::vector/std::map constructed in a Tick-phase "
                        "hot function; use member scratch reused across "
                        "chronons (or justify with `hotpath-alloc-ok:`)")
            if HOTPATH_GROW.search(code):
                yield i + 1, (
                    "push_back/emplace_back in a Tick-phase hot function "
                    "without a `hotpath-alloc-ok:` comment; steady-state "
                    "Steps must not allocate (docs/PERFORMANCE.md)")
        depth += code.count("{") - code.count("}")
        if "{" in code:
            seen_body = True
        if seen_body and depth <= 0:
            in_hot = False


def repo_files(root):
    for top in SOURCE_DIRS:
        top_path = os.path.join(root, top)
        if not os.path.isdir(top_path):
            continue
        for dirpath, dirnames, filenames in os.walk(top_path):
            dirnames[:] = [d for d in dirnames if d not in SKIP_DIR_NAMES]
            for name in sorted(filenames):
                if name.endswith(SOURCE_EXTS):
                    path = os.path.join(dirpath, name)
                    yield os.path.relpath(path, root).replace(os.sep, "/")


def expected_guard(rel_path):
    # src/ is the include root, so it is stripped; other top-level dirs
    # (tests, bench, ...) keep their prefix to stay collision-free.
    trimmed = rel_path[len("src/"):] if rel_path.startswith("src/") else rel_path
    return "WEBMON_" + re.sub(r"[^A-Za-z0-9]", "_", trimmed).upper() + "_"


def strip_comment(line):
    return LINE_COMMENT.sub("", line)


def check_guard(rel_path, lines):
    guard = expected_guard(rel_path)
    ifndef_at = None
    for i, line in enumerate(lines):
        stripped = line.strip()
        if stripped.startswith("#ifndef"):
            ifndef_at = i
            parts = stripped.split()
            if len(parts) < 2 or parts[1] != guard:
                got = parts[1] if len(parts) > 1 else "<missing>"
                yield i + 1, f"include guard {got} should be {guard}"
                return
            break
        if stripped.startswith("#pragma once"):
            yield i + 1, f"use the include guard {guard}, not #pragma once"
            return
    if ifndef_at is None:
        yield 1, f"missing include guard {guard}"
        return
    define = lines[ifndef_at + 1].strip() if ifndef_at + 1 < len(lines) else ""
    if define.split()[:2] != ["#define", guard]:
        yield ifndef_at + 2, f"#ifndef {guard} must be followed by #define {guard}"


def check_rng(rel_path, lines):
    if RNG_EXEMPT.match(rel_path):
        return
    for i, line in enumerate(lines):
        code = strip_comment(line)
        for pattern, message in BANNED_RANDOMNESS:
            if pattern.search(code):
                yield i + 1, f"{message}; use util/rng (seeded, reproducible)"


def check_sleep(lines):
    for i, line in enumerate(lines):
        code = strip_comment(line)
        for pattern, message in BANNED_SLEEP:
            if pattern.search(code):
                yield i + 1, (f"{message}; simulated time advances only "
                              "through the chronon clock")


def check_thread(rel_path, lines):
    if THREAD_EXEMPT.match(rel_path):
        return
    for i, line in enumerate(lines):
        if RAW_THREAD.search(strip_comment(line)):
            yield i + 1, ("raw std::thread outside util/thread_pool; use "
                          "RunLanes (keeps parallel outputs equal to serial "
                          "ones)")


def check_rawmutex(rel_path, lines):
    if RAWMUTEX_EXEMPT.match(rel_path):
        return
    includes_annotations = any(ANNOTATIONS_INCLUDE.search(line)
                               for line in lines)
    for i, line in enumerate(lines):
        if RAW_MUTEX.search(strip_comment(line)) and not includes_annotations:
            yield i + 1, ("raw std::mutex/std::condition_variable without "
                          "util/thread_annotations.h; use the annotated "
                          "webmon::Mutex/MutexLock wrappers (util/mutex.h) so "
                          "-Wthread-safety sees the acquisition")


def check_using_namespace(lines):
    for i, line in enumerate(lines):
        if USING_NAMESPACE.match(strip_comment(line)):
            yield i + 1, "`using namespace` in a header leaks into every includer"


def lint_file(root, rel_path, as_path=None):
    """Lints one file. `as_path` overrides the path used for rule scoping
    and allowlisting (self-test fixtures pretend to live elsewhere)."""
    with open(os.path.join(root, rel_path), encoding="utf-8") as f:
        lines = f.read().splitlines()
    scoped = as_path or rel_path
    violations = []
    is_header = scoped.endswith(HEADER_EXTS)
    if is_header:
        violations += [(line, "guard", msg)
                       for line, msg in check_guard(scoped, lines)]
        violations += [(line, "usingns", msg)
                       for line, msg in check_using_namespace(lines)]
    violations += [(line, "rng", msg) for line, msg in check_rng(scoped, lines)]
    violations += [(line, "sleep", msg) for line, msg in check_sleep(lines)]
    violations += [(line, "thread", msg)
                   for line, msg in check_thread(scoped, lines)]
    violations += [(line, "rawmutex", msg)
                   for line, msg in check_rawmutex(scoped, lines)]
    violations += [(line, "hotpath", msg)
                   for line, msg in check_hotpath(scoped, lines)]
    return violations


LINT_EXPECT = re.compile(r"//\s*lint-expect:\s*([\w,\s-]+)")
LINT_AS_PATH = re.compile(r"//\s*as-path:\s*(\S+)")


def run_self_test(root, fixture_dir):
    """Check the linter against its fixtures: each file in `fixture_dir`
    carrying a `// lint-expect:` header must fire exactly the named rules
    when linted as its `// as-path:`."""
    fixture_root = os.path.join(root, fixture_dir)
    names = sorted(f for f in os.listdir(fixture_root)
                   if f.endswith(SOURCE_EXTS))
    failures = 0
    checked = 0
    for name in names:
        rel_path = f"{fixture_dir}/{name}"
        with open(os.path.join(root, rel_path), encoding="utf-8") as f:
            head = "\n".join(f.read().splitlines()[:10])
        expect_m = LINT_EXPECT.search(head)
        if not expect_m:
            continue  # another analyzer's fixture
        as_path_m = LINT_AS_PATH.search(head)
        if not as_path_m:
            print(f"{rel_path}: lint fixture is missing its `// as-path:` "
                  f"header")
            failures += 1
            continue
        checked += 1
        expected = {r.strip() for r in expect_m.group(1).split(",")}
        expected.discard("none")
        fired = {rule for _, rule, _ in
                 lint_file(root, rel_path, as_path=as_path_m.group(1))}
        if fired != expected:
            print(f"{rel_path}: expected rules {sorted(expected) or ['none']}"
                  f", fired {sorted(fired) or ['none']}")
            failures += 1
    if checked == 0:
        print(f"webmon_lint --self-test: no lint fixtures in {fixture_dir}",
              file=sys.stderr)
        return 1
    if failures:
        print(f"webmon_lint --self-test: {failures} fixtures misbehaved",
              file=sys.stderr)
        return 1
    print(f"webmon_lint --self-test: {checked} fixtures behaved")
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--root", default=".", help="repository root")
    parser.add_argument("--self-test", metavar="DIR",
                        help="run the fixture self-test on DIR instead of "
                             "linting the tree")
    parser.add_argument("paths", nargs="*",
                        help="specific files to lint (default: whole tree)")
    args = parser.parse_args()

    root = os.path.abspath(args.root)
    if args.self_test:
        return run_self_test(root, args.self_test.rstrip("/"))
    targets = args.paths or sorted(repo_files(root))
    bad_files = 0
    checked = 0
    for rel_path in targets:
        checked += 1
        violations = lint_file(root, rel_path)
        if violations:
            bad_files += 1
            for line, rule, msg in violations:
                print(f"{rel_path}:{line}: {rule}: {msg}")
    if bad_files:
        print(f"webmon_lint: {bad_files} of {checked} files have violations",
              file=sys.stderr)
    else:
        print(f"webmon_lint: {checked} files clean")
    return 1 if bad_files else 0


if __name__ == "__main__":
    sys.exit(main())
