#!/usr/bin/env python3
"""loadex-lint: repo-specific static checks for the loadex codebase.

The simulator's core promise is bit-for-bit deterministic replay, and the
mechanisms' core promise is that every protocol message is accounted for.
Generic linters cannot check either, so this tool enforces the repo rules
that protect them:

  banned-randomness      rand()/srand()/std::random_device and raw engine
                         construction outside src/common/rng — all random
                         draws must flow through the seeded loadex::Rng
                         streams or replay breaks.
  banned-wallclock       std::chrono::{system,steady,high_resolution}_clock,
                         time(), clock(), gettimeofday — simulated time is
                         the only clock; wall time makes runs unreproducible.
                         The real-threads runtime's clock wrapper
                         (src/rt/clock.{h,cpp}) is the single exemption:
                         everything else in src/rt reads time through it.
  banned-threading       std::thread / this_thread / futures / latches in
                         src/ outside src/rt — the simulator is
                         single-threaded by construction, and real
                         concurrency lives only in the rt runtime. (Tests,
                         benches and examples may use threads freely; the
                         annotated sync layer src/common/sync.h is the one
                         src/ exemption.)
  raw-sync               std::mutex / condition variables / lock guards and
                         the <mutex>/<condition_variable>/<shared_mutex>
                         includes anywhere in src/ outside src/common/sync.h
                         — all locking goes through the annotated
                         sync::Mutex/MutexLock/CondVar wrappers so the
                         Clang thread-safety build and the debug
                         owner/hierarchy checks see every acquisition.
  sync-annotation-coverage  every `sync::Mutex` member declared in src/ must
                         be referenced by at least one LOADEX_* capability
                         annotation (LOADEX_GUARDED_BY / LOADEX_REQUIRES /
                         LOADEX_EXCLUDES / ...) in the same file — an
                         unannotated mutex guards nothing the analysis can
                         check.
  lock-hierarchy         lexically nested sync::MutexLock acquisitions must
                         acquire strictly ascending LockRank values (the
                         ranks declared in src/common/sync.h and stamped on
                         each `sync::Mutex name{LockRank::...}` member).
                         This is the static face of the runtime hierarchy
                         check in sync.h; cross-function nestings are the
                         runtime check's job.
  thread-lifecycle       .detach() and std::terminate() anywhere in src/,
                         and .join() in src/ outside RtWorld/Supervisor
                         (src/rt/world.cpp, src/rt/supervisor.cpp) — every
                         rt thread must retire through the audited join
                         paths so drain()/stop() can guarantee quiescence;
                         a detached thread or a mid-run terminate breaks
                         the accounting invariants. (Tests, benches and
                         examples may join their own helper threads.)
  payload-cast           dynamic_cast to a *Payload type outside the
                         payloadCast<T> helper (src/core/payloads.h) — the
                         helper is what makes the debug-checked/release-
                         static downcast policy a single point of truth.
  unordered-iteration    iterating an unordered_{map,set} in src/core or
                         src/sim — iteration order is implementation-defined,
                         so any protocol or scheduling decision derived from
                         it is nondeterministic across platforms.
  naked-new-delete       raw new/delete expressions — ownership must be
                         expressed with unique_ptr/shared_ptr/containers.
  pragma-once            every header must contain #pragma once.
  statetag-exhaustive    the StateTag enum and each mechanism's
                         handleState() dispatch must stay in sync: no stale
                         case labels, every enumerator consumed by at least
                         one mechanism, and every dispatch either names all
                         tags or ends in a rejecting default. (The switches
                         without a default: — stateTagName(), the kind and
                         policy name tables and factories, the wire codec —
                         are the compiler's job: -Werror=switch.)
  raw-socket             socket()/bind()/listen()/connect()/accept() and the
                         epoll_* syscalls outside src/net — every kernel
                         socket touch goes through the typed RAII helpers
                         (src/net/socket.h), so fd ownership, non-blocking
                         setup and error mapping have one point of truth
                         and the rest of the repo stays host-API-free.
  trace-macro-guard      every LOADEX_TRACE_* / LOADEX_METRIC macro defined
                         in src/obs must wrap its body in the
                         `do { if (auto* x = ::loadex::obs::...()) {` null
                         guard, so a disabled trace evaluates none of its
                         arguments (the zero-overhead-when-off promise).

A finding on one line can be silenced with a trailing
`// loadex-lint: allow(<rule>)` comment; `allow(all)` silences every rule.
Suppressions are themselves checked (rule `lint-allow`): an allow() naming
an unknown rule, or one that suppresses no finding on its line, is a
violation — stale suppressions rot into blanket ones otherwise.

Usage: loadex_lint.py [--root DIR] [--json] [FILES...]
Exits non-zero if any violation is found. --json emits the findings as a
machine-readable object on stdout instead of the human-readable lines.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cpp", ".cc"}
SCAN_DIRS = ("src", "tests", "bench", "examples")

# The annotated sync layer: the only src/ file that may spell raw std
# primitives (it wraps them).
SYNC_HEADER = "src/common/sync.h"

ALLOW_RE = re.compile(r"//\s*loadex-lint:\s*allow\(([a-z\-, ]+)\)")

# Every rule an allow() comment may legally name (`lint-allow` itself is
# not suppressible — a suppression of the suppression checker is exactly
# the rot it exists to catch).
KNOWN_RULES = frozenset({
    "banned-randomness", "banned-wallclock", "banned-threading",
    "thread-lifecycle", "payload-cast", "unordered-iteration",
    "naked-new-delete", "pragma-once", "statetag-exhaustive",
    "trace-macro-guard", "raw-sync", "raw-socket",
    "sync-annotation-coverage", "lock-hierarchy", "all",
})


class Finding:
    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(text: str) -> str:
    """Replace comments and string/char literal contents with spaces,
    preserving line structure so reported line numbers stay correct."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(c)
            elif c == "'":
                state = "char"
                out.append(c)
            else:
                out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append(c if c == "\n" else " ")
        elif state in ("string", "char"):
            quote = '"' if state == "string" else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = "code"
                out.append(c)
            elif c == "\n":  # unterminated; keep line structure
                state = "code"
                out.append(c)
            else:
                out.append(" ")
        i += 1
    return "".join(out)


def allowed_rules(raw_line: str) -> set[str]:
    m = ALLOW_RE.search(raw_line)
    if not m:
        return set()
    return {r.strip() for r in m.group(1).split(",")}


# ---------------------------------------------------------------------------
# Per-line rules
# ---------------------------------------------------------------------------

RANDOMNESS_RE = re.compile(
    r"(?<![\w:])(?:std::)?(?:rand|srand|rand_r|drand48)\s*\("
    r"|std::random_device"
    r"|std::(?:mt19937(?:_64)?|minstd_rand0?|default_random_engine)\b"
)
WALLCLOCK_RE = re.compile(
    r"std::chrono::(?:system_clock|steady_clock|high_resolution_clock)"
    r"|(?<![\w:])(?:::)?gettimeofday\s*\("
    r"|(?<![\w:.>])(?:std::)?time\s*\(\s*(?:NULL|nullptr|0|&)"
    r"|(?<![\w:.>])(?:std::)?clock\s*\(\s*\)"
)
NEW_RE = re.compile(r"(?<![\w:.])new\s+(?:\(|[A-Za-z_(])")
DELETE_RE = re.compile(r"(?<![\w:.])delete(?:\s*\[\s*\])?\s+[A-Za-z_(*]")
# Split across two rules: thread-like machinery is banned-threading
# (src/ outside src/rt); lock-like primitives are raw-sync (all of src/,
# the sync layer wraps them).
THREADING_RE = re.compile(
    r"std::(?:jthread\b|thread\b|this_thread\b"
    r"|promise\b|future\b|async\b|barrier\b|latch\b)"
)
RAW_SYNC_RE = re.compile(
    r"std::(?:mutex\b|recursive_mutex\b|timed_mutex\b"
    r"|shared_mutex\b|shared_timed_mutex\b|condition_variable\w*"
    r"|lock_guard\b|unique_lock\b|scoped_lock\b|shared_lock\b)"
)
SYNC_INCLUDE_RE = re.compile(
    r"^\s*#\s*include\s*<(?:mutex|condition_variable|shared_mutex)>")
PAYLOAD_CAST_RE = re.compile(r"dynamic_cast\s*<[^>]*Payload")
# Thread lifecycle: node threads are retired only by RtWorld/Supervisor
# joins. A detached thread escapes drain()/stop()'s join guarantees (its
# writes are never ordered before stats reads), and std::terminate tears
# the process down mid-invariant; neither has a legitimate call site.
# Raw socket/epoll syscall entry points. The single-char lookbehind keeps
# member calls (`world.bind(`, `conn->connect(`) and qualified names
# (`std::bind`) out: an optional leading `::` is part of the match, so a
# preceding word char, `.`, `>` or `:` rejects the position either way.
RAW_SOCKET_RE = re.compile(
    r"(?<![\w:.>])(?:::)?(?:socket|bind|listen|connect|accept4?)\s*\("
    r"|(?<![\w:.>])epoll_(?:create1?|ctl|wait)\s*\(")
THREAD_DETACH_RE = re.compile(r"\.\s*detach\s*\(")
TERMINATE_RE = re.compile(r"(?<![\w:])std::terminate\s*\(")
THREAD_JOIN_RE = re.compile(r"\.\s*join\s*\(")

RANDOMNESS_ALLOWED = ("src/common/rng.h", "src/common/rng.cpp")
# The rt runtime's clock wrapper is the one legal window onto host time.
WALLCLOCK_ALLOWED = ("src/rt/clock.h", "src/rt/clock.cpp")
# payloadCast<T> itself must spell the dynamic_cast it encapsulates.
PAYLOAD_CAST_ALLOWED = ("src/core/payloads.h",)
# The only two files allowed to join a node/supervisor thread. (Tests and
# benches may join their own helper threads; the src-side restriction is
# what keeps every rt thread's retirement on the audited paths.)
THREAD_JOIN_ALLOWED = ("src/rt/world.cpp", "src/rt/supervisor.cpp")


def rng_exempt(rel: str) -> bool:
    return rel in RANDOMNESS_ALLOWED


def raw_socket_banned(rel: str) -> bool:
    """Kernel socket/epoll touches are confined to src/net: everywhere
    else (src, tests, benches, examples alike) goes through the RAII
    helpers in src/net/socket.h."""
    return not rel.startswith("src/net/")


def threading_banned(rel: str) -> bool:
    """Real concurrency is confined to the rt runtime: everywhere else in
    src/ a thread or a lock is either nondeterminism or dead weight. The
    sync layer wraps std primitives, so it is exempt (it spells
    std::thread::id / std::this_thread for its owner tracking)."""
    return (rel.startswith("src/") and not rel.startswith("src/rt/")
            and rel != SYNC_HEADER)


def raw_sync_banned(rel: str) -> bool:
    """Everywhere in src/ — including src/rt — locking goes through the
    annotated wrappers, so the TSA build and the debug owner/hierarchy
    checks see every acquisition."""
    return rel.startswith("src/") and rel != SYNC_HEADER


def check_lines(rel: str, path: Path, code_lines: list[str],
                findings: list[Finding]) -> None:
    # Findings are appended unconditionally; allow() suppressions are
    # applied (and audited for staleness) by filter_allowed() in main.
    for lineno0, code in enumerate(code_lines):
        lineno = lineno0 + 1
        if not rng_exempt(rel) and RANDOMNESS_RE.search(code):
            findings.append(Finding(
                path, lineno, "banned-randomness",
                "unseeded/raw randomness; draw from a loadex::Rng "
                "stream (src/common/rng.h) so runs stay replayable"))
        if rel not in WALLCLOCK_ALLOWED and WALLCLOCK_RE.search(code):
            findings.append(Finding(
                path, lineno, "banned-wallclock",
                "wall-clock time source; simulated time "
                "(sim::World::now) is the only clock — the rt runtime "
                "reads time via rt::MonotonicClock (src/rt/clock.h)"))
        if threading_banned(rel) and THREADING_RE.search(code):
            findings.append(Finding(
                path, lineno, "banned-threading",
                "threading primitive outside src/rt; the simulator is "
                "single-threaded by construction — real concurrency "
                "belongs in the rt runtime"))
        if raw_sync_banned(rel) and (RAW_SYNC_RE.search(code)
                                     or SYNC_INCLUDE_RE.search(code)):
            findings.append(Finding(
                path, lineno, "raw-sync",
                "raw std synchronisation primitive; lock through the "
                "annotated sync::Mutex/MutexLock/CondVar wrappers "
                "(src/common/sync.h) so the thread-safety analysis and "
                "the debug owner/hierarchy checks see the acquisition"))
        if rel.startswith("src/"):
            if THREAD_DETACH_RE.search(code):
                findings.append(Finding(
                    path, lineno, "thread-lifecycle",
                    "detach() in src/; a detached thread escapes the "
                    "join paths drain()/stop() rely on — let RtWorld or "
                    "the Supervisor own the thread's retirement"))
            if TERMINATE_RE.search(code):
                findings.append(Finding(
                    path, lineno, "thread-lifecycle",
                    "std::terminate() in src/; tearing the process down "
                    "mid-run voids every accounting invariant — fail via "
                    "LOADEX_EXPECT or propagate an error instead"))
            if rel not in THREAD_JOIN_ALLOWED and THREAD_JOIN_RE.search(code):
                findings.append(Finding(
                    path, lineno, "thread-lifecycle",
                    "join() outside RtWorld/Supervisor; thread retirement "
                    "in src/ is confined to src/rt/world.cpp and "
                    "src/rt/supervisor.cpp so quiescence stays auditable"))
        if raw_socket_banned(rel) and RAW_SOCKET_RE.search(code):
            findings.append(Finding(
                path, lineno, "raw-socket",
                "raw socket/epoll syscall outside src/net; go through "
                "the typed RAII helpers (src/net/socket.h) so fd "
                "ownership and error handling stay in one place"))
        if rel not in PAYLOAD_CAST_ALLOWED and PAYLOAD_CAST_RE.search(code):
            findings.append(Finding(
                path, lineno, "payload-cast",
                "dynamic_cast to a payload type; use payloadCast<T> "
                "(src/core/payloads.h) so the checked-downcast policy "
                "stays in one place"))
        if NEW_RE.search(code):
            findings.append(Finding(
                path, lineno, "naked-new-delete",
                "raw new expression; use std::make_unique/make_shared "
                "or a container"))
        if DELETE_RE.search(code):
            findings.append(Finding(
                path, lineno, "naked-new-delete",
                "raw delete expression; express ownership with smart "
                "pointers"))


# ---------------------------------------------------------------------------
# unordered-container iteration in decision paths (src/core, src/sim)
# ---------------------------------------------------------------------------

UNORDERED_DECL_RE = re.compile(
    r"std::unordered_(?:map|set|multimap|multiset)\s*<[^;{()]*>\s*&?\s*"
    r"(\w+)\s*[;={(]")
RANGE_FOR_RE = re.compile(r"for\s*\([^;)]*:\s*(?:\*?\s*)?([\w.\->]+)\s*\)")
DIRECT_ITER_RE = re.compile(
    r"for\s*\([^;]*:\s*[^)]*unordered_(?:map|set)")


def check_unordered_iteration(rel: str, path: Path, code_lines: list[str],
                              findings: list[Finding]) -> None:
    if not (rel.startswith("src/core/") or rel.startswith("src/sim/")
            or rel.startswith("src/obs/")):
        return
    unordered_names: set[str] = set()
    for code in code_lines:
        for m in UNORDERED_DECL_RE.finditer(code):
            unordered_names.add(m.group(1))
    # Member names also appear without the trailing underscore at use sites?
    # No: C++ names match exactly; just look up the declared spelling.
    for lineno0, code in enumerate(code_lines):
        lineno = lineno0 + 1
        hit = DIRECT_ITER_RE.search(code) is not None
        if not hit:
            m = RANGE_FOR_RE.search(code)
            if m:
                # `for (x : foo.bar_)` → compare the last path component.
                target = re.split(r"[.>]", m.group(1))[-1]
                hit = target in unordered_names
        if hit:
            findings.append(Finding(
                path, lineno, "unordered-iteration",
                "iteration over an unordered container in a protocol/"
                "scheduling path; order is implementation-defined — use a "
                "std::map/std::vector or iterate ranks 0..nprocs"))


# ---------------------------------------------------------------------------
# Sync-layer rules: annotation coverage and lexical lock ordering
# ---------------------------------------------------------------------------

# A sync::Mutex *member/variable* declaration. `\s+` after Mutex keeps
# `sync::Mutex&` returns/params out (the `&` binds to the type).
MUTEX_DECL_RE = re.compile(r"(?:::)?(?:loadex::)?sync::Mutex\s+(\w+)\s*[;{=(]")
# Any capability annotation whose argument list may reference a mutex.
ANNOTATION_RE = re.compile(
    r"LOADEX_(?:GUARDED_BY|PT_GUARDED_BY|REQUIRES|ACQUIRE|RELEASE"
    r"|TRY_ACQUIRE|EXCLUDES|RETURN_CAPABILITY|ASSERT_CAPABILITY"
    r"|ASSERT_HELD)\s*\(([^)]*)\)")
# A ranked mutex declaration: `sync::Mutex name{LockRank::kSomething}`.
RANKED_DECL_RE = re.compile(
    r"(?:::)?(?:loadex::)?sync::Mutex\s+(\w+)\s*\{\s*"
    r"(?:(?:::)?(?:loadex::)?sync::)?LockRank::(k\w+)")
# A scoped acquisition. The argument may be an expression
# (`lx_mx_->mu()`); only the last path component is resolved against the
# ranked declarations, anything else is outside this rule's reach.
MUTEXLOCK_RE = re.compile(
    r"(?:(?:::)?(?:loadex::)?sync::)?MutexLock\s+\w+\s*\(\s*([^),;]+)")
LOCK_RANK_ENUM_RE = re.compile(
    r"enum\s+class\s+LockRank\s*:\s*int\s*\{(.*?)\}", re.DOTALL)


def parse_lock_ranks(root: Path) -> dict[str, int]:
    """LockRank enumerator -> numeric rank, parsed from the sync header."""
    sync = root / SYNC_HEADER
    if not sync.is_file():
        return {}
    text = strip_comments_and_strings(sync.read_text(encoding="utf-8"))
    m = LOCK_RANK_ENUM_RE.search(text)
    if not m:
        return {}
    return {name: int(val) for name, val in
            re.findall(r"\b(k\w+)\s*=\s*(\d+)", m.group(1))}


def check_sync_annotations(rel: str, path: Path, code_lines: list[str],
                           findings: list[Finding]) -> None:
    """Every sync::Mutex member declared in src/ must appear in at least
    one capability annotation in the same file — an unannotated mutex is
    invisible to the TSA build and guards nothing it can check."""
    if not rel.startswith("src/") or rel == SYNC_HEADER:
        return
    annotated: set[str] = set()
    for code in code_lines:
        for m in ANNOTATION_RE.finditer(code):
            annotated.update(re.findall(r"\b([A-Za-z_]\w*)\b", m.group(1)))
    for lineno0, code in enumerate(code_lines):
        for m in MUTEX_DECL_RE.finditer(code):
            name = m.group(1)
            if name not in annotated:
                findings.append(Finding(
                    path, lineno0 + 1, "sync-annotation-coverage",
                    f"sync::Mutex `{name}` is referenced by no LOADEX_* "
                    "capability annotation in this file; annotate what it "
                    "guards (LOADEX_GUARDED_BY) or which methods take it "
                    "(LOADEX_REQUIRES/LOADEX_EXCLUDES) so the "
                    "thread-safety build can check its discipline"))


def check_lock_hierarchy(rel: str, path: Path, code_lines: list[str],
                         lock_ranks: dict[str, int],
                         findings: list[Finding]) -> None:
    """Lexically nested MutexLock acquisitions must take strictly
    ascending ranks. Brace-depth tracking scopes each guard; only
    acquisitions of mutexes whose ranked declaration is visible in the
    same file participate (expressions like `reg->mu()` are the runtime
    check's job, as are nestings across function calls)."""
    if not lock_ranks or rel == SYNC_HEADER:
        return
    mutex_rank: dict[str, int] = {}
    for code in code_lines:
        for m in RANKED_DECL_RE.finditer(code):
            rank = lock_ranks.get(m.group(2))
            if rank is not None:
                mutex_rank[m.group(1)] = rank
    if not mutex_rank:
        return
    depth = 0
    held: list[tuple[int, int, str, int]] = []  # (depth, rank, name, line)
    for lineno0, code in enumerate(code_lines):
        lineno = lineno0 + 1
        events: list[tuple[int, str, str]] = []
        for m in MUTEXLOCK_RE.finditer(code):
            events.append((m.start(), "acquire", m.group(1).strip()))
        for i, ch in enumerate(code):
            if ch in "{}":
                events.append((i, ch, ""))
        events.sort(key=lambda e: e[0])
        for _, kind, arg in events:
            if kind == "{":
                depth += 1
            elif kind == "}":
                depth -= 1
                while held and held[-1][0] > depth:
                    held.pop()
            else:
                name = re.split(r"[.>]", arg)[-1].strip()
                rank = mutex_rank.get(name)
                if rank is None:
                    continue
                if held and held[-1][1] >= rank:
                    _, prev_rank, prev_name, prev_line = held[-1]
                    findings.append(Finding(
                        path, lineno, "lock-hierarchy",
                        f"`{name}` (rank {rank}) acquired while holding "
                        f"`{prev_name}` (rank {prev_rank}, line "
                        f"{prev_line}); nested acquisitions must take "
                        "strictly ascending LockRank values — see the "
                        "hierarchy table in src/common/sync.h"))
                held.append((depth, rank, name, lineno))


# ---------------------------------------------------------------------------
# pragma once
# ---------------------------------------------------------------------------

def check_pragma_once(path: Path, text: str, findings: list[Finding]) -> None:
    if path.suffix not in (".h", ".hpp"):
        return
    if "#pragma once" not in text:
        findings.append(Finding(
            path, 1, "pragma-once", "header is missing #pragma once"))


# ---------------------------------------------------------------------------
# Enum dispatch exhaustiveness
# ---------------------------------------------------------------------------

def parse_enum(text: str, enum_name: str) -> list[str]:
    m = re.search(r"enum\s+class\s+" + enum_name + r"\b[^{]*\{(.*?)\}",
                  text, re.DOTALL)
    if not m:
        return []
    body = strip_comments_and_strings(m.group(1))
    return re.findall(r"\b(k\w+)\b", body)


def case_labels(text: str, enum_name: str) -> set[str]:
    return set(re.findall(r"case\s+" + enum_name + r"::(k\w+)", text))


def has_rejecting_default(text: str, fn_name: str) -> bool:
    """True if fn_name's body has a `default:` that raises a contract error."""
    m = re.search(fn_name + r"\s*\([^;{]*\)[^;{]*\{", text)
    if not m:
        return False
    body = text[m.end():]
    d = body.find("default:")
    if d < 0:
        return False
    return "LOADEX_EXPECT" in body[d:d + 300] or "throw" in body[d:d + 300]


def check_enum_dispatch(root: Path, findings: list[Finding]) -> None:
    payloads = root / "src/core/payloads.h"
    if not payloads.is_file():  # scanning a subtree, not the repo
        return
    text = payloads.read_text(encoding="utf-8")
    tags = parse_enum(text, "StateTag")
    if not tags:
        findings.append(Finding(payloads, 1, "statetag-exhaustive",
                                "could not parse the StateTag enum"))
        return
    tag_set = set(tags)

    handled_anywhere: set[str] = set()
    for mech in ("naive.cpp", "increment.cpp", "snapshot.cpp"):
        p = root / "src/core" / mech
        mtext = strip_comments_and_strings(p.read_text(encoding="utf-8"))
        labels = case_labels(mtext, "StateTag")
        handled_anywhere |= labels
        for label in labels:
            if label not in tag_set:
                findings.append(Finding(
                    p, 1, "statetag-exhaustive",
                    f"dispatch names unknown StateTag::{label} "
                    "(stale case after an enum change?)"))
        if labels != tag_set and not has_rejecting_default(mtext,
                                                          "handleState"):
            missing = ", ".join(sorted(tag_set - labels))
            findings.append(Finding(
                p, 1, "statetag-exhaustive",
                f"handleState() neither names every StateTag ({missing} "
                "missing) nor rejects unknown tags in a default: branch"))
    for t in tags:
        if t not in handled_anywhere:
            findings.append(Finding(
                payloads, 1, "statetag-exhaustive",
                f"StateTag::{t} is dispatched by no mechanism "
                "(dead protocol surface)"))


# ---------------------------------------------------------------------------
# Instrumentation macro guards (src/obs)
# ---------------------------------------------------------------------------

MACRO_DEF_RE = re.compile(r"^[ \t]*#[ \t]*define[ \t]+"
                          r"(LOADEX_TRACE_\w+|LOADEX_METRIC)\b",
                          re.MULTILINE)
GUARD_RE = re.compile(
    r"^\s*do\s*\{\s*if\s*\(auto\*\s*\w+\s*=\s*"
    r"::loadex::obs::(?:traceRecorder|metricsRegistry)\(\)\s*\)")


def macro_body(text: str, start: int) -> str:
    """The macro replacement text: lines joined across `\\` continuations."""
    lines = []
    pos = start
    while True:
        end = text.find("\n", pos)
        if end < 0:
            end = len(text)
        line = text[pos:end]
        cont = line.rstrip().endswith("\\")
        lines.append(line.rstrip().rstrip("\\"))
        pos = end + 1
        if not cont or pos >= len(text):
            return " ".join(lines)


def check_trace_macro_guard(root: Path, findings: list[Finding]) -> None:
    """Every instrumentation macro must evaluate no arguments when the
    session is off: its body must start with the null-check guard, so that
    call-site expressions (string concatenations, accessors, lambdas) cost
    nothing on untraced runs."""
    obs = root / "src/obs"
    if not obs.is_dir():
        return
    for path in sorted(obs.glob("*.h")):
        text = path.read_text(encoding="utf-8")
        for m in MACRO_DEF_RE.finditer(text):
            name = m.group(1)
            lineno = text.count("\n", 0, m.start()) + 1
            # Skip the macro's own name and parameter list.
            body_start = text.find(")", m.end())
            paren = text.find("(", m.end())
            if paren < 0 or (body_start >= 0 and paren > body_start):
                body_start = m.end()  # object-like macro (no parameters)
            else:
                body_start += 1
            body = macro_body(text, body_start if body_start >= 0
                              else m.end())
            if not GUARD_RE.search(body):
                findings.append(Finding(
                    path, lineno, "trace-macro-guard",
                    f"{name} must guard its body with `do {{ if (auto* x = "
                    "::loadex::obs::traceRecorder()/metricsRegistry()) {` "
                    "so disabled observation evaluates no arguments"))


# ---------------------------------------------------------------------------
# Driver
# ---------------------------------------------------------------------------

def collect_files(root: Path, explicit: list[str]) -> list[Path]:
    if explicit:
        return [Path(f).resolve() for f in explicit]
    files: list[Path] = []
    for d in SCAN_DIRS:
        base = root / d
        if not base.is_dir():
            continue
        for p in sorted(base.rglob("*")):
            if p.suffix in CXX_SUFFIXES and p.is_file():
                files.append(p)
    return files


def filter_allowed(findings: list[Finding],
                   file_raw: dict[Path, list[str]],
                   ) -> tuple[list[Finding], dict[tuple[Path, int], set[str]]]:
    """Apply allow() suppressions; returns the surviving findings plus a
    map of which (file, line) suppressed which rules — the input for the
    stale-suppression audit."""
    kept: list[Finding] = []
    used: dict[tuple[Path, int], set[str]] = {}
    for f in findings:
        lines = file_raw.get(f.path, [])
        raw = lines[f.line - 1] if 0 < f.line <= len(lines) else ""
        allowed = allowed_rules(raw)
        if f.rule in allowed or "all" in allowed:
            used.setdefault((f.path, f.line), set()).add(f.rule)
        else:
            kept.append(f)
    return kept, used


def check_stale_allows(file_raw: dict[Path, list[str]],
                       used: dict[tuple[Path, int], set[str]],
                       findings: list[Finding]) -> None:
    """Audit every allow() comment: naming an unknown rule, or a rule
    that suppressed nothing on its line, is itself a violation."""
    for path in sorted(file_raw):
        for lineno0, raw in enumerate(file_raw[path]):
            rules = allowed_rules(raw)
            if not rules:
                continue
            lineno = lineno0 + 1
            used_here = used.get((path, lineno), set())
            for rule in sorted(rules):
                if rule not in KNOWN_RULES:
                    findings.append(Finding(
                        path, lineno, "lint-allow",
                        f"allow({rule}) names an unknown rule — typo, or a "
                        "rule that was renamed/removed?"))
                elif rule == "all" and not used_here:
                    findings.append(Finding(
                        path, lineno, "lint-allow",
                        "allow(all) suppresses nothing on this line — "
                        "remove the stale suppression"))
                elif rule != "all" and rule not in used_here:
                    findings.append(Finding(
                        path, lineno, "lint-allow",
                        f"allow({rule}) suppresses nothing on this line — "
                        "remove the stale suppression"))


def main(argv: list[str]) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=".",
                    help="repository root (default: cwd)")
    ap.add_argument("--json", action="store_true",
                    help="emit findings as a JSON object on stdout")
    ap.add_argument("files", nargs="*",
                    help="explicit files to scan (default: src tests bench "
                         "examples)")
    args = ap.parse_args(argv)
    root = Path(args.root).resolve()

    findings: list[Finding] = []
    files = collect_files(root, args.files)
    file_raw: dict[Path, list[str]] = {}
    lock_ranks = parse_lock_ranks(root)
    for path in files:
        try:
            text = path.read_text(encoding="utf-8")
        except (OSError, UnicodeDecodeError) as e:
            findings.append(Finding(path, 1, "io", f"unreadable: {e}"))
            continue
        rel = path.relative_to(root).as_posix() if path.is_relative_to(root) \
            else path.as_posix()
        raw_lines = text.splitlines()
        code_lines = strip_comments_and_strings(text).splitlines()
        file_raw[path] = raw_lines
        check_pragma_once(path, text, findings)
        check_lines(rel, path, code_lines, findings)
        check_unordered_iteration(rel, path, code_lines, findings)
        check_sync_annotations(rel, path, code_lines, findings)
        check_lock_hierarchy(rel, path, code_lines, lock_ranks, findings)
    if not args.files:
        check_enum_dispatch(root, findings)
        check_trace_macro_guard(root, findings)

    findings, used_allows = filter_allowed(findings, file_raw)
    check_stale_allows(file_raw, used_allows, findings)
    findings.sort(key=lambda f: (str(f.path), f.line, f.rule))

    if args.json:
        def rel_of(p: Path) -> str:
            return p.relative_to(root).as_posix() if p.is_relative_to(root) \
                else p.as_posix()
        print(json.dumps({
            "version": 1,
            "root": str(root),
            "files_scanned": len(files),
            "findings": [{"file": rel_of(f.path), "line": f.line,
                          "rule": f.rule, "message": f.message}
                         for f in findings],
        }, indent=2))
        return 1 if findings else 0

    for f in findings:
        print(f)
    if findings:
        print(f"loadex-lint: {len(findings)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    print(f"loadex-lint: OK ({len(files)} files clean)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
