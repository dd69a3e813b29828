#!/usr/bin/env python3
"""Self-test for loadex-lint: every rule is exercised against synthetic
repo trees — one fixture where the rule must fire and one where the same
construct is legal (exempt path, allowed directory, or correct form).

Fixtures are materialised as real directory trees under a tempdir because
the rules key on repo-relative paths (`src/rt/` vs `src/core/`,
`src/common/sync.h`, ...); lint runs in `--root <tmpdir> --json` mode and
the JSON findings are asserted on. A violating fixture must produce
findings for exactly its target rule (anything else firing means the
fixture leaks into a neighbouring rule); a passing fixture must be clean.

Run directly or via `ctest -L lint`.
"""

from __future__ import annotations

import contextlib
import io
import json
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
import loadex_lint  # noqa: E402


# A stand-in for src/common/sync.h: enough for parse_lock_ranks() and for
# the raw-sync exemption to have something to exempt.
SYNC_H = """#pragma once
#include <mutex>
namespace loadex::sync {
enum class LockRank : int {
  kLow = 10,
  kHigh = 20,
};
class Mutex {
 public:
  void lock();
  void unlock();
 private:
  std::mutex mu_;
};
class MutexLock {};
}  // namespace loadex::sync
"""

# Coherent StateTag dispatch tree (statetag-exhaustive reads these fixed
# paths); also hosts the payload-cast exemption.
CORE_OK = {
    "src/core/payloads.h": """#pragma once
enum class StateTag : int { kLoad = 0, kSnap = 1 };
struct BasePayload {};
inline BasePayload* reCast(BasePayload* p) {
  return dynamic_cast<BasePayload*>(p);
}
""",
    "src/core/naive.cpp": """void handleState(int t);
void handleStateNaive(StateTag t) {
  switch (t) {
    case StateTag::kLoad: break;
    case StateTag::kSnap: break;
  }
}
""",
    "src/core/increment.cpp": """void handleState(StateTag t) {
  switch (t) {
    case StateTag::kLoad: break;
    case StateTag::kSnap: break;
  }
}
""",
    "src/core/snapshot.cpp": """void handleState(StateTag t) {
  switch (t) {
    case StateTag::kLoad: break;
    case StateTag::kSnap: break;
  }
}
""",
}

CORE_STALE_CASE = dict(CORE_OK)
CORE_STALE_CASE["src/core/snapshot.cpp"] = """void handleState(StateTag t) {
  switch (t) {
    case StateTag::kLoad: break;
  }
}
"""

LOCK_ORDER_PROLOGUE = """#include "common/sync.h"
loadex::sync::Mutex low_{loadex::sync::LockRank::kLow};
loadex::sync::Mutex high_{loadex::sync::LockRank::kHigh};
int guarded_low_ LOADEX_GUARDED_BY(low_);
int guarded_high_ LOADEX_GUARDED_BY(high_);
"""

CASES = [
    # rule, fixture files, expected rule to fire (None = must be clean)
    ("banned-randomness fires", {
        "src/a.cpp": "int f() { return rand(); }\n",
    }, "banned-randomness"),
    ("banned-randomness exempt in rng.cpp", {
        "src/common/rng.cpp": "#include <random>\nstd::mt19937 eng_;\n",
    }, None),

    ("banned-wallclock fires", {
        "src/a.cpp":
            "int f() { return std::chrono::steady_clock::now(), 0; }\n",
    }, "banned-wallclock"),
    ("banned-wallclock exempt in rt clock", {
        "src/rt/clock.cpp":
            "int f() { return std::chrono::steady_clock::now(), 0; }\n",
    }, None),

    ("banned-threading fires outside rt", {
        "src/core/a.cpp": "int f() { std::thread t; return 0; }\n",
    }, "banned-threading"),
    ("banned-threading legal in rt", {
        "src/rt/a.cpp": "int f() { std::thread t; return 0; }\n",
    }, None),

    ("raw-sync fires even in rt", {
        "src/rt/a.cpp": "#include <mutex>\nstd::mutex mu_;\n",
    }, "raw-sync"),
    ("raw-sync exempt in the sync layer", {
        "src/common/sync.h": SYNC_H,
    }, None),

    ("thread-lifecycle fires on detach", {
        "src/rt/a.cpp": "void f(std::thread& t) { t.detach(); }\n",
    }, "thread-lifecycle"),
    ("thread-lifecycle join legal in world.cpp", {
        "src/rt/world.cpp": "void f(std::thread& t) { t.join(); }\n",
    }, None),

    ("payload-cast fires outside the helper", {
        "src/sim/a.cpp":
            "void* f(void* q) { return dynamic_cast<FooPayload*>(q); }\n",
    }, "payload-cast"),
    ("payload-cast exempt inside payloads.h", CORE_OK, None),

    ("unordered-iteration fires in core", {
        "src/core/a.cpp": "#include <unordered_map>\n"
                          "std::unordered_map<int, int> m_;\n"
                          "int f() {\n"
                          "  int s = 0;\n"
                          "  for (const auto& kv : m_) s += kv.second;\n"
                          "  return s;\n"
                          "}\n",
    }, "unordered-iteration"),
    ("unordered-iteration legal in rt", {
        "src/rt/a.cpp": "#include <unordered_map>\n"
                        "std::unordered_map<int, int> m_;\n"
                        "int f() {\n"
                        "  int s = 0;\n"
                        "  for (const auto& kv : m_) s += kv.second;\n"
                        "  return s;\n"
                        "}\n",
    }, None),

    ("naked-new-delete fires", {
        "src/a.cpp": "int* f() { return new int(3); }\n",
    }, "naked-new-delete"),
    ("naked-new-delete clean with make_unique", {
        "src/a.cpp": "#include <memory>\n"
                     "std::unique_ptr<int> f() "
                     "{ return std::make_unique<int>(3); }\n",
    }, None),

    ("pragma-once fires", {
        "src/a.h": "struct A {};\n",
    }, "pragma-once"),
    ("pragma-once clean", {
        "src/a.h": "#pragma once\nstruct A {};\n",
    }, None),

    ("statetag-exhaustive fires on a dispatch gap", CORE_STALE_CASE,
     "statetag-exhaustive"),
    ("statetag-exhaustive clean", CORE_OK, None),

    ("raw-socket fires outside src/net", {
        "src/sim/a.cpp": "int f() { return ::socket(2, 1, 0); }\n"
                         "int g(int fd) { return epoll_wait(fd, 0, 8, -1); }\n",
    }, "raw-socket"),
    ("raw-socket legal in src/net, members/qualified names exempt", {
        "src/net/socket.cpp":
            "int f() { return ::socket(2, 1, 0); }\n",
        "src/rt/a.cpp":
            "void f(World& w, Mech* m) { w.bind(m); }\n"
            "auto g() { return std::bind(h, 1); }\n",
    }, None),

    ("trace-macro-guard fires on an unguarded macro", {
        "src/obs/macros.h": "#pragma once\n"
                            "#define LOADEX_TRACE_PING(...) \\\n"
                            "  do { ping(__VA_ARGS__); } while (0)\n",
    }, "trace-macro-guard"),
    ("trace-macro-guard clean on the guarded shape", {
        "src/obs/macros.h":
            "#pragma once\n"
            "#define LOADEX_TRACE_PING(...) \\\n"
            "  do { \\\n"
            "    if (auto* lx_tr_ = ::loadex::obs::traceRecorder()) { \\\n"
            "      lx_tr_->ping(__VA_ARGS__); \\\n"
            "    } \\\n"
            "  } while (0)\n",
    }, None),

    ("sync-annotation-coverage fires on a bare mutex", {
        "src/rt/a.h": "#pragma once\n"
                      "class A {\n"
                      "  loadex::sync::Mutex mu_;\n"
                      "};\n",
    }, "sync-annotation-coverage"),
    ("sync-annotation-coverage clean when annotated", {
        "src/rt/a.h": "#pragma once\n"
                      "class A {\n"
                      "  loadex::sync::Mutex mu_;\n"
                      "  int x_ LOADEX_GUARDED_BY(mu_);\n"
                      "};\n",
    }, None),

    ("lock-hierarchy fires on a descending nesting", {
        "src/common/sync.h": SYNC_H,
        "src/rt/a.cpp": LOCK_ORDER_PROLOGUE +
            "void f() {\n"
            "  loadex::sync::MutexLock a(high_);\n"
            "  loadex::sync::MutexLock b(low_);\n"
            "}\n",
    }, "lock-hierarchy"),
    ("lock-hierarchy clean on an ascending nesting", {
        "src/common/sync.h": SYNC_H,
        "src/rt/a.cpp": LOCK_ORDER_PROLOGUE +
            "void f() {\n"
            "  loadex::sync::MutexLock a(low_);\n"
            "  loadex::sync::MutexLock b(high_);\n"
            "}\n"
            "void g() {\n"
            "  loadex::sync::MutexLock a(high_);\n"
            "}\n"
            "void h() {\n"
            "  loadex::sync::MutexLock a(low_);\n"
            "}\n",
    }, None),

    ("lint-allow fires on stale and unknown suppressions", {
        "src/a.cpp":
            "int f() { return 0; }  // loadex-lint: allow(banned-randomness)\n"
            "int g() { return 1; }  // loadex-lint: allow(not-a-rule)\n",
    }, "lint-allow"),
    ("lint-allow clean when the suppression earns its keep", {
        "src/a.cpp":
            "int f() { return rand(); }"
            "  // loadex-lint: allow(banned-randomness)\n",
    }, None),
]


def run_lint(root: Path) -> tuple[int, dict]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = loadex_lint.main(["--root", str(root), "--json"])
    return rc, json.loads(buf.getvalue())


def run_case(name: str, files: dict[str, str],
             expect: str | None) -> str | None:
    """Returns an error description, or None if the case holds."""
    with tempfile.TemporaryDirectory(prefix="loadex-lint-selftest-") as td:
        root = Path(td)
        for rel, content in files.items():
            p = root / rel
            p.parent.mkdir(parents=True, exist_ok=True)
            p.write_text(content, encoding="utf-8")
        rc, out = run_lint(root)
    fired = sorted({f["rule"] for f in out["findings"]})
    if expect is None:
        if rc != 0 or out["findings"]:
            return f"expected clean, got rc={rc} rules={fired}: " \
                   f"{out['findings']}"
    else:
        if rc != 1 or not out["findings"]:
            return f"expected rc=1 with findings, got rc={rc}"
        if fired != [expect]:
            return f"expected only [{expect}], got {fired}: " \
                   f"{out['findings']}"
    return None


def main() -> int:
    failures = []
    for name, files, expect in CASES:
        err = run_case(name, files, expect)
        status = "ok" if err is None else "FAIL"
        print(f"[{status}] {name}")
        if err is not None:
            print(f"       {err}")
            failures.append(name)
    print(f"lint-selftest: {len(CASES) - len(failures)}/{len(CASES)} "
          "cases passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
