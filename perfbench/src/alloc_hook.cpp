#include "alloc_hook.h"

#include <pthread.h>
#include <sys/mman.h>

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <new>
#include <string>

extern "C" {
void* __libc_malloc(std::size_t size);
void* __libc_calloc(std::size_t n, std::size_t size);
void* __libc_realloc(void* ptr, std::size_t size);
void __libc_free(void* ptr);
}

namespace {

constexpr std::size_t kSlots = 64;

// One counter per cache line: every thread, and every forked child,
// takes the next slot, so counting does not serialise the threads and
// processes it observes on one line.
struct SharedPage {
  std::atomic<bool> counting{false};
  std::atomic<std::uint32_t> next_slot{0};
  struct alignas(64) Slot {
    std::atomic<std::uint64_t> allocs{0};
  };
  Slot slots[kSlots];
};
static_assert(std::atomic<std::uint64_t>::is_always_lock_free,
              "a counter shared across processes must be lock-free");

// Written once by init() before any thread or child exists; children
// inherit the pointer through fork and the page through MAP_SHARED.
SharedPage* g_page = nullptr;
thread_local int t_slot = -1;
thread_local std::uint64_t t_allocs = 0;

inline void noteAllocation() {
  SharedPage* p = g_page;
  if (p == nullptr || !p->counting.load(std::memory_order_relaxed)) return;
  if (t_slot < 0)
    t_slot = static_cast<int>(
        p->next_slot.fetch_add(1, std::memory_order_relaxed) % kSlots);
  p->slots[t_slot].allocs.fetch_add(1, std::memory_order_relaxed);
  ++t_allocs;
}

// The child's only thread inherits the forking thread's slot: give it
// its own.
void resetSlotInChild() { t_slot = -1; }

// Keeps a pointer observable so the compiler cannot drop the allocation.
inline void escape(void* p) { asm volatile("" : : "g"(p) : "memory"); }

}  // namespace

// aligned_alloc / posix_memalign (aligned operator new) are not counted;
// their blocks are still released through free() below, which is
// compatible because every path ends in glibc's allocator.
extern "C" void* malloc(std::size_t size) noexcept {
  noteAllocation();
  return __libc_malloc(size);
}

extern "C" void* calloc(std::size_t n, std::size_t size) noexcept {
  noteAllocation();
  return __libc_calloc(n, size);
}

extern "C" void* realloc(void* ptr, std::size_t size) noexcept {
  noteAllocation();
  return __libc_realloc(ptr, size);
}

extern "C" void free(void* ptr) noexcept { __libc_free(ptr); }

namespace perfbench::alloc {

bool init() {
  if (g_page != nullptr) return true;
  void* mem = ::mmap(nullptr, sizeof(SharedPage), PROT_READ | PROT_WRITE,
                     MAP_SHARED | MAP_ANONYMOUS, -1, 0);
  if (mem == MAP_FAILED) return false;
  g_page = new (mem) SharedPage();
  return ::pthread_atfork(nullptr, nullptr, resetSlotInChild) == 0;
}

void setCounting(bool on) {
  if (g_page != nullptr)
    g_page->counting.store(on, std::memory_order_relaxed);
}

std::uint64_t count() {
  if (g_page == nullptr) return 0;
  std::uint64_t total = 0;
  for (const SharedPage::Slot& s : g_page->slots)
    total += s.allocs.load(std::memory_order_relaxed);
  return total;
}

std::uint64_t threadCount() { return t_allocs; }

bool selfTest(std::string& why) {
  if (g_page == nullptr) {
    why = "counter page not mapped";
    return false;
  }
  constexpr std::uint64_t kEach = 1000;
  const bool was_on = g_page->counting.load(std::memory_order_relaxed);
  setCounting(true);
  const std::uint64_t before = count();
  for (std::uint64_t i = 0; i < kEach; ++i) {
    void* p = std::malloc(16 + i % 64);
    escape(p);
    std::free(p);
  }
  for (std::uint64_t i = 0; i < kEach; ++i) {
    auto* q = new std::uint64_t(i);
    escape(q);
    delete q;
  }
  const std::uint64_t got = count() - before;
  setCounting(false);
  const std::uint64_t idle_before = count();
  for (std::uint64_t i = 0; i < kEach; ++i) {
    void* p = std::malloc(32);
    escape(p);
    std::free(p);
  }
  const std::uint64_t idle = count() - idle_before;
  setCounting(was_on);
  if (got != 2 * kEach || idle != 0) {
    why = "expected " + std::to_string(2 * kEach) +
          " counted allocations and 0 while off, got " + std::to_string(got) +
          " and " + std::to_string(idle);
    return false;
  }
  return true;
}

}  // namespace perfbench::alloc
