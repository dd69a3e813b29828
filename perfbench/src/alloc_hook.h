// Allocation counter for the benchmark binary.
//
// alloc_hook.cpp interposes malloc/calloc/realloc for this executable
// only; the loadex libraries it links are unchanged. The counter lives
// in a MAP_SHARED page mapped before any fork, so allocations made by
// the rank processes that net::runMultiProcess forks are counted too.
#pragma once

#include <cstdint>
#include <string>

namespace perfbench::alloc {

/// Map the shared counter page. Call once from main, before any thread
/// or child process starts. Returns false if the page cannot be mapped.
bool init();

/// Count allocations only while on (traced windows); off costs one load
/// and a branch per allocation.
void setCounting(bool on);

/// Allocations counted so far, over this process and its forked children.
std::uint64_t count();

/// Allocations counted so far on the calling thread alone.
std::uint64_t threadCount();

/// Checks that a known number of malloc and operator new calls is
/// counted exactly; fills `why` and returns false otherwise.
bool selfTest(std::string& why);

}  // namespace perfbench::alloc
