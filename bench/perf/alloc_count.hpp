#pragma once

// Heap-allocation counting for apps.allocs_per_node. The two benchmark
// binaries are built from the same sources and differ only here: the
// traced one (yewpar_perf_traced) replaces the global operator new with a
// counting version; the untraced one keeps the standard library's.

#include <cstdint>

namespace perf {

// True in the traced binary.
bool countsAllocations();

// Calls to the global operator new so far; always 0 in the untraced binary.
std::uint64_t allocations();

}  // namespace perf
