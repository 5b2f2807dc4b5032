#include "alloc_count.hpp"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {
std::atomic<std::uint64_t> gAllocations{0};
}  // namespace

#ifdef YEWPAR_PERF_COUNT_NEW

// Replaceable global allocation functions. libstdc++ routes the array and
// nothrow forms through these, so every new-expression is counted once.
void* operator new(std::size_t n) {
  gAllocations.fetch_add(1, std::memory_order_relaxed);
  if (n == 0) n = 1;
  while (true) {
    if (void* p = std::malloc(n)) return p;
    std::new_handler handler = std::get_new_handler();
    if (handler == nullptr) throw std::bad_alloc();
    handler();
  }
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

#endif

namespace perf {

bool countsAllocations() {
#ifdef YEWPAR_PERF_COUNT_NEW
  return true;
#else
  return false;
#endif
}

std::uint64_t allocations() {
  return gAllocations.load(std::memory_order_relaxed);
}

}  // namespace perf
