// A counting global operator new for allocation budgets. Include it from
// exactly one translation unit of a binary (it defines the replaceable
// global operator new and delete); the array, nothrow and sized forms of
// the standard library forward to these. ASan and TSan interpose the
// allocator themselves, so under them nothing is replaced and
// kAllocationsCounted is false.

#ifndef SODA_TESTS_ALLOC_COUNTER_H_
#define SODA_TESTS_ALLOC_COUNTER_H_

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <new>

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define SODA_ALLOCATOR_INTERPOSED 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define SODA_ALLOCATOR_INTERPOSED 1
#endif
#endif

namespace soda::alloc_counter {

inline std::atomic<bool> counting{false};
inline std::atomic<size_t> allocations{0};

#ifdef SODA_ALLOCATOR_INTERPOSED
inline constexpr bool kAllocationsCounted = false;
#else
inline constexpr bool kAllocationsCounted = true;
#endif

/// Heap allocations made (on any thread) while `fn` runs.
template <typename Fn>
size_t Count(Fn&& fn) {
  allocations.store(0);
  counting.store(true);
  fn();
  counting.store(false);
  return allocations.load();
}

}  // namespace soda::alloc_counter

#ifndef SODA_ALLOCATOR_INTERPOSED
void* operator new(std::size_t size) {
  if (soda::alloc_counter::counting.load(std::memory_order_relaxed)) {
    soda::alloc_counter::allocations.fetch_add(1, std::memory_order_relaxed);
  }
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
#endif

#endif  // SODA_TESTS_ALLOC_COUNTER_H_
