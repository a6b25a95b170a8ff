// Replaces the global operator new/delete of the perfbench binary with
// malloc/free plus a live-byte count and its peak, so the benchmark can
// report the heap one unit needs without touching library code. Each
// allocation costs two relaxed atomic updates; the simulator's steady
// state allocates nothing, so unit times barely see them.
#include "heap_meter.hpp"

#include <malloc.h>

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<std::size_t> live{0};
std::atomic<std::size_t> peak{0};

void note_alloc(void* p) {
  const std::size_t size = ::malloc_usable_size(p);
  const std::size_t now =
      live.fetch_add(size, std::memory_order_relaxed) + size;
  std::size_t high = peak.load(std::memory_order_relaxed);
  while (now > high &&
         !peak.compare_exchange_weak(high, now, std::memory_order_relaxed)) {
  }
}

void* allocate(std::size_t size) {
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void* allocate_aligned(std::size_t size, std::align_val_t align) {
  const auto a = static_cast<std::size_t>(align);
  // aligned_alloc wants a size that is a multiple of the alignment.
  void* p = std::aligned_alloc(a, ((size == 0 ? 1 : size) + a - 1) / a * a);
  if (p == nullptr) throw std::bad_alloc();
  note_alloc(p);
  return p;
}

void release(void* p) {
  if (p == nullptr) return;
  live.fetch_sub(::malloc_usable_size(p), std::memory_order_relaxed);
  std::free(p);
}

}  // namespace

namespace perfbench {

std::size_t heap_live_bytes() { return live.load(std::memory_order_relaxed); }

std::size_t heap_peak_bytes() { return peak.load(std::memory_order_relaxed); }

void heap_peak_reset() {
  peak.store(live.load(std::memory_order_relaxed), std::memory_order_relaxed);
}

}  // namespace perfbench

void* operator new(std::size_t size) { return allocate(size); }
void* operator new[](std::size_t size) { return allocate(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  try {
    return allocate(size);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return operator new(size, tag);
}
void* operator new(std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return allocate_aligned(size, align);
}
void operator delete(void* p) noexcept { release(p); }
void operator delete[](void* p) noexcept { release(p); }
void operator delete(void* p, std::size_t) noexcept { release(p); }
void operator delete[](void* p, std::size_t) noexcept { release(p); }
void operator delete(void* p, std::align_val_t) noexcept { release(p); }
void operator delete[](void* p, std::align_val_t) noexcept { release(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  release(p);
}
