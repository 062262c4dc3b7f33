// The counting global operator new of counting_new.h.
#include "tests/counting_new.h"

#include <atomic>
#include <cstdlib>
#include <new>

namespace {

std::atomic<size_t> g_allocations{0};

void* Allocate(size_t size, size_t align) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  size = size == 0 ? 1 : size;
  void* p = align <= alignof(std::max_align_t)
                ? std::malloc(size)
                : std::aligned_alloc(align, (size + align - 1) / align * align);
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

void* AllocateOrNull(size_t size, size_t align) noexcept {
  try {
    return Allocate(size, align);
  } catch (const std::bad_alloc&) {
    return nullptr;
  }
}

}  // namespace

size_t Allocations() { return g_allocations.load(std::memory_order_relaxed); }

// Every replaceable allocation form, so each new pairs with its delete under
// the sanitizers' mismatch checks.
void* operator new(size_t size) { return Allocate(size, 0); }
void* operator new[](size_t size) { return Allocate(size, 0); }
void* operator new(size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<size_t>(align));
}
void* operator new(size_t size, const std::nothrow_t&) noexcept {
  return AllocateOrNull(size, 0);
}
void* operator new[](size_t size, const std::nothrow_t&) noexcept {
  return AllocateOrNull(size, 0);
}
void* operator new(size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return AllocateOrNull(size, static_cast<size_t>(align));
}
void* operator new[](size_t size, std::align_val_t align, const std::nothrow_t&) noexcept {
  return AllocateOrNull(size, static_cast<size_t>(align));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, size_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t, const std::nothrow_t&) noexcept {
  std::free(p);
}

