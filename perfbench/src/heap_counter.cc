#include "heap_counter.h"

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <cstring>
#include <new>

namespace perfbench {

namespace {

std::atomic<int64_t> g_live{0};
std::atomic<int64_t> g_peak{0};
std::atomic<int64_t> g_allocs{0};
std::atomic<int64_t> g_bytes{0};

// Every block starts with a header of this many bytes holding the
// requested size; a multiple of every fundamental alignment so plain
// new keeps max_align_t alignment.
constexpr size_t kHeader = alignof(std::max_align_t);

void
account(int64_t size)
{
    g_allocs.fetch_add(1, std::memory_order_relaxed);
    g_bytes.fetch_add(size, std::memory_order_relaxed);
    const int64_t live =
        g_live.fetch_add(size, std::memory_order_relaxed) + size;
    int64_t peak = g_peak.load(std::memory_order_relaxed);
    while (live > peak &&
           !g_peak.compare_exchange_weak(peak, live,
                                         std::memory_order_relaxed))
    {
    }
}

/** Header size for a block of alignment @p align. */
size_t
headerFor(size_t align)
{
    return align > kHeader ? align : kHeader;
}

void *
allocate(size_t size, size_t align)
{
    const size_t header = headerFor(align);
    void *base = nullptr;
    if (align > kHeader) {
        // aligned_alloc wants a size that is a multiple of align.
        const size_t total = (header + size + align - 1) / align * align;
        base = std::aligned_alloc(align, total);
    } else {
        base = std::malloc(header + size);
    }
    if (base == nullptr)
        return nullptr;
    char *user = static_cast<char *>(base) + header;
    std::memcpy(user - sizeof(size_t), &size, sizeof(size_t));
    account(static_cast<int64_t>(size));
    return user;
}

void
release(void *ptr, size_t align)
{
    if (ptr == nullptr)
        return;
    char *user = static_cast<char *>(ptr);
    size_t size = 0;
    std::memcpy(&size, user - sizeof(size_t), sizeof(size_t));
    g_live.fetch_sub(static_cast<int64_t>(size),
                     std::memory_order_relaxed);
    std::free(user - headerFor(align));
}

void *
allocateOrThrow(size_t size, size_t align)
{
    void *p = allocate(size, align);
    if (p == nullptr)
        throw std::bad_alloc();
    return p;
}

} // namespace

HeapSnapshot
heapSnapshot()
{
    return {g_live.load(std::memory_order_relaxed),
            g_peak.load(std::memory_order_relaxed),
            g_allocs.load(std::memory_order_relaxed),
            g_bytes.load(std::memory_order_relaxed)};
}

void
resetHeapPeak()
{
    g_peak.store(g_live.load(std::memory_order_relaxed),
                 std::memory_order_relaxed);
}

} // namespace perfbench

using perfbench::allocate;
using perfbench::allocateOrThrow;
using perfbench::release;

// Plain and array forms.
void *operator new(size_t n) { return allocateOrThrow(n, 0); }
void *operator new[](size_t n) { return allocateOrThrow(n, 0); }
void *
operator new(size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n, 0);
}
void *
operator new[](size_t n, const std::nothrow_t &) noexcept
{
    return allocate(n, 0);
}
void operator delete(void *p) noexcept { release(p, 0); }
void operator delete[](void *p) noexcept { release(p, 0); }
void operator delete(void *p, size_t) noexcept { release(p, 0); }
void operator delete[](void *p, size_t) noexcept { release(p, 0); }
void
operator delete(void *p, const std::nothrow_t &) noexcept
{
    release(p, 0);
}
void
operator delete[](void *p, const std::nothrow_t &) noexcept
{
    release(p, 0);
}

// Aligned forms.
void *
operator new(size_t n, std::align_val_t a)
{
    return allocateOrThrow(n, static_cast<size_t>(a));
}
void *
operator new[](size_t n, std::align_val_t a)
{
    return allocateOrThrow(n, static_cast<size_t>(a));
}
void *
operator new(size_t n, std::align_val_t a, const std::nothrow_t &) noexcept
{
    return allocate(n, static_cast<size_t>(a));
}
void *
operator new[](size_t n, std::align_val_t a,
               const std::nothrow_t &) noexcept
{
    return allocate(n, static_cast<size_t>(a));
}
void
operator delete(void *p, std::align_val_t a) noexcept
{
    release(p, static_cast<size_t>(a));
}
void
operator delete[](void *p, std::align_val_t a) noexcept
{
    release(p, static_cast<size_t>(a));
}
void
operator delete(void *p, size_t, std::align_val_t a) noexcept
{
    release(p, static_cast<size_t>(a));
}
void
operator delete[](void *p, size_t, std::align_val_t a) noexcept
{
    release(p, static_cast<size_t>(a));
}
void
operator delete(void *p, std::align_val_t a,
                const std::nothrow_t &) noexcept
{
    release(p, static_cast<size_t>(a));
}
void
operator delete[](void *p, std::align_val_t a,
                  const std::nothrow_t &) noexcept
{
    release(p, static_cast<size_t>(a));
}
