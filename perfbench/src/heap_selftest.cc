/**
 * @file
 * Exactness test of the heap counters behind the *_heap_mb metrics:
 * a Tensor moves live bytes by exactly numel * 4 and gives them back
 * when freed; every replaced operator new/delete form is counted; the
 * peak restarts at resetHeapPeak(); counts stay exact across threads.
 * Exits nonzero on the first mismatch.
 */
#include <cstdio>
#include <new>
#include <thread>
#include <utility>
#include <vector>

#include "heap_counter.h"
#include "tensor/tensor.h"

using perfbench::heapSnapshot;
using perfbench::resetHeapPeak;

namespace {

int failures = 0;

void
expectEq(long long got, long long want, const char *what)
{
    if (got != want) {
        std::fprintf(stderr, "FAIL %s: got %lld, want %lld\n", what, got,
                     want);
        ++failures;
    }
}

/** Live-byte delta and allocation count of one new/delete pair. */
template <typename New, typename Delete>
void
checkForm(const char *what, long long bytes, New make, Delete drop)
{
    const auto before = heapSnapshot();
    void *p = make();
    const auto during = heapSnapshot();
    drop(p);
    const auto after = heapSnapshot();
    expectEq(during.live - before.live, bytes, what);
    expectEq(during.allocs - before.allocs, 1, what);
    expectEq(during.bytes - before.bytes, bytes, what);
    expectEq(after.live, before.live, what);
}

} // namespace

int
main()
{
    using scnn::Shape;
    using scnn::Tensor;

    // The shape's own dims buffer is allocated before the baseline,
    // so the delta is the tensor storage alone.
    const long long outer = heapSnapshot().live;
    {
        Shape shape{3, 5, 7, 11};
        const long long base = heapSnapshot().live;
        {
            Tensor t(std::move(shape));
            expectEq(heapSnapshot().live - base, 3 * 5 * 7 * 11 * 4,
                     "tensor live delta == numel * 4");
        }
    }
    expectEq(heapSnapshot().live, outer, "live returns to baseline");

    constexpr auto kAlign = std::align_val_t{64};
    checkForm("plain", 100, [] { return ::operator new(100); },
              [](void *p) { ::operator delete(p); });
    checkForm("sized delete", 100, [] { return ::operator new(100); },
              [](void *p) { ::operator delete(p, 100); });
    checkForm("array", 48, [] { return ::operator new[](48); },
              [](void *p) { ::operator delete[](p); });
    checkForm("sized array", 48, [] { return ::operator new[](48); },
              [](void *p) { ::operator delete[](p, 48); });
    checkForm("nothrow", 24,
              [] { return ::operator new(24, std::nothrow); },
              [](void *p) { ::operator delete(p, std::nothrow); });
    checkForm("nothrow array", 24,
              [] { return ::operator new[](24, std::nothrow); },
              [](void *p) { ::operator delete[](p, std::nothrow); });
    checkForm("aligned", 200, [=] { return ::operator new(200, kAlign); },
              [=](void *p) { ::operator delete(p, kAlign); });
    checkForm("aligned sized", 200,
              [=] { return ::operator new(200, kAlign); },
              [=](void *p) { ::operator delete(p, 200, kAlign); });
    checkForm("aligned array", 72,
              [=] { return ::operator new[](72, kAlign); },
              [=](void *p) { ::operator delete[](p, kAlign); });
    checkForm("aligned array sized", 72,
              [=] { return ::operator new[](72, kAlign); },
              [=](void *p) { ::operator delete[](p, 72, kAlign); });
    checkForm("aligned nothrow", 40,
              [=] { return ::operator new(40, kAlign, std::nothrow); },
              [=](void *p) { ::operator delete(p, kAlign, std::nothrow); });
    checkForm("aligned nothrow array", 40,
              [=] { return ::operator new[](40, kAlign, std::nothrow); },
              [=](void *p) {
                  ::operator delete[](p, kAlign, std::nothrow);
              });
    {
        void *p = ::operator new(8, kAlign);
        expectEq(reinterpret_cast<unsigned long long>(p) % 64, 0,
                 "aligned new honours the alignment");
        ::operator delete(p, kAlign);
    }

    // Peak tracks the high-water mark since the last reset.
    {
        const long long base = heapSnapshot().live;
        resetHeapPeak();
        void *big = ::operator new(4096);
        ::operator delete(big);
        void *small = ::operator new(16);
        expectEq(heapSnapshot().peak - base, 4096, "peak since reset");
        resetHeapPeak();
        expectEq(heapSnapshot().peak - base, 16, "peak after reset");
        ::operator delete(small);
    }

    // Concurrent allocation from two threads keeps live exact.
    {
        const long long base = heapSnapshot().live;
        auto churn = [] {
            for (int i = 0; i < 20000; ++i) {
                std::vector<float> v(static_cast<size_t>(i % 97 + 1));
                v[0] = 1.0f;
            }
        };
        std::thread a(churn), b(churn);
        a.join();
        b.join();
        expectEq(heapSnapshot().live, base, "live exact across threads");
    }

    if (failures == 0)
        std::printf("heap counter self-test: ok\n");
    return failures == 0 ? 0 : 1;
}
