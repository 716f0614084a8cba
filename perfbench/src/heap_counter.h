/**
 * @file
 * Heap accounting from outside the library. heap_counter.cc replaces
 * every form of global operator new/delete (plain, array, sized,
 * aligned, nothrow) in the binary that links it, so every allocation
 * the split-cnn library makes through the C++ allocator is counted:
 * requested bytes, allocation count, live bytes and peak live bytes.
 *
 * Live bytes are exact: each block carries a header holding its
 * requested size, so unsized deletes subtract what was added.
 */
#ifndef PERFBENCH_HEAP_COUNTER_H
#define PERFBENCH_HEAP_COUNTER_H

#include <cstdint>

namespace perfbench {

/** Process-wide counter values at one instant. */
struct HeapSnapshot
{
    int64_t live = 0;   ///< requested bytes currently allocated
    int64_t peak = 0;   ///< max of live since the last resetHeapPeak()
    int64_t allocs = 0; ///< allocations since process start
    int64_t bytes = 0;  ///< requested bytes since process start
};

HeapSnapshot heapSnapshot();

/** Restart peak tracking from the current live level. */
void resetHeapPeak();

} // namespace perfbench

#endif // PERFBENCH_HEAP_COUNTER_H
