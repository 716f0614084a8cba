/**
 * @file
 * Kernel replay: run each graph node's public kernel call, forward
 * and backward, in isolation on the node's own input values and the
 * workload's parameters, and total the times and shape-derived FLOPs
 * by op kind. The results are "replayed", not measured inside the
 * executor: a kernel timed alone gets the whole pool, while inside a
 * wide executor wave it shares it.
 */
#ifndef PERFBENCH_REPLAY_H
#define PERFBENCH_REPLAY_H

#include <map>
#include <string>

#include "graph/graph.h"
#include "train/executor.h"
#include "trace.h"

namespace perfbench {

/** Totals for one op kind and direction. */
struct KindTotal
{
    double ms = 0.0;    ///< sum over nodes of the median replay time
    double flops = 0.0; ///< shape-derived floating-point operations
    int nodes = 0;
};

struct ReplayResult
{
    /** Keyed conv2d_fwd, conv2d_bwd, pool, batchnorm, linear,
     *  eltwise, slice_concat. */
    std::map<std::string, KindTotal> kinds;
    double forward_ms = 0.0;  ///< all forward replays
    double backward_ms = 0.0; ///< all backward replays
};

/**
 * Replay every node of @p graph. @p cache must hold a training-mode
 * forward of @p graph (values, max-pool argmax and BN statistics).
 * Each call runs @p reps times and contributes its median; a span
 * per node and direction, carrying op kind, shapes, FLOPs and bytes,
 * goes to @p tracer when it records. Parameters are read, never
 * written.
 */
ReplayResult replayKernels(const scnn::Graph &graph,
                           const scnn::ParamStore &params,
                           const scnn::ForwardCache &cache, int reps,
                           Tracer &tracer);

} // namespace perfbench

#endif // PERFBENCH_REPLAY_H
