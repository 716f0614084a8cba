/**
 * @file
 * Real (CPU) execution of a computation graph: parameter storage,
 * forward pass with intermediate caching, and back-propagation. This
 * engine runs the accuracy experiments (Figures 4-7, Table 1); the
 * timing experiments use the device simulator instead.
 */
#ifndef SCNN_TRAIN_EXECUTOR_H
#define SCNN_TRAIN_EXECUTOR_H

#include <optional>
#include <vector>

#include "core/split_op.h"
#include "graph/graph.h"
#include "kernels/batchnorm.h"
#include "tensor/tensor.h"
#include "util/rng.h"

namespace scnn {

/**
 * Storage for parameter values and gradients, keyed by ParamId.
 *
 * The Split-CNN transformation preserves the parameter table of the
 * original graph, so one ParamStore can be shared by the unsplit
 * graph, the split graph, and per-minibatch stochastic-split graphs
 * (the mechanism behind evaluating a Stochastic Split-CNN unsplit).
 */
class ParamStore
{
  public:
    /** Allocate and initialize parameters per the graph's table. */
    ParamStore(const Graph &graph, Rng &rng);

    Tensor &value(ParamId id);
    const Tensor &value(ParamId id) const;
    Tensor &grad(ParamId id);

    /** Zero all gradient tensors. */
    void zeroGrad();

    size_t size() const { return values_.size(); }

    /** True if @p graph has the identical parameter table. */
    bool compatibleWith(const Graph &graph) const;

  private:
    std::vector<ParamInfo> infos_;
    std::vector<Tensor> values_;
    std::vector<Tensor> grads_;
};

/** Per-step intermediate state kept between forward and backward. */
struct ForwardCache
{
    /** Forward tensor values by TensorId. */
    std::vector<std::optional<Tensor>> values;
    /** Max-pool argmax per NodeId. */
    std::vector<std::vector<int64_t>> argmax;
    /** BatchNorm statistics per NodeId. */
    std::vector<BatchNormCache> bn;
};

/**
 * Group @p graph's topological order into dependency levels
 * ("waves"): a node's wave is 1 + the deepest wave among its input
 * producers, so every node in a wave depends only on earlier waves
 * and nodes within one wave can run concurrently. The partition is a
 * function of the graph alone (thread-count independent). Exported
 * so the SA6xx parallel-safety analyzer
 * (analysis/parallel_model.h) models the exact schedule the
 * executor runs.
 */
std::vector<std::vector<NodeId>> computeExecutionWaves(const Graph &graph);

/**
 * A group of Conv2d patch clones the executor runs as one band-fused
 * call: the nodes splitCnnTransform made from one source conv (they
 * share its weight ParamId), in row-major patch-grid order, and the
 * patch-form layout over their own input and output tensors.
 */
struct ConvGroup
{
    std::vector<NodeId> nodes;
    SplitConvLayout layout;
};

/** One dependency wave of the executor's schedule. */
struct ExecutionWave
{
    /** Patch-clone conv groups, each issued from the caller so its
     * band-fused kernel has the whole pool. */
    std::vector<ConvGroup> groups;
    /** Every other node of the wave, in topological order. */
    std::vector<NodeId> nodes;
};

/**
 * The executor's schedule: computeExecutionWaves, with each wave's
 * Conv2d nodes that share a weight and tile a complete patch grid
 * pulled out as one ConvGroup. A wave holds every clone of a source
 * node (patch subgraphs are isomorphic), so groups need no
 * cross-wave scheduling. Unsplit graphs have no groups. Exported so
 * buildExecutorWavePlan models the schedule that runs.
 */
std::vector<ExecutionWave> computeExecutionSchedule(const Graph &graph);

/**
 * Graph executor bound to a graph and a parameter store.
 */
class Executor
{
  public:
    Executor(const Graph &graph, ParamStore &params);

    /**
     * Run the forward pass.
     *
     * @param input value for the graph input tensor.
     * @param training true for batch-stat BN (and running-stat
     *        updates); false for inference-mode BN.
     * @param cache [out] intermediates for backward; may be null for
     *        inference.
     * @return the graph output tensor value (logits).
     */
    Tensor forward(const Tensor &input, bool training,
                   ForwardCache *cache);

    /**
     * Back-propagate @p grad_output (gradient w.r.t. the graph
     * output) and accumulate parameter gradients into the store.
     * Nodes run in reverse topological order, except that each
     * patch row of a conv group runs as one band-fused
     * splitConv2dBackwardPatches call once all its members' output
     * gradients are final; it is bitwise equal to the per-clone
     * conv2dBackward calls it replaces, and rows run last to first,
     * so gradients accumulate exactly as in the clone graph.
     *
     * @param grad_input [out] when non-null, receives the gradient
     *        w.r.t. the graph input.
     */
    void backward(const ForwardCache &cache, const Tensor &grad_output,
                  Tensor *grad_input = nullptr);

  private:
    /**
     * Evaluate one node from cached input values. With
     * @p defer_bn_updates, training-mode batchnorm computes batch
     * statistics but leaves the running stats untouched (the caller
     * applies them later, serially, in topological order).
     */
    Tensor computeNode(const Node &n, const Tensor &input, bool training,
                       bool defer_bn_updates, ForwardCache &c);

    /** Run a conv group's forward as one band-fused call. */
    void forwardGroup(const ConvGroup &g, ForwardCache &c);

    /** One step of the backward schedule: a single node, or one
     * patch row of a conv group run as one
     * splitConv2dBackwardPatches call over @c layout. */
    struct BackwardUnit
    {
        std::vector<NodeId> nodes;
        std::optional<SplitConvLayout> layout;
        int64_t last = -1; ///< latest topological position of a node
    };

    /** Order the backward units (see backward()). */
    std::vector<BackwardUnit> backwardSchedule() const;

    const Graph &graph_;
    ParamStore &params_;
    std::vector<NodeId> topo_;
    /**
     * The schedule (computeExecutionSchedule): dependency levels
     * ("waves") whose nodes depend only on earlier waves, so the
     * nodes of a wave — e.g. the per-patch clones a Split-CNN
     * transform creates — can run concurrently. Membership and order
     * follow the topological order, independent of thread count.
     */
    std::vector<ExecutionWave> waves_;
    /** Per tensor: how many node inputs read it (inference frees a
     * value once they have all run). */
    std::vector<int> readers_;
    std::vector<BackwardUnit> backward_;
};

} // namespace scnn

#endif // SCNN_TRAIN_EXECUTOR_H
