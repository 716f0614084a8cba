/**
 * @file
 * Computation graph IR (Section 4, "Computation Graph"): a DAG of
 * single-output operation nodes over tensor ids, plus a parameter
 * table. The Split-CNN transformation rewrites this graph; HMMS plans
 * memory for its serialized form; the CPU executor runs it for real.
 */
#ifndef SCNN_GRAPH_GRAPH_H
#define SCNN_GRAPH_GRAPH_H

#include <cstdint>
#include <string>
#include <vector>

#include "kernels/window.h"
#include "tensor/shape.h"

namespace scnn {

using TensorId = int32_t;
using NodeId = int32_t;
using ParamId = int32_t;

constexpr TensorId kInvalidTensor = -1;

/** Operation kinds supported by the IR. */
enum class OpKind
{
    Input,         ///< graph input placeholder
    Conv2d,        ///< params: [weight, bias?]
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool,
    BatchNorm,     ///< params: [gamma, beta, run_mean, run_var]
    ReLU,
    Linear,        ///< params: [weight, bias?]
    Flatten,
    Add,           ///< elementwise sum of all inputs (residual join)
    Slice,         ///< spatial crop (the split side of Split-CNN)
    Concat         ///< concatenation along a spatial dim (the join)
};

/** Human-readable op kind name. */
const char *opKindName(OpKind kind);

/** True for the window-based ops the paper's Section 3 splits. */
bool isWindowOp(OpKind kind);

/** How a parameter tensor is initialized by the executor. */
enum class ParamInit
{
    Zero,
    One,
    KaimingConv,  ///< N(0, sqrt(2 / fan_in)), fan_in = C*kh*kw
    KaimingLinear ///< N(0, sqrt(2 / fan_in)), fan_in = F
};

/** One learnable (or buffer) tensor in the parameter table. */
struct ParamInfo
{
    std::string name;
    Shape shape;
    ParamInit init = ParamInit::Zero;
    bool requires_grad = true; ///< false for batchnorm running stats
};

/** One operation node; at most one output (paper's definition). */
struct Node
{
    NodeId id = -1;
    OpKind kind = OpKind::Input;
    std::string name;
    std::vector<TensorId> inputs;
    TensorId output = kInvalidTensor;
    std::vector<ParamId> params;

    // --- op attributes (valid per kind) ---
    Window2d win;            ///< Conv2d / MaxPool2d / AvgPool2d
    int64_t out_channels = 0; ///< Conv2d / Linear
    bool has_bias = true;    ///< Conv2d / Linear
    // Slice: crop region [h_start, h_end) x [w_start, w_end).
    int64_t h_start = 0, h_end = 0, w_start = 0, w_end = 0;
    int concat_dim = 3;      ///< Concat: 2 (H) or 3 (W)
    // Split-CNN patch clones: the (row, column) of the patch grid the
    // node computes; -1 outside a split region.
    int patch_h = -1, patch_w = -1;
};

/** Metadata of one tensor (SSA value) in the graph. */
struct TensorInfo
{
    TensorId id = kInvalidTensor;
    std::string name;
    Shape shape;
    NodeId producer = -1;
    std::vector<NodeId> consumers;
};

/**
 * A candidate Split-CNN join point: a tensor at which the patchwise
 * region may be concatenated back (for ResNet these are residual
 * block boundaries, per the paper's footnote 3).
 */
struct CutPoint
{
    TensorId tensor = kInvalidTensor;
    int convs_before = 0; ///< conv layers from the input to this cut
};

/**
 * The computation graph: nodes in topological (construction) order,
 * tensor metadata, parameter table, and Split-CNN cut points.
 */
class Graph
{
  public:
    /** Nodes in topological order. */
    const std::vector<Node> &nodes() const { return nodes_; }

    /** All tensor metadata. */
    const std::vector<TensorInfo> &tensors() const { return tensors_; }

    /** Parameter table. */
    const std::vector<ParamInfo> &params() const { return params_; }

    /** Split-CNN candidate join points, in topological order. */
    const std::vector<CutPoint> &cutPoints() const { return cuts_; }

    const TensorInfo &tensor(TensorId id) const;
    const Node &node(NodeId id) const;
    const ParamInfo &param(ParamId id) const;

    /** The single Input node's output tensor. */
    TensorId inputTensor() const;

    /** The graph output (tensor with no consumers; must be unique). */
    TensorId outputTensor() const;

    /** Total number of conv layers (used for split-depth math). */
    int convCount() const;

    /** Sum of requires_grad parameter elements (the |G| of Fig. 11). */
    int64_t parameterCount() const;

    /**
     * Kahn topological sort of node ids; panics on cycles. The
     * result equals construction order for builder-produced graphs
     * but is recomputed for safety (Section 4.1, step 2).
     */
    std::vector<NodeId> topoOrder() const;

    /** Validate producer/consumer indices and shape consistency. */
    void validate() const;

    /** Multi-line human-readable dump. */
    std::string toString() const;

  private:
    friend class GraphBuilder;
    friend class SplitTransform;

    std::vector<Node> nodes_;
    std::vector<TensorInfo> tensors_;
    std::vector<ParamInfo> params_;
    std::vector<CutPoint> cuts_;
};

/**
 * Fluent builder used by the model zoo. Performs shape inference and
 * wires producer/consumer links.
 */
class GraphBuilder
{
  public:
    GraphBuilder();

    /** Declare the (single) NCHW input. */
    TensorId input(Shape shape, std::string name = "input");

    /**
     * Convolution. @p shared_params reuses an existing node's
     * parameter ids (the Split-CNN patch clones share weights).
     */
    TensorId conv2d(TensorId x, int64_t out_channels, const Window2d &win,
                    bool bias, std::string name,
                    const std::vector<ParamId> &shared_params = {});

    TensorId batchNorm(TensorId x, std::string name,
                       const std::vector<ParamId> &shared_params = {});

    TensorId relu(TensorId x, std::string name = "");

    TensorId maxPool(TensorId x, const Window2d &win,
                     std::string name = "");

    TensorId avgPool(TensorId x, const Window2d &win,
                     std::string name = "");

    TensorId globalAvgPool(TensorId x, std::string name = "");

    TensorId linear(TensorId x, int64_t out_features, bool bias,
                    std::string name,
                    const std::vector<ParamId> &shared_params = {});

    TensorId flatten(TensorId x, std::string name = "");

    /** Elementwise sum (residual join). */
    TensorId add(const std::vector<TensorId> &xs, std::string name = "");

    /** Spatial crop [h0, h1) x [w0, w1). */
    TensorId slice(TensorId x, int64_t h0, int64_t h1, int64_t w0,
                   int64_t w1, std::string name = "");

    /** Concatenate along dim 2 (H) or 3 (W). */
    TensorId concat(const std::vector<TensorId> &xs, int dim,
                    std::string name = "");

    /**
     * Tag every node added from now on as part of patch (@p hi,
     * @p wi) of a split region; (-1, -1) ends the tagging.
     */
    void setPatch(int hi, int wi);

    /** Record a Split-CNN candidate join point at tensor @p t. */
    void markCutPoint(TensorId t);

    /**
     * Import an existing parameter table (ids preserved). Must be
     * called before any node is added; used by graph transformations
     * that share parameters with the source graph.
     */
    void importParams(const std::vector<ParamInfo> &params);

    /** Number of conv nodes added so far. */
    int convCount() const { return conv_count_; }

    /** Finalize; the builder must not be reused afterwards. */
    Graph build();

  private:
    TensorId newTensor(Shape shape, std::string name, NodeId producer);
    NodeId addNode(Node node);
    ParamId addParam(ParamInfo info);
    const Shape &shapeOf(TensorId t) const;

    Graph graph_;
    int conv_count_ = 0;
    int patch_h_ = -1, patch_w_ = -1;
    bool built_ = false;
};

} // namespace scnn

#endif // SCNN_GRAPH_GRAPH_H
