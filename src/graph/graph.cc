#include "graph/graph.h"

#include <algorithm>
#include <queue>
#include <sstream>

#include "util/logging.h"

namespace scnn {

const char *
opKindName(OpKind kind)
{
    switch (kind) {
      case OpKind::Input: return "Input";
      case OpKind::Conv2d: return "Conv2d";
      case OpKind::MaxPool2d: return "MaxPool2d";
      case OpKind::AvgPool2d: return "AvgPool2d";
      case OpKind::GlobalAvgPool: return "GlobalAvgPool";
      case OpKind::BatchNorm: return "BatchNorm";
      case OpKind::ReLU: return "ReLU";
      case OpKind::Linear: return "Linear";
      case OpKind::Flatten: return "Flatten";
      case OpKind::Add: return "Add";
      case OpKind::Slice: return "Slice";
      case OpKind::Concat: return "Concat";
    }
    return "?";
}

bool
isWindowOp(OpKind kind)
{
    return kind == OpKind::Conv2d || kind == OpKind::MaxPool2d ||
           kind == OpKind::AvgPool2d;
}

const TensorInfo &
Graph::tensor(TensorId id) const
{
    SCNN_CHECK(id >= 0 && id < static_cast<TensorId>(tensors_.size()),
               "bad tensor id " << id);
    return tensors_[static_cast<size_t>(id)];
}

const Node &
Graph::node(NodeId id) const
{
    SCNN_CHECK(id >= 0 && id < static_cast<NodeId>(nodes_.size()),
               "bad node id " << id);
    return nodes_[static_cast<size_t>(id)];
}

const ParamInfo &
Graph::param(ParamId id) const
{
    SCNN_CHECK(id >= 0 && id < static_cast<ParamId>(params_.size()),
               "bad param id " << id);
    return params_[static_cast<size_t>(id)];
}

TensorId
Graph::inputTensor() const
{
    for (const auto &n : nodes_)
        if (n.kind == OpKind::Input)
            return n.output;
    SCNN_PANIC("graph has no input node");
}

TensorId
Graph::outputTensor() const
{
    TensorId out = kInvalidTensor;
    for (const auto &t : tensors_) {
        if (t.consumers.empty()) {
            SCNN_CHECK(out == kInvalidTensor,
                       "graph has multiple outputs: " << out << " and "
                                                      << t.id);
            out = t.id;
        }
    }
    SCNN_CHECK(out != kInvalidTensor, "graph has no output");
    return out;
}

int
Graph::convCount() const
{
    int count = 0;
    for (const auto &n : nodes_)
        if (n.kind == OpKind::Conv2d)
            ++count;
    return count;
}

int64_t
Graph::parameterCount() const
{
    int64_t count = 0;
    // Shared parameter ids are referenced by several nodes but stored
    // once in the table, so summing the table counts each weight once.
    for (const auto &p : params_)
        if (p.requires_grad)
            count += p.shape.numel();
    return count;
}

std::vector<NodeId>
Graph::topoOrder() const
{
    std::vector<int> indegree(nodes_.size(), 0);
    for (const auto &n : nodes_)
        indegree[static_cast<size_t>(n.id)] =
            static_cast<int>(n.inputs.size());

    std::queue<NodeId> ready;
    for (const auto &n : nodes_)
        if (n.inputs.empty())
            ready.push(n.id);

    std::vector<NodeId> order;
    order.reserve(nodes_.size());
    while (!ready.empty()) {
        const NodeId id = ready.front();
        ready.pop();
        order.push_back(id);
        const Node &n = node(id);
        if (n.output == kInvalidTensor)
            continue;
        for (NodeId consumer : tensor(n.output).consumers) {
            if (--indegree[static_cast<size_t>(consumer)] == 0)
                ready.push(consumer);
        }
    }
    SCNN_CHECK(order.size() == nodes_.size(),
               "graph has a cycle: serialized " << order.size() << " of "
                                                << nodes_.size());
    return order;
}

void
Graph::validate() const
{
    for (const auto &n : nodes_) {
        for (TensorId in : n.inputs) {
            const TensorInfo &t = tensor(in);
            SCNN_CHECK(std::find(t.consumers.begin(), t.consumers.end(),
                                 n.id) != t.consumers.end(),
                       "node " << n.name << " missing from consumers of "
                               << t.name);
        }
        if (n.output != kInvalidTensor)
            SCNN_CHECK(tensor(n.output).producer == n.id,
                       "producer link broken for " << n.name);
        for (ParamId p : n.params)
            (void)param(p);
    }
    (void)topoOrder(); // acyclicity
    (void)outputTensor(); // single output
}

std::string
Graph::toString() const
{
    std::ostringstream os;
    for (const auto &n : nodes_) {
        os << n.id << ": " << opKindName(n.kind) << " " << n.name
           << " (";
        for (size_t i = 0; i < n.inputs.size(); ++i) {
            if (i)
                os << ", ";
            os << 't' << n.inputs[i];
        }
        os << ") -> t" << n.output;
        if (n.output != kInvalidTensor)
            os << ' ' << tensor(n.output).shape.toString();
        os << '\n';
    }
    return os.str();
}

GraphBuilder::GraphBuilder() = default;

TensorId
GraphBuilder::newTensor(Shape shape, std::string name, NodeId producer)
{
    TensorInfo info;
    info.id = static_cast<TensorId>(graph_.tensors_.size());
    info.name = std::move(name);
    info.shape = std::move(shape);
    info.producer = producer;
    graph_.tensors_.push_back(std::move(info));
    return graph_.tensors_.back().id;
}

NodeId
GraphBuilder::addNode(Node node)
{
    SCNN_CHECK(!built_, "builder already finalized");
    node.id = static_cast<NodeId>(graph_.nodes_.size());
    node.patch_h = patch_h_;
    node.patch_w = patch_w_;
    for (TensorId in : node.inputs)
        graph_.tensors_[static_cast<size_t>(in)].consumers.push_back(
            node.id);
    graph_.nodes_.push_back(std::move(node));
    return graph_.nodes_.back().id;
}

void
GraphBuilder::setPatch(int hi, int wi)
{
    patch_h_ = hi;
    patch_w_ = wi;
}

ParamId
GraphBuilder::addParam(ParamInfo info)
{
    graph_.params_.push_back(std::move(info));
    return static_cast<ParamId>(graph_.params_.size() - 1);
}

const Shape &
GraphBuilder::shapeOf(TensorId t) const
{
    return graph_.tensor(t).shape;
}

TensorId
GraphBuilder::input(Shape shape, std::string name)
{
    SCNN_REQUIRE(shape.rank() == 4, "graph input must be NCHW");
    Node n;
    n.kind = OpKind::Input;
    n.name = name;
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(std::move(shape), std::move(name), id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::conv2d(TensorId x, int64_t out_channels,
                     const Window2d &win, bool bias, std::string name,
                     const std::vector<ParamId> &shared_params)
{
    const Shape &in = shapeOf(x);
    SCNN_REQUIRE(in.rank() == 4, "conv2d input must be NCHW");
    const int64_t c = in.dim(1);
    Shape out{in.dim(0), out_channels, win.outH(in.dim(2)),
              win.outW(in.dim(3))};
    SCNN_REQUIRE(out.dim(2) > 0 && out.dim(3) > 0,
                 "conv " << name << " produces empty output");

    Node n;
    n.kind = OpKind::Conv2d;
    n.name = name;
    n.inputs = {x};
    n.win = win;
    n.out_channels = out_channels;
    n.has_bias = bias;
    if (!shared_params.empty()) {
        SCNN_REQUIRE(shared_params.size() == (bias ? 2u : 1u),
                     "conv shared param count mismatch");
        SCNN_REQUIRE(graph_.param(shared_params[0]).shape ==
                         Shape({out_channels, c, win.kh, win.kw}),
                     "shared conv weight shape mismatch for " << name);
        n.params = shared_params;
    } else {
        n.params.push_back(
            addParam({name + ".weight",
                      Shape{out_channels, c, win.kh, win.kw},
                      ParamInit::KaimingConv, true}));
        if (bias)
            n.params.push_back(addParam({name + ".bias",
                                         Shape{out_channels},
                                         ParamInit::Zero, true}));
    }

    ++conv_count_;
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(std::move(out), name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::batchNorm(TensorId x, std::string name,
                        const std::vector<ParamId> &shared_params)
{
    const Shape &in = shapeOf(x);
    SCNN_REQUIRE(in.rank() == 4, "batchnorm input must be NCHW");
    const int64_t c = in.dim(1);

    Node n;
    n.kind = OpKind::BatchNorm;
    n.name = name;
    n.inputs = {x};
    if (!shared_params.empty()) {
        SCNN_REQUIRE(shared_params.size() == 4u,
                     "batchnorm shared param count mismatch");
        SCNN_REQUIRE(graph_.param(shared_params[0]).shape == Shape({c}),
                     "shared batchnorm param shape mismatch");
        n.params = shared_params;
    } else {
        n.params = {
            addParam({name + ".gamma", Shape{c}, ParamInit::One, true}),
            addParam({name + ".beta", Shape{c}, ParamInit::Zero, true}),
            addParam({name + ".run_mean", Shape{c}, ParamInit::Zero,
                      false}),
            addParam({name + ".run_var", Shape{c}, ParamInit::One,
                      false}),
        };
    }

    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(in, name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::relu(TensorId x, std::string name)
{
    if (name.empty())
        name = "relu_t" + std::to_string(x);
    Node n;
    n.kind = OpKind::ReLU;
    n.name = name;
    n.inputs = {x};
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(shapeOf(x), name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::maxPool(TensorId x, const Window2d &win, std::string name)
{
    if (name.empty())
        name = "maxpool_t" + std::to_string(x);
    const Shape &in = shapeOf(x);
    Shape out{in.dim(0), in.dim(1), win.outH(in.dim(2)),
              win.outW(in.dim(3))};
    SCNN_REQUIRE(out.dim(2) > 0 && out.dim(3) > 0,
                 "pool " << name << " produces empty output");
    Node n;
    n.kind = OpKind::MaxPool2d;
    n.name = name;
    n.inputs = {x};
    n.win = win;
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(std::move(out), name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::avgPool(TensorId x, const Window2d &win, std::string name)
{
    if (name.empty())
        name = "avgpool_t" + std::to_string(x);
    const Shape &in = shapeOf(x);
    Shape out{in.dim(0), in.dim(1), win.outH(in.dim(2)),
              win.outW(in.dim(3))};
    Node n;
    n.kind = OpKind::AvgPool2d;
    n.name = name;
    n.inputs = {x};
    n.win = win;
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(std::move(out), name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::globalAvgPool(TensorId x, std::string name)
{
    if (name.empty())
        name = "gap_t" + std::to_string(x);
    const Shape &in = shapeOf(x);
    Node n;
    n.kind = OpKind::GlobalAvgPool;
    n.name = name;
    n.inputs = {x};
    const NodeId id = addNode(std::move(n));
    const TensorId t =
        newTensor(Shape{in.dim(0), in.dim(1), 1, 1}, name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::linear(TensorId x, int64_t out_features, bool bias,
                     std::string name,
                     const std::vector<ParamId> &shared_params)
{
    const Shape &in = shapeOf(x);
    SCNN_REQUIRE(in.rank() == 2, "linear input must be [N, F]");
    const int64_t f = in.dim(1);

    Node n;
    n.kind = OpKind::Linear;
    n.name = name;
    n.inputs = {x};
    n.out_channels = out_features;
    n.has_bias = bias;
    if (!shared_params.empty()) {
        n.params = shared_params;
    } else {
        n.params.push_back(addParam({name + ".weight",
                                     Shape{out_features, f},
                                     ParamInit::KaimingLinear, true}));
        if (bias)
            n.params.push_back(addParam({name + ".bias",
                                         Shape{out_features},
                                         ParamInit::Zero, true}));
    }
    const NodeId id = addNode(std::move(n));
    const TensorId t =
        newTensor(Shape{in.dim(0), out_features}, name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::flatten(TensorId x, std::string name)
{
    if (name.empty())
        name = "flatten_t" + std::to_string(x);
    const Shape &in = shapeOf(x);
    Node n;
    n.kind = OpKind::Flatten;
    n.name = name;
    n.inputs = {x};
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(
        Shape{in.dim(0), in.numel() / in.dim(0)}, name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::add(const std::vector<TensorId> &xs, std::string name)
{
    SCNN_REQUIRE(xs.size() >= 2, "add needs at least two inputs");
    if (name.empty())
        name = "add_t" + std::to_string(xs[0]);
    const Shape &shape = shapeOf(xs[0]);
    for (TensorId x : xs)
        SCNN_REQUIRE(shapeOf(x) == shape,
                     "add shape mismatch: " << shapeOf(x).toString()
                                            << " vs "
                                            << shape.toString());
    Node n;
    n.kind = OpKind::Add;
    n.name = name;
    n.inputs = xs;
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(shape, name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::slice(TensorId x, int64_t h0, int64_t h1, int64_t w0,
                    int64_t w1, std::string name)
{
    if (name.empty())
        name = "slice_t" + std::to_string(x);
    const Shape &in = shapeOf(x);
    SCNN_REQUIRE(in.rank() == 4, "slice input must be NCHW");
    SCNN_REQUIRE(0 <= h0 && h0 < h1 && h1 <= in.dim(2) && 0 <= w0 &&
                     w0 < w1 && w1 <= in.dim(3),
                 "bad slice [" << h0 << ',' << h1 << ")x[" << w0 << ','
                               << w1 << ") of " << in.toString());
    Node n;
    n.kind = OpKind::Slice;
    n.name = name;
    n.inputs = {x};
    n.h_start = h0;
    n.h_end = h1;
    n.w_start = w0;
    n.w_end = w1;
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(
        Shape{in.dim(0), in.dim(1), h1 - h0, w1 - w0}, name + ".out",
        id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

TensorId
GraphBuilder::concat(const std::vector<TensorId> &xs, int dim,
                     std::string name)
{
    SCNN_REQUIRE(!xs.empty(), "concat of nothing");
    SCNN_REQUIRE(dim == 2 || dim == 3, "concat dim must be spatial");
    if (name.empty())
        name = "concat_t" + std::to_string(xs[0]);
    Shape out = shapeOf(xs[0]);
    int64_t total = out.dim(dim);
    for (size_t i = 1; i < xs.size(); ++i) {
        const Shape &s = shapeOf(xs[i]);
        for (int d = 0; d < 4; ++d)
            if (d != dim)
                SCNN_REQUIRE(s.dim(d) == out.dim(d),
                             "concat extent mismatch");
        total += s.dim(dim);
    }
    out.setDim(dim, total);

    Node n;
    n.kind = OpKind::Concat;
    n.name = name;
    n.inputs = xs;
    n.concat_dim = dim;
    const NodeId id = addNode(std::move(n));
    const TensorId t = newTensor(std::move(out), name + ".out", id);
    graph_.nodes_[static_cast<size_t>(id)].output = t;
    return t;
}

void
GraphBuilder::importParams(const std::vector<ParamInfo> &params)
{
    SCNN_REQUIRE(graph_.params_.empty() && graph_.nodes_.empty(),
                 "importParams must come first");
    graph_.params_ = params;
}

void
GraphBuilder::markCutPoint(TensorId t)
{
    graph_.cuts_.push_back({t, conv_count_});
}

Graph
GraphBuilder::build()
{
    SCNN_CHECK(!built_, "builder already finalized");
    built_ = true;
    graph_.validate();
    return std::move(graph_);
}

} // namespace scnn
