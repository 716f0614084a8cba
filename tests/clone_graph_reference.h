/**
 * @file
 * Test support: the node-by-node execution of a graph — every node,
 * including each Split-CNN patch clone, run alone in topological
 * order with the per-node kernels (conv2dForwardAuto,
 * conv2dBackward, ...). This is the semantics the splitter's clone
 * graph defines (Sections 3.1-3.3); the Executor's band-fused conv
 * groups are tested against it.
 */
#ifndef SCNN_TESTS_CLONE_GRAPH_REFERENCE_H
#define SCNN_TESTS_CLONE_GRAPH_REFERENCE_H

#include <optional>
#include <vector>

#include "graph/graph.h"
#include "kernels/activations.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/linear.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "train/executor.h"
#include "util/logging.h"

namespace scnn {
namespace testing_support {

/** Forward pass, one node at a time; training-mode BN updates the
 * running stats as each node runs. Fills @p c like Executor::forward. */
inline Tensor
referenceForward(const Graph &g, ParamStore &ps, const Tensor &input,
                 bool training, ForwardCache &c)
{
    c.values.assign(g.tensors().size(), std::nullopt);
    c.argmax.assign(g.nodes().size(), {});
    c.bn.assign(g.nodes().size(), {});
    auto val = [&](TensorId t) -> const Tensor & {
        return *c.values[static_cast<size_t>(t)];
    };
    for (NodeId id : g.topoOrder()) {
        const Node &n = g.node(id);
        const auto x = [&](size_t i) -> const Tensor & {
            return val(n.inputs[i]);
        };
        const auto p = [&](size_t i) -> Tensor & {
            return ps.value(n.params[i]);
        };
        Tensor out;
        switch (n.kind) {
          case OpKind::Input:
            out = input;
            break;
          case OpKind::Conv2d:
            out = conv2dForwardAuto(x(0), p(0),
                                    n.has_bias ? p(1) : Tensor(), n.win);
            break;
          case OpKind::MaxPool2d:
            out = maxPool2dForward(x(0), n.win,
                                   c.argmax[static_cast<size_t>(id)]);
            break;
          case OpKind::AvgPool2d:
            out = avgPool2dForward(x(0), n.win);
            break;
          case OpKind::GlobalAvgPool:
            out = globalAvgPoolForward(x(0));
            break;
          case OpKind::BatchNorm:
            out = training
                      ? batchNormForward(x(0), p(0), p(1), p(2), p(3),
                                         0.1f, 1e-5f,
                                         c.bn[static_cast<size_t>(id)])
                      : batchNormInference(x(0), p(0), p(1), p(2), p(3),
                                           1e-5f);
            break;
          case OpKind::ReLU:
            out = reluForward(x(0));
            break;
          case OpKind::Linear:
            out = linearForward(x(0), p(0), n.has_bias ? p(1) : Tensor());
            break;
          case OpKind::Flatten:
            out = x(0).reshape(g.tensor(n.output).shape);
            break;
          case OpKind::Add:
            out = x(0);
            for (size_t i = 1; i < n.inputs.size(); ++i)
                axpy(1.0f, x(i), out);
            break;
          case OpKind::Slice:
            out = pad2d(x(0), -n.h_start, n.h_end - x(0).shape().dim(2),
                        -n.w_start, n.w_end - x(0).shape().dim(3));
            break;
          case OpKind::Concat: {
            std::vector<Tensor> parts;
            for (TensorId t : n.inputs)
                parts.push_back(val(t));
            out = concatDim(parts, n.concat_dim);
            break;
          }
        }
        c.values[static_cast<size_t>(n.output)] = std::move(out);
    }
    return val(g.outputTensor());
}

/** Backward pass, one node at a time in reverse topological order;
 * parameter gradients accumulate into @p ps. Returns the gradient
 * w.r.t. the graph input. */
inline Tensor
referenceBackward(const Graph &g, ParamStore &ps, const ForwardCache &c,
                  const Tensor &grad_output)
{
    std::vector<std::optional<Tensor>> grads(g.tensors().size());
    grads[static_cast<size_t>(g.outputTensor())] = grad_output;
    auto val = [&](TensorId t) -> const Tensor & {
        return *c.values[static_cast<size_t>(t)];
    };
    auto accum = [&](TensorId t, Tensor gt) {
        auto &slot = grads[static_cast<size_t>(t)];
        if (slot.has_value())
            axpy(1.0f, gt, *slot);
        else
            slot = std::move(gt);
    };
    const std::vector<NodeId> topo = g.topoOrder();
    for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
        const Node &n = g.node(*it);
        auto &gslot = grads[static_cast<size_t>(n.output)];
        if (n.kind == OpKind::Input || !gslot.has_value())
            continue;
        const Tensor go = std::move(*gslot);
        gslot.reset();
        const Shape &in_shape = g.tensor(n.inputs[0]).shape;
        Tensor none;
        switch (n.kind) {
          case OpKind::Input:
            break;
          case OpKind::Conv2d: {
            Tensor gx;
            conv2dBackward(val(n.inputs[0]), ps.value(n.params[0]), go,
                           n.win, gx, ps.grad(n.params[0]),
                           n.has_bias ? ps.grad(n.params[1]) : none);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::MaxPool2d:
            accum(n.inputs[0],
                  maxPool2dBackward(in_shape, go,
                                    c.argmax[static_cast<size_t>(n.id)]));
            break;
          case OpKind::AvgPool2d:
            accum(n.inputs[0], avgPool2dBackward(in_shape, go, n.win));
            break;
          case OpKind::GlobalAvgPool:
            accum(n.inputs[0], globalAvgPoolBackward(in_shape, go));
            break;
          case OpKind::BatchNorm:
            accum(n.inputs[0],
                  batchNormBackward(go, ps.value(n.params[0]),
                                    c.bn[static_cast<size_t>(n.id)],
                                    ps.grad(n.params[0]),
                                    ps.grad(n.params[1])));
            break;
          case OpKind::ReLU:
            accum(n.inputs[0], reluBackward(val(n.output), go));
            break;
          case OpKind::Linear: {
            Tensor gx;
            linearBackward(val(n.inputs[0]), ps.value(n.params[0]), go,
                           gx, ps.grad(n.params[0]),
                           n.has_bias ? ps.grad(n.params[1]) : none);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::Flatten:
            accum(n.inputs[0], go.reshape(in_shape));
            break;
          case OpKind::Add:
            for (TensorId t : n.inputs)
                accum(t, go);
            break;
          case OpKind::Slice: {
            auto &slot = grads[static_cast<size_t>(n.inputs[0])];
            if (!slot.has_value())
                slot = Tensor(in_shape);
            addWindow2d(go, n.h_start, n.w_start, *slot);
            break;
          }
          case OpKind::Concat: {
            std::vector<int64_t> starts;
            int64_t cursor = 0;
            for (TensorId t : n.inputs) {
                starts.push_back(cursor);
                cursor += g.tensor(t).shape.dim(n.concat_dim);
            }
            auto pieces = splitDim(go, n.concat_dim, starts);
            for (size_t i = 0; i < n.inputs.size(); ++i)
                accum(n.inputs[i], std::move(pieces[i]));
            break;
          }
        }
    }
    auto &in_slot = grads[static_cast<size_t>(g.inputTensor())];
    return in_slot.has_value() ? std::move(*in_slot)
                               : Tensor(g.tensor(g.inputTensor()).shape);
}

} // namespace testing_support
} // namespace scnn

#endif // SCNN_TESTS_CLONE_GRAPH_REFERENCE_H
