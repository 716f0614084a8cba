#include "replay.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <functional>
#include <vector>

#include "kernels/activations.h"
#include "kernels/batchnorm.h"
#include "kernels/conv2d.h"
#include "kernels/linear.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"

namespace perfbench {

using namespace scnn;

namespace {

double
medianMs(const std::function<void()> &fn, int reps)
{
    std::vector<double> ms;
    for (int r = 0; r < reps; ++r) {
        const auto t0 = std::chrono::steady_clock::now();
        fn();
        const auto t1 = std::chrono::steady_clock::now();
        ms.push_back(
            std::chrono::duration<double, std::milli>(t1 - t0).count());
    }
    std::sort(ms.begin(), ms.end());
    return ms[ms.size() / 2];
}

std::string
shapeJson(const Shape &s)
{
    std::string out = "[";
    for (int d = 0; d < s.rank(); ++d)
        out += (d ? ", " : "") + std::to_string(s.dim(d));
    return out + "]";
}

} // namespace

ReplayResult
replayKernels(const Graph &graph, const ParamStore &params,
              const ForwardCache &cache, int reps, Tracer &tracer)
{
    ReplayResult res;
    Rng rng(0x7e91a7);
    Span root(tracer, "replay");

    for (NodeId id : graph.topoOrder()) {
        const Node &n = graph.node(id);
        if (n.kind == OpKind::Input)
            continue;
        const Shape &out_shape = graph.tensor(n.output).shape;
        const double out_numel = static_cast<double>(out_shape.numel());
        auto X = [&](size_t i) -> const Tensor & {
            return *cache.values[static_cast<size_t>(n.inputs[i])];
        };
        auto P = [&](size_t i) -> const Tensor & {
            return params.value(n.params[i]);
        };
        const Shape &in_shape = graph.tensor(n.inputs[0]).shape;
        Tensor go(out_shape);
        go.fillNormal(rng, 0.0f, 1.0f);
        const Tensor no_bias;

        int64_t bytes = out_shape.numel() * 4;
        std::string in_shapes = "[";
        for (size_t i = 0; i < n.inputs.size(); ++i) {
            const Shape &s = graph.tensor(n.inputs[i]).shape;
            bytes += s.numel() * 4;
            in_shapes += (i ? ", " : "") + shapeJson(s);
        }
        in_shapes += "]";
        for (ParamId p : n.params)
            bytes += params.value(p).bytes();

        auto run = [&](const char *kind, bool forward, double flops,
                       const std::function<void()> &fn) {
            Span span(tracer, forward ? "replay.fwd" : "replay.bwd");
            const double ms = medianMs(fn, reps);
            KindTotal &total = res.kinds[kind];
            total.ms += ms;
            total.flops += flops;
            ++total.nodes;
            (forward ? res.forward_ms : res.backward_ms) += ms;
            char buf[160];
            std::snprintf(buf, sizeof(buf),
                          ", \"flops\": %.0f, \"bytes\": %lld, "
                          "\"median_ms\": %.6f, \"reps\": %d",
                          flops, static_cast<long long>(bytes), ms,
                          reps);
            span.setArgs("\"node\": " + std::to_string(id) +
                         ", \"op\": \"" + opKindName(n.kind) +
                         "\", \"kind\": \"" + kind +
                         "\", \"in_shapes\": " + in_shapes +
                         ", \"out_shape\": " + shapeJson(out_shape) +
                         buf);
        };

        switch (n.kind) {
          case OpKind::Input:
            break;
          case OpKind::Conv2d: {
            const Tensor &bias = n.has_bias ? P(1) : no_bias;
            const double flops = 2.0 * out_numel *
                                 static_cast<double>(in_shape.dim(1)) *
                                 static_cast<double>(n.win.kh * n.win.kw);
            run("conv2d_fwd", true, flops, [&] {
                conv2dForwardAuto(X(0), P(0), bias, n.win);
            });
            Tensor gx, gw(P(0).shape());
            Tensor gb = n.has_bias ? Tensor(P(1).shape()) : Tensor();
            // dgrad + wgrad, each as many FLOPs as the forward.
            run("conv2d_bwd", false, 2.0 * flops, [&] {
                conv2dBackward(X(0), P(0), go, n.win, gx, gw, gb);
            });
            break;
          }
          case OpKind::MaxPool2d: {
            const double flops =
                out_numel * static_cast<double>(n.win.kh * n.win.kw);
            std::vector<int64_t> argmax;
            run("pool", true, flops,
                [&] { maxPool2dForward(X(0), n.win, argmax); });
            const auto &cached =
                cache.argmax[static_cast<size_t>(n.id)];
            run("pool", false, out_numel, [&] {
                maxPool2dBackward(in_shape, go, cached);
            });
            break;
          }
          case OpKind::AvgPool2d: {
            const double flops =
                out_numel * static_cast<double>(n.win.kh * n.win.kw);
            run("pool", true, flops,
                [&] { avgPool2dForward(X(0), n.win); });
            run("pool", false, flops, [&] {
                avgPool2dBackward(in_shape, go, n.win);
            });
            break;
          }
          case OpKind::GlobalAvgPool: {
            const double flops = static_cast<double>(in_shape.numel());
            run("pool", true, flops,
                [&] { globalAvgPoolForward(X(0)); });
            run("pool", false, flops,
                [&] { globalAvgPoolBackward(in_shape, go); });
            break;
          }
          case OpKind::BatchNorm: {
            Tensor running_mean = P(2), running_var = P(3);
            BatchNormCache bn;
            run("batchnorm", true, 8.0 * out_numel, [&] {
                batchNormForward(X(0), P(0), P(1), running_mean,
                                 running_var, 0.1f, 1e-5f, bn);
            });
            Tensor gg(P(0).shape()), gbeta(P(1).shape());
            run("batchnorm", false, 10.0 * out_numel, [&] {
                batchNormBackward(go, P(0),
                                  cache.bn[static_cast<size_t>(n.id)],
                                  gg, gbeta);
            });
            break;
          }
          case OpKind::ReLU: {
            run("eltwise", true, out_numel,
                [&] { reluForward(X(0)); });
            const Tensor &y =
                *cache.values[static_cast<size_t>(n.output)];
            run("eltwise", false, out_numel,
                [&] { reluBackward(y, go); });
            break;
          }
          case OpKind::Linear: {
            const Tensor &bias = n.has_bias ? P(1) : no_bias;
            const double flops = 2.0 * out_numel *
                                 static_cast<double>(in_shape.dim(1));
            run("linear", true, flops,
                [&] { linearForward(X(0), P(0), bias); });
            Tensor gx, gw(P(0).shape());
            Tensor gb = n.has_bias ? Tensor(P(1).shape()) : Tensor();
            run("linear", false, 2.0 * flops, [&] {
                linearBackward(X(0), P(0), go, gx, gw, gb);
            });
            break;
          }
          case OpKind::Flatten:
            run("eltwise", true, 0.0,
                [&] { (void)X(0).reshape(out_shape); });
            run("eltwise", false, 0.0,
                [&] { (void)go.reshape(in_shape); });
            break;
          case OpKind::Add: {
            const double flops =
                out_numel * static_cast<double>(n.inputs.size() - 1);
            run("eltwise", true, flops, [&] {
                Tensor out = X(0);
                for (size_t i = 1; i < n.inputs.size(); ++i)
                    axpy(1.0f, X(i), out);
            });
            // The executor hands each input its own copy of go.
            run("eltwise", false, 0.0, [&] {
                for (size_t i = 0; i < n.inputs.size(); ++i) {
                    Tensor copy = go;
                    (void)copy;
                }
            });
            break;
          }
          case OpKind::Slice: {
            run("slice_concat", true, 0.0, [&] {
                pad2d(X(0), -n.h_start, n.h_end - in_shape.dim(2),
                      -n.w_start, n.w_end - in_shape.dim(3));
            });
            run("slice_concat", false, out_numel, [&] {
                Tensor slot(in_shape);
                addWindow2d(go, n.h_start, n.w_start, slot);
            });
            break;
          }
          case OpKind::Concat: {
            std::vector<int64_t> starts;
            int64_t cursor = 0;
            for (TensorId t : n.inputs) {
                starts.push_back(cursor);
                cursor += graph.tensor(t).shape.dim(n.concat_dim);
            }
            run("slice_concat", true, 0.0, [&] {
                std::vector<Tensor> parts;
                parts.reserve(n.inputs.size());
                for (size_t i = 0; i < n.inputs.size(); ++i)
                    parts.push_back(X(i));
                concatDim(parts, n.concat_dim);
            });
            run("slice_concat", false, 0.0, [&] {
                splitDim(go, n.concat_dim, starts);
            });
            break;
          }
        }
    }
    return res;
}

} // namespace perfbench
