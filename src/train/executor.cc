#include "train/executor.h"

#include <algorithm>
#include <cmath>
#include <queue>

#include "analysis/parallel_model.h"
#include "kernels/activations.h"
#include "kernels/conv2d.h"
#include "kernels/linear.h"
#include "kernels/pool2d.h"
#include "tensor/tensor_ops.h"
#include "util/logging.h"
#include "util/threadpool.h"

namespace scnn {

ParamStore::ParamStore(const Graph &graph, Rng &rng)
    : infos_(graph.params())
{
    values_.reserve(infos_.size());
    grads_.reserve(infos_.size());
    for (const auto &info : infos_) {
        Tensor value(info.shape);
        switch (info.init) {
          case ParamInit::Zero:
            break;
          case ParamInit::One:
            value.fill(1.0f);
            break;
          case ParamInit::KaimingConv: {
            const auto &d = info.shape.dims();
            SCNN_CHECK(d.size() == 4, "conv weight must be rank 4");
            const float fan_in =
                static_cast<float>(d[1] * d[2] * d[3]);
            value.fillNormal(rng, 0.0f, std::sqrt(2.0f / fan_in));
            break;
          }
          case ParamInit::KaimingLinear: {
            const auto &d = info.shape.dims();
            SCNN_CHECK(d.size() == 2, "linear weight must be rank 2");
            const float fan_in = static_cast<float>(d[1]);
            value.fillNormal(rng, 0.0f, std::sqrt(2.0f / fan_in));
            break;
          }
        }
        values_.push_back(std::move(value));
        grads_.push_back(Tensor(info.shape));
    }
}

Tensor &
ParamStore::value(ParamId id)
{
    SCNN_CHECK(id >= 0 && id < static_cast<ParamId>(values_.size()),
               "bad param id " << id);
    return values_[static_cast<size_t>(id)];
}

const Tensor &
ParamStore::value(ParamId id) const
{
    return const_cast<ParamStore *>(this)->value(id);
}

Tensor &
ParamStore::grad(ParamId id)
{
    SCNN_CHECK(id >= 0 && id < static_cast<ParamId>(grads_.size()),
               "bad param id " << id);
    return grads_[static_cast<size_t>(id)];
}

void
ParamStore::zeroGrad()
{
    for (auto &g : grads_)
        g.fill(0.0f);
}

bool
ParamStore::compatibleWith(const Graph &graph) const
{
    if (graph.params().size() != infos_.size())
        return false;
    for (size_t i = 0; i < infos_.size(); ++i)
        if (!(graph.params()[i].shape == infos_[i].shape))
            return false;
    return true;
}

std::vector<std::vector<NodeId>>
computeExecutionWaves(const Graph &graph)
{
    std::vector<int64_t> tensor_level(graph.tensors().size(), 0);
    std::vector<std::vector<NodeId>> waves;
    for (NodeId id : graph.topoOrder()) {
        const Node &n = graph.node(id);
        int64_t level = 0;
        for (TensorId t : n.inputs)
            level = std::max(level,
                             tensor_level[static_cast<size_t>(t)] + 1);
        tensor_level[static_cast<size_t>(n.output)] = level;
        if (static_cast<size_t>(level) >= waves.size())
            waves.resize(static_cast<size_t>(level) + 1);
        waves[static_cast<size_t>(level)].push_back(id);
    }
    return waves;
}

namespace {

/** The patch-form layout of the conv clones @p grid (row-major over
 * an hp x wp grid of patches). */
SplitConvLayout
groupLayout(const Graph &graph, const std::vector<NodeId> &grid, int hp,
            int wp)
{
    std::vector<int64_t> in_h, in_w;
    std::vector<Window2d> wins;
    for (NodeId id : grid) {
        const Node &n = graph.node(id);
        const Shape &in = graph.tensor(n.inputs[0]).shape;
        in_h.push_back(in.dim(2));
        in_w.push_back(in.dim(3));
        wins.push_back(n.win);
    }
    SplitConvLayout layout = splitConvPatchLayout(hp, wp, in_h, in_w, wins);
    splitConvBandItems(layout); // checks that the patches tile a grid
    return layout;
}

} // namespace

std::vector<ExecutionWave>
computeExecutionSchedule(const Graph &graph)
{
    std::vector<ExecutionWave> schedule;
    for (const std::vector<NodeId> &wave : computeExecutionWaves(graph)) {
        // Conv patch clones of one source conv share its weight.
        std::vector<std::vector<NodeId>> by_weight;
        std::vector<ParamId> weights;
        for (NodeId id : wave) {
            const Node &n = graph.node(id);
            if (n.kind != OpKind::Conv2d || n.patch_h < 0 ||
                n.patch_w < 0)
                continue;
            const auto it =
                std::find(weights.begin(), weights.end(), n.params[0]);
            if (it == weights.end()) {
                weights.push_back(n.params[0]);
                by_weight.push_back({id});
            } else {
                by_weight[static_cast<size_t>(it - weights.begin())]
                    .push_back(id);
            }
        }
        ExecutionWave ew;
        std::vector<bool> grouped(graph.nodes().size(), false);
        for (const std::vector<NodeId> &members : by_weight) {
            if (members.size() < 2)
                continue;
            int hp = 0, wp = 0;
            for (NodeId id : members) {
                hp = std::max(hp, graph.node(id).patch_h + 1);
                wp = std::max(wp, graph.node(id).patch_w + 1);
            }
            if (static_cast<size_t>(hp) * static_cast<size_t>(wp) !=
                members.size())
                continue;
            std::vector<NodeId> grid(members.size(), -1);
            bool complete = true;
            for (NodeId id : members) {
                NodeId &slot = grid[static_cast<size_t>(
                    graph.node(id).patch_h * wp + graph.node(id).patch_w)];
                complete = complete && slot < 0;
                slot = id;
            }
            if (!complete)
                continue;
            for (NodeId id : grid)
                grouped[static_cast<size_t>(id)] = true;
            SplitConvLayout layout = groupLayout(graph, grid, hp, wp);
            ew.groups.push_back({std::move(grid), std::move(layout)});
        }
        for (NodeId id : wave)
            if (!grouped[static_cast<size_t>(id)])
                ew.nodes.push_back(id);
        schedule.push_back(std::move(ew));
    }
    return schedule;
}

std::vector<Executor::BackwardUnit>
Executor::backwardSchedule() const
{
    // Units: each patch row of a conv group, and every other node.
    std::vector<BackwardUnit> units;
    std::vector<int> unit_of(graph_.nodes().size(), -1);
    for (const ExecutionWave &wave : waves_)
        for (const ConvGroup &g : wave.groups)
            for (int hi = 0; hi < g.layout.hp; ++hi) {
                BackwardUnit u;
                SplitConvLayout row;
                row.hp = 1;
                row.wp = g.layout.wp;
                for (int wi = 0; wi < g.layout.wp; ++wi) {
                    const size_t k = static_cast<size_t>(
                        hi * g.layout.wp + wi);
                    u.nodes.push_back(g.nodes[k]);
                    SplitConvPatch p = g.layout.patches[k];
                    p.in_tensor = p.out_tensor = wi;
                    row.patches.push_back(p);
                    unit_of[static_cast<size_t>(g.nodes[k])] =
                        static_cast<int>(units.size());
                }
                u.layout = std::move(row);
                units.push_back(std::move(u));
            }
    for (const Node &n : graph_.nodes())
        if (unit_of[static_cast<size_t>(n.id)] < 0) {
            unit_of[static_cast<size_t>(n.id)] =
                static_cast<int>(units.size());
            units.push_back({{n.id}, std::nullopt});
        }

    // A unit runs once the gradients of its outputs are final (every
    // consumer has run); among ready units the one latest in
    // topological order goes first. Without groups that is exactly
    // the reverse topological order; with them, each patch row's
    // chain runs through before the next row's, so only about one
    // patch row of gradients is live at a time.
    std::vector<int64_t> pos(graph_.nodes().size());
    for (size_t i = 0; i < topo_.size(); ++i)
        pos[static_cast<size_t>(topo_[i])] = static_cast<int64_t>(i);
    std::vector<size_t> pending(graph_.tensors().size());
    for (const TensorInfo &t : graph_.tensors())
        pending[static_cast<size_t>(t.id)] = t.consumers.size();
    std::vector<int> waiting(units.size(), 0);
    std::priority_queue<std::pair<int64_t, int>> ready;
    for (size_t u = 0; u < units.size(); ++u) {
        int64_t last = -1;
        for (NodeId id : units[u].nodes) {
            last = std::max(last, pos[static_cast<size_t>(id)]);
            waiting[u] += pending[static_cast<size_t>(
                              graph_.node(id).output)] > 0;
        }
        units[u].last = last;
        if (waiting[u] == 0)
            ready.push({last, static_cast<int>(u)});
    }
    std::vector<BackwardUnit> order;
    order.reserve(units.size());
    while (!ready.empty()) {
        const int u = ready.top().second;
        ready.pop();
        for (NodeId id : units[static_cast<size_t>(u)].nodes)
            for (TensorId t : graph_.node(id).inputs)
                if (--pending[static_cast<size_t>(t)] == 0) {
                    const int v = unit_of[static_cast<size_t>(
                        graph_.tensor(t).producer)];
                    if (--waiting[static_cast<size_t>(v)] == 0)
                        ready.push({units[static_cast<size_t>(v)].last, v});
                }
        order.push_back(std::move(units[static_cast<size_t>(u)]));
    }
    SCNN_CHECK(order.size() == units.size(),
               "backward schedule left units unscheduled");
    return order;
}

Executor::Executor(const Graph &graph, ParamStore &params)
    : graph_(graph), params_(params), topo_(graph.topoOrder()),
      waves_(computeExecutionSchedule(graph)),
      readers_(graph.tensors().size(), 0)
{
    backward_ = backwardSchedule();
    SCNN_REQUIRE(params_.compatibleWith(graph_),
                 "parameter store incompatible with graph");
    for (const Node &n : graph_.nodes())
        for (TensorId t : n.inputs)
            ++readers_[static_cast<size_t>(t)];
    // Debug hook: prove the schedule race-free before the first
    // forward() runs it. Training mode is the superset model (it adds
    // the deferred BN running-stat epochs); each conv group's
    // band-fused backward is a proof obligation of its own.
    if (lintParallelEnabled()) {
        std::vector<Diagnostic> diags =
            analyzeParallelPlan(buildExecutorWavePlan(graph_, true));
        for (const ExecutionWave &wave : waves_)
            for (const ConvGroup &g : wave.groups) {
                const Node &n = graph_.node(g.nodes[0]);
                const Shape &in = graph_.tensor(n.inputs[0]).shape;
                for (Diagnostic &d : analyzeParallelPlan(
                         buildSplitConvBackwardPlan(
                             std::min<int64_t>(in.dim(0), 2), in.dim(1),
                             n.out_channels, g.layout)))
                    diags.push_back(std::move(d));
            }
        SCNN_CHECK(diags.empty(),
                   "parallel-safety lint: "
                       << diags.size()
                       << " finding(s) in the executor wave plan; "
                          "first: "
                       << diags.front().toString());
    }
}

Tensor
Executor::computeNode(const Node &n, const Tensor &input, bool training,
                      bool defer_bn_updates, ForwardCache &c)
{
    auto val = [&](TensorId t) -> const Tensor & {
        SCNN_CHECK(c.values[static_cast<size_t>(t)].has_value(),
                   "tensor t" << t << " not yet computed");
        return *c.values[static_cast<size_t>(t)];
    };

    Tensor out;
    switch (n.kind) {
      case OpKind::Input:
        SCNN_REQUIRE(input.shape() == graph_.tensor(n.output).shape,
                     "input shape "
                         << input.shape().toString()
                         << " != graph input "
                         << graph_.tensor(n.output).shape.toString());
        out = input;
        break;
      case OpKind::Conv2d:
        out = conv2dForwardAuto(
            val(n.inputs[0]), params_.value(n.params[0]),
            n.has_bias ? params_.value(n.params[1]) : Tensor(),
            n.win);
        break;
      case OpKind::MaxPool2d:
        out = maxPool2dForward(val(n.inputs[0]), n.win,
                               c.argmax[static_cast<size_t>(n.id)]);
        break;
      case OpKind::AvgPool2d:
        out = avgPool2dForward(val(n.inputs[0]), n.win);
        break;
      case OpKind::GlobalAvgPool:
        out = globalAvgPoolForward(val(n.inputs[0]));
        break;
      case OpKind::BatchNorm:
        if (training && defer_bn_updates) {
            // Batch stats only; the caller applies the running-stat
            // updates serially afterwards. Required when nodes
            // sharing running stats (split-graph patch clones) run
            // concurrently.
            out = batchNormForwardStats(
                val(n.inputs[0]), params_.value(n.params[0]),
                params_.value(n.params[1]), 1e-5f,
                c.bn[static_cast<size_t>(n.id)]);
        } else if (training) {
            out = batchNormForward(
                val(n.inputs[0]), params_.value(n.params[0]),
                params_.value(n.params[1]),
                params_.value(n.params[2]),
                params_.value(n.params[3]), 0.1f, 1e-5f,
                c.bn[static_cast<size_t>(n.id)]);
        } else {
            out = batchNormInference(val(n.inputs[0]),
                                     params_.value(n.params[0]),
                                     params_.value(n.params[1]),
                                     params_.value(n.params[2]),
                                     params_.value(n.params[3]),
                                     1e-5f);
        }
        break;
      case OpKind::ReLU:
        out = reluForward(val(n.inputs[0]));
        break;
      case OpKind::Linear:
        out = linearForward(val(n.inputs[0]),
                            params_.value(n.params[0]),
                            n.has_bias ? params_.value(n.params[1])
                                       : Tensor());
        break;
      case OpKind::Flatten:
        out = val(n.inputs[0]).reshape(graph_.tensor(n.output).shape);
        break;
      case OpKind::Add: {
        out = val(n.inputs[0]);
        for (size_t i = 1; i < n.inputs.size(); ++i)
            axpy(1.0f, val(n.inputs[i]), out);
        break;
      }
      case OpKind::Slice: {
        const Tensor &x = val(n.inputs[0]);
        out = pad2d(x, -n.h_start, n.h_end - x.shape().dim(2),
                    -n.w_start, n.w_end - x.shape().dim(3));
        break;
      }
      case OpKind::Concat: {
        std::vector<Tensor> parts;
        parts.reserve(n.inputs.size());
        for (TensorId t : n.inputs)
            parts.push_back(val(t));
        out = concatDim(parts, n.concat_dim);
        break;
      }
    }
    SCNN_CHECK(out.shape() == graph_.tensor(n.output).shape,
               "node " << n.name << " produced "
                       << out.shape().toString() << ", expected "
                       << graph_.tensor(n.output).shape.toString());
    return out;
}

void
Executor::forwardGroup(const ConvGroup &g, ForwardCache &c)
{
    const Node &n0 = graph_.node(g.nodes[0]);
    std::vector<const Tensor *> xs;
    xs.reserve(g.nodes.size());
    for (NodeId id : g.nodes) {
        const auto &slot =
            c.values[static_cast<size_t>(graph_.node(id).inputs[0])];
        SCNN_CHECK(slot.has_value(), "conv group input not yet computed");
        xs.push_back(&*slot);
    }
    std::vector<Tensor> outs;
    splitConv2dForwardPatches(
        g.layout, xs, params_.value(n0.params[0]),
        n0.has_bias ? params_.value(n0.params[1]) : Tensor(), outs);
    for (size_t k = 0; k < g.nodes.size(); ++k)
        c.values[static_cast<size_t>(graph_.node(g.nodes[k]).output)] =
            std::move(outs[k]);
}

Tensor
Executor::forward(const Tensor &input, bool training, ForwardCache *cache)
{
    ForwardCache local;
    ForwardCache &c = cache ? *cache : local;
    c.values.assign(graph_.tensors().size(), std::nullopt);
    c.argmax.assign(graph_.nodes().size(), {});
    c.bn.assign(graph_.nodes().size(), {});

    // Inference without a cache keeps only live values: each is freed
    // on the caller, between waves, once its last reader has run.
    const TensorId out_id = graph_.outputTensor();
    std::vector<int> pending;
    if (cache == nullptr)
        pending = readers_;

    // Wave-parallel schedule: nodes within a wave are independent and
    // write disjoint cache slots. Conv groups run first, one
    // band-fused call each, issued from the caller so their kernels
    // see the whole pool; the remaining nodes fan out across the
    // pool. Batchnorm running-stat updates are deferred and applied
    // serially below in topological order — training-mode BN never
    // reads running stats, so outputs are unchanged and the updates
    // compound exactly as a serial pass would. Kernels are
    // bitwise-deterministic for any thread count, so the outputs are
    // too.
    auto &pool = globalPool();
    auto run = [&](NodeId id) {
        const Node &n = graph_.node(id);
        Tensor out = computeNode(n, input, training,
                                 /*defer_bn_updates=*/true, c);
        c.values[static_cast<size_t>(n.output)] = std::move(out);
    };
    for (const ExecutionWave &wave : waves_) {
        for (const ConvGroup &g : wave.groups)
            forwardGroup(g, c);
        if (static_cast<int>(wave.nodes.size()) < pool.threads()) {
            // Narrow wave: fewer nodes than workers. Nested
            // parallelFor calls run inline on their worker, so
            // fanning such a wave across the pool would strand each
            // node's internal kernel parallelism (GEMM column tiles,
            // split patch x row-tile items) on a single thread. Run
            // the nodes serially on the caller instead so every
            // kernel sees the full pool.
            for (NodeId id : wave.nodes)
                run(id);
        } else {
            pool.parallelFor(static_cast<int64_t>(wave.nodes.size()),
                             [&](int64_t begin, int64_t end) {
                                 for (int64_t i = begin; i < end; ++i)
                                     run(wave.nodes[static_cast<size_t>(
                                         i)]);
                             });
        }
        if (cache != nullptr)
            continue;
        auto release = [&](NodeId id) {
            for (TensorId t : graph_.node(id).inputs)
                if (--pending[static_cast<size_t>(t)] == 0 && t != out_id)
                    c.values[static_cast<size_t>(t)].reset();
        };
        for (const ConvGroup &g : wave.groups)
            for (NodeId id : g.nodes)
                release(id);
        for (NodeId id : wave.nodes)
            release(id);
    }
    if (training) {
        for (NodeId id : topo_) {
            const Node &n = graph_.node(id);
            if (n.kind == OpKind::BatchNorm)
                applyBatchNormRunningUpdate(
                    c.bn[static_cast<size_t>(id)], 0.1f,
                    params_.value(n.params[2]),
                    params_.value(n.params[3]));
        }
    }

    SCNN_CHECK(c.values[static_cast<size_t>(out_id)].has_value(),
               "graph output not computed");
    return *c.values[static_cast<size_t>(out_id)];
}

void
Executor::backward(const ForwardCache &cache, const Tensor &grad_output,
                   Tensor *grad_input)
{
    std::vector<std::optional<Tensor>> grads(graph_.tensors().size());
    const TensorId out_id = graph_.outputTensor();
    SCNN_REQUIRE(grad_output.shape() == graph_.tensor(out_id).shape,
                 "grad_output shape mismatch");
    grads[static_cast<size_t>(out_id)] = grad_output;

    auto val = [&](TensorId t) -> const Tensor & {
        return *cache.values[static_cast<size_t>(t)];
    };
    auto accum = [&](TensorId t, Tensor g) {
        auto &slot = grads[static_cast<size_t>(t)];
        if (slot.has_value())
            axpy(1.0f, g, *slot);
        else
            slot = std::move(g);
    };

    // A conv group's backward: one band-fused call over the patch
    // tensors. A member whose output never influenced the loss
    // contributes a zero gradient.
    auto back_group = [&](const BackwardUnit &g) {
        const Node &n0 = graph_.node(g.nodes[0]);
        std::vector<const Tensor *> xs, gos;
        std::vector<Tensor> zeros;
        zeros.reserve(g.nodes.size());
        bool any = false;
        for (NodeId id : g.nodes) {
            const Node &n = graph_.node(id);
            xs.push_back(&val(n.inputs[0]));
            any = any || grads[static_cast<size_t>(n.output)].has_value();
        }
        if (!any)
            return;
        for (NodeId id : g.nodes) {
            const Node &n = graph_.node(id);
            auto &gslot = grads[static_cast<size_t>(n.output)];
            if (!gslot.has_value()) {
                zeros.emplace_back(graph_.tensor(n.output).shape);
                gos.push_back(&zeros.back());
            } else {
                gos.push_back(&*gslot);
            }
        }
        std::vector<Tensor> gxs;
        Tensor gb_empty;
        splitConv2dBackwardPatches(
            *g.layout, xs, params_.value(n0.params[0]), gos, gxs,
            params_.grad(n0.params[0]),
            n0.has_bias ? params_.grad(n0.params[1]) : gb_empty);
        for (size_t k = 0; k < g.nodes.size(); ++k) {
            const Node &n = graph_.node(g.nodes[k]);
            accum(n.inputs[0], std::move(gxs[k]));
            grads[static_cast<size_t>(n.output)].reset();
        }
    };

    auto back_node = [&](NodeId id) {
        const Node &n = graph_.node(id);
        if (n.kind == OpKind::Input)
            return;
        auto &gslot = grads[static_cast<size_t>(n.output)];
        if (!gslot.has_value())
            return; // output never influenced the loss
        const Tensor &go = *gslot;

        switch (n.kind) {
          case OpKind::Input:
            break;
          case OpKind::Conv2d: {
            Tensor gx;
            Tensor &gw = params_.grad(n.params[0]);
            Tensor gb_empty;
            Tensor &gb =
                n.has_bias ? params_.grad(n.params[1]) : gb_empty;
            conv2dBackward(val(n.inputs[0]),
                           params_.value(n.params[0]), go, n.win, gx,
                           gw, gb);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::MaxPool2d:
            accum(n.inputs[0],
                  maxPool2dBackward(
                      graph_.tensor(n.inputs[0]).shape, go,
                      cache.argmax[static_cast<size_t>(n.id)]));
            break;
          case OpKind::AvgPool2d:
            accum(n.inputs[0],
                  avgPool2dBackward(graph_.tensor(n.inputs[0]).shape,
                                    go, n.win));
            break;
          case OpKind::GlobalAvgPool:
            accum(n.inputs[0],
                  globalAvgPoolBackward(
                      graph_.tensor(n.inputs[0]).shape, go));
            break;
          case OpKind::BatchNorm: {
            Tensor gx = batchNormBackward(
                go, params_.value(n.params[0]),
                cache.bn[static_cast<size_t>(n.id)],
                params_.grad(n.params[0]), params_.grad(n.params[1]));
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::ReLU:
            accum(n.inputs[0], reluBackward(val(n.output), go));
            break;
          case OpKind::Linear: {
            Tensor gx;
            Tensor gb_empty;
            Tensor &gb =
                n.has_bias ? params_.grad(n.params[1]) : gb_empty;
            linearBackward(val(n.inputs[0]),
                           params_.value(n.params[0]), go, gx,
                           params_.grad(n.params[0]), gb);
            accum(n.inputs[0], std::move(gx));
            break;
          }
          case OpKind::Flatten:
            accum(n.inputs[0],
                  go.reshape(graph_.tensor(n.inputs[0]).shape));
            break;
          case OpKind::Add:
            for (TensorId t : n.inputs)
                accum(t, go);
            break;
          case OpKind::Slice: {
            // Scatter-accumulate the patch gradient straight into the
            // parent slot — no full-canvas intermediate. Sibling
            // patches of one parent run in reverse topological order,
            // so halo overlaps accumulate deterministically.
            const Shape &in_shape = graph_.tensor(n.inputs[0]).shape;
            auto &slot = grads[static_cast<size_t>(n.inputs[0])];
            if (!slot.has_value())
                slot = Tensor(in_shape); // zero scatter target
            addWindow2d(go, n.h_start, n.w_start, *slot);
            break;
          }
          case OpKind::Concat: {
            // Split the gradient back into the input extents.
            std::vector<int64_t> starts;
            starts.reserve(n.inputs.size());
            int64_t cursor = 0;
            for (TensorId t : n.inputs) {
                starts.push_back(cursor);
                cursor += graph_.tensor(t).shape.dim(n.concat_dim);
            }
            auto pieces = splitDim(go, n.concat_dim, starts);
            for (size_t i = 0; i < n.inputs.size(); ++i)
                accum(n.inputs[i], std::move(pieces[i]));
            break;
          }
        }
        gslot.reset(); // free the consumed gradient early
    };

    for (const BackwardUnit &u : backward_) {
        if (u.layout)
            back_group(u);
        else
            back_node(u.nodes[0]);
    }
    if (grad_input != nullptr) {
        const TensorId in_id = graph_.inputTensor();
        auto &slot = grads[static_cast<size_t>(in_id)];
        *grad_input = slot.has_value() ? std::move(*slot)
                                       : Tensor(graph_.tensor(in_id).shape);
    }
}

} // namespace scnn
