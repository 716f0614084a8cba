#include "core/splitter.h"

#include <algorithm>
#include <cmath>
#include <map>
#include <set>

#include "util/logging.h"

namespace scnn {

namespace {

/** Per-tensor spatial partition: output start tuples on H and W. */
struct Scheme2d
{
    std::vector<int64_t> h;
    std::vector<int64_t> w;
};

WindowParams1d
hParams(const Window2d &win)
{
    return {win.kh, win.sh, win.ph_b, win.ph_e};
}

WindowParams1d
wParams(const Window2d &win)
{
    return {win.kw, win.sw, win.pw_b, win.pw_e};
}

/** Collect all ancestor nodes of @p cut (excluding Input). */
std::set<NodeId>
collectRegion(const Graph &graph, TensorId cut)
{
    std::set<NodeId> region;
    std::vector<NodeId> stack = {graph.tensor(cut).producer};
    while (!stack.empty()) {
        const NodeId id = stack.back();
        stack.pop_back();
        const Node &n = graph.node(id);
        if (n.kind == OpKind::Input || region.count(id))
            continue;
        region.insert(id);
        for (TensorId t : n.inputs)
            stack.push_back(graph.tensor(t).producer);
    }
    return region;
}

/** Every region tensor except the cut must be consumed inside it. */
void
validateRegionIsDominatedByCut(const Graph &graph,
                               const std::set<NodeId> &region,
                               TensorId cut)
{
    for (NodeId id : region) {
        const Node &n = graph.node(id);
        if (n.output == cut)
            continue;
        for (NodeId consumer : graph.tensor(n.output).consumers)
            SCNN_REQUIRE(region.count(consumer),
                         "tensor " << graph.tensor(n.output).name
                                   << " escapes the split region; cut "
                                      "point is not a join boundary");
    }
}

} // namespace

int
chooseCutPoint(const Graph &graph, double depth)
{
    SCNN_REQUIRE(depth >= 0.0 && depth <= 1.0,
                 "split depth must be in [0, 1], got " << depth);
    const int total = graph.convCount();
    const double target = depth * total;
    if (target < 0.5 || graph.cutPoints().empty())
        return -1;
    int best = -1;
    double best_err = 1e18;
    for (size_t i = 0; i < graph.cutPoints().size(); ++i) {
        const auto &cp = graph.cutPoints()[i];
        if (cp.convs_before < 1)
            continue;
        const double err = std::abs(cp.convs_before - target);
        if (err < best_err) {
            best_err = err;
            best = static_cast<int>(i);
        }
    }
    return best;
}

Graph
splitCnnTransform(const Graph &graph, const SplitOptions &options,
                  Rng *rng, SplitReport *report)
{
    SCNN_REQUIRE(options.splits_h >= 1 && options.splits_w >= 1,
                 "patch grid must be at least 1x1");
    if (report)
        *report = SplitReport{};
    if (report)
        report->total_convs = graph.convCount();

    const int cut_idx = chooseCutPoint(graph, options.depth);
    const bool no_op = cut_idx < 0 ||
                       (options.splits_h == 1 && options.splits_w == 1);

    // --- Identify region and propagate schemes -----------------------
    std::map<TensorId, Scheme2d> schemes;
    std::set<NodeId> region;
    TensorId cut = kInvalidTensor;

    if (!no_op) {
        cut = graph.cutPoints()[static_cast<size_t>(cut_idx)].tensor;
        region = collectRegion(graph, cut);
        validateRegionIsDominatedByCut(graph, region, cut);

        const Shape &cut_shape = graph.tensor(cut).shape;
        SCNN_REQUIRE(cut_shape.rank() == 4,
                     "join tensor must be spatial (NCHW)");
        Scheme2d join;
        if (options.stochastic) {
            SCNN_REQUIRE(rng, "stochastic splitting needs an Rng");
            join.h = stochasticOutputSplit(cut_shape.dim(2),
                                           options.splits_h,
                                           options.omega, *rng);
            join.w = stochasticOutputSplit(cut_shape.dim(3),
                                           options.splits_w,
                                           options.omega, *rng);
        } else {
            join.h = evenOutputSplit(cut_shape.dim(2), options.splits_h);
            join.w = evenOutputSplit(cut_shape.dim(3), options.splits_w);
        }
        schemes[cut] = std::move(join);

        // Reverse topological scheme propagation.
        const auto topo = graph.topoOrder();
        for (auto it = topo.rbegin(); it != topo.rend(); ++it) {
            if (!region.count(*it))
                continue;
            const Node &n = graph.node(*it);
            const auto found = schemes.find(n.output);
            SCNN_CHECK(found != schemes.end(),
                       "no scheme for output of " << n.name);
            const Scheme2d &out_scheme = found->second;

            switch (n.kind) {
              case OpKind::Conv2d:
              case OpKind::MaxPool2d:
              case OpKind::AvgPool2d: {
                if (schemes.count(n.inputs[0]))
                    break; // first consumer's scheme wins
                const Shape &in = graph.tensor(n.inputs[0]).shape;
                Scheme2d s;
                s.h = computeInputSplitScheme(hParams(n.win), in.dim(2),
                                              out_scheme.h,
                                              options.policy,
                                              /*allow_downsample=*/true);
                s.w = computeInputSplitScheme(wParams(n.win), in.dim(3),
                                              out_scheme.w,
                                              options.policy,
                                              /*allow_downsample=*/true);
                schemes.emplace(n.inputs[0], std::move(s));
                break;
              }
              case OpKind::BatchNorm:
              case OpKind::ReLU:
              case OpKind::Add:
                for (TensorId t : n.inputs)
                    schemes.emplace(t, out_scheme);
                break;
              default:
                SCNN_FATAL("op " << opKindName(n.kind)
                                 << " inside a split region is not "
                                    "window-based or elementwise");
            }
        }
    }

    // --- Rebuild ------------------------------------------------------
    GraphBuilder builder;
    builder.importParams(graph.params());

    const TensorId old_input = graph.inputTensor();
    std::map<TensorId, TensorId> remap; // suffix tensors old -> new
    remap[old_input] =
        builder.input(graph.tensor(old_input).shape, "input");

    int convs_split = 0;
    if (!no_op) {
        const Scheme2d &in_scheme = schemes.at(old_input);
        const Shape &in_shape = graph.tensor(old_input).shape;
        const int nh = options.splits_h;
        const int nw = options.splits_w;

        auto range_of = [](const std::vector<int64_t> &starts, int i,
                           int64_t extent) {
            const int64_t lo = starts[static_cast<size_t>(i)];
            const int64_t hi = (i + 1 < static_cast<int>(starts.size()))
                                   ? starts[static_cast<size_t>(i) + 1]
                                   : extent;
            return std::pair<int64_t, int64_t>(lo, hi);
        };

        // Per-patch tensor maps (old tensor -> patch clone).
        const auto topo = graph.topoOrder();
        std::vector<std::map<TensorId, TensorId>> patch_map(
            static_cast<size_t>(nh * nw));

        for (int hi = 0; hi < nh; ++hi) {
            for (int wi = 0; wi < nw; ++wi) {
                auto &pm = patch_map[static_cast<size_t>(hi * nw + wi)];
                const auto [h0, h1] =
                    range_of(in_scheme.h, hi, in_shape.dim(2));
                const auto [w0, w1] =
                    range_of(in_scheme.w, wi, in_shape.dim(3));
                const std::string tag = "p" + std::to_string(hi) + "_" +
                                        std::to_string(wi);
                builder.setPatch(hi, wi);
                pm[old_input] = builder.slice(
                    remap.at(old_input), h0, h1, w0, w1,
                    "split." + tag);

                for (NodeId id : topo) {
                    if (!region.count(id))
                        continue;
                    const Node &n = graph.node(id);
                    const std::string name = n.name + "." + tag;
                    TensorId out = kInvalidTensor;
                    switch (n.kind) {
                      case OpKind::Conv2d:
                      case OpKind::MaxPool2d:
                      case OpKind::AvgPool2d: {
                        const Shape &in =
                            graph.tensor(n.inputs[0]).shape;
                        const Scheme2d &is = schemes.at(n.inputs[0]);
                        const Scheme2d &os = schemes.at(n.output);
                        const auto sh = buildSplitScheme(
                            hParams(n.win), in.dim(2), os.h, is.h,
                            /*allow_downsample=*/true);
                        const auto sw = buildSplitScheme(
                            wParams(n.win), in.dim(3), os.w, is.w,
                            /*allow_downsample=*/true);
                        Window2d local = n.win;
                        local.ph_b = sh.pieces[hi].pad_b;
                        local.ph_e = sh.pieces[hi].pad_e;
                        local.pw_b = sw.pieces[wi].pad_b;
                        local.pw_e = sw.pieces[wi].pad_e;
                        const TensorId x = pm.at(n.inputs[0]);
                        if (n.kind == OpKind::Conv2d) {
                            out = builder.conv2d(x, n.out_channels,
                                                 local, n.has_bias,
                                                 name, n.params);
                            if (hi == 0 && wi == 0)
                                ++convs_split;
                        } else if (n.kind == OpKind::MaxPool2d) {
                            out = builder.maxPool(x, local, name);
                        } else {
                            out = builder.avgPool(x, local, name);
                        }
                        break;
                      }
                      case OpKind::BatchNorm:
                        out = builder.batchNorm(pm.at(n.inputs[0]),
                                                name, n.params);
                        break;
                      case OpKind::ReLU:
                        out = builder.relu(pm.at(n.inputs[0]), name);
                        break;
                      case OpKind::Add: {
                        std::vector<TensorId> xs;
                        xs.reserve(n.inputs.size());
                        for (TensorId t : n.inputs)
                            xs.push_back(pm.at(t));
                        out = builder.add(xs, name);
                        break;
                      }
                      default:
                        SCNN_PANIC("unexpected op in region");
                    }
                    pm[n.output] = out;
                }
            }
        }
        builder.setPatch(-1, -1);

        // Join: concat rows along W, then rows along H (Eq. 7).
        std::vector<TensorId> rows;
        rows.reserve(static_cast<size_t>(nh));
        for (int hi = 0; hi < nh; ++hi) {
            std::vector<TensorId> cols;
            cols.reserve(static_cast<size_t>(nw));
            for (int wi = 0; wi < nw; ++wi)
                cols.push_back(
                    patch_map[static_cast<size_t>(hi * nw + wi)].at(
                        cut));
            rows.push_back(
                nw == 1 ? cols[0]
                        : builder.concat(cols, 3,
                                         "join.row" +
                                             std::to_string(hi)));
        }
        remap[cut] = rows.size() == 1 ? rows[0]
                                      : builder.concat(rows, 2, "join");
    }

    // Clone the suffix (everything not in the region).
    for (NodeId id : graph.topoOrder()) {
        if (region.count(id))
            continue;
        const Node &n = graph.node(id);
        if (n.kind == OpKind::Input)
            continue;
        std::vector<TensorId> xs;
        xs.reserve(n.inputs.size());
        for (TensorId t : n.inputs)
            xs.push_back(remap.at(t));
        TensorId out = kInvalidTensor;
        switch (n.kind) {
          case OpKind::Conv2d:
            out = builder.conv2d(xs[0], n.out_channels, n.win,
                                 n.has_bias, n.name, n.params);
            break;
          case OpKind::MaxPool2d:
            out = builder.maxPool(xs[0], n.win, n.name);
            break;
          case OpKind::AvgPool2d:
            out = builder.avgPool(xs[0], n.win, n.name);
            break;
          case OpKind::GlobalAvgPool:
            out = builder.globalAvgPool(xs[0], n.name);
            break;
          case OpKind::BatchNorm:
            out = builder.batchNorm(xs[0], n.name, n.params);
            break;
          case OpKind::ReLU:
            out = builder.relu(xs[0], n.name);
            break;
          case OpKind::Linear:
            out = builder.linear(xs[0], n.out_channels, n.has_bias,
                                 n.name, n.params);
            break;
          case OpKind::Flatten:
            out = builder.flatten(xs[0], n.name);
            break;
          case OpKind::Add:
            out = builder.add(xs, n.name);
            break;
          case OpKind::Slice:
            out = builder.slice(xs[0], n.h_start, n.h_end, n.w_start,
                                n.w_end, n.name);
            break;
          case OpKind::Concat:
            out = builder.concat(xs, n.concat_dim, n.name);
            break;
          case OpKind::Input:
            break;
        }
        remap[n.output] = out;
    }

    if (report) {
        report->join_tensor = cut;
        report->convs_split = convs_split;
        report->achieved_depth =
            graph.convCount()
                ? static_cast<double>(convs_split) / graph.convCount()
                : 0.0;
        report->patches =
            no_op ? 1 : options.splits_h * options.splits_w;
    }
    return builder.build();
}

} // namespace scnn
