/**
 * @file
 * The executor's lowering of Split-CNN patch-clone convs onto
 * band-fused group calls, checked against the node-by-node clone
 * graph (clone_graph_reference.h): forward and backward bitwise at
 * 1/2/4/8 threads under the scalar microkernel (and under the SIMD
 * one where the per-patch GEMMs are blocked), on vgg19, resnet18 and
 * resnet50 with fixed and stochastic splits.
 */
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "clone_graph_reference.h"
#include "core/split_op.h"
#include "core/splitter.h"
#include "kernels/microkernel.h"
#include "models/models.h"
#include "train/executor.h"
#include "util/threadpool.h"

namespace scnn {
namespace {

using testing_support::referenceBackward;
using testing_support::referenceForward;

struct ThreadGuard
{
    explicit ThreadGuard(int threads) { setGlobalThreads(threads); }
    ~ThreadGuard() { setGlobalThreads(1); }
};

class ScopedSimd
{
  public:
    explicit ScopedSimd(bool enabled) : prev_(simdEnabled())
    {
        setSimdEnabled(enabled);
    }
    ~ScopedSimd() { setSimdEnabled(prev_); }

  private:
    bool prev_;
};

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       static_cast<size_t>(a.numel()) * sizeof(float)) ==
               0;
}

struct Case
{
    std::string model;
    int grid;
    bool stochastic;
};

std::string
caseName(const Case &c)
{
    return c.model + " " + std::to_string(c.grid) + "x" +
           std::to_string(c.grid) + (c.stochastic ? " stochastic" : "");
}

const Case kCases[] = {
    {"vgg19", 2, false},    {"vgg19", 4, false},
    {"vgg19", 2, true},     {"resnet18", 2, false},
    {"resnet18", 2, true},  {"resnet50", 2, false},
    {"resnet50", 2, true},
};

/** The split graph of a case: batch 2, 32x32, narrow channels. */
Graph
splitGraph(const Case &c, uint64_t seed)
{
    const Graph base = buildModel(
        c.model, {.batch = 2, .image = 32, .width = 0.125});
    SplitOptions opts;
    opts.depth = 0.5;
    opts.splits_h = opts.splits_w = c.grid;
    opts.stochastic = c.stochastic;
    opts.omega = 0.2;
    Rng rng(seed);
    return splitCnnTransform(base, opts, &rng);
}

Tensor
inputFor(const Graph &g, uint64_t seed)
{
    Tensor x(g.tensor(g.inputTensor()).shape);
    Rng rng(seed);
    x.fillNormal(rng, 0.0f, 1.0f);
    return x;
}

int
groupCount(const Graph &g)
{
    int groups = 0;
    for (const ExecutionWave &w : computeExecutionSchedule(g))
        groups += static_cast<int>(w.groups.size());
    return groups;
}

/**
 * True when every patch clone's per-image conv2dForward GEMM
 * (oc x outH*outW x C*kh*kw) is big enough for the blocked GEMM. Below
 * gemm()'s naive cutover (8K multiply-adds) the per-patch forward
 * rounds without FMA under the SIMD microkernel, while a group always
 * runs the packed microkernel; under the scalar microkernel the two
 * round identically at every size.
 */
bool
perPatchGemmsBlocked(const Graph &g)
{
    for (const Node &n : g.nodes()) {
        if (n.kind != OpKind::Conv2d || n.patch_h < 0)
            continue;
        const Shape &in = g.tensor(n.inputs[0]).shape;
        const Shape &out = g.tensor(n.output).shape;
        if (n.out_channels * out.dim(2) * out.dim(3) * in.dim(1) *
                n.win.kh * n.win.kw <
            8 * 1024)
            return false;
    }
    return true;
}

void
expectSameCache(const ForwardCache &a, const ForwardCache &b,
                const std::string &what)
{
    ASSERT_EQ(a.values.size(), b.values.size()) << what;
    for (size_t t = 0; t < a.values.size(); ++t) {
        ASSERT_EQ(a.values[t].has_value(), b.values[t].has_value())
            << what << " tensor " << t;
        if (a.values[t])
            EXPECT_TRUE(bitwiseEqual(*a.values[t], *b.values[t]))
                << what << " tensor " << t;
    }
    ASSERT_EQ(a.argmax.size(), b.argmax.size()) << what;
    for (size_t n = 0; n < a.argmax.size(); ++n)
        EXPECT_EQ(a.argmax[n], b.argmax[n]) << what << " node " << n;
    ASSERT_EQ(a.bn.size(), b.bn.size()) << what;
    for (size_t n = 0; n < a.bn.size(); ++n) {
        EXPECT_TRUE(bitwiseEqual(a.bn[n].mean, b.bn[n].mean))
            << what << " node " << n;
        EXPECT_TRUE(bitwiseEqual(a.bn[n].batch_var, b.bn[n].batch_var))
            << what << " node " << n;
        EXPECT_TRUE(bitwiseEqual(a.bn[n].inv_std, b.bn[n].inv_std))
            << what << " node " << n;
        EXPECT_TRUE(bitwiseEqual(a.bn[n].x_hat, b.bn[n].x_hat))
            << what << " node " << n;
    }
}

TEST(ExecutorLowering, SplitGraphsRunConvGroups)
{
    for (const Case &c : kCases) {
        const Graph g = splitGraph(c, 7);
        EXPECT_GT(groupCount(g), 0) << caseName(c);
        // Every group is a complete grid sharing one weight.
        for (const ExecutionWave &w : computeExecutionSchedule(g))
            for (const ConvGroup &grp : w.groups) {
                EXPECT_EQ(grp.nodes.size(), static_cast<size_t>(
                                                grp.layout.hp *
                                                grp.layout.wp));
                for (NodeId id : grp.nodes)
                    EXPECT_EQ(g.node(id).params[0],
                              g.node(grp.nodes[0]).params[0]);
            }
    }
    // Unsplit graphs keep every node on its own.
    EXPECT_EQ(groupCount(buildModel("resnet18", {.batch = 2,
                                                 .image = 32,
                                                 .width = 0.125})),
              0);
}

TEST(ExecutorLowering, ForwardMatchesCloneGraphBitwise)
{
    // Under the scalar microkernel, and under the SIMD one wherever
    // the per-patch kernels run the blocked GEMM too: a group's GEMM
    // elements accumulate exactly as theirs do.
    int simd_cases = 0;
    for (const bool simd : {false, true})
    for (const Case &c : kCases) {
        ScopedSimd kernel(simd);
        const Graph g = splitGraph(c, 11);
        if (simd && !perPatchGemmsBlocked(g))
            continue;
        simd_cases += simd;
        const Tensor x = inputFor(g, 12);
        Rng rref(13);
        ParamStore pref(g, rref);
        ForwardCache cref;
        const Tensor logits_ref =
            referenceForward(g, pref, x, /*training=*/true, cref);
        for (int threads : {1, 2, 4, 8}) {
            ThreadGuard tg(threads);
            const std::string what =
                caseName(c) + " at " + std::to_string(threads) + "t" +
                (simd ? " simd" : " scalar");
            Rng r(13);
            ParamStore p(g, r);
            Executor ex(g, p);
            ForwardCache cache;
            const Tensor logits = ex.forward(x, /*training=*/true, &cache);
            EXPECT_TRUE(bitwiseEqual(logits, logits_ref)) << what;
            expectSameCache(cache, cref, what);
            // BN running stats (and every other parameter).
            for (ParamId id = 0; id < static_cast<ParamId>(p.size());
                 ++id)
                EXPECT_TRUE(bitwiseEqual(p.value(id), pref.value(id)))
                    << what << " param " << id;
            // Inference mode, with and without a cache.
            ForwardCache icache;
            const Tensor infer = ex.forward(x, false, &icache);
            EXPECT_TRUE(bitwiseEqual(ex.forward(x, false, nullptr), infer))
                << what;
        }
    }
    EXPECT_GE(simd_cases, 4);
}

TEST(ExecutorLowering, BackwardMatchesCloneGraphBitwise)
{
    // dgrad runs band-fused; wgrad and bias keep the clone graph's
    // reduction order (patches last to first, images ascending), so
    // every gradient equals the node-by-node backward byte for byte.
    int simd_cases = 0;
    for (const bool simd : {false, true})
    for (const Case &c : kCases) {
        ScopedSimd kernel(simd);
        const Graph g = splitGraph(c, 21);
        if (simd && !perPatchGemmsBlocked(g))
            continue;
        simd_cases += simd;
        const Tensor x = inputFor(g, 22);
        Rng rref(23);
        ParamStore pref(g, rref);
        ForwardCache cref;
        const Tensor logits_ref = referenceForward(g, pref, x, true, cref);
        Tensor go(logits_ref.shape());
        Rng grng(24);
        go.fillNormal(grng, 0.0f, 1.0f);
        const Tensor gx_ref = referenceBackward(g, pref, cref, go);

        Tensor gx1;
        std::vector<Tensor> grads1;
        for (int threads : {1, 2, 4, 8}) {
            ThreadGuard tg(threads);
            const std::string what =
                caseName(c) + " at " + std::to_string(threads) + "t" +
                (simd ? " simd" : " scalar");
            Rng r(23);
            ParamStore p(g, r);
            Executor ex(g, p);
            ForwardCache cache;
            ex.forward(x, true, &cache);
            Tensor gx;
            ex.backward(cache, go, &gx);
            EXPECT_TRUE(bitwiseEqual(gx, gx_ref)) << what;
            for (ParamId id = 0; id < static_cast<ParamId>(p.size());
                 ++id)
                EXPECT_TRUE(bitwiseEqual(p.grad(id), pref.grad(id)))
                    << what << " param " << id;
            if (threads == 1) {
                gx1 = gx;
                for (ParamId id = 0; id < static_cast<ParamId>(p.size());
                     ++id)
                    grads1.push_back(p.grad(id));
                continue;
            }
            EXPECT_TRUE(bitwiseEqual(gx, gx1)) << what;
            for (ParamId id = 0; id < static_cast<ParamId>(p.size());
                 ++id)
                EXPECT_TRUE(
                    bitwiseEqual(p.grad(id),
                                 grads1[static_cast<size_t>(id)]))
                    << what << " param " << id;
        }
    }
    EXPECT_GE(simd_cases, 4);
}

TEST(ExecutorLowering, TrainingForwardKeepsEveryCloneValue)
{
    // HMMS plans per patch tensor and the benchmark's replay reads
    // each clone's value: lowering must not fold clone tensors away.
    for (const Case &c : kCases) {
        ThreadGuard tg(2);
        const Graph g = splitGraph(c, 31);
        Rng r(32);
        ParamStore p(g, r);
        Executor ex(g, p);
        ForwardCache cache;
        ex.forward(inputFor(g, 33), true, &cache);
        ASSERT_EQ(cache.values.size(), g.tensors().size());
        for (const TensorInfo &t : g.tensors()) {
            const auto &v = cache.values[static_cast<size_t>(t.id)];
            ASSERT_TRUE(v.has_value()) << caseName(c) << " " << t.name;
            EXPECT_EQ(v->shape(), t.shape) << caseName(c) << " " << t.name;
        }
    }
}

TEST(ExecutorLowering, StochasticPanelKeysIgnoreThePartition)
{
    // Weight panels are keyed by the weight alone, so a step on a
    // freshly sampled partition finds every panel the previous
    // partition packed: no pack, no miss.
    ThreadGuard tg(2);
    const Case c{"vgg19", 2, true};
    const Graph g1 = splitGraph(c, 41);
    const Graph g2 = splitGraph(c, 42);
    Rng r(43);
    ParamStore p(g1, r);
    ASSERT_TRUE(p.compatibleWith(g2));
    const Tensor x = inputFor(g1, 44);
    splitWeightCacheClear();
    {
        Executor ex(g1, p);
        ForwardCache cache;
        ex.forward(x, true, &cache);
    }
    const SplitWeightCacheStats s1 = splitWeightCacheStats();
    ASSERT_GT(s1.misses, 0);
    {
        Executor ex(g2, p);
        ForwardCache cache;
        ex.forward(x, true, &cache);
    }
    const SplitWeightCacheStats s2 = splitWeightCacheStats();
    EXPECT_EQ(s2.misses, s1.misses);
    EXPECT_EQ(s2.hits - s1.hits, s1.misses);
    splitWeightCacheClear();
}

} // namespace
} // namespace scnn
