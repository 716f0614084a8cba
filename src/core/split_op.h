/**
 * @file
 * Eager execution of a split window-based operation (Eqs. 4-7):
 * Split_W(X, I) -> per-patch Op with computed paddings -> concat.
 *
 * The 2-D case composes two independent 1-D schemes (height and
 * width), yielding h.parts() x w.parts() patches as in Figure 2.
 */
#ifndef SCNN_CORE_SPLIT_OP_H
#define SCNN_CORE_SPLIT_OP_H

#include <cstddef>
#include <iterator>
#include <vector>

#include "core/split_scheme.h"
#include "kernels/window.h"
#include "tensor/tensor.h"
#include "tensor/tensor_ops.h"
#include "util/threadpool.h"

namespace scnn {

/** A 2-D split scheme: independent splits along H and W. */
struct SplitScheme2d
{
    SplitScheme1d h;
    SplitScheme1d w;

    int parts() const { return h.parts() * w.parts(); }
};

/**
 * Build a 2-D split scheme for a window op over an ih x iw input.
 *
 * @param win 2-D window geometry (symmetric or asymmetric padding).
 * @param ih input height; @p iw input width.
 * @param out_h_starts output partition along H (O tuple).
 * @param out_w_starts output partition along W.
 * @param policy how to pick I within [lb, ub] on both axes.
 */
SplitScheme2d splitWindowOp2d(const Window2d &win, int64_t ih, int64_t iw,
                              const std::vector<int64_t> &out_h_starts,
                              const std::vector<int64_t> &out_w_starts,
                              InputSplitPolicy policy =
                                  InputSplitPolicy::Center);

/** The local window geometry for patch (hi, wi) of a scheme. */
Window2d patchWindow(const Window2d &win, const SplitScheme2d &scheme,
                     int hi, int wi);

/** Slice the input patch (hi, wi) out of an NCHW tensor. */
Tensor slicePatch(const Tensor &x, const SplitScheme2d &scheme, int hi,
                  int wi);

/**
 * Run a window op patch-by-patch and concatenate the results; the
 * reference implementation of Eqs. 4-7 used by tests and examples.
 *
 * @param x NCHW input.
 * @param scheme 2-D split scheme built for x's spatial extents.
 * @param op callable (const Tensor &patch, const Window2d &local)
 *        -> Tensor running the underlying operation on one patch.
 *
 * Patches are independent, so they fan out across the global thread
 * pool; each patch result lands in its own pre-sized slot and the
 * final concatenation runs on the caller, so the output is
 * bitwise-identical for any thread count.
 */
template <typename OpFn>
Tensor
runSplitOp(const Tensor &x, const Window2d &win,
           const SplitScheme2d &scheme, OpFn &&op)
{
    const int hp = scheme.h.parts();
    const int wp = scheme.w.parts();
    std::vector<Tensor> patches(static_cast<size_t>(hp) *
                                static_cast<size_t>(wp));
    globalPool().parallelFor(
        static_cast<int64_t>(patches.size()),
        [&](int64_t begin, int64_t end) {
            for (int64_t i = begin; i < end; ++i) {
                const int hi = static_cast<int>(i) / wp;
                const int wi = static_cast<int>(i) % wp;
                Tensor patch = slicePatch(x, scheme, hi, wi);
                patches[static_cast<size_t>(i)] =
                    op(patch, patchWindow(win, scheme, hi, wi));
            }
        });
    std::vector<Tensor> rows;
    rows.reserve(static_cast<size_t>(hp));
    for (int hi = 0; hi < hp; ++hi) {
        std::vector<Tensor> cols(
            std::make_move_iterator(patches.begin() +
                                    static_cast<size_t>(hi) * wp),
            std::make_move_iterator(patches.begin() +
                                    static_cast<size_t>(hi + 1) * wp));
        rows.push_back(concatDim(cols, 3));
    }
    return concatDim(rows, 2);
}

/** @name Fused-conv band decomposition
 *
 * The fused conv path's unit of parallel work, exported so the SA6xx
 * parallel-safety analyzer (analysis/parallel_model.h) models the
 * *same* decomposition the kernel executes: both sides call
 * splitConvBandItems, so a change to the banding changes the proof
 * obligations with it.
 */
///@{

/** Output rows per fused-conv work band. Fixed (never derived from
 * the thread count) so the band decomposition — and with it every
 * byte of the result — is identical at any pool size. Even, so
 * Winograd 2-row tiles never straddle bands. */
constexpr int64_t kSplitConvRowBand = 16;

/** One unit of fused conv work: patch-local output rows [oy0, oy1)
 * of patch-row group hi (all width patches of that group). */
struct SplitBandItem
{
    int hi;      ///< index into the H scheme's pieces
    int64_t oy0; ///< first patch-local output row (inclusive)
    int64_t oy1; ///< last patch-local output row (exclusive)
};

/** The flat per-image band list for an H split scheme: each piece's
 * output rows chopped into kSplitConvRowBand-row bands, in (hi, oy0)
 * order. The fused conv work item index is
 * image * bands.size() + band_index. */
std::vector<SplitBandItem> splitConvBandItems(const SplitScheme1d &h);

/**
 * One patch of a split conv layer, described in the memory it lives
 * in: the patch reads the rectangle @c view of input tensor
 * @c in_tensor (spatial extents ih x iw) under its patch-local window
 * and writes an outH x outW block at (oy0, ox0) of output tensor
 * @c out_tensor (spatial extents out_h x out_w). Tensor indices refer
 * to the caller's tensor lists; the batch and channel extents are the
 * layer's.
 */
struct SplitConvPatch
{
    int in_tensor = 0;
    int64_t ih = 0, iw = 0;
    PatchView view;
    Window2d win; ///< patch-local window (the scheme's paddings)
    int out_tensor = 0;
    int64_t out_h = 0, out_w = 0;
    int64_t oy0 = 0, ox0 = 0;

    int64_t outH() const { return win.outH(view.ih); }
    int64_t outW() const { return win.outW(view.iw); }
};

/**
 * A split conv layer as an hp x wp grid of patches, row-major. Two
 * forms share one band pipeline:
 *  - the parent form (splitConvParentLayout): every patch is a view
 *    of one input tensor and one output tensor, so halos are re-read
 *    from the parent and each band's GEMM writes the parent output in
 *    place;
 *  - the patch form (splitConvPatchLayout): patch p reads input
 *    tensor p and writes output tensor p — the patch-clone tensors of
 *    a split graph, whose halos were already materialized upstream.
 * Either way a band stages all width patches of a patch row into one
 * column matrix, so the GEMM runs at the unsplit layer's width.
 */
struct SplitConvLayout
{
    int hp = 0;
    int wp = 0;
    std::vector<SplitConvPatch> patches;

    const SplitConvPatch &
    at(int hi, int wi) const
    {
        return patches[static_cast<size_t>(hi) * static_cast<size_t>(wp) +
                       static_cast<size_t>(wi)];
    }
    /** True when every patch shares input and output tensor 0. */
    bool parentForm() const;
    /** Band column offset of width patch wi; colStart(wp) is the
     * layer's full output width. */
    int64_t colStart(int wi) const;
    /** Number of distinct input (output) tensors the layout names. */
    int inputTensors() const;
    int outputTensors() const;
};

/** The parent form of @p scheme over an ih x iw input. */
SplitConvLayout splitConvParentLayout(const Window2d &win, int64_t ih,
                                      int64_t iw,
                                      const SplitScheme2d &scheme);

/**
 * The patch form over an hp x wp grid: patch p (row-major) reads an
 * in_h[p] x in_w[p] tensor under window wins[p]. Output extents follow
 * from the windows and must agree along rows and columns.
 */
SplitConvLayout splitConvPatchLayout(int hp, int wp,
                                     const std::vector<int64_t> &in_h,
                                     const std::vector<int64_t> &in_w,
                                     const std::vector<Window2d> &wins);

/** The band list of a layout: each patch row's output rows chopped
 * into kSplitConvRowBand-row bands, in (hi, oy0) order. Checks that
 * the patch geometry is consistent. */
std::vector<SplitBandItem> splitConvBandItems(const SplitConvLayout &l);

/** Output-channel blocks the patch-form wgrad fans out over. */
constexpr int64_t kSplitWgradBlocks = 2;

/** Rows [o0, o1) of grad_w: one patch-form wgrad work item. */
struct SplitWgradBlock
{
    int64_t o0;
    int64_t o1;
};

/**
 * The patch-form wgrad decomposition: grad_w's oc rows cut into at
 * most kSplitWgradBlocks equal blocks (fixed, never derived from the
 * thread count). Each block replays the clone graph's reduction
 * order for its rows — patches last to first, images ascending, each
 * (patch, image) partial chained over the patch's 16-row bands — so
 * every element of grad_w and grad_b receives exactly the adds the
 * per-patch conv2dBackward calls would make.
 */
std::vector<SplitWgradBlock> splitConvWgradBlocks(int64_t oc);

///@}

/**
 * Split convolution forward (Eqs. 4-7 applied to conv2d).
 *
 * Default execution is the *fused zero-copy* path (v2): patches are
 * views into the parent tensor (no pad2d copy, no per-patch output
 * tensors, no concat). Each work item is an output-row band of one
 * patch-row group: every patch in the band stages its halo-aware
 * im2col columns into one shared column matrix ordered by parent
 * output position, the matrix is packed into B panels once and
 * consumed across every output-channel tile without repacking, and
 * the GEMM's C is the parent output itself — so the GEMM runs at the
 * unsplit convolution's shape and the split overhead reduces to the
 * per-patch im2col flank handling. Weight panels are packed once per
 * (layer, split) via a keyed cache, not once per call.
 *
 * Kernel selection: when the window is 3x3 stride-1 and
 * winogradCostModelWins says the transform overhead amortizes, the
 * batched-GEMM Winograd patch kernel runs instead of im2col+GEMM.
 * SCNN_SPLIT_WINOGRAD=0 forces Winograd off, =1 forces it on (for
 * applicable windows), unset defers to the cost model. Set
 * SCNN_SPLIT_EXEC=materialize to fall back to the materializing
 * reference path.
 */
Tensor splitConv2dForward(const Tensor &x, const Tensor &weight,
                          const Tensor &bias, const Window2d &win,
                          const SplitScheme2d &scheme);

/**
 * The materializing reference path (slicePatch + per-patch
 * conv2dForwardAuto + concat) — the seed implementation, kept for
 * equivalence tests and as the SCNN_SPLIT_EXEC=materialize fallback.
 */
Tensor splitConv2dForwardMaterialized(const Tensor &x,
                                      const Tensor &weight,
                                      const Tensor &bias,
                                      const Window2d &win,
                                      const SplitScheme2d &scheme);

/**
 * The fused zero-copy path, with the kernel choice explicit:
 * @p use_winograd selects the halo-aware batched-GEMM Winograd patch
 * kernel (requires winogradApplicable(win)); otherwise halo-aware
 * im2col feeds packed-panel GEMMs writing straight into the parent
 * output. Exposed for tests and benches; the splitConv2dForward
 * dispatcher makes the choice via the cost model and
 * SCNN_SPLIT_WINOGRAD.
 */
Tensor splitConv2dForwardFused(const Tensor &x, const Tensor &weight,
                               const Tensor &bias, const Window2d &win,
                               const SplitScheme2d &scheme,
                               bool use_winograd);

/**
 * Split conv forward over the patch form: patch p of @p layout reads
 * @p xs[p] and writes @p outs[p], which is (re)allocated at its
 * N x OC x outH x outW shape. This is how the executor runs a group
 * of patch clones as one band-fused call. The kernel is the one
 * conv2dForwardAuto picks for the layer (conv2dAutoPicksWinograd),
 * and every output is bitwise equal to conv2dForwardAuto on the
 * patch with its local window.
 */
void splitConv2dForwardPatches(const SplitConvLayout &layout,
                               const std::vector<const Tensor *> &xs,
                               const Tensor &weight, const Tensor &bias,
                               std::vector<Tensor> &outs);

/**
 * Split conv backward over the patch form: @p grad_xs[p] is
 * overwritten with the gradient of @p xs[p]; grad_w / grad_b
 * accumulate. dgrad runs band-fused like splitConv2dBackward; wgrad
 * and bias replay the per-patch reduction order (see
 * splitConvWgradBlocks), so every gradient is bitwise equal to
 * calling conv2dBackward on each patch, last patch first.
 */
void splitConv2dBackwardPatches(const SplitConvLayout &layout,
                                const std::vector<const Tensor *> &xs,
                                const Tensor &weight,
                                const std::vector<const Tensor *> &grad_outs,
                                std::vector<Tensor> &grad_xs,
                                Tensor &grad_w, Tensor &grad_b);

/** @name Per-(layer, split) weight-panel cache
 *
 * splitConv2dForwardFused packs its weight operand (GEMM A panels,
 * or the 16 packed Winograd U matrices) at most once per layer: a
 * small keyed LRU cache holds the packed panels across calls, keyed
 * by weight identity, shape, kernel choice, and the active
 * microkernel, and validated by a full content hash so in-place
 * weight updates (training) repack instead of serving stale panels.
 */
///@{
/** Cached layers (panel layouts) the LRU holds: room for the forward
 * and backward panels of a split region of eight conv layers (vgg19
 * at depth 0.5), so a training step repacks in place instead of
 * evicting the other direction's panels. */
constexpr size_t kSplitWeightCacheCapacity = 16;

struct SplitWeightCacheStats
{
    int64_t hits = 0;   ///< lookups served from cached panels
    int64_t misses = 0; ///< lookups that had to pack
    int64_t evictions = 0; ///< entries displaced at capacity
    int64_t entries = 0; ///< live cached layers
};

/** Snapshot of the cache counters (process-wide). */
SplitWeightCacheStats splitWeightCacheStats();

/** Drop every cached panel and zero the counters (tests). */
void splitWeightCacheClear();
///@}

/** Split max-pool forward: fused zero-copy by default,
 * SCNN_SPLIT_EXEC=materialize falls back to the reference path. */
Tensor splitMaxPool2dForward(const Tensor &x, const Window2d &win,
                             const SplitScheme2d &scheme);

/** Split average-pool forward (same dispatch as max-pool). */
Tensor splitAvgPool2dForward(const Tensor &x, const Window2d &win,
                             const SplitScheme2d &scheme);

/**
 * @name Split pooling, both executions explicit
 *
 * The fused paths read halo-aware PatchViews of the parent and write
 * the strided parent output directly, parallelized over
 * image x patch work items; the materializing paths are the
 * slicePatch + pool + concat reference. Fused and materializing
 * outputs are bitwise-identical (same clip tests, same tap order).
 */
///@{
Tensor splitMaxPool2dForwardFused(const Tensor &x, const Window2d &win,
                                  const SplitScheme2d &scheme);
Tensor splitAvgPool2dForwardFused(const Tensor &x, const Window2d &win,
                                  const SplitScheme2d &scheme);
Tensor splitMaxPool2dForwardMaterialized(const Tensor &x,
                                         const Window2d &win,
                                         const SplitScheme2d &scheme);
Tensor splitAvgPool2dForwardMaterialized(const Tensor &x,
                                         const Window2d &win,
                                         const SplitScheme2d &scheme);
///@}

/**
 * Split convolution backward: the backward twin of the fused forward
 * pipeline. Gradient patches are PatchViews into the parent gradient
 * tensors — no per-patch bounce buffers. Each image's row bands run
 * serially on one worker (images fan out across the pool); per band,
 * every patch stages its halo-aware im2col columns into the shared
 * column matrix exactly as the forward does, then
 *
 *   wgrad: the columns (packed A) contract against the band's
 *          grad_out rows packed transposed straight from the parent
 *          tensor (gemmPackBStrided), chaining a per-image partial
 *          accumulator across bands (beta = 1); partials are reduced
 *          into grad_w serially in image order, so the result is
 *          bitwise-identical for any thread count.
 *   dgrad: cached W^T panels (the weight-panel cache under a dgrad
 *          key) contract against the band's grad_out rows, and each
 *          patch scatters its slice of the gradient columns into the
 *          parent grad_x through col2imViewStrided — halo rows
 *          accumulate under the worker's serial band/patch order (the
 *          SA609 ordered-accumulation discipline).
 *
 * The dispatcher lints buildSplitConvBackwardPlan under
 * SCNN_LINT_PARALLEL and honors SCNN_SPLIT_EXEC=materialize.
 *
 * @param grad_x [out] overwritten with dL/dx at x's shape.
 * @param grad_w [out] accumulated into (pre-shaped like weight).
 * @param grad_b [out] accumulated into; pass an empty tensor when the
 *        convolution has no bias.
 */
void splitConv2dBackward(const Tensor &x, const Tensor &weight,
                         const Tensor &grad_out, const Window2d &win,
                         const SplitScheme2d &scheme, Tensor &grad_x,
                         Tensor &grad_w, Tensor &grad_b);

/** The fused zero-copy backward path (see splitConv2dBackward). */
void splitConv2dBackwardFused(const Tensor &x, const Tensor &weight,
                              const Tensor &grad_out,
                              const Window2d &win,
                              const SplitScheme2d &scheme,
                              Tensor &grad_x, Tensor &grad_w,
                              Tensor &grad_b);

/**
 * The pinned reference path (SCNN_SPLIT_EXEC=materialize): replays
 * the fused path's exact accumulation order while routing every
 * *read* through materialized bounce buffers — sliced patch copies,
 * contiguous grad_out band copies, freshly packed weight panels (no
 * cache). Writes stay direct, so the reference is bitwise-identical
 * to the fused path by construction and a parity failure isolates
 * the zero-copy view machinery.
 */
void splitConv2dBackwardMaterialized(const Tensor &x,
                                     const Tensor &weight,
                                     const Tensor &grad_out,
                                     const Window2d &win,
                                     const SplitScheme2d &scheme,
                                     Tensor &grad_x, Tensor &grad_w,
                                     Tensor &grad_b);

/**
 * @name Split pooling backward
 *
 * Fused paths scatter gradients through each patch's PatchView into
 * the parent grad_x: a worker owns an image and walks its patches in
 * ascending order, so halo rows (windows straddling a patch seam
 * when k > s) accumulate in a fixed order — bitwise-deterministic
 * for any thread count. The materialized fallbacks bounce-copy the
 * reads (grad_out blocks, argmax blocks) while keeping the identical
 * scatter order, so fused and materialized are bitwise-equal.
 *
 * @p argmax comes from the parent-level maxPool2dForward (linear
 * indices into the whole input tensor); every argmax of an output in
 * a patch's block lies inside that patch's input rectangle by the
 * scheme's construction (Eqs. 1-2).
 */
///@{
Tensor splitMaxPool2dBackward(const Shape &in_shape,
                              const Tensor &grad_out,
                              const std::vector<int64_t> &argmax,
                              const SplitScheme2d &scheme);
Tensor splitMaxPool2dBackwardFused(const Shape &in_shape,
                                   const Tensor &grad_out,
                                   const std::vector<int64_t> &argmax,
                                   const SplitScheme2d &scheme);
Tensor splitMaxPool2dBackwardMaterialized(
    const Shape &in_shape, const Tensor &grad_out,
    const std::vector<int64_t> &argmax, const SplitScheme2d &scheme);

Tensor splitAvgPool2dBackward(const Shape &in_shape,
                              const Tensor &grad_out,
                              const Window2d &win,
                              const SplitScheme2d &scheme);
Tensor splitAvgPool2dBackwardFused(const Shape &in_shape,
                                   const Tensor &grad_out,
                                   const Window2d &win,
                                   const SplitScheme2d &scheme);
Tensor splitAvgPool2dBackwardMaterialized(const Shape &in_shape,
                                          const Tensor &grad_out,
                                          const Window2d &win,
                                          const SplitScheme2d &scheme);
///@}

} // namespace scnn

#endif // SCNN_CORE_SPLIT_OP_H
