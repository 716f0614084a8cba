#include "kernels/conv2d.h"

#include <algorithm>

#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/rowops.h"
#include "kernels/winograd.h"
#include "util/logging.h"
#include "util/scratch_arena.h"
#include "util/threadpool.h"

namespace scnn {

Tensor
conv2dForward(const Tensor &x, const Tensor &weight, const Tensor &bias,
              const Window2d &win)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "conv2d input must be NCHW");
    SCNN_REQUIRE(weight.shape().rank() == 4,
                 "conv2d weight must be [OC, C, kh, kw]");
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    SCNN_REQUIRE(weight.shape().dim(1) == c,
                 "conv2d channel mismatch: weight expects "
                     << weight.shape().dim(1) << ", input has " << c);
    SCNN_REQUIRE(weight.shape().dim(2) == win.kh &&
                     weight.shape().dim(3) == win.kw,
                 "conv2d kernel extent mismatch");
    const int64_t oh = win.outH(ih);
    const int64_t ow = win.outW(iw);
    SCNN_REQUIRE(oh > 0 && ow > 0,
                 "conv2d output is empty for input "
                     << x.shape().toString() << " with "
                     << win.toString());

    const int64_t krows = c * win.kh * win.kw;
    const int64_t ospatial = oh * ow;

    // Every element of out is written by the gemm (beta = 0), so the
    // allocation can skip its zero-fill. Images are independent: each
    // chunk writes a disjoint slice of out, which keeps the result
    // bitwise-identical for any thread count.
    Tensor out = Tensor::uninitialized(Shape{n, oc, oh, ow});
    const bool has_bias = bias.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(bias.numel() == oc, "conv2d bias size mismatch");

    globalPool().parallelFor(n, [&](int64_t begin, int64_t end) {
        auto &arena = ScratchArena::tls();
        auto guard = arena.scope();
        float *col = arena.alloc(krows * ospatial);
        for (int64_t in = begin; in < end; ++in) {
            im2col(x.data() + in * c * ih * iw, c, ih, iw, win, col);
            // out[in] = weight(as [oc, krows]) * col
            gemm(oc, ospatial, krows, 1.0f, weight.data(), col, 0.0f,
                 out.data() + in * oc * ospatial);
            if (has_bias)
                addRowBias(out.data() + in * oc * ospatial, oc,
                           ospatial, bias.data());
        }
    });
    return out;
}

bool
conv2dAutoPicksWinograd(int64_t c, int64_t oc, const Window2d &win)
{
    return winogradApplicable(win) && winogradCostModelWins(c, oc);
}

Tensor
conv2dForwardAuto(const Tensor &x, const Tensor &weight,
                  const Tensor &bias, const Window2d &win)
{
    if (conv2dAutoPicksWinograd(x.shape().dim(1), weight.shape().dim(0),
                                win))
        return conv2dForwardWinograd(x, weight, bias, win);
    return conv2dForward(x, weight, bias, win);
}

void
foldWgradPartials(const float *partials, int64_t count, int64_t krows,
                  int64_t oc, float *grad_w)
{
    constexpr int64_t kTile = 32;
    const int64_t o_blocks = (oc + kTile - 1) / kTile;
    globalPool().parallelFor(o_blocks, [&](int64_t begin, int64_t end) {
        for (int64_t ob = begin; ob < end; ++ob) {
            const int64_t o0 = ob * kTile;
            const int64_t o1 = std::min(oc, o0 + kTile);
            for (int64_t r0 = 0; r0 < krows; r0 += kTile) {
                const int64_t r1 = std::min(krows, r0 + kTile);
                for (int64_t k = 0; k < count; ++k) {
                    const float *gw = partials + k * krows * oc;
                    for (int64_t o = o0; o < o1; ++o)
                        for (int64_t r = r0; r < r1; ++r)
                            grad_w[o * krows + r] += gw[r * oc + o];
                }
            }
        }
    });
}

void
conv2dBackward(const Tensor &x, const Tensor &weight,
               const Tensor &grad_out, const Window2d &win,
               Tensor &grad_x, Tensor &grad_w, Tensor &grad_b)
{
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t oc = weight.shape().dim(0);
    const int64_t oh = win.outH(ih);
    const int64_t ow = win.outW(iw);
    SCNN_CHECK(grad_out.shape() == Shape({n, oc, oh, ow}),
               "conv2d grad_out shape mismatch: "
                   << grad_out.shape().toString());

    const int64_t krows = c * win.kh * win.kw;
    const int64_t ospatial = oh * ow;

    grad_x = Tensor(x.shape()); // zero: col2im scatter-adds into it
    SCNN_CHECK(grad_w.shape() == weight.shape(),
               "grad_w must be pre-shaped like weight");
    const bool has_bias = grad_b.numel() > 0;

    // Band-fused packed-GEMM pipeline, the backward twin of the split
    // forward: each image's output rows are processed in 16-row bands
    // whose im2col columns are staged once and consumed by *both*
    // gradient GEMMs —
    //
    //   wgrad  gw_img[krows x oc] += packA(col) * packB(grad_out^T)
    //          (grad_out^T packed straight from the parent tensor via
    //          gemmPackBStrided, beta = 1 chains the bands' KC-style
    //          k-accumulation in ascending band order),
    //   dgrad  gcol[krows x nb]    = packA(W^T) * packB(grad_out band)
    //          (W^T packed once per call via gemmPackAStrided), then
    //          col2im-scattered with hoisted flank bounds.
    //
    // Images are processed in waves of `wave`; a worker owns whole
    // images, so its dgrad scatters race with nobody and its bands run
    // serially ascending. Per-image wgrad/bias partials are reduced
    // serially in image order after each wave. Band order, scatter
    // order, and reduction order are all independent of the thread
    // count, so results are bitwise-identical for any pool size (the
    // same contract as gemmPackedAB).
    constexpr int64_t kBackwardRowBand = 16;
    const int64_t band_rows = std::min(oh, kBackwardRowBand);
    const int64_t bc_max = band_rows * ow;

    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();
    // W^T panels: A(i, p) = weight[p * krows + i], shared read-only.
    float *pa_wt = arena.alloc(gemmPackedASize(krows, oc));
    gemmPackAStrided(krows, oc, 1.0f, weight.data(), /*rs=*/1,
                     /*cs=*/krows, pa_wt);

    const int64_t wave = std::max<int64_t>(1, globalThreads());
    float *gw_acc = arena.alloc(wave * krows * oc);
    float *gb_acc = has_bias ? arena.alloc(wave * oc) : nullptr;

    for (int64_t w0 = 0; w0 < n; w0 += wave) {
        const int64_t wn = std::min(wave, n - w0);
        globalPool().parallelFor(wn, [&](int64_t begin, int64_t end) {
            auto &warena = ScratchArena::tls();
            auto wguard = warena.scope();
            float *col = warena.alloc(krows * bc_max);
            float *gcol = warena.alloc(krows * bc_max);
            float *pa_col = warena.alloc(gemmPackedASize(krows, bc_max));
            float *pb_got = warena.alloc(gemmPackedBSize(bc_max, oc));
            float *pb_go = warena.alloc(gemmPackedBSize(oc, bc_max));
            for (int64_t wi = begin; wi < end; ++wi) {
                const int64_t in = w0 + wi;
                const float *go = grad_out.data() + in * oc * ospatial;
                const float *img = x.data() + in * c * ih * iw;
                float *gx_img = grad_x.data() + in * c * ih * iw;
                float *gw_img = gw_acc + wi * krows * oc;
                for (int64_t oy0 = 0; oy0 < oh;
                     oy0 += kBackwardRowBand) {
                    const int64_t oy1 =
                        std::min(oh, oy0 + kBackwardRowBand);
                    const int64_t nb = (oy1 - oy0) * ow;
                    const float *go_band = go + oy0 * ow;
                    im2colView(img, c, ih, iw, PatchView::full(ih, iw),
                               win, oy0, oy1, col);
                    // wgrad: gw_img (krows x oc, grad_w transposed)
                    // accumulates this band's im2col-columns x
                    // grad_out-panels product.
                    gemmPackA(krows, nb, 1.0f, col, pa_col);
                    gemmPackBStrided(nb, oc, go_band, /*rs=*/1,
                                     /*cs=*/ospatial, pb_got);
                    gemmPackedAB(krows, oc, nb, pa_col, pb_got,
                                 oy0 == 0 ? 0.0f : 1.0f, gw_img, oc);
                    // dgrad: gcol = W^T * grad_out band, scattered
                    // back through the im2col adjoint.
                    gemmPackB(oc, nb, go_band, /*ldb=*/ospatial,
                              pb_go);
                    gemmPackedAB(krows, nb, oc, pa_wt, pb_go, 0.0f,
                                 gcol, nb);
                    col2imView(gcol, c, ih, iw,
                               PatchView::full(ih, iw), win, oy0, oy1,
                               gx_img);
                }
                if (has_bias) {
                    float *gb = gb_acc + wi * oc;
                    std::fill(gb, gb + oc, 0.0f);
                    addRowSums(go, oc, ospatial, gb);
                }
            }
        });
        // gw_img is [krows x oc]; grad_w is [oc x krows].
        foldWgradPartials(gw_acc, wn, krows, oc, grad_w.data());
        if (has_bias)
            for (int64_t wi = 0; wi < wn; ++wi) {
                const float *gb = gb_acc + wi * oc;
                for (int64_t o = 0; o < oc; ++o)
                    grad_b.at(o) += gb[o];
            }
    }
}

} // namespace scnn
