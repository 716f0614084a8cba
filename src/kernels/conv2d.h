/**
 * @file
 * 2-D convolution forward and backward kernels (im2col + GEMM).
 */
#ifndef SCNN_KERNELS_CONV2D_H
#define SCNN_KERNELS_CONV2D_H

#include "kernels/window.h"
#include "tensor/tensor.h"

namespace scnn {

/**
 * Forward convolution.
 *
 * @param x input, [N, C, H, W].
 * @param weight [OC, C, kh, kw].
 * @param bias [OC]; pass an empty tensor for no bias.
 * @param win window geometry (kernel extents must match @p weight).
 * @return output, [N, OC, outH, outW].
 */
Tensor conv2dForward(const Tensor &x, const Tensor &weight,
                     const Tensor &bias, const Window2d &win);

/**
 * Forward convolution with automatic algorithm selection: Winograd
 * F(2x2, 3x3) for 3x3 stride-1 windows (cuDNN-style fast path, used
 * by the executor), im2col + GEMM otherwise.
 */
Tensor conv2dForwardAuto(const Tensor &x, const Tensor &weight,
                         const Tensor &bias, const Window2d &win);

/** The kernel conv2dForwardAuto picks for a c -> oc layer: true for
 * Winograd. The executor's band-fused patch groups make the same
 * choice, so lowering a split layer never changes its numerics. */
bool conv2dAutoPicksWinograd(int64_t c, int64_t oc, const Window2d &win);

/**
 * Backward convolution.
 *
 * @param x forward input.
 * @param weight forward weight.
 * @param grad_out gradient w.r.t. the forward output.
 * @param win window geometry.
 * @param grad_x [out] gradient w.r.t. x (overwritten).
 * @param grad_w [out] gradient w.r.t. weight (accumulated into).
 * @param grad_b [out] gradient w.r.t. bias (accumulated into); pass an
 *        empty tensor when the convolution has no bias.
 */
void conv2dBackward(const Tensor &x, const Tensor &weight,
                    const Tensor &grad_out, const Window2d &win,
                    Tensor &grad_x, Tensor &grad_w, Tensor &grad_b);

/**
 * Fold @p count wgrad partials into @p grad_w in order: partial k is
 * a [krows x oc] matrix (grad_w transposed) at partials + k*krows*oc,
 * and grad_w[o][r] += partial[r][o] for k = 0, 1, ... Each element
 * receives its adds in partial order, so the result is the same for
 * any tiling and thread count; the transpose runs in cache tiles and
 * output-channel blocks fan out across the pool.
 */
void foldWgradPartials(const float *partials, int64_t count,
                       int64_t krows, int64_t oc, float *grad_w);

} // namespace scnn

#endif // SCNN_KERNELS_CONV2D_H
