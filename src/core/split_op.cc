#include "core/split_op.h"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string_view>
#include <vector>

#include "analysis/parallel_model.h"
#include "analysis/shadow_access.h"
#include "kernels/conv2d.h"
#include "kernels/gemm.h"
#include "kernels/im2col.h"
#include "kernels/microkernel.h"
#include "kernels/pool2d.h"
#include "kernels/rowops.h"
#include "kernels/winograd.h"
#include "util/logging.h"
#include "util/mutex.h"
#include "util/scratch_arena.h"
#include "util/thread_annotations.h"
#include "util/threadpool.h"

namespace scnn {

SplitScheme2d
splitWindowOp2d(const Window2d &win, int64_t ih, int64_t iw,
                const std::vector<int64_t> &out_h_starts,
                const std::vector<int64_t> &out_w_starts,
                InputSplitPolicy policy)
{
    const WindowParams1d hop{win.kh, win.sh, win.ph_b, win.ph_e};
    const WindowParams1d wop{win.kw, win.sw, win.pw_b, win.pw_e};
    SplitScheme2d scheme;
    scheme.h = splitWindowOp(hop, ih, out_h_starts, policy);
    scheme.w = splitWindowOp(wop, iw, out_w_starts, policy);
    return scheme;
}

Window2d
patchWindow(const Window2d &win, const SplitScheme2d &scheme, int hi,
            int wi)
{
    SCNN_CHECK(hi >= 0 && hi < scheme.h.parts() && wi >= 0 &&
                   wi < scheme.w.parts(),
               "patch index out of range");
    const SplitPiece1d &ph = scheme.h.pieces[hi];
    const SplitPiece1d &pw = scheme.w.pieces[wi];
    Window2d local = win;
    local.ph_b = ph.pad_b;
    local.ph_e = ph.pad_e;
    local.pw_b = pw.pad_b;
    local.pw_e = pw.pad_e;
    return local;
}

Tensor
slicePatch(const Tensor &x, const SplitScheme2d &scheme, int hi, int wi)
{
    const SplitPiece1d &ph = scheme.h.pieces[hi];
    const SplitPiece1d &pw = scheme.w.pieces[wi];
    // Slice by padding negatively: crop to [in_start, in_end) on both
    // spatial axes.
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    return pad2d(x, -ph.in_start, ph.in_end - ih, -pw.in_start,
                 pw.in_end - iw);
}

// ---------------------------------------------------------------------------
// Fused zero-copy split execution, v2.
//
// The materializing path pays, per patch: a pad2d input copy, a
// fresh output tensor, and two concat passes — pure memory traffic
// that made a 2x2 split ~2.8x slower than the unsplit conv. v1
// removed those copies but still ran one small GEMM per
// (patch, row-tile) into a bounce buffer: the GEMM's N collapsed to
// a patch width, edge microtiles wasted MACs, B panels were repacked
// per tile, and a copyRow pass moved every output byte twice.
//
// v2 makes the GEMM shape equal to the unsplit convolution's. A work
// item is an output-row *band* of one patch-row group (all patches
// sharing a split-H piece): every patch stages its halo-aware im2col
// columns into one shared column matrix whose columns are ordered by
// parent output position (im2colViewStrided with col_ld = the band's
// full column count, row_step = the parent output width), the matrix
// is packed into B panels once (gemmPackB) and consumed across every
// output-channel block without repacking (gemmPackedAB), and C is
// the parent output itself (ldc = the parent channel stride) — no
// bounce buffer, no copy pass. Weight panels come from a keyed
// per-(layer, split) cache instead of being repacked per call.
//
// Determinism: the work list is a function of shapes alone (the row
// band is a fixed constant), every item writes a disjoint output
// region, and each item's arithmetic is scheduling-independent — so
// outputs are bitwise identical for any thread count. Under the
// scalar microkernel each output element accumulates k ascending
// from a zeroed start exactly like the materializing im2col path, so
// the two produce identical bytes; the fused batched-GEMM Winograd
// path likewise reproduces the materializing Winograd path's bytes.
// ---------------------------------------------------------------------------

namespace {

std::vector<SplitBandItem>
bandItemsForRows(const std::vector<int64_t> &row_lens)
{
    std::vector<SplitBandItem> bands;
    for (size_t hi = 0; hi < row_lens.size(); ++hi)
        for (int64_t oy0 = 0; oy0 < row_lens[hi];
             oy0 += kSplitConvRowBand)
            bands.push_back({static_cast<int>(hi), oy0,
                             std::min(row_lens[hi],
                                      oy0 + kSplitConvRowBand)});
    return bands;
}

} // namespace

std::vector<SplitBandItem>
splitConvBandItems(const SplitScheme1d &h)
{
    std::vector<int64_t> rows;
    for (const SplitPiece1d &ph : h.pieces)
        rows.push_back(ph.outLen());
    return bandItemsForRows(rows);
}

std::vector<SplitWgradBlock>
splitConvWgradBlocks(int64_t oc)
{
    const int64_t rows =
        std::max<int64_t>(1, (oc + kSplitWgradBlocks - 1) /
                                 kSplitWgradBlocks);
    std::vector<SplitWgradBlock> blocks;
    for (int64_t o0 = 0; o0 < oc; o0 += rows)
        blocks.push_back({o0, std::min(oc, o0 + rows)});
    return blocks;
}

bool
SplitConvLayout::parentForm() const
{
    for (const SplitConvPatch &p : patches)
        if (p.in_tensor != 0 || p.out_tensor != 0)
            return false;
    return true;
}

int64_t
SplitConvLayout::colStart(int wi) const
{
    int64_t col = 0;
    for (int j = 0; j < wi; ++j)
        col += at(0, j).outW();
    return col;
}

int
SplitConvLayout::inputTensors() const
{
    int count = 0;
    for (const SplitConvPatch &p : patches)
        count = std::max(count, p.in_tensor + 1);
    return count;
}

int
SplitConvLayout::outputTensors() const
{
    int count = 0;
    for (const SplitConvPatch &p : patches)
        count = std::max(count, p.out_tensor + 1);
    return count;
}

SplitConvLayout
splitConvParentLayout(const Window2d &win, int64_t ih, int64_t iw,
                      const SplitScheme2d &scheme)
{
    SCNN_CHECK(scheme.h.parts() > 0 && scheme.w.parts() > 0,
               "empty split scheme");
    SplitConvLayout l;
    l.hp = scheme.h.parts();
    l.wp = scheme.w.parts();
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    for (int hi = 0; hi < l.hp; ++hi)
        for (int wi = 0; wi < l.wp; ++wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            SplitConvPatch p;
            p.ih = ih;
            p.iw = iw;
            p.view = {ph.in_start, pw.in_start, ph.inLen(), pw.inLen()};
            p.win = patchWindow(win, scheme, hi, wi);
            p.out_h = out_h;
            p.out_w = out_w;
            p.oy0 = ph.out_start;
            p.ox0 = pw.out_start;
            SCNN_CHECK(p.outH() == ph.outLen() && p.outW() == pw.outLen(),
                       "split scheme geometry mismatch for patch ("
                           << hi << ", " << wi << ")");
            l.patches.push_back(p);
        }
    return l;
}

SplitConvLayout
splitConvPatchLayout(int hp, int wp, const std::vector<int64_t> &in_h,
                     const std::vector<int64_t> &in_w,
                     const std::vector<Window2d> &wins)
{
    const size_t parts = static_cast<size_t>(hp) * static_cast<size_t>(wp);
    SCNN_CHECK(hp > 0 && wp > 0 && in_h.size() == parts &&
                   in_w.size() == parts && wins.size() == parts,
               "patch layout needs hp x wp patches");
    SplitConvLayout l;
    l.hp = hp;
    l.wp = wp;
    for (size_t i = 0; i < parts; ++i) {
        SplitConvPatch p;
        p.in_tensor = p.out_tensor = static_cast<int>(i);
        p.ih = in_h[i];
        p.iw = in_w[i];
        p.view = PatchView::full(in_h[i], in_w[i]);
        p.win = wins[i];
        p.out_h = p.outH();
        p.out_w = p.outW();
        l.patches.push_back(p);
    }
    return l;
}

std::vector<SplitBandItem>
splitConvBandItems(const SplitConvLayout &l)
{
    SCNN_CHECK(l.hp > 0 && l.wp > 0 &&
                   l.patches.size() == static_cast<size_t>(l.hp) *
                                           static_cast<size_t>(l.wp),
               "empty split conv layout");
    std::vector<int64_t> rows;
    for (int hi = 0; hi < l.hp; ++hi) {
        for (int wi = 0; wi < l.wp; ++wi) {
            const SplitConvPatch &p = l.at(hi, wi);
            SCNN_CHECK(p.outH() == l.at(hi, 0).outH() &&
                           p.outW() == l.at(0, wi).outW() &&
                           p.outH() > 0 && p.outW() > 0 &&
                           p.oy0 + p.outH() <= p.out_h &&
                           p.ox0 + p.outW() <= p.out_w,
                       "split scheme geometry mismatch for patch ("
                           << hi << ", " << wi << ")");
        }
        rows.push_back(l.at(hi, 0).outH());
    }
    return bandItemsForRows(rows);
}

namespace {

bool
envMaterialize()
{
    static const bool materialize = [] {
        const char *env = std::getenv("SCNN_SPLIT_EXEC");
        return env != nullptr &&
               std::string_view(env) == "materialize";
    }();
    return materialize;
}

enum class WinoMode { Auto, Off, On };

WinoMode
envSplitWinograd()
{
    static const WinoMode mode = [] {
        const char *env = std::getenv("SCNN_SPLIT_WINOGRAD");
        if (env == nullptr)
            return WinoMode::Auto;
        return std::string_view(env) == "1" ? WinoMode::On
                                            : WinoMode::Off;
    }();
    return mode;
}

uint64_t
hashFloats(const float *p, int64_t count)
{
    // FNV-1a over the raw bytes: cheap relative to a pack (one
    // sequential read, no writes) and exhaustive, so in-place weight
    // updates can never serve stale panels.
    const unsigned char *bytes =
        reinterpret_cast<const unsigned char *>(p);
    const int64_t nbytes = count * int64_t(sizeof(float));
    uint64_t h = 1469598103934665603ull;
    for (int64_t i = 0; i < nbytes; ++i) {
        h ^= bytes[i];
        h *= 1099511628211ull;
    }
    return h;
}

/** A cached packed-panel buffer plus the shared_ptr keeping it alive
 * while a worker reads it (eviction only drops the cache's ref). */
struct PanelRef
{
    std::shared_ptr<std::vector<float>> keepalive;
    const float *panels = nullptr;
};

/** Which packed layout a cache entry holds. One weight tensor can be
 * cached under several kinds at once: the forward GEMM A panels, the
 * Winograd U tensor, and the backward dgrad panels (W^T packed as A,
 * krows x oc) are distinct layouts keyed separately. */
enum class PanelKind { GemmA, Winograd, Dgrad };

/**
 * Keyed LRU cache of packed weight panels, shared process-wide.
 *
 * Key: weight base pointer + panel shape + kernel choice + active
 * microkernel (packed layouts are microkernel-dependent). A full
 * content hash validates every hit. Capacity is a handful of layers;
 * an inference loop over a fixed net hits every call after the first
 * pass, which is what turns "pack once per call" into "pack once per
 * (layer, split)".
 */
class WeightPanelCache
{
public:
    template <typename PackFn>
    PanelRef
    lookupOrPack(const float *w, int64_t wcount, int64_t m, int64_t k,
                 PanelKind kind, int64_t panel_floats, PackFn &&pack)
    {
        const uint64_t h = hashFloats(w, wcount);
        const char *kernel = activeMicrokernel().name;
        MutexLock lock(mu_);
        ++tick_;
        for (auto &e : entries_) {
            if (e.wptr == w && e.m == m && e.k == k &&
                e.kind == kind && e.kernel == kernel) {
                e.tick = tick_;
                if (e.hash == h) {
                    ++hits_;
                    return {e.buf, e.panels};
                }
                // Same layer slot, new contents (in-place update):
                // repack into the existing entry.
                ++misses_;
                pack(e.panels);
                e.hash = h;
                return {e.buf, e.panels};
            }
        }
        ++misses_;
        Entry e;
        e.wptr = w;
        e.m = m;
        e.k = k;
        e.kind = kind;
        e.kernel = kernel;
        e.hash = h;
        e.tick = tick_;
        // Over-allocate so the panel base can be 64-byte aligned for
        // the microkernel's SIMD loads.
        e.buf = std::make_shared<std::vector<float>>(
            static_cast<size_t>(panel_floats + 16));
        auto addr = reinterpret_cast<uintptr_t>(e.buf->data());
        e.panels = reinterpret_cast<float *>((addr + 63) & ~uintptr_t{63});
        pack(e.panels);
        if (entries_.size() >= kCapacity) {
            size_t oldest = 0;
            for (size_t i = 1; i < entries_.size(); ++i)
                if (entries_[i].tick < entries_[oldest].tick)
                    oldest = i;
            ++evictions_;
            entries_[oldest] = std::move(e);
            return {entries_[oldest].buf, entries_[oldest].panels};
        }
        entries_.push_back(std::move(e));
        return {entries_.back().buf, entries_.back().panels};
    }

    SplitWeightCacheStats
    stats()
    {
        MutexLock lock(mu_);
        return {hits_, misses_, evictions_,
                static_cast<int64_t>(entries_.size())};
    }

    void
    clear()
    {
        MutexLock lock(mu_);
        entries_.clear();
        hits_ = misses_ = evictions_ = 0;
        tick_ = 0;
    }

private:
    struct Entry
    {
        const float *wptr = nullptr;
        int64_t m = 0;
        int64_t k = 0;
        PanelKind kind = PanelKind::GemmA;
        const char *kernel = nullptr;
        uint64_t hash = 0;
        std::shared_ptr<std::vector<float>> buf;
        float *panels = nullptr;
        int64_t tick = 0;
    };
    static constexpr size_t kCapacity = kSplitWeightCacheCapacity;

    Mutex mu_;
    std::vector<Entry> entries_ SCNN_GUARDED_BY(mu_);
    int64_t hits_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t misses_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t evictions_ SCNN_GUARDED_BY(mu_) = 0;
    int64_t tick_ SCNN_GUARDED_BY(mu_) = 0;
};

WeightPanelCache &
weightCache()
{
    static WeightPanelCache cache;
    return cache;
}

} // namespace

SplitWeightCacheStats
splitWeightCacheStats()
{
    return weightCache().stats();
}

void
splitWeightCacheClear()
{
    weightCache().clear();
}

namespace {

/** Validated shapes of one split conv call. */
struct ConvDims
{
    int64_t n = 0;
    int64_t c = 0;
    int64_t oc = 0;
    int64_t krows = 0;
    int64_t width = 0; ///< the layer's full output width
    std::vector<SplitBandItem> bands;
    int64_t max_band_cols = 0;
};

ConvDims
convDims(const SplitConvLayout &l, int64_t n, int64_t c,
         const Tensor &weight)
{
    SCNN_REQUIRE(weight.shape().rank() == 4,
                 "split conv weight must be [OC, C, kh, kw]");
    SCNN_REQUIRE(weight.shape().dim(1) == c,
                 "split conv channel mismatch");
    ConvDims d;
    d.n = n;
    d.c = c;
    d.oc = weight.shape().dim(0);
    d.bands = splitConvBandItems(l);
    for (const SplitConvPatch &p : l.patches)
        SCNN_REQUIRE(weight.shape().dim(2) == p.win.kh &&
                         weight.shape().dim(3) == p.win.kw,
                     "split conv kernel extent mismatch");
    d.krows = c * weight.shape().dim(2) * weight.shape().dim(3);
    d.width = l.colStart(l.wp);
    for (const SplitBandItem &b : d.bands)
        d.max_band_cols = std::max(d.max_band_cols, (b.oy1 - b.oy0) * d.width);
    return d;
}

/** Patch p's input image @p in in tensor memory. */
const float *
patchInput(const SplitConvPatch &p, const float *base, int64_t c,
           int64_t in)
{
    return base + in * c * p.ih * p.iw;
}

/** Patch p's output origin (channel 0, patch row 0, column 0) for
 * image @p in; channels are p.out_h * p.out_w apart, rows p.out_w. */
template <typename T>
T *
patchOutput(const SplitConvPatch &p, T *base, int64_t oc, int64_t in)
{
    return base + in * oc * p.out_h * p.out_w + p.oy0 * p.out_w + p.ox0;
}

/** Bind a layout's tensors to their plan regions ("role" for the
 * parent form, "role:k" per tensor otherwise). */
template <typename T>
void
bindTensors(ShadowSession &shadow, const std::string &role,
            const std::vector<T *> &bases)
{
    if (bases.size() == 1) {
        shadow.bind(role, bases[0]);
        return;
    }
    for (size_t k = 0; k < bases.size(); ++k)
        shadow.bind(role + ":" + std::to_string(k), bases[k]);
}

/** Forward weight operand from the keyed cache: GEMM A panels or
 * the packed Winograd U tensor. In debug builds, asserts a hit
 * really skipped the pack (the packs == layers invariant). */
PanelRef
forwardPanels(const Tensor &weight, int64_t c, bool use_winograd)
{
    const int64_t oc = weight.shape().dim(0);
    const int64_t krows = weight.numel() / oc;
#ifndef NDEBUG
    const int64_t packs_before = gemmPackACalls();
    const SplitWeightCacheStats stats_before = splitWeightCacheStats();
#endif
    PanelRef wref;
    if (use_winograd)
        wref = weightCache().lookupOrPack(
            weight.data(), oc * krows, oc, c, PanelKind::Winograd,
            winogradPackedUSize(oc, c), [&](float *dst) {
                winogradPackWeights(weight.data(), oc, c, dst);
            });
    else
        wref = weightCache().lookupOrPack(
            weight.data(), oc * krows, oc, krows, PanelKind::GemmA,
            gemmPackedASize(oc, krows), [&](float *dst) {
                gemmPackA(oc, krows, 1.0f, weight.data(), dst);
            });
#ifndef NDEBUG
    if (splitWeightCacheStats().hits > stats_before.hits)
        SCNN_CHECK(gemmPackACalls() == packs_before,
                   "weight-cache hit must not repack panels");
#endif
    return wref;
}

/**
 * The band-fused forward pipeline over either layout form. Work item
 * i = image * bands + band. Per band, every width patch of the patch
 * row stages its halo-aware im2col columns into one shared column
 * matrix ordered by layer output column (window-element row r of
 * output (oy, col) at col[r*nb + (oy - oy0)*width + col]); the matrix
 * is packed into B panels once and one unsplit-shaped GEMM covers
 * every output channel. In the parent form C is the parent output
 * itself; in the patch form C is a band buffer whose rows are then
 * copied into each patch's output tensor.
 */
void
splitConvForwardBands(const SplitConvLayout &l, const ConvDims &d,
                      const std::vector<const float *> &xs,
                      const std::vector<float *> &ys,
                      const PanelRef &wref, int64_t panel_floats,
                      const float *bias, bool use_winograd)
{
    const bool direct = l.parentForm();
    const int64_t c = d.c;
    const int64_t oc = d.oc;
    const int64_t krows = d.krows;
    const int64_t width = d.width;
    const int64_t n_bands = static_cast<int64_t>(d.bands.size());
    const bool shadow = shadowAccessEnabled();

    globalPool().parallelFor(d.n * n_bands, [&](int64_t begin,
                                                int64_t end) {
        auto &warena = ScratchArena::tls();
        auto wguard = warena.scope();
        float *col = nullptr;
        float *pb = nullptr;
        float *cbuf = nullptr;
        if (!use_winograd) {
            col = warena.alloc(krows * d.max_band_cols);
            pb = warena.alloc(gemmPackedBSize(krows, d.max_band_cols));
            if (!direct)
                cbuf = warena.alloc(oc * d.max_band_cols);
        }
        for (int64_t i = begin; i < end; ++i) {
            const int64_t in = i / n_bands;
            const SplitBandItem &band =
                d.bands[static_cast<size_t>(i % n_bands)];
            const int64_t rows = band.oy1 - band.oy0;
            const int64_t nb = rows * width;

            if (shadow) {
                shadowSetItem(i);
                // Each patch's band rows of every channel, and the
                // shared read of the packed panels. Input halo reads
                // are recorded inside the patch kernels.
                for (int wi = 0; wi < l.wp; ++wi) {
                    const SplitConvPatch &p = l.at(band.hi, wi);
                    shadowRecordSpan(
                        patchOutput(p, ys[p.out_tensor], oc, in) +
                            band.oy0 * p.out_w,
                        {0, oc, p.out_h * p.out_w, rows, p.out_w,
                         p.outW()},
                        true);
                }
                shadowRecord(wref.panels, panel_floats, false);
            }

            if (use_winograd) {
                // Every width patch's tiles in one batched call.
                std::vector<WinogradPatchTask> tasks;
                for (int wi = 0; wi < l.wp; ++wi) {
                    const SplitConvPatch &p = l.at(band.hi, wi);
                    tasks.push_back(
                        {patchInput(p, xs[p.in_tensor], c, in), p.ih,
                         p.iw, p.view, p.win, band.oy0 / 2,
                         (band.oy1 + 1) / 2,
                         patchOutput(p, ys[p.out_tensor], oc, in),
                         p.out_h, p.out_w, 0, 0});
                }
                conv2dWinogradPatches(tasks.data(),
                                      static_cast<int64_t>(tasks.size()),
                                      c, wref.panels, oc, bias);
                continue;
            }

            for (int wi = 0; wi < l.wp; ++wi) {
                const SplitConvPatch &p = l.at(band.hi, wi);
                im2colViewStrided(patchInput(p, xs[p.in_tensor], c, in),
                                  c, p.ih, p.iw, p.view, p.win,
                                  band.oy0, band.oy1,
                                  col + l.colStart(wi), nb, width);
            }
            gemmPackB(krows, nb, col, nb, pb);
            const SplitConvPatch &p0 = l.at(band.hi, 0);
            float *cbase = cbuf;
            int64_t ldc = nb;
            if (direct) {
                cbase = patchOutput(p0, ys[0], oc, in) +
                        band.oy0 * p0.out_w;
                ldc = p0.out_h * p0.out_w;
            }
            gemmPackedAB(oc, nb, krows, wref.panels, pb, 0.0f, cbase,
                         ldc);
            if (bias != nullptr)
                for (int64_t o = 0; o < oc; ++o) {
                    float *crow = cbase + o * ldc;
                    const float b = bias[o];
                    for (int64_t j = 0; j < nb; ++j)
                        crow[j] += b;
                }
            if (direct)
                continue;
            for (int wi = 0; wi < l.wp; ++wi) {
                const SplitConvPatch &p = l.at(band.hi, wi);
                float *dst = patchOutput(p, ys[p.out_tensor], oc, in) +
                             band.oy0 * p.out_w;
                const float *src = cbuf + l.colStart(wi);
                for (int64_t o = 0; o < oc; ++o)
                    for (int64_t r = 0; r < rows; ++r)
                        std::memcpy(dst + o * p.out_h * p.out_w +
                                        r * p.out_w,
                                    src + o * nb + r * width,
                                    static_cast<size_t>(p.outW()) *
                                        sizeof(float));
            }
        }
    });
}

/** Run the forward pipeline under an optional shadow session. */
void
splitConvForwardChecked(const SplitConvLayout &l, const ConvDims &d,
                        const std::vector<const float *> &xs,
                        const std::vector<float *> &ys,
                        const Tensor &weight, const Tensor &bias,
                        bool use_winograd)
{
    const bool has_bias = bias.numel() > 0;
    if (has_bias)
        SCNN_REQUIRE(bias.numel() == d.oc,
                     "split conv bias size mismatch");
    const PanelRef wref = forwardPanels(weight, d.c, use_winograd);
    const int64_t panel_floats =
        use_winograd ? winogradPackedUSize(d.oc, d.c)
                     : gemmPackedASize(d.oc, d.krows);

    // Shadow-access validation (SCNN_SHADOW_ACCESS=1): model this
    // exact execution and, after the parallel section, check every
    // claim the kernels recorded against the static prediction.
    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitConvPlan(d.n, d.c, d.oc, l));
        bindTensors(*shadow, "output", ys);
        bindTensors(*shadow, "input", xs);
        shadow->bind("weight_panels", wref.panels);
    }
    splitConvForwardBands(l, d, xs, ys, wref, panel_floats,
                          has_bias ? bias.data() : nullptr,
                          use_winograd);
    if (shadow) {
        const std::vector<Diagnostic> escapes = shadow->check();
        SCNN_CHECK(escapes.empty(),
                   "shadow-access validator: "
                       << escapes.size()
                       << " SA607 escape(s) in split conv; first: "
                       << escapes.front().toString());
    }
}

} // namespace

Tensor
splitConv2dForwardFused(const Tensor &x, const Tensor &weight,
                        const Tensor &bias, const Window2d &win,
                        const SplitScheme2d &scheme, bool use_winograd)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "split conv input must be NCHW");
    SCNN_REQUIRE(!use_winograd || winogradApplicable(win),
                 "winograd split path needs a 3x3 stride-1 window");
    const SplitConvLayout l = splitConvParentLayout(
        win, x.shape().dim(2), x.shape().dim(3), scheme);
    const ConvDims d = convDims(l, x.shape().dim(0), x.shape().dim(1),
                                weight);
    Tensor out = Tensor::uninitialized(
        Shape{d.n, d.oc, l.patches[0].out_h, l.patches[0].out_w});
    splitConvForwardChecked(l, d, {x.data()}, {out.data()}, weight, bias,
                            use_winograd);
    return out;
}

void
splitConv2dForwardPatches(const SplitConvLayout &layout,
                          const std::vector<const Tensor *> &xs,
                          const Tensor &weight, const Tensor &bias,
                          std::vector<Tensor> &outs)
{
    SCNN_REQUIRE(static_cast<int>(xs.size()) == layout.inputTensors(),
                 "split conv patch inputs: expected "
                     << layout.inputTensors() << ", got " << xs.size());
    const Shape &s0 = xs[0]->shape();
    SCNN_REQUIRE(s0.rank() == 4, "split conv input must be NCHW");
    const ConvDims d = convDims(layout, s0.dim(0), s0.dim(1), weight);
    std::vector<const float *> xp;
    for (const SplitConvPatch &p : layout.patches)
        SCNN_REQUIRE(xs[p.in_tensor]->shape() ==
                         Shape({d.n, d.c, p.ih, p.iw}),
                     "split conv patch input shape "
                         << xs[p.in_tensor]->shape().toString());
    for (const Tensor *t : xs)
        xp.push_back(t->data());
    outs.resize(static_cast<size_t>(layout.outputTensors()));
    std::vector<float *> yp;
    for (const SplitConvPatch &p : layout.patches) {
        Tensor &out = outs[static_cast<size_t>(p.out_tensor)];
        const Shape want{d.n, d.oc, p.out_h, p.out_w};
        if (!(out.shape() == want))
            out = Tensor::uninitialized(want);
    }
    for (Tensor &t : outs)
        yp.push_back(t.data());
    splitConvForwardChecked(
        layout, d, xp, yp, weight, bias,
        conv2dAutoPicksWinograd(d.c, d.oc, layout.patches[0].win));
}

Tensor
splitConv2dForwardMaterialized(const Tensor &x, const Tensor &weight,
                               const Tensor &bias, const Window2d &win,
                               const SplitScheme2d &scheme)
{
    return runSplitOp(x, win, scheme,
                      [&](const Tensor &patch, const Window2d &local) {
                          return conv2dForwardAuto(patch, weight, bias,
                                                   local);
                      });
}

namespace {

/** Debug hook shared by the split dispatchers: statically prove the
 * decomposition race-free before running it. Batch is modeled as
 * min(n, 2) images — image footprints are identical translates, so
 * two prove every inter-image pair (same convention as
 * analyzeParallelExecution). */
void
lintSplitPlan(const ParallelPlan &plan, const char *what)
{
    const std::vector<Diagnostic> diags = analyzeParallelPlan(plan);
    SCNN_CHECK(diags.empty(),
               "parallel-safety lint: " << diags.size()
                                        << " finding(s) in " << what
                                        << "; first: "
                                        << diags.front().toString());
}

} // namespace

Tensor
splitConv2dForward(const Tensor &x, const Tensor &weight,
                   const Tensor &bias, const Window2d &win,
                   const SplitScheme2d &scheme)
{
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvPlan(
                          std::min<int64_t>(x.shape().dim(0), 2),
                          x.shape().dim(1), x.shape().dim(2),
                          x.shape().dim(3), weight.shape().dim(0),
                          win, scheme),
                      "split conv");
    if (envMaterialize())
        return splitConv2dForwardMaterialized(x, weight, bias, win,
                                              scheme);
    bool wino = false;
    if (winogradApplicable(win)) {
        switch (envSplitWinograd()) {
        case WinoMode::On:
            wino = true;
            break;
        case WinoMode::Off:
            wino = false;
            break;
        case WinoMode::Auto:
            wino = winogradCostModelWins(x.shape().dim(1),
                                         weight.shape().dim(0));
            break;
        }
    }
    return splitConv2dForwardFused(x, weight, bias, win, scheme, wino);
}

namespace {

/** Shared driver for the fused split-pool paths: one work item per
 * (image, patch), each writing a disjoint block of the parent
 * output through the halo-aware patch kernel. */
template <typename PatchKernel>
Tensor
splitPool2dForwardFusedImpl(const Tensor &x, const Window2d &win,
                            const SplitScheme2d &scheme,
                            PatchKernel &&kernel)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "split pool input must be NCHW");
    SCNN_CHECK(scheme.h.parts() > 0 && scheme.w.parts() > 0,
               "empty split scheme");
    const int64_t n = x.shape().dim(0);
    const int64_t c = x.shape().dim(1);
    const int64_t ih = x.shape().dim(2);
    const int64_t iw = x.shape().dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_REQUIRE(out_h > 0 && out_w > 0, "empty split pool output");

    const int hp = scheme.h.parts();
    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(hp) * wp;

    // Every output element belongs to exactly one patch block, so the
    // allocation skips its zero-fill; items write disjoint regions.
    Tensor out = Tensor::uninitialized(Shape{n, c, out_h, out_w});

    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitPoolPlan(n, c, ih, iw, win, scheme));
        shadow->bind("output", out.data());
        shadow->bind("input", x.data());
    }

    globalPool().parallelFor(n * parts, [&](int64_t begin,
                                            int64_t end) {
        for (int64_t i = begin; i < end; ++i) {
            if (shadow)
                shadowSetItem(i); // patch kernels record the claims
            const int64_t in = i / parts;
            const int hi = static_cast<int>((i % parts) / wp);
            const int wi = static_cast<int>(i % wp);
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            const PatchView view{ph.in_start, pw.in_start, ph.inLen(),
                                 pw.inLen()};
            const Window2d local = patchWindow(win, scheme, hi, wi);
            SCNN_CHECK(local.outH(ph.inLen()) == ph.outLen() &&
                           local.outW(pw.inLen()) == pw.outLen(),
                       "split scheme geometry mismatch for patch ("
                           << hi << ", " << wi << ")");
            kernel(x.data() + in * c * ih * iw, c, ih, iw, view,
                   local, out.data() + in * c * out_h * out_w, out_h,
                   out_w, ph.out_start, pw.out_start);
        }
    });
    if (shadow) {
        const std::vector<Diagnostic> escapes = shadow->check();
        SCNN_CHECK(escapes.empty(),
                   "shadow-access validator: "
                       << escapes.size()
                       << " SA607 escape(s) in split pool; first: "
                       << escapes.front().toString());
    }
    return out;
}

} // namespace

Tensor
splitMaxPool2dForwardFused(const Tensor &x, const Window2d &win,
                           const SplitScheme2d &scheme)
{
    return splitPool2dForwardFusedImpl(
        x, win, scheme,
        [](const float *img, int64_t c, int64_t ih, int64_t iw,
           const PatchView &view, const Window2d &local, float *out,
           int64_t out_oh, int64_t out_ow, int64_t oy0, int64_t ox0) {
            maxPool2dPatch(img, c, ih, iw, view, local, out, out_oh,
                           out_ow, oy0, ox0);
        });
}

Tensor
splitAvgPool2dForwardFused(const Tensor &x, const Window2d &win,
                           const SplitScheme2d &scheme)
{
    return splitPool2dForwardFusedImpl(
        x, win, scheme,
        [](const float *img, int64_t c, int64_t ih, int64_t iw,
           const PatchView &view, const Window2d &local, float *out,
           int64_t out_oh, int64_t out_ow, int64_t oy0, int64_t ox0) {
            avgPool2dPatch(img, c, ih, iw, view, local, out, out_oh,
                           out_ow, oy0, ox0);
        });
}

Tensor
splitMaxPool2dForwardMaterialized(const Tensor &x, const Window2d &win,
                                  const SplitScheme2d &scheme)
{
    return runSplitOp(x, win, scheme,
                      [&](const Tensor &patch, const Window2d &local) {
                          std::vector<int64_t> argmax;
                          return maxPool2dForward(patch, local, argmax);
                      });
}

Tensor
splitAvgPool2dForwardMaterialized(const Tensor &x, const Window2d &win,
                                  const SplitScheme2d &scheme)
{
    return runSplitOp(x, win, scheme,
                      [&](const Tensor &patch, const Window2d &local) {
                          return avgPool2dForward(patch, local);
                      });
}

Tensor
splitMaxPool2dForward(const Tensor &x, const Window2d &win,
                      const SplitScheme2d &scheme)
{
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolPlan(
                          std::min<int64_t>(x.shape().dim(0), 2),
                          x.shape().dim(1), x.shape().dim(2),
                          x.shape().dim(3), win, scheme),
                      "split max-pool");
    if (envMaterialize())
        return splitMaxPool2dForwardMaterialized(x, win, scheme);
    return splitMaxPool2dForwardFused(x, win, scheme);
}

Tensor
splitAvgPool2dForward(const Tensor &x, const Window2d &win,
                      const SplitScheme2d &scheme)
{
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolPlan(
                          std::min<int64_t>(x.shape().dim(0), 2),
                          x.shape().dim(1), x.shape().dim(2),
                          x.shape().dim(3), win, scheme),
                      "split avg-pool");
    if (envMaterialize())
        return splitAvgPool2dForwardMaterialized(x, win, scheme);
    return splitAvgPool2dForwardFused(x, win, scheme);
}

// ---------------------------------------------------------------------------
// Fused zero-copy split backward.
//
// The backward twin of the fused forward: gradient patches are
// PatchViews into the parent tensors, never per-patch copies. Images
// fan out across the pool in waves; a worker owns a whole image and
// runs its row bands serially ascending, so every halo scatter-add
// into grad_x happens in a fixed order (the SA609 ordered-accumulation
// contract) and nothing races. Per band, every width patch stages its
// halo-aware im2col columns into one shared column matrix ordered by
// parent output position — exactly the forward staging — and the
// matrix feeds *both* gradient GEMMs:
//
//   wgrad  gw_img[krows x oc] += packA(col) x packB(grad_out band^T)
//          (grad_out^T packed straight from the parent tensor via
//          gemmPackBStrided; beta = 1 chains the image's bands, and
//          per-image partials reduce into grad_w serially in image
//          order — bitwise-identical for any thread count),
//   dgrad  gcol = packA(W^T) x packB(grad_out band), scattered into
//          the parent grad_x through col2imViewStrided's hoisted
//          flank bounds (W^T panels come from the weight-panel cache
//          under a dgrad key).
//
// The materialized path (SCNN_SPLIT_EXEC=materialize) is the pinned
// reference: it replays the identical write order while routing every
// read through bounce copies (sliced patch rectangles, contiguous
// grad_out bands, freshly packed panels), so fused and materialized
// are bitwise-equal by construction and a parity failure isolates the
// zero-copy view machinery.
// ---------------------------------------------------------------------------

namespace {

/** The dgrad operand: W^T packed A panels, A(i, p) =
 * weight[p*krows+i], from the keyed cache under a dgrad key (so one
 * layer caches its forward and backward layouts side by side). */
PanelRef
dgradPanels(const Tensor &weight)
{
    const int64_t oc = weight.shape().dim(0);
    const int64_t krows = weight.numel() / oc;
#ifndef NDEBUG
    const int64_t packs_before = gemmPackACalls();
    const SplitWeightCacheStats stats_before = splitWeightCacheStats();
#endif
    PanelRef wref = weightCache().lookupOrPack(
        weight.data(), oc * krows, krows, oc, PanelKind::Dgrad,
        gemmPackedASize(krows, oc), [&](float *dst) {
            gemmPackAStrided(krows, oc, 1.0f, weight.data(), /*rs=*/1,
                             /*cs=*/krows, dst);
        });
#ifndef NDEBUG
    if (splitWeightCacheStats().hits > stats_before.hits)
        SCNN_CHECK(gemmPackACalls() == packs_before,
                   "weight-cache hit must not repack panels");
#endif
    return wref;
}

/** Fold a wave's @p count wgrad/bias partials into grad_w / grad_b
 * in order: gw holds [krows x oc] partials (grad_w transposed), gb
 * [oc] ones or null. */
void
foldPartials(const float *gw, const float *gb, int64_t count,
             int64_t krows, int64_t oc, Tensor &grad_w, Tensor &grad_b)
{
    foldWgradPartials(gw, count, krows, oc, grad_w.data());
    if (gb == nullptr)
        return;
    float *db = grad_b.data();
    for (int64_t k = 0; k < count; ++k)
        for (int64_t o = 0; o < oc; ++o)
            db[o] += gb[k * oc + o];
}

void
checkShadow(std::unique_ptr<ShadowSession> &shadow)
{
    if (!shadow)
        return;
    const std::vector<Diagnostic> escapes = shadow->check();
    SCNN_CHECK(escapes.empty(),
               "shadow-access validator: "
                   << escapes.size()
                   << " SA607 escape(s) in split conv backward; "
                      "first: "
                   << escapes.front().toString());
}

/**
 * The band-fused backward over the parent form. Images fan out in
 * waves; a worker owns an image and runs its bands serially
 * ascending, so halo scatter-adds into grad_x land in a fixed order.
 * Per band the staged columns feed both gradient GEMMs: wgrad chains
 * every patch of the image into one per-image partial (reduced in
 * image order after each wave), dgrad scatters through
 * col2imViewStrided. @p materialize routes every read through bounce
 * copies (see splitConv2dBackwardMaterialized).
 */
void
splitConvBackwardBands(const SplitConvLayout &l, const ConvDims &d,
                       const float *x, const float *grad_out,
                       float *grad_x, const Tensor &weight,
                       Tensor &grad_w, Tensor &grad_b, bool materialize)
{
    const int64_t n = d.n;
    const int64_t c = d.c;
    const int64_t oc = d.oc;
    const int64_t krows = d.krows;
    const int64_t width = d.width;
    const int64_t max_band_cols = d.max_band_cols;
    const int64_t n_bands = static_cast<int64_t>(d.bands.size());
    const int64_t panel_floats = gemmPackedASize(krows, oc);
    const bool has_bias = grad_b.numel() > 0;
    const SplitConvPatch &p00 = l.patches[0];
    const int64_t ih = p00.ih;
    const int64_t iw = p00.iw;
    const int64_t ospatial = p00.out_h * p00.out_w;

    auto &arena = ScratchArena::tls();
    auto guard = arena.scope();

    // The fused path serves W^T panels from the cache; the pinned
    // reference packs fresh every call.
    const float *wt_panels = nullptr;
    PanelRef wref;
    if (materialize) {
        float *fresh = arena.alloc(panel_floats);
        gemmPackAStrided(krows, oc, 1.0f, weight.data(), /*rs=*/1,
                         /*cs=*/krows, fresh);
        wt_panels = fresh;
    } else {
        wref = dgradPanels(weight);
        wt_panels = wref.panels;
    }

    const int64_t wave = std::max<int64_t>(1, globalThreads());
    float *gw_acc = arena.alloc(wave * krows * oc);
    float *gb_acc = has_bias ? arena.alloc(wave * oc) : nullptr;

    int64_t max_patch = 0;
    for (const SplitConvPatch &p : l.patches)
        max_patch = std::max(max_patch, p.view.ih * p.view.iw);

    std::unique_ptr<ShadowSession> shadow;
    if (!materialize && shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitConvBackwardPlan(n, c, oc, l));
        shadow->bind("grad_x", grad_x);
        shadow->bind("grad_out", grad_out);
        shadow->bind("input", x);
        shadow->bind("weight_panels", wt_panels);
        shadow->bind("grad_w", grad_w.data());
        if (has_bias)
            shadow->bind("grad_b", grad_b.data());
    }

    for (int64_t w0 = 0; w0 < n; w0 += wave) {
        const int64_t wn = std::min(wave, n - w0);
        globalPool().parallelFor(wn, [&](int64_t begin, int64_t end) {
            auto &warena = ScratchArena::tls();
            auto wguard = warena.scope();
            float *col = warena.alloc(krows * max_band_cols);
            float *gcol = warena.alloc(krows * max_band_cols);
            float *pa_col =
                warena.alloc(gemmPackedASize(krows, max_band_cols));
            float *pb_got =
                warena.alloc(gemmPackedBSize(max_band_cols, oc));
            float *pb_go =
                warena.alloc(gemmPackedBSize(oc, max_band_cols));
            float *patch_buf =
                materialize ? warena.alloc(c * max_patch) : nullptr;
            float *go_buf = materialize
                                ? warena.alloc(oc * max_band_cols)
                                : nullptr;
            for (int64_t wi = begin; wi < end; ++wi) {
                const int64_t in = w0 + wi;
                const float *go = grad_out + in * oc * ospatial;
                const float *img = x + in * c * ih * iw;
                float *gx_img = grad_x + in * c * ih * iw;
                float *gw_img = gw_acc + wi * krows * oc;
                for (int64_t bi = 0; bi < n_bands; ++bi) {
                    const SplitBandItem &band =
                        d.bands[static_cast<size_t>(bi)];
                    const SplitConvPatch &p0 = l.at(band.hi, 0);
                    const int64_t nb = (band.oy1 - band.oy0) * width;
                    const float *go_band =
                        go + (p0.oy0 + band.oy0) * width;
                    if (shadow) {
                        shadowSetItem(in * n_bands + bi);
                        // The band's grad_out rows of every output
                        // channel and its shared panel read; input
                        // reads and grad_x scatters are recorded
                        // inside the view kernels.
                        shadowRecordSpan(go_band,
                                         {0, oc, ospatial, 1, 0, nb},
                                         false);
                        shadowRecord(wt_panels, panel_floats, false);
                    }
                    for (int pi = 0; pi < l.wp; ++pi) {
                        const SplitConvPatch &p = l.at(band.hi, pi);
                        if (!materialize) {
                            im2colViewStrided(img, c, ih, iw, p.view,
                                              p.win, band.oy0, band.oy1,
                                              col + l.colStart(pi), nb,
                                              width);
                            continue;
                        }
                        // Reference: bounce-copy the patch rectangle
                        // and stage from the copy — byte-equal
                        // columns, but no view machinery on the read
                        // side.
                        const PatchView &view = p.view;
                        for (int64_t ic = 0; ic < c; ++ic)
                            for (int64_t y = 0; y < view.ih; ++y)
                                std::memcpy(
                                    patch_buf +
                                        (ic * view.ih + y) * view.iw,
                                    img + ic * ih * iw +
                                        (view.r0 + y) * iw + view.c0,
                                    static_cast<size_t>(view.iw) *
                                        sizeof(float));
                        im2colViewStrided(
                            patch_buf, c, view.ih, view.iw,
                            PatchView::full(view.ih, view.iw), p.win,
                            band.oy0, band.oy1, col + l.colStart(pi),
                            nb, width);
                    }
                    const float *go_src = go_band;
                    int64_t go_ld = ospatial;
                    if (materialize) {
                        for (int64_t o = 0; o < oc; ++o)
                            std::memcpy(go_buf + o * nb,
                                        go_band + o * ospatial,
                                        static_cast<size_t>(nb) *
                                            sizeof(float));
                        go_src = go_buf;
                        go_ld = nb;
                    }
                    // wgrad: gw_img (krows x oc, grad_w transposed)
                    // accumulates this band's columns x grad_out^T
                    // product; beta = 1 chains bands ascending.
                    gemmPackA(krows, nb, 1.0f, col, pa_col);
                    gemmPackBStrided(nb, oc, go_src, /*rs=*/1,
                                     /*cs=*/go_ld, pb_got);
                    gemmPackedAB(krows, oc, nb, pa_col, pb_got,
                                 bi == 0 ? 0.0f : 1.0f, gw_img, oc);
                    // dgrad: gcol = W^T x grad_out band, scattered
                    // per width patch in ascending order.
                    gemmPackB(oc, nb, go_src, /*ldb=*/go_ld, pb_go);
                    gemmPackedAB(krows, nb, oc, wt_panels, pb_go,
                                 0.0f, gcol, nb);
                    for (int pi = 0; pi < l.wp; ++pi) {
                        const SplitConvPatch &p = l.at(band.hi, pi);
                        col2imViewStrided(gcol + l.colStart(pi), c, ih,
                                          iw, p.view, p.win, band.oy0,
                                          band.oy1, gx_img, nb, width);
                    }
                }
                if (has_bias) {
                    float *gb = gb_acc + wi * oc;
                    if (shadow) {
                        shadowSetItem(n * n_bands + in);
                        shadowRecord(go, oc * ospatial, false);
                    }
                    std::fill(gb, gb + oc, 0.0f);
                    addRowSums(go, oc, ospatial, gb);
                }
            }
        });
        if (shadow)
            for (int64_t wi = 0; wi < wn; ++wi) {
                shadowSetItem(n * n_bands + n + w0 + wi);
                shadowRecord(grad_w.data(), oc * krows, true);
                if (has_bias)
                    shadowRecord(grad_b.data(), oc, true);
            }
        foldPartials(gw_acc, gb_acc, wn, krows, oc, grad_w, grad_b);
    }
    checkShadow(shadow);
}

/**
 * The backward over the patch form, bitwise equal to running
 * conv2dBackward on every patch clone in reverse patch order (the
 * clone graph's backward). dgrad is band-fused: per (image, band)
 * the grad_out rows of every width patch are gathered into one
 * [oc x nb] matrix, one GEMM against the cached W^T panels covers
 * them all, and each patch's columns scatter into its own grad_x
 * tensor — every gradient element sees exactly conv2dBackward's
 * arithmetic. wgrad and bias keep the clone graph's reduction order
 * (see splitConvWgradBlocks), so grad_w and grad_b match the clone
 * graph byte for byte.
 */
void
splitConvBackwardPatchBands(const SplitConvLayout &l, const ConvDims &d,
                            const std::vector<const float *> &xs,
                            const std::vector<const float *> &gys,
                            const std::vector<float *> &gxs,
                            const Tensor &weight, Tensor &grad_w,
                            Tensor &grad_b)
{
    const int64_t n = d.n;
    const int64_t c = d.c;
    const int64_t oc = d.oc;
    const int64_t krows = d.krows;
    const int64_t width = d.width;
    const int64_t max_band_cols = d.max_band_cols;
    const int64_t n_bands = static_cast<int64_t>(d.bands.size());
    const int64_t parts = static_cast<int64_t>(l.patches.size());
    const int64_t panel_floats = gemmPackedASize(krows, oc);
    const bool has_bias = grad_b.numel() > 0;
    int64_t max_patch_cols = 0;
    for (const SplitConvPatch &p : l.patches)
        max_patch_cols = std::max(
            max_patch_cols,
            std::min(p.outH(), kSplitConvRowBand) * p.outW());

    const PanelRef wref = dgradPanels(weight);

    std::unique_ptr<ShadowSession> shadow;
    if (shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitConvBackwardPlan(n, c, oc, l));
        bindTensors(*shadow, "grad_x", gxs);
        bindTensors(*shadow, "grad_out", gys);
        bindTensors(*shadow, "input", xs);
        shadow->bind("weight_panels", wref.panels);
        shadow->bind("grad_w", grad_w.data());
        if (has_bias)
            shadow->bind("grad_b", grad_b.data());
    }

    // dgrad: a worker owns an image and runs its bands ascending.
    globalPool().parallelFor(n, [&](int64_t begin, int64_t end) {
        auto &warena = ScratchArena::tls();
        auto wguard = warena.scope();
        float *go_buf = warena.alloc(oc * max_band_cols);
        float *gcol = warena.alloc(krows * max_band_cols);
        float *pb_go = warena.alloc(gemmPackedBSize(oc, max_band_cols));
        for (int64_t in = begin; in < end; ++in) {
            for (int64_t bi = 0; bi < n_bands; ++bi) {
                const SplitBandItem &band =
                    d.bands[static_cast<size_t>(bi)];
                const int64_t rows = band.oy1 - band.oy0;
                const int64_t nb = rows * width;
                if (shadow) {
                    shadowSetItem(in * n_bands + bi);
                    shadowRecord(wref.panels, panel_floats, false);
                }
                for (int pi = 0; pi < l.wp; ++pi) {
                    const SplitConvPatch &p = l.at(band.hi, pi);
                    const float *src =
                        patchOutput(p, gys[p.out_tensor], oc, in) +
                        band.oy0 * p.out_w;
                    if (shadow)
                        shadowRecordSpan(src,
                                         {0, oc, p.out_h * p.out_w, rows,
                                          p.out_w, p.outW()},
                                         false);
                    for (int64_t o = 0; o < oc; ++o)
                        for (int64_t r = 0; r < rows; ++r)
                            std::memcpy(go_buf + o * nb + r * width +
                                            l.colStart(pi),
                                        src + o * p.out_h * p.out_w +
                                            r * p.out_w,
                                        static_cast<size_t>(p.outW()) *
                                            sizeof(float));
                }
                gemmPackB(oc, nb, go_buf, /*ldb=*/nb, pb_go);
                gemmPackedAB(krows, nb, oc, wref.panels, pb_go, 0.0f,
                             gcol, nb);
                for (int pi = 0; pi < l.wp; ++pi) {
                    const SplitConvPatch &p = l.at(band.hi, pi);
                    col2imViewStrided(
                        gcol + l.colStart(pi), c, p.ih, p.iw, p.view,
                        p.win, band.oy0, band.oy1,
                        gxs[p.in_tensor] + in * c * p.ih * p.iw, nb,
                        width);
                }
            }
        }
    });

    // wgrad + bias: output-channel blocks fan out, and each block
    // replays the clone graph's order for its rows of grad_w —
    // patches last to first, images ascending, each (patch, image)
    // partial chained over the patch's bands. The partial is computed
    // transposed (grad_out rows x columns^T), so it lands in grad_w's
    // layout; every element still accumulates the same products in
    // the same order as conv2dBackward's.
    const std::vector<SplitWgradBlock> blocks = splitConvWgradBlocks(oc);
    globalPool().parallelFor(
        static_cast<int64_t>(blocks.size()), [&](int64_t begin,
                                                 int64_t end) {
            auto &warena = ScratchArena::tls();
            auto wguard = warena.scope();
            float *col = warena.alloc(krows * max_patch_cols);
            float *pb_col =
                warena.alloc(gemmPackedBSize(max_patch_cols, krows));
            float *gb = warena.alloc(oc);
            for (int64_t bi = begin; bi < end; ++bi) {
                const SplitWgradBlock &blk =
                    blocks[static_cast<size_t>(bi)];
                const int64_t m = blk.o1 - blk.o0;
                auto bguard = warena.scope();
                float *pa_go =
                    warena.alloc(gemmPackedASize(m, max_patch_cols));
                float *part = warena.alloc(m * krows);
                float *gw_rows = grad_w.data() + blk.o0 * krows;
                if (shadow) {
                    shadowSetItem(n * n_bands + bi);
                    shadowRecord(gw_rows, m * krows, true);
                    if (has_bias)
                        shadowRecord(grad_b.data() + blk.o0, m, true);
                }
                for (int64_t q = 0; q < parts; ++q) {
                    const SplitConvPatch &p =
                        l.patches[static_cast<size_t>(parts - 1 - q)];
                    const int64_t spatial = p.out_h * p.out_w;
                    for (int64_t in = 0; in < n; ++in) {
                        const float *img =
                            patchInput(p, xs[p.in_tensor], c, in);
                        const float *go = gys[p.out_tensor] +
                                          (in * oc + blk.o0) * spatial;
                        if (shadow)
                            shadowRecordSpan(go, {0, m, spatial, 1, 0,
                                                  spatial},
                                             false);
                        for (int64_t oy0 = 0; oy0 < p.outH();
                             oy0 += kSplitConvRowBand) {
                            const int64_t oy1 = std::min(
                                p.outH(), oy0 + kSplitConvRowBand);
                            const int64_t nb = (oy1 - oy0) * p.outW();
                            im2colView(img, c, p.ih, p.iw, p.view, p.win,
                                       oy0, oy1, col);
                            gemmPackBStrided(nb, krows, col, /*rs=*/1,
                                             /*cs=*/nb, pb_col);
                            gemmPackAStrided(m, nb, 1.0f,
                                             go + oy0 * p.out_w,
                                             /*rs=*/spatial, /*cs=*/1,
                                             pa_go);
                            gemmPackedAB(m, krows, nb, pa_go, pb_col,
                                         oy0 == 0 ? 0.0f : 1.0f, part,
                                         krows);
                        }
                        for (int64_t i = 0; i < m * krows; ++i)
                            gw_rows[i] += part[i];
                        if (has_bias) {
                            std::fill(gb, gb + m, 0.0f);
                            addRowSums(go, m, spatial, gb);
                            float *db = grad_b.data() + blk.o0;
                            for (int64_t o = 0; o < m; ++o)
                                db[o] += gb[o];
                        }
                    }
                }
            }
        });
    checkShadow(shadow);
}

void
splitConv2dBackwardImpl(const Tensor &x, const Tensor &weight,
                        const Tensor &grad_out, const Window2d &win,
                        const SplitScheme2d &scheme, Tensor &grad_x,
                        Tensor &grad_w, Tensor &grad_b,
                        bool materialize)
{
    SCNN_REQUIRE(x.shape().rank() == 4, "split conv input must be NCHW");
    const SplitConvLayout l = splitConvParentLayout(
        win, x.shape().dim(2), x.shape().dim(3), scheme);
    const ConvDims d =
        convDims(l, x.shape().dim(0), x.shape().dim(1), weight);
    SCNN_CHECK(grad_out.shape() == Shape({d.n, d.oc, l.patches[0].out_h,
                                          l.patches[0].out_w}),
               "split conv grad_out shape mismatch: "
                   << grad_out.shape().toString());
    SCNN_CHECK(grad_w.shape() == weight.shape(),
               "grad_w must be pre-shaped like weight");
    if (grad_b.numel() > 0)
        SCNN_REQUIRE(grad_b.numel() == d.oc,
                     "split conv grad_b size mismatch");
    grad_x = Tensor(x.shape()); // zero: halo scatters accumulate
    splitConvBackwardBands(l, d, x.data(), grad_out.data(), grad_x.data(),
                           weight, grad_w, grad_b, materialize);
}

} // namespace

void
splitConv2dBackwardPatches(const SplitConvLayout &layout,
                           const std::vector<const Tensor *> &xs,
                           const Tensor &weight,
                           const std::vector<const Tensor *> &grad_outs,
                           std::vector<Tensor> &grad_xs, Tensor &grad_w,
                           Tensor &grad_b)
{
    SCNN_REQUIRE(static_cast<int>(xs.size()) == layout.inputTensors() &&
                     static_cast<int>(grad_outs.size()) ==
                         layout.outputTensors(),
                 "split conv patch backward: tensor count mismatch");
    const Shape &s0 = xs[0]->shape();
    SCNN_REQUIRE(s0.rank() == 4, "split conv input must be NCHW");
    const ConvDims d = convDims(layout, s0.dim(0), s0.dim(1), weight);
    for (const SplitConvPatch &p : layout.patches) {
        SCNN_REQUIRE(xs[p.in_tensor]->shape() ==
                         Shape({d.n, d.c, p.ih, p.iw}),
                     "split conv patch input shape "
                         << xs[p.in_tensor]->shape().toString());
        SCNN_REQUIRE(grad_outs[p.out_tensor]->shape() ==
                         Shape({d.n, d.oc, p.out_h, p.out_w}),
                     "split conv patch grad_out shape "
                         << grad_outs[p.out_tensor]->shape().toString());
    }
    std::vector<const float *> xp, gyp;
    std::vector<float *> gxp;
    grad_xs.resize(xs.size());
    for (size_t k = 0; k < xs.size(); ++k) {
        xp.push_back(xs[k]->data());
        grad_xs[k] = Tensor(xs[k]->shape()); // zero: scatter target
        gxp.push_back(grad_xs[k].data());
    }
    for (const Tensor *t : grad_outs)
        gyp.push_back(t->data());
    SCNN_CHECK(grad_w.shape() == weight.shape(),
               "grad_w must be pre-shaped like weight");
    if (grad_b.numel() > 0)
        SCNN_REQUIRE(grad_b.numel() == d.oc,
                     "split conv grad_b size mismatch");
    splitConvBackwardPatchBands(layout, d, xp, gyp, gxp, weight, grad_w,
                                grad_b);
}

void
splitConv2dBackwardFused(const Tensor &x, const Tensor &weight,
                         const Tensor &grad_out, const Window2d &win,
                         const SplitScheme2d &scheme, Tensor &grad_x,
                         Tensor &grad_w, Tensor &grad_b)
{
    splitConv2dBackwardImpl(x, weight, grad_out, win, scheme, grad_x,
                            grad_w, grad_b, /*materialize=*/false);
}

void
splitConv2dBackwardMaterialized(const Tensor &x, const Tensor &weight,
                                const Tensor &grad_out,
                                const Window2d &win,
                                const SplitScheme2d &scheme,
                                Tensor &grad_x, Tensor &grad_w,
                                Tensor &grad_b)
{
    splitConv2dBackwardImpl(x, weight, grad_out, win, scheme, grad_x,
                            grad_w, grad_b, /*materialize=*/true);
}

void
splitConv2dBackward(const Tensor &x, const Tensor &weight,
                    const Tensor &grad_out, const Window2d &win,
                    const SplitScheme2d &scheme, Tensor &grad_x,
                    Tensor &grad_w, Tensor &grad_b)
{
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitConvBackwardPlan(
                          std::min<int64_t>(x.shape().dim(0), 2),
                          x.shape().dim(1), x.shape().dim(2),
                          x.shape().dim(3), weight.shape().dim(0),
                          win, scheme),
                      "split conv backward");
    if (envMaterialize()) {
        splitConv2dBackwardMaterialized(x, weight, grad_out, win,
                                        scheme, grad_x, grad_w,
                                        grad_b);
        return;
    }
    splitConv2dBackwardFused(x, weight, grad_out, win, scheme, grad_x,
                             grad_w, grad_b);
}

namespace {

/**
 * Shared driver for the split pool backward paths: one image per
 * worker, the image's patches scattered serially ascending so halo
 * targets (k > s windows straddling a patch seam) accumulate in a
 * fixed order. @p scatter receives the patch geometry plus the
 * grad_out block to read — either the parent tensor directly (fused)
 * or a bounce copy with identical contents (materialized) — and adds
 * into grad_x through the patch's view; both paths therefore produce
 * identical bytes.
 */
template <typename Scatter>
Tensor
splitPool2dBackwardImpl(const Shape &in_shape, const Tensor &grad_out,
                        const SplitScheme2d &scheme, bool materialize,
                        Scatter &&scatter)
{
    SCNN_REQUIRE(in_shape.rank() == 4, "split pool input must be NCHW");
    SCNN_CHECK(scheme.h.parts() > 0 && scheme.w.parts() > 0,
               "empty split scheme");
    const int64_t n = in_shape.dim(0);
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    SCNN_CHECK(grad_out.shape() == Shape({n, c, out_h, out_w}),
               "split pool grad_out shape mismatch: "
                   << grad_out.shape().toString());

    const int hp = scheme.h.parts();
    const int wp = scheme.w.parts();
    const int64_t parts = int64_t(hp) * wp;

    Tensor grad_x(in_shape); // zero: scatter-add target

    std::unique_ptr<ShadowSession> shadow;
    if (!materialize && shadowAccessEnabled()) {
        shadow = std::make_unique<ShadowSession>(
            buildSplitPoolBackwardPlan(n, c, ih, iw, Window2d{},
                                       scheme));
        shadow->bind("grad_x", grad_x.data());
        shadow->bind("grad_out", grad_out.data());
    }

    globalPool().parallelFor(n, [&](int64_t nb, int64_t ne) {
        for (int64_t in = nb; in < ne; ++in) {
            for (int64_t pi = 0; pi < parts; ++pi) {
                const int hi = static_cast<int>(pi / wp);
                const int wi = static_cast<int>(pi % wp);
                const SplitPiece1d &ph = scheme.h.pieces[hi];
                const SplitPiece1d &pw = scheme.w.pieces[wi];
                if (shadow) {
                    shadowSetItem(in * parts + pi);
                    // The patch's input-hull write and output-block
                    // read — the spans the SA6xx backward model
                    // predicts for this item.
                    const int64_t first =
                        ph.in_start * iw + pw.in_start;
                    const int64_t last =
                        (c - 1) * ih * iw +
                        (ph.in_start + ph.inLen() - 1) * iw +
                        pw.in_start + pw.inLen();
                    shadowRecord(grad_x.data() + in * c * ih * iw +
                                     first,
                                 last - first, true);
                    shadowRecordSpan(
                        grad_out.data() + in * c * out_h * out_w +
                            ph.out_start * out_w + pw.out_start,
                        {0, c, out_h * out_w, ph.outLen(), out_w,
                         pw.outLen()},
                        false);
                }
                scatter(grad_x, in, hi, wi);
            }
        }
    });
    if (shadow) {
        const std::vector<Diagnostic> escapes = shadow->check();
        SCNN_CHECK(escapes.empty(),
                   "shadow-access validator: "
                       << escapes.size()
                       << " SA607 escape(s) in split pool backward; "
                          "first: "
                       << escapes.front().toString());
    }
    return grad_x;
}

} // namespace

Tensor
splitMaxPool2dBackwardFused(const Shape &in_shape,
                            const Tensor &grad_out,
                            const std::vector<int64_t> &argmax,
                            const SplitScheme2d &scheme)
{
    SCNN_CHECK(static_cast<int64_t>(argmax.size()) == grad_out.numel(),
               "argmax size mismatch");
    const int64_t c = in_shape.dim(1);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    return splitPool2dBackwardImpl(
        in_shape, grad_out, scheme, /*materialize=*/false,
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            // The forward argmax is absolute into the whole input
            // tensor, and every argmax of an output in this block
            // lies inside the patch's input rectangle (Eqs. 1-2).
            for (int64_t ic = 0; ic < c; ++ic)
                for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy)
                    for (int64_t ox = pw.out_start; ox < pw.out_end;
                         ++ox) {
                        const int64_t oi =
                            ((in * c + ic) * out_h + oy) * out_w + ox;
                        const int64_t idx =
                            argmax[static_cast<size_t>(oi)];
                        if (idx >= 0)
                            gx.at(idx) += grad_out.at(oi);
                    }
        });
}

Tensor
splitMaxPool2dBackwardMaterialized(const Shape &in_shape,
                                   const Tensor &grad_out,
                                   const std::vector<int64_t> &argmax,
                                   const SplitScheme2d &scheme)
{
    SCNN_CHECK(static_cast<int64_t>(argmax.size()) == grad_out.numel(),
               "argmax size mismatch");
    const int64_t c = in_shape.dim(1);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    return splitPool2dBackwardImpl(
        in_shape, grad_out, scheme, /*materialize=*/true,
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            // Reference: bounce-copy the block's grad_out values and
            // argmax slots, then scatter in the identical order.
            const int64_t bh = ph.outLen();
            const int64_t bw = pw.outLen();
            std::vector<float> go_buf(
                static_cast<size_t>(c * bh * bw));
            std::vector<int64_t> am_buf(
                static_cast<size_t>(c * bh * bw));
            int64_t bo = 0;
            for (int64_t ic = 0; ic < c; ++ic)
                for (int64_t oy = ph.out_start; oy < ph.out_end; ++oy)
                    for (int64_t ox = pw.out_start; ox < pw.out_end;
                         ++ox, ++bo) {
                        const int64_t oi =
                            ((in * c + ic) * out_h + oy) * out_w + ox;
                        go_buf[static_cast<size_t>(bo)] =
                            grad_out.at(oi);
                        am_buf[static_cast<size_t>(bo)] =
                            argmax[static_cast<size_t>(oi)];
                    }
            for (int64_t i = 0; i < bo; ++i) {
                const int64_t idx = am_buf[static_cast<size_t>(i)];
                if (idx >= 0)
                    gx.at(idx) += go_buf[static_cast<size_t>(i)];
            }
        });
}

Tensor
splitMaxPool2dBackward(const Shape &in_shape, const Tensor &grad_out,
                       const std::vector<int64_t> &argmax,
                       const SplitScheme2d &scheme)
{
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolBackwardPlan(
                          std::min<int64_t>(in_shape.dim(0), 2),
                          in_shape.dim(1), in_shape.dim(2),
                          in_shape.dim(3), Window2d{}, scheme),
                      "split max-pool backward");
    if (envMaterialize())
        return splitMaxPool2dBackwardMaterialized(in_shape, grad_out,
                                                  argmax, scheme);
    return splitMaxPool2dBackwardFused(in_shape, grad_out, argmax,
                                       scheme);
}

namespace {

/** The avg-pool patch scatter: the exact adjoint of avgPool2dPatch —
 * every in-view tap of an output in the patch block receives
 * grad * 1/(kh*kw) (count_include_pad: out-of-view taps are parent
 * padding and get nothing, exactly as the forward reads them as
 * zero). @p go points at the block's first element; rows are
 * @p go_rs apart and channels @p go_cs apart, so the fused path
 * reads the parent grad_out in place and the reference path reads a
 * contiguous bounce copy — same values, same order, same bytes. */
void
avgPoolPatchScatter(Tensor &gx, const float *go, int64_t go_rs,
                    int64_t go_cs, int64_t in, int64_t c, int64_t ih,
                    int64_t iw, const Window2d &win,
                    const SplitScheme2d &scheme, int hi, int wi)
{
    const SplitPiece1d &ph = scheme.h.pieces[hi];
    const SplitPiece1d &pw = scheme.w.pieces[wi];
    const PatchView view{ph.in_start, pw.in_start, ph.inLen(),
                         pw.inLen()};
    const Window2d local = patchWindow(win, scheme, hi, wi);
    const float inv_area =
        1.0f / static_cast<float>(win.kh * win.kw);
    const int64_t bh = ph.outLen();
    const int64_t bw = pw.outLen();
    for (int64_t ic = 0; ic < c; ++ic) {
        float *chan = gx.data() + (in * c + ic) * ih * iw;
        const float *gchan = go + ic * go_cs;
        for (int64_t oy = 0; oy < bh; ++oy)
            for (int64_t ox = 0; ox < bw; ++ox) {
                const float g = gchan[oy * go_rs + ox] * inv_area;
                for (int64_t ky = 0; ky < local.kh; ++ky) {
                    const int64_t iy =
                        oy * local.sh - local.ph_b + ky;
                    if (iy < 0 || iy >= view.ih)
                        continue;
                    for (int64_t kx = 0; kx < local.kw; ++kx) {
                        const int64_t ix =
                            ox * local.sw - local.pw_b + kx;
                        if (ix >= 0 && ix < view.iw)
                            chan[view.parentOffset(iy, ix, iw)] += g;
                    }
                }
            }
    }
}

} // namespace

Tensor
splitAvgPool2dBackwardFused(const Shape &in_shape,
                            const Tensor &grad_out,
                            const Window2d &win,
                            const SplitScheme2d &scheme)
{
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    return splitPool2dBackwardImpl(
        in_shape, grad_out, scheme, /*materialize=*/false,
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            // Zero-copy: the scatter reads the block straight out of
            // the parent grad_out at the parent strides.
            const float *go = grad_out.data() +
                              (in * c * out_h + ph.out_start) * out_w +
                              pw.out_start;
            avgPoolPatchScatter(gx, go, /*go_rs=*/out_w,
                                /*go_cs=*/out_h * out_w, in, c, ih,
                                iw, win, scheme, hi, wi);
        });
}

Tensor
splitAvgPool2dBackwardMaterialized(const Shape &in_shape,
                                   const Tensor &grad_out,
                                   const Window2d &win,
                                   const SplitScheme2d &scheme)
{
    const int64_t c = in_shape.dim(1);
    const int64_t ih = in_shape.dim(2);
    const int64_t iw = in_shape.dim(3);
    const int64_t out_h = scheme.h.pieces.back().out_end;
    const int64_t out_w = scheme.w.pieces.back().out_end;
    return splitPool2dBackwardImpl(
        in_shape, grad_out, scheme, /*materialize=*/true,
        [&](Tensor &gx, int64_t in, int hi, int wi) {
            const SplitPiece1d &ph = scheme.h.pieces[hi];
            const SplitPiece1d &pw = scheme.w.pieces[wi];
            // Reference: bounce-copy the block, scatter from the
            // copy in the identical order.
            const int64_t bh = ph.outLen();
            const int64_t bw = pw.outLen();
            std::vector<float> block(
                static_cast<size_t>(c * bh * bw));
            for (int64_t ic = 0; ic < c; ++ic)
                for (int64_t oy = 0; oy < bh; ++oy)
                    std::memcpy(
                        block.data() + (ic * bh + oy) * bw,
                        grad_out.data() +
                            ((in * c + ic) * out_h + ph.out_start +
                             oy) *
                                out_w +
                            pw.out_start,
                        static_cast<size_t>(bw) * sizeof(float));
            avgPoolPatchScatter(gx, block.data(), /*go_rs=*/bw,
                                /*go_cs=*/bh * bw, in, c, ih, iw, win,
                                scheme, hi, wi);
        });
}

Tensor
splitAvgPool2dBackward(const Shape &in_shape, const Tensor &grad_out,
                       const Window2d &win,
                       const SplitScheme2d &scheme)
{
    if (lintParallelEnabled())
        lintSplitPlan(buildSplitPoolBackwardPlan(
                          std::min<int64_t>(in_shape.dim(0), 2),
                          in_shape.dim(1), in_shape.dim(2),
                          in_shape.dim(3), win, scheme),
                      "split avg-pool backward");
    if (envMaterialize())
        return splitAvgPool2dBackwardMaterialized(in_shape, grad_out,
                                                  win, scheme);
    return splitAvgPool2dBackwardFused(in_shape, grad_out, win,
                                       scheme);
}

} // namespace scnn
