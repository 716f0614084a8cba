/**
 * @file
 * End-to-end Split-CNN training benchmark. One process runs one
 * workload: a closed loop with one caller that trains through the
 * public library API (buildModel, splitCnnTransform, the HMMS
 * planner, ParamStore, Executor, softmaxXent*, Sgd, SyntheticDataset)
 * following the trainModel protocol, interleaving one eval batch per
 * two train steps. It prints one JSON object of raw samples on
 * stdout; perfbench/run.py turns it into metrics.
 *
 *   e2e_bench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-file PATH]
 *
 * S fixes the timed work: round(S x the workload's nominal step rate)
 * train steps, so every run of a workload collects the same number of
 * samples whatever the speed of the code. S = 0 sets up once and
 * trains just up to the checked step.
 *
 * With --trace 1 every other train step and eval batch records spans,
 * the kernels are replayed after the loop, and the trace is written
 * to --trace-file.
 */
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/split_op.h"
#include "core/splitter.h"
#include "data/synthetic.h"
#include "heap_counter.h"
#include "hmms/planner.h"
#include "hmms/static_planner.h"
#include "hmms/tso.h"
#include "kernels/activations.h"
#include "kernels/gemm.h"
#include "kernels/microkernel.h"
#include "models/models.h"
#include "replay.h"
#include "sim/profile.h"
#include "trace.h"
#include "train/executor.h"
#include "train/sgd.h"
#include "util/threadpool.h"

extern char **environ;

namespace perfbench {

using namespace scnn;

namespace {

/** One benchmark workload (see BENCHMARK.json for why each exists). */
struct Workload
{
    const char *name;
    const char *model;
    int64_t batch;
    double depth; ///< 0 = unsplit
    int grid;     ///< grid x grid patches
    bool stochastic;
    int threads;
    bool eval_split; ///< evaluate on the split graph (else unsplit)
    /** Train steps (with their share of eval batches) per second of
     *  --seconds: the rate the library reached on a 4-vCPU AVX2 host
     *  when this benchmark was written, so a run lasts about
     *  --seconds there. */
    double steps_per_s;
};

constexpr Workload kWorkloads[] = {
    {"vgg19_scnn_4x4", "vgg19", 8, 0.5, 4, false, 2, true, 3.2},
    {"vgg19_baseline", "vgg19", 8, 0.0, 1, false, 2, false, 5.4},
    {"resnet18_sscnn_2x2", "resnet18", 16, 0.5, 2, true, 2, false, 2.8},
};

constexpr double kWidth = 0.25;
constexpr int64_t kImage = 32;
constexpr double kOmega = 0.2;
constexpr SgdConfig kSgd{.lr = 0.05f, .momentum = 0.9f,
                         .weight_decay = 1e-4f};
/** Set-up repetitions of a timed run; the report takes their median. */
constexpr int kSetups = 3;
/** Train steps (and one eval batch) run inside each set-up. */
constexpr int kWarmupSteps = 2;
/** One eval batch per this many train steps (512 : 256 samples). */
constexpr int kTrainPerEval = 2;
/** The loss of this step (1-based, counted from parameter init) is
 *  checked against the committed reference. */
constexpr int kCheckStep = 12;
constexpr int kReplayReps = 5;

// Every random stream derives from the workload seed: parameter init
// uses it as is, the others xor it with these.
constexpr uint64_t kOrderSeedXor = 0x0d47a0d3e5ULL;
constexpr uint64_t kSplitSeedXor = 0x5b117a5eedULL;
constexpr uint64_t kProbeSeedXor = 0x9e3779b97f4a7c15ULL;

/** Library switches that select a non-production path. */
constexpr const char *kForbiddenEnv[] = {
    "SCNN_GEMM",          "SCNN_SIMD",          "SCNN_SPLIT_EXEC",
    "SCNN_SPLIT_WINOGRAD", "SCNN_SHADOW_ACCESS", "SCNN_LINT_PARALLEL",
    "SCNN_LINT_PLANS"};

#ifdef NDEBUG
constexpr bool kNdebug = true;
#else
constexpr bool kNdebug = false;
#endif

std::string
jsonArray(const std::vector<double> &v)
{
    std::ostringstream os;
    os.precision(17);
    os << '[';
    for (size_t i = 0; i < v.size(); ++i)
        os << (i ? ", " : "") << v[i];
    os << ']';
    return os.str();
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** Phase names of a train step, in span order. */
constexpr const char *kStepPhases[] = {
    "data.batch",     "core.transform", "train.executor_ctor",
    "train.forward",  "train.loss",     "train.backward",
    "train.sgd"};
constexpr size_t kNumStepPhases = std::size(kStepPhases);

/** Attempted and failed operations of a whole run. */
class Ops
{
  public:
    /** Record a failed operation. */
    void fail(const std::string &what)
    {
        ++failed_;
        if (failures_.size() < 8)
            failures_.push_back(what);
    }

    /** Run @p op, counting it as attempted and, if it throws, failed. */
    template <typename F> void attempt(const char *what, F &&op)
    {
        ++attempted_;
        try {
            op();
        } catch (const std::exception &e) {
            fail(std::string(what) + ": " + e.what());
        }
    }

    int64_t attempted() const { return attempted_; }
    int64_t failed() const { return failed_; }
    const std::vector<std::string> &failures() const { return failures_; }

  private:
    int64_t attempted_ = 0;
    int64_t failed_ = 0;
    std::vector<std::string> failures_;
};

/** Samples of one timed train step. */
struct StepSample
{
    double ms = 0.0;
    double phase_ms[kNumStepPhases] = {};
    double peak_heap = 0.0;
    double allocs = 0.0;
    double alloc_bytes = 0.0;
    double pack_a = 0.0;
    double cache_hits = 0.0;
    double cache_misses = 0.0;
    double forward_cache_bytes = 0.0;
    double loss = 0.0;
    bool traced = false;
};

struct EvalSample
{
    double ms = 0.0;
    double data_ms = 0.0;
    double forward_ms = 0.0;
    double peak_heap = 0.0;
};

int64_t
forwardCacheBytes(const ForwardCache &c)
{
    int64_t bytes = 0;
    for (const auto &v : c.values)
        if (v.has_value())
            bytes += v->bytes();
    for (const auto &a : c.argmax)
        bytes += static_cast<int64_t>(a.size() * sizeof(int64_t));
    for (const auto &bn : c.bn)
        bytes += bn.mean.bytes() + bn.batch_var.bytes() +
                 bn.inv_std.bytes() + bn.x_hat.bytes();
    return bytes;
}

bool
allFinite(const Tensor &t)
{
    const float *p = t.data();
    for (int64_t i = 0; i < t.numel(); ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

/** All training state of one set-up. */
class Bench
{
  public:
    static constexpr const char *kSetupPhases[] = {
        "models.build", "core.transform", "hmms.plan",
        "train.param_init", "train.warmup"};
    static constexpr size_t kNumSetupPhases = std::size(kSetupPhases);

    Bench(const Workload &w, uint64_t seed, const SyntheticDataset &data,
          Tracer &tracer, Ops &ops)
        : w_(w), seed_(seed), data_(data), tracer_(tracer), ops_(ops)
    {
    }

    /** Build, transform, plan, init and warm up; returns seconds. */
    double setup();

    /** One train step; throws on library errors. */
    StepSample trainStep();
    EvalSample evalBatch();

    /** The graph the HMMS plan, the graph statistics and the kernel
     *  replay describe: the fixed split, one representative
     *  stochastic draw (a function of the seed), or the base. */
    const Graph &planGraph() const
    {
        return fixed_split_ ? *fixed_split_ : (probe_ ? *probe_ : base_);
    }
    const Graph &base() const { return base_; }
    ParamStore &params() { return *params_; }
    const SplitReport &report() const { return report_; }
    const StaticMemoryPlan &memPlan() const { return mem_plan_; }
    int64_t offloadedBytes() const { return offloaded_bytes_; }
    int64_t stepsDone() const { return steps_done_; }
    std::optional<double> checkLoss() const { return check_loss_; }
    double lastLoss() const { return last_loss_; }
    bool compatibleTrain() const { return compatible_train_; }
    bool compatibleEval() const { return compatible_eval_; }
    double setupPhaseMs(size_t i) const { return setup_ms_[i]; }

  private:
    SplitOptions splitOptions() const
    {
        return {.depth = w_.depth,
                .splits_h = w_.grid,
                .splits_w = w_.grid,
                .stochastic = w_.stochastic,
                .omega = kOmega};
    }

    const Workload &w_;
    const uint64_t seed_;
    const SyntheticDataset &data_;
    Tracer &tracer_;
    Ops &ops_;

    Graph base_;
    std::unique_ptr<Graph> fixed_split_;
    std::unique_ptr<Graph> probe_;
    SplitReport report_;
    StaticMemoryPlan mem_plan_;
    int64_t offloaded_bytes_ = 0;
    std::unique_ptr<ParamStore> params_;
    std::unique_ptr<Sgd> sgd_;
    std::unique_ptr<Executor> eval_ex_;
    Rng order_rng_, split_rng_;
    std::vector<int> order_;
    size_t cursor_ = 0;
    int64_t steps_done_ = 0;
    int64_t evals_done_ = 0;
    std::optional<double> check_loss_;
    double last_loss_ = 0.0;
    bool compatible_train_ = true;
    bool compatible_eval_ = true;
    double setup_ms_[kNumSetupPhases] = {};
};

double
Bench::setup()
{
    Span setup(tracer_, "setup");
    const bool split = w_.depth > 0.0;
    double *phase = setup_ms_;
    {
        Span sp(tracer_, "models.build");
        base_ = buildModel(w_.model, {.batch = w_.batch,
                                      .image = kImage,
                                      .classes = 10,
                                      .width = kWidth});
        phase[0] = sp.end();
    }
    if (split) {
        Span sp(tracer_, "core.transform");
        if (w_.stochastic) {
            // The plan is made for one representative draw, as
            // trainModel reports one.
            Rng probe_rng(seed_ ^ kProbeSeedXor);
            probe_ = std::make_unique<Graph>(splitCnnTransform(
                base_, splitOptions(), &probe_rng, &report_));
        } else {
            fixed_split_ = std::make_unique<Graph>(splitCnnTransform(
                base_, splitOptions(), nullptr, &report_));
        }
        phase[1] = sp.end();
    } else {
        report_.patches = 1;
    }
    {
        Span sp(tracer_, "hmms.plan");
        const Graph &g = planGraph();
        const DeviceSpec spec;
        const auto assignment = assignStorage(g, g.topoOrder());
        const double cap = profileForwardPass(g, spec).offloadable_fraction;
        const MemoryPlan plan =
            planMemory(g, spec, {PlannerKind::Hmms, cap, {}}, assignment)
                .value();
        mem_plan_ = planStaticMemory(g, assignment, plan);
        offloaded_bytes_ = plan.offloaded_bytes;
        phase[2] = sp.end();
    }
    {
        Span sp(tracer_, "train.param_init");
        Rng param_rng(seed_);
        params_ = std::make_unique<ParamStore>(base_, param_rng);
        sgd_ = std::make_unique<Sgd>(base_, kSgd);
        order_rng_ = Rng(seed_ ^ kOrderSeedXor);
        split_rng_ = Rng(seed_ ^ kSplitSeedXor);
        const Graph &eval_graph =
            w_.eval_split && fixed_split_ ? *fixed_split_ : base_;
        compatible_eval_ = params_->compatibleWith(eval_graph);
        if (fixed_split_)
            compatible_train_ = params_->compatibleWith(*fixed_split_);
        eval_ex_ = std::make_unique<Executor>(eval_graph, *params_);
        phase[3] = sp.end();
    }
    {
        Span sp(tracer_, "train.warmup");
        ops_.attempt("warm-up eval batch", [&] { evalBatch(); });
        for (int i = 0; i < kWarmupSteps; ++i)
            ops_.attempt("warm-up train step", [&] { trainStep(); });
        phase[4] = sp.end();
    }
    return setup.end() / 1e3;
}

StepSample
Bench::trainStep()
{
    StepSample s;
    const int64_t id = steps_done_++;
    const HeapSnapshot h0 = heapSnapshot();
    resetHeapPeak();
    const int64_t pack0 = gemmPackACalls();
    const SplitWeightCacheStats c0 = splitWeightCacheStats();
    s.traced = tracer_.recording();
    Span step(tracer_, "step", id);
    {
        std::vector<int64_t> labels;
        Tensor x;
        {
            Span sp(tracer_, "data.batch", id);
            const size_t batch = static_cast<size_t>(w_.batch);
            if (cursor_ + batch > order_.size()) {
                order_ = data_.shuffledEpoch(order_rng_);
                cursor_ = 0;
            }
            const std::vector<int> idx(order_.begin() + cursor_,
                                       order_.begin() + cursor_ + batch);
            cursor_ += batch;
            x = data_.trainBatch(idx, labels);
            s.phase_ms[0] = sp.end();
        }
        std::optional<Graph> sampled;
        if (w_.stochastic) {
            Span sp(tracer_, "core.transform", id);
            sampled.emplace(
                splitCnnTransform(base_, splitOptions(), &split_rng_));
            s.phase_ms[1] = sp.end();
            // The shared parameter table is what lets SSCNN train on a
            // fresh draw and evaluate unsplit.
            compatible_train_ = compatible_train_ &&
                                params_->compatibleWith(*sampled) &&
                                params_->compatibleWith(base_);
        }
        std::optional<Executor> ex;
        {
            Span sp(tracer_, "train.executor_ctor", id);
            ex.emplace(sampled ? *sampled : planGraph(), *params_);
            s.phase_ms[2] = sp.end();
        }
        ForwardCache cache;
        Tensor logits;
        {
            Span sp(tracer_, "train.forward", id);
            logits = ex->forward(x, /*training=*/true, &cache);
            s.phase_ms[3] = sp.end();
        }
        s.forward_cache_bytes =
            static_cast<double>(forwardCacheBytes(cache));
        Tensor grad;
        {
            Span sp(tracer_, "train.loss", id);
            Tensor probs;
            s.loss = softmaxXentForward(logits, labels, probs);
            grad = softmaxXentBackward(probs, labels);
            s.phase_ms[4] = sp.end();
        }
        {
            Span sp(tracer_, "train.backward", id);
            ex->backward(cache, grad);
            s.phase_ms[5] = sp.end();
        }
        {
            // Gradients start at zero (ParamStore init) and are zeroed
            // after each update: the trainModel order (zeroGrad before
            // backward) with the same values.
            Span sp(tracer_, "train.sgd", id);
            sgd_->step(*params_);
            params_->zeroGrad();
            s.phase_ms[6] = sp.end();
        }
        last_loss_ = s.loss;
        if (steps_done_ == kCheckStep)
            check_loss_ = s.loss;
        if (!std::isfinite(s.loss) || !allFinite(logits))
            ops_.fail("train step " + std::to_string(id) +
                 ": non-finite loss or logits");
    }
    // The executor, its forward cache and the sampled graph were freed
    // just above, inside the step: a user pays for that too.
    s.ms = step.end();
    const HeapSnapshot h1 = heapSnapshot();
    const SplitWeightCacheStats c1 = splitWeightCacheStats();
    s.peak_heap = static_cast<double>(h1.peak - h0.live);
    s.allocs = static_cast<double>(h1.allocs - h0.allocs);
    s.alloc_bytes = static_cast<double>(h1.bytes - h0.bytes);
    s.pack_a = static_cast<double>(gemmPackACalls() - pack0);
    s.cache_hits = static_cast<double>(c1.hits - c0.hits);
    s.cache_misses = static_cast<double>(c1.misses - c0.misses);
    return s;
}

EvalSample
Bench::evalBatch()
{
    EvalSample s;
    const int64_t id = evals_done_++;
    const HeapSnapshot h0 = heapSnapshot();
    resetHeapPeak();
    Span batch(tracer_, "eval", id);
    {
        std::vector<int64_t> labels;
        Tensor x;
        {
            Span sp(tracer_, "data.batch", id);
            const int64_t slots = data_.testSize() / w_.batch;
            x = data_.testBatch(static_cast<int>((id % slots) * w_.batch),
                                static_cast<int>(w_.batch), labels);
            s.data_ms = sp.end();
        }
        Tensor logits;
        {
            Span sp(tracer_, "train.eval_forward", id);
            logits = eval_ex_->forward(x, /*training=*/false, nullptr);
            s.forward_ms = sp.end();
        }
        if (!allFinite(logits))
            ops_.fail("eval batch " + std::to_string(id) +
                 ": non-finite logits");
    }
    s.ms = batch.end();
    s.peak_heap = static_cast<double>(heapSnapshot().peak - h0.live);
    return s;
}

struct Args
{
    std::string workload;
    uint64_t seed = 0;
    double seconds = -1.0;
    int trace = -1;
    std::string trace_file;
};

bool
parseArgs(int argc, char **argv, Args &a)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string k = argv[i];
        const char *v = argv[i + 1];
        char *end = nullptr;
        if (k == "--workload") {
            a.workload = v;
            continue;
        }
        if (k == "--trace-file") {
            a.trace_file = v;
            continue;
        }
        if (k == "--seed")
            a.seed = std::strtoull(v, &end, 10);
        else if (k == "--seconds")
            a.seconds = std::strtod(v, &end);
        else if (k == "--trace")
            a.trace = static_cast<int>(std::strtol(v, &end, 10));
        else
            return false;
        if (end == v || *end != '\0')
            return false;
    }
    return argc % 2 == 1 && !a.workload.empty() && a.seconds >= 0.0 &&
           (a.trace == 0 || a.trace == 1) &&
           (a.trace == 0 || !a.trace_file.empty());
}

/** Every SCNN_* variable in the environment, as a JSON object. */
std::string
scnnEnvJson()
{
    std::string out = "{";
    bool first = true;
    for (char **e = environ; *e != nullptr; ++e) {
        const std::string kv = *e;
        if (kv.rfind("SCNN_", 0) != 0)
            continue;
        const size_t eq = kv.find('=');
        out += (first ? "" : ", ") + jsonString(kv.substr(0, eq)) +
               ": " + jsonString(eq == std::string::npos
                                     ? ""
                                     : kv.substr(eq + 1));
        first = false;
    }
    return out + "}";
}

} // namespace

int
benchMain(int argc, char **argv)
{
    Args args;
    if (!parseArgs(argc, argv, args)) {
        std::fprintf(stderr,
                     "usage: e2e_bench --workload NAME --seed N "
                     "--seconds S --trace 0|1 [--trace-file PATH]\n");
        return 2;
    }
    const Workload *w = nullptr;
    for (const Workload &cand : kWorkloads)
        if (args.workload == cand.name)
            w = &cand;
    if (w == nullptr) {
        std::fprintf(stderr, "e2e_bench: unknown workload '%s'\n",
                     args.workload.c_str());
        return 2;
    }
    // Numbers must measure the production path: no debug hooks (the
    // SA-lint runs in every Executor constructor without NDEBUG) and
    // no switch that selects a reference or opt-in kernel.
    if (!kNdebug) {
        std::fprintf(stderr, "e2e_bench: refusing to run: built "
                             "without NDEBUG\n");
        return 2;
    }
    for (const char *name : kForbiddenEnv) {
        if (std::getenv(name) != nullptr) {
            std::fprintf(stderr,
                         "e2e_bench: refusing to run: %s is set; the "
                         "benchmark measures the default path only\n",
                         name);
            return 2;
        }
    }
    setGlobalThreads(w->threads); // overrides SCNN_THREADS

    Tracer tracer(args.trace ? size_t{1} << 16 : 0);
    tracer.setRecording(args.trace == 1);

    SyntheticSpec spec;
    spec.classes = 10;
    spec.image = kImage;
    spec.train_samples = 512;
    spec.test_samples = 256;
    spec.noise = 1.6f;
    spec.seed = args.seed * 0x9e3779b97f4a7c15ULL + 1234;
    std::optional<SyntheticDataset> data;
    {
        Span sp(tracer, "data.generate");
        data.emplace(spec);
    }

    // A fixed amount of timed work, so the tail percentiles rest on the
    // same sample counts in every run of the workload.
    const int64_t train_steps =
        args.seconds > 0.0
            ? std::max<int64_t>(2 * kTrainPerEval,
                                std::llround(args.seconds * w->steps_per_s))
            : 0;
    const int64_t eval_batches = train_steps / kTrainPerEval;

    // Each set-up starts from scratch (the previous one's state is
    // freed first); the last one is trained on.
    Ops ops;
    std::optional<Bench> bench;
    const int setups = train_steps > 0 ? kSetups : 1;
    std::vector<double> setup_s;
    std::vector<double> setup_phase_ms[Bench::kNumSetupPhases];
    for (int i = 0; i < setups; ++i) {
        bench.reset();
        bench.emplace(*w, args.seed, *data, tracer, ops);
        try {
            setup_s.push_back(bench->setup());
        } catch (const std::exception &e) {
            std::fprintf(stderr, "e2e_bench: set-up failed: %s\n",
                         e.what());
            return 1;
        }
        for (size_t p = 0; p < Bench::kNumSetupPhases; ++p)
            setup_phase_ms[p].push_back(bench->setupPhaseMs(p));
    }

    // Timed closed loop. With --trace 1, every other train step and
    // every other eval batch record spans; the rest measure the same
    // code untraced, so the difference is the tracing overhead.
    std::vector<StepSample> steps;
    std::vector<EvalSample> evals;
    std::vector<double> resident;
    // Capacity up front, so the sample buffers never allocate inside
    // the loop.
    steps.reserve(static_cast<size_t>(train_steps));
    evals.reserve(static_cast<size_t>(eval_batches));
    resident.reserve(static_cast<size_t>(train_steps));
    const bool trace = args.trace == 1;
    const auto t0 = std::chrono::steady_clock::now();
    for (int64_t i = 1; i <= train_steps; ++i) {
        resident.push_back(static_cast<double>(heapSnapshot().live));
        tracer.setRecording(trace && i % 2 == 1);
        ops.attempt("train step",
                    [&] { steps.push_back(bench->trainStep()); });
        if (i % kTrainPerEval == 0) {
            tracer.setRecording(trace && (i / kTrainPerEval) % 2 == 1);
            ops.attempt("eval batch",
                        [&] { evals.push_back(bench->evalBatch()); });
        }
    }
    const double loop_s = std::chrono::duration<double>(
                              std::chrono::steady_clock::now() - t0)
                              .count();
    tracer.setRecording(trace);
    // Short runs still reach the checked step.
    while (bench->stepsDone() < kCheckStep)
        ops.attempt("check train step", [&] { bench->trainStep(); });

    std::optional<ReplayResult> replay;
    if (trace) {
        try {
            const Graph &g = bench->planGraph();
            Executor ex(g, bench->params());
            Tensor x(g.tensor(g.inputTensor()).shape);
            Rng rng(args.seed);
            x.fillNormal(rng, 0.0f, 1.0f);
            ForwardCache cache;
            ex.forward(x, /*training=*/true, &cache);
            replay = replayKernels(g, bench->params(), cache,
                                   kReplayReps, tracer);
        } catch (const std::exception &e) {
            ops.fail(std::string("kernel replay: ") + e.what());
        }
    }

    const Graph &g = bench->planGraph();
    const auto waves = computeExecutionWaves(g);
    int64_t narrow = 0;
    if (globalThreads() > 1)
        for (const auto &wave : waves)
            narrow += static_cast<int>(wave.size()) < globalThreads();

    std::ostringstream os;
    os.precision(17);
    os << "{\"workload\": " << jsonString(w->name)
       << ", \"seed\": " << args.seed << ", \"seconds\": " << args.seconds
       << ", \"trace\": " << args.trace;
    os << ", \"config\": {\"pool_threads\": " << globalThreads()
       << ", \"hardware_threads\": " << std::thread::hardware_concurrency()
       << ", \"simd_kernel\": " << jsonString(simdKernelName())
       << ", \"gemm_kernel\": " << jsonString(gemmKernelName())
       << ", \"ndebug\": " << (kNdebug ? "true" : "false")
       << ", \"scnn_env\": " << scnnEnvJson()
       << ", \"seeds\": {\"workload\": " << args.seed
       << ", \"dataset\": " << spec.seed << ", \"params\": " << args.seed
       << ", \"data_order\": " << (args.seed ^ kOrderSeedXor)
       << ", \"split_draws\": " << (args.seed ^ kSplitSeedXor)
       << ", \"planned_draw\": " << (args.seed ^ kProbeSeedXor) << "}"
       << ", \"model\": " << jsonString(w->model)
       << ", \"width\": " << kWidth << ", \"image\": " << kImage
       << ", \"batch\": " << w->batch << ", \"depth\": " << w->depth
       << ", \"grid\": \"" << w->grid << "x" << w->grid << "\""
       << ", \"stochastic\": " << (w->stochastic ? "true" : "false")
       << ", \"omega\": " << (w->stochastic ? kOmega : 0.0)
       << ", \"eval_graph\": \"" << (w->eval_split ? "split" : "unsplit")
       << "\", \"setups\": " << setups
       << ", \"steps_per_s\": " << w->steps_per_s
       << ", \"train_steps\": " << train_steps
       << ", \"eval_batches\": " << eval_batches
       << ", \"warmup_steps\": " << kWarmupSteps
       << ", \"train_per_eval\": " << kTrainPerEval << "}";

    os << ", \"setup_s\": " << jsonArray(setup_s)
       << ", \"setup_phase_ms\": {";
    for (size_t i = 0; i < std::size(Bench::kSetupPhases); ++i)
        os << (i ? ", " : "") << jsonString(Bench::kSetupPhases[i]) << ": "
           << jsonArray(setup_phase_ms[i]);
    os << "}";

    auto column = [&](auto get) {
        std::vector<double> v;
        for (const StepSample &s : steps)
            v.push_back(get(s));
        return jsonArray(v);
    };
    os << ", \"loop_s\": " << loop_s << ", \"train\": {\"step_ms\": "
       << column([](const StepSample &s) { return s.ms; })
       << ", \"loss\": "
       << column([](const StepSample &s) { return s.loss; })
       << ", \"traced\": "
       << column([](const StepSample &s) { return s.traced ? 1.0 : 0.0; })
       << ", \"peak_heap_bytes\": "
       << column([](const StepSample &s) { return s.peak_heap; })
       << ", \"allocs\": "
       << column([](const StepSample &s) { return s.allocs; })
       << ", \"alloc_bytes\": "
       << column([](const StepSample &s) { return s.alloc_bytes; })
       << ", \"pack_a\": "
       << column([](const StepSample &s) { return s.pack_a; })
       << ", \"cache_hits\": "
       << column([](const StepSample &s) { return s.cache_hits; })
       << ", \"cache_misses\": "
       << column([](const StepSample &s) { return s.cache_misses; })
       << ", \"forward_cache_bytes\": "
       << column([](const StepSample &s) { return s.forward_cache_bytes; })
       << ", \"phase_ms\": {";
    for (size_t p = 0; p < kNumStepPhases; ++p)
        os << (p ? ", " : "") << jsonString(kStepPhases[p]) << ": "
           << column([p](const StepSample &s) { return s.phase_ms[p]; });
    os << "}}";

    auto ecolumn = [&](auto get) {
        std::vector<double> v;
        for (const EvalSample &s : evals)
            v.push_back(get(s));
        return jsonArray(v);
    };
    os << ", \"eval\": {\"batch_ms\": "
       << ecolumn([](const EvalSample &s) { return s.ms; })
       << ", \"data_ms\": "
       << ecolumn([](const EvalSample &s) { return s.data_ms; })
       << ", \"forward_ms\": "
       << ecolumn([](const EvalSample &s) { return s.forward_ms; })
       << ", \"peak_heap_bytes\": "
       << ecolumn([](const EvalSample &s) { return s.peak_heap; }) << "}";

    os << ", \"resident_bytes\": " << jsonArray(resident)
       << ", \"graph\": {\"nodes\": " << g.nodes().size()
       << ", \"unsplit_nodes\": " << bench->base().nodes().size()
       << ", \"patches\": " << bench->report().patches
       << ", \"convs_split\": " << bench->report().convs_split
       << ", \"waves\": " << waves.size() << ", \"narrow_waves\": " << narrow
       << "}, \"plan\": {\"device_bytes\": "
       << bench->memPlan().totalDeviceBytes()
       << ", \"offloaded_bytes\": " << bench->offloadedBytes() << "}";

    os << ", \"checks\": {\"params_compatible_train\": "
       << (bench->compatibleTrain() ? "true" : "false")
       << ", \"params_compatible_eval\": "
       << (bench->compatibleEval() ? "true" : "false") << "}";
    os << ", \"loss\": {\"check_step\": " << kCheckStep << ", \"check\": ";
    if (bench->checkLoss())
        os << *bench->checkLoss();
    else
        os << "null";
    os << ", \"final\": " << bench->lastLoss() << "}";

    if (replay) {
        os << ", \"replay\": {\"reps\": " << kReplayReps
           << ", \"forward_ms\": " << replay->forward_ms
           << ", \"backward_ms\": " << replay->backward_ms
           << ", \"kinds\": {";
        bool first = true;
        for (const auto &[kind, total] : replay->kinds) {
            os << (first ? "" : ", ") << jsonString(kind)
               << ": {\"ms\": " << total.ms << ", \"flops\": " << total.flops
               << ", \"nodes\": " << total.nodes << "}";
            first = false;
        }
        os << "}}";
    }

    if (trace) {
        const std::string other =
            "{\"workload\": " + jsonString(w->name) +
            ", \"seed\": " + std::to_string(args.seed) +
            ", \"replay\": \"replayed: kernels timed in isolation, not "
            "inside the executor\"}";
        if (!tracer.writeChrome(args.trace_file, other)) {
            std::fprintf(stderr, "e2e_bench: cannot write %s\n",
                         args.trace_file.c_str());
            return 1;
        }
        os << ", \"trace_file\": " << jsonString(args.trace_file)
           << ", \"trace_events\": " << tracer.events().size();
    }

    os << ", \"ops\": {\"attempted\": " << ops.attempted()
       << ", \"failed\": " << ops.failed() << ", \"failures\": [";
    for (size_t i = 0; i < ops.failures().size(); ++i)
        os << (i ? ", " : "") << jsonString(ops.failures()[i]);
    os << "]}}";
    std::printf("%s\n", os.str().c_str());
    return 0;
}

} // namespace perfbench

int
main(int argc, char **argv)
{
    return perfbench::benchMain(argc, argv);
}
