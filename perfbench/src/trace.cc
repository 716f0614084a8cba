#include "trace.h"

#include <chrono>
#include <cstdio>

namespace perfbench {

namespace {

int64_t
steadyNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

} // namespace

Tracer::Tracer(size_t capacity) : epoch_ns_(steadyNs())
{
    events_.reserve(capacity);
    open_.reserve(64);
}

int64_t
Tracer::now() const
{
    return steadyNs() - epoch_ns_;
}

void
Tracer::open(const char *name, int64_t step, int64_t start_ns)
{
    SpanEvent ev;
    ev.name = name;
    ev.start_ns = start_ns;
    ev.id = next_id_++;
    ev.parent = open_.empty() ? 0 : events_[open_.back()].id;
    ev.step = step;
    open_.push_back(events_.size());
    events_.push_back(std::move(ev));
}

void
Tracer::close(int64_t end_ns, std::string args)
{
    // Spans are scoped, so the one closing is the innermost open one.
    SpanEvent &ev = events_[open_.back()];
    ev.end_ns = end_ns;
    ev.args = std::move(args);
    open_.pop_back();
}

bool
Tracer::writeChrome(const std::string &path,
                    const std::string &other_data) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"otherData\": %s,\n"
                    "\"traceEvents\": [",
                 other_data.c_str());
    for (size_t i = 0; i < events_.size(); ++i) {
        const SpanEvent &ev = events_[i];
        std::fprintf(
            f,
            "%s\n{\"name\": \"%s\", \"cat\": \"perfbench\", \"ph\": "
            "\"X\", \"pid\": 1, \"tid\": 1, \"ts\": %.3f, \"dur\": "
            "%.3f, \"args\": {\"id\": %lld, \"parent\": %lld, "
            "\"step\": %lld%s%s}}",
            i ? "," : "", ev.name, ev.start_ns / 1e3,
            (ev.end_ns - ev.start_ns) / 1e3,
            static_cast<long long>(ev.id),
            static_cast<long long>(ev.parent),
            static_cast<long long>(ev.step), ev.args.empty() ? "" : ", ",
            ev.args.c_str());
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
}

Span::Span(Tracer &tracer, const char *name, int64_t step)
    : tracer_(tracer), start_ns_(tracer.now())
{
    if (tracer_.recording()) {
        tracer_.open(name, step, start_ns_);
        recorded_ = true;
    }
}

Span::~Span() { end(); }

double
Span::end()
{
    if (!ended_) {
        ended_ = true;
        const int64_t end_ns = tracer_.now();
        ms_ = (end_ns - start_ns_) / 1e6;
        if (recorded_)
            tracer_.close(end_ns, std::move(args_));
    }
    return ms_;
}

} // namespace perfbench
