/**
 * @file
 * In-memory span recorder for the benchmark's own code. Every Span
 * measures its wall time with std::chrono::steady_clock (the phase
 * timings the report needs); only while the Tracer is recording does
 * it also append an event, with its parent span and step id, to a
 * buffer written out as Chrome trace_event JSON at exit.
 */
#ifndef PERFBENCH_TRACE_H
#define PERFBENCH_TRACE_H

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** One completed span. */
struct SpanEvent
{
    const char *name = "";
    int64_t start_ns = 0;
    int64_t end_ns = 0;
    int64_t id = 0;     ///< unique, > 0
    int64_t parent = 0; ///< id of the enclosing span, 0 at the root
    int64_t step = -1;  ///< step or eval-batch id, -1 for none
    std::string args;   ///< extra JSON members ("\"k\": v, ..."), or ""
};

class Tracer
{
  public:
    /** Reserve room for @p capacity events so recording a step
     *  allocates nothing (heap counters stay undisturbed). */
    explicit Tracer(size_t capacity);

    void setRecording(bool on) { recording_ = on; }
    bool recording() const { return recording_; }

    /** Nanoseconds since the tracer was created. */
    int64_t now() const;

    const std::vector<SpanEvent> &events() const { return events_; }

    /**
     * Write the events as Chrome trace_event JSON ("X" events, times
     * in microseconds) with @p other_data (a JSON object) attached.
     * Returns false when the file cannot be written.
     */
    bool writeChrome(const std::string &path,
                     const std::string &other_data) const;

  private:
    friend class Span;

    void open(const char *name, int64_t step, int64_t start_ns);
    void close(int64_t end_ns, std::string args);

    bool recording_ = false;
    int64_t epoch_ns_ = 0;
    int64_t next_id_ = 1;
    std::vector<SpanEvent> events_;
    /** Indices into events_ of the currently open spans. */
    std::vector<size_t> open_;
};

/**
 * A timed scope. end() stops the clock (once) and returns the
 * duration in milliseconds; the destructor calls it if needed. A
 * span that started while the tracer was not recording is never
 * recorded, so toggling recording between spans keeps the trace a
 * well-nested tree.
 */
class Span
{
  public:
    Span(Tracer &tracer, const char *name, int64_t step = -1);
    ~Span();
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach extra JSON members to the recorded event. */
    void setArgs(std::string args) { args_ = std::move(args); }

    double end();

  private:
    Tracer &tracer_;
    int64_t start_ns_;
    bool recorded_ = false;
    bool ended_ = false;
    double ms_ = 0.0;
    std::string args_;
};

} // namespace perfbench

#endif // PERFBENCH_TRACE_H
