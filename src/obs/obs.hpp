// obs.hpp — process-wide observability substrate for the whole flow.
//
// Every layer of the pipeline (XML parsing, XMI loading, task-graph
// mining, clustering/allocation, DSE sweeps, sim/KPN execution, flow
// passes, code emission) instruments itself against this one module:
//
//  * *hierarchical spans* — RAII `ObsSpan` records a named, steady-clock
//    timed interval into a per-thread buffer. Spans nest: each span knows
//    its parent (the innermost open span on the same thread, or the
//    logical parent propagated across a thread-pool fan-out via
//    `ScopedContext`). Buffers merge deterministically on collection.
//  * *metrics registry* — named `Counter`s (monotonic, relaxed-atomic)
//    and `Histogram`s (fixed log2 buckets) shared process-wide; hot paths
//    cache the returned reference so steady-state cost is one atomic add.
//  * *near-zero cost when disabled* — tracing is off by default; a
//    disabled `ObsSpan` is one relaxed atomic load, no clock read, no
//    allocation. Counters stay live (they are cheap and several reports
//    read them), but callers may gate expensive counting on `enabled()`.
//  * *exporters* — Chrome `trace_event` JSON (loadable in chrome://tracing
//    and Perfetto), the machine-readable `uhcg-obs-v1` summary, and a
//    human `--profile` table. The flow layer's `uhcg-flow-trace-v1` pass
//    trace is a coarser view over the same instrumentation points.
//
// Thread safety: everything here is safe to call from any thread,
// including pool workers. Span bookkeeping that only the owning thread
// touches (open-span stack, depth) is lock-free; the record buffer takes
// an uncontended per-thread mutex so `spans_snapshot()` may run
// concurrently with producers.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace uhcg::obs {

// ---------------------------------------------------------------------------
// Enable switch.

/// True when span tracing is armed (counters are always live).
bool enabled();
/// Flips tracing on/off process-wide. Spans already open are unaffected.
void set_enabled(bool on);

// ---------------------------------------------------------------------------
// Metrics registry.

/// Monotonic counter. Increments are relaxed atomics — safe from any
/// thread, imposing one `lock add` on the hot path.
class Counter {
public:
    void add(std::uint64_t delta = 1) {
        value_.fetch_add(delta, std::memory_order_relaxed);
    }
    std::uint64_t value() const {
        return value_.load(std::memory_order_relaxed);
    }
    void reset() { value_.store(0, std::memory_order_relaxed); }

private:
    std::atomic<std::uint64_t> value_{0};
};

/// Histogram over fixed log2 buckets. Bucket 0 holds the value 0; bucket
/// b (1 <= b <= 64) holds values in [2^(b-1), 2^b - 1] — i.e. the bucket
/// index is the bit width of the value. No configuration, no allocation,
/// mergeable by addition.
class Histogram {
public:
    static constexpr std::size_t kBuckets = 65;

    void observe(std::uint64_t value) {
        buckets_[bucket_index(value)].fetch_add(1, std::memory_order_relaxed);
        count_.fetch_add(1, std::memory_order_relaxed);
        sum_.fetch_add(value, std::memory_order_relaxed);
    }

    /// Bucket index for a value: 0 for 0, else bit_width(value).
    static std::size_t bucket_index(std::uint64_t value);
    /// Inclusive bounds of bucket `index`: [floor, ceil].
    static std::uint64_t bucket_floor(std::size_t index);
    static std::uint64_t bucket_ceil(std::size_t index);

    std::uint64_t bucket(std::size_t index) const {
        return buckets_[index].load(std::memory_order_relaxed);
    }
    std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
    std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
    void reset();

private:
    std::atomic<std::uint64_t> buckets_[kBuckets]{};
    std::atomic<std::uint64_t> count_{0};
    std::atomic<std::uint64_t> sum_{0};
};

/// Returns the process-wide counter registered under `name`, creating it
/// on first use. The reference is stable for the process lifetime — cache
/// it (e.g. in a function-local static) on hot paths.
Counter& counter(std::string_view name);

/// As `counter`, for histograms.
Histogram& histogram(std::string_view name);

/// One histogram bucket in a snapshot: values in [floor, ceil] (both
/// inclusive) occurred `count` times. Empty buckets are omitted.
struct HistogramBucket {
    std::uint64_t floor = 0;
    std::uint64_t ceil = 0;
    std::uint64_t count = 0;
};

struct HistogramSnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum = 0;
    std::vector<HistogramBucket> buckets;
};

/// Point-in-time copy of every registered metric, name-sorted (the
/// registry map is ordered), so rendering is deterministic.
struct MetricsSnapshot {
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, HistogramSnapshot> histograms;
};

MetricsSnapshot metrics_snapshot();

/// Zeroes every registered metric (tests and repeated bench sections).
void reset_metrics();

// ---------------------------------------------------------------------------
// Spans.

/// One completed span as collected from the per-thread buffers.
struct SpanRecord {
    std::string name;
    std::string category;   ///< layer tag; defaults to the dotted prefix
    std::uint64_t id = 0;        ///< process-unique, 1-based
    std::uint64_t parent = 0;    ///< 0 = root
    std::uint64_t start_ns = 0;  ///< steady-clock, relative to process epoch
    std::uint64_t dur_ns = 0;
    std::uint32_t thread = 0;    ///< stable per-thread ordinal, 0 = first
    std::uint32_t depth = 0;     ///< nesting depth on its own thread
    std::uint64_t seq = 0;       ///< per-thread completion sequence
    std::string attr_key;        ///< optional annotation (empty = none)
    std::string attr_value;
};

/// Logical parent handle for cross-thread fan-out: capture on the
/// submitting thread, install with `ScopedContext` inside the worker so
/// worker spans join the submitter's subtree.
struct Context {
    std::uint64_t span_id = 0;
};

/// The innermost open span on this thread (or its inherited context).
Context current_context();

/// Installs `context` as this thread's inherited parent for spans opened
/// while it is alive; restores the previous inheritance on destruction.
class ScopedContext {
public:
    explicit ScopedContext(Context context);
    ~ScopedContext();
    ScopedContext(const ScopedContext&) = delete;
    ScopedContext& operator=(const ScopedContext&) = delete;

private:
    std::uint64_t previous_ = 0;
    bool armed_ = false;
};

/// RAII span. When tracing is disabled, construction is one relaxed
/// atomic load and destruction a branch — no clock read, no allocation.
/// `category` defaults to `name` up to its first '.' (the layer tag:
/// "xml.parse" → "xml").
class ObsSpan {
public:
    explicit ObsSpan(std::string_view name, std::string_view category = {});
    ~ObsSpan();
    ObsSpan(const ObsSpan&) = delete;
    ObsSpan& operator=(const ObsSpan&) = delete;

    /// True when this span is actually recording (tracing was enabled at
    /// construction).
    bool armed() const { return armed_; }
    std::uint64_t id() const { return id_; }

    /// Attaches one key/value annotation, exported in the Chrome-trace
    /// `args` object (e.g. the strategy a unit ran under). A
    /// second call overwrites; no-op on a disarmed span.
    void annotate(std::string_view key, std::string_view value);

private:
    std::string name_;
    std::string category_;
    std::string attr_key_;
    std::string attr_value_;
    std::uint64_t id_ = 0;
    std::uint64_t parent_ = 0;
    std::uint64_t prev_open_ = 0;
    std::uint64_t start_ns_ = 0;
    std::uint32_t depth_ = 0;
    bool armed_ = false;
};

/// Merged copy of every thread's completed spans, deterministically
/// ordered by (start_ns, thread ordinal, per-thread sequence) — a total
/// order, so identical record sets always merge identically.
std::vector<SpanRecord> spans_snapshot();

/// Drops every completed span (open spans keep recording into the fresh
/// buffer generation).
void reset_spans();

// ---------------------------------------------------------------------------
// Exporters.

/// Chrome trace_event JSON: an object with "traceEvents" (complete "X"
/// events, microsecond timestamps, one tid per recorded thread) plus
/// thread-name metadata — loadable in chrome://tracing and Perfetto.
/// Counters are attached as a final global metadata event when given.
std::string chrome_trace_json(const std::vector<SpanRecord>& spans,
                              const MetricsSnapshot* metrics = nullptr);

/// Machine-readable run summary, schema `uhcg-obs-v1`:
/// { "schema": "uhcg-obs-v1",
///   "spans": [{"name","category","count","total_ms","self_ms",
///              "min_ms","max_ms"}...],            // aggregated by name
///   "counters": {"name": value, ...},
///   "histograms": {"name": {"count","sum",
///                  "buckets":[{"ge","le","count"}...]}, ...},
///   "totals": {"spans": N, "threads": T, "wall_ms": W} }
std::string summary_json(const std::vector<SpanRecord>& spans,
                         const MetricsSnapshot& metrics);

/// Human `--profile` table: spans aggregated by name (count, total, self,
/// mean), sorted by total time descending, then the non-zero counters.
std::string profile_table(const std::vector<SpanRecord>& spans,
                          const MetricsSnapshot& metrics);

}  // namespace uhcg::obs
