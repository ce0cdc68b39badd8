// Measurement support of the perfbench binary: clocks, order statistics,
// output digests, process resource usage, a worker fan-out and the
// in-memory span recorder of the traced run.
//
// Spans follow one rule: a Span opened with a null recorder does nothing,
// so a pass runs the same code traced and untraced, and the difference in
// wall time between the two is the tracing overhead.
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <map>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] double seconds_since(Clock::time_point t0);

/// Median of `v` (mean of the middle pair for an even count); 0 if empty.
[[nodiscard]] double median(std::vector<double> v);
/// Quantile `q` in [0, 1] of `v` by linear interpolation between order
/// statistics; 0 if empty.
[[nodiscard]] double quantile(std::vector<double> v, double q);

/// 64-bit FNV-1a of `bytes`, as 16 lower-case hex digits.
[[nodiscard]] std::string digest_hex(std::string_view bytes);

/// User plus system CPU seconds of this process so far (all threads).
[[nodiscard]] double cpu_seconds();
/// Peak resident set size of this process so far, in MiB.
[[nodiscard]] double peak_rss_mb();

/// Runs fn(i, worker) for every i in [0, n) on `workers` threads (the
/// calling thread when workers <= 1), handing out indices in order as
/// workers free up. Every thread is joined before returning; the first
/// exception thrown by `fn` is rethrown then.
void parallel_for(unsigned workers, std::size_t n,
                  const std::function<void(std::size_t, unsigned)>& fn);

/// One recorded span. Times are nanoseconds since the recorder's epoch.
struct SpanRecord {
  std::string name;
  std::int64_t id = 0;
  std::int64_t parent = -1;  ///< -1: a root span
  std::int64_t run = -1;     ///< the pass, job or case the span belongs to
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  unsigned thread = 0;  ///< small per-recorder thread number
};

/// Thread-safe in-memory span store, written out once at the end.
class SpanRecorder {
 public:
  SpanRecorder();
  SpanRecorder(const SpanRecorder&) = delete;
  SpanRecorder& operator=(const SpanRecorder&) = delete;

  [[nodiscard]] std::int64_t open(std::string name, std::int64_t parent,
                                  std::int64_t run);
  void close(std::int64_t id);

  [[nodiscard]] std::vector<SpanRecord> spans() const;

  /// Chrome trace-event JSON (one complete "X" event per span, parent and
  /// run in its args); opens in Perfetto or chrome://tracing.
  void write_chrome_trace(std::ostream& os) const;

 private:
  [[nodiscard]] unsigned thread_number();

  Clock::time_point epoch_;
  mutable std::mutex mu_;
  std::vector<SpanRecord> spans_;
  std::map<std::thread::id, unsigned> threads_;
};

/// RAII span. The parent defaults to the innermost open span of the
/// calling thread and the run id to that span's run; pass both explicitly
/// when the work runs on another thread than its parent.
class Span {
 public:
  Span(SpanRecorder* recorder, std::string name);
  Span(SpanRecorder* recorder, std::string name, std::int64_t parent,
       std::int64_t run);
  ~Span();
  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  /// This span's id (-1 when not recording).
  [[nodiscard]] std::int64_t id() const { return id_; }

 private:
  SpanRecorder* recorder_;
  std::int64_t id_ = -1;
  std::int64_t saved_current_ = -1;
  std::int64_t saved_run_ = -1;
};

/// Self time of each span (its duration minus the union of its
/// children's intervals, clipped to it), summed per span name, in
/// seconds.
[[nodiscard]] std::map<std::string, double> self_seconds_by_name(
    const std::vector<SpanRecord>& spans);

/// Total duration of the spans named `name`, in seconds, and each one's
/// duration in milliseconds.
[[nodiscard]] double total_seconds(const std::vector<SpanRecord>& spans,
                                   std::string_view name);
[[nodiscard]] std::vector<double> durations_ms(
    const std::vector<SpanRecord>& spans, std::string_view name);

}  // namespace perfbench
