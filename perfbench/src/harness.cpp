#include "harness.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <exception>
#include <thread>

namespace perfbench {

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  const double frac = pos - static_cast<double>(lo);
  return v[lo] + (v[hi] - v[lo]) * frac;
}

std::string digest_hex(std::string_view bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(h));
  return buf;
}

double cpu_seconds() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto tv = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           static_cast<double>(t.tv_usec) * 1e-6;
  };
  return tv(ru.ru_utime) + tv(ru.ru_stime);
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

void parallel_for(unsigned workers, std::size_t n,
                  const std::function<void(std::size_t, unsigned)>& fn) {
  if (workers <= 1 || n <= 1) {
    for (std::size_t i = 0; i < n; ++i) fn(i, 0);
    return;
  }
  std::atomic<std::size_t> next{0};
  std::atomic<bool> failed{false};
  std::exception_ptr error;
  std::mutex error_mu;
  const auto body = [&](unsigned w) {
    for (std::size_t i = next++; i < n && !failed; i = next++) {
      try {
        fn(i, w);
      } catch (...) {
        const std::lock_guard<std::mutex> lock(error_mu);
        if (!error) error = std::current_exception();
        failed = true;
      }
    }
  };
  std::vector<std::thread> threads;
  const auto count = static_cast<unsigned>(
      std::min<std::size_t>(workers, n));
  threads.reserve(count);
  try {
    for (unsigned w = 0; w < count; ++w) threads.emplace_back(body, w);
  } catch (...) {
    failed = true;  // a thread could not start: stop the others, then join
    for (std::thread& t : threads) t.join();
    throw;
  }
  for (std::thread& t : threads) t.join();
  if (error) std::rethrow_exception(error);
}

// --- spans -----------------------------------------------------------------

namespace {
thread_local std::int64_t t_current_span = -1;
thread_local std::int64_t t_current_run = -1;
}  // namespace

SpanRecorder::SpanRecorder() : epoch_(Clock::now()) {}

unsigned SpanRecorder::thread_number() {
  const auto [it, inserted] = threads_.emplace(
      std::this_thread::get_id(), static_cast<unsigned>(threads_.size()));
  return it->second;
}

std::int64_t SpanRecorder::open(std::string name, std::int64_t parent,
                                std::int64_t run) {
  const std::int64_t start =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  const std::lock_guard<std::mutex> lock(mu_);
  SpanRecord r;
  r.name = std::move(name);
  r.id = static_cast<std::int64_t>(spans_.size());
  r.parent = parent;
  r.run = run;
  r.start_ns = start;
  r.end_ns = start;
  r.thread = thread_number();
  spans_.push_back(std::move(r));
  return spans_.back().id;
}

void SpanRecorder::close(std::int64_t id) {
  const std::int64_t end =
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           epoch_)
          .count();
  const std::lock_guard<std::mutex> lock(mu_);
  spans_[static_cast<std::size_t>(id)].end_ns = end;
}

std::vector<SpanRecord> SpanRecorder::spans() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return spans_;
}

void SpanRecorder::write_chrome_trace(std::ostream& os) const {
  const std::vector<SpanRecord> all = spans();
  os << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[96];
  for (const SpanRecord& s : all) {
    os << (first ? "\n" : ",\n");
    first = false;
    // Span names are fixed identifiers of this program: no escaping.
    std::snprintf(buf, sizeof buf, "\"ts\":%.3f,\"dur\":%.3f",
                  static_cast<double>(s.start_ns) * 1e-3,
                  static_cast<double>(s.end_ns - s.start_ns) * 1e-3);
    os << "{\"name\":\"" << s.name << "\",\"cat\":\""
       << s.name.substr(0, s.name.find('.')) << "\",\"ph\":\"X\",\"pid\":1,"
       << "\"tid\":" << s.thread << ',' << buf << ",\"args\":{\"id\":"
       << s.id << ",\"parent\":" << s.parent << ",\"run\":" << s.run
       << "}}";
  }
  os << "\n]}\n";
}

Span::Span(SpanRecorder* recorder, std::string name)
    : Span(recorder, std::move(name), t_current_span, t_current_run) {}

Span::Span(SpanRecorder* recorder, std::string name, std::int64_t parent,
           std::int64_t run)
    : recorder_(recorder) {
  if (recorder_ == nullptr) return;
  id_ = recorder_->open(std::move(name), parent, run);
  saved_current_ = t_current_span;
  saved_run_ = t_current_run;
  t_current_span = id_;
  t_current_run = run;
}

Span::~Span() {
  if (recorder_ == nullptr) return;
  recorder_->close(id_);
  t_current_span = saved_current_;
  t_current_run = saved_run_;
}

std::map<std::string, double> self_seconds_by_name(
    const std::vector<SpanRecord>& spans) {
  std::vector<std::vector<std::size_t>> children(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i)
    if (spans[i].parent >= 0)
      children[static_cast<std::size_t>(spans[i].parent)].push_back(i);

  std::map<std::string, double> self;
  std::vector<std::pair<std::int64_t, std::int64_t>> cover;
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const SpanRecord& s = spans[i];
    cover.clear();
    for (const std::size_t c : children[i]) {
      const std::int64_t lo = std::max(spans[c].start_ns, s.start_ns);
      const std::int64_t hi = std::min(spans[c].end_ns, s.end_ns);
      if (hi > lo) cover.emplace_back(lo, hi);
    }
    std::sort(cover.begin(), cover.end());
    // Children on worker threads may overlap each other: count the union.
    std::int64_t covered = 0;
    std::int64_t reach = s.start_ns;
    for (const auto& [lo, hi] : cover) {
      const std::int64_t from = std::max(lo, reach);
      if (hi > from) covered += hi - from;
      reach = std::max(reach, hi);
    }
    self[s.name] +=
        static_cast<double>(s.end_ns - s.start_ns - covered) * 1e-9;
  }
  return self;
}

double total_seconds(const std::vector<SpanRecord>& spans,
                     std::string_view name) {
  double total = 0.0;
  for (const SpanRecord& s : spans)
    if (s.name == name)
      total += static_cast<double>(s.end_ns - s.start_ns) * 1e-9;
  return total;
}

std::vector<double> durations_ms(const std::vector<SpanRecord>& spans,
                                 std::string_view name) {
  std::vector<double> out;
  for (const SpanRecord& s : spans)
    if (s.name == name)
      out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-6);
  return out;
}

}  // namespace perfbench
