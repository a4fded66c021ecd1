// Sample statistics and span arithmetic for the benchmark harness.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

/// Nearest-rank percentile of `values` (need not be sorted); q in (0, 1].
/// Returns 0 for an empty sample.
double percentile(std::vector<double> values, double q);

double median(std::vector<double> values);

/// Arithmetic mean; 0 for an empty sample.
double mean(const std::vector<double>& values);

/// The quantile `tail_ms` is taken at for a sample of `n`: p90 once at
/// least ten samples lie beyond it (n >= 100), below that the highest
/// quantile that leaves ten beyond, floored at the median. p90 rather
/// than p99: on the servers p99 straddles the reader's 20 ms flush tick,
/// so it reads about 10 or about 20 ms depending on whether 1% of replies
/// happened to wait for a tick.
double tail_quantile(std::size_t n);

/// True when a sample of `n` is large enough to report p99 (at least ten
/// samples lie beyond it).
bool supports_p99(std::size_t n);

/// Latency and tail summary of one sample.
struct LatencySummary {
  std::size_t n = 0;
  /// Median of the segments' medians (the plain median below
  /// `kTailSegments` samples).
  double p50 = 0.0;
  /// The quantile each segment's tail was taken at: the highest one a
  /// segment's sample supports (see `tail_quantile`).
  double tail_q = 0.5;
  /// Median over `kTailSegments` consecutive segments of each segment's
  /// tail, so one burst of interference moves one segment, not the figure.
  /// Below `kTailSegments` samples, the tail of the whole sample.
  double tail = 0.0;
  std::size_t segment = 0;  ///< Samples per segment.
  /// Median of the segments' p99s; 0 unless `supports_p99(segment)`.
  double p99 = 0.0;
};

inline constexpr std::size_t kTailSegments = 5;

/// `values` in the order the requests were sent.
LatencySummary summarize(const std::vector<double>& values);

/// Per-request timestamps of one open-loop phase (ms; `done` < 0 means no
/// reply). Latency counts from when a request was due, not from when it
/// was sent: a generator that stalls delays every request behind the
/// stall, and that wait is part of what a user would see.
struct OpenLoopBook {
  std::vector<double> due, sent, done;
  /// done - due for every replied request, in send order.
  std::vector<double> latencies() const;
  /// sent - due for every sent request: how late the generator ran.
  std::vector<double> lateness() const;
};

/// A timed interval in one request's trace. `parent` is the index of the
/// enclosing span in the same vector, or -1 for a root.
struct Span {
  std::string name;
  int parent = -1;
  double start_ms = 0.0;
  double end_ms = 0.0;
  double duration() const { return end_ms - start_ms; }
};

/// Self time of each span: its duration minus the part of its interval
/// that its direct children cover (overlapping children count once, and
/// a child sticking out of its parent counts only inside it).
std::vector<double> self_times(const std::vector<Span>& spans);

/// Records nested spans against one clock origin. `open` returns the new
/// span's index; `close` stamps its end. Children opened between a
/// span's open and close get it as parent.
class Tracer {
 public:
  int open(const std::string& name);
  void close(int span);
  const std::vector<Span>& spans() const { return spans_; }

 private:
  std::vector<Span> spans_;
  std::vector<int> stack_;
};

/// RAII guard for one span.
class SpanGuard {
 public:
  SpanGuard(Tracer& tracer, const std::string& name)
      : tracer_(tracer), span_(tracer.open(name)) {}
  ~SpanGuard() { tracer_.close(span_); }
  SpanGuard(const SpanGuard&) = delete;
  SpanGuard& operator=(const SpanGuard&) = delete;

 private:
  Tracer& tracer_;
  int span_;
};

/// Milliseconds on the steady clock since an arbitrary fixed origin.
double now_ms();

}  // namespace perfbench
