#include "stats.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <utility>

namespace perfbench {

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = std::ceil(q * static_cast<double>(values.size()));
  const std::size_t k = rank < 1.0 ? 1 : static_cast<std::size_t>(rank);
  return values[std::min(k, values.size()) - 1];
}

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double mean(const std::vector<double>& values) {
  if (values.empty()) return 0.0;
  double sum = 0.0;
  for (double v : values) sum += v;
  return sum / static_cast<double>(values.size());
}

bool supports_p99(std::size_t n) { return n >= 1000; }

double tail_quantile(std::size_t n) {
  if (n >= 100) return 0.9;
  if (n <= 20) return 0.5;
  // Nearest rank ceil(q n) leaves n - ceil(q n) samples beyond; q = (n-10)/n
  // leaves exactly ten.
  return static_cast<double>(n - 10) / static_cast<double>(n);
}

LatencySummary summarize(const std::vector<double>& values) {
  LatencySummary s;
  s.n = values.size();
  s.p50 = median(values);
  s.segment = s.n / kTailSegments;
  if (s.segment == 0) {
    s.tail_q = tail_quantile(s.n);
    s.tail = percentile(values, s.tail_q);
    return s;
  }
  s.tail_q = tail_quantile(s.segment);
  std::vector<double> medians, tails, p99s;
  for (std::size_t k = 0; k < kTailSegments; ++k) {
    const auto first = values.begin() + static_cast<std::ptrdiff_t>(k * s.segment);
    const std::vector<double> seg(first, first + static_cast<std::ptrdiff_t>(s.segment));
    medians.push_back(median(seg));
    tails.push_back(percentile(seg, s.tail_q));
    p99s.push_back(percentile(seg, 0.99));
  }
  s.p50 = median(medians);
  s.tail = median(tails);
  if (supports_p99(s.segment)) s.p99 = median(p99s);
  return s;
}

std::vector<double> OpenLoopBook::latencies() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (done[i] >= 0) out.push_back(done[i] - due[i]);
  }
  return out;
}

std::vector<double> OpenLoopBook::lateness() const {
  std::vector<double> out;
  for (std::size_t i = 0; i < due.size(); ++i) {
    if (sent[i] > 0) out.push_back(sent[i] - due[i]);
  }
  return out;
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    const double a = std::max(s.start_ms, p.start_ms);
    const double b = std::min(s.end_ms, p.end_ms);
    if (b > a) children[static_cast<std::size_t>(s.parent)].push_back({a, b});
  }
  std::vector<double> out(spans.size());
  for (std::size_t i = 0; i < spans.size(); ++i) {
    auto& iv = children[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_a = 0.0, cur_b = 0.0;
    bool open = false;
    for (const auto& [a, b] : iv) {
      if (open && a <= cur_b) {
        cur_b = std::max(cur_b, b);
        continue;
      }
      if (open) covered += cur_b - cur_a;
      cur_a = a;
      cur_b = b;
      open = true;
    }
    if (open) covered += cur_b - cur_a;
    out[i] = spans[i].duration() - covered;
  }
  return out;
}

int Tracer::open(const std::string& name) {
  Span s;
  s.name = name;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.start_ms = now_ms();
  spans_.push_back(std::move(s));
  const int id = static_cast<int>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(int span) {
  spans_[static_cast<std::size_t>(span)].end_ms = now_ms();
  // Spans close in LIFO order under SpanGuard; tolerate a missed close by
  // unwinding to the closed span.
  while (!stack_.empty()) {
    const int top = stack_.back();
    stack_.pop_back();
    if (top == span) break;
  }
}

double now_ms() {
  using namespace std::chrono;
  return duration<double, std::milli>(steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace perfbench
