// Self-tests of the benchmark harness: the percentile and sample-count
// rule, latency counted from the due time, span self-time arithmetic, and
// byte-identical generated inputs for a fixed seed.
//
//   python3 perfbench/run.py --selftest
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "covgen.h"
#include "stats.h"
#include "workloads.h"

namespace {

using namespace perfbench;

int failures = 0;

void expect(bool ok, const std::string& what) {
  if (!ok) {
    std::printf("FAIL: %s\n", what.c_str());
    ++failures;
  }
}

bool near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void percentile_and_sample_count_rule() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  expect(near(percentile(v, 0.5), 50), "nearest-rank p50 of 1..100 is 50");
  expect(near(percentile(v, 0.9), 90), "nearest-rank p90 of 1..100 is 90");
  expect(near(percentile(v, 1.0), 100), "p100 is the maximum");
  expect(near(median({3, 1, 2, 4}), 2.5), "even-sized median averages");

  // Every tail leaves at least ten samples beyond it.
  expect(!supports_p99(999), "no p99 below 1000 samples");
  expect(supports_p99(1000), "p99 at 1000 samples");
  expect(near(tail_quantile(100), 0.9), "tail is p90 from 100 samples on");
  expect(near(tail_quantile(50), 0.8), "tail leaves ten beyond at 50");
  expect(near(tail_quantile(15), 0.5), "tail never drops below the median");
  for (std::size_t n : {21u, 50u, 100u, 999u, 5000u}) {
    std::vector<double> s(n);
    for (std::size_t i = 0; i < n; ++i) s[i] = double(i);
    for (double q : {tail_quantile(n), supports_p99(n) ? 0.99 : 0.5}) {
      const double t = percentile(s, q);
      std::size_t beyond = 0;
      for (double x : s) beyond += x > t;
      expect(beyond >= 10, "at least ten samples beyond the tail at n=" +
                               std::to_string(n));
    }
  }

  // Segments: 4999 samples give segments of 999, too few for p99.
  std::vector<double> s(4999, 1.0);
  const LatencySummary sum = summarize(s);
  expect(sum.segment == 999 && sum.p99 == 0.0, "4999 samples do not report p99");
  std::vector<double> ramp(5000);
  for (std::size_t i = 0; i < ramp.size(); ++i) ramp[i] = double(i % 1000);
  const LatencySummary r = summarize(ramp);
  expect(near(r.p99, 989) && near(r.tail, 899),
         "5000 samples report p99 and p90 per segment");
  // One bad segment does not move the median of segment tails.
  std::vector<double> bursty(5000, 1.0);
  for (std::size_t i = 0; i < 1000; ++i) bursty[i] = 50.0;
  expect(near(summarize(bursty).tail, 1.0) && near(summarize(bursty).p50, 1.0),
         "a burst in one segment is outvoted");
}

void latency_from_due_time() {
  // Requests due every 10 ms; the generator stalls until t=50 and then
  // sends the first five at once; each reply takes 1 ms after sending.
  OpenLoopBook book;
  for (int i = 0; i < 8; ++i) {
    const double due = 10.0 * i;
    const double sent = due < 50.0 ? 50.0 : due;
    book.due.push_back(due);
    book.sent.push_back(sent);
    book.done.push_back(sent + 1.0);
  }
  book.done[7] = -1.0;  // Never answered.
  const std::vector<double> lat = book.latencies();
  const std::vector<double> expect_lat = {51, 41, 31, 21, 11, 1, 1};
  expect(lat == expect_lat, "latency counts the stall from each due time");
  const std::vector<double> late = book.lateness();
  expect(late.size() == 8 && near(late[0], 50) && near(late[4], 10) &&
             near(late[5], 0),
         "lateness is send time minus due time");
}

void span_self_times() {
  // root [0,100]; a [10,40] with child a1 [15,20]; b [30,60] overlaps a;
  // c [90,120] sticks out of root.
  std::vector<Span> spans = {
      {"root", -1, 0, 100}, {"a", 0, 10, 40},  {"a1", 1, 15, 20},
      {"b", 0, 30, 60},     {"c", 0, 90, 120},
  };
  const std::vector<double> self = self_times(spans);
  expect(near(self[0], 100 - 50 - 10), "root minus the union of children");
  expect(near(self[1], 30 - 5), "a minus its child");
  expect(near(self[2], 5), "a leaf's self time is its duration");
  expect(near(self[3], 30), "b has no children");
  expect(near(self[4], 30), "c keeps its own duration");

  Tracer tr;
  {
    SpanGuard r(tr, "r");
    SpanGuard k(tr, "k");
  }
  expect(tr.spans().size() == 2 && tr.spans()[1].parent == 0,
         "Tracer nests a span under the open one");
}

void generated_inputs_are_reproducible() {
  // splitmix64's published first output for state 0.
  Rng r(0);
  expect(r.next() == 0xe220a8397b1dcdafULL, "splitmix64 reference value");

  for (Workload w : {Workload::kServeWarm, Workload::kServeCold}) {
    for (std::size_t i = 0; i < 50; ++i) {
      expect(server_item(w, 42, i).line == server_item(w, 42, i).line,
             std::string("same line for a fixed seed: ") + workload_name(w));
    }
  }
  bool differs = false;
  for (std::size_t i = 0; i < 10; ++i) {
    differs |= server_item(Workload::kServeCold, 1, i).line !=
               server_item(Workload::kServeCold, 2, i).line;
  }
  expect(differs, "another seed gives other cold models");

  for (Workload w : {Workload::kBatchMix, Workload::kSingleLarge}) {
    const std::vector<Item> a = executor_pool(w, 9, 4);
    const std::vector<Item> b = executor_pool(w, 9, 4);
    bool same = a.size() == b.size();
    for (std::size_t i = 0; same && i < a.size(); ++i) {
      same = a[i].label == b[i].label &&
             a[i].request.properties.size() == b[i].request.properties.size() &&
             a[i].request.signals == b[i].request.signals;
    }
    expect(same, std::string("same pool for a fixed seed: ") + workload_name(w));
    expect(pass_order(9, 3, a.size()) == pass_order(9, 3, a.size()),
           "same pass order for a fixed seed");
  }

  CovSpec spec;
  spec.family = Family::kCounter;
  spec.size = 2;
  spec.limit = 3;
  spec.suite_mask = 1;
  const std::string golden =
      "MODULE m;\n"
      "VAR count : uint<2>;\n"
      "IVAR stall : bool;\n"
      "IVAR reset : bool;\n"
      "INIT count := 0;\n"
      "NEXT count := reset ? 0 : (stall ? count : ((count == 2) ? 0 : count + 1));\n"
      "DONTCARE count > 2;\n"
      "SPEC AG (!stall & !reset & count == 0 -> AX (count == 1)) OBSERVE count;\n"
      "SPEC AG (!stall & !reset & count == 1 -> AX (count == 2)) OBSERVE count;\n";
  expect(render_cov(spec, "m") == golden, "counter text is byte-identical");
}

}  // namespace

int main() {
  percentile_and_sample_count_rule();
  latency_from_due_time();
  span_self_times();
  generated_inputs_are_reproducible();
  std::printf("perfbench selftest: %s\n", failures == 0 ? "all passed" : "FAILED");
  return failures == 0 ? 0 : 1;
}
