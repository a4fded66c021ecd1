// The measuring process: set-up, the timed loops, and the traced replay.
//
// End-to-end numbers come from untraced loops. With --trace 1 the run is
// split: an untraced half and a traced half of the same loop (their p50
// difference is the tracing overhead), followed by a replay of the
// workload's distinct models through each layer's public calls, timed
// from here as nested spans.
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <signal.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <arpa/inet.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstring>
#include <deque>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/coverage.h"
#include "core/observed.h"
#include "ctl/checker.h"
#include "ctl/ctl_parser.h"
#include "engine/executor.h"
#include "engine/json.h"
#include "engine/request_json.h"
#include "engine/result_json.h"
#include "fsm/symbolic_fsm.h"
#include "harness.h"
#include "model/model_parser.h"
#include "covgen.h"
#include "stats.h"

namespace perfbench {

namespace {

using namespace covest;
namespace json = covest::engine::json;

/// Set-up is timed this many times per run; the median is reported.
constexpr int kSetupReps = 7;
/// A reply that has not arrived this long after the send window closed
/// counts as failed.
constexpr double kDrainTimeoutMs = 30'000;
/// Requests kept outstanding in the saturation phase.
// Deeper than the server's per-connection window (twice its workers),
// so the reader always has a line waiting and never idles on its flush
// tick.
constexpr std::size_t kSaturationDepth = 32;
/// Connections the saturation phase pipelines on. One, so that the
/// server's reader and workers and the load generator fit the cores: with
/// one connection per core they oversubscribed them, and the throughput's
/// quartile spread over ten runs on a 4-core VM reached a third of its
/// median.
constexpr std::size_t kSaturationConns = 1;
/// Each saturation stretch is reported as this many equal time slices.
constexpr std::size_t kSaturationSlices = 2;
/// An untraced server run alternates this many nominal-rate and
/// saturation stretches, so that every figure samples the whole run
/// rather than one stretch of it.
constexpr std::size_t kServerBlocks = 6;

// ---------------------------------------------------------------------------
// Output
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

class Report {
 public:
  void add(const std::string& name, double value, const std::string& unit,
           const std::string& note = "") {
    metrics_.push_back({name, value, unit});
    std::printf("  %-40s %14.6f %-6s %s\n", name.c_str(), value, unit.c_str(),
                note.c_str());
  }
  void line(const std::string& text) { std::printf("  %s\n", text.c_str()); }

  std::size_t attempted = 0;
  std::size_t replied = 0;
  bool valid = true;
  std::string invalid_reason;

  void finish() const {
    std::ostringstream os;
    os << "{\"attempted\":" << attempted << ",\"replied\":" << replied
       << ",\"valid\":" << (valid ? "true" : "false")
       << ",\"invalid_reason\":";
    json::write_escaped(os, invalid_reason);
    os << ",\"metrics\":{";
    for (std::size_t i = 0; i < metrics_.size(); ++i) {
      char buf[64];
      std::snprintf(buf, sizeof buf, "%.9g", metrics_[i].value);
      if (i > 0) os << ",";
      json::write_escaped(os, metrics_[i].name);
      os << ":{\"value\":" << buf << ",\"unit\":";
      json::write_escaped(os, metrics_[i].unit);
      os << "}";
    }
    os << "}}";
    std::printf("%s\n", os.str().c_str());
    std::fflush(stdout);
  }

 private:
  std::vector<Metric> metrics_;
};

std::string timing_note(const LatencySummary& s) {
  char buf[128];
  std::snprintf(buf, sizeof buf, "(n=%zu, median of %zu segments' p%.4g)",
                s.n, kTailSegments, 100.0 * s.tail_q);
  return buf;
}

void report_latency(Report& rep, const LatencySummary& s) {
  char n[48];
  std::snprintf(n, sizeof n, "(n=%zu)", s.n);
  rep.add("p50_ms", s.p50, "ms", n);
  rep.add("tail_ms", s.tail, "ms", timing_note(s));
  if (supports_p99(s.segment)) {
    rep.line("p99_ms = " + std::to_string(s.p99) + " ms (n=" +
             std::to_string(s.n) + ", median of " +
             std::to_string(kTailSegments) + " segments' p99)");
  } else {
    rep.line("p99_ms not reported: " + std::to_string(s.segment) +
             " samples per segment < 1000");
  }
}

class ReplyWriter {
 public:
  explicit ReplyWriter(const std::string& path) : out_(path) {
    if (!out_) throw std::runtime_error("cannot write " + path);
  }
  void write(std::size_t item, const std::string& reply) {
    out_ << seq_++ << '\t' << item << '\t' << reply << '\n';
  }

 private:
  std::ofstream out_;
  std::size_t seq_ = 0;
};

// ---------------------------------------------------------------------------
// Process accounting
// ---------------------------------------------------------------------------

double self_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  auto ms = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) * 1e3 +
           static_cast<double>(tv.tv_usec) / 1e3;
  };
  return ms(ru.ru_utime) + ms(ru.ru_stime);
}

/// utime + stime of another process, from /proc (clock-tick resolution).
double proc_cpu_ms(pid_t pid) {
  std::ifstream in("/proc/" + std::to_string(pid) + "/stat");
  std::string text((std::istreambuf_iterator<char>(in)),
                   std::istreambuf_iterator<char>());
  const std::size_t close = text.rfind(')');
  if (close == std::string::npos) return 0.0;
  std::istringstream fields(text.substr(close + 2));
  std::string f;
  double utime = 0, stime = 0;
  // Fields after the command name start at field 3 (state); utime and
  // stime are fields 14 and 15.
  for (int field = 3; field <= 15 && (fields >> f); ++field) {
    if (field == 14) utime = std::stod(f);
    if (field == 15) stime = std::stod(f);
  }
  return (utime + stime) * 1e3 / static_cast<double>(sysconf(_SC_CLK_TCK));
}

/// Peak resident set (VmHWM) of `pid` in MiB; 0 = this process.
double peak_rss_mb(pid_t pid) {
  std::ifstream in(pid == 0 ? std::string("/proc/self/status")
                            : "/proc/" + std::to_string(pid) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;
    }
  }
  return 0.0;
}

// ---------------------------------------------------------------------------
// Per-layer accumulation
// ---------------------------------------------------------------------------

struct LayerTotals {
  std::map<std::string, double> span_ms;  ///< Summed durations by name.
  std::map<std::string, double> self_ms;  ///< Summed self times by name.
  double nodes_created = 0, unique_hits = 0, cache_hits = 0,
         cache_lookups = 0, peak_live = 0, gc_runs = 0, fixpoint_iters = 0,
         clusters = 0;
  std::size_t items = 0;
};

/// BDD counter deltas across one public call.
struct BddDelta {
  explicit BddDelta(const bdd::BddManager& mgr) : mgr_(mgr), before_(mgr.stats()) {}
  void add_to(LayerTotals& t) const {
    const bdd::BddStats& after = mgr_.stats();
    auto delta = [](std::size_t a, std::size_t b) {
      // The computed-cache counters restart at zero when the cache is
      // cleared; count from the restart then.
      return static_cast<double>(a >= b ? a - b : a);
    };
    t.nodes_created += delta(after.unique_misses, before_.unique_misses);
    t.unique_hits += delta(after.unique_hits, before_.unique_hits);
    t.cache_hits += delta(after.cache_hits, before_.cache_hits);
    t.cache_lookups += delta(after.cache_lookups, before_.cache_lookups);
    t.gc_runs += delta(after.gc_runs, before_.gc_runs);
  }
  const bdd::BddManager& mgr_;
  bdd::BddStats before_;
};

/// Replays one item through the public calls of each layer, as spans
/// under one "request" root.
void replay_item(const Item& item, LayerTotals& t) {
  Tracer tr;
  std::optional<model::Model> parsed;
  const model::Model* m = nullptr;
  std::unique_ptr<fsm::SymbolicFsm> fsm;
  std::size_t iters = 0;
  {
    SpanGuard root(tr, "request");
    if (!item.source.empty()) {
      SpanGuard s(tr, "model.parse");
      parsed.emplace(model::parse_model_source(item.source, item.label));
      m = &*parsed;
    } else {
      m = &*item.request.model;
    }
    {
      SpanGuard s(tr, "fsm.elaborate");
      fsm = std::make_unique<fsm::SymbolicFsm>(*m);
    }
    bdd::Bdd reach;
    {
      BddDelta d(fsm->mgr());
      SpanGuard s(tr, "fsm.fixpoint");
      reach = fsm->reachable(fsm->initial_states());
      d.add_to(t);
    }
    {
      BddDelta d(fsm->mgr());
      SpanGuard s(tr, "image.step");
      bdd::Bdd img = fsm->forward(reach);
      d.add_to(t);
    }
    engine::CoverageRequest req;
    if (item.source.empty()) req = item.request;
    const std::vector<engine::PropertySpec> specs =
        engine::resolve_suite(req, *m);
    const std::vector<std::string> signals =
        engine::resolve_signal_names(req, *m);
    std::vector<ctl::Formula> formulas;
    for (const auto& s : specs) {
      formulas.push_back(ctl::collapse_propositional(
          s.formula.valid() ? s.formula : ctl::parse_ctl(s.ctl_text)));
    }
    ctl::ModelChecker mc(*fsm);
    std::vector<bool> holds;
    {
      BddDelta d(fsm->mgr());
      SpanGuard v(tr, "ctl.verify");
      for (const auto& f : formulas) {
        SpanGuard c(tr, "ctl.check");
        holds.push_back(mc.check(f).holds);
      }
      d.add_to(t);
    }
    core::CoverageEstimator est(mc);
    {
      BddDelta d(fsm->mgr());
      SpanGuard e(tr, "core.estimate");
      for (const std::string& name : signals) {
        SpanGuard r(tr, "core.row");
        std::vector<ctl::Formula> eligible;
        for (std::size_t j = 0; j < specs.size(); ++j) {
          const auto& obs = specs[j].observe;
          if (holds[j] && (obs.empty() || std::find(obs.begin(), obs.end(),
                                                    name) != obs.end())) {
            eligible.push_back(formulas[j]);
          }
        }
        est.coverage(eligible, core::observe_all_bits(*m, name));
      }
      d.add_to(t);
    }
  }
  // Iteration count and relation shape, outside the timed request.
  iters = fsm->forward_rings(fsm->initial_states()).size();
  t.fixpoint_iters += static_cast<double>(iters);
  t.clusters += static_cast<double>(fsm->relation().cluster_count());
  t.peak_live += static_cast<double>(fsm->mgr().stats().peak_live_nodes);

  const std::vector<Span>& spans = tr.spans();
  const std::vector<double> self = self_times(spans);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    t.span_ms[spans[i].name] += spans[i].duration();
    t.self_ms[spans[i].name] += self[i];
  }
  ++t.items;
}

void report_layers(Report& rep, const LayerTotals& t) {
  const double n = t.items > 0 ? static_cast<double>(t.items) : 1.0;
  auto span = [&](const char* name) {
    auto it = t.span_ms.find(name);
    return it == t.span_ms.end() ? 0.0 : it->second / n;
  };
  rep.line("replayed " + std::to_string(t.items) +
           " distinct models; per-model means:");
  rep.add("model.parse_ms", span("model.parse"), "ms");
  rep.add("fsm.elaborate_ms", span("fsm.elaborate"), "ms");
  rep.add("image.step_ms", span("image.step"), "ms");
  rep.add("image.clusters", t.clusters / n, "count");
  rep.add("fsm.fixpoint_ms", span("fsm.fixpoint"), "ms");
  rep.add("fsm.fixpoint_iters", t.fixpoint_iters / n, "count");
  rep.add("ctl.verify_ms", span("ctl.verify"), "ms");
  rep.add("core.estimate_ms", span("core.estimate"), "ms");
  rep.add("core.estimate_over_verify",
          span("ctl.verify") > 0 ? span("core.estimate") / span("ctl.verify")
                                 : 0.0,
          "ratio");
  rep.add("bdd.nodes_created", t.nodes_created / n, "count");
  rep.add("bdd.unique_hit_ratio",
          t.unique_hits + t.nodes_created > 0
              ? t.unique_hits / (t.unique_hits + t.nodes_created)
              : 0.0,
          "ratio");
  rep.add("bdd.cache_hit_ratio",
          t.cache_lookups > 0 ? t.cache_hits / t.cache_lookups : 0.0, "ratio");
  rep.add("bdd.peak_live_nodes", t.peak_live / n, "count");
  rep.add("bdd.gc_runs", t.gc_runs / n, "count");
  // Self times: each span minus what its children cover. The request
  // root's self time is the part no layer span accounts for.
  rep.line("self times per model (ms):");
  for (const auto& [name, ms] : t.self_ms) {
    char buf[96];
    std::snprintf(buf, sizeof buf, "  self %-16s %10.4f", name.c_str(), ms / n);
    rep.line(buf);
  }
  auto self = t.self_ms.find("request");
  rep.add("trace.unattributed_ms", self == t.self_ms.end() ? 0.0 : self->second / n,
          "ms", "(request time outside every layer span)");
}

// ---------------------------------------------------------------------------
// Executor workloads (closed loop)
// ---------------------------------------------------------------------------

struct ClosedLoop {
  std::vector<double> latency_ms;
  /// Per pass over the pool, in the order passes completed: suites per
  /// second and CPU ms per suite between consecutive pass completions.
  std::vector<double> pass_rate, pass_cpu_ms;
  std::vector<double> queue_wait_ms, run_ms, react_ms, serialize_ms;
  std::vector<double> verify_passes;
  double shared_gc_runs = 0, reclaimed_nodes = 0;
  std::size_t attempted = 0, completed = 0;
};

/// Keeps `inflight` suites in flight until `seconds` have passed and the
/// current pass over the pool is complete.
ClosedLoop closed_loop(engine::Executor& ex, const std::vector<Item>& pool,
                       std::uint64_t seed, std::size_t& pass,
                       std::size_t inflight, double seconds, bool traced,
                       ReplyWriter& out) {
  struct Slot {
    engine::JobHandle handle;
    std::size_t item = 0;
    std::size_t pass = 0;
    double submit_ms = 0, queued_ms = 0, started_ms = 0, finished_ms = 0;
  };
  std::vector<Slot> slots(inflight);
  std::mutex mu;
  std::condition_variable cv;
  std::deque<std::size_t> finished;

  std::vector<std::size_t> order = pass_order(seed, pass, pool.size());
  std::size_t pos = 0;
  ClosedLoop r;
  const double t0 = now_ms();
  // Per pass: one count per completed suite, plus the pool size once the
  // pass's last suite was submitted; twice the pool size means done.
  std::map<std::size_t, std::size_t> left;
  double last_end = t0, last_cpu = self_cpu_ms();

  auto submit = [&](std::size_t slot) {
    if (pos == order.size()) {
      order = pass_order(seed, ++pass, pool.size());
      pos = 0;
    }
    const std::size_t item = order[pos++];
    engine::CoverageRequest req = pool[item].request;
    engine::JobHooks hooks;
    hooks.on_event = [&, slot, traced](const engine::JobEvent& e) {
      if (!traced && e.kind != engine::JobEvent::Kind::kFinished) return;
      const double t = now_ms();
      std::lock_guard<std::mutex> lock(mu);
      switch (e.kind) {
        case engine::JobEvent::Kind::kQueued: slots[slot].queued_ms = t; break;
        case engine::JobEvent::Kind::kStarted:
          if (slots[slot].started_ms == 0) slots[slot].started_ms = t;
          break;
        case engine::JobEvent::Kind::kFinished:
          slots[slot].finished_ms = t;
          finished.push_back(slot);
          cv.notify_one();
          break;
        default: break;
      }
    };
    left[pass] += pos == order.size() ? pool.size() : 0;
    {
      std::lock_guard<std::mutex> lock(mu);
      slots[slot].item = item;
      slots[slot].pass = pass;
      slots[slot].queued_ms = slots[slot].started_ms = 0;
      slots[slot].submit_ms = now_ms();
    }
    slots[slot].handle = ex.submit(std::move(req), std::move(hooks));
    ++r.attempted;
  };

  for (std::size_t s = 0; s < inflight; ++s) submit(s);
  std::size_t outstanding = inflight;
  while (outstanding > 0) {
    std::size_t slot = 0;
    {
      std::unique_lock<std::mutex> lock(mu);
      cv.wait(lock, [&] { return !finished.empty(); });
      slot = finished.front();
      finished.pop_front();
    }
    Slot& s = slots[slot];
    std::string reply;
    {
      // A fresh result object per job: assigning over a live SuiteResult
      // frees its session before the row handles that point into it.
      const engine::SuiteResult result = s.handle.take();
      const double done = now_ms();
      r.latency_ms.push_back(done - s.submit_ms);
      engine::JsonOptions jo;
      jo.pretty = false;
      jo.include_stats = false;
      const double ser0 = now_ms();
      reply = engine::to_json(result, jo);
      if (traced) {
        r.serialize_ms.push_back(now_ms() - ser0);
        std::lock_guard<std::mutex> lock(mu);
        r.queue_wait_ms.push_back(s.started_ms - s.queued_ms);
        r.run_ms.push_back(s.finished_ms - s.started_ms);
        r.verify_passes.push_back(static_cast<double>(result.verify.passes));
        r.shared_gc_runs += static_cast<double>(result.estimate.shared_gc_runs);
        r.reclaimed_nodes += static_cast<double>(result.estimate.reclaimed_nodes);
      }
    }
    ++r.completed;
    if (++left[s.pass] == 2 * pool.size()) {
      left.erase(s.pass);
      const double t = now_ms(), cpu = self_cpu_ms();
      r.pass_rate.push_back(1e3 * double(pool.size()) / (t - last_end));
      r.pass_cpu_ms.push_back((cpu - last_cpu) / double(pool.size()));
      last_end = t;
      last_cpu = cpu;
    }
    out.write(s.item, reply);
    --outstanding;
    const bool more = now_ms() - t0 < seconds * 1e3 || pos < order.size();
    if (more) {
      const double finished_at = s.finished_ms;
      submit(slot);
      if (traced) r.react_ms.push_back(s.submit_ms - finished_at);
      ++outstanding;
    }
  }
  return r;
}

int measure_executor(const Options& o, Report& rep, ReplyWriter& out) {
  const std::vector<Item> pool = executor_pool(o.workload, o.seed, o.nproc);
  const Pacing pc = pacing(o.workload, o.nproc);

  // Set-up: start the executor's workers and run one small suite on each,
  // so the first timed request finds every worker live.
  std::vector<double> setups;
  std::unique_ptr<engine::Executor> ex;
  for (int rep_i = 0; rep_i < kSetupReps; ++rep_i) {
    ex.reset();
    const double t0 = now_ms();
    engine::ExecutorOptions eo;
    eo.workers = o.nproc;
    ex = std::make_unique<engine::Executor>(eo);
    std::vector<engine::JobHandle> warm;
    for (std::size_t i = 0; i < o.nproc; ++i) warm.push_back(ex->submit(warmup_request()));
    for (const auto& h : warm) h.wait();
    setups.push_back((now_ms() - t0) / 1e3);
    for (const auto& h : warm) {
      const engine::SuiteResult r = h.take();
      (void)r;
    }
  }

  std::size_t pass = 0;
  const double window = o.trace ? o.seconds / 2 : o.seconds;
  const ClosedLoop plain =
      closed_loop(*ex, pool, o.seed, pass, pc.clients, window, false, out);
  rep.attempted += plain.attempted;
  rep.replied += plain.completed;
  const LatencySummary lat = summarize(plain.latency_ms);

  if (!o.trace) {
    rep.add("setup_s", median(setups), "s",
            "(median of " + std::to_string(kSetupReps) + ")");
    const std::string passes =
        "(median of " + std::to_string(plain.pass_rate.size()) + " passes, " +
        std::to_string(plain.completed) + " suites)";
    rep.add("suites_per_sec", median(plain.pass_rate), "1/s", passes);
    report_latency(rep, lat);
    rep.add("cpu_ms_per_suite", median(plain.pass_cpu_ms), "ms", passes);
    rep.add("peak_rss_mb", peak_rss_mb(0), "MiB");
    rep.line("max_rate_rps: n/a (closed loop; suites_per_sec is its capacity)");
    return 0;
  }

  const ClosedLoop traced =
      closed_loop(*ex, pool, o.seed, pass, pc.clients, window, true, out);
  rep.attempted += traced.attempted;
  rep.replied += traced.completed;
  const LatencySummary tl = summarize(traced.latency_ms);

  LayerTotals layers;
  for (const Item& it : pool) replay_item(it, layers);
  report_layers(rep, layers);
  const double nres = std::max<double>(1.0, double(traced.completed));
  rep.add("bdd.shared_gc_runs", traced.shared_gc_runs / nres, "count",
          "(per suite, from PhaseStats)");
  rep.add("bdd.reclaimed_nodes", traced.reclaimed_nodes / nres, "count");
  rep.add("engine.executor.queue_wait_ms", median(traced.queue_wait_ms), "ms",
          "(median, n=" + std::to_string(traced.queue_wait_ms.size()) + ")");
  rep.add("engine.executor.run_ms", median(traced.run_ms), "ms", "(median)");
  rep.add("engine.verify_passes", mean(traced.verify_passes), "count",
          "(mean per suite)");
  rep.add("engine.json.parse_ms", 0.0, "ms", "(n/a: in-memory requests)");
  rep.add("engine.json.serialize_ms", median(traced.serialize_ms), "ms",
          "(median to_json of a result)");
  rep.add("engine.session_cache.hit_ratio", 0.0, "ratio", "(n/a: no cache)");
  rep.add("engine.session_cache.insertions", 0.0, "count", "(n/a)");
  rep.add("engine.session_cache.evictions", 0.0, "count", "(n/a)");
  rep.add("engine.session_cache.parked_live_nodes", 0.0, "count", "(n/a)");
  rep.add("server.overhead_ms", 0.0, "ms", "(n/a: no server)");
  rep.add("harness.gen_late_ms", percentile(traced.react_ms, 0.99), "ms",
          "(p99 finish-to-resubmit)");
  rep.add("harness.trace_overhead_pct",
          lat.p50 > 0 ? 100.0 * (tl.p50 - lat.p50) / lat.p50 : 0.0, "%",
          "(traced p50 " + std::to_string(tl.p50) + " vs untraced " +
              std::to_string(lat.p50) + ")");
  return 0;
}

// ---------------------------------------------------------------------------
// Server workloads (open loop over loopback TCP)
// ---------------------------------------------------------------------------

class ServerProcess {
 public:
  ServerProcess(const std::string& self, std::size_t jobs, bool stats) {
    int pipefd[2];
    if (pipe(pipefd) != 0) throw std::runtime_error("pipe failed");
    const std::string jobs_s = std::to_string(jobs);
    const pid_t parent = getpid();
    pid_ = fork();
    if (pid_ < 0) throw std::runtime_error("fork failed");
    if (pid_ == 0) {
      prctl(PR_SET_PDEATHSIG, SIGTERM);
      if (getppid() != parent) _exit(1);
      dup2(pipefd[1], STDOUT_FILENO);
      close(pipefd[0]);
      close(pipefd[1]);
      execl(self.c_str(), self.c_str(), "serve", "--jobs", jobs_s.c_str(),
            "--stats", stats ? "1" : "0", static_cast<char*>(nullptr));
      _exit(127);
    }
    close(pipefd[1]);
    std::string text;
    char buf[128];
    const double deadline = now_ms() + 20'000;
    while (text.find('\n') == std::string::npos && now_ms() < deadline) {
      pollfd p{pipefd[0], POLLIN, 0};
      if (poll(&p, 1, 200) <= 0) continue;
      const ssize_t n = read(pipefd[0], buf, sizeof buf);
      if (n <= 0) break;
      text.append(buf, static_cast<std::size_t>(n));
    }
    close(pipefd[0]);
    if (text.rfind("port ", 0) != 0) {
      stop();
      throw std::runtime_error("server child did not start");
    }
    port_ = static_cast<std::uint16_t>(std::stoi(text.substr(5)));
  }
  ~ServerProcess() { stop(); }
  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }
  std::uint16_t port() const { return port_; }

  void stop() {
    if (pid_ <= 0) return;
    kill(pid_, SIGTERM);
    const double deadline = now_ms() + 10'000;
    int status = 0;
    while (waitpid(pid_, &status, WNOHANG) == 0) {
      if (now_ms() > deadline) {
        kill(pid_, SIGKILL);
        waitpid(pid_, &status, 0);
        break;
      }
      usleep(2000);
    }
    pid_ = -1;
  }

 private:
  pid_t pid_ = -1;
  std::uint16_t port_ = 0;
};

struct Conn {
  int fd = -1;
  std::string out;
  std::size_t out_off = 0;
  std::string in;
  std::deque<std::size_t> pending;  ///< Phase-local request indices.
};

class Client {
 public:
  Client(std::uint16_t port, std::size_t connections) {
    for (std::size_t i = 0; i < connections; ++i) {
      Conn c;
      c.fd = socket(AF_INET, SOCK_STREAM, 0);
      if (c.fd < 0) throw std::runtime_error("socket failed");
      sockaddr_in addr{};
      addr.sin_family = AF_INET;
      addr.sin_port = htons(port);
      addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
      if (connect(c.fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
        close(c.fd);
        for (Conn& open : conns_) close(open.fd);
        throw std::runtime_error("connect failed");
      }
      fcntl(c.fd, F_SETFL, fcntl(c.fd, F_GETFL) | O_NONBLOCK);
      const int one = 1;
      setsockopt(c.fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof one);
      conns_.push_back(std::move(c));
    }
  }
  ~Client() {
    for (Conn& c : conns_) close(c.fd);
  }
  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  std::vector<Conn>& conns() { return conns_; }

  /// Writes what each connection can take without blocking.
  void flush() {
    for (Conn& c : conns_) {
      while (c.out_off < c.out.size()) {
        const ssize_t n = send(c.fd, c.out.data() + c.out_off,
                               c.out.size() - c.out_off, MSG_NOSIGNAL);
        if (n <= 0) break;
        c.out_off += static_cast<std::size_t>(n);
      }
      if (c.out_off == c.out.size()) {
        c.out.clear();
        c.out_off = 0;
      }
    }
  }

  /// Waits up to `timeout_ms` and hands every complete reply line to
  /// `on_line(conn, line)`. Returns false when a connection closed.
  template <typename F>
  bool pump(double timeout_ms, F&& on_line) {
    std::vector<pollfd> fds;
    for (const Conn& c : conns_) {
      short ev = POLLIN;
      if (c.out_off < c.out.size()) ev |= POLLOUT;
      fds.push_back({c.fd, ev, 0});
    }
    timespec ts{};
    const double t = std::max(0.0, timeout_ms);
    ts.tv_sec = static_cast<time_t>(t / 1e3);
    ts.tv_nsec = static_cast<long>((t - double(ts.tv_sec) * 1e3) * 1e6);
    if (ppoll(fds.data(), fds.size(), &ts, nullptr) <= 0) return true;
    bool alive = true;
    char buf[1 << 16];
    for (std::size_t i = 0; i < conns_.size(); ++i) {
      if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
      Conn& c = conns_[i];
      for (;;) {
        const ssize_t n = recv(c.fd, buf, sizeof buf, 0);
        if (n > 0) {
          c.in.append(buf, static_cast<std::size_t>(n));
          continue;
        }
        if (n == 0 || (errno != EAGAIN && errno != EWOULDBLOCK)) alive = false;
        break;
      }
      std::size_t start = 0, nl;
      while ((nl = c.in.find('\n', start)) != std::string::npos) {
        on_line(i, c.in.substr(start, nl - start));
        start = nl + 1;
      }
      c.in.erase(0, start);
    }
    flush();
    return alive;
  }

 private:
  std::vector<Conn> conns_;
};

struct OpenPhase {
  std::vector<double> latency_ms;  ///< From due time, replied requests.
  std::vector<double> late_ms;     ///< Send time minus due time.
  std::vector<std::string> replies;
  std::vector<double> send_to_reply_ms;  ///< Per request; -1 if unreplied.
  std::size_t attempted = 0, replied = 0;
  double tail_median_ms = 0.0;  ///< Median latency of the last tenth.
};

/// Sends `lines` as a Poisson stream at `rate` per second (seeded by
/// `seed`), round-robin over the connections, and collects every reply.
/// Latency counts from when each request was due, so a stalled generator
/// delays the requests behind it.
OpenPhase open_loop(Client& client, const std::vector<std::string>& lines,
                    double rate, std::uint64_t seed) {
  OpenPhase ph;
  const std::size_t n = lines.size();
  OpenLoopBook book;
  book.due.resize(n);
  book.sent.assign(n, 0.0);
  book.done.assign(n, -1.0);
  Rng rng(seed);
  double t = now_ms() + 2.0;
  for (std::size_t i = 0; i < n; ++i) {
    book.due[i] = t;
    // Exponential gap; the draw is in (0, 1] so the log is finite.
    const double u = (static_cast<double>(rng.next() >> 11) + 1.0) * 0x1.0p-53;
    t += -std::log(u) * 1e3 / rate;
  }
  ph.replies.assign(n, std::string());
  ph.send_to_reply_ms.assign(n, -1.0);
  auto& conns = client.conns();
  std::size_t next = 0, got = 0;
  bool alive = true;
  double send_end = n == 0 ? now_ms() : book.due.front();
  while (got < n && alive) {
    const double now = now_ms();
    while (next < n && book.due[next] <= now) {
      Conn& c = conns[next % conns.size()];
      c.out += lines[next];
      c.out += '\n';
      c.pending.push_back(next);
      book.sent[next] = now;
      ++next;
      if (next == n) send_end = now;
    }
    client.flush();
    if (next == n && now - send_end > kDrainTimeoutMs) break;
    const double wait = next < n ? book.due[next] - now : 50.0;
    alive = client.pump(wait, [&](std::size_t ci, std::string line) {
      Conn& c = conns[ci];
      if (c.pending.empty()) return;
      const std::size_t idx = c.pending.front();
      c.pending.pop_front();
      book.done[idx] = now_ms();
      ph.replies[idx] = std::move(line);
      ++got;
    });
  }
  for (Conn& c : conns) c.pending.clear();
  ph.attempted = n;
  ph.latency_ms = book.latencies();
  ph.late_ms = book.lateness();
  ph.replied = ph.latency_ms.size();
  std::vector<double> last;
  for (std::size_t i = 0; i < n; ++i) {
    if (book.done[i] < 0) continue;
    ph.send_to_reply_ms[i] = book.done[i] - book.sent[i];
    if (i >= n - n / 10) last.push_back(book.done[i] - book.due[i]);
  }
  ph.tail_median_ms = median(last);
  return ph;
}

struct Saturation {
  std::size_t attempted = 0, completed = 0;
  /// Per time slice of the run: completions per second and server CPU ms
  /// per completion.
  std::vector<double> slice_rate, slice_cpu_ms;
};

/// Closed loop over the first `kSaturationConns` connections, `depth`
/// requests outstanding on each, for `seconds`: the throughput the server
/// sustains when the client never waits. Cut into `kSaturationSlices`
/// equal time slices.
Saturation saturate(const Options& o, Client& client, pid_t server,
                    std::size_t& next_index, double seconds,
                    std::size_t depth, ReplyWriter& out) {
  Saturation r;
  auto& conns = client.conns();
  const std::size_t used = std::min(kSaturationConns, conns.size());
  auto send_next = [&](std::size_t ci) {
    const std::size_t i = next_index++;
    conns[ci].out += server_item(o.workload, o.seed, i).line;
    conns[ci].out += '\n';
    conns[ci].pending.push_back(i);
    ++r.attempted;
  };
  const double t0 = now_ms();
  const double slice_ms = seconds * 1e3 / double(kSaturationSlices);
  const double stop_sending = t0 + seconds * 1e3;
  double slice_end = t0 + slice_ms, slice_cpu = proc_cpu_ms(server);
  std::size_t slice_done = 0;
  for (std::size_t ci = 0; ci < used; ++ci) {
    for (std::size_t d = 0; d < depth; ++d) send_next(ci);
  }
  client.flush();
  bool alive = true;
  std::size_t outstanding = r.attempted;
  while (outstanding > 0 && alive && now_ms() < stop_sending + kDrainTimeoutMs) {
    alive = client.pump(20.0, [&](std::size_t ci, std::string line) {
      Conn& c = conns[ci];
      if (c.pending.empty()) return;
      out.write(c.pending.front(), line);
      c.pending.pop_front();
      ++r.completed;
      ++slice_done;
      --outstanding;
      if (now_ms() < stop_sending) {
        send_next(ci);
        ++outstanding;
      }
    });
    const double now = now_ms();
    if (now >= slice_end && r.slice_rate.size() < kSaturationSlices) {
      const double cpu = proc_cpu_ms(server);
      r.slice_rate.push_back(1e3 * double(slice_done) / (now - (slice_end - slice_ms)));
      r.slice_cpu_ms.push_back((cpu - slice_cpu) / std::max<double>(1, slice_done));
      slice_cpu = cpu;
      slice_done = 0;
      slice_end = now + slice_ms;
    }
  }
  for (Conn& c : conns) c.pending.clear();
  return r;
}

/// Sends one line on connection 0 (which must be idle) and returns the
/// reply, or "" on timeout.
std::string round_trip(Client& client, const std::string& line) {
  Conn& c = client.conns()[0];
  c.out += line;
  c.out += '\n';
  client.flush();
  std::string reply;
  bool have = false;
  const double deadline = now_ms() + kDrainTimeoutMs;
  while (!have && now_ms() < deadline) {
    if (!client.pump(50.0, [&](std::size_t ci, std::string l) {
          if (ci == 0 && !have) {
            reply = std::move(l);
            have = true;
          }
        })) {
      break;
    }
  }
  return reply;
}

struct CacheCounters {
  double hits = 0, misses = 0, insertions = 0, evictions = 0, live_nodes = 0;
};

CacheCounters cache_counters(Client& client) {
  CacheCounters cc;
  const std::string line = round_trip(client, "{\"op\":\"metrics\"}");
  if (line.empty()) return cc;
  const json::Value v = json::parse(line);
  for (const auto& [k, m] : v.object) {
    if (k != "metrics") continue;
    for (const auto& [k2, c] : m.object) {
      if (k2 != "cache") continue;
      for (const auto& [name, x] : c.object) {
        if (name == "hits") cc.hits = x.number;
        if (name == "misses") cc.misses = x.number;
        if (name == "insertions") cc.insertions = x.number;
        if (name == "evictions") cc.evictions = x.number;
        if (name == "live_nodes") cc.live_nodes = x.number;
      }
    }
  }
  return cc;
}

/// Request lines [first, first + count) of the run, with their indices.
struct Batch {
  std::vector<std::string> lines;
  std::vector<std::size_t> index;
};

Batch make_batch(const Options& o, std::size_t first, std::size_t count) {
  Batch b;
  for (std::size_t i = first; i < first + count; ++i) {
    b.lines.push_back(server_item(o.workload, o.seed, i).line);
    b.index.push_back(i);
  }
  return b;
}

void record(ReplyWriter& out, Report& rep, const Batch& b,
            const OpenPhase& ph) {
  rep.attempted += ph.attempted;
  rep.replied += ph.replied;
  for (std::size_t i = 0; i < b.lines.size(); ++i) {
    if (!ph.replies[i].empty()) out.write(b.index[i], ph.replies[i]);
  }
}

/// Starts a server and, for serve_warm, sends each distinct model once so
/// the session cache holds them all. Returns the time that took.
double start_server(const Options& o, bool stats,
                    std::unique_ptr<ServerProcess>& server,
                    std::unique_ptr<Client>& client, ReplyWriter& out,
                    Report& rep, std::size_t& next_index) {
  const Pacing pc = pacing(o.workload, o.nproc);
  client.reset();
  server.reset();
  const double t0 = now_ms();
  server = std::make_unique<ServerProcess>(o.self_path, o.nproc, stats);
  client = std::make_unique<Client>(server->port(), pc.clients);
  if (o.workload == Workload::kServeWarm) {
    // Warm-up replies are checked like any other: they are items of the
    // run's own request stream, chosen so each model appears.
    const std::vector<Item>& all = warm_models();
    const std::size_t models = all.size();
    std::vector<bool> seen(models, false);
    std::size_t distinct = 0;
    while (distinct < models) {
      const std::size_t i = next_index++;
      const Item it = server_item(o.workload, o.seed, i);
      std::size_t k = 0;
      while (k < models && all[k].line != it.line) ++k;
      if (k == models || seen[k]) continue;
      seen[k] = true;
      ++distinct;
      const std::string reply = round_trip(*client, it.line);
      ++rep.attempted;
      if (!reply.empty()) {
        ++rep.replied;
        out.write(i, reply);
      }
    }
  }
  return (now_ms() - t0) / 1e3;
}

int measure_server(const Options& o, Report& rep, ReplyWriter& out) {
  const Pacing pc = pacing(o.workload, o.nproc);
  std::size_t next_index = 0;
  std::unique_ptr<ServerProcess> server;
  std::unique_ptr<Client> client;

  std::vector<double> setups;
  for (int i = 0; i < (o.trace ? 1 : kSetupReps); ++i) {
    setups.push_back(start_server(o, false, server, client, out, rep, next_index));
  }

  auto guard = [&](const std::vector<double>& late_ms) {
    const double late_p99 = percentile(late_ms, 0.99);
    if (late_p99 > pc.max_gen_late_ms) {
      rep.valid = false;
      rep.invalid_reason = "generator p99 lateness " + std::to_string(late_p99) +
                           " ms exceeds " + std::to_string(pc.max_gen_late_ms) +
                           " ms";
    }
    return late_p99;
  };

  if (!o.trace) {
    // kServerBlocks blocks, each a stretch at the nominal rate (40% of
    // the block) and then a saturation stretch (30%); the max-rate
    // ladder takes the rest of the run.
    const double block_s = o.seconds / double(kServerBlocks);
    const std::size_t per_block = static_cast<std::size_t>(std::max(
        pc.nominal_rps * block_s * 0.4,
        kTailSegments * 1000.0 * 1.05 / double(kServerBlocks)));
    std::vector<double> latency, late, sat_rate, sat_cpu;
    std::size_t nominal_attempted = 0, nominal_replied = 0, sat_completed = 0;
    for (std::size_t k = 0; k < kServerBlocks; ++k) {
      Batch b = make_batch(o, next_index, per_block);
      next_index += per_block;
      const OpenPhase ph = open_loop(*client, b.lines, pc.nominal_rps,
                                     derive_seed(o.seed, 10, k));
      record(out, rep, b, ph);
      latency.insert(latency.end(), ph.latency_ms.begin(), ph.latency_ms.end());
      late.insert(late.end(), ph.late_ms.begin(), ph.late_ms.end());
      nominal_attempted += ph.attempted;
      nominal_replied += ph.replied;
      const Saturation sat = saturate(o, *client, server->pid(), next_index,
                                      block_s * 0.3, kSaturationDepth, out);
      rep.attempted += sat.attempted;
      rep.replied += sat.completed;
      sat_completed += sat.completed;
      sat_rate.insert(sat_rate.end(), sat.slice_rate.begin(), sat.slice_rate.end());
      sat_cpu.insert(sat_cpu.end(), sat.slice_cpu_ms.begin(), sat.slice_cpu_ms.end());
    }
    // Peak resident set through the blocks; the ladder below queues far
    // more in socket and reader buffers.
    const double rss = peak_rss_mb(server->pid());
    const LatencySummary lat = summarize(latency);
    const double late_p99 = guard(late);
    // Highest ladder rate whose p99 stays under the limit without a
    // growing backlog, by bisection over the fixed ladder.
    int lo = -1, hi = static_cast<int>(pc.ladder.size());
    std::string probes;
    while (hi - lo > 1) {
      const int mid = (lo + hi) / 2;
      const double rate = pc.ladder[static_cast<std::size_t>(mid)];
      const std::size_t n = static_cast<std::size_t>(std::max(1050.0, rate * 1.2));
      Batch b = make_batch(o, next_index, n);
      next_index += n;
      const OpenPhase p = open_loop(*client, b.lines, rate,
                                    derive_seed(o.seed, 11, static_cast<std::uint64_t>(mid)));
      record(out, rep, b, p);
      const double p99 = percentile(p.latency_ms, 0.99);
      const bool pass = p.replied == p.attempted && p99 <= pc.p99_limit_ms &&
                        p.tail_median_ms <= pc.p99_limit_ms;
      char buf[96];
      std::snprintf(buf, sizeof buf, " %.0f:%s(p99 %.2f)", rate,
                    pass ? "ok" : "over", p99);
      probes += buf;
      (pass ? lo : hi) = mid;
      usleep(100'000);
    }
    const double max_rate = lo >= 0 ? pc.ladder[static_cast<std::size_t>(lo)] : 0.0;
    rep.add("setup_s", median(setups), "s",
            "(median of " + std::to_string(setups.size()) + ")");
    rep.add("suites_per_sec", median(sat_rate), "1/s",
            "(median of " + std::to_string(sat_rate.size()) + " slices, " +
                std::to_string(sat_completed) + " suites, " +
                std::to_string(kSaturationDepth) + " in flight on " +
                std::to_string(kSaturationConns) + " connection)");
    char nom[96];
    std::snprintf(nom, sizeof nom, "at nominal %.0f rps (%zu/%zu replied):",
                  pc.nominal_rps, nominal_replied, nominal_attempted);
    rep.line(nom);
    report_latency(rep, lat);
    rep.add("cpu_ms_per_suite", median(sat_cpu), "ms",
            "(server process, median of the saturation slices)");
    rep.add("peak_rss_mb", rss, "MiB", "(server process, through the blocks)");
    char mr[160];
    std::snprintf(mr, sizeof mr,
                  "max_rate_rps = %.0f 1/s (p99 <= %.0f ms; probes:%s)",
                  max_rate, pc.p99_limit_ms, probes.c_str());
    rep.line(mr);
    rep.line("harness.gen_late_ms p50/p99/max = " +
             std::to_string(percentile(late, 0.5)) + " / " +
             std::to_string(late_p99) + " / " +
             std::to_string(percentile(late, 1.0)));
    return 0;
  }

  // A traced run splits its time between a stats-off and a stats-on
  // server, each given one stretch at the nominal rate.
  const double window = o.seconds * 0.4;
  const std::size_t count = static_cast<std::size_t>(std::max(
      pc.nominal_rps * window, kTailSegments * 1000.0 * 1.05));
  Batch nominal = make_batch(o, next_index, count);
  next_index += count;
  const OpenPhase ph = open_loop(*client, nominal.lines, pc.nominal_rps,
                                 derive_seed(o.seed, 10, 0));
  record(out, rep, nominal, ph);
  const LatencySummary lat = summarize(ph.latency_ms);
  const double late_p99 = guard(ph.late_ms);

  // Traced half: a stats-on server, warmed the same way, with cache
  // counters read over the wire before and after.
  start_server(o, true, server, client, out, rep, next_index);
  const CacheCounters c0 = cache_counters(*client);
  Batch traced_batch = make_batch(o, next_index, count);
  next_index += count;
  const OpenPhase tp = open_loop(*client, traced_batch.lines, pc.nominal_rps,
                                 derive_seed(o.seed, 12, 0));
  record(out, rep, traced_batch, tp);
  const CacheCounters c1 = cache_counters(*client);
  const LatencySummary tl = summarize(tp.latency_ms);

  std::vector<double> overhead, passes, parse_ms, serialize_ms;
  for (std::size_t i = 0; i < tp.replies.size(); ++i) {
    if (tp.replies[i].empty()) continue;
    const json::Value v = json::parse(tp.replies[i]);
    double phases = 0.0;
    for (const auto& [k, m] : v.object) {
      if (k != "stats") continue;
      for (const auto& [phase, s] : m.object) {
        if (phase != "elaborate" && phase != "verify" && phase != "estimate") continue;
        for (const auto& [f, x] : s.object) {
          if (f == "ms") phases += x.number;
          if (f == "passes" && phase == "verify") passes.push_back(x.number);
        }
      }
    }
    overhead.push_back(tp.send_to_reply_ms[i] - phases);
  }
  // The wire's JSON layers, timed on this workload's own lines.
  for (std::size_t i = 0; i < std::min<std::size_t>(200, traced_batch.lines.size()); ++i) {
    double t = now_ms();
    const engine::CoverageRequest req = engine::request_from_json(traced_batch.lines[i]);
    parse_ms.push_back(now_ms() - t);
    (void)req;
  }
  {
    std::optional<engine::SuiteResult> r;
    for (std::size_t i = 0; i < std::min<std::size_t>(20, traced_batch.lines.size()); ++i) {
      r.reset();
      r.emplace(engine::Engine().run(engine::request_from_json(traced_batch.lines[i])));
      engine::JsonOptions jo;
      jo.pretty = false;
      const double t = now_ms();
      const std::string s = engine::to_json(*r, jo);
      serialize_ms.push_back(now_ms() - t);
    }
  }

  LayerTotals layers;
  const std::vector<Item> replay = o.workload == Workload::kServeWarm
                                       ? warm_models()
                                       : [&] {
                                           std::vector<Item> v;
                                           for (std::size_t i = 0; i < 24; ++i)
                                             v.push_back(server_item(o.workload, o.seed, i));
                                           return v;
                                         }();
  for (const Item& it : replay) replay_item(it, layers);
  report_layers(rep, layers);
  rep.add("bdd.shared_gc_runs", 0.0, "count", "(n/a: unsharded requests)");
  rep.add("bdd.reclaimed_nodes", 0.0, "count", "(n/a)");
  rep.add("engine.executor.queue_wait_ms", 0.0, "ms", "(n/a: inside the server)");
  rep.add("engine.executor.run_ms", 0.0, "ms", "(n/a: inside the server)");
  rep.add("engine.verify_passes", mean(passes), "count", "(mean per reply)");
  rep.add("engine.json.parse_ms", median(parse_ms), "ms", "(median request_from_json)");
  rep.add("engine.json.serialize_ms", median(serialize_ms), "ms", "(median to_json)");
  const double lookups = (c1.hits - c0.hits) + (c1.misses - c0.misses);
  rep.add("engine.session_cache.hit_ratio",
          lookups > 0 ? (c1.hits - c0.hits) / lookups : 0.0, "ratio");
  rep.add("engine.session_cache.insertions", c1.insertions - c0.insertions, "count");
  rep.add("engine.session_cache.evictions", c1.evictions - c0.evictions, "count");
  rep.add("engine.session_cache.parked_live_nodes", c1.live_nodes, "count");
  rep.add("server.overhead_ms", median(overhead), "ms",
          "(median reply latency minus elaborate+verify+estimate)");
  rep.add("harness.gen_late_ms", late_p99, "ms", "(p99 send lateness)");
  rep.add("harness.trace_overhead_pct",
          lat.p50 > 0 ? 100.0 * (tl.p50 - lat.p50) / lat.p50 : 0.0, "%",
          "(stats-on p50 " + std::to_string(tl.p50) + " vs stats-off " +
              std::to_string(lat.p50) + ")");
  return 0;
}

}  // namespace

int run_measure(const Options& o) {
  ReplyWriter out(o.replies_path);
  Report rep;
  std::printf("perfbench %s seed=%llu seconds=%g trace=%d nproc=%zu\n",
              workload_name(o.workload),
              static_cast<unsigned long long>(o.seed), o.seconds,
              o.trace ? 1 : 0, o.nproc);
  const int rc = is_server_workload(o.workload)
                     ? measure_server(o, rep, out)
                     : measure_executor(o, rep, out);
  rep.finish();
  return rc;
}

}  // namespace perfbench
