#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "circuits/circuits.h"
#include "covgen.h"
#include "engine/json.h"

namespace perfbench {

using covest::engine::CoverageRequest;
using covest::engine::PropertySpec;
namespace circuits = covest::circuits;

namespace {

// Stream tags for derive_seed: each use of the seed draws its own stream.
constexpr std::uint64_t kPoolStream = 1;
constexpr std::uint64_t kOrderStream = 2;
constexpr std::uint64_t kWarmStream = 3;
constexpr std::uint64_t kColdStream = 4;

/// The explicit oracle enumerates 2^bits states and re-checks the suite
/// once per state and observed bit; past 64 states it costs seconds.
constexpr unsigned kOracleMaxBits = 6;

void add_properties(CoverageRequest& req,
                    const std::vector<covest::ctl::Formula>& formulas) {
  for (const auto& f : formulas) req.properties.push_back(PropertySpec::of(f));
}

std::vector<std::string> state_signals(const covest::model::Model& m) {
  std::vector<std::string> out;
  for (const auto& s : m.signals()) {
    if (s.kind == covest::model::SignalKind::kState) out.push_back(s.name);
  }
  return out;
}

Item token_ring(unsigned cells) {
  Item it;
  it.label = "token_ring(" + std::to_string(cells) + ")";
  circuits::TokenRingSpec spec;
  spec.cells = cells;
  it.request.model = circuits::make_token_ring(spec);
  add_properties(it.request, circuits::ring_safety_properties(spec));
  for (unsigned k = 0; k < cells; ++k) {
    it.request.signals.push_back("tok" + std::to_string(k));
  }
  it.facts.all_hold = true;
  return it;
}

Item pipeline(unsigned stages) {
  Item it;
  it.label = "pipeline(" + std::to_string(stages) + ")";
  circuits::PipelineSpec spec;
  spec.stages = stages;
  it.request.model = circuits::make_pipeline(spec);
  add_properties(it.request, circuits::pipeline_properties_initial(spec));
  add_properties(it.request, circuits::pipeline_hold_properties(spec));
  it.request.signals = state_signals(*it.request.model);
  return it;
}

Item circular_queue(unsigned ptr_bits) {
  Item it;
  it.label = "circular_queue(" + std::to_string(ptr_bits) + ")";
  circuits::CircularQueueSpec spec;
  spec.ptr_bits = ptr_bits;
  it.request.model = circuits::make_circular_queue(spec);
  add_properties(it.request, circuits::queue_wrap_properties_initial(spec));
  add_properties(it.request, circuits::queue_wrap_properties_additional(spec));
  add_properties(it.request, circuits::queue_full_properties(spec));
  add_properties(it.request, circuits::queue_empty_properties(spec));
  it.request.signals = state_signals(*it.request.model);
  return it;
}

Item priority_buffer(unsigned capacity, bool with_bug) {
  Item it;
  it.label = "priority_buffer(" + std::to_string(capacity) +
             (with_bug ? ",bug)" : ")");
  circuits::PriorityBufferSpec spec;
  spec.capacity = capacity;
  spec.with_bug = with_bug;
  it.request.model = circuits::make_priority_buffer(spec);
  add_properties(it.request, circuits::buffer_hi_properties(spec));
  add_properties(it.request, circuits::buffer_lo_properties_initial(spec));
  it.request.properties.push_back(
      PropertySpec::of(circuits::buffer_lo_missing_case(spec)));
  it.request.signals = state_signals(*it.request.model);
  if (with_bug) {
    it.facts.must_fail = static_cast<int>(it.request.properties.size()) - 1;
  }
  return it;
}

std::string request_line(const std::string& source) {
  std::ostringstream os;
  os << "{\"model\":";
  covest::engine::json::write_escaped(os, source);
  os << "}";
  return os.str();
}

/// Drops the `MODULE` line: what is left decides every answer but the
/// model name.
std::string strip_module_line(const std::string& source) {
  const std::size_t nl = source.find('\n');
  return nl == std::string::npos ? source : source.substr(nl + 1);
}

Item generated_item(const CovSpec& spec, const std::string& module) {
  Item it;
  static const char* const kFamily[] = {"ring", "counter", "queue"};
  it.label = std::string("gen_") + kFamily[static_cast<int>(spec.family)] +
             "(" + std::to_string(spec.size) + ")";
  it.source = render_cov(spec, module);
  it.line = request_line(it.source);
  it.facts.all_hold = true;
  it.oracle = explicit_bits(spec) <= kOracleMaxBits;
  it.oracle_key = strip_module_line(it.source);
  return it;
}

std::string read_file(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path.string());
  std::ostringstream os;
  os << in.rdbuf();
  return os.str();
}

/// Geometric ladder lo, lo*step, ... up to hi.
std::vector<double> geometric_ladder(double lo, double hi, double step) {
  std::vector<double> out;
  for (double r = lo; r <= hi * 1.0001; r *= step) {
    out.push_back(std::round(r));
  }
  return out;
}

std::vector<Item> load_warm_models() {
  std::vector<std::filesystem::path> files;
  for (const auto& entry :
       std::filesystem::directory_iterator(PERFBENCH_MODELS_DIR)) {
    if (entry.path().extension() == ".cov") files.push_back(entry.path());
  }
  std::sort(files.begin(), files.end());
  std::vector<Item> out;
  for (const auto& path : files) {
    Item it;
    it.label = path.filename().string();
    it.source = read_file(path);
    it.line = request_line(it.source);
    it.oracle = true;  // Every example model has at most 32 states.
    it.oracle_key = it.label;
    out.push_back(std::move(it));
  }
  // One paper-size circuit, least popular: the warm path's largest model.
  // Its full suite is fixed, so every seed sends the same mix of work.
  CovSpec spec;
  spec.family = Family::kQueue;
  spec.size = 3;
  spec.suite_mask = 15;
  out.push_back(generated_item(spec, "warm_queue"));
  return out;
}

}  // namespace

bool parse_workload(const std::string& name, Workload* out) {
  for (Workload w : {Workload::kBatchMix, Workload::kSingleLarge,
                     Workload::kServeWarm, Workload::kServeCold}) {
    if (name == workload_name(w)) {
      *out = w;
      return true;
    }
  }
  return false;
}

const char* workload_name(Workload w) {
  switch (w) {
    case Workload::kBatchMix: return "batch_mix";
    case Workload::kSingleLarge: return "single_large";
    case Workload::kServeWarm: return "serve_warm";
    case Workload::kServeCold: return "serve_cold";
  }
  return "?";
}

bool is_server_workload(Workload w) {
  return w == Workload::kServeWarm || w == Workload::kServeCold;
}

Pacing pacing(Workload w, std::size_t nproc) {
  Pacing p;
  switch (w) {
    case Workload::kBatchMix: p.clients = nproc; break;
    case Workload::kSingleLarge: p.clients = 1; break;
    case Workload::kServeWarm:
      p.clients = nproc;
      p.nominal_rps = 2000;
      p.ladder = geometric_ladder(4000, 20000, 1.05);
      p.p99_limit_ms = 100;
      p.max_gen_late_ms = 25;
      break;
    case Workload::kServeCold:
      p.clients = nproc;
      p.nominal_rps = 1500;
      p.ladder = geometric_ladder(2000, 8000, 1.05);
      p.p99_limit_ms = 100;
      p.max_gen_late_ms = 25;
      break;
  }
  return p;
}

std::vector<Item> executor_pool(Workload w, std::uint64_t seed,
                                std::size_t nproc) {
  Rng rng(derive_seed(seed, kPoolStream, static_cast<std::uint64_t>(w)));
  std::vector<Item> pool;
  // Sizes are fixed and spread evenly over the stated ranges, so every
  // seed sends the same work; the seed places the seeded bug and orders
  // each pass (`pass_order`).
  if (w == Workload::kBatchMix) {
    for (unsigned cells : {16u, 19u, 22u, 26u, 29u, 33u, 36u, 40u}) {
      pool.push_back(token_ring(cells));
    }
    for (unsigned stages = 3; stages <= 10; ++stages) {
      pool.push_back(pipeline(stages));
    }
    for (unsigned k = 0; k < 8; ++k) pool.push_back(circular_queue(3 + k / 2));
    std::vector<int> bug = {1, 1, 1, 1, 0, 0, 0, 0};
    for (std::size_t i = bug.size(); i > 1; --i) {
      std::swap(bug[i - 1], bug[rng.range(0, i - 1)]);
    }
    for (unsigned k = 0; k < 8; ++k) pool.push_back(priority_buffer(8 + k, bug[k] != 0));
  } else if (w == Workload::kSingleLarge) {
    for (unsigned cells : {48u, 53u, 58u, 64u}) pool.push_back(token_ring(cells));
    for (unsigned stages = 10; stages <= 12; ++stages) {
      pool.push_back(pipeline(stages));
    }
    for (Item& it : pool) it.request.shards = nproc;
  } else {
    throw std::invalid_argument("not an executor workload");
  }
  return pool;
}

std::vector<std::size_t> pass_order(std::uint64_t seed, std::size_t pass,
                                    std::size_t pool_size) {
  std::vector<std::size_t> order(pool_size);
  for (std::size_t i = 0; i < pool_size; ++i) order[i] = i;
  Rng rng(derive_seed(seed, kOrderStream, pass));
  for (std::size_t i = pool_size; i > 1; --i) {
    std::swap(order[i - 1], order[rng.range(0, i - 1)]);
  }
  return order;
}

const std::vector<Item>& warm_models() {
  static const std::vector<Item> models = load_warm_models();
  return models;
}

Item server_item(Workload w, std::uint64_t seed, std::size_t index) {
  if (w == Workload::kServeWarm) {
    // Zipf(1) popularity over the warm models, in list order.
    const std::vector<Item>& models = warm_models();
    double total = 0.0;
    for (std::size_t k = 0; k < models.size(); ++k) total += 1.0 / double(k + 1);
    Rng rng(derive_seed(seed, kWarmStream, index));
    const double u = static_cast<double>(rng.next() >> 11) * 0x1.0p-53 * total;
    double acc = 0.0;
    for (std::size_t k = 0; k < models.size(); ++k) {
      acc += 1.0 / double(k + 1);
      if (u < acc) return models[k];
    }
    return models.back();
  }
  if (w == Workload::kServeCold) {
    Rng rng(derive_seed(seed, kColdStream, index));
    const Family family = static_cast<Family>(rng.range(0, 2));
    const unsigned lo = family == Family::kQueue ? 1 : (family == Family::kRing ? 3 : 2);
    const unsigned hi = family == Family::kQueue ? 2 : (family == Family::kRing ? 6 : 4);
    return generated_item(random_spec(rng, family, lo, hi),
                          "cold_" + std::to_string(seed) + "_" +
                              std::to_string(index));
  }
  throw std::invalid_argument("not a server workload");
}

CoverageRequest warmup_request() {
  return token_ring(12).request;
}

}  // namespace perfbench
