// The benchmark's four workloads: what each one sends, how it is paced,
// and what its answers must be.
//
// Every input is a function of (workload, seed, index), so the measuring
// process and the checking process regenerate the same requests without
// sharing files. Requests carry only a model, a suite, signals and
// limits: no table, image, shard-mode or parallel-apply field, so each
// workload measures the program's defaults.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "engine/engine.h"

namespace perfbench {

enum class Workload { kBatchMix, kSingleLarge, kServeWarm, kServeCold };

bool parse_workload(const std::string& name, Workload* out);
const char* workload_name(Workload w);
bool is_server_workload(Workload w);

/// How a workload is paced. Closed loops keep `clients` requests in
/// flight; open loops send at `nominal_rps` over `clients` connections,
/// then walk `ladder` for the highest rate whose p99 stays under
/// `p99_limit_ms`.
struct Pacing {
  std::size_t clients = 1;
  double nominal_rps = 0.0;
  std::vector<double> ladder;
  double p99_limit_ms = 0.0;
  /// Bound on the generator's p99 lateness; a run over it is invalid.
  double max_gen_late_ms = 0.0;
};

Pacing pacing(Workload w, std::size_t nproc);

/// Answers known from how an input was built, independent of the
/// symbolic engine.
struct Facts {
  bool all_hold = false;  ///< Every SPEC of the suite holds.
  int must_fail = -1;     ///< Index of a property that must fail, or -1.
};

/// One request of a workload.
struct Item {
  std::string label;  ///< e.g. "token_ring(24)".
  /// Executor workloads: the request itself (in-memory model).
  covest::engine::CoverageRequest request;
  /// Server workloads: the NDJSON request line and its `.cov` source.
  std::string line;
  std::string source;
  Facts facts;
  /// Small enough for the explicit Definition-3 oracle.
  bool oracle = false;
  /// Items with equal keys are the same model and suite up to the module
  /// name, so an oracle verdict computed for one holds for all of them.
  std::string oracle_key;
};

/// Executor workloads draw from a fixed, seeded pool and cycle through it
/// in a seeded order per pass.
std::vector<Item> executor_pool(Workload w, std::uint64_t seed,
                                std::size_t nproc);
std::vector<std::size_t> pass_order(std::uint64_t seed, std::size_t pass,
                                    std::size_t pool_size);

/// Server workloads: the `index`-th request of a run. serve_warm cycles
/// with skewed popularity over `warm_models`; serve_cold makes a
/// distinct model per index.
Item server_item(Workload w, std::uint64_t seed, std::size_t index);
/// serve_warm's distinct models, most popular first (the same for every
/// seed; the seed draws the request sequence).
const std::vector<Item>& warm_models();

/// A small in-memory suite (token_ring(12)) that warms each executor
/// worker during set-up.
covest::engine::CoverageRequest warmup_request();

}  // namespace perfbench
