// The reclamation soak battery: shared epochs that leave garbage behind
// for the next exclusive collection at the BDD layer, and the
// server-shaped executor soak — 100+ warm-cache requests with model
// churn, sharded estimation epochs and periodic stop-the-world
// maintenance windows, held to byte-identical replies and a live-node
// plateau.
// Built for the sanitizer CI matrix: every assertion here runs under
// TSan and ASan+UBSan.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "bdd/bdd.h"
#include "circuits/circuits.h"
#include "engine/engine.h"
#include "engine/executor.h"
#include "engine/result_json.h"
#include "engine/session_cache.h"

namespace covest {
namespace {

using engine::CoverageRequest;
using engine::Engine;
using engine::Executor;
using engine::ExecutorOptions;
using engine::JobHandle;
using engine::SuiteResult;

const char* kModels[] = {"counter.cov", "arbiter.cov", "handshake.cov",
                         "shift.cov", "traffic.cov"};
constexpr std::size_t kFileModels = sizeof(kModels) / sizeof(kModels[0]);
/// The file models plus one generated token ring with traces. Once the
/// estimator has planned a suite (before the sharded fan-out), the
/// example models' rows only reuse nodes verification already built;
/// the ring's per-row trace searches are what allocate inside a shared
/// epoch, leaving garbage for the next exclusive collection.
constexpr std::size_t kModelCount = kFileModels + 1;

std::string model_path(const char* name) {
  return std::string(COVEST_SOURCE_DIR) + "/examples/models/" + name;
}

std::string model_label(std::size_t idx) {
  return idx < kFileModels ? kModels[idx] : "token_ring(8)";
}

CoverageRequest soak_request(std::size_t idx) {
  CoverageRequest req;
  if (idx < kFileModels) {
    req.model_path = model_path(kModels[idx]);
    return req;
  }
  circuits::TokenRingSpec spec;
  spec.cells = 8;
  req.model = circuits::make_token_ring(spec);
  for (const ctl::Formula& f : circuits::ring_safety_properties(spec)) {
    req.properties.push_back(engine::PropertySpec::of(f));
  }
  for (unsigned k = 0; k < spec.cells; ++k) {
    req.signals.push_back("tok" + std::to_string(k));
  }
  req.want_traces = true;
  return req;
}

std::string canonical(const SuiteResult& r) {
  engine::JsonOptions opts;
  opts.include_stats = false;
  return engine::to_json(r, opts);
}

// --------------------------------------------------------------------------
// bdd.h shared epochs, driven directly
// --------------------------------------------------------------------------

TEST(SharedGcSoakTest, EpochGarbageIsCollectedByTheNextExclusiveGc) {
  constexpr unsigned kVars = 14;
  constexpr std::size_t kWorkers = 3;
  constexpr int kEpochs = 60;
  bdd::BddManager mgr(kVars);
  std::vector<bdd::Bdd> vars;
  for (unsigned i = 0; i < kVars; ++i) vars.push_back(mgr.var(i));

  // Deterministic per-(lane, epoch) formula; every epoch's intermediates,
  // and the previous epoch's result once `finals` is overwritten, are
  // the garbage an epoch leaves behind.
  const auto family = [&vars](bdd::BddManager& m, std::size_t lane,
                              int epoch) {
    bdd::Bdd acc = (epoch % 2) != 0 ? m.bdd_true() : m.bdd_false();
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const bdd::Bdd& v = vars[(i * (lane + 1) + epoch) % vars.size()];
      if ((epoch % 2) != 0) {
        acc &= v ^ vars[i];
      } else {
        acc = ite(v, acc, (!vars[i]) | acc);
      }
    }
    return acc;
  };

  std::vector<bdd::Bdd> finals(kWorkers);
  for (int epoch = 0; epoch < kEpochs; ++epoch) {
    mgr.begin_shared(kWorkers);
    {
      std::vector<std::thread> threads;
      for (std::size_t t = 0; t < kWorkers; ++t) {
        threads.emplace_back([&, t] {
          mgr.register_shard_thread();
          finals[t] = family(mgr, t, epoch);
        });
      }
      for (std::thread& th : threads) th.join();
    }
    mgr.end_shared();
    // The epoch never collected; the exclusive collection after it
    // frees what the epoch left behind.
    EXPECT_GT(mgr.gc(), 0u) << "epoch " << epoch;
  }

  // The plateau: with every epoch's garbage collected, the pool stays
  // small instead of absorbing 60 epochs x 3 lanes of dead nodes.
  mgr.live_node_count();
  EXPECT_LT(mgr.stats().allocated_nodes, 4096u);

  // Collections must not have touched live structure: exclusive-mode
  // recomputation lands on the identical canonical edge.
  EXPECT_TRUE(mgr.check_canonical());
  for (std::size_t t = 0; t < kWorkers; ++t) {
    EXPECT_EQ(finals[t], family(mgr, t, kEpochs - 1)) << "lane " << t;
  }
}

// --------------------------------------------------------------------------
// The server-shaped soak: warm cache, churn, maintenance windows
// --------------------------------------------------------------------------

TEST(GcSoakTest, HundredWarmRequestsWithMaintenanceStayByteIdentical) {
  // Low collection threshold for every manager elaborated below, so
  // exclusive collections run often, including the first one after each
  // sharded estimation epoch (the threshold adapts back up on its own).
  ::setenv("COVEST_GC_THRESHOLD", "32", 1);
  struct RestoreEnv {
    ~RestoreEnv() { ::unsetenv("COVEST_GC_THRESHOLD"); }
  } restore;

  // Serial cold ground truth, computed once per model.
  std::vector<std::string> expected;
  for (std::size_t idx = 0; idx < kModelCount; ++idx) {
    expected.push_back(canonical(Engine().run(soak_request(idx))));
  }

  // Capacity below the model count: every round churns the cache
  // (evictions + re-elaborations), the worst case for reclamation.
  auto cache = std::make_shared<engine::SessionCache>(4);
  ExecutorOptions options;
  options.workers = 2;
  options.session_cache = cache;
  Executor ex{options};

  constexpr int kRounds = 12;
  constexpr int kPerRound = 10;
  std::size_t total = 0;
  std::vector<std::size_t> plateau;  ///< live_nodes after each window.
  for (int round = 0; round < kRounds; ++round) {
    std::vector<JobHandle> handles;
    std::vector<std::size_t> which;
    for (int k = 0; k < kPerRound; ++k) {
      const std::size_t idx = (round + k) % kModelCount;
      CoverageRequest req = soak_request(idx);
      req.shards = 2;  // Shared estimation epochs inside every job.
      which.push_back(idx);
      handles.push_back(ex.submit(req));
    }
    // The stop-the-world window races the in-flight batch: it must
    // drain active tasks, GC the parked sessions and hand the queue
    // back without perturbing a single reply byte.
    const engine::MaintenanceStats window = ex.maintenance();
    for (std::size_t i = 0; i < handles.size(); ++i) {
      const SuiteResult r = handles[i].take();
      ASSERT_TRUE(r.error.empty())
          << model_label(which[i]) << ": " << r.error;
      EXPECT_EQ(canonical(r), expected[which[i]])
          << "round " << round << " " << model_label(which[i]);
      ++total;
    }
    (void)window;
    plateau.push_back(cache->stats().live_nodes);
  }
  EXPECT_GE(total, 100u);

  // The plateau: once every model has been seen (round 3 on), parked
  // live nodes stop growing — maintenance plus exclusive collections
  // keep the resident set flat across another ~100 requests.
  ASSERT_GE(plateau.size(), 4u);
  const std::size_t baseline = plateau[2];
  EXPECT_GT(baseline, 0u);
  const std::size_t worst =
      *std::max_element(plateau.begin() + 3, plateau.end());
  EXPECT_LE(worst, baseline * 2);
}

}  // namespace
}  // namespace covest
