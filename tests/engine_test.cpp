// The engine facade: declarative CoverageRequest -> SuiteResult runs,
// progress/cancellation hooks, equivalence with the core estimator API,
// and golden-file tests for the JSON serializer.
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>

#include "circuits/circuits.h"
#include "core/coverage.h"
#include "ctl/ctl_parser.h"
#include "engine/engine.h"
#include "engine/result_json.h"
#include "engine/result_text.h"
#include "model/model_parser.h"

namespace covest {
namespace {

using engine::CoverageRequest;
using engine::Engine;
using engine::Progress;
using engine::PropertySpec;
using engine::RunHooks;
using engine::Session;
using engine::SuiteResult;

constexpr const char* kHandshakeSource = R"(
MODULE handshake;
VAR  req_r : bool;
VAR  ack   : bool;
IVAR req   : bool;
IVAR grant : bool;
INIT req_r := false;
INIT ack := false;
NEXT req_r := req;
NEXT ack := req_r & grant;
SPEC AG (!req_r -> AX (!ack)) OBSERVE ack;
SPEC AG (req_r & grant -> AX ack) OBSERVE ack;
)";

// The first SPEC fails (x flips to 1 whenever in=1); the second holds.
constexpr const char* kBrokenSource = R"(
MODULE broken;
VAR  x : bool;
IVAR in : bool;
INIT x := false;
NEXT x := in;
SPEC AG (!x) OBSERVE x;
SPEC AG (in -> AX x) OBSERVE x;
)";

// --------------------------------------------------------------------------
// Facade end-to-end
// --------------------------------------------------------------------------

TEST(EngineTest, ModelSpecsDriveTheWholeSuite) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);
  const SuiteResult r = Engine().run(req);

  EXPECT_EQ(r.model_name, "handshake");
  EXPECT_EQ(r.state_bits, 2u);
  ASSERT_EQ(r.properties.size(), 2u);
  EXPECT_TRUE(r.all_passed());
  EXPECT_FALSE(r.cancelled);
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_EQ(r.signals[0].name, "ack");
  EXPECT_EQ(r.signals[0].num_properties, 2u);
  EXPECT_DOUBLE_EQ(r.signals[0].percent, 100.0);
  EXPECT_TRUE(r.signals[0].uncovered.empty());
  EXPECT_GT(r.space_count, 0.0);
  EXPECT_GT(r.reachable_states, 0.0);
}

TEST(EngineTest, MissingModelSourceThrows) {
  EXPECT_THROW(Engine().run(CoverageRequest{}), std::runtime_error);
}

TEST(EngineTest, RowsMatchTheCoreEstimator) {
  // The facade's per-signal rows must equal CoverageEstimator::report's
  // (both delegate to the same group aggregation).
  const model::Model m = model::parse_model(kHandshakeSource);

  CoverageRequest req;
  req.model = m;
  auto session = Engine().open(req);
  const SuiteResult r = session->run(req);

  fsm::SymbolicFsm fsm(m);
  ctl::ModelChecker checker(fsm);
  core::CoverageEstimator est(checker);
  std::vector<ctl::Formula> props;
  for (const auto& spec : m.specs()) {
    props.push_back(ctl::parse_ctl(spec.ctl_text));
  }
  const core::CoverageReport rep =
      est.report(props, {core::observe_all_bits(m, "ack")});

  ASSERT_EQ(rep.signals.size(), 1u);
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_DOUBLE_EQ(r.signals[0].percent, rep.signals[0].percent);
  EXPECT_DOUBLE_EQ(r.signals[0].covered_count, rep.signals[0].covered_count);
  EXPECT_EQ(r.signals[0].num_properties, rep.signals[0].num_properties);
}

TEST(EngineTest, FailingPropertiesAreSkippedByDefault) {
  CoverageRequest req;
  req.model = model::parse_model(kBrokenSource);
  const SuiteResult r = Engine().run(req);

  ASSERT_EQ(r.properties.size(), 2u);
  EXPECT_EQ(r.failures, 1u);
  EXPECT_FALSE(r.all_passed());

  const engine::PropertyResult& failing = r.properties[0];
  EXPECT_FALSE(failing.holds);
  EXPECT_TRUE(failing.skipped);
  ASSERT_TRUE(failing.counterexample.has_value());
  EXPECT_FALSE(failing.counterexample->steps.empty());

  const engine::PropertyResult& passing = r.properties[1];
  EXPECT_TRUE(passing.holds);
  EXPECT_FALSE(passing.skipped);
  EXPECT_FALSE(passing.counterexample.has_value());

  // The row reflects only the passing property.
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_EQ(r.signals[0].num_properties, 1u);
}

TEST(EngineTest, SkipFailingKeepsFailingPropertiesInTheSuite) {
  CoverageRequest req;
  req.model = model::parse_model(kBrokenSource);
  req.skip_failing = true;
  const SuiteResult r = Engine().run(req);

  EXPECT_EQ(r.failures, 1u);
  for (const auto& p : r.properties) EXPECT_FALSE(p.skipped);
  // The failing property stays in the suite but contributes an empty
  // covered set (Definition 3 presupposes M |= f), so both count toward
  // the row without changing its covered states.
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_EQ(r.signals[0].num_properties, 2u);
}

TEST(EngineTest, ExplicitSuiteAndSignalsBypassModelSpecs) {
  const circuits::CounterSpec spec{3, 5};
  CoverageRequest req;
  req.model = circuits::make_mod_counter(spec);
  for (const auto& f : circuits::counter_increment_properties(spec)) {
    req.properties.push_back(PropertySpec::of(f));
  }
  req.signals = {"count"};
  req.want_traces = true;

  const SuiteResult r = Engine().run(req);
  ASSERT_EQ(r.signals.size(), 1u);
  EXPECT_GT(r.signals[0].percent, 0.0);
  EXPECT_LT(r.signals[0].percent, 100.0);  // The reset/stall hole.
  EXPECT_FALSE(r.signals[0].uncovered.empty());
  ASSERT_TRUE(r.signals[0].trace.has_value());
  EXPECT_FALSE(r.signals[0].trace->steps.empty());
  // The covered handle stays valid: `retain` parks the session.
  EXPECT_TRUE(r.retain != nullptr);
  EXPECT_FALSE(r.signals[0].covered.is_false());
}

// Assigning over a live result must drop the old rows' covered handles
// before the session (and manager) they point into; otherwise ASan
// reports a heap-use-after-free in Bdd::~Bdd.
TEST(EngineTest, AssigningOverALiveResultReleasesHandlesFirst) {
  const circuits::TokenRingSpec spec{8, 2};
  CoverageRequest req;
  req.model = circuits::make_token_ring(spec);
  for (const auto& f : circuits::ring_safety_properties(spec)) {
    req.properties.push_back(PropertySpec::of(f));
  }
  for (unsigned k = 0; k < spec.cells; ++k) {
    req.signals.push_back("tok" + std::to_string(k));
  }
  SuiteResult r;
  for (int i = 0; i < 3; ++i) {
    r = Engine().run(req);
    ASSERT_EQ(r.signals.size(), spec.cells);
    EXPECT_FALSE(r.signals[0].covered.is_false());
  }
  SuiteResult copy;
  copy = r;  // Copy assignment over an empty result...
  copy = r;  // ...and over a live one sharing the same manager.
  EXPECT_EQ(copy.signals.size(), spec.cells);
}

TEST(EngineTest, SessionReuseSharesWorkAcrossSuites) {
  const circuits::CircularQueueSpec spec{3};
  CoverageRequest base;
  base.model = circuits::make_circular_queue(spec);
  auto session = Engine().open(base);

  auto suite = circuits::queue_wrap_properties_initial(spec);
  CoverageRequest phase1;
  for (const auto& f : suite) phase1.properties.push_back(PropertySpec::of(f));
  phase1.signals = {"wrap"};
  const double pct1 = session->run(phase1).signals.front().percent;

  const std::size_t memo_after_first = session->checker().memo_size();
  // Re-running the same suite hits the structural memo: no new entries.
  session->run(phase1);
  EXPECT_EQ(session->checker().memo_size(), memo_after_first);

  // A grown suite is monotone.
  suite.push_back(circuits::queue_wrap_stall_property(spec));
  CoverageRequest phase2 = phase1;
  phase2.properties.clear();
  for (const auto& f : suite) phase2.properties.push_back(PropertySpec::of(f));
  EXPECT_GE(session->run(phase2).signals.front().percent, pct1);
}

// --------------------------------------------------------------------------
// Progress and cancellation
// --------------------------------------------------------------------------

TEST(EngineProgressTest, TicksArriveInPhaseOrderWithTotals) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);

  std::vector<Progress> ticks;
  RunHooks hooks;
  hooks.on_progress = [&ticks](const Progress& p) {
    ticks.push_back(p);
    return true;
  };
  const SuiteResult r = Engine().run(req, hooks);
  EXPECT_FALSE(r.cancelled);

  // elaborate, 2 properties, 1 signal, done.
  ASSERT_EQ(ticks.size(), 5u);
  EXPECT_EQ(ticks[0].phase, Progress::Phase::kElaborate);
  EXPECT_EQ(ticks[1].phase, Progress::Phase::kVerify);
  EXPECT_EQ(ticks[1].index, 1u);
  EXPECT_EQ(ticks[1].total, 2u);
  EXPECT_TRUE(ticks[1].ok);
  EXPECT_EQ(ticks[2].phase, Progress::Phase::kVerify);
  EXPECT_EQ(ticks[2].index, 2u);
  EXPECT_EQ(ticks[3].phase, Progress::Phase::kEstimate);
  EXPECT_EQ(ticks[3].item, "ack");
  EXPECT_DOUBLE_EQ(ticks[3].percent, 100.0);
  EXPECT_EQ(ticks[4].phase, Progress::Phase::kDone);
}

TEST(EngineProgressTest, CancellingDuringVerifyReturnsPartialResult) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);

  RunHooks hooks;
  hooks.on_progress = [](const Progress& p) {
    return p.phase != Progress::Phase::kVerify;  // Cancel on first property.
  };
  const SuiteResult r = Engine().run(req, hooks);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.properties.size(), 1u);  // Stopped after the first check.
  EXPECT_TRUE(r.signals.empty());     // Never reached estimation.
}

TEST(EngineProgressTest, CancellingDuringEstimateKeepsVerification) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);

  RunHooks hooks;
  hooks.on_progress = [](const Progress& p) {
    return p.phase != Progress::Phase::kEstimate;
  };
  const SuiteResult r = Engine().run(req, hooks);
  EXPECT_TRUE(r.cancelled);
  EXPECT_EQ(r.properties.size(), 2u);  // Verification completed.
  EXPECT_EQ(r.signals.size(), 1u);     // First row done, then stopped.
}

// --------------------------------------------------------------------------
// JSON serializer
// --------------------------------------------------------------------------

TEST(ResultJsonTest, ValidatorAcceptsAndRejects) {
  std::string err;
  EXPECT_TRUE(engine::validate_json(R"({"a": [1, 2.5e-3], "b": "x\n"})",
                                    &err));
  EXPECT_TRUE(engine::validate_json("[]", &err));
  EXPECT_TRUE(engine::validate_json("null", &err));
  EXPECT_FALSE(engine::validate_json("", &err));
  EXPECT_FALSE(engine::validate_json("{", &err));
  EXPECT_FALSE(engine::validate_json("{\"a\": 1,}", &err));
  EXPECT_FALSE(engine::validate_json("[1 2]", &err));
  EXPECT_FALSE(engine::validate_json("{\"a\": 01}", &err));
  EXPECT_FALSE(engine::validate_json("\"unterminated", &err));
  EXPECT_FALSE(engine::validate_json("[1] trailing", &err));
}

TEST(ResultJsonTest, OutputValidatesAndEscapes) {
  CoverageRequest req;
  req.model = model::parse_model(kHandshakeSource);
  SuiteResult r = Engine().run(req);
  r.model_name = "quoted\"name\nwith\tescapes\\";

  for (const bool pretty : {true, false}) {
    engine::JsonOptions opts;
    opts.pretty = pretty;
    const std::string json = engine::to_json(r, opts);
    std::string err;
    EXPECT_TRUE(engine::validate_json(json, &err)) << err << "\n" << json;
  }
}

// Golden-file tests: deterministic serializations (include_stats=false)
// compared byte-for-byte. Regenerate with
//   COVEST_REGEN_GOLDEN=1 ./engine_test
class GoldenJsonTest : public ::testing::Test {
 protected:
  static std::string golden_path(const std::string& name) {
    return std::string(COVEST_SOURCE_DIR) + "/tests/golden/" + name;
  }

  static void compare_or_regen(const std::string& name,
                               const std::string& actual) {
    const std::string path = golden_path(name);
    if (std::getenv("COVEST_REGEN_GOLDEN") != nullptr) {
      std::ofstream out(path, std::ios::binary);
      ASSERT_TRUE(out.good()) << "cannot write " << path;
      out << actual;
      GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in.good()) << "missing golden file " << path;
    std::ostringstream expected;
    expected << in.rdbuf();
    EXPECT_EQ(actual, expected.str()) << "golden mismatch for " << name;
  }
};

TEST_F(GoldenJsonTest, ArbiterSuite) {
  CoverageRequest req;
  req.model_path = std::string(COVEST_SOURCE_DIR) +
                   "/examples/models/arbiter.cov";
  const SuiteResult r = Engine().run(req);

  engine::JsonOptions opts;
  opts.include_stats = false;
  const std::string json = engine::to_json(r, opts);
  std::string err;
  ASSERT_TRUE(engine::validate_json(json, &err)) << err;
  compare_or_regen("arbiter_suite.json", json);
}

TEST_F(GoldenJsonTest, CounterSuiteWithHolesAndTrace) {
  CoverageRequest req;
  req.model_path = std::string(COVEST_SOURCE_DIR) +
                   "/examples/models/counter.cov";
  req.want_traces = true;
  const SuiteResult r = Engine().run(req);

  engine::JsonOptions opts;
  opts.include_stats = false;
  const std::string json = engine::to_json(r, opts);
  std::string err;
  ASSERT_TRUE(engine::validate_json(json, &err)) << err;
  compare_or_regen("counter_suite.json", json);
}

TEST_F(GoldenJsonTest, TextRendererIsStableToo) {
  CoverageRequest req;
  req.model_path = std::string(COVEST_SOURCE_DIR) +
                   "/examples/models/counter.cov";
  req.want_traces = true;
  const SuiteResult r = Engine().run(req);
  compare_or_regen("counter_suite.txt", engine::render_text(r));
}

}  // namespace
}  // namespace covest
