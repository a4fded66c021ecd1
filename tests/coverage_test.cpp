// Tests for the coverage estimator: the Table-1 algorithm, the coverage
// metric, don't-cares, fairness, uncovered-state reporting and the
// paper's Figure 1-3 examples.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <string>
#include <vector>

#include "circuits/circuits.h"
#include "core/coverage.h"
#include "core/observed.h"
#include "core/transform.h"
#include "ctl/checker.h"
#include "ctl/ctl_parser.h"
#include "fsm/symbolic_fsm.h"
#include "model/model_parser.h"

namespace covest::core {
namespace {

using bdd::Bdd;
using ctl::Formula;
using ctl::parse_ctl;
using expr::Expr;

// --------------------------------------------------------------------------
// Figure 1: AG(p1 -> AX AX q)
// --------------------------------------------------------------------------

class Fig1Test : public ::testing::Test {
 protected:
  Fig1Test()
      : fsm(circuits::make_fig1_graph()),
        mc(fsm),
        estimator(mc),
        q(observe_bool(fsm.model(), "q")) {}
  fsm::SymbolicFsm fsm;
  ctl::ModelChecker mc;
  CoverageEstimator estimator;
  ObservedSignal q;

  Bdd st_equals(std::uint64_t v) {
    return fsm.blast_bool(Expr::var("st") == Expr::word_const(v, 3));
  }
};

TEST_F(Fig1Test, FormulaHolds) {
  EXPECT_TRUE(mc.holds(circuits::fig1_formula()));
}

TEST_F(Fig1Test, ExactlyTheTwoStepSuccessorIsCovered) {
  const Bdd covered = estimator.covered_set(circuits::fig1_formula(), q);
  // The covered latch state is st==3 (the state two steps after the p1
  // state), with both input values.
  EXPECT_EQ(covered, st_equals(3) & estimator.coverage_space());
  EXPECT_FALSE(covered.is_false());
}

TEST_F(Fig1Test, OtherQStatesAreNotCovered) {
  // st==4 has q asserted but is not critical to the formula (Figure 1).
  const Bdd covered = estimator.covered_set(circuits::fig1_formula(), q);
  EXPECT_FALSE(covered.intersects(st_equals(4)));
}

TEST_F(Fig1Test, CoveragePercentMatchesStateRatio) {
  const SignalCoverage sc =
      estimator.coverage({circuits::fig1_formula()}, q);
  // Reachable latch states: st in {0,1,2,3,4}, input free -> 10 states;
  // covered: st==3 with both inputs -> 2 states.
  EXPECT_DOUBLE_EQ(sc.covered_count, 2.0);
  EXPECT_NEAR(sc.percent, 20.0, 1e-9);
}

// --------------------------------------------------------------------------
// Figure 2: A[p1 U q] — the eventuality anomaly
// --------------------------------------------------------------------------

class Fig2Test : public ::testing::Test {
 protected:
  Fig2Test()
      : fsm(circuits::make_fig2_graph()),
        mc(fsm),
        estimator(mc),
        q(observe_bool(fsm.model(), "q")) {}
  fsm::SymbolicFsm fsm;
  ctl::ModelChecker mc;
  CoverageEstimator estimator;
  ObservedSignal q;

  Bdd st_equals(std::uint64_t v) {
    return fsm.blast_bool(Expr::var("st") == Expr::word_const(v, 2));
  }
};

TEST_F(Fig2Test, FormulaHolds) {
  EXPECT_TRUE(mc.holds(circuits::fig2_formula()));
}

TEST_F(Fig2Test, TransformedCoverageMarksFirstQState) {
  const Bdd covered = estimator.covered_set(circuits::fig2_formula(), q);
  // Intuitive semantics: the first state where q is asserted (st==2).
  EXPECT_EQ(covered, st_equals(2));
}

TEST_F(Fig2Test, UntilRhsAlsoCoversP1States) {
  // Observing p1 instead: covered states come from the traverse part.
  const ObservedSignal p1 = observe_bool(fsm.model(), "p1");
  const Bdd covered = estimator.covered_set(circuits::fig2_formula(), p1);
  // p1 must hold on st 0 and 1 (before q); flipping p1 there breaks the
  // property. st==2 satisfies q first, so p1 is not needed there.
  EXPECT_EQ(covered, st_equals(0) | st_equals(1));
}

// --------------------------------------------------------------------------
// Figure 3: A[f1 U f2] traverse / firstreached structure
// --------------------------------------------------------------------------

class Fig3Test : public ::testing::Test {
 protected:
  Fig3Test()
      : fsm(circuits::make_fig3_graph()),
        mc(fsm),
        estimator(mc) {}
  fsm::SymbolicFsm fsm;
  ctl::ModelChecker mc;
  CoverageEstimator estimator;

  Bdd st_in(std::initializer_list<std::uint64_t> values) {
    Bdd result = fsm.mgr().bdd_false();
    for (const std::uint64_t v : values) {
      result |= fsm.blast_bool(Expr::var("st") == Expr::word_const(v, 3));
    }
    return result;
  }
};

TEST_F(Fig3Test, FormulaHolds) {
  EXPECT_TRUE(mc.holds(circuits::fig3_formula()));
}

TEST_F(Fig3Test, F2CoverageIsFirstReachedSet) {
  const ObservedSignal f2 = observe_bool(fsm.model(), "f2");
  const Bdd covered = estimator.covered_set(circuits::fig3_formula(), f2);
  // First f2 states along the paths: 3, 5, 6 (all are first-reached).
  EXPECT_EQ(covered, st_in({3, 5, 6}) & estimator.coverage_space());
}

TEST_F(Fig3Test, F1CoverageIsTraverseSet) {
  const ObservedSignal f1 = observe_bool(fsm.model(), "f1");
  const Bdd covered = estimator.covered_set(circuits::fig3_formula(), f1);
  // f1 matters on the pre-f2 prefix states: 0, 1, 2, 4.
  EXPECT_EQ(covered, st_in({0, 1, 2, 4}) & estimator.coverage_space());
}

// --------------------------------------------------------------------------
// The modulo-5 counter of the introduction
// --------------------------------------------------------------------------

class CounterCoverageTest : public ::testing::Test {
 protected:
  CounterCoverageTest()
      : spec{3, 5},
        fsm(circuits::make_mod_counter(spec)),
        mc(fsm),
        estimator(mc) {}
  circuits::CounterSpec spec;
  fsm::SymbolicFsm fsm;
  ctl::ModelChecker mc;
  CoverageEstimator estimator;
};

TEST_F(CounterCoverageTest, SinglePropertyCoversOnlySuccessorStates) {
  // AG((!stall & !reset & count==2) -> AX(count==3)) covers exactly the
  // successor states of the antecedent: count==3, any inputs.
  const Formula f =
      parse_ctl("AG (!stall & !reset & count == 2 -> AX (count == 3))");
  const auto group = observe_all_bits(fsm.model(), "count");
  Bdd covered = fsm.mgr().bdd_false();
  for (const auto& q : group) covered |= estimator.covered_set(f, q);
  EXPECT_EQ(covered,
            fsm.blast_bool(Expr::var("count") == Expr::word_const(3, 3)));
}

TEST_F(CounterCoverageTest, IncrementSuiteLeavesResetStateUncovered) {
  const auto props = circuits::counter_increment_properties(spec);
  const auto group = observe_all_bits(fsm.model(), "count");
  std::vector<std::vector<ObservedSignal>> groups{group};
  const CoverageReport rep = estimator.report(props, groups);
  ASSERT_EQ(rep.signals.size(), 1u);
  // Successors of count==0..3 are count==1..4: count==0 states are never
  // checked by the increment properties alone.
  EXPECT_LT(rep.signals[0].percent, 100.0);
  const Bdd uncovered = estimator.uncovered(rep.signals[0].covered);
  EXPECT_TRUE(uncovered.subset_of(
      fsm.blast_bool(Expr::var("count") == Expr::word_const(0, 3))));
}

TEST_F(CounterCoverageTest, FullSuiteAchievesFullCoverage) {
  const auto props = circuits::counter_full_suite(spec);
  const auto group = observe_all_bits(fsm.model(), "count");
  SignalCoverage merged;
  Bdd covered = fsm.mgr().bdd_false();
  for (const auto& q : group) {
    covered |= estimator.coverage(props, q).covered;
  }
  EXPECT_EQ(covered & estimator.coverage_space(), estimator.coverage_space());
}

TEST_F(CounterCoverageTest, RequireHoldsThrowsOnFailingProperty) {
  const Formula wrong =
      parse_ctl("AG (!stall & !reset & count == 2 -> AX (count == 4))");
  const auto q = observe_all_bits(fsm.model(), "count")[0];
  EXPECT_THROW(estimator.covered_set(wrong, q), std::runtime_error);
}

TEST_F(CounterCoverageTest, LenientOptionsSkipFailingProperty) {
  CoverageOptions opts;
  opts.require_holds = false;
  CoverageEstimator lenient(mc, opts);
  const Formula wrong =
      parse_ctl("AG (!stall & !reset & count == 2 -> AX (count == 4))");
  const auto q = observe_all_bits(fsm.model(), "count")[0];
  EXPECT_TRUE(lenient.covered_set(wrong, q).is_false());
}

TEST_F(CounterCoverageTest, NonAcceptableFormulaIsRejected) {
  const auto q = observe_all_bits(fsm.model(), "count")[0];
  EXPECT_THROW(estimator.covered_set(parse_ctl("EF (count == 0)"), q),
               std::runtime_error);
  EXPECT_THROW(
      estimator.covered_set(parse_ctl("AG (count == 0) | AG (count == 1)"), q),
      std::runtime_error);
}

TEST_F(CounterCoverageTest, ObservingUninvolvedSignalGivesZero) {
  // Coverage of `stall` (an input never constrained by the consequent).
  const Formula f =
      parse_ctl("AG (!reset & count == 2 -> AX (count == 2 | count == 3))");
  ASSERT_TRUE(mc.holds(f));
  const ObservedSignal stall = observe_bool(fsm.model(), "stall");
  // `stall` appears only in... this formula's antecedent is reset-free;
  // the consequent never mentions stall, so nothing is covered.
  EXPECT_TRUE(estimator.covered_set(f, stall).is_false());
}

TEST_F(CounterCoverageTest, UncoveredExamplesAndTrace) {
  const auto props = circuits::counter_increment_properties(spec);
  const auto group = observe_all_bits(fsm.model(), "count");
  Bdd covered = fsm.mgr().bdd_false();
  for (const auto& q : group) {
    for (const auto& f : props) covered |= estimator.covered_set(f, q);
  }
  const auto examples = estimator.uncovered_examples(covered, 4);
  ASSERT_FALSE(examples.empty());
  EXPECT_NE(examples[0].find("count=0"), std::string::npos);

  const auto trace = estimator.trace_to_uncovered(covered);
  ASSERT_TRUE(trace.has_value());
  EXPECT_EQ(trace->steps.back().values.at("count"), 0u);
}

TEST_F(CounterCoverageTest, FullyCoveredHasNoTrace) {
  EXPECT_FALSE(estimator.trace_to_uncovered(estimator.coverage_space())
                   .has_value());
}

// --------------------------------------------------------------------------
// Don't cares (Section 4.2)
// --------------------------------------------------------------------------

TEST(DontcareTest, DontcareStatesLeaveTheCoverageSpace) {
  model::ModelBuilder b("dc");
  const Expr w = b.state_word("w", 2, 0);
  const Expr go = b.input_bool("go");
  b.next("w", ite(go, w + Expr::word_const(1, 2), w));
  b.dontcare(w == Expr::word_const(3, 2));
  fsm::SymbolicFsm fsm(b.build());
  ctl::ModelChecker mc(fsm);

  CoverageEstimator with_dc(mc);
  CoverageOptions keep;
  keep.exclude_dontcares = false;
  CoverageEstimator without_dc(mc, keep);

  const double space_with = fsm.count_states(with_dc.coverage_space());
  const double space_without = fsm.count_states(without_dc.coverage_space());
  EXPECT_DOUBLE_EQ(space_without - space_with, 2.0);  // w==3, go free.
}

TEST(DontcareTest, PipelineInvalidOutputIsDontcare) {
  fsm::SymbolicFsm fsm(circuits::make_pipeline({2, 2}));
  ctl::ModelChecker mc(fsm);
  CoverageEstimator estimator(mc);
  // The coverage space excludes !outv states entirely.
  EXPECT_TRUE(estimator.coverage_space().subset_of(
      fsm.blast_bool(Expr::var("outv"))));
}

// --------------------------------------------------------------------------
// Fairness (Section 4.3)
// --------------------------------------------------------------------------

TEST(FairCoverageTest, CoverageSpaceRestrictsToFairPaths) {
  // A model with a sink state that has no fair path: x latches to 1 and
  // the fairness constraint demands !x infinitely often.
  model::ModelBuilder b("fair");
  const Expr x = b.state_bool("x", false);
  const Expr go = b.input_bool("go");
  b.next("x", x | go);
  b.fairness(!x);
  fsm::SymbolicFsm fsm(b.build());
  ctl::ModelChecker mc(fsm);
  CoverageEstimator estimator(mc);
  // x==1 is reachable but lies on no fair path.
  const Bdd reach = fsm.reachable(fsm.initial_states());
  EXPECT_TRUE(reach.intersects(fsm.blast_bool(x)));
  EXPECT_FALSE(estimator.coverage_space().intersects(fsm.blast_bool(x)));
}

// --------------------------------------------------------------------------
// Observability transformation (Definition 5)
// --------------------------------------------------------------------------

TEST(TransformTest, AtomSubstitutionIntroducesPrimedSignal) {
  const model::Model m = circuits::make_fig2_graph();
  const ObservedSignal q = observe_bool(m, "q");
  const Formula f = ctl::Formula::prop(Expr::var("q"));
  const Formula t = observability_transform(f, q, m);
  ASSERT_EQ(t.op(), ctl::CtlOp::kProp);
  const auto refs = expr::referenced_signals(t.prop());
  EXPECT_NE(std::find(refs.begin(), refs.end(), "q'"), refs.end());
}

TEST(TransformTest, ImplicationKeepsAntecedentUnprimed) {
  const model::Model m = circuits::make_fig2_graph();
  const ObservedSignal q = observe_bool(m, "q");
  const Formula f = parse_ctl("q -> AX q");
  const Formula t = observability_transform(f, q, m);
  ASSERT_EQ(t.op(), ctl::CtlOp::kImplies);
  // Antecedent references plain q (expanded to its defining expression).
  for (const auto& name : expr::referenced_signals(t.arg(0).prop())) {
    EXPECT_NE(name, "q'");
  }
  // Consequent's atom references q'.
  const auto refs = expr::referenced_signals(t.arg(1).arg(0).prop());
  EXPECT_NE(std::find(refs.begin(), refs.end(), "q'"), refs.end());
}

TEST(TransformTest, UntilSplitsIntoTwoConjuncts) {
  const model::Model m = circuits::make_fig2_graph();
  const ObservedSignal q = observe_bool(m, "q");
  const Formula t =
      observability_transform(circuits::fig2_formula(), q, m);
  // φ(A[p1 U q]) = A[φ(p1) U q] & A[(p1 & !q) U φ(q)].
  ASSERT_EQ(t.op(), ctl::CtlOp::kAnd);
  EXPECT_EQ(t.arg(0).op(), ctl::CtlOp::kAU);
  EXPECT_EQ(t.arg(1).op(), ctl::CtlOp::kAU);
}

TEST(TransformTest, TransformedFormulaIsEquivalentWhenPrimedEqualsQ) {
  // Substituting q' := q in φ(f) yields a formula equivalent to f.
  const model::Model m = circuits::make_fig2_graph();
  const ObservedSignal q = observe_bool(m, "q");
  fsm::SymbolicFsm fsm(m);
  ctl::ModelChecker mc(fsm);
  for (const char* text : {"AG q", "A[p1 U q]", "AF q", "q -> AX q"}) {
    const Formula f = parse_ctl(text);
    Formula t = observability_transform(f, q, m);
    // Re-identify q' with q.
    t = ctl::transform_props(t, [&](const expr::Expr& e) {
      return expr::substitute_signal(e, "q'", Expr::var("q"));
    });
    EXPECT_EQ(mc.sat(ctl::collapse_propositional(f)),
              mc.sat(ctl::collapse_propositional(t)))
        << text;
  }
}

TEST(TransformTest, RejectsNonAcceptableFormulas) {
  const model::Model m = circuits::make_fig2_graph();
  const ObservedSignal q = observe_bool(m, "q");
  EXPECT_THROW(observability_transform(parse_ctl("EF q"), q, m),
               std::runtime_error);
}

// --------------------------------------------------------------------------
// The per-property plan against the literal Table-1 recursion
// --------------------------------------------------------------------------

/// Table 1 executed literally, once per (property, observed bit), from the
/// public FSM and checker primitives: the reference the estimator's
/// split into signal-independent leaf sets and per-signal depend() must
/// reproduce edge for edge. Fair restriction on, failing properties
/// contribute nothing (the estimator under test is lenient too).
class Table1Reference {
 public:
  explicit Table1Reference(ctl::ModelChecker& mc)
      : mc_(mc), fsm_(mc.fsm()) {}

  Bdd covered_set(const Formula& f, const ObservedSignal& q) {
    const Formula collapsed = ctl::collapse_propositional(f);
    if (!mc_.holds(collapsed)) return fsm_.mgr().bdd_false();
    return covered(fsm_.initial_states() & mc_.fair_states(), collapsed, q);
  }

 private:
  Bdd covered(const Bdd& s0, const Formula& f, const ObservedSignal& q) {
    if (s0.is_false()) return fsm_.mgr().bdd_false();
    switch (f.op()) {
      case ctl::CtlOp::kProp:
        return s0 & depend(f.prop(), q);
      case ctl::CtlOp::kImplies:
        return covered(s0 & mc_.sat(f.arg(0)), f.arg(1), q);
      case ctl::CtlOp::kAX:
        return covered(forward(s0), f.arg(0), q);
      case ctl::CtlOp::kAG:
        return covered(reachable(s0), f.arg(0), q);
      case ctl::CtlOp::kAF:
        return covered(firstreached(s0, mc_.sat(f.arg(0))), f.arg(0), q);
      case ctl::CtlOp::kAU: {
        const Bdd t1 = mc_.sat(f.arg(0));
        const Bdd t2 = mc_.sat(f.arg(1));
        return covered(traverse(s0, t1, t2), f.arg(0), q) |
               covered(firstreached(s0, t2), f.arg(1), q);
      }
      case ctl::CtlOp::kAnd:
        return covered(s0, f.arg(0), q) | covered(s0, f.arg(1), q);
      default:
        ADD_FAILURE() << "operator outside the acceptable subset";
        return fsm_.mgr().bdd_false();
    }
  }

  Bdd depend(const Expr& atom, const ObservedSignal& q) {
    const model::Model& m = fsm_.model();
    const Expr expanded = m.expand_defines(atom, &q.name);
    const Expr flipped =
        expr::substitute_signal(expanded, q.name, flip_replacement(m, q));
    return fsm_.blast_bool(expanded) - fsm_.blast_bool(flipped);
  }

  Bdd forward(const Bdd& s) { return fsm_.forward(s) & mc_.fair_states(); }

  Bdd reachable(const Bdd& s) {
    Bdd reached = s;
    Bdd frontier = s;
    while (!frontier.is_false()) {
      frontier = forward(frontier) - reached;
      reached |= frontier;
    }
    return reached;
  }

  Bdd traverse(const Bdd& s0, const Bdd& t1, const Bdd& t2) {
    const Bdd band = t1 - t2;
    Bdd acc = s0 & band;
    Bdd frontier = acc;
    while (!frontier.is_false()) {
      frontier = (forward(frontier) & band) - acc;
      acc |= frontier;
    }
    return acc;
  }

  Bdd firstreached(const Bdd& s0, const Bdd& t2) {
    Bdd first = s0 & t2;
    Bdd visited = s0;
    Bdd frontier = s0 - t2;
    while (!frontier.is_false()) {
      const Bdd next = forward(frontier) - visited;
      visited |= next;
      first |= next & t2;
      frontier = next - t2;
    }
    return first;
  }

  ctl::ModelChecker& mc_;
  const fsm::SymbolicFsm& fsm_;
};

/// Every state signal plus every OBSERVE target, one row group each.
std::vector<std::vector<ObservedSignal>> row_groups(const model::Model& m) {
  std::vector<std::string> names;
  for (const model::Signal& s : m.signals()) {
    if (s.kind == model::SignalKind::kState) names.push_back(s.name);
  }
  for (const model::SpecEntry& spec : m.specs()) {
    for (const std::string& n : spec.observed) {
      if (std::find(names.begin(), names.end(), n) == names.end()) {
        names.push_back(n);
      }
    }
  }
  std::vector<std::vector<ObservedSignal>> groups;
  for (const std::string& n : names) groups.push_back(observe_all_bits(m, n));
  return groups;
}

void expect_plan_matches_reference(const model::Model& model,
                                   const std::vector<Formula>& properties) {
  fsm::SymbolicFsm fsm(model);
  ctl::ModelChecker mc(fsm);
  CoverageOptions lenient;
  lenient.require_holds = false;
  CoverageEstimator estimator(mc, lenient);
  Table1Reference reference(mc);
  const auto groups = row_groups(model);
  ASSERT_FALSE(groups.empty());

  std::vector<Bdd> rows;
  for (const auto& group : groups) {
    const SignalCoverage row = estimator.coverage(properties, group);
    Bdd expected = fsm.mgr().bdd_false();
    for (const ObservedSignal& q : group) {
      for (const Formula& f : properties) {
        expected |= reference.covered_set(f, q);
      }
    }
    EXPECT_EQ(row.covered, expected) << "row " << group.front().name;
    rows.push_back(row.covered);
  }
  // The comparison is only meaningful if something is covered at all.
  EXPECT_TRUE(std::any_of(rows.begin(), rows.end(),
                          [](const Bdd& r) { return !r.is_false(); }));

  // A second estimator over the same checker, rows in reverse order: the
  // plans it builds must not depend on which row asked first.
  CoverageEstimator reversed(mc, lenient);
  for (std::size_t i = groups.size(); i-- > 0;) {
    EXPECT_EQ(reversed.coverage(properties, groups[i]).covered, rows[i])
        << "reversed row " << groups[i].front().name;
  }
}

std::vector<Formula> concat(std::vector<std::vector<Formula>> parts) {
  std::vector<Formula> all;
  for (auto& part : parts) all.insert(all.end(), part.begin(), part.end());
  return all;
}

TEST(PlanDifferentialTest, CircuitFamiliesMatchTheTable1Reference) {
  {
    SCOPED_TRACE("token_ring(8)");
    circuits::TokenRingSpec spec;
    spec.cells = 8;
    expect_plan_matches_reference(circuits::make_token_ring(spec),
                                  circuits::ring_safety_properties(spec));
  }
  {
    SCOPED_TRACE("pipeline(4)");
    circuits::PipelineSpec spec;
    spec.stages = 4;
    expect_plan_matches_reference(
        circuits::make_pipeline(spec),
        concat({circuits::pipeline_properties_initial(spec),
                circuits::pipeline_hold_properties(spec)}));
  }
  {
    SCOPED_TRACE("circular_queue(3)");
    circuits::CircularQueueSpec spec;
    spec.ptr_bits = 3;
    expect_plan_matches_reference(
        circuits::make_circular_queue(spec),
        concat({circuits::queue_wrap_properties_initial(spec),
                circuits::queue_wrap_properties_additional(spec),
                {circuits::queue_wrap_stall_property(spec)},
                circuits::queue_full_properties(spec),
                circuits::queue_empty_properties(spec)}));
  }
  for (const bool with_bug : {false, true}) {
    SCOPED_TRACE(with_bug ? "priority_buffer(8,bug)" : "priority_buffer(8)");
    circuits::PriorityBufferSpec spec;
    spec.capacity = 8;
    spec.with_bug = with_bug;
    expect_plan_matches_reference(
        circuits::make_priority_buffer(spec),
        concat({circuits::buffer_hi_properties(spec),
                circuits::buffer_lo_properties_initial(spec),
                {circuits::buffer_lo_missing_case(spec)}}));
  }
}

TEST(PlanDifferentialTest, ExampleModelsMatchTheTable1Reference) {
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(
           std::string(COVEST_SOURCE_DIR) + "/examples/models")) {
    if (entry.path().extension() == ".cov") {
      paths.push_back(entry.path().string());
    }
  }
  ASSERT_FALSE(paths.empty());
  std::sort(paths.begin(), paths.end());
  for (const std::string& path : paths) {
    SCOPED_TRACE(path);
    const model::Model m = model::parse_model_file(path);
    std::vector<Formula> properties;
    for (const model::SpecEntry& spec : m.specs()) {
      properties.push_back(parse_ctl(spec.ctl_text));
    }
    expect_plan_matches_reference(m, properties);
  }
}

// --------------------------------------------------------------------------
// Observed-signal helpers
// --------------------------------------------------------------------------

TEST(ObservedSignalTest, ParseAndValidate) {
  const model::Model m = circuits::make_mod_counter({3, 5});
  EXPECT_EQ(parse_observed(m, "count[1]").bit, 1u);
  EXPECT_EQ(parse_observed(m, "stall").bit, std::nullopt);
  EXPECT_THROW(parse_observed(m, "count"), std::runtime_error);   // Word.
  EXPECT_THROW(parse_observed(m, "count[3]"), std::runtime_error);
  EXPECT_THROW(parse_observed(m, "ghost"), std::runtime_error);
  EXPECT_EQ(observe_all_bits(m, "count").size(), 3u);
  EXPECT_EQ(observe_all_bits(m, "stall").size(), 1u);
}

TEST(ObservedSignalTest, FlipReplacementSemantics) {
  const model::Model m = circuits::make_mod_counter({3, 5});
  const Expr flip = flip_replacement(m, ObservedSignal{"count", 1});
  // count ^ 2 flips exactly bit 1.
  EXPECT_EQ(expr::to_string(flip), "count ^ 2");
  const Expr bflip = flip_replacement(m, ObservedSignal{"stall", {}});
  EXPECT_EQ(expr::to_string(bflip), "!stall");
}

}  // namespace
}  // namespace covest::core
