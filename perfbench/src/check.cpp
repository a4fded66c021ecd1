// The checking process: every reply the measuring process recorded is
// held against answers from outside the measured path.
//
//   1. A serial, cold, unsharded `Engine::run` of the same request must
//      render the same stats-free JSON (catches divergence from the
//      cache, concurrency and sharding).
//   2. Construction facts: every SPEC of a token ring or generated model
//      holds; the seeded-bug buffer's missing-case property fails.
//   3. For models of at most 64 explicit states, the explicit
//      Definition-3 oracle (core::definition3_covered over
//      xstate::ExplicitModel) gives the verdicts, the reachable and
//      coverage-space counts and every row's covered-state count.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <sstream>
#include <thread>
#include <vector>

#include "core/coverage_oracle.h"
#include "core/observed.h"
#include "ctl/ctl_parser.h"
#include "engine/engine.h"
#include "engine/json.h"
#include "engine/request_json.h"
#include "engine/result_json.h"
#include "harness.h"
#include "model/model_parser.h"
#include "xstate/explicit_model.h"

namespace perfbench {

namespace {

using namespace covest;
namespace json = covest::engine::json;

struct Reply {
  std::size_t item = 0;
  std::string text;
};

/// What the explicit oracle says about one model and its own SPEC suite.
struct OracleAnswer {
  std::vector<bool> holds;
  double reachable = 0, space = 0;
  std::map<std::string, double> covered;  ///< Per observed signal.
};

OracleAnswer oracle_answer(const std::string& source) {
  const model::Model m = model::parse_model_source(source, "oracle");
  engine::CoverageRequest req;
  const std::vector<engine::PropertySpec> specs = engine::resolve_suite(req, m);
  const std::vector<std::string> signals = engine::resolve_signal_names(req, m);
  const xstate::ExplicitModel xm(m);
  OracleAnswer a;
  std::vector<ctl::Formula> formulas;
  for (const auto& s : specs) {
    formulas.push_back(ctl::parse_ctl(s.ctl_text));
    a.holds.push_back(xm.holds(ctl::collapse_propositional(formulas.back())));
  }
  std::vector<bool> dontcare(xm.num_states(), false);
  for (const expr::Expr& dc : m.dontcares()) {
    const std::vector<bool> sat = xm.sat(ctl::Formula::prop(dc));
    for (std::size_t s = 0; s < sat.size(); ++s) dontcare[s] = dontcare[s] || sat[s];
  }
  std::vector<bool> space(xm.num_states());
  for (std::size_t s = 0; s < xm.num_states(); ++s) {
    if (xm.reachable()[s]) a.reachable += 1;
    // Any state on a path to a fair state is itself fair, so plain
    // reachability intersected with the fair set is fair reachability.
    space[s] = xm.reachable()[s] && xm.fair()[s] && !dontcare[s];
    if (space[s]) a.space += 1;
  }
  for (const std::string& name : signals) {
    std::vector<bool> covered(xm.num_states(), false);
    for (std::size_t j = 0; j < specs.size(); ++j) {
      if (!a.holds[j]) continue;  // Failing properties are skipped.
      const auto& obs = specs[j].observe;
      if (!obs.empty() && std::find(obs.begin(), obs.end(), name) == obs.end()) {
        continue;
      }
      for (const core::ObservedSignal& q : core::observe_all_bits(m, name)) {
        for (std::size_t s : core::definition3_covered(xm, formulas[j], q, true).covered) {
          covered[s] = true;
        }
      }
    }
    double count = 0;
    for (std::size_t s = 0; s < xm.num_states(); ++s) count += covered[s] && space[s];
    a.covered[name] = count;
  }
  return a;
}

const json::Value* member(const json::Value& v, const std::string& key) {
  for (const auto& [k, m] : v.object) {
    if (k == key) return &m;
  }
  return nullptr;
}

double number(const json::Value& v, const std::string& key) {
  const json::Value* m = member(v, key);
  return m == nullptr ? -1.0 : m->number;
}

std::vector<bool> reply_verdicts(const json::Value& reply) {
  std::vector<bool> out;
  if (const json::Value* props = member(reply, "properties")) {
    for (const json::Value& p : props->array) {
      const json::Value* h = member(p, "holds");
      out.push_back(h != nullptr && h->boolean);
    }
  }
  return out;
}

/// Empty when the reply agrees with the facts and the oracle.
std::string independent_mismatch(const Item& item, const json::Value& reply,
                                 const OracleAnswer* oracle) {
  const std::vector<bool> holds = reply_verdicts(reply);
  if (item.facts.all_hold &&
      std::find(holds.begin(), holds.end(), false) != holds.end()) {
    return "a SPEC that holds by construction failed";
  }
  if (item.facts.must_fail >= 0 &&
      (static_cast<std::size_t>(item.facts.must_fail) >= holds.size() ||
       holds[static_cast<std::size_t>(item.facts.must_fail)])) {
    return "the seeded bug escaped";
  }
  if (oracle == nullptr) return "";
  if (holds != oracle->holds) return "verdicts differ from the oracle";
  const json::Value* mdl = member(reply, "model");
  if (mdl == nullptr || number(*mdl, "reachable_states") != oracle->reachable ||
      number(*mdl, "coverage_space_states") != oracle->space) {
    return "state counts differ from the oracle";
  }
  const json::Value* rows = member(reply, "signals");
  if (rows == nullptr || rows->array.size() != oracle->covered.size()) {
    return "row set differs from the oracle";
  }
  for (const json::Value& row : rows->array) {
    const json::Value* name = member(row, "name");
    if (name == nullptr) return "row without a name";
    auto it = oracle->covered.find(name->string);
    if (it == oracle->covered.end() || number(row, "covered_states") != it->second) {
      return "covered states of " + name->string + " differ from the oracle";
    }
  }
  return "";
}

/// Runs `work(i)` for i in [0, n) on `threads` threads.
template <typename F>
void parallel_for(std::size_t n, std::size_t threads, F&& work) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  for (std::size_t t = 0; t < std::max<std::size_t>(1, threads); ++t) {
    pool.emplace_back([&] {
      for (std::size_t i; (i = next.fetch_add(1)) < n;) work(i);
    });
  }
  for (auto& th : pool) th.join();
}

}  // namespace

int run_check(const Options& o) {
  std::vector<Reply> replies;
  {
    std::ifstream in(o.replies_path);
    std::string line;
    while (std::getline(in, line)) {
      const std::size_t a = line.find('\t');
      const std::size_t b = line.find('\t', a + 1);
      if (a == std::string::npos || b == std::string::npos) continue;
      replies.push_back({std::stoul(line.substr(a + 1, b - a - 1)), line.substr(b + 1)});
    }
  }

  // Distinct requests: a pool index, a warm model or a cold request.
  const bool server = is_server_workload(o.workload);
  std::vector<Item> pool;
  if (!server) pool = executor_pool(o.workload, o.seed, o.nproc);
  std::map<std::string, std::size_t> unit_of_key;
  std::vector<Item> units;
  std::vector<std::size_t> reply_unit(replies.size());
  for (std::size_t r = 0; r < replies.size(); ++r) {
    Item it = server ? server_item(o.workload, o.seed, replies[r].item)
                     : pool.at(replies[r].item);
    const std::string key = server ? it.line : std::to_string(replies[r].item);
    auto [pos, inserted] = unit_of_key.emplace(key, units.size());
    if (inserted) units.push_back(std::move(it));
    reply_unit[r] = pos->second;
  }

  std::vector<std::string> reference(units.size());
  parallel_for(units.size(), o.nproc, [&](std::size_t u) {
    engine::CoverageRequest req = server ? engine::request_from_json(units[u].line)
                                         : units[u].request;
    req.shards = 1;
    std::optional<engine::SuiteResult> result;
    result.emplace(engine::Engine().run(req));
    engine::JsonOptions jo;
    jo.pretty = false;
    jo.include_stats = false;
    reference[u] = normalize_reply(engine::to_json(*result, jo));
  });

  std::map<std::string, std::size_t> oracle_of_key;
  std::vector<std::string> oracle_sources;
  for (const Item& it : units) {
    if (it.oracle && oracle_of_key.emplace(it.oracle_key, oracle_sources.size()).second) {
      oracle_sources.push_back(it.source);
    }
  }
  std::vector<OracleAnswer> oracle(oracle_sources.size());
  parallel_for(oracle_sources.size(), o.nproc,
               [&](std::size_t k) { oracle[k] = oracle_answer(oracle_sources[k]); });

  std::size_t mismatches = 0, oracle_checked = 0, fact_checked = 0;
  for (std::size_t r = 0; r < replies.size(); ++r) {
    const Item& it = units[reply_unit[r]];
    std::string why;
    try {
      const std::string got = normalize_reply(replies[r].text);
      if (got != reference[reply_unit[r]]) {
        why = "differs from a serial cold Engine::run";
      } else {
        const OracleAnswer* oa = nullptr;
        if (it.oracle) {
          oa = &oracle[oracle_of_key.at(it.oracle_key)];
          ++oracle_checked;
        }
        if (it.facts.all_hold || it.facts.must_fail >= 0) ++fact_checked;
        why = independent_mismatch(it, json::parse(replies[r].text), oa);
      }
    } catch (const std::exception& e) {
      why = std::string("unreadable reply: ") + e.what();
    }
    if (!why.empty()) {
      if (mismatches < 5) {
        std::printf("  MISMATCH %s (item %zu): %s\n", it.label.c_str(),
                    replies[r].item, why.c_str());
      }
      ++mismatches;
    }
  }
  std::printf("  checked %zu replies over %zu distinct requests; %zu against "
              "the Definition-3 oracle (%zu models), %zu against construction "
              "facts\n",
              replies.size(), units.size(), oracle_checked, oracle.size(),
              fact_checked);
  std::printf("{\"checked\":%zu,\"mismatches\":%zu,\"oracle_checked\":%zu,"
              "\"fact_checked\":%zu}\n",
              replies.size(), mismatches, oracle_checked, fact_checked);
  return mismatches == 0 ? 0 : 1;
}

}  // namespace perfbench
