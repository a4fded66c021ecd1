// Seeded `.cov` text generator for the server workloads' inline models.
//
// Three families, each small and correct by construction (every SPEC it
// writes holds on the model it writes, so a reply with a failing SPEC is
// a wrong answer):
//
//   ring     one-hot token ring of `cells` stations and an `adv` input;
//   counter  modulo-`limit` counter of `width` bits with stall/reset;
//   queue    read/write pointers of `ptr_bits` bits with a full flag.
//
// Output depends only on the spec and the module name, so a fixed seed
// gives byte-identical text on every platform.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// splitmix64: a tiny, fully specified generator. The standard library's
/// distributions are implementation-defined, so inputs are drawn through
/// this instead to stay identical across toolchains.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [lo, hi] (inclusive).
  std::uint64_t range(std::uint64_t lo, std::uint64_t hi);

 private:
  std::uint64_t state_;
};

/// Mixes a workload seed with a stream tag and an index into a new seed,
/// so request i of a run can be regenerated without generating 0..i-1.
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index);

enum class Family { kRing, kCounter, kQueue };

struct CovSpec {
  Family family = Family::kRing;
  unsigned size = 3;        ///< cells / width / ptr_bits.
  std::uint64_t limit = 0;  ///< counter only: counts 0 .. limit-1.
  /// Bit mask choosing which optional SPEC groups the suite carries;
  /// bit 0 is always treated as set so no suite is empty.
  unsigned suite_mask = 1;
};

/// Draws a spec of `family` whose size lies in [min_size, max_size].
CovSpec random_spec(Rng& rng, Family family, unsigned min_size,
                    unsigned max_size);

/// Renders the model as `.cov` source under `MODULE <module>;`.
std::string render_cov(const CovSpec& spec, const std::string& module);

/// State plus input bits of the rendered model: the explicit oracle
/// enumerates 2^bits states.
unsigned explicit_bits(const CovSpec& spec);

}  // namespace perfbench
