#include "covgen.h"

#include <algorithm>
#include <sstream>

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t Rng::range(std::uint64_t lo, std::uint64_t hi) {
  const std::uint64_t span = hi - lo + 1;
  if (span == 0) return next();  // The full 64-bit range.
  // Rejection keeps the draw exactly uniform.
  const std::uint64_t limit = ~std::uint64_t{0} - (~std::uint64_t{0} % span);
  std::uint64_t x = next();
  while (x >= limit) x = next();
  return lo + x % span;
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream,
                          std::uint64_t index) {
  Rng a(seed ^ (stream * 0xd1342543de82ef95ULL));
  Rng b(a.next() ^ (index * 0x9e3779b97f4a7c15ULL));
  return b.next();
}

CovSpec random_spec(Rng& rng, Family family, unsigned min_size,
                    unsigned max_size) {
  CovSpec s;
  s.family = family;
  s.size = static_cast<unsigned>(rng.range(min_size, max_size));
  s.suite_mask = static_cast<unsigned>(rng.range(0, 15)) | 1u;
  if (family == Family::kCounter) {
    const std::uint64_t top = std::uint64_t{1} << s.size;
    s.limit = rng.range(top / 2 + 1, top);
  }
  return s;
}

namespace {

void render_ring(std::ostream& os, const CovSpec& s) {
  const unsigned n = s.size;
  auto tok = [](unsigned k) { return "tok" + std::to_string(k); };
  for (unsigned k = 0; k < n; ++k) os << "VAR " << tok(k) << " : bool;\n";
  os << "IVAR adv : bool;\n";
  for (unsigned k = 0; k < n; ++k) {
    os << "INIT " << tok(k) << " := " << (k == 0 ? "true" : "false")
       << ";\n";
  }
  for (unsigned k = 0; k < n; ++k) {
    os << "NEXT " << tok(k) << " := adv ? " << tok((k + n - 1) % n) << " : "
       << tok(k) << ";\n";
  }
  for (unsigned k = 0; k < n && k < 4; ++k) {
    os << "SPEC AG (!(" << tok(k) << " & " << tok((k + 1) % n)
       << ")) OBSERVE " << tok(k) << ";\n";
  }
  for (unsigned k = 0; k < n; ++k) {
    if (s.suite_mask & 2u) {
      os << "SPEC AG (adv & " << tok(k) << " -> AX " << tok((k + 1) % n)
         << ") OBSERVE " << tok((k + 1) % n) << ";\n";
    }
    if (s.suite_mask & 4u) {
      os << "SPEC AG (!adv & " << tok(k) << " -> AX " << tok(k)
         << ") OBSERVE " << tok(k) << ";\n";
    }
  }
}

void render_counter(std::ostream& os, const CovSpec& s) {
  const std::uint64_t last = s.limit - 1;
  os << "VAR count : uint<" << s.size << ">;\n"
     << "IVAR stall : bool;\nIVAR reset : bool;\n"
     << "INIT count := 0;\n"
     << "NEXT count := reset ? 0 : (stall ? count : ((count == " << last
     << ") ? 0 : count + 1));\n";
  if (s.limit < (std::uint64_t{1} << s.size)) {
    os << "DONTCARE count > " << last << ";\n";
  }
  for (std::uint64_t k = 0; k < last; ++k) {
    os << "SPEC AG (!stall & !reset & count == " << k
       << " -> AX (count == " << k + 1 << ")) OBSERVE count;\n";
  }
  if (s.suite_mask & 2u) {
    os << "SPEC AG (!stall & !reset & count == " << last
       << " -> AX (count == 0)) OBSERVE count;\n"
       << "SPEC AG (reset -> AX (count == 0)) OBSERVE count;\n";
  }
  if (s.suite_mask & 4u) {
    for (std::uint64_t k = 0; k <= last && k < 4; ++k) {
      os << "SPEC AG (stall & !reset & count == " << k
         << " -> AX (count == " << k << ")) OBSERVE count;\n";
    }
  }
}

void render_queue(std::ostream& os, const CovSpec& s) {
  const std::uint64_t depth = std::uint64_t{1} << s.size;
  os << "VAR wptr : uint<" << s.size << ">;\n"
     << "VAR rptr : uint<" << s.size << ">;\n"
     << "VAR full : bool;\n"
     << "IVAR push : bool;\nIVAR pop : bool;\n"
     << "DEFINE empty := (wptr == rptr) & !full;\n"
     << "DEFINE do_push := push & !full;\n"
     << "DEFINE do_pop := pop & !push & !empty;\n"
     << "INIT wptr := 0;\nINIT rptr := 0;\nINIT full := false;\n"
     << "NEXT wptr := do_push ? wptr + 1 : wptr;\n"
     << "NEXT rptr := do_pop ? rptr + 1 : rptr;\n"
     << "NEXT full := do_push ? (wptr + 1 == rptr) "
        ": (do_pop ? false : full);\n";
  for (std::uint64_t k = 0; k < depth; ++k) {
    os << "SPEC AG (do_push & wptr == " << k << " -> AX (wptr == "
       << (k + 1) % depth << ")) OBSERVE wptr;\n";
    if (s.suite_mask & 2u) {
      os << "SPEC AG (do_pop & rptr == " << k << " -> AX (rptr == "
         << (k + 1) % depth << ")) OBSERVE rptr;\n";
    }
    if (s.suite_mask & 8u) {
      os << "SPEC AG (!push & wptr == " << k << " -> AX (wptr == " << k
         << ")) OBSERVE wptr;\n";
    }
  }
  if (s.suite_mask & 4u) {
    os << "SPEC AG (empty & !push -> AX empty) OBSERVE full;\n"
       << "SPEC AG (full & !pop -> AX full) OBSERVE full;\n";
  }
}

}  // namespace

std::string render_cov(const CovSpec& spec, const std::string& module) {
  std::ostringstream os;
  os << "MODULE " << module << ";\n";
  switch (spec.family) {
    case Family::kRing: render_ring(os, spec); break;
    case Family::kCounter: render_counter(os, spec); break;
    case Family::kQueue: render_queue(os, spec); break;
  }
  return os.str();
}

unsigned explicit_bits(const CovSpec& spec) {
  switch (spec.family) {
    case Family::kRing: return spec.size + 1;
    case Family::kCounter: return spec.size + 2;
    case Family::kQueue: return 2 * spec.size + 3;
  }
  return 64;
}

}  // namespace perfbench
