// Direct battery for the lock-free shared-mode structures (bdd.h): the
// CAS-chained unique table under
// same-variable `make_node` bursts, the wait-free lossy computed cache
// under deliberate overwrite races, and the hard (throwing) form of the
// exclusive-only structural-mutation contract. Built for the sanitizer
// CI matrix alongside shared_shard_stress_test: every assertion here
// runs under TSan and ASan+UBSan.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <random>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bdd/bdd.h"

namespace covest::bdd {
namespace {

// --------------------------------------------------------------------------
// Unique table: same-variable bursts stay canonical
// --------------------------------------------------------------------------

/// A formula family deliberately dense in a *tiny* variable set, so every
/// thread's make_node calls land in the same few subtables — the burst
/// pattern the CAS chains must survive.
/// Different lanes build overlapping functions in different orders, which
/// maximizes equal-key CAS races (the loser-recycles path).
Bdd dense_family(BddManager& mgr, const std::vector<Bdd>& vars,
                 std::size_t lane, std::size_t rounds) {
  Bdd acc = lane % 2 == 0 ? mgr.bdd_false() : mgr.bdd_true();
  Bdd parity = mgr.bdd_false();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (std::size_t i = 0; i < vars.size(); ++i) {
      const Bdd& a = vars[(i + lane) % vars.size()];
      const Bdd& b = vars[(i + r) % vars.size()];
      parity ^= a;
      acc = ite(a, acc ^ b, acc | (a & !b));
    }
  }
  return acc ^ parity;
}

TEST(BddLockFreeTest, SameVariableBurstsStayCanonicalAndMatchExclusive) {
  constexpr unsigned kVars = 6;  // Tiny on purpose: maximal collisions.
  constexpr std::size_t kThreads = 4;
  constexpr std::size_t kRounds = 40;
  BddManager mgr(kVars);
  std::vector<Bdd> vars;
  for (unsigned i = 0; i < kVars; ++i) vars.push_back(mgr.var(i));

  std::vector<Bdd> shared_results(kThreads);
  mgr.begin_shared(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        mgr.register_shard_thread();
        shared_results[t] = dense_family(mgr, vars, t, kRounds);
        // Lanes also rebuild each other's functions, so equal-key CAS
        // races are certain, not probabilistic.
        const Bdd twin = dense_family(mgr, vars, (t + 1) % kThreads, kRounds);
        (void)twin;
      });
    }
    for (std::thread& th : threads) th.join();
  }
  mgr.end_shared();

  // Canonicity is global: no stored complemented high edge, no low==high,
  // anywhere in the pool the burst built.
  EXPECT_TRUE(mgr.check_canonical());
  // Exclusive recomputation lands on the identical edge for every lane:
  // the CAS chains deduplicated exactly like a locked table would.
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared_results[t], dense_family(mgr, vars, t, kRounds))
        << "lane " << t;
  }
  // And the structures survive a GC with every root intact.
  mgr.gc();
  for (std::size_t t = 0; t < kThreads; ++t) {
    EXPECT_EQ(shared_results[t], dense_family(mgr, vars, t, kRounds))
        << "post-gc lane " << t;
  }
}

TEST(BddLockFreeTest, RepeatedLockFreeEpochsDoNotLeakThePool) {
  // Equal-key races make losing threads recycle their speculative
  // slots; end_shared returns arena/recycle leftovers to the free list.
  // Repeated epochs must therefore plateau, not grow the pool.
  constexpr unsigned kVars = 6;
  BddManager mgr(kVars);
  std::vector<Bdd> vars;
  for (unsigned i = 0; i < kVars; ++i) vars.push_back(mgr.var(i));

  std::size_t after_first = 0;
  for (int epoch = 0; epoch < 12; ++epoch) {
    mgr.begin_shared(2);
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < 2; ++t) {
      threads.emplace_back([&, t] {
        mgr.register_shard_thread();
        (void)dense_family(mgr, vars, t, 8);
      });
    }
    for (std::thread& th : threads) th.join();
    mgr.end_shared();
    mgr.gc();
    mgr.live_node_count();
    if (epoch == 0) after_first = mgr.stats().allocated_nodes;
  }
  // ≤ one arena block per thread of slack beyond the first epoch.
  EXPECT_LE(mgr.stats().allocated_nodes, after_first + 2 * 256);
}

// --------------------------------------------------------------------------
// Computed cache: overwrite races never alias keys
// --------------------------------------------------------------------------

TEST(BddLockFreeTest, CacheOverwriteRacesNeverReturnAForeignResult) {
  // A deliberately minuscule cache (4 entries) so dozens of distinct
  // keys fight over every slot. The invariant under test is the
  // wait-free cache's whole correctness argument: a reader may miss for
  // any reason, but a hit must carry the result stored with exactly the
  // probed key. Keys are synthetic (op is opaque to the cache) and each
  // key k's only ever-stored result is derived from k, so any aliasing
  // or torn read is immediately visible.
  BddManager mgr(1, /*cache_size_log2=*/2);
  constexpr std::size_t kThreads = 4;
  constexpr std::uint32_t kKeys = 64;
  constexpr int kRoundsPerThread = 20000;
  const auto result_for = [](std::uint32_t k) -> NodeIndex {
    return k * 2654435761u;  // Any key-determined value works.
  };

  std::atomic<std::size_t> hits{0};
  std::atomic<std::size_t> mismatches{0};
  mgr.begin_shared(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        mgr.register_shard_thread();
        std::mt19937 rng(static_cast<unsigned>(t) * 7919u + 13u);
        std::uniform_int_distribution<std::uint32_t> pick(0, kKeys - 1);
        for (int round = 0; round < kRoundsPerThread; ++round) {
          const std::uint32_t k = pick(rng);
          // op >= 1: 0 is the exclusive path's empty marker.
          const std::uint32_t op = 1 + (k % 7);
          if (round % 2 == 0) {
            mgr.debug_cache_store(op, k, k ^ 0x55u, k + 3, result_for(k));
          } else {
            NodeIndex out = 0;
            if (mgr.debug_cache_find(op, k, k ^ 0x55u, k + 3, &out)) {
              ++hits;
              if (out != result_for(k)) ++mismatches;
            }
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  mgr.end_shared();

  EXPECT_EQ(mismatches.load(), 0u);
  // The cache is lossy but not useless: with 4 slots and this much
  // traffic, *some* lookups must have hit.
  EXPECT_GT(hits.load(), 0u);
}

TEST(BddLockFreeTest, CacheEntriesFromBeforeClearCacheStopMatching) {
  // clear_cache's O(1) epoch bump must invalidate wait-free entries
  // exactly like exclusive ones.
  BddManager mgr(1, /*cache_size_log2=*/2);
  mgr.begin_shared(1);
  mgr.register_shard_thread();
  mgr.debug_cache_store(9, 1, 2, 3, 42);
  NodeIndex out = 0;
  EXPECT_TRUE(mgr.debug_cache_find(9, 1, 2, 3, &out));
  EXPECT_EQ(out, 42u);
  mgr.end_shared();

  mgr.clear_cache();

  mgr.begin_shared(1);
  mgr.register_shard_thread();
  EXPECT_FALSE(mgr.debug_cache_find(9, 1, 2, 3, &out));
  mgr.end_shared();
}

TEST(BddLockFreeTest, BeginSharedSeedsExclusiveMemosIntoTheWaitFreeCache) {
  // The shared epoch starts from what the exclusive phase memoized: an
  // entry stored before begin_shared hits from a registered thread.
  BddManager mgr(1);
  mgr.debug_cache_store(9, 1, 2, 3, 42);
  mgr.begin_shared(1);
  bool hit = false;
  NodeIndex out = 0;
  std::thread worker([&] {
    mgr.register_shard_thread();
    hit = mgr.debug_cache_find(9, 1, 2, 3, &out);
  });
  worker.join();
  mgr.end_shared();
  EXPECT_TRUE(hit);
  EXPECT_EQ(out, 42u);
}

TEST(BddLockFreeTest, BeginSharedDoesNotSeedMemosClearedBeforeIt) {
  BddManager mgr(1);
  mgr.debug_cache_store(9, 1, 2, 3, 42);
  mgr.clear_cache();
  mgr.begin_shared(1);
  bool hit = true;
  std::thread worker([&] {
    mgr.register_shard_thread();
    NodeIndex out = 0;
    hit = mgr.debug_cache_find(9, 1, 2, 3, &out);
  });
  worker.join();
  mgr.end_shared();
  EXPECT_FALSE(hit);
}

// --------------------------------------------------------------------------
// Affinity guard and the exclusive-only contract
// --------------------------------------------------------------------------

TEST(BddLockFreeTest, UnregisteredThreadIsRejectedInLockFreeMode) {
  BddManager mgr(2);
  const Bdd a = mgr.var(0);
  const Bdd b = mgr.var(1);
  mgr.begin_shared(2);
  std::thread outsider([&] {
    // Structured failure, not pool corruption.
    EXPECT_THROW((void)(a & b), std::logic_error);
  });
  outsider.join();
  mgr.register_shard_thread();
  const Bdd conj = a & b;
  mgr.end_shared();
  EXPECT_FALSE(conj.is_false());
  EXPECT_TRUE(mgr.check_canonical());
}

TEST(BddLockFreeTest, StructuralMutationThrowsWhileShared) {
  // The exclusive-only entry points are hard errors in release builds
  // too: nothing may free, move or relabel nodes under a shared epoch,
  // and a shared epoch never collects.
  BddManager mgr(4);
  const Bdd keep = mgr.var(0) & mgr.var(1);
  mgr.begin_shared(1);
  mgr.register_shard_thread();
  EXPECT_THROW(mgr.gc(), std::logic_error);
  EXPECT_THROW(mgr.clear_cache(), std::logic_error);
  EXPECT_FALSE((mgr.var(0) & mgr.var(1)).is_false());  // Still operable.
  EXPECT_THROW(mgr.new_var(), std::logic_error);
  EXPECT_THROW(mgr.live_node_count(), std::logic_error);
  EXPECT_THROW(mgr.reorder_sift(), std::logic_error);
  EXPECT_THROW(mgr.swap_adjacent_levels(0), std::logic_error);
  EXPECT_THROW(mgr.set_order({0, 1, 2, 3}), std::logic_error);
  EXPECT_THROW(mgr.begin_shared(2), std::logic_error);
  mgr.end_shared();
  // And everything works again once the epoch is over.
  EXPECT_THROW(mgr.end_shared(), std::logic_error);
  mgr.gc();
  mgr.clear_cache();
  (void)mgr.new_var();
  (void)mgr.live_node_count();
  (void)mgr.reorder_sift();
  EXPECT_FALSE(keep.is_false());
  EXPECT_TRUE(mgr.check_canonical());
}

TEST(BddLockFreeTest, TraversalsRunConcurrentlyWithBursts) {
  // Mixed load: half the threads build (unique-table pressure), half
  // traverse shared roots (sat_count / support / node_count, which size
  // their stamp arrays from the atomic allocation counter while the
  // pool grows under them).
  constexpr unsigned kVars = 8;
  constexpr std::size_t kThreads = 4;
  BddManager mgr(kVars);
  std::vector<Bdd> vars;
  std::vector<Var> over;
  for (unsigned i = 0; i < kVars; ++i) {
    vars.push_back(mgr.var(i));
    over.push_back(i);
  }
  Bdd root = mgr.bdd_false();
  for (unsigned i = 0; i + 1 < kVars; i += 2) {
    root |= vars[i] & !vars[i + 1];
  }
  const double expected = mgr.sat_count(root, over);

  mgr.begin_shared(kThreads);
  {
    std::vector<std::thread> threads;
    for (std::size_t t = 0; t < kThreads; ++t) {
      threads.emplace_back([&, t] {
        mgr.register_shard_thread();
        if (t % 2 == 0) {
          (void)dense_family(mgr, vars, t, 20);
        } else {
          for (int i = 0; i < 50; ++i) {
            EXPECT_DOUBLE_EQ(mgr.sat_count(root, over), expected);
            (void)mgr.support(root);
            (void)mgr.node_count(root);
          }
        }
      });
    }
    for (std::thread& th : threads) th.join();
  }
  mgr.end_shared();
  EXPECT_TRUE(mgr.check_canonical());
}

}  // namespace
}  // namespace covest::bdd
