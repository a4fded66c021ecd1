// Entry points of the `perfbench` binary's subcommands.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

#include "workloads.h"

namespace perfbench {

struct Options {
  Workload workload = Workload::kBatchMix;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::size_t nproc = 1;
  /// One line per completed request: "<seq>\t<item>\t<reply json>", where
  /// <item> is the pool index (executor workloads) or the request index
  /// (server workloads).
  std::string replies_path;
  /// Path of this binary, re-executed as the server child.
  std::string self_path;
};

/// Runs the workload and prints its metrics; the last stdout line is
/// {"attempted", "replied", "valid", "invalid_reason", "metrics"}.
int run_measure(const Options& options);

/// Re-derives every replied request, checks each reply against a serial
/// cold `Engine::run`, construction facts and (for small models) the
/// explicit Definition-3 oracle. The last stdout line is
/// {"checked", "mismatches", "oracle_checked", "fact_checked"}.
int run_check(const Options& options);

/// The server child: serves on an ephemeral loopback port, prints
/// "port <n>" once listening, and exits on SIGTERM or when its parent dies.
int run_server_child(std::size_t jobs, bool stats);

/// Strips timing-dependent fields ("stats", "check_ms", "estimate_ms")
/// from a result line and re-renders it compactly, so a reply produced
/// with stats on compares equal to the same result produced with stats
/// off.
std::string normalize_reply(const std::string& json_line);

}  // namespace perfbench
