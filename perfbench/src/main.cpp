// perfbench — the benchmark binary. `perfbench/run.py` drives it:
//
//   perfbench measure --workload W --seed N --seconds S --trace 0|1
//                     --nproc P --replies FILE
//   perfbench check   --workload W --seed N --nproc P --replies FILE
//   perfbench serve   --jobs P --stats 0|1      (the server child)
//
// `measure` and `check` run in separate processes so the checker's
// reference runs never touch the measured process's CPU time or peak
// resident set.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <sys/prctl.h>
#include <unistd.h>

#include "harness.h"
#include "server/covest_server.h"

namespace perfbench {

namespace {

covest::server::CovestServer* g_server = nullptr;

extern "C" void on_term(int) {
  if (g_server != nullptr) g_server->request_shutdown();
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench measure|check --workload W --seed N "
               "[--seconds S] [--trace 0|1] --nproc P --replies FILE\n"
               "       perfbench serve --jobs P --stats 0|1\n");
  return 2;
}

}  // namespace

int run_server_child(std::size_t jobs, bool stats) {
  covest::server::ServerOptions opts;
  opts.jobs = jobs;
  opts.stats = stats;
  covest::server::CovestServer server(opts);
  std::string error;
  if (!server.start(&error)) {
    std::fprintf(stderr, "perfbench serve: %s\n", error.c_str());
    return 1;
  }
  g_server = &server;
  std::signal(SIGTERM, on_term);
  std::signal(SIGINT, on_term);
  std::printf("port %u\n", static_cast<unsigned>(server.port()));
  std::fflush(stdout);
  server.serve();
  g_server = nullptr;
  return 0;
}

}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  if (argc < 2) return usage();
  const std::string cmd = argv[1];
  Options o;
  o.self_path = "/proc/self/exe";
  std::size_t jobs = 1;
  bool stats = false;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      if (!parse_workload(value, &o.workload)) {
        std::fprintf(stderr, "unknown workload '%s'\n", value.c_str());
        return 2;
      }
    } else if (flag == "--seed") {
      o.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      o.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      o.trace = value == "1";
    } else if (flag == "--nproc") {
      o.nproc = std::strtoul(value.c_str(), nullptr, 10);
    } else if (flag == "--replies") {
      o.replies_path = value;
    } else if (flag == "--jobs") {
      jobs = std::strtoul(value.c_str(), nullptr, 10);
    } else if (flag == "--stats") {
      stats = value == "1";
    } else {
      return usage();
    }
  }
  if (o.nproc == 0) o.nproc = 1;
  // The child re-executes this binary; resolve the link once, here.
  char self[4096];
  const ssize_t n = readlink("/proc/self/exe", self, sizeof self - 1);
  if (n > 0) o.self_path.assign(self, static_cast<std::size_t>(n));
  try {
    if (cmd == "serve") return run_server_child(jobs, stats);
    if (o.replies_path.empty()) return usage();
    if (cmd == "measure") return run_measure(o);
    if (cmd == "check") return run_check(o);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench %s: %s\n", cmd.c_str(), e.what());
    return 1;
  }
  return usage();
}
