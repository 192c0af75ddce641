// perfbench: runs one named workload of the end-to-end benchmark and prints
// its metrics as one JSON line. Normally driven by run.py, which builds this
// binary, gathers host facts and validates the metric names; see README.md.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             --state-dir <dir> [--trace-out <file>] [--tiny]
//             [--wrong-reference]
//   perfbench --host-facts --state-dir <dir>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "trace.h"
#include "workloads.h"

namespace {

using perfbench::Clock;

// Median fdatasync latency of a small append in `dir`: what a WAL group
// commit pays on the disk that holds the distributed state.
double FdatasyncUs(const std::string& dir) {
  const std::string path = dir + "/fdatasync.probe";
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0600);
  if (fd < 0) return 0;
  char block[256];
  std::memset(block, 'x', sizeof block);
  std::vector<double> samples;
  for (int i = 0; i < 64; ++i) {
    if (::write(fd, block, sizeof block) != static_cast<ssize_t>(sizeof block)) break;
    const auto t0 = Clock::now();
    if (::fdatasync(fd) != 0) break;
    samples.push_back(1e6 * perfbench::SecondsSince(t0));
  }
  ::close(fd);
  ::unlink(path.c_str());
  return perfbench::Median(samples);
}

// Median round trip of one byte over a bare unix socketpair between two
// threads: the floor under every unix-transport RPC.
double SocketpairRttUs() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return 0;
  std::thread echo([fd = fds[1]] {
    char byte;
    while (::read(fd, &byte, 1) == 1) {
      if (::write(fd, &byte, 1) != 1) break;
    }
  });
  std::vector<double> samples;
  char byte = 'p';
  for (int i = 0; i < 2000; ++i) {
    const auto t0 = Clock::now();
    if (::write(fds[0], &byte, 1) != 1 || ::read(fds[0], &byte, 1) != 1) break;
    samples.push_back(1e6 * perfbench::SecondsSince(t0));
  }
  ::shutdown(fds[0], SHUT_RDWR);
  echo.join();
  ::close(fds[0]);
  ::close(fds[1]);
  return perfbench::Median(samples);
}

void PrintNumber(double value) { std::printf("%.17g", value); }

int Usage(const char* message) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload <name> --seed <n> "
               "--seconds <s> --trace <0|1> --state-dir <dir> "
               "[--trace-out <file>] [--tiny] [--wrong-reference]\n"
               "       perfbench --host-facts --state-dir <dir>\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
#if !defined(__OPTIMIZE__) || defined(__SANITIZE_ADDRESS__) || \
    defined(__SANITIZE_THREAD__)
  std::fprintf(stderr,
               "perfbench: refusing to measure an unoptimized or sanitized "
               "build\n");
  return 2;
#endif
  perfbench::Args args;
  bool host_facts = false;
  std::string trace_out;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    const char* v = nullptr;
    if (flag == "--host-facts") {
      host_facts = true;
    } else if (flag == "--tiny") {
      args.tiny = true;
    } else if (flag == "--wrong-reference") {
      args.wrong_reference = true;
    } else if ((v = value()) == nullptr) {
      return Usage(("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      args.workload = v;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(v, nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(v, nullptr);
    } else if (flag == "--trace") {
      args.trace = std::string(v) == "1";
    } else if (flag == "--state-dir") {
      args.state_dir = v;
    } else if (flag == "--trace-out") {
      trace_out = v;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (args.state_dir.empty()) return Usage("--state-dir is required");
  std::error_code ec;
  std::filesystem::create_directories(args.state_dir, ec);
  if (ec) return Usage(("cannot create the state dir: " + ec.message()).c_str());

  if (host_facts) {
    std::printf("{\"cores\": %u, \"fdatasync_us\": ",
                std::thread::hardware_concurrency());
    PrintNumber(FdatasyncUs(args.state_dir));
    std::printf(", \"socketpair_rtt_us\": ");
    PrintNumber(SocketpairRttUs());
    std::printf(", \"build_type\": \"%s\"}\n", PERFBENCH_BUILD_TYPE);
    return 0;
  }
  if (!(args.seconds > 0)) return Usage("--seconds must be positive");

  perfbench::Tracer tracer;
  perfbench::Outcome outcome;
  std::string error;
  if (!perfbench::RunWorkload(args, args.trace ? &tracer : nullptr, &outcome,
                              &error)) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
    return 1;
  }
  if (args.trace && !trace_out.empty() && !tracer.WriteChromeTrace(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              outcome.failed == 0 ? "true" : "false",
              static_cast<unsigned long long>(outcome.attempted),
              static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const perfbench::Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": ", i == 0 ? "" : ", ", m.name.c_str());
    PrintNumber(m.value);
    std::printf(", \"unit\": \"%s\"}", m.unit.c_str());
  }
  std::printf("}}\n");
  return 0;
}
