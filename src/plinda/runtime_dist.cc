// ExecutionMode::kDistributed backend: the supervisor (parent process), the
// forked worker bodies, and the tuple-space ops a worker issues over the
// wire. The parent stays single-threaded so fork() is safe; every PLinda
// process is an OS process, and the tuple space lives in a SpaceServer
// process reached through RemoteTupleSpace (see plinda/net/).

#include <errno.h>
#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <unistd.h>

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "plinda/net/client.h"
#include "plinda/net/endpoint.h"
#include "plinda/net/server.h"
#include "plinda/net/supervisor.h"
#include "plinda/runtime.h"

namespace fpdm::plinda {

namespace {

using CallStatus = net::RemoteTupleSpace::CallStatus;

/// Unwind types of a distributed worker child: the process-boundary
/// equivalents of the simulator's internal exceptions. Thrown by the Dist*
/// ops and caught only by RunWorkerChild, in this translation unit.
struct DistKilledException {};
struct DistProtocolErrorException {};

/// Where a worker incarnation reports its outcome. Written by the child
/// right before _exit, read by the supervisor after reaping it, so the file
/// is always complete when read (a SIGKILLed incarnation never writes one).
std::string StatusFilePath(const std::string& dir, int pid, int incarnation) {
  return dir + "/proc." + std::to_string(pid) + "." +
         std::to_string(incarnation);
}

void WriteFileOnce(const std::string& path, const std::string& content) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return;
  size_t off = 0;
  while (off < content.size()) {
    const ssize_t w = ::write(fd, content.data() + off, content.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      break;
    }
    off += static_cast<size_t>(w);
  }
  ::close(fd);
}

/// Leaves a torn (half-written) final append on the newest write-ahead-log
/// file in a shard server's state directory: the on-disk image a crash
/// mid-write leaves behind. The torn record claims more payload than is
/// present and carries a bogus checksum, so recovery must detect it by
/// length/checksum, truncate it away, and replay only the intact prefix.
/// Crucially the torn record is one that was never COMPLETED — and so was
/// never applied or acknowledged: discarding it cannot lose an acked op,
/// which chopping bytes off the (possibly acknowledged) last real record
/// would. No-op when no log exists.
void TearWalTail(const std::string& state_dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::path newest;
  long best_epoch = -1;
  for (const auto& entry : fs::directory_iterator(state_dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("log.", 0) != 0) continue;
    char* end = nullptr;
    const long epoch = std::strtol(name.c_str() + 4, &end, 10);
    if (end == nullptr || *end != '\0') continue;
    if (epoch > best_epoch) {
      best_epoch = epoch;
      newest = entry.path();
    }
  }
  if (best_epoch < 0) return;
  // [u32 len = 64][u64 bogus hash][8 bytes of a 64-byte payload]: a record
  // framed as longer than the bytes that made it to disk.
  const unsigned char torn[] = {64, 0, 0,    0,    0xde, 0xad, 0xbe, 0xef,
                                0,  0, 0xde, 0xad, 0xde, 0xad, 0xde, 0xad,
                                0,  0, 0,    0};
  std::ofstream out(newest, std::ios::binary | std::ios::app);
  out.write(reinterpret_cast<const char*>(torn), sizeof(torn));
}

struct WorkerReport {
  double work = 0;
  uint64_t rpc = 0;    // client round trips of this incarnation
  uint64_t bytes = 0;  // bytes sent + received
  uint64_t scatter = 0;         // formal-first all-server scatter ops
  uint64_t scatter_rounds = 0;  // pipelined gather rounds they cost
  /// (server index, round trips on that leg) — placement load spread.
  std::vector<std::pair<int, uint64_t>> per_server;
  bool has_error = false;
  int error_code = 0;
  std::string error_detail;
};

bool ReadWorkerReport(const std::string& path, WorkerReport* report) {
  std::FILE* file = std::fopen(path.c_str(), "rb");
  if (file == nullptr) return false;
  char line[1024];
  bool any = false;
  while (std::fgets(line, sizeof(line), file) != nullptr) {
    if (std::strncmp(line, "work ", 5) == 0) {
      report->work = std::strtod(line + 5, nullptr);
      any = true;
    } else if (std::strncmp(line, "rpc ", 4) == 0) {
      report->rpc = std::strtoull(line + 4, nullptr, 10);
      any = true;
    } else if (std::strncmp(line, "bytes ", 6) == 0) {
      report->bytes = std::strtoull(line + 6, nullptr, 10);
      any = true;
    } else if (std::strncmp(line, "scatter ", 8) == 0) {
      report->scatter = std::strtoull(line + 8, nullptr, 10);
      any = true;
    } else if (std::strncmp(line, "scatter_rounds ", 15) == 0) {
      report->scatter_rounds = std::strtoull(line + 15, nullptr, 10);
      any = true;
    } else if (std::strncmp(line, "rpc_server ", 11) == 0) {
      char* end = nullptr;
      const long server = std::strtol(line + 11, &end, 10);
      const uint64_t trips = std::strtoull(end, nullptr, 10);
      report->per_server.emplace_back(static_cast<int>(server), trips);
      any = true;
    } else if (std::strncmp(line, "error ", 6) == 0) {
      char* end = nullptr;
      report->error_code = static_cast<int>(std::strtol(line + 6, &end, 10));
      report->has_error = true;
      std::string detail = end != nullptr ? end : "";
      while (!detail.empty() && detail.front() == ' ') detail.erase(0, 1);
      while (!detail.empty() &&
             (detail.back() == '\n' || detail.back() == '\r')) {
        detail.pop_back();
      }
      report->error_detail = std::move(detail);
      any = true;
    }
  }
  std::fclose(file);
  return any;
}

}  // namespace

// --- worker side (runs in the forked child) ------------------------------

void Runtime::FailProcDist(Proc* proc, RuntimeError::Code code,
                           std::string detail) {
  RuntimeError error;
  error.code = code;
  error.time = NowReal();
  error.pid = proc->id;
  error.process = proc->name;
  error.detail = std::move(detail);
  dist_child_errors_.push_back(std::move(error));
  proc->errored = true;
  throw DistProtocolErrorException{};
}

void Runtime::DistOut(Proc* proc, Tuple tuple) {
  if (proc->txn_active) {
    proc->txn_outs.push_back(std::move(tuple));
    return;
  }
  // Batched mode coalesces consecutive non-blocking outs: the tuple rides
  // in a kBatch frame flushed before the next blocking op, so a stream of
  // outs costs one round trip instead of one each. Failures of the
  // deferred frame surface here on a later out or at the next sync call —
  // the same unwind points the synchronous path has.
  const CallStatus status = options_.distributed_batching
                                ? dclient_->BatchOut(tuple)
                                : dclient_->Out(tuple);
  switch (status) {
    case CallStatus::kOk:
      return;
    case CallStatus::kCancelled:
      throw DistKilledException{};
    default:
      FailProcDist(proc, RuntimeError::Code::kWireProtocolError,
                   dclient_->last_error());
  }
}

bool Runtime::DistIn(Proc* proc, const Template& tmpl, Tuple* result,
                     bool blocking, bool remove) {
  // A transaction sees its own uncommitted outs (same as the simulator).
  // Removals from the shared space are rolled back server-side on abort, so
  // no client-side txn_ins bookkeeping is needed.
  if (proc->txn_active) {
    for (auto it = proc->txn_outs.begin(); it != proc->txn_outs.end(); ++it) {
      if (Matches(tmpl, *it)) {
        if (result != nullptr) *result = *it;
        if (remove) proc->txn_outs.erase(it);
        return true;
      }
    }
  }
  Tuple found;
  switch (dclient_->In(tmpl, blocking, remove, &found)) {
    case CallStatus::kOk:
      if (result != nullptr) *result = std::move(found);
      return true;
    case CallStatus::kNotFound:
      return false;
    case CallStatus::kCancelled:
      throw DistKilledException{};
    default:
      FailProcDist(proc, RuntimeError::Code::kWireProtocolError,
                   dclient_->last_error());
  }
}

void Runtime::DistXStart(Proc* proc) {
  if (proc->txn_active) {
    FailProcDist(proc, RuntimeError::Code::kNestedXStart,
                 "transaction already open");
  }
  // Batched mode defers the xstart frame: it flushes (in order, one writev)
  // with the next blocking in/rd or commit, collapsing the steady-state
  // task loop [xcommit, xstart, blocking in] to one round trip.
  const CallStatus status = options_.distributed_batching
                                ? dclient_->DeferXStart()
                                : dclient_->XStart();
  switch (status) {
    case CallStatus::kOk:
      proc->txn_active = true;
      return;
    case CallStatus::kCancelled:
      throw DistKilledException{};
    default:
      FailProcDist(proc, RuntimeError::Code::kWireProtocolError,
                   dclient_->last_error());
  }
}

void Runtime::DistXCommit(Proc* proc, bool has_continuation,
                          Tuple continuation) {
  if (!proc->txn_active) {
    FailProcDist(proc, RuntimeError::Code::kXCommitWithoutXStart,
                 "no transaction is open");
  }
  // Batched mode defers the commit frame. The optimistic local txn-clear is
  // safe: if the deferred commit is later rejected (cancelled run), the
  // sticky deferred error unwinds this worker at its next wire call, and if
  // the worker crashes before the frame flushes, the server's crash-abort
  // on EOF rolls the transaction back — either way the commit applied
  // exactly once or not at all.
  const CallStatus status =
      options_.distributed_batching
          ? dclient_->DeferXCommit(proc->txn_outs, has_continuation,
                                   continuation)
          : dclient_->XCommit(proc->txn_outs, has_continuation, continuation);
  switch (status) {
    case CallStatus::kOk:
      proc->txn_outs.clear();
      proc->txn_ins.clear();
      proc->txn_active = false;
      return;
    case CallStatus::kCancelled:
      throw DistKilledException{};
    default:
      FailProcDist(proc, RuntimeError::Code::kWireProtocolError,
                   dclient_->last_error());
  }
}

bool Runtime::DistXRecover(Proc* proc, Tuple* continuation) {
  if (proc->txn_active) {
    FailProcDist(proc, RuntimeError::Code::kXRecoverInsideTransaction,
                 "xrecover must run outside transactions");
  }
  Tuple found;
  switch (dclient_->XRecover(&found)) {
    case CallStatus::kOk:
      if (continuation != nullptr) *continuation = std::move(found);
      return true;
    case CallStatus::kNotFound:
      return false;
    case CallStatus::kCancelled:
      throw DistKilledException{};
    default:
      FailProcDist(proc, RuntimeError::Code::kWireProtocolError,
                   dclient_->last_error());
  }
}

int Runtime::RunWorkerChild(Proc* proc) {
  ::signal(SIGPIPE, SIG_IGN);
  net::ShardedRemoteOptions copts;
  // Bootstrap from server 0 only: the HELLO reply publishes the placement
  // map, from which the client connects its remaining legs.
  copts.endpoint = dist_socket_;
  copts.pid = proc->id;
  copts.incarnation = proc->incarnation;
  copts.reconnect_timeout_s = options_.distributed_reconnect_timeout;
  dclient_ = std::make_unique<net::ShardedRemoteSpace>(copts);
  int code = 0;
  if (!dclient_->Connect()) {
    RuntimeError error;
    error.code = RuntimeError::Code::kWireProtocolError;
    error.time = NowReal();
    error.pid = proc->id;
    error.process = proc->name;
    error.detail = "cannot reach the tuple-space server";
    dist_child_errors_.push_back(std::move(error));
    code = 2;
  } else {
    ProcessContext ctx(this, proc);
    try {
      proc->fn(ctx);
    } catch (const DistKilledException&) {
      code = 3;
    } catch (const DistProtocolErrorException&) {
      code = 2;
    } catch (const std::exception& e) {
      RuntimeError error;
      error.code = RuntimeError::Code::kWireProtocolError;
      error.time = NowReal();
      error.pid = proc->id;
      error.process = proc->name;
      error.detail = std::string("uncaught exception in process body: ") +
                     e.what();
      dist_child_errors_.push_back(std::move(error));
      code = 2;
    }
    if (code == 0 && proc->txn_active) {
      // Clean return with an open transaction rolls it back, mirroring the
      // simulator's unwind path.
      dclient_->XAbort();
      proc->txn_active = false;
      proc->txn_outs.clear();
    }
    if (code == 0) {
      // Push any still-deferred frames (typically the final task's commit)
      // before declaring success: a deferred failure must fail this
      // incarnation the same way a synchronous one would have.
      switch (dclient_->Flush()) {
        case CallStatus::kOk:
        case CallStatus::kNotFound:
          break;
        case CallStatus::kCancelled:
          code = 3;
          break;
        default: {
          RuntimeError error;
          error.code = RuntimeError::Code::kWireProtocolError;
          error.time = NowReal();
          error.pid = proc->id;
          error.process = proc->name;
          error.detail = dclient_->last_error();
          dist_child_errors_.push_back(std::move(error));
          code = 2;
          break;
        }
      }
    }
  }
  char work_line[256];
  std::snprintf(work_line, sizeof(work_line),
                "work %.17g\nrpc %llu\nbytes %llu\nscatter %llu\n"
                "scatter_rounds %llu\n",
                proc->work_done,
                static_cast<unsigned long long>(dclient_->rpc_round_trips()),
                static_cast<unsigned long long>(dclient_->bytes_sent() +
                                                dclient_->bytes_received()),
                static_cast<unsigned long long>(dclient_->scatter_ops()),
                static_cast<unsigned long long>(dclient_->scatter_rounds()));
  std::string content = work_line;
  const std::vector<uint64_t> per_server = dclient_->per_server_rpc();
  for (size_t k = 0; k < per_server.size(); ++k) {
    content += "rpc_server " + std::to_string(k) + " " +
               std::to_string(per_server[k]) + "\n";
  }
  for (const RuntimeError& error : dist_child_errors_) {
    std::string detail = error.detail;
    for (char& c : detail) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    content += "error " + std::to_string(static_cast<int>(error.code)) + " " +
               detail + "\n";
  }
  WriteFileOnce(StatusFilePath(dist_dir_, proc->id, proc->incarnation),
                content);
  if (code != 3) dclient_->Bye();
  return code;
}

// --- supervisor side (the parent process) --------------------------------

bool Runtime::RunDistributed() {
  using Clock = std::chrono::steady_clock;
  deadlocked_ = false;
  diagnostic_.clear();

  const bool owns_dir = options_.distributed_dir.empty();
  dist_dir_ = owns_dir ? net::MakeStateDir() : options_.distributed_dir;
  if (!owns_dir) {
    std::error_code ec;
    std::filesystem::create_directories(dist_dir_, ec);
  }
  real_start_ = Clock::now();
  auto now = [&] {
    return std::chrono::duration<double>(Clock::now() - real_start_).count();
  };
  auto fail_run = [&](std::string detail) {
    RuntimeError error;
    error.code = RuntimeError::Code::kWireProtocolError;
    error.time = now();
    error.detail = std::move(detail);
    errors_.push_back(std::move(error));
  };

  if (dist_dir_.empty()) {
    fail_run("cannot create the distributed state directory");
    BuildDiagnosticLocked();
    return false;
  }
  const int num_servers = std::max(1, options_.distributed_servers);
  auto fail_structured = [&](RuntimeError::Code code, std::string detail) {
    RuntimeError error;
    error.code = code;
    error.time = now();
    error.detail = std::move(detail);
    errors_.push_back(std::move(error));
    BuildDiagnosticLocked();
    if (owns_dir) net::RemoveTree(dist_dir_);
    wall_time_ = now();
    completion_time_ = wall_time_;
    return false;
  };
  const std::string& transport = options_.distributed_transport;
  const bool tcp = transport == "tcp";
  const bool shm = transport == "shm";
  if (!tcp && !shm && transport != "unix") {
    return fail_structured(
        RuntimeError::Code::kBadEndpoint,
        "unsupported distributed_transport \"" + transport +
            "\" (expected \"unix\", \"tcp\" or \"shm\")");
  }
  std::vector<std::string> placement;
  placement.reserve(static_cast<size_t>(num_servers));
  // TCP and shm: pre-bound listeners, inherited through fork (FD_CLOEXEC
  // keeps them out of exec'ed launch-template commands). Bound BEFORE any
  // fork so the placement map is concrete from the first HELLO, and kept
  // open in the supervisor so a chaos restart re-inherits the same
  // listener — for TCP that preserves the port-0 port, for shm the
  // handshake-socket path stays bound across the restart.
  std::vector<int> listen_fds(static_cast<size_t>(num_servers), -1);
  auto close_listeners = [&] {
    for (int& fd : listen_fds) {
      if (fd >= 0) ::close(fd);
      fd = -1;
    }
  };
  if (tcp) {
    for (int k = 0; k < num_servers; ++k) {
      net::Endpoint ep;
      ep.kind = net::Endpoint::Kind::kTcp;
      ep.host = "127.0.0.1";
      ep.port = 0;
      std::string error;
      const int fd = net::ListenEndpoint(&ep, net::kListenBacklog, &error);
      if (fd < 0) {
        close_listeners();
        return fail_structured(
            RuntimeError::Code::kBadEndpoint,
            "cannot bind a loopback listener for server " +
                std::to_string(k) + ": " + error);
      }
      ::fcntl(fd, F_SETFD, FD_CLOEXEC);
      listen_fds[static_cast<size_t>(k)] = fd;
      placement.push_back(net::FormatEndpoint(ep));
    }
  } else {
    for (int k = 0; k < num_servers; ++k) {
      const std::string path =
          dist_dir_ + "/space." + std::to_string(k) + ".sock";
      if (!net::SocketPathFits(path)) {
        return fail_structured(
            RuntimeError::Code::kBadSocketPath,
            "\"" + path + "\" (" + std::to_string(path.size()) +
                " bytes) exceeds the " +
                std::to_string(net::MaxSocketPathLength()) +
                "-byte sun_path limit; point "
                "RuntimeOptions::distributed_dir (or $TMPDIR) at a "
                "shorter path");
      }
      placement.push_back(shm ? "shm:" + path : path);
    }
    if (shm) {
      for (int k = 0; k < num_servers; ++k) {
        net::Endpoint ep;
        net::ParseEndpoint(placement[static_cast<size_t>(k)], &ep, nullptr);
        std::string error;
        const int fd = net::ListenEndpoint(&ep, net::kListenBacklog, &error);
        if (fd < 0) {
          close_listeners();
          return fail_structured(
              RuntimeError::Code::kBadEndpoint,
              "cannot bind a shm handshake listener for server " +
                  std::to_string(k) + ": " + error);
        }
        ::fcntl(fd, F_SETFD, FD_CLOEXEC);
        listen_fds[static_cast<size_t>(k)] = fd;
      }
    }
  }
  dist_socket_ = placement[0];

  auto server_opts = [&](int k) {
    net::SpaceServerOptions sopts;
    sopts.endpoint = placement[static_cast<size_t>(k)];
    sopts.listen_fd = listen_fds[static_cast<size_t>(k)];
    // Per-server stderr capture, kept with the state dir: a red chaos seed
    // under FPDM_TEST_KEEP_STATE is debuggable from the CI artifact alone.
    sopts.stderr_file = dist_dir_ + "/server." + std::to_string(k) + ".stderr";
    sopts.state_dir = dist_dir_ + "/state." + std::to_string(k);
    sopts.num_shards = std::max(1, options_.distributed_shards);
    sopts.checkpoint_every_ops =
        std::max(1, options_.distributed_checkpoint_ops);
    sopts.server_index = k;
    sopts.placement = placement;
    sopts.die_in_doubt_after = options_.distributed_die_in_doubt_after;
    sopts.die_after_prepared = options_.distributed_die_after_prepared;
    sopts.wal_fail_after = options_.distributed_wal_fail_after;
    return sopts;
  };

  std::vector<pid_t> server_pids(static_cast<size_t>(num_servers), -1);
  std::vector<bool> server_ok(static_cast<size_t>(num_servers), false);
  std::vector<double> server_down_at(static_cast<size_t>(num_servers), 0.0);
  bool fatal = false;
  for (int k = 0; k < num_servers; ++k) {
    server_pids[static_cast<size_t>(k)] = net::ForkServerProcess(server_opts(k));
    server_ok[static_cast<size_t>(k)] =
        server_pids[static_cast<size_t>(k)] > 0 &&
        net::WaitForEndpoint(placement[static_cast<size_t>(k)], 10.0);
    if (!server_ok[static_cast<size_t>(k)]) {
      fail_run("tuple-space server " + std::to_string(k) + " failed to start");
      fatal = true;
      break;
    }
  }
  auto all_servers_up = [&] {
    for (int k = 0; k < num_servers; ++k) {
      if (!server_ok[static_cast<size_t>(k)]) return false;
    }
    return true;
  };

  // One control connection per shard server: the STATUS watchdog, the
  // cancel broadcast, and the end-of-run harvest all fan out across them.
  std::vector<std::unique_ptr<net::RemoteTupleSpace>> ctls;
  for (int k = 0; k < num_servers; ++k) {
    net::RemoteSpaceOptions ctl_opts;
    ctl_opts.endpoint = placement[static_cast<size_t>(k)];
    ctl_opts.pid = -1;
    // Short window: a control call against a down server must return quickly
    // so the supervisor keeps applying events (including the restart).
    ctl_opts.reconnect_timeout_s = 0.3;
    ctl_opts.reconnect_interval_s = 0.01;
    ctls.push_back(std::make_unique<net::RemoteTupleSpace>(ctl_opts));
  }

  if (!fatal) {
    // Seed the servers with the tuples out'ed before Run(), routed by the
    // same bucket placement the workers use. Batched mode coalesces each
    // server's seed stream into kBatch frames + one flush per server.
    for (Tuple& tuple : space_.TakeAllInOrder()) {
      const size_t k =
          num_servers > 1
              ? net::PlacementIndex(BucketKeyFor(tuple),
                                    static_cast<size_t>(num_servers))
              : 0;
      const CallStatus status = options_.distributed_batching
                                    ? ctls[k]->BatchOut(tuple)
                                    : ctls[k]->Out(tuple);
      if (status != CallStatus::kOk) {
        fail_run("seeding the tuple-space servers failed: " +
                 ctls[k]->last_error());
        fatal = true;
        break;
      }
    }
    if (!fatal && options_.distributed_batching) {
      for (auto& c : ctls) {
        if (c->Flush() != CallStatus::kOk) {
          fail_run("seeding the tuple-space servers failed: " +
                   c->last_error());
          fatal = true;
          break;
        }
      }
    }
  }

  // Re-anchor the fault clock now that the cluster is up and seeded:
  // scheduled times are meant relative to the workers starting work, not to
  // RunDistributed entering. Forking and health-checking N servers (plus
  // seeding) costs tens of milliseconds on a contended runner — charged
  // against the schedule, a "kill at 50ms" could land before the first
  // worker opened a transaction.
  real_start_ = Clock::now();

  std::stable_sort(events_.begin(), events_.end());
  next_event_ = 0;

  auto fork_worker = [&](Proc* proc) {
    proc->state = ProcState::kReady;
    pid_t pid = -1;
    if (!options_.distributed_worker_launch.empty()) {
      // Launch-template path: the command (ssh, a container runtime, a
      // plain exec) is responsible for running a worker against the
      // bootstrap endpoint and writing the incarnation's status file.
      net::WorkerLaunch launch;
      launch.endpoint = dist_socket_;
      for (size_t i = 0; i < placement.size(); ++i) {
        if (i > 0) launch.placement += ',';
        launch.placement += placement[i];
      }
      launch.pid = proc->id;
      launch.incarnation = proc->incarnation;
      launch.status_file =
          StatusFilePath(dist_dir_, proc->id, proc->incarnation);
      pid = net::LaunchWorkerCommand(options_.distributed_worker_launch,
                                     launch);
    } else {
      pid = net::ForkChild([this, proc] { return RunWorkerChild(proc); });
    }
    proc->os_pid = pid;
    if (pid <= 0) {
      fail_run("fork of worker \"" + proc->name + "\" failed");
      proc->state = ProcState::kDead;
      return false;
    }
    return true;
  };
  if (!fatal) {
    for (auto& up : procs_) {
      if (!fork_worker(up.get())) {
        fatal = true;
        break;
      }
    }
  }

  const double status_poll_interval = 0.04;
  double next_status_poll = 0.0;
  bool prev_all_parked = false;
  uint64_t prev_epoch = 0;
  bool run_cancelled = false;
  bool cancel_grace_spent = false;
  bool wall_limited = false;
  double cancel_time = 0;
  std::vector<net::ParkedWaiter> last_parked;
  int unplanned_server_deaths = 0;
  bool server_fatal_exit = false;  // a server _exit'ed non-zero: unrestartable
  int next_victim = 0;  // round-robin cursor for server_index == -1 kills
  // Link-fault state per server (kServerPartition/kServerHeal): a heal with
  // index -1 heals every cut link, mirroring kServerRecover's "-1 restarts
  // every down server". A crash clears the flag — the blackhole dies with
  // the process, and the restarted server comes up reachable.
  std::vector<bool> server_partitioned(static_cast<size_t>(num_servers),
                                       false);

  // Watchdog round state: one pipelined STATUS per server, evaluated only
  // once the whole round has gathered.
  std::vector<net::Reply> status_replies(static_cast<size_t>(num_servers));
  std::vector<bool> status_done(static_cast<size_t>(num_servers), false);
  bool status_round = false;
  bool status_round_valid = true;

  // Chaos link faults are delivered as fire-and-poll control frames, never
  // as a blocking call: the victim can die unplanned (a 2PC die point
  // SIGKILLs it mid-transaction) an instant before the event fires, while
  // server_ok[] still says it is up. Its pre-bound listener — inherited by
  // every process precisely so restarts keep the address — then accepts
  // the control connection into a backlog nothing drains, and a blocking
  // read would wedge the single-threaded supervisor forever, taking down
  // the reap pass that would have restarted the victim. Bounded poll
  // instead; an unanswered cut/heal is abandoned. That is safe: a frame
  // that reached a live server still applies (the ack is not needed), and
  // a frame stranded in a dead server's backlog is consumed by the
  // restarted incarnation, whose partition state then matches the
  // server_partitioned[] bookkeeping either way.
  auto chaos_partition = [&](int k, bool start) {
    net::RemoteTupleSpace& ctl = *ctls[static_cast<size_t>(k)];
    if (ctl.BeginChaosPartition(start) != CallStatus::kOk) return;
    const double deadline = now() + 1.0;
    net::Reply reply;
    for (;;) {
      const CallStatus poll = ctl.PollStatus(&reply);
      if (poll != CallStatus::kPending) return;
      if (now() >= deadline) {
        ctl.Abandon();
        return;
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  };

  auto restart_server = [&](int k, const char* what) {
    for (int attempt = 0; attempt < 2; ++attempt) {
      server_pids[static_cast<size_t>(k)] =
          net::ForkServerProcess(server_opts(k));
      if (server_pids[static_cast<size_t>(k)] > 0 &&
          net::WaitForEndpoint(placement[static_cast<size_t>(k)], 10.0)) {
        server_ok[static_cast<size_t>(k)] = true;
        return true;
      }
      if (server_pids[static_cast<size_t>(k)] <= 0) break;
      // The fork came up but the socket never answered. If the child died
      // by a signal, a chaos die point landed inside the boot window (a
      // respawned coordinator can re-collect its first PREPARE vote within
      // milliseconds and SIGKILL itself before our first connect probe
      // succeeds). Die points are one-shot per state dir, so one fresh
      // fork converges — count the death and retry. Anything else (a
      // nonzero exit, a hung boot) would repeat identically: fail the run.
      net::ExitInfo info;
      if (net::WaitForExit(server_pids[static_cast<size_t>(k)], 1.0, &info) &&
          info.signaled) {
        server_pids[static_cast<size_t>(k)] = -1;
        ++stats_.server_failures;
        ++unplanned_server_deaths;
        RecordLocked(TraceEvent::Kind::kServerFailed, now(), nullptr, -1);
        continue;
      }
      break;
    }
    fail_run(std::string(what) + ": tuple-space server " + std::to_string(k) +
             " failed to restart");
    return false;
  };

  while (!fatal) {
    bool all_finished = true;
    for (auto& up : procs_) {
      if (up->state == ProcState::kReady) all_finished = false;
    }
    if (all_finished) {
      if (pending_respawns_.empty()) break;
      if (next_event_ >= events_.size()) {
        // Killed processes wait for a machine that will never come back.
        deadlocked_ = true;
        break;
      }
    }
    const double t = now();
    if (t > options_.distributed_wall_limit) {
      deadlocked_ = true;
      wall_limited = true;
      break;
    }

    // 1. Scheduled fault events (times are wall seconds since Run()).
    while (next_event_ < events_.size() && events_[next_event_].time <= t) {
      const Event event = events_[next_event_];
      ++next_event_;
      switch (event.kind) {
        case Event::Kind::kMachineFail: {
          Machine& machine = machines_[static_cast<size_t>(event.machine)];
          if (!machine.up) break;
          machine.up = false;
          RecordLocked(TraceEvent::Kind::kMachineFailed, t, nullptr,
                       event.machine);
          for (auto& up : procs_) {
            Proc* proc = up.get();
            if (proc->machine == event.machine &&
                proc->state == ProcState::kReady && proc->os_pid > 0) {
              net::KillProcess(static_cast<pid_t>(proc->os_pid));
            }
          }
          break;  // the reap pass below handles death + respawn
        }
        case Event::Kind::kMachineRecover: {
          Machine& machine = machines_[static_cast<size_t>(event.machine)];
          if (machine.up) break;
          machine.up = true;
          RecordLocked(TraceEvent::Kind::kMachineRecovered, t, nullptr,
                       event.machine);
          while (!pending_respawns_.empty()) {
            Proc* proc = pending_respawns_.front();
            pending_respawns_.pop_front();
            proc->machine = event.machine;
            ++proc->incarnation;
            ++stats_.processes_respawned;
            if (!fork_worker(proc)) {
              fatal = true;
              break;
            }
            RecordLocked(TraceEvent::Kind::kRespawned, t, proc, proc->machine);
          }
          break;
        }
        case Event::Kind::kServerFail: {
          // Event::machine doubles as the shard-server index; -1 rotates
          // round-robin so repeated unspecific kills hit every server.
          int victim = event.machine;
          if (victim < 0) {
            victim = next_victim;
            next_victim = (next_victim + 1) % num_servers;
          }
          victim %= num_servers;
          if (!server_ok[static_cast<size_t>(victim)]) break;
          net::KillProcess(server_pids[static_cast<size_t>(victim)]);
          net::ExitInfo info;
          net::WaitForExit(server_pids[static_cast<size_t>(victim)], 5.0,
                           &info);
          server_ok[static_cast<size_t>(victim)] = false;
          server_down_at[static_cast<size_t>(victim)] = t;
          server_partitioned[static_cast<size_t>(victim)] = false;
          ++stats_.server_failures;
          if (event.torn_tail) {
            // The kill landed; now make the crash "tear" the final WAL
            // append before the scheduled recovery restarts the server.
            TearWalTail(dist_dir_ + "/state." + std::to_string(victim));
          }
          RecordLocked(TraceEvent::Kind::kServerFailed, t, nullptr, -1);
          break;
        }
        case Event::Kind::kServerPartition:
        case Event::Kind::kServerHeal: {
          // Link fault: the victim keeps running; its connections are cut
          // and its traffic blackholed until the heal. Delivered over the
          // control channel, which the partitioned server keeps serving as
          // the out-of-band path. Best effort — a victim that is down
          // (crash chaos raced the partition) simply has no link to cut.
          if (event.kind == Event::Kind::kServerPartition) {
            // Index -1 cuts the round-robin victim's link.
            int victim = event.machine;
            if (victim < 0) {
              victim = next_victim;
              next_victim = (next_victim + 1) % num_servers;
            }
            victim %= num_servers;
            if (server_ok[static_cast<size_t>(victim)] &&
                !server_partitioned[static_cast<size_t>(victim)]) {
              chaos_partition(victim, true);
              server_partitioned[static_cast<size_t>(victim)] = true;
              ++stats_.server_partitions;
              RecordLocked(TraceEvent::Kind::kServerPartitioned, t, nullptr,
                           -1);
            }
          } else {
            // Index -1 heals EVERY cut link — the twin of kServerRecover's
            // "-1 restarts every down server" — so a partition/heal pair
            // never has to agree on the round-robin cursor position.
            for (int k = 0; k < num_servers; ++k) {
              if (event.machine >= 0 && event.machine % num_servers != k) {
                continue;
              }
              if (!server_partitioned[static_cast<size_t>(k)]) continue;
              server_partitioned[static_cast<size_t>(k)] = false;
              if (!server_ok[static_cast<size_t>(k)]) continue;
              chaos_partition(k, false);
              RecordLocked(TraceEvent::Kind::kServerHealed, t, nullptr, -1);
            }
          }
          break;
        }
        case Event::Kind::kServerRecover: {
          // Index -1 restarts every down server.
          for (int k = 0; k < num_servers && !fatal; ++k) {
            if (event.machine >= 0 && event.machine % num_servers != k) {
              continue;
            }
            if (server_ok[static_cast<size_t>(k)]) continue;
            if (!restart_server(k, "scheduled recovery")) {
              fatal = true;
              break;
            }
            stats_.server_downtime +=
                now() - server_down_at[static_cast<size_t>(k)];
            RecordLocked(TraceEvent::Kind::kServerRecovered, now(), nullptr,
                         -1);
          }
          break;
        }
      }
      if (fatal) break;
    }
    if (fatal) break;

    // 2. Reap exited children (workers and, if it crashed, the server).
    for (;;) {
      std::vector<pid_t> watched;
      for (int k = 0; k < num_servers; ++k) {
        if (server_ok[static_cast<size_t>(k)] &&
            server_pids[static_cast<size_t>(k)] > 0) {
          watched.push_back(server_pids[static_cast<size_t>(k)]);
        }
      }
      for (auto& up : procs_) {
        if (up->state == ProcState::kReady && up->os_pid > 0) {
          watched.push_back(static_cast<pid_t>(up->os_pid));
        }
      }
      net::ExitInfo info;
      if (!net::ReapAny(watched, &info)) break;
      int dead_server = -1;
      for (int k = 0; k < num_servers; ++k) {
        if (info.pid == server_pids[static_cast<size_t>(k)]) {
          dead_server = k;
          break;
        }
      }
      if (dead_server >= 0) {
        // Unplanned server death. A signal death (chaos SIGKILL, OOM kill)
        // is a crash we recover from checkpoint + log; a non-zero _exit is
        // the server itself refusing to run (WAL write failure, unusable
        // state dir) — restarting would hit the same wall and spin until
        // the deadlock timeout, so fail the run with a structured error.
        if (info.exited && info.exit_code != 0) {
          RuntimeError error;
          error.code = RuntimeError::Code::kServerDead;
          error.time = now();
          error.detail = "tuple-space server " + std::to_string(dead_server) +
                         " exited fatally with code " +
                         std::to_string(info.exit_code);
          errors_.push_back(std::move(error));
          server_ok[static_cast<size_t>(dead_server)] = false;
          server_pids[static_cast<size_t>(dead_server)] = -1;
          server_fatal_exit = true;
          fatal = true;
          break;
        }
        ++stats_.server_failures;
        ++unplanned_server_deaths;
        server_ok[static_cast<size_t>(dead_server)] = false;
        const double down_at = now();
        RecordLocked(TraceEvent::Kind::kServerFailed, down_at, nullptr, -1);
        if (unplanned_server_deaths > 5) {
          fail_run("tuple-space server keeps crashing");
          fatal = true;
          break;
        }
        if (!restart_server(dead_server, "crash recovery")) {
          fatal = true;
          break;
        }
        stats_.server_downtime += now() - down_at;
        RecordLocked(TraceEvent::Kind::kServerRecovered, now(), nullptr, -1);
        continue;
      }
      Proc* proc = nullptr;
      for (auto& up : procs_) {
        if (up->os_pid == info.pid) {
          proc = up.get();
          break;
        }
      }
      if (proc == nullptr) continue;
      proc->os_pid = -1;
      WorkerReport report;
      const bool have_report = ReadWorkerReport(
          StatusFilePath(dist_dir_, proc->id, proc->incarnation), &report);
      if (have_report) {
        stats_.total_work += report.work;
        proc->work_done += report.work;
        stats_.rpc_calls += report.rpc;
        stats_.bytes_on_wire += report.bytes;
        stats_.dist_scatter_ops += report.scatter;
        stats_.dist_scatter_rounds += report.scatter_rounds;
        for (const auto& [server, trips] : report.per_server) {
          if (server < 0) continue;
          if (stats_.per_server_rpc_calls.size() <=
              static_cast<size_t>(server)) {
            stats_.per_server_rpc_calls.resize(static_cast<size_t>(server) + 1,
                                               0);
          }
          stats_.per_server_rpc_calls[static_cast<size_t>(server)] += trips;
        }
      }
      if (info.exited && info.exit_code == 0) {
        proc->state = ProcState::kDone;
        RecordLocked(TraceEvent::Kind::kDone, now(), proc, proc->machine);
      } else if (info.exited && info.exit_code == 3) {
        // Cancelled by the deadlock watchdog.
        proc->state = ProcState::kDead;
        ++stats_.processes_killed;
      } else if (info.exited) {
        proc->state = ProcState::kDead;
        proc->errored = true;
        RuntimeError error;
        if (have_report && report.has_error) {
          error.code = static_cast<RuntimeError::Code>(report.error_code);
          error.detail = report.error_detail;
        } else {
          error.code = RuntimeError::Code::kWireProtocolError;
          error.detail =
              "worker exited with code " + std::to_string(info.exit_code);
        }
        error.time = now();
        error.pid = proc->id;
        error.process = proc->name;
        errors_.push_back(std::move(error));
        RecordLocked(TraceEvent::Kind::kError, now(), proc, proc->machine);
      } else {
        // Signaled: a machine failure killed the worker mid-run. The server
        // crash-aborts its open transaction on connection EOF.
        ++stats_.processes_killed;
        RecordLocked(TraceEvent::Kind::kKilled, now(), proc, proc->machine);
        if (run_cancelled || !auto_respawn_) {
          proc->state = ProcState::kDead;
        } else {
          const int machine =
              machines_[static_cast<size_t>(proc->machine)].up
                  ? proc->machine
                  : PickMachineLocked();
          if (machine < 0) {
            proc->state = ProcState::kDead;
            pending_respawns_.push_back(proc);
          } else {
            proc->machine = machine;
            ++proc->incarnation;
            ++stats_.processes_respawned;
            if (!fork_worker(proc)) {
              fatal = true;
              break;
            }
            RecordLocked(TraceEvent::Kind::kRespawned, now(), proc, machine);
          }
        }
      }
    }
    if (fatal) break;

    // 3. Deadlock watchdog, fanned out over the shard servers: one
    // pipelined STATUS per server (BeginStatus/PollStatus overlap the reap
    // and event work above), evaluated only once the whole round has
    // gathered. Nobody can wake anybody when every live worker is parked
    // on some server (distinct pids — a scatter park shows up on several),
    // the summed publish epoch is stable across two rounds, and no commit
    // forwards are still in flight between servers.
    if (all_servers_up() && !run_cancelled) {
      if (!status_round && t >= next_status_poll) {
        next_status_poll = t + status_poll_interval;
        status_round = true;
        status_round_valid = true;
        for (int k = 0; k < num_servers; ++k) {
          status_done[static_cast<size_t>(k)] = false;
          if (ctls[static_cast<size_t>(k)]->BeginStatus() !=
              CallStatus::kOk) {
            status_done[static_cast<size_t>(k)] = true;
            status_round_valid = false;
          }
        }
      }
      if (status_round) {
        bool all_done = true;
        for (int k = 0; k < num_servers; ++k) {
          if (status_done[static_cast<size_t>(k)]) continue;
          const CallStatus poll = ctls[static_cast<size_t>(k)]->PollStatus(
              &status_replies[static_cast<size_t>(k)]);
          if (poll == CallStatus::kOk) {
            status_done[static_cast<size_t>(k)] = true;
          } else if (poll == CallStatus::kPending) {
            all_done = false;
          } else {
            // Transport hiccup (server mid-restart): void the round; the
            // next BeginStatus reconnects.
            status_done[static_cast<size_t>(k)] = true;
            status_round_valid = false;
          }
        }
        if (all_done) {
          status_round = false;
          if (status_round_valid) {
            int live = 0;
            for (auto& up : procs_) {
              if (up->state == ProcState::kReady) ++live;
            }
            std::set<int32_t> parked_pids;
            uint64_t epoch_sum = 0;
            uint64_t forwards_pending = 0;
            for (int k = 0; k < num_servers; ++k) {
              const net::Reply& reply =
                  status_replies[static_cast<size_t>(k)];
              for (const net::ParkedWaiter& waiter : reply.parked) {
                parked_pids.insert(waiter.pid);
              }
              epoch_sum += reply.publish_epoch;
              forwards_pending += reply.forwards_pending;
            }
            const bool all_parked =
                live > 0 && static_cast<int>(parked_pids.size()) >= live &&
                next_event_ >= events_.size() && pending_respawns_.empty();
            if (all_parked && prev_all_parked && epoch_sum == prev_epoch &&
                forwards_pending == 0) {
              run_cancelled = true;
              deadlocked_ = true;
              cancel_time = now();
              last_parked.clear();
              std::set<int32_t> seen;
              for (int k = 0; k < num_servers; ++k) {
                for (const net::ParkedWaiter& waiter :
                     status_replies[static_cast<size_t>(k)].parked) {
                  if (seen.insert(waiter.pid).second) {
                    last_parked.push_back(waiter);
                  }
                }
              }
              for (auto& c : ctls) c->Cancel();
            }
            prev_all_parked = all_parked;
            prev_epoch = epoch_sum;
          }
        }
      }
    }

    // Workers that ignore the cancellation (compute loops with no tuple
    // ops) are killed after a grace period.
    if (run_cancelled && !cancel_grace_spent && now() - cancel_time > 2.0) {
      cancel_grace_spent = true;
      for (auto& up : procs_) {
        if (up->state == ProcState::kReady && up->os_pid > 0) {
          net::KillProcess(static_cast<pid_t>(up->os_pid));
        }
      }
      run_cancelled = true;  // reap pass marks them dead, no respawn
    }

    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }

  // Kill and reap anything still running (fatal abort, wall limit).
  for (auto& up : procs_) {
    Proc* proc = up.get();
    if (proc->os_pid > 0) {
      net::KillProcess(static_cast<pid_t>(proc->os_pid));
      net::ExitInfo info;
      net::WaitForExit(static_cast<pid_t>(proc->os_pid), 2.0, &info);
      proc->os_pid = -1;
      if (proc->state == ProcState::kReady) {
        proc->state = ProcState::kDead;
        ++stats_.processes_killed;
      }
    }
  }

  // Drain results + counters back, restarting any server that is down
  // (e.g. a failure was scheduled with no recovery before the end). After a
  // fatal server exit there is nothing to restart or harvest — a fresh fork
  // would refuse to run the same way.
  for (int k = 0; k < num_servers && !server_fatal_exit; ++k) {
    if (server_ok[static_cast<size_t>(k)]) continue;
    if (server_pids[static_cast<size_t>(k)] > 0) {
      net::ExitInfo info;
      net::WaitForExit(server_pids[static_cast<size_t>(k)], 1.0, &info);
    }
    if (restart_server(k, "end-of-run drain")) {
      RecordLocked(TraceEvent::Kind::kServerRecovered, now(), nullptr, -1);
    }
  }
  if (all_servers_up()) {
    if (num_servers > 1) {
      // Forward-drain barrier: commit outs can still be in flight between
      // servers (Op::kForward). Harvesting before they land would lose
      // them, so poll STATUS until every server reports zero pending
      // forwards.
      const auto barrier_deadline =
          Clock::now() + std::chrono::milliseconds(5000);
      for (;;) {
        uint64_t pending = 0;
        bool polled = true;
        for (int k = 0; k < num_servers; ++k) {
          net::Reply reply;
          if (ctls[static_cast<size_t>(k)]->Status(&reply) !=
              CallStatus::kOk) {
            polled = false;
            break;
          }
          pending += reply.forwards_pending;
        }
        if (polled && pending == 0) break;
        if (Clock::now() >= barrier_deadline) {
          fail_run("forwarded commits did not quiesce before the harvest");
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(2));
      }
    }

    // Pipelined multi-leg harvest: STATS + TAKEALL written to every server
    // back to back, replies gathered afterwards — one wall-clock round for
    // the whole fleet instead of two round trips per server.
    std::vector<net::Reply> leg_stats(static_cast<size_t>(num_servers));
    std::vector<net::Reply> leg_take(static_cast<size_t>(num_servers));
    std::vector<bool> leg_ok(static_cast<size_t>(num_servers), false);
    for (int k = 0; k < num_servers; ++k) {
      net::Request stats_req;
      stats_req.op = net::Op::kStats;
      net::Request take_req;
      take_req.op = net::Op::kTakeAll;
      leg_ok[static_cast<size_t>(k)] =
          ctls[static_cast<size_t>(k)]->BeginPipeline(stats_req) ==
              CallStatus::kOk &&
          ctls[static_cast<size_t>(k)]->BeginPipeline(take_req) ==
              CallStatus::kOk;
    }
    for (int k = 0; k < num_servers; ++k) {
      if (leg_ok[static_cast<size_t>(k)]) {
        leg_ok[static_cast<size_t>(k)] =
            ctls[static_cast<size_t>(k)]->FinishPipeline(
                &leg_stats[static_cast<size_t>(k)]) == CallStatus::kOk &&
            ctls[static_cast<size_t>(k)]->FinishPipeline(
                &leg_take[static_cast<size_t>(k)]) == CallStatus::kOk;
      }
      if (!leg_ok[static_cast<size_t>(k)]) {
        // Per-leg synchronous fallback (e.g. the pipelined pair raced a
        // restart): one STATS + TAKEALL round trip against that server.
        std::vector<Tuple> drained;
        if (ctls[static_cast<size_t>(k)]->Harvest(
                &leg_stats[static_cast<size_t>(k)], &drained) ==
            CallStatus::kOk) {
          leg_take[static_cast<size_t>(k)].tuples = std::move(drained);
          leg_ok[static_cast<size_t>(k)] = true;
        }
      }
    }
    for (int k = 0; k < num_servers; ++k) {
      if (!leg_ok[static_cast<size_t>(k)]) {
        fail_run("end-of-run drain failed: " +
                 ctls[static_cast<size_t>(k)]->last_error());
        continue;
      }
      const net::Reply& server_stats = leg_stats[static_cast<size_t>(k)];
      stats_.tuple_ops += server_stats.tuple_ops;
      stats_.transactions_committed += server_stats.commits;
      stats_.transactions_aborted += server_stats.aborts;
      stats_.server_checkpoints += server_stats.checkpoints;
      stats_.server_ops_replayed += server_stats.ops_replayed;
      stats_.cross_shard_ops += server_stats.cross_shard_ops;
      stats_.batch_frames += server_stats.batch_frames;
      stats_.batched_tuple_ops += server_stats.batched_ops;
      stats_.dist_txn_prepares += server_stats.txn_prepares;
      stats_.dist_txn_cross_server += server_stats.txn_cross_server;
      stats_.wal_group_commits += server_stats.wal_group_commits;
      stats_.wal_synced_bytes += server_stats.wal_synced_bytes;
      stats_.transport_syscalls += server_stats.transport_syscalls;
      stats_.transport_bytes += server_stats.transport_bytes;
      for (Tuple& tuple : leg_take[static_cast<size_t>(k)].tuples) {
        space_.Out(std::move(tuple));
      }
    }
    for (auto& c : ctls) {
      c->Shutdown();
      c->Abandon();
    }
    for (int k = 0; k < num_servers; ++k) {
      net::ExitInfo info;
      if (!net::WaitForExit(server_pids[static_cast<size_t>(k)], 5.0,
                            &info)) {
        net::KillProcess(server_pids[static_cast<size_t>(k)]);
        net::WaitForExit(server_pids[static_cast<size_t>(k)], 2.0, &info);
      }
    }
  } else {
    for (int k = 0; k < num_servers; ++k) {
      if (server_pids[static_cast<size_t>(k)] > 0) {
        net::KillProcess(server_pids[static_cast<size_t>(k)]);
        net::ExitInfo info;
        net::WaitForExit(server_pids[static_cast<size_t>(k)], 2.0, &info);
      }
    }
  }
  for (const auto& c : ctls) {
    stats_.rpc_calls += c->rpc_round_trips();
    stats_.bytes_on_wire += c->bytes_sent() + c->bytes_received();
  }

  wall_time_ = now();
  completion_time_ = wall_time_;

  if (deadlocked_ || !errors_.empty()) {
    std::string out;
    if (deadlocked_) {
      out += "deadlock: no process can make progress\n";
      for (const net::ParkedWaiter& waiter : last_parked) {
        const Proc* proc =
            waiter.pid >= 0 && waiter.pid < static_cast<int32_t>(procs_.size())
                ? procs_[static_cast<size_t>(waiter.pid)].get()
                : nullptr;
        char head[128];
        std::snprintf(head, sizeof(head),
                      "  %s (pid %d, machine %d) blocked on ",
                      proc != nullptr ? proc->name.c_str() : "?", waiter.pid,
                      proc != nullptr ? proc->machine : -1);
        out += head;
        out += waiter.remove ? "in " : "rd ";
        out += waiter.tmpl_text;
        out += '\n';
      }
      for (const Proc* proc : pending_respawns_) {
        char line[128];
        std::snprintf(line, sizeof(line),
                      "  %s (pid %d) killed, awaiting an up machine\n",
                      proc->name.c_str(), proc->id);
        out += line;
      }
      if (wall_limited) {
        out += "  wall-clock limit exceeded (distributed_wall_limit)\n";
      }
    }
    for (const RuntimeError& error : errors_) {
      out += "  " + ToString(error) + '\n';
    }
    diagnostic_ = std::move(out);
  }

  close_listeners();
  const bool failed = deadlocked_ || !errors_.empty();
  // FPDM_TEST_KEEP_STATE: leave a failed run's state dir (WAL, checkpoints,
  // status files, server stderr) on disk for CI artifact upload.
  const char* keep = ::getenv("FPDM_TEST_KEEP_STATE");
  const bool keep_state = failed && keep != nullptr && *keep != '\0';
  if (owns_dir && !keep_state) net::RemoveTree(dist_dir_);
  return !failed;
}

}  // namespace fpdm::plinda
