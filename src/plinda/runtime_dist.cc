// ExecutionMode::kDistributed backend: the supervisor (parent process) and
// the forked worker bodies. The parent stays single-threaded so fork() is
// safe; every PLinda process is an OS process, and the tuple space lives in
// a SpaceServer process reached through RemoteTupleSpace (see plinda/net/).
// A worker's ops are the process layer's (runtime.cc) on that connection.

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

/// What the supervisor keeps in the distributed state directory, besides
/// one status file per worker incarnation (StatusFilePath).
constexpr char kSocketName[] = "space.sock";
constexpr char kServerStateName[] = "state";       // checkpoint + WAL
constexpr char kServerStderrName[] = "server.stderr";

/// Where a worker incarnation reports its outcome. Written by the child
/// right before _exit, read by the supervisor after reaping it, so the file
/// is always complete when read (a SIGKILLed incarnation never writes one).
std::string StatusFilePath(const std::string& dir, int pid, int incarnation) {
  return dir + "/proc." + std::to_string(pid) + "." +
         std::to_string(incarnation);
}

/// Removes what an earlier Run() on the same directory left behind: the
/// server's checkpoint + WAL directory, its stderr capture and the worker
/// status files. Anything else in the directory is the caller's and stays.
void ClearDistState(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::remove_all(fs::path(dir) / kServerStateName, ec);
  fs::remove(fs::path(dir) / kServerStderrName, ec);
  std::vector<fs::path> status_files;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    if (entry.path().filename().string().rfind("proc.", 0) == 0) {
      status_files.push_back(entry.path());
    }
  }
  for (const fs::path& path : status_files) fs::remove(path, ec);
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
/// file in the server's state directory: the on-disk image a crash
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

int Runtime::RunWorkerChild(Proc* proc) {
  ::signal(SIGPIPE, SIG_IGN);
  // The child reports only its own errors, through its status file.
  errors_.clear();
  net::RemoteSpaceOptions copts;
  copts.endpoint = dist_socket_;
  copts.pid = proc->id;
  copts.incarnation = proc->incarnation;
  copts.reconnect_timeout_s = options_.distributed_reconnect_timeout;
  dclient_ = std::make_unique<net::RemoteTupleSpace>(copts);
  End end = End::kErrored;
  if (dclient_->Connect()) {
    end = RunBody(proc);
  } else {
    RecordErrorLocked(proc, RuntimeError::Code::kWireProtocolError,
                      "cannot reach the tuple-space server");
  }
  char work_line[256];
  std::snprintf(work_line, sizeof(work_line),
                "work %.17g\nrpc %llu\nbytes %llu\n", proc->work_done,
                static_cast<unsigned long long>(dclient_->rpc_round_trips()),
                static_cast<unsigned long long>(dclient_->transport_bytes()));
  std::string content = work_line;
  for (const RuntimeError& error : errors_) {
    std::string detail = error.detail;
    for (char& c : detail) {
      if (c == '\n' || c == '\r') c = ' ';
    }
    content += "error " + std::to_string(static_cast<int>(error.code)) + " " +
               detail + "\n";
  }
  WriteFileOnce(StatusFilePath(dist_dir_, proc->id, proc->incarnation),
                content);
  // BYE suppresses the server's crash-abort of this client's transaction.
  // Only a body that returned and whose deferred frames all applied says it;
  // after any other end the server rolls back whatever is still open.
  if (end == End::kDone) dclient_->Bye();
  return end == End::kDone ? 0 : end == End::kKilled ? 3 : 2;
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
    // A caller-provided directory may hold an earlier Run()'s files. The
    // server would recover that run's space and per-client dedup windows,
    // and this run's workers restart their sequence numbers at 1, so the
    // old cached replies would answer their requests. Start from a clean
    // server state; restarts within this run still recover from it.
    ClearDistState(dist_dir_);
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
    BuildDiagnosticLocked({});
    return false;
  }
  auto fail_structured = [&](RuntimeError::Code code, std::string detail) {
    RuntimeError error;
    error.code = code;
    error.time = now();
    error.detail = std::move(detail);
    errors_.push_back(std::move(error));
    BuildDiagnosticLocked({});
    if (owns_dir) net::RemoveTree(dist_dir_);
    wall_time_ = now();
    completion_time_ = wall_time_;
    return false;
  };
  dist_socket_ = dist_dir_ + "/" + kSocketName;
  {
    std::string path;
    std::string error;
    if (!net::ParseEndpoint(dist_socket_, &path, &error)) {
      return fail_structured(
          RuntimeError::Code::kBadSocketPath,
          error + "; point RuntimeOptions::distributed_dir (or $TMPDIR) at "
                  "a shorter path");
    }
  }

  net::SpaceServerOptions sopts;
  sopts.endpoint = dist_socket_;
  // Server stderr capture, kept with the state dir: a red chaos seed under
  // FPDM_TEST_KEEP_STATE is debuggable from the CI artifact alone.
  sopts.stderr_file = dist_dir_ + "/" + kServerStderrName;
  sopts.state_dir = dist_dir_ + "/" + kServerStateName;
  sopts.checkpoint_every_ops = std::max(1, options_.distributed_checkpoint_ops);
  sopts.wal_fail_after = options_.distributed_wal_fail_after;

  pid_t server_pid = net::ForkServerProcess(sopts);
  bool server_ok =
      server_pid > 0 && net::WaitForEndpoint(dist_socket_, 10.0);
  double server_down_at = 0.0;
  bool fatal = false;
  if (!server_ok) {
    fail_run("tuple-space server failed to start");
    fatal = true;
  }

  // The control connection: the STATUS watchdog, the cancel, and the
  // end-of-run harvest all ride it.
  net::RemoteSpaceOptions ctl_opts;
  ctl_opts.endpoint = dist_socket_;
  ctl_opts.pid = -1;
  // Short window: a control call against a down server must return quickly
  // so the supervisor keeps applying events (including the restart).
  ctl_opts.reconnect_timeout_s = 0.3;
  ctl_opts.reconnect_interval_s = 0.01;
  net::RemoteTupleSpace ctl(ctl_opts);

  if (!fatal) {
    // Seed the server with the tuples out'ed before Run(): the seed stream
    // coalesces into kBatch frames and one flush.
    for (Tuple& tuple : space_.TakeAllInOrder()) {
      if (ctl.BatchOut(tuple) != CallStatus::kOk) {
        fatal = true;
        break;
      }
    }
    if (fatal || ctl.Flush() != CallStatus::kOk) {
      fail_run("seeding the tuple-space server failed: " + ctl.last_error());
      fatal = true;
    }
  }

  // Re-anchor the fault clock now that the server is up and seeded:
  // scheduled times are meant relative to the workers starting work, not to
  // RunDistributed entering. Forking and health-checking the server (plus
  // seeding) costs tens of milliseconds on a contended runner — charged
  // against the schedule, a "kill at 50ms" could land before the first
  // worker opened a transaction.
  real_start_ = Clock::now();

  std::stable_sort(events_.begin(), events_.end());
  next_event_ = 0;

  auto fork_worker = [&](Proc* proc) {
    proc->state = ProcState::kReady;
    const pid_t pid =
        net::ForkChild([this, proc] { return RunWorkerChild(proc); });
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
  bool server_fatal_exit = false;  // _exit'ed non-zero: unrestartable

  auto restart_server = [&](const char* what) {
    server_pid = net::ForkServerProcess(sopts);
    if (server_pid > 0 && net::WaitForEndpoint(dist_socket_, 10.0)) {
      server_ok = true;
      return true;
    }
    fail_run(std::string(what) + ": tuple-space server failed to restart");
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
          if (!server_ok) break;
          net::KillProcess(server_pid);
          net::ExitInfo info;
          net::WaitForExit(server_pid, 5.0, &info);
          server_ok = false;
          server_down_at = t;
          ++stats_.server_failures;
          if (event.torn_tail) {
            // The kill landed; now make the crash "tear" the final WAL
            // append before the scheduled recovery restarts the server.
            TearWalTail(sopts.state_dir);
          }
          RecordLocked(TraceEvent::Kind::kServerFailed, t, nullptr, -1);
          break;
        }
        case Event::Kind::kServerRecover:
          if (server_ok) break;
          if (!restart_server("scheduled recovery")) {
            fatal = true;
            break;
          }
          stats_.server_downtime += now() - server_down_at;
          RecordLocked(TraceEvent::Kind::kServerRecovered, now(), nullptr, -1);
          break;
      }
      if (fatal) break;
    }
    if (fatal) break;

    // 2. Reap exited children (workers and, if it crashed, the server).
    for (;;) {
      std::vector<pid_t> watched;
      if (server_ok && server_pid > 0) watched.push_back(server_pid);
      for (auto& up : procs_) {
        if (up->state == ProcState::kReady && up->os_pid > 0) {
          watched.push_back(static_cast<pid_t>(up->os_pid));
        }
      }
      net::ExitInfo info;
      if (!net::ReapAny(watched, &info)) break;
      if (info.pid == server_pid) {
        // Unplanned server death. A signal death (chaos SIGKILL, OOM kill)
        // is a crash we recover from checkpoint + log; a non-zero _exit is
        // the server itself refusing to run (WAL write failure, unusable
        // state dir) — restarting would hit the same wall and spin until
        // the deadlock timeout, so fail the run with a structured error.
        server_ok = false;
        if (info.exited && info.exit_code != 0) {
          RuntimeError error;
          error.code = RuntimeError::Code::kServerDead;
          error.time = now();
          error.detail = "tuple-space server exited fatally with code " +
                         std::to_string(info.exit_code);
          errors_.push_back(std::move(error));
          server_pid = -1;
          server_fatal_exit = true;
          fatal = true;
          break;
        }
        ++stats_.server_failures;
        ++unplanned_server_deaths;
        const double down_at = now();
        RecordLocked(TraceEvent::Kind::kServerFailed, down_at, nullptr, -1);
        if (unplanned_server_deaths > 5) {
          fail_run("tuple-space server keeps crashing");
          fatal = true;
          break;
        }
        if (!restart_server("crash recovery")) {
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
        RuntimeError::Code code = RuntimeError::Code::kWireProtocolError;
        std::string detail =
            "worker exited with code " + std::to_string(info.exit_code);
        if (have_report && report.has_error) {
          code = static_cast<RuntimeError::Code>(report.error_code);
          detail = report.error_detail;
        }
        RecordErrorLocked(proc, code, std::move(detail));
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

    // 3. Deadlock watchdog: a pipelined STATUS poll (BeginStatus/PollStatus
    // overlap the reap and event work above). Nobody can wake anybody when
    // every live worker is parked and the publish epoch is stable across
    // two polls.
    if (server_ok && !run_cancelled) {
      if (!ctl.status_inflight() && t >= next_status_poll) {
        next_status_poll = t + status_poll_interval;
        ctl.BeginStatus();
      }
      net::Reply status;
      // kPending: poll again next pass. Anything but kOk is a transport
      // hiccup (server mid-restart); the next BeginStatus reconnects.
      if (ctl.status_inflight() && ctl.PollStatus(&status) == CallStatus::kOk) {
        int live = 0;
        for (auto& up : procs_) {
          if (up->state == ProcState::kReady) ++live;
        }
        // One waiter per parked pid, in the server's order.
        std::set<int32_t> parked_pids;
        std::vector<net::ParkedWaiter> parked;
        for (const net::ParkedWaiter& waiter : status.parked) {
          if (parked_pids.insert(waiter.pid).second) parked.push_back(waiter);
        }
        const bool all_parked =
            live > 0 && static_cast<int>(parked.size()) >= live &&
            next_event_ >= events_.size() && pending_respawns_.empty();
        if (all_parked && prev_all_parked &&
            status.publish_epoch == prev_epoch) {
          run_cancelled = true;
          deadlocked_ = true;
          cancel_time = now();
          last_parked = std::move(parked);
          ctl.Cancel();
        }
        prev_all_parked = all_parked;
        prev_epoch = status.publish_epoch;
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

  // Drain results + counters back, restarting the server if it is down
  // (e.g. a failure was scheduled with no recovery before the end). After a
  // fatal server exit there is nothing to restart or harvest — a fresh fork
  // would refuse to run the same way.
  if (!server_ok && !server_fatal_exit) {
    if (server_pid > 0) {
      net::ExitInfo info;
      net::WaitForExit(server_pid, 1.0, &info);
    }
    if (restart_server("end-of-run drain")) {
      RecordLocked(TraceEvent::Kind::kServerRecovered, now(), nullptr, -1);
    }
  }
  if (server_ok) {
    net::Reply server_stats;
    std::vector<Tuple> drained;
    if (ctl.Harvest(&server_stats, &drained) == CallStatus::kOk) {
      stats_.tuple_ops += server_stats.tuple_ops;
      stats_.transactions_committed += server_stats.commits;
      stats_.transactions_aborted += server_stats.aborts;
      stats_.server_checkpoints += server_stats.checkpoints;
      stats_.server_ops_replayed += server_stats.ops_replayed;
      stats_.batch_frames += server_stats.batch_frames;
      stats_.batched_tuple_ops += server_stats.batched_ops;
      stats_.wal_group_commits += server_stats.wal_group_commits;
      stats_.wal_synced_bytes += server_stats.wal_synced_bytes;
      stats_.transport_syscalls += server_stats.transport_syscalls;
      stats_.transport_bytes += server_stats.transport_bytes;
      for (Tuple& tuple : drained) space_.Out(std::move(tuple));
    } else {
      fail_run("end-of-run drain failed: " + ctl.last_error());
    }
    ctl.Shutdown();
    ctl.Abandon();
    net::ExitInfo info;
    if (!net::WaitForExit(server_pid, 5.0, &info)) {
      net::KillProcess(server_pid);
      net::WaitForExit(server_pid, 2.0, &info);
    }
  } else if (server_pid > 0) {
    net::KillProcess(server_pid);
    net::ExitInfo info;
    net::WaitForExit(server_pid, 2.0, &info);
  }
  stats_.rpc_calls += ctl.rpc_round_trips();
  stats_.bytes_on_wire += ctl.transport_bytes();

  wall_time_ = now();
  completion_time_ = wall_time_;

  if (deadlocked_ || !errors_.empty()) {
    // The server's parked waiters stand for the blocked processes.
    std::vector<std::pair<int, std::string>> blocked;
    for (const net::ParkedWaiter& waiter : last_parked) {
      const std::string op = waiter.remove ? "in " : "rd ";
      blocked.emplace_back(waiter.pid, op + waiter.tmpl_text);
    }
    BuildDiagnosticLocked(blocked, wall_limited);
  }

  const bool failed = deadlocked_ || !errors_.empty();
  // FPDM_TEST_KEEP_STATE: leave a failed run's state dir (WAL, checkpoints,
  // status files, server stderr) on disk for CI artifact upload.
  const char* keep = ::getenv("FPDM_TEST_KEEP_STATE");
  const bool keep_state = failed && keep != nullptr && *keep != '\0';
  if (owns_dir && !keep_state) net::RemoveTree(dist_dir_);
  return !failed;
}

}  // namespace fpdm::plinda
