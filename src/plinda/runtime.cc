#include "plinda/runtime.h"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <limits>
#include <utility>

// Complete type for the dclient_ unique_ptr destroyed in ~Runtime.
#include "plinda/net/client.h"

namespace fpdm::plinda {

namespace {

/// Internal control-flow type: thrown at yield points when the host machine
/// failed, caught only by Runtime::RunProcess. This is the simulation of
/// asynchronous process death (see DESIGN.md) and never escapes the runtime.
struct ProcessKilledException {};

/// Sibling of ProcessKilledException for protocol misuse: the offending
/// process unwinds, a RuntimeError is recorded, and no respawn happens
/// (re-running a buggy program would fail the same way).
struct ProtocolErrorException {};

/// A template matching exactly `tuple` (all fields actual). Used to replay
/// logged removals: FIFO matching removes the same tuple the original
/// operation removed, even among duplicates.
Template ExactTemplate(const Tuple& tuple) {
  Template tmpl;
  tmpl.fields.reserve(tuple.fields.size());
  for (const Value& value : tuple.fields) {
    tmpl.fields.push_back(TemplateField::Actual(value));
  }
  return tmpl;
}

}  // namespace

std::string ToString(const TraceEvent& event) {
  const char* kind = "?";
  switch (event.kind) {
    case TraceEvent::Kind::kSpawned:
      kind = "SPAWNED";
      break;
    case TraceEvent::Kind::kDone:
      kind = "DONE";
      break;
    case TraceEvent::Kind::kKilled:
      kind = "KILLED";
      break;
    case TraceEvent::Kind::kRespawned:
      kind = "RESPAWNED";
      break;
    case TraceEvent::Kind::kMachineFailed:
      kind = "MACHINE_FAILED";
      break;
    case TraceEvent::Kind::kMachineRecovered:
      kind = "MACHINE_RECOVERED";
      break;
    case TraceEvent::Kind::kServerFailed:
      kind = "SERVER_FAILED";
      break;
    case TraceEvent::Kind::kServerRecovered:
      kind = "SERVER_RECOVERED";
      break;
    case TraceEvent::Kind::kServerCheckpoint:
      kind = "SERVER_CHECKPOINT";
      break;
    case TraceEvent::Kind::kServerPartitioned:
      kind = "SERVER_PARTITIONED";
      break;
    case TraceEvent::Kind::kServerHealed:
      kind = "SERVER_HEALED";
      break;
    case TraceEvent::Kind::kError:
      kind = "ERROR";
      break;
  }
  char buf[160];
  if (event.pid >= 0) {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s %s (pid %d, machine %d)",
                  event.time, kind, event.process.c_str(), event.pid,
                  event.machine);
  } else if (event.machine >= 0) {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s machine %d", event.time,
                  kind, event.machine);
  } else {
    std::snprintf(buf, sizeof(buf), "[t=%8.2f] %-17s tuple-space server",
                  event.time, kind);
  }
  return buf;
}

std::string ToString(const RuntimeError& error) {
  const char* what = "?";
  switch (error.code) {
    case RuntimeError::Code::kXCommitWithoutXStart:
      what = "xcommit without xstart";
      break;
    case RuntimeError::Code::kNestedXStart:
      what = "nested xstart (transactions cannot nest)";
      break;
    case RuntimeError::Code::kXRecoverInsideTransaction:
      what = "xrecover inside an open transaction";
      break;
    case RuntimeError::Code::kNoMachineAvailable:
      what = "spawn requested while every machine is down";
      break;
    case RuntimeError::Code::kFaultInjectionUnsupported:
      what = "fault injection is unsupported in kRealParallel mode";
      break;
    case RuntimeError::Code::kWireProtocolError:
      what = "tuple-space server wire protocol failure";
      break;
    case RuntimeError::Code::kDistributedSpawnUnsupported:
      what = "spawn from a running process is unsupported in kDistributed mode";
      break;
    case RuntimeError::Code::kServerDead:
      what = "tuple-space server exited fatally and cannot be restarted";
      break;
    case RuntimeError::Code::kBadSocketPath:
      what = "server socket path exceeds the sun_path limit";
      break;
    case RuntimeError::Code::kBadEndpoint:
      what = "malformed server endpoint or unsupported transport";
      break;
  }
  char buf[256];
  std::snprintf(buf, sizeof(buf), "[t=%8.2f] protocol error in %s (pid %d): %s%s%s",
                error.time, error.process.c_str(), error.pid, what,
                error.detail.empty() ? "" : " — ", error.detail.c_str());
  return buf;
}

void Runtime::RecordLocked(TraceEvent::Kind kind, double time,
                           const Proc* proc, int machine) {
  if (!trace_enabled_) return;
  TraceEvent event;
  event.kind = kind;
  event.time = time;
  if (proc != nullptr) {
    event.pid = proc->id;
    event.process = proc->name;
    event.machine = proc->machine;
  } else {
    event.machine = machine;
  }
  trace_.push_back(std::move(event));
}

Runtime::Runtime(int num_machines, RuntimeOptions options)
    : options_(options), machines_(static_cast<size_t>(num_machines)) {
  assert(num_machines > 0);
}

Runtime::~Runtime() {
  {
    std::unique_lock<std::mutex> lock(mu_);
    shutdown_ = true;
    for (auto& proc : procs_) proc->cv.notify_all();
  }
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
}

void Runtime::SetMachineSpeed(int machine, double speed) {
  assert(machine >= 0 && machine < num_machines() && speed > 0);
  machines_[static_cast<size_t>(machine)].speed = speed;
}

void Runtime::ScheduleFailure(int machine, double time) {
  assert(machine >= 0 && machine < num_machines());
  events_.push_back(Event{time, Event::Kind::kMachineFail, machine});
}

void Runtime::ScheduleRecovery(int machine, double time) {
  assert(machine >= 0 && machine < num_machines());
  events_.push_back(Event{time, Event::Kind::kMachineRecover, machine});
}

void Runtime::ScheduleServerFailure(double time, bool torn_tail) {
  events_.push_back(Event{time, Event::Kind::kServerFail, -1, torn_tail});
  server_protected_ = true;  // start maintaining checkpoint + op log
}

void Runtime::ScheduleServerRecovery(double time) {
  events_.push_back(Event{time, Event::Kind::kServerRecover});
}

void Runtime::ScheduleServerPartition(double time) {
  events_.push_back(Event{time, Event::Kind::kServerPartition});
}

void Runtime::ScheduleServerHeal(double time) {
  events_.push_back(Event{time, Event::Kind::kServerHeal});
}

int Runtime::Spawn(const std::string& name, ProcessFn fn) {
  std::unique_lock<std::mutex> lock(mu_);
  int machine = PickMachineLocked();
  assert(machine >= 0);
  return SpawnLocked(name, machine, std::move(fn),
                     real_mode() || dist_mode() ? 0.0 : options_.spawn_delay);
}

int Runtime::SpawnOn(const std::string& name, int machine, ProcessFn fn) {
  std::unique_lock<std::mutex> lock(mu_);
  assert(machine >= 0 && machine < num_machines());
  return SpawnLocked(name, machine, std::move(fn),
                     real_mode() || dist_mode() ? 0.0 : options_.spawn_delay);
}

int Runtime::PickMachineLocked() const {
  std::vector<int> load(machines_.size(), 0);
  for (const auto& proc : procs_) {
    if (proc->state == ProcState::kReady || proc->state == ProcState::kBlocked) {
      ++load[static_cast<size_t>(proc->machine)];
    }
  }
  int best = -1;
  for (size_t m = 0; m < machines_.size(); ++m) {
    if (!machines_[m].up) continue;
    if (best < 0 || load[m] < load[static_cast<size_t>(best)]) {
      best = static_cast<int>(m);
    }
  }
  return best;
}

int Runtime::SpawnLocked(const std::string& name, int machine, ProcessFn fn,
                         double start_clock) {
  auto proc = std::make_unique<Proc>();
  proc->id = static_cast<int>(procs_.size());
  proc->name = name;
  proc->fn = std::move(fn);
  proc->machine = machine;
  proc->clock = start_clock;
  proc->state = ProcState::kReady;
  Proc* raw = proc.get();
  procs_.push_back(std::move(proc));
  RecordLocked(TraceEvent::Kind::kSpawned, start_clock, raw, raw->machine);
  // Distributed mode forks an OS process per Proc inside RunDistributed();
  // the parent must stay single-threaded so fork() is safe.
  if (!dist_mode()) StartThreadLocked(raw);
  return raw->id;
}

void Runtime::StartThreadLocked(Proc* proc) {
  threads_.emplace_back(&Runtime::RunProcess, this, proc, proc->incarnation);
}

bool Runtime::Run() {
  if (real_mode()) return RunReal();
  if (dist_mode()) return RunDistributed();
  const auto run_start = std::chrono::steady_clock::now();
  std::unique_lock<std::mutex> lock(mu_);
  std::stable_sort(events_.begin(), events_.end());
  next_event_ = 0;
  deadlocked_ = false;
  diagnostic_.clear();
  if (server_protected_) {
    // Initial checkpoint at t=0 covers tuples seeded before Run().
    server_checkpoint_ = space_.Checkpoint();
    server_log_.clear();
    ++stats_.server_checkpoints;
    RecordLocked(TraceEvent::Kind::kServerCheckpoint, 0.0, nullptr, -1);
    next_checkpoint_time_ = options_.server_checkpoint_interval;
  }
  for (;;) {
    if (++stats_.scheduler_steps > options_.max_steps) {
      deadlocked_ = true;
      break;
    }
    Proc* next = nullptr;
    for (auto& up : procs_) {
      Proc* p = up.get();
      if (p->state != ProcState::kReady) continue;
      if (next == nullptr || p->clock < next->clock ||
          (p->clock == next->clock && p->id < next->id)) {
        next = p;
      }
    }
    if (next == nullptr) {
      bool waiting = !pending_respawns_.empty();
      for (auto& up : procs_) {
        if (up->state == ProcState::kBlocked) waiting = true;
      }
      // Every process finished: the simulation is over and faults scheduled
      // beyond this point never happen.
      if (!waiting) break;
      // Someone is blocked or awaiting a machine: only a future event can
      // unstick them; with no events left this is a deadlock.
      if (next_event_ >= events_.size()) {
        deadlocked_ = true;
        break;
      }
    }
    const double horizon =
        next != nullptr ? next->clock : std::numeric_limits<double>::infinity();
    if (next_event_ < events_.size() && events_[next_event_].time <= horizon) {
      ApplyEventLocked(events_[next_event_], lock);
      ++next_event_;
      continue;
    }
    GrantLocked(next, lock);
  }
  if (deadlocked_ || !errors_.empty()) BuildDiagnosticLocked();
  shutdown_ = true;
  for (auto& proc : procs_) proc->cv.notify_all();
  lock.unlock();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  wall_time_ = std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                             run_start)
                   .count();
  return !deadlocked_ && errors_.empty();
}

void Runtime::BuildDiagnosticLocked() {
  std::string out;
  if (deadlocked_) {
    out += "deadlock: no process can make progress\n";
    for (const auto& up : procs_) {
      const Proc* proc = up.get();
      // Real mode: deadlocked waiters were cancelled (state kDead) but keep
      // real_blocked + their template for exactly this post-mortem.
      const bool blocked = proc->state == ProcState::kBlocked ||
                           (real_mode() && proc->real_blocked);
      if (!blocked) continue;
      char head[128];
      std::snprintf(head, sizeof(head), "  %s (pid %d, machine %d) blocked on ",
                    proc->name.c_str(), proc->id, proc->machine);
      out += head;
      if (proc->block_reason == BlockReason::kServer) {
        out += "tuple-space server recovery";
      } else {
        out += proc->blocked_remove ? "in " : "rd ";
        out += ToString(proc->blocked_tmpl);
      }
      out += '\n';
    }
    for (const Proc* proc : pending_respawns_) {
      char line[128];
      std::snprintf(line, sizeof(line),
                    "  %s (pid %d) killed, awaiting an up machine\n",
                    proc->name.c_str(), proc->id);
      out += line;
    }
    if (!server_up_) {
      bool recovery_pending = false;
      for (size_t e = next_event_; e < events_.size(); ++e) {
        if (events_[e].kind == Event::Kind::kServerRecover) {
          recovery_pending = true;
        }
      }
      out += recovery_pending
                 ? "  tuple-space server is down (recovery still scheduled)\n"
                 : "  tuple-space server is down and no recovery is scheduled\n";
    }
  }
  for (const RuntimeError& error : errors_) {
    out += "  " + ToString(error) + '\n';
  }
  diagnostic_ = std::move(out);
}

void Runtime::GrantLocked(Proc* proc, std::unique_lock<std::mutex>& lock) {
  active_pid_ = proc->id;
  proc->granted = true;
  proc->cv.notify_all();
  sched_cv_.wait(lock, [&] { return active_pid_ == -1; });
}

void Runtime::ApplyEventLocked(const Event& event,
                               std::unique_lock<std::mutex>& lock) {
  switch (event.kind) {
    case Event::Kind::kMachineFail: {
      Machine& machine = machines_[static_cast<size_t>(event.machine)];
      if (!machine.up) return;
      machine.up = false;
      RecordLocked(TraceEvent::Kind::kMachineFailed, event.time, nullptr,
                   event.machine);
      for (auto& up : procs_) {
        Proc* proc = up.get();
        if (proc->machine != event.machine) continue;
        if (proc->state != ProcState::kReady &&
            proc->state != ProcState::kBlocked) {
          continue;
        }
        KillProcLocked(proc, event.time, lock);
        if (auto_respawn_) RespawnLocked(proc, event.time);
      }
      return;
    }
    case Event::Kind::kMachineRecover: {
      Machine& machine = machines_[static_cast<size_t>(event.machine)];
      if (machine.up) return;
      machine.up = true;
      RecordLocked(TraceEvent::Kind::kMachineRecovered, event.time, nullptr,
                   event.machine);
      while (!pending_respawns_.empty()) {
        Proc* proc = pending_respawns_.front();
        pending_respawns_.pop_front();
        proc->machine = event.machine;
        proc->clock = event.time;  // RespawnLocked adds the spawn delay
        RespawnLocked(proc, event.time);
      }
      return;
    }
    case Event::Kind::kServerFail: {
      if (!server_up_) return;
      // Periodic checkpoints due before the crash cover the current state
      // (no mutation happened since, or they would already be taken).
      MaybeCheckpointLocked(event.time);
      server_up_ = false;
      server_down_since_ = event.time;
      ++stats_.server_failures;
      // The server's volatile memory is gone: recovery must rebuild the
      // space from checkpoint + log, not from this in-process object.
      space_.Clear();
      RecordLocked(TraceEvent::Kind::kServerFailed, event.time, nullptr, -1);
      return;
    }
    case Event::Kind::kServerRecover: {
      if (server_up_) return;
      // Rollback recovery (§2.4.6): last periodic checkpoint, then the
      // operation log, then restorations from transactions aborted while
      // the server was down.
      const bool restored = space_.Restore(server_checkpoint_);
      assert(restored && "server checkpoint must round-trip");
      (void)restored;
      for (const ServerLogEntry& entry : server_log_) {
        if (entry.removed) {
          space_.TryIn(ExactTemplate(entry.tuple), nullptr);
        } else {
          space_.Out(entry.tuple);
        }
      }
      stats_.server_ops_replayed += server_log_.size();
      for (Tuple& tuple : deferred_restores_) space_.Out(std::move(tuple));
      deferred_restores_.clear();
      // Fresh checkpoint of the recovered state; the replayed log is spent.
      server_checkpoint_ = space_.Checkpoint();
      server_log_.clear();
      ++stats_.server_checkpoints;
      next_checkpoint_time_ = event.time + options_.server_checkpoint_interval;
      server_up_ = true;
      stats_.server_downtime += event.time - server_down_since_;
      RecordLocked(TraceEvent::Kind::kServerRecovered, event.time, nullptr, -1);
      // Stalled clients resume after the restart delay; processes blocked on
      // templates also recheck (the recovered space may satisfy them).
      WakeBlockedLocked(event.time + options_.server_restart_delay);
      return;
    }
    case Event::Kind::kServerPartition:
    case Event::Kind::kServerHeal:
      // Link faults only exist in kDistributed mode (handled by the
      // distributed supervisor loop); the simulator has no network.
      return;
  }
}

void Runtime::MaybeCheckpointLocked(double now) {
  if (!server_protected_ || !server_up_) return;
  while (next_checkpoint_time_ <= now) {
    server_checkpoint_ = space_.Checkpoint();
    server_log_.clear();
    ++stats_.server_checkpoints;
    // Stamped at the boundary the checkpoint covers; taken lazily at the
    // first mutation past it, so trace times of checkpoint events may
    // precede the event that triggered them.
    RecordLocked(TraceEvent::Kind::kServerCheckpoint, next_checkpoint_time_,
                 nullptr, -1);
    next_checkpoint_time_ += options_.server_checkpoint_interval;
  }
}

void Runtime::ServerOutLocked(double now, Tuple tuple) {
  MaybeCheckpointLocked(now);
  if (server_protected_) {
    server_log_.push_back(ServerLogEntry{/*removed=*/false, tuple});
  }
  space_.Out(std::move(tuple));
}

bool Runtime::ServerTryInLocked(double now, const Template& tmpl,
                                Tuple* result) {
  MaybeCheckpointLocked(now);
  Tuple found;
  if (!space_.TryIn(tmpl, &found)) return false;
  if (server_protected_) {
    server_log_.push_back(ServerLogEntry{/*removed=*/true, found});
  }
  if (result != nullptr) *result = std::move(found);
  return true;
}

void Runtime::WaitServerLocked(Proc* proc, std::unique_lock<std::mutex>& lock) {
  while (!server_up_) {
    proc->state = ProcState::kBlocked;
    proc->block_reason = BlockReason::kServer;
    Yield(proc, lock);
  }
  proc->block_reason = BlockReason::kNone;
}

void Runtime::FailProcLocked(Proc* proc, RuntimeError::Code code,
                             std::string detail) {
  RuntimeError error;
  error.code = code;
  error.time = proc->clock;
  error.pid = proc->id;
  error.process = proc->name;
  error.detail = std::move(detail);
  errors_.push_back(std::move(error));
  proc->errored = true;
  RecordLocked(TraceEvent::Kind::kError, proc->clock, proc, proc->machine);
  throw ProtocolErrorException{};
}

void Runtime::KillProcLocked(Proc* proc, double time,
                             std::unique_lock<std::mutex>& lock) {
  proc->kill_requested = true;
  proc->clock = time;
  RecordLocked(TraceEvent::Kind::kKilled, time, proc, proc->machine);
  // Wake the process thread so it can unwind; RunProcess marks it dead and
  // rolls back its open transaction.
  GrantLocked(proc, lock);
  assert(proc->state == ProcState::kDead);
}

void Runtime::RespawnLocked(Proc* proc, double time) {
  int machine = PickMachineLocked();
  if (machine < 0) {
    pending_respawns_.push_back(proc);
    return;
  }
  proc->machine = machine;
  proc->clock = time + options_.spawn_delay;
  proc->state = ProcState::kReady;
  proc->granted = false;
  proc->kill_requested = false;
  ++proc->incarnation;
  ++stats_.processes_respawned;
  RecordLocked(TraceEvent::Kind::kRespawned, proc->clock, proc, machine);
  StartThreadLocked(proc);
}

void Runtime::WakeBlockedLocked(double time) {
  for (auto& up : procs_) {
    Proc* proc = up.get();
    if (proc->state == ProcState::kBlocked) {
      proc->clock = std::max(proc->clock, time);
      proc->state = ProcState::kReady;
    }
  }
}

void Runtime::AbortTxnLocked(Proc* proc, double time) {
  if (!proc->txn_active) return;
  // Restore the tuples the transaction removed; drop its unpublished outs.
  // Restored tuples re-enter at the tail of the FIFO order, which is an
  // acceptable deviation (no template in this repo depends on the relative
  // order of a restored tuple). While the server is down the restorations
  // are parked and applied right after recovery's log replay.
  bool restored = false;
  for (Tuple& tuple : proc->txn_ins) {
    if (server_up_) {
      ServerOutLocked(time, std::move(tuple));
    } else {
      deferred_restores_.push_back(std::move(tuple));
    }
    restored = true;
  }
  proc->txn_ins.clear();
  proc->txn_outs.clear();
  proc->txn_active = false;
  ++stats_.transactions_aborted;
  if (restored && server_up_) WakeBlockedLocked(time);
}

void Runtime::RunProcess(Proc* proc, int incarnation) {
  if (real_mode()) {
    RunProcessReal(proc);
    (void)incarnation;
    return;
  }
  bool killed = false;
  bool errored = false;
  {
    std::unique_lock<std::mutex> lock(mu_);
    proc->cv.wait(lock, [&] { return proc->granted || shutdown_; });
    if (proc->kill_requested || shutdown_) killed = true;
  }
  if (!killed) {
    ProcessContext ctx(this, proc);
    try {
      proc->fn(ctx);
    } catch (const ProcessKilledException&) {
      killed = true;
    } catch (const ProtocolErrorException&) {
      errored = true;
    }
  }
  std::unique_lock<std::mutex> lock(mu_);
  AbortTxnLocked(proc, proc->clock);
  if (killed) {
    proc->state = ProcState::kDead;
    ++stats_.processes_killed;
  } else if (errored) {
    // Terminated by FailProcLocked: counted in errors_, not as a failure.
    proc->state = ProcState::kDead;
  } else {
    proc->state = ProcState::kDone;
    completion_time_ = std::max(completion_time_, proc->clock);
    RecordLocked(TraceEvent::Kind::kDone, proc->clock, proc, proc->machine);
  }
  proc->granted = false;
  if (active_pid_ == proc->id) active_pid_ = -1;
  sched_cv_.notify_all();
  (void)incarnation;
}

void Runtime::Yield(Proc* proc, std::unique_lock<std::mutex>& lock) {
  proc->granted = false;
  active_pid_ = -1;
  sched_cv_.notify_all();
  proc->cv.wait(lock, [&] { return proc->granted || shutdown_; });
  if (proc->kill_requested || shutdown_) throw ProcessKilledException{};
}

void Runtime::OpOut(Proc* proc, Tuple tuple) {
  if (real_mode()) {
    RealOut(proc, std::move(tuple));
    return;
  }
  if (dist_mode()) {
    DistOut(proc, std::move(tuple));
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  WaitServerLocked(proc, lock);
  proc->clock += options_.tuple_op_latency;
  ++stats_.tuple_ops;
  if (proc->txn_active) {
    proc->txn_outs.push_back(std::move(tuple));
  } else {
    ServerOutLocked(proc->clock, std::move(tuple));
    WakeBlockedLocked(proc->clock);
  }
  Yield(proc, lock);
}

bool Runtime::OpIn(Proc* proc, const Template& tmpl, Tuple* result,
                   bool blocking, bool remove) {
  if (real_mode()) return RealIn(proc, tmpl, result, blocking, remove);
  if (dist_mode()) return DistIn(proc, tmpl, result, blocking, remove);
  std::unique_lock<std::mutex> lock(mu_);
  proc->clock += options_.tuple_op_latency;
  ++stats_.tuple_ops;
  for (;;) {
    WaitServerLocked(proc, lock);
    // A transaction sees its own uncommitted outs.
    if (proc->txn_active) {
      bool matched = false;
      for (auto it = proc->txn_outs.begin(); it != proc->txn_outs.end(); ++it) {
        if (Matches(tmpl, *it)) {
          if (result != nullptr) *result = *it;
          if (remove) proc->txn_outs.erase(it);
          matched = true;
          break;
        }
      }
      if (matched) {
        Yield(proc, lock);
        return true;
      }
    }
    Tuple found;
    const bool ok = remove ? ServerTryInLocked(proc->clock, tmpl, &found)
                           : space_.TryRd(tmpl, &found);
    if (ok) {
      if (remove && proc->txn_active) proc->txn_ins.push_back(found);
      if (result != nullptr) *result = std::move(found);
      Yield(proc, lock);
      return true;
    }
    if (!blocking) {
      Yield(proc, lock);
      return false;
    }
    proc->state = ProcState::kBlocked;
    proc->block_reason = BlockReason::kTemplate;
    proc->blocked_tmpl = tmpl;
    proc->blocked_remove = remove;
    Yield(proc, lock);  // woken when some commit/out publishes new tuples
  }
}

void Runtime::OpXStart(Proc* proc) {
  if (real_mode()) {
    RealXStart(proc);
    return;
  }
  if (dist_mode()) {
    DistXStart(proc);
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  WaitServerLocked(proc, lock);
  if (proc->txn_active) {
    FailProcLocked(proc, RuntimeError::Code::kNestedXStart,
                   "transaction already open");
  }
  proc->clock += options_.txn_latency;
  proc->txn_active = true;
  Yield(proc, lock);
}

void Runtime::OpXCommit(Proc* proc, bool has_continuation, Tuple continuation) {
  if (real_mode()) {
    RealXCommit(proc, has_continuation, std::move(continuation));
    return;
  }
  if (dist_mode()) {
    DistXCommit(proc, has_continuation, std::move(continuation));
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  WaitServerLocked(proc, lock);
  if (!proc->txn_active) {
    FailProcLocked(proc, RuntimeError::Code::kXCommitWithoutXStart,
                   "no transaction is open");
  }
  proc->clock += options_.txn_latency;
  bool published = !proc->txn_outs.empty();
  for (Tuple& tuple : proc->txn_outs) {
    ServerOutLocked(proc->clock, std::move(tuple));
  }
  proc->txn_outs.clear();
  proc->txn_ins.clear();
  proc->txn_active = false;
  if (has_continuation) continuations_[proc->id] = std::move(continuation);
  ++stats_.transactions_committed;
  if (published) WakeBlockedLocked(proc->clock);
  Yield(proc, lock);
}

bool Runtime::OpXRecover(Proc* proc, Tuple* continuation) {
  if (real_mode()) return RealXRecover(proc, continuation);
  if (dist_mode()) return DistXRecover(proc, continuation);
  std::unique_lock<std::mutex> lock(mu_);
  WaitServerLocked(proc, lock);
  if (proc->txn_active) {
    FailProcLocked(proc, RuntimeError::Code::kXRecoverInsideTransaction,
                   "xrecover must run outside transactions");
  }
  proc->clock += options_.txn_latency;
  auto it = continuations_.find(proc->id);
  const bool found = it != continuations_.end();
  if (found && continuation != nullptr) *continuation = it->second;
  Yield(proc, lock);
  return found;
}

void Runtime::OpCompute(Proc* proc, double work_units) {
  assert(work_units >= 0);
  if (dist_mode()) {
    // Real work on the worker process; units feed the status-file report
    // the supervisor folds into total_work.
    proc->work_done += work_units;
    return;
  }
  if (real_mode()) {
    // The real work happens on the calling thread; the units only feed the
    // total_work statistic (folded in after the join). Also a cancellation
    // point so compute-heavy processes notice a deadlock shutdown.
    if (rspace_->closed()) throw ProcessKilledException{};
    proc->work_done += work_units;
    return;
  }
  std::unique_lock<std::mutex> lock(mu_);
  proc->clock += work_units / machines_[static_cast<size_t>(proc->machine)].speed;
  proc->work_done += work_units;
  stats_.total_work += work_units;
  Yield(proc, lock);
}

int Runtime::OpSpawn(Proc* proc, const std::string& name, ProcessFn fn) {
  if (dist_mode()) {
    FailProcDist(proc, RuntimeError::Code::kDistributedSpawnUnsupported,
                 "cannot place process \"" + name + "\"");
  }
  if (real_mode()) return RealSpawn(proc, name, std::move(fn));
  std::unique_lock<std::mutex> lock(mu_);
  proc->clock += options_.tuple_op_latency;
  int machine = PickMachineLocked();
  if (machine < 0) {
    FailProcLocked(proc, RuntimeError::Code::kNoMachineAvailable,
                   "cannot place process \"" + name + "\"");
  }
  int id = SpawnLocked(name, machine, std::move(fn),
                       proc->clock + options_.spawn_delay);
  Yield(proc, lock);
  return id;
}

// --- real-parallel backend (ExecutionMode::kRealParallel) ----------------

double Runtime::NowReal() const {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                       real_start_)
      .count();
}

bool Runtime::RunReal() {
  std::unique_lock<std::mutex> lock(mu_);
  deadlocked_ = false;
  diagnostic_.clear();
  if (!events_.empty()) {
    // The fault model needs the deterministic virtual-time scheduler (kill
    // points, rollback replay, virtual respawn delays): fail fast instead of
    // silently ignoring the scheduled faults.
    RuntimeError error;
    error.code = RuntimeError::Code::kFaultInjectionUnsupported;
    error.detail =
        "scheduled machine/server faults require ExecutionMode::kSimulated";
    errors_.push_back(std::move(error));
    shutdown_ = true;
    for (auto& proc : procs_) proc->cv.notify_all();
    BuildDiagnosticLocked();
    lock.unlock();
    for (auto& thread : threads_) {
      if (thread.joinable()) thread.join();
    }
    return false;
  }

  rspace_ = std::make_unique<ConcurrentTupleSpace>(
      std::exchange(space_, TupleSpace()));
  real_start_ = std::chrono::steady_clock::now();
  started_real_ = true;
  for (auto& proc : procs_) proc->cv.notify_all();

  // Watchdog: waits for every process to finish. A stalled waiter has no
  // match in the space, and holding mu_ keeps RealSpawn from adding a
  // process, so once the space counts every live process as stalled none
  // can ever run again: cancel by closing the space, which unwinds the
  // waiters through ProcessKilledException.
  for (;;) {
    sched_cv_.wait_for(lock, std::chrono::milliseconds(20));
    size_t live = 0;
    for (auto& up : procs_) {
      if (up->state != ProcState::kDone && up->state != ProcState::kDead) {
        ++live;
      }
    }
    if (live == 0) break;
    if (!deadlocked_ && rspace_->stalled() >= live) {
      deadlocked_ = true;
      rspace_->Close();
    }
  }

  wall_time_ = NowReal();
  completion_time_ = wall_time_;
  shutdown_ = true;
  for (auto& proc : procs_) proc->cv.notify_all();
  lock.unlock();
  for (auto& thread : threads_) {
    if (thread.joinable()) thread.join();
  }
  lock.lock();
  // Every process thread joined: the atomics and per-process counters are
  // final, and the concurrent space is quiescent.
  stats_.tuple_ops += real_tuple_ops_.exchange(0);
  stats_.transactions_committed += real_commits_.exchange(0);
  stats_.transactions_aborted += real_aborts_.exchange(0);
  for (auto& up : procs_) stats_.total_work += up->work_done;
  space_ = rspace_->TakeSpace();
  if (deadlocked_ || !errors_.empty()) BuildDiagnosticLocked();
  return !deadlocked_ && errors_.empty();
}

void Runtime::RunProcessReal(Proc* proc) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    proc->cv.wait(lock, [&] { return started_real_ || shutdown_; });
    if (!started_real_) {  // shut down before Run(): never ran
      proc->state = ProcState::kDead;
      sched_cv_.notify_all();
      return;
    }
  }
  bool killed = false;
  bool errored = false;
  ProcessContext ctx(this, proc);
  try {
    proc->fn(ctx);
  } catch (const ProcessKilledException&) {
    killed = true;
  } catch (const ProtocolErrorException&) {
    errored = true;
  }
  RealAbortTxn(proc);
  std::unique_lock<std::mutex> lock(mu_);
  if (killed) {
    proc->state = ProcState::kDead;
    ++stats_.processes_killed;
  } else if (errored) {
    proc->state = ProcState::kDead;
  } else {
    proc->state = ProcState::kDone;
    RecordLocked(TraceEvent::Kind::kDone, NowReal(), proc, proc->machine);
  }
  sched_cv_.notify_all();
}

void Runtime::RealAbortTxn(Proc* proc) {
  if (!proc->txn_active) return;
  if (!rspace_->closed()) {
    // Restore the tuples the transaction removed; drop unpublished outs.
    for (Tuple& tuple : proc->txn_ins) rspace_->Out(std::move(tuple));
  }
  proc->txn_ins.clear();
  proc->txn_outs.clear();
  proc->txn_active = false;
  real_aborts_.fetch_add(1, std::memory_order_relaxed);
}

void Runtime::FailProcReal(Proc* proc, RuntimeError::Code code,
                           std::string detail) {
  {
    std::unique_lock<std::mutex> lock(mu_);
    RuntimeError error;
    error.code = code;
    error.time = NowReal();
    error.pid = proc->id;
    error.process = proc->name;
    error.detail = std::move(detail);
    errors_.push_back(std::move(error));
    proc->errored = true;
    RecordLocked(TraceEvent::Kind::kError, NowReal(), proc, proc->machine);
  }
  throw ProtocolErrorException{};
}

void Runtime::RealOut(Proc* proc, Tuple tuple) {
  if (rspace_->closed()) throw ProcessKilledException{};
  real_tuple_ops_.fetch_add(1, std::memory_order_relaxed);
  if (proc->txn_active) {
    proc->txn_outs.push_back(std::move(tuple));
  } else {
    rspace_->Out(std::move(tuple));
  }
}

bool Runtime::RealIn(Proc* proc, const Template& tmpl, Tuple* result,
                     bool blocking, bool remove) {
  if (rspace_->closed()) throw ProcessKilledException{};
  real_tuple_ops_.fetch_add(1, std::memory_order_relaxed);
  // A transaction sees its own uncommitted outs (same as the simulator).
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
  if (blocking) {
    if (!rspace_->WaitIn(tmpl, &found, remove)) {
      // Space closed while we waited: deadlock cancellation. Record what
      // we waited for, for the post-mortem diagnostic.
      proc->block_reason = BlockReason::kTemplate;
      proc->blocked_tmpl = tmpl;
      proc->blocked_remove = remove;
      proc->real_blocked = true;
      throw ProcessKilledException{};
    }
  } else {
    const bool ok = remove ? rspace_->TryIn(tmpl, &found)
                           : rspace_->TryRd(tmpl, &found);
    if (!ok) return false;
  }
  if (remove && proc->txn_active) proc->txn_ins.push_back(found);
  if (result != nullptr) *result = std::move(found);
  return true;
}

void Runtime::RealXStart(Proc* proc) {
  if (rspace_->closed()) throw ProcessKilledException{};
  if (proc->txn_active) {
    FailProcReal(proc, RuntimeError::Code::kNestedXStart,
                 "transaction already open");
  }
  proc->txn_active = true;
}

void Runtime::RealXCommit(Proc* proc, bool has_continuation,
                          Tuple continuation) {
  if (rspace_->closed()) throw ProcessKilledException{};
  if (!proc->txn_active) {
    FailProcReal(proc, RuntimeError::Code::kXCommitWithoutXStart,
                 "no transaction is open");
  }
  rspace_->OutBatch(std::move(proc->txn_outs));
  proc->txn_outs.clear();
  proc->txn_ins.clear();
  proc->txn_active = false;
  if (has_continuation) {
    std::lock_guard<std::mutex> lock(mu_);
    continuations_[proc->id] = std::move(continuation);
  }
  real_commits_.fetch_add(1, std::memory_order_relaxed);
}

bool Runtime::RealXRecover(Proc* proc, Tuple* continuation) {
  if (rspace_->closed()) throw ProcessKilledException{};
  if (proc->txn_active) {
    FailProcReal(proc, RuntimeError::Code::kXRecoverInsideTransaction,
                 "xrecover must run outside transactions");
  }
  std::lock_guard<std::mutex> lock(mu_);
  auto it = continuations_.find(proc->id);
  const bool found = it != continuations_.end();
  if (found && continuation != nullptr) *continuation = it->second;
  return found;
}

int Runtime::RealSpawn(Proc* proc, const std::string& name, ProcessFn fn) {
  if (rspace_->closed()) throw ProcessKilledException{};
  std::unique_lock<std::mutex> lock(mu_);
  int machine = PickMachineLocked();
  assert(machine >= 0 && "machines never fail in real mode");
  // The new thread passes the start gate immediately (started_real_ is set).
  (void)proc;
  return SpawnLocked(name, machine, std::move(fn), NowReal());
}

// --- ProcessContext forwarding -------------------------------------------

void ProcessContext::Out(Tuple tuple) { runtime_->OpOut(proc_, std::move(tuple)); }

void ProcessContext::In(const Template& tmpl, Tuple* result) {
  runtime_->OpIn(proc_, tmpl, result, /*blocking=*/true, /*remove=*/true);
}

bool ProcessContext::Inp(const Template& tmpl, Tuple* result) {
  return runtime_->OpIn(proc_, tmpl, result, /*blocking=*/false,
                        /*remove=*/true);
}

void ProcessContext::Rd(const Template& tmpl, Tuple* result) {
  runtime_->OpIn(proc_, tmpl, result, /*blocking=*/true, /*remove=*/false);
}

bool ProcessContext::Rdp(const Template& tmpl, Tuple* result) {
  return runtime_->OpIn(proc_, tmpl, result, /*blocking=*/false,
                        /*remove=*/false);
}

void ProcessContext::XStart() { runtime_->OpXStart(proc_); }

void ProcessContext::XCommit() {
  runtime_->OpXCommit(proc_, /*has_continuation=*/false, Tuple());
}

void ProcessContext::XCommit(Tuple continuation) {
  runtime_->OpXCommit(proc_, /*has_continuation=*/true, std::move(continuation));
}

bool ProcessContext::XRecover(Tuple* continuation) {
  return runtime_->OpXRecover(proc_, continuation);
}

void ProcessContext::Compute(double work_units) {
  runtime_->OpCompute(proc_, work_units);
}

int ProcessContext::Spawn(const std::string& name, ProcessFn fn) {
  return runtime_->OpSpawn(proc_, name, std::move(fn));
}

double ProcessContext::Now() const { return proc_->clock; }

}  // namespace fpdm::plinda
