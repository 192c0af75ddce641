#include "plinda/net/client.h"

#include <errno.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstring>
#include <thread>

#include "plinda/net/endpoint.h"

namespace fpdm::plinda::net {

namespace {

using Clock = std::chrono::steady_clock;

/// Seal the open coalescing batch once it would encode roughly this big, so
/// a single kBatch frame stays far below kMaxFramePayload even for tuples
/// carrying serialized trees.
constexpr size_t kMaxBatchBytes = 2u << 20;
constexpr size_t kMaxBatchOps = 1024;
/// Flush inline once this many frames are queued: the server's per-client
/// dedup window (kDedupWindow = 16) must cover every frame a reconnect can
/// resend, so the queue depth stays well under it.
constexpr size_t kMaxQueuedFrames = 8;

/// Gathered write of every iovec, one syscall per kernel acceptance. The
/// single-writev flush is what makes a multi-frame pipeline cost the same
/// number of syscalls as a single request frame. MSG_NOSIGNAL: writing to a
/// crashed server must surface as EPIPE (the reconnect path), not deliver
/// SIGPIPE to the caller.
bool WritevAll(int fd, std::vector<iovec> iov, uint64_t* bytes_sent,
               uint64_t* syscalls) {
  size_t idx = 0;
  size_t off = 0;
  while (idx < iov.size()) {
    const iovec save = iov[idx];
    iov[idx].iov_base = static_cast<char*>(save.iov_base) + off;
    iov[idx].iov_len = save.iov_len - off;
    msghdr msg;
    std::memset(&msg, 0, sizeof(msg));
    msg.msg_iov = iov.data() + idx;
    msg.msg_iovlen = iov.size() - idx;
    if (syscalls != nullptr) ++*syscalls;
    const ssize_t w = ::sendmsg(fd, &msg, MSG_NOSIGNAL);
    iov[idx] = save;
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    if (bytes_sent != nullptr) *bytes_sent += static_cast<uint64_t>(w);
    size_t n = static_cast<size_t>(w);
    while (idx < iov.size()) {
      const size_t remaining = iov[idx].iov_len - off;
      if (n < remaining) {
        off += n;
        break;
      }
      n -= remaining;
      off = 0;
      ++idx;
    }
  }
  return true;
}

RemoteTupleSpace::CallStatus MapWireStatus(WireStatus status) {
  switch (status) {
    case WireStatus::kOk:
      return RemoteTupleSpace::CallStatus::kOk;
    case WireStatus::kNotFound:
      return RemoteTupleSpace::CallStatus::kNotFound;
    case WireStatus::kCancelled:
      return RemoteTupleSpace::CallStatus::kCancelled;
    case WireStatus::kError:
      return RemoteTupleSpace::CallStatus::kWireError;
  }
  return RemoteTupleSpace::CallStatus::kWireError;
}

}  // namespace

RemoteTupleSpace::RemoteTupleSpace(RemoteSpaceOptions options)
    : options_(std::move(options)) {}

RemoteTupleSpace::~RemoteTupleSpace() { CloseFd(); }

void RemoteTupleSpace::CloseFd() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  reader_ = FrameReader{};
}

void RemoteTupleSpace::Abandon() { CloseFd(); }

void RemoteTupleSpace::BackoffSleep() {
  if (backoff_s_ <= 0) backoff_s_ = options_.reconnect_interval_s;
  std::this_thread::sleep_for(std::chrono::duration<double>(backoff_s_));
  backoff_s_ = std::min(backoff_s_ * 2, kBackoffCap);
}

bool RemoteTupleSpace::EnsureConnected() {
  if (fd_ >= 0) return true;
  // A structurally unusable endpoint (a retired scheme, or a path that
  // would truncate into the fixed 108-byte sun_path and connect to a
  // nonexistent socket forever) fails fast with a structured error instead
  // of burning the whole reconnect window.
  std::string path;
  if (!ParseEndpoint(options_.endpoint, &path, &last_error_)) {
    endpoint_bad_ = true;
    return false;
  }
  const int fd = ConnectSocket(path);
  if (fd < 0) return false;
  fd_ = fd;
  reader_ = FrameReader{};
  if (options_.pid < 0) {  // control connections skip HELLO
    backoff_s_ = 0;
    return true;
  }
  Request hello;
  hello.op = Op::kHello;
  hello.pid = options_.pid;
  hello.incarnation = options_.incarnation;
  std::string framed;
  AppendFrame(EncodeRequest(hello), &framed);
  Reply reply;
  bool wire_error = false;
  std::vector<iovec> iov{iovec{framed.data(), framed.size()}};
  if (!WritevAll(fd_, std::move(iov), &bytes_sent_, &transport_syscalls_) ||
      !ReadReply(&reply, &wire_error) || reply.status != WireStatus::kOk) {
    CloseFd();
    return false;
  }
  backoff_s_ = 0;
  return true;
}

bool RemoteTupleSpace::ReadReply(Reply* reply, bool* wire_error) {
  std::string payload;
  char buf[65536];
  for (;;) {
    const FrameReader::Result result = reader_.Next(&payload);
    if (result == FrameReader::Result::kFrame) break;
    if (result == FrameReader::Result::kError) {
      last_error_ = reader_.error();
      *wire_error = true;
      return false;
    }
    ++transport_syscalls_;
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Feed(buf, static_cast<size_t>(n));
      bytes_received_ += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    return false;  // EOF or error: the server went away
  }
  std::string error;
  if (!DecodeReply(payload, reply, &error)) {
    last_error_ = error;
    *wire_error = true;
    return false;
  }
  return true;
}

bool RemoteTupleSpace::QueueFrame(Request& request, Reply* capture) {
  // Sequence every request of a registered client exactly once: resends
  // reuse the same number, which is what the server dedups on.
  if (options_.pid >= 0 && request.seq == 0) request.seq = ++next_seq_;
  request.pid = options_.pid;
  request.incarnation = options_.incarnation;
  const std::string payload = EncodeRequest(request);
  if (payload.size() > kMaxFramePayload) {
    // The server's FrameReader would reject the frame as a corrupt stream;
    // fail the call up front with a structured error instead.
    last_error_ = "request exceeds the frame payload limit";
    if (capture == nullptr && deferred_error_ == CallStatus::kOk) {
      deferred_error_ = CallStatus::kWireError;
    }
    return false;
  }
  PendingFrame frame;
  AppendFrame(payload, &frame.framed);
  frame.capture = capture;
  queued_.push_back(std::move(frame));
  return true;
}

void RemoteTupleSpace::SealBatch(Reply* capture) {
  if (batch_.empty()) return;
  Request request;
  request.op = Op::kBatch;
  request.batch = std::move(batch_);
  batch_.clear();
  batch_bytes_ = 0;
  batch_frames_sent_ += 1;
  batched_ops_sent_ += request.batch.size();
  QueueFrame(request, capture);
}

void RemoteTupleSpace::DrainStatus() {
  if (!status_inflight_) return;
  status_inflight_ = false;
  if (fd_ < 0) return;
  // A status frame needs no reply delivery: kStatus is read-only and
  // re-begun by its poller, so discarding the reply (or losing it to a dead
  // connection) costs nothing.
  Reply reply;
  bool wire_error = false;
  if (!ReadReply(&reply, &wire_error)) CloseFd();
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::SyncFlush(
    Request* sync, Reply* sync_reply, std::vector<BatchItem>* items) {
  // A sticky deferred failure poisons the client: surface it before putting
  // anything else on the wire, so the caller unwinds before any later
  // frame can apply.
  if (deferred_error_ != CallStatus::kOk) {
    queued_.clear();
    batch_.clear();
    batch_bytes_ = 0;
    return deferred_error_;
  }
  DrainStatus();
  Reply batch_reply;
  SealBatch(items != nullptr ? &batch_reply : nullptr);
  Reply local;
  if (sync != nullptr) {
    if (!QueueFrame(*sync, sync_reply != nullptr ? sync_reply : &local)) {
      return CallStatus::kWireError;
    }
  }
  if (queued_.empty()) return CallStatus::kOk;

  CallStatus captured = CallStatus::kOk;
  // The reconnect window is anchored at the moment the transport fails, not
  // at call entry: a blocking in/rd legitimately sits parked server-side for
  // arbitrarily long before a server crash drops the connection, and must
  // still get its full window of reconnect attempts. Each failure of a live
  // connection re-arms the window — the server was reachable until then.
  const auto window = std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(options_.reconnect_timeout_s));
  bool deadline_armed = false;
  Clock::time_point deadline{};
  for (;;) {
    if (fd_ >= 0 || EnsureConnected()) {
      // One gathered write for every unreplied frame, then one reply per
      // frame in order. Replied frames leave the queue immediately, so a
      // mid-pipeline transport failure resends exactly the unreplied tail
      // (same seqs — the server's dedup window absorbs any overlap).
      std::vector<iovec> iov;
      iov.reserve(queued_.size());
      for (PendingFrame& f : queued_) {
        iov.push_back(iovec{f.framed.data(), f.framed.size()});
      }
      bool transport_ok =
          WritevAll(fd_, std::move(iov), &bytes_sent_, &transport_syscalls_);
      if (transport_ok) frames_sent_ += queued_.size();
      while (transport_ok && !queued_.empty()) {
        Reply reply;
        bool wire_error = false;
        if (!ReadReply(&reply, &wire_error)) {
          if (wire_error) {
            queued_.clear();
            return CallStatus::kWireError;
          }
          transport_ok = false;
          break;
        }
        PendingFrame frame = std::move(queued_.front());
        queued_.pop_front();
        if (frame.capture == nullptr) {
          // Deferred frame: fold a failure into the sticky error. A
          // kNotFound here is a valid miss (batched inp/rdp), not a fault.
          if (reply.status == WireStatus::kCancelled &&
              deferred_error_ == CallStatus::kOk) {
            deferred_error_ = CallStatus::kCancelled;
          } else if (reply.status == WireStatus::kError) {
            if (deferred_error_ == CallStatus::kOk) {
              deferred_error_ = CallStatus::kWireError;
            }
            last_error_ = reply.error;
          }
        } else {
          if (reply.status == WireStatus::kError) last_error_ = reply.error;
          const CallStatus status = MapWireStatus(reply.status);
          if (captured == CallStatus::kOk) captured = status;
          *frame.capture = std::move(reply);
        }
      }
      if (queued_.empty()) {
        ++rpc_round_trips_;
        if (items != nullptr) *items = std::move(batch_reply.items);
        if (deferred_error_ != CallStatus::kOk) return deferred_error_;
        return captured;
      }
      CloseFd();
      deadline = Clock::now() + window;
      deadline_armed = true;
    } else if (!deadline_armed) {
      deadline = Clock::now() + window;
      deadline_armed = true;
    }
    if (endpoint_bad_) {
      queued_.clear();
      return CallStatus::kWireError;
    }
    if (Clock::now() >= deadline) {
      queued_.clear();  // captures would dangle past this call
      if (last_error_.empty()) last_error_ = "tuple-space server unreachable";
      return CallStatus::kUnreachable;
    }
    BackoffSleep();
  }
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Call(Request& request,
                                                    Reply* reply) {
  return SyncFlush(&request, reply);
}

bool RemoteTupleSpace::Connect() {
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(
                             options_.reconnect_timeout_s));
  while (!EnsureConnected()) {
    if (endpoint_bad_ || Clock::now() >= deadline) return false;
    BackoffSleep();
  }
  return true;
}

void RemoteTupleSpace::Bye() {
  DrainStatus();
  if (!queued_.empty() || !batch_.empty()) SyncFlush(nullptr, nullptr);
  if (fd_ < 0) return;
  Request request;
  request.op = Op::kBye;
  request.pid = options_.pid;
  request.incarnation = options_.incarnation;
  std::string framed;
  AppendFrame(EncodeRequest(request), &framed);
  Reply reply;
  bool wire_error = false;
  std::vector<iovec> iov{iovec{framed.data(), framed.size()}};
  if (WritevAll(fd_, std::move(iov), &bytes_sent_, &transport_syscalls_)) {
    ReadReply(&reply, &wire_error);
  }
  CloseFd();
}

// --- write coalescing -----------------------------------------------------

RemoteTupleSpace::CallStatus RemoteTupleSpace::BatchOut(const Tuple& tuple) {
  BatchOp op;
  op.op = Op::kOut;
  op.tuple = tuple;
  batch_bytes_ += EstimateTupleBytes(tuple);
  batch_.push_back(std::move(op));
  if (batch_.size() >= kMaxBatchOps || batch_bytes_ >= kMaxBatchBytes) {
    SealBatch(nullptr);
  }
  if (queued_.size() >= kMaxQueuedFrames) return SyncFlush(nullptr, nullptr);
  return deferred_error_;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::BatchIn(const Template& tmpl,
                                                       bool remove) {
  BatchOp op;
  op.op = Op::kIn;
  op.flags = remove ? kInRemove : 0;  // never kInBlocking: batches can't park
  op.tmpl = tmpl;
  batch_bytes_ += 128;
  batch_.push_back(std::move(op));
  if (batch_.size() >= kMaxBatchOps || batch_bytes_ >= kMaxBatchBytes) {
    SealBatch(nullptr);
  }
  if (queued_.size() >= kMaxQueuedFrames) return SyncFlush(nullptr, nullptr);
  return deferred_error_;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Flush(
    std::vector<BatchItem>* items) {
  return SyncFlush(nullptr, nullptr, items);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::DeferXStart() {
  SealBatch(nullptr);
  Request request;
  request.op = Op::kXStart;
  QueueFrame(request, nullptr);
  if (queued_.size() >= kMaxQueuedFrames) return SyncFlush(nullptr, nullptr);
  return deferred_error_;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::DeferXCommit(
    const std::vector<Tuple>& outs, bool has_continuation,
    const Tuple& continuation) {
  SealBatch(nullptr);
  Request request;
  request.op = Op::kXCommit;
  request.outs = outs;
  request.has_continuation = has_continuation;
  request.continuation = continuation;
  QueueFrame(request, nullptr);
  if (queued_.size() >= kMaxQueuedFrames) return SyncFlush(nullptr, nullptr);
  return deferred_error_;
}

// --- pipelined control-plane calls ----------------------------------------

RemoteTupleSpace::CallStatus RemoteTupleSpace::BeginStatus() {
  DrainStatus();
  if (!queued_.empty() || !batch_.empty()) {
    const CallStatus status = SyncFlush(nullptr, nullptr);
    if (status != CallStatus::kOk) return status;
  }
  if (fd_ < 0 && !EnsureConnected()) return CallStatus::kUnreachable;
  Request request;
  request.op = Op::kStatus;
  request.pid = options_.pid;
  request.incarnation = options_.incarnation;
  std::string framed;
  AppendFrame(EncodeRequest(request), &framed);
  std::vector<iovec> iov{iovec{framed.data(), framed.size()}};
  if (!WritevAll(fd_, std::move(iov), &bytes_sent_, &transport_syscalls_)) {
    CloseFd();
    return CallStatus::kUnreachable;
  }
  ++frames_sent_;
  status_inflight_ = true;
  return CallStatus::kOk;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::PollStatus(Reply* reply) {
  if (!status_inflight_) {
    last_error_ = "no status poll in flight";
    return CallStatus::kWireError;
  }
  if (fd_ < 0) {
    status_inflight_ = false;
    return CallStatus::kUnreachable;
  }
  char buf[65536];
  for (;;) {
    std::string payload;
    const FrameReader::Result result = reader_.Next(&payload);
    if (result == FrameReader::Result::kFrame) {
      status_inflight_ = false;
      std::string error;
      if (!DecodeReply(payload, reply, &error)) {
        last_error_ = error;
        return CallStatus::kWireError;
      }
      ++rpc_round_trips_;
      return MapWireStatus(reply->status);
    }
    if (result == FrameReader::Result::kError) {
      status_inflight_ = false;
      last_error_ = reader_.error();
      return CallStatus::kWireError;
    }
    ++transport_syscalls_;
    pollfd pfd{fd_, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 0);
    if (ready == 0) return CallStatus::kPending;
    if (ready < 0) {
      if (errno == EINTR) continue;
      CloseFd();
      status_inflight_ = false;
      return CallStatus::kUnreachable;
    }
    ++transport_syscalls_;
    const ssize_t n = ::read(fd_, buf, sizeof(buf));
    if (n > 0) {
      reader_.Feed(buf, static_cast<size_t>(n));
      bytes_received_ += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && errno == EINTR) continue;
    CloseFd();
    status_inflight_ = false;
    return CallStatus::kUnreachable;
  }
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Harvest(
    Reply* stats, std::vector<Tuple>* tuples) {
  DrainStatus();
  Reply stats_local;
  Request stats_request;
  stats_request.op = Op::kStats;
  if (!QueueFrame(stats_request, stats != nullptr ? stats : &stats_local)) {
    return CallStatus::kWireError;
  }
  Request takeall;
  takeall.op = Op::kTakeAll;
  Reply reply;
  const CallStatus status = SyncFlush(&takeall, &reply);
  if (status == CallStatus::kOk && tuples != nullptr) {
    *tuples = std::move(reply.tuples);
  }
  return status;
}

// --- synchronous op wrappers ----------------------------------------------

RemoteTupleSpace::CallStatus RemoteTupleSpace::Out(const Tuple& tuple) {
  Request request;
  request.op = Op::kOut;
  request.tuple = tuple;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::In(const Template& tmpl,
                                                  bool blocking, bool remove,
                                                  Tuple* result,
                                                  std::vector<Tuple>* more) {
  Request request;
  request.op = Op::kIn;
  request.tmpl = tmpl;
  request.flags = static_cast<uint8_t>((remove ? kInRemove : 0) |
                                       (blocking ? kInBlocking : 0) |
                                       (more != nullptr ? kInDrain : 0));
  Reply reply;
  const CallStatus status = Call(request, &reply);
  if (status != CallStatus::kOk) return status;
  if (more == nullptr) {
    if (reply.has_tuple && result != nullptr) *result = std::move(reply.tuple);
    return status;
  }
  // A drain replies with its record's items, one per tuple, oldest first.
  if (reply.items.empty()) {
    last_error_ = "drain reply carries no tuple";
    return CallStatus::kWireError;
  }
  if (result != nullptr) *result = std::move(reply.items[0].tuple);
  for (size_t i = 1; i < reply.items.size(); ++i) {
    more->push_back(std::move(reply.items[i].tuple));
  }
  return status;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Count(const Template& tmpl,
                                                     uint64_t* count) {
  Request request;
  request.op = Op::kCount;
  request.tmpl = tmpl;
  Reply reply;
  const CallStatus status = Call(request, &reply);
  if (status == CallStatus::kOk && count != nullptr) *count = reply.count;
  return status;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::XStart() {
  Request request;
  request.op = Op::kXStart;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::XCommit(
    const std::vector<Tuple>& outs, bool has_continuation,
    const Tuple& continuation) {
  Request request;
  request.op = Op::kXCommit;
  request.outs = outs;
  request.has_continuation = has_continuation;
  request.continuation = continuation;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::XAbort() {
  Request request;
  request.op = Op::kXAbort;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::XRecover(Tuple* continuation) {
  Request request;
  request.op = Op::kXRecover;
  Reply reply;
  const CallStatus status = Call(request, &reply);
  if (status == CallStatus::kOk && reply.has_tuple &&
      continuation != nullptr) {
    *continuation = std::move(reply.tuple);
  }
  return status;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::TakeAll(
    std::vector<Tuple>* tuples) {
  Request request;
  request.op = Op::kTakeAll;
  Reply reply;
  const CallStatus status = Call(request, &reply);
  if (status == CallStatus::kOk && tuples != nullptr) {
    *tuples = std::move(reply.tuples);
  }
  return status;
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Stats(Reply* reply) {
  Request request;
  request.op = Op::kStats;
  return Call(request, reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Cancel() {
  Request request;
  request.op = Op::kCancel;
  Reply reply;
  return Call(request, &reply);
}

RemoteTupleSpace::CallStatus RemoteTupleSpace::Shutdown() {
  Request request;
  request.op = Op::kShutdown;
  Reply reply;
  return Call(request, &reply);
}

}  // namespace fpdm::plinda::net
