#include "plinda/net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "plinda/net/endpoint.h"

namespace fpdm::plinda::net {

namespace {

// v7 retired log kind 7: XRECOVER reads the continuation and never consumes
// it, so an older state dir, whose log may hold kind-7 records, is refused
// at its checkpoint header instead of being replayed up to the first of
// them (v6 dropped the multi-server tables, v5 the stripe vector). An older
// checkpoint fails the magic check and is refused, never misread.
constexpr char kSnapshotMagic[] = "fpdmsrv7:";

bool WriteAll(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    const ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return false;
    }
    off += static_cast<size_t>(w);
  }
  return true;
}

bool ReadFile(const std::string& path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

/// fsync()s a directory, so the renames and creates inside it survive a
/// machine crash.
bool SyncDir(const std::string& dir) {
  const int fd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (fd < 0) return false;
  const bool ok = ::fsync(fd) == 0;
  ::close(fd);
  return ok;
}

bool SetNonBlocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

/// Flushes buf[*sent..) to fd, advancing the cursor instead of front-erasing
/// (erase(0, n) memmoves the whole tail once per write — quadratic for a
/// multi-MiB buffer dribbling out through short writes). A fully flushed
/// buffer resets; a large flushed prefix is trimmed once so a slow receiver
/// doesn't pin already-sent megabytes. Returns false on a fatal error.
/// Counts write(2) calls / bytes into the transport counters.
bool FlushCursor(int fd, std::string* buf, size_t* sent, uint64_t* syscalls,
                 uint64_t* bytes) {
  while (*sent < buf->size()) {
    ++*syscalls;
    const ssize_t n = ::write(fd, buf->data() + *sent, buf->size() - *sent);
    if (n > 0) {
      *sent += static_cast<size_t>(n);
      *bytes += static_cast<uint64_t>(n);
      continue;
    }
    if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) break;
    if (n < 0 && errno == EINTR) continue;
    return false;
  }
  if (*sent == buf->size()) {
    buf->clear();
    *sent = 0;
  } else if (*sent > (1u << 20)) {
    buf->erase(0, *sent);
    *sent = 0;
  }
  return true;
}

/// Patches the [u32 len][u64 fnv1a] WAL record header into the first 12
/// bytes of `frame`, whose payload was encoded in place after them.
void PatchWalHeader(std::string* frame) {
  const std::string_view payload = std::string_view(*frame).substr(12);
  const uint32_t len = static_cast<uint32_t>(payload.size());
  const uint64_t hash = Fnv1a64(payload);
  auto* p = reinterpret_cast<unsigned char*>(frame->data());
  for (int i = 0; i < 4; ++i) p[i] = static_cast<unsigned char>(len >> (8 * i));
  for (int i = 0; i < 8; ++i) {
    p[4 + i] = static_cast<unsigned char>(hash >> (8 * i));
  }
}

void ApplySndbuf(int fd, int sndbuf_bytes) {
  if (sndbuf_bytes <= 0) return;
  ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &sndbuf_bytes, sizeof(sndbuf_bytes));
}

}  // namespace

SpaceServer::SpaceServer(SpaceServerOptions options)
    : options_(std::move(options)) {
  if (options_.checkpoint_every_ops < 1) options_.checkpoint_every_ops = 1;
  if (const char* env = std::getenv("FPDM_WAL_SYNC")) {
    options_.wal_sync = std::atoi(env) != 0;
  }
}

SpaceServer::~SpaceServer() {
  if (log_fd_ >= 0) ::close(log_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  for (auto& [fd, conn] : conns_) ::close(fd);
}

void SpaceServer::PublishTuple(Tuple tuple) {
  space_.Out(std::move(tuple));
  ++publish_epoch_;
}

// --- log + checkpoint -----------------------------------------------------

std::string SpaceServer::EncodeSnapshot() const {
  std::string payload;
  PutU64(epoch_, &payload);
  PutString(space_.Checkpoint(), &payload);
  PutU32(static_cast<uint32_t>(continuations_.size()), &payload);
  for (const auto& [pid, cont] : continuations_) {
    PutI32(pid, &payload);
    PutTuple(cont, &payload);
  }
  PutU32(static_cast<uint32_t>(clients_.size()), &payload);
  for (const auto& [pid, c] : clients_) {
    PutI32(pid, &payload);
    PutI32(c.incarnation, &payload);
    PutU64(c.last_seq, &payload);
    PutU32(static_cast<uint32_t>(c.replies.size()), &payload);
    for (const auto& [seq, reply] : c.replies) {
      PutU64(seq, &payload);
      PutString(reply, &payload);
    }
    PutU8(c.txn_open ? 1 : 0, &payload);
    PutU32(static_cast<uint32_t>(c.txn_ins.size()), &payload);
    for (const Tuple& t : c.txn_ins) PutTuple(t, &payload);
  }
  PutU64(publish_epoch_, &payload);
  PutU64(tuple_ops_, &payload);
  PutU64(commits_, &payload);
  PutU64(aborts_, &payload);
  PutU64(checkpoints_, &payload);
  PutU64(batch_frames_, &payload);
  PutU64(batched_ops_, &payload);

  std::string out = kSnapshotMagic;
  PutU32(static_cast<uint32_t>(payload.size()), &out);
  PutU64(Fnv1a64(payload), &out);
  out += payload;
  return out;
}

bool SpaceServer::LoadSnapshot(const std::string& path) {
  std::string raw;
  if (!ReadFile(path, &raw)) return false;
  const size_t magic_len = sizeof(kSnapshotMagic) - 1;
  if (raw.compare(0, magic_len, kSnapshotMagic) != 0) return false;
  ByteReader header{std::string_view(raw).substr(magic_len)};
  uint32_t payload_len = 0;
  uint64_t want_hash = 0;
  if (!header.TakeU32(&payload_len) || !header.TakeU64(&want_hash)) {
    return false;
  }
  const std::string_view payload =
      std::string_view(raw).substr(magic_len + header.pos);
  if (payload.size() != payload_len) return false;
  if (Fnv1a64(payload) != want_hash) return false;

  ByteReader r{payload};
  std::string ckpt;
  if (!r.TakeU64(&epoch_) || !r.TakeString(&ckpt) || !space_.Restore(ckpt)) {
    return false;
  }
  uint32_t n = 0;
  if (!r.TakeU32(&n)) return false;
  continuations_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    int32_t pid = 0;
    Tuple cont;
    if (!r.TakeI32(&pid) || !r.TakeTuple(&cont)) return false;
    continuations_.emplace(pid, std::move(cont));
  }
  if (!r.TakeU32(&n)) return false;
  clients_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    int32_t pid = 0;
    ClientState c;
    uint8_t txn_open = 0;
    uint32_t n_replies = 0;
    uint32_t n_ins = 0;
    if (!r.TakeI32(&pid) || !r.TakeI32(&c.incarnation) ||
        !r.TakeU64(&c.last_seq) || !r.TakeU32(&n_replies)) {
      return false;
    }
    if (n_replies > kDedupWindow) return false;
    for (uint32_t j = 0; j < n_replies; ++j) {
      uint64_t seq = 0;
      std::string reply;
      if (!r.TakeU64(&seq) || !r.TakeString(&reply)) return false;
      c.replies.emplace_back(seq, std::move(reply));
    }
    if (!r.TakeU8(&txn_open) || !r.TakeU32(&n_ins)) return false;
    c.txn_open = txn_open != 0;
    for (uint32_t j = 0; j < n_ins; ++j) {
      Tuple t;
      if (!r.TakeTuple(&t)) return false;
      c.txn_ins.push_back(std::move(t));
    }
    clients_.emplace(pid, std::move(c));
  }
  if (!r.TakeU64(&publish_epoch_) || !r.TakeU64(&tuple_ops_) ||
      !r.TakeU64(&commits_) || !r.TakeU64(&aborts_) ||
      !r.TakeU64(&checkpoints_) || !r.TakeU64(&batch_frames_) ||
      !r.TakeU64(&batched_ops_)) {
    return false;
  }
  return r.AtEnd();
}

bool SpaceServer::TakeCheckpoint() {
  // Callers run between requests, so every appended entry is applied and
  // the snapshot is a consistent cut.
  const uint64_t old_epoch = epoch_;
  epoch_ += 1;
  const std::string snapshot = EncodeSnapshot();
  const std::string ckpt_path = options_.state_dir + "/ckpt";
  const std::string tmp_path = ckpt_path + ".tmp";
  const int fd = ::open(tmp_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return false;
  bool ok = WriteAll(fd, snapshot.data(), snapshot.size());
  // wal_sync: the snapshot is on disk before the rename publishes it.
  if (ok && options_.wal_sync) ok = ::fdatasync(fd) == 0;
  ::close(fd);
  // The rename is the commit point: a crash before it leaves the previous
  // checkpoint + log pair intact; a crash after it recovers from the new
  // checkpoint and the (possibly missing, i.e. empty) new log.
  if (!ok || ::rename(tmp_path.c_str(), ckpt_path.c_str()) != 0) {
    epoch_ = old_epoch;
    return false;
  }
  // wal_sync: the rename, and then the new log's directory entry, reach the
  // disk before anything that depends on them is acknowledged. A failed
  // directory sync leaves log_fd_ closed, which callers treat like a log
  // that would not open: stop serving.
  if (log_fd_ >= 0) ::close(log_fd_);
  log_fd_ = -1;
  if (options_.wal_sync && !SyncDir(options_.state_dir)) return false;
  const std::string log_path =
      options_.state_dir + "/log." + std::to_string(epoch_);
  const int log_fd =
      ::open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (log_fd < 0) return false;
  if (options_.wal_sync && !SyncDir(options_.state_dir)) {
    ::close(log_fd);
    return false;
  }
  log_fd_ = log_fd;
  ::unlink(
      (options_.state_dir + "/log." + std::to_string(old_epoch)).c_str());
  wal_unsynced_bytes_ = 0;  // the synced snapshot holds those entries
  ops_since_checkpoint_ = 0;
  ++checkpoints_;
  return true;
}

bool SpaceServer::AppendLog(const LogEntry& entry) {
  if (log_fd_ < 0) {
    wal_failed_ = true;
    stop_ = true;
    return false;
  }
  // Fault injection: pretend the disk rejected this append. The entry is
  // never written, so nothing is acknowledged — the server just stops and
  // Serve() exits nonzero for the supervisor to report.
  if (options_.wal_fail_after > 0 &&
      ++wal_appends_attempted_ >= options_.wal_fail_after) {
    wal_failed_ = true;
    stop_ = true;
    return false;
  }
  // Log records carry a per-record checksum — [u32 len][u64 fnv1a][payload]
  // — so recovery can tell a torn or bit-rotted tail from a clean prefix
  // even when the mangled bytes still parse as a plausible length. The
  // payload is encoded straight after 12 reserved header bytes (patched
  // once the length is known) into a reused buffer, so the hot path
  // allocates nothing in steady state.
  std::string& frame = wal_frame_buf_;
  frame.assign(12, '\0');
  EncodeLogEntryInto(entry, &frame);
  // An oversized entry would be skipped (and truncated away) by ReplayLog,
  // silently un-doing an acknowledged op on recovery; requests are capped at
  // kMaxFramePayload and entries encode smaller, so this cannot fire for
  // request-derived entries — it guards the invariant, not a live path.
  if (frame.size() - 12 > kMaxFramePayload) {
    wal_failed_ = true;
    stop_ = true;
    return false;
  }
  PatchWalHeader(&frame);
  if (!WriteAll(log_fd_, frame.data(), frame.size())) {
    // A partial append is a torn tail: recovery truncates it away, so the
    // entry is NOT durable. Stop serving instead of acknowledging it.
    wal_failed_ = true;
    stop_ = true;
    return false;
  }
  if (options_.wal_sync) {
    wal_unsynced_bytes_ += frame.size();  // the pass's SyncWal covers it
  } else {
    ++wal_group_commits_;  // the write alone is the durable group
    wal_synced_bytes_ += frame.size();
  }
  // Deliberately no checkpoint here: callers apply the entry right after
  // appending it, and a checkpoint taken in between would snapshot the
  // pre-apply state while unlinking the log that holds the entry — losing
  // it from durable state. The serve loop checkpoints once every entry
  // appended so far has been applied.
  ++ops_since_checkpoint_;
  return true;
}

bool SpaceServer::SyncWal() {
  if (wal_failed_) return false;
  if (wal_unsynced_bytes_ == 0) return true;
  if (::fdatasync(log_fd_) != 0) {
    wal_failed_ = true;
    stop_ = true;
    return false;
  }
  ++wal_group_commits_;
  wal_synced_bytes_ += wal_unsynced_bytes_;
  wal_unsynced_bytes_ = 0;
  return true;
}

bool SpaceServer::ReplayLog(const std::string& path) {
  std::string raw;
  if (!ReadFile(path, &raw)) return true;  // missing log = empty log
  size_t off = 0;
  while (off + 12 <= raw.size()) {
    const auto* p = reinterpret_cast<const unsigned char*>(raw.data() + off);
    const uint32_t len = static_cast<uint32_t>(p[0]) |
                         (static_cast<uint32_t>(p[1]) << 8) |
                         (static_cast<uint32_t>(p[2]) << 16) |
                         (static_cast<uint32_t>(p[3]) << 24);
    uint64_t want_hash = 0;
    for (int i = 0; i < 8; ++i) {
      want_hash |= static_cast<uint64_t>(p[4 + i]) << (8 * i);
    }
    if (len > kMaxFramePayload || off + 12 + len > raw.size()) break;
    const std::string_view payload =
        std::string_view(raw).substr(off + 12, len);
    // A checksum mismatch is a torn or corrupted tail. Only the FINAL
    // record can legitimately be damaged (apply/ack strictly follows a
    // successful durable append), so stopping here discards nothing that
    // was ever acknowledged.
    if (Fnv1a64(payload) != want_hash) break;
    LogEntry entry;
    std::string error;
    if (!DecodeLogEntry(payload, &entry, &error)) break;
    ApplyEntry(entry);
    ++ops_replayed_;
    off += 12 + len;
  }
  // A torn tail (the crash interrupted an append) is expected: truncate to
  // the last complete entry so the next epoch starts from a clean prefix.
  if (off < raw.size()) ::truncate(path.c_str(), static_cast<off_t>(off));
  return true;
}

bool SpaceServer::Recover() {
  ::mkdir(options_.state_dir.c_str(), 0755);
  const std::string ckpt_path = options_.state_dir + "/ckpt";
  struct stat st;
  if (::stat(ckpt_path.c_str(), &st) == 0) {
    if (!LoadSnapshot(ckpt_path)) return false;  // corrupt checkpoint: fatal
  }
  ReplayLog(options_.state_dir + "/log." + std::to_string(epoch_));
  // Collapse the replayed log into a fresh checkpoint so every boot starts
  // with an empty log and a bounded-size on-disk state.
  return TakeCheckpoint();
}

// --- mutation application (live + replay) ---------------------------------

void SpaceServer::CacheReply(ClientState& client, uint64_t seq,
                             const std::string& encoded) {
  if (seq > client.last_seq) client.last_seq = seq;
  client.replies.emplace_back(seq, encoded);
  while (client.replies.size() > kDedupWindow) client.replies.pop_front();
}

Reply SpaceServer::BatchReplyFor(const LogEntry& entry) {
  Reply reply;
  reply.items.reserve(entry.effects.size());
  for (const BatchEffect& effect : entry.effects) {
    BatchItem item;
    switch (effect.kind) {
      case BatchEffectKind::kPublished:
        break;  // kOk, no tuple
      case BatchEffectKind::kTook:
      case BatchEffectKind::kRead:
        item.has_tuple = true;
        item.tuple = effect.tuple;
        break;
      case BatchEffectKind::kMiss:
        item.status = WireStatus::kNotFound;
        break;
    }
    reply.items.push_back(std::move(item));
  }
  ++batch_frames_;
  batched_ops_ += entry.effects.size();
  return reply;
}

std::string SpaceServer::ApplyEntry(const LogEntry& entry) {
  Reply reply;
  switch (entry.kind) {
    case LogKind::kHello: {
      ClientState& c = clients_[entry.pid];
      if (c.txn_open) {
        for (const Tuple& t : c.txn_ins) PublishTuple(t);
        ++aborts_;
      }
      c = ClientState{};
      c.incarnation = entry.incarnation;
      break;
    }
    case LogKind::kOut:
      PublishTuple(entry.tuple);
      ++tuple_ops_;
      break;
    case LogKind::kIn: {
      space_.TryIn(ExactTemplate(entry.tuple), nullptr);
      ++tuple_ops_;
      if (entry.in_txn && entry.pid >= 0) {
        clients_[entry.pid].txn_ins.push_back(entry.tuple);
      }
      reply.has_tuple = true;
      reply.tuple = entry.tuple;
      break;
    }
    case LogKind::kXStart: {
      ClientState& c = clients_[entry.pid];
      c.txn_open = true;
      c.txn_ins.clear();
      break;
    }
    case LogKind::kCommit: {
      for (const Tuple& t : entry.outs) {
        PublishTuple(t);
        ++tuple_ops_;
      }
      if (entry.has_continuation) {
        continuations_[entry.pid] = entry.continuation;
      }
      ClientState& c = clients_[entry.pid];
      c.txn_open = false;
      c.txn_ins.clear();
      ++commits_;
      break;
    }
    case LogKind::kAbort: {
      ClientState& c = clients_[entry.pid];
      for (const Tuple& t : c.txn_ins) PublishTuple(t);
      c.txn_open = false;
      c.txn_ins.clear();
      ++aborts_;
      break;
    }
    case LogKind::kBatch: {
      // Replay of a whole batch frame or drain: re-apply the resolved
      // effects in order. The live path already mutated the space while
      // resolving (HandleBatch, Drain), so only replay reaches this case.
      for (const BatchEffect& effect : entry.effects) {
        switch (effect.kind) {
          case BatchEffectKind::kPublished:
            PublishTuple(effect.tuple);
            break;
          case BatchEffectKind::kTook: {
            space_.TryIn(ExactTemplate(effect.tuple), nullptr);
            if (effect.in_txn && entry.pid >= 0) {
              clients_[entry.pid].txn_ins.push_back(effect.tuple);
            }
            break;
          }
          case BatchEffectKind::kRead:
          case BatchEffectKind::kMiss:
            break;
        }
        ++tuple_ops_;
      }
      reply = BatchReplyFor(entry);
      break;
    }
  }
  const std::string encoded = EncodeReply(reply);
  if (entry.seq != 0 && entry.pid >= 0) {
    CacheReply(clients_[entry.pid], entry.seq, encoded);
  }
  return encoded;
}

// --- request handling -----------------------------------------------------

void SpaceServer::SendEncoded(Conn& conn, const std::string& encoded_reply) {
  // Never emit a frame the peer's FrameReader would reject as corrupt: an
  // oversized reply becomes a structured error the client can surface.
  const std::string* payload = &encoded_reply;
  std::string fallback;
  if (encoded_reply.size() > kMaxFramePayload) {
    Reply reply;
    reply.status = WireStatus::kError;
    reply.error = "reply exceeds the frame payload limit";
    fallback = EncodeReply(reply);
    payload = &fallback;
  }
  AppendFrame(*payload, &conn.outbuf);
  flush_request_.insert(conn.fd);
}

void SpaceServer::SendReply(Conn& conn, const Reply& reply) {
  SendEncoded(conn, EncodeReply(reply));
}

void SpaceServer::SendError(Conn& conn, const std::string& detail) {
  Reply reply;
  reply.status = WireStatus::kError;
  reply.error = detail;
  SendReply(conn, reply);
}

bool SpaceServer::TxnOpen(int32_t pid) const {
  if (pid < 0) return false;
  auto client = clients_.find(pid);
  return client != clients_.end() && client->second.txn_open;
}

bool SpaceServer::LogBatch(Conn& conn, const LogEntry& entry) {
  if (!AppendLog(entry)) return false;
  const std::string encoded = EncodeReply(BatchReplyFor(entry));
  if (entry.seq != 0 && entry.pid >= 0) {
    CacheReply(clients_[entry.pid], entry.seq, encoded);
  }
  SendEncoded(conn, encoded);
  return true;
}

bool SpaceServer::Drain(Conn& conn, int32_t pid, uint64_t seq,
                        const Template& tmpl) {
  // Room for the items in one reply frame, past the reply's fixed fields
  // (under 200 bytes). The first match always fits: its out fit a request.
  constexpr size_t kReplyFixedBytes = 4096;
  size_t room = kMaxFramePayload - kReplyFixedBytes;
  const bool in_txn = TxnOpen(pid);
  LogEntry entry;
  entry.kind = LogKind::kBatch;
  entry.pid = pid;
  entry.incarnation = conn.incarnation;
  entry.seq = seq;
  // Removes while resolving and appends after, as HandleBatch does: nothing
  // runs in between, and a failed append stops the server unacknowledged.
  Tuple t;
  while (space_.TryRd(tmpl, &t)) {
    const size_t bytes = 2 + EstimateTupleBytes(t);
    if (!entry.effects.empty() && bytes > room) break;
    room -= std::min(bytes, room);
    space_.TryIn(tmpl, nullptr);
    if (in_txn) clients_[pid].txn_ins.push_back(t);
    ++tuple_ops_;
    entry.effects.push_back(
        BatchEffect{BatchEffectKind::kTook, in_txn, std::move(t)});
  }
  return LogBatch(conn, entry);
}

void SpaceServer::SatisfyWaiters() {
  for (auto it = waiters_.begin(); it != waiters_.end();) {
    Tuple t;
    if (!space_.TryRd(it->tmpl, &t)) {
      ++it;
      continue;
    }
    auto cit = conns_.find(it->fd);
    if (cit == conns_.end()) {
      it = waiters_.erase(it);  // connection died while parked
      continue;
    }
    Conn& conn = *cit->second;
    if (it->drain) {
      // WAL lost: leave the waiter parked.
      if (!Drain(conn, it->pid, it->seq, it->tmpl)) return;
    } else if (it->remove) {
      LogEntry entry;
      entry.kind = LogKind::kIn;
      entry.pid = it->pid;
      entry.incarnation = conn.incarnation;
      entry.seq = it->seq;
      entry.in_txn = TxnOpen(it->pid);
      entry.tuple = t;
      if (!AppendLog(entry)) return;  // WAL lost: leave the waiter parked
      SendEncoded(conn, ApplyEntry(entry));
    } else {
      Reply reply;
      reply.has_tuple = true;
      reply.tuple = t;
      ++tuple_ops_;
      SendReply(conn, reply);
    }
    it = waiters_.erase(it);
  }
}

void SpaceServer::ParkWaiter(Conn& conn, const Request& request) {
  Waiter w;
  w.fd = conn.fd;
  w.pid = conn.pid;
  w.seq = request.seq;
  w.tmpl = request.tmpl;
  w.remove = (request.flags & kInRemove) != 0;
  w.drain = (request.flags & kInDrain) != 0;
  waiters_.push_back(std::move(w));
}

void SpaceServer::HandleHello(Conn& conn, const Request& request) {
  conn.pid = request.pid;
  conn.incarnation = request.incarnation;
  if (request.pid < 0) {  // control connection: nothing to register
    SendReply(conn, Reply{});
    return;
  }
  auto it = clients_.find(request.pid);
  if (it != clients_.end() &&
      request.incarnation < it->second.incarnation) {
    SendError(conn, "stale incarnation");
    conn.close_after_flush = true;
    return;
  }
  if (it != clients_.end() &&
      request.incarnation == it->second.incarnation) {
    // Reconnect of a live incarnation (server restarted or the connection
    // dropped): keep the dedup and transaction state exactly as it was.
    SendReply(conn, Reply{});
    return;
  }
  // New client or a respawned incarnation: crash-abort whatever the old
  // incarnation left open and reset its dedup window.
  LogEntry entry;
  entry.kind = LogKind::kHello;
  entry.pid = request.pid;
  entry.incarnation = request.incarnation;
  if (!AppendLog(entry)) return;
  SendEncoded(conn, ApplyEntry(entry));
  SatisfyWaiters();
}

void SpaceServer::HandleIn(Conn& conn, const Request& request) {
  const bool remove = (request.flags & kInRemove) != 0;
  const bool blocking = (request.flags & kInBlocking) != 0;
  const bool drain = (request.flags & kInDrain) != 0;
  if (drain && !(remove && blocking)) {
    SendError(conn, "in: a drain must be a blocking, removing in");
    return;
  }
  Tuple t;
  if (space_.TryRd(request.tmpl, &t)) {
    if (drain) {
      Drain(conn, conn.pid, request.seq, request.tmpl);
    } else if (remove) {
      LogEntry entry;
      entry.kind = LogKind::kIn;
      entry.pid = conn.pid;
      entry.incarnation = conn.incarnation;
      entry.seq = request.seq;
      entry.in_txn = TxnOpen(conn.pid);
      entry.tuple = std::move(t);
      if (!AppendLog(entry)) return;
      SendEncoded(conn, ApplyEntry(entry));
    } else {
      Reply reply;
      reply.has_tuple = true;
      reply.tuple = std::move(t);
      ++tuple_ops_;
      SendReply(conn, reply);
    }
    return;
  }
  if (blocking) {
    ParkWaiter(conn, request);  // no reply until a match appears
    return;
  }
  ++tuple_ops_;
  Reply reply;
  reply.status = WireStatus::kNotFound;
  SendReply(conn, reply);
}

void SpaceServer::HandleBatch(Conn& conn, const Request& request) {
  // Validate before touching anything: the batch is all-or-nothing, so a
  // malformed sub-op must reject the whole frame with no partial effects.
  // (DecodeRequest already rejects unknown sub-opcodes; blocking is a
  // semantic check — a parked sub-op would need a second WAL record under
  // the same seq, breaking the one-frame/one-record atomicity argument. A
  // drain only ever rides a blocking in.)
  for (const BatchOp& op : request.batch) {
    if (op.op == Op::kIn && (op.flags & (kInBlocking | kInDrain)) != 0) {
      SendError(conn, "batch: blocking or drain sub-op not allowed");
      return;
    }
  }
  const bool in_txn = TxnOpen(conn.pid);
  // Resolve every sub-op against the space, mutating as we go (later
  // sub-ops see the effects of earlier ones in the same batch) and
  // recording each resolved effect. The WAL record is appended AFTER
  // resolution — the one place we invert the log-before-apply discipline —
  // which is safe because no other request runs between resolve and append,
  // so nothing observes the intermediate state; no ack is sent unless the
  // append succeeds, and a crash in between loses the in-memory mutation
  // together with the log record, so the client's retry re-applies from
  // scratch.
  LogEntry entry;
  entry.kind = LogKind::kBatch;
  entry.pid = conn.pid;
  entry.incarnation = conn.incarnation;
  entry.seq = request.seq;
  entry.effects.reserve(request.batch.size());
  bool published = false;
  for (const BatchOp& op : request.batch) {
    BatchEffect effect;
    if (op.op == Op::kOut) {
      effect.kind = BatchEffectKind::kPublished;
      effect.tuple = op.tuple;
      PublishTuple(op.tuple);
      published = true;
    } else {
      const bool remove = (op.flags & kInRemove) != 0;
      Tuple t;
      if (remove ? space_.TryIn(op.tmpl, &t) : space_.TryRd(op.tmpl, &t)) {
        effect.kind = remove ? BatchEffectKind::kTook : BatchEffectKind::kRead;
        effect.in_txn = remove && in_txn;
        effect.tuple = std::move(t);
        if (effect.in_txn && conn.pid >= 0) {
          clients_[conn.pid].txn_ins.push_back(effect.tuple);
        }
      } else {
        effect.kind = BatchEffectKind::kMiss;
      }
    }
    ++tuple_ops_;
    entry.effects.push_back(std::move(effect));
  }
  if (LogBatch(conn, entry) && published) SatisfyWaiters();
}

void SpaceServer::HandleFrame(Conn& conn, std::string_view payload) {
  Request request;
  std::string error;
  if (!DecodeRequest(payload, &request, &error)) {
    SendError(conn, error);
    conn.close_after_flush = true;
    return;
  }
  if (request.op == Op::kHello) {
    HandleHello(conn, request);
    return;
  }
  if (cancelled_ && conn.pid >= 0 && request.op != Op::kBye) {
    Reply reply;
    reply.status = WireStatus::kCancelled;
    SendReply(conn, reply);
    return;
  }
  // Exactly-once: a retried mutating request (same pid, same seq) gets the
  // cached reply of its first execution instead of a second application.
  // The scan covers the whole dedup window because a pipelined client
  // resends every unreplied frame after a reconnect, not just the newest.
  if (conn.pid >= 0 && request.seq != 0) {
    auto it = clients_.find(conn.pid);
    if (it != clients_.end()) {
      for (const auto& [seq, cached] : it->second.replies) {
        if (seq == request.seq) {
          SendEncoded(conn, cached);
          return;
        }
      }
      if (request.seq <= it->second.last_seq) {
        SendError(conn, "stale sequence number");
        return;
      }
    }
  }
  switch (request.op) {
    case Op::kOut: {
      LogEntry entry;
      entry.kind = LogKind::kOut;
      entry.pid = conn.pid;
      entry.incarnation = conn.incarnation;
      entry.seq = request.seq;
      entry.tuple = request.tuple;
      if (!AppendLog(entry)) break;
      SendEncoded(conn, ApplyEntry(entry));
      SatisfyWaiters();
      break;
    }
    case Op::kIn:
      HandleIn(conn, request);
      break;
    case Op::kBatch:
      HandleBatch(conn, request);
      break;
    case Op::kXStart: {
      if (conn.pid < 0) {
        SendError(conn, "xstart requires a registered client");
        break;
      }
      LogEntry entry;
      entry.kind = LogKind::kXStart;
      entry.pid = conn.pid;
      entry.incarnation = conn.incarnation;
      entry.seq = request.seq;
      if (!AppendLog(entry)) break;
      SendEncoded(conn, ApplyEntry(entry));
      break;
    }
    case Op::kXCommit: {
      if (conn.pid < 0) {
        SendError(conn, "xcommit requires a registered client");
        break;
      }
      LogEntry entry;
      entry.kind = LogKind::kCommit;
      entry.pid = conn.pid;
      entry.incarnation = conn.incarnation;
      entry.seq = request.seq;
      entry.outs = request.outs;
      entry.has_continuation = request.has_continuation;
      entry.continuation = request.continuation;
      if (!AppendLog(entry)) break;
      SendEncoded(conn, ApplyEntry(entry));
      SatisfyWaiters();
      break;
    }
    case Op::kXAbort: {
      if (conn.pid < 0) {
        SendError(conn, "xabort requires a registered client");
        break;
      }
      LogEntry entry;
      entry.kind = LogKind::kAbort;
      entry.pid = conn.pid;
      entry.incarnation = conn.incarnation;
      entry.seq = request.seq;
      if (!AppendLog(entry)) break;
      SendEncoded(conn, ApplyEntry(entry));
      SatisfyWaiters();
      break;
    }
    case Op::kXRecover: {
      if (conn.pid < 0) {
        SendError(conn, "xrecover requires a registered client");
        break;
      }
      // An unlogged read: every incarnation, however often it is killed
      // before its next commit, resumes from the last committed
      // continuation.
      Reply reply;
      auto it = continuations_.find(conn.pid);
      if (it == continuations_.end()) {
        reply.status = WireStatus::kNotFound;
      } else {
        reply.has_tuple = true;
        reply.tuple = it->second;
      }
      SendReply(conn, reply);
      break;
    }
    case Op::kCount: {
      Reply reply;
      reply.count = space_.CountMatches(request.tmpl);
      ++tuple_ops_;
      SendReply(conn, reply);
      break;
    }
    case Op::kTakeAll: {
      Reply reply;
      reply.tuples = space_.TakeAllInOrder();
      const std::string encoded = EncodeReply(reply);
      if (encoded.size() > kMaxFramePayload) {
        // The peer's FrameReader would reject the reply as corrupt. Put the
        // tuples back (FIFO order is preserved: the drain emitted them
        // oldest-first) and fail with a structured error instead of durably
        // draining a harvest nobody can receive.
        for (Tuple& t : reply.tuples) PublishTuple(std::move(t));
        SendError(conn, "takeall reply exceeds the frame payload limit");
        break;
      }
      // The drain writes no log entry, so force a checkpoint before the
      // ack: recovery must not resurrect harvested tuples. See the kTakeAll
      // note in wire.h for the retry semantics around a crash here.
      if (!TakeCheckpoint()) {
        if (log_fd_ < 0) {
          // The checkpoint committed (rename succeeded) but the fresh log
          // could not be opened: the drain IS durable, so deliver it, then
          // stop serving rather than silently drop future mutations.
          SendEncoded(conn, encoded);
          wal_failed_ = true;
          stop_ = true;
          break;
        }
        // Failed before the rename: durable state still holds the tuples;
        // restore the in-memory space to match and report the failure.
        for (Tuple& t : reply.tuples) PublishTuple(std::move(t));
        SendError(conn, "takeall checkpoint failed");
        break;
      }
      SendEncoded(conn, encoded);
      break;
    }
    case Op::kStats: {
      Reply reply;
      reply.tuple_ops = tuple_ops_;
      reply.commits = commits_;
      reply.aborts = aborts_;
      reply.checkpoints = checkpoints_;
      reply.ops_replayed = ops_replayed_;
      reply.batch_frames = batch_frames_;
      reply.batched_ops = batched_ops_;
      reply.publish_epoch = publish_epoch_;
      reply.wal_group_commits = wal_group_commits_;
      reply.wal_synced_bytes = wal_synced_bytes_;
      reply.transport_syscalls = transport_syscalls_;
      reply.transport_bytes = transport_bytes_;
      SendReply(conn, reply);
      break;
    }
    case Op::kStatus: {
      Reply reply;
      reply.publish_epoch = publish_epoch_;
      for (const Waiter& w : waiters_) {
        ParkedWaiter parked;
        parked.pid = w.pid;
        parked.remove = w.remove;
        parked.tmpl_text = ToString(w.tmpl);
        reply.parked.push_back(std::move(parked));
      }
      SendReply(conn, reply);
      break;
    }
    case Op::kCancel: {
      cancelled_ = true;
      Reply cancelled;
      cancelled.status = WireStatus::kCancelled;
      const std::string encoded = EncodeReply(cancelled);
      for (const Waiter& w : waiters_) {
        auto cit = conns_.find(w.fd);
        if (cit != conns_.end()) SendEncoded(*cit->second, encoded);
      }
      waiters_.clear();
      SendReply(conn, Reply{});
      break;
    }
    case Op::kShutdown:
      SendReply(conn, Reply{});
      stop_ = true;
      break;
    case Op::kBye:
      conn.saw_bye = true;
      SendReply(conn, Reply{});
      conn.close_after_flush = true;
      break;
    case Op::kHello:
      break;  // handled above
  }
}

void SpaceServer::DropConns(const std::vector<int>& fds) {
  // Phase 1: detach every dying connection — erase it from conns_, purge
  // its parked waiters, close the socket — BEFORE any crash-abort runs.
  // Tuples republished by an abort must only ever be matched by waiters of
  // live connections; a dead client's waiter consuming one would log a
  // durable removal whose reply goes to a closed socket, losing the tuple
  // to every live process.
  std::vector<std::unique_ptr<Conn>> dropped;
  for (int fd : fds) {
    auto it = conns_.find(fd);
    if (it == conns_.end()) continue;
    dropped.push_back(std::move(it->second));
    conns_.erase(it);
    waiters_.remove_if([fd](const Waiter& w) { return w.fd == fd; });
    ::close(fd);
  }
  // Phase 2: a vanished client (no BYE) with an open transaction is a
  // crash: roll the transaction back so its tuples become visible again —
  // unless a newer incarnation already registered and reset the state.
  for (const auto& conn_ptr : dropped) {
    const Conn& conn = *conn_ptr;
    if (conn.saw_bye || conn.pid < 0) continue;
    auto client = clients_.find(conn.pid);
    if (client == clients_.end() ||
        client->second.incarnation != conn.incarnation ||
        !client->second.txn_open) {
      continue;
    }
    LogEntry entry;
    entry.kind = LogKind::kAbort;
    entry.pid = conn.pid;
    entry.incarnation = conn.incarnation;
    entry.seq = 0;  // server-initiated
    if (!AppendLog(entry)) return;
    ApplyEntry(entry);
    SatisfyWaiters();
  }
}

// --- connection I/O --------------------------------------------------------

void SpaceServer::UpdateConnEvents(Conn& conn) {
  const bool want_out = conn.outbuf_sent < conn.outbuf.size();
  if (want_out == conn.epoll_out || epoll_fd_ < 0) return;
  epoll_event ev{};
  ev.events = want_out ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.epoll_out = want_out;
}

// --- the serve loop -------------------------------------------------------

int SpaceServer::Serve() {
  ::signal(SIGPIPE, SIG_IGN);
  if (!Recover()) return 1;

  {
    // An unusable endpoint (a retired scheme, or a path overflowing the
    // fixed 108-byte sun_path field: binding a silently truncated path
    // would serve on a socket no client ever connects to) fails loudly
    // with a distinct exit code. Transient bind/listen failures stay exit 1.
    std::string error;
    if (!ParseEndpoint(options_.endpoint, &socket_path_, &error)) {
      std::fprintf(stderr, "fpdm server: %s\n", error.c_str());
      return 4;
    }
    listen_fd_ = ListenSocket(socket_path_, &error);
    if (listen_fd_ < 0) {
      std::fprintf(stderr, "fpdm server: %s\n", error.c_str());
      return 1;
    }
    if (!SetNonBlocking(listen_fd_)) return 1;
  }

  epoll_fd_ = ::epoll_create1(0);
  if (epoll_fd_ < 0) return 1;
  {
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listen_fd_;
    if (::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, listen_fd_, &ev) != 0) return 1;
  }

  std::vector<epoll_event> events(256);
  std::vector<int> read_ready;
  std::vector<int> to_drop;  // EOF / socket error, or closing and flushed
  std::set<int> closing;     // close_after_flush seen: drop once flushed
  std::set<int> flush;
  while (!stop_) {
    // Zero timeout while replies wait: one queued after the last flush
    // phase (a parked in woken by a crash-abort in the drop phase) must not
    // sit out the idle tick.
    const int timeout_ms = flush_request_.empty() ? 200 : 0;
    const int nev = ::epoll_wait(epoll_fd_, events.data(),
                                 static_cast<int>(events.size()), timeout_ms);
    if (nev < 0 && errno != EINTR) break;
    bool accept_ready = false;
    read_ready.clear();
    to_drop.clear();
    for (int i = 0; i < nev; ++i) {
      const int fd = events[i].data.fd;
      const uint32_t ev = events[i].events;
      if (fd == listen_fd_) {
        accept_ready = true;
        continue;
      }
      if (conns_.count(fd) != 0) {
        if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          read_ready.push_back(fd);
        }
        if ((ev & EPOLLOUT) != 0) flush_request_.insert(fd);
      }
    }

    if (accept_ready) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        SetNonBlocking(fd);
        ApplySndbuf(fd, options_.sndbuf_bytes);
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
        conns_.emplace(fd, std::move(conn));
      }
    }

    // Read phase: read(2) lands directly in the reader's buffer
    // (FrameReader::WriteBuffer), and every complete frame is handled in
    // place, in arrival order.
    for (int fd : read_ready) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      bool dead = false;
      for (;;) {
        char* dst = conn.reader.WriteBuffer(65536);
        const ssize_t n = ::read(fd, dst, 65536);
        ++transport_syscalls_;
        if (n > 0) {
          conn.reader.CommitWrite(static_cast<size_t>(n));
          transport_bytes_ += static_cast<uint64_t>(n);
          continue;
        }
        conn.reader.CommitWrite(0);
        if (n == 0) dead = true;
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR) {
          dead = true;
        }
        break;
      }
      std::string_view payload;
      for (;;) {
        const FrameReader::Result result = conn.reader.NextView(&payload);
        if (result == FrameReader::Result::kFrame) {
          HandleFrame(conn, payload);
          if (stop_) break;
          continue;
        }
        if (result == FrameReader::Result::kError) {
          SendError(conn, conn.reader.error());
          dead = true;  // the byte stream is unrecoverable
        }
        break;
      }
      if (dead) to_drop.push_back(fd);
    }

    // Group commit: one fdatasync covers every entry this pass appended,
    // before any of its replies leave. If it fails they are dropped unsent.
    if (options_.wal_sync && !SyncWal()) break;

    // Flush phase: replies queued this pass, and sockets with a partial
    // flush pending that became writable.
    flush.swap(flush_request_);
    for (int fd : flush) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      if (!FlushCursor(fd, &conn.outbuf, &conn.outbuf_sent,
                       &transport_syscalls_, &transport_bytes_)) {
        to_drop.push_back(fd);
        continue;
      }
      UpdateConnEvents(conn);
      if (conn.close_after_flush) closing.insert(fd);
    }
    flush.clear();

    // Drop phase: dead connections, and closing ones whose last reply is
    // out. A crash-abort here can wake a parked in, whose reply then
    // leaves on the next pass.
    for (int fd : closing) {
      auto it = conns_.find(fd);
      if (it != conns_.end() && it->second->outbuf.empty()) {
        to_drop.push_back(fd);
      }
    }
    DropConns(to_drop);
    // Forget dropped fds: the kernel recycles fd numbers, so a stale entry
    // could condemn an unrelated new connection.
    for (auto it = closing.begin(); it != closing.end();) {
      it = conns_.count(*it) == 0 ? closing.erase(it) : std::next(it);
    }

    // Checkpoint at a quiescent point: every logged entry is applied, so
    // the snapshot and the fresh log form a consistent cut.
    if (!stop_ && ops_since_checkpoint_ >= options_.checkpoint_every_ops &&
        !TakeCheckpoint() && log_fd_ < 0) {
      // The rename committed but the fresh log would not open: any
      // further mutation would be acknowledged yet lost from durable
      // state. Stop serving. (A failure before the rename keeps the old
      // checkpoint + log pair and the open log fd, so it is safe to
      // retry next pass.)
      wal_failed_ = true;
      stop_ = true;
    }
  }

  // Best-effort blocking flush of pending replies (the SHUTDOWN ack). With
  // wal_sync they leave only after a last group commit, and not at all once
  // durability is lost, so nothing unsynced is ever acknowledged.
  const bool release = !options_.wal_sync || SyncWal();
  for (auto& [fd, conn] : conns_) {
    if (release && conn->outbuf_sent < conn->outbuf.size()) {
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      WriteAll(fd, conn->outbuf.data() + conn->outbuf_sent,
               conn->outbuf.size() - conn->outbuf_sent);
    }
    ::close(fd);
  }
  conns_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  ::unlink(socket_path_.c_str());
  return wal_failed_ ? 1 : 0;
}

}  // namespace fpdm::plinda::net
