#include "plinda/net/server.h"

#include <errno.h>
#include <fcntl.h>
#include <sys/epoll.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <sys/un.h>
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

// v4: 2PC state — typed peer messages, coordinator/participant transaction
// tables, decision outcomes, txn counters (v3 added continuation stamps +
// per-peer forward queues for multi-server placement).
constexpr char kSnapshotMagic[] = "fpdmsrv4:";

/// An all-actuals template matching exactly one tuple value. Replaying an
/// IN log entry removes the oldest tuple equal to the logged one, which is
/// exactly the tuple the live path removed (the oldest equal duplicate is
/// also the oldest match of the original template).
Template ExactTemplate(const Tuple& tuple) {
  Template tmpl;
  tmpl.fields.reserve(tuple.fields.size());
  for (const Value& v : tuple.fields) {
    tmpl.fields.push_back(TemplateField::Actual(v));
  }
  return tmpl;
}

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

/// Trims the flushed prefix of an outbuf exactly like FlushCursor does (the
/// shm flush path advances the cursor by ring writes instead of write(2)).
void TrimFlushed(std::string* buf, size_t* sent) {
  if (*sent == buf->size()) {
    buf->clear();
    *sent = 0;
  } else if (*sent > (1u << 20)) {
    buf->erase(0, *sent);
    *sent = 0;
  }
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
  if (options_.num_shards < 1) options_.num_shards = 1;
  if (options_.checkpoint_every_ops < 1) options_.checkpoint_every_ops = 1;
  placement_ = options_.placement.empty()
                   ? std::vector<std::string>{options_.endpoint}
                   : options_.placement;
  if (options_.server_index < 0 ||
      static_cast<size_t>(options_.server_index) >= placement_.size()) {
    options_.server_index = 0;
  }
  peers_.resize(placement_.size());
  if (const char* env = std::getenv("FPDM_WAL_SYNC")) {
    options_.wal_sync = std::atoi(env) != 0;
  }
}

SpaceServer::~SpaceServer() {
  if (log_fd_ >= 0) ::close(log_fd_);
  if (listen_fd_ >= 0) ::close(listen_fd_);
  if (epoll_fd_ >= 0) ::close(epoll_fd_);
  for (auto& [fd, conn] : conns_) {
    if (conn->fd_owned) ::close(fd);  // ShmConn dtors close their own fds
  }
  for (PeerLink& peer : peers_) {
    if (peer.fd >= 0) ::close(peer.fd);
  }
}

// --- striped space --------------------------------------------------------

size_t SpaceServer::ShardIndexFor(const BucketKeyView& key) const {
  // Deterministic across restarts (unlike std::hash), so a recovered server
  // routes every tuple to the stripe its checkpoint put it in. Shared with
  // PlacementIndex and ShardedTupleSpace (tuple_space.h).
  return BucketStripeIndex(key, stripes_.size());
}

bool SpaceServer::FindMatch(const Template& tmpl, Tuple* result, bool remove) {
  BucketKeyView key;
  if (SingleBucketKeyFor(tmpl, &key)) {
    TupleSpace& space = stripes_[ShardIndexFor(key)];
    return remove ? space.TryIn(tmpl, result) : space.TryRd(tmpl, result);
  }
  // Formal-string-first template: scan stripes in index order. With one
  // stripe (the default) matching is exactly global-FIFO; with more, FIFO
  // holds within each stripe only.
  if (stripes_.size() > 1) ++cross_shard_ops_;
  for (TupleSpace& space : stripes_) {
    if (remove ? space.TryIn(tmpl, result) : space.TryRd(tmpl, result)) {
      return true;
    }
  }
  return false;
}

size_t SpaceServer::CountAcrossShards(const Template& tmpl) {
  BucketKeyView key;
  if (SingleBucketKeyFor(tmpl, &key)) {
    return stripes_[ShardIndexFor(key)].CountMatches(tmpl);
  }
  if (stripes_.size() > 1) ++cross_shard_ops_;
  size_t count = 0;
  for (const TupleSpace& space : stripes_) count += space.CountMatches(tmpl);
  return count;
}

void SpaceServer::PublishTuple(Tuple tuple) {
  const BucketKeyView key = BucketKeyFor(tuple);
  stripes_[ShardIndexFor(key)].Out(std::move(tuple));
  ++publish_epoch_;
}

// --- log + checkpoint -----------------------------------------------------

std::string SpaceServer::EncodeSnapshot() const {
  std::string payload;
  PutU64(epoch_, &payload);
  PutU32(static_cast<uint32_t>(stripes_.size()), &payload);
  for (const TupleSpace& space : stripes_) {
    PutString(space.Checkpoint(), &payload);
  }
  PutU32(static_cast<uint32_t>(continuations_.size()), &payload);
  for (const auto& [pid, cont] : continuations_) {
    PutI32(pid, &payload);
    PutU64(cont.first, &payload);  // stamp: (incarnation<<32)|commit counter
    PutTuple(cont.second, &payload);
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
  PutU64(cross_shard_ops_, &payload);
  PutU64(batch_frames_, &payload);
  PutU64(batched_ops_, &payload);
  // Peer forward state: fseq counters, unacked queues, and watermarks.
  // Persisting these makes forwarding exactly-once across a crash: replay
  // of post-snapshot commits re-assigns identical fseqs, already-acked
  // forwards that resend are deduplicated by the peer's watermark.
  PutU32(static_cast<uint32_t>(peers_.size()), &payload);
  for (const PeerLink& peer : peers_) {
    PutU64(peer.next_fseq, &payload);
    PutU64(peer.watermark, &payload);
    PutU32(static_cast<uint32_t>(peer.unacked.size()), &payload);
    for (const PeerMsg& msg : peer.unacked) {
      PutU64(msg.fseq, &payload);
      PutU8(static_cast<uint8_t>(msg.op), &payload);
      PutU32(static_cast<uint32_t>(msg.outs.size()), &payload);
      for (const Tuple& t : msg.outs) PutTuple(t, &payload);
      PutI32(msg.txn_pid, &payload);
      PutI32(msg.txn_incarnation, &payload);
      PutU64(msg.txn_seq, &payload);
      PutU8(msg.decision, &payload);
    }
  }
  // 2PC state. The votes set must be durable: a vote whose PREPARE message
  // was acked (and so retired from the unacked queue) before this snapshot
  // is otherwise unrecoverable — the resent PREPARE after a restart only
  // re-collects votes for messages still queued.
  PutU32(static_cast<uint32_t>(coord_pending_.size()), &payload);
  for (const auto& [pid, txn] : coord_pending_) {
    PutI32(pid, &payload);
    PutI32(txn.incarnation, &payload);
    PutU64(txn.seq, &payload);
    PutU32(static_cast<uint32_t>(txn.outs.size()), &payload);
    for (const Tuple& t : txn.outs) PutTuple(t, &payload);
    PutU8(txn.has_continuation ? 1 : 0, &payload);
    PutTuple(txn.continuation, &payload);
    PutU64(txn.cont_stamp, &payload);
    PutU32(static_cast<uint32_t>(txn.participants.size()), &payload);
    for (uint32_t k : txn.participants) PutU32(k, &payload);
    PutU32(static_cast<uint32_t>(txn.votes.size()), &payload);
    for (uint32_t k : txn.votes) PutU32(k, &payload);
  }
  PutU32(static_cast<uint32_t>(prepared_.size()), &payload);
  for (const auto& [key, p] : prepared_) {
    PutI32(std::get<0>(key), &payload);
    PutI32(std::get<1>(key), &payload);
    PutU64(std::get<2>(key), &payload);
    PutU32(p.coordinator, &payload);
    PutU32(static_cast<uint32_t>(p.ins.size()), &payload);
    for (const Tuple& t : p.ins) PutTuple(t, &payload);
  }
  PutU32(static_cast<uint32_t>(decisions_.size()), &payload);
  for (const auto& [key, d] : decisions_) {
    PutI32(std::get<0>(key), &payload);
    PutI32(std::get<1>(key), &payload);
    PutU64(std::get<2>(key), &payload);
    PutU8(d.outcome, &payload);
    PutU32(static_cast<uint32_t>(d.waiting.size()), &payload);
    for (uint32_t k : d.waiting) PutU32(k, &payload);
  }
  PutU64(txn_prepares_, &payload);
  PutU64(txn_cross_server_, &payload);

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
  uint32_t num_shards = 0;
  if (!r.TakeU64(&epoch_) || !r.TakeU32(&num_shards)) return false;
  if (num_shards != static_cast<uint32_t>(options_.num_shards)) return false;
  stripes_.assign(num_shards, TupleSpace{});
  for (TupleSpace& space : stripes_) {
    std::string ckpt;
    if (!r.TakeString(&ckpt) || !space.Restore(ckpt)) return false;
  }
  uint32_t n = 0;
  if (!r.TakeU32(&n)) return false;
  continuations_.clear();
  for (uint32_t i = 0; i < n; ++i) {
    int32_t pid = 0;
    uint64_t stamp = 0;
    Tuple cont;
    if (!r.TakeI32(&pid) || !r.TakeU64(&stamp) || !r.TakeTuple(&cont)) {
      return false;
    }
    continuations_.emplace(pid, std::make_pair(stamp, std::move(cont)));
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
      !r.TakeU64(&checkpoints_) || !r.TakeU64(&cross_shard_ops_) ||
      !r.TakeU64(&batch_frames_) || !r.TakeU64(&batched_ops_)) {
    return false;
  }
  uint32_t num_servers = 0;
  if (!r.TakeU32(&num_servers)) return false;
  // A restarted server must rejoin the same placement it crashed in: a
  // changed server count would re-route buckets and orphan forwards.
  if (num_servers != static_cast<uint32_t>(peers_.size())) return false;
  for (PeerLink& peer : peers_) {
    uint32_t n_unacked = 0;
    peer.unacked.clear();
    if (!r.TakeU64(&peer.next_fseq) || !r.TakeU64(&peer.watermark) ||
        !r.TakeU32(&n_unacked)) {
      return false;
    }
    for (uint32_t i = 0; i < n_unacked; ++i) {
      PeerMsg msg;
      uint8_t op = 0;
      uint32_t n_outs = 0;
      if (!r.TakeU64(&msg.fseq) || !r.TakeU8(&op) || !r.TakeU32(&n_outs)) {
        return false;
      }
      msg.op = static_cast<Op>(op);
      msg.outs.reserve(n_outs);
      for (uint32_t j = 0; j < n_outs; ++j) {
        Tuple t;
        if (!r.TakeTuple(&t)) return false;
        msg.outs.push_back(std::move(t));
      }
      if (!r.TakeI32(&msg.txn_pid) || !r.TakeI32(&msg.txn_incarnation) ||
          !r.TakeU64(&msg.txn_seq) || !r.TakeU8(&msg.decision)) {
        return false;
      }
      peer.unacked.push_back(std::move(msg));
    }
    peer.sent = 0;  // nothing is on the wire in a fresh process
  }
  uint32_t n_coord = 0;
  if (!r.TakeU32(&n_coord)) return false;
  coord_pending_.clear();
  for (uint32_t i = 0; i < n_coord; ++i) {
    int32_t pid = 0;
    CoordTxn txn;
    uint32_t n_outs = 0;
    if (!r.TakeI32(&pid) || !r.TakeI32(&txn.incarnation) ||
        !r.TakeU64(&txn.seq) || !r.TakeU32(&n_outs)) {
      return false;
    }
    txn.outs.reserve(n_outs);
    for (uint32_t j = 0; j < n_outs; ++j) {
      Tuple t;
      if (!r.TakeTuple(&t)) return false;
      txn.outs.push_back(std::move(t));
    }
    uint8_t has_cont = 0;
    uint32_t n_participants = 0;
    if (!r.TakeU8(&has_cont) || !r.TakeTuple(&txn.continuation) ||
        !r.TakeU64(&txn.cont_stamp) || !r.TakeU32(&n_participants)) {
      return false;
    }
    txn.has_continuation = has_cont != 0;
    for (uint32_t j = 0; j < n_participants; ++j) {
      uint32_t k = 0;
      if (!r.TakeU32(&k)) return false;
      txn.participants.push_back(k);
    }
    uint32_t n_votes = 0;
    if (!r.TakeU32(&n_votes)) return false;
    for (uint32_t j = 0; j < n_votes; ++j) {
      uint32_t k = 0;
      if (!r.TakeU32(&k)) return false;
      txn.votes.insert(k);
    }
    coord_pending_.emplace(pid, std::move(txn));
  }
  uint32_t n_prepared = 0;
  if (!r.TakeU32(&n_prepared)) return false;
  prepared_.clear();
  for (uint32_t i = 0; i < n_prepared; ++i) {
    int32_t pid = 0;
    int32_t incarnation = 0;
    uint64_t seq = 0;
    PreparedTxn p;
    uint32_t n_ins = 0;
    if (!r.TakeI32(&pid) || !r.TakeI32(&incarnation) || !r.TakeU64(&seq) ||
        !r.TakeU32(&p.coordinator) || !r.TakeU32(&n_ins)) {
      return false;
    }
    p.ins.reserve(n_ins);
    for (uint32_t j = 0; j < n_ins; ++j) {
      Tuple t;
      if (!r.TakeTuple(&t)) return false;
      p.ins.push_back(std::move(t));
    }
    prepared_.emplace(TxnKey{pid, incarnation, seq}, std::move(p));
  }
  uint32_t n_decisions = 0;
  if (!r.TakeU32(&n_decisions)) return false;
  decisions_.clear();
  for (uint32_t i = 0; i < n_decisions; ++i) {
    int32_t pid = 0;
    int32_t incarnation = 0;
    uint64_t seq = 0;
    Decision d;
    uint32_t n_waiting = 0;
    if (!r.TakeI32(&pid) || !r.TakeI32(&incarnation) || !r.TakeU64(&seq) ||
        !r.TakeU8(&d.outcome) || !r.TakeU32(&n_waiting)) {
      return false;
    }
    for (uint32_t j = 0; j < n_waiting; ++j) {
      uint32_t k = 0;
      if (!r.TakeU32(&k)) return false;
      d.waiting.push_back(k);
    }
    decisions_.emplace(TxnKey{pid, incarnation, seq}, std::move(d));
  }
  if (!r.TakeU64(&txn_prepares_) || !r.TakeU64(&txn_cross_server_)) {
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
  stripes_.assign(static_cast<size_t>(options_.num_shards), TupleSpace{});
  const std::string ckpt_path = options_.state_dir + "/ckpt";
  struct stat st;
  if (::stat(ckpt_path.c_str(), &st) == 0) {
    if (!LoadSnapshot(ckpt_path)) return false;  // corrupt checkpoint: fatal
  }
  ReplayLog(options_.state_dir + "/log." + std::to_string(epoch_));
  // Presumed-abort recovery: every transaction still PREPARED but
  // undecided asks its coordinator what happened. Queued BEFORE the boot
  // checkpoint so the fseqs these queries consume are captured in the
  // snapshot's next_fseq — post-boot log replay must re-assign identical
  // fseqs to later forwards. EnqueueTxnQuery skips duplicates already
  // restored from the snapshot, so crash loops don't grow the queue.
  for (const auto& [key, p] : prepared_) {
    if (p.coordinator < peers_.size()) EnqueueTxnQuery(p.coordinator, key);
  }
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
      Tuple removed;
      FindMatch(ExactTemplate(entry.tuple), &removed, /*remove=*/true);
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
      // Transactions have single-server affinity, but their outs can target
      // any bucket: publish the locally-placed ones, forward the rest to
      // their owning server (one kForward per commit per target, so the
      // per-source FIFO channel preserves commit order end to end). The
      // home server counts every commit out in tuple_ops_; the forward
      // apply on the target deliberately does not.
      const size_t self = static_cast<size_t>(options_.server_index);
      std::map<size_t, std::vector<Tuple>> foreign;
      for (const Tuple& t : entry.outs) {
        const size_t target = placement_.size() > 1
                                  ? PlacementIndex(BucketKeyFor(t),
                                                   placement_.size())
                                  : self;
        if (target == self) {
          PublishTuple(t);
        } else {
          foreign[target].push_back(t);
        }
        ++tuple_ops_;
      }
      for (auto& [target, outs] : foreign) {
        EnqueueForward(target, std::move(outs));
      }
      if (entry.has_continuation) {
        continuations_[entry.pid] = {entry.cont_stamp, entry.continuation};
      }
      ClientState& c = clients_[entry.pid];
      c.txn_open = false;
      c.txn_ins.clear();
      ++commits_;
      // Non-empty participants = the COMMIT decision record of a
      // cross-server (2PC) transaction: retire the in-doubt state, retain
      // the outcome until every participant acks, fan the decision out.
      if (!entry.participants.empty()) {
        coord_pending_.erase(entry.pid);
        const TxnKey key{entry.pid, entry.incarnation, entry.seq};
        Decision d;
        d.outcome = kTxnCommit;
        d.waiting = entry.participants;
        decisions_[key] = std::move(d);
        for (uint32_t k : entry.participants) {
          if (k < peers_.size()) EnqueueDecide(k, key, kTxnCommit);
        }
      }
      break;
    }
    case LogKind::kAbort: {
      ClientState& c = clients_[entry.pid];
      for (const Tuple& t : c.txn_ins) PublishTuple(t);
      c.txn_open = false;
      c.txn_ins.clear();
      ++aborts_;
      if (!entry.participants.empty()) {
        // ABORT decision record of a cross-server transaction. The parked
        // client (if any) gets a structured error; participants republish
        // their durably parked ins on delivery.
        coord_pending_.erase(entry.pid);
        const TxnKey key{entry.pid, entry.incarnation, entry.seq};
        Decision d;
        d.outcome = kTxnAbort;
        d.waiting = entry.participants;
        decisions_[key] = std::move(d);
        for (uint32_t k : entry.participants) {
          if (k < peers_.size()) EnqueueDecide(k, key, kTxnAbort);
        }
        reply.status = WireStatus::kError;
        reply.error = "cross-server transaction aborted";
      }
      break;
    }
    case LogKind::kXPrepare: {
      // Coordinator: the commit payload is durably parked and PREPAREs fan
      // out to every participant. Replay re-arms the pending transaction
      // (votes re-collect via resent PREPAREs or the snapshot) and
      // re-enqueues the PREPARE messages at identical fseqs.
      CoordTxn txn;
      txn.incarnation = entry.incarnation;
      txn.seq = entry.seq;
      txn.outs = entry.outs;
      txn.has_continuation = entry.has_continuation;
      txn.continuation = entry.continuation;
      txn.cont_stamp = entry.cont_stamp;
      txn.participants = entry.participants;
      coord_pending_[entry.pid] = std::move(txn);
      ++txn_cross_server_;
      for (uint32_t k : entry.participants) {
        if (k < peers_.size()) {
          EnqueuePrepare(k, entry.pid, entry.incarnation, entry.seq);
        }
      }
      break;
    }
    case LogKind::kPrepared: {
      // Participant: the vote is durable and the PREPARE delivery advances
      // the coordinator's watermark. A yes vote parks the transaction's
      // tentative ins in prepared_ — out of ClientState, so neither a
      // crash-abort nor a new-incarnation HELLO can republish them while
      // the outcome is undecided.
      if (entry.peer >= 0 && static_cast<size_t>(entry.peer) < peers_.size()) {
        PeerLink& src = peers_[static_cast<size_t>(entry.peer)];
        if (entry.fseq > src.watermark) src.watermark = entry.fseq;
      }
      if (entry.decision == kVotePrepared) {
        PreparedTxn p;
        p.coordinator = static_cast<uint32_t>(entry.peer);
        auto it = clients_.find(entry.pid);
        if (it != clients_.end()) {
          p.ins = std::move(it->second.txn_ins);
          it->second.txn_ins.clear();
          it->second.txn_open = false;
        }
        prepared_[TxnKey{entry.pid, entry.incarnation, entry.seq}] =
            std::move(p);
      }
      break;
    }
    case LogKind::kDecide: {
      // Participant applies the coordinator's decision. fseq != 0 = it
      // arrived as a kDecide peer message (advance the watermark); fseq ==
      // 0 = it was learned from a recovery-time kTxnQuery answer. Both are
      // idempotent: once the prepared entry is gone, this is a no-op.
      if (entry.fseq != 0 && entry.peer >= 0 &&
          static_cast<size_t>(entry.peer) < peers_.size()) {
        PeerLink& src = peers_[static_cast<size_t>(entry.peer)];
        if (entry.fseq > src.watermark) src.watermark = entry.fseq;
      }
      auto it =
          prepared_.find(TxnKey{entry.pid, entry.incarnation, entry.seq});
      if (it != prepared_.end()) {
        if (entry.decision != kTxnCommit) {
          for (const Tuple& t : it->second.ins) PublishTuple(t);
        }
        // On commit the ins stay removed (they left the space when the
        // destructive in executed); the coordinator counts the commit.
        prepared_.erase(it);
      }
      break;
    }
    case LogKind::kXRecover: {
      auto it = continuations_.find(entry.pid);
      if (it == continuations_.end()) {
        reply.status = WireStatus::kNotFound;
      } else {
        reply.has_tuple = true;
        reply.cont_stamp = it->second.first;
        reply.tuple = it->second.second;
        continuations_.erase(it);
      }
      break;
    }
    case LogKind::kBatch: {
      // Replay of a whole batch frame: re-apply the resolved effects in
      // order. The live path already mutated the space while resolving
      // (HandleBatch), so only replay reaches this case.
      for (const BatchEffect& effect : entry.effects) {
        switch (effect.kind) {
          case BatchEffectKind::kPublished:
            PublishTuple(effect.tuple);
            break;
          case BatchEffectKind::kTook: {
            Tuple removed;
            FindMatch(ExactTemplate(effect.tuple), &removed, /*remove=*/true);
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
    case LogKind::kForward: {
      // Commit outs delivered from peer server entry.pid under forward seq
      // entry.seq. The watermark guard makes replay and re-delivery
      // idempotent; no tuple_ops_ bump — the home server counted them.
      if (entry.pid >= 0 &&
          static_cast<size_t>(entry.pid) < peers_.size()) {
        PeerLink& src = peers_[static_cast<size_t>(entry.pid)];
        if (entry.seq > src.watermark) {
          for (const Tuple& t : entry.outs) PublishTuple(t);
          src.watermark = entry.seq;
        }
      }
      break;
    }
  }
  const std::string encoded = EncodeReply(reply);
  // kForward entries reuse pid as the SOURCE SERVER index — caching their
  // replies would collide with a real client's dedup window. The 2PC
  // records are excluded too: kXPrepare must not cache a reply under the
  // commit's seq (the decision record does that — a resent XCOMMIT before
  // the decision must re-park, not get a bogus cached OK), and
  // kPrepared/kDecide carry the COORDINATOR leg's seq, which lives in a
  // different sequence space than this participant's client leg.
  if (entry.seq != 0 && entry.pid >= 0 &&
      entry.kind != LogKind::kForward &&
      entry.kind != LogKind::kXPrepare &&
      entry.kind != LogKind::kPrepared && entry.kind != LogKind::kDecide) {
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

void SpaceServer::SatisfyWaiters() {
  for (auto it = waiters_.begin(); it != waiters_.end();) {
    Tuple t;
    if (!FindMatch(it->tmpl, &t, /*remove=*/false)) {
      ++it;
      continue;
    }
    auto cit = conns_.find(it->fd);
    if (cit == conns_.end()) {
      it = waiters_.erase(it);  // connection died while parked
      continue;
    }
    Conn& conn = *cit->second;
    if (it->remove) {
      bool in_txn = false;
      if (it->pid >= 0) {
        auto client = clients_.find(it->pid);
        in_txn = client != clients_.end() && client->second.txn_open;
      }
      LogEntry entry;
      entry.kind = LogKind::kIn;
      entry.pid = it->pid;
      entry.incarnation = conn.incarnation;
      entry.seq = it->seq;
      entry.in_txn = in_txn;
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
  waiters_.push_back(std::move(w));
}

void SpaceServer::HandleHello(Conn& conn, const Request& request) {
  conn.pid = request.pid;
  conn.incarnation = request.incarnation;
  // Every HELLO reply carries the placement map, so a worker that connects
  // to any one server learns where every bucket lives.
  Reply hello;
  hello.placement = placement_;
  if (request.pid < 0) {  // control connection: nothing to register
    SendReply(conn, hello);
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
    SendReply(conn, hello);
    return;
  }
  // New client or a respawned incarnation: crash-abort whatever the old
  // incarnation left open and reset its dedup window. HELLO entries are
  // unsequenced (never cached), so sending the placement-bearing reply
  // instead of ApplyEntry's encoding cannot diverge from a replayed one.
  LogEntry entry;
  entry.kind = LogKind::kHello;
  entry.pid = request.pid;
  entry.incarnation = request.incarnation;
  if (!AppendLog(entry)) return;
  ApplyEntry(entry);
  // A respawned incarnation proves the old one died mid-commit: drive its
  // in-doubt cross-server transaction to ABORT so every participant
  // republishes the parked ins and the new incarnation's xrecover resumes
  // from the last COMMITTED continuation.
  if (coord_pending_.count(request.pid) != 0) {
    DecideTxn(request.pid, kTxnAbort);
  }
  SendReply(conn, hello);
  SatisfyWaiters();
}

void SpaceServer::HandleIn(Conn& conn, const Request& request) {
  const bool remove = (request.flags & kInRemove) != 0;
  const bool blocking = (request.flags & kInBlocking) != 0;
  Tuple t;
  if (FindMatch(request.tmpl, &t, /*remove=*/false)) {
    if (remove) {
      bool in_txn = false;
      if (conn.pid >= 0) {
        auto client = clients_.find(conn.pid);
        in_txn = client != clients_.end() && client->second.txn_open;
      }
      LogEntry entry;
      entry.kind = LogKind::kIn;
      entry.pid = conn.pid;
      entry.incarnation = conn.incarnation;
      entry.seq = request.seq;
      entry.in_txn = in_txn;
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
  // the same seq, breaking the one-frame/one-record atomicity argument.)
  for (const BatchOp& op : request.batch) {
    if (op.op == Op::kIn && (op.flags & kInBlocking) != 0) {
      SendError(conn, "batch: blocking sub-op not allowed");
      return;
    }
  }
  bool in_txn = false;
  if (conn.pid >= 0) {
    auto client = clients_.find(conn.pid);
    in_txn = client != clients_.end() && client->second.txn_open;
  }
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
      if (FindMatch(op.tmpl, &t, remove)) {
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
  if (!AppendLog(entry)) return;
  const std::string encoded = EncodeReply(BatchReplyFor(entry));
  if (entry.seq != 0 && conn.pid >= 0) {
    CacheReply(clients_[conn.pid], entry.seq, encoded);
  }
  SendEncoded(conn, encoded);
  if (published) SatisfyWaiters();
}

void SpaceServer::HandleFrame(Conn& conn, std::string_view payload) {
  Request request;
  std::string error;
  if (!DecodeRequest(payload, &request, &error)) {
    SendError(conn, error);
    conn.close_after_flush = true;
    return;
  }
  // Chaos partition: while partitioned_, this server is "off the network"
  // for everyone except the out-of-band control channel (unregistered
  // conns, pid < 0) that will eventually heal it. Peer traffic and client
  // traffic are blackholed — no reply, connection dropped — which models a
  // link cut rather than a crash: durable state stays intact, so a healed
  // reconnect finds transactions exactly where the partition left them.
  if (partitioned_ && request.op != Op::kChaosPartition) {
    const bool peer_op = request.op == Op::kForward ||
                         request.op == Op::kPrepare ||
                         request.op == Op::kDecide ||
                         request.op == Op::kTxnQuery;
    const bool client_traffic =
        conn.pid >= 0 || (request.op == Op::kHello && request.pid >= 0);
    if (peer_op || client_traffic) {
      conn.saw_bye = true;  // partition drop, not a crash: no crash-abort
      conn.close_after_flush = true;
      flush_request_.insert(conn.fd);
      return;  // blackholed: no reply
    }
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
      if (!request.participants.empty()) {
        // Cross-server commit: 2PC slow path. Park the reply until the
        // decision; the decision record caches it for retries.
        bool bad = false;
        std::set<uint32_t> seen;
        for (uint32_t k : request.participants) {
          if (k >= placement_.size() ||
              k == static_cast<uint32_t>(options_.server_index) ||
              !seen.insert(k).second) {
            bad = true;
          }
        }
        if (bad) {
          SendError(conn, "xcommit: bad participant list");
          break;
        }
        auto pit = coord_pending_.find(conn.pid);
        if (pit != coord_pending_.end()) {
          if (pit->second.incarnation == conn.incarnation &&
              pit->second.seq == request.seq) {
            pit->second.reply_fd = conn.fd;  // resent commit: re-park
          } else {
            SendError(conn, "xcommit while another commit is in doubt");
          }
          break;
        }
        LogEntry entry;
        entry.kind = LogKind::kXPrepare;
        entry.pid = conn.pid;
        entry.incarnation = conn.incarnation;
        entry.seq = request.seq;
        entry.outs = request.outs;
        entry.has_continuation = request.has_continuation;
        entry.continuation = request.continuation;
        entry.cont_stamp = request.cont_stamp;
        entry.participants = request.participants;
        if (!AppendLog(entry)) break;
        ApplyEntry(entry);  // arms coord_pending_ + fans out PREPAREs
        coord_pending_[conn.pid].reply_fd = conn.fd;
        break;  // no reply until the votes decide
      }
      // Fast path: every destructive in happened here, so the commit is a
      // single durable record with no prepare round.
      LogEntry entry;
      entry.kind = LogKind::kCommit;
      entry.pid = conn.pid;
      entry.incarnation = conn.incarnation;
      entry.seq = request.seq;
      entry.outs = request.outs;
      entry.has_continuation = request.has_continuation;
      entry.continuation = request.continuation;
      entry.cont_stamp = request.cont_stamp;
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
      if (continuations_.find(conn.pid) == continuations_.end()) {
        Reply reply;
        reply.status = WireStatus::kNotFound;
        SendReply(conn, reply);
        break;
      }
      LogEntry entry;
      entry.kind = LogKind::kXRecover;
      entry.pid = conn.pid;
      entry.incarnation = conn.incarnation;
      entry.seq = request.seq;
      if (!AppendLog(entry)) break;
      SendEncoded(conn, ApplyEntry(entry));
      break;
    }
    case Op::kCount: {
      Reply reply;
      reply.count = CountAcrossShards(request.tmpl);
      ++tuple_ops_;
      SendReply(conn, reply);
      break;
    }
    case Op::kTakeAll: {
      Reply reply;
      for (TupleSpace& space : stripes_) {
        for (Tuple& t : space.TakeAllInOrder()) {
          reply.tuples.push_back(std::move(t));
        }
      }
      const std::string encoded = EncodeReply(reply);
      if (encoded.size() > kMaxFramePayload) {
        // The peer's FrameReader would reject the reply as corrupt. Put the
        // tuples back (per-shard FIFO order is preserved: the drain emitted
        // each shard's tuples oldest-first) and fail with a structured
        // error instead of durably draining a harvest nobody can receive.
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
      reply.cross_shard_ops = cross_shard_ops_;
      reply.batch_frames = batch_frames_;
      reply.batched_ops = batched_ops_;
      reply.publish_epoch = publish_epoch_;
      reply.txn_prepares = txn_prepares_;
      reply.txn_cross_server = txn_cross_server_;
      reply.wal_group_commits = wal_group_commits_;
      reply.wal_synced_bytes = wal_synced_bytes_;
      reply.transport_syscalls = transport_syscalls_;
      reply.transport_bytes = transport_bytes_;
      reply.stripes = stripes_.size();
      SendReply(conn, reply);
      break;
    }
    case Op::kStatus: {
      Reply reply;
      reply.publish_epoch = publish_epoch_;
      reply.forwards_pending = ForwardsPending();
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
    case Op::kUnpark: {
      // Scatter/gather loser cancellation: the client won its blocking rd
      // on another server and retracts the legs parked here. Reply order
      // matches frame order, so the parked frame's kNotFound goes out
      // before the unpark ack. A leg that already fired (its waiter is
      // gone) makes this a no-op ack and the client discards the extra
      // reply — the parked op is a non-destructive rd either way.
      Reply miss;
      miss.status = WireStatus::kNotFound;
      for (auto wit = waiters_.begin(); wit != waiters_.end();) {
        if (wit->fd == conn.fd) {
          SendReply(conn, miss);
          wit = waiters_.erase(wit);
        } else {
          ++wit;
        }
      }
      SendReply(conn, Reply{});
      break;
    }
    case Op::kForward: {
      // Server-to-server delivery of commit outs placed here. request.pid
      // is the SOURCE SERVER index and request.seq its forward seq; the
      // source resends its whole unacked queue after a reconnect, so
      // duplicates are acked without logging (watermark dedup).
      if (conn.pid >= 0) {
        SendError(conn, "forward from a registered client");
        break;
      }
      conn.is_peer = true;
      const int32_t src = request.pid;
      if (src < 0 || static_cast<size_t>(src) >= peers_.size() ||
          static_cast<size_t>(src) ==
              static_cast<size_t>(options_.server_index) ||
          request.seq == 0) {
        SendError(conn, "forward: bad source server or sequence");
        break;
      }
      if (request.seq <= peers_[static_cast<size_t>(src)].watermark) {
        SendReply(conn, Reply{});  // duplicate delivery: ack only
        break;
      }
      LogEntry entry;
      entry.kind = LogKind::kForward;
      entry.pid = src;
      entry.seq = request.seq;
      entry.outs = request.outs;
      if (!AppendLog(entry)) break;
      ApplyEntry(entry);
      SendReply(conn, Reply{});
      SatisfyWaiters();
      break;
    }
    case Op::kPrepare: {
      // 2PC phase 1, participant side. request.pid = coordinator server
      // index, request.seq = its forward seq on this channel; the txn_*
      // fields name the transaction. The vote rides back in the ack.
      if (conn.pid >= 0) {
        SendError(conn, "prepare from a registered client");
        break;
      }
      conn.is_peer = true;
      const int32_t src = request.pid;
      if (src < 0 || static_cast<size_t>(src) >= peers_.size() ||
          static_cast<size_t>(src) ==
              static_cast<size_t>(options_.server_index) ||
          request.seq == 0) {
        SendError(conn, "prepare: bad source server or sequence");
        break;
      }
      const TxnKey key{request.txn_pid, request.txn_incarnation,
                       request.txn_seq};
      if (request.seq <= peers_[static_cast<size_t>(src)].watermark) {
        // Duplicate delivery: re-ack with the durable vote. (A refused
        // first vote left no prepared entry, so this re-acks REFUSED; a
        // post-decision resend may also re-ack REFUSED, but by then the
        // coordinator has no pending transaction and ignores the vote.)
        Reply reply;
        reply.vote =
            prepared_.count(key) != 0 ? kVotePrepared : kVoteRefused;
        SendReply(conn, reply);
        break;
      }
      // Fresh PREPARE: vote yes iff this client leg has the transaction
      // open under the same incarnation (a crash-abort or a respawned
      // incarnation already rolled it back here → refuse, which drives
      // the coordinator to a global abort).
      uint8_t vote = kVoteRefused;
      auto it = clients_.find(request.txn_pid);
      if (it != clients_.end() &&
          it->second.incarnation == request.txn_incarnation &&
          it->second.txn_open) {
        vote = kVotePrepared;
      }
      LogEntry entry;
      entry.kind = LogKind::kPrepared;
      entry.pid = request.txn_pid;
      entry.incarnation = request.txn_incarnation;
      entry.seq = request.txn_seq;
      entry.peer = src;
      entry.fseq = request.seq;
      entry.decision = vote;
      if (!AppendLog(entry)) break;
      ApplyEntry(entry);
      if (options_.die_after_prepared > 0 && vote == kVotePrepared &&
          ++prepared_votes_logged_ >= options_.die_after_prepared) {
        MaybeDieAt("chaos.died.part");  // die before acking the vote
      }
      Reply reply;
      reply.vote = vote;
      SendReply(conn, reply);
      break;
    }
    case Op::kDecide: {
      // 2PC phase 2, participant side: apply the coordinator's decision.
      if (conn.pid >= 0) {
        SendError(conn, "decide from a registered client");
        break;
      }
      conn.is_peer = true;
      const int32_t src = request.pid;
      if (src < 0 || static_cast<size_t>(src) >= peers_.size() ||
          static_cast<size_t>(src) ==
              static_cast<size_t>(options_.server_index) ||
          request.seq == 0) {
        SendError(conn, "decide: bad source server or sequence");
        break;
      }
      if (request.seq <= peers_[static_cast<size_t>(src)].watermark) {
        SendReply(conn, Reply{});  // duplicate delivery: ack only
        break;
      }
      LogEntry entry;
      entry.kind = LogKind::kDecide;
      entry.pid = request.txn_pid;
      entry.incarnation = request.txn_incarnation;
      entry.seq = request.txn_seq;
      entry.peer = src;
      entry.fseq = request.seq;
      entry.decision = request.decision;
      if (!AppendLog(entry)) break;
      ApplyEntry(entry);
      SendReply(conn, Reply{});
      SatisfyWaiters();  // an abort republished the parked ins
      break;
    }
    case Op::kTxnQuery: {
      // Presumed-abort recovery query, coordinator side. Stateless — it
      // neither logs nor touches the watermark. Answers: the retained
      // decision; 0 ("still deciding") while the transaction is pending,
      // so a participant bouncing mid-2PC never aborts a live commit; and
      // otherwise ABORT — safe because a participant can only be PREPARED
      // for a transaction whose kXPrepare this server logged durably
      // BEFORE fanning out the PREPARE, so "no trace" proves the decision
      // was never COMMIT.
      if (conn.pid >= 0) {
        SendError(conn, "txn query from a registered client");
        break;
      }
      conn.is_peer = true;
      const TxnKey key{request.txn_pid, request.txn_incarnation,
                       request.txn_seq};
      Reply reply;
      auto dit = decisions_.find(key);
      if (dit != decisions_.end()) {
        reply.decision = dit->second.outcome;
      } else {
        auto pit = coord_pending_.find(request.txn_pid);
        if (pit != coord_pending_.end() &&
            pit->second.incarnation == request.txn_incarnation &&
            pit->second.seq == request.txn_seq) {
          reply.decision = 0;  // still in doubt here too: keep it parked
        } else {
          reply.decision = kTxnAbort;  // presumed abort
        }
      }
      SendReply(conn, reply);
      break;
    }
    case Op::kShutdown:
      SendReply(conn, Reply{});
      stop_ = true;
      break;
    case Op::kChaosPartition: {
      // Chaos control: cut (flags != 0) or heal (flags == 0) this server's
      // network. Control-channel only — a registered client asking to
      // partition its own server would be a protocol bug, not a fault
      // injection.
      if (conn.pid >= 0) {
        SendError(conn, "chaos partition from a registered client");
        break;
      }
      if (request.flags != 0) {
        partitioned_ = true;
        StartPartitionDrop();
      } else {
        // Heal: new connections flow again; peers reconnect and resend
        // their unacked tails, watermark/dedup absorbing any duplicates.
        partitioned_ = false;
      }
      SendReply(conn, Reply{});
      break;
    }
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
    // A 2PC commit parked on this connection loses its reply target (the
    // fd number may be reused); the client's resent XCOMMIT re-parks.
    for (auto& [pid, txn] : coord_pending_) {
      if (txn.reply_fd == fd) txn.reply_fd = -1;
    }
    Conn& dying = *dropped.back();
    if (dying.shm != nullptr) {
      // Close the rings now so a client blocked in a ring wait wakes
      // immediately; the ShmConn destructor (at `dropped` scope exit)
      // unmaps and closes the handshake socket + doorbells, and the
      // epoll registrations vanish with the fds.
      FoldShmSyscalls(dying);
      dying.shm->Close();
      FoldShmSyscalls(dying);
    } else if (dying.shm_accept != nullptr) {
      transport_syscalls_ += dying.shm_accept->syscalls();
      if (dying.fd_owned) ::close(fd);
    } else if (dying.fd_owned) {
      ::close(fd);
    }
  }
  // Phase 2: a vanished client (no BYE) with an open transaction is a
  // crash: roll the transaction back so its tuples become visible again —
  // unless a newer incarnation already registered and reset the state.
  for (const auto& conn_ptr : dropped) {
    const Conn& conn = *conn_ptr;
    if (conn.saw_bye || conn.pid < 0) continue;
    // A disconnect during the in-doubt window is NOT a crash-abort: once
    // XCOMMIT reached this coordinator the commit's fate belongs to the
    // vote round (matching the single-server rule that a client dying
    // after its commit was logged still commits). A genuinely dead client
    // resolves via its respawned incarnation's HELLO, which aborts the
    // pending transaction.
    auto pending = coord_pending_.find(conn.pid);
    if (pending != coord_pending_.end() &&
        pending->second.incarnation == conn.incarnation) {
      continue;
    }
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

void SpaceServer::StartPartitionDrop() {
  // Cut every established link — registered clients and inbound peer
  // channels — by flushing-then-closing, exactly the kBye teardown.
  // saw_bye suppresses the DropConns crash-abort: the client is alive on
  // the far side of the cut and will reconnect under the SAME incarnation
  // after the heal, expecting its open transaction intact. Outbound peer
  // links are torn down by PumpPeers; unregistered control connections
  // stay up as the heal channel.
  for (auto& [fd, conn_ptr] : conns_) {
    Conn& conn = *conn_ptr;
    if (conn.pid < 0 && !conn.is_peer) continue;
    conn.saw_bye = true;
    conn.close_after_flush = true;
    flush_request_.insert(fd);
  }
}

// --- peer forwarding (multi-server placement) -----------------------------

void SpaceServer::EnqueueForward(size_t target, std::vector<Tuple> outs) {
  PeerLink& peer = peers_[target];
  PeerMsg msg;
  msg.fseq = ++peer.next_fseq;
  msg.op = Op::kForward;
  msg.outs = std::move(outs);
  peer.unacked.push_back(std::move(msg));
}

// --- cross-server transactions (2PC, presumed abort) ----------------------

void SpaceServer::EnqueuePrepare(uint32_t target, int32_t pid,
                                 int32_t incarnation, uint64_t seq) {
  PeerLink& peer = peers_[target];
  PeerMsg msg;
  msg.fseq = ++peer.next_fseq;
  msg.op = Op::kPrepare;
  msg.txn_pid = pid;
  msg.txn_incarnation = incarnation;
  msg.txn_seq = seq;
  peer.unacked.push_back(std::move(msg));
  ++txn_prepares_;
}

void SpaceServer::EnqueueDecide(uint32_t target, const TxnKey& key,
                                uint8_t outcome) {
  PeerLink& peer = peers_[target];
  PeerMsg msg;
  msg.fseq = ++peer.next_fseq;
  msg.op = Op::kDecide;
  msg.txn_pid = std::get<0>(key);
  msg.txn_incarnation = std::get<1>(key);
  msg.txn_seq = std::get<2>(key);
  msg.decision = outcome;
  peer.unacked.push_back(std::move(msg));
}

void SpaceServer::EnqueueTxnQuery(uint32_t target, const TxnKey& key) {
  PeerLink& peer = peers_[target];
  for (const PeerMsg& msg : peer.unacked) {
    if (msg.op == Op::kTxnQuery && msg.txn_pid == std::get<0>(key) &&
        msg.txn_incarnation == std::get<1>(key) &&
        msg.txn_seq == std::get<2>(key)) {
      return;  // an identical query survived the snapshot
    }
  }
  PeerMsg msg;
  msg.fseq = ++peer.next_fseq;
  msg.op = Op::kTxnQuery;
  msg.txn_pid = std::get<0>(key);
  msg.txn_incarnation = std::get<1>(key);
  msg.txn_seq = std::get<2>(key);
  peer.unacked.push_back(std::move(msg));
}

void SpaceServer::DecideTxn(int32_t pid, uint8_t outcome) {
  auto it = coord_pending_.find(pid);
  if (it == coord_pending_.end()) return;
  // Copy everything out before the append: applying the decision record
  // erases the pending entry.
  const CoordTxn& txn = it->second;
  const int reply_fd = txn.reply_fd;
  LogEntry entry;
  entry.kind =
      outcome == kTxnCommit ? LogKind::kCommit : LogKind::kAbort;
  entry.pid = pid;
  entry.incarnation = txn.incarnation;
  entry.seq = txn.seq;
  entry.participants = txn.participants;
  if (outcome == kTxnCommit) {
    entry.outs = txn.outs;
    entry.has_continuation = txn.has_continuation;
    entry.continuation = txn.continuation;
    entry.cont_stamp = txn.cont_stamp;
  }
  if (!AppendLog(entry)) return;
  const std::string encoded = ApplyEntry(entry);
  if (reply_fd >= 0) {
    auto cit = conns_.find(reply_fd);
    if (cit != conns_.end()) SendEncoded(*cit->second, encoded);
  }
  SatisfyWaiters();
}

void SpaceServer::OnPrepareVote(size_t participant, const PeerMsg& msg,
                                uint8_t vote) {
  auto it = coord_pending_.find(msg.txn_pid);
  if (it == coord_pending_.end()) return;  // already decided
  CoordTxn& txn = it->second;
  if (txn.incarnation != msg.txn_incarnation || txn.seq != msg.txn_seq) {
    return;  // stale vote for an older transaction of this pid
  }
  if (options_.die_in_doubt_after > 0 &&
      ++votes_received_ >= options_.die_in_doubt_after) {
    // Chaos: die in the in-doubt window — at least one participant has
    // durably PREPARED and no decision record exists yet.
    MaybeDieAt("chaos.died.coord");
  }
  if (vote != kVotePrepared) {
    DecideTxn(msg.txn_pid, kTxnAbort);
    return;
  }
  txn.votes.insert(static_cast<uint32_t>(participant));
  if (txn.votes.size() >= txn.participants.size()) {
    DecideTxn(msg.txn_pid, kTxnCommit);
  }
}

void SpaceServer::MaybeDieAt(const char* marker) {
  const std::string path = options_.state_dir + "/" + marker;
  struct stat st;
  if (::stat(path.c_str(), &st) == 0) return;  // already fired once
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd >= 0) ::close(fd);
  ::raise(SIGKILL);
}

uint64_t SpaceServer::ForwardsPending() const {
  uint64_t pending = 0;
  for (const PeerLink& peer : peers_) pending += peer.unacked.size();
  return pending;
}

void SpaceServer::DropPeer(PeerLink& peer) {
  if (peer.fd >= 0) ::close(peer.fd);
  peer.fd = -1;
  peer.sent = 0;  // a fresh connection resends the whole unacked queue
  peer.outbuf.clear();
  peer.outbuf_sent = 0;
  peer.epoll_out = false;
  peer.reader = FrameReader{};
}

void SpaceServer::ReadPeerAcks(size_t k) {
  PeerLink& peer = peers_[k];
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(peer.fd, buf, sizeof(buf));
    if (n > 0) {
      peer.reader.Feed(buf, static_cast<size_t>(n));
      continue;
    }
    if (n == 0 ||
        (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR)) {
      DropPeer(peer);
      return;
    }
    break;
  }
  std::string payload;
  for (;;) {
    const FrameReader::Result result = peer.reader.Next(&payload);
    if (result == FrameReader::Result::kFrame) {
      Reply reply;
      std::string error;
      // Acks arrive strictly in send order (one connection, one reply per
      // frame), so each kOk retires the oldest unacked message. Anything
      // else — decode failure, an error reply, an ack with nothing
      // outstanding — is an unusable link: drop and resend from scratch.
      if (!DecodeReply(payload, &reply, &error) ||
          reply.status != WireStatus::kOk || peer.unacked.empty()) {
        DropPeer(peer);
        return;
      }
      const PeerMsg msg = std::move(peer.unacked.front());
      peer.unacked.pop_front();
      if (peer.sent > 0) --peer.sent;
      switch (msg.op) {
        case Op::kForward:
          break;  // delivery is the whole story
        case Op::kPrepare:
          // The ack carries the participant's durable vote.
          OnPrepareVote(k, msg, reply.vote);
          break;
        case Op::kDecide: {
          // The participant applied the decision: retire it from the
          // outcome table once every participant has acked.
          const TxnKey key{msg.txn_pid, msg.txn_incarnation, msg.txn_seq};
          auto dit = decisions_.find(key);
          if (dit != decisions_.end()) {
            auto& waiting = dit->second.waiting;
            waiting.erase(std::remove(waiting.begin(), waiting.end(),
                                      static_cast<uint32_t>(k)),
                          waiting.end());
            if (waiting.empty()) decisions_.erase(dit);
          }
          break;
        }
        case Op::kTxnQuery: {
          // The coordinator's answer for a PREPARED-but-undecided txn.
          // 0 = still deciding: stay parked, the kDecide will arrive.
          const TxnKey key{msg.txn_pid, msg.txn_incarnation, msg.txn_seq};
          if (reply.decision != 0 && prepared_.count(key) != 0) {
            LogEntry entry;
            entry.kind = LogKind::kDecide;
            entry.pid = msg.txn_pid;
            entry.incarnation = msg.txn_incarnation;
            entry.seq = msg.txn_seq;
            entry.peer = static_cast<int32_t>(k);
            entry.fseq = 0;  // learned by query, not delivered: no watermark
            entry.decision = reply.decision;
            if (!AppendLog(entry)) return;
            ApplyEntry(entry);
            SatisfyWaiters();
          }
          break;
        }
        default:
          break;
      }
      continue;
    }
    if (result == FrameReader::Result::kError) DropPeer(peer);
    break;
  }
}

void SpaceServer::PumpPeers() {
  // Partitioned: hold every outbound link down. This is also where the
  // partition's teardown of established links happens; the unacked queues
  // stay intact and resend in full after the heal, the peers' watermarks
  // absorbing any duplicates from frames that made it out before the cut.
  if (partitioned_) {
    for (PeerLink& peer : peers_) {
      if (peer.fd >= 0) DropPeer(peer);
    }
    return;
  }
  for (size_t k = 0; k < peers_.size(); ++k) {
    if (k == static_cast<size_t>(options_.server_index)) continue;
    PeerLink& peer = peers_[k];
    if (peer.fd < 0 && peer.unacked.empty()) continue;
    if (peer.fd < 0) {
      // Reconnect, throttled: the peer may be mid-restart after a fault
      // injection. The watermark on its side makes the resend harmless.
      const auto now = std::chrono::steady_clock::now();
      if (now < peer.next_attempt) continue;
      peer.next_attempt = now + std::chrono::milliseconds(20);
      Endpoint target;
      if (!ParseEndpoint(placement_[k], &target, nullptr)) continue;
      const int fd = ConnectEndpoint(target);
      if (fd < 0) continue;
      SetNonBlocking(fd);
      ApplySndbuf(fd, options_.sndbuf_bytes);
      if (target.kind == Endpoint::Kind::kTcp) ApplyTcpSocketOptions(fd);
      peer.fd = fd;
      peer.sent = 0;
      peer.outbuf.clear();
      peer.outbuf_sent = 0;
      peer.epoll_out = false;
      peer.reader = FrameReader{};
      if (epoll_fd_ >= 0) {
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, fd, &ev);
      }
    }
    // Encode the unsent tail of the queue. Deliberately no HELLO: the peer
    // connection stays pid -1 on the receiving side, outside the client
    // dedup window and the post-cancel gate (forwards and 2PC traffic must
    // drain even after a Cancel so the harvest sees every committed
    // tuple and no transaction stays in doubt).
    while (peer.sent < peer.unacked.size()) {
      const PeerMsg& msg = peer.unacked[peer.sent];
      Request request;
      request.op = msg.op;
      request.pid = static_cast<int32_t>(options_.server_index);
      request.seq = msg.fseq;
      request.outs = msg.outs;
      request.txn_pid = msg.txn_pid;
      request.txn_incarnation = msg.txn_incarnation;
      request.txn_seq = msg.txn_seq;
      request.decision = msg.decision;
      AppendFrame(EncodeRequest(request), &peer.outbuf);
      ++peer.sent;
    }
    if (!FlushCursor(peer.fd, &peer.outbuf, &peer.outbuf_sent,
                     &transport_syscalls_, &transport_bytes_)) {
      DropPeer(peer);
      continue;
    }
    // Arm EPOLLOUT only while a partial flush is pending; leaving it armed
    // on an idle writable socket would busy-wake the loop.
    const bool want_out = peer.outbuf_sent < peer.outbuf.size();
    if (epoll_fd_ >= 0 && want_out != peer.epoll_out) {
      epoll_event ev{};
      ev.events = want_out ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
      ev.data.fd = peer.fd;
      ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, peer.fd, &ev);
      peer.epoll_out = want_out;
    }
  }
}

// --- connection I/O --------------------------------------------------------

bool SpaceServer::FlushConn(Conn& conn) {
  if (conn.shm != nullptr) return FlushShmConn(conn);
  return FlushCursor(conn.fd, &conn.outbuf, &conn.outbuf_sent,
                     &transport_syscalls_, &transport_bytes_);
}

void SpaceServer::UpdateConnEvents(Conn& conn) {
  // Shm connections never arm EPOLLOUT: the registered fd is a doorbell
  // (always writable — arming would busy-loop the epoll), and ring-full
  // backpressure is signalled by the armed writer flag instead: the
  // client's next ring read rings our doorbell, whose read pass
  // re-requests the flush.
  if (conn.shm != nullptr) return;
  const bool want_out = conn.outbuf_sent < conn.outbuf.size();
  if (want_out == conn.epoll_out || epoll_fd_ < 0) return;
  epoll_event ev{};
  ev.events = want_out ? (EPOLLIN | EPOLLOUT) : EPOLLIN;
  ev.data.fd = conn.fd;
  ::epoll_ctl(epoll_fd_, EPOLL_CTL_MOD, conn.fd, &ev);
  conn.epoll_out = want_out;
}

void SpaceServer::FoldShmSyscalls(Conn& conn) {
  if (conn.shm == nullptr) return;
  const uint64_t total = conn.shm->syscalls();
  if (total > conn.shm_sys_reported) {
    transport_syscalls_ += total - conn.shm_sys_reported;
    conn.shm_sys_reported = total;
  }
}

bool SpaceServer::ReadShmConn(Conn& conn) {
  ShmConn& shm = *conn.shm;
  shm.DrainWake();
  bool wake_writer = false;
  for (;;) {
    char* dst = conn.reader.WriteBuffer(65536);
    bool wake = false;
    const size_t n = shm.in().TryRead(dst, 65536, &wake);
    wake_writer = wake_writer || wake;
    conn.reader.CommitWrite(n);
    if (n > 0) {
      transport_bytes_ += n;
      continue;
    }
    // Drained. Two-phase sleep handoff before going back to epoll: arm the
    // reader flag, re-check, and only then trust the doorbell — a client
    // publish after the arm sees the flag and rings our doorbell. Without
    // this the client's steady-state writes (flag unarmed = no doorbell)
    // would never wake the epoll loop.
    shm.in().ArmReader();
    if (shm.in().ReadAvailable() > 0) {
      shm.in().DisarmReader();
      continue;
    }
    break;
  }
  if (wake_writer) shm.WakePeer(/*data_on_out=*/false, /*space_on_in=*/true);
  // The doorbell also rings when the client consumed s2c bytes while our
  // writer flag was armed (ring-full backpressure): retry the flush.
  if (conn.outbuf_sent < conn.outbuf.size()) flush_request_.insert(conn.fd);
  bool dead = false;
  // The handshake socket carries no data after setup — readable means EOF
  // (peer death) or a protocol violation; either way the connection is done.
  char probe[16];
  const ssize_t r = ::read(conn.fd, probe, sizeof(probe));
  ++transport_syscalls_;
  if (r >= 0) dead = true;
  if (r < 0 && errno != EAGAIN && errno != EWOULDBLOCK && errno != EINTR) {
    dead = true;
  }
  if (shm.closed() && shm.in().ReadAvailable() == 0) dead = true;
  FoldShmSyscalls(conn);
  return !dead;
}

bool SpaceServer::FlushShmConn(Conn& conn) {
  ShmConn& shm = *conn.shm;
  bool wake_reader = false;
  bool ok = true;
  while (conn.outbuf_sent < conn.outbuf.size()) {
    bool wake = false;
    const size_t w =
        shm.out().TryWrite(conn.outbuf.data() + conn.outbuf_sent,
                           conn.outbuf.size() - conn.outbuf_sent, &wake);
    wake_reader = wake_reader || wake;
    if (w > 0) {
      conn.outbuf_sent += w;
      transport_bytes_ += w;
      continue;
    }
    if (shm.out().closed()) {
      ok = false;
      break;
    }
    // Ring full: arm the writer flag and re-check (two-phase, so a consume
    // between the check and the arm cannot be missed). If still full, leave
    // the flag armed and return with bytes pending — the client's next
    // TryRead sees the flag and rings our doorbell, and that read pass
    // re-requests the flush to land back here. The shm mirror of EPOLLOUT.
    shm.out().ArmWriter();
    if (shm.out().WriteSpace() > 0 || shm.out().closed()) {
      shm.out().DisarmWriter();
      continue;
    }
    break;
  }
  if (wake_reader) shm.WakePeer(/*data_on_out=*/true, /*space_on_in=*/false);
  TrimFlushed(&conn.outbuf, &conn.outbuf_sent);
  FoldShmSyscalls(conn);
  return ok;
}

// --- the serve loop -------------------------------------------------------

int SpaceServer::Serve() {
  ::signal(SIGPIPE, SIG_IGN);
  if (!Recover()) return 1;

  Endpoint listen_ep;
  {
    // A structurally unusable endpoint (malformed grammar, a unix path
    // overflowing the fixed 108-byte sun_path field — binding a silently
    // truncated path would serve on a socket no client ever connects to)
    // fails loudly with a distinct exit code the supervisor maps to a
    // structured error. Transient bind/listen failures stay exit 1.
    std::string error;
    if (!EndpointUsable(options_.endpoint, &error)) {
      std::fprintf(stderr, "fpdm server: %s\n", error.c_str());
      return 4;
    }
    ParseEndpoint(options_.endpoint, &listen_ep, nullptr);
    tcp_listener_ = listen_ep.kind == Endpoint::Kind::kTcp;
    shm_listener_ = listen_ep.kind == Endpoint::Kind::kShm;
    if (options_.listen_fd >= 0) {
      // Supervisor-pre-bound socket (port-0 TCP): already listening; the
      // concrete port lives in the placement map, not in listen_ep.
      listen_fd_ = options_.listen_fd;
    } else {
      listen_fd_ = ListenEndpoint(&listen_ep, kListenBacklog, &error);
      if (listen_fd_ < 0) {
        std::fprintf(stderr, "fpdm server: %s\n", error.c_str());
        return 1;
      }
    }
    if (!SetNonBlocking(listen_fd_)) return 1;
    if (!options_.resolved_endpoint_file.empty()) {
      // Publish the concrete endpoint (port 0 resolved) via tmp + rename,
      // so a reader never sees a partial write.
      const std::string resolved = FormatEndpoint(listen_ep);
      const std::string tmp = options_.resolved_endpoint_file + ".tmp";
      FILE* f = std::fopen(tmp.c_str(), "w");
      if (f != nullptr) {
        std::fputs(resolved.c_str(), f);
        std::fclose(f);
        ::rename(tmp.c_str(), options_.resolved_endpoint_file.c_str());
      }
    }
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
  std::vector<size_t> peer_read;
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
    peer_read.clear();
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
        continue;
      }
      for (size_t k = 0; k < peers_.size(); ++k) {
        if (peers_[k].fd != fd) continue;
        if ((ev & (EPOLLIN | EPOLLHUP | EPOLLERR)) != 0) {
          peer_read.push_back(k);
        }
        break;  // EPOLLOUT needs no marker: PumpPeers flushes every pass
      }
    }

    if (accept_ready) {
      for (;;) {
        const int fd = ::accept(listen_fd_, nullptr, nullptr);
        if (fd < 0) break;
        SetNonBlocking(fd);
        ApplySndbuf(fd, options_.sndbuf_bytes);
        if (tcp_listener_) ApplyTcpSocketOptions(fd);
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        if (shm_listener_) {
          // First-read classification: a shm handshake, or plain frames
          // (peer links and probes share the listener).
          conn->shm_accept = std::make_unique<ShmAcceptReader>();
        }
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
      if (conn.shm_accept != nullptr) {
        // Shm-listener first read: exactly ONE Step per EPOLLIN pass —
        // level-triggered epoll re-fires while bytes remain, and a
        // would-block kPending must not spin here.
        std::string prefix;
        ShmHandshake handshake;
        std::string hs_error;
        const ShmAcceptReader::Result res =
            conn.shm_accept->Step(fd, &prefix, &handshake, &hs_error);
        ++transport_syscalls_;
        if (res == ShmAcceptReader::Result::kPending) continue;
        if (res == ShmAcceptReader::Result::kClosed ||
            res == ShmAcceptReader::Result::kError) {
          to_drop.push_back(fd);
          continue;
        }
        if (res == ShmAcceptReader::Result::kShm) {
          conn.shm_accept.reset();
          // ServerAccept consumes fd on success AND failure: from here on
          // no teardown path may close it again.
          conn.fd_owned = false;
          std::string err;
          conn.shm = ShmConn::ServerAccept(fd, handshake, &err);
          if (conn.shm == nullptr) {
            to_drop.push_back(fd);
            continue;
          }
          // The doorbell joins epoll under the SAME data.fd as the
          // handshake socket, so either one waking classifies as this
          // connection; fall through into the ring drain below (the client
          // may already have written HELLO without ringing).
          epoll_event ev{};
          ev.events = EPOLLIN;
          ev.data.fd = fd;
          ::epoll_ctl(epoll_fd_, EPOLL_CTL_ADD, conn.shm->wake_fd(), &ev);
          ++transport_syscalls_;
        } else {  // kStream: plain framed protocol (peer link or probe)
          transport_bytes_ += prefix.size();
          conn.reader.Feed(prefix.data(), prefix.size());
          conn.shm_accept.reset();
        }
      }
      if (conn.shm != nullptr) {
        dead = !ReadShmConn(conn);
      } else {
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
    for (size_t k : peer_read) {
      if (peers_[k].fd >= 0) ReadPeerAcks(k);
    }

    // Group commit: one fdatasync covers every entry this pass appended,
    // before any of its replies or peer frames leave. If it fails they are
    // dropped unsent.
    if (options_.wal_sync && !SyncWal()) break;

    // Flush phase: replies queued this pass, and sockets with a partial
    // flush pending that became writable.
    flush.swap(flush_request_);
    for (int fd : flush) {
      auto it = conns_.find(fd);
      if (it == conns_.end()) continue;
      Conn& conn = *it->second;
      if (!FlushConn(conn)) {
        to_drop.push_back(fd);
        continue;
      }
      UpdateConnEvents(conn);
      if (conn.close_after_flush) closing.insert(fd);
    }
    flush.clear();
    // Connect/resend/flush the peer links: a commit this pass queued its
    // foreign outs, so they go out before we sleep.
    PumpPeers();

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
    if (conn->shm != nullptr) {
      // Push what fits into the ring (the SHUTDOWN ack is tiny); clearing
      // conns_ below runs the ShmConn destructor, whose Close() wakes the
      // client and closes the handshake socket + doorbells.
      if (release) FlushShmConn(*conn);
      continue;
    }
    if (release && conn->outbuf_sent < conn->outbuf.size()) {
      const int flags = ::fcntl(fd, F_GETFL, 0);
      if (flags >= 0) ::fcntl(fd, F_SETFL, flags & ~O_NONBLOCK);
      WriteAll(fd, conn->outbuf.data() + conn->outbuf_sent,
               conn->outbuf.size() - conn->outbuf_sent);
    }
    if (conn->fd_owned) ::close(fd);
  }
  conns_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
  ::close(epoll_fd_);
  epoll_fd_ = -1;
  // Remove the socket path only if we bound it ourselves: a supervisor's
  // pre-bound listener (listen_fd inheritance) must keep its path so a
  // restarted server is reachable at the same address.
  Endpoint ep;
  if (options_.listen_fd < 0 && ParseEndpoint(options_.endpoint, &ep, nullptr) &&
      (ep.kind == Endpoint::Kind::kUnix || ep.kind == Endpoint::Kind::kShm)) {
    ::unlink(ep.path.c_str());
  }
  return wal_failed_ ? 1 : 0;
}

}  // namespace fpdm::plinda::net
