#include "plinda/net/wire.h"

#include <cstring>

namespace fpdm::plinda::net {

size_t PlacementIndex(const BucketKeyView& key, size_t num_servers) {
  if (num_servers <= 1) return 0;
  uint64_t h = Fnv1a64(key.second);
  h ^= key.first + 0x9e3779b97f4a7c15ull + (h << 6) + (h >> 2);
  return static_cast<size_t>(h % num_servers);
}

void PutU8(uint8_t v, std::string* out) {
  out->push_back(static_cast<char>(v));
}

void PutU32(uint32_t v, std::string* out) {
  char buf[4];
  buf[0] = static_cast<char>(v & 0xff);
  buf[1] = static_cast<char>((v >> 8) & 0xff);
  buf[2] = static_cast<char>((v >> 16) & 0xff);
  buf[3] = static_cast<char>((v >> 24) & 0xff);
  out->append(buf, 4);
}

void PutU64(uint64_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v & 0xffffffffu), out);
  PutU32(static_cast<uint32_t>(v >> 32), out);
}

void PutI32(int32_t v, std::string* out) {
  PutU32(static_cast<uint32_t>(v), out);
}

void PutString(std::string_view s, std::string* out) {
  PutU32(static_cast<uint32_t>(s.size()), out);
  out->append(s.data(), s.size());
}

namespace {

/// Overwrites the 4 length bytes at `pos` after the payload behind them has
/// been serialized in place (PutTuple/PutTemplate write a placeholder first).
void PatchU32(std::string* out, size_t pos, size_t v) {
  (*out)[pos] = static_cast<char>(v & 0xff);
  (*out)[pos + 1] = static_cast<char>((v >> 8) & 0xff);
  (*out)[pos + 2] = static_cast<char>((v >> 16) & 0xff);
  (*out)[pos + 3] = static_cast<char>((v >> 24) & 0xff);
}

/// Cheap upper-ish estimate of a tuple's encoded size, for reserve().
size_t EstimateTupleBytes(const Tuple& tuple) {
  size_t n = 16;
  for (const Value& v : tuple.fields) {
    const std::string* s = std::get_if<std::string>(&v);
    n += 28 + (s != nullptr ? s->size() : 0);
  }
  return n;
}

}  // namespace

void PutTuple(const Tuple& tuple, std::string* out) {
  // Serialize straight into the destination through a patched length
  // prefix, skipping the temporary string a two-step encode would build.
  const size_t len_pos = out->size();
  PutU32(0, out);
  SerializeTuple(tuple, out);
  PatchU32(out, len_pos, out->size() - len_pos - 4);
}

void PutTemplate(const Template& tmpl, std::string* out) {
  const size_t len_pos = out->size();
  PutU32(0, out);
  SerializeTemplate(tmpl, out);
  PatchU32(out, len_pos, out->size() - len_pos - 4);
}

bool ByteReader::TakeU8(uint8_t* v) {
  if (pos + 1 > data.size()) return false;
  *v = static_cast<uint8_t>(data[pos++]);
  return true;
}

bool ByteReader::TakeU32(uint32_t* v) {
  if (pos + 4 > data.size()) return false;
  const auto* p = reinterpret_cast<const unsigned char*>(data.data() + pos);
  *v = static_cast<uint32_t>(p[0]) | (static_cast<uint32_t>(p[1]) << 8) |
       (static_cast<uint32_t>(p[2]) << 16) | (static_cast<uint32_t>(p[3]) << 24);
  pos += 4;
  return true;
}

bool ByteReader::TakeU64(uint64_t* v) {
  uint32_t lo = 0, hi = 0;
  if (!TakeU32(&lo) || !TakeU32(&hi)) return false;
  *v = static_cast<uint64_t>(lo) | (static_cast<uint64_t>(hi) << 32);
  return true;
}

bool ByteReader::TakeI32(int32_t* v) {
  uint32_t u = 0;
  if (!TakeU32(&u)) return false;
  *v = static_cast<int32_t>(u);
  return true;
}

bool ByteReader::TakeString(std::string* s) {
  uint32_t len = 0;
  if (!TakeU32(&len)) return false;
  if (len > kMaxFramePayload || pos + len > data.size()) return false;
  s->assign(data.data() + pos, len);
  pos += len;
  return true;
}

bool ByteReader::TakeTuple(Tuple* tuple) {
  // Parse in place out of the receive buffer: no intermediate string.
  uint32_t len = 0;
  if (!TakeU32(&len)) return false;
  if (len > kMaxFramePayload || pos + len > data.size()) return false;
  const std::string_view text = data.substr(pos, len);
  size_t tpos = 0;
  if (!DeserializeTuple(text, &tpos, tuple) || tpos != text.size()) {
    return false;
  }
  pos += len;
  return true;
}

bool ByteReader::TakeTemplate(Template* tmpl) {
  uint32_t len = 0;
  if (!TakeU32(&len)) return false;
  if (len > kMaxFramePayload || pos + len > data.size()) return false;
  const std::string_view text = data.substr(pos, len);
  size_t tpos = 0;
  if (!DeserializeTemplate(text, &tpos, tmpl) || tpos != text.size()) {
    return false;
  }
  pos += len;
  return true;
}

namespace {

bool Fail(std::string* error, const char* what) {
  if (error != nullptr) *error = what;
  return false;
}

}  // namespace

void AppendFrame(std::string_view payload, std::string* out) {
  PutU32(static_cast<uint32_t>(payload.size()), out);
  out->append(payload.data(), payload.size());
}

void FrameReader::Feed(const char* data, size_t n) {
  buffer_.append(data, n);
}

char* FrameReader::WriteBuffer(size_t n) {
  // Compact the consumed prefix before growing: reclaimed space often makes
  // the resize a no-op, and no NextView() view can be live across a
  // WriteBuffer() call (documented contract), so moving bytes is safe here.
  if (pos_ > 0 && (pos_ >= buffer_.size() || pos_ > (64u << 10))) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  write_base_ = buffer_.size();
  buffer_.resize(write_base_ + n);
  return buffer_.data() + write_base_;
}

void FrameReader::CommitWrite(size_t n) {
  buffer_.resize(write_base_ + n);
}

FrameReader::Result FrameReader::PeekFrame(size_t* len) {
  if (broken_) return Result::kError;
  // Compact the consumed prefix occasionally so the buffer doesn't grow
  // without bound on long-lived connections.
  if (pos_ > 0 && (pos_ >= buffer_.size() || pos_ > (64u << 10))) {
    buffer_.erase(0, pos_);
    pos_ = 0;
  }
  if (buffer_.size() - pos_ < 4) return Result::kNeedMore;
  const auto* p = reinterpret_cast<const unsigned char*>(buffer_.data() + pos_);
  const uint32_t frame_len = static_cast<uint32_t>(p[0]) |
                             (static_cast<uint32_t>(p[1]) << 8) |
                             (static_cast<uint32_t>(p[2]) << 16) |
                             (static_cast<uint32_t>(p[3]) << 24);
  if (frame_len > kMaxFramePayload) {
    broken_ = true;
    error_ = "frame length " + std::to_string(frame_len) + " exceeds limit";
    return Result::kError;
  }
  if (buffer_.size() - pos_ - 4 < frame_len) return Result::kNeedMore;
  *len = frame_len;
  return Result::kFrame;
}

FrameReader::Result FrameReader::Next(std::string* payload) {
  size_t len = 0;
  const Result result = PeekFrame(&len);
  if (result != Result::kFrame) return result;
  payload->assign(buffer_, pos_ + 4, len);
  pos_ += 4 + len;
  return Result::kFrame;
}

FrameReader::Result FrameReader::NextView(std::string_view* payload) {
  size_t len = 0;
  const Result result = PeekFrame(&len);
  if (result != Result::kFrame) return result;
  *payload = std::string_view(buffer_).substr(pos_ + 4, len);
  pos_ += 4 + len;
  return Result::kFrame;
}

std::string EncodeRequest(const Request& request) {
  std::string out;
  size_t estimate = 64 + EstimateTupleBytes(request.tuple) +
                    EstimateTupleBytes(request.continuation);
  for (const Tuple& t : request.outs) estimate += EstimateTupleBytes(t);
  for (const BatchOp& op : request.batch) {
    estimate += 16 + EstimateTupleBytes(op.tuple);
  }
  out.reserve(estimate);
  PutU8(static_cast<uint8_t>(request.op), &out);
  PutI32(request.pid, &out);
  PutI32(request.incarnation, &out);
  PutU64(request.seq, &out);
  PutU8(request.flags, &out);
  PutTemplate(request.tmpl, &out);
  PutTuple(request.tuple, &out);
  PutU32(static_cast<uint32_t>(request.outs.size()), &out);
  for (const Tuple& t : request.outs) PutTuple(t, &out);
  PutU8(request.has_continuation ? 1 : 0, &out);
  PutTuple(request.continuation, &out);
  PutU32(static_cast<uint32_t>(request.batch.size()), &out);
  for (const BatchOp& op : request.batch) {
    PutU8(static_cast<uint8_t>(op.op), &out);
    PutU8(op.flags, &out);
    PutTuple(op.tuple, &out);
    PutTemplate(op.tmpl, &out);
  }
  PutU64(request.cont_stamp, &out);
  PutU32(static_cast<uint32_t>(request.participants.size()), &out);
  for (uint32_t k : request.participants) PutU32(k, &out);
  PutI32(request.txn_pid, &out);
  PutI32(request.txn_incarnation, &out);
  PutU64(request.txn_seq, &out);
  PutU8(request.decision, &out);
  return out;
}

bool DecodeRequest(std::string_view payload, Request* request,
                   std::string* error) {
  ByteReader r{payload};
  uint8_t op = 0;
  if (!r.TakeU8(&op)) return Fail(error, "request: truncated opcode");
  if (op < static_cast<uint8_t>(Op::kHello) ||
      op > static_cast<uint8_t>(Op::kChaosPartition)) {
    return Fail(error, "request: unknown opcode");
  }
  request->op = static_cast<Op>(op);
  if (!r.TakeI32(&request->pid) || !r.TakeI32(&request->incarnation) ||
      !r.TakeU64(&request->seq) || !r.TakeU8(&request->flags)) {
    return Fail(error, "request: truncated header");
  }
  if (!r.TakeTemplate(&request->tmpl)) {
    return Fail(error, "request: malformed template");
  }
  if (!r.TakeTuple(&request->tuple)) {
    return Fail(error, "request: malformed tuple");
  }
  uint32_t n_outs = 0;
  if (!r.TakeU32(&n_outs)) return Fail(error, "request: truncated outs");
  request->outs.clear();
  for (uint32_t i = 0; i < n_outs; ++i) {
    Tuple t;
    if (!r.TakeTuple(&t)) return Fail(error, "request: malformed out tuple");
    request->outs.push_back(std::move(t));
  }
  uint8_t has_cont = 0;
  if (!r.TakeU8(&has_cont)) {
    return Fail(error, "request: truncated continuation flag");
  }
  request->has_continuation = has_cont != 0;
  if (!r.TakeTuple(&request->continuation)) {
    return Fail(error, "request: malformed continuation");
  }
  uint32_t n_batch = 0;
  if (!r.TakeU32(&n_batch)) return Fail(error, "request: truncated batch");
  request->batch.clear();
  for (uint32_t i = 0; i < n_batch; ++i) {
    BatchOp op;
    uint8_t sub_op = 0;
    if (!r.TakeU8(&sub_op) || !r.TakeU8(&op.flags)) {
      return Fail(error, "request: truncated batch op");
    }
    if (sub_op != static_cast<uint8_t>(Op::kOut) &&
        sub_op != static_cast<uint8_t>(Op::kIn)) {
      return Fail(error, "request: unsupported batch sub-op");
    }
    op.op = static_cast<Op>(sub_op);
    if (!r.TakeTuple(&op.tuple) || !r.TakeTemplate(&op.tmpl)) {
      return Fail(error, "request: malformed batch op");
    }
    request->batch.push_back(std::move(op));
  }
  if (!r.TakeU64(&request->cont_stamp)) {
    return Fail(error, "request: truncated continuation stamp");
  }
  uint32_t n_participants = 0;
  if (!r.TakeU32(&n_participants)) {
    return Fail(error, "request: truncated participants");
  }
  request->participants.clear();
  for (uint32_t i = 0; i < n_participants; ++i) {
    uint32_t k = 0;
    if (!r.TakeU32(&k)) {
      return Fail(error, "request: malformed participant index");
    }
    request->participants.push_back(k);
  }
  if (!r.TakeI32(&request->txn_pid) ||
      !r.TakeI32(&request->txn_incarnation) ||
      !r.TakeU64(&request->txn_seq) || !r.TakeU8(&request->decision)) {
    return Fail(error, "request: truncated transaction identity");
  }
  if (!r.AtEnd()) return Fail(error, "request: trailing bytes");
  return true;
}

std::string EncodeReply(const Reply& reply) {
  std::string out;
  EncodeReplyInto(reply, &out);
  return out;
}

void EncodeReplyInto(const Reply& reply, std::string* out_ptr) {
  std::string& out = *out_ptr;
  size_t estimate = 128 + EstimateTupleBytes(reply.tuple) +
                    32 * reply.parked.size() + reply.error.size();
  for (const std::string& path : reply.placement) estimate += 8 + path.size();
  for (const Tuple& t : reply.tuples) estimate += EstimateTupleBytes(t);
  for (const BatchItem& item : reply.items) {
    estimate += 8 + EstimateTupleBytes(item.tuple);
  }
  out.reserve(out.size() + estimate);
  PutU8(static_cast<uint8_t>(reply.status), &out);
  PutU8(reply.has_tuple ? 1 : 0, &out);
  PutTuple(reply.tuple, &out);
  PutU32(static_cast<uint32_t>(reply.tuples.size()), &out);
  for (const Tuple& t : reply.tuples) PutTuple(t, &out);
  PutU64(reply.count, &out);
  PutU64(reply.tuple_ops, &out);
  PutU64(reply.commits, &out);
  PutU64(reply.aborts, &out);
  PutU64(reply.checkpoints, &out);
  PutU64(reply.ops_replayed, &out);
  PutU64(reply.batch_frames, &out);
  PutU64(reply.batched_ops, &out);
  PutU64(reply.publish_epoch, &out);
  PutU32(static_cast<uint32_t>(reply.parked.size()), &out);
  for (const ParkedWaiter& w : reply.parked) {
    PutI32(w.pid, &out);
    PutU8(w.remove ? 1 : 0, &out);
    PutString(w.tmpl_text, &out);
  }
  PutU32(static_cast<uint32_t>(reply.items.size()), &out);
  for (const BatchItem& item : reply.items) {
    PutU8(static_cast<uint8_t>(item.status), &out);
    PutU8(item.has_tuple ? 1 : 0, &out);
    PutTuple(item.tuple, &out);
  }
  PutString(reply.error, &out);
  PutU32(static_cast<uint32_t>(reply.placement.size()), &out);
  for (const std::string& path : reply.placement) PutString(path, &out);
  PutU64(reply.cont_stamp, &out);
  PutU64(reply.forwards_pending, &out);
  PutU8(reply.vote, &out);
  PutU8(reply.decision, &out);
  PutU64(reply.txn_prepares, &out);
  PutU64(reply.txn_cross_server, &out);
  PutU64(reply.wal_group_commits, &out);
  PutU64(reply.wal_synced_bytes, &out);
  PutU64(reply.transport_syscalls, &out);
  PutU64(reply.transport_bytes, &out);
  PutU64(reply.state_lock_waits, &out);
  PutU64(reply.stripe_conflicts, &out);
}

bool DecodeReply(std::string_view payload, Reply* reply, std::string* error) {
  ByteReader r{payload};
  uint8_t status = 0;
  if (!r.TakeU8(&status)) return Fail(error, "reply: truncated status");
  if (status > static_cast<uint8_t>(WireStatus::kError)) {
    return Fail(error, "reply: unknown status");
  }
  reply->status = static_cast<WireStatus>(status);
  uint8_t has_tuple = 0;
  if (!r.TakeU8(&has_tuple)) return Fail(error, "reply: truncated flags");
  reply->has_tuple = has_tuple != 0;
  if (!r.TakeTuple(&reply->tuple)) {
    return Fail(error, "reply: malformed tuple");
  }
  uint32_t n_tuples = 0;
  if (!r.TakeU32(&n_tuples)) return Fail(error, "reply: truncated tuples");
  reply->tuples.clear();
  for (uint32_t i = 0; i < n_tuples; ++i) {
    Tuple t;
    if (!r.TakeTuple(&t)) return Fail(error, "reply: malformed tuple list");
    reply->tuples.push_back(std::move(t));
  }
  if (!r.TakeU64(&reply->count) || !r.TakeU64(&reply->tuple_ops) ||
      !r.TakeU64(&reply->commits) || !r.TakeU64(&reply->aborts) ||
      !r.TakeU64(&reply->checkpoints) || !r.TakeU64(&reply->ops_replayed) ||
      !r.TakeU64(&reply->batch_frames) || !r.TakeU64(&reply->batched_ops) ||
      !r.TakeU64(&reply->publish_epoch)) {
    return Fail(error, "reply: truncated counters");
  }
  uint32_t n_parked = 0;
  if (!r.TakeU32(&n_parked)) return Fail(error, "reply: truncated parked");
  reply->parked.clear();
  for (uint32_t i = 0; i < n_parked; ++i) {
    ParkedWaiter w;
    uint8_t remove = 0;
    if (!r.TakeI32(&w.pid) || !r.TakeU8(&remove) ||
        !r.TakeString(&w.tmpl_text)) {
      return Fail(error, "reply: malformed parked entry");
    }
    w.remove = remove != 0;
    reply->parked.push_back(std::move(w));
  }
  uint32_t n_items = 0;
  if (!r.TakeU32(&n_items)) return Fail(error, "reply: truncated items");
  reply->items.clear();
  for (uint32_t i = 0; i < n_items; ++i) {
    BatchItem item;
    uint8_t status = 0;
    uint8_t has_tuple = 0;
    if (!r.TakeU8(&status) || !r.TakeU8(&has_tuple) ||
        !r.TakeTuple(&item.tuple)) {
      return Fail(error, "reply: malformed batch item");
    }
    if (status > static_cast<uint8_t>(WireStatus::kError)) {
      return Fail(error, "reply: unknown batch item status");
    }
    item.status = static_cast<WireStatus>(status);
    item.has_tuple = has_tuple != 0;
    reply->items.push_back(std::move(item));
  }
  if (!r.TakeString(&reply->error)) {
    return Fail(error, "reply: truncated error text");
  }
  uint32_t n_placement = 0;
  if (!r.TakeU32(&n_placement)) {
    return Fail(error, "reply: truncated placement");
  }
  reply->placement.clear();
  for (uint32_t i = 0; i < n_placement; ++i) {
    std::string path;
    if (!r.TakeString(&path)) {
      return Fail(error, "reply: malformed placement entry");
    }
    reply->placement.push_back(std::move(path));
  }
  if (!r.TakeU64(&reply->cont_stamp) || !r.TakeU64(&reply->forwards_pending)) {
    return Fail(error, "reply: truncated placement counters");
  }
  if (!r.TakeU8(&reply->vote) || !r.TakeU8(&reply->decision) ||
      !r.TakeU64(&reply->txn_prepares) ||
      !r.TakeU64(&reply->txn_cross_server)) {
    return Fail(error, "reply: truncated transaction counters");
  }
  if (!r.TakeU64(&reply->wal_group_commits) ||
      !r.TakeU64(&reply->wal_synced_bytes)) {
    return Fail(error, "reply: truncated wal counters");
  }
  if (!r.TakeU64(&reply->transport_syscalls) ||
      !r.TakeU64(&reply->transport_bytes)) {
    return Fail(error, "reply: truncated transport counters");
  }
  if (!r.TakeU64(&reply->state_lock_waits) ||
      !r.TakeU64(&reply->stripe_conflicts)) {
    return Fail(error, "reply: truncated lock counters");
  }
  if (!r.AtEnd()) return Fail(error, "reply: trailing bytes");
  return true;
}

std::string EncodeLogEntry(const LogEntry& entry) {
  std::string out;
  EncodeLogEntryInto(entry, &out);
  return out;
}

void EncodeLogEntryInto(const LogEntry& entry, std::string* out_ptr) {
  std::string& out = *out_ptr;
  size_t estimate = 48 + EstimateTupleBytes(entry.tuple) +
                    EstimateTupleBytes(entry.continuation);
  for (const Tuple& t : entry.outs) estimate += EstimateTupleBytes(t);
  for (const BatchEffect& e : entry.effects) {
    estimate += 8 + EstimateTupleBytes(e.tuple);
  }
  out.reserve(out.size() + estimate);
  PutU8(static_cast<uint8_t>(entry.kind), &out);
  PutI32(entry.pid, &out);
  PutI32(entry.incarnation, &out);
  PutU64(entry.seq, &out);
  PutU8(entry.in_txn ? 1 : 0, &out);
  PutTuple(entry.tuple, &out);
  PutU32(static_cast<uint32_t>(entry.outs.size()), &out);
  for (const Tuple& t : entry.outs) PutTuple(t, &out);
  PutU8(entry.has_continuation ? 1 : 0, &out);
  PutTuple(entry.continuation, &out);
  PutU32(static_cast<uint32_t>(entry.effects.size()), &out);
  for (const BatchEffect& e : entry.effects) {
    PutU8(static_cast<uint8_t>(e.kind), &out);
    PutU8(e.in_txn ? 1 : 0, &out);
    PutTuple(e.tuple, &out);
  }
  PutU64(entry.cont_stamp, &out);
  PutI32(entry.peer, &out);
  PutU64(entry.fseq, &out);
  PutU8(entry.decision, &out);
  PutU32(static_cast<uint32_t>(entry.participants.size()), &out);
  for (uint32_t k : entry.participants) PutU32(k, &out);
}

bool DecodeLogEntry(std::string_view payload, LogEntry* entry,
                    std::string* error) {
  ByteReader r{payload};
  uint8_t kind = 0;
  if (!r.TakeU8(&kind)) return Fail(error, "log: truncated kind");
  if (kind < static_cast<uint8_t>(LogKind::kHello) ||
      kind > static_cast<uint8_t>(LogKind::kDecide)) {
    return Fail(error, "log: unknown kind");
  }
  entry->kind = static_cast<LogKind>(kind);
  uint8_t in_txn = 0;
  if (!r.TakeI32(&entry->pid) || !r.TakeI32(&entry->incarnation) ||
      !r.TakeU64(&entry->seq) || !r.TakeU8(&in_txn)) {
    return Fail(error, "log: truncated header");
  }
  entry->in_txn = in_txn != 0;
  if (!r.TakeTuple(&entry->tuple)) return Fail(error, "log: malformed tuple");
  uint32_t n_outs = 0;
  if (!r.TakeU32(&n_outs)) return Fail(error, "log: truncated outs");
  entry->outs.clear();
  for (uint32_t i = 0; i < n_outs; ++i) {
    Tuple t;
    if (!r.TakeTuple(&t)) return Fail(error, "log: malformed out tuple");
    entry->outs.push_back(std::move(t));
  }
  uint8_t has_cont = 0;
  if (!r.TakeU8(&has_cont)) return Fail(error, "log: truncated flag");
  entry->has_continuation = has_cont != 0;
  if (!r.TakeTuple(&entry->continuation)) {
    return Fail(error, "log: malformed continuation");
  }
  uint32_t n_effects = 0;
  if (!r.TakeU32(&n_effects)) return Fail(error, "log: truncated effects");
  entry->effects.clear();
  for (uint32_t i = 0; i < n_effects; ++i) {
    BatchEffect e;
    uint8_t effect_kind = 0;
    uint8_t in_txn = 0;
    if (!r.TakeU8(&effect_kind) || !r.TakeU8(&in_txn)) {
      return Fail(error, "log: truncated effect");
    }
    if (effect_kind < static_cast<uint8_t>(BatchEffectKind::kPublished) ||
        effect_kind > static_cast<uint8_t>(BatchEffectKind::kMiss)) {
      return Fail(error, "log: unknown effect kind");
    }
    e.kind = static_cast<BatchEffectKind>(effect_kind);
    e.in_txn = in_txn != 0;
    if (!r.TakeTuple(&e.tuple)) return Fail(error, "log: malformed effect");
    entry->effects.push_back(std::move(e));
  }
  if (!r.TakeU64(&entry->cont_stamp)) {
    return Fail(error, "log: truncated continuation stamp");
  }
  if (!r.TakeI32(&entry->peer) || !r.TakeU64(&entry->fseq) ||
      !r.TakeU8(&entry->decision)) {
    return Fail(error, "log: truncated transaction fields");
  }
  uint32_t n_participants = 0;
  if (!r.TakeU32(&n_participants)) {
    return Fail(error, "log: truncated participants");
  }
  entry->participants.clear();
  for (uint32_t i = 0; i < n_participants; ++i) {
    uint32_t k = 0;
    if (!r.TakeU32(&k)) return Fail(error, "log: malformed participant index");
    entry->participants.push_back(k);
  }
  if (!r.AtEnd()) return Fail(error, "log: trailing bytes");
  return true;
}

}  // namespace fpdm::plinda::net
