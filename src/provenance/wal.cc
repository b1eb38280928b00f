#include "provenance/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <array>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <istream>
#include <utility>

#include "common/check.h"
#include "common/fault.h"
#include "common/rng.h"
#include "common/str_util.h"
#include "common/timer.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/provio.h"

namespace lipstick {

const char* FsyncPolicyToString(FsyncPolicy policy) {
  switch (policy) {
    case FsyncPolicy::kNever:
      return "never";
    case FsyncPolicy::kOnCommit:
      return "commit";
    case FsyncPolicy::kOnSavepoint:
      return "savepoint";
  }
  return "?";
}

namespace walfmt {

namespace {

/// Slicing-by-8 tables of the reflected IEEE polynomial: row 0 is the
/// byte-at-a-time table, and row k maps a byte to the CRC of that byte
/// followed by k zero bytes, so one step folds in eight input bytes.
constexpr std::array<std::array<uint32_t, 256>, 8> MakeCrcTables() {
  std::array<std::array<uint32_t, 256>, 8> t{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t c = i;
    for (int k = 0; k < 8; ++k) {
      c = (c & 1u) != 0 ? 0xedb88320u ^ (c >> 1) : c >> 1;
    }
    t[0][i] = c;
  }
  for (size_t k = 1; k < 8; ++k) {
    for (uint32_t i = 0; i < 256; ++i) {
      t[k][i] = t[0][t[k - 1][i] & 0xffu] ^ (t[k - 1][i] >> 8);
    }
  }
  return t;
}

constexpr std::array<std::array<uint32_t, 256>, 8> kCrcTables =
    MakeCrcTables();

uint32_t LoadLE32(const unsigned char* p) {
  return static_cast<uint32_t>(p[0]) | static_cast<uint32_t>(p[1]) << 8 |
         static_cast<uint32_t>(p[2]) << 16 | static_cast<uint32_t>(p[3]) << 24;
}

}  // namespace

uint32_t Crc32(const void* data, size_t n) {
  const auto& t = kCrcTables;
  uint32_t crc = 0xffffffffu;
  const auto* p = static_cast<const unsigned char*>(data);
  for (; n >= 8; n -= 8, p += 8) {
    const uint32_t lo = crc ^ LoadLE32(p);
    const uint32_t hi = LoadLE32(p + 4);
    crc = t[7][lo & 0xffu] ^ t[6][(lo >> 8) & 0xffu] ^
          t[5][(lo >> 16) & 0xffu] ^ t[4][lo >> 24] ^ t[3][hi & 0xffu] ^
          t[2][(hi >> 8) & 0xffu] ^ t[1][(hi >> 16) & 0xffu] ^ t[0][hi >> 24];
  }
  for (; n > 0; --n, ++p) crc = t[0][(crc ^ *p) & 0xffu] ^ (crc >> 8);
  return crc ^ 0xffffffffu;
}

namespace {

void StoreU32(char* at, uint32_t v) {
  at[0] = static_cast<char>(v);
  at[1] = static_cast<char>(v >> 8);
  at[2] = static_cast<char>(v >> 16);
  at[3] = static_cast<char>(v >> 24);
}

void PutU8(std::string* out, uint8_t v) {
  out->push_back(static_cast<char>(v));
}

void PutU32(std::string* out, uint32_t v) {
  char b[4];
  StoreU32(b, v);
  out->append(b, 4);
}

void PutU64(std::string* out, uint64_t v) {
  PutU32(out, static_cast<uint32_t>(v));
  PutU32(out, static_cast<uint32_t>(v >> 32));
}

void PutIds(std::string* out, std::span<const NodeId> ids) {
  PutU32(out, static_cast<uint32_t>(ids.size()));
  for (NodeId id : ids) PutU64(out, id);
}

void PutValue(std::string* out, const Value& v) {
  if (v.is_bool()) {
    PutU8(out, 'B');
    PutU8(out, v.bool_value() ? 1 : 0);
  } else if (v.is_int()) {
    PutU8(out, 'I');
    PutU64(out, static_cast<uint64_t>(v.int_value()));
  } else if (v.is_double()) {
    PutU8(out, 'D');
    uint64_t bits;
    double d = v.double_value();
    std::memcpy(&bits, &d, sizeof bits);
    PutU64(out, bits);
  } else if (v.is_string()) {
    const std::string& s = v.string_value();
    PutU8(out, 'S');
    PutU32(out, static_cast<uint32_t>(s.size()));
    out->append(s);
  } else {
    // Null, or a nested bag/tuple: graph v-nodes keep scalars only.
    PutU8(out, 'N');
  }
}

/// Starts a frame of `type` at the end of `out`: length and CRC
/// placeholders, then the type byte. Returns the frame's offset.
size_t BeginFrame(std::string* out, RecordType type) {
  size_t at = out->size();
  out->append(kFrameBytes, '\0');
  PutU8(out, static_cast<uint8_t>(type));
  return at;
}

/// Patches the length and CRC of the frame BeginFrame started at `at`.
void EndFrame(std::string* out, size_t at) {
  size_t len = out->size() - at - kFrameBytes;  // type byte + payload
  LIPSTICK_CHECK(len <= kMaxRecordBytes, "wal record too large");
  char* frame = out->data() + at;
  StoreU32(frame, static_cast<uint32_t>(len));
  StoreU32(frame + 4, Crc32(frame + kFrameBytes, len));
}

/// Little-endian payload cursor. Reads past the end set ok = false and
/// return zeros rather than trapping, so the replayer can validate once at
/// the end of each record.
struct Cursor {
  const char* p;
  const char* end;
  bool ok = true;

  explicit Cursor(std::string_view s) : p(s.data()), end(s.data() + s.size()) {}

  uint8_t U8() {
    if (end - p < 1) {
      ok = false;
      return 0;
    }
    return static_cast<uint8_t>(*p++);
  }

  uint32_t U32() {
    if (end - p < 4) {
      ok = false;
      p = end;
      return 0;
    }
    uint32_t v = static_cast<uint32_t>(static_cast<uint8_t>(p[0])) |
                 static_cast<uint32_t>(static_cast<uint8_t>(p[1])) << 8 |
                 static_cast<uint32_t>(static_cast<uint8_t>(p[2])) << 16 |
                 static_cast<uint32_t>(static_cast<uint8_t>(p[3])) << 24;
    p += 4;
    return v;
  }

  uint64_t U64() {
    uint64_t lo = U32();
    uint64_t hi = U32();
    return lo | hi << 32;
  }

  std::string_view Bytes(size_t n) {
    if (static_cast<size_t>(end - p) < n) {
      ok = false;
      p = end;
      return {};
    }
    std::string_view s(p, n);
    p += n;
    return s;
  }

  /// A u32 count, then that many u64s. A count the remaining bytes cannot
  /// hold fails the cursor before anything is reserved, so a short record
  /// never drives a large allocation.
  std::vector<uint64_t> U64List() {
    std::vector<uint64_t> out;
    uint32_t n = U32();
    if (n > static_cast<size_t>(end - p) / 8) {
      ok = false;
      return out;
    }
    out.reserve(n);
    for (uint32_t i = 0; i < n; ++i) out.push_back(U64());
    return out;
  }

  size_t Remaining() const { return static_cast<size_t>(end - p); }
  bool AtEnd() const { return p == end; }
};

Result<Value> ReadValue(Cursor* c) {
  uint8_t tag = c->U8();
  switch (tag) {
    case 'N':
      return Value::Null();
    case 'B':
      return Value::Bool(c->U8() != 0);
    case 'I':
      return Value::Int(static_cast<int64_t>(c->U64()));
    case 'D': {
      uint64_t bits = c->U64();
      double d;
      std::memcpy(&d, &bits, sizeof d);
      return Value::Double(d);
    }
    case 'S': {
      uint32_t n = c->U32();
      std::string_view s = c->Bytes(n);
      if (!c->ok) break;
      return Value::String(std::string(s));
    }
    default:
      break;
  }
  return Status::ParseError(
      StrCat("wal: bad value tag ", static_cast<int>(tag)));
}

Status MalformedRecord(const Record& rec) {
  return Status::ParseError(
      StrCat("wal replay: malformed record type ",
             static_cast<int>(rec.type), " at offset ", rec.offset));
}

bool ParseSeqName(std::string_view name, std::string_view prefix,
                  std::string_view suffix, uint64_t* seq) {
  if (name.size() <= prefix.size() + suffix.size()) return false;
  if (name.substr(0, prefix.size()) != prefix) return false;
  if (name.substr(name.size() - suffix.size()) != suffix) return false;
  std::string_view digits =
      name.substr(prefix.size(), name.size() - prefix.size() - suffix.size());
  uint64_t v = 0;
  for (char c : digits) {
    if (c < '0' || c > '9') return false;
    v = v * 10 + static_cast<uint64_t>(c - '0');
  }
  *seq = v;
  return true;
}

}  // namespace

void EncodeHeader(std::string* out, std::string_view magic, uint64_t seq) {
  LIPSTICK_CHECK(magic.size() == kMagicBytes, "segment magic size mismatch");
  out->append(magic);
  PutU32(out, kVersion);
  PutU64(out, seq);
}

void EncodeIntern(std::string* out, StrId id, std::string_view s) {
  size_t at = BeginFrame(out, RecordType::kIntern);
  PutU32(out, id);
  PutU32(out, static_cast<uint32_t>(s.size()));
  out->append(s);
  EndFrame(out, at);
}

void EncodeNodeAppend(std::string* out, NodeId id, NodeLabel label,
                      NodeRole role, uint8_t flags, uint32_t invocation,
                      StrId payload, std::span<const NodeId> parents) {
  size_t at = BeginFrame(out, RecordType::kNodeAppend);
  PutU64(out, id);
  PutU8(out, static_cast<uint8_t>(label));
  PutU8(out, static_cast<uint8_t>(role));
  PutU8(out, flags);
  PutU32(out, invocation);
  PutU32(out, payload);
  PutIds(out, parents);
  EndFrame(out, at);
}

void EncodeNodeValue(std::string* out, NodeId id, const Value& value) {
  size_t at = BeginFrame(out, RecordType::kNodeValue);
  PutU64(out, id);
  PutValue(out, value);
  EndFrame(out, at);
}

void EncodeSetParents(std::string* out, NodeId id,
                      std::span<const NodeId> parents) {
  size_t at = BeginFrame(out, RecordType::kSetParents);
  PutU64(out, id);
  PutIds(out, parents);
  EndFrame(out, at);
}

void EncodeSetAlive(std::string* out, NodeId id, bool alive) {
  size_t at = BeginFrame(out, RecordType::kSetAlive);
  PutU64(out, id);
  PutU8(out, alive ? 1 : 0);
  EndFrame(out, at);
}

void EncodeKillShardTail(std::string* out, uint32_t shard, uint64_t from) {
  size_t at = BeginFrame(out, RecordType::kKillShardTail);
  PutU32(out, shard);
  PutU64(out, from);
  EndFrame(out, at);
}

void EncodeBeginInvocation(std::string* out, uint32_t invocation,
                           const InvocationInfo& info) {
  size_t at = BeginFrame(out, RecordType::kBeginInvocation);
  PutU32(out, invocation);
  PutU32(out, info.module_name);
  PutU32(out, info.instance_name);
  PutU32(out, info.execution);
  PutU64(out, info.m_node);
  EndFrame(out, at);
}

void EncodeInvocationNode(std::string* out, uint32_t invocation, int kind,
                          NodeId node) {
  size_t at = BeginFrame(out, RecordType::kInvocationNode);
  PutU32(out, invocation);
  PutU8(out, static_cast<uint8_t>(kind));
  PutU64(out, node);
  EndFrame(out, at);
}

void EncodeAbortInvocation(std::string* out, uint32_t invocation) {
  size_t at = BeginFrame(out, RecordType::kAbortInvocation);
  PutU32(out, invocation);
  EndFrame(out, at);
}

void EncodeTruncateInvocations(std::string* out, uint64_t count) {
  size_t at = BeginFrame(out, RecordType::kTruncateInvocations);
  PutU64(out, count);
  EndFrame(out, at);
}

void EncodeCommitInvocation(std::string* out, uint32_t invocation) {
  size_t at = BeginFrame(out, RecordType::kCommitInvocation);
  PutU32(out, invocation);
  EndFrame(out, at);
}

void EncodeSavepoint(std::string* out, uint32_t execution,
                     const ProvenanceGraph::Savepoint& extent) {
  size_t at = BeginFrame(out, RecordType::kSavepoint);
  PutU32(out, execution);
  PutU64(out, extent.invocation_count);
  PutU32(out, static_cast<uint32_t>(extent.shard_sizes.size()));
  for (size_t size : extent.shard_sizes) PutU64(out, size);
  EndFrame(out, at);
}

std::string SegmentFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "wal-%010llu.log",
                static_cast<unsigned long long>(seq));
  return buf;
}

std::string CheckpointFileName(uint64_t seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "ckpt-%010llu.pg",
                static_cast<unsigned long long>(seq));
  return buf;
}

bool ParseSegmentName(std::string_view name, uint64_t* seq) {
  return ParseSeqName(name, "wal-", ".log", seq);
}

bool ParseCheckpointName(std::string_view name, uint64_t* seq) {
  return ParseSeqName(name, "ckpt-", ".pg", seq);
}

void SegmentScanner::ReadHeader(std::string_view magic) {
  if (!Buffered(kHeaderBytes)) {
    header_status_ = Status::ParseError("short segment header");
    torn_reason_ = "short header";
    return;
  }
  if (data_.substr(0, kMagicBytes) != magic) {
    header_status_ = Status::ParseError(
        StrCat("bad segment magic (expected ", magic, ")"));
    torn_reason_ = "bad magic";
    return;
  }
  Cursor c(data_.substr(kMagicBytes, 12));
  uint32_t version = c.U32();
  sequence_ = c.U64();
  if (version != kVersion) {
    header_status_ =
        Status::ParseError(StrCat("unsupported segment version ", version));
    torn_reason_ = "bad version";
    return;
  }
  pos_ = kHeaderBytes;
}

bool SegmentScanner::Buffered(size_t n) {
  // 64 KiB stays under glibc's mmap threshold, which freeing a larger buffer
  // raises for the whole process. A longer frame grows the window by windows.
  constexpr size_t kWindowBytes = 64 * 1024;
  while (data_.size() - pos_ < n) {
    if (in_ == nullptr || !*in_) return false;
    window_.erase(0, pos_);  // drop the scanned bytes
    base_ += std::exchange(pos_, 0);
    const size_t have = window_.size();
    window_.resize(have + kWindowBytes - have % kWindowBytes);
    in_->read(window_.data() + have,
              static_cast<std::streamsize>(window_.size() - have));
    window_.resize(have + static_cast<size_t>(in_->gcount()));
    data_ = window_;
  }
  return true;
}

bool SegmentScanner::Next(Record* out) {
  if (!header_status_.ok()) return false;
  if (!torn_reason_.empty()) return false;
  if (!Buffered(1)) return false;  // clean end
  if (!Buffered(kFrameBytes)) {
    torn_reason_ = "short frame header";
    return false;
  }
  Cursor c(data_.substr(pos_, kFrameBytes));
  uint32_t len = c.U32();
  uint32_t crc = c.U32();
  if (len == 0 || len > kMaxRecordBytes) {
    torn_reason_ = "bad record length";
    return false;
  }
  if (!Buffered(kFrameBytes + len)) {
    torn_reason_ = "short record";
    return false;
  }
  const char* body = data_.data() + pos_ + kFrameBytes;
  if (Crc32(body, len) != crc) {
    torn_reason_ = "bad crc";
    return false;
  }
  out->type = static_cast<RecordType>(static_cast<uint8_t>(body[0]));
  out->payload = std::string_view(body + 1, len - 1);
  out->offset = base_ + pos_;
  pos_ += kFrameBytes + len;
  return true;
}

Result<SavepointExtent> ParseSavepoint(const Record& rec) {
  Cursor c(rec.payload);
  SavepointExtent sp;
  sp.execution = c.U32();
  sp.invocation_count = c.U64();
  sp.shard_sizes = c.U64List();
  if (!c.ok || !c.AtEnd()) {
    return Status::ParseError("wal replay: malformed savepoint record");
  }
  return sp;
}

Status ApplyRecord(ProvenanceGraph* graph, const Record& rec) {
  Cursor c(rec.payload);
  switch (rec.type) {
    case RecordType::kIntern: {
      StrId id = c.U32();
      uint32_t len = c.U32();
      std::string_view s = c.Bytes(len);
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      StrId got = graph->InternString(s);
      if (got != id) {
        return Status::Internal(StrCat("wal replay: intern id mismatch: log ",
                                       id, ", graph ", got));
      }
      return Status::OK();
    }
    case RecordType::kNodeAppend: {
      NodeId id = c.U64();
      uint8_t label = c.U8();
      uint8_t role = c.U8();
      uint8_t flags = c.U8();
      uint32_t invocation = c.U32();
      StrId payload = c.U32();
      // The parents are the rest of the record; they are decoded straight
      // into the appended node's parent list once every check has passed.
      uint32_t num_parents = c.U32();
      if (!c.ok || c.Remaining() != uint64_t{num_parents} * 8) {
        return MalformedRecord(rec);
      }
      if (label > static_cast<uint8_t>(NodeLabel::kZoomedModule) ||
          role > static_cast<uint8_t>(NodeRole::kZoom) ||
          (flags & ~(internal::kAliveFlag | internal::kValueNodeFlag)) != 0 ||
          payload >= graph->strings().size()) {
        return Status::ParseError(
            StrCat("wal replay: node ", id, " has out-of-range columns"));
      }
      uint32_t shard = NodeShard(id);
      if (shard > 0xffff) {
        return Status::ParseError(
            StrCat("wal replay: node ", id, " names absurd shard ", shard));
      }
      while (graph->num_shards() <= shard) (void)graph->AddShard();
      if (NodeIndex(id) != graph->ShardSize(shard)) {
        return Status::Internal(
            StrCat("wal replay: node ", id, " out of append order (shard ",
                   shard, " holds ", graph->ShardSize(shard), " nodes)"));
      }
      std::span<NodeId> parents = graph->AppendReplayed(
          shard, static_cast<NodeLabel>(label), static_cast<NodeRole>(role),
          flags, invocation, payload, num_parents);
      for (NodeId& parent : parents) parent = c.U64();
      return Status::OK();
    }
    case RecordType::kNodeValue: {
      NodeId id = c.U64();
      LIPSTICK_ASSIGN_OR_RETURN(Value value, ReadValue(&c));
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (!graph->InGraph(id)) {
        return Status::Internal(
            StrCat("wal replay: value for unknown node ", id));
      }
      graph->SetNodeValue(id, std::move(value));
      return Status::OK();
    }
    case RecordType::kSetParents: {
      NodeId id = c.U64();
      std::vector<NodeId> parents = c.U64List();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (!graph->InGraph(id)) {
        return Status::Internal(
            StrCat("wal replay: parents for unknown node ", id));
      }
      graph->SetParents(id, parents);
      return Status::OK();
    }
    case RecordType::kSetAlive: {
      NodeId id = c.U64();
      uint8_t alive = c.U8();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (!graph->InGraph(id)) {
        return Status::Internal(
            StrCat("wal replay: liveness for unknown node ", id));
      }
      graph->SetAlive(id, alive != 0);
      return Status::OK();
    }
    case RecordType::kKillShardTail: {
      uint32_t shard = c.U32();
      uint64_t from = c.U64();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (shard >= graph->num_shards()) {
        return Status::Internal(
            StrCat("wal replay: kill-tail on unknown shard ", shard));
      }
      graph->KillShardTail(shard, from);
      return Status::OK();
    }
    case RecordType::kBeginInvocation: {
      uint32_t inv = c.U32();
      InvocationInfo info;
      info.module_name = c.U32();
      info.instance_name = c.U32();
      info.execution = c.U32();
      info.m_node = c.U64();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      // Graph files write an aborted invocation with no m-node.
      const bool aborted = info.aborted();
      if (inv != graph->invocations().size() ||
          info.module_name >= graph->strings().size() ||
          info.instance_name >= graph->strings().size() ||
          (!aborted && !graph->InGraph(info.m_node))) {
        return Status::Internal(
            StrCat("wal replay: inconsistent invocation ", inv));
      }
      NodeId m_node = info.m_node;
      uint32_t got = graph->RestoreInvocation(std::move(info));
      LIPSTICK_CHECK(got == inv, "invocation id drifted during replay");
      // The m-node is appended before the invocation id exists; the graph
      // patches its invocation column afterwards, and so does replay.
      if (!aborted) graph->SetInvocationTag(m_node, inv);
      return Status::OK();
    }
    case RecordType::kInvocationNode: {
      uint32_t inv = c.U32();
      uint8_t kind = c.U8();
      NodeId node = c.U64();
      if (!c.ok || !c.AtEnd() || kind > 2) return MalformedRecord(rec);
      if (inv >= graph->invocations().size() || !graph->InGraph(node)) {
        return Status::Internal(
            StrCat("wal replay: structural node for unknown invocation ",
                   inv));
      }
      InvocationInfo& info = graph->mutable_invocation(inv);
      (kind == 0   ? info.input_nodes
       : kind == 1 ? info.output_nodes
                   : info.state_nodes)
          .push_back(node);
      return Status::OK();
    }
    case RecordType::kAbortInvocation: {
      uint32_t inv = c.U32();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (inv >= graph->invocations().size()) {
        return Status::Internal(
            StrCat("wal replay: abort of unknown invocation ", inv));
      }
      graph->AbortInvocation(inv);
      return Status::OK();
    }
    case RecordType::kTruncateInvocations: {
      uint64_t count = c.U64();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (count > graph->invocations().size()) {
        return Status::Internal("wal replay: truncation grows invocations");
      }
      graph->TruncateInvocations(count);
      return Status::OK();
    }
    case RecordType::kCommitInvocation:
      (void)c.U32();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      return Status::OK();
    case RecordType::kSavepoint:
      return ParseSavepoint(rec).status();
  }
  return Status::ParseError(
      StrCat("wal replay: unknown record type ",
             static_cast<int>(rec.type)));
}

Status VerifyExtent(const ProvenanceGraph& graph, const SavepointExtent& sp) {
  if (graph.invocations().size() != sp.invocation_count) {
    return Status::Internal(
        StrCat("wal replay: savepoint expects ", sp.invocation_count,
               " invocations, graph has ", graph.invocations().size()));
  }
  if (graph.num_shards() < sp.shard_sizes.size()) {
    return Status::Internal("wal replay: savepoint names missing shards");
  }
  for (uint32_t s = 0; s < graph.num_shards(); ++s) {
    uint64_t want = s < sp.shard_sizes.size() ? sp.shard_sizes[s] : 0;
    if (graph.ShardSize(s) != want) {
      return Status::Internal(
          StrCat("wal replay: savepoint expects ", want, " nodes in shard ",
                 s, ", graph has ", graph.ShardSize(s)));
    }
  }
  return Status::OK();
}

}  // namespace walfmt

namespace {

struct WalMetrics {
  obs::MetricId bytes;
  obs::MetricId records;
  obs::MetricId flushes;
  obs::MetricId fsyncs;
  obs::MetricId fsync_us;
  obs::MetricId checkpoints;
  obs::MetricId checkpoint_us;
  obs::MetricId errors;

  static const WalMetrics& Get() {
    static const WalMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      WalMetrics w;
      w.bytes = reg.RegisterCounter("wal.bytes_appended");
      w.records = reg.RegisterCounter("wal.records");
      w.flushes = reg.RegisterCounter("wal.flushes");
      w.fsyncs = reg.RegisterCounter("wal.fsyncs");
      w.fsync_us = reg.RegisterHistogram("wal.fsync_us");
      w.checkpoints = reg.RegisterCounter("wal.checkpoints");
      w.checkpoint_us = reg.RegisterHistogram("wal.checkpoint_us");
      w.errors = reg.RegisterCounter("wal.errors");
      return w;
    }();
    return m;
  }
};

/// Per-thread frame scratch: hooks fire from concurrent ShardWriters, and
/// encoding outside the log mutex keeps the critical section to a buffer
/// append.
std::string& Scratch() {
  thread_local std::string s;
  s.clear();
  return s;
}

Status WriteFully(int fd, const char* data, size_t n) {
  size_t off = 0;
  while (off < n) {
    ssize_t w = ::write(fd, data + off, n - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(
          StrCat("wal: write failed: ", std::strerror(errno)));
    }
    off += static_cast<size_t>(w);
  }
  return Status::OK();
}

Status FsyncPath(const std::string& path) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    return Status::IOError(
        StrCat("wal: open for fsync failed: ", path, ": ",
               std::strerror(errno)));
  }
  Status st;
  if (::fsync(fd) != 0) {
    st = Status::IOError(
        StrCat("wal: fsync failed: ", path, ": ", std::strerror(errno)));
  }
  ::close(fd);
  return st;
}

/// Deterministic position derivation for injected corruption / torn
/// writes: splitmix64 of the log's record counter, so a given skip_hits
/// setting lands on a reproducible byte regardless of timing.
uint64_t MixPosition(uint64_t counter, uint64_t salt) {
  Rng rng(counter ^ salt);
  return rng.Next();
}

}  // namespace

// ---------------------------------------------------------------------------
// Wal: open / segment management
// ---------------------------------------------------------------------------

Result<std::unique_ptr<Wal>> Wal::Open(const std::string& dir,
                                       const WalOptions& options) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    return Status::IOError(
        StrCat("wal: cannot create log directory ", dir, ": ", ec.message()));
  }
  uint64_t max_seq = 0;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    std::string name = entry.path().filename().string();
    if (walfmt::ParseSegmentName(name, &seq) ||
        walfmt::ParseCheckpointName(name, &seq)) {
      max_seq = std::max(max_seq, seq);
    }
  }
  if (ec) {
    return Status::IOError(
        StrCat("wal: cannot list log directory ", dir, ": ", ec.message()));
  }
  std::unique_ptr<Wal> wal(new Wal(dir, options));
  // Existing segments may have torn tails; never append to them. Start a
  // fresh segment after the highest sequence number ever used.
  LIPSTICK_RETURN_IF_ERROR(wal->OpenSegmentLocked(max_seq + 1));
  return wal;
}

Wal::~Wal() { (void)Close(); }

Status Wal::OpenSegmentLocked(uint64_t seq) {
  std::string name = walfmt::SegmentFileName(seq);
  std::string path = dir_ + "/" + name;
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) {
    return Status::IOError(
        StrCat("wal: cannot create segment ", path, ": ",
               std::strerror(errno)));
  }
  std::string header;
  walfmt::EncodeHeader(&header, walfmt::kWalMagic, seq);
  Status st = WriteFully(fd, header.data(), header.size());
  if (!st.ok()) {
    ::close(fd);
    return st;
  }
  fd_ = fd;
  seq_ = seq;
  segment_name_ = std::move(name);
  segment_written_ = walfmt::kHeaderBytes;
  return Status::OK();
}

void Wal::MarkDeadLocked(Status why) {
  if (!status_.ok()) return;
  status_ = std::move(why);
  obs::MetricsRegistry::Global().CounterAdd(WalMetrics::Get().errors);
}

// ---------------------------------------------------------------------------
// Wal: record append + group commit
// ---------------------------------------------------------------------------

void Wal::AppendFrameLocked(std::string_view frame) {
  buffer_.append(frame);
  bytes_appended_ += frame.size();
  bytes_since_checkpoint_ += frame.size();
  ++records_appended_;
  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(WalMetrics::Get().bytes, frame.size());
    reg.CounterAdd(WalMetrics::Get().records);
  }
}

void Wal::AppendFrame(std::string_view frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !status_.ok()) return;
  AppendFrameLocked(frame);
  if (buffer_.size() >= options_.buffer_bytes) (void)FlushLocked();
}

Status Wal::FlushLocked() {
  if (!status_.ok()) return status_;
  if (buffer_.empty()) return Status::OK();

  if (FaultInjector::Armed()) {
    // Silent media corruption: flip one byte of the outgoing batch and keep
    // going. Recovery must detect it via CRC, not via an error here.
    Status f = FaultInjector::Fire("wal.corrupt", segment_name_);
    if (!f.ok()) {
      size_t pos = MixPosition(records_appended_, 0xc0ffee) % buffer_.size();
      buffer_[pos] = static_cast<char>(buffer_[pos] ^ 0x40);
    }
    // Torn write: persist a prefix of the batch, then behave as if the
    // process crashed (the log goes dead, execution continues).
    f = FaultInjector::Fire("wal.short_write", segment_name_);
    if (!f.ok()) {
      size_t cut = MixPosition(bytes_appended_, 0x5eed) % buffer_.size();
      (void)WriteFully(fd_, buffer_.data(), cut);
      MarkDeadLocked(Status::IOError(
          StrCat("injected short write: ", cut, " of ", buffer_.size(),
                 " bytes reached ", segment_name_)));
      return status_;
    }
  }

  Status st = WriteFully(fd_, buffer_.data(), buffer_.size());
  if (!st.ok()) {
    MarkDeadLocked(std::move(st));
    return status_;
  }
  segment_written_ += buffer_.size();
  buffer_.clear();
  obs::MetricsRegistry::Global().CounterAdd(WalMetrics::Get().flushes);

  if (segment_written_ >= options_.segment_bytes) {
    // Roll to a new segment. Seal the outgoing one durably first (cheap:
    // once per segment_bytes) so a later checkpoint can safely delete it.
    if (options_.fsync != FsyncPolicy::kNever) {
      LIPSTICK_RETURN_IF_ERROR(SyncLocked());
    }
    ::close(fd_);
    fd_ = -1;
    st = OpenSegmentLocked(seq_ + 1);
    if (!st.ok()) MarkDeadLocked(std::move(st));
  }
  return status_;
}

Status Wal::SyncLocked() {
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());
  if (FaultInjector::Armed()) {
    Status f = FaultInjector::Fire("wal.fsync", segment_name_);
    if (!f.ok()) {
      MarkDeadLocked(Status::IOError(
          StrCat("injected fsync failure on ", segment_name_)));
      return status_;
    }
  }
  WallTimer timer;
  if (::fsync(fd_) != 0) {
    MarkDeadLocked(Status::IOError(
        StrCat("wal: fsync failed: ", std::strerror(errno))));
    return status_;
  }
  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(WalMetrics::Get().fsyncs);
    reg.Observe(WalMetrics::Get().fsync_us, timer.ElapsedMicros());
  }
  return Status::OK();
}

Status Wal::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  return FlushLocked();
}

Status Wal::Sync() {
  std::lock_guard<std::mutex> lock(mu_);
  return SyncLocked();
}

Status Wal::status() const {
  std::lock_guard<std::mutex> lock(mu_);
  return status_;
}

uint64_t Wal::bytes_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return bytes_appended_;
}

uint64_t Wal::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_appended_;
}

uint64_t Wal::checkpoints_taken() const {
  std::lock_guard<std::mutex> lock(mu_);
  return checkpoints_;
}

// ---------------------------------------------------------------------------
// Wal: attach / durability boundaries
// ---------------------------------------------------------------------------

Status Wal::Attach(ProvenanceGraph* graph, uint32_t executions_run) {
  LIPSTICK_CHECK(graph != nullptr, "Wal::Attach: null graph");
  bool empty;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::Internal("wal: already closed");
    LIPSTICK_RETURN_IF_ERROR(status_);
    LIPSTICK_CHECK(graph_ == nullptr, "Wal::Attach: already attached");
    graph_ = graph;
    last_execution_ = executions_run;
    empty = graph->num_nodes() == 0 && graph->invocations().empty();
  }
  graph->AttachWalSink(this);
  if (!empty) {
    // The log alone must reproduce the graph: snapshot the pre-existing
    // state so replay never needs records we were not attached to see.
    return Checkpoint();
  }
  ProvenanceGraph::Savepoint extent = graph->TakeSavepoint();
  std::lock_guard<std::mutex> lock(mu_);
  AppendSavepointLocked(executions_run, extent);
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());
  // The initial recovery boundary is always durable, whatever the policy:
  // a crash before the first savepoint must still find a valid log.
  return SyncLocked();
}

void Wal::Detach() {
  ProvenanceGraph* graph;
  {
    std::lock_guard<std::mutex> lock(mu_);
    graph = graph_;
    graph_ = nullptr;
  }
  if (graph != nullptr && graph->wal_sink() == this) {
    graph->AttachWalSink(nullptr);
  }
}

Status Wal::CommitInvocation(uint32_t invocation) {
  std::string& frame = Scratch();
  walfmt::EncodeCommitInvocation(&frame, invocation);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("wal: closed");
  LIPSTICK_RETURN_IF_ERROR(status_);
  AppendFrameLocked(frame);
  if (options_.fsync == FsyncPolicy::kOnCommit) {
    return SyncLocked();
  }
  if (buffer_.size() >= options_.buffer_bytes) return FlushLocked();
  return Status::OK();
}

void Wal::AppendSavepointLocked(uint32_t execution,
                                const ProvenanceGraph::Savepoint& extent) {
  std::string& frame = Scratch();
  walfmt::EncodeSavepoint(&frame, execution, extent);
  AppendFrameLocked(frame);
}

Status Wal::MarkSavepoint(uint32_t execution) {
  ProvenanceGraph::Savepoint extent;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_) return Status::Internal("wal: closed");
    LIPSTICK_RETURN_IF_ERROR(status_);
    LIPSTICK_CHECK(graph_ != nullptr, "Wal::MarkSavepoint: not attached");
  }
  // Capture the extent outside mu_: the graph hooks take locks in the
  // order (graph lock -> mu_), and TakeSavepoint takes the invocations
  // lock, so taking it under mu_ would invert the order.
  extent = graph_->TakeSavepoint();
  std::lock_guard<std::mutex> lock(mu_);
  LIPSTICK_RETURN_IF_ERROR(status_);
  last_execution_ = execution;
  AppendSavepointLocked(execution, extent);
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());
  if (options_.fsync != FsyncPolicy::kNever) return SyncLocked();
  return Status::OK();
}

// ---------------------------------------------------------------------------
// Wal: checkpointing
// ---------------------------------------------------------------------------

Status Wal::Checkpoint() {
  if (graph_ == nullptr) {
    return Status::Internal("wal: Checkpoint() before Attach()");
  }
  ProvenanceGraph::Savepoint extent = graph_->TakeSavepoint();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return Status::Internal("wal: closed");
  LIPSTICK_RETURN_IF_ERROR(status_);
  return CheckpointLocked(extent);
}

Status Wal::MaybeCheckpoint() {
  if (graph_ == nullptr || options_.checkpoint_bytes == 0) {
    return Status::OK();
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (closed_ || !status_.ok()) return status_;
    if (bytes_since_checkpoint_ < options_.checkpoint_bytes) {
      return Status::OK();
    }
  }
  return Checkpoint();
}

Status Wal::CheckpointLocked(const ProvenanceGraph::Savepoint& extent) {
  obs::ObsSpan span("wal", "checkpoint");
  WallTimer timer;
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());

  uint64_t new_seq = seq_ + 1;
  std::string final_name = walfmt::CheckpointFileName(new_seq);
  std::string final_path = dir_ + "/" + final_name;
  std::string tmp_path = final_path + ".tmp";
  // Snapshot, make it durable, then atomically publish: a crash at any
  // point leaves either no ckpt-<new_seq> (recovery uses the previous
  // checkpoint + segments) or a complete one.
  Status st = SaveGraphToFile(*graph_, tmp_path);
  if (st.ok()) st = FsyncPath(tmp_path);
  if (st.ok() && std::rename(tmp_path.c_str(), final_path.c_str()) != 0) {
    st = Status::IOError(StrCat("wal: cannot publish checkpoint ", final_path,
                                ": ", std::strerror(errno)));
  }
  if (st.ok()) st = FsyncPath(dir_);
  if (!st.ok()) {
    MarkDeadLocked(std::move(st));
    return status_;
  }

  // Roll to the segment the checkpoint corresponds to and seed it with a
  // savepoint of the snapshotted extent, so the new head is immediately
  // recoverable on its own.
  ::close(fd_);
  fd_ = -1;
  st = OpenSegmentLocked(new_seq);
  if (!st.ok()) {
    MarkDeadLocked(std::move(st));
    return status_;
  }
  AppendSavepointLocked(last_execution_, extent);
  LIPSTICK_RETURN_IF_ERROR(FlushLocked());
  LIPSTICK_RETURN_IF_ERROR(SyncLocked());

  // Everything before the checkpoint is superseded; reclaim it.
  namespace fs = std::filesystem;
  std::error_code ec;
  for (const auto& entry : fs::directory_iterator(dir_, ec)) {
    uint64_t seq = 0;
    std::string name = entry.path().filename().string();
    if ((walfmt::ParseSegmentName(name, &seq) ||
         walfmt::ParseCheckpointName(name, &seq)) &&
        seq < new_seq) {
      fs::remove(entry.path(), ec);
    }
  }

  bytes_since_checkpoint_ = 0;
  ++checkpoints_;
  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(WalMetrics::Get().checkpoints);
    reg.Observe(WalMetrics::Get().checkpoint_us, timer.ElapsedMicros());
  }
  if (span.active()) span.Arg("seq", new_seq);
  return Status::OK();
}

Status Wal::Close() {
  Detach();
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_) return status_;
  closed_ = true;
  if (status_.ok()) {
    (void)FlushLocked();
    if (status_.ok() && options_.fsync != FsyncPolicy::kNever) {
      (void)SyncLocked();
    }
  }
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  return status_;
}

// ---------------------------------------------------------------------------
// Wal: GraphWalSink hooks
// ---------------------------------------------------------------------------

void Wal::OnIntern(StrId id, std::string_view s) {
  std::string& frame = Scratch();
  walfmt::EncodeIntern(&frame, id, s);
  AppendFrame(frame);
}

void Wal::OnNodeAppend(NodeId id, NodeLabel label, NodeRole role,
                       uint8_t flags, uint32_t invocation, StrId payload,
                       std::span<const NodeId> parents) {
  std::string& frame = Scratch();
  walfmt::EncodeNodeAppend(&frame, id, label, role, flags, invocation,
                           payload, parents);
  AppendFrame(frame);
}

void Wal::OnNodeValue(NodeId id, const Value& value) {
  std::string& frame = Scratch();
  walfmt::EncodeNodeValue(&frame, id, value);
  AppendFrame(frame);
}

void Wal::OnSetParents(NodeId id, std::span<const NodeId> parents) {
  std::string& frame = Scratch();
  walfmt::EncodeSetParents(&frame, id, parents);
  AppendFrame(frame);
}

void Wal::OnSetAlive(NodeId id, bool alive) {
  std::string& frame = Scratch();
  walfmt::EncodeSetAlive(&frame, id, alive);
  AppendFrame(frame);
}

void Wal::OnKillShardTail(uint32_t shard, uint64_t from) {
  std::string& frame = Scratch();
  walfmt::EncodeKillShardTail(&frame, shard, from);
  AppendFrame(frame);
}

void Wal::OnBeginInvocation(uint32_t invocation, const InvocationInfo& info) {
  std::string& frame = Scratch();
  walfmt::EncodeBeginInvocation(&frame, invocation, info);
  AppendFrame(frame);
}

void Wal::OnInvocationNode(uint32_t invocation, int kind, NodeId node) {
  std::string& frame = Scratch();
  walfmt::EncodeInvocationNode(&frame, invocation, kind, node);
  AppendFrame(frame);
}

void Wal::OnAbortInvocation(uint32_t invocation) {
  std::string& frame = Scratch();
  walfmt::EncodeAbortInvocation(&frame, invocation);
  AppendFrame(frame);
}

void Wal::OnTruncateInvocations(uint64_t count) {
  std::string& frame = Scratch();
  walfmt::EncodeTruncateInvocations(&frame, count);
  AppendFrame(frame);
}

}  // namespace lipstick
