#include "provenance/wal.h"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
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

/// Stores `v` as an unsigned LEB128 varint (seven bits per byte, the low
/// group first, the high bit set on every byte but the last) at `b`, which
/// has room for ten bytes. Returns its length.
size_t StoreVarint(char* b, uint64_t v) {
  size_t n = 0;
  for (; v >= 0x80; v >>= 7) b[n++] = static_cast<char>(v | 0x80);
  b[n++] = static_cast<char>(v);
  return n;
}

void PutVarint(std::string* out, uint64_t v) {
  char b[10];
  out->append(b, StoreVarint(b, v));
}

size_t VarintBytes(uint64_t v) {
  size_t n = 1;
  for (; v >= 0x80; v >>= 7) ++n;
  return n;
}

uint64_t ZigZag(int64_t v) {
  return static_cast<uint64_t>(v) << 1 ^ static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

constexpr uint64_t kMaxNodeIndex = (uint64_t{1} << 48) - 1;

/// A node reference relative to `base` (wal.h, RecordType).
void PutNodeRef(std::string* out, NodeId base, NodeId id) {
  if ((id ^ base) >> 48 == 0) {
    PutVarint(out, ZigZag(static_cast<int64_t>(NodeIndex(id)) -
                          static_cast<int64_t>(NodeIndex(base)))
                       << 1);
  } else {
    PutVarint(out, (id >> 48) << 1 | 1);
    PutVarint(out, NodeIndex(id));
  }
}

void PutValue(std::string* out, const Value& v) {
  if (v.is_bool()) {
    PutU8(out, 'B');
    PutU8(out, v.bool_value() ? 1 : 0);
  } else if (v.is_int()) {
    PutU8(out, 'I');
    PutVarint(out, ZigZag(v.int_value()));
  } else if (v.is_double()) {
    PutU8(out, 'D');
    uint64_t bits;
    double d = v.double_value();
    std::memcpy(&bits, &d, sizeof bits);
    PutU64(out, bits);
  } else if (v.is_string()) {
    const std::string& s = v.string_value();
    PutU8(out, 'S');
    PutVarint(out, s.size());
    out->append(s);
  } else {
    // Null, or a nested bag/tuple: graph v-nodes keep scalars only.
    PutU8(out, 'N');
  }
}

/// `s` front-coded against `prev`: the length of their shared prefix
/// (capped at kMaxSharedPrefix), then the rest of `s`, length first.
void PutFrontCoded(std::string* out, std::string_view prev,
                   std::string_view s) {
  const size_t limit = std::min<size_t>(
      {prev.size(), s.size(), size_t{kMaxSharedPrefix}});
  size_t shared = 0;
  while (shared < limit && prev[shared] == s[shared]) ++shared;
  PutVarint(out, shared);
  PutVarint(out, s.size() - shared);
  out->append(s.substr(shared));
}

/// Most records are under 128 bytes, so BeginFrame leaves room for a
/// one-byte length and EndFrame widens it only for longer ones.
constexpr size_t kFrameStartBytes = 1 + 4;

/// Starts a frame of `type` at the end of `out`: length and CRC
/// placeholders, then the type byte. Returns the frame's offset.
size_t BeginFrame(std::string* out, RecordType type) {
  size_t at = out->size();
  out->append(kFrameStartBytes, '\0');
  PutU8(out, static_cast<uint8_t>(type));
  return at;
}

/// Writes the length and CRC of the frame BeginFrame started at `at`.
void EndFrame(std::string* out, size_t at) {
  const size_t len = out->size() - at - kFrameStartBytes;  // type + payload
  LIPSTICK_CHECK(len <= kMaxRecordBytes, "wal record too large");
  char len_varint[10];
  const size_t len_bytes = StoreVarint(len_varint, len);
  if (len_bytes > 1) out->insert(at, len_bytes - 1, '\0');
  char* frame = out->data() + at;
  std::memcpy(frame, len_varint, len_bytes);
  StoreU32(frame + len_bytes, Crc32(frame + len_bytes + 4, len));
}

/// Appends a count, then entries put(0), put(1), ... up to `limit` of them,
/// as many as kPackedRecordBytes holds (at least one). Returns the count.
template <typename PutEntry>
size_t PutPacked(std::string* out, size_t limit, PutEntry put) {
  const size_t entries = out->size();
  size_t n = 0;
  do {
    const size_t mark = out->size();
    put(n);
    if (n > 0 && out->size() - entries > kPackedRecordBytes) {
      out->resize(mark);
      break;
    }
  } while (++n < limit);
  char count[10];
  out->insert(entries, count, StoreVarint(count, n));
  return n;
}

/// Payload cursor. Reads past the end or of a malformed varint set
/// ok = false and return zeros rather than trapping, so the replayer can
/// validate once per record.
struct Cursor {
  const char* p;
  const char* end;
  bool ok = true;

  explicit Cursor(std::string_view s) : p(s.data()), end(s.data() + s.size()) {}

  uint64_t Fail() {
    ok = false;
    p = end;
    return 0;
  }

  uint8_t U8() {
    if (p == end) return static_cast<uint8_t>(Fail());
    return static_cast<uint8_t>(*p++);
  }

  uint64_t U64() {
    if (end - p < 8) return Fail();
    uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = v << 8 | static_cast<uint8_t>(p[i]);
    p += 8;
    return v;
  }

  /// An unsigned LEB128 varint of at most ten bytes.
  uint64_t Varint() {
    if (p != end && static_cast<uint8_t>(*p) < 0x80) {
      return static_cast<uint8_t>(*p++);
    }
    uint64_t v = 0;
    for (int shift = 0;; shift += 7) {
      if (p == end) return Fail();
      const uint8_t b = static_cast<uint8_t>(*p++);
      // The tenth byte carries bit 63 alone: anything more is a varint
      // longer than ten bytes or wider than 64 bits.
      if (shift == 63 && b > 1) return Fail();
      v |= static_cast<uint64_t>(b & 0x7f) << shift;
      if (b < 0x80) return v;
    }
  }

  /// A varint of a u32 field.
  uint32_t Varint32() {
    const uint64_t v = Varint();
    if (v > 0xffffffffu) return static_cast<uint32_t>(Fail());
    return static_cast<uint32_t>(v);
  }

  /// A count of entries of at least `min_bytes` each. A count the
  /// remaining bytes cannot hold fails the cursor before anything is
  /// reserved, so a short record never drives a large allocation.
  uint32_t Count(size_t min_bytes) {
    const uint32_t n = Varint32();
    if (n * uint64_t{min_bytes} > Remaining()) {
      return static_cast<uint32_t>(Fail());
    }
    return n;
  }

  /// A node reference relative to `base` (wal.h, RecordType).
  NodeId NodeRef(NodeId base) {
    const uint64_t v = Varint();
    uint64_t hi = base >> 48;
    uint64_t index;
    if ((v & 1) == 0) {
      // Wraps past kMaxNodeIndex when the delta leads below index 0.
      index = NodeIndex(base) + static_cast<uint64_t>(UnZigZag(v >> 1));
    } else {
      hi = v >> 1;
      index = Varint();
    }
    if (hi > 0xffff || index > kMaxNodeIndex) return Fail();
    return hi << 48 | index;
  }

  std::string_view Bytes(size_t n) {
    if (Remaining() < n) {
      Fail();
      return {};
    }
    std::string_view s(p, n);
    p += n;
    return s;
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
      return Value::Int(UnZigZag(c->Varint()));
    case 'D': {
      uint64_t bits = c->U64();
      double d;
      std::memcpy(&d, &bits, sizeof d);
      return Value::Double(d);
    }
    case 'S': {
      std::string_view s = c->Bytes(c->Varint32());
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

/// Interns `prefix` + `suffix` as the pool's next id, which must be a new
/// string. The pool joins the two in its arena.
Status InternNext(ProvenanceGraph* graph, std::string_view prefix,
                  std::string_view suffix) {
  const StrId want = static_cast<StrId>(graph->strings().size());
  const StrId got = graph->InternString(prefix, suffix);
  if (got != want) {
    return Status::Internal(StrCat("wal replay: string ", want,
                                   " is not new (it is string ", got, ")"));
  }
  return Status::OK();
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

size_t BeginStrings(std::string* out) {
  return BeginFrame(out, RecordType::kStrings);
}

void AppendStringEntry(std::string* out, std::string_view prev,
                       std::string_view s) {
  PutFrontCoded(out, prev, s);
}

void EndStrings(std::string* out, size_t at, uint32_t n) {
  // The count leads the entries, which were written first.
  char count[10];
  out->insert(at + kFrameStartBytes + 1, count, StoreVarint(count, n));
  EndFrame(out, at);
}

size_t StringsFrameBytes(size_t entry_bytes, uint32_t n) {
  const size_t len = 1 + VarintBytes(n) + entry_bytes;  // type + payload
  return VarintBytes(len) + 4 + len;
}

StrId EncodeStrings(std::string* out, const StringPool& pool, StrId first) {
  LIPSTICK_CHECK(first >= 1 && first < pool.size(), "no string to encode");
  size_t at = BeginFrame(out, RecordType::kStrings);
  const size_t n = PutPacked(out, pool.size() - first, [&](size_t k) {
    const auto id = static_cast<StrId>(first + k);
    PutFrontCoded(out, pool.Get(id - 1), pool.Get(id));
  });
  EndFrame(out, at);
  return static_cast<StrId>(first + n);
}

void EncodeNodeAppend(std::string* out, NodeId id, NodeLabel label,
                      NodeRole role, uint8_t flags, uint32_t invocation,
                      StrId payload, std::span<const NodeId> parents) {
  LIPSTICK_DCHECK(static_cast<uint32_t>(role) < 8 && flags < 4,
                  "node columns wider than the record's packing");
  size_t at = BeginFrame(out, RecordType::kNodeAppend);
  PutVarint(out, NodeShard(id));
  PutVarint(out, static_cast<uint32_t>(label) << 5 |
                     static_cast<uint32_t>(role) << 2 | flags);
  PutVarint(out, invocation + 1);  // kNoInvocation wraps to 0
  PutVarint(out, payload);
  PutVarint(out, parents.size());
  for (NodeId parent : parents) PutNodeRef(out, id, parent);
  EndFrame(out, at);
}

void EncodeNodeValue(std::string* out, NodeId id, const Value& value) {
  size_t at = BeginFrame(out, RecordType::kNodeValue);
  PutNodeRef(out, kInvalidNode, id);
  PutValue(out, value);
  EndFrame(out, at);
}

void EncodeKillShardTail(std::string* out, uint32_t shard, uint64_t from) {
  size_t at = BeginFrame(out, RecordType::kKillShardTail);
  PutVarint(out, shard);
  PutVarint(out, from);
  EndFrame(out, at);
}

void EncodeBeginInvocation(std::string* out, uint32_t invocation,
                           const InvocationInfo& info) {
  size_t at = BeginFrame(out, RecordType::kBeginInvocation);
  PutVarint(out, invocation);
  PutVarint(out, info.module_name);
  PutVarint(out, info.instance_name);
  PutVarint(out, info.execution);
  PutNodeRef(out, kInvalidNode, info.m_node);
  EndFrame(out, at);
}

size_t EncodeInvocationNodes(std::string* out, uint32_t invocation, int kind,
                             std::span<const NodeId> nodes) {
  LIPSTICK_CHECK(!nodes.empty(), "no node to encode");
  size_t at = BeginFrame(out, RecordType::kInvocationNodes);
  PutVarint(out, invocation);
  PutU8(out, static_cast<uint8_t>(kind));
  const size_t n = PutPacked(out, nodes.size(), [&](size_t k) {
    PutNodeRef(out, k == 0 ? kInvalidNode : nodes[k - 1], nodes[k]);
  });
  EndFrame(out, at);
  return n;
}

void EncodeAbortInvocation(std::string* out, uint32_t invocation) {
  size_t at = BeginFrame(out, RecordType::kAbortInvocation);
  PutVarint(out, invocation);
  EndFrame(out, at);
}

void EncodeTruncateInvocations(std::string* out, uint64_t count) {
  size_t at = BeginFrame(out, RecordType::kTruncateInvocations);
  PutVarint(out, count);
  EndFrame(out, at);
}

void EncodeCommitInvocation(std::string* out, uint32_t invocation) {
  size_t at = BeginFrame(out, RecordType::kCommitInvocation);
  PutVarint(out, invocation);
  EndFrame(out, at);
}

void EncodeSavepoint(std::string* out, uint32_t execution,
                     const ProvenanceGraph::Savepoint& extent) {
  size_t at = BeginFrame(out, RecordType::kSavepoint);
  PutVarint(out, execution);
  PutVarint(out, extent.invocation_count);
  PutVarint(out, extent.shard_sizes.size());
  for (size_t size : extent.shard_sizes) PutVarint(out, size);
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
  const auto* fields =
      reinterpret_cast<const unsigned char*>(data_.data() + kMagicBytes);
  const uint32_t version = LoadLE32(fields);
  sequence_ = LoadLE32(fields + 4) | uint64_t{LoadLE32(fields + 8)} << 32;
  if (version != kVersion) {
    header_status_ = Status::ParseError(StrCat(
        "unsupported segment version ", version, " (expected ", kVersion,
        ")"));
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
  // The longest header: fewer bytes remain only at the segment's end.
  (void)Buffered(8);
  const size_t avail = data_.size() - pos_;
  // The length: a varint of at most four bytes, which hold any length up
  // to kMaxRecordBytes.
  uint32_t len = 0;
  size_t len_bytes = 0;
  for (bool more = true; more; ++len_bytes) {
    if (len_bytes == avail) {
      torn_reason_ = "short frame header";
      return false;
    }
    if (len_bytes == 4) {
      torn_reason_ = "bad record length";
      return false;
    }
    const auto b = static_cast<uint8_t>(data_[pos_ + len_bytes]);
    len |= static_cast<uint32_t>(b & 0x7f) << 7 * len_bytes;
    more = b >= 0x80;
  }
  const size_t header = len_bytes + 4;
  if (avail < header) {
    torn_reason_ = "short frame header";
    return false;
  }
  if (len == 0 || len > kMaxRecordBytes) {
    torn_reason_ = "bad record length";
    return false;
  }
  if (!Buffered(header + len)) {
    torn_reason_ = "short record";
    return false;
  }
  const char* frame = data_.data() + pos_;
  const char* body = frame + header;
  if (!verified_ &&
      Crc32(body, len) !=
          LoadLE32(reinterpret_cast<const unsigned char*>(frame + len_bytes))) {
    torn_reason_ = "bad crc";
    return false;
  }
  out->type = static_cast<RecordType>(static_cast<uint8_t>(body[0]));
  out->payload = std::string_view(body + 1, len - 1);
  out->offset = base_ + pos_;
  pos_ += header + len;
  return true;
}

Result<SavepointExtent> ParseSavepoint(const Record& rec) {
  Cursor c(rec.payload);
  SavepointExtent sp;
  sp.execution = c.Varint32();
  sp.invocation_count = c.Varint();
  // A shard size takes at least one byte.
  sp.shard_sizes.resize(c.Count(1));
  for (uint64_t& size : sp.shard_sizes) size = c.Varint();
  if (!c.ok || !c.AtEnd()) {
    return Status::ParseError("wal replay: malformed savepoint record");
  }
  return sp;
}

Status ApplyRecord(ProvenanceGraph* graph, const Record& rec) {
  Cursor c(rec.payload);
  switch (rec.type) {
    case RecordType::kStrings: {
      // An entry takes at least its two varints.
      const uint32_t n = c.Count(2);
      if (!c.ok) return MalformedRecord(rec);
      // Every string of the record is new, so the pool grows once for
      // them: Count bounded n by the record's bytes.
      graph->ReserveStrings(n);
      for (uint32_t k = 0; k < n; ++k) {
        const uint32_t shared = c.Varint32();
        const std::string_view suffix = c.Bytes(c.Varint32());
        const std::string_view prev =
            graph->str(static_cast<StrId>(graph->strings().size() - 1));
        if (!c.ok || shared > kMaxSharedPrefix || shared > prev.size()) {
          return MalformedRecord(rec);
        }
        LIPSTICK_RETURN_IF_ERROR(
            InternNext(graph, prev.substr(0, shared), suffix));
      }
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      return Status::OK();
    }
    case RecordType::kNodeAppend: {
      const uint32_t shard = c.Varint32();
      const uint32_t packed = c.Varint32();
      const uint32_t invocation = c.Varint32() - 1;  // 0 is kNoInvocation
      const StrId payload = c.Varint32();
      // A parent reference takes at least one byte.
      const uint32_t num_parents = c.Count(1);
      if (!c.ok) return MalformedRecord(rec);
      const uint32_t label = packed >> 5;
      if (label > static_cast<uint32_t>(NodeLabel::kZoomedModule) ||
          payload >= graph->strings().size()) {
        return Status::ParseError(
            StrCat("wal replay: node of shard ", shard,
                   " has out-of-range columns"));
      }
      // Shard s holds ids (s + 1) << 48 | index, so s + 1 fits 16 bits.
      if (shard >= 0xffff) {
        return Status::ParseError(
            StrCat("wal replay: node names absurd shard ", shard));
      }
      while (graph->num_shards() <= shard) (void)graph->AddShard();
      // The node's index is its shard's size: append order is the id.
      const NodeId id = MakeNodeId(shard, graph->ShardSize(shard));
      // The parents are the rest of the record, decoded straight into the
      // appended node's parent list.
      std::span<NodeId> parents = graph->AppendReplayed(
          shard, static_cast<NodeLabel>(label),
          static_cast<NodeRole>(packed >> 2 & 7),
          static_cast<uint8_t>(packed & 3), invocation, payload, num_parents);
      for (NodeId& parent : parents) parent = c.NodeRef(id);
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      return Status::OK();
    }
    case RecordType::kNodeValue: {
      NodeId id = c.NodeRef(kInvalidNode);
      LIPSTICK_ASSIGN_OR_RETURN(Value value, ReadValue(&c));
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (!graph->InGraph(id)) {
        return Status::Internal(
            StrCat("wal replay: value for unknown node ", id));
      }
      graph->SetNodeValue(id, std::move(value));
      return Status::OK();
    }
    case RecordType::kKillShardTail: {
      uint32_t shard = c.Varint32();
      uint64_t from = c.Varint();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (shard >= graph->num_shards()) {
        return Status::Internal(
            StrCat("wal replay: kill-tail on unknown shard ", shard));
      }
      graph->KillShardTail(shard, from);
      return Status::OK();
    }
    case RecordType::kBeginInvocation: {
      uint32_t inv = c.Varint32();
      InvocationInfo info;
      info.module_name = c.Varint32();
      info.instance_name = c.Varint32();
      info.execution = c.Varint32();
      info.m_node = c.NodeRef(kInvalidNode);
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
    case RecordType::kInvocationNodes: {
      uint32_t inv = c.Varint32();
      uint8_t kind = c.U8();
      // A node reference takes at least one byte.
      uint32_t n = c.Count(1);
      if (!c.ok || kind > 2) return MalformedRecord(rec);
      if (inv >= graph->invocations().size()) {
        return Status::Internal(
            StrCat("wal replay: structural node for unknown invocation ",
                   inv));
      }
      InvocationInfo& info = graph->mutable_invocation(inv);
      std::vector<NodeId>& nodes = kind == 0   ? info.input_nodes
                                   : kind == 1 ? info.output_nodes
                                               : info.state_nodes;
      NodeId node = kInvalidNode;
      for (uint32_t k = 0; k < n; ++k) {
        node = c.NodeRef(node);
        if (!c.ok) return MalformedRecord(rec);
        if (!graph->InGraph(node)) {
          return Status::Internal(
              StrCat("wal replay: invocation ", inv, " names unknown node ",
                     node));
        }
        nodes.push_back(node);
      }
      if (!c.AtEnd()) return MalformedRecord(rec);
      return Status::OK();
    }
    case RecordType::kAbortInvocation: {
      uint32_t inv = c.Varint32();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (inv >= graph->invocations().size()) {
        return Status::Internal(
            StrCat("wal replay: abort of unknown invocation ", inv));
      }
      graph->AbortInvocation(inv);
      return Status::OK();
    }
    case RecordType::kTruncateInvocations: {
      uint64_t count = c.Varint();
      if (!c.ok || !c.AtEnd()) return MalformedRecord(rec);
      if (count > graph->invocations().size()) {
        return Status::Internal("wal replay: truncation grows invocations");
      }
      graph->TruncateInvocations(count);
      return Status::OK();
    }
    case RecordType::kCommitInvocation:
      (void)c.Varint32();
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

void Wal::CountFrameLocked(size_t bytes) {
  bytes_appended_ += bytes;
  bytes_since_checkpoint_ += bytes;
  ++records_appended_;
  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(WalMetrics::Get().bytes, bytes);
    reg.CounterAdd(WalMetrics::Get().records);
  }
}

void Wal::CloseStringsLocked() {
  if (strings_at_ == kNoRun) return;
  walfmt::EndStrings(&buffer_, strings_at_, strings_count_);
  CountFrameLocked(buffer_.size() - strings_at_);
  strings_at_ = kNoRun;
  strings_count_ = 0;
  strings_entry_bytes_ = 0;
}

void Wal::AppendFrameLocked(std::string_view frame) {
  CloseStringsLocked();
  buffer_.append(frame);
  CountFrameLocked(frame.size());
}

void Wal::AppendFrame(std::string_view frame) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !status_.ok()) return;
  AppendFrameLocked(frame);
  if (buffer_.size() >= options_.buffer_bytes) (void)FlushLocked();
}

Status Wal::FlushLocked() {
  if (!status_.ok()) return status_;
  CloseStringsLocked();
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

// An open string run counts as the frame closing it now would make.
uint64_t Wal::bytes_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  if (strings_at_ == kNoRun) return bytes_appended_;
  return bytes_appended_ +
         walfmt::StringsFrameBytes(strings_entry_bytes_, strings_count_);
}

uint64_t Wal::records_appended() const {
  std::lock_guard<std::mutex> lock(mu_);
  return records_appended_ + (strings_at_ == kNoRun ? 0 : 1);
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

void Wal::OnIntern(StrId, std::string_view s, std::string_view prev) {
  std::string& entry = Scratch();
  walfmt::AppendStringEntry(&entry, prev, s);
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !status_.ok()) return;
  // A run holds as many entries as kPackedRecordBytes holds, as
  // SaveGraph's string records do (at least one).
  if (strings_at_ != kNoRun &&
      strings_entry_bytes_ + entry.size() > walfmt::kPackedRecordBytes) {
    CloseStringsLocked();
  }
  if (strings_at_ == kNoRun) strings_at_ = walfmt::BeginStrings(&buffer_);
  buffer_.append(entry);
  ++strings_count_;
  strings_entry_bytes_ += entry.size();
  if (buffer_.size() >= options_.buffer_bytes) (void)FlushLocked();
}

void Wal::OnNodeAppend(NodeId id, NodeLabel label, NodeRole role,
                       uint8_t flags, uint32_t invocation, StrId payload,
                       std::span<const NodeId> parents) {
  std::string& frame = Scratch();
  walfmt::EncodeNodeAppend(&frame, id, label, role, flags, invocation,
                           payload, parents);
  AppendFrame(frame);
}

void Wal::OnTokens(NodeId first, NodeRole role, uint32_t invocation,
                   std::span<const StrId> payloads) {
  std::lock_guard<std::mutex> lock(mu_);
  if (closed_ || !status_.ok()) return;
  CloseStringsLocked();
  // Encoded in place, record by record, with AppendFrame's flush check
  // after each: the bytes and flush points of one OnNodeAppend per token.
  NodeId id = first;
  for (StrId payload : payloads) {
    const size_t at = buffer_.size();
    walfmt::EncodeNodeAppend(&buffer_, id++, NodeLabel::kToken, role,
                             internal::kAliveFlag, invocation, payload, {});
    CountFrameLocked(buffer_.size() - at);
    if (buffer_.size() >= options_.buffer_bytes && !FlushLocked().ok()) {
      return;
    }
  }
}

void Wal::OnNodeValue(NodeId id, const Value& value) {
  std::string& frame = Scratch();
  walfmt::EncodeNodeValue(&frame, id, value);
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
  walfmt::EncodeInvocationNodes(&frame, invocation, kind, {&node, 1});
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
