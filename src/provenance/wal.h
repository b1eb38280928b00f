#ifndef LIPSTICK_PROVENANCE_WAL_H_
#define LIPSTICK_PROVENANCE_WAL_H_

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "provenance/graph.h"

namespace lipstick {

/// Write-ahead logging for provenance graphs: the durability half of the
/// paper's Tracker/Query-Processor split. Attached to a ProvenanceGraph
/// (GraphWalSink), a Wal records every mutation as a length-prefixed,
/// CRC32-checked binary record into segmented log files under one
/// directory, batched through a group-commit buffer. recovery.h replays
/// the log back into an identical graph after a crash.
///
/// Directory layout:
///   wal-<seq>.log   log segments, strictly increasing sequence numbers
///   ckpt-<seq>.pg   checkpoint: the graph file (provio.h) of the graph
///                   at the instant segment <seq> was opened — one
///                   segment in this log's own format, under the graph
///                   magic
/// A checkpoint supersedes every earlier segment; Checkpoint() deletes
/// them once the snapshot and the new segment head are durable. Open()
/// never appends to an existing segment (its tail may be torn): it always
/// starts a fresh segment after the highest sequence number present.
///
/// Crash-consistency contract: a record is recoverable once it is flushed
/// and (per FsyncPolicy) fsynced. Savepoint records mark committed
/// execution boundaries; recovery restores the prefix up to the last
/// durable savepoint, so a torn tail never yields a half-executed graph.
///
/// Error handling is sticky and non-fatal: the first write/fsync failure
/// marks the log dead, subsequent hooks no-op, and execution continues
/// untouched — durability degrades, correctness of the in-memory graph
/// does not. Callers observe failures via status() and obs metrics
/// (wal.errors).

/// When the group-commit buffer is fsynced to stable storage.
enum class FsyncPolicy : uint8_t {
  kNever,        // flush only; the OS decides when bytes hit the platter
  kOnCommit,     // fsync on every invocation commit (and savepoints)
  kOnSavepoint,  // fsync on execution savepoints only (the default)
};

const char* FsyncPolicyToString(FsyncPolicy policy);

struct WalOptions {
  FsyncPolicy fsync = FsyncPolicy::kOnSavepoint;
  /// Group-commit buffer: records accumulate in memory and are written
  /// out once the buffer reaches this many bytes, at every savepoint and
  /// checkpoint, on Flush/Sync/Close, and at an invocation commit only
  /// under FsyncPolicy::kOnCommit.
  size_t buffer_bytes = 256 * 1024;
  /// Roll to a new segment after the current one exceeds this size.
  size_t segment_bytes = 8 * 1024 * 1024;
  /// Take a checkpoint automatically (at the next savepoint) once this
  /// many log bytes accumulated since the last one. 0: only explicit
  /// Checkpoint() calls.
  size_t checkpoint_bytes = 0;
};

/// The one binary codec of provenance graphs: the WAL's segments and the
/// `.pg` graph files (provio.h) share its framing, record types, encoders
/// and replayer. A graph file is one segment under its own magic.
namespace walfmt {

/// Segment header: magic, format version (u32), sequence number (u64).
inline constexpr char kWalMagic[] = "LIPSTICKWAL1";    // 12 chars + NUL unused
inline constexpr char kGraphMagic[] = "LIPSTICKPG02";  // a .pg graph file
inline constexpr size_t kMagicBytes = 12;
inline constexpr uint32_t kVersion = 2;
inline constexpr size_t kHeaderBytes = kMagicBytes + 4 + 8;
/// Frame: the length of (type byte + payload) as a varint of at most four
/// bytes, a u32 CRC32 over (type byte + payload), the u8 record type, then
/// the payload. Lengths beyond this cap mean a torn/corrupt frame, not a
/// huge record.
inline constexpr uint32_t kMaxRecordBytes = 1u << 26;
/// A string shares at most this many leading bytes with the one before it,
/// so a string record expands to at most a small multiple of its bytes.
inline constexpr uint32_t kMaxSharedPrefix = 255;
/// SaveGraph packs strings and invocation node lists into records of at
/// most this many entry bytes (an entry longer than that gets a record of
/// its own), well inside the streaming scanner's 64 KiB window.
inline constexpr size_t kPackedRecordBytes = 16 * 1024;

/// Payload layouts. Every integer is an unsigned LEB128 varint (at most
/// ten bytes, and no wider than its field) unless marked u8. A node
/// reference ref(base) is relative to a base id: an even varint
/// 2 * zigzag(d) names the node of base's shard at base's index + d; an odd
/// one, 2 * hi + 1, is followed by an index and names hi << 48 | index
/// (hi is the shard + 1, and 0 for kInvalidNode).
enum class RecordType : uint8_t {
  kStrings = 1,           // n, then n x (shared, len, len bytes): the
                          // pool's next n ids, each the first `shared`
                          // bytes of the string one id before + the bytes
  kNodeAppend = 2,        // shard, label << 5 | role << 2 | flags,
                          // invocation + 1, payload, n, n x ref(node);
                          // the node's index is its shard's size
  kNodeValue = 3,         // ref(kInvalidNode) node, value (tag byte +
                          // payload)
  kKillShardTail = 6,     // shard, from
  kBeginInvocation = 7,   // inv, module, instance, execution,
                          // ref(kInvalidNode) m_node (kInvalidNode:
                          // aborted, in graph files only)
  kInvocationNodes = 8,   // inv, u8 kind (0=in,1=out,2=state), n,
                          // n x ref(the node before; kInvalidNode first)
  kAbortInvocation = 9,   // inv
  kTruncateInvocations = 10,  // count
  kCommitInvocation = 11,     // inv
  kSavepoint = 12,        // execution, inv_count, n, n x shard size
};

/// CRC32 (IEEE) of a frame's type byte + payload. Computed slicing-by-8,
/// eight bytes per step; the values are the byte-at-a-time definition's.
uint32_t Crc32(const void* data, size_t n);

/// Appends a segment header.
void EncodeHeader(std::string* out, std::string_view magic, uint64_t seq);

/// Frame encoders, one per record type: each appends one framed record
/// (payload layout above) to `out`. Values use a tag byte + payload;
/// nested values degrade to null.
///
/// A kStrings record built one string at a time (the log's string runs).
/// BeginStrings starts the frame at the end of `out` and returns its
/// offset; AppendStringEntry appends one string, front-coded against
/// `prev`; EndStrings, given the number of entries, writes the count,
/// the length and the CRC. The bytes are EncodeStrings' for the same
/// strings.
size_t BeginStrings(std::string* out);
void AppendStringEntry(std::string* out, std::string_view prev,
                       std::string_view s);
void EndStrings(std::string* out, size_t at, uint32_t n);
/// The bytes of the frame EndStrings makes of `n` entries taking
/// `entry_bytes` bytes.
size_t StringsFrameBytes(size_t entry_bytes, uint32_t n);
/// The pool's strings from `first` on, as many as kPackedRecordBytes holds
/// (at least one); returns the id after the last one encoded.
StrId EncodeStrings(std::string* out, const StringPool& pool, StrId first);
void EncodeNodeAppend(std::string* out, NodeId id, NodeLabel label,
                      NodeRole role, uint8_t flags, uint32_t invocation,
                      StrId payload, std::span<const NodeId> parents);
void EncodeNodeValue(std::string* out, NodeId id, const Value& value);
void EncodeKillShardTail(std::string* out, uint32_t shard, uint64_t from);
void EncodeBeginInvocation(std::string* out, uint32_t invocation,
                           const InvocationInfo& info);
/// A prefix of `nodes`, as much as kPackedRecordBytes holds (at least one
/// node); returns how many nodes it encoded.
size_t EncodeInvocationNodes(std::string* out, uint32_t invocation, int kind,
                             std::span<const NodeId> nodes);
void EncodeAbortInvocation(std::string* out, uint32_t invocation);
void EncodeTruncateInvocations(std::string* out, uint64_t count);
void EncodeCommitInvocation(std::string* out, uint32_t invocation);
void EncodeSavepoint(std::string* out, uint32_t execution,
                     const ProvenanceGraph::Savepoint& extent);

/// Formats "wal-0000000042.log" / "ckpt-0000000042.pg".
std::string SegmentFileName(uint64_t seq);
std::string CheckpointFileName(uint64_t seq);
/// Parses the sequence number out of a directory entry; returns false for
/// files that are neither segments nor checkpoints.
bool ParseSegmentName(std::string_view name, uint64_t* seq);
bool ParseCheckpointName(std::string_view name, uint64_t* seq);

/// One decoded frame of a segment. The frame ends where the scanner's
/// valid_prefix() stands right after Next() returned it.
struct Record {
  RecordType type;
  std::string_view payload;  // into the scanned buffer
  uint64_t offset = 0;       // frame start offset within the segment
};

/// Iterates the records of one segment, stopping at the first invalid
/// frame (short header, bad length, short record, bad CRC). `magic` is the
/// header magic the segment must carry (kWalMagic or kGraphMagic).
class SegmentScanner {
 public:
  /// Scans an in-memory image; payloads live as long as `data`. A
  /// `verified` image is one an earlier scan of this class accepted frame
  /// by frame (recovery's second pass): its CRCs are not computed again.
  SegmentScanner(std::string_view data, std::string_view magic,
                 bool verified = false)
      : data_(data), verified_(verified) {
    ReadHeader(magic);
  }
  /// Scans `in` through a 64 KiB window (longer only for a longer frame),
  /// never holding the whole file; a payload lives until the next Next().
  SegmentScanner(std::istream& in, std::string_view magic) : in_(&in) {
    ReadHeader(magic);
  }
  // data_ may point into window_, so a copy would dangle.
  SegmentScanner(const SegmentScanner&) = delete;
  SegmentScanner& operator=(const SegmentScanner&) = delete;

  /// Header validation result; scanning a bad-header segment yields no
  /// records and torn_reason() explains why.
  const Status& header_status() const { return header_status_; }
  uint64_t sequence() const { return sequence_; }

  /// Advances to the next valid record. Returns false at the end of the
  /// valid prefix; check torn_reason() to distinguish a clean end from a
  /// torn tail.
  bool Next(Record* out);

  /// Empty if the segment ends exactly at a frame boundary; otherwise a
  /// description of the torn tail ("bad crc", "short record", ...).
  const std::string& torn_reason() const { return torn_reason_; }
  /// Offset of the first invalid byte — the truncation point that drops
  /// the torn tail while keeping every valid record.
  uint64_t valid_prefix() const { return base_ + pos_; }

 private:
  void ReadHeader(std::string_view magic);
  bool Buffered(size_t n);  // true once `n` unscanned bytes are in data_

  std::istream* in_ = nullptr;  // streaming only
  std::string window_;          // streaming: bytes read, not yet dropped
  std::string_view data_;       // the image, or window_
  bool verified_ = false;       // frames already checked: skip the CRC
  uint64_t base_ = 0;           // segment offset of data_[0]
  size_t pos_ = 0;              // scan position in data_
  uint64_t sequence_ = 0;
  Status header_status_;
  std::string torn_reason_;
};

/// The graph extent a kSavepoint record describes.
struct SavepointExtent {
  uint32_t execution = 0;
  uint64_t invocation_count = 0;
  std::vector<uint64_t> shard_sizes;
};
Result<SavepointExtent> ParseSavepoint(const Record& rec);

/// Applies one record to a graph under reconstruction: the one decoder of
/// graph records, shared by WAL recovery and LoadGraph. Counts are checked
/// against the record's bytes before anything is allocated, and every id
/// the record indexes the graph with is checked before use; parent ids
/// are stored as given (LoadGraph checks them after replay). A kSavepoint
/// is checked for shape only and a kCommitInvocation has no effect:
/// callers interpret boundaries. A record that fails may leave the graph
/// partly updated; both callers then discard the graph.
Status ApplyRecord(ProvenanceGraph* graph, const Record& rec);

/// Verifies the graph matches a savepoint's recorded extent — the
/// cross-check that replay reproduced exactly what the writer saw.
Status VerifyExtent(const ProvenanceGraph& graph, const SavepointExtent& sp);

}  // namespace walfmt

/// The write-ahead log writer. Implements GraphWalSink; attach with
/// Attach() and every subsequent graph mutation is logged. All methods are
/// thread-safe (ShardWriters on worker threads append concurrently).
class Wal final : public GraphWalSink {
 public:
  /// Opens (creating if needed) the log directory and starts a fresh
  /// segment after the highest existing sequence number.
  static Result<std::unique_ptr<Wal>> Open(const std::string& dir,
                                           const WalOptions& options = {});
  ~Wal() override;

  Wal(const Wal&) = delete;
  Wal& operator=(const Wal&) = delete;

  /// Attaches the log to `graph`: subsequent mutations are recorded.
  /// `executions_run` seeds the execution counter carried by savepoint
  /// records (pass executor.executions_run()). A non-empty graph is
  /// checkpointed immediately so the log alone can always reproduce it;
  /// an empty graph just gets a durable initial savepoint. The graph must
  /// not be moved or destroyed while attached.
  Status Attach(ProvenanceGraph* graph, uint32_t executions_run = 0);
  /// Detaches from the graph (hooks stop firing). Close() also detaches.
  void Detach();
  ProvenanceGraph* attached_graph() const { return graph_; }

  /// Durability boundaries, called by WorkflowExecutor. CommitInvocation
  /// appends a commit record; it flushes and fsyncs under kOnCommit, and
  /// otherwise flushes only once the buffer reaches buffer_bytes.
  /// MarkSavepoint records the graph extent at a committed execution
  /// boundary and flushes (fsync under kOnSavepoint / kOnCommit).
  Status CommitInvocation(uint32_t invocation);
  Status MarkSavepoint(uint32_t execution);

  /// Snapshots the attached graph as a graph-file checkpoint, rolls to a
  /// new segment, and deletes the superseded segments. Call at a quiescent
  /// point (no concurrent writers), e.g. right after MarkSavepoint.
  Status Checkpoint();
  /// Checkpoint() iff options.checkpoint_bytes accumulated since the last.
  Status MaybeCheckpoint();

  /// Writes the group-commit buffer to the segment (no fsync).
  Status Flush();
  /// Flush + fsync regardless of policy.
  Status Sync();
  /// Flushes, fsyncs (unless kNever), closes the segment, detaches.
  Status Close();

  /// Sticky error state: OK until the first write/fsync failure, after
  /// which the log stops accepting records.
  Status status() const;
  const std::string& dir() const { return dir_; }
  uint64_t bytes_appended() const;
  uint64_t records_appended() const;
  uint64_t checkpoints_taken() const;

  // GraphWalSink implementation (called by the attached graph).
  void OnIntern(StrId id, std::string_view s,
                std::string_view prev) override;
  void OnNodeAppend(NodeId id, NodeLabel label, NodeRole role, uint8_t flags,
                    uint32_t invocation, StrId payload,
                    std::span<const NodeId> parents) override;
  void OnTokens(NodeId first, NodeRole role, uint32_t invocation,
                std::span<const StrId> payloads) override;
  void OnNodeValue(NodeId id, const Value& value) override;
  void OnKillShardTail(uint32_t shard, uint64_t from) override;
  void OnBeginInvocation(uint32_t invocation,
                         const InvocationInfo& info) override;
  void OnInvocationNode(uint32_t invocation, int kind, NodeId node) override;
  void OnAbortInvocation(uint32_t invocation) override;
  void OnTruncateInvocations(uint64_t count) override;

 private:
  Wal(std::string dir, const WalOptions& options)
      : dir_(std::move(dir)), options_(options) {
    // The buffer holds under buffer_bytes plus one frame. Sized once, its
    // footprint does not depend on the first frame's size, from which
    // doubling would start: a 30-byte start reaches 480 KiB for the
    // default 256 KiB, a 33-byte one stops at 264 KiB.
    buffer_.reserve(options_.buffer_bytes + 4096);
  }

  /// Appends one framed record to the buffer; flushes past the threshold.
  void AppendFrame(std::string_view frame);
  void AppendFrameLocked(std::string_view frame);
  /// Counts a frame of `bytes` bytes just appended to the buffer.
  void CountFrameLocked(size_t bytes);
  /// Closes the open string run, if any: writes its count, length and CRC
  /// and counts it. Every other record, flush, savepoint and checkpoint
  /// closes it first, so an intern reaches the log before anything that
  /// names it.
  void CloseStringsLocked();
  void AppendSavepointLocked(uint32_t execution,
                             const ProvenanceGraph::Savepoint& extent);
  Status OpenSegmentLocked(uint64_t seq);
  Status FlushLocked();
  Status SyncLocked();
  Status CheckpointLocked(const ProvenanceGraph::Savepoint& extent);
  void MarkDeadLocked(Status why);

  const std::string dir_;
  const WalOptions options_;

  mutable std::mutex mu_;
  ProvenanceGraph* graph_ = nullptr;
  int fd_ = -1;
  uint64_t seq_ = 0;
  std::string segment_name_;       // fault-injection / diagnostics key
  std::string buffer_;             // pending framed records
  // The open string run: a kStrings frame at buffer_[strings_at_] whose
  // entries OnIntern appends, kNoRun when none is open.
  static constexpr size_t kNoRun = ~size_t{0};
  size_t strings_at_ = kNoRun;
  uint32_t strings_count_ = 0;
  size_t strings_entry_bytes_ = 0;
  uint64_t segment_written_ = 0;   // bytes flushed into the open segment
  uint64_t bytes_appended_ = 0;    // framed bytes accepted, process total
  uint64_t records_appended_ = 0;
  uint64_t bytes_since_checkpoint_ = 0;
  uint64_t checkpoints_ = 0;
  uint32_t last_execution_ = 0;    // execution count at the last savepoint
  Status status_;                  // sticky; dead once !ok
  bool closed_ = false;
};

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_WAL_H_
