#include "provenance/recovery.h"

#include <unistd.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "provenance/provio.h"
#include "provenance/wal.h"

namespace lipstick {

namespace {

using walfmt::Record;
using walfmt::RecordType;
using walfmt::SavepointExtent;

struct RecoveryMetrics {
  obs::MetricId replayed;
  obs::MetricId discarded;
  obs::MetricId torn;
  obs::MetricId us;

  static const RecoveryMetrics& Get() {
    static const RecoveryMetrics m = [] {
      auto& reg = obs::MetricsRegistry::Global();
      RecoveryMetrics r;
      r.replayed = reg.RegisterCounter("recovery.replayed_records");
      r.discarded = reg.RegisterCounter("recovery.discarded_records");
      r.torn = reg.RegisterCounter("recovery.torn_segments");
      r.us = reg.RegisterHistogram("recovery.us");
      return r;
    }();
    return m;
  }
};

/// The whole file in one sized read, into a buffer of exactly its size.
Result<std::string> ReadFileToString(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in.is_open()) {
    return Status::IOError(StrCat("cannot open ", path));
  }
  const std::streamoff size = in.tellg();
  if (size < 0) return Status::IOError(StrCat("read failed: ", path));
  std::string data(static_cast<size_t>(size), '\0');
  in.seekg(0);
  in.read(data.data(), size);
  if (in.gcount() != size) {
    return Status::IOError(StrCat("read failed: ", path));
  }
  return data;
}

/// One scanned segment, held in memory for the two replay passes. Pass 1
/// checks every frame and keeps counts; pass 2 re-walks the checked image.
struct ScannedSegment {
  uint64_t seq = 0;
  std::string path;
  std::string data;               // raw file image
  uint64_t records = 0;           // valid frames
  std::string torn_reason;        // empty: ends cleanly at a frame boundary
  uint64_t valid_prefix = 0;      // bytes of valid header + frames
};

/// A node or invocation record takes at least 11 bytes: a 6-byte frame
/// and five one-byte varints. A reservation from a log's extent draws on
/// what the log's bytes can hold at that size.
constexpr uint64_t kMinNodeRecordBytes = 11;

}  // namespace

std::string RecoveryReport::ToString() const {
  std::ostringstream os;
  os << "recovery of " << dir << "\n";
  if (checkpoint_seq != 0) {
    os << "  checkpoint:   " << checkpoint_file << "\n";
  } else {
    os << "  checkpoint:   none (replayed from log origin)\n";
  }
  os << "  segments:     " << segments_scanned << " scanned, "
     << torn_segments << " torn\n";
  os << "  records:      " << records_applied << " applied, "
     << records_discarded << " discarded\n";
  os << "  restored:     " << executions_recovered << " executions, "
     << invocations_recovered << " live invocations";
  if (invocations_aborted > 0) {
    os << ", " << invocations_aborted << " uncommitted aborted";
  }
  os << "\n";
  if (bytes_truncated > 0) {
    os << "  repaired:     " << bytes_truncated << " torn bytes truncated\n";
  }
  for (const std::string& note : notes) {
    os << "  note:         " << note << "\n";
  }
  return os.str();
}

Result<ProvenanceGraph> RecoverGraph(const std::string& dir,
                                     RecoveryReport* report,
                                     const RecoveryOptions& options) {
  namespace fs = std::filesystem;
  obs::ObsSpan span("wal", "recover");
  WallTimer timer;
  RecoveryReport local;
  RecoveryReport& rep = report != nullptr ? *report : local;
  rep = RecoveryReport();
  rep.dir = dir;

  std::error_code ec;
  if (!fs::is_directory(dir, ec)) {
    return Status::IOError(StrCat("wal recovery: not a directory: ", dir));
  }
  std::vector<uint64_t> segment_seqs;
  std::vector<uint64_t> checkpoint_seqs;
  for (const auto& entry : fs::directory_iterator(dir, ec)) {
    uint64_t seq = 0;
    std::string name = entry.path().filename().string();
    if (walfmt::ParseSegmentName(name, &seq)) segment_seqs.push_back(seq);
    if (walfmt::ParseCheckpointName(name, &seq)) {
      checkpoint_seqs.push_back(seq);
    }
  }
  if (ec) {
    return Status::IOError(
        StrCat("wal recovery: cannot list ", dir, ": ", ec.message()));
  }
  if (segment_seqs.empty() && checkpoint_seqs.empty()) {
    return Status::NotFound(
        StrCat("wal recovery: no log segments or checkpoints in ", dir));
  }
  std::sort(segment_seqs.begin(), segment_seqs.end());
  std::sort(checkpoint_seqs.begin(), checkpoint_seqs.end());

  // Seed from the newest readable checkpoint; fall back to older ones
  // (e.g. a checkpoint torn mid-write before its rename would not parse,
  // but a *.pg that renamed yet fails to load is still survivable as long
  // as the previous one plus its segments remain).
  ProvenanceGraph graph;
  uint64_t base_seq = 0;
  for (auto it = checkpoint_seqs.rbegin(); it != checkpoint_seqs.rend();
       ++it) {
    std::string name = walfmt::CheckpointFileName(*it);
    Result<ProvenanceGraph> loaded = LoadGraphFromFile(dir + "/" + name);
    if (loaded.ok()) {
      graph = std::move(loaded).value();
      base_seq = *it;
      rep.checkpoint_seq = *it;
      rep.checkpoint_file = name;
      break;
    }
    rep.notes.push_back(StrCat("checkpoint ", name, " unreadable (",
                               loaded.status().message(), "), trying older"));
  }
  if (rep.checkpoint_seq == 0 && !checkpoint_seqs.empty()) {
    rep.notes.push_back("no readable checkpoint; replaying from log origin");
  }

  // Collect the segments at or after the base, stopping at a sequence gap
  // (segments beyond a gap describe state we cannot reconstruct).
  std::vector<ScannedSegment> segments;
  uint64_t prev_seq = 0;
  uint64_t total_records = 0;
  // The last savepoint (the recovery boundary): its segment (none yet),
  // frame offset and end, and payload.
  size_t sp_seg = ~size_t{0};
  uint64_t sp_offset = 0;
  uint64_t sp_end = 0;
  std::string sp_payload;
  for (uint64_t seq : segment_seqs) {
    if (seq < base_seq) continue;  // superseded by the checkpoint
    if (prev_seq != 0 && seq != prev_seq + 1) {
      rep.notes.push_back(StrCat("sequence gap: segment ", prev_seq + 1,
                                 " missing; ignoring segment ", seq,
                                 " and later"));
      break;
    }
    ScannedSegment seg;
    seg.seq = seq;
    seg.path = dir + "/" + walfmt::SegmentFileName(seq);
    Result<std::string> data = ReadFileToString(seg.path);
    if (!data.ok()) return data.status();
    seg.data = std::move(data).value();
    walfmt::SegmentScanner scanner(seg.data, walfmt::kWalMagic);
    if (!scanner.header_status().ok()) {
      // An unreadable header cannot result from a torn append (headers are
      // written whole at segment creation) — except for the freshly
      // created segment at the very tail, where a crash can race the
      // header write itself.
      if (seq == segment_seqs.back()) {
        rep.notes.push_back(StrCat(walfmt::SegmentFileName(seq), ": ",
                                   scanner.torn_reason(),
                                   " (crash during segment creation)"));
        ++rep.torn_segments;
        break;
      }
      return Status::ParseError(StrCat("wal recovery: ", seg.path, ": ",
                                       scanner.header_status().message()));
    }
    if (scanner.sequence() != seq) {
      return Status::ParseError(
          StrCat("wal recovery: ", seg.path, ": header sequence ",
                 scanner.sequence(), " does not match file name"));
    }
    // Pass 1, per segment: check every frame, keeping only the count and
    // the last savepoint.
    Record rec;
    while (scanner.Next(&rec)) {
      ++seg.records;
      if (rec.type == RecordType::kSavepoint) {
        sp_seg = segments.size();
        sp_offset = rec.offset;
        sp_end = scanner.valid_prefix();
        sp_payload.assign(rec.payload);
      }
    }
    seg.torn_reason = scanner.torn_reason();
    seg.valid_prefix = scanner.valid_prefix();
    total_records += seg.records;
    ++rep.segments_scanned;
    bool torn = !seg.torn_reason.empty();
    if (torn) {
      ++rep.torn_segments;
      rep.notes.push_back(StrCat(walfmt::SegmentFileName(seq), ": torn tail (",
                                 seg.torn_reason, ") at byte ",
                                 seg.valid_prefix));
    }
    prev_seq = seq;
    segments.push_back(std::move(seg));
    if (torn) {
      // Frames after an invalid one cannot be trusted (no resync marker);
      // later segments would also describe unreachable state.
      if (seq != segment_seqs.back()) {
        rep.notes.push_back(
            StrCat("ignoring segments after torn ",
                   walfmt::SegmentFileName(seq)));
      }
      break;
    }
  }

  const bool found_sp = sp_seg < segments.size();
  if (!found_sp) {
    // No durable execution boundary: the crash predates the first
    // savepoint. With a checkpoint the snapshot itself is the boundary;
    // without one the committed prefix is empty — recover the empty
    // graph rather than fail, since that is exactly what had committed.
    rep.notes.push_back(
        rep.checkpoint_seq == 0
            ? "crash predates the first durable savepoint; nothing committed"
            : "no savepoint in log; restored checkpoint only");
  }

  // Reserve for the boundary: its extent sizes the node columns and the
  // invocation records at once. An extent is only read from the log, so
  // the reservation draws on one budget, the rows the log's bytes up to
  // the boundary can hold: each shard's growth, each shard it creates and
  // the invocations all take from it, and a hostile extent reserves no
  // more in all. An inconsistent extent still fails the check below.
  if (found_sp) {
    walfmt::Record sp_rec{RecordType::kSavepoint, sp_payload, sp_offset};
    Result<SavepointExtent> target = walfmt::ParseSavepoint(sp_rec);
    if (target.ok()) {
      uint64_t bytes = 0;
      for (size_t i = 0; i <= sp_seg; ++i) {
        bytes += i == sp_seg ? sp_end : segments[i].valid_prefix;
      }
      uint64_t budget = bytes / kMinNodeRecordBytes;
      std::vector<uint64_t>& sizes = target->shard_sizes;
      // Shard s holds ids (s + 1) << 48 | index, so s + 1 fits 16 bits.
      size_t s = 0;
      for (; s < sizes.size() && s < 0xffff; ++s) {
        const bool exists = s < graph.num_shards();
        if (!exists) {
          if (budget == 0) break;
          --budget;
        }
        const uint64_t have = exists ? graph.ShardSize(s) : 0;
        const uint64_t grow =
            std::min(std::max(sizes[s], have) - have, budget);
        budget -= grow;
        sizes[s] = have + grow;
      }
      sizes.resize(s);
      const uint64_t have = graph.invocations().size();
      const uint64_t grow =
          std::min(std::max(target->invocation_count, have) - have, budget);
      graph.ReserveExtent(sizes, static_cast<size_t>(have + grow));
    }
  }

  // Pass 2: re-walk the checked images and apply records through the
  // boundary (and beyond it, when the caller wants the uncommitted tail
  // kept as dead structure). With no savepoint in the log the checkpoint
  // itself is the boundary.
  SavepointExtent boundary;  // default: the empty extent (nothing committed)
  if (rep.checkpoint_seq != 0) {
    ProvenanceGraph::Savepoint sp = graph.TakeSavepoint();
    boundary.invocation_count = sp.invocation_count;
    boundary.shard_sizes.assign(sp.shard_sizes.begin(),
                                sp.shard_sizes.end());
  }
  uint64_t applied = 0;
  for (size_t i = 0; i < segments.size(); ++i) {
    if (!options.keep_uncommitted && (!found_sp || i > sp_seg)) break;
    const ScannedSegment& seg = segments[i];
    const uint64_t end = !options.keep_uncommitted && i == sp_seg
                             ? sp_end
                             : seg.valid_prefix;
    walfmt::SegmentScanner scanner(
        std::string_view(seg.data).substr(0, static_cast<size_t>(end)),
        walfmt::kWalMagic, /*verified=*/true);
    Record rec;
    while (scanner.Next(&rec)) {
      Status st = walfmt::ApplyRecord(&graph, rec);
      if (!st.ok()) {
        return st.WithContext(
            StrCat("in ", walfmt::SegmentFileName(seg.seq)));
      }
      ++applied;
      if (i == sp_seg && rec.offset == sp_offset) {
        LIPSTICK_ASSIGN_OR_RETURN(boundary, walfmt::ParseSavepoint(rec));
        // AddShard is not logged: a worker shard that had appended
        // nothing by this boundary exists only as a zero-size entry in
        // the extent. Create those so the recovered graph matches the
        // tracker's shard-for-shard.
        while (graph.num_shards() < boundary.shard_sizes.size() &&
               boundary.shard_sizes[graph.num_shards()] == 0) {
          (void)graph.AddShard();
        }
        // The extent check: replay must land exactly where the tracker
        // was when it marked the boundary.
        LIPSTICK_RETURN_IF_ERROR(walfmt::VerifyExtent(graph, boundary));
      }
    }
  }
  rep.records_applied = applied;
  rep.records_discarded = total_records - applied;

  rep.executions_recovered = boundary.execution;
  if (options.keep_uncommitted) {
    // Mark the replayed-but-uncommitted tail dead with the same
    // machinery the executor uses to discard failed attempts: kill the
    // nodes past the boundary extent, abort the invocation records.
    for (uint32_t s = 0; s < graph.num_shards(); ++s) {
      uint64_t keep =
          s < boundary.shard_sizes.size() ? boundary.shard_sizes[s] : 0;
      if (graph.ShardSize(s) > keep) graph.KillShardTail(s, keep);
    }
    for (uint32_t inv = static_cast<uint32_t>(boundary.invocation_count);
         inv < graph.invocations().size(); ++inv) {
      if (!graph.invocations()[inv].aborted()) {
        graph.AbortInvocation(inv);
        ++rep.invocations_aborted;
      }
    }
  }
  rep.invocations_recovered = graph.num_live_invocations();

  if (options.repair) {
    for (const ScannedSegment& seg : segments) {
      if (seg.torn_reason.empty()) continue;
      if (seg.valid_prefix >= seg.data.size()) continue;
      if (::truncate(seg.path.c_str(),
                     static_cast<off_t>(seg.valid_prefix)) != 0) {
        rep.notes.push_back(StrCat("repair: cannot truncate ", seg.path));
        continue;
      }
      rep.bytes_truncated += seg.data.size() - seg.valid_prefix;
    }
  }

  if (obs::MetricsRegistry::Enabled()) {
    auto& reg = obs::MetricsRegistry::Global();
    reg.CounterAdd(RecoveryMetrics::Get().replayed, rep.records_applied);
    reg.CounterAdd(RecoveryMetrics::Get().discarded, rep.records_discarded);
    reg.CounterAdd(RecoveryMetrics::Get().torn, rep.torn_segments);
    reg.Observe(RecoveryMetrics::Get().us, timer.ElapsedMicros());
  }
  if (span.active()) {
    span.Arg("applied", rep.records_applied);
    span.Arg("executions", rep.executions_recovered);
  }
  // Trims what the reservation could not size: the edge arena, values,
  // invocation node lists and the pool's span table (which grows as
  // interning does).
  graph.ShrinkToFit();
  return graph;
}

}  // namespace lipstick
