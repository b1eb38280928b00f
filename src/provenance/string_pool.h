#ifndef LIPSTICK_PROVENANCE_STRING_POOL_H_
#define LIPSTICK_PROVENANCE_STRING_POOL_H_

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace lipstick {

/// Id of an interned string in a StringPool. Id 0 is always the empty
/// string; kStrNotFound is returned by Find() for strings never interned.
using StrId = uint32_t;
inline constexpr StrId kEmptyStr = 0;
inline constexpr StrId kStrNotFound = 0xffffffffu;

/// Interns strings into a chunked arena and hands out dense 32-bit ids.
///
/// Provenance graphs repeat the same payloads (token prefixes, module and
/// function names, aggregate ops) thousands of times; interning stores each
/// distinct string once and lets the node columns carry 4-byte ids instead
/// of 32-byte std::strings. Views returned by Get() stay valid for the
/// lifetime of the pool (strings never move: the arena grows by adding
/// chunks, never by reallocating one) and across moves of the pool.
///
/// The index from strings to ids is a flat open-addressed table of ids,
/// probed linearly: 4 bytes per slot, at most 3/4 full (IndexSlotsFor).
/// Each span keeps 32 bits of its string's hash in what would otherwise
/// be padding, so a probe compares hashes before it compares lengths or
/// reads the arena, and a rehash re-inserts from the stored hashes
/// without touching the strings. A span stays 16 bytes.
///
/// Bulk paths grow the pool the way interning one string at a time does:
/// Reserve() sizes the span table and the index once for a known batch,
/// to exactly what the batch's interns would leave, and the two-part
/// Intern() joins a front-coded name where it would be stored anyway.
///
/// Thread safety: Intern() and Find() may be called from concurrent
/// threads and take an internal mutex. Get() is a lock-free read and must
/// not race Intern() — in this codebase interning happens only while
/// tracking appends nodes, and payload lookups only on the sealed graph.
class StringPool {
 public:
  StringPool() { spans_.push_back({nullptr, 0, 0}); }  // id 0: empty string

  StringPool(StringPool&&) = default;
  StringPool& operator=(StringPool&&) = default;

  /// Returns the id of `s`, interning it on first use.
  StrId Intern(std::string_view s);

  /// Intern(prefix + suffix), without joining the two anywhere but in the
  /// arena, where a new string is stored anyway (a join that would open a
  /// new chunk goes through a heap string instead, so the arena grows as
  /// one-part interns grow it).
  StrId Intern(std::string_view prefix, std::string_view suffix);

  /// Makes room for `n` more strings at once: the span table grows at most
  /// once, to the capacity that `n` interns one by one would leave (it
  /// doubles), and the index is sized for the new total, so the batch
  /// rehashes at most once. Call it only for strings that will be new (a
  /// replayed record's checked count): for strings already present it
  /// would leave the tables larger than interning them does.
  void Reserve(size_t n);

  /// Returns the id of `s` if already interned, else kStrNotFound. Lets
  /// lookups by name (zoom, ByModule, ByPayload prefilters) run as integer
  /// comparisons against node columns.
  StrId Find(std::string_view s) const;

  /// The interned string. `id` must come from this pool.
  std::string_view Get(StrId id) const {
    const Span& sp = spans_[id];
    return {sp.data, sp.size};
  }

  /// Bounds-checked Get for ids of untrusted provenance (e.g. read back
  /// from a .pg file): out-of-range ids resolve to the empty string
  /// instead of indexing past the span table. Renderers use this so a
  /// corrupt payload id cannot crash an export.
  std::string_view GetChecked(StrId id) const {
    if (id >= spans_.size()) return {};
    return Get(id);
  }

  /// Number of distinct strings, including the implicit empty string.
  size_t size() const { return spans_.size(); }

  /// Bytes held by the pool: arena chunks, span table, and index slots.
  size_t MemoryBytes() const;

  /// Slots of the index once `n` non-empty strings are interned: the
  /// smallest power of two, at least 16, with n at most 3/4 of it (0 for
  /// n = 0).
  static size_t IndexSlotsFor(size_t n);

  /// Releases the span table's growth slack. Views stay valid: they point
  /// into the arena, which does not move.
  void ShrinkToFit();

  /// Observer of first-time interns, used by the write-ahead log to record
  /// string-pool growth. Called under the pool's intern lock, so events
  /// arrive in id order and strictly before any node referencing the new
  /// id can be appended, and `prev`, the string one id before `s`, is
  /// stable while it runs. Plain function pointer + context (not
  /// std::function) so the unobserved path stays one null check.
  using InternObserver = void (*)(void* ctx, StrId id, std::string_view s,
                                  std::string_view prev);
  void SetInternObserver(InternObserver fn, void* ctx) {
    observer_ = fn;
    observer_ctx_ = ctx;
  }

 private:
  struct Span {
    const char* data;
    uint32_t size;
    uint32_t hash;  // the string's hash; in the pointer's padding
  };
  static_assert(sizeof(void*) != 8 || sizeof(Span) == 16,
                "the hash must fit the span's padding");

  static constexpr size_t kChunkSize = 64 * 1024;

  /// Intern's body, under the lock. `staged`: `s` already sits at the
  /// arena's write cursor (the two-part Intern put it there), so storing
  /// it only advances the cursor.
  StrId InternLocked(std::string_view s, bool staged);
  const char* Store(std::string_view s);
  /// The index slot holding `s`, or the empty slot where it belongs.
  /// Requires a non-empty index.
  size_t FindSlot(std::string_view s, uint32_t hash) const;
  /// Re-sizes the index for `n` strings and re-inserts every stored one
  /// by its stored hash.
  void Rehash(size_t n);

  std::vector<std::unique_ptr<char[]>> chunks_;
  char* tail_ = nullptr;            // write cursor into the last open chunk
  size_t tail_left_ = 0;
  size_t arena_bytes_ = 0;          // total bytes allocated across chunks
  std::vector<Span> spans_;         // indexed by StrId
  std::vector<StrId> slots_;        // the index; kEmptyStr = empty slot
  std::unique_ptr<std::mutex> mu_ = std::make_unique<std::mutex>();
  InternObserver observer_ = nullptr;
  void* observer_ctx_ = nullptr;
};

}  // namespace lipstick

#endif  // LIPSTICK_PROVENANCE_STRING_POOL_H_
