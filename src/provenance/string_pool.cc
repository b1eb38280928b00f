#include "provenance/string_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "common/check.h"

namespace lipstick {

namespace {

size_t HashOf(std::string_view s) { return std::hash<std::string_view>{}(s); }

}  // namespace

size_t StringPool::IndexSlotsFor(size_t n) {
  if (n == 0) return 0;
  return std::max<size_t>(16, std::bit_ceil((n * 4 + 2) / 3));
}

size_t StringPool::FindSlot(std::string_view s, size_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    StrId id = slots_[i];
    if (id == kEmptyStr) return i;
    const Span& sp = spans_[id];
    if (sp.size == s.size() && std::memcmp(sp.data, s.data(), s.size()) == 0) {
      return i;
    }
  }
}

void StringPool::Rehash(size_t n) {
  std::vector<StrId> fresh(IndexSlotsFor(n), kEmptyStr);
  slots_.swap(fresh);
  for (StrId id = 1; id < spans_.size(); ++id) {
    std::string_view s = Get(id);
    slots_[FindSlot(s, HashOf(s))] = id;
  }
}

StrId StringPool::Intern(std::string_view s) {
  if (s.empty()) return kEmptyStr;
  std::lock_guard<std::mutex> lock(*mu_);
  const size_t hash = HashOf(s);
  size_t slot = 0;
  if (!slots_.empty()) {
    slot = FindSlot(s, hash);
    if (slots_[slot] != kEmptyStr) return slots_[slot];
  }
  LIPSTICK_CHECK(spans_.size() < kStrNotFound, "string pool exhausted");
  const char* stored = Store(s);
  StrId id = static_cast<StrId>(spans_.size());
  spans_.push_back({stored, static_cast<uint32_t>(s.size())});
  if (IndexSlotsFor(id) != slots_.size()) {
    Rehash(id);
  } else {
    slots_[slot] = id;
  }
  if (observer_ != nullptr) {
    observer_(observer_ctx_, id, std::string_view(stored, s.size()),
              Get(id - 1));
  }
  return id;
}

StrId StringPool::Find(std::string_view s) const {
  if (s.empty()) return kEmptyStr;
  std::lock_guard<std::mutex> lock(*mu_);
  if (slots_.empty()) return kStrNotFound;
  StrId id = slots_[FindSlot(s, HashOf(s))];
  return id == kEmptyStr ? kStrNotFound : id;
}

const char* StringPool::Store(std::string_view s) {
  if (s.size() > tail_left_) {
    if (s.size() >= kChunkSize) {
      // Oversized string: dedicated chunk, current tail chunk untouched.
      chunks_.push_back(std::make_unique<char[]>(s.size()));
      arena_bytes_ += s.size();
      char* dst = chunks_.back().get();
      std::memcpy(dst, s.data(), s.size());
      return dst;
    }
    chunks_.push_back(std::make_unique<char[]>(kChunkSize));
    arena_bytes_ += kChunkSize;
    tail_ = chunks_.back().get();
    tail_left_ = kChunkSize;
  }
  char* dst = tail_;
  std::memcpy(dst, s.data(), s.size());
  tail_ += s.size();
  tail_left_ -= s.size();
  return dst;
}

void StringPool::ShrinkToFit() {
  std::lock_guard<std::mutex> lock(*mu_);
  spans_.shrink_to_fit();
}

size_t StringPool::MemoryBytes() const {
  std::lock_guard<std::mutex> lock(*mu_);
  return arena_bytes_ + spans_.capacity() * sizeof(Span) +
         slots_.size() * sizeof(StrId);
}

}  // namespace lipstick
