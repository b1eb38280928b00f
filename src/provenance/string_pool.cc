#include "provenance/string_pool.h"

#include <algorithm>
#include <bit>
#include <cstring>
#include <functional>

#include "common/check.h"
#include "common/growth.h"

namespace lipstick {

namespace {

uint32_t HashOf(std::string_view s) {
  return static_cast<uint32_t>(std::hash<std::string_view>{}(s));
}

}  // namespace

size_t StringPool::IndexSlotsFor(size_t n) {
  if (n == 0) return 0;
  return std::max<size_t>(16, std::bit_ceil((n * 4 + 2) / 3));
}

size_t StringPool::FindSlot(std::string_view s, uint32_t hash) const {
  const size_t mask = slots_.size() - 1;
  for (size_t i = hash & mask;; i = (i + 1) & mask) {
    StrId id = slots_[i];
    if (id == kEmptyStr) return i;
    const Span& sp = spans_[id];
    if (sp.hash == hash && sp.size == s.size() &&
        std::memcmp(sp.data, s.data(), s.size()) == 0) {
      return i;
    }
  }
}

void StringPool::Rehash(size_t n) {
  std::vector<StrId> fresh(IndexSlotsFor(n), kEmptyStr);
  const size_t mask = fresh.size() - 1;
  // Stored strings are distinct: each takes the first free slot.
  for (StrId id = 1; id < spans_.size(); ++id) {
    size_t i = spans_[id].hash & mask;
    while (fresh[i] != kEmptyStr) i = (i + 1) & mask;
    fresh[i] = id;
  }
  slots_.swap(fresh);
}

StrId StringPool::Intern(std::string_view s) {
  if (s.empty()) return kEmptyStr;
  std::lock_guard<std::mutex> lock(*mu_);
  return InternLocked(s, /*staged=*/false);
}

StrId StringPool::Intern(std::string_view prefix, std::string_view suffix) {
  const size_t n = prefix.size() + suffix.size();
  if (n == 0) return kEmptyStr;
  {
    std::lock_guard<std::mutex> lock(*mu_);
    if (n <= tail_left_) {
      // Join at the write cursor: a new string stays there, and for one
      // already interned the bytes past the cursor are simply reused.
      std::memcpy(tail_, prefix.data(), prefix.size());
      std::memcpy(tail_ + prefix.size(), suffix.data(), suffix.size());
      return InternLocked(std::string_view(tail_, n), /*staged=*/true);
    }
  }
  std::string joined;
  joined.reserve(n);
  joined.append(prefix).append(suffix);
  return Intern(joined);
}

StrId StringPool::InternLocked(std::string_view s, bool staged) {
  const uint32_t hash = HashOf(s);
  size_t slot = 0;
  if (!slots_.empty()) {
    slot = FindSlot(s, hash);
    if (slots_[slot] != kEmptyStr) return slots_[slot];
  }
  LIPSTICK_CHECK(spans_.size() < kStrNotFound, "string pool exhausted");
  const char* stored = s.data();
  if (staged) {
    tail_ += s.size();
    tail_left_ -= s.size();
  } else {
    stored = Store(s);
  }
  StrId id = static_cast<StrId>(spans_.size());
  spans_.push_back({stored, static_cast<uint32_t>(s.size()), hash});
  if (IndexSlotsFor(id) > slots_.size()) {
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

void StringPool::Reserve(size_t n) {
  std::lock_guard<std::mutex> lock(*mu_);
  const size_t strings = spans_.size() - 1 + n;  // the empty one aside
  ReserveAsIfPushed(spans_, n);
  if (IndexSlotsFor(strings) > slots_.size()) Rehash(strings);
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
