#include "provenance/string_pool.h"

#include <cstring>

#include "common/check.h"

namespace lipstick {

StrId StringPool::Intern(std::string_view s) {
  if (s.empty()) return kEmptyStr;
  std::lock_guard<std::mutex> lock(*mu_);
  auto it = index_.find(s);
  if (it != index_.end()) return it->second;
  LIPSTICK_CHECK(spans_.size() < kStrNotFound, "string pool exhausted");
  const char* stored = Store(s);
  StrId id = static_cast<StrId>(spans_.size());
  spans_.push_back({stored, static_cast<uint32_t>(s.size())});
  index_.emplace(std::string_view(stored, s.size()), id);
  if (observer_ != nullptr) {
    observer_(observer_ctx_, id, std::string_view(stored, s.size()));
  }
  return id;
}

StrId StringPool::Find(std::string_view s) const {
  if (s.empty()) return kEmptyStr;
  std::lock_guard<std::mutex> lock(*mu_);
  auto it = index_.find(s);
  return it == index_.end() ? kStrNotFound : it->second;
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
         index_.size() * (sizeof(std::string_view) + sizeof(StrId) +
                          2 * sizeof(void*));  // approx. bucket overhead
}

}  // namespace lipstick
