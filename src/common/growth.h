#ifndef LIPSTICK_COMMON_GROWTH_H_
#define LIPSTICK_COMMON_GROWTH_H_

#include <algorithm>
#include <cstddef>
#include <vector>

namespace lipstick {

/// Makes room for `more` elements past `v`'s size the way push_back would
/// have grown it one element at a time: the capacity doubles (from 1 when
/// empty) as often as it takes, in one reallocation. A batch reserved this
/// way leaves the vector exactly as large as pushing its elements one by
/// one, so a bulk path holds no more memory than the element-wise one.
template <typename T>
void ReserveAsIfPushed(std::vector<T>& v, size_t more) {
  const size_t want = v.size() + more;
  if (want <= v.capacity()) return;
  size_t cap = std::max<size_t>(v.capacity(), 1);
  while (cap < want) cap *= 2;
  v.reserve(cap);
}

}  // namespace lipstick

#endif  // LIPSTICK_COMMON_GROWTH_H_
