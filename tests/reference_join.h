#ifndef LIPSTICK_TESTS_REFERENCE_JOIN_H_
#define LIPSTICK_TESTS_REFERENCE_JOIN_H_

// A nested-loop JOIN over keys the caller computed: the matches, and the
// order, that the interpreter's hash join must reproduce. It shares no
// code with the interpreter: keys come in as plain values, and equality is
// Value::Equals element by element, as Pig's JOIN defines it.

#include <cstddef>
#include <vector>

#include "relational/value.h"

namespace lipstick::testing {

/// The key of one tuple: one value per BY expression.
using JoinKey = std::vector<Value>;

/// One output row: the index of the matched tuple in each input.
using JoinRow = std::vector<size_t>;

inline bool JoinKeysEqual(const JoinKey& a, const JoinKey& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (!a[i].Equals(b[i])) return false;
  }
  return true;
}

/// `keys[in][i]` is the key of tuple i of input `in`. Returns every
/// combination whose keys all equal input 0's key, from a nested loop with
/// input 0 outermost and the last input innermost.
inline std::vector<JoinRow> ReferenceJoin(
    const std::vector<std::vector<JoinKey>>& keys) {
  std::vector<JoinRow> rows;
  JoinRow row(keys.size());
  // Iterative nested loop: `row[in]` is the loop variable of level `in`.
  size_t in = 0;
  row[0] = 0;
  while (true) {
    if (row[in] == keys[in].size()) {  // level exhausted: step back out
      if (in == 0) break;
      ++row[--in];
      continue;
    }
    if (in > 0 && !JoinKeysEqual(keys[in][row[in]], keys[0][row[0]])) {
      ++row[in];
      continue;
    }
    if (in + 1 == keys.size()) {
      rows.push_back(row);
      ++row[in];
      continue;
    }
    row[++in] = 0;
  }
  return rows;
}

}  // namespace lipstick::testing

#endif  // LIPSTICK_TESTS_REFERENCE_JOIN_H_
