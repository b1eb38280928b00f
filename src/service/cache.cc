#include "service/cache.h"

#include "common/str_util.h"

namespace lipstick::service {

std::string ResponseCache::Key(const std::string& graph, uint64_t epoch,
                               const std::string& op,
                               const std::vector<std::string>& args) {
  std::string key = StrCat(graph, '\x1f', epoch, '\x1f', op);
  for (const std::string& a : args) {
    key.push_back('\x1f');
    key += a;
  }
  return key;
}

}  // namespace lipstick::service
