// Compile-time contract of WorkFn (src/os/server.h), checked by ctest
// (tests/CMakeLists.txt): with no case macro this file must compile; with
// WORK_FN_OVERSIZED or WORK_FN_NONTRIVIAL it must fail on WorkFn's
// static_assert.

#include <string>

#include "src/os/server.h"

namespace newtos {

void Probe(const Server::Chan* ch, const std::string& name) {
  // What every real source captures: one pointer.
  Server::WorkSource ok{.has_work = [ch] { return !ch->empty(); }};
  (void)ok;
#if defined(WORK_FN_OVERSIZED)
  const Server::Chan* more[3] = {ch, ch, ch};
  WorkFn<bool> big = [a = more[0], b = more[1], c = more[2]] {
    return !a->empty() || !b->empty() || !c->empty();
  };
  (void)big;
#elif defined(WORK_FN_NONTRIVIAL)
  WorkFn<bool> owns = [name] { return name.empty(); };
  (void)owns;
#else
  (void)name;
#endif
}

}  // namespace newtos
