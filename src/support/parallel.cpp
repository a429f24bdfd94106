#include "support/parallel.h"

namespace qvliw {

std::size_t worker_count() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

}  // namespace qvliw
