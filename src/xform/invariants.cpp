#include "xform/invariants.h"

namespace qvliw {

Loop materialize_invariants(const Loop& src, InvariantStrategy /*strategy*/) {
  src.validate();
  return src;
}

}  // namespace qvliw
