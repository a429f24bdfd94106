#include <gtest/gtest.h>

#include "workload/kernels.h"
#include "xform/invariants.h"

namespace qvliw {
namespace {

TEST(Invariants, ImmediateStrategyIsNoop) {
  const Loop loop = kernel_by_name("daxpy");
  const Loop out = materialize_invariants(loop, InvariantStrategy::kImmediate);
  EXPECT_EQ(out.op_count(), loop.op_count());
}

}  // namespace
}  // namespace qvliw
