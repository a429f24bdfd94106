#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <limits>
#include <set>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "support/blob.h"
#include "support/diagnostics.h"
#include "support/parallel.h"
#include "support/rng.h"
#include "support/stats.h"
#include "support/strings.h"
#include "support/table.h"

namespace qvliw {
namespace {

// --- diagnostics -----------------------------------------------------------

TEST(Diagnostics, CheckPassesOnTrue) { EXPECT_NO_THROW(check(true, "fine")); }

TEST(Diagnostics, CheckThrowsWithMessage) {
  try {
    check(false, "broken precondition");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_STREQ(e.what(), "broken precondition");
  }
}

TEST(Diagnostics, FailAtIncludesLocation) {
  try {
    fail_at("file.cpp", 42, "boom");
    FAIL() << "expected Error";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("file.cpp:42"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
  }
}

// --- strings ----------------------------------------------------------------

struct Tagged {
  int id;
};
std::ostream& operator<<(std::ostream& os, const Tagged& tagged) { return os << '#' << tagged.id; }

template <typename T>
std::string streamed(const T& value) {
  std::ostringstream os;
  os << value;
  return os.str();
}

TEST(Strings, CatConcatenatesMixedTypes) {
  EXPECT_EQ(cat("x=", 3, ", y=", 2.5), "x=3, y=2.5");
  EXPECT_EQ(cat(), "");

  // Every argument kind prints exactly what a stream prints for it.
  for (const int v : {std::numeric_limits<int>::min(), -1, 0, 9, std::numeric_limits<int>::max()}) {
    EXPECT_EQ(cat(v), streamed(v));
  }
  for (const long long v : {std::numeric_limits<long long>::min(), -10LL,
                            std::numeric_limits<long long>::max()}) {
    EXPECT_EQ(cat(v), streamed(v));
  }
  for (const std::size_t v : {std::size_t{0}, std::size_t{10}, std::numeric_limits<std::size_t>::max()}) {
    EXPECT_EQ(cat(v), streamed(v));
  }
  for (const short v : {std::numeric_limits<short>::min(), short{-7}, std::numeric_limits<short>::max()}) {
    EXPECT_EQ(cat(v), streamed(v));
  }
  EXPECT_EQ(cat('c'), streamed('c'));
  EXPECT_EQ(cat(std::uint8_t{65}), streamed(std::uint8_t{65}));  // a character, not "65"
  EXPECT_EQ(cat(true, false), streamed(true) + streamed(false));
  for (const double v : {0.0, -2.5, 0.1, 1.0 / 3.0, 1e20, 123456789.0}) {
    EXPECT_EQ(cat(v), streamed(v));
  }
  EXPECT_EQ(cat(Tagged{42}), streamed(Tagged{42}));
  const std::string_view with_nul("a\0b", 3);
  EXPECT_EQ(cat(with_nul), streamed(with_nul));
  EXPECT_EQ(cat(with_nul).size(), 3u);
  EXPECT_EQ(cat(std::string()), streamed(std::string()));
  EXPECT_EQ(cat(""), "");
  EXPECT_EQ(cat("v", std::string("_u"), std::string_view("_c"), 'x', 7u, -8L, 9ULL),
            "v_u_cx7-89");
}

TEST(Strings, FixedAndPercent) {
  EXPECT_EQ(fixed(3.14159, 2), "3.14");
  EXPECT_EQ(percent(0.952, 1), "95.2%");
  EXPECT_EQ(percent(1.0, 0), "100%");
}

TEST(Strings, Padding) {
  EXPECT_EQ(pad_left("ab", 4), "  ab");
  EXPECT_EQ(pad_right("ab", 4), "ab  ");
  EXPECT_EQ(pad_left("abcde", 3), "abcde");
}

// --- rng ---------------------------------------------------------------------

TEST(Rng, DeterministicForSameSeed) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1);
  Rng b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.next() == b.next()) ++same;
  }
  EXPECT_LT(same, 4);
}

TEST(Rng, UniformIntStaysInRange) {
  Rng rng(7);
  std::set<int> seen;
  for (int i = 0; i < 2000; ++i) {
    const int v = rng.uniform_int(-3, 5);
    ASSERT_GE(v, -3);
    ASSERT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 9u);  // all values hit
}

TEST(Rng, UniformIntDegenerateRange) {
  Rng rng(7);
  for (int i = 0; i < 10; ++i) EXPECT_EQ(rng.uniform_int(4, 4), 4);
}

TEST(Rng, UniformRealInUnitInterval) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform();
    ASSERT_GE(v, 0.0);
    ASSERT_LT(v, 1.0);
  }
}

TEST(Rng, ChanceExtremes) {
  Rng rng(11);
  for (int i = 0; i < 50; ++i) {
    EXPECT_FALSE(rng.chance(0.0));
    EXPECT_TRUE(rng.chance(1.0));
  }
}

TEST(Rng, WeightedrespectsZeroWeights) {
  Rng rng(13);
  const std::vector<double> weights = {0.0, 1.0, 0.0};
  for (int i = 0; i < 100; ++i) EXPECT_EQ(rng.weighted(weights), 1u);
}

TEST(Rng, WeightedRoughProportions) {
  Rng rng(17);
  const std::vector<double> weights = {1.0, 3.0};
  int hits = 0;
  const int draws = 4000;
  for (int i = 0; i < draws; ++i) {
    if (rng.weighted(weights) == 1) ++hits;
  }
  EXPECT_NEAR(static_cast<double>(hits) / draws, 0.75, 0.05);
}

TEST(Rng, Pick) {
  Rng rng(19);
  std::vector<int> items = {1, 2, 3, 4, 5};
  for (int i = 0; i < 20; ++i) {
    const int v = rng.pick(items);
    EXPECT_GE(v, 1);
    EXPECT_LE(v, 5);
  }
}

TEST(Rng, ForkIsIndependent) {
  Rng a(21);
  Rng child = a.fork();
  // Child stream should not replay the parent stream.
  Rng b(21);
  (void)b.next();  // parent consumed one draw to fork
  EXPECT_NE(child.next(), b.next());
}

TEST(Rng, Hash64Stable) {
  EXPECT_EQ(hash64(42), hash64(42));
  EXPECT_NE(hash64(42), hash64(43));
  EXPECT_EQ(hash_combine(1, 2), hash_combine(1, 2));
  EXPECT_NE(hash_combine(1, 2), hash_combine(2, 1));
}

// --- stats --------------------------------------------------------------------

TEST(Stats, OnlineBasics) {
  OnlineStats s;
  for (double v : {2.0, 4.0, 6.0}) s.add(v);
  EXPECT_EQ(s.count(), 3u);
  EXPECT_DOUBLE_EQ(s.mean(), 4.0);
  EXPECT_DOUBLE_EQ(s.min(), 2.0);
  EXPECT_DOUBLE_EQ(s.max(), 6.0);
  EXPECT_DOUBLE_EQ(s.sum(), 12.0);
}

TEST(Stats, MeanAndGeomean) {
  EXPECT_DOUBLE_EQ(mean({1.0, 2.0, 3.0}), 2.0);
  EXPECT_DOUBLE_EQ(mean({}), 0.0);
  EXPECT_NEAR(geomean({1.0, 4.0}), 2.0, 1e-12);
  EXPECT_THROW((void)geomean({1.0, 0.0}), Error);
}

TEST(Stats, PercentileInterpolates) {
  std::vector<double> values = {10, 20, 30, 40};
  EXPECT_DOUBLE_EQ(percentile(values, 0), 10.0);
  EXPECT_DOUBLE_EQ(percentile(values, 100), 40.0);
  EXPECT_DOUBLE_EQ(percentile(values, 50), 25.0);
}

TEST(Stats, HistogramBins) {
  Histogram h(0.0, 10.0, 5);
  for (double v : {0.5, 1.5, 3.0, 9.9, 11.0, -1.0}) h.add(v);  // clamped edges
  EXPECT_EQ(h.total(), 6u);
  EXPECT_EQ(h.bin_count(0), 3u);  // 0.5, 1.5, -1.0
  EXPECT_EQ(h.bin_count(1), 1u);  // 3.0
  EXPECT_EQ(h.bin_count(4), 2u);  // 9.9, 11.0
  EXPECT_DOUBLE_EQ(h.bin_lo(1), 2.0);
  EXPECT_DOUBLE_EQ(h.bin_hi(1), 4.0);
}

// --- table ---------------------------------------------------------------------

TEST(Table, RendersAlignedColumns) {
  TextTable t({"name", "value"});
  t.add_row({std::string("alpha"), std::int64_t{42}});
  t.add_row({std::string("b"), 3.14159});
  std::ostringstream os;
  t.render(os);
  const std::string out = os.str();
  EXPECT_NE(out.find("alpha"), std::string::npos);
  EXPECT_NE(out.find("42"), std::string::npos);
  EXPECT_NE(out.find("3.14"), std::string::npos);
  EXPECT_EQ(t.rows(), 2u);
  EXPECT_EQ(t.columns(), 2u);
}

TEST(Table, RowWidthMismatchThrows) {
  TextTable t({"a", "b"});
  EXPECT_THROW(t.add_row({std::string("only-one")}), Error);
}

// --- parallel ---------------------------------------------------------------------

TEST(Parallel, CoversAllIndicesExactlyOnce) {
  for (const std::size_t workers : {1u, 2u, 4u}) {
    const std::size_t n = 1003;
    std::vector<std::atomic<int>> hits(n);
    parallel_for(n, workers, [&](std::size_t i) { hits[i].fetch_add(1); });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << workers << " " << i;
  }
}

TEST(Parallel, ZeroCountIsNoop) {
  bool ran = false;
  parallel_for(0, 4, [&](std::size_t) { ran = true; });
  EXPECT_FALSE(ran);
}

TEST(Parallel, WorkerCountPositive) { EXPECT_GE(worker_count(), 1u); }

TEST(Parallel, ExceptionStillRunsEveryOtherIndex) {
  // The throwing index fails alone: every other index still runs and the
  // join completes before the rethrow.
  for (const std::size_t workers : {1u, 4u}) {
    const std::size_t n = 64;
    std::vector<std::atomic<int>> hits(n);
    EXPECT_THROW(parallel_for(n, workers,
                              [&](std::size_t i) {
                                if (i == 0) throw Error("index 0 failed");
                                hits[i].fetch_add(1);
                              }),
                 Error);
    for (std::size_t i = 1; i < n; ++i) EXPECT_EQ(hits[i].load(), 1) << workers << " " << i;
  }
}

TEST(Parallel, MultipleExceptionsRethrowOne) {
  EXPECT_THROW(parallel_for(256, 4,
                            [](std::size_t i) {
                              if (i % 2 == 0) throw Error("even index failed");
                            }),
               Error);
}

TEST(Parallel, WorkersRunConcurrently) {
  // Four workers (three threads + the caller) hold four indices at once:
  // each index spins until all four have started.  A call that failed to
  // fan out would hang here (caught by the test timeout), not pass.
  std::atomic<int> started{0};
  parallel_for(4, 4, [&](std::size_t) {
    started.fetch_add(1);
    while (started.load() < 4) std::this_thread::yield();
  });
  EXPECT_EQ(started.load(), 4);
}

TEST(Parallel, SingleWorkerRunsInIndexOrder) {
  std::vector<std::size_t> order;  // no lock needed: serial by contract
  parallel_for(100, 1, [&](std::size_t i) { order.push_back(i); });
  ASSERT_EQ(order.size(), 100u);
  for (std::size_t i = 0; i < order.size(); ++i) EXPECT_EQ(order[i], i);
}

TEST(Parallel, NestedCallCompletes) {
  std::vector<std::atomic<int>> hits(32 * 8);
  parallel_for(32, 2, [&](std::size_t outer) {
    parallel_for(8, 2, [&](std::size_t inner) { hits[outer * 8 + inner].fetch_add(1); });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) EXPECT_EQ(hits[i].load(), 1) << i;
}

TEST(Parallel, CallInForkedChildCompletes) {
  const pid_t pid = fork();
  ASSERT_GE(pid, 0) << "fork failed";
  if (pid == 0) {
    std::atomic<std::size_t> sum{0};
    parallel_for(100, 4, [&](std::size_t i) { sum.fetch_add(i + 1); });
    _exit(sum.load() == 5050 ? 0 : 1);
  }
  int status = 0;
  ASSERT_EQ(waitpid(pid, &status, 0), pid);
  EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0)
      << "child exited " << status;
}

TEST(Rng, HashBytesStableAndSensitive) {
  const std::uint64_t empty = hash_bytes("");
  EXPECT_EQ(empty, hash_bytes(""));  // deterministic
  EXPECT_EQ(hash_bytes("daxpy"), hash_bytes("daxpy"));
  EXPECT_NE(hash_bytes("daxpy"), hash_bytes("daxpz"));
  EXPECT_NE(hash_bytes("ab"), hash_bytes("ba"));
  EXPECT_NE(hash_bytes(""), hash_bytes(std::string_view("\0", 1)));
}

TEST(Blob, BinaryFieldsRoundTrip) {
  BlobWriter writer;
  writer.put_u64(0x0123456789abcdefULL);
  writer.put_i64(-7);
  writer.put_i32(-123456);
  writer.put_bool(true);
  writer.put_f64(-0.375);
  writer.put_string(std::string("nul\0inside", 10));
  const std::string blob = writer.take();

  BlobReader reader(blob);
  EXPECT_EQ(reader.get_u64(), 0x0123456789abcdefULL);
  EXPECT_EQ(reader.get_i64(), -7);
  EXPECT_EQ(reader.get_i32(), -123456);
  EXPECT_TRUE(reader.get_bool());
  EXPECT_EQ(reader.get_f64(), -0.375);
  EXPECT_EQ(reader.get_string(), std::string("nul\0inside", 10));
  EXPECT_TRUE(reader.exhausted());
}

TEST(Blob, TruncatedBlobThrows) {
  BlobWriter writer;
  writer.put_u64(99);
  const std::string bytes = writer.take();

  BlobReader truncated(std::string_view(bytes).substr(0, 4));
  EXPECT_THROW((void)truncated.get_u64(), Error);

  // A string whose declared length exceeds the remaining bytes.
  BlobWriter lying;
  lying.put_u64(1000);  // length prefix with no payload
  const std::string lie = lying.take();
  BlobReader reader(lie);
  EXPECT_THROW((void)reader.get_string(), Error);
}

TEST(Blob, RequireExhaustedRejectsTrailingBytes) {
  // A longer (future-format) blob must not silently decode as a valid
  // shorter one: every decode site ends with require_exhausted, which
  // only accepts a fully consumed blob.
  BlobWriter writer;
  writer.put_u64(7);
  writer.put_bool(true);  // the "extra" trailing field a v+1 format adds
  const std::string bytes = writer.take();

  BlobReader reader(bytes);
  EXPECT_EQ(reader.get_u64(), 7u);
  EXPECT_THROW(reader.require_exhausted("entry"), Error);
  EXPECT_TRUE(reader.get_bool());
  reader.require_exhausted("entry");  // all consumed: no throw
}

}  // namespace
}  // namespace qvliw
