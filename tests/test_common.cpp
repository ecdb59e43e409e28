// Bit utilities, error handling, formatting, deterministic RNG, and the
// fixed thread pool behind mrp_optimize_batch.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "mrpf/cache/session.hpp"
#include "mrpf/common/bits.hpp"
#include "mrpf/common/env.hpp"
#include "mrpf/common/error.hpp"
#include "mrpf/common/format.hpp"
#include "mrpf/common/parallel.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/scheme_driver.hpp"
#include "mrpf/exec/streaming.hpp"

namespace mrpf {
namespace {

TEST(Bits, BitWidthAbs) {
  EXPECT_EQ(bit_width_abs(0), 0);
  EXPECT_EQ(bit_width_abs(1), 1);
  EXPECT_EQ(bit_width_abs(-1), 1);
  EXPECT_EQ(bit_width_abs(2), 2);
  EXPECT_EQ(bit_width_abs(255), 8);
  EXPECT_EQ(bit_width_abs(256), 9);
  EXPECT_EQ(bit_width_abs(-256), 9);
}

TEST(Bits, OddPartAndTrailingZeros) {
  EXPECT_EQ(odd_part(0), 0);
  EXPECT_EQ(odd_part(12), 3);
  EXPECT_EQ(odd_part(-12), 3);
  EXPECT_EQ(odd_part(7), 7);
  EXPECT_EQ(trailing_zeros(12), 2);
  EXPECT_EQ(trailing_zeros(-12), 2);
  EXPECT_EQ(trailing_zeros(1), 0);
}

TEST(Bits, ReconstructionProperty) {
  for (i64 v = -2000; v <= 2000; ++v) {
    if (v == 0) continue;
    const i64 sign = v < 0 ? -1 : 1;
    EXPECT_EQ(sign * (odd_part(v) << trailing_zeros(v)), v) << v;
  }
}

TEST(Bits, PopcountAndPow2) {
  EXPECT_EQ(popcount_abs(0), 0);
  EXPECT_EQ(popcount_abs(7), 3);
  EXPECT_EQ(popcount_abs(-7), 3);
  EXPECT_TRUE(is_pow2_abs(64));
  EXPECT_TRUE(is_pow2_abs(-64));
  EXPECT_FALSE(is_pow2_abs(0));
  EXPECT_FALSE(is_pow2_abs(12));
}

TEST(ErrorHandling, CheckMacroThrowsWithContext) {
  try {
    MRPF_CHECK(1 == 2, "arithmetic broke");
    FAIL() << "MRPF_CHECK did not throw";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("arithmetic broke"),
              std::string::npos);
    EXPECT_NE(std::string(e.what()).find("1 == 2"), std::string::npos);
  }
}

TEST(Format, BasicFormatting) {
  EXPECT_EQ(str_format("x=%d y=%s", 42, "ok"), "x=42 y=ok");
  EXPECT_EQ(str_format("%.2f", 1.2345), "1.23");
  EXPECT_EQ(str_format("empty"), "empty");
}

TEST(RngTest, DeterministicAcrossInstances) {
  Rng a(123);
  Rng b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.next_u64(), b.next_u64());
  }
}

TEST(RngTest, NextIntStaysInRange) {
  Rng rng(7);
  std::set<std::int64_t> seen;
  for (int i = 0; i < 2000; ++i) {
    const std::int64_t v = rng.next_int(-5, 5);
    EXPECT_GE(v, -5);
    EXPECT_LE(v, 5);
    seen.insert(v);
  }
  EXPECT_EQ(seen.size(), 11u) << "all values in a small range should occur";
  EXPECT_THROW(rng.next_int(3, 2), Error);
}

TEST(RngTest, DoublesInUnitInterval) {
  Rng rng(9);
  double sum = 0.0;
  for (int i = 0; i < 10000; ++i) {
    const double d = rng.next_double();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
    sum += d;
  }
  EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, GaussianMoments) {
  Rng rng(11);
  double sum = 0.0;
  double sq = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    const double g = rng.next_gaussian();
    sum += g;
    sq += g * g;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(ThreadPool, RunsEveryIndexExactlyOnce) {
  for (const int threads : {1, 2, 8}) {
    ThreadPool pool(threads);
    EXPECT_EQ(pool.size(), threads);
    const std::size_t n = 500;
    std::vector<std::atomic<int>> hits(n);
    pool.parallel_for(n, [&](std::size_t i) { ++hits[i]; });
    for (std::size_t i = 0; i < n; ++i) EXPECT_EQ(hits[i].load(), 1);
    // The pool is reusable: a second job on the same pool.
    std::atomic<int> total{0};
    pool.parallel_for(37, [&](std::size_t) { ++total; });
    EXPECT_EQ(total.load(), 37);
    pool.parallel_for(0, [&](std::size_t) { ADD_FAILURE(); });
  }
}

TEST(ThreadPool, ResultsLandInDeterministicSlots) {
  // Per-index result slots make output independent of scheduling: each
  // index writes only its own slot, so the assembled vector is identical
  // for any thread count.
  std::vector<std::vector<int>> results;
  for (const int threads : {1, 3}) {
    std::vector<int> out(101, -1);
    parallel_for(out.size(),
                 [&](std::size_t i) { out[i] = static_cast<int>(i * i % 97); },
                 threads);
    results.push_back(std::move(out));
  }
  EXPECT_EQ(results[0], results[1]);
}

TEST(ThreadPool, PropagatesWorkerExceptions) {
  ThreadPool pool(4);
  EXPECT_THROW(pool.parallel_for(64,
                                 [](std::size_t i) {
                                   if (i == 13) {
                                     throw std::runtime_error("boom");
                                   }
                                 }),
               std::runtime_error);
  // Pool still usable after an exceptional job.
  std::atomic<int> total{0};
  pool.parallel_for(8, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 8);
}

TEST(ThreadPool, DefaultThreadCountReadsEnvironment) {
  ::setenv("MRPF_THREADS", "3", 1);
  EXPECT_EQ(default_thread_count(), 3);
  ::setenv("MRPF_THREADS", "9999", 1);  // clamped
  EXPECT_EQ(default_thread_count(), 512);
  ::setenv("MRPF_THREADS", "garbage", 1);  // rejected -> hardware default
  EXPECT_GE(default_thread_count(), 1);
  ::unsetenv("MRPF_THREADS");
  EXPECT_GE(default_thread_count(), 1);
}

TEST(ThreadPool, MalformedThreadEnvWarnsOnceAndFallsBack) {
  // Grammar: decimal digits only, value >= 1 (values above 512 clamp).
  // Every malformed form falls back to the hardware default and the
  // warning fires at most once per process — exactly once if no earlier
  // test tripped it already.
  const unsigned hw = std::thread::hardware_concurrency();
  const int hardware_default = hw > 0 ? static_cast<int>(hw) : 1;
  const bool warned_before = env::warning_fired("MRPF_THREADS");
  ::testing::internal::CaptureStderr();
  for (const char* bad : {"4x", "0", "-2", "", "  4", "+4", "4 "}) {
    ::setenv("MRPF_THREADS", bad, 1);
    EXPECT_EQ(default_thread_count(), hardware_default)
        << "MRPF_THREADS=\"" << bad << '"';
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(env::warning_fired("MRPF_THREADS"));
  std::size_t warnings = 0;
  const std::string needle = "ignoring malformed MRPF_THREADS";
  for (std::size_t pos = err.find(needle); pos != std::string::npos;
       pos = err.find(needle, pos + 1)) {
    ++warnings;
  }
  EXPECT_EQ(warnings, warned_before ? 0u : 1u) << err;
  // Well-formed values still parse after the warning.
  ::setenv("MRPF_THREADS", "2", 1);
  EXPECT_EQ(default_thread_count(), 2);
  ::unsetenv("MRPF_THREADS");
}

TEST(EnvKnobs, SharedGrammarAcceptsOnlyBareDecimals) {
  // The one grammar behind MRPF_THREADS and MRPF_CACHE: decimal digits
  // only, value >= 1, clamped to the caller's maximum.
  EXPECT_TRUE(env::parse_positive_int("1", 512).well_formed);
  EXPECT_EQ(env::parse_positive_int("1", 512).value, 1);
  EXPECT_EQ(env::parse_positive_int("37", 512).value, 37);
  EXPECT_EQ(env::parse_positive_int("512", 512).value, 512);
  EXPECT_EQ(env::parse_positive_int("513", 512).value, 512);  // clamped
  EXPECT_EQ(env::parse_positive_int("999999999999999999999", 512).value,
            512);  // clamp survives values far past the i64 range
  for (const char* bad : {"0", "-1", "+4", " 4", "4 ", "4x", "0x10", "four",
                          "1e3", "3.5", "", "\t2"}) {
    EXPECT_FALSE(env::parse_positive_int(bad, 512).well_formed)
        << '"' << bad << '"';
  }
  EXPECT_FALSE(env::parse_positive_int(nullptr, 512).well_formed);
}

TEST(EnvKnobs, ExecModeGrammarIsStrict) {
  // MRPF_EXEC: exactly off | interp | vector | vector:N, words
  // case-insensitive, N in the parse_positive_int grammar clamped to 64.
  EXPECT_TRUE(env::parse_exec_mode("off").well_formed);
  EXPECT_EQ(env::parse_exec_mode("off").mode, 0);
  EXPECT_EQ(env::parse_exec_mode("OFF").mode, 0);
  EXPECT_EQ(env::parse_exec_mode("interp").mode, 1);
  EXPECT_EQ(env::parse_exec_mode("Interp").mode, 1);
  EXPECT_EQ(env::parse_exec_mode("vector").mode, 2);
  EXPECT_EQ(env::parse_exec_mode("vector").lanes, 0);
  EXPECT_EQ(env::parse_exec_mode("VECTOR:8").mode, 2);
  EXPECT_EQ(env::parse_exec_mode("VECTOR:8").lanes, 8);
  EXPECT_EQ(env::parse_exec_mode("vector:64").lanes, 64);
  EXPECT_EQ(env::parse_exec_mode("vector:65").lanes, 64);  // clamped
  for (const char* bad :
       {"", "fast", "vec", "vector:", "vector:0", "vector:-2", "vector:8x",
        "vector: 8", "vector:8 ", " vector", "vector ", "off:4", "interp:2",
        "vector:3.5", "vectorr:4"}) {
    EXPECT_FALSE(env::parse_exec_mode(bad).well_formed) << '"' << bad << '"';
  }
  EXPECT_FALSE(env::parse_exec_mode(nullptr).well_formed);
  // Malformed values still carry the defaults the caller falls back to.
  EXPECT_EQ(env::parse_exec_mode("bogus").mode, 2);
  EXPECT_EQ(env::parse_exec_mode("bogus").lanes, 0);
}

TEST(EnvKnobs, EqualsIgnoreCaseAndWarnOnce) {
  EXPECT_TRUE(env::equals_ignore_case("off", "off"));
  EXPECT_TRUE(env::equals_ignore_case("OFF", "off"));
  EXPECT_TRUE(env::equals_ignore_case("Off", "off"));
  EXPECT_FALSE(env::equals_ignore_case("of", "off"));
  EXPECT_FALSE(env::equals_ignore_case("offf", "off"));
  EXPECT_FALSE(env::equals_ignore_case(nullptr, "off"));

  const char* key = "MRPF_TEST_KNOB";
  EXPECT_FALSE(env::warning_fired(key));
  ::testing::internal::CaptureStderr();
  env::warn_once(key, "first");
  env::warn_once(key, "second");
  const std::string err = ::testing::internal::GetCapturedStderr();
  EXPECT_TRUE(env::warning_fired(key));
  EXPECT_NE(err.find("first"), std::string::npos);
  EXPECT_EQ(err.find("second"), std::string::npos);
}

TEST(ThreadPool, NestedParallelForDoesNotDeadlock) {
  // Regression: publishing a loop from inside a running job used to wait
  // for `idle_workers_ == all`, which could never be reached — every
  // worker was busy inside the outer loop. Nested publication now drains
  // inline on the calling worker while idle workers steal shares. Two
  // levels of nesting at 4 threads, all on one pool.
  ThreadPool pool(4);
  const std::size_t outer = 8, mid = 6, inner = 5;
  std::vector<std::atomic<int>> hits(outer * mid * inner);
  pool.parallel_for(outer, [&](std::size_t i) {
    pool.parallel_for(mid, [&](std::size_t j) {
      pool.parallel_for(inner, [&](std::size_t k) {
        ++hits[(i * mid + j) * inner + k];
      });
    });
  });
  for (std::size_t i = 0; i < hits.size(); ++i) {
    EXPECT_EQ(hits[i].load(), 1) << "index " << i;
  }
  // The pool stays reusable after nested jobs.
  std::atomic<int> total{0};
  pool.parallel_for(17, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 17);
}

TEST(ThreadPool, NestedExceptionPropagatesToTheNestedPublisher) {
  ThreadPool pool(4);
  std::atomic<int> outer_failures{0};
  EXPECT_THROW(
      pool.parallel_for(6,
                        [&](std::size_t i) {
                          try {
                            pool.parallel_for(8, [&](std::size_t j) {
                              if (j == 3) {
                                throw std::runtime_error("inner boom");
                              }
                            });
                          } catch (const std::runtime_error&) {
                            ++outer_failures;
                            if (i == 0) throw;  // also fail the outer loop
                          }
                        }),
      std::runtime_error);
  // Every inner loop rethrew to its own publisher...
  EXPECT_EQ(outer_failures.load(), 6);
  // ...and a clean run still works afterwards.
  std::atomic<int> total{0};
  pool.parallel_for(9, [&](std::size_t) { ++total; });
  EXPECT_EQ(total.load(), 9);
}

TEST(ThreadPool, SharedPoolIsProcessWideAndReentrant) {
  // The free parallel_for routes through one lazily-built process pool, so
  // hot paths never pay thread-spawn cost per call; it is the same object
  // on every call and nested use is safe.
  ThreadPool& a = shared_thread_pool();
  ThreadPool& b = shared_thread_pool();
  EXPECT_EQ(&a, &b);
  std::vector<int> out(64, -1);
  parallel_for(out.size(), [&](std::size_t i) {
    parallel_for(1, [&](std::size_t) { out[i] = static_cast<int>(i); });
  });
  for (std::size_t i = 0; i < out.size(); ++i) {
    EXPECT_EQ(out[i], static_cast<int>(i));
  }
}

// ---------------------------------------------------------------------------
// BoundedQueue: the accept/dispatch queue of the synthesis daemon.

TEST(BoundedQueue, FifoWithinOneProducer) {
  BoundedQueue<int> q(4);
  EXPECT_TRUE(q.push(1));
  EXPECT_TRUE(q.push(2));
  EXPECT_TRUE(q.push(3));
  EXPECT_EQ(q.size(), 3u);
  EXPECT_EQ(q.pop().value(), 1);
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.high_water(), 3u);
}

TEST(BoundedQueue, PushBlocksAtCapacityUntilAPopFreesASlot) {
  BoundedQueue<int> q(2);
  ASSERT_TRUE(q.push(1));
  ASSERT_TRUE(q.push(2));
  std::atomic<bool> third_pushed{false};
  std::thread producer([&] {
    EXPECT_TRUE(q.push(3));  // blocks: queue full
    third_pushed.store(true);
  });
  // The producer must be parked, not failing or spinning through.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_FALSE(third_pushed.load());
  EXPECT_EQ(q.pop().value(), 1);
  producer.join();
  EXPECT_TRUE(third_pushed.load());
  EXPECT_EQ(q.pop().value(), 2);
  EXPECT_EQ(q.pop().value(), 3);
  EXPECT_EQ(q.high_water(), q.capacity());
}

TEST(BoundedQueue, CloseDrainsThenReportsEmpty) {
  BoundedQueue<int> q(4);
  ASSERT_TRUE(q.push(7));
  ASSERT_TRUE(q.push(8));
  q.close();
  EXPECT_FALSE(q.push(9));  // closed: producers are refused
  // Consumers still drain what was accepted before the close...
  EXPECT_EQ(q.pop().value(), 7);
  EXPECT_EQ(q.pop().value(), 8);
  // ...then see end-of-stream, immediately and repeatably.
  EXPECT_FALSE(q.pop().has_value());
  EXPECT_FALSE(q.pop().has_value());
}

TEST(BoundedQueue, CloseWakesBlockedConsumers) {
  BoundedQueue<int> q(2);
  std::atomic<int> woke{0};
  std::vector<std::thread> consumers;
  for (int i = 0; i < 3; ++i) {
    consumers.emplace_back([&] {
      EXPECT_FALSE(q.pop().has_value());  // blocks until close
      woke.fetch_add(1);
    });
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  q.close();
  for (std::thread& t : consumers) t.join();
  EXPECT_EQ(woke.load(), 3);
}

TEST(BoundedQueue, ManyProducersManyConsumersLoseNothing) {
  constexpr int kProducers = 4;
  constexpr int kConsumers = 4;
  constexpr int kPerProducer = 500;
  BoundedQueue<int> q(8);
  std::atomic<long> sum{0};
  std::atomic<int> count{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kConsumers; ++c) {
    threads.emplace_back([&] {
      for (;;) {
        const std::optional<int> v = q.pop();
        if (!v.has_value()) return;
        sum.fetch_add(*v);
        count.fetch_add(1);
      }
    });
  }
  std::vector<std::thread> producers;
  for (int p = 0; p < kProducers; ++p) {
    producers.emplace_back([&, p] {
      for (int i = 0; i < kPerProducer; ++i) {
        ASSERT_TRUE(q.push(p * kPerProducer + i));
      }
    });
  }
  for (std::thread& t : producers) t.join();
  q.close();
  for (std::thread& t : threads) t.join();
  const long n = kProducers * kPerProducer;
  EXPECT_EQ(count.load(), n);
  EXPECT_EQ(sum.load(), n * (n - 1) / 2);
  EXPECT_LE(q.high_water(), q.capacity());
}

// ---------------------------------------------------------------------------
// One-shot environment snapshot: what the synthesis daemon reads at
// startup instead of sprinkling getenv through its lifetime.

TEST(EnvKnobs, CacheKnobSharesTheSessionGrammar) {
  EXPECT_TRUE(env::parse_cache_knob("0").disabled);
  EXPECT_TRUE(env::parse_cache_knob("off").disabled);
  EXPECT_TRUE(env::parse_cache_knob("OFF").disabled);
  EXPECT_EQ(env::parse_cache_knob("64").max_bytes, std::size_t{64} << 20);
  EXPECT_EQ(env::parse_cache_knob("65536").max_bytes,
            std::size_t{65536} << 20);
  EXPECT_EQ(env::parse_cache_knob("70000").max_bytes,
            std::size_t{65536} << 20);  // clamped
  EXPECT_FALSE(env::parse_cache_knob("64MB").well_formed);
  EXPECT_FALSE(env::parse_cache_knob("-1").well_formed);
  // Unset and empty mean "no override": defaults, well-formed.
  for (const char* absent : {static_cast<const char*>(nullptr), ""}) {
    const env::ParsedCacheKnob unset = env::parse_cache_knob(absent);
    EXPECT_TRUE(unset.well_formed);
    EXPECT_FALSE(unset.disabled);
    EXPECT_EQ(unset.max_bytes, 0u);
  }
}

TEST(EnvKnobs, SnapshotReadsEveryKnobOnce) {
  ::setenv("MRPF_THREADS", "3", 1);
  ::setenv("MRPF_CACHE", "128", 1);
  ::setenv("MRPF_EXEC", "vector:4", 1);
  const env::KnobSnapshot snap = env::snapshot_knobs();
  ::unsetenv("MRPF_THREADS");
  ::unsetenv("MRPF_CACHE");
  ::unsetenv("MRPF_EXEC");
  EXPECT_EQ(snap.threads, 3);
  EXPECT_FALSE(snap.cache_disabled);
  EXPECT_EQ(snap.cache_max_bytes, std::size_t{128} << 20);
  EXPECT_EQ(snap.exec_mode, 2);
  EXPECT_EQ(snap.exec_lanes, 4);
  // The snapshot is a value: clearing the environment cannot reach it,
  // and a fresh snapshot sees the new (default) world.
  const env::KnobSnapshot fresh = env::snapshot_knobs();
  EXPECT_EQ(fresh.threads, 0);
  EXPECT_EQ(fresh.cache_max_bytes, 0u);

  // Each lazy per-call reader resolves its knob to what the snapshot
  // holds, for well-formed, clamped, malformed and absent values, and a
  // malformed value warns at most once however many paths read it.
  const char* const keys[] = {"MRPF_THREADS", "MRPF_CACHE", "MRPF_EXEC",
                              "MRPF_OPT_BUDGET", "MRPF_XFORM_BUDGET"};
  const char* const rows[][5] = {
      {"3", "128", "vector:4", "123456", "777"},
      {"1", "off", "interp", "1", "1"},
      {"9999", "70000", "vector:99", "99999999999999999999",
       "99999999999999999999"},
      {"4x", "64MB", "turbo", "2M", "0"},
      {nullptr, nullptr, nullptr, nullptr, nullptr},
  };
  const unsigned hw = std::thread::hardware_concurrency();
  ::testing::internal::CaptureStderr();
  for (const auto& row : rows) {
    for (int k = 0; k < 5; ++k) {
      if (row[k] != nullptr) {
        ::setenv(keys[k], row[k], 1);
      } else {
        ::unsetenv(keys[k]);
      }
    }
    SCOPED_TRACE(row[0] != nullptr ? row[0] : "absent");
    const env::KnobSnapshot knobs = env::snapshot_knobs();
    EXPECT_EQ(default_thread_count(),
              knobs.threads > 0 ? knobs.threads
                                : (hw > 0 ? static_cast<int>(hw) : 1));
    // A disabled session has no cache: zero bytes.
    const cache::SolveCacheSession session("");
    std::size_t want_bytes = knobs.cache_max_bytes != 0
                                 ? knobs.cache_max_bytes
                                 : cache::SolveCacheConfig{}.max_bytes;
    if (knobs.cache_disabled) want_bytes = 0;
    EXPECT_EQ(session.cache() != nullptr ? session.cache()->max_bytes() : 0u,
              want_bytes);
    const exec::ExecConfig exec = exec::exec_config_from_env();
    EXPECT_EQ(static_cast<int>(exec.mode), knobs.exec_mode);
    EXPECT_EQ(exec.lanes, knobs.exec_lanes);
    core::MrpOptions requested;
    requested.passes.xform = true;
    const core::MrpOptions bnb =
        core::scheme_driver(core::Scheme::kBnb).canonical_options(requested);
    EXPECT_EQ(bnb.opt_budget, knobs.opt_budget > 0 ? knobs.opt_budget
                                                   : core::kDefaultOptBudget);
    EXPECT_EQ(bnb.passes.xform_budget,
              knobs.xform_budget > 0 ? knobs.xform_budget
                                     : core::kDefaultXformBudget);
  }
  const std::string err = ::testing::internal::GetCapturedStderr();
  for (const char* key : keys) {
    const std::string needle = std::string("ignoring malformed ") + key;
    const std::size_t first = err.find(needle);
    EXPECT_TRUE(first == std::string::npos ||
                err.find(needle, first + 1) == std::string::npos)
        << err;
    EXPECT_TRUE(env::warning_fired(key)) << key;
  }
}

TEST(EnvKnobs, OptBudgetSnapshotSharesTheSessionGrammar) {
  // MRPF_OPT_BUDGET rides the same strict digits-only grammar as the
  // other knobs: bare decimal >= 1, clamped to the search-budget maximum.
  ::setenv("MRPF_OPT_BUDGET", "123456", 1);
  EXPECT_EQ(env::snapshot_knobs().opt_budget, 123456);
  ::setenv("MRPF_OPT_BUDGET", "99999999999999999999", 1);
  EXPECT_EQ(env::snapshot_knobs().opt_budget, 1'000'000'000'000LL);

  // Malformed values warn once and leave the knob unset (0), so the
  // driver falls back to its built-in default budget.
  const bool warned_before = env::warning_fired("MRPF_OPT_BUDGET");
  ::testing::internal::CaptureStderr();
  ::setenv("MRPF_OPT_BUDGET", "2M", 1);
  const env::KnobSnapshot malformed = env::snapshot_knobs();
  ::setenv("MRPF_OPT_BUDGET", "0", 1);
  const env::KnobSnapshot zero = env::snapshot_knobs();
  const std::string err = ::testing::internal::GetCapturedStderr();
  ::unsetenv("MRPF_OPT_BUDGET");
  EXPECT_EQ(malformed.opt_budget, 0);
  EXPECT_EQ(zero.opt_budget, 0);
  if (!warned_before) {
    EXPECT_NE(err.find("ignoring malformed MRPF_OPT_BUDGET"),
              std::string::npos)
        << err;
  }
  // Unset means unset.
  EXPECT_EQ(env::snapshot_knobs().opt_budget, 0);
}

TEST(EnvKnobs, ConcurrentFirstSnapshotsAgreeAndAreRaceFree) {
  // A daemon snapshotting from several startup threads at once must get
  // one consistent answer with no data race (TSan/ASan guard this test).
  ::setenv("MRPF_THREADS", "5", 1);
  ::setenv("MRPF_CACHE", "32", 1);
  ::setenv("MRPF_EXEC", "interp", 1);
  constexpr int kThreads = 8;
  std::vector<env::KnobSnapshot> seen(kThreads);
  std::atomic<int> ready{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      ready.fetch_add(1);
      while (ready.load() < kThreads) {
      }
      seen[static_cast<std::size_t>(t)] = env::snapshot_knobs();
    });
  }
  for (std::thread& t : threads) t.join();
  ::unsetenv("MRPF_THREADS");
  ::unsetenv("MRPF_CACHE");
  ::unsetenv("MRPF_EXEC");
  for (const env::KnobSnapshot& s : seen) {
    EXPECT_EQ(s.threads, 5);
    EXPECT_FALSE(s.cache_disabled);
    EXPECT_EQ(s.cache_max_bytes, std::size_t{32} << 20);
    EXPECT_EQ(s.exec_mode, 1);
    EXPECT_EQ(s.exec_lanes, 0);
  }
}

}  // namespace
}  // namespace mrpf
