// Synthesis daemon tests: protocol strictness, in-flight coalescing
// semantics (leader failure, reaping, retry), end-to-end server behavior
// over real sockets (per-scheme round trips bit-identical to direct
// solves, cache-hit provenance, error frames, malformed/oversized frame
// rejection, waiter-disconnect resilience) and graceful drain with cache
// persistence.
#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "mrpf/common/error.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/core/plan_equality.hpp"
#include "mrpf/io/frame_assembler.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/serve/client.hpp"
#include "mrpf/serve/inflight.hpp"
#include "mrpf/serve/protocol.hpp"
#include "mrpf/serve/server.hpp"

namespace mrpf::serve {
namespace {

const std::vector<i64> kPaperExample = {7, 66, 17, 9, 27, 41, 57, 11};
// Values this wide make the color-graph shift guard throw — the
// deterministic "solver failed" request.
const std::vector<i64> kOverflowBank = {i64{1} << 62, (i64{1} << 62) - 1, 7};

std::string unique_sock(const char* tag) {
  // /tmp keeps us inside sockaddr_un's ~108-char path limit (TempDir can
  // be long under some runners).
  return "/tmp/mrpf_test_" + std::string(tag) + "." +
         std::to_string(static_cast<long>(::getpid())) + ".sock";
}

/// An in-process server on a unix socket, torn down on scope exit.
struct ServerFixture {
  explicit ServerFixture(ServeConfig config = {},
                         const char* tag = "serve")
      : path(unique_sock(tag)), server(std::move(config)) {
    server.bind_unix(path);
    thread = std::thread([this] { server.run(); });
  }
  ~ServerFixture() {
    if (thread.joinable()) {
      server.request_shutdown();
      thread.join();
    }
    std::remove(path.c_str());
  }
  ServeClient client() {
    ServeClient c;
    c.connect_unix(path);
    return c;
  }

  std::string path;
  SynthServer server;
  std::thread thread;
};

// ---------------------------------------------------------------------------
// InflightTable

TEST(Inflight, FirstArrivalLeadsLaterArrivalsJoin) {
  InflightTable table;
  const InflightTable::Ticket leader = table.acquire(42);
  EXPECT_TRUE(leader.leader);
  const InflightTable::Ticket waiter = table.acquire(42);
  EXPECT_FALSE(waiter.leader);
  EXPECT_EQ(table.size(), 1u);
  // A different key is independent.
  const InflightTable::Ticket other = table.acquire(43);
  EXPECT_TRUE(other.leader);

  std::atomic<bool> released{false};
  std::thread t([&] {
    InflightTable::wait(waiter);
    released.store(true);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_FALSE(released.load());  // waiter parks until the leader is done
  table.complete(42);
  t.join();
  EXPECT_TRUE(released.load());
  table.complete(43);
  EXPECT_EQ(table.size(), 0u);
}

TEST(Inflight, LeaderFailurePropagatesAndReapsTheEntry) {
  InflightTable table;
  const InflightTable::Ticket leader = table.acquire(7);
  const InflightTable::Ticket w1 = table.acquire(7);
  const InflightTable::Ticket w2 = table.acquire(7);
  ASSERT_TRUE(leader.leader);

  std::atomic<int> threw{0};
  auto waiting = [&](const InflightTable::Ticket& t) {
    try {
      InflightTable::wait(t);
    } catch (const Error& e) {
      EXPECT_NE(std::string(e.what()).find("boom"), std::string::npos);
      threw.fetch_add(1);
    }
  };
  std::thread t1(waiting, std::cref(w1));
  std::thread t2(waiting, std::cref(w2));
  try {
    throw Error("solver went boom");
  } catch (...) {
    table.fail(7, std::current_exception());
  }
  t1.join();
  t2.join();
  // Every waiter observed the leader's exception...
  EXPECT_EQ(threw.load(), 2);
  // ...the entry was reaped immediately...
  EXPECT_EQ(table.size(), 0u);
  // ...and the next arrival starts a fresh leader, not a wedged waiter.
  const InflightTable::Ticket retry = table.acquire(7);
  EXPECT_TRUE(retry.leader);
  table.complete(7);
}

TEST(Inflight, AbandonedWaiterTicketDoesNotWedgeTheKey) {
  InflightTable table;
  const InflightTable::Ticket leader = table.acquire(9);
  {
    const InflightTable::Ticket waiter = table.acquire(9);
    EXPECT_FALSE(waiter.leader);
    // Waiter's connection drops before it ever waits: ticket destroyed.
  }
  table.complete(9);  // must not hang or throw
  EXPECT_EQ(table.size(), 0u);
}

// ---------------------------------------------------------------------------
// Protocol encode/decode

TEST(Protocol, SynthRequestRoundTripsEveryField) {
  SynthRequest req;
  req.bank = {-7, 0, 66, 17};
  req.scheme = core::Scheme::kMrpCse;
  req.beta = 0.25;
  req.l_max = 12;
  req.depth_limit = 3;
  req.rep = static_cast<std::uint8_t>(number::NumberRep::kCsd);
  req.cse_on_seed = true;
  req.recursive_levels = 2;
  const SynthRequest back = decode_synth_request(encode_synth_request(req));
  EXPECT_EQ(back.bank, req.bank);
  EXPECT_EQ(back.scheme, req.scheme);
  EXPECT_EQ(back.beta, req.beta);
  EXPECT_EQ(back.l_max, req.l_max);
  EXPECT_EQ(back.depth_limit, req.depth_limit);
  EXPECT_EQ(back.rep, req.rep);
  EXPECT_EQ(back.cse_on_seed, req.cse_on_seed);
  EXPECT_EQ(back.recursive_levels, req.recursive_levels);

  const core::MrpOptions opts = back.to_options();
  EXPECT_EQ(opts.rep, number::NumberRep::kCsd);
  EXPECT_EQ(opts.beta, 0.25);
  EXPECT_EQ(opts.l_max, 12);
  EXPECT_EQ(opts.depth_limit, 3);
  EXPECT_TRUE(opts.cse_on_seed);
  EXPECT_EQ(opts.recursive_levels, 2);
}

TEST(Protocol, StrictDecodeRejectsOutOfRangeAndTrailingBytes) {
  SynthRequest req;
  req.bank = kPaperExample;
  std::vector<std::uint8_t> good = encode_synth_request(req);

  {
    std::vector<std::uint8_t> bad = good;
    bad.push_back(0);  // trailing byte
    EXPECT_THROW(decode_synth_request(bad), Error);
  }
  {
    std::vector<std::uint8_t> truncated(good.begin(), good.end() - 1);
    EXPECT_THROW(decode_synth_request(truncated), Error);
  }
  EXPECT_THROW(decode_synth_request({}), Error);

  // Out-of-range enums/options are data errors, not trusted.
  SynthRequest bad_scheme;
  bad_scheme.bank = kPaperExample;
  std::vector<std::uint8_t> enc = encode_synth_request(bad_scheme);
  // scheme is the first byte after the bank array; corrupt via re-encode:
  bad_scheme.rep = 9;
  EXPECT_THROW(decode_synth_request(encode_synth_request(bad_scheme)),
               Error);
  SynthRequest bad_beta;
  bad_beta.bank = kPaperExample;
  bad_beta.beta = 1.5;
  EXPECT_THROW(decode_synth_request(encode_synth_request(bad_beta)), Error);
  SynthRequest bad_levels;
  bad_levels.bank = kPaperExample;
  bad_levels.recursive_levels = 99;
  EXPECT_THROW(decode_synth_request(encode_synth_request(bad_levels)),
               Error);
  (void)enc;
}

TEST(Protocol, SchemeByteBoundTracksTheRegistry) {
  // The wire accepts exactly the registered schemes: the bound is derived
  // from core::kNumSchemes, never hard-coded, so a newly registered
  // scheme (bnb is the seventh) is accepted without protocol changes.
  SynthRequest req;
  req.bank = kPaperExample;
  std::vector<std::uint8_t> enc = encode_synth_request(req);
  // Byte 0 is the scheme tag: the highest registered value decodes...
  enc[0] = static_cast<std::uint8_t>(core::kNumSchemes - 1);
  EXPECT_EQ(decode_synth_request(enc).scheme, core::Scheme::kBnb);
  // ...and one past it is a data error, not a trusted enum.
  enc[0] = static_cast<std::uint8_t>(core::kNumSchemes);
  EXPECT_THROW(decode_synth_request(enc), Error);
}

TEST(Protocol, ErrorAndStatsFramesRoundTrip) {
  const ErrorFrame err{ErrorCode::kSolveFailed, "it broke"};
  const ErrorFrame err_back = decode_error(encode_error(err));
  EXPECT_EQ(err_back.code, ErrorCode::kSolveFailed);
  EXPECT_EQ(err_back.message, "it broke");

  StatsFrame stats;
  stats.requests = 100;
  stats.cache_hits = 42;
  stats.coalesced_joins = 7;
  stats.p99_ns = 1234.5;
  stats.cache_bytes = 1 << 20;
  const StatsFrame back = decode_stats(encode_stats(stats));
  EXPECT_EQ(back.requests, 100u);
  EXPECT_EQ(back.cache_hits, 42u);
  EXPECT_EQ(back.coalesced_joins, 7u);
  EXPECT_EQ(back.p99_ns, 1234.5);
  EXPECT_EQ(back.cache_bytes, u64{1} << 20);
}

TEST(Protocol, SynthResponseEmbedsAStandardPlanFrame) {
  SynthResponse resp;
  resp.cache_hit = true;
  resp.coalesced = true;
  resp.plan = core::optimize_bank(kPaperExample, core::Scheme::kMrp).plan;
  const SynthResponse back =
      decode_synth_response(encode_synth_response(resp));
  EXPECT_TRUE(back.cache_hit);
  EXPECT_TRUE(back.coalesced);
  EXPECT_EQ(core::plan_mismatch(back.plan, resp.plan), std::nullopt);
}

// ---------------------------------------------------------------------------
// End-to-end over real sockets

TEST(Server, RoundTripsEverySchemeBitIdenticalToDirectSolves) {
  ServerFixture fx({}, "schemes");
  ServeClient client = fx.client();
  client.ping();
  for (const core::Scheme scheme : core::all_schemes()) {
    SynthRequest req;
    req.bank = kPaperExample;
    req.scheme = scheme;
    const SynthResponse resp = client.synth(req);
    const core::SchemeResult direct =
        core::optimize_bank(kPaperExample, scheme);
    EXPECT_EQ(core::plan_mismatch(resp.plan, direct.plan), std::nullopt)
        << core::to_string(scheme);
  }
}

TEST(Server, SecondEquivalentRequestIsAWarmHit) {
  ServerFixture fx({}, "warm");
  ServeClient client = fx.client();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kMrp;
  const SynthResponse first = client.synth(req);
  EXPECT_FALSE(first.cache_hit);

  // An equivalent-but-different bank lands on the same canonical solve.
  SynthRequest equiv;
  equiv.bank = {-14, 66, 17, 9, 27, 41, 57, 11, 0};  // 7*-2, zero pad
  equiv.scheme = core::Scheme::kMrp;
  const SynthResponse second = client.synth(equiv);
  EXPECT_TRUE(second.cache_hit);
  const core::SchemeResult direct =
      core::optimize_bank(equiv.bank, core::Scheme::kMrp);
  EXPECT_EQ(core::plan_mismatch(second.plan, direct.plan), std::nullopt);
}

TEST(Server, ThunderingHerdCoalescesToOneFreshSolve) {
  ServeConfig config;
  config.workers = 8;
  ServerFixture fx(std::move(config), "herd");
  constexpr int kClients = 8;
  std::atomic<int> fresh{0};
  std::atomic<int> served{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&] {
      ServeClient client = fx.client();
      SynthRequest req;
      req.bank = {7, 66, 17, 9, 27, 41, 57, 11, 23, 81, 5, 19};
      req.scheme = core::Scheme::kMrp;
      const SynthResponse resp = client.synth(req);
      if (!resp.cache_hit) fresh.fetch_add(1);
      served.fetch_add(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(served.load(), kClients);
  // The leader publishes before releasing anyone, so exactly one request
  // can ever see a cold cache — regardless of arrival interleaving.
  EXPECT_EQ(fresh.load(), 1);
}

TEST(Server, NoCoalesceStillAnswersBitIdentical) {
  ServeConfig config;
  config.coalesce = false;
  config.workers = 4;
  ServerFixture fx(std::move(config), "nocoalesce");
  constexpr int kClients = 4;
  std::vector<core::SynthPlan> plans(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ServeClient client = fx.client();
      SynthRequest req;
      req.bank = kPaperExample;
      req.scheme = core::Scheme::kMrpCse;
      plans[static_cast<std::size_t>(c)] = client.synth(req).plan;
    });
  }
  for (std::thread& t : threads) t.join();
  const core::SchemeResult direct =
      core::optimize_bank(kPaperExample, core::Scheme::kMrpCse);
  for (int c = 0; c < kClients; ++c) {
    EXPECT_EQ(core::plan_mismatch(plans[static_cast<std::size_t>(c)],
                                  direct.plan),
              std::nullopt)
        << "client " << c;
  }
}

TEST(Server, SolverFailureBecomesAnErrorFrameAndNeverWedges) {
  ServerFixture fx({}, "solvefail");
  ServeClient client = fx.client();
  SynthRequest req;
  req.bank = kOverflowBank;
  req.scheme = core::Scheme::kMrp;
  // The failing solve is answered with a structured error...
  EXPECT_THROW(client.synth(req), Error);
  // ...the in-flight entry was reaped: retrying fails identically (a
  // fresh attempt, not a wedged waiter), over the same connection...
  EXPECT_THROW(client.synth(req), Error);
  // ...and the connection and server still serve good requests.
  SynthRequest good;
  good.bank = kPaperExample;
  good.scheme = core::Scheme::kMrp;
  const SynthResponse resp = client.synth(good);
  EXPECT_EQ(core::plan_mismatch(
                resp.plan,
                core::optimize_bank(kPaperExample, core::Scheme::kMrp).plan),
            std::nullopt);
  const StatsFrame stats = client.stats();
  EXPECT_EQ(stats.errors, 2u);
}

TEST(Server, MalformedPayloadGetsAnErrorFrameThenGarbageDropsConnection) {
  ServerFixture fx({}, "malformed");
  ServeClient client = fx.client();
  // Valid wire frame, garbage synth payload: structured error, and the
  // connection survives (framing is still synchronized).
  const io::WireFrame reply =
      client.transact(MsgType::kSynthRequest, {1, 2, 3});
  ASSERT_EQ(static_cast<MsgType>(reply.type), MsgType::kError);
  EXPECT_EQ(decode_error(reply.payload).code, ErrorCode::kMalformedRequest);
  client.ping();  // still alive

  // Unknown frame type: structured error, still alive.
  const io::WireFrame unknown = client.transact(static_cast<MsgType>(999), {});
  ASSERT_EQ(static_cast<MsgType>(unknown.type), MsgType::kError);
  EXPECT_EQ(decode_error(unknown.payload).code, ErrorCode::kUnsupportedType);
  client.ping();

  // A full header's worth of garbage (bad magic): one error frame, then
  // the server MUST drop the connection — desynchronized framing cannot
  // be resynced.
  client.send_raw(std::vector<std::uint8_t>(io::kWireHeaderBytes, 0xDE));
  const io::WireFrame err = client.read_frame();
  ASSERT_EQ(static_cast<MsgType>(err.type), MsgType::kError);
  EXPECT_THROW(client.read_frame(), Error);  // EOF: server closed
}

TEST(Server, OversizedDeclaredFrameIsRejectedWithoutAllocation) {
  ServeConfig config;
  config.max_frame_payload = 1024;
  ServerFixture fx(std::move(config), "oversize");
  ServeClient client = fx.client();
  // A header declaring 1 GiB: refused from the header alone.
  std::vector<std::uint8_t> huge;
  io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kSynthRequest),
                        std::vector<std::uint8_t>(2048, 0x77), huge);
  client.send_raw(huge);
  const io::WireFrame err = client.read_frame();
  ASSERT_EQ(static_cast<MsgType>(err.type), MsgType::kError);
  EXPECT_NE(decode_error(err.payload).message.find("length"),
            std::string::npos);
  EXPECT_THROW(client.read_frame(), Error);  // connection dropped
}

TEST(Server, WaiterDisconnectDoesNotPoisonTheServer) {
  ServeConfig config;
  config.workers = 4;
  ServerFixture fx(std::move(config), "hangup");
  // A client fires a request and slams the connection without reading.
  {
    ServeClient rude = fx.client();
    SynthRequest req;
    req.bank = {3, 5, 19, 21, 7, 66};
    req.scheme = core::Scheme::kMrp;
    std::vector<std::uint8_t> bytes;
    io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kSynthRequest),
                          encode_synth_request(req), bytes);
    rude.send_raw(bytes);
    rude.close();
  }
  // The server absorbs the hangup (EPIPE on reply) and keeps serving.
  ServeClient polite = fx.client();
  SynthRequest req;
  req.bank = {3, 5, 19, 21, 7, 66};
  req.scheme = core::Scheme::kMrp;
  const SynthResponse resp = polite.synth(req);
  EXPECT_EQ(
      core::plan_mismatch(
          resp.plan,
          core::optimize_bank(req.bank, core::Scheme::kMrp).plan),
      std::nullopt);
}

TEST(Server, PipelinedFramesInOneSegmentAllAnswer) {
  ServerFixture fx({}, "pipeline");
  ServeClient client = fx.client();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kSimple;
  std::vector<std::uint8_t> burst;
  io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kPing), {},
                        burst);
  io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kSynthRequest),
                        encode_synth_request(req), burst);
  io::append_wire_frame(static_cast<std::uint32_t>(MsgType::kStatsRequest),
                        {}, burst);
  client.send_raw(burst);
  EXPECT_EQ(static_cast<MsgType>(client.read_frame().type), MsgType::kPong);
  const io::WireFrame synth = client.read_frame();
  EXPECT_EQ(static_cast<MsgType>(synth.type), MsgType::kSynthResponse);
  EXPECT_EQ(static_cast<MsgType>(client.read_frame().type),
            MsgType::kStatsResponse);
}

TEST(Server, DrainPersistsTheCacheAndRefusesNewConnections) {
  const std::string store =
      "/tmp/mrpf_test_drain." + std::to_string(::getpid()) + ".mrpc";
  std::remove(store.c_str());
  std::string path;
  {
    ServeConfig config;
    config.cache_path = store;
    ServerFixture fx(std::move(config), "drain");
    path = fx.path;
    ServeClient client = fx.client();
    SynthRequest req;
    req.bank = kPaperExample;
    req.scheme = core::Scheme::kMrp;
    (void)client.synth(req);

    fx.server.request_shutdown();
    fx.thread.join();
    EXPECT_TRUE(fx.server.draining());
    EXPECT_TRUE(fx.server.cache_persisted());
  }
  // The persisted store is a valid cache with the solve in it: a fresh
  // server warming from it answers the same request as a hit.
  {
    ServeConfig config;
    config.cache_path = store;
    ServerFixture fx(std::move(config), "drain2");
    ServeClient client = fx.client();
    SynthRequest req;
    req.bank = kPaperExample;
    req.scheme = core::Scheme::kMrp;
    const SynthResponse resp = client.synth(req);
    EXPECT_TRUE(resp.cache_hit);
  }
  std::remove(store.c_str());
}

/// Sends `requests` round-robin over `connections` concurrent clients and
/// returns whether each was answered from the cache, in request order.
/// Every plan must equal a direct, daemon-free solve of its request.
std::vector<int> run_phase(const std::string& path,
                           const std::vector<SynthRequest>& requests,
                           int connections) {
  std::vector<int> hits(requests.size(), 0);
  std::vector<std::thread> clients;
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        ServeClient client;
        client.connect_unix(path);
        for (std::size_t i = static_cast<std::size_t>(c); i < requests.size();
             i += static_cast<std::size_t>(connections)) {
          const SynthRequest& req = requests[i];
          const SynthResponse resp = client.synth(req);
          hits[i] = resp.cache_hit ? 1 : 0;
          const core::SchemeResult direct =
              core::optimize_bank(req.bank, req.scheme, req.to_options());
          EXPECT_EQ(core::plan_mismatch(resp.plan, direct.plan), std::nullopt)
              << "request " << i;
        }
      } catch (const std::exception& e) {
        ADD_FAILURE() << "client " << c << ": " << e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  return hits;
}

TEST(Server, CatalogLoadSolvesEachClassOnceAndAnswersBitIdentical) {
  // Four connections against a four-worker daemon. Cold: six distinct
  // catalog banks under simple, cse, mrpf and mrpf+cse, all fresh. Herd:
  // 24 mrpf requests, equivalent variants of two unseen banks, one fresh
  // solve per class and every other request a hit. Warm: the cold banks
  // again, all hits. No error frame, the drain persists the store, and a
  // daemon without coalescing answers the herd bit-identically too.
  std::vector<std::vector<i64>> pool;
  for (int i = 0; pool.size() < 12; ++i) {
    for (const int w : {12, 16}) {
      for (const bool maximal : {false, true}) {
        const std::vector<double>& h = filter::catalog_coefficients(i);
        pool.push_back(core::optimization_bank(
            (maximal ? number::quantize_maximal(h, w)
                     : number::quantize_uniform(h, w))
                .values()));
      }
    }
  }
  const core::Scheme schemes[] = {core::Scheme::kSimple, core::Scheme::kCse,
                                  core::Scheme::kMrp, core::Scheme::kMrpCse};
  std::vector<SynthRequest> cold(6);
  for (std::size_t i = 0; i < cold.size(); ++i) {
    cold[i].bank = pool[i];
    cold[i].scheme = schemes[i % 4];
  }
  Rng rng(20260809u);
  std::vector<SynthRequest> herd(24);
  for (std::size_t i = 0; i < herd.size(); ++i) {
    // A shuffled, sign-flipped, doubled and zero-padded variant: the same
    // canonical solve key, a different bank on the wire.
    std::vector<i64> bank = pool[6 + i % 2];
    for (std::size_t k = bank.size(); k > 1; --k) {
      std::swap(bank[k - 1], bank[static_cast<std::size_t>(rng.next_below(k))]);
    }
    for (i64& v : bank) {
      if (rng.next_below(2) == 0) v = -v;
      if (v != 0 && rng.next_below(3) == 0 && std::llabs(v) < (i64{1} << 40)) {
        v *= 2;
      }
    }
    if (rng.next_below(2) == 0) bank.push_back(0);
    herd[i].bank = std::move(bank);
    herd[i].scheme = core::Scheme::kMrp;
  }

  const std::string store =
      "/tmp/mrpf_test_load." + std::to_string(::getpid()) + ".mrpc";
  std::remove(store.c_str());
  {
    ServeConfig config;
    config.workers = 4;
    config.cache_path = store;
    ServerFixture fx(std::move(config), "load");
    for (const int hit : run_phase(fx.path, cold, 4)) EXPECT_EQ(hit, 0);
    const std::vector<int> herd_hits = run_phase(fx.path, herd, 4);
    for (std::size_t klass = 0; klass < 2; ++klass) {
      int fresh = 0;
      for (std::size_t i = klass; i < herd.size(); i += 2) {
        fresh += 1 - herd_hits[i];
      }
      EXPECT_EQ(fresh, 1) << "herd class " << klass;
    }
    for (const int hit : run_phase(fx.path, cold, 4)) EXPECT_EQ(hit, 1);
    EXPECT_EQ(fx.server.stats_frame().errors, 0u);

    fx.server.request_shutdown();
    fx.thread.join();
    EXPECT_TRUE(fx.server.cache_persisted());
    EXPECT_TRUE(std::ifstream(store).good());
  }
  std::remove(store.c_str());

  ServeConfig no_coalesce;
  no_coalesce.coalesce = false;
  ServerFixture fx(std::move(no_coalesce), "load_nc");
  const std::vector<SynthRequest> first_four(herd.begin(), herd.begin() + 4);
  EXPECT_EQ(run_phase(fx.path, first_four, 2).size(), 4u);
}

TEST(Server, StatsCountersTrackTraffic) {
  ServerFixture fx({}, "stats");
  ServeClient client = fx.client();
  client.ping();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kMrp;
  (void)client.synth(req);
  (void)client.synth(req);
  const StatsFrame stats = client.stats();
  EXPECT_GE(stats.connections, 1u);
  EXPECT_EQ(stats.synth_requests, 2u);
  EXPECT_EQ(stats.fresh_solves, 1u);
  EXPECT_EQ(stats.cache_hits, 1u);
  EXPECT_EQ(stats.errors, 0u);
  EXPECT_EQ(stats.latency_samples, 2u);
  EXPECT_GT(stats.p50_ns, 0.0);
  EXPECT_GE(stats.cache_entries, 1u);
}

TEST(Server, EnvKnobsAreSnapshottedOnceAtConfigTime) {
  ::setenv("MRPF_THREADS", "2", 1);
  ::setenv("MRPF_CACHE", "16", 1);
  ::setenv("MRPF_OPT_BUDGET", "50000", 1);
  const ServeConfig config = serve_config_from_env();
  ::setenv("MRPF_CACHE", "off", 1);    // too late: the snapshot is taken
  ::setenv("MRPF_OPT_BUDGET", "7", 1);  // likewise
  ::unsetenv("MRPF_THREADS");
  EXPECT_EQ(config.knobs.threads, 2);
  EXPECT_FALSE(config.knobs.cache_disabled);
  EXPECT_EQ(config.knobs.cache_max_bytes, std::size_t{16} << 20);
  EXPECT_EQ(config.knobs.opt_budget, 50000);

  ServerFixture fx(config, "snapshot");
  EXPECT_EQ(fx.server.workers(), 2);
  EXPECT_NE(fx.server.cache(), nullptr);  // MRPF_CACHE=off never seen

  // A bnb solve through the daemon runs under the snapshotted budget —
  // the solve path never re-reads the (since changed) environment — and
  // is bit-identical to a direct solve with that budget made explicit.
  {
    ServeClient client = fx.client();
    SynthRequest req;
    req.bank = kPaperExample;
    req.scheme = core::Scheme::kBnb;
    const SynthResponse resp = client.synth(req);
    core::MrpOptions direct;
    direct.opt_budget = 50000;
    const core::SchemeResult expect =
        core::optimize_bank(kPaperExample, core::Scheme::kBnb, direct);
    EXPECT_EQ(core::plan_mismatch(resp.plan, expect.plan), std::nullopt);
  }
  ::unsetenv("MRPF_CACHE");
  ::unsetenv("MRPF_OPT_BUDGET");

  // And a snapshot that DID see the disable turns caching off entirely.
  ::setenv("MRPF_CACHE", "off", 1);
  const ServeConfig off = serve_config_from_env();
  ::unsetenv("MRPF_CACHE");
  EXPECT_TRUE(off.knobs.cache_disabled);
  ServerFixture fx_off(off, "snapshot_off");
  EXPECT_EQ(fx_off.server.cache(), nullptr);
  ServeClient client = fx_off.client();
  SynthRequest req;
  req.bank = kPaperExample;
  req.scheme = core::Scheme::kMrp;
  const SynthResponse resp = client.synth(req);  // solves fresh, no cache
  EXPECT_FALSE(resp.cache_hit);
  const SynthResponse again = client.synth(req);
  EXPECT_FALSE(again.cache_hit);
}

}  // namespace
}  // namespace mrpf::serve
