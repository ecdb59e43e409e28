// Load generator for the synthesis daemon (serve/SynthServer).
//
// Spins the server up in-process on a unix socket (TCP with --tcp), then
// replays randomized catalog workloads from many concurrent client
// connections in three phases:
//
//   cold   distinct banks, one request each — populates the cache; every
//          response must be a fresh solve
//   herd   a thundering herd: every client hammers equivalence-variants
//          (shuffled, negated, shifted, zero-padded — same canonical
//          fingerprint) of a few unseen banks; per equivalence class
//          exactly ONE fresh solve may happen, everything else must be
//          answered coalesced or from the warm cache
//   warm   replays the cold banks — 100% cache hits
//
// Every response is checked bit-identical (core::plan_mismatch, timers
// excluded) to a direct in-process core::optimize_bank of the same
// request — the daemon must never change an answer, only its latency.
// Shutdown is exercised through the real signal path: raise(SIGTERM)
// drains the server and the bench asserts the cache store was persisted.
//
// Reports client-observed p50/p99 and solves/sec into BENCH_serve.json
// (BENCH_serve_ci.json with --ci). The --ci gates are deterministic:
// bit-identity on every response, exactly one fresh solve per herd
// equivalence class, 100% warm hits, an extra --no-coalesce pass staying
// bit-identical, and a clean signal-driven drain. Latency numbers are
// reported, never gated (CI hosts are noisy).
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.hpp"
#include "mrpf/common/rng.hpp"
#include "mrpf/core/plan_equality.hpp"
#include "mrpf/serve/client.hpp"
#include "mrpf/serve/server.hpp"

namespace {

using namespace mrpf;
using Clock = std::chrono::steady_clock;

struct Request {
  serve::SynthRequest req;
  int klass = 0;  // equivalence-class id within the phase
};

struct Outcome {
  bool cache_hit = false;
  bool coalesced = false;
  int klass = 0;
  double latency_ns = 0.0;
};

/// An MRP-equivalence-preserving rewrite of a bank: shuffle, negate,
/// double (shift), sprinkle zeros. The canonical solve fingerprint drops
/// zeros and signs and normalizes powers of two, so every variant lands
/// on the same solve key while the on-wire bank differs.
std::vector<i64> equivalence_variant(const std::vector<i64>& bank, Rng& rng) {
  std::vector<i64> out = bank;
  for (std::size_t i = out.size(); i > 1; --i) {
    std::swap(out[i - 1],
              out[static_cast<std::size_t>(rng.next_below(i))]);
  }
  for (i64& v : out) {
    if (rng.next_below(2) == 0) v = -v;
    if (v != 0 && rng.next_below(3) == 0 && std::llabs(v) < (i64{1} << 40)) {
      v *= 2;
    }
  }
  if (rng.next_below(2) == 0) out.push_back(0);
  return out;
}

/// Runs one phase: `requests` split round-robin over `connections`
/// concurrent clients, each on its own socket. Returns per-request
/// outcomes in request order.
std::vector<Outcome> run_phase(const std::string& unix_path, int tcp_port,
                               const std::vector<Request>& requests,
                               int connections) {
  std::vector<Outcome> outcomes(requests.size());
  std::vector<std::thread> clients;
  std::atomic<bool> failed{false};
  std::string failure;
  std::mutex failure_mu;
  clients.reserve(static_cast<std::size_t>(connections));
  for (int c = 0; c < connections; ++c) {
    clients.emplace_back([&, c] {
      try {
        serve::ServeClient client;
        if (!unix_path.empty()) {
          client.connect_unix(unix_path);
        } else {
          client.connect_tcp("127.0.0.1", tcp_port);
        }
        for (std::size_t i = static_cast<std::size_t>(c);
             i < requests.size();
             i += static_cast<std::size_t>(connections)) {
          const auto t0 = Clock::now();
          const serve::SynthResponse resp = client.synth(requests[i].req);
          const auto t1 = Clock::now();
          Outcome& out = outcomes[i];
          out.cache_hit = resp.cache_hit;
          out.coalesced = resp.coalesced;
          out.klass = requests[i].klass;
          out.latency_ns =
              std::chrono::duration<double, std::nano>(t1 - t0).count();

          // Bit-identity against a direct, daemon-free solve of the same
          // request. No shared cache: this is the fresh reference.
          core::MrpOptions opts = requests[i].req.to_options();
          const core::SchemeResult direct = core::optimize_bank(
              requests[i].req.bank, requests[i].req.scheme, opts);
          const auto mismatch = core::plan_mismatch(resp.plan, direct.plan);
          if (mismatch.has_value()) {
            std::lock_guard<std::mutex> lk(failure_mu);
            failed.store(true);
            failure = "response diverges from direct solve: " + *mismatch;
          }
        }
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lk(failure_mu);
        failed.store(true);
        failure = e.what();
      }
    });
  }
  for (std::thread& t : clients) t.join();
  if (failed.load()) {
    std::fprintf(stderr, "FAIL: %s\n", failure.c_str());
    std::exit(1);
  }
  return outcomes;
}

double quantile_ns(std::vector<double> samples, double q) {
  return serve::latency_quantile(std::move(samples), q);
}

struct PhaseSummary {
  double p50_ns = 0, p99_ns = 0, solves_per_sec = 0, wall_ms = 0;
  std::size_t n = 0;
  std::size_t fresh = 0, hits = 0, coalesced = 0;
};

PhaseSummary summarize(const std::vector<Outcome>& outcomes,
                       double wall_ns) {
  PhaseSummary s;
  std::vector<double> lat;
  lat.reserve(outcomes.size());
  for (const Outcome& o : outcomes) {
    lat.push_back(o.latency_ns);
    if (o.cache_hit) {
      ++s.hits;
    } else {
      ++s.fresh;
    }
    if (o.coalesced) ++s.coalesced;
  }
  s.n = outcomes.size();
  s.p50_ns = quantile_ns(lat, 0.50);
  s.p99_ns = quantile_ns(std::move(lat), 0.99);
  s.wall_ms = wall_ns / 1e6;
  s.solves_per_sec =
      wall_ns > 0 ? static_cast<double>(outcomes.size()) * 1e9 / wall_ns : 0;
  return s;
}

void print_phase(const char* name, const PhaseSummary& s) {
  std::printf(
      "%-6s  n %4zu  fresh %4zu  hits %4zu  coalesced %4zu  "
      "p50 %8.1f us  p99 %8.1f us  %8.1f req/s\n",
      name, s.n, s.fresh, s.hits, s.coalesced, s.p50_ns / 1e3, s.p99_ns / 1e3,
      s.solves_per_sec);
}

void json_phase(FILE* out, const char* name, const PhaseSummary& s,
                bool last) {
  std::fprintf(out,
               "    \"%s\": {\"requests\": %zu, \"fresh\": %zu, "
               "\"hits\": %zu, \"coalesced\": %zu, \"p50_us\": %.1f, "
               "\"p99_us\": %.1f, \"req_per_sec\": %.1f, "
               "\"wall_ms\": %.1f}%s\n",
               name, s.n, s.fresh, s.hits, s.coalesced, s.p50_ns / 1e3,
               s.p99_ns / 1e3, s.solves_per_sec, s.wall_ms, last ? "" : ",");
}

struct ServerHandle {
  serve::SynthServer* server = nullptr;
  std::thread thread;
};

}  // namespace

int main(int argc, char** argv) {
  bool ci_mode = false;
  bool use_tcp = false;
  int connections = 8;
  int banks_per_phase = 12;
  int herd_classes = 3;
  int herd_requests = 48;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--ci") {
      ci_mode = true;
    } else if (arg == "--tcp") {
      use_tcp = true;
    } else if (arg == "--connections" && i + 1 < argc) {
      connections = std::atoi(argv[++i]);
    } else {
      std::fprintf(stderr, "usage: perf_serve [--ci] [--tcp] "
                           "[--connections N]\n");
      return 2;
    }
  }
  if (ci_mode) {
    connections = 4;
    banks_per_phase = 6;
    herd_classes = 2;
    herd_requests = 24;
  }

  bench::print_header("perf_serve — synthesis daemon load generator");

  const std::string sock_path =
      "/tmp/mrpf_perf_serve." + std::to_string(::getpid()) + ".sock";
  const std::string cache_path =
      "/tmp/mrpf_perf_serve." + std::to_string(::getpid()) + ".mrpc";
  std::remove(cache_path.c_str());

  serve::ServeConfig config;
  config.workers = connections;
  config.cache_path = cache_path;
  serve::SynthServer server(config);
  int tcp_port = -1;
  std::string unix_path;
  if (use_tcp) {
    tcp_port = server.bind_tcp(0);
  } else {
    unix_path = sock_path;
    server.bind_unix(unix_path);
  }
  serve::install_shutdown_signal_handlers(server);
  std::thread server_thread([&server] { server.run(); });

  Rng rng(20260809u);

  // Workload: catalog banks across wordlengths, uniform + maximal.
  std::vector<std::vector<i64>> pool;
  for (int i = 0; i < filter::catalog_size() &&
       static_cast<int>(pool.size()) < 2 * banks_per_phase; ++i) {
    for (const int w : {12, 16}) {
      pool.push_back(bench::folded_bank(i, w, false));
      pool.push_back(bench::folded_bank(i, w, true));
    }
  }

  const std::vector<core::Scheme> schemes = {
      core::Scheme::kSimple, core::Scheme::kCse, core::Scheme::kMrp,
      core::Scheme::kMrpCse};

  // Phase 1 — cold: distinct banks, every solve fresh.
  std::vector<Request> cold;
  for (int i = 0; i < banks_per_phase; ++i) {
    Request r;
    r.req.bank = pool[static_cast<std::size_t>(i) % pool.size()];
    r.req.scheme = schemes[static_cast<std::size_t>(i) % schemes.size()];
    r.klass = i;
    cold.push_back(std::move(r));
  }
  auto t0 = Clock::now();
  const auto cold_out = run_phase(unix_path, tcp_port, cold, connections);
  auto t1 = Clock::now();
  const PhaseSummary cold_sum = summarize(
      cold_out, std::chrono::duration<double, std::nano>(t1 - t0).count());
  print_phase("cold", cold_sum);

  // Phase 2 — herd: equivalence variants of unseen banks. Per class at
  // most one fresh solve can happen no matter how requests interleave
  // (the leader publishes to the cache before any waiter resolves).
  std::vector<Request> herd;
  for (int i = 0; i < herd_requests; ++i) {
    const int klass = i % herd_classes;
    Request r;
    r.req.bank = equivalence_variant(
        pool[static_cast<std::size_t>(banks_per_phase + klass) % pool.size()],
        rng);
    r.req.scheme = core::Scheme::kMrp;
    r.klass = klass;
    herd.push_back(std::move(r));
  }
  t0 = Clock::now();
  const auto herd_out = run_phase(unix_path, tcp_port, herd, connections);
  t1 = Clock::now();
  const PhaseSummary herd_sum = summarize(
      herd_out, std::chrono::duration<double, std::nano>(t1 - t0).count());
  print_phase("herd", herd_sum);

  // Phase 3 — warm: replay the cold banks, everything hits.
  auto warm = cold;
  t0 = Clock::now();
  const auto warm_out = run_phase(unix_path, tcp_port, warm, connections);
  t1 = Clock::now();
  const PhaseSummary warm_sum = summarize(
      warm_out, std::chrono::duration<double, std::nano>(t1 - t0).count());
  print_phase("warm", warm_sum);

  const serve::StatsFrame stats = server.stats_frame();

  // Drain through the real signal path and require a persisted store.
  std::raise(SIGTERM);
  server_thread.join();
  FILE* store = std::fopen(cache_path.c_str(), "rb");
  const bool persisted = server.cache_persisted() && store != nullptr;
  if (store != nullptr) std::fclose(store);

  // --no-coalesce control: duplicates solve independently, answers are
  // STILL bit-identical (run_phase checks every response).
  serve::ServeConfig nc_config;
  nc_config.coalesce = false;
  serve::SynthServer nc_server(nc_config);
  std::string nc_unix;
  int nc_port = -1;
  if (use_tcp) {
    nc_port = nc_server.bind_tcp(0);
  } else {
    nc_unix = sock_path + ".nc";
    nc_server.bind_unix(nc_unix);
  }
  std::thread nc_thread([&nc_server] { nc_server.run(); });
  std::vector<Request> nc_requests(herd.begin(),
                                   herd.begin() + herd_classes * 2);
  const auto nc_out = run_phase(nc_unix, nc_port, nc_requests, 2);
  nc_server.request_shutdown();
  nc_thread.join();

  // Deterministic gates.
  int failures = 0;
  auto gate = [&](bool ok, const char* what) {
    std::printf("%s  %s\n", ok ? "PASS" : "FAIL", what);
    if (!ok) ++failures;
  };
  gate(cold_sum.fresh == cold_sum.n, "cold phase: every solve fresh");
  std::vector<int> fresh_per_class(static_cast<std::size_t>(herd_classes), 0);
  for (const Outcome& o : herd_out) {
    if (!o.cache_hit) ++fresh_per_class[static_cast<std::size_t>(o.klass)];
  }
  bool herd_ok = true;
  for (const int f : fresh_per_class) herd_ok = herd_ok && f == 1;
  gate(herd_ok, "herd phase: exactly one fresh solve per equivalence class");
  gate(herd_sum.hits == herd_sum.n - static_cast<std::size_t>(herd_classes),
       "herd phase: every non-leader answered from the warm cache");
  gate(warm_sum.hits == warm_sum.n, "warm phase: 100% cache hits");
  gate(stats.errors == 0, "no error frames");
  gate(persisted, "SIGTERM drain persisted the cache store");
  gate(nc_out.size() == nc_requests.size(),
       "--no-coalesce pass answered (bit-identity checked per response)");

  const char* json_name = ci_mode ? "BENCH_serve_ci.json" : "BENCH_serve.json";
  FILE* out = std::fopen(json_name, "w");
  if (out == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", json_name);
    return 1;
  }
  std::fprintf(out, "{\n  \"bench\": \"perf_serve\",\n");
  std::fprintf(out, "  \"transport\": \"%s\",\n", use_tcp ? "tcp" : "unix");
  std::fprintf(out, "  \"connections\": %d,\n", connections);
  std::fprintf(out, "  \"phases\": {\n");
  json_phase(out, "cold", cold_sum, false);
  json_phase(out, "herd", herd_sum, false);
  json_phase(out, "warm", warm_sum, true);
  std::fprintf(out, "  },\n");
  std::fprintf(out,
               "  \"server\": {\"requests\": %llu, \"errors\": %llu, "
               "\"cache_hits\": %llu, \"coalesced_joins\": %llu, "
               "\"fresh_solves\": %llu, \"queue_high_water\": %llu, "
               "\"p50_us\": %.1f, \"p99_us\": %.1f},\n",
               static_cast<unsigned long long>(stats.requests),
               static_cast<unsigned long long>(stats.errors),
               static_cast<unsigned long long>(stats.cache_hits),
               static_cast<unsigned long long>(stats.coalesced_joins),
               static_cast<unsigned long long>(stats.fresh_solves),
               static_cast<unsigned long long>(stats.queue_high_water),
               stats.p50_ns / 1e3, stats.p99_ns / 1e3);
  std::fprintf(out, "  \"gates_failed\": %d\n}\n", failures);
  std::fclose(out);
  std::printf("wrote %s\n", json_name);

  std::remove(cache_path.c_str());
  if (failures > 0) {
    std::fprintf(stderr, "perf_serve: %d gate(s) failed\n", failures);
    return 1;
  }
  std::printf("OK: all serve gates passed\n");
  return 0;
}
