// `serve`: an open loop at one fixed offered rate against an in-process
// synthesis daemon. One generator thread connects, sends one SynthRequest,
// reads the reply and closes, for every request, the way a command-line
// client talks to the daemon. The traffic mixes repeats of a hot set of
// catalog banks, equivalent variants of them, novel banks and bursts of
// variants of one novel bank, so the cache read path, the solver, cache
// writes and coalescing each carry part of the load.
#include <poll.h>
#include <pthread.h>
#include <sched.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstring>
#include <iterator>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <thread>
#include <unordered_map>

#include "bench.hpp"
#include "knobs.hpp"
#include "mrpf/cache/solve_cache.hpp"
#include "mrpf/core/flow.hpp"
#include "mrpf/core/plan_equality.hpp"
#include "mrpf/core/scheme_driver.hpp"
#include "mrpf/filter/catalog.hpp"
#include "mrpf/filter/design.hpp"
#include "mrpf/io/frame_assembler.hpp"
#include "mrpf/number/quantize.hpp"
#include "mrpf/serve/client.hpp"
#include "mrpf/serve/protocol.hpp"
#include "mrpf/serve/server.hpp"

namespace perfbench {
namespace {

using mrpf::i64;
namespace core = mrpf::core;
namespace serve = mrpf::serve;

// The traffic mix. No trace of real daemon traffic exists, so these are
// assumptions, not measurements; perfbench/README.md gives the reason for
// each, and every run prints the realised share and latency of each kind
// and the share of the workers' time the novel classes' solves take.
constexpr double kRate = 2000.0;          // offered requests per second
constexpr double kVariantShare = 0.10;    // of the scheduled slots
constexpr double kNovelShare = 0.02;
constexpr double kBurstEvery_s = 0.5;     // two bursts a second
constexpr int kBurstSize = 4;             // a novel bank and 3 variants
constexpr int kVariantsPerHotBank = 2;
constexpr double kTimeout_s = 10.0;       // a reply later than this fails
constexpr double kWindow_s = 0.05;        // hit-tail window: ~100 hits
constexpr core::Scheme kSchemes[] = {core::Scheme::kMrp, core::Scheme::kMrpCse};

/// One distinct (bank, scheme) the traffic uses, with its direct answer.
struct Key {
  std::vector<i64> bank;
  core::Scheme scheme = core::Scheme::kMrp;
  int novel_class = -1;  // index of its novel equivalence class, or -1
  std::optional<core::SchemeResult> ref;
  double ref_s = 0.0;  // wall time of the reference solve
};

enum class Kind { kHot, kVariant, kNovel, kBurst };
constexpr const char* kKindNames[] = {"hot", "variant", "novel", "burst"};

struct Request {
  double at_s = 0.0;  // scheduled send time, from the phase start
  int key = 0;
  Kind kind = Kind::kHot;
};

serve::SynthRequest request_of(const Key& k) {
  serve::SynthRequest r;
  r.bank = k.bank;
  r.scheme = k.scheme;
  return r;
}

/// The options the daemon resolves for a wire request (no cache hook).
core::MrpOptions ref_options(const Key& k) {
  core::MrpOptions o = request_of(k).to_options();
  o.opt_budget = core::kDefaultOptBudget;
  return o;
}

/// An MRP-equivalent variant: shuffled, some entries negated, scaled by a
/// power of two and padded with zeros, so it shares the original's class.
std::vector<i64> variant_of(const std::vector<i64>& bank, InputRng& rng) {
  std::vector<i64> v = bank;
  rng.shuffle(v);
  const int shift = static_cast<int>(rng.range(0, 2));
  for (i64& x : v) {
    if (rng.below(2) == 0) x = -x;
    x *= i64{1} << shift;
  }
  const int zeros = static_cast<int>(rng.range(0, 2));
  for (int z = 0; z < zeros; ++z) {
    v.insert(v.begin() + static_cast<std::ptrdiff_t>(rng.below(v.size() + 1)), 0);
  }
  return v;
}

std::vector<i64> novel_bank(InputRng& rng) {
  std::vector<i64> v(static_cast<std::size_t>(rng.range(6, 12)));
  for (i64& x : v) {
    do {
      x = rng.range(-1023, 1023);
    } while (x == 0);
  }
  return v;
}

/// The daemon, started in-process on a unix socket; stops and joins in
/// the destructor.
class Daemon {
 public:
  Daemon(const std::string& path, int workers) : path_(path) {
    serve::ServeConfig cfg;
    cfg.workers = workers;
    cfg.queue_depth = 64;
    cfg.coalesce = true;
    cfg.xform = false;
    cfg.knobs.threads = workers;
    cfg.knobs.cache_disabled = false;
    cfg.knobs.cache_max_bytes = std::size_t{256} << 20;
    cfg.knobs.exec_mode = 2;
    cfg.knobs.exec_lanes = 0;
    cfg.knobs.opt_budget = core::kDefaultOptBudget;
    cfg.knobs.xform_budget = core::kDefaultXformBudget;
    server_ = std::make_unique<serve::SynthServer>(cfg);
    server_->bind_unix(path_);
    thread_ = std::thread([this] { server_->run(); });
  }
  ~Daemon() {
    server_->request_shutdown();
    thread_.join();
  }
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;
  const std::string& path() const { return path_; }
  int workers() const { return server_->workers(); }

 private:
  std::string path_;
  std::unique_ptr<serve::SynthServer> server_;
  std::thread thread_;
};

struct State {
  std::vector<Key> keys;
  std::vector<Request> schedule;
  int novel_classes = 0;
  std::string digest;
  std::unique_ptr<Daemon> daemon;
  // A local cache holding the hot set's plans, for the replayed probes.
  std::unique_ptr<mrpf::cache::SolveCache> local;
};

int add_key(State& st, std::vector<i64> bank, core::Scheme s, int novel = -1) {
  Key k;
  k.bank = std::move(bank);
  k.scheme = s;
  k.novel_class = novel;
  st.keys.push_back(std::move(k));
  return static_cast<int>(st.keys.size() - 1);
}

/// Solves every key directly, across all cores: the references the served
/// plans are checked against after the phase.
void solve_references(State& st) {
  std::atomic<std::size_t> next{0};
  std::vector<std::thread> pool;
  const unsigned n = std::max(1u, std::thread::hardware_concurrency());
  std::vector<std::string> errors(n);
  for (unsigned t = 0; t < n; ++t) {
    pool.emplace_back([&, t] {
      try {
        for (std::size_t i; (i = next.fetch_add(1)) < st.keys.size();) {
          Key& k = st.keys[i];
          const auto a = Clock::now();
          k.ref = core::optimize_bank(k.bank, k.scheme, ref_options(k));
          k.ref_s = ns_between(a, Clock::now()) * 1e-9;
        }
      } catch (const std::exception& e) {
        errors[t] = e.what();
      }
    });
  }
  for (std::thread& t : pool) t.join();
  for (const std::string& e : errors) {
    if (!e.empty()) throw std::runtime_error("reference solve failed: " + e);
  }
}

std::unique_ptr<State> build(const Args& args, const std::string& sock) {
  const std::vector<int>& cpus = process_cpus();
  if (!cpus.empty()) pin_this_thread(cpus);  // undo an earlier build's pin
  auto st = std::make_unique<State>();
  InputRng rng(args.seed, 3);
  st->local = std::make_unique<mrpf::cache::SolveCache>();
  const auto class_key = [&](const std::vector<i64>& bank, core::Scheme s) {
    const core::MrpOptions o = core::scheme_driver(s).canonical_options(
        solve_options(false));
    return st->local->plan_key(bank, s, o);
  };

  // Hot set: the W = 16 catalog banks (folded halves) under both MRP schemes.
  std::vector<int> hot;
  std::set<std::uint64_t> classes;
  for (int i = 0; i < mrpf::filter::catalog_size(); ++i) {
    const auto q = mrpf::number::quantize_maximal(
        mrpf::filter::design(mrpf::filter::catalog_spec(i)), 16);
    const std::vector<i64> bank = core::optimization_bank(q.values());
    for (const core::Scheme s : kSchemes) {
      hot.push_back(add_key(*st, bank, s));
      classes.insert(class_key(bank, s));
    }
  }
  std::vector<int> variants;
  for (const int h : hot) {
    for (int v = 0; v < kVariantsPerHotBank; ++v) {
      const Key& base = st->keys[static_cast<std::size_t>(h)];
      variants.push_back(add_key(*st, variant_of(base.bank, rng), base.scheme));
    }
  }
  // A novel bank must open a class of its own, or its fresh-solve count
  // could not be checked.
  const auto fresh_class = [&](core::Scheme s) {
    for (;;) {
      std::vector<i64> bank = novel_bank(rng);
      if (classes.insert(class_key(bank, s)).second) return bank;
    }
  };

  const std::size_t slots = static_cast<std::size_t>(kRate * args.seconds);
  const std::size_t bursts = static_cast<std::size_t>(args.seconds / kBurstEvery_s);
  // Exactly the configured share of each kind, in seeded order, so the
  // seed moves which banks come when but not how many of each there are.
  std::vector<Kind> kinds(slots, Kind::kHot);
  const auto novel_slots = static_cast<std::size_t>(kNovelShare * static_cast<double>(slots));
  const auto variant_slots = static_cast<std::size_t>(kVariantShare * static_cast<double>(slots));
  std::fill_n(kinds.begin(), novel_slots, Kind::kNovel);
  std::fill_n(kinds.begin() + static_cast<std::ptrdiff_t>(novel_slots), variant_slots,
              Kind::kVariant);
  rng.shuffle(kinds);
  for (std::size_t i = 0; i < slots; ++i) {
    Request r;
    r.at_s = static_cast<double>(i) / kRate;
    r.kind = kinds[i];
    if (r.kind == Kind::kNovel) {
      const core::Scheme s = kSchemes[rng.below(2)];
      r.key = add_key(*st, fresh_class(s), s, st->novel_classes++);
    } else if (r.kind == Kind::kVariant) {
      r.key = variants[rng.below(variants.size())];
    } else {
      r.key = hot[rng.below(hot.size())];
    }
    st->schedule.push_back(r);
  }
  for (std::size_t b = 0; b < bursts; ++b) {
    // Bursts land between two slots, all at one instant.
    const double at = (static_cast<double>(b) + 0.5) * kBurstEvery_s + 0.5 / kRate;
    const core::Scheme s = kSchemes[rng.below(2)];
    const std::vector<i64> bank = fresh_class(s);
    const int cls = st->novel_classes++;
    for (int j = 0; j < kBurstSize; ++j) {
      Request r;
      r.at_s = at;
      r.key = add_key(*st, j == 0 ? bank : variant_of(bank, rng), s, cls);
      r.kind = Kind::kBurst;
      st->schedule.push_back(r);
    }
  }
  std::stable_sort(st->schedule.begin(), st->schedule.end(),
                   [](const Request& a, const Request& b) { return a.at_s < b.at_s; });

  Digest d;
  for (const Key& k : st->keys) {
    d.ints(k.bank);
    d.i64(static_cast<int>(k.scheme));
  }
  for (const Request& r : st->schedule) {
    d.f64(r.at_s);
    d.i64(r.key);
    d.i64(static_cast<int>(r.kind));
  }
  st->digest = d.hex();

  solve_references(*st);
  // Workers + the accept loop + this generator thread fit in nproc. The
  // generator spins, so it gets a CPU of its own: the daemon's threads
  // inherit the mask set while they are created, then this thread moves
  // to the last CPU. Without that, a worker woken on the generator's CPU
  // can wait milliseconds for it to be preempted.
  const int nproc = std::max(1, static_cast<int>(cpus.size()));
  if (cpus.size() > 1) pin_this_thread({cpus.begin(), cpus.end() - 1});
  st->daemon = std::make_unique<Daemon>(sock, std::max(1, nproc - 2));
  if (cpus.size() > 1) pin_this_thread({cpus.back()});
  serve::ServeClient client;
  client.connect_unix(sock);
  client.ping();
  client.close();
  // Warm the hot set (one fresh solve each) and mirror it locally.
  for (const int h : hot) {
    const Key& k = st->keys[static_cast<std::size_t>(h)];
    serve::ServeClient c;
    c.connect_unix(sock);
    (void)c.synth(request_of(k));
    const core::MrpOptions o =
        core::scheme_driver(k.scheme).canonical_options(ref_options(k));
    st->local->put_plan(k.bank, k.scheme, o, k.ref->plan);
  }
  return st;
}

serve::StatsFrame stats_of(const std::string& sock) {
  serve::ServeClient c;
  c.connect_unix(sock);
  return c.stats();
}

/// What the generator saw of one request.
struct Outcome {
  bool done = false;
  bool error = false;
  bool cache_hit = false;
  bool coalesced = false;
  double latency_ns = 0.0;  // reply complete minus scheduled send time
  double late_ns = 0.0;     // actual send start minus scheduled send time
  std::uint64_t payload = 0;  // digest of the reply payload
  std::size_t reply_bytes = 0;
  std::string what;
};

struct Conn {
  int fd = -1;
  std::size_t req = 0;
  bool connecting = false;
  std::vector<std::uint8_t> out;
  std::size_t sent = 0;
  std::unique_ptr<mrpf::io::FrameAssembler> in;
  int request_span = -1;
  int connect_span = -1;
};

struct Phase {
  std::vector<Outcome> outcomes;
  std::unordered_map<std::uint64_t, std::vector<std::uint8_t>> payloads;
  double elapsed_s = 0.0;
  serve::StatsFrame before, after;
};

std::uint64_t digest_bytes(const std::vector<std::uint8_t>& v) {
  Digest d;
  d.bytes(v.data(), v.size());
  return d.value();
}

/// Keeps the daemon's CPUs awake while it exists: one spinner thread at
/// idle priority (SCHED_IDLE) on each CPU but the generator's. A daemon
/// thread that wakes up preempts the spinner at once. Without them the
/// daemon's virtual CPUs halt between requests, and each request waits for
/// the hypervisor to wake two of them (accept loop, then worker): that wait
/// was four tenths of a hit's latency and moved with the host's load.
class CpuKeeper {
 public:
  CpuKeeper() {
    const std::vector<int>& cpus = process_cpus();
    for (std::size_t i = 0; i + 1 < cpus.size(); ++i) {
      threads_.emplace_back([this, cpu = cpus[i]] {
        pin_this_thread({cpu});
        const sched_param idle{};
        ::pthread_setschedparam(::pthread_self(), SCHED_IDLE, &idle);
        while (!stop_.load(std::memory_order_relaxed)) {
#if defined(__x86_64__) || defined(__i386__)
          __builtin_ia32_pause();
#endif
        }
      });
    }
  }
  ~CpuKeeper() {
    stop_.store(true);
    for (std::thread& t : threads_) t.join();
  }
  CpuKeeper(const CpuKeeper&) = delete;
  CpuKeeper& operator=(const CpuKeeper&) = delete;

 private:
  std::atomic<bool> stop_{false};
  std::vector<std::thread> threads_;
};

/// The open-loop generator: sends every scheduled request at its time
/// (late only when `max_out` replies are outstanding), on its own
/// connection, and polls all outstanding connections in one loop.
Phase run_phase(State& st, Tracer* t) {
  Phase ph;
  ph.outcomes.resize(st.schedule.size());
  const std::string& sock = st.daemon->path();
  sockaddr_un addr{};
  addr.sun_family = AF_UNIX;
  std::memcpy(addr.sun_path, sock.c_str(), sock.size() + 1);
  const std::size_t max_out =
      static_cast<std::size_t>(std::max(1L, sysconf(_SC_NPROCESSORS_ONLN)));
  const int req_name = t ? t->name_id("serve.request") : 0;
  const int connect_name = t ? t->name_id("serve.connect") : 0;
  const int encode_name = t ? t->name_id("io.encode") : 0;
  const int assemble_name = t ? t->name_id("io.assemble") : 0;

  const CpuKeeper keeper;
  ph.before = stats_of(sock);
  std::vector<Conn> active;
  std::vector<pollfd> fds;
  std::vector<std::uint8_t> buf(std::size_t{64} << 10);
  std::size_t next = 0;
  const auto start = Clock::now();
  const auto due = [&](std::size_t i) {
    return start + std::chrono::duration_cast<Clock::duration>(
                       std::chrono::duration<double>(st.schedule[i].at_s));
  };
  const auto try_send = [&](Conn& c) {
    const ssize_t n =
        ::send(c.fd, c.out.data() + c.sent, c.out.size() - c.sent, MSG_NOSIGNAL);
    if (n > 0) c.sent += static_cast<std::size_t>(n);
    return n >= 0 || errno == EAGAIN || errno == EINTR;
  };
  const auto finish = [&](Conn& c, bool ok, const std::string& what) {
    Outcome& o = ph.outcomes[c.req];
    o.done = true;
    if (!ok) {
      o.error = true;
      o.what = what;
    }
    if (c.fd >= 0) ::close(c.fd);
    c.fd = -1;
    if (t != nullptr) t->end(c.request_span);
  };

  while (next < st.schedule.size() || !active.empty()) {
    auto now = Clock::now();
    // Launch everything due, up to the outstanding limit.
    while (next < st.schedule.size() && due(next) <= now && active.size() < max_out) {
      Conn c;
      c.req = next;
      const Key& key = st.keys[static_cast<std::size_t>(st.schedule[next].key)];
      Outcome& o = ph.outcomes[next];
      o.late_ns = ns_between(due(next), now);
      const auto id = static_cast<std::int64_t>(next);
      c.request_span = t ? t->begin(req_name, id) : -1;
      {
        const Scope span(t, encode_name, id, c.request_span);
        mrpf::io::append_wire_frame(
            static_cast<std::uint32_t>(serve::MsgType::kSynthRequest),
            serve::encode_synth_request(request_of(key)), c.out);
      }
      c.in = std::make_unique<mrpf::io::FrameAssembler>();
      c.connect_span = t ? t->begin(connect_name, id, c.request_span) : -1;
      c.fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC, 0);
      ++next;
      if (c.fd < 0) {
        finish(c, false, std::string("socket: ") + std::strerror(errno));
        continue;
      }
      if (::connect(c.fd, reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
        if (t != nullptr) t->end(c.connect_span);
        if (!try_send(c)) {
          finish(c, false, std::string("send: ") + std::strerror(errno));
          continue;
        }
      } else if (errno == EINPROGRESS) {
        c.connecting = true;
      } else {
        finish(c, false, std::string("connect: ") + std::strerror(errno));
        continue;
      }
      active.push_back(std::move(c));
      now = Clock::now();
    }

    fds.clear();
    for (const Conn& c : active) {
      const bool writing = c.connecting || c.sent < c.out.size();
      fds.push_back({c.fd, static_cast<short>(writing ? POLLOUT : POLLIN), 0});
    }
    // Never sleep: on a shared virtual host a timer wake-up can come a
    // millisecond late, which would land in every later request's latency.
    // The generator spins on a zero-timeout poll instead, on its own core.
    timespec ts{0, 0};
    if (::ppoll(fds.data(), fds.size(), &ts, nullptr) < 0 && errno != EINTR) {
      throw std::runtime_error(std::string("ppoll: ") + std::strerror(errno));
    }

    for (std::size_t i = 0; i < active.size(); ++i) {
      Conn& c = active[i];
      const short ev = fds[i].revents;
      const auto id = static_cast<std::int64_t>(c.req);
      if (c.connecting && (ev & (POLLOUT | POLLERR | POLLHUP)) != 0) {
        int err = 0;
        socklen_t len = sizeof err;
        ::getsockopt(c.fd, SOL_SOCKET, SO_ERROR, &err, &len);
        if (err != 0) {
          finish(c, false, std::string("connect: ") + std::strerror(err));
          continue;
        }
        c.connecting = false;
        if (t != nullptr) t->end(c.connect_span);
      }
      if (!c.connecting && c.sent < c.out.size()) {
        if (!try_send(c)) finish(c, false, std::string("send: ") + std::strerror(errno));
        continue;
      }
      if (c.connecting || (ev & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      const ssize_t n = ::recv(c.fd, buf.data(), buf.size(), 0);
      if (n < 0) {
        if (errno != EAGAIN && errno != EINTR) {
          finish(c, false, std::string("recv: ") + std::strerror(errno));
        }
        continue;
      }
      if (n == 0) {
        finish(c, false, "connection closed before a reply");
        continue;
      }
      const auto got = Clock::now();
      mrpf::io::WireFrame frame;
      bool fed = false;
      bool complete = false;
      {
        const Scope span(t, assemble_name, id, c.request_span);
        fed = c.in->feed(buf.data(), static_cast<std::size_t>(n));
        complete = fed && c.in->next(frame);
      }
      if (!fed) {
        finish(c, false, "malformed reply: " + c.in->error());
        continue;
      }
      if (!complete) continue;  // partial reply
      Outcome& o = ph.outcomes[c.req];
      o.latency_ns = ns_between(due(c.req), got);
      if (frame.type != static_cast<std::uint32_t>(serve::MsgType::kSynthResponse)) {
        std::string what = "unexpected frame type";
        if (frame.type == static_cast<std::uint32_t>(serve::MsgType::kError)) {
          try {
            what = "error frame: " + serve::decode_error(frame.payload).message;
          } catch (const std::exception&) {
            what = "malformed error frame";
          }
        }
        finish(c, false, what);
        continue;
      }
      // The reply is decoded after the phase (decode_replies), so one
      // reply's decoding never delays noticing the next.
      o.reply_bytes = frame.payload.size() + mrpf::io::kWireHeaderBytes;
      o.payload = digest_bytes(frame.payload);
      ph.payloads.try_emplace(o.payload, std::move(frame.payload));
      finish(c, true, "");
    }
    // Time out stragglers, then drop finished connections.
    const auto now2 = Clock::now();
    for (Conn& c : active) {
      if (c.fd >= 0 && ns_between(due(c.req), now2) > kTimeout_s * 1e9) {
        finish(c, false, "no reply within the timeout");
      }
    }
    active.erase(std::remove_if(active.begin(), active.end(),
                                [](const Conn& c) { return c.fd < 0; }),
                 active.end());
  }
  ph.elapsed_s = ns_between(start, Clock::now()) * 1e-9;
  ph.after = stats_of(sock);
  return ph;
}

/// Decodes every reply the phase stored (each distinct payload once) into
/// the outcome's service flags. The traced run also decodes once more per
/// reply under an `io.decode` span, a replay of the client's decode step.
void decode_replies(Phase& ph, Tracer* t) {
  struct Flags {
    bool ok = false;
    bool cache_hit = false;
    bool coalesced = false;
  };
  std::unordered_map<std::uint64_t, Flags> decoded;
  for (const auto& [digest, bytes] : ph.payloads) {
    try {
      const serve::SynthResponse resp = serve::decode_synth_response(bytes);
      decoded[digest] = {true, resp.cache_hit, resp.coalesced};
    } catch (const std::exception&) {
      decoded[digest] = {};
    }
  }
  const int decode_name = t ? t->name_id("io.decode") : 0;
  for (std::size_t i = 0; i < ph.outcomes.size(); ++i) {
    Outcome& o = ph.outcomes[i];
    if (!o.done || o.error) continue;
    const Flags& flags = decoded.at(o.payload);
    if (!flags.ok) {
      o.error = true;
      o.what = "undecodable reply";
      continue;
    }
    o.cache_hit = flags.cache_hit;
    o.coalesced = flags.coalesced;
    if (t == nullptr) continue;
    const Scope span(t, decode_name, static_cast<std::int64_t>(i));
    (void)serve::decode_synth_response(ph.payloads.at(o.payload));
    t->count("io.reply_bytes", static_cast<double>(o.reply_bytes));
  }
}

/// Checks every served plan against its direct answer and every novel
/// class for exactly one fresh solve, after the phase.
void verify(const State& st, const Phase& ph, Result& r) {
  std::map<std::pair<int, std::uint64_t>, bool> checked;  // (key, payload) -> ok
  std::vector<int> fresh(static_cast<std::size_t>(st.novel_classes), 0);
  for (std::size_t i = 0; i < ph.outcomes.size(); ++i) {
    const Outcome& o = ph.outcomes[i];
    const Key& k = st.keys[static_cast<std::size_t>(st.schedule[i].key)];
    ++r.attempted;
    if (!o.done || o.error) {
      r.fail("request " + std::to_string(i) + ": " + (o.done ? o.what : "never finished"));
      continue;
    }
    if (k.novel_class >= 0 && !o.cache_hit) ++fresh[static_cast<std::size_t>(k.novel_class)];
    const auto [it, fresh_check] = checked.try_emplace({st.schedule[i].key, o.payload}, true);
    if (fresh_check) {
      const auto& bytes = ph.payloads.at(o.payload);
      const serve::SynthResponse resp = serve::decode_synth_response(bytes);
      if (const auto diff = core::plan_mismatch(k.ref->plan, resp.plan)) {
        it->second = false;
      }
    }
    if (!it->second) r.fail("request " + std::to_string(i) + ": served plan differs from optimize_bank");
  }
  for (std::size_t c = 0; c < fresh.size(); ++c) {
    if (fresh[c] != 1) {
      r.fail("novel class " + std::to_string(c) + " had " + std::to_string(fresh[c]) +
             " fresh solves");
    }
  }
  const std::uint64_t solves = ph.after.fresh_solves - ph.before.fresh_solves;
  if (solves != static_cast<std::uint64_t>(st.novel_classes)) {
    r.fail("daemon ran " + std::to_string(solves) + " fresh solves for " +
           std::to_string(st.novel_classes) + " novel classes");
  }
}

struct Figures {
  std::vector<double> hit_ms, miss_ms, late_us;
  // The hit tail of each 50 ms of the schedule (about 100 hits, so the
  // p90: ten samples beyond it) and their median. On a shared host a
  // stall of a few milliseconds stalls every request in flight; over the
  // whole run such stalls alone would set any higher percentile.
  std::vector<double> window_tail_ms;
  double tail_ms = 0.0;
  double completed_per_s = 0.0;
  // Per request kind: requests scheduled, hits among the completed ones
  // and the latencies of the completed ones.
  struct PerKind {
    std::size_t scheduled = 0;
    std::size_t hits = 0;
    std::vector<double> ms;
  };
  PerKind kinds[std::size(kKindNames)];
};

Figures figures_of(const State& st, const Phase& ph) {
  Figures f;
  std::size_t done = 0;
  std::vector<std::vector<double>> windows;
  for (std::size_t i = 0; i < ph.outcomes.size(); ++i) {
    const Outcome& o = ph.outcomes[i];
    Figures::PerKind& kind = f.kinds[static_cast<std::size_t>(st.schedule[i].kind)];
    ++kind.scheduled;
    if (!o.done || o.error) continue;
    ++done;
    kind.ms.push_back(o.latency_ns * 1e-6);
    f.late_us.push_back(o.late_ns * 1e-3);
    if (!o.cache_hit || o.coalesced) {
      f.miss_ms.push_back(o.latency_ns * 1e-6);
      continue;
    }
    ++kind.hits;
    f.hit_ms.push_back(o.latency_ns * 1e-6);
    const auto w = static_cast<std::size_t>(st.schedule[i].at_s / kWindow_s);
    if (windows.size() <= w) windows.resize(w + 1);
    windows[w].push_back(o.latency_ns * 1e-6);
  }
  for (const auto& w : windows) f.window_tail_ms.push_back(tail_of(w).value);
  f.tail_ms = median(f.window_tail_ms);
  f.completed_per_s = static_cast<double>(done) / ph.elapsed_s;
  return f;
}

/// Replays, in the traced run only: a local cache probe and the daemon's
/// response encoding for every hit, on the same banks and plans.
void replay_hits(const State& st, const Phase& ph, Tracer& t) {
  const int probe_name = t.name_id("cache.probe");
  const int serialize_name = t.name_id("io.serialize");
  for (std::size_t i = 0; i < ph.outcomes.size(); ++i) {
    const Outcome& o = ph.outcomes[i];
    if (!o.done || o.error || !o.cache_hit || o.coalesced) continue;
    const Key& k = st.keys[static_cast<std::size_t>(st.schedule[i].key)];
    if (k.novel_class >= 0) continue;  // only the hot set lives locally
    const core::MrpOptions opts =
        core::scheme_driver(k.scheme).canonical_options(ref_options(k));
    serve::SynthResponse resp;
    resp.cache_hit = true;
    {
      const Scope span(t, probe_name, static_cast<std::int64_t>(i));
      (void)st.local->try_get_plan(k.bank, k.scheme, opts, resp.plan);
    }
    const Scope span(t, serialize_name, static_cast<std::int64_t>(i));
    (void)serve::encode_synth_response(resp);
  }
}

double mean_us(const Tracer& t, const std::string& name) {
  const Tracer::Total tot = t.total(name);
  return tot.calls ? tot.ns * 1e-3 / static_cast<double>(tot.calls) : 0.0;
}

}  // namespace

Result run_serve(const Args& args, Tracer& tracer) {
  Result r;
  // A relative path keeps the socket name inside sun_path's 108 bytes.
  const std::string sock = (args.out_dir.empty() ? std::string(".") : args.out_dir) +
                           "/serve-" + std::to_string(::getpid()) + ".sock";
  std::unique_ptr<State> st;
  const double setup_s = setup(args, st, [&] { return build(args, sock); });
  if (args.setup_only) return r;
  r.digest = st->digest;
  r.passes = 1;

  Phase plain = run_phase(*st, nullptr);
  decode_replies(plain, nullptr);
  verify(*st, plain, r);
  const Figures f = figures_of(*st, plain);
  const Tail hit_tail = tail_of(f.hit_ms);
  double adders = 0.0;
  for (const Key& k : st->keys) adders += k.ref->plan.analytic_adders;
  const double server_p50_us = plain.after.p50_ns * 1e-3;

  r.line("serve: " + std::to_string(st->schedule.size()) + " requests at " +
         fmt(kRate) + "/s offered, " + std::to_string(st->keys.size()) +
         " distinct banks, " + std::to_string(st->novel_classes) + " novel classes, " +
         std::to_string(st->daemon->workers()) + " workers");
  r.line("serve_hit_p50_us = " + fmt(median(f.hit_ms) * 1e3) +
         " us (serve.server_p50_us = " + fmt(server_p50_us) + " us, n = " +
         std::to_string(f.hit_ms.size()) + ")");
  r.line("serve_hit_tail_us = " + fmt(f.tail_ms * 1e3) +
         " us (median over " + std::to_string(f.window_tail_ms.size()) + " " +
         fmt(kWindow_s * 1e3) + "-ms windows of each window's p" +
         fmt(100.0 * (1.0 - 10.0 * static_cast<double>(f.window_tail_ms.size()) /
                                static_cast<double>(f.hit_ms.size()))) +
         "; whole-run p" + fmt(hit_tail.percentile) + " = " +
         fmt(hit_tail.value * 1e3) + " us, n = " + std::to_string(hit_tail.n) + ")");
  r.line("serve_miss_p50_ms = " + fmt(median(f.miss_ms)) + " ms (n = " +
         std::to_string(f.miss_ms.size()) + ")");
  r.line("completed_per_s = " + fmt(f.completed_per_s) + " 1/s, generator late p99 = " +
         fmt(quantile(f.late_us, 0.99)) + " us");
  r.line("adders_total = " + fmt(adders) + " count");
  r.line("setup_s = " + fmt(setup_s) + " s");
  for (std::size_t k = 0; k < std::size(kKindNames); ++k) {
    const Figures::PerKind& kind = f.kinds[k];
    r.line(std::string("kind ") + kKindNames[k] + ": " +
           fmt(100.0 * static_cast<double>(kind.scheduled) /
               static_cast<double>(st->schedule.size())) +
           "% of requests (n = " + std::to_string(kind.scheduled) + "), " +
           std::to_string(kind.hits) + " hits, p50 " + fmt(median(kind.ms)) + " ms");
  }
  // What the novel classes cost the daemon, from the reference solves
  // timed in set-up: the share of the workers' time their fresh solves
  // take over the phase.
  std::vector<bool> solved(static_cast<std::size_t>(st->novel_classes), false);
  double novel_solve_s = 0.0;
  for (const Key& k : st->keys) {
    if (k.novel_class < 0 || solved[static_cast<std::size_t>(k.novel_class)]) continue;
    solved[static_cast<std::size_t>(k.novel_class)] = true;
    novel_solve_s += k.ref_s;
  }
  r.line("novel classes: " + std::to_string(st->novel_classes) + ", " +
         fmt(novel_solve_s * 1e3 / std::max(1, st->novel_classes)) +
         " ms a solve (timed in set-up), " +
         fmt(100.0 * novel_solve_s / (st->daemon->workers() * plain.elapsed_s)) +
         "% of the workers' time over the phase");

  if (!tracer.on()) {
    r.metrics["setup_s"] = setup_s;
    r.metrics["adders_total"] = adders;
    r.metrics["p50_ms"] = median(f.hit_ms);
    // The generator's schedule sets this rate; it falls below the offered
    // rate only when the daemon cannot keep up.
    r.metrics["throughput_per_s"] = f.completed_per_s;
    return r;
  }

  // The traced phase gets a fresh daemon and the identical traffic, so
  // its novel banks are misses again.
  st.reset();
  st = build(args, sock);
  Phase traced = run_phase(*st, &tracer);
  decode_replies(traced, &tracer);
  verify(*st, traced, r);
  const Figures ft = figures_of(*st, traced);
  replay_hits(*st, traced, tracer);
  auto& m = r.metrics;
  m["trace.overhead_ratio"] = median(ft.hit_ms) / median(f.hit_ms);
  m["serve.connect_us"] = mean_us(tracer, "serve.connect");
  m["io.encode_us"] = mean_us(tracer, "io.encode");
  m["io.decode_us"] = mean_us(tracer, "io.assemble") + mean_us(tracer, "io.decode");
  const std::size_t replies = tracer.total("io.decode").calls;
  m["io.reply_bytes"] = replies ? tracer.counted("io.reply_bytes") / static_cast<double>(replies) : 0.0;
  m["cache.probe_us"] = mean_us(tracer, "cache.probe");
  m["io.serialize_us"] = mean_us(tracer, "io.serialize");
  const serve::StatsFrame& a = traced.after;
  const serve::StatsFrame& b = traced.before;
  m["serve.server_p50_us"] = a.p50_ns * 1e-3;
  m["serve.server_p99_us"] = a.p99_ns * 1e-3;
  m["serve.queue_high_water"] = static_cast<double>(a.queue_high_water);
  m["cache.hit_ratio"] = static_cast<double>(a.cache_hits - b.cache_hits) /
                         static_cast<double>(a.synth_requests - b.synth_requests);
  m["cache.coalesced"] = static_cast<double>(a.coalesced_joins - b.coalesced_joins);
  m["serve.fresh_solves"] = static_cast<double>(a.fresh_solves - b.fresh_solves);
  m["serve.gen_late_us"] = quantile(ft.late_us, 0.99);
  r.line("traced serve_hit_p50_us = " + fmt(median(ft.hit_ms) * 1e3) +
         " us (overhead ratio " + fmt(m["trace.overhead_ratio"]) + ")");
  return r;
}

}  // namespace perfbench
