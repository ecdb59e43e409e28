#include <sched.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <stdexcept>

#include "bench.hpp"

extern char** environ;

namespace perfbench {

namespace {

std::uint64_t splitmix_finalize(std::uint64_t z) {
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

}  // namespace

InputRng::InputRng(std::uint64_t seed, std::uint64_t stream)
    : state_(splitmix_finalize(seed * 0x9e3779b97f4a7c15ULL + stream)) {}

std::uint64_t InputRng::next() {
  return splitmix_finalize(state_ += 0x9e3779b97f4a7c15ULL);
}

std::int64_t InputRng::range(std::int64_t lo, std::int64_t hi) {
  return lo + static_cast<std::int64_t>(
                  below(static_cast<std::uint64_t>(hi - lo) + 1));
}

double InputRng::uniform(double lo, double hi) {
  return lo + (hi - lo) * static_cast<double>(next() >> 11) * 0x1.0p-53;
}

void Digest::bytes(const void* data, std::size_t n) {
  // FNV-1a over 64-bit words (then the leftover bytes): fast enough to
  // digest every reply on the generator thread.
  const auto* p = static_cast<const unsigned char*>(data);
  std::size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    std::uint64_t w = 0;
    std::memcpy(&w, p + i, 8);
    h_ = (h_ ^ w) * 1099511628211ULL;
  }
  for (; i < n; ++i) h_ = (h_ ^ p[i]) * 1099511628211ULL;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx", static_cast<unsigned long long>(h_));
  return buf;
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const std::size_t n = v.size();
  std::size_t rank = static_cast<std::size_t>(std::ceil(q * static_cast<double>(n)));
  rank = std::clamp<std::size_t>(rank, 1, n);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  return v[rank - 1];
}

Tail tail_of(std::vector<double> v) {
  Tail t;
  t.n = v.size();
  if (v.empty()) return t;
  // Rank n - 10 (1-based) leaves exactly ten samples beyond it; with fewer
  // than eleven samples the maximum is the best a tail can say.
  const std::size_t rank = v.size() > 10 ? v.size() - 10 : v.size();
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(rank - 1),
                   v.end());
  t.value = v[rank - 1];
  t.percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(v.size());
  return t;
}

Tracer::Tracer(bool on) : on_(on), origin_(Clock::now()) {
  if (on_) spans_.reserve(std::size_t{1} << 16);
}

int Tracer::name_id(const std::string& name) {
  const auto [it, fresh] = ids_.try_emplace(name, static_cast<int>(names_.size()));
  if (fresh) names_.push_back(name);
  return it->second;
}

int Tracer::begin(int name, std::int64_t id, int parent) {
  if (!on_) return -1;
  Span s;
  s.name = name;
  s.parent = parent;
  s.id = id;
  s.start_ns = ns_between(origin_, Clock::now());
  spans_.push_back(s);
  return static_cast<int>(spans_.size() - 1);
}

void Tracer::end(int span) {
  if (span < 0) return;
  spans_[static_cast<std::size_t>(span)].end_ns = ns_between(origin_, Clock::now());
}

void Tracer::count(const std::string& name, double n) {
  if (on_) counts_[name] += n;
}

Tracer::Total Tracer::total(const std::string& name) const {
  Total t;
  const auto it = ids_.find(name);
  if (it == ids_.end()) return t;
  for (const Span& s : spans_) {
    if (s.name != it->second) continue;
    ++t.calls;
    t.ns += s.end_ns - s.start_ns;
  }
  return t;
}

double Tracer::counted(const std::string& name) const {
  const auto it = counts_.find(name);
  return it == counts_.end() ? 0.0 : it->second;
}

void Tracer::write(const std::string& path, const std::string& header_json) const {
  std::ofstream out(path);
  if (!out) throw std::runtime_error("cannot write trace file " + path);
  out << header_json << '\n';
  char buf[256];
  for (const Span& s : spans_) {
    std::snprintf(buf, sizeof buf,
                  "{\"name\":\"%s\",\"start_ns\":%.0f,\"end_ns\":%.0f,"
                  "\"parent\":%d,\"id\":%lld}\n",
                  names_[static_cast<std::size_t>(s.name)].c_str(), s.start_ns,
                  s.end_ns, s.parent, static_cast<long long>(s.id));
    out << buf;
  }
  for (const auto& [name, n] : counts_) {
    out << "{\"count\":\"" << name << "\",\"value\":" << fmt(n) << "}\n";
  }
}

const std::vector<int>& process_cpus() {
  static const std::vector<int> cpus = [] {
    cpu_set_t set;
    CPU_ZERO(&set);
    std::vector<int> out;
    if (::sched_getaffinity(0, sizeof set, &set) != 0) return out;
    for (int c = 0; c < CPU_SETSIZE; ++c) {
      if (CPU_ISSET(c, &set)) out.push_back(c);
    }
    return out;
  }();
  return cpus;
}

void pin_this_thread(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (const int c : cpus) CPU_SET(c, &set);
  ::sched_setaffinity(0, sizeof set, &set);
}

void rotate_cpu(int pass) {
  const std::vector<int>& cpus = process_cpus();
  if (cpus.size() > 1) {
    pin_this_thread({cpus[static_cast<std::size_t>(pass) % cpus.size()]});
  }
}

namespace {

constexpr const char* kSetupDone = "setup_done_ns ";

/// Spawns `argv` with its standard output on a pipe, returns everything it
/// printed and waits for it; throws when it cannot start or fails.
std::string spawn_and_read(const std::vector<std::string>& argv) {
  int fds[2];
  if (::pipe(fds) != 0) throw std::runtime_error("pipe failed");
  posix_spawn_file_actions_t actions;
  posix_spawn_file_actions_init(&actions);
  posix_spawn_file_actions_adddup2(&actions, fds[1], STDOUT_FILENO);
  posix_spawn_file_actions_addclose(&actions, fds[0]);
  posix_spawn_file_actions_addclose(&actions, fds[1]);
  std::vector<char*> cargv;
  for (const std::string& a : argv) cargv.push_back(const_cast<char*>(a.c_str()));
  cargv.push_back(nullptr);
  pid_t pid = 0;
  const int err = ::posix_spawn(&pid, argv[0].c_str(), &actions, nullptr,
                                cargv.data(), environ);
  posix_spawn_file_actions_destroy(&actions);
  ::close(fds[1]);
  std::string out;
  if (err == 0) {
    char buf[4096];
    for (ssize_t n; (n = ::read(fds[0], buf, sizeof buf)) != 0;) {
      if (n > 0) out.append(buf, static_cast<std::size_t>(n));
      else if (errno != EINTR) break;
    }
  }
  ::close(fds[0]);
  if (err != 0) throw std::runtime_error(std::string("spawn: ") + std::strerror(err));
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    throw std::runtime_error("set-up child exited abnormally");
  }
  return out;
}

std::int64_t steady_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

}  // namespace

std::vector<double> fresh_setup_times(const Args& args) {
  char exe[4096];
  const ssize_t len = ::readlink("/proc/self/exe", exe, sizeof exe - 1);
  if (len <= 0) throw std::runtime_error("cannot find this program's path");
  exe[len] = '\0';
  const std::vector<std::string> argv = {
      exe, "--workload", args.workload, "--seed", std::to_string(args.seed),
      "--seconds", std::to_string(args.seconds), "--trace", "0",
      "--source-id", args.source_id, "--out-dir", args.out_dir,
      "--setup-only", "1"};
  std::vector<double> times;
  for (int r = 0; r < kSetupReps; ++r) {
    // steady_clock is CLOCK_MONOTONIC, one clock for every process.
    const std::int64_t spawned = steady_ns();
    const std::string out = spawn_and_read(argv);
    const auto at = out.rfind(kSetupDone);
    if (at == std::string::npos) throw std::runtime_error("set-up child reported no end");
    const std::int64_t done = std::stoll(out.substr(at + std::strlen(kSetupDone)));
    times.push_back(static_cast<double>(done - spawned) * 1e-9);
  }
  return times;
}

void report_setup_done() {
  std::cout << kSetupDone << steady_ns() << std::endl;
}

double peak_rss_mb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      std::istringstream fields(line.substr(6));
      double kb = 0.0;
      fields >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

namespace {

volatile std::int64_t g_calibration_sink = 0;

/// A 16-tap integer FIR over a fixed 64-sample signal, 84 sweeps: about 64k
/// multiply-adds, with no call into the library, so a change to the
/// program under test cannot change its time. The signal is eight cache
/// lines: the work between two runs evicts it, and refetching a larger one
/// made the kernel's time follow the host's memory latency, not its CPU
/// speed (inside synth it read 72 us where back-to-back runs read 49 us).
std::int64_t calibration_kernel() {
  static const std::vector<std::int64_t> x = [] {
    std::vector<std::int64_t> v(64);
    InputRng rng(0, 0);
    for (std::int64_t& s : v) s = rng.range(-32768, 32767);
    return v;
  }();
  static constexpr std::int64_t c[16] = {3,   -7, 11, 13,  -17, 19, 23,  -29,
                                         31,  37, -41, 43, 47, -53, 59, 61};
  std::int64_t acc = 0;
  for (int sweep = 0; sweep < 84; ++sweep) {
    for (std::size_t i = 16; i < x.size(); ++i) {
      std::int64_t y = 0;
      for (std::size_t k = 0; k < 16; ++k) y += c[k] * x[i - k];
      acc ^= y + sweep;  // + sweep: equal sweeps must not cancel
    }
  }
  return acc;
}

double calibration_kernel_ns() {
  const auto start = Clock::now();
  g_calibration_sink = calibration_kernel();
  return ns_between(start, Clock::now());
}

}  // namespace

Calibration::Calibration() {
  calibration_kernel_ns();  // builds the signal and warms the caches
  samples_.push_back(calibration_kernel_ns());
}

double Calibration::next() {
  samples_.push_back(calibration_kernel_ns());
  const std::size_t n = samples_.size();
  return kCalibrationNs / ((samples_[n - 2] + samples_[n - 1]) / 2.0);
}

std::string describe(const Calibration& cal) {
  std::vector<double> v = cal.samples();
  const double fastest = v.empty() ? 0.0 : *std::min_element(v.begin(), v.end());
  return "calibration kernel: median " + fmt(median(v) * 1e-3) + " us, fastest " +
         fmt(fastest * 1e-3) + " us over " + std::to_string(v.size()) +
         " runs; calibrated times are at " + fmt(kCalibrationNs * 1e-3) + " us";
}

std::string fmt(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.10g", v);
  return buf;
}

}  // namespace perfbench
