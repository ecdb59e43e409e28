// Shared pieces of the repository benchmark: seeded input generation,
// digests, order statistics, the in-memory span tracer and the result
// record every workload fills.
//
// The benchmark drives the library only through its public headers. Its
// own random inputs come from SplitMix64 here, never from the library's
// Rng, so a change to the program under test cannot change the inputs.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double ns_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::nano>(b - a).count();
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  std::string source_id;  // git sha or source-tree digest, from run.py
  std::string out_dir;    // where the trace file goes
  bool setup_only = false;  // run the set-up once, report when it ended, exit
};

/// SplitMix64: the benchmark's own input generator. The seed and the
/// workload's stream number are hashed into the start state, so that
/// neighbouring seeds give unrelated inputs (unhashed, seed n + 1 would
/// replay seed n's draws one step later).
class InputRng {
 public:
  InputRng(std::uint64_t seed, std::uint64_t stream);
  std::uint64_t next();
  /// Uniform in [0, bound); bound > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform integer in [lo, hi].
  std::int64_t range(std::int64_t lo, std::int64_t hi);
  /// Uniform double in [lo, hi).
  double uniform(double lo, double hi);
  template <typename T>
  void shuffle(std::vector<T>& v) {
    for (std::size_t i = v.size(); i > 1; --i) {
      std::swap(v[i - 1], v[below(i)]);
    }
  }

 private:
  std::uint64_t state_;
};

/// A 64-bit FNV-style digest of everything fed to it: proves two runs saw
/// identical inputs, and stands in for outputs checked after timing.
class Digest {
 public:
  void bytes(const void* data, std::size_t n);
  void i64(std::int64_t v) { bytes(&v, sizeof v); }
  void f64(double v) { bytes(&v, sizeof v); }
  void str(const std::string& s) {
    i64(static_cast<std::int64_t>(s.size()));
    bytes(s.data(), s.size());
  }
  void ints(const std::vector<std::int64_t>& v) {
    i64(static_cast<std::int64_t>(v.size()));
    bytes(v.data(), v.size() * sizeof(std::int64_t));
  }
  std::uint64_t value() const { return h_; }
  std::string hex() const;

 private:
  std::uint64_t h_ = 1469598103934665603ULL;
};

/// Nearest-rank quantile, q in [0, 1]; 0 for an empty sample.
double quantile(std::vector<double> v, double q);
inline double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

/// The highest percentile with at least ten samples beyond it, its value
/// and the sample count (the whole sample's maximum rank minus ten).
struct Tail {
  double value = 0.0;
  double percentile = 0.0;  // in percent
  std::size_t n = 0;
};
Tail tail_of(std::vector<double> v);

/// One timed span: name, start and end on the steady clock (ns since the
/// tracer's origin), the causing span and the job or request id.
struct Span {
  int name = 0;
  double start_ns = 0.0;
  double end_ns = 0.0;
  int parent = -1;
  std::int64_t id = 0;
};

/// Keeps spans in memory while a run measures; write() dumps them at exit.
/// With tracing off every call is a no-op, so the untraced run executes
/// the same code with no clock reads.
class Tracer {
 public:
  explicit Tracer(bool on);
  bool on() const { return on_; }
  int name_id(const std::string& name);
  /// Opens a span; returns its index (or -1 when off).
  int begin(int name, std::int64_t id, int parent = -1);
  void end(int span);
  /// Adds `n` to a named count recorded at the same boundary as a span.
  void count(const std::string& name, double n);

  struct Total {
    std::size_t calls = 0;
    double ns = 0.0;
  };
  Total total(const std::string& name) const;
  double counted(const std::string& name) const;
  std::size_t spans() const { return spans_.size(); }
  void write(const std::string& path, const std::string& header_json) const;

 private:
  bool on_;
  Clock::time_point origin_;
  std::vector<std::string> names_;
  std::map<std::string, int> ids_;
  std::vector<Span> spans_;
  std::map<std::string, double> counts_;
};

/// RAII span; a null tracer makes it a no-op.
class Scope {
 public:
  Scope(Tracer* t, int name, std::int64_t id, int parent = -1)
      : t_(t), span_(t != nullptr ? t->begin(name, id, parent) : -1) {}
  Scope(Tracer& t, int name, std::int64_t id, int parent = -1)
      : Scope(&t, name, id, parent) {}
  ~Scope() {
    if (t_ != nullptr) t_->end(span_);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int index() const { return span_; }

 private:
  Tracer* t_;
  int span_;
};

/// What a workload hands back to main: correctness accounting, the metrics
/// of the mode it ran in (end-to-end untraced, per-layer traced) and
/// human-readable lines naming each figure the way the docs do.
struct Result {
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::vector<std::string> errors;  // first few failure descriptions
  std::map<std::string, double> metrics;
  std::vector<std::string> report;  // printed before the result line
  std::string digest;               // inputs digest (hex)
  int passes = 0;                   // timed passes (or set-up repetitions)
  void fail(const std::string& what) {
    ++failed;
    if (errors.size() < 8) errors.push_back(what);
  }
  void line(const std::string& s) { report.push_back(s); }
};

/// The CPUs this process could run on when it first asked, in order.
const std::vector<int>& process_cpus();

/// Restricts the calling thread, and the threads it creates from now on,
/// to `cpus`.
void pin_this_thread(const std::vector<int>& cpus);

/// Moves the calling thread to CPU `pass` mod the allowed CPUs. The
/// single-threaded workloads run pass k on CPU k: on a shared virtual host
/// the CPUs differ in speed by up to half, so a run that stayed where it
/// started would measure the CPU it happened to land on.
void rotate_cpu(int pass);

/// Peak resident set of this process in MiB (VmHWM).
double peak_rss_mb();

/// The calibration kernel's time, in ns, at the speed every calibrated
/// time is reported at: about its time on an uncontended CPU of the 4-vCPU
/// Xeon VM the bounds were set on.
constexpr double kCalibrationNs = 40000.0;

/// Host-speed calibration for the single-threaded workloads. A shared
/// virtual host switches a CPU between speeds, one about 1.7x slower than
/// another, for a few to a few hundred ms at a time, and the share of time
/// at each moves with other tenants' load, so wall-clock figures of the same
/// code moved by a quarter between runs. A fixed arithmetic kernel of the
/// benchmark's own (no library code), run just before and just after a
/// timed piece of work, measures the CPU's speed at that moment. Multiplying
/// the piece's wall-clock time by next() reports it at the speed at which
/// the kernel takes kCalibrationNs.
class Calibration {
 public:
  Calibration();  // runs the kernel: the first piece's "before"
  /// Runs the kernel again and returns kCalibrationNs over the mean of this
  /// run and the previous one, which bracket the piece just timed.
  double next();
  /// Every kernel time of this calibration, in ns, for the report.
  const std::vector<double>& samples() const { return samples_; }

 private:
  std::vector<double> samples_;
};

/// "calibration kernel: median .. us, fastest .. us over n runs", for the
/// report.
std::string describe(const Calibration& cal);

/// Fresh processes that time the set-up in an untraced run.
constexpr int kSetupReps = 5;

/// Set-up times from process start: runs this program kSetupReps times,
/// one after another, with --setup-only. Each child is a fresh process, so
/// it pays every one-time cost again (loading, tables the library builds
/// on first use) before its set-up ends and it reports. Returns each
/// child's time from just before it was spawned to that report, in seconds.
std::vector<double> fresh_setup_times(const Args& args);

/// In a --setup-only child: reports to the parent that set-up has ended.
void report_setup_done();

/// The workload's set-up: fresh processes time it from process start (see
/// fresh_setup_times) and their median is returned; then this process
/// builds its own `state` for the timed phase. A --setup-only child only
/// builds its state and reports. The traced run reports no set-up time
/// and starts no children.
template <typename State, typename Build>
double setup(const Args& args, std::unique_ptr<State>& state, Build&& build) {
  std::vector<double> times;
  if (!args.setup_only && !args.trace) times = fresh_setup_times(args);
  state = build();
  if (args.setup_only) report_setup_done();
  return median(std::move(times));
}

/// A number with all its significant digits, for the output lines.
std::string fmt(double v);

Result run_synth(const Args& args, Tracer& tracer);
Result run_stream(const Args& args, Tracer& tracer);
Result run_serve(const Args& args, Tracer& tracer);

}  // namespace perfbench
