// Differential fuzz-verification harness over the whole SchemeDriver
// pipeline — the standing correctness gate behind the paper's central
// claim that every scheme's multiplier block is bit-identical to the naive
// constant-vector product.
//
// The harness generates randomized coefficient banks (varied wordlengths,
// signs, zeros, duplicates, near-limit magnitudes, symmetric vectors,
// alignment shifts) crossed with randomized result-relevant MrpOptions
// (including randomized e-graph pass budgets) and scheme choices, runs
// each resulting SynthPlan through six independent oracles, and on any
// failure greedily shrinks the case to a minimal reproducer with a printed
// replay command:
//
//   cost   analytic adder cost vs. an independent integer recount of the
//          replayed adder-graph ops (operand/shift bounds, fundamental
//          overflow, tap-realizes-bank, graph <= analytic adders)
//   sim    lowered TdfFilter vs. dsp::fir_filter_exact on uniform /
//          impulse / sine stimuli (sim::check_equivalence_suite)
//   rtl    emitted Verilog re-parsed and executed in rtl::Simulator vs.
//          the C++ model, sample for sample
//   serde  serialize -> deserialize -> field-for-field plan equality and
//          re-lowered block equivalence
//   exec   compiled exec::StreamingFilter (varied lane width, uneven push
//          chunking, reset-replay) vs. TdfFilter::run, sample for sample
//   xform  pass-off-vs-pass-on equivalence: when the case enables the
//          e-graph rewrite pass, the pre-pass plan must lower cleanly and
//          stream-match the post-pass plan, and the pass must never have
//          made the plan cost more adders
//
// Every case is replayable in isolation (tools/mrpf_fuzz --bank ...), and
// the MRPF_FUZZ_INJECT hook deliberately corrupts one plan op so CI can
// prove the oracles and the shrinker actually detect and minimize faults.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "mrpf/core/flow.hpp"
#include "mrpf/core/scheme.hpp"

namespace mrpf::verify {

/// The six independent oracles, in execution order.
enum class Oracle {
  kCost,   ///< Analytic cost vs. independent op-replay recount.
  kSim,    ///< Lowered filter vs. exact convolution (three stimuli).
  kRtl,    ///< Emitted Verilog re-simulated vs. the C++ model.
  kSerde,  ///< Serde round-trip: field equality + re-lowered equivalence.
  kExec,   ///< Compiled streaming engine vs. the interpreted model.
  kXform,  ///< Pass-off-vs-pass-on equivalence (no-op when the pass is off).
};
inline constexpr int kNumOracles = 6;

/// All oracles in enum order (canonical iteration order for counters).
const std::array<Oracle, kNumOracles>& all_oracles();

/// Canonical CLI/JSON spelling; round-trips with parse_oracle().
std::string to_string(Oracle oracle);
std::optional<Oracle> parse_oracle(std::string_view name);

/// Deliberate plan corruptions for the fault-injection hook. Each targets
/// a different detection surface: op faults are caught analytically by the
/// cost oracle and numerically by every lowering consumer; tap faults by
/// tap-realization checks; cost faults only by the cost oracle.
enum class FaultKind {
  kNone,
  kOpShift,      ///< Bump a tap-feeding op's left operand shift.
  kOpSubtract,   ///< Flip a tap-feeding op's add/subtract.
  kTapNegate,    ///< Flip the first nonzero tap's negation.
  kAnalyticCost, ///< Claim one adder fewer than the replayed graph holds.
};
std::string to_string(FaultKind kind);
/// Parses "shift" / "subtract" / "tap" / "cost" ("1" aliases "shift", the
/// default corruption of the MRPF_FUZZ_INJECT env hook).
std::optional<FaultKind> parse_fault(std::string_view name);

/// The MRPF_FUZZ_INJECT env hook: kNone when unset/empty; a parse failure
/// warns once and reads as kNone (the harness must never inject by
/// accident).
FaultKind fault_from_env();

/// Applies the corruption to the plan. A plan that offers no site for the
/// requested fault (e.g. no ops for kOpShift) falls back to the first kind
/// that applies, so injection always corrupts something detectable.
void inject_fault(core::SynthPlan& plan, FaultKind kind);

/// One fully specified fuzz case — everything needed to replay it in
/// isolation, independent of the generator.
struct FuzzCase {
  std::vector<i64> coefficients;   ///< Full (possibly symmetric) vector.
  std::vector<int> align;          ///< Per-tap alignment shifts; may be empty.
  core::Scheme scheme = core::Scheme::kSimple;
  core::MrpOptions options;        ///< Result-relevant knobs only.
  int input_bits = 10;
  FaultKind inject = FaultKind::kNone;
};

/// Which oracle failed and why (human-readable detail, one line).
struct OracleFailure {
  Oracle oracle = Oracle::kCost;
  std::string detail;
};

/// Verdict of one case: passed, or the first failing oracle.
struct CaseResult {
  bool passed = true;
  std::optional<OracleFailure> failure;
  /// Wall time spent inside each oracle (0 for oracles not run).
  std::array<std::uint64_t, kNumOracles> oracle_ns{};
};

struct FuzzConfig {
  std::uint64_t seed = 1;
  std::size_t cases = 200;
  /// Stop generating new cases once this much wall time has elapsed;
  /// 0 = no budget (run exactly `cases`).
  std::int64_t time_budget_ms = 0;
  /// Schemes to cycle through (round-robin, so coverage stays even under
  /// a time budget); empty = all six.
  std::vector<core::Scheme> schemes;
  /// Enabled oracles, indexed by Oracle enum order.
  std::array<bool, kNumOracles> oracles{true, true, true, true, true, true};
  /// Force the e-graph pass on for every generated case (budget drawn from
  /// the case's deterministic hash). The generator already enables it on a
  /// random quarter of cases; forcing is for dedicated pass-hammering runs
  /// (tools/mrpf_fuzz --xform).
  bool force_xform = false;
  /// Corrupt every generated plan with this fault (kNone = fuzz honestly).
  FaultKind inject = FaultKind::kNone;
  /// Samples per stimulus for the sim oracle and the RTL oracle.
  std::size_t sim_samples = 96;
  std::size_t rtl_samples = 48;
  /// Cap on shrink-candidate evaluations per failure.
  std::size_t shrink_budget = 2000;
};

struct OracleStats {
  std::uint64_t runs = 0;
  std::uint64_t failures = 0;
  std::uint64_t ns = 0;
};

struct SchemeStats {
  std::uint64_t cases = 0;
  std::uint64_t failures = 0;
  std::uint64_t ns = 0;
};

/// One minimized failure: the original case, the shrunk reproducer, the
/// shrunk case's failing oracle and a CLI command that replays it.
struct FuzzFailure {
  std::size_t case_index = 0;
  FuzzCase original;
  FuzzCase shrunk;
  OracleFailure failure;
  std::string replay;
  std::size_t shrink_evals = 0;  ///< Candidate evaluations spent shrinking.
};

struct FuzzReport {
  std::uint64_t seed = 0;
  std::uint64_t cases_run = 0;
  std::uint64_t failures = 0;
  bool time_budget_exhausted = false;
  std::uint64_t total_ns = 0;
  std::array<OracleStats, kNumOracles> per_oracle{};
  std::array<SchemeStats, core::kNumSchemes> per_scheme{};
  std::vector<FuzzFailure> failure_detail;

  /// Machine-readable run report (per-scheme / per-oracle counts and
  /// timing, failure reproducers with replay commands).
  std::string to_json() const;
};

/// Deterministically generates case `index` of run `seed`: the same
/// (seed, index, schemes) always yields the same case, on every platform,
/// so any case from a run report can be regenerated without replaying the
/// whole run. `schemes` empty = all six (round-robin by index).
FuzzCase generate_case(std::uint64_t seed, std::size_t index,
                       const std::vector<core::Scheme>& schemes);

/// Runs one case through the enabled oracles (config.sim_samples /
/// rtl_samples control stimulus length). Any mrpf::Error thrown by the
/// pipeline while an oracle is active counts as that oracle's failure —
/// the harness never crashes on a detected inconsistency.
CaseResult run_case(const FuzzCase& c, const FuzzConfig& config);

/// Greedily shrinks a failing case — drop coefficients, halve magnitudes,
/// clear low bits, zero coefficients, drop alignment — accepting any
/// candidate that still fails some enabled oracle, until no candidate
/// shrinks further or the budget is exhausted. Returns the minimal
/// reproducer; `evals_out` (when non-null) receives the number of
/// candidate evaluations spent.
FuzzCase shrink_case(const FuzzCase& failing, const FuzzConfig& config,
                     std::size_t* evals_out = nullptr);

/// The tools/mrpf_fuzz command line that replays `c` standalone.
std::string replay_command(const FuzzCase& c);

/// The full harness: generate, verify, shrink failures, report.
FuzzReport run_fuzz(const FuzzConfig& config);

}  // namespace mrpf::verify
