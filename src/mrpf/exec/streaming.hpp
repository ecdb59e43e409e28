// Block-streaming filter API: push N samples, pull N outputs, bit-identical
// to arch::TdfFilter sample for sample across any chunking of the stream.
//
// StreamingFilter owns the mode decision: the compiled vector engine when
// it is provably exact for the declared input width, the checked TDF
// interpreter otherwise (or when MRPF_EXEC pins a mode). Either path keeps
// its state across push() calls, and reset() restores the
// freshly-constructed state without recompiling.
#pragma once

#include <memory>
#include <vector>

#include "mrpf/arch/tdf.hpp"
#include "mrpf/exec/engine.hpp"

namespace mrpf::exec {

/// Execution backend. Numbering mirrors env::ParsedExecMode::mode.
enum class ExecMode {
  kOff = 0,     ///< Exec module disabled: always the checked interpreter.
  kInterp = 1,  ///< Checked TDF interpreter (arch::TdfFilter::push).
  kVector = 2,  ///< Compiled lane-blocked engine (exact-width proven).
};

const char* to_string(ExecMode mode);

/// How a StreamingFilter should execute.
struct ExecConfig {
  ExecMode mode = ExecMode::kVector;  ///< Requested backend.
  int lanes = 0;                      ///< 0 = default_lane_width.
  /// Declared max signed input width in bits (|x| < 2^(input_bits-1)).
  /// The vector engine only engages when this is within the program's
  /// proven max_input_bits; otherwise push() silently takes the checked
  /// interpreter, so the answer is exact either way.
  int input_bits = 32;
};

/// Reads MRPF_EXEC ("off" | "interp" | "vector" | "vector:N") into a
/// config through env::read_exec_mode. Unset means the default (vector,
/// default lanes); a malformed value warns once and also returns the
/// default, so a typo can never silently change results or disable the
/// engine.
ExecConfig exec_config_from_env();

class StreamingFilter {
 public:
  /// Compiles `filter`'s plan once (unless mode is kOff) and picks the
  /// effective backend for the declared input width.
  explicit StreamingFilter(arch::TdfFilter filter,
                           ExecConfig config = exec_config_from_env());

  /// Restores freshly-constructed state (no recompilation).
  void reset();

  /// Streams a chunk: out[i] is the filter output for x[i], continuing
  /// from where the previous push left off. Concatenating the outputs of
  /// any push sequence equals run() on the concatenated inputs.
  std::vector<i64> push(const std::vector<i64>& x);

  /// The backend push() actually uses (a kVector request degrades to
  /// kInterp when input_bits exceeds the proven width).
  ExecMode mode() const { return mode_; }
  /// Lanes of the vector engine; 0 when not on the vector path.
  int lanes() const { return engine_ ? engine_->lanes() : 0; }
  /// Vector width the engine dispatched to (ExecEngine::vector_bits); 0
  /// when not on the vector path.
  int vector_bits() const { return engine_ ? engine_->vector_bits() : 0; }
  /// Compiled program. Valid whenever mode() != kOff at construction.
  const ExecProgram& program() const { return program_; }
  const arch::TdfFilter& filter() const { return filter_; }
  /// exec_compile + exec_run, aggregated over the filter's lifetime.
  core::StageTimers timers() const;

 private:
  arch::TdfFilter filter_;
  ExecConfig config_;
  ExecMode mode_ = ExecMode::kInterp;
  ExecProgram program_;
  std::unique_ptr<ExecEngine> engine_;
};

}  // namespace mrpf::exec
