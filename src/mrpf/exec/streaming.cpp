#include "mrpf/exec/streaming.hpp"

#include <utility>

#include "mrpf/common/env.hpp"
#include "mrpf/exec/compile.hpp"

namespace mrpf::exec {

const char* to_string(ExecMode mode) {
  switch (mode) {
    case ExecMode::kOff:
      return "off";
    case ExecMode::kInterp:
      return "interp";
    case ExecMode::kVector:
      return "vector";
  }
  return "?";
}

ExecConfig exec_config_from_env() {
  const env::ParsedExecMode knob = env::read_exec_mode();
  ExecConfig config;
  config.mode = static_cast<ExecMode>(knob.mode);
  config.lanes = knob.lanes;
  return config;
}

StreamingFilter::StreamingFilter(arch::TdfFilter filter, ExecConfig config)
    : filter_(std::move(filter)), config_(config) {
  filter_.reset();
  if (config_.mode == ExecMode::kOff) {
    mode_ = ExecMode::kOff;
    return;
  }
  program_ = compile(filter_);
  if (config_.mode == ExecMode::kVector &&
      config_.input_bits <= program_.max_input_bits) {
    mode_ = ExecMode::kVector;
    engine_ = std::make_unique<ExecEngine>(program_, config_.lanes);
  } else {
    mode_ = ExecMode::kInterp;
  }
}

void StreamingFilter::reset() {
  filter_.reset();
  if (engine_) engine_->reset();
}

std::vector<i64> StreamingFilter::push(const std::vector<i64>& x) {
  if (mode_ != ExecMode::kVector) return filter_.push(x);
  std::vector<i64> y(x.size());
  engine_->run(x.data(), y.data(), x.size());
  return y;
}

core::StageTimers StreamingFilter::timers() const {
  core::StageTimers out = program_.timers;
  if (engine_) core::accumulate(out, engine_->timers());
  return out;
}

}  // namespace mrpf::exec
