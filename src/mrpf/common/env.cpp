#include "mrpf/common/env.hpp"

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <set>

namespace mrpf::env {

namespace {

std::mutex& warn_mutex() {
  static std::mutex mu;
  return mu;
}

std::set<std::string>& warned_keys() {
  static std::set<std::string> keys;
  return keys;
}

/// The integer knobs: the parsed value clamped to `clamp_max`, or 0 when
/// the variable is unset or malformed (a malformed value warns once and
/// names what the caller falls back to).
long long read_positive_int(const char* key, long long clamp_max,
                            const char* fallback) {
  const char* v = std::getenv(key);
  if (v == nullptr) return 0;
  const ParsedInt p = parse_positive_int(v, clamp_max);
  if (p.well_formed) return p.value;
  warn_once(key, "mrpf: ignoring malformed " + std::string(key) + "=\"" + v +
                     "\" — expected a decimal integer >= 1; using the " +
                     fallback);
  return 0;
}

}  // namespace

ParsedInt parse_positive_int(const char* value, long long clamp_max) {
  ParsedInt out;
  if (value == nullptr || value[0] == '\0') return out;
  long long parsed = 0;
  for (const char* p = value; *p != '\0'; ++p) {
    if (*p < '0' || *p > '9') return out;
    // Cap accumulation well above every knob's clamp so absurdly long digit
    // strings can't overflow `long long` before the clamp applies.
    if (parsed <= clamp_max) parsed = parsed * 10 + (*p - '0');
  }
  if (parsed < 1) return out;
  out.well_formed = true;
  out.value = parsed > clamp_max ? clamp_max : parsed;
  return out;
}

ParsedExecMode parse_exec_mode(const char* value) {
  ParsedExecMode out;
  if (value == nullptr || value[0] == '\0') return out;
  if (equals_ignore_case(value, "off")) {
    out.well_formed = true;
    out.mode = 0;
    return out;
  }
  if (equals_ignore_case(value, "interp")) {
    out.well_formed = true;
    out.mode = 1;
    return out;
  }
  if (equals_ignore_case(value, "vector")) {
    out.well_formed = true;
    out.mode = 2;
    return out;
  }
  // "vector:N" — split at the first colon, then reuse the strict integer
  // grammar for the lane count (clamped to 64 lanes).
  const char* colon = std::strchr(value, ':');
  if (colon == nullptr) return out;
  const std::string word(value, static_cast<std::size_t>(colon - value));
  if (!equals_ignore_case(word.c_str(), "vector")) return out;
  const ParsedInt lanes = parse_positive_int(colon + 1, 64);
  if (!lanes.well_formed) return out;
  out.well_formed = true;
  out.mode = 2;
  out.lanes = static_cast<int>(lanes.value);
  return out;
}

bool equals_ignore_case(const char* value, const char* lower) {
  if (value == nullptr) return false;
  std::size_t i = 0;
  for (; value[i] != '\0' && lower[i] != '\0'; ++i) {
    if (std::tolower(static_cast<unsigned char>(value[i])) != lower[i]) {
      return false;
    }
  }
  return value[i] == '\0' && lower[i] == '\0';
}

ParsedCacheKnob parse_cache_knob(const char* value) {
  ParsedCacheKnob out;
  if (value == nullptr || value[0] == '\0') return out;
  if (std::string(value) == "0" || equals_ignore_case(value, "off")) {
    out.disabled = true;
    return out;
  }
  // Capacity clamps to [1 MiB, 64 GiB] — absurd values are almost
  // certainly typos but a clamp keeps the knob forgiving.
  const ParsedInt mib = parse_positive_int(value, 65536);
  if (!mib.well_formed) {
    out.well_formed = false;
    return out;
  }
  out.max_bytes = static_cast<std::size_t>(mib.value) << 20;
  return out;
}

int read_threads() {
  return static_cast<int>(
      read_positive_int("MRPF_THREADS", 512, "hardware default"));
}

ParsedCacheKnob read_cache() {
  const char* v = std::getenv("MRPF_CACHE");
  const ParsedCacheKnob c = parse_cache_knob(v);
  if (c.well_formed) return c;
  warn_once("MRPF_CACHE", "mrpf: ignoring malformed MRPF_CACHE value \"" +
                              std::string(v) +
                              "\" (expected \"off\", \"0\", or a capacity "
                              "in MiB)");
  return {};
}

ParsedExecMode read_exec_mode() {
  const char* v = std::getenv("MRPF_EXEC");
  if (v == nullptr) return {};
  const ParsedExecMode m = parse_exec_mode(v);
  if (m.well_formed) return m;
  warn_once("MRPF_EXEC", "mrpf: ignoring malformed MRPF_EXEC value \"" +
                             std::string(v) +
                             "\" (expected off|interp|vector|vector:<lanes>)");
  return {};
}

// The budget clamps mirror core::kMaxOptBudget and core::kMaxXformBudget
// (common/ stays free of core types).
long long read_opt_budget() {
  return read_positive_int("MRPF_OPT_BUDGET", 1'000'000'000'000,
                           "built-in search budget");
}

long long read_xform_budget() {
  return read_positive_int("MRPF_XFORM_BUDGET", 1'000'000'000'000,
                           "built-in saturation budget");
}

KnobSnapshot snapshot_knobs() {
  KnobSnapshot s;
  s.threads = read_threads();
  const ParsedCacheKnob cache = read_cache();
  s.cache_disabled = cache.disabled;
  s.cache_max_bytes = cache.max_bytes;
  const ParsedExecMode exec = read_exec_mode();
  s.exec_mode = exec.mode;
  s.exec_lanes = exec.lanes;
  s.opt_budget = read_opt_budget();
  s.xform_budget = read_xform_budget();
  return s;
}

void warn_once(const char* key, const std::string& message) {
  {
    std::lock_guard<std::mutex> lk(warn_mutex());
    if (!warned_keys().insert(key).second) return;
  }
  std::fprintf(stderr, "%s\n", message.c_str());
}

bool warning_fired(const char* key) {
  std::lock_guard<std::mutex> lk(warn_mutex());
  return warned_keys().count(key) != 0;
}

}  // namespace mrpf::env
