#pragma once

#include <cstddef>
#include <string>

namespace mrpf::env {

/// Result of parsing an environment knob with the shared strict grammar.
struct ParsedInt {
  bool well_formed = false;  ///< Value matched the grammar.
  long long value = 0;       ///< Parsed (and clamped) value when well-formed.
};

/// Shared grammar for MRPF_* integer knobs: one or more decimal digits,
/// value >= 1. No sign, no whitespace, no suffix. Values above `clamp_max`
/// clamp to `clamp_max`. A null/empty/garbage string is not well-formed.
ParsedInt parse_positive_int(const char* value, long long clamp_max);

/// Case-insensitive comparison against an all-lowercase literal — used for
/// the "off" spelling of disable knobs.
bool equals_ignore_case(const char* value, const char* lower);

/// Result of parsing the MRPF_EXEC execution-mode knob. `mode` is kept as
/// a plain int so common/ stays free of exec/ types; exec::ExecMode mirrors
/// the numbering.
struct ParsedExecMode {
  bool well_formed = false;  ///< Value matched the grammar below.
  int mode = 2;              ///< 0 = off, 1 = interp, 2 = vector.
  int lanes = 0;             ///< 0 = engine default; "vector:N" sets N.
};

/// Strict grammar for MRPF_EXEC: exactly "off", "interp", "vector", or
/// "vector:N" (words case-insensitive). N follows the parse_positive_int
/// grammar — one or more decimal digits, value >= 1 — and clamps to 64
/// lanes. Anything else ("fast", "vector:", "vector:0", "vector:8x",
/// trailing whitespace) is not well-formed; callers warn_once and fall
/// back to the default so a typo can never silently change the engine.
ParsedExecMode parse_exec_mode(const char* value);

/// Result of parsing the MRPF_CACHE knob with the shared grammar:
/// "0"/"off" (case-insensitive) disable, a positive decimal integer is a
/// capacity in MiB (clamped to [1, 65536]), null/empty means "defaults".
/// Anything else is not well-formed (callers warn_once and keep defaults).
struct ParsedCacheKnob {
  bool well_formed = true;     ///< False only for a malformed value.
  bool disabled = false;       ///< "0" or "off".
  std::size_t max_bytes = 0;   ///< Capacity override in bytes; 0 = default.
};

ParsedCacheKnob parse_cache_knob(const char* value);

/// One read-parse-warn function per MRPF_* knob. Each reads its variable
/// with one getenv on every call and applies the knob's grammar above. A
/// malformed value warns once per process (one message per knob, keyed by
/// the variable's name) and reads as unset. snapshot_knobs and every lazy
/// per-call reader (default_thread_count, SolveCacheSession,
/// exec_config_from_env, the scheme drivers' budget resolution) go through
/// these, so no two paths can parse or warn differently.

/// MRPF_THREADS, clamped to 512; 0 when unset or malformed.
int read_threads();
/// MRPF_CACHE; the defaults (enabled, no capacity override) when unset,
/// empty or malformed.
ParsedCacheKnob read_cache();
/// MRPF_EXEC; the defaults (vector, engine-default lanes) when unset or
/// malformed.
ParsedExecMode read_exec_mode();
/// MRPF_OPT_BUDGET, clamped to 10^12 steps; 0 when unset or malformed.
long long read_opt_budget();
/// MRPF_XFORM_BUDGET, clamped to 10^12 steps; 0 when unset or malformed.
long long read_xform_budget();

/// One-shot snapshot of every MRPF_* runtime knob, taken with a single
/// getenv pass per key. Long-running processes (the mrpf_serve daemon)
/// snapshot once at startup and pass the struct down explicitly — the
/// one-shot CLIs' pattern of re-reading the environment per solve is a
/// latent bug in a server, where mid-run setenv from another thread is
/// undefined behavior and per-request getenv races the warn-once state.
struct KnobSnapshot {
  /// MRPF_THREADS when set and well-formed; 0 = unset/malformed (resolve
  /// to the hardware default at the use site).
  int threads = 0;
  /// MRPF_CACHE: disabled / capacity override (0 = keep default).
  bool cache_disabled = false;
  std::size_t cache_max_bytes = 0;
  /// MRPF_EXEC: same numbering as ParsedExecMode (2 = vector default).
  int exec_mode = 2;
  int exec_lanes = 0;
  /// MRPF_OPT_BUDGET when set and well-formed (strict digits-only grammar,
  /// clamped to 10^12 steps); 0 = unset/malformed (resolve to
  /// core::kDefaultOptBudget at the use site).
  long long opt_budget = 0;
  /// MRPF_XFORM_BUDGET, same grammar and clamp as opt_budget; 0 =
  /// unset/malformed (resolve to core::kDefaultXformBudget at the use
  /// site). Only a budget: the knob never turns the e-graph pass on.
  long long xform_budget = 0;
};

/// Reads MRPF_THREADS, MRPF_CACHE, MRPF_EXEC, MRPF_OPT_BUDGET and
/// MRPF_XFORM_BUDGET once each through the read_* functions above, so a
/// malformed value leaves its field at the default and a process never
/// warns twice for one knob. Thread-safe: concurrent first calls are
/// race-free.
KnobSnapshot snapshot_knobs();

/// Emits `message` on stderr at most once per process per `key`.
/// Subsequent calls for the same key are silent, so a knob misspelled in the
/// environment warns once rather than once per solve.
void warn_once(const char* key, const std::string& message);

/// True once warn_once() has fired for `key` — lets tests assert the
/// one-time-warning semantics without capturing stderr.
bool warning_fired(const char* key);

}  // namespace mrpf::env
