// Environment-variable overrides for configuration defaults.
//
// CI runs the whole test suite under alternate configurations (prefetch
// windows, update mode, fault injection) by overriding config *defaults*
// through the environment; code that assigns a field explicitly keeps its
// value.  An empty variable counts as unset.  Malformed values fail loudly:
// a CI matrix leg whose knob silently parsed as 0 (or as a digit prefix of a
// typo) would green-light a configuration that never ran.  So do unknown
// TMK_* names, for the same reason: a deleted or mistyped knob would be
// silently ignored.
#pragma once

#include <unistd.h>

#include <cerrno>
#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <string_view>

#include "common/check.h"

namespace now::env {

// Every TMK_* knob the runtime reads (tmk::DsmConfig and
// sim::FaultConfig::from_env).  env_size refuses a TMK_* name missing from
// this list, so the list cannot drift from the readers.
inline constexpr std::string_view kKnobs[] = {
    "TMK_GC_AT_BARRIERS",  "TMK_LOCK_PUSH_BYTES",    "TMK_UPDATE_MODE",
    "TMK_PREFETCH_PAGES",  "TMK_DIFF_CACHE_BYTES",   "TMK_META_CEILING_BYTES",
    "TMK_BARRIER_ARITY",   "TMK_NET_DROP_PPM",       "TMK_NET_DUP_PPM",
    "TMK_NET_REORDER_PPM", "TMK_NET_JITTER_NS",      "TMK_NET_FAULT_SEED",
    "TMK_NET_MAX_RETRIES", "TMK_NET_CRASH_NODE",     "TMK_NET_CRASH_AT",
    "TMK_CKPT_EVERY",
};

inline constexpr std::string_view kKnobPrefix = "TMK_";

inline bool is_knob(std::string_view name) {
  for (std::string_view k : kKnobs)
    if (k == name) return true;
  return false;
}

inline std::size_t env_size(const char* name, std::size_t def) {
  const std::string_view n(name);
  NOW_CHECK(n.substr(0, kKnobPrefix.size()) != kKnobPrefix || is_knob(n))
      << name << " is read but missing from env::kKnobs";
  const char* v = std::getenv(name);
  if (v == nullptr || *v == '\0') return def;
  for (const char* p = v; *p != '\0'; ++p)
    NOW_CHECK(*p >= '0' && *p <= '9')
        << "malformed " << name << "='" << v
        << "': expected a non-negative decimal integer";
  errno = 0;
  const unsigned long long parsed = std::strtoull(v, nullptr, 10);
  NOW_CHECK(errno != ERANGE) << name << "='" << v << "' overflows";
  return static_cast<std::size_t>(parsed);
}

// Boolean env-default override: 0 = off, any other integer = on.
inline bool env_flag(const char* name, bool def) {
  return env_size(name, def ? 1 : 0) != 0;
}

// Fails naming the first set, non-empty TMK_* variable that is not a knob.
inline void reject_unknown_knobs() {
  for (char** e = environ; *e != nullptr; ++e) {
    const std::string_view var(*e);
    if (var.substr(0, kKnobPrefix.size()) != kKnobPrefix) continue;
    const std::size_t eq = var.find('=');
    const std::string_view name = var.substr(0, eq);
    if (eq == std::string_view::npos || eq + 1 == var.size()) continue;
    NOW_CHECK(is_knob(name))
        << "unknown environment knob " << name
        << ": no TMK_* knob of that name exists (deleted or mistyped?)";
  }
}

}  // namespace now::env
