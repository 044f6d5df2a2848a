// Deterministic failpoint injection for fault testing.
//
// A failpoint is a named hook compiled into a hot seam of the serving
// stack (pool task bodies, delta application, snippet execution, HTTP
// request handling). Tests and benches *arm* a failpoint by name to make
// that seam throw, return an error Status, or stall — which is how
// fault_injection_test proves that engine, freshness and HTTP faults
// degrade to per-request errors, without ever depending on real
// hardware faults.
//
// Cost when unarmed: a single relaxed atomic load and a predictable
// branch (the global armed count is zero, so the slow path — registry
// lock, name lookup — is never entered). That is the "no-op branch"
// every production build carries; configuring with -DSODA_FAILPOINTS=OFF
// compiles even the branch out and turns every macro into `(void)0`.
//
// Determinism: an armed failpoint with probability < 1 draws from its
// own seeded mt19937_64, so a given (seed, hit sequence) fires on the
// same hits in every run. `match` restricts firing to hits whose
// detail string equals it — e.g. arm "freshness.apply_delta" with match
// "individuals" to fail only the deltas of appends to that table.
//
// Usage at a seam:
//
//   SODA_FAILPOINT("engine.pool_task");                  // void seam
//   SODA_RETURN_NOT_OK(SODA_FAILPOINT_STATUS(            // Status seam,
//       "freshness.apply_delta", event.table));          // with detail
//
// and in a test:
//
//   Failpoints::Instance().Arm("freshness.apply_delta",
//                              {.action = FailpointSpec::Action::kError,
//                               .match = "individuals"});
//   ... append to individuals: the delta fails, the cache is cleared ...
//   Failpoints::Instance().DisarmAll();
//
// The registry is process-global and thread-safe; DisarmAll() in test
// teardown keeps cases independent.

#ifndef SODA_COMMON_FAILPOINT_H_
#define SODA_COMMON_FAILPOINT_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <mutex>
#include <random>
#include <stdexcept>
#include <string>
#include <string_view>

#include "common/status.h"

namespace soda {

/// What an armed failpoint throws for Action::kThrow (and for
/// Action::kError at seams that cannot return a Status).
class FailpointError : public std::runtime_error {
 public:
  explicit FailpointError(const std::string& what)
      : std::runtime_error(what) {}
};

/// How an armed failpoint misbehaves.
struct FailpointSpec {
  enum class Action {
    kThrow,  // throw FailpointError
    kError,  // return Status::Unavailable (throws at void seams)
    kSleep,  // sleep sleep_ms, then continue normally (stall injection)
  };

  Action action = Action::kThrow;
  /// Stall duration for Action::kSleep.
  double sleep_ms = 0.0;
  /// Fire only on hits whose detail string equals this; "" fires on any
  /// hit. The delta seam passes the appended table as detail, so match =
  /// "individuals" fails exactly that table's deltas.
  std::string match;
  /// Probability of firing on a matching hit, drawn from a generator
  /// seeded with `seed` — deterministic across runs.
  double probability = 1.0;
  uint64_t seed = 0x50daf1a6;
  /// Auto-disarm after this many fires; 0 = until Disarm().
  uint64_t max_fires = 0;
};

/// Process-global registry of armed failpoints. All methods are
/// thread-safe.
class Failpoints {
 public:
  static Failpoints& Instance();

  /// Arms (or re-arms, resetting counters and the RNG) `name`.
  void Arm(std::string_view name, FailpointSpec spec);

  /// Disarms `name`; a no-op when it was not armed.
  void Disarm(std::string_view name);

  /// Disarms everything — call from test teardown.
  void DisarmAll();

  /// Hits evaluated against `name` while armed (match misses included).
  uint64_t evaluations(std::string_view name) const;

  /// Times `name` actually fired (threw / errored / slept).
  uint64_t fires(std::string_view name) const;

  /// False when the build compiled failpoints out (-DSODA_FAILPOINTS=OFF):
  /// Arm() then has no observable effect, and fault tests should skip.
  static constexpr bool compiled_in() {
#if defined(SODA_FAILPOINTS)
    return true;
#else
    return false;
#endif
  }

  /// Slow path behind the macros — evaluates a hit on `name` with
  /// `detail`. Returns non-OK (Action::kError at a Status seam), throws
  /// FailpointError (kThrow, or kError at a void seam), sleeps (kSleep),
  /// or returns OK. Not for direct use; go through the macros so unarmed
  /// cost stays one atomic load.
  Status Evaluate(std::string_view name, std::string_view detail,
                  bool status_seam);

 private:
  Failpoints() = default;

  struct Armed {
    FailpointSpec spec;
    std::mt19937_64 rng;
    uint64_t evaluations = 0;
    uint64_t fires = 0;
  };

  mutable std::mutex mu_;
  std::map<std::string, Armed, std::less<>> points_;
  // Lifetime totals survive disarming, so tests can assert "this
  // failpoint fired N times" after DisarmAll().
  std::map<std::string, uint64_t, std::less<>> total_evaluations_;
  std::map<std::string, uint64_t, std::less<>> total_fires_;
};

namespace failpoint_internal {
/// Number of currently armed failpoints — the whole unarmed fast path.
extern std::atomic<int> armed_count;
}  // namespace failpoint_internal

/// True when at least one failpoint is armed anywhere in the process.
inline bool FailpointsArmed() {
  return failpoint_internal::armed_count.load(std::memory_order_relaxed) > 0;
}

#if defined(SODA_FAILPOINTS)

/// Void seam: throws FailpointError or sleeps when armed.
#define SODA_FAILPOINT(name)                                             \
  do {                                                                   \
    if (::soda::FailpointsArmed()) {                                     \
      (void)::soda::Failpoints::Instance().Evaluate((name), {},          \
                                                    /*status_seam=*/false); \
    }                                                                    \
  } while (false)

/// Void seam with a detail string (matched against FailpointSpec::match).
#define SODA_FAILPOINT_D(name, detail)                                   \
  do {                                                                   \
    if (::soda::FailpointsArmed()) {                                     \
      (void)::soda::Failpoints::Instance().Evaluate((name), (detail),    \
                                                    /*status_seam=*/false); \
    }                                                                    \
  } while (false)

/// Status seam: evaluates to a Status — OK when unarmed/not firing,
/// Unavailable for Action::kError. kThrow still throws, kSleep sleeps.
#define SODA_FAILPOINT_STATUS(name, detail)                           \
  (::soda::FailpointsArmed()                                          \
       ? ::soda::Failpoints::Instance().Evaluate((name), (detail),    \
                                                 /*status_seam=*/true) \
       : ::soda::Status::OK())

#else  // !SODA_FAILPOINTS

#define SODA_FAILPOINT(name) ((void)0)
#define SODA_FAILPOINT_D(name, detail) ((void)0)
#define SODA_FAILPOINT_STATUS(name, detail) ::soda::Status::OK()

#endif  // SODA_FAILPOINTS

}  // namespace soda

#endif  // SODA_COMMON_FAILPOINT_H_
