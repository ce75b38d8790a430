#pragma once

/// \file check.h
/// \brief Always-on and debug-only invariant checks with formatted fatal
/// messages.
///
/// HGMINE_CHECK(cond) aborts with file:line, the failed condition, and any
/// streamed context when \p cond is false.  Unlike <cassert> the message is
/// formatted (operator<< accepts anything ostream does) and the check stays
/// active in release builds, so it guards cheap, load-bearing invariants
/// (parser sanity, engine preconditions).
///
/// HGMINE_DCHECK(cond) compiles to nothing in optimized builds but becomes
/// a full HGMINE_CHECK in Debug builds and under -DHGMINE_AUDIT=ON, where
/// the whole paper-contract audit layer is live (see core/audit.h).  The
/// condition is never evaluated when disabled but must always compile, so
/// bit-rot in checks is a build error, not a latent surprise.
///
/// \code
///   HGMINE_CHECK(edge.size() == num_vertices_)
///       << "edge universe " << edge.size() << " vs " << num_vertices_;
///   HGMINE_DCHECK_LE(begin, end);
/// \endcode

#include <atomic>
#include <cstdlib>
#include <iostream>
#include <sstream>

namespace hgm {
namespace internal {

/// Observer invoked with the formatted message just before a failed
/// HGMINE_CHECK aborts.  The observability layer installs the flight
/// recorder's dump here (obs/flight_recorder.h: InstallCrashHandlers),
/// so a crashing run leaves its last structural events on disk.  The
/// hook must be async-termination-safe: no throwing, no relying on the
/// process surviving.  check.h stays dependency-free — the hook is a
/// plain function pointer slot, not an obs include.
using CheckFailureHook = void (*)(const char* message);

inline std::atomic<CheckFailureHook>& CheckFailureHookSlot() {
  static std::atomic<CheckFailureHook> hook{nullptr};
  return hook;
}

/// Installs \p hook (nullptr restores "abort silently, message only").
inline void SetCheckFailureHook(CheckFailureHook hook) {
  CheckFailureHookSlot().store(hook, std::memory_order_relaxed);
}

/// Accumulates the failure message and aborts when destroyed (at the end
/// of the full check expression, after all streamed context is appended).
class CheckFailure {
 public:
  /// The message names \p file by its basename, so it (and a crash
  /// dump's flight label, the message cut to 47 bytes) reads the same
  /// from any checkout path.
  CheckFailure(const char* file, int line, const char* condition) {
    const char* base = file;
    for (const char* c = file; *c != '\0'; ++c) {
      if (*c == '/' || *c == '\\') base = c + 1;
    }
    os_ << base << ":" << line << ": HGMINE_CHECK failed: " << condition;
  }

  CheckFailure(const CheckFailure&) = delete;
  CheckFailure& operator=(const CheckFailure&) = delete;

  [[noreturn]] ~CheckFailure() {
    const std::string message = os_.str();
    std::cerr << message << std::endl;
    if (CheckFailureHook hook =
            CheckFailureHookSlot().load(std::memory_order_relaxed)) {
      hook(message.c_str());
    }
    std::abort();
  }

  /// The stream further context is appended to.
  std::ostream& stream() { return os_; }

 private:
  std::ostringstream os_;
};

/// Lower-precedence-than-<< void conversion, so a check expands to a single
/// expression usable inside `if` without braces (the glog voidify idiom).
struct Voidify {
  void operator&(std::ostream&) {}
};

}  // namespace internal
}  // namespace hgm

#define HGMINE_CHECK(condition)               \
  (condition) ? (void)0                       \
              : ::hgm::internal::Voidify() &  \
                    ::hgm::internal::CheckFailure(__FILE__, __LINE__, \
                                                  #condition)         \
                        .stream()

#define HGMINE_CHECK_OP(op, a, b)                                         \
  ((a)op(b)) ? (void)0                                                    \
             : ::hgm::internal::Voidify() &                               \
                   ::hgm::internal::CheckFailure(__FILE__, __LINE__,      \
                                                 #a " " #op " " #b)       \
                           .stream()                                      \
                       << " (" << (a) << " vs " << (b) << ")"

#define HGMINE_CHECK_EQ(a, b) HGMINE_CHECK_OP(==, a, b)
#define HGMINE_CHECK_NE(a, b) HGMINE_CHECK_OP(!=, a, b)
#define HGMINE_CHECK_LE(a, b) HGMINE_CHECK_OP(<=, a, b)
#define HGMINE_CHECK_LT(a, b) HGMINE_CHECK_OP(<, a, b)
#define HGMINE_CHECK_GE(a, b) HGMINE_CHECK_OP(>=, a, b)
#define HGMINE_CHECK_GT(a, b) HGMINE_CHECK_OP(>, a, b)

// Debug checks are live in Debug builds and audit builds.  When disabled
// the `while (false)` prefix keeps the condition compiled (odr-used, so it
// cannot rot) without ever evaluating it.
#if defined(HGMINE_AUDIT) || !defined(NDEBUG)
#define HGMINE_DCHECK(condition) HGMINE_CHECK(condition)
#define HGMINE_DCHECK_EQ(a, b) HGMINE_CHECK_EQ(a, b)
#define HGMINE_DCHECK_NE(a, b) HGMINE_CHECK_NE(a, b)
#define HGMINE_DCHECK_LE(a, b) HGMINE_CHECK_LE(a, b)
#define HGMINE_DCHECK_LT(a, b) HGMINE_CHECK_LT(a, b)
#define HGMINE_DCHECK_GE(a, b) HGMINE_CHECK_GE(a, b)
#define HGMINE_DCHECK_GT(a, b) HGMINE_CHECK_GT(a, b)
#else
#define HGMINE_DCHECK(condition) \
  while (false) HGMINE_CHECK(condition)
#define HGMINE_DCHECK_EQ(a, b) \
  while (false) HGMINE_CHECK_EQ(a, b)
#define HGMINE_DCHECK_NE(a, b) \
  while (false) HGMINE_CHECK_NE(a, b)
#define HGMINE_DCHECK_LE(a, b) \
  while (false) HGMINE_CHECK_LE(a, b)
#define HGMINE_DCHECK_LT(a, b) \
  while (false) HGMINE_CHECK_LT(a, b)
#define HGMINE_DCHECK_GE(a, b) \
  while (false) HGMINE_CHECK_GE(a, b)
#define HGMINE_DCHECK_GT(a, b) \
  while (false) HGMINE_CHECK_GT(a, b)
#endif
