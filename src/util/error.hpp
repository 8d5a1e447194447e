// Error type and error-code taxonomy shared across AED modules.
#pragma once

#include <stdexcept>
#include <string>

namespace aed {

/// Structured failure classification. Replaces matching on substrings of the
/// old bare `error` string: every failure the engine can report carries one
/// of these codes, and per-subproblem outcome reports reuse them so callers
/// can react programmatically (retry, relax, surface to the operator).
enum class ErrorCode {
  kNone = 0,
  /// The hard constraints are unsatisfiable: the policies conflict.
  kUnsat,
  /// A wall-clock budget expired before the solver finished.
  kTimeout,
  /// The solver answered "unknown" (incompleteness, not a timeout).
  kSolverUnknown,
  /// A candidate patch kept failing simulator validation after the maximum
  /// number of repair rounds.
  kValidationFailed,
  /// Malformed configurations, invalid objective expressions, bad options.
  kInvalidInput,
  /// A config-tree attribute or expression token that must be numeric is
  /// missing or not a valid integer (e.g. `seq`, `lp`, `med`, `cost`).
  kParseError,
  /// A subproblem threw; the rest of the batch still completed.
  kSubproblemFailed,
  /// Applying a patch to a configuration tree failed (unresolvable target
  /// path, injected commit fault); the transactional apply rolled the tree
  /// back to its pre-apply state before reporting this.
  kApplyFailed,
  /// A staged deployment aborted mid-rollout; the network was left at the
  /// last committed, validated stage (see src/apply/deploy.hpp).
  kDeployAborted,
  /// Internal invariant violation (a bug, or model/simulator divergence).
  kInternal,
};

/// Stable lowercase identifier for logs and reports, e.g. "timeout".
inline const char* errorCodeName(ErrorCode code) {
  switch (code) {
    case ErrorCode::kNone: return "ok";
    case ErrorCode::kUnsat: return "unsat";
    case ErrorCode::kTimeout: return "timeout";
    case ErrorCode::kSolverUnknown: return "solver-unknown";
    case ErrorCode::kValidationFailed: return "validation-failed";
    case ErrorCode::kInvalidInput: return "invalid-input";
    case ErrorCode::kParseError: return "parse-error";
    case ErrorCode::kSubproblemFailed: return "subproblem-failed";
    case ErrorCode::kApplyFailed: return "apply-failed";
    case ErrorCode::kDeployAborted: return "deploy-aborted";
    case ErrorCode::kInternal: return "internal";
  }
  return "internal";
}

/// Thrown for unrecoverable errors: malformed configurations, invalid
/// objective expressions, internal invariant violations. Callers that can
/// recover (e.g. the CLI examples, the fault-isolated parallel engine) catch
/// this at the top level; `code()` preserves the classification across the
/// throw.
class AedError : public std::runtime_error {
 public:
  explicit AedError(const std::string& what)
      : std::runtime_error(what), code_(ErrorCode::kInternal) {}
  AedError(ErrorCode code, const std::string& what)
      : std::runtime_error(what), code_(code) {}

  ErrorCode code() const { return code_; }

 private:
  ErrorCode code_;
};

/// Throws AedError with the given message if `cond` is false.
inline void require(bool cond, const std::string& message) {
  if (!cond) throw AedError(message);
}

/// Same, with an explicit error code.
inline void require(bool cond, ErrorCode code, const std::string& message) {
  if (!cond) throw AedError(code, message);
}

}  // namespace aed
