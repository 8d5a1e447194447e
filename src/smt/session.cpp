#include "smt/session.hpp"

#include <algorithm>
#include <limits>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

/// Accumulates a z3::stats block into SolverStats by key substring — Z3's
/// stat names vary across engines and versions ("conflicts",
/// "sat conflicts", "restarts", ...), so exact-name matching
/// would silently capture nothing on half of them.
void accumulateZ3Stats(SolverStats& out, const z3::stats& zstats) {
  try {
    for (unsigned i = 0; i < zstats.size(); ++i) {
      const std::string key = zstats.key(i);
      const double value = zstats.is_uint(i)
                               ? static_cast<double>(zstats.uint_value(i))
                               : zstats.double_value(i);
      if (key.find("conflict") != std::string::npos) {
        out.conflicts += static_cast<std::uint64_t>(value);
      } else if (key.find("decision") != std::string::npos) {
        out.decisions += static_cast<std::uint64_t>(value);
      } else if (key.find("restart") != std::string::npos) {
        out.restarts += static_cast<std::uint64_t>(value);
      }
    }
  } catch (const z3::exception&) {
    // Introspection is best-effort; never let it fail a solve.
  }
}

template <typename Solver>
void captureCheck(SolverStats& out, Solver& solver) {
  ++out.checks;
  try {
    accumulateZ3Stats(out, solver.statistics());
  } catch (const z3::exception&) {
  }
}

}  // namespace

z3::expr SmtSession::boolVar(const std::string& name) {
  const auto it = vars_.find(name);
  if (it != vars_.end()) return it->second;
  z3::expr var = ctx_.bool_const(name.c_str());
  vars_.emplace(name, var);
  return var;
}

z3::expr SmtSession::intVar(const std::string& name) {
  const auto it = vars_.find(name);
  if (it != vars_.end()) return it->second;
  z3::expr var = ctx_.int_const(name.c_str());
  vars_.emplace(name, var);
  return var;
}

bool SmtSession::hasVar(const std::string& name) const {
  return vars_.count(name) != 0;
}

z3::expr SmtSession::var(const std::string& name) const {
  const auto it = vars_.find(name);
  require(it != vars_.end(), "unknown SMT variable: " + name);
  return it->second;
}

z3::expr SmtSession::freshBool(const std::string& stem) {
  return boolVar(stem + "!" + std::to_string(freshCounter_++));
}

std::size_t SmtSession::addSoft(const z3::expr& constraint, unsigned weight,
                                const std::string& label, SoftKind kind) {
  opt_.add_soft(constraint, weight);
  softExprs_.push_back(constraint);
  softInfos_.push_back(SoftInfo{label, weight, kind});
  lastOptimalCost_.reset();
  return softInfos_.size() - 1;
}

void SmtSession::randomizePhase(unsigned seed) {
  try {
    z3::params params(ctx_);
    params.set("smt.phase_selection", 5u);  // random phase
    params.set("smt.random_seed", seed);
    params.set("sat.phase", ctx_.str_symbol("random"));
    params.set("sat.random_seed", seed);
    opt_.set(params);
  } catch (const z3::exception&) {
    // Parameter names vary across Z3 versions; best effort only.
  }
}

template <typename Solver>
bool SmtSession::applyBudget(Solver& solver) {
  if (deadline_.isUnlimited()) return true;
  const std::uint64_t remaining = deadline_.remainingMillis();
  if (remaining == 0) return false;
  const unsigned ms = static_cast<unsigned>(std::min<std::uint64_t>(
      remaining, std::numeric_limits<unsigned>::max()));
  try {
    z3::params params(ctx_);
    params.set("timeout", ms);
    solver.set(params);
  } catch (const z3::exception&) {
    // If the timeout parameter is rejected, the deadline is still enforced
    // between ladder rungs; the individual query just cannot be interrupted.
  }
  return true;
}

void SmtSession::reportObjectives(Result& result) const {
  for (std::size_t i = 0; i < softExprs_.size(); ++i) {
    if (model_->eval(softExprs_[i], true).is_true()) {
      result.satisfiedObjectives.push_back(softInfos_[i].label);
    } else {
      result.violatedObjectives.push_back(softInfos_[i].label);
    }
  }
}

bool SmtSession::tryWarmCheck(Result& result) {
  constexpr unsigned long long kIntMax =
      static_cast<unsigned long long>(std::numeric_limits<int>::max());
  try {
    // cost(model) = sum of weights of violated softs. The bound
    // cost <= lastOptimalCost_ is expressed as the pseudo-boolean
    //   sum(weight_i * soft_i) >= totalWeight - lastOptimalCost_.
    unsigned long long totalWeight = 0;
    z3::expr_vector literals(ctx_);
    std::vector<int> coefficients;
    coefficients.reserve(softExprs_.size());
    for (std::size_t i = 0; i < softExprs_.size(); ++i) {
      const unsigned weight = softInfos_[i].weight;
      if (weight > kIntMax) return false;
      totalWeight += weight;
      literals.push_back(softExprs_[i]);
      coefficients.push_back(static_cast<int>(weight));
    }
    if (totalWeight > kIntMax || *lastOptimalCost_ > totalWeight) return false;
    const int bound = static_cast<int>(totalWeight - *lastOptimalCost_);

    // The bound is activated through a fresh assumption indicator so it is
    // never permanently asserted in the persistent probe solver (the next
    // round's bound may differ); stale indicators are simply left unasserted.
    const z3::expr indicator = freshBool("warm");
    probe_.add(z3::implies(indicator, z3::pbge(literals, coefficients.data(),
                                               bound)));
    z3::expr_vector assumptions(ctx_);
    assumptions.push_back(indicator);
    if (!applyBudget(probe_)) return false;
    const z3::check_result probeStatus = probe_.check(assumptions);
    captureCheck(result.stats, probe_);
    if (probeStatus != z3::sat) {
      return false;  // optimum grew (or unknown)
    }

    // The model's cost is <= the previous optimum, and adding constraints
    // cannot lower the optimum below it, so this model IS a MaxSMT optimum.
    model_ = probe_.get_model();
    result.rung = SolveRung::kWarmStart;
    result.rungReason = "plain-SAT probe found a model at the previous "
                        "optimal cost " +
                        std::to_string(*lastOptimalCost_) +
                        " (provably still optimal)";
    reportObjectives(result);
    return true;
  } catch (const z3::exception&) {
    return false;  // pbge unsupported or probe failure: run the full engine
  }
}

SmtSession::Result SmtSession::check() {
  Span span("smt.check");
  Result result;
  // Encoding sizes describe what this check is being asked to solve; effort
  // counters accumulate as the rungs below actually run the solver.
  result.stats.vars = vars_.size();
  try {
    result.stats.assertions = opt_.assertions().size() + softExprs_.size();
  } catch (const z3::exception&) {
  }

  // ---- rung 0: incremental warm start -------------------------------------
  // On a re-check after addHard() calls (the repair-round path), first ask a
  // plain SAT query for a model at the previous optimal cost; see the file
  // header for why such a model is already optimal. Skipped under fault
  // injection so forced-degradation tests still exercise the ladder.
  if (lastOptimalCost_.has_value() && injectUnknown_ == 0 &&
      !softExprs_.empty() && tryWarmCheck(result)) {
    return result;
  }

  // ---- rung 1: full MaxSMT ------------------------------------------------
  z3::check_result status = z3::unknown;
  const bool budgetLeft = applyBudget(opt_);
  if (injectUnknown_ > 0) {
    --injectUnknown_;
    logWarn() << "fault injection: forcing an unknown MaxSMT verdict";
  } else if (budgetLeft) {
    status = opt_.check();
    captureCheck(result.stats, opt_);
  }

  // Z3 4.8.x's default MaxSAT engine (maxres) can report bogus UNSAT on
  // hard constraints that mix booleans with integer arithmetic (observed on
  // this code base's routing encodings; a plain solver accepts the same
  // assertions). Defend against it: cross-check any UNSAT with a plain
  // solver over the hard assertions; on divergence retry with the wmax
  // engine, and as a last resort accept the plain solver's model (hard
  // constraints satisfied, soft constraints unoptimized).
  if (status == z3::unsat) {
    // The persistent probe solver mirrors exactly the hard assertions (its
    // indicator-guarded cost bounds are inert without assumptions), so the
    // cross-check needs no rebuild.
    applyBudget(probe_);
    const z3::check_result crossCheck = probe_.check();
    captureCheck(result.stats, probe_);
    if (crossCheck == z3::sat) {
      logWarn() << "optimize reported unsat but the hard constraints are "
                   "satisfiable; retrying with the wmax engine";
      try {
        z3::params params(ctx_);
        params.set("maxsat_engine", ctx_.str_symbol("wmax"));
        opt_.set(params);
        applyBudget(opt_);
        status = opt_.check();
        captureCheck(result.stats, opt_);
      } catch (const z3::exception&) {
        status = z3::unknown;
      }
      if (status != z3::sat) {
        logWarn() << "wmax retry failed too; using the unoptimized model";
        model_ = probe_.get_model();
        result.rung = SolveRung::kHardOnly;
        result.rungReason =
            "MaxSMT engine reported a bogus unsat (hard constraints are "
            "satisfiable) and the wmax retry failed; kept the plain-SAT "
            "model, soft objectives unoptimized";
        reportObjectives(result);
        return result;
      }
    }
  }

  if (status == z3::sat) {
    result.rung = SolveRung::kFull;
    result.rungReason = "full MaxSMT optimum over user + minimality softs";
    model_ = opt_.get_model();
    // Remember the optimum for the next incremental re-check's warm start.
    unsigned long long cost = 0;
    for (std::size_t i = 0; i < softExprs_.size(); ++i) {
      if (!model_->eval(softExprs_[i], true).is_true()) {
        cost += softInfos_[i].weight;
      }
    }
    lastOptimalCost_ = cost;
    reportObjectives(result);
    return result;
  }
  if (status == z3::unsat) {
    result.rung = SolveRung::kUnsat;
    result.rungReason = "hard constraints unsatisfiable (cross-checked "
                        "against the plain-SAT mirror)";
    return result;
  }

  // ---- rung 2: drop the minimality softs, keep user objectives ------------
  const bool hasMinimality =
      std::any_of(softInfos_.begin(), softInfos_.end(), [](const SoftInfo& s) {
        return s.kind == SoftKind::kMinimality;
      });
  const bool hasUser =
      std::any_of(softInfos_.begin(), softInfos_.end(), [](const SoftInfo& s) {
        return s.kind == SoftKind::kUser;
      });
  if (hasMinimality && hasUser && !deadline_.expired()) {
    logWarn() << "MaxSMT timed out/unknown; retrying without minimality softs";
    try {
      z3::optimize reduced(ctx_);
      for (const z3::expr& assertion : opt_.assertions()) {
        reduced.add(assertion);
      }
      for (std::size_t i = 0; i < softExprs_.size(); ++i) {
        if (softInfos_[i].kind == SoftKind::kUser) {
          reduced.add_soft(softExprs_[i], softInfos_[i].weight);
        }
      }
      if (applyBudget(reduced)) {
        const z3::check_result reducedStatus = reduced.check();
        captureCheck(result.stats, reduced);
        if (reducedStatus == z3::sat) {
          result.rung = SolveRung::kNoMinimality;
          result.rungReason =
              "full MaxSMT timed out/unknown; re-solved with minimality "
              "softs dropped (user objectives kept)";
          model_ = reduced.get_model();
          reportObjectives(result);
          return result;
        }
      }
    } catch (const z3::exception& e) {
      logWarn() << "reduced MaxSMT retry failed: " << e.msg();
    }
  }

  // ---- rung 3: hard constraints only (plain SAT) --------------------------
  if (!deadline_.expired()) {
    logWarn() << "falling back to hard-constraints-only SAT";
    try {
      // The persistent probe solver already holds exactly the hard
      // assertions, so this rung is an incremental query, not a rebuild.
      if (applyBudget(probe_)) {
        const z3::check_result plainStatus = probe_.check();
        captureCheck(result.stats, probe_);
        if (plainStatus == z3::sat) {
          result.rung = SolveRung::kHardOnly;
          result.rungReason =
              "both MaxSMT rungs timed out/unknown; plain SAT over the hard "
              "constraints only (policy-compliant, nothing optimized)";
          model_ = probe_.get_model();
          reportObjectives(result);
          return result;
        }
        if (plainStatus == z3::unsat) {
          result.rung = SolveRung::kUnsat;
          result.rungReason =
              "hard constraints unsatisfiable (found at the plain-SAT rung)";
          return result;
        }
      }
    } catch (const z3::exception& e) {
      logWarn() << "hard-constraints-only fallback failed: " << e.msg();
    }
  }

  // ---- rung 4: give up -----------------------------------------------------
  const bool expired = deadline_.expired();
  result.rung = SolveRung::kGaveUp;
  result.code = expired ? ErrorCode::kTimeout : ErrorCode::kSolverUnknown;
  result.rungReason =
      expired ? "wall-clock deadline expired before any ladder rung answered"
              : "every ladder rung returned unknown";
  return result;
}

bool SmtSession::evalBool(const z3::expr& expr) const {
  require(model_.has_value(), "evalBool before a sat check()");
  return model_->eval(expr, true).is_true();
}

int SmtSession::evalInt(const z3::expr& expr) const {
  require(model_.has_value(), "evalInt before a sat check()");
  return model_->eval(expr, true).get_numeral_int();
}

std::string mangle(const std::vector<std::string>& parts) {
  std::string out;
  for (std::size_t i = 0; i < parts.size(); ++i) {
    if (i > 0) out += '_';
    std::string part = parts[i];
    std::replace(part.begin(), part.end(), '/', '.');
    std::replace(part.begin(), part.end(), ' ', '.');
    out += part;
  }
  return out;
}

}  // namespace aed
