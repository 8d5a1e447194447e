#include "smt/session.hpp"

#include <algorithm>
#include <limits>
#include <numeric>

#include "obs/trace.hpp"
#include "util/log.hpp"

namespace aed {

namespace {

/// Accumulates a z3::stats block into SolverStats by key substring: Z3's
/// stat names vary across engines and versions ("conflicts", "sat ...").
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

}  // namespace

/// One cost the search bounds: the summed weights of the violated softs,
/// over the user softs only or over all of them.
struct SmtSession::Cost {
  explicit Cost(z3::context& ctx) : softs(ctx) {}

  z3::expr_vector softs;
  std::vector<int> weights;
  unsigned long long total = 0;  // every soft violated
  unsigned long long unit = 1;   // the weights' gcd: every cost is a multiple
  unsigned long long step = 1;   // the smallest weight: the first coarse step

  unsigned long long of(const z3::model& model) const {
    unsigned long long cost = 0;
    for (unsigned i = 0; i < softs.size(); ++i) {
      if (!model.eval(softs[i], true).is_true()) cost += weights[i];
    }
    return cost;
  }
};

/// The state of one check()'s search.
struct SmtSession::Search {
  explicit Search(Result& out) : result(out) {}

  Result& result;
  std::optional<z3::model> model;        // the last, hence best, model
  std::optional<z3::model> userOptimal;  // once the user optimum is proved
  std::string why;  // why it stopped, or what certified unsatisfiability
};

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

z3::expr SmtSession::var(const std::string& name) const {
  const auto it = vars_.find(name);
  require(it != vars_.end(), "unknown SMT variable: " + name);
  return it->second;
}

std::size_t SmtSession::addSoft(const z3::expr& constraint, unsigned weight,
                                const std::string& label, SoftKind kind) {
  const int limit = std::numeric_limits<int>::max();
  unsigned long long total = weight;
  for (const Soft& soft : softs_) total += soft.weight;
  require(total <= limit, ErrorCode::kInvalidInput,
          "soft constraint '" + label + "': the summed soft weight " +
              std::to_string(total) + " exceeds " + std::to_string(limit));
  softs_.push_back(Soft{constraint, label, weight, kind});
  optimum_.reset();  // a new soft changes the cost function
  userOptimum_.reset();
  return softs_.size() - 1;
}

void SmtSession::randomizePhase(unsigned seed) {
  try {
    // A plain solver takes the smt and sat modules' names unqualified.
    z3::params params(ctx_);
    params.set("phase_selection", 5u);  // smt: random phase
    if (kind_ == SolverKind::kCombined) {
      params.set("phase", ctx_.str_symbol("random"));  // sat
    }
    params.set("random_seed", seed);
    solver_.set(params);
  } catch (const z3::exception&) {
    // Parameter names vary across Z3 versions; best effort only.
  }
}

SmtSession::Problem SmtSession::problem() const {
  Problem problem{hard_, {}};
  for (const Soft& soft : softs_) {
    problem.softs.emplace_back(soft.expr, soft.weight);
  }
  return problem;
}

bool SmtSession::applyBudget() {
  if (deadline_.isUnlimited()) return true;
  const std::uint64_t remaining = deadline_.remainingMillis();
  if (remaining == 0) return false;
  const unsigned ms = static_cast<unsigned>(std::min<std::uint64_t>(
      remaining, std::numeric_limits<unsigned>::max()));
  try {
    z3::params params(ctx_);
    params.set("timeout", ms);
    solver_.set(params);
  } catch (const z3::exception&) {
    // Rejected: the deadline still holds between bounds.
  }
  return true;
}

void SmtSession::reportObjectives(Result& result) const {
  for (const Soft& soft : softs_) {
    if (soft.kind != SoftKind::kUser) continue;
    (model_->eval(soft.expr, true).is_true() ? result.satisfiedObjectives
                                             : result.violatedObjectives)
        .push_back(soft.label);
  }
}

SmtSession::Bound SmtSession::tryBound(Search& search, const Cost& cost,
                                       unsigned long long bound) {
  if (!applyBudget()) {
    search.why = "deadline expired";
    return Bound::kStopped;
  }
  z3::expr_vector assumptions(ctx_);
  const bool plain = bound >= cost.total;
  if (!plain) {
    // cost <= bound  <=>  sum(weight_i * soft_i) >= total - bound. A fresh
    // literal that no variable registry knows guards it, so the bound never
    // holds outside this check and the encoding's statistics ignore it.
    const Z3_ast fresh = Z3_mk_fresh_const(ctx_, "bound", ctx_.bool_sort());
    ctx_.check_error();
    const z3::expr literal(ctx_, fresh);
    solver_.add(z3::implies(
        literal, z3::pbge(cost.softs, cost.weights.data(),
                          static_cast<int>(cost.total - bound))));
    assumptions.push_back(literal);
  }
  ++search.result.stats.checks;
  const z3::check_result status = solver_.check(assumptions);
  if (status == z3::sat) {
    search.model = solver_.get_model();
    return Bound::kSat;
  }
  if (status == z3::unsat) {
    if (!plain && !solver_.unsat_core().empty()) return Bound::kUnsat;
    search.why = plain ? "a check without assumptions"
                       : "an unsat core without the cost bound";
    return Bound::kHardUnsat;
  }
  search.why = deadline_.expired() ? std::string("timed out")
                                   : "unknown: " + solver_.reason_unknown();
  return Bound::kStopped;
}

SmtSession::Bound SmtSession::minimize(Search& search, const Cost& cost,
                                       unsigned long long lo) {
  lo = (lo + cost.unit - 1) / cost.unit * cost.unit;
  std::optional<unsigned long long> hi;
  if (search.model) hi = cost.of(*search.model);
  // The first bound is the lower bound itself; without a model the bounds
  // then rise by doubling steps, and with one they halve the gap to it.
  unsigned long long bound = lo;
  unsigned long long step = cost.step;
  while (!hi || lo < *hi) {
    const Bound verdict = tryBound(search, cost, bound);
    if (verdict == Bound::kSat) {
      hi = cost.of(*search.model);
    } else if (verdict == Bound::kUnsat) {
      lo = bound + cost.unit;
    } else {
      return verdict;
    }
    if (hi) {
      bound = lo + ((*hi - lo) / cost.unit - 1) / 2 * cost.unit;
    } else {
      bound += step;
      step *= 2;
    }
  }
  return Bound::kSat;
}

SmtSession::Result SmtSession::check() {
  Span span("smt.check");
  Result result;
  // Encoding sizes describe what this check is being asked to solve; effort
  // counters accumulate as the search below runs the solver.
  result.stats.vars = vars_.size();
  result.stats.assertions = hard_.size() + softs_.size();

  Cost user(ctx_);
  Cost all(ctx_);
  for (const Soft& soft : softs_) {
    const unsigned long long weight = soft.weight;
    if (weight == 0) continue;  // never changes a cost
    for (Cost* cost : {&user, &all}) {
      if (cost == &user && soft.kind != SoftKind::kUser) continue;
      const bool first = cost->softs.empty();
      cost->step = first ? weight : std::min(cost->step, weight);
      cost->unit = std::gcd(first ? 0 : cost->unit, weight);
      cost->softs.push_back(soft.expr);
      cost->weights.push_back(static_cast<int>(weight));
      cost->total += weight;
    }
  }
  // Step 1 is the whole search when there is no minimality pressure.
  const bool twoSteps =
      !user.softs.empty() && user.softs.size() < all.softs.size();

  const bool injected = injectUnknown_ > 0;
  if (injected) {
    --injectUnknown_;
    logWarn() << "fault injection: stopping the search before the total cost";
  }

  Search search(result);
  Bound verdict = Bound::kUnsat;
  bool warm = false;
  try {
    unsigned long long totalLo = 0;
    // The warm start: the previous optimum is the first bound tried.
    if (optimum_ && !injected) {
      verdict = tryBound(search, all, *optimum_);
      warm = verdict == Bound::kSat;
      totalLo = *optimum_ + 1;
    }
    // Step 1: the user objectives alone.
    if (verdict == Bound::kUnsat && twoSteps) {
      verdict = minimize(search, user, userOptimum_.value_or(0));
      if (verdict == Bound::kSat) {
        userOptimum_ = user.of(*search.model);
        search.userOptimal = search.model;
      }
    }
    // Step 2: the total cost, from the proved user optimum.
    if (verdict == Bound::kUnsat || (verdict == Bound::kSat && !warm)) {
      if (injected) {
        search.why = "fault injection";
        verdict = Bound::kStopped;
      } else {
        verdict = minimize(search, all,
                           std::max(totalLo, userOptimum_.value_or(0)));
      }
    }
    // Stopped without a model: one plain check, if time is left.
    if (verdict == Bound::kStopped && !search.model && !deadline_.expired() &&
        tryBound(search, all, all.total) == Bound::kHardUnsat) {
      verdict = Bound::kHardUnsat;
    }
  } catch (const z3::exception& e) {
    search.why = "Z3 error: " + std::string(e.msg());
    verdict = Bound::kStopped;
  }

  // Z3's counters add up over the solver's life: report the difference,
  // never below 0 (an assumption-free check may run another engine).
  SolverStats effort;
  try {
    accumulateZ3Stats(effort, solver_.statistics());
  } catch (const z3::exception&) {
  }
  const auto since = [](std::uint64_t now, std::uint64_t before) {
    return now > before ? now - before : 0;
  };
  result.stats.conflicts = since(effort.conflicts, effort_.conflicts);
  result.stats.decisions = since(effort.decisions, effort_.decisions);
  result.stats.restarts = since(effort.restarts, effort_.restarts);
  effort_ = effort;

  const std::string checks = " (" + std::to_string(result.stats.checks) +
                             " checks)";
  if (verdict == Bound::kHardUnsat) {
    result.rung = SolveRung::kUnsat;
    result.rungReason = "hard constraints unsatisfiable, certified by " +
                        search.why + checks;
    return result;
  }
  if (verdict == Bound::kSat) {
    model_ = search.model;
    optimum_ = all.of(*model_);
    result.rung = warm ? SolveRung::kWarmStart : SolveRung::kFull;
    result.rungReason =
        (warm ? "the first bound, the previous optimum " +
                    std::to_string(*optimum_) + ", was satisfiable"
              : "optimum cost " + std::to_string(*optimum_) +
                    " proved: every lower bound unsatisfiable") +
        checks;
  } else if (search.model) {
    model_ = search.userOptimal ? search.userOptimal : search.model;
    result.rung = search.userOptimal ? SolveRung::kNoMinimality
                                     : SolveRung::kHardOnly;
    result.rungReason =
        "search stopped (" + search.why + ") " +
        (search.userOptimal ? "after proving the user-objective optimum " +
                                  std::to_string(*userOptimum_) +
                                  "; minimality softs not minimized"
                            : "with only a model of the hard constraints "
                              "(policy-compliant, nothing proved optimal)");
  } else {
    const bool expired = deadline_.expired();
    result.rung = SolveRung::kGaveUp;
    result.code = expired ? ErrorCode::kTimeout : ErrorCode::kSolverUnknown;
    result.rungReason =
        expired ? "wall-clock deadline expired before the search found a model"
                : "the search and the plain check answered unknown (" +
                      search.why + ")";
    return result;
  }
  reportObjectives(result);
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
