#include "check.hpp"

#include <chrono>

#include "bind/lower_bounds.hpp"
#include "sched/list_scheduler.hpp"
#include "sched/verifier.hpp"
#include "sim/executor.hpp"
#include "support/rng.hpp"

namespace cvb::e2e {

namespace {

Verdict fail(std::string error) {
  Verdict v;
  v.ok = false;
  v.error = std::move(error);
  return v;
}

/// Why `binding` is not a legal binding of `dfg` on `dp` ("" if it is).
std::string binding_error(const Dfg& dfg, const Datapath& dp,
                          const Binding& binding) {
  if (static_cast<int>(binding.size()) != dfg.num_ops()) {
    return "binding has " + std::to_string(binding.size()) + " entries for " +
           std::to_string(dfg.num_ops()) + " ops";
  }
  for (OpId v = 0; v < dfg.num_ops(); ++v) {
    const ClusterId c = binding[static_cast<std::size_t>(v)];
    if (c < 0 || c >= dp.num_clusters() || !dp.supports(c, dfg.type(v))) {
      return "op " + std::to_string(v) + " bound to unsupported cluster " +
             std::to_string(c);
    }
  }
  return "";
}

/// True when every operation of `dfg` carries operand information, so
/// the executor can evaluate it.
bool has_operand_info(const Dfg& dfg) {
  for (OpId v = 0; v < dfg.num_ops(); ++v) {
    if (dfg.operands(v).empty()) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::vector<std::int64_t> semantic_inputs(std::uint64_t seed) {
  Rng rng(seed ^ 0x5e3a471cULL);
  std::vector<std::int64_t> inputs;
  for (int i = 0; i < 16; ++i) {
    inputs.push_back(static_cast<std::int64_t>(rng.next_u64()));
  }
  return inputs;
}

Verdict check_schedule(const Dfg& dfg, const Datapath& dp,
                       const Binding& binding, const BoundDfg& bound,
                       const Schedule& schedule, int latency, int moves,
                       const std::vector<std::int64_t>& inputs) {
  if (std::string err = binding_error(dfg, dp, binding); !err.empty()) {
    return fail(std::move(err));
  }
  const auto t0 = std::chrono::steady_clock::now();
  const std::string verr = verify_schedule(bound, dp, schedule);
  const double verify_ms = std::chrono::duration<double, std::milli>(
                               std::chrono::steady_clock::now() - t0)
                               .count();
  if (!verr.empty()) {
    return fail("verify_schedule: " + verr);
  }
  if (schedule.latency != latency || schedule.num_moves != moves) {
    return fail("reported L/M " + std::to_string(latency) + "/" +
                std::to_string(moves) + " but schedule has " +
                std::to_string(schedule.latency) + "/" +
                std::to_string(schedule.num_moves));
  }
  const int lb = latency_lower_bound(dfg, dp).combined;
  if (latency < lb) {
    return fail("L=" + std::to_string(latency) + " below lower bound " +
                std::to_string(lb));
  }
  Verdict verdict;
  verdict.verify_ms = verify_ms;
  if (!has_operand_info(dfg)) {
    verdict.semantics_skipped = true;
    return verdict;
  }
  if (const std::string serr = check_semantics(dfg, bound, dp, schedule, inputs);
      !serr.empty()) {
    return fail("check_semantics: " + serr);
  }
  return verdict;
}

Verdict check_binding(const Dfg& dfg, const Datapath& dp,
                      const Binding& binding, int latency, int moves,
                      const std::vector<std::int64_t>& inputs) {
  if (std::string err = binding_error(dfg, dp, binding); !err.empty()) {
    return fail(std::move(err));
  }
  const BoundDfg bound = build_bound_dfg(dfg, binding, dp);
  const Schedule schedule = list_schedule(bound, dp);
  return check_schedule(dfg, dp, binding, bound, schedule, latency, moves,
                        inputs);
}

}  // namespace cvb::e2e
