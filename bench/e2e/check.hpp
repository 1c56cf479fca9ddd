// Independent checks the benchmark runs on every response, on top of
// the re-verification the binder's api already performs:
//
//  * the binding names a supporting cluster for every operation;
//  * verify_schedule accepts the emitted bound graph and schedule, and
//    the reported (L, M) are the schedule's own;
//  * L >= latency_lower_bound(...).combined;
//  * check_semantics (sim/executor.hpp) computes the same values as the
//    unbound graph on seeded inputs. Graphs without full operand
//    information cannot be executed; they are recorded as skipped,
//    never as passed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "bind/binding.hpp"
#include "bind/bound_dfg.hpp"
#include "graph/dfg.hpp"
#include "machine/datapath.hpp"
#include "sched/schedule.hpp"

namespace cvb::e2e {

struct Verdict {
  bool ok = true;
  bool semantics_skipped = false;
  double verify_ms = 0.0;  ///< time spent inside verify_schedule
  std::string error;       ///< first failed check when !ok
};

/// Seeded live-in values for check_semantics.
[[nodiscard]] std::vector<std::int64_t> semantic_inputs(std::uint64_t seed);

/// Checks a response that carries its bound graph and schedule.
[[nodiscard]] Verdict check_schedule(const Dfg& dfg, const Datapath& dp,
                                     const Binding& binding,
                                     const BoundDfg& bound,
                                     const Schedule& schedule, int latency,
                                     int moves,
                                     const std::vector<std::int64_t>& inputs);

/// Checks a response that carries only its binding (the wire protocol):
/// rebuilds the bound graph and list schedule, then checks those.
[[nodiscard]] Verdict check_binding(const Dfg& dfg, const Datapath& dp,
                                    const Binding& binding, int latency,
                                    int moves,
                                    const std::vector<std::int64_t>& inputs);

}  // namespace cvb::e2e
