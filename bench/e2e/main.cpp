// cvb_e2e — the request-level benchmark of the binder (README.md).
//
//   cvb_e2e --workload NAME --seed N --seconds S --trace 0|1
//           [--socket-dir DIR]
//
// Runs one workload as a closed-loop client (it sends its next request
// only when the previous response has arrived and been verified),
// checks every response, and prints one JSON result line last:
// end-to-end metrics with --trace 0, per-layer metrics with --trace 1.
// Exits 1 when any response failed a check, 2 on a usage error.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <exception>
#include <fstream>
#include <functional>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "api/api.hpp"
#include "bind/driver.hpp"
#include "bind/portfolio.hpp"
#include "check.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "requests.hpp"
#include "service/service.hpp"
#include "stats.hpp"
#include "support/json.hpp"

namespace cvb::e2e {
namespace {

using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

/// Setups per run; setup_s reports their median.
constexpr int kSetupRepeats = 15;
/// Thread count of suite_cold_t1's cross-check re-runs.
constexpr int kCrossThreads = 4;
/// Hard stop of a measuring loop, so a run always exits within the
/// contract's 180 s even on a slow host.
constexpr double kMaxMeasureSeconds = 120.0;

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string socket_dir = ".";
};

/// What two runs of one request must agree on. candidates < 0 means
/// the count is not attributable (shared engine) and is not compared.
struct Answer {
  int latency = 0;
  int moves = 0;
  long long candidates = -1;

  friend bool operator==(const Answer&, const Answer&) = default;
};

std::string describe(const Answer& a) {
  return "L/M " + std::to_string(a.latency) + "/" + std::to_string(a.moves) +
         (a.candidates >= 0 ? " candidates " + std::to_string(a.candidates)
                            : "");
}

/// Samples, failures and per-request answers of one run.
class Ledger {
 public:
  /// Records one checked response of request `key` (or none: key < 0).
  /// A response whose answer differs from the first answer recorded
  /// for the same key is a failure: state leaked between requests, or
  /// a thread count changed a result.
  void record(const std::string& label, Verdict verdict, long long key,
              const Answer& answer) {
    if (verdict.ok && key >= 0) {
      const auto [it, inserted] = answers_.emplace(key, answer);
      if (!inserted && !(it->second == answer)) {
        verdict.ok = false;
        verdict.error = "answer changed: " + describe(it->second) + " then " +
                        describe(answer);
      }
    }
    ++attempted_;
    verify_ms_ += verdict.verify_ms;
    skipped_ += verdict.semantics_skipped ? 1 : 0;
    if (!verdict.ok) {
      note_failure(label + ": " + verdict.error);
    }
  }

  /// A request that produced no checkable response at all.
  void fail(const std::string& what) {
    ++attempted_;
    note_failure(what);
  }

  void sample(double ms) {
    latency_ms_.push_back(ms);
  }

  [[nodiscard]] const Answer* answer(long long key) const {
    const auto it = answers_.find(key);
    return it == answers_.end() ? nullptr : &it->second;
  }

  [[nodiscard]] long long attempted() const { return attempted_; }
  [[nodiscard]] long long failed() const { return failed_; }
  [[nodiscard]] long long skipped() const { return skipped_; }
  [[nodiscard]] double verify_ms() const { return verify_ms_; }
  [[nodiscard]] const std::vector<double>& latencies() const {
    return latency_ms_;
  }

 private:
  void note_failure(const std::string& what) {
    ++failed_;
    if (failed_ <= 5) {
      std::cerr << "cvb_e2e: FAILED " << what << "\n";
    }
  }

  long long attempted_ = 0;
  long long failed_ = 0;
  long long skipped_ = 0;
  double verify_ms_ = 0.0;
  std::vector<double> latency_ms_;
  std::map<long long, Answer> answers_;
};

/// Per-layer totals of a traced run. Means are taken per traced request.
struct LayerTotals {
  long long requests = 0;
  std::vector<double> untraced_ms;
  std::vector<double> traced_ms;
  // the same requests at kCrossThreads threads, interleaved
  double t1_total_ms = 0.0;
  double t4_total_ms = 0.0;
  long long t4_requests = 0;
  // bind.eval / bind.init / bind.iter (bench-owned engines only)
  EvalStats eval;
  double init_ms = 0.0;
  double iter_ms = 0.0;
  long long init_candidates = 0;
  long long iter_candidates = 0;
  long long iter_accepted = 0;
  // neighbourhood probe: bind.eval batch (1 and kCrossThreads threads)
  // vs the sched core
  double probe_batch_ns = 0.0;
  double probe_batch4_ns = 0.0;
  long long probe_candidates = 0;
  double probe_sched_ns = 0.0;
  long long probe_schedules = 0;
  // bind.portfolio / pcc / baselines.sa
  long long races = 0;
  double race_ms = 0.0;
  double time_to_best_ms = 0.0;
  long long rounds = 0;
  double sa_ms = 0.0;
  long long sa_wins = 0;
  double pcc_ms = 0.0;
  long long pcc_wins = 0;
  // service / net
  std::vector<double> queue_ms;
  std::vector<double> run_ms;
  std::vector<double> transport_ms;
  long long served = 0;
  long long retries = 0;
  double wire_bytes = 0.0;
};

Verdict response_verdict(const BindResponse& resp, const BenchRequest& r,
                         const std::vector<std::int64_t>& inputs) {
  if (resp.status != BindStatus::kOk) {
    Verdict v;
    v.ok = false;
    v.error = std::string("status ") + to_string(resp.status) + " " + resp.error;
    return v;
  }
  return check_schedule(r.request.dfg, r.request.datapath, resp.binding,
                        resp.bound, resp.schedule, resp.latency, resp.moves,
                        inputs);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// (steal, total) CPU ticks of the host so far, from /proc/stat; zeros
/// when unreadable. Time stolen by other guests of a shared host is the
/// main source of run-to-run spread, so each run reports its share.
std::pair<long long, long long> cpu_ticks() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  long long value = 0;
  long long total = 0;
  long long steal = 0;
  stat >> cpu;
  for (int field = 0; field < 8 && stat >> value; ++field) {
    total += value;
    steal = field == 7 ? value : steal;
  }
  return {steal, total};
}

/// Distinct requests' (L, M) sums, from the ledger's answers for keys
/// 0..n-1.
std::pair<long long, long long> answer_sums(const Ledger& ledger,
                                            std::size_t n) {
  long long cycles = 0;
  long long moves = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (const Answer* a = ledger.answer(static_cast<long long>(i))) {
      cycles += a->latency;
      moves += a->moves;
    }
  }
  return {cycles, moves};
}

// ---------------------------------------------------------------------
// The closed-loop client

/// Runs `one(request_index, position)` as one closed-loop client over a
/// pass-major sequence: pass p visits all n requests in
/// pass_order(n, seed, p). Measuring stops at the first pass boundary
/// after `seconds` at which at least `min_positions` requests ran.
/// Returns the measured wall time in seconds.
double run_passes(std::size_t n, const Options& opt,
                  std::size_t min_positions, Ledger& ledger,
                  const std::function<void(std::size_t, std::size_t)>& one) {
  const Clock::time_point start = Clock::now();
  for (std::size_t pos = 0;; ++pos) {
    const double elapsed = ms_since(start) / 1000.0;
    if (pos % n == 0 && ((elapsed >= opt.seconds && pos >= min_positions) ||
                         elapsed >= kMaxMeasureSeconds)) {
      break;
    }
    const std::size_t idx = pass_order(n, opt.seed, pos / n)[pos % n];
    try {
      one(idx, pos);
    } catch (const std::exception& e) {
      ledger.fail(std::string("request threw: ") + e.what());
    }
  }
  return ms_since(start) / 1000.0;
}

// ---------------------------------------------------------------------
// Traced (layer-by-layer) requests

/// The single-move neighbourhood of `binding`: every (op, other
/// supporting cluster) re-binding.
std::vector<BindingDelta> neighbourhood(const Dfg& dfg, const Datapath& dp,
                                        const Binding& binding) {
  std::vector<BindingDelta> deltas;
  for (OpId v = 0; v < dfg.num_ops(); ++v) {
    for (ClusterId c = 0; c < dp.num_clusters(); ++c) {
      if (c != binding[static_cast<std::size_t>(v)] &&
          dp.supports(c, dfg.type(v))) {
        deltas.push_back({{v, c}});
      }
    }
  }
  return deltas;
}

/// Wall time in ns of EvalEngine::evaluate_batch_delta on a fresh
/// engine with `threads` workers.
double time_batch(const BenchRequest& r, const Binding& binding,
                  const std::vector<BindingDelta>& deltas, int threads,
                  std::vector<EvalResult>* results) {
  EvalEngineOptions eopts;
  eopts.num_threads = threads;
  EvalEngine engine(eopts);
  const Clock::time_point t0 = Clock::now();
  *results = engine.evaluate_batch_delta(r.request.dfg, r.request.datapath,
                                         binding, deltas);
  return ms_since(t0) * 1e6;
}

/// Times EvalEngine::evaluate_batch_delta on the neighbourhood of the
/// final binding (fresh engines with 1 and kCrossThreads workers) and
/// list_schedule on the same candidates' bound graphs, serially.
void probe_neighbourhood(const BenchRequest& r, const Binding& binding,
                         LayerTotals& totals) {
  const Dfg& dfg = r.request.dfg;
  const Datapath& dp = r.request.datapath;
  const std::vector<BindingDelta> deltas = neighbourhood(dfg, dp, binding);
  if (deltas.empty()) {
    return;
  }
  std::vector<EvalResult> results;
  std::vector<EvalResult> results4;
  const double batch_ns = time_batch(r, binding, deltas, 1, &results);
  const double batch4_ns =
      time_batch(r, binding, deltas, kCrossThreads, &results4);

  std::vector<BoundDfg> bounds;
  bounds.reserve(deltas.size());
  for (const BindingDelta& d : deltas) {
    Binding b = binding;
    b[static_cast<std::size_t>(d.front().first)] = d.front().second;
    bounds.push_back(build_bound_dfg(dfg, b, dp));
  }
  SchedArena arena;
  int latency_sum = 0;
  const Clock::time_point t0 = Clock::now();
  for (const BoundDfg& bound : bounds) {
    latency_sum += list_schedule(bound, dp, {}, arena).latency;
  }
  const double sched_ns = ms_since(t0) * 1e6;
  int expected_sum = 0;
  for (const EvalResult& res : results) {
    expected_sum += res.latency;
  }
  if (latency_sum != expected_sum || results != results4) {
    throw std::logic_error("neighbourhood probe: batch and serial schedules "
                           "disagree on " + r.label);
  }
  totals.probe_batch_ns += batch_ns;
  totals.probe_batch4_ns += batch4_ns;
  totals.probe_candidates += static_cast<long long>(deltas.size());
  totals.probe_sched_ns += sched_ns;
  totals.probe_schedules += static_cast<long long>(bounds.size());
}

/// b-iter through bind_full on a bench-owned engine: the layers below
/// run_bind_request, timed and counted one by one. With `probe`, the
/// final binding's neighbourhood is also timed (probe_neighbourhood).
Answer traced_bind_full(const BenchRequest& r,
                        const std::vector<std::int64_t>& inputs, Ledger& ledger,
                        LayerTotals& totals, bool probe) {
  const Clock::time_point t0 = Clock::now();
  EvalEngineOptions eopts;
  eopts.num_threads = r.request.num_threads;
  EvalEngine engine(eopts);
  DriverParams params = driver_params_for(r.request.strategy.effort);
  params.engine = &engine;
  const BindResult result =
      bind_full(r.request.dfg, r.request.datapath, params);
  const Verdict verdict = check_schedule(
      r.request.dfg, r.request.datapath, result.binding, result.bound,
      result.schedule, result.schedule.latency, result.schedule.num_moves,
      inputs);
  const double ms = ms_since(t0);
  const EvalStats stats = engine.stats();
  ledger.record(r.label + " (traced)", verdict, -1, {});
  if (probe) {
    probe_neighbourhood(r, result.binding, totals);
  }

  ++totals.requests;
  totals.traced_ms.push_back(ms);
  totals.eval.merge(stats);
  totals.init_ms += result.init_ms;
  totals.iter_ms += result.iter_ms;
  const int reverse = params.try_reverse ? 2 : 1;
  totals.init_candidates += (params.max_stretch + 1) * reverse;
  totals.iter_candidates += result.iter_stats.candidates_evaluated;
  totals.iter_accepted +=
      result.iter_stats.qu_iterations + result.iter_stats.qm_iterations;
  return {result.schedule.latency, result.schedule.num_moves,
          stats.candidates};
}

/// The portfolio through run_portfolio on a bench-owned engine.
Answer traced_portfolio(const BenchRequest& r,
                        const std::vector<std::int64_t>& inputs,
                        Ledger& ledger, LayerTotals& totals) {
  const Clock::time_point t0 = Clock::now();
  EvalEngineOptions eopts;
  eopts.num_threads = r.request.num_threads;
  EvalEngine engine(eopts);
  PortfolioOptions opts;
  opts.strategies = r.request.portfolio;
  opts.policy = r.request.portfolio_policy;
  opts.engine = &engine;
  const PortfolioOutcome out =
      run_portfolio(r.request.dfg, r.request.datapath, opts);
  const BindResult& best = out.best;
  const Verdict verdict = check_schedule(
      r.request.dfg, r.request.datapath, best.binding, best.bound,
      best.schedule, best.schedule.latency, best.schedule.num_moves, inputs);
  const double ms = ms_since(t0);
  const EvalStats stats = engine.stats();
  ledger.record(r.label + " (traced)", verdict, -1, {});

  ++totals.requests;
  ++totals.races;
  totals.traced_ms.push_back(ms);
  totals.eval.merge(stats);
  totals.race_ms += out.stats.ms;
  totals.rounds += out.stats.rounds;
  for (const StrategyAttribution& at : out.stats.strategies) {
    if (at.winner) {
      totals.time_to_best_ms += at.time_to_best_ms;
    }
    if (at.spec.kind == StrategyKind::kSa) {
      totals.sa_ms += at.run_ms;
      totals.sa_wins += at.winner ? 1 : 0;
    } else if (at.spec.kind == StrategyKind::kPcc) {
      totals.pcc_ms += at.run_ms;
      totals.pcc_wins += at.winner ? 1 : 0;
    }
  }
  return {best.schedule.latency, best.schedule.num_moves, stats.candidates};
}

/// Every per-layer metric, zero where the workload does not reach the
/// layer (README.md, "Per-layer metrics").
MetricSet layer_metrics(const LayerTotals& t, const Ledger& ledger) {
  MetricSet m;
  const double req = std::max<long long>(1, t.requests);
  const double candidates = std::max<long long>(1, t.probe_candidates);
  const double batch_ns = t.probe_batch_ns / candidates;
  const double batch4_ns = t.probe_batch4_ns / candidates;
  const double sched_ns = t.probe_schedules > 0
                              ? t.probe_sched_ns / t.probe_schedules
                              : 0.0;
  m.add("bind.eval.batch_ns_per_candidate", batch_ns, "ns");
  m.add("bind.eval.glue_ns_per_candidate", batch_ns - sched_ns, "ns");
  m.add("bind.eval.t4_batch_ns_per_candidate", batch4_ns, "ns");
  m.add("bind.eval.t4_glue_ns_per_candidate",
        batch4_ns * kCrossThreads - sched_ns, "ns");
  const double t4_requests = std::max<long long>(1, t.t4_requests);
  m.add_ratio("bind.eval.t4_speedup", t.t1_total_ms / t4_requests,
              t.t4_total_ms / t4_requests, "bind.eval.t4_request_ms", "ms");
  m.add("sched.ns_per_schedule", sched_ns, "ns");
  m.add("sched.est_ms", t.eval.cache_misses / req * sched_ns / 1e6, "ms");
  m.add("bind.eval.ms", t.eval.eval_ms / req, "ms");
  m.add("bind.eval.batches", t.eval.batches / req, "count");
  m.add("bind.eval.misses", t.eval.cache_misses / req, "count");
  m.add("bind.eval.contended", t.eval.cache_contended / req, "count");
  m.add_ratio("bind.eval.hit_ratio", t.eval.cache_hits / req,
              t.eval.candidates / req, "bind.eval.candidates", "count");
  m.add_ratio("bind.eval.l1_hit_ratio", t.eval.l1_hits / req,
              t.eval.cache_hits / req, "bind.eval.hits", "count");
  m.add("bind.init.ms", t.init_ms / req, "ms");
  m.add("bind.init.candidates", t.init_candidates / req, "count");
  m.add("bind.iter.ms", t.iter_ms / req, "ms");
  m.add("bind.iter.rounds",
        t.iter_candidates > 0 ? t.eval.batches / req : 0.0, "count");
  m.add("bind.iter.accepted", t.iter_accepted / req, "count");
  m.add_ratio("bind.iter.accept_ratio", t.iter_accepted / req,
              t.iter_candidates / req, "bind.iter.candidates", "count");
  const double responses = static_cast<double>(ledger.attempted());
  m.add("api.verify_ms", responses > 0 ? ledger.verify_ms() / responses : 0.0,
        "ms");
  m.add_ratio("api.semantics_skipped_ratio",
              static_cast<double>(ledger.skipped()), responses,
              "api.responses", "count");
  auto pct = [](const std::vector<double>& v, double p) {
    return v.empty() ? 0.0 : percentile(v, p);
  };
  m.add("service.queue_p90_ms", pct(t.queue_ms, 90.0), "ms");
  m.add("service.run_p50_ms", pct(t.run_ms, 50.0), "ms");
  m.add_ratio("service.retry_ratio", static_cast<double>(t.retries),
              static_cast<double>(t.served), "service.requests", "count");
  m.add("net.transport_p50_ms", pct(t.transport_ms, 50.0), "ms");
  m.add("net.bytes_per_request", t.served > 0 ? t.wire_bytes / t.served : 0.0,
        "bytes");
  const double races = std::max<long long>(1, t.races);
  m.add("bind.portfolio.time_to_best_ms", t.time_to_best_ms / races, "ms");
  m.add_ratio("bind.portfolio.useful_ratio", t.time_to_best_ms / races,
              t.race_ms / races, "bind.portfolio.race_ms", "ms");
  m.add("bind.portfolio.rounds", t.rounds / races, "count");
  m.add("baselines.sa.run_ms", t.sa_ms / races, "ms");
  m.add_ratio("baselines.sa.win_ratio", static_cast<double>(t.sa_wins),
              static_cast<double>(t.races), "bind.portfolio.requests",
              "count");
  m.add("pcc.run_ms", t.pcc_ms / races, "ms");
  m.add_ratio("pcc.win_ratio", static_cast<double>(t.pcc_wins),
              static_cast<double>(t.races), "bind.portfolio.requests",
              "count");
  const double untraced = pct(t.untraced_ms, 50.0);
  const double traced = pct(t.traced_ms, 50.0);
  m.add("trace.traced_p50_ms", traced, "ms");
  m.add_ratio("trace.overhead_ratio", traced - untraced, untraced,
              "trace.untraced_p50_ms", "ms");
  return m;
}

// ---------------------------------------------------------------------
// Result printing

struct RunResult {
  std::pair<long long, long long> ticks_at_start = cpu_ticks();
  double setup_s = 0.0;
  double wall_s = 0.0;
  /// Taken right after measuring, before the cross-check and replay
  /// passes, whose extra engines are not part of the workload.
  double peak_rss_mb = 0.0;
  long long cycles_sum = 0;
  long long moves_sum = 0;
};

int finish(const Options& opt, const Ledger& ledger, const RunResult& run,
           const LayerTotals* totals) {
  const std::vector<double>& lat = ledger.latencies();
  const double failed_ratio =
      ledger.attempted() > 0
          ? static_cast<double>(ledger.failed()) / ledger.attempted()
          : 1.0;
  bool correct = ledger.failed() == 0 && ledger.attempted() > 0;
  MetricSet metrics;
  std::cout << "# workload " << opt.workload << " seed " << opt.seed
            << " trace " << opt.trace << ": " << lat.size()
            << " timed requests in " << run.wall_s << " s, "
            << ledger.attempted() << " responses checked, "
            << ledger.failed() << " failed (failed_ratio " << failed_ratio
            << "), semantics skipped on " << ledger.skipped() << "\n";
  const auto [steal, total] = cpu_ticks();
  if (total > run.ticks_at_start.second) {
    std::cout << "# host steal: "
              << 100.0 * static_cast<double>(steal - run.ticks_at_start.first) /
                     static_cast<double>(total - run.ticks_at_start.second)
              << "% of CPU time during the run\n";
  }
  if (totals != nullptr) {
    metrics = layer_metrics(*totals, ledger);
  } else {
    if (lat.empty() || samples_above(90.0, lat.size()) < kMinTail) {
      std::cerr << "cvb_e2e: " << lat.size()
                << " samples leave fewer than " << kMinTail
                << " above p90\n";
      correct = false;
    }
    const double p50 = lat.empty() ? 0.0 : percentile(lat, 50.0);
    const double p90 = lat.empty() ? 0.0 : percentile(lat, 90.0);
    std::cout << "# request p50 " << p50 << " ms, p90 " << p90 << " ms over "
              << lat.size() << " samples ("
              << (lat.empty() ? 0 : samples_above(90.0, lat.size()))
              << " above p90); L sum " << run.cycles_sum << ", M sum "
              << run.moves_sum << "\n";
    metrics.add("request_p50_ms", p50, "ms");
    metrics.add("request_p90_ms", p90, "ms");
    metrics.add("requests_per_s",
                run.wall_s > 0 ? static_cast<double>(lat.size()) / run.wall_s
                               : 0.0,
                "1/s");
    metrics.add("schedule_cycles_sum", static_cast<double>(run.cycles_sum),
                "cycles");
    metrics.add("moves_sum", static_cast<double>(run.moves_sum), "count");
    metrics.add("verified_ratio", 1.0 - failed_ratio, "ratio");
    metrics.add("setup_s", run.setup_s, "s");
    metrics.add("peak_rss_mb", run.peak_rss_mb, "MB");
  }
  for (const Metric& mt : metrics.all()) {
    std::cout << "# " << mt.name << " = " << format_number(mt.value) << " "
              << mt.unit << "\n";
  }
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << ledger.attempted()
            << ", \"failed\": " << ledger.failed()
            << ", \"metrics\": " << metrics.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

// ---------------------------------------------------------------------
// In-process workloads: suite_cold_t1 / portfolio_race

/// One closed-loop client sends `make_requests()`'s requests
/// through run_bind_request, each with a private engine. With --trace 1
/// every request also runs layer by layer through `traced_call`, which
/// must reproduce the untraced answer exactly. With `cross_check`, every
/// request is also run at kCrossThreads threads and must give the same
/// (L, M, candidates): once after measuring, or, when traced, next to
/// each measured request so the two thread counts are timed side by side.
int run_in_process(
    const Options& opt,
    const std::function<std::vector<BenchRequest>()>& make_requests,
    bool cross_check,
    const std::function<Answer(const BenchRequest&,
                               const std::vector<std::int64_t>&, Ledger&,
                               LayerTotals&)>& traced_call) {
  RunResult run;
  std::vector<double> setups;
  std::vector<BenchRequest> requests;
  for (int k = 0; k < kSetupRepeats; ++k) {
    const Clock::time_point t0 = Clock::now();
    requests = make_requests();
    setups.push_back(ms_since(t0) / 1000.0);
  }
  std::vector<BenchRequest> cross = requests;
  for (BenchRequest& r : cross) {
    r.request.num_threads = kCrossThreads;
  }
  const std::vector<std::int64_t> inputs = semantic_inputs(opt.seed);
  Ledger ledger;
  LayerTotals totals;

  // The api path users call: a private engine per request.
  auto untraced = [&](const std::vector<BenchRequest>& set, std::size_t idx) {
    const BenchRequest& r = set[idx];
    const Clock::time_point t0 = Clock::now();
    const BindResponse resp = run_bind_request(r.request, {});
    const Verdict verdict = response_verdict(resp, r, inputs);
    const double ms = ms_since(t0);
    const Answer answer{resp.latency, resp.moves, resp.eval_stats.candidates};
    ledger.record(r.label + " @" + std::to_string(r.request.num_threads) +
                      " threads",
                  verdict, static_cast<long long>(idx), answer);
    return std::make_pair(answer, ms);
  };
  auto one = [&](std::size_t idx, std::size_t pos) {
    if (!opt.trace) {
      ledger.sample(untraced(requests, idx).second);
      return;
    }
    // Rotate which path runs first, so warm caches favour none.
    const BenchRequest& r = requests[idx];
    std::pair<Answer, double> plain;
    std::pair<Answer, double> plain4;
    Answer traced;
    const int steps = cross_check ? 3 : 2;
    for (int k = 0; k < steps; ++k) {
      switch ((static_cast<int>(pos) + k) % steps) {
        case 0:
          plain = untraced(requests, idx);
          break;
        case 1:
          traced = traced_call(r, inputs, ledger, totals);
          break;
        default:
          plain4 = untraced(cross, idx);
      }
    }
    totals.untraced_ms.push_back(plain.second);
    if (cross_check) {
      totals.t1_total_ms += plain.second;
      totals.t4_total_ms += plain4.second;
      ++totals.t4_requests;
    }
    if (!(traced == plain.first)) {
      Verdict mismatch;
      mismatch.ok = false;
      mismatch.error = "traced run gave " + describe(traced) +
                       ", untraced " + describe(plain.first);
      ledger.record(r.label, mismatch, -1, {});
    }
  };
  run.wall_s = run_passes(requests.size(), opt,
                          opt.trace ? 1 : min_samples_for(90.0), ledger, one);
  run.peak_rss_mb = peak_rss_mb();

  if (cross_check && !opt.trace) {
    for (std::size_t i = 0; i < cross.size(); ++i) {
      (void)untraced(cross, i);
    }
  }
  run.setup_s = median(setups);
  std::tie(run.cycles_sum, run.moves_sum) =
      answer_sums(ledger, requests.size());
  return finish(opt, ledger, run, opt.trace ? &totals : nullptr);
}

// ---------------------------------------------------------------------
// serve_repeat: NetServer on a Unix socket in front of a 2-worker
// Service, one binary-frame client connection.

/// One blocking binary-frame connection.
class FrameClient {
 public:
  explicit FrameClient(const std::string& path) {
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (path.size() >= sizeof addr.sun_path) {
      throw std::runtime_error("socket path too long: " + path);
    }
    path.copy(addr.sun_path, path.size());
    fd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd_ < 0) {
      throw std::runtime_error("cannot open a socket for " + path);
    }
    if (::connect(fd_, reinterpret_cast<const sockaddr*>(&addr),
                  sizeof addr) != 0) {
      const int err = errno;
      ::close(fd_);
      throw std::runtime_error("cannot connect to " + path + ": " +
                               std::strerror(err));
    }
  }
  ~FrameClient() { ::close(fd_); }
  FrameClient(const FrameClient&) = delete;
  FrameClient& operator=(const FrameClient&) = delete;

  /// Sends one encoded frame and returns the payload of the next frame
  /// received. Adds the bytes moved each way to *wire_bytes.
  std::string call(const std::string& frame, double* wire_bytes) {
    std::size_t sent = 0;
    while (sent < frame.size()) {
      const ssize_t n = ::send(fd_, frame.data() + sent, frame.size() - sent,
                               MSG_NOSIGNAL);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("send failed");
      }
      sent += static_cast<std::size_t>(n);
    }
    *wire_bytes += static_cast<double>(frame.size());
    for (;;) {
      const net::DecodeResult res = net::decode_frame(buf_);
      if (res.status == net::DecodeStatus::kFrame) {
        std::string payload(res.frame.payload);
        const bool response = res.frame.type == net::FrameType::kResponse;
        buf_.erase(0, res.consumed);
        *wire_bytes += static_cast<double>(res.consumed);
        if (!response) {
          throw std::runtime_error("error frame: " + payload);
        }
        return payload;
      }
      if (net::is_decode_error(res.status)) {
        throw std::runtime_error(net::decode_status_message(res.status));
      }
      char chunk[65536];
      const ssize_t n = ::read(fd_, chunk, sizeof chunk);
      if (n < 0 && errno == EINTR) {
        continue;
      }
      if (n <= 0) {
        throw std::runtime_error("connection closed");
      }
      buf_.append(chunk, static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_ = -1;
  std::string buf_;
};

constexpr int kServeWorkers = 2;
/// The ServeMix / fresh-DAG stream of the single client connection.
constexpr std::uint64_t kServeStream = 0;

/// Service + listener + one client connection, torn down in reverse.
class ServeStack {
 public:
  explicit ServeStack(const std::string& socket_path)
      : socket_path_(socket_path) {
    ServiceOptions sopts;
    sopts.num_workers = kServeWorkers;
    service_ = std::make_unique<Service>(sopts);
    net::NetServerOptions nopts;
    nopts.socket_path = socket_path;
    server_ = std::make_unique<net::NetServer>(*service_, nopts);
    serving_ = std::thread([this] { exit_code_ = server_->run(server_err_); });
    if (!server_->wait_until_listening()) {
      server_->request_shutdown();
      serving_.join();
      throw std::runtime_error("listener failed: " + server_err_.str());
    }
    try {
      client_ = std::make_unique<FrameClient>(socket_path);
    } catch (...) {
      stop();
      throw;
    }
  }
  ~ServeStack() { stop(); }
  ServeStack(const ServeStack&) = delete;
  ServeStack& operator=(const ServeStack&) = delete;

  FrameClient& client() { return *client_; }
  Service& service() { return *service_; }

 private:
  void stop() {
    client_.reset();
    server_->request_shutdown();
    serving_.join();
    ::unlink(socket_path_.c_str());
  }

  std::string socket_path_;
  std::unique_ptr<Service> service_;
  std::unique_ptr<net::NetServer> server_;
  std::ostringstream server_err_;
  int exit_code_ = 0;
  std::thread serving_;
  std::unique_ptr<FrameClient> client_;
};

struct WireAnswer {
  Answer answer;
  Binding binding;
  double queue_ms = 0.0;
  double run_ms = 0.0;
  int attempts = 1;
};

/// The field `key` of a response object; throws when it is missing, so a
/// malformed response counts as a failed request.
const JsonValue& field(const JsonValue& doc, const char* key) {
  const JsonValue* value = doc.find(key);
  if (value == nullptr) {
    throw std::runtime_error(std::string("response lacks '") + key + "'");
  }
  return *value;
}

WireAnswer parse_response(const std::string& payload, const std::string& id) {
  const JsonValue doc = JsonValue::parse(payload);
  if (field(doc, "status").as_string() != "ok") {
    throw std::runtime_error("response not ok: " + payload.substr(0, 200));
  }
  if (field(doc, "id").as_string() != id) {
    throw std::runtime_error("response for another id than " + id);
  }
  WireAnswer out;
  out.answer.latency = static_cast<int>(field(doc, "latency").as_number());
  out.answer.moves = static_cast<int>(field(doc, "moves").as_number());
  for (const JsonValue& c : field(doc, "binding").as_array()) {
    out.binding.push_back(static_cast<ClusterId>(c.as_number()));
  }
  out.queue_ms = field(doc, "queue_ms").as_number();
  out.run_ms = field(doc, "run_ms").as_number();
  if (const JsonValue* attempts = doc.find("attempts")) {
    out.attempts = static_cast<int>(attempts->as_number());
  }
  return out;
}

int run_serve(const Options& opt) {
  RunResult run;
  const std::string socket_base = opt.socket_dir + "/e2e-" +
                                  std::to_string(::getpid()) + "-";
  std::vector<double> setups;
  std::vector<BenchRequest> hot;
  std::vector<std::string> hot_frames;
  std::unique_ptr<ServeStack> stack;
  for (int k = 0; k < kSetupRepeats; ++k) {
    stack.reset();  // a previous repeat's stack is torn down untimed
    const Clock::time_point t0 = Clock::now();
    hot = table1_requests();
    hot_frames.clear();
    for (std::size_t i = 0; i < hot.size(); ++i) {
      hot_frames.push_back(net::encode_frame(
          net::FrameType::kRequest, request_json(hot[i], "h" + std::to_string(i))));
    }
    stack = std::make_unique<ServeStack>(socket_base + std::to_string(k) +
                                         ".sock");
    setups.push_back(ms_since(t0) / 1000.0);
  }
  const std::vector<std::int64_t> inputs = semantic_inputs(opt.seed);
  Ledger ledger;
  LayerTotals totals;

  // Warm-up: each hot request once, in Table 1 order, untimed. Its
  // answer is the reference every later repeat must reproduce.
  double warm_bytes = 0.0;
  for (std::size_t i = 0; i < hot.size(); ++i) {
    try {
      const WireAnswer w = parse_response(
          stack->client().call(hot_frames[i], &warm_bytes),
          "h" + std::to_string(i));
      ledger.record(hot[i].label,
                    check_binding(hot[i].request.dfg, hot[i].request.datapath,
                                  w.binding, w.answer.latency, w.answer.moves,
                                  inputs),
                    static_cast<long long>(i), w.answer);
    } catch (const std::exception& e) {
      ledger.fail(hot[i].label + ": " + e.what());
    }
  }

  // Fresh requests that were served (index in the fresh stream, answer),
  // for the traced replay.
  std::vector<std::pair<std::uint64_t, Answer>> fresh_served;

  const EvalStats engine_before = stack->service().engine().stats();
  long long samples = 0;
  const std::size_t min_samples = opt.trace ? 1 : min_samples_for(90.0);
  ServeMix mix(opt.seed, kServeStream, hot.size());
  const Clock::time_point start = Clock::now();
  for (std::uint64_t n = 0;; ++n) {
    // Measuring stops only between blocks of the mix, so every run
    // times whole blocks: the same shares of hot repeats and fresh DAGs.
    const double elapsed = ms_since(start) / 1000.0;
    if (elapsed >= kMaxMeasureSeconds ||
        (n % kServeBlock == 0 && elapsed >= opt.seconds &&
         static_cast<std::size_t>(samples) >= min_samples)) {
      break;
    }
    // Hot repeats resend the identical pre-encoded frame, as a build
    // system resends an unchanged compile job; fresh DAGs are built
    // and encoded before their timer starts.
    const ServeMix::Pick pick = mix.next();
    const std::string id = pick.fresh ? "f" + std::to_string(n)
                                      : "h" + std::to_string(pick.hot);
    BenchRequest fresh;
    std::string fresh_frame;
    const BenchRequest& r = pick.fresh ? fresh : hot[pick.hot];
    try {
      if (pick.fresh) {
        fresh = fresh_request(opt.seed, kServeStream, pick.fresh_index);
        fresh_frame = net::encode_frame(net::FrameType::kRequest,
                                        request_json(fresh, id));
      }
      const std::string& frame =
          pick.fresh ? fresh_frame : hot_frames[pick.hot];
      double bytes = 0.0;
      const Clock::time_point t0 = Clock::now();
      const std::string payload = stack->client().call(frame, &bytes);
      const double client_ms = ms_since(t0);
      const WireAnswer w = parse_response(payload, id);
      const Verdict verdict =
          check_binding(r.request.dfg, r.request.datapath, w.binding,
                        w.answer.latency, w.answer.moves, inputs);
      const double ms = ms_since(t0);
      ledger.record(r.label, verdict,
                    pick.fresh ? -1 : static_cast<long long>(pick.hot),
                    w.answer);
      ++samples;
      // With tracing on, even-numbered requests also record their
      // layer breakdown; odd ones are the untraced comparison.
      if (!opt.trace) {
        ledger.sample(ms);
      } else if (n % 2 == 1) {
        totals.untraced_ms.push_back(ms);
      } else {
        totals.traced_ms.push_back(ms);
        totals.queue_ms.push_back(w.queue_ms);
        totals.run_ms.push_back(w.run_ms);
        totals.transport_ms.push_back(client_ms - w.queue_ms - w.run_ms);
        totals.wire_bytes += bytes;
        totals.retries += w.attempts - 1;
        ++totals.served;
      }
      if (opt.trace && pick.fresh) {
        fresh_served.push_back({pick.fresh_index, w.answer});
      }
    } catch (const std::exception& e) {
      ledger.fail(r.label + ": " + e.what());
      break;  // the connection's state is unknown; stop measuring
    }
  }
  run.wall_s = ms_since(start) / 1000.0;
  run.peak_rss_mb = peak_rss_mb();
  const EvalStats engine_stats =
      stack->service().engine().stats().since(engine_before);
  stack.reset();

  if (opt.trace) {
    // The service's engine is bench-owned and served only this run's
    // traffic, so its counters over the window are exact totals.
    totals.eval = engine_stats;
    totals.requests = samples;
    // Fidelity: every distinct request served, replayed layer by layer
    // through bind_full on a private engine, must give the same (L, M).
    LayerTotals replay;
    for (std::size_t i = 0; i < hot.size(); ++i) {
      if (const Answer* served = ledger.answer(static_cast<long long>(i))) {
        Answer got = traced_bind_full(hot[i], inputs, ledger, replay, false);
        got.candidates = -1;
        if (!(got == *served)) {
          ledger.fail(hot[i].label + ": replay gave " + describe(got) +
                      ", served " + describe(*served));
        }
      }
    }
    for (const auto& [index, served] : fresh_served) {
      const BenchRequest r = fresh_request(opt.seed, kServeStream, index);
      Answer got = traced_bind_full(r, inputs, ledger, replay, false);
      got.candidates = -1;
      if (!(got == served)) {
        ledger.fail(r.label + ": replay gave " + describe(got) + ", served " +
                    describe(served));
      }
    }
  }
  run.setup_s = median(setups);
  std::tie(run.cycles_sum, run.moves_sum) = answer_sums(ledger, hot.size());
  return finish(opt, ledger, run, opt.trace ? &totals : nullptr);
}

// ---------------------------------------------------------------------

int usage(const std::string& why) {
  std::cerr << "cvb_e2e: " << why
            << "\nusage: cvb_e2e --workload suite_cold_t1|serve_repeat|"
               "portfolio_race --seed N --seconds S --trace 0|1 "
               "[--socket-dir DIR]\n";
  return 2;
}

int run_main(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) {
      return usage("missing value for " + flag);
    }
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        opt.workload = value;
      } else if (flag == "--seed") {
        opt.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        opt.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace takes 0 or 1");
        }
        opt.trace = value == "1";
      } else if (flag == "--socket-dir") {
        opt.socket_dir = value;
      } else {
        return usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      return usage("bad value for " + flag + ": " + value);
    }
  }
  if (!(opt.seconds > 0.0)) {
    return usage("--seconds must be positive");
  }
  if (opt.workload == "suite_cold_t1") {
    return run_in_process(
        opt, [] { return suite_requests(1); }, true,
        [](const BenchRequest& r, const std::vector<std::int64_t>& inputs,
           Ledger& ledger, LayerTotals& totals) {
          return traced_bind_full(r, inputs, ledger, totals, true);
        });
  }
  if (opt.workload == "portfolio_race") {
    return run_in_process(opt, portfolio_requests, false, traced_portfolio);
  }
  if (opt.workload == "serve_repeat") {
    return run_serve(opt);
  }
  return usage("unknown workload '" + opt.workload + "'");
}

}  // namespace
}  // namespace cvb::e2e

int main(int argc, char** argv) {
  try {
    return cvb::e2e::run_main(argc, argv);
  } catch (const std::exception& e) {
    std::cerr << "cvb_e2e: " << e.what() << "\n";
    return 2;
  }
}
