// The request streams of the benchmark's workloads (README.md explains
// why each exists). Everything here is a pure function of its
// arguments: the same seed yields byte-identical requests, so two runs
// of one workload and seed send the program exactly the same inputs.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "api/request.hpp"
#include "support/rng.hpp"

namespace cvb::e2e {

/// One bind request plus the wire-level description it was built from.
struct BenchRequest {
  std::string label;  ///< "DCT-DIF [1,1|1,1] nb=2 ml=1", "rand n=41 ..."
  std::string datapath_spec;
  int buses = 2;
  int move_latency = 1;
  BindRequest request;
};

/// The 33 Table 1 rows then the 4 Table 2 rows (paper order), b-iter at
/// balanced effort, evaluated with `num_threads` threads.
[[nodiscard]] std::vector<BenchRequest> suite_requests(int num_threads);

/// The 33 Table 1 rows only (serve_repeat's hot set, hottest first).
[[nodiscard]] std::vector<BenchRequest> table1_requests();

/// ARF, EWF, FFT, DCT-DIF, DCT-LEE and DCT-DIT on two datapaths each,
/// raced by the default portfolio (b-iter, b-init, pcc, sa) on one
/// racing thread.
[[nodiscard]] std::vector<BenchRequest> portfolio_requests();

/// A fresh random layered DAG of 30-60 ops on one of four small
/// datapaths, b-iter at balanced effort: request `index` of the stream
/// `stream`. Sizes are stratified: every kServeBlock requests of a
/// stream use each of kFreshPerBlock sizes spread evenly over 30-60
/// once, in seeded order, so runs with different seeds see the same
/// mix of graph sizes.
[[nodiscard]] BenchRequest fresh_request(std::uint64_t seed,
                                         std::uint64_t stream,
                                         std::uint64_t index);

/// Seeded permutation of 0..n-1 for pass `pass` of a suite workload.
[[nodiscard]] std::vector<std::size_t> pass_order(std::size_t n,
                                                  std::uint64_t seed,
                                                  std::uint64_t pass);

/// serve_repeat's per-client request mix, drawn in shuffled blocks of
/// kServeBlock: kFreshPerBlock fresh DAGs and the rest repeats of the
/// hot set, split over its ranks in Zipf(1) proportions (rank 0
/// hottest). Blocking keeps the mix itself the same for every seed;
/// the seed picks the order.
inline constexpr std::size_t kServeBlock = 100;
inline constexpr std::size_t kFreshPerBlock = 30;

class ServeMix {
 public:
  struct Pick {
    bool fresh = false;
    std::size_t hot = 0;          ///< hot-set index when !fresh
    std::uint64_t fresh_index = 0;  ///< index into the client's fresh stream
  };

  ServeMix(std::uint64_t seed, std::uint64_t client, std::size_t hot_count);
  Pick next();

 private:
  Rng rng_;
  std::vector<std::size_t> block_;  ///< hot index, or hot_count for fresh
  std::size_t pos_ = 0;
  std::size_t hot_count_;
  std::uint64_t fresh_drawn_ = 0;
};

/// The NDJSON/binary-frame request object for `r` (inline graph text,
/// datapath, typed strategy), carrying `id`.
[[nodiscard]] std::string request_json(const BenchRequest& r,
                                       const std::string& id);

}  // namespace cvb::e2e
