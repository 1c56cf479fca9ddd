#include "requests.hpp"

#include <algorithm>
#include <sstream>
#include <utility>

#include "io/dfg_text.hpp"
#include "kernels/kernels.hpp"
#include "machine/parser.hpp"
#include "support/json.hpp"

namespace cvb::e2e {

namespace {

struct Rows {
  std::string kernel;
  std::vector<std::string> datapaths;
};

// Exactly the configurations of the paper's Table 1, in its order
// (N_B = 2 buses, lat(move) = 1).
const std::vector<Rows> kTable1 = {
    {"DCT-DIF", {"[1,1|1,1]", "[2,1|2,1]", "[2,1|1,1]", "[1,1|1,1|1,1]"}},
    {"DCT-LEE",
     {"[1,1|1,1]", "[2,1|2,1]", "[2,1|1,1]", "[2,2|2,1]", "[1,1|1,1|1,1]"}},
    {"DCT-DIT",
     {"[1,1|1,1]", "[2,1|2,1]", "[1,1|1,1|1,1]", "[2,1|2,1|1,1]",
      "[3,1|2,2|1,3]", "[1,1|1,1|1,1|1,1]"}},
    {"DCT-DIT-2",
     {"[1,1|1,1]", "[2,1|2,1]", "[1,1|1,1|1,1]", "[3,1|2,2|1,3]",
      "[1,1|1,1|1,1|1,1]"}},
    {"FFT",
     {"[1,1|1,1]", "[2,1|2,1]", "[1,1|1,1|1,1]", "[2,1|2,1|1,2]",
      "[3,2|3,1|1,3]", "[1,1|1,1|1,1|1,1]"}},
    {"EWF",
     {"[1,1|1,1]", "[2,1|2,1]", "[2,1|1,1]", "[1,1|1,1|1,1]",
      "[2,2|2,1|1,1]"}},
    {"ARF", {"[1,1|1,1]", "[1,2|1,2]"}},
};

// Table 2: FFT on one 5-cluster datapath, sweeping (N_B, lat(move)).
const char* const kTable2Datapath = "[2,2|2,1|2,2|3,1|1,1]";
const int kTable2Sweep[4][2] = {{1, 1}, {2, 1}, {1, 2}, {2, 2}};

// The datapaths fresh serve_repeat DAGs are bound to.
const char* const kFreshDatapaths[] = {"[1,1|1,1]", "[2,1|2,1]", "[2,1|1,1]",
                                       "[1,1|1,1|1,1]"};

/// 64-bit mix of (a, b): the SplitMix64 finalizer over a ^ golden * (b+1).
std::uint64_t mix_seed(std::uint64_t a, std::uint64_t b) {
  std::uint64_t z = a ^ (0x9E3779B97F4A7C15ULL * (b + 1));
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
  return z ^ (z >> 31);
}

BenchRequest make_request(const std::string& label, Dfg dfg,
                          const std::string& spec, int buses,
                          int move_latency) {
  BenchRequest r;
  r.label = label + " " + spec + " nb=" + std::to_string(buses) +
            " ml=" + std::to_string(move_latency);
  r.datapath_spec = spec;
  r.buses = buses;
  r.move_latency = move_latency;
  r.request.dfg = std::move(dfg);
  r.request.datapath = parse_datapath(spec, buses, move_latency);
  r.request.strategy = {StrategyKind::kBIter, BindEffort::kBalanced, 1};
  r.request.strategy_explicit = true;
  return r;
}

}  // namespace

std::vector<BenchRequest> table1_requests() {
  std::vector<BenchRequest> out;
  for (const Rows& rows : kTable1) {
    const BenchmarkKernel kernel = benchmark_by_name(rows.kernel);
    for (const std::string& spec : rows.datapaths) {
      out.push_back(make_request(rows.kernel, kernel.dfg, spec, 2, 1));
    }
  }
  return out;
}

std::vector<BenchRequest> suite_requests(int num_threads) {
  std::vector<BenchRequest> out = table1_requests();
  const BenchmarkKernel fft = benchmark_by_name("FFT");
  for (const auto& [buses, move_latency] : kTable2Sweep) {
    out.push_back(
        make_request("FFT", fft.dfg, kTable2Datapath, buses, move_latency));
  }
  for (BenchRequest& r : out) {
    r.request.num_threads = num_threads;
  }
  return out;
}

std::vector<BenchRequest> portfolio_requests() {
  const std::vector<std::pair<std::string, std::vector<std::string>>> rows = {
      {"ARF", {"[1,1|1,1]", "[1,2|1,2]"}},
      {"EWF", {"[1,1|1,1]", "[2,1|2,1]"}},
      {"FFT", {"[1,1|1,1]", "[2,1|2,1]"}},
      {"DCT-DIF", {"[1,1|1,1]", "[2,1|2,1]"}},
      {"DCT-LEE", {"[1,1|1,1]", "[2,1|2,1]"}},
      {"DCT-DIT", {"[1,1|1,1]", "[2,1|2,1]"}},
  };
  std::vector<BenchRequest> out;
  for (const auto& [name, specs] : rows) {
    const BenchmarkKernel kernel = benchmark_by_name(name);
    for (const std::string& spec : specs) {
      BenchRequest r = make_request(name, kernel.dfg, spec, 2, 1);
      r.request.portfolio = default_portfolio();
      // One racing thread: the answer is the same for every thread count,
      // and the race takes about as long as with one thread per member,
      // because SA runs for the whole race.
      r.request.portfolio_policy.race_threads = 1;
      out.push_back(std::move(r));
    }
  }
  return out;
}

BenchRequest fresh_request(std::uint64_t seed, std::uint64_t stream,
                           std::uint64_t index) {
  const std::uint64_t stream_seed = mix_seed(seed, stream);
  const std::size_t rank = pass_order(kFreshPerBlock, stream_seed,
                                      index / kFreshPerBlock)[index %
                                                              kFreshPerBlock];
  Rng rng(mix_seed(stream_seed, index));
  RandomDagParams params;
  params.num_ops = 30 + static_cast<int>(rank * 30 / (kFreshPerBlock - 1));
  params.num_layers = std::max(3, params.num_ops / 6);
  const char* spec = kFreshDatapaths[rank % 4];
  // The graph exactly as a service parses it from the request text. The
  // text form lists each op's operands in op order, not in the
  // generator's edge order, and the binder's tie-breaks follow adjacency
  // order, so only the parsed graph reproduces the served (L, M).
  std::ostringstream text;
  write_dfg_text(text, make_random_layered(params, rng), "e2e");
  std::istringstream in(text.str());
  Dfg dfg = parse_dfg_text(in).dfg;
  return make_request("rand n=" + std::to_string(params.num_ops) + " s=" +
                          std::to_string(stream) + "." + std::to_string(index),
                      std::move(dfg), spec, 2, 1);
}

std::vector<std::size_t> pass_order(std::size_t n, std::uint64_t seed,
                                    std::uint64_t pass) {
  std::vector<std::size_t> order(n);
  for (std::size_t i = 0; i < n; ++i) {
    order[i] = i;
  }
  Rng rng(mix_seed(seed, pass));
  for (std::size_t i = n; i > 1; --i) {  // Fisher-Yates
    const auto j =
        static_cast<std::size_t>(rng.uniform_int(0, static_cast<int>(i) - 1));
    std::swap(order[i - 1], order[j]);
  }
  return order;
}

ServeMix::ServeMix(std::uint64_t seed, std::uint64_t client,
                   std::size_t hot_count)
    : rng_(mix_seed(seed, 0x5e7e0000ULL + client)), hot_count_(hot_count) {
  // Largest-remainder split of the block's hot slots over the ranks.
  const std::size_t hot_slots = kServeBlock - kFreshPerBlock;
  double harmonic = 0.0;
  for (std::size_t i = 0; i < hot_count; ++i) {
    harmonic += 1.0 / static_cast<double>(i + 1);
  }
  std::vector<std::pair<double, std::size_t>> remainders;
  std::size_t assigned = 0;
  for (std::size_t i = 0; i < hot_count; ++i) {
    const double share = static_cast<double>(hot_slots) /
                         (static_cast<double>(i + 1) * harmonic);
    const auto whole = static_cast<std::size_t>(share);
    block_.insert(block_.end(), whole, i);
    assigned += whole;
    remainders.emplace_back(share - static_cast<double>(whole), i);
  }
  std::stable_sort(remainders.begin(), remainders.end(),
                   [](const auto& a, const auto& b) { return a.first > b.first; });
  for (std::size_t k = 0; assigned + k < hot_slots; ++k) {
    block_.push_back(remainders[k].second);
  }
  block_.insert(block_.end(), kFreshPerBlock, hot_count);
  pos_ = block_.size();
}

ServeMix::Pick ServeMix::next() {
  if (pos_ == block_.size()) {
    for (std::size_t i = block_.size(); i > 1; --i) {  // Fisher-Yates
      const auto j = static_cast<std::size_t>(
          rng_.uniform_int(0, static_cast<int>(i) - 1));
      std::swap(block_[i - 1], block_[j]);
    }
    pos_ = 0;
  }
  Pick pick;
  const std::size_t slot = block_[pos_++];
  if (slot == hot_count_) {
    pick.fresh = true;
    pick.fresh_index = fresh_drawn_++;
  } else {
    pick.hot = slot;
  }
  return pick;
}

std::string request_json(const BenchRequest& r, const std::string& id) {
  std::ostringstream dfg;
  write_dfg_text(dfg, r.request.dfg, "e2e");
  JsonValue strategy = JsonValue::object();
  strategy.set("kind", std::string(r.request.strategy.name()));
  strategy.set("effort", to_string(r.request.strategy.effort));
  JsonValue doc = JsonValue::object();
  doc.set("id", id);
  doc.set("dfg", dfg.str());
  doc.set("datapath", r.datapath_spec);
  doc.set("buses", r.buses);
  doc.set("move_latency", r.move_latency);
  doc.set("strategy", std::move(strategy));
  return doc.dump();
}

}  // namespace cvb::e2e
