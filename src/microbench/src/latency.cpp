#include "perfeng/microbench/latency.hpp"

#include <algorithm>
#include <numeric>

#include "perfeng/common/aligned_buffer.hpp"
#include "perfeng/common/error.hpp"
#include "perfeng/common/rng.hpp"

namespace pe::microbench {

namespace {

/// Dependent loads per kernel call: ~0.7 ms at the ~165 ns of a 32 MiB
/// set, so batch calibration stops after a call or two, and still ~8 us
/// at the ~2 ns of an L1-resident set, far above the call's own overhead.
constexpr std::size_t kHopsPerCall = 4096;

/// Slots in a working set of `bytes`: rounded down to whole pointers, at
/// least 64.
std::size_t slots(std::size_t bytes) {
  return std::max<std::size_t>(64, bytes / sizeof(void*));
}

/// Room for pointer chains of up to `capacity` slots, the visiting order
/// that links one, and the chase's position in it.
struct Chase {
  explicit Chase(std::size_t capacity) : chain(capacity), order(capacity) {}
  AlignedBuffer<const void*> chain;
  std::vector<std::size_t> order;
  const void* cursor = nullptr;
};

/// Follow `hops` links from `p`; returns where the chase stopped.
const void* hop(const void* p, std::size_t hops) {
  for (std::size_t i = 0; i < hops; ++i)
    p = *static_cast<const void* const*>(p);
  return p;
}

/// Measure a working set of `bytes` in the first slots of `chase`.
LatencyPoint measure(std::size_t bytes, Chase& chase,
                     const BenchmarkRunner& runner, std::uint64_t seed) {
  const std::size_t count = slots(bytes);
  AlignedBuffer<const void*>& chain = chase.chain;
  std::vector<std::size_t>& order = chase.order;

  // Build a single random cycle (Sattolo's algorithm) so the chase visits
  // every slot exactly once before wrapping.
  std::iota(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(count),
            std::size_t{0});
  Rng rng(seed);
  for (std::size_t i = count - 1; i > 0; --i) {
    const std::size_t j = static_cast<std::size_t>(rng.next_range(0, i - 1));
    std::swap(order[i], order[j]);
  }
  for (std::size_t i = 0; i + 1 < count; ++i)
    chain[order[i]] = &chain[order[i + 1]];
  chain[order[count - 1]] = &chain[order[0]];

  // One untimed lap: from here on every hop lands on a line last touched
  // one lap earlier, the steady state the header defines.
  chase.cursor = hop(&chain[order[0]], count);

  // Each call resumes where the previous one stopped.
  const Measurement m =
      runner.run("latency " + std::to_string(bytes) + "B", [&chase] {
        chase.cursor = hop(chase.cursor, kHopsPerCall);
      });
  LatencyPoint point;
  point.bytes = count * sizeof(void*);
  point.seconds_per_load = m.best() / static_cast<double>(kHopsPerCall);
  return point;
}

}  // namespace

LatencyPoint run_latency(std::size_t bytes, const BenchmarkRunner& runner,
                         std::uint64_t seed) {
  Chase chase(slots(bytes));
  return measure(bytes, chase, runner, seed);
}

std::vector<LatencyPoint> latency_sweep(std::size_t min_bytes,
                                        std::size_t max_bytes,
                                        const BenchmarkRunner& runner,
                                        std::uint64_t seed) {
  PE_REQUIRE(min_bytes <= max_bytes, "empty sweep range");
  // One chain and order, sized for the largest point, serve every point.
  // At 32 MiB and up glibc maps them outside its heap and unmaps them when
  // the sweep ends. Per-point chains let the runner's small allocations pin
  // freed chains in glibc's heap: 10-50 MiB stayed resident after a sweep
  // and added to the next STREAM run's peak.
  Chase chase(slots(max_bytes));
  std::vector<LatencyPoint> sweep;
  for (std::size_t b = min_bytes; b <= max_bytes; b *= 2) {
    sweep.push_back(measure(b, chase, runner, seed));
    if (b > max_bytes / 2) break;  // avoid overflow of b *= 2
  }
  return sweep;
}

std::vector<std::size_t> detect_cache_levels(
    const std::vector<LatencyPoint>& sweep, double jump_ratio) {
  PE_REQUIRE(jump_ratio > 1.0, "jump ratio must exceed 1");
  std::vector<std::size_t> knees;
  for (std::size_t i = 0; i + 1 < sweep.size(); ++i) {
    if (sweep[i].seconds_per_load <= 0.0) continue;
    const double ratio =
        sweep[i + 1].seconds_per_load / sweep[i].seconds_per_load;
    if (ratio >= jump_ratio) knees.push_back(sweep[i].bytes);
  }
  return knees;
}

}  // namespace pe::microbench
