#pragma once

/// \file host.hpp
/// Provenance of the host that ran the benchmark, read from the host
/// itself (never from a machine preset), and the thread budget.

#include <cstddef>
#include <string>
#include <vector>

namespace perfbench {

/// One cache of cpu0 as sysfs reports it.
struct CacheLevel {
  int level = 0;
  std::string type;  ///< "Data", "Instruction", "Unified"
  std::size_t bytes = 0;
};

struct Host {
  unsigned nproc = 1;  ///< CPUs in this process's affinity mask
  std::string cpu_model;
  std::vector<CacheLevel> caches;
  std::size_t llc_bytes = 0;  ///< largest data/unified cache; 0 = unknown
};

/// Read nproc, /proc/cpuinfo's model name and cpu0's sysfs caches.
[[nodiscard]] Host describe_host();

/// Parse a sysfs cache size ("48K", "2048K", "300M"); 0 if malformed.
[[nodiscard]] std::size_t parse_cache_size(const std::string& text);

/// One-line JSON object with the host's provenance fields.
[[nodiscard]] std::string host_json(const Host& host);

/// Threads of this process right now (entries of /proc/self/task).
[[nodiscard]] std::size_t live_threads();

/// Peak resident set size of this process so far, in MiB (getrusage).
[[nodiscard]] double peak_rss_mib();

/// Pool workers for a pool whose calling thread is also a lane: nproc - 1,
/// so workers plus caller stay within nproc (at least one worker).
[[nodiscard]] std::size_t pool_workers(unsigned nproc);

/// Tracks the most threads seen at any sample against a limit of nproc.
class ThreadBudget {
 public:
  explicit ThreadBudget(unsigned limit) : limit_(limit) {}
  void sample();
  [[nodiscard]] std::size_t max_seen() const { return max_seen_; }
  [[nodiscard]] unsigned limit() const { return limit_; }
  [[nodiscard]] bool held() const { return max_seen_ <= limit_; }

 private:
  unsigned limit_;
  std::size_t max_seen_ = 0;
};

}  // namespace perfbench
