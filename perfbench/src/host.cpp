#include "host.hpp"

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace perfbench {

namespace {

std::string read_line(const std::filesystem::path& path) {
  std::ifstream in(path);
  std::string line;
  std::getline(in, line);
  return line;
}

unsigned affinity_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int n = CPU_COUNT(&set);
    if (n > 0) return static_cast<unsigned>(n);
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

}  // namespace

std::size_t parse_cache_size(const std::string& text) {
  std::size_t value = 0;
  std::size_t i = 0;
  while (i < text.size() && text[i] >= '0' && text[i] <= '9') {
    value = value * 10 + static_cast<std::size_t>(text[i] - '0');
    ++i;
  }
  if (i == 0) return 0;
  if (i == text.size()) return value;
  switch (text[i]) {
    case 'K': return value << 10;
    case 'M': return value << 20;
    case 'G': return value << 30;
    default: return 0;
  }
}

Host describe_host() {
  Host host;
  host.nproc = affinity_cpus();
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) == 0) {
      const std::size_t colon = line.find(':');
      if (colon != std::string::npos && colon + 2 <= line.size())
        host.cpu_model = line.substr(colon + 2);
      break;
    }
  }
  if (host.cpu_model.empty()) host.cpu_model = "unknown";
  const std::filesystem::path cache_dir = "/sys/devices/system/cpu/cpu0/cache";
  std::error_code ec;
  for (int index = 0;; ++index) {
    const std::filesystem::path dir =
        cache_dir / ("index" + std::to_string(index));
    if (!std::filesystem::exists(dir, ec)) break;
    CacheLevel c;
    c.level = std::atoi(read_line(dir / "level").c_str());
    c.type = read_line(dir / "type");
    c.bytes = parse_cache_size(read_line(dir / "size"));
    if (c.type != "Instruction") host.llc_bytes = std::max(host.llc_bytes, c.bytes);
    host.caches.push_back(c);
  }
  return host;
}

std::string host_json(const Host& host) {
  std::ostringstream out;
  std::string model;
  for (const char ch : host.cpu_model)
    if (ch != '"' && ch != '\\') model += ch;
  out << "{\"nproc\":" << host.nproc << ",\"cpu_model\":\"" << model
      << "\",\"llc_bytes\":" << host.llc_bytes << ",\"caches\":[";
  for (std::size_t i = 0; i < host.caches.size(); ++i) {
    const CacheLevel& c = host.caches[i];
    out << (i ? "," : "") << "{\"level\":" << c.level << ",\"type\":\""
        << c.type << "\",\"bytes\":" << c.bytes << "}";
  }
  out << "]}";
  return out.str();
}

std::size_t live_threads() {
  std::size_t n = 0;
  std::error_code ec;
  for (std::filesystem::directory_iterator it("/proc/self/task", ec), end;
       !ec && it != end; it.increment(ec))
    ++n;
  return n;
}

double peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

std::size_t pool_workers(unsigned nproc) {
  return nproc > 1 ? nproc - 1 : 1;
}

void ThreadBudget::sample() { max_seen_ = std::max(max_seen_, live_threads()); }

}  // namespace perfbench
