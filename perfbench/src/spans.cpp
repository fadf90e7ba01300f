#include "spans.hpp"

#include <algorithm>
#include <chrono>
#include <fstream>

#include "perfeng/common/error.hpp"

namespace perfbench {

std::uint64_t now_ns() {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

std::uint64_t covered_ns(
    std::uint64_t start, std::uint64_t end,
    std::vector<std::pair<std::uint64_t, std::uint64_t>> intervals) {
  std::sort(intervals.begin(), intervals.end());
  std::uint64_t covered = 0;
  std::uint64_t reach = start;  // everything before `reach` is counted
  for (auto [lo, hi] : intervals) {
    lo = std::max(lo, reach);
    hi = std::min(hi, end);
    if (lo >= hi) continue;
    covered += hi - lo;
    reach = hi;
  }
  return covered;
}

std::size_t SpanLog::add(const char* name, std::uint64_t start_ns,
                         std::uint64_t end_ns, std::uint64_t id,
                         std::int64_t parent) {
  PE_REQUIRE(start_ns <= end_ns, "span ends before it starts");
  PE_REQUIRE(parent < static_cast<std::int64_t>(spans_.size()),
             "span parent must be added first");
  spans_.push_back({name, start_ns, end_ns, id, parent});
  return spans_.size() - 1;
}

std::vector<std::uint64_t> SpanLog::self_times() const {
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>> children(
      spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0)
      children[static_cast<std::size_t>(s.parent)].emplace_back(s.start_ns,
                                                                s.end_ns);
  }
  std::vector<std::uint64_t> self(spans_.size());
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    self[i] = (s.end_ns - s.start_ns) -
              covered_ns(s.start_ns, s.end_ns, std::move(children[i]));
  }
  return self;
}

void SpanLog::write(const std::string& path,
                    const std::string& header_json) const {
  std::ofstream out(path);
  PE_REQUIRE(out.good(), "cannot open span file " + path);
  out << header_json << '\n';
  const std::vector<std::uint64_t> self = self_times();
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"i\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"id\":" << s.id << ",\"parent\":" << s.parent
        << ",\"self_ns\":" << self[i] << "}\n";
  }
  PE_REQUIRE(out.good(), "failed writing span file " + path);
}

}  // namespace perfbench
