#include "perfeng/analysis/access_checker.hpp"

#include <algorithm>
#include <cstddef>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "perfeng/common/error.hpp"

namespace pe::analysis {

namespace {

/// Active-chunk stack of the calling thread. A stack (not a single slot)
/// so nested parallel loops attribute records to the innermost chunk.
/// Process-wide is safe: only one checker can be installed at a time.
thread_local std::vector<void*> t_active_chunks;

std::string where_string(const char* file, unsigned line) {
  if (file == nullptr || *file == '\0') return "<unknown>";
  return std::string(file) + ":" + std::to_string(line);
}

}  // namespace

std::size_t AccessChecker::begin_loop(std::size_t /*begin*/,
                                      std::size_t /*end*/) noexcept {
  // begin_loop fires on the launching thread, so the innermost chunk on
  // this thread's stack — if any — is the chunk the new loop is nested
  // inside; its path becomes the new loop's prefix.
  LoopInfo info;
  if (!t_active_chunks.empty())
    info.prefix =
        static_cast<ChunkLog*>(t_active_chunks.back())->id.path;
  std::lock_guard lock(mutex_);
  ++loops_;
  loop_infos_.push_back(std::move(info));
  return loops_;  // 1-based token; 0 stays "no loop"
}

void AccessChecker::end_loop(std::size_t /*loop_token*/) noexcept {}

void AccessChecker::begin_chunk(std::size_t loop_token, std::size_t lo,
                                std::size_t hi, std::size_t lane) noexcept {
  ChunkLog* log = nullptr;
  {
    std::lock_guard lock(mutex_);
    chunks_.emplace_back();
    log = &chunks_.back();
    log->id.loop = loop_token;
    log->id.index = next_chunk_++;
    log->id.lo = lo;
    log->id.hi = hi;
    log->id.lane = lane;
    if (loop_token >= 1 && loop_token <= loop_infos_.size())
      log->id.path = loop_infos_[loop_token - 1].prefix;
    log->id.path.push_back({loop_token, log->id.index});
  }
  t_active_chunks.push_back(log);
}

void AccessChecker::end_chunk() noexcept {
  if (!t_active_chunks.empty()) t_active_chunks.pop_back();
}

void AccessChecker::record(const void* base, std::size_t lo_byte,
                           std::size_t hi_byte, bool is_write,
                           const char* tag, const char* file,
                           unsigned line) noexcept {
  if (lo_byte >= hi_byte) return;  // empty ranges carry no information
  if (t_active_chunks.empty()) {
    // Outside any chunk: sequential with every loop, so never a race.
    unscoped_records_.fetch_add(1, std::memory_order_relaxed);
    return;
  }
  auto& log = *static_cast<ChunkLog*>(t_active_chunks.back());
  // The log belongs to this thread until end_chunk, so no lock. Coalesce
  // with the previous interval when a sequential sweep extends it.
  if (!log.intervals.empty()) {
    Interval& last = log.intervals.back();
    if (last.base == base && last.write == is_write && last.tag == tag &&
        lo_byte <= last.hi_byte && lo_byte >= last.lo_byte) {
      last.hi_byte = std::max(last.hi_byte, hi_byte);
      return;
    }
  }
  log.intervals.push_back({base, tag, lo_byte, hi_byte, is_write, file,
                           line});
}

RaceReport AccessChecker::report() const {
  RaceReport rep;
  std::lock_guard lock(mutex_);
  rep.loops = loops_;
  rep.chunks = chunks_.size();
  rep.unscoped_records = unscoped_records_.load(std::memory_order_relaxed);

  // Group intervals by (root loop, buffer): everything under one
  // top-level loop shares a concurrency scope (nested loops included);
  // different root loops are barrier-separated. Whether two chunks in a
  // group can actually race is decided per pair from their nesting paths.
  struct Item {
    const Interval* iv;
    const ChunkLog* chunk;
  };
  std::map<std::pair<std::size_t, const void*>, std::vector<Item>> groups;
  for (const ChunkLog& chunk : chunks_) {
    rep.intervals += chunk.intervals.size();
    const std::size_t root =
        chunk.id.path.empty() ? chunk.id.loop : chunk.id.path.front().loop;
    for (const Interval& iv : chunk.intervals)
      groups[{root, iv.base}].push_back({&iv, &chunk});
  }

  for (auto& [key, items] : groups) {
    std::sort(items.begin(), items.end(), [](const Item& a, const Item& b) {
      return a.iv->lo_byte < b.iv->lo_byte;
    });
    // Left-to-right sweep with an active set; one conflict per chunk pair.
    std::vector<Item> active;
    std::set<std::pair<std::size_t, std::size_t>> reported;
    for (const Item& item : items) {
      std::erase_if(active, [&](const Item& a) {
        return a.iv->hi_byte <= item.iv->lo_byte;
      });
      for (const Item& other : active) {
        if (other.chunk == item.chunk) continue;
        if (!other.iv->write && !item.iv->write) continue;
        if (!chunks_may_race(other.chunk->id, item.chunk->id)) continue;
        const auto pair = std::minmax(other.chunk->id.index,
                                      item.chunk->id.index);
        if (!reported.insert(pair).second) continue;
        // Deterministic order: the lower chunk index reports first.
        const Item& first =
            other.chunk->id.index < item.chunk->id.index ? other : item;
        const Item& second = &first == &other ? item : other;
        Conflict c;
        c.buffer = item.iv->tag != nullptr ? item.iv->tag : "<unnamed>";
        c.base = key.second;
        c.lo_byte = std::max(other.iv->lo_byte, item.iv->lo_byte);
        c.hi_byte = std::min(other.iv->hi_byte, item.iv->hi_byte);
        c.write_write = other.iv->write && item.iv->write;
        c.same_lane = other.chunk->id.lane == item.chunk->id.lane;
        c.first = first.chunk->id;
        c.second = second.chunk->id;
        c.first_where = where_string(first.iv->file, first.iv->line);
        c.second_where = where_string(second.iv->file, second.iv->line);
        rep.conflicts.push_back(std::move(c));
      }
      active.push_back(item);
    }
  }

  std::sort(rep.conflicts.begin(), rep.conflicts.end(),
            [](const Conflict& a, const Conflict& b) {
              if (a.first.loop != b.first.loop)
                return a.first.loop < b.first.loop;
              if (a.first.index != b.first.index)
                return a.first.index < b.first.index;
              return a.second.index < b.second.index;
            });
  return rep;
}

void AccessChecker::reset() {
  std::lock_guard lock(mutex_);
  PE_REQUIRE(t_active_chunks.empty(),
             "reset while a chunk is active on this thread");
  chunks_.clear();
  loop_infos_.clear();
  next_chunk_ = 0;
  loops_ = 0;
  unscoped_records_.store(0, std::memory_order_relaxed);
}

}  // namespace pe::analysis
