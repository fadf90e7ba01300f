#include "perfeng/resilience/fault_injection.hpp"

#include <chrono>
#include <thread>

namespace pe::resilience {

namespace {

/// FNV-1a, so per-site RNG streams are stable across platforms (std::hash
/// is implementation-defined).
std::uint64_t hash_site(std::string_view site) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : site) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace

FaultInjected::FaultInjected(std::string site, int visit,
                             const std::string& message)
    : Error(message.empty()
                ? "injected fault at '" + site + "' (visit " +
                      std::to_string(visit) + ")"
                : message),
      site_(std::move(site)),
      visit_(visit) {}

std::vector<std::string_view> FaultInjector::known_sites() {
  return known_fault_sites();
}

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  for (const FaultSpec& spec : plan_.faults) {
    PE_REQUIRE(!spec.site.empty(), "fault spec needs a site name");
    if (!is_known_fault_site(spec.site)) {
      std::string msg = "fault spec names unknown site '" + spec.site +
                        "'; known sites:";
      for (const std::string_view known : known_fault_sites()) {
        msg.append(" ").append(known);
      }
      msg.append(
          " (register additional sites with pe::register_fault_site)");
      throw Error(msg);
    }
    PE_REQUIRE(spec.probability >= 0.0 && spec.probability <= 1.0,
               "fault probability must be in [0, 1]");
    PE_REQUIRE(spec.skip_first >= 0, "skip_first must be non-negative");
    PE_REQUIRE(spec.delay_seconds >= 0.0, "delay must be non-negative");
    require_unique_name(sites_, spec.site, "fault spec site",
                        [](const auto& kv) -> const std::string& {
                          return kv.first;
                        });
    SiteState state;
    state.spec = &spec;
    state.rng.reseed(plan_.seed ^ hash_site(spec.site));
    sites_.emplace(spec.site, std::move(state));
  }
}

const FaultSpec* FaultInjector::roll(SiteState& state, Hook hook) {
  ++state.visits;
  const FaultSpec* spec = state.spec;
  if (spec == nullptr) return nullptr;
  if (state.visits <= spec->skip_first) return nullptr;
  // Consume one RNG draw per eligible visit — even when the hook cannot
  // execute this spec kind or max_fires already capped the rule — so the
  // per-site stream stays aligned across runs.
  const bool hit =
      spec->probability >= 1.0 || state.rng.next_double() < spec->probability;
  // A site can host both hooks (e.g. kernel.call passes fault_point and
  // fault_value); only the hook that can execute the spec may consume its
  // fire budget, so `fires` counts real faults, never no-op hits.
  const bool executable = hook == Hook::kValue
                              ? spec->kind == FaultKind::kCorruptValue
                              : spec->kind != FaultKind::kCorruptValue;
  if (!hit || !executable) return nullptr;
  if (spec->max_fires >= 0 && state.fires >= spec->max_fires) return nullptr;
  ++state.fires;
  return spec;
}

void FaultInjector::at(std::string_view site) {
  const FaultSpec* fired = nullptr;
  int visit = 0;
  {
    std::lock_guard lock(mutex_);
    auto [it, _] = sites_.try_emplace(std::string(site));
    fired = roll(it->second, Hook::kPoint);
    visit = it->second.visits;
  }
  if (fired == nullptr) return;
  switch (fired->kind) {
    case FaultKind::kThrow:
      throw FaultInjected(std::string(site), visit, fired->message);
    case FaultKind::kDelay:
      // Sleep outside the lock so a stalled site does not stall others.
      std::this_thread::sleep_for(
          std::chrono::duration<double>(fired->delay_seconds));
      return;
    case FaultKind::kCorruptValue:
      return;  // unreachable: roll() never fires corruption through at()
  }
}

double FaultInjector::corrupt(std::string_view site, double value) {
  const FaultSpec* fired = nullptr;
  {
    std::lock_guard lock(mutex_);
    auto [it, _] = sites_.try_emplace(std::string(site));
    fired = roll(it->second, Hook::kValue);
  }
  if (fired == nullptr) return value;
  return value * fired->corrupt_scale;
}

int FaultInjector::visits(std::string_view site) const {
  std::lock_guard lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.visits;
}

int FaultInjector::fires(std::string_view site) const {
  std::lock_guard lock(mutex_);
  const auto it = sites_.find(site);
  return it == sites_.end() ? 0 : it->second.fires;
}

}  // namespace pe::resilience
