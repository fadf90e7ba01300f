#include "perfeng/common/fault_hook.hpp"

#include <algorithm>
#include <mutex>

namespace pe {

namespace {

constexpr std::string_view kCatalog[] = {
    fault_sites::kCountersRead,  fault_sites::kPoolWorker,
    fault_sites::kKernelCall,    fault_sites::kIoCsv,
    fault_sites::kIoMatrixMarket, fault_sites::kServiceAdmit,
    fault_sites::kServiceDequeue, fault_sites::kServiceCache,
};

/// Runtime-registered sites beyond the catalog. Guarded by a mutex: site
/// registration happens at setup time, never on measurement hot paths.
struct SiteRegistry {
  std::mutex mu;
  std::vector<std::string_view> extra;
};

SiteRegistry& registry() {
  static SiteRegistry r;
  return r;
}

}  // namespace

std::vector<std::string_view> known_fault_sites() {
  std::vector<std::string_view> sites(std::begin(kCatalog),
                                      std::end(kCatalog));
  SiteRegistry& r = registry();
  std::lock_guard lock(r.mu);
  sites.insert(sites.end(), r.extra.begin(), r.extra.end());
  return sites;
}

void register_fault_site(std::string_view site) {
  if (site.empty()) return;
  if (std::find(std::begin(kCatalog), std::end(kCatalog), site) !=
      std::end(kCatalog)) {
    return;
  }
  SiteRegistry& r = registry();
  std::lock_guard lock(r.mu);
  if (std::find(r.extra.begin(), r.extra.end(), site) == r.extra.end())
    r.extra.push_back(site);
}

bool is_known_fault_site(std::string_view site) {
  if (std::find(std::begin(kCatalog), std::end(kCatalog), site) !=
      std::end(kCatalog)) {
    return true;
  }
  SiteRegistry& r = registry();
  std::lock_guard lock(r.mu);
  return std::find(r.extra.begin(), r.extra.end(), site) != r.extra.end();
}

}  // namespace pe
