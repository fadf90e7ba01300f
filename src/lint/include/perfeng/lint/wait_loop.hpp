#pragma once

/// \file wait_loop.hpp
/// Wait-loop pass: spin loops on atomics must pace themselves.
///
/// A loop whose exit condition is an atomic `.load(...)` and whose body
/// neither makes progress on that atomic (store/RMW/CAS) nor paces
/// itself (`yield`, `sleep_*`, a futex-style `.wait(...)`, a park, a
/// backoff call) burns a core at full speed while waiting on another
/// thread — the exact pathology the scheduler's spin→yield→park ladder
/// exists to avoid. The same applies to `for (;;)` / `while (true)`
/// bodies that poll an atomic. Sanctioned spin sites (the scheduler's
/// own ladder already paces itself and passes clean; anything else needs
/// a `perfeng-lint: allow(wait-loop)` waiver with a rationale).

#include <vector>

#include "perfeng/lint/pass.hpp"

namespace pe::lint {

class WaitLoopPass final : public Pass {
 public:
  [[nodiscard]] RuleInfo rule() const override;
  void run(const std::vector<SourceFile>& files,
           std::vector<Finding>& out) const override;
};

}  // namespace pe::lint
