// Fixture: a src header without #pragma once — the error-level defect the
// SARIF test renders next to spin.cpp's wait-loop warnings.
namespace pe {
inline int a() { return 1; }
}  // namespace pe
