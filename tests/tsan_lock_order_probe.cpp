// Proves that the ThreadSanitizer lane's lock-order check is armed.
//
// One thread takes mutex A then B, and later B then A. One thread cannot
// deadlock with itself, but TSan's deadlock detector records the A->B
// edge, sees B->A close a cycle, and reports "lock-order-inversion
// (potential deadlock)" -- the report it gives for any two code paths that
// take the same two locks in opposite orders in one process. The probe is
// built and registered only with PERFENG_TSAN (tests/CMakeLists.txt), and
// the test passes only when that report appears: a TSan run with
// detect_deadlocks=0 fails it.
#include <mutex>

int main() {
  std::mutex a;
  std::mutex b;
  {
    const std::lock_guard<std::mutex> hold_a(a);
    const std::lock_guard<std::mutex> hold_b(b);
  }
  {
    const std::lock_guard<std::mutex> hold_b(b);
    const std::lock_guard<std::mutex> hold_a(a);
  }
  return 0;
}
