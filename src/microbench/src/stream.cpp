#include "perfeng/microbench/stream.hpp"

#include <algorithm>
#include <memory>

#include "perfeng/common/aligned_buffer.hpp"
#include "perfeng/common/error.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/microbench/stream_kernels.hpp"

namespace pe::microbench {

std::string stream_kernel_name(StreamKernel k) {
  switch (k) {
    case StreamKernel::kCopy: return "Copy";
    case StreamKernel::kScale: return "Scale";
    case StreamKernel::kAdd: return "Add";
    case StreamKernel::kTriad: return "Triad";
  }
  return "?";
}

std::size_t stream_bytes_per_element(StreamKernel k) {
  switch (k) {
    case StreamKernel::kCopy:
    case StreamKernel::kScale: return 2 * sizeof(double);
    case StreamKernel::kAdd:
    case StreamKernel::kTriad: return 3 * sizeof(double);
  }
  return 0;
}

std::size_t stream_flops_per_element(StreamKernel k) {
  switch (k) {
    case StreamKernel::kCopy: return 0;
    case StreamKernel::kScale:
    case StreamKernel::kAdd: return 1;
    case StreamKernel::kTriad: return 2;
  }
  return 0;
}

namespace {

/// The three STREAM vectors, allocated and first-touched once. Every
/// kernel closure co-owns them: a timed-out measurement's abandoned helper
/// thread keeps streaming after the caller unwinds
/// (resilience/watchdog.hpp).
struct StreamArrays {
  explicit StreamArrays(std::size_t elements)
      : a(elements), b(elements), c(elements) {
    PE_REQUIRE(elements >= 16, "vector too small to measure");
    for (std::size_t i = 0; i < elements; ++i) {
      a[i] = 1.0;
      b[i] = 2.0;
      c[i] = 0.0;
    }
  }
  AlignedBuffer<double> a, b, c;
};

StreamResult measure_stream(StreamKernel kernel,
                            const std::shared_ptr<StreamArrays>& arrays,
                            const BenchmarkRunner& runner) {
  const std::size_t elements = arrays->a.size();
  const double scalar = 3.0;

  // Raw pointers keep the inner loops free of any abstraction the compiler
  // might fail to see through; the captured `arrays` keeps them valid.
  double* pa = arrays->a.data();
  double* pb = arrays->b.data();
  double* pc = arrays->c.data();

  // Loop bodies live in stream_kernels.hpp, explicitly vectorized through
  // pe::simd and tested against scalar references in tests/test_stream.cpp.
  std::function<void()> body;
  switch (kernel) {
    case StreamKernel::kCopy:
      body = [arrays, pa, pb, elements] {
        stream_copy(pa, pb, elements);
        do_not_optimize(pb[0]);
      };
      break;
    case StreamKernel::kScale:
      body = [arrays, pa, pb, scalar, elements] {
        stream_scale(pa, pb, scalar, elements);
        do_not_optimize(pb[0]);
      };
      break;
    case StreamKernel::kAdd:
      body = [arrays, pa, pb, pc, elements] {
        stream_add(pa, pb, pc, elements);
        do_not_optimize(pc[0]);
      };
      break;
    case StreamKernel::kTriad:
      body = [arrays, pa, pb, pc, scalar, elements] {
        stream_triad(pa, pb, pc, scalar, elements);
        do_not_optimize(pc[0]);
      };
      break;
  }

  StreamResult result;
  result.kernel = kernel;
  result.elements = elements;
  result.measurement =
      runner.run("STREAM " + stream_kernel_name(kernel), body);
  const double bytes = static_cast<double>(elements) *
                       static_cast<double>(stream_bytes_per_element(kernel));
  result.best_bandwidth = bytes / result.measurement.best();
  result.median_bandwidth = bytes / result.measurement.typical();
  return result;
}

}  // namespace

StreamResult run_stream(StreamKernel kernel, std::size_t elements,
                        const BenchmarkRunner& runner) {
  return measure_stream(kernel, std::make_shared<StreamArrays>(elements),
                        runner);
}

std::vector<StreamResult> run_stream_suite(std::size_t elements,
                                           const BenchmarkRunner& runner) {
  // One set of arrays for all four kernels, as McCalpin's STREAM does.
  const auto arrays = std::make_shared<StreamArrays>(elements);
  std::vector<StreamResult> out;
  for (StreamKernel k : {StreamKernel::kCopy, StreamKernel::kScale,
                         StreamKernel::kAdd, StreamKernel::kTriad}) {
    out.push_back(measure_stream(k, arrays, runner));
  }
  return out;
}

double sustainable_bandwidth(std::size_t elements,
                             const BenchmarkRunner& runner) {
  double best = 0.0;
  for (const auto& r : run_stream_suite(elements, runner))
    best = std::max(best, r.best_bandwidth);
  return best;
}

}  // namespace pe::microbench
