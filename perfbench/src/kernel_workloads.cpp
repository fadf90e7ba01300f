// short_regions and long_regions: seeded inputs, a fixed number of steps
// per solve, solves repeated for the measured phase, every output checked
// against a serial twin outside the timed steps.
#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <sstream>
#include <vector>

#include "perfeng/common/rng.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/kernels/sparse.hpp"
#include "perfeng/kernels/stencil.hpp"
#include "perfeng/machine/machine.hpp"
#include "perfeng/measure/benchmark_runner.hpp"
#include "perfeng/microbench/latency.hpp"
#include "perfeng/microbench/machine_probe.hpp"
#include "perfeng/microbench/peak_flops.hpp"
#include "perfeng/microbench/stream.hpp"
#include "perfeng/microbench/stream_kernels.hpp"
#include "perfeng/observe/analysis.hpp"
#include "perfeng/observe/tracer.hpp"
#include "perfeng/parallel/parallel_for.hpp"
#include "perfeng/parallel/thread_pool.hpp"
#include "perfeng/simd/caps.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

std::string span_header(const RunOptions& options,
                        const std::string& machine_hash) {
  std::ostringstream out;
  out << "{\"workload\":\"" << options.workload << "\",\"seed\":"
      << options.seed << ",\"machine_hash\":\"" << machine_hash
      << "\",\"host\":" << host_json(options.host) << "}";
  return out.str();
}

void report_thread_budget(ThreadBudget& budget, Report& report,
                          bool traced) {
  budget.sample();
  if (traced) {
    report.set("threads.max", static_cast<double>(budget.max_seen()));
  } else {
    report.note("threads.max = " + std::to_string(budget.max_seen()));
  }
  if (!budget.held())
    report.problem("thread budget exceeded: " +
                   std::to_string(budget.max_seen()) + " threads > nproc " +
                   std::to_string(budget.limit()));
}

namespace {

using pe::kernels::Grid2D;
using pe::kernels::Matrix;

std::string fmt(const char* format, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, value);
  return buf;
}

// ---------------------------------------------------------------- probe

struct ProbeTimes {
  double peak_s = 0.0;
  double stream_s = 0.0;
  double latency_s = 0.0;
  double total_s = 0.0;
};

/// The machine probe, one public microbench call at a time in the order
/// pe::microbench::probe_machine runs them, so set-up time splits by probe.
pe::machine::Machine probe_machine(pe::microbench::MachineCharacterization& mc,
                                   ProbeTimes& times) {
  pe::MeasurementConfig design;
  design.warmup_runs = 0;
  design.repetitions = 3;
  const pe::BenchmarkRunner runner(design);
  const pe::microbench::ProbeConfig config;
  const std::uint64_t t0 = now_ns();
  mc.peak_flops = pe::microbench::peak_flops(runner);
  const std::uint64_t t1 = now_ns();
  mc.memory_bandwidth =
      pe::microbench::sustainable_bandwidth(config.stream_elements, runner);
  mc.cache_bandwidth = pe::microbench::sustainable_bandwidth(
      config.cache_stream_elements, runner);
  const std::uint64_t t2 = now_ns();
  const auto sweep = pe::microbench::latency_sweep(
      config.latency_min_bytes, config.latency_max_bytes, runner);
  if (!sweep.empty()) {
    mc.cache_latency = sweep.front().seconds_per_load;
    mc.memory_latency = sweep.back().seconds_per_load;
    mc.cache_level_bytes = pe::microbench::detect_cache_levels(sweep);
  }
  const std::uint64_t t3 = now_ns();
  const pe::simd::SimdCaps caps = pe::simd::runtime_simd_caps();
  mc.simd_width_bits = caps.width_bits();
  mc.simd_fma = caps.fma && caps.width_bits() > 0;
  times.peak_s = (t1 - t0) * 1e-9;
  times.stream_s = (t2 - t1) * 1e-9;
  times.latency_s = (t3 - t2) * 1e-9;
  times.total_s = (t3 - t0) * 1e-9;
  return pe::machine::from_probe(mc, "perfbench-probe");
}

// ---------------------------------------------------------------- oracle

/// Packed matmul against matmul_tiled: |c - ref| <= 4 n eps (|A||B|).
bool within_matmul_envelope(const Matrix& c, const Matrix& ref,
                            const Matrix& abs_ab) {
  const double scale = 4.0 * static_cast<double>(c.cols()) *
                       std::numeric_limits<double>::epsilon();
  const std::size_t n = c.rows() * c.cols();
  for (std::size_t i = 0; i < n; ++i) {
    if (!(std::abs(c.data()[i] - ref.data()[i]) <= scale * abs_ab.data()[i]))
      return false;
  }
  return true;
}

/// |A||B| for the matmul envelope, with the parallel tiled kernel (a
/// different code path from the packed kernel under test).
Matrix abs_product(const Matrix& a, const Matrix& b, pe::ThreadPool& pool) {
  Matrix abs_a = a, abs_b = b;
  for (std::size_t i = 0; i < a.rows() * a.cols(); ++i)
    abs_a.data()[i] = std::abs(a.data()[i]);
  for (std::size_t i = 0; i < b.rows() * b.cols(); ++i)
    abs_b.data()[i] = std::abs(b.data()[i]);
  Matrix out(a.rows(), b.cols());
  pe::kernels::matmul_parallel(abs_a, abs_b, out, pool);
  return out;
}

// ---------------------------------------------------------------- kernels

/// One kernel a step calls, with what the analysis needs to know about it.
struct KernelCase {
  const char* name;  ///< metric stem: kernels.<name>.*
  const char* span;  ///< span name of the call
  double flops = 0.0;
  double bytes = 0.0;  ///< computed from array sizes, not measured
  std::function<void()> call;    ///< the parallel call a step makes
  std::function<void()> serial;  ///< serial twin timed for efficiency
  int serial_reps = 0;
  const char* efficiency = nullptr;  ///< parallel.<x>.efficiency, if listed
  std::function<bool()> output_ok;   ///< last call's output vs the oracle
};

/// A workload's inputs, outputs and oracle references.
class KernelInputs {
 public:
  virtual ~KernelInputs() = default;
  /// Oracle references, computed after set-up and outside every timing.
  virtual void make_references(pe::ThreadPool& pool) = 0;
  std::vector<KernelCase> cases;
};

class ShortInputs final : public KernelInputs {
 public:
  static constexpr std::size_t kGrid = 512;
  static constexpr std::size_t kSpmvRows = 32768;
  static constexpr double kNnzPerRow = 8.0;
  static constexpr std::size_t kMatmul = 128;

  ShortInputs(std::uint64_t seed, pe::ThreadPool& pool)
      : in_(kGrid, kGrid), out_(kGrid, kGrid), a_(kMatmul, kMatmul),
        b_(kMatmul, kMatmul), c_(kMatmul, kMatmul) {
    pe::Rng rng(seed);
    for (double& v : in_.data()) v = rng.next_range_double(0.0, 1.0);
    csr_ = pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
        kSpmvRows, kSpmvRows, kNnzPerRow / kSpmvRows,
        pe::kernels::SparsityPattern::kPowerLaw, rng));
    x_.resize(kSpmvRows);
    for (double& v : x_) v = rng.next_range_double(-1.0, 1.0);
    y_.assign(kSpmvRows, 0.0);
    a_.randomize(rng);
    b_.randomize(rng);

    const double cells = static_cast<double>(kGrid * kGrid);
    const double nnz = static_cast<double>(csr_.nnz());
    cases.push_back(
        {"stencil", "kernels.stencil",
         pe::kernels::stencil_flops(kGrid, kGrid), 2.0 * cells * 8.0,
         [this, &pool] { pe::kernels::stencil_step_parallel(in_, out_, pool); },
         [this] { pe::kernels::stencil_step_naive(in_, ref_out_); }, 40,
         "parallel.stencil.efficiency",
         [this] { return out_.data() == ref_out_.data(); }});
    cases.push_back(
        {"spmv", "kernels.spmv", 2.0 * nnz,
         nnz * 12.0 + (kSpmvRows + 1) * 4.0 + 2.0 * kSpmvRows * 8.0,
         [this, &pool] {
           pe::kernels::spmv_csr_parallel_balanced(csr_, x_, y_, pool);
         },
         [this] { pe::kernels::spmv_csr(csr_, x_, ref_y_); }, 40,
         "parallel.spmv.efficiency", [this] { return y_ == ref_y_; }});
    cases.push_back(
        {"matmul128", "kernels.matmul128",
         pe::kernels::matmul_flops(kMatmul, kMatmul, kMatmul),
         pe::kernels::matmul_min_bytes(kMatmul, kMatmul, kMatmul),
         [this, &pool] {
           pe::kernels::matmul_parallel_packed(a_, b_, c_, pool);
         },
         nullptr, 0, nullptr,
         [this] { return within_matmul_envelope(c_, ref_c_, abs_ab_); }});
  }

  void make_references(pe::ThreadPool& pool) override {
    ref_out_ = Grid2D(kGrid, kGrid);
    pe::kernels::stencil_step_naive(in_, ref_out_);
    ref_y_.assign(kSpmvRows, 0.0);
    pe::kernels::spmv_csr(csr_, x_, ref_y_);
    ref_c_ = Matrix(kMatmul, kMatmul);
    pe::kernels::matmul_tiled(a_, b_, ref_c_);
    abs_ab_ = abs_product(a_, b_, pool);
  }

  [[nodiscard]] std::size_t nnz() const { return csr_.nnz(); }

 private:
  Grid2D in_, out_, ref_out_;
  pe::kernels::CsrMatrix csr_;
  std::vector<double> x_, y_, ref_y_;
  Matrix a_, b_, c_, ref_c_, abs_ab_;
};

class LongInputs final : public KernelInputs {
 public:
  static constexpr std::size_t kMatmul = 1536;
  static constexpr std::size_t kTriadChunk = std::size_t{1} << 18;
  static constexpr double kScalar = 3.0;

  /// `triad_elements` doubles per array, sized by the caller from the LLC.
  LongInputs(std::uint64_t seed, pe::ThreadPool& pool,
             std::size_t triad_elements)
      : a_(kMatmul, kMatmul), b_(kMatmul, kMatmul), c_(kMatmul, kMatmul),
        n_(triad_elements),
        ta_(std::make_unique_for_overwrite<double[]>(n_)),
        tb_(std::make_unique_for_overwrite<double[]>(n_)),
        tc_(std::make_unique_for_overwrite<double[]>(n_)) {
    pe::Rng rng(seed);
    a_.randomize(rng);
    b_.randomize(rng);
    // First touch on the pool that will stream the arrays, with values
    // that depend on the seed but need no sequential generator.
    const double base = rng.next_range_double(0.5, 1.5);
    pe::parallel_for_chunks(
        pool, 0, n_,
        [this, base](std::size_t lo, std::size_t hi, std::size_t) {
          for (std::size_t i = lo; i < hi; ++i) {
            const double f = static_cast<double>(i % 1021) * 1e-3;
            ta_[i] = base + f;
            tb_[i] = base - 0.5 * f;
            tc_[i] = 0.0;
          }
        },
        pe::Schedule::kDynamic, kTriadChunk);

    cases.push_back(
        {"matmul1536", "kernels.matmul1536",
         pe::kernels::matmul_flops(kMatmul, kMatmul, kMatmul),
         pe::kernels::matmul_min_bytes(kMatmul, kMatmul, kMatmul),
         [this, &pool] {
           pe::kernels::matmul_parallel_packed(a_, b_, c_, pool);
         },
         nullptr, 0, nullptr,
         [this] { return within_matmul_envelope(c_, ref_c_, abs_ab_); }});
    const double elems = static_cast<double>(n_);
    cases.push_back(
        {"triad", "kernels.triad", 2.0 * elems, 3.0 * elems * 8.0,
         [this, &pool] {
           pe::parallel_for_chunks(
               pool, 0, n_,
               [this](std::size_t lo, std::size_t hi, std::size_t) {
                 pe::microbench::stream_triad(ta_.get() + lo, tb_.get() + lo,
                                              tc_.get() + lo, kScalar,
                                              hi - lo);
               },
               pe::Schedule::kDynamic, kTriadChunk);
         },
         [this] {
           pe::microbench::stream_triad(ta_.get(), tb_.get(), tc_.get(),
                                        kScalar, n_);
         },
         2, "parallel.triad.efficiency",
         [this, &pool] { return triad_within_one_ulp(pool); }});
  }

  void make_references(pe::ThreadPool& pool) override {
    ref_c_ = Matrix(kMatmul, kMatmul);
    pe::kernels::matmul_tiled(a_, b_, ref_c_);
    abs_ab_ = abs_product(a_, b_, pool);
  }

 private:
  /// Every element within 1 ulp of stream_triad_scalar, checked in
  /// parallel (lane-private scratch for the scalar reference).
  bool triad_within_one_ulp(pe::ThreadPool& pool) {
    constexpr std::size_t kBlock = 4096;
    std::vector<std::vector<double>> scratch(pool.size() + 1,
                                             std::vector<double>(kBlock));
    std::atomic<std::size_t> bad{0};
    pe::parallel_for_chunks(
        pool, 0, n_,
        [&](std::size_t lo, std::size_t hi, std::size_t lane) {
          double* ref = scratch[lane].data();
          std::size_t local_bad = 0;
          for (std::size_t i = lo; i < hi; i += kBlock) {
            const std::size_t len = std::min(kBlock, hi - i);
            pe::microbench::stream_triad_scalar(ta_.get() + i, tb_.get() + i,
                                                ref, kScalar, len);
            for (std::size_t j = 0; j < len; ++j)
              local_bad += ulp_distance(tc_[i + j], ref[j]) > 1;
          }
          bad.fetch_add(local_bad, std::memory_order_relaxed);
        },
        pe::Schedule::kDynamic, kTriadChunk);
    return bad.load() == 0;
  }

  Matrix a_, b_, c_, ref_c_, abs_ab_;
  std::size_t n_;
  std::unique_ptr<double[]> ta_, tb_, tc_;
};

// ---------------------------------------------------------------- runs

/// Everything set-up builds; the pool is declared first so the inputs
/// (whose calls reference it) are destroyed before it.
struct Setup {
  ProbeTimes probe;
  pe::microbench::MachineCharacterization mc;
  pe::machine::Machine machine;
  std::unique_ptr<pe::ThreadPool> pool;
  std::unique_ptr<KernelInputs> inputs;
};

struct WorkloadShape {
  std::size_t steps_per_solve;
  bool shuffle_calls;  ///< seeded call order per step
  std::function<std::unique_ptr<KernelInputs>(std::uint64_t,
                                              pe::ThreadPool&)>
      make_inputs;
};

/// Steps, solves and (traced) span indices of a measured phase.
struct Phase {
  std::vector<double> step_s;
  std::vector<double> solve_s;
  std::size_t steals = 0;  ///< ThreadPool::steals() during the steps
  std::vector<std::size_t> call_spans;  ///< span indices, traced only
  std::vector<std::size_t> step_spans;
};

/// Append solves of `steps_per_solve` steps to `phase` until `seconds` of
/// wall time have passed (at least one solve). Step times exclude the
/// output checks, which run between steps. With `tracer` set, the
/// scheduler trace is installed around each step's calls only, so the
/// checks stay out of the trace.
void run_phase(Phase& phase, Setup& s, const WorkloadShape& shape,
               double seconds, pe::Rng& order_rng, Report& report,
               ThreadBudget& budget, pe::observe::Tracer* tracer,
               SpanLog* spans) {
  std::vector<KernelCase>& cases = s.inputs->cases;
  std::vector<std::size_t> order(cases.size());
  for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
  std::vector<std::uint64_t> call_ns(2 * cases.size());
  const std::uint64_t phase_start = now_ns();
  do {
    double solve = 0.0;
    for (std::size_t step = 0; step < shape.steps_per_solve; ++step) {
      if (shape.shuffle_calls) order_rng.shuffle(order);
      std::optional<pe::observe::ScopedTrace> scope;
      if (tracer != nullptr) scope.emplace(*tracer);
      const std::size_t steals_before = s.pool->steals();
      const std::uint64_t t0 = now_ns();
      for (std::size_t k = 0; k < order.size(); ++k) {
        if (spans != nullptr) call_ns[2 * k] = now_ns();
        cases[order[k]].call();
        if (spans != nullptr) call_ns[2 * k + 1] = now_ns();
      }
      const std::uint64_t t1 = now_ns();
      phase.steals += s.pool->steals() - steals_before;
      scope.reset();
      const double step_s = (t1 - t0) * 1e-9;
      phase.step_s.push_back(step_s);
      solve += step_s;
      if (spans != nullptr) {
        const std::uint64_t step_id = phase.step_s.size() - 1;
        const std::size_t parent = spans->add("step", t0, t1, step_id);
        phase.step_spans.push_back(parent);
        for (std::size_t k = 0; k < order.size(); ++k) {
          phase.call_spans.push_back(
              spans->add(cases[order[k]].span, call_ns[2 * k],
                         call_ns[2 * k + 1], step_id,
                         static_cast<std::int64_t>(parent)));
        }
      }
      for (const KernelCase& c : cases) {
        report.attempt();
        if (!c.output_ok())
          report.fail(std::string(c.name) +
                      " output differs from its serial twin");
      }
    }
    phase.solve_s.push_back(solve);
    budget.sample();
  } while ((now_ns() - phase_start) * 1e-9 < seconds);
}

/// The calling thread's view of each parallel loop in a scheduler trace:
/// the loop window, the chunks the caller ran itself, and the time from
/// the broadcast to the first worker starting a copy (the dispatch).
struct LoopWindow {
  std::uint64_t begin = 0;
  std::uint64_t end = 0;
  double dispatch_ns = 0.0;  ///< 0 when no worker ran a copy
  std::vector<std::pair<std::uint64_t, std::uint64_t>> chunks;
};

std::vector<LoopWindow> caller_loops(const pe::observe::Trace& trace,
                                     std::size_t caller_lane) {
  std::vector<LoopWindow> loops;
  LoopWindow open;
  int depth = 0;
  const void* open_obj = nullptr;
  bool dispatched = false;
  std::uint64_t chunk_start = 0;
  for (const pe::observe::TraceRecord& e : trace.events) {
    if (e.lane != caller_lane) {
      if (e.kind == pe::TraceEventKind::kTaskStart && depth > 0 &&
          e.obj == open_obj && !dispatched) {
        open.dispatch_ns = static_cast<double>(e.ns - open.begin);
        dispatched = true;
      }
      continue;
    }
    switch (e.kind) {
      case pe::TraceEventKind::kLoopBegin:
        if (depth++ == 0) {
          open = LoopWindow{e.ns, 0, 0.0, {}};
          open_obj = e.obj;
          dispatched = false;
        }
        break;
      case pe::TraceEventKind::kChunkStart:
        if (depth == 1) chunk_start = e.ns;
        break;
      case pe::TraceEventKind::kChunkFinish:
        if (depth == 1) open.chunks.emplace_back(chunk_start, e.ns);
        break;
      case pe::TraceEventKind::kLoopEnd:
        if (depth > 0 && --depth == 0) {
          open.end = e.ns;
          loops.push_back(std::move(open));
          open_obj = nullptr;
        }
        break;
      default:
        break;
    }
  }
  return loops;
}

/// Add a "parallel.wait" child span for every stretch of a loop window in
/// which the calling thread ran no chunk of its own: dispatch, waiting
/// for workers, and the loop's join. Sums the waits and the dispatches of
/// the loops that ran inside a timed call.
void add_wait_spans(SpanLog& spans, const std::vector<std::size_t>& calls,
                    const std::vector<LoopWindow>& loops, double& waited_ns,
                    double& dispatch_ns) {
  std::size_t c = 0;
  for (const LoopWindow& w : loops) {
    while (c < calls.size() && spans.spans()[calls[c]].end_ns < w.end) ++c;
    if (c == calls.size()) break;
    const Span call = spans.spans()[calls[c]];
    if (call.start_ns > w.begin) continue;  // loop outside any timed call
    dispatch_ns += w.dispatch_ns;
    std::uint64_t cursor = w.begin;
    auto gap = [&](std::uint64_t lo, std::uint64_t hi) {
      if (hi <= lo) return;
      spans.add("parallel.wait", lo, hi, call.id,
                static_cast<std::int64_t>(calls[c]));
      waited_ns += static_cast<double>(hi - lo);
    };
    for (const auto& [lo, hi] : w.chunks) {
      gap(cursor, lo);
      cursor = std::max(cursor, hi);
    }
    gap(cursor, w.end);
  }
}

/// Worker parks inside the traced steps. The trace is off between steps,
/// so a park is closed by its lane's next event (an unpark, or the first
/// event of a later step) and only its overlap with the step windows
/// counts as parked time.
struct Parks {
  std::size_t count = 0;
  double ns = 0.0;
};

Parks worker_parks(
    const pe::observe::Trace& trace, std::size_t caller_lane,
    const std::vector<std::pair<std::uint64_t, std::uint64_t>>& windows) {
  const auto in_windows = [&](std::uint64_t lo, std::uint64_t hi) {
    auto it = std::lower_bound(
        windows.begin(), windows.end(), lo,
        [](const auto& w, std::uint64_t t) { return w.second <= t; });
    std::vector<std::pair<std::uint64_t, std::uint64_t>> overlapping;
    for (; it != windows.end() && it->first < hi; ++it)
      overlapping.push_back(*it);
    return static_cast<double>(covered_ns(lo, hi, std::move(overlapping)));
  };
  Parks parks;
  std::vector<std::uint64_t> parked_at(trace.lanes, 0);
  for (const pe::observe::TraceRecord& e : trace.events) {
    if (e.lane == caller_lane || e.lane >= parked_at.size()) continue;
    std::uint64_t& open = parked_at[e.lane];
    if (open != 0) {
      parks.ns += in_windows(open, e.ns);
      open = 0;
    }
    if (e.kind == pe::TraceEventKind::kPark) {
      open = e.ns;
      ++parks.count;
    }
  }
  for (const std::uint64_t open : parked_at)
    if (open != 0 && !windows.empty())
      parks.ns += in_windows(open, windows.back().second);
  return parks;
}

void run_kernel_workload(const RunOptions& o, Report& report,
                         const WorkloadShape& shape) {
  ThreadBudget budget(o.host.nproc);
  // The tracer outlives the pool (declared first): a worker may still be
  // inside the trace hook just after the trace scope closes.
  std::unique_ptr<pe::observe::Tracer> tracer;
  Setup s;
  std::vector<double> setup_s, probe_s, peak_s, stream_s, latency_s;
  for (int r = 0; r < kSetupRepeats; ++r) {
    s.inputs.reset();
    s.pool.reset();
    const std::uint64_t t0 = now_ns();
    s.machine = probe_machine(s.mc, s.probe);
    s.pool = std::make_unique<pe::ThreadPool>(pool_workers(o.host.nproc));
    s.inputs = shape.make_inputs(o.seed, *s.pool);
    setup_s.push_back((now_ns() - t0) * 1e-9);
    budget.sample();
    probe_s.push_back(s.probe.total_s);
    peak_s.push_back(s.probe.peak_s);
    stream_s.push_back(s.probe.stream_s);
    latency_s.push_back(s.probe.latency_s);
  }
  s.inputs->make_references(*s.pool);

  const std::size_t lanes = s.pool->size() + 1;
  const pe::microbench::ProbeConfig probe_config;
  const double probe_stream_bytes =
      3.0 * static_cast<double>(probe_config.stream_elements) * 8.0;
  const bool probe_in_llc =
      o.host.llc_bytes > 0 &&
      probe_stream_bytes <= static_cast<double>(o.host.llc_bytes);
  report.note(samples_note("setup_s samples", setup_s, "s"));
  report.note("machine_hash = " + s.machine.calibration_hash());
  report.note("threads: pool workers = " + std::to_string(s.pool->size()) +
              ", lanes = " + std::to_string(lanes) +
              " (workers + calling thread), nproc = " +
              std::to_string(o.host.nproc) + ", no CPU affinity set");
  report.note("probe: peak " + fmt("%.3g", s.mc.peak_flops * 1e-9) +
              " GFLOP/s per thread; stream " +
              fmt("%.3g", s.mc.memory_bandwidth * 1e-9) + " GB/s over 3 x " +
              fmt("%.0f", probe_stream_bytes / 3.0 / 1048576.0) +
              " MiB arrays, " +
              (probe_in_llc ? "LLC-resident (labelled llc, not DRAM)"
                            : "larger than the LLC (DRAM)"));

  pe::Rng order_rng(o.seed ^ 0x5eedc0deULL);
  const std::vector<KernelCase>& cases = s.inputs->cases;
  if (!o.traced) {
    report.set("setup_s", median_or_zero(setup_s));
    Phase p;
    run_phase(p, s, shape, o.seconds, order_rng, report, budget, nullptr,
              nullptr);
    const double solve = median_or_zero(p.solve_s);
    // The fast end of the solves, robust to a single lucky one.
    const double fast = percentile_or_zero(p.solve_s, 10.0);
    const Tail t = tail(p.step_s);
    const double steps = static_cast<double>(shape.steps_per_solve);
    report.set("solve_s", solve);
    report.set("step_p50_us", median_or_zero(p.step_s) * 1e6);
    report.set("lat_p50_ms", median_or_zero(p.step_s) * 1e3);
    report.set("goodput_per_s", steps / solve);
    report.set("max_rate_per_s", steps / fast);
    report.note("steps = " + std::to_string(p.step_s.size()) + " in " +
                std::to_string(p.solve_s.size()) + " solves of " +
                std::to_string(shape.steps_per_solve));
    report.note(tail_note("step_tail_us", t, 1e6, "us", "steps"));
    report.note(tail_note("lat_tail_ms", t, 1e3, "ms", "steps"));
    report.set("peak_rss_mb", peak_rss_mib());
    report_thread_budget(budget, report, false);
    return;
  }

  // ---- traced run: per-layer metrics ----
  report.set("microbench.probe_s", median_or_zero(probe_s));
  report.set("microbench.peak_s", median_or_zero(peak_s));
  report.set("microbench.stream_s", median_or_zero(stream_s));
  report.set("microbench.latency_s", median_or_zero(latency_s));

  std::vector<double> empty_us;
  for (int i = 0; i < 2000; ++i) {
    const std::uint64_t t0 = now_ns();
    pe::parallel_for(*s.pool, 0, lanes, [](std::size_t) {});
    empty_us.push_back((now_ns() - t0) * 1e-3);
  }
  report.set("parallel.empty_region_us", median_or_zero(empty_us));

  std::vector<double> serial_s(cases.size(), 0.0);
  for (std::size_t k = 0; k < cases.size(); ++k) {
    if (!cases[k].serial) continue;
    std::vector<double> times;
    for (int r = 0; r < cases[k].serial_reps; ++r) {
      const std::uint64_t t0 = now_ns();
      cases[k].serial();
      times.push_back((now_ns() - t0) * 1e-9);
    }
    serial_s[k] = median_or_zero(times);
  }

  // Untraced and traced solves alternate: the difference between them is
  // the tracing cost, free of drift over the run.
  pe::observe::TracerConfig tracer_config;
  tracer_config.lanes = lanes;
  tracer_config.ring_capacity = std::size_t{1} << 18;
  tracer = std::make_unique<pe::observe::Tracer>(tracer_config);
  SpanLog spans;
  Phase untraced, traced;
  const std::uint64_t start = now_ns();
  do {
    run_phase(untraced, s, shape, 0.0, order_rng, report, budget, nullptr,
              nullptr);
    run_phase(traced, s, shape, 0.0, order_rng, report, budget, tracer.get(),
              &spans);
  } while ((now_ns() - start) * 1e-9 < o.seconds);
  const double steps = static_cast<double>(traced.step_s.size());
  const pe::observe::Trace trace = tracer->take();

  const pe::observe::LatencyReport dispatch =
      pe::observe::scheduler_latency(trace);
  std::vector<std::pair<std::uint64_t, std::uint64_t>> windows;
  for (const std::size_t i : traced.step_spans)
    windows.emplace_back(spans.spans()[i].start_ns, spans.spans()[i].end_ns);
  const Parks parks = worker_parks(trace, s.pool->size(), windows);
  const std::vector<LoopWindow> loops = caller_loops(trace, s.pool->size());
  double waited_ns = 0.0;
  double dispatch_sum_ns = 0.0;
  add_wait_spans(spans, traced.call_spans, loops, waited_ns, dispatch_sum_ns);
  const std::vector<std::uint64_t> self = spans.self_times();

  double step_ns = 0.0;
  for (const std::size_t i : traced.step_spans)
    step_ns += static_cast<double>(spans.spans()[i].end_ns -
                                   spans.spans()[i].start_ns);

  report.set("parallel.dispatch_p50_us", dispatch.p50_ns * 1e-3);
  report.set("parallel.dispatch_p99_us", dispatch.p99_ns * 1e-3);
  report.set("parallel.dispatch_share", dispatch_sum_ns / step_ns);
  report.set("parallel.wait_share", waited_ns / step_ns);
  report.set("parallel.parks_per_step",
             static_cast<double>(parks.count) / steps);
  report.set("parallel.park_ms_per_step",
             parks.ns * 1e-6 / steps);
  report.set("parallel.steals_per_step",
             static_cast<double>(traced.steals) / steps);

  double call_ns_total = 0.0;
  for (std::size_t k = 0; k < cases.size(); ++k) {
    const KernelCase& c = cases[k];
    std::vector<double> wall_s, self_us;
    for (const std::size_t i : traced.call_spans) {
      const Span& sp = spans.spans()[i];
      if (std::strcmp(sp.name, c.span) != 0) continue;
      wall_s.push_back((sp.end_ns - sp.start_ns) * 1e-9);
      self_us.push_back(static_cast<double>(self[i]) * 1e-3);
    }
    double wall_sum = 0.0;
    for (const double w : wall_s) wall_sum += w;
    call_ns_total += wall_sum * 1e9;
    const double wall = median_or_zero(wall_s);
    const double flops_per_s = c.flops / wall;
    const double roof =
        std::min(static_cast<double>(lanes) * s.mc.peak_flops,
                 s.mc.memory_bandwidth * c.flops / c.bytes);
    const std::string stem = std::string("kernels.") + c.name;
    const Tail t = tail(self_us);
    report.set(stem + ".call_us.p50", median_or_zero(self_us));
    report.set(stem + ".call_us.tail", t.value);
    report.set(stem + ".gflops", flops_per_s * 1e-9);
    report.set(stem + ".gbs", c.bytes / wall * 1e-9);
    report.set(stem + ".roof_frac", flops_per_s / roof);
    report.set(stem + ".share", wall_sum * 1e9 / step_ns);
    report.note(stem + ".call_us.tail is p" + fmt("%g", t.percentile) +
                " of " + std::to_string(t.samples) + " calls (self time)");
    if (c.efficiency != nullptr)
      report.set(c.efficiency, serial_s[k] / (static_cast<double>(lanes) *
                                              wall));
  }
  report.set("step.accounted_frac", call_ns_total / step_ns);
  report.note("roof_frac is against min(lanes x probed peak, probed stream "
              "bandwidth x intensity); the probe measures one thread");

  const double untraced_p50 = median_or_zero(untraced.step_s);
  report.set("observe.overhead_frac",
             median_or_zero(traced.step_s) / untraced_p50 - 1.0);
  report.set("observe.dropped", static_cast<double>(trace.dropped));
  report.note("trace: " + std::to_string(trace.recorded) + " events, " +
              std::to_string(trace.dropped) + " dropped; " +
              std::to_string(loops.size()) + " loops on the calling lane");
  report_thread_budget(budget, report, true);
  if (!o.spans_path.empty())
    spans.write(o.spans_path, span_header(o, s.machine.calibration_hash()));
}

}  // namespace

void run_short_regions(const RunOptions& options, Report& report) {
  WorkloadShape shape;
  shape.steps_per_solve = 50;
  shape.shuffle_calls = true;
  shape.make_inputs = [](std::uint64_t seed, pe::ThreadPool& pool) {
    return std::unique_ptr<KernelInputs>(
        std::make_unique<ShortInputs>(seed, pool));
  };
  report.note("short_regions: stencil " +
              std::to_string(ShortInputs::kGrid) + "^2, power-law CSR " +
              std::to_string(ShortInputs::kSpmvRows) +
              " rows x ~8 nnz/row, matmul N=" +
              std::to_string(ShortInputs::kMatmul));
  run_kernel_workload(options, report, shape);
}

void run_long_regions(const RunOptions& options, Report& report) {
  // STREAM's rule: each array at least 4x the last-level cache.
  constexpr std::size_t kFallbackLlc = std::size_t{32} << 20;
  const std::size_t llc =
      options.host.llc_bytes > 0 ? options.host.llc_bytes : kFallbackLlc;
  const std::size_t elements = 4 * llc / sizeof(double);
  report.note("long_regions: matmul N=" +
              std::to_string(LongInputs::kMatmul) + "; triad 3 arrays x " +
              fmt("%.0f", elements * 8.0 / 1048576.0) + " MiB, LLC " +
              fmt("%.0f", static_cast<double>(options.host.llc_bytes) /
                              1048576.0) +
              " MiB (sysfs" +
              (options.host.llc_bytes > 0 ? ")" : " silent: 32 MiB assumed)") +
              ": DRAM-resident");
  WorkloadShape shape;
  shape.steps_per_solve = 2;
  shape.shuffle_calls = false;
  shape.make_inputs = [elements](std::uint64_t seed, pe::ThreadPool& pool) {
    return std::unique_ptr<KernelInputs>(
        std::make_unique<LongInputs>(seed, pool, elements));
  };
  run_kernel_workload(options, report, shape);
}

}  // namespace perfbench
