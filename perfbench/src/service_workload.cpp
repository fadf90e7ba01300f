// service_mixed: an open loop of seeded Poisson arrivals from one
// generator thread (the calling thread) into pe::service::BenchmarkService.
// Every submission is timed from its scheduled send time; the terminal
// time of an admitted run is its submit time plus the queue and run times
// the service reports in its Outcome.
#include <algorithm>
#include <array>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <limits>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string_view>
#include <thread>
#include <vector>

#include "perfeng/common/rng.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/kernels/sparse.hpp"
#include "perfeng/kernels/stencil.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/models/queuing.hpp"
#include "perfeng/observe/analysis.hpp"
#include "perfeng/observe/tracer.hpp"
#include "perfeng/service/service.hpp"
#include "spans.hpp"
#include "stats.hpp"
#include "workloads.hpp"

namespace perfbench {

namespace {

using pe::kernels::Grid2D;
using pe::kernels::Matrix;
using pe::service::BenchmarkService;
using pe::service::ServiceConfig;
using pe::service::ServiceStats;
using pe::service::SubmissionRequest;
using pe::service::SubmitResult;
using pe::service::TerminalState;

// Load shape. The rates are fixed numbers, tuned so that the nominal rate
// sits near rho = 0.7 on a 4-vCPU Xeon (3 workers) and the ladder's top
// rung is past saturation; see README.md. Phase sizes are fixed so that
// every phase's tail is the same percentile (p99).
constexpr double kNominalRate = 2000.0;  // submissions/s
constexpr std::array<double, 5> kLadder = {1200.0, 1800.0, 2400.0, 3600.0,
                                           4800.0};
constexpr std::size_t kPhaseSubmissions = 2000;
constexpr double kLatencyLimitS = 30e-3;   // limit on lat_tail_ms
constexpr double kMaxLagP99S = 20e-3;      // generator validity bound
constexpr double kMinOfferedShare = 0.95;  // of the intended rate
constexpr std::size_t kTenants = 4;
constexpr double kRepeatShare = 1.0 / 3.0;
constexpr std::size_t kRecentKeys = 32;
constexpr std::size_t kVariants = 8;
constexpr std::size_t kMatmulN = 64;
constexpr std::size_t kSpmvRows = 4096;
constexpr std::size_t kGridN = 128;
constexpr std::size_t kKernelSpans = 64;  ///< per run, traced run only
// Set-up here takes tens of ms, so it is repeated more often than the
// kernel workloads' probe-heavy set-up to steady its median.
constexpr int kServiceSetupRepeats = 3 * kSetupRepeats;

/// The generator fell behind its schedule: the run is invalid.
struct InvalidRun : std::runtime_error {
  using std::runtime_error::runtime_error;
};

double steady_s() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/// Seeded inputs of the three small serial toolbox kernels.
struct Corpus {
  struct MatmulInput {
    Matrix a, b;
  };
  struct SpmvInput {
    pe::kernels::CsrMatrix m;
    std::vector<double> x;
  };
  std::vector<MatmulInput> matmul;
  std::vector<SpmvInput> spmv;
  std::vector<Grid2D> grid;

  explicit Corpus(std::uint64_t seed) {
    pe::Rng rng(seed);
    for (std::size_t v = 0; v < kVariants; ++v) {
      MatmulInput mm{Matrix(kMatmulN, kMatmulN), Matrix(kMatmulN, kMatmulN)};
      mm.a.randomize(rng);
      mm.b.randomize(rng);
      matmul.push_back(std::move(mm));
      SpmvInput sp{pe::kernels::coo_to_csr(pe::kernels::generate_sparse(
                       kSpmvRows, kSpmvRows, 8.0 / kSpmvRows,
                       pe::kernels::SparsityPattern::kUniform, rng)),
                   std::vector<double>(kSpmvRows)};
      for (double& x : sp.x) x = rng.next_range_double(-1.0, 1.0);
      spmv.push_back(std::move(sp));
      Grid2D g(kGridN, kGridN);
      for (double& x : g.data()) x = rng.next_range_double(0.0, 1.0);
      grid.push_back(std::move(g));
    }
  }

  /// The kernel a submission measures: kind 0 matmul_tiled, 1 spmv_csr,
  /// 2 stencil_step_blocked. Outputs are thread-local, so concurrent runs
  /// of one input never share a buffer.
  [[nodiscard]] std::function<void()> kernel(int kind,
                                             std::size_t variant) const {
    switch (kind) {
      case 0:
        return [in = &matmul[variant]] {
          thread_local Matrix c(kMatmulN, kMatmulN);
          pe::kernels::matmul_tiled(in->a, in->b, c);
          pe::do_not_optimize(c.data()[0]);
        };
      case 1:
        return [in = &spmv[variant]] {
          thread_local std::vector<double> y(kSpmvRows);
          pe::kernels::spmv_csr(in->m, in->x, y);
          pe::do_not_optimize(y[0]);
        };
      default:
        return [in = &grid[variant]] {
          thread_local Grid2D out(kGridN, kGridN);
          pe::kernels::stencil_step_blocked(*in, out);
          pe::do_not_optimize(out.data()[0]);
        };
    }
  }

  /// Wrong outputs of the service's kernels against serial references
  /// (matmul within the 4 n eps envelope of matmul_naive, SpMV and
  /// stencil exactly equal to spmv_coo and stencil_step_naive).
  [[nodiscard]] std::size_t wrong_outputs() const {
    std::size_t wrong = 0;
    const double scale =
        4.0 * kMatmulN * std::numeric_limits<double>::epsilon();
    for (std::size_t v = 0; v < kVariants; ++v) {
      Matrix c(kMatmulN, kMatmulN), ref(kMatmulN, kMatmulN);
      pe::kernels::matmul_tiled(matmul[v].a, matmul[v].b, c);
      pe::kernels::matmul_naive(matmul[v].a, matmul[v].b, ref);
      for (std::size_t i = 0; i < kMatmulN; ++i) {
        for (std::size_t j = 0; j < kMatmulN; ++j) {
          double abs_ab = 0.0;
          for (std::size_t k = 0; k < kMatmulN; ++k)
            abs_ab += std::abs(matmul[v].a(i, k) * matmul[v].b(k, j));
          if (!(std::abs(c(i, j) - ref(i, j)) <= scale * abs_ab)) {
            ++wrong;
            i = kMatmulN;
            break;
          }
        }
      }
      std::vector<double> y(kSpmvRows), y_ref(kSpmvRows);
      pe::kernels::spmv_csr(spmv[v].m, spmv[v].x, y);
      pe::kernels::spmv_coo(pe::kernels::csr_to_coo(spmv[v].m), spmv[v].x,
                            y_ref);
      wrong += y != y_ref;
      Grid2D out(kGridN, kGridN), out_ref(kGridN, kGridN);
      pe::kernels::stencil_step_blocked(grid[v], out);
      pe::kernels::stencil_step_naive(grid[v], out_ref);
      wrong += out.data() != out_ref.data();
    }
    return wrong;
  }
};

/// Per-run record the traced kernel wrapper fills (one writer: the worker
/// running the leader; read after the submission's future resolved).
struct RunSlot {
  std::uint64_t kernel_ns = 0;
  std::uint32_t calls = 0;
  std::array<std::pair<std::uint64_t, std::uint64_t>, kKernelSpans> spans{};
};

/// A phase's pre-generated arrivals: the program sees only these.
struct Plan {
  std::vector<double> offset_s;  ///< scheduled send time from phase start
  std::vector<SubmissionRequest> requests;
  std::vector<std::int64_t> owner;  ///< repeat: index that introduced the key
  std::vector<RunSlot> slots;       ///< traced run only
};

Plan make_plan(const Corpus& corpus, pe::Rng& rng, double rate,
               std::size_t count, const std::string& prefix, bool traced) {
  Plan plan;
  plan.offset_s.reserve(count);
  plan.requests.reserve(count);
  plan.owner.reserve(count);
  if (traced) plan.slots.resize(count);
  std::vector<std::size_t> recent;  // indices that introduced a key
  double t = 0.0;
  for (std::size_t i = 0; i < count; ++i) {
    t += rng.next_exponential(rate);
    plan.offset_s.push_back(t);
    SubmissionRequest req;
    req.tenant = "tenant" + std::to_string(rng.next_range(0, kTenants - 1));
    const bool repeat = !recent.empty() && rng.next_double() < kRepeatShare;
    if (repeat) {
      const std::size_t owner =
          recent[rng.next_range(0, recent.size() - 1)];
      req.workload_key = plan.requests[owner].workload_key;
      req.kernel = plan.requests[owner].kernel;
      plan.owner.push_back(static_cast<std::int64_t>(owner));
    } else {
      const int kind = static_cast<int>(rng.next_range(0, 2));
      const std::size_t variant = rng.next_range(0, kVariants - 1);
      req.workload_key = prefix + "-" + std::to_string(i);
      req.kernel = corpus.kernel(kind, variant);
      if (traced) {
        req.kernel = [kernel = req.kernel, slot = &plan.slots[i]] {
          const std::uint64_t t0 = now_ns();
          kernel();
          const std::uint64_t t1 = now_ns();
          if (slot->calls < kKernelSpans) slot->spans[slot->calls] = {t0, t1};
          ++slot->calls;
          slot->kernel_ns += t1 - t0;
        };
      }
      plan.owner.push_back(-1);
      recent.push_back(i);
      if (recent.size() > kRecentKeys) recent.erase(recent.begin());
    }
    plan.requests.push_back(std::move(req));
  }
  return plan;
}

ServiceConfig service_config(const Host& host) {
  ServiceConfig config;
  config.workers = pool_workers(host.nproc);
  config.measurement.warmup_runs = 0;
  config.measurement.repetitions = 1;
  config.measurement.min_batch_seconds = 5e-4;
  config.calibration_hash = "host:" + host.cpu_model + ":" +
                            std::to_string(host.nproc) + ":" +
                            std::to_string(host.llc_bytes);
  return config;
}

/// What one phase of arrivals produced.
struct PhaseResult {
  std::vector<double> latency_s;  ///< every submission; inf = missed
  std::vector<double> hit_latency_s, leader_latency_s;
  std::vector<double> submit_s, queue_s, run_s, lag_s;
  std::vector<double> depth;          ///< queue depth after each submit
  std::vector<double> depth_time_s;   ///< when each depth was sampled
  std::vector<double> calls;  ///< kernel calls per leader run, traced only
  ServiceStats stats;
  std::size_t completed_in_limit = 0;
  double window_s = 0.0;  ///< first to last scheduled send
  double solve_s = 0.0;   ///< first scheduled send to last terminal
  double planned_per_s = 0.0;  ///< the plan's rate over its window
  double offered_per_s = 0.0;  ///< achieved: over first to last real send
};

/// Run one phase; counts operations and failures into `report`.
PhaseResult run_phase(BenchmarkService& service, Plan& plan, Report& report,
                      ThreadBudget& budget, SpanLog* spans,
                      std::uint64_t first_id) {
  const std::size_t n = plan.requests.size();
  PhaseResult out;
  std::vector<SubmitResult> results;
  results.reserve(n);
  std::vector<double> submit_start(n), submit_end(n);
  out.lag_s.reserve(n);
  out.depth.reserve(n);
  out.depth_time_s.reserve(n);

  const auto start_tp = std::chrono::steady_clock::now() +
                        std::chrono::microseconds(1000);
  const double start =
      std::chrono::duration<double>(start_tp.time_since_epoch()).count();
  for (std::size_t i = 0; i < n; ++i) {
    std::this_thread::sleep_until(
        start_tp + std::chrono::duration_cast<std::chrono::nanoseconds>(
                       std::chrono::duration<double>(plan.offset_s[i])));
    submit_start[i] = steady_s();
    results.push_back(service.submit(std::move(plan.requests[i])));
    submit_end[i] = steady_s();
    out.depth.push_back(static_cast<double>(service.queue_depth()));
    out.depth_time_s.push_back(submit_end[i] - start);
    out.lag_s.push_back(
        std::max(0.0, submit_start[i] - (start + plan.offset_s[i])));
  }
  const double sent = steady_s();
  budget.sample();

  // Every future must resolve; a future still pending after the grace
  // period is lost.
  const auto grace = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  std::vector<std::optional<pe::service::Outcome>> outcomes(n);
  std::size_t lost = 0;
  for (std::size_t i = 0; i < n; ++i) {
    if (!results[i].outcome.valid() ||
        results[i].outcome.wait_until(grace) != std::future_status::ready) {
      ++lost;
      continue;
    }
    outcomes[i] = results[i].outcome.get();
  }
  out.stats = service.stats();

  std::vector<double> terminal(n, std::numeric_limits<double>::infinity());
  double last_terminal = sent;
  for (std::size_t i = 0; i < n; ++i) {
    report.attempt();
    const double scheduled = start + plan.offset_s[i];
    out.submit_s.push_back(submit_end[i] - submit_start[i]);
    if (!outcomes[i]) continue;
    const pe::service::Outcome& o = *outcomes[i];
    const SubmitResult& r = results[i];
    if (r.admitted) {
      terminal[i] = submit_start[i] + o.queue_seconds + o.run_seconds;
    } else if (r.coalesced && plan.owner[i] >= 0) {
      terminal[i] = std::max(submit_end[i],
                             terminal[static_cast<std::size_t>(plan.owner[i])]);
    } else {
      terminal[i] = submit_end[i];
    }
    if (std::isfinite(terminal[i]))
      last_terminal = std::max(last_terminal, terminal[i]);
    if (o.state == TerminalState::kFailed) {
      report.fail("submission failed: " + o.error);
      continue;
    }
    if (o.state != TerminalState::kCompleted) continue;  // shed: a miss
    const pe::Measurement& m = o.measurement;
    const bool valid = m.batch_iterations >= 1 && m.seconds.size() == 1 &&
                       std::isfinite(m.seconds[0]) && m.seconds[0] > 0.0 &&
                       m.summary.median > 0.0;
    if (!valid) {
      report.fail("completed outcome without a valid Measurement");
      continue;
    }
    const double latency = terminal[i] - scheduled;
    out.latency_s.push_back(latency);
    if (latency <= kLatencyLimitS) ++out.completed_in_limit;
    if (r.admitted) {
      out.leader_latency_s.push_back(latency);
      out.queue_s.push_back(o.queue_seconds);
      out.run_s.push_back(o.run_seconds);
    } else {
      out.hit_latency_s.push_back(latency);
    }
    if (spans != nullptr) {
      const std::uint64_t id = first_id + i;
      const auto ns = [](double s) {
        return static_cast<std::uint64_t>(std::llround(s * 1e9));
      };
      const std::size_t root = spans->add("service.request", ns(scheduled),
                                          ns(terminal[i]), id);
      spans->add("service.submit", ns(submit_start[i]), ns(submit_end[i]), id,
                 static_cast<std::int64_t>(root));
      if (r.admitted) {
        const double dequeue = submit_start[i] + o.queue_seconds;
        spans->add("service.queue", ns(submit_start[i]), ns(dequeue), id,
                   static_cast<std::int64_t>(root));
        const std::size_t run = spans->add("service.run", ns(dequeue),
                                           ns(terminal[i]), id,
                                           static_cast<std::int64_t>(root));
        const RunSlot& slot = plan.slots[i];
        const std::size_t kept = std::min<std::size_t>(slot.calls, kKernelSpans);
        for (std::size_t k = 0; k < kept; ++k)
          spans->add("measure.kernel", slot.spans[k].first,
                     slot.spans[k].second, id, static_cast<std::int64_t>(run));
        out.calls.push_back(static_cast<double>(slot.calls));
      }
    }
  }
  // Sheds, failures and lost futures miss the latency limit.
  out.latency_s.resize(n, std::numeric_limits<double>::infinity());

  if (lost > 0) report.fail("futures never resolved", lost);
  const ServiceStats& s = out.stats;
  const auto ledger = [&](bool ok, const char* what) {
    if (!ok) report.fail(std::string("ledger identity broken: ") + what);
  };
  ledger(s.submitted == n, "submitted == submit() calls");
  ledger(s.terminal() == s.submitted, "terminal() == submitted");
  ledger(s.submitted == s.admitted + s.coalesced + s.cache_hits +
                            s.shed_at_admission(),
         "submitted == admitted + coalesced + cache_hits + shed_at_admission");
  ledger(s.admitted == s.completed + s.failed + s.shed_deadline +
                           s.shed_shutdown_queued,
         "admitted == completed + failed + shed_deadline + shed_shutdown");
  ledger(s.workloads_run <= s.admitted, "workloads_run <= admitted");

  const auto per_second = [n](double window) {
    return window > 0.0 ? static_cast<double>(n - 1) / window : 0.0;
  };
  out.window_s = plan.offset_s.back() - plan.offset_s.front();
  out.planned_per_s = per_second(out.window_s);
  out.offered_per_s = per_second(submit_start.back() - submit_start.front());
  out.solve_s = last_terminal - (start + plan.offset_s.front());
  return out;
}

/// The generator kept its schedule: p99 lag within bound and the achieved
/// send rate within kMinOfferedShare of the plan's own rate.
bool generator_valid(const PhaseResult& r) {
  return percentile_or_zero(r.lag_s, 99.0) <= kMaxLagP99S &&
         r.offered_per_s >= kMinOfferedShare * r.planned_per_s;
}

/// The queue still grows at the end of the phase: mean depth over the
/// last quarter exceeds twice the second quarter's mean plus ten (a stable
/// queue's depth wanders by a few; an overloaded one grows by hundreds).
bool backlog_grew(const PhaseResult& r) {
  if (r.depth_time_s.empty()) return false;
  const double end = r.depth_time_s.back();
  double q2 = 0.0, q4 = 0.0;
  std::size_t n2 = 0, n4 = 0;
  for (std::size_t i = 0; i < r.depth.size(); ++i) {
    const double f = r.depth_time_s[i] / end;
    if (f >= 0.25 && f < 0.5) {
      q2 += r.depth[i];
      ++n2;
    } else if (f >= 0.75) {
      q4 += r.depth[i];
      ++n4;
    }
  }
  if (n2 == 0 || n4 == 0) return false;
  return q4 / n4 > 2.0 * (q2 / n2) + 10.0;
}

/// Sum of the counters of several phases.
ServiceStats total_stats(const std::vector<PhaseResult>& phases) {
  ServiceStats t;
  for (const PhaseResult& p : phases) {
    const ServiceStats& s = p.stats;
    t.submitted += s.submitted;
    t.admitted += s.admitted;
    t.coalesced += s.coalesced;
    t.cache_hits += s.cache_hits;
    t.shed_queue_full += s.shed_queue_full;
    t.shed_tenant_share += s.shed_tenant_share;
    t.shed_breaker += s.shed_breaker;
    t.shed_admission_fault += s.shed_admission_fault;
    t.shed_shutdown_door += s.shed_shutdown_door;
    t.shed_deadline += s.shed_deadline;
    t.shed_shutdown_queued += s.shed_shutdown_queued;
    t.completed += s.completed;
    t.failed += s.failed;
    t.workloads_run += s.workloads_run;
  }
  return t;
}

/// One field of every phase, concatenated.
std::vector<double> pooled(const std::vector<PhaseResult>& phases,
                           std::vector<double> PhaseResult::*field) {
  std::vector<double> all;
  for (const PhaseResult& p : phases)
    all.insert(all.end(), (p.*field).begin(), (p.*field).end());
  return all;
}

/// Median over phases of a per-phase statistic.
template <typename F>
double median_over(const std::vector<PhaseResult>& phases, F stat) {
  std::vector<double> xs;
  for (const PhaseResult& p : phases) xs.push_back(stat(p));
  return median_or_zero(xs);
}

void require_on_schedule(const PhaseResult& r, const std::string& phase) {
  if (!generator_valid(r))
    throw InvalidRun("generator fell behind in the " + phase +
                     " phase: lag p99 " +
                     std::to_string(percentile_or_zero(r.lag_s, 99.0) * 1e3) +
                     " ms, offered " + std::to_string(r.offered_per_s) + "/s");
}

}  // namespace

void run_service_mixed(const RunOptions& o, Report& report) {
  ThreadBudget budget(o.host.nproc);
  const ServiceConfig config = service_config(o.host);

  // Nominal phases fill about half of --seconds; the ladder the rest.
  const auto nominal_phases = static_cast<std::size_t>(std::max(
      1L, std::lround(o.seconds * 0.5 * kNominalRate / kPhaseSubmissions)));

  // Set-up: input corpus, the nominal arrival plans, and the service start.
  std::vector<double> setup_s;
  std::unique_ptr<Corpus> corpus;
  std::unique_ptr<BenchmarkService> service;
  std::vector<Plan> plans;
  pe::Rng rng(o.seed);
  for (int r = 0; r < kServiceSetupRepeats; ++r) {
    service.reset();
    plans.clear();
    corpus.reset();
    const std::uint64_t t0 = now_ns();
    corpus = std::make_unique<Corpus>(o.seed);
    rng = pe::Rng(o.seed ^ 0xa11ce5ULL);
    for (std::size_t p = 0; p < nominal_phases; ++p)
      plans.push_back(make_plan(*corpus, rng, kNominalRate, kPhaseSubmissions,
                                "nominal" + std::to_string(p), false));
    service = std::make_unique<BenchmarkService>(config);
    setup_s.push_back((now_ns() - t0) * 1e-9);
    budget.sample();
  }
  report.note(samples_note("setup_s samples", setup_s, "s"));
  report.note("machine_hash = none (service_mixed runs no probe); cache key "
              "hash = " + config.calibration_hash);
  report.note("threads: service workers = " + std::to_string(config.workers) +
              " + 1 generator thread, nproc = " + std::to_string(o.host.nproc) +
              ", no CPU affinity set");
  char load[256];
  std::snprintf(load, sizeof(load),
                "load: open loop, Poisson, %zu tenants, ~1/3 repeated keys; "
                "%zu submissions per phase; nominal %.0f/s; latency limit "
                "%.2f ms on the tail",
                kTenants, kPhaseSubmissions, kNominalRate,
                kLatencyLimitS * 1e3);
  report.note(load);

  // Nominal phases; the traced run alternates them with traced phases.
  std::unique_ptr<pe::observe::Tracer> tracer;
  if (o.traced) {
    pe::observe::TracerConfig tracer_config;
    tracer_config.lanes = config.workers + 1;
    tracer_config.ring_capacity = std::size_t{1} << 17;
    tracer = std::make_unique<pe::observe::Tracer>(tracer_config);
  }
  // Warm-up phase at the nominal rate, checked but not reported: on a VM
  // whose vCPUs sat idle, the first second of wake-up-heavy load runs
  // several-fold slower until the host settles.
  // It runs on the service set-up started; each phase gets a fresh one.
  {
    Plan warm = make_plan(*corpus, rng, kNominalRate, kPhaseSubmissions,
                          "warmup", false);
    (void)run_phase(*service, warm, report, budget, nullptr, 0);
    service.reset();
  }
  SpanLog spans;
  std::vector<PhaseResult> nominal, traced;
  for (std::size_t p = 0; p < nominal_phases; ++p) {
    service = std::make_unique<BenchmarkService>(config);
    nominal.push_back(
        run_phase(*service, plans[p], report, budget, nullptr, 0));
    service.reset();
    require_on_schedule(nominal.back(), "nominal");
    if (!o.traced) continue;
    Plan traced_plan = make_plan(*corpus, rng, kNominalRate,
                                 kPhaseSubmissions,
                                 "traced" + std::to_string(p), true);
    {
      BenchmarkService traced_service(config);
      pe::observe::ScopedTrace scope(*tracer);
      traced.push_back(run_phase(traced_service, traced_plan, report, budget,
                                 &spans, p * kPhaseSubmissions));
    }  // the trace scope closes first; the tracer outlives the pool
    require_on_schedule(traced.back(), "traced");
  }
  const ServiceStats nominal_stats = total_stats(nominal);
  report.note("shed_frac = " +
              std::to_string(static_cast<double>(nominal_stats.shed_total()) /
                             static_cast<double>(nominal_stats.submitted)) +
              " frac (shed_total / submitted at the nominal rate)");
  const auto p50 = [](const PhaseResult& r) {
    return median_or_zero(r.latency_s);
  };

  if (!o.traced) {
    // Each statistic per phase, then the median over phases: one phase
    // hit by a host stall moves none of them.
    const Tail first = tail(nominal.front().latency_s);
    const double lat_p50 = median_over(nominal, p50);
    const double lat_tail = median_over(
        nominal, [](const PhaseResult& r) { return tail(r.latency_s).value; });
    report.set("setup_s", median_or_zero(setup_s));
    report.set("solve_s",
               median_over(nominal, [](const PhaseResult& r) {
                 return r.solve_s;
               }));
    report.set("lat_p50_ms", lat_p50 * 1e3);
    report.set("step_p50_us", lat_p50 * 1e6);
    Tail median_tail = first;
    median_tail.value = lat_tail;
    report.note(tail_note("step_tail_us", median_tail, 1e6, "us",
                          "submissions per phase"));
    report.note(tail_note("lat_tail_ms", median_tail, 1e3, "ms",
                          "submissions per phase"));
    report.set("goodput_per_s",
               median_over(nominal, [](const PhaseResult& r) {
                 return static_cast<double>(r.completed_in_limit) / r.window_s;
               }));
    std::snprintf(load, sizeof(load),
                  "nominal: %zu phases, statistics are medians over phases; "
                  "offered %.0f/s; lag p99 %.3f ms",
                  nominal.size(),
                  median_over(nominal, [](const PhaseResult& r) {
                    return r.offered_per_s;
                  }),
                  percentile_or_zero(pooled(nominal, &PhaseResult::lag_s),
                                     99.0) * 1e3);
    report.note(load);

    // Rate ladder: fixed rates, ascending. A rung passes when it keeps the
    // tail within the limit with no growing backlog and the generator on
    // schedule; a miss is run once more before it counts, so one host
    // stall does not end the ladder. The ladder stops at the first miss.
    double max_rate = 0.0;
    for (std::size_t k = 0; k < kLadder.size(); ++k) {
      const double rate = kLadder[k];
      bool ok = false;
      for (int attempt = 0; attempt < 2 && !ok; ++attempt) {
        Plan rung_plan = make_plan(*corpus, rng, rate, kPhaseSubmissions,
                                   "rung" + std::to_string(k) + "." +
                                       std::to_string(attempt),
                                   false);
        BenchmarkService rung_service(config);
        const PhaseResult r =
            run_phase(rung_service, rung_plan, report, budget, nullptr, 0);
        const Tail rt = tail(r.latency_s);
        const bool on_schedule = generator_valid(r);
        const bool grew = backlog_grew(r);
        ok = on_schedule && !grew && rt.value <= kLatencyLimitS;
        char line[256];
        std::snprintf(line, sizeof(line),
                      "rung %.0f/s: lat p%g %.3f ms, backlog %s, generator "
                      "%s -> %s",
                      rate, rt.percentile, rt.value * 1e3,
                      grew ? "grows" : "steady",
                      on_schedule ? "on schedule" : "behind",
                      ok ? "meets" : "misses");
        report.note(line);
      }
      if (!ok) break;
      max_rate = rate;
    }
    report.set("max_rate_per_s", max_rate);
  } else {
    const pe::observe::Trace trace = tracer->take();
    const ServiceStats st = total_stats(traced);
    const double subs = static_cast<double>(st.submitted);
    const pe::observe::LatencyReport dispatch =
        pe::observe::scheduler_latency(trace);
    const pe::observe::ContentionReport contention =
        pe::observe::contention_profile(trace);
    report.set("parallel.dispatch_p50_us", dispatch.p50_ns * 1e-3);
    report.set("parallel.dispatch_p99_us", dispatch.p99_ns * 1e-3);
    report.set("parallel.parks_per_step",
               static_cast<double>(contention.total_parks) / subs);
    report.set("parallel.park_ms_per_step",
               contention.total_park_ns * 1e-6 / subs);
    report.set("parallel.steals_per_step",
               static_cast<double>(contention.total_steals) / subs);

    // measure: the runner's own time inside a run is the run span's self
    // time (the run minus the kernel calls the wrapper timed).
    const std::vector<std::uint64_t> self = spans.self_times();
    std::vector<double> run_self_ms;
    for (std::size_t i = 0; i < spans.spans().size(); ++i) {
      if (std::string_view(spans.spans()[i].name) == "service.run")
        run_self_ms.push_back(static_cast<double>(self[i]) * 1e-6);
    }
    report.set("measure.run_overhead_ms", median_or_zero(run_self_ms));
    report.set("measure.kernel_calls_per_run",
               median_or_zero(pooled(traced, &PhaseResult::calls)));

    const std::vector<double> submit_s = pooled(traced, &PhaseResult::submit_s);
    const std::vector<double> queue_s = pooled(traced, &PhaseResult::queue_s);
    const std::vector<double> run_s = pooled(traced, &PhaseResult::run_s);
    report.set("service.submit_us.p50", median_or_zero(submit_s) * 1e6);
    report.set("service.submit_us.p99",
               percentile_or_zero(submit_s, 99.0) * 1e6);
    report.set("service.queue_ms.p50", median_or_zero(queue_s) * 1e3);
    report.set("service.queue_ms.p99", percentile_or_zero(queue_s, 99.0) * 1e3);
    report.set("service.run_ms.p50", median_or_zero(run_s) * 1e3);
    report.set("service.run_ms.p99", percentile_or_zero(run_s, 99.0) * 1e3);
    report.set("service.queue_depth_p99",
               percentile_or_zero(pooled(traced, &PhaseResult::depth), 99.0));
    report.set("service.hit_lat_us.p50",
               median_or_zero(pooled(traced, &PhaseResult::hit_latency_s)) *
                   1e6);
    report.set(
        "service.leader_lat_ms.p50",
        median_or_zero(pooled(traced, &PhaseResult::leader_latency_s)) * 1e3);
    report.set("service.reuse_ratio",
               static_cast<double>(st.cache_hits + st.coalesced) / subs);
    report.note("service.reuse_ratio base: " + std::to_string(st.submitted) +
                " submitted, " + std::to_string(st.cache_hits) + " hits, " +
                std::to_string(st.coalesced) + " coalesced");

    // M/M/c at the measured leader arrival rate and per-worker service
    // rate; a ratio far above 1 means the wait is dispatch, not queueing.
    double mean_wait = 0.0, mean_run = 0.0, window = 0.0;
    for (const double q : queue_s) mean_wait += q;
    for (const double r : run_s) mean_run += r;
    for (const PhaseResult& r : traced) window += r.window_s;
    mean_wait /= static_cast<double>(std::max<std::size_t>(1, queue_s.size()));
    mean_run /= static_cast<double>(std::max<std::size_t>(1, run_s.size()));
    const double lambda = static_cast<double>(st.admitted) / window;
    try {
      const pe::models::QueueMetrics mmc = pe::models::mmc(
          lambda, 1.0 / mean_run, static_cast<unsigned>(config.workers));
      report.set("service.wq_vs_mmc", mean_wait / mmc.mean_wait);
      std::snprintf(load, sizeof(load),
                    "M/M/c: lambda %.0f/s, mu %.0f/s per worker, c %zu, rho "
                    "%.3f; model Wq %.2f us, measured %.2f us",
                    lambda, 1.0 / mean_run, config.workers, mmc.utilization,
                    mmc.mean_wait * 1e6, mean_wait * 1e6);
      report.note(load);
    } catch (const std::exception& e) {
      report.note(std::string("M/M/c not applicable: ") + e.what());
    }
    report.set("service.shed.queue-full",
               static_cast<double>(st.shed_queue_full));
    report.set("service.shed.tenant-share",
               static_cast<double>(st.shed_tenant_share));
    report.set("service.shed.breaker", static_cast<double>(st.shed_breaker));
    report.set("service.shed.admission-fault",
               static_cast<double>(st.shed_admission_fault));
    report.set("service.shed.deadline", static_cast<double>(st.shed_deadline));
    report.set("service.shed.shutdown",
               static_cast<double>(st.shed_shutdown_door +
                                   st.shed_shutdown_queued));
    report.set("gen.lag_p99_ms",
               percentile_or_zero(pooled(traced, &PhaseResult::lag_s), 99.0) *
                   1e3);
    report.set("gen.offered_per_s",
               median_over(traced, [](const PhaseResult& r) {
                 return r.offered_per_s;
               }));
    report.set("observe.overhead_frac",
               median_over(traced, p50) / median_over(nominal, p50) - 1.0);
    report.set("observe.dropped", static_cast<double>(trace.dropped));
    report.note("trace: " + std::to_string(trace.recorded) + " events, " +
                std::to_string(trace.dropped) + " dropped");
    if (!o.spans_path.empty())
      spans.write(o.spans_path, span_header(o, "none"));
  }

  const std::size_t wrong = corpus->wrong_outputs();
  report.attempt(3 * kVariants);
  if (wrong > 0)
    report.fail("service kernel outputs differ from references", wrong);
  if (!o.traced) report.set("peak_rss_mb", peak_rss_mib());
  report_thread_budget(budget, report, o.traced);
}

}  // namespace perfbench
