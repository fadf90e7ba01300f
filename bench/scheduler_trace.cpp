// Scheduler observability experiment: capture a full scheduler trace of
// the packed matmul and balanced SpMV kernels, export it as collapsed
// flame-graph stacks + a Chrome trace_event timeline, and report the
// submit->start latency distribution (p50/p95/p99) with the per-lane
// contention profile (docs/observability.md).
//
// `--check` is the CI gate: it validates that both exports are
// well-formed (the capture round-trips through Trace::load, collapsed
// stacks carry parallel_for provenance frames, the Chrome JSON parses and
// has a slice at the exact start of every captured chunk) and that the
// *disabled*-hook path — the one relaxed load + branch every pin site pays
// when no tracer is installed, and the one branch per chunk — adds less
// than 2% to bulk parallel_for chunk dispatch.
#include <algorithm>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"
#include "perfeng/common/table.hpp"
#include "perfeng/common/trace_hook.hpp"
#include "perfeng/kernels/matmul.hpp"
#include "perfeng/kernels/sparse.hpp"
#include "perfeng/machine/registry.hpp"
#include "perfeng/measure/experiment.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/microbench/scheduler.hpp"
#include "perfeng/observe/analysis.hpp"
#include "perfeng/observe/export.hpp"
#include "perfeng/observe/tracer.hpp"

namespace {

// Disabled-hook cost of one chunk's trace sites, measured with the exact
// structure BulkLoop::execute uses: the trace hook is pinned once per job
// copy (amortizing the atomic load over all its chunks) and each chunk
// pays one branch on the pinned pointer. Differential measurement — the
// same loop with and without the guard sites — isolates the guards from
// the loop scaffolding.
double measure_chunk_guard_ns(const pe::BenchmarkRunner& runner) {
  constexpr std::size_t kChunks = 4096;
  const pe::Measurement base = runner.run("trace.chunk_baseline", [] {
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kChunks; ++i) {
      acc += i;
      pe::clobber_memory();
    }
    pe::do_not_optimize(acc);
  });
  const pe::Measurement guarded = runner.run("trace.chunk_guarded", [] {
    const auto pin = pe::HookSlot<pe::TraceHook>::pin();
    pe::TraceHook* const trace = pin.get();
    std::uint64_t acc = 0;
    for (std::size_t i = 0; i < kChunks; ++i) {
      if (trace == nullptr) {
        acc += i;
      } else {
        // obj must not be &acc: taking acc's address would force it to
        // memory and the delta would measure the spill, not the guards.
        trace->on_event(pe::TraceEventKind::kChunkStart, nullptr, i, i + 1,
                        0, nullptr, 0);
        acc += i;
        trace->on_event(pe::TraceEventKind::kChunkFinish, nullptr, i, i + 1,
                        0, nullptr, 0);
      }
      pe::clobber_memory();
    }
    pe::do_not_optimize(acc);
  });
  // best() (min over batches), not typical(): we are subtracting two
  // sub-nanosecond-per-iteration loops, and any scheduling noise in either
  // median swamps the guards. The minimum is the classic low-noise
  // estimator for CPU-bound microbenches; the difference of minima is the
  // guards' true cost.
  const double delta = guarded.best() - base.best();
  return std::max(0.0, delta) * 1e9 / static_cast<double>(kChunks);
}

// Cost of one disabled pin (atomic load + branch) — what every per-event
// site (kSubmit, kSteal, kPark, ...), every job copy and every loop pays.
double measure_load_guard_ns(const pe::BenchmarkRunner& runner) {
  constexpr std::size_t kSites = 4096;
  const pe::Measurement m = runner.run("trace.guard_disabled", [] {
    for (std::size_t i = 0; i < kSites; ++i) {
      pe::trace_event(pe::TraceEventKind::kSubmit, nullptr, 0, 0, 0);
      pe::clobber_memory();
    }
  });
  return m.best() * 1e9 / static_cast<double>(kSites);
}

struct TracedKernels {
  double matmul_ms = 0.0;
  double spmv_ms = 0.0;
};

// The two kernels the acceptance criteria name, run under the installed
// tracer: packed matmul exercises a static loop (zero-filling C) and
// dynamic claims (B strips, then one row panel per claim); balanced SpMV
// on a power-law matrix exercises dynamic claims of rows-plus-nonzeros
// balanced parts, kSpmvChunksPerLane per lane.
TracedKernels run_traced_kernels(pe::ThreadPool& pool) {
  using namespace pe::kernels;
  TracedKernels out;

  pe::Rng rng(42);
  const std::size_t n = 192;
  Matrix a(n, n), b(n, n), c(n, n);
  a.randomize(rng);
  b.randomize(rng);
  {
    // Small panels force several pack/compute sweeps per multiply, so the
    // trace carries many chunks rather than one giant block per worker.
    const MatmulBlocking blocking{.mc = 32, .kc = 64, .nc = 64};
    pe::WallTimer t;
    for (int rep = 0; rep < 3; ++rep)
      matmul_parallel_packed(a, b, c, pool, blocking);
    out.matmul_ms = t.elapsed() * 1e3 / 3.0;
    pe::do_not_optimize(c(0, 0));
  }

  const CsrMatrix csr = coo_to_csr(
      generate_sparse(20000, 20000, 2e-3, SparsityPattern::kPowerLaw, rng));
  std::vector<double> x(csr.cols, 1.0), y(csr.rows, 0.0);
  {
    pe::WallTimer t;
    for (int rep = 0; rep < 5; ++rep)
      spmv_csr_parallel_balanced(csr, x, y, pool);
    out.spmv_ms = t.elapsed() * 1e3 / 5.0;
    pe::do_not_optimize(y[0]);
  }
  return out;
}

bool check_collapsed(const std::string& folded) {
  if (folded.empty()) {
    std::fprintf(stderr, "CHECK: collapsed output is empty\n");
    return false;
  }
  bool saw_provenance = false;
  std::istringstream in(folded);
  std::string line;
  std::size_t lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    const std::size_t space = line.rfind(' ');
    if (space == std::string::npos || space + 1 >= line.size()) {
      std::fprintf(stderr, "CHECK: collapsed line %zu has no weight\n",
                   lineno);
      return false;
    }
    for (std::size_t i = space + 1; i < line.size(); ++i) {
      if (line[i] < '0' || line[i] > '9') {
        std::fprintf(stderr,
                     "CHECK: collapsed line %zu weight is not a number\n",
                     lineno);
        return false;
      }
    }
    if (line.find("parallel_for@") != std::string::npos)
      saw_provenance = true;
  }
  if (!saw_provenance) {
    std::fprintf(stderr,
                 "CHECK: no parallel_for provenance frame in any stack\n");
    return false;
  }
  return true;
}

// The Chrome export, parsed back: lane names, complete slices, and for
// every chunk_start of the capture a slice on its lane at ns / 1000 (the
// export's microseconds, exact to 1 ns).
bool check_chrome(const std::string& json, const pe::observe::Trace& trace) {
  pe::JsonValue doc;
  try {
    doc = pe::json_parse(json, "chrome trace");
  } catch (const pe::Error& e) {
    std::fprintf(stderr, "CHECK: %s\n", e.what());
    return false;
  }
  const pe::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) {
    std::fprintf(stderr, "CHECK: chrome trace has no traceEvents\n");
    return false;
  }
  std::map<std::uint64_t, std::vector<double>> slice_ts;  // tid -> ts
  bool named = false;
  for (const pe::JsonValue& e : events->array) {
    const pe::JsonValue* ph = e.find("ph");
    const pe::JsonValue* name = e.find("name");
    const pe::JsonValue* tid = e.find("tid");
    const pe::JsonValue* ts = e.find("ts");
    if (ph == nullptr || tid == nullptr || !tid->as_uint()) continue;
    named |= ph->text == "M" && name != nullptr && name->text == "thread_name";
    if (ph->text == "X" && ts != nullptr)
      slice_ts[*tid->as_uint()].push_back(ts->number);
  }
  if (slice_ts.empty() || !named) {
    std::fprintf(stderr, "CHECK: chrome trace missing required structure\n");
    return false;
  }
  for (auto& [tid, ts] : slice_ts) std::sort(ts.begin(), ts.end());
  std::size_t unmatched = 0;
  for (const pe::observe::TraceRecord& e : trace.events) {
    if (e.kind != pe::TraceEventKind::kChunkStart) continue;
    const double want = static_cast<double>(e.ns) / 1000.0;
    const std::vector<double>& ts = slice_ts[e.lane];
    const auto it = std::lower_bound(ts.begin(), ts.end(), want - 1e-3);
    if (it == ts.end() || *it > want + 1e-3) ++unmatched;
  }
  if (unmatched != 0) {
    std::fprintf(stderr,
                 "CHECK: %zu chunk_start events have no chrome slice at "
                 "ns / 1000 on their lane\n",
                 unmatched);
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  bool check = false;
  std::string out_dir = ".";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--check") == 0) {
      check = true;
    } else if (std::strcmp(argv[i], "--out") == 0 && i + 1 < argc) {
      out_dir = argv[++i];
    } else {
      std::fprintf(stderr, "usage: %s [--check] [--out <dir>]\n", argv[0]);
      return 2;
    }
  }

  std::puts("== Scheduler trace: packed matmul + balanced SpMV ==\n");

  // At least four workers even on a small CI box: a 1-worker pool takes the
  // inline dispatch path and the trace would carry no submits, steals or
  // parks — the very things this driver exists to capture.
  pe::ThreadPool pool(
      std::max<std::size_t>(4, pe::ThreadPool::default_thread_count()));
  pe::observe::TracerConfig tcfg;
  tcfg.lanes = pool.size() + 1;
  pe::observe::Tracer tracer(tcfg);

  TracedKernels timings;
  {
    pe::observe::ScopedTrace scope(tracer);
    timings = run_traced_kernels(pool);
  }
  const pe::observe::Trace trace = tracer.take();
  const pe::observe::TraceSummary summary = pe::observe::summarize(trace);
  std::printf("%s\n\n", summary.one_line().c_str());

  const pe::observe::LatencyReport latency =
      pe::observe::scheduler_latency(trace);
  std::fputs(latency.to_table().render().c_str(), stdout);
  std::puts("");
  std::fputs(pe::observe::contention_profile(trace).to_table().render().c_str(),
             stdout);

  // The trace aggregates travel as experiment provenance, next to the
  // machine name and calibration hash — same contract as every probe.
  pe::Experiment exp("scheduler_trace");
  exp.add_factor("kernel", {"matmul_packed", "spmv_balanced"});
  exp.set_metrics({"time_ms"});
  exp.set_machine(pe::machine::resolve_or_preset("laptop-x86"));
  pe::observe::annotate(exp, summary);
  exp.record({{"kernel", "matmul_packed"}}, {timings.matmul_ms});
  exp.record({{"kernel", "spmv_balanced"}}, {timings.spmv_ms});
  std::puts("");
  std::fputs(exp.to_table().render().c_str(), stdout);

  // Exports: the raw capture, collapsed flame-graph stacks, Chrome JSON.
  const std::string capture_path = out_dir + "/scheduler_trace.jsonl";
  const std::string folded_path = out_dir + "/scheduler_trace.folded";
  const std::string chrome_path = out_dir + "/scheduler_trace.chrome.json";
  std::ostringstream folded_ss, chrome_ss;
  pe::observe::write_collapsed(folded_ss, trace);
  pe::observe::write_chrome_trace(chrome_ss, trace);
  try {
    trace.save_file(capture_path);
    std::ofstream(folded_path, std::ios::binary) << folded_ss.str();
    std::ofstream(chrome_path, std::ios::binary) << chrome_ss.str();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "cannot write exports: %s\n", e.what());
    return 2;
  }
  std::printf("\nexports: %s, %s, %s\n", capture_path.c_str(),
              folded_path.c_str(), chrome_path.c_str());

  if (!check) return 0;

  // --- CI gate ------------------------------------------------------------
  bool ok = true;

  if (trace.count(pe::TraceEventKind::kChunkStart) == 0) {
    std::fprintf(stderr, "CHECK: no chunk events captured\n");
    ok = false;
  }
  if (latency.samples_ns.empty()) {
    std::fprintf(stderr, "CHECK: no latency samples matched\n");
    ok = false;
  } else if (!(latency.p50_ns <= latency.p95_ns &&
               latency.p95_ns <= latency.p99_ns)) {
    std::fprintf(stderr, "CHECK: latency percentiles not monotone\n");
    ok = false;
  }
  ok = check_collapsed(folded_ss.str()) && ok;
  ok = check_chrome(chrome_ss.str(), trace) && ok;

  // Round-trip: the saved capture must reload to the same event stream.
  try {
    std::ifstream in(capture_path, std::ios::binary);
    const pe::observe::Trace reloaded = pe::observe::Trace::load(in);
    if (reloaded.events.size() != trace.events.size()) {
      std::fprintf(stderr, "CHECK: capture round-trip lost events\n");
      ok = false;
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "CHECK: capture reload failed: %s\n", e.what());
    ok = false;
  }

  // Disabled-hook overhead on bulk dispatch. Per chunk the disabled path
  // pays the one branch in BulkLoop::execute (measured differentially with
  // that exact structure); the pins fire per *loop* (kSubmit and the
  // caller's loop pin) and per job copy (run_job's pin), so they amortize
  // over every chunk of the loop. Total must stay under 2% of the measured
  // per-chunk dispatch cost.
  pe::MeasurementConfig mcfg;
  mcfg.warmup_runs = 2;
  mcfg.repetitions = 11;
  mcfg.min_batch_seconds = 2e-3;
  const pe::BenchmarkRunner runner(mcfg);
  const double chunk_guard_ns = measure_chunk_guard_ns(runner);
  const double load_guard_ns = measure_load_guard_ns(runner);
  const auto probe = pe::microbench::probe_scheduler(runner);
  // Per-loop pins: kSubmit and the caller's loop pin, plus one per job
  // copy (== pool size).
  const double amortized_ns =
      load_guard_ns * (2.0 + static_cast<double>(probe.pool_threads)) /
      static_cast<double>(probe.tasks);
  const double per_chunk_ns = chunk_guard_ns + amortized_ns;
  const double overhead_pct = 100.0 * per_chunk_ns / probe.bulk_ns;
  std::printf(
      "\ndisabled-hook cost: %.3f ns/chunk (pinned branch) + %.4f ns/chunk "
      "(amortized per-loop pins); bulk dispatch %.1f ns/chunk -> %.2f%% "
      "overhead\n",
      chunk_guard_ns, amortized_ns, probe.bulk_ns, overhead_pct);
  if (!(overhead_pct < 2.0)) {
    std::fprintf(stderr, "CHECK FAILED: disabled-hook overhead %.2f%% >= 2%%\n",
                 overhead_pct);
    ok = false;
  }

  if (!ok) {
    std::puts("\nCHECK FAILED");
    return 1;
  }
  std::puts("\nCHECK OK");
  return 0;
}
