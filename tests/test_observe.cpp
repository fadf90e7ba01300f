// pe::observe unit tests: ring overflow accounting, the disabled-hook
// fast path, the hook spine's uninstall guarantees, latency analysis under
// a simulated clock, exporter validity, capture round-trips, and
// (chaos-labelled) trace coherence while the fault injector attacks the
// pool workers mid-loop.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <future>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "perfeng/common/error.hpp"
#include "perfeng/common/json.hpp"
#include "perfeng/common/trace_hook.hpp"
#include "perfeng/measure/experiment.hpp"
#include "perfeng/measure/timer.hpp"
#include "perfeng/observe/analysis.hpp"
#include "perfeng/observe/export.hpp"
#include "perfeng/observe/ring_buffer.hpp"
#include "perfeng/observe/sampler.hpp"
#include "perfeng/observe/trace.hpp"
#include "perfeng/observe/tracer.hpp"
#include "perfeng/parallel/parallel_for.hpp"
#include "perfeng/parallel/thread_pool.hpp"
#include "perfeng/resilience/fault_injection.hpp"

namespace {

using pe::TraceEventKind;
using pe::observe::EventRing;
using pe::observe::Trace;
using pe::observe::TraceRecord;
using pe::observe::Tracer;
using pe::observe::TracerConfig;
using TraceSlot = pe::HookSlot<pe::TraceHook>;

// Deterministic tracer clock: tests advance it explicitly. A plain
// function (TracerConfig::now_ns is a function pointer), so the cursor
// is file-scope state.
std::atomic<std::uint64_t> g_sim_now{0};
std::uint64_t sim_now() { return g_sim_now.load(std::memory_order_relaxed); }

// A trace's Chrome export, parsed back by the shared reader.
pe::JsonValue chrome_json(const Trace& trace) {
  std::ostringstream chrome;
  pe::observe::write_chrome_trace(chrome, trace);
  return pe::json_parse(chrome.str(), "chrome trace");
}

// The trace events of one phase ("M", "X", "i") in document order.
std::vector<const pe::JsonValue*> events_of(const pe::JsonValue& doc,
                                            const std::string& phase) {
  std::vector<const pe::JsonValue*> out;
  const pe::JsonValue* events = doc.find("traceEvents");
  if (events == nullptr) return out;
  for (const pe::JsonValue& e : events->array) {
    const pe::JsonValue* ph = e.find("ph");
    if (ph != nullptr && ph->text == phase) out.push_back(&e);
  }
  return out;
}

TraceRecord make_record(std::uint64_t ns) {
  TraceRecord r;
  r.ns = ns;
  r.kind = TraceEventKind::kSubmit;
  return r;
}

TEST(EventRingTest, CapacityRoundsUpToPowerOfTwo) {
  EXPECT_EQ(EventRing(2).capacity(), 2u);
  EXPECT_EQ(EventRing(5).capacity(), 8u);
  EXPECT_EQ(EventRing(64).capacity(), 64u);
  EXPECT_EQ(EventRing(65).capacity(), 128u);
}

TEST(EventRingTest, DrainBelowCapacityKeepsEverythingInOrder) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 5; ++i) ring.push(make_record(i));
  EXPECT_EQ(ring.recorded(), 5u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceRecord> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 5u);
  for (std::uint64_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i].ns, i);
}

TEST(EventRingTest, WraparoundKeepsTailAndCountsDropped) {
  EventRing ring(8);
  for (std::uint64_t i = 0; i < 20; ++i) ring.push(make_record(i));
  EXPECT_EQ(ring.recorded(), 20u);
  EXPECT_EQ(ring.dropped(), 12u);  // 20 pushed - 8 surviving slots
  std::vector<TraceRecord> out;
  ring.drain(out);
  ASSERT_EQ(out.size(), 8u);
  // The survivors are exactly the newest 8, oldest first.
  for (std::uint64_t i = 0; i < out.size(); ++i)
    EXPECT_EQ(out[i].ns, 12u + i);
}

TEST(EventRingTest, ResetForgetsHistory) {
  EventRing ring(4);
  for (std::uint64_t i = 0; i < 9; ++i) ring.push(make_record(i));
  ring.reset();
  EXPECT_EQ(ring.recorded(), 0u);
  EXPECT_EQ(ring.dropped(), 0u);
  std::vector<TraceRecord> out;
  ring.drain(out);
  EXPECT_TRUE(out.empty());
}

TEST(TracerTest, DisabledHookPathRecordsNothing) {
  ASSERT_EQ(TraceSlot::installed(), nullptr)
      << "another test leaked an installed hook";
  // With no hook installed, emission is an inert no-op and pins are empty.
  pe::trace_event(TraceEventKind::kSubmit, nullptr, 0, 0, 0);
  EXPECT_FALSE(TraceSlot::pin());
}

TEST(TracerTest, ScopedTraceInstallsAndRemovesTheHook) {
  Tracer tracer;
  EXPECT_EQ(TraceSlot::installed(), nullptr);
  {
    pe::observe::ScopedTrace scope(tracer);
    EXPECT_EQ(TraceSlot::installed(), &tracer);
    // Overlapping trace scopes are a harness bug and must throw, leaving
    // the first tracer installed.
    EXPECT_THROW(pe::observe::ScopedTrace nested(tracer), pe::Error);
    EXPECT_EQ(TraceSlot::installed(), &tracer);
  }
  EXPECT_EQ(TraceSlot::installed(), nullptr);
}

// Blocks inside the first kTaskStart it sees for 100 ms.
class StallingHook final : public pe::TraceHook {
 public:
  void on_event(TraceEventKind kind, const void*, std::uint64_t,
                std::uint64_t, std::size_t, const char*,
                std::uint32_t) noexcept override {
    if (kind != TraceEventKind::kTaskStart || entered.exchange(true)) return;
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
    left.store(true);
  }

  std::atomic<bool> entered{false};
  std::atomic<bool> left{false};
};

TEST(HookSpineTest, ScopeEndWaitsForACallbackInsideOnEvent) {
  pe::ThreadPool pool(2);
  StallingHook hook;
  auto scope = std::make_unique<pe::ScopedHook<pe::TraceHook>>(hook);
  std::future<void> done = pool.submit([] {});
  while (!hook.entered.load()) std::this_thread::yield();
  scope.reset();
  EXPECT_TRUE(hook.left.load());
  done.get();
}

// A task satisfies its future before run_job emits kTaskFinish. Ending
// the trace scope while the task runs must still deliver that kTaskFinish.
TEST(HookSpineTest, TraceScopeEndDeliversTheFinishOfARunningTask) {
  pe::ThreadPool pool(2);
  TracerConfig cfg;
  cfg.lanes = pool.size() + 1;
  Tracer tracer(cfg);
  std::atomic<bool> started{false};
  std::future<void> done;
  {
    pe::observe::ScopedTrace scope(tracer);
    done = pool.submit([&started] {
      started.store(true);
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    });
    while (!started.load()) std::this_thread::yield();
  }
  done.get();
  const Trace trace = tracer.take();
  EXPECT_EQ(trace.count(TraceEventKind::kTaskStart), 1u);
  EXPECT_EQ(trace.count(TraceEventKind::kTaskFinish), 1u);
}

class ParkCounter final : public pe::TraceHook {
 public:
  void on_event(TraceEventKind kind, const void*, std::uint64_t,
                std::uint64_t, std::size_t, const char*,
                std::uint32_t) noexcept override {
    if (kind == TraceEventKind::kPark) parks.fetch_add(1);
    if (kind == TraceEventKind::kUnpark) unparks.fetch_add(1);
  }

  std::atomic<int> parks{0};
  std::atomic<int> unparks{0};
};

// Park and unpark are single-event pins, so no pin is held while a worker
// sleeps: uninstall returns at once and wakes nobody. (A pin held across
// the park would hang this test.)
TEST(HookSpineTest, UninstallDoesNotWaitForParkedWorkers) {
  ParkCounter hook;
  auto scope = std::make_unique<pe::ScopedHook<pe::TraceHook>>(hook);
  pe::ThreadPool pool(3);
  // No work ever arrives, so each worker parks exactly once.
  while (hook.parks.load() < 3) std::this_thread::yield();
  const pe::WallTimer t;
  scope.reset();
  EXPECT_LT(t.elapsed(), 1.0);
  EXPECT_EQ(hook.unparks.load(), 0);
}

TEST(TracerTest, OutOfRangeLanesShareTheLastRing) {
  TracerConfig cfg;
  cfg.lanes = 2;
  cfg.ring_capacity = 16;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);
  tracer.on_event(TraceEventKind::kSubmit, nullptr, 0, 0, /*lane=*/99,
                  nullptr, 0);
  const Trace trace = tracer.take();
  // The event is not lost: it lands in the last ring, and the record
  // keeps the raw lane id for attribution.
  ASSERT_EQ(trace.events.size(), 1u);
  EXPECT_EQ(trace.events[0].lane, 99u);
}

TEST(LatencyTest, SimulatedClockGapsReportedExactly) {
  TracerConfig cfg;
  cfg.lanes = 2;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);

  // 100 submit->start pairs, every gap exactly 5000 ns: the whole
  // distribution collapses to one value, so every percentile must be it.
  int keys[100];
  g_sim_now = 0;
  for (int i = 0; i < 100; ++i) {
    g_sim_now = 10000u * static_cast<std::uint64_t>(i);
    tracer.on_event(TraceEventKind::kSubmit, &keys[i], 0, 0, 0, nullptr, 0);
    g_sim_now = 10000u * static_cast<std::uint64_t>(i) + 5000u;
    tracer.on_event(TraceEventKind::kTaskStart, &keys[i], 0, 0, 1, nullptr,
                    0);
  }
  const pe::observe::LatencyReport report =
      pe::observe::scheduler_latency(tracer.take());
  ASSERT_EQ(report.samples_ns.size(), 100u);
  EXPECT_DOUBLE_EQ(report.p50_ns, 5000.0);
  EXPECT_DOUBLE_EQ(report.p95_ns, 5000.0);
  EXPECT_DOUBLE_EQ(report.p99_ns, 5000.0);
  EXPECT_EQ(report.unmatched_starts, 0u);
}

TEST(LatencyTest, TailLatencySeparatesPercentilesMonotonically) {
  TracerConfig cfg;
  cfg.lanes = 2;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);

  // 99 fast dispatches (1 us) and one straggler (1 ms): p50 stays at the
  // fast mode, p99 must feel the tail.
  int keys[100];
  std::uint64_t t = 0;
  for (int i = 0; i < 100; ++i) {
    const std::uint64_t gap = (i == 99) ? 1000000u : 1000u;
    g_sim_now = t;
    tracer.on_event(TraceEventKind::kSubmit, &keys[i], 0, 0, 0, nullptr, 0);
    g_sim_now = t + gap;
    tracer.on_event(TraceEventKind::kTaskStart, &keys[i], 0, 0, 1, nullptr,
                    0);
    t += 2000000u;
  }
  const pe::observe::LatencyReport report =
      pe::observe::scheduler_latency(tracer.take());
  ASSERT_EQ(report.samples_ns.size(), 100u);
  EXPECT_DOUBLE_EQ(report.p50_ns, 1000.0);
  EXPECT_LE(report.p50_ns, report.p95_ns);
  EXPECT_LE(report.p95_ns, report.p99_ns);
  EXPECT_GT(report.p99_ns, 1000.0);
}

TEST(LatencyTest, StartWithoutSubmitCountsAsUnmatched) {
  TracerConfig cfg;
  cfg.lanes = 2;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);
  int key = 0;
  g_sim_now = 100;
  tracer.on_event(TraceEventKind::kTaskStart, &key, 0, 0, 1, nullptr, 0);
  const pe::observe::LatencyReport report =
      pe::observe::scheduler_latency(tracer.take());
  EXPECT_TRUE(report.samples_ns.empty());
  EXPECT_EQ(report.unmatched_starts, 1u);
}

TEST(AnalysisTest, Log2HistogramBucketsByPowerOfTwo) {
  const auto buckets =
      pe::observe::log2_histogram({0.0, 1.0, 2.0, 3.0, 4.0, 1000.0});
  std::size_t total = 0;
  for (const auto& bucket : buckets) {
    total += bucket.count;
    if (bucket.lo_ns != 0) {
      EXPECT_EQ(bucket.lo_ns & (bucket.lo_ns - 1), 0u)
          << "bucket lower bound must be a power of two";
    }
    EXPECT_EQ(bucket.hi_ns, bucket.lo_ns == 0 ? 1 : bucket.lo_ns * 2);
  }
  EXPECT_EQ(total, 6u);  // buckets are contiguous and cover every sample
}

TEST(AnalysisTest, ContentionProfileCountsParkCyclesAndSteals) {
  TracerConfig cfg;
  cfg.lanes = 3;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);
  int pool_key = 0;
  g_sim_now = 1000;
  tracer.on_event(TraceEventKind::kPark, &pool_key, 0, 0, 1, nullptr, 0);
  g_sim_now = 4000;
  tracer.on_event(TraceEventKind::kUnpark, &pool_key, 0, 0, 1, nullptr, 0);
  tracer.on_event(TraceEventKind::kSteal, &pool_key, 0, 0, 2, nullptr, 0);
  tracer.on_event(TraceEventKind::kContended, &pool_key, 0, 0, 2, nullptr,
                  0);
  const pe::observe::ContentionReport report =
      pe::observe::contention_profile(tracer.take());
  EXPECT_EQ(report.total_parks, 1u);
  EXPECT_DOUBLE_EQ(report.total_park_ns, 3000.0);
  EXPECT_EQ(report.total_steals, 1u);
  EXPECT_EQ(report.total_contended, 1u);
}

TEST(ExportTest, CollapsedAndChromeOutputsAreWellFormed) {
  TracerConfig cfg;
  cfg.lanes = 2;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);
  static const char* const kFile = "src/kernels/src/matmul.cpp";
  int loop_key = 0;
  g_sim_now = 0;
  tracer.on_event(TraceEventKind::kLoopBegin, &loop_key, 0, 64, 0, kFile, 42);
  g_sim_now = 1000;
  tracer.on_event(TraceEventKind::kChunkStart, &loop_key, 0, 32, 1, kFile,
                  42);
  g_sim_now = 51000;
  tracer.on_event(TraceEventKind::kChunkFinish, &loop_key, 0, 32, 1, kFile,
                  42);
  g_sim_now = 52000;
  tracer.on_event(TraceEventKind::kPark, &loop_key, 0, 0, 1, nullptr, 0);
  g_sim_now = 99000;
  tracer.on_event(TraceEventKind::kUnpark, &loop_key, 0, 0, 1, nullptr, 0);
  g_sim_now = 100000;
  tracer.on_event(TraceEventKind::kLoopEnd, &loop_key, 0, 64, 0, kFile, 42);
  const Trace trace = tracer.take();

  std::ostringstream folded;
  pe::observe::write_collapsed(folded, trace);
  EXPECT_NE(folded.str().find("parallel_for@"), std::string::npos);
  EXPECT_NE(folded.str().find("matmul.cpp:42"), std::string::npos);
  EXPECT_NE(folded.str().find("idle.park"), std::string::npos);

  const pe::JsonValue doc = chrome_json(trace);
  ASSERT_EQ(doc.kind, pe::JsonValue::Kind::kObject);
  const std::vector<const pe::JsonValue*> names = events_of(doc, "M");
  ASSERT_FALSE(names.empty());
  EXPECT_EQ(names[0]->find("name")->text, "thread_name");
  const std::vector<const pe::JsonValue*> slices = events_of(doc, "X");
  ASSERT_EQ(slices.size(), 2u);  // the chunk and the park
  EXPECT_NE(slices[0]->find("name")->text.find("matmul.cpp:42"),
            std::string::npos);
  EXPECT_EQ(slices[1]->find("name")->text, "idle.park");
}

TEST(ExportTest, ChromeSlicesStartAtTheirExactMicrosecond) {
  TracerConfig cfg;
  cfg.lanes = 2;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);
  // 75 minutes of uptime: six significant digits would put ts on a 10 ms
  // grid here.
  const std::uint64_t t0 = 4'523'841'234'567;
  int loop_key = 0;
  const std::uint64_t starts[] = {t0 + 1, t0 + 1'000, t0 + 52'001};
  const std::uint64_t ends[] = {t0 + 999, t0 + 51'789, t0 + 99'999};
  for (int i = 0; i < 3; ++i) {
    g_sim_now = starts[i];
    tracer.on_event(TraceEventKind::kChunkStart, &loop_key, 0, 32, 1,
                    "src/x.cpp", 7);
    g_sim_now = ends[i];
    tracer.on_event(TraceEventKind::kChunkFinish, &loop_key, 0, 32, 1,
                    "src/x.cpp", 7);
  }
  const pe::JsonValue doc = chrome_json(tracer.take());
  const std::vector<const pe::JsonValue*> slices = events_of(doc, "X");
  ASSERT_EQ(slices.size(), 3u);
  for (int i = 0; i < 3; ++i) {
    const double ts = slices[i]->find("ts")->number;
    const double dur = slices[i]->find("dur")->number;
    EXPECT_NEAR(ts, static_cast<double>(starts[i]) / 1000.0, 0.001)
        << slices[i]->find("ts")->text;
    EXPECT_NEAR(dur, static_cast<double>(ends[i] - starts[i]) / 1000.0,
                0.001);
  }
}

TEST(ExportTest, CaptureRoundTripsThroughSaveAndLoad) {
  TracerConfig cfg;
  cfg.lanes = 2;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);
  static const char* const kFile = "src/kernels/src/sparse.cpp";
  int loop_key = 0;
  // Past 2^53 ns (about 104 days of uptime), where a double loses the
  // nanosecond.
  const std::uint64_t t0 = (std::uint64_t{1} << 53) + 1;
  g_sim_now = t0 + 6;
  tracer.on_event(TraceEventKind::kChunkStart, &loop_key, 3, 9, 1, kFile,
                  21);
  g_sim_now = t0 + 18;
  tracer.on_event(TraceEventKind::kChunkFinish, &loop_key, 3, 9, 1, kFile,
                  21);
  const Trace trace = tracer.take();

  std::stringstream io;
  trace.save(io);
  const Trace reloaded = Trace::load(io);
  ASSERT_EQ(reloaded.events.size(), trace.events.size());
  EXPECT_EQ(reloaded.recorded, trace.recorded);
  EXPECT_EQ(reloaded.dropped, trace.dropped);
  EXPECT_EQ(reloaded.lanes, trace.lanes);
  for (std::size_t i = 0; i < reloaded.events.size(); ++i) {
    EXPECT_EQ(reloaded.events[i].ns, trace.events[i].ns);
    EXPECT_EQ(reloaded.events[i].kind, trace.events[i].kind);
    EXPECT_EQ(reloaded.events[i].a, trace.events[i].a);
    EXPECT_EQ(reloaded.events[i].b, trace.events[i].b);
    EXPECT_EQ(reloaded.events[i].lane, trace.events[i].lane);
    EXPECT_EQ(reloaded.events[i].line, trace.events[i].line);
    ASSERT_NE(reloaded.events[i].file, nullptr);
    EXPECT_STREQ(reloaded.events[i].file, trace.events[i].file);
  }
}

TEST(ExportTest, CaptureRoundTripsPathsThatNeedEscaping) {
  TracerConfig cfg;
  cfg.lanes = 1;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);
  static const char* const kFile = "C:\\src\\\"odd\"\tname.cpp";
  tracer.on_event(TraceEventKind::kLoopBegin, nullptr, 0, 1, 0, kFile, 7);
  std::stringstream io;
  tracer.take().save(io);
  const Trace reloaded = Trace::load(io);
  ASSERT_EQ(reloaded.events.size(), 1u);
  ASSERT_NE(reloaded.events[0].file, nullptr);
  EXPECT_STREQ(reloaded.events[0].file, kFile);
}

TEST(ExportTest, LoadRejectsMalformedCaptures) {
  std::istringstream garbage("this is not a capture\n");
  EXPECT_THROW((void)Trace::load(garbage), pe::Error);

  // Integers must be exact and unsigned; the error names the capture's
  // line, not the line within that line's object.
  const std::string header =
      "{\"pe_trace\":1,\"lanes\":2,\"recorded\":1,\"dropped\":0}\n";
  for (const char* event :
       {R"({"ns":-5,"kind":"submit","lane":0})",
        R"({"ns":12abc,"kind":"submit","lane":0})",
        R"({"ns":12,"kind":"submit","lane":3.9})"}) {
    std::istringstream in(header + "\n" + event + "\n");
    try {
      (void)Trace::load(in);
      ADD_FAILURE() << "accepted " << event;
    } catch (const pe::Error& e) {
      EXPECT_NE(std::string(e.what()).find("trace capture: line 3:"),
                std::string::npos)
          << e.what();
    }
  }
}

TEST(ProvenanceTest, AnnotateAttachesSchedulerColumns) {
  pe::observe::TraceSummary summary;
  summary.latency_p50_ns = 1234.0;
  summary.latency_p99_ns = 5678.0;
  summary.parks = 3;
  summary.steals = 7;
  summary.contended = 2;
  summary.dropped = 0;

  pe::Experiment exp("observe_provenance");
  exp.add_factor("kernel", {"k"});
  exp.set_metrics({"time_ms"});
  pe::observe::annotate(exp, summary);
  exp.record({{"kernel", "k"}}, {1.0});
  EXPECT_EQ(exp.provenance("sched_p50_ns"), "1234");
  EXPECT_EQ(exp.provenance("sched_p99_ns"), "5678");
  EXPECT_EQ(exp.provenance("steals"), "7");
  const std::string table = exp.to_table().render();
  EXPECT_NE(table.find("sched_p50_ns"), std::string::npos);
  EXPECT_NE(table.find("trace_dropped"), std::string::npos);
}

TEST(SamplerTest, SamplesPublishedActivity) {
  TracerConfig cfg;
  cfg.lanes = 2;
  cfg.now_ns = sim_now;
  Tracer tracer(cfg);
  static const char* const kFile = "src/kernels/src/stencil.cpp";
  int loop_key = 0;
  // Leave lane 1 inside an executing chunk so every snapshot sees it.
  tracer.on_event(TraceEventKind::kChunkStart, &loop_key, 0, 128, 1, kFile,
                  77);

  pe::observe::SamplerConfig scfg;
  scfg.period = std::chrono::microseconds(200);
  pe::observe::SamplingProfiler profiler(tracer, scfg);
  profiler.start();
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (profiler.samples() < 5 &&
         std::chrono::steady_clock::now() < deadline)
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  profiler.stop();
  ASSERT_GE(profiler.samples(), 5u);

  std::uint64_t chunk_weight = 0;
  for (const auto& [stack, weight] : profiler.folded())
    if (stack.find("stencil.cpp:77") != std::string::npos)
      chunk_weight += weight;
  EXPECT_GT(chunk_weight, 0u);
}

// Chaos coupling (ctest -L chaos): worker faults injected mid-loop must
// not corrupt the capture — every chunk that started finished, loop
// begin/end pair up, and the loop still computes the right answer
// (run_job absorbs injected faults rather than dropping the job).
TEST(ObserveChaos, TraceStaysCoherentUnderWorkerFaults) {
  pe::resilience::FaultPlan plan;
  plan.seed = 20260807;
  pe::resilience::FaultSpec spec;
  spec.site = std::string(pe::fault_sites::kPoolWorker);
  spec.kind = pe::resilience::FaultKind::kThrow;
  spec.probability = 0.5;
  plan.faults.push_back(spec);
  pe::resilience::ScopedFaultInjection chaos(plan);

  pe::ThreadPool pool(4);
  TracerConfig cfg;
  cfg.lanes = pool.size() + 1;
  Tracer tracer(cfg);
  std::atomic<std::uint64_t> sum{0};
  {
    pe::observe::ScopedTrace scope(tracer);
    for (int round = 0; round < 20; ++round) {
      pe::parallel_for(
          pool, 0, 2048, [&](std::size_t i) { sum.fetch_add(i); },
          pe::Schedule::kDynamic, 64);
    }
    // Submitted tasks always execute in run_job (broadcast loop copies can
    // be purged before a worker wakes on a loaded box), so these are the
    // guaranteed visits to the pool.worker fault site.
    std::vector<std::future<std::uint64_t>> futures;
    for (std::uint64_t t = 0; t < 64; ++t)
      futures.push_back(pool.submit([t] { return t * t; }));
    for (std::uint64_t t = 0; t < 64; ++t)
      EXPECT_EQ(futures[t].get(), t * t);
  }
  EXPECT_EQ(sum.load(), 20u * (2048u * 2047u / 2));

  const Trace trace = tracer.take();
  EXPECT_EQ(trace.dropped, 0u);
  EXPECT_EQ(trace.recorded, trace.events.size());
  EXPECT_EQ(trace.count(TraceEventKind::kChunkStart),
            trace.count(TraceEventKind::kChunkFinish));
  EXPECT_EQ(trace.count(TraceEventKind::kLoopBegin),
            trace.count(TraceEventKind::kLoopEnd));
  EXPECT_EQ(trace.count(TraceEventKind::kTaskStart),
            trace.count(TraceEventKind::kTaskFinish));
  EXPECT_EQ(trace.count(TraceEventKind::kLoopBegin), 20u);
  EXPECT_GT(pool.absorbed_faults(), 0u);
}

}  // namespace
