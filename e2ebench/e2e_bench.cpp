// End-to-end benchmark harness for bftcup (README.md in this directory).
//
//   e2e_bench --workload paper-sweep|msg-storm|scale-10k --seed N
//             --seconds S --trace 0|1 [--commit SHA]
//   e2e_bench --workload W --seed N --check      correctness only
//   e2e_bench --self-test                        span/percentile self-test
//
// One process, one driving thread, closed loop: the next run starts when
// the previous RunContext::run returns. The program receives only the
// scenarios built here from the workload seed.
//
// --trace 0 prints the end-to-end metrics of an untraced timed phase;
// --trace 1 prints the per-layer metrics of an untraced pass, a traced pass
// over the same points, and timed probes of single layers. The last stdout
// line is always one JSON object {correct, attempted, failed, metrics};
// the line before it carries the environment block and sample counts.
//
// Stable-API rule. This file drives the program only through the scenario
// registry and generators, ScenarioBuilder, RunContext::run, run_scenario,
// RunReport's behaviour fields, RunReport::metrics (read by name through
// MetricsSnapshot::counter/gauge) and RunReport::spans, plus the public
// functions of the layers it probes. It must not call:
//   - the ScenarioBuilder setters caching, eval_cache, incremental_search,
//     verify_cache, context_pooling, arena, metrics or parallel_eval;
//   - the RunReport mirror counters (evaluations, eval_cache_hits,
//     signatures_verified, signatures_cached, contexts_recycled,
//     arena_bytes_peak, big_scc_fallbacks, frames_*, eval_tasks_dispatched);
//   - msg::Message::encoded_size().
// Changes that delete those knobs or fields then compile against this file
// unchanged and are measured by it.
#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/random.hpp"
#include "crypto/keys.hpp"
#include "cup/run_context.hpp"
#include "cup/scenario_registry.hpp"
#include "golden_digests.hpp"
#include "graph/generators.hpp"
#include "msg/message.hpp"
#include "msg/wire.hpp"
#include "protocol/knowledge_view.hpp"
#include "protocol/sink_search.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_CXX_FLAGS
#define E2E_CXX_FLAGS ""
#endif

namespace e2ebench {
namespace {

using namespace bftcup;
using Clock = std::chrono::steady_clock;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

// ---------------------------------------------------------------------------
// Statistics and span accounting: the only implementations in this file.

/// Nearest-rank percentile: the smallest sample with at least pct% of the
/// samples at or below it. pct in (0, 100]; `samples` must be non-empty.
double percentile(std::vector<double> samples, double pct) {
  std::sort(samples.begin(), samples.end());
  const double rank = std::ceil(pct / 100.0 * static_cast<double>(samples.size()));
  const std::size_t index =
      rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
  return samples[std::min(index, samples.size() - 1)];
}

struct SpanTime {
  std::uint64_t count = 0;
  std::uint64_t inclusive_ns = 0;
  std::uint64_t exclusive_ns = 0;
};

/// Per-span-name inclusive and exclusive wall time of one trace, the way
/// `cup_trace --summary` reconstructs it. Records arrive in completion
/// order (children close before their parent), so when a span at depth d
/// closes, its direct children's time since the previous depth-d close has
/// accumulated in child_ns[d+1].
void add_span_times(const obs::SpanTrace& trace,
                    std::map<std::string, SpanTime>& out) {
  std::vector<std::uint64_t> child_ns;
  for (const obs::SpanRecord& rec : trace.records) {
    const std::string& name = rec.name_id < trace.names.size()
                                  ? trace.names[rec.name_id]
                                  : std::string("?");
    const std::uint64_t wall = rec.wall_end_ns - rec.wall_begin_ns;
    if (child_ns.size() < rec.depth + 2) child_ns.resize(rec.depth + 2, 0);
    std::uint64_t& nested = child_ns[rec.depth + 1];
    const std::uint64_t exclusive = wall > nested ? wall - nested : 0;
    nested = 0;
    child_ns[rec.depth] += wall;
    SpanTime& t = out[name];
    ++t.count;
    t.inclusive_ns += wall;
    t.exclusive_ns += exclusive;
  }
}

/// Checks both implementations above on hand-built inputs: nested spans,
/// siblings, a zero-length span and a second top-level span.
bool self_test() {
  bool ok = true;
  auto expect = [&ok](bool cond, const char* what) {
    if (!cond) {
      std::fprintf(stderr, "e2e_bench self-test failed: %s\n", what);
      ok = false;
    }
  };

  const std::vector<double> five = {5, 1, 4, 2, 3};
  expect(percentile(five, 50) == 3, "p50 of 1..5");
  expect(percentile(five, 90) == 5, "p90 of 1..5");
  expect(percentile(five, 20) == 1, "p20 of 1..5");
  expect(percentile(five, 100) == 5, "p100 of 1..5");
  expect(percentile({10, 20}, 50) == 10, "p50 of two");
  expect(percentile({7}, 90) == 7, "p90 of one");

  // root [0,100] holds a [10,40] (which holds leaf [15,25]), a zero-length
  // span at 50 and b [60,90]; root2 [200,230] is a second top-level span.
  obs::SpanTrace trace;
  trace.names = {"root", "child", "leaf", "zero", "root2"};
  auto rec = [](std::uint32_t name, std::uint32_t depth, std::uint64_t begin,
                std::uint64_t end) {
    obs::SpanRecord r;
    r.name_id = name;
    r.depth = depth;
    r.wall_begin_ns = begin;
    r.wall_end_ns = end;
    return r;
  };
  trace.records = {rec(2, 2, 15, 25), rec(1, 1, 10, 40), rec(3, 1, 50, 50),
                   rec(1, 1, 60, 90), rec(0, 0, 0, 100), rec(4, 0, 200, 230)};
  std::map<std::string, SpanTime> times;
  add_span_times(trace, times);
  expect(times["leaf"].exclusive_ns == 10, "leaf exclusive");
  expect(times["child"].exclusive_ns == 50, "siblings' exclusive sum");
  expect(times["child"].inclusive_ns == 60, "siblings' inclusive sum");
  expect(times["child"].count == 2, "sibling count");
  expect(times["zero"].exclusive_ns == 0 && times["zero"].count == 1,
         "zero-length span");
  expect(times["root"].exclusive_ns == 40, "root exclusive");
  expect(times["root2"].exclusive_ns == 30, "second top-level span");
  std::uint64_t total = 0;
  for (const auto& [name, t] : times) total += t.exclusive_ns;
  expect(total == 130, "exclusive times sum to top-level inclusive time");
  return ok;
}

// ---------------------------------------------------------------------------
// Environment.

constexpr bool kOptimized =
#ifdef __OPTIMIZE__
    true;
#else
    false;
#endif

constexpr bool kNdebug =
#ifdef NDEBUG
    true;
#else
    false;
#endif

bool sanitizer_build() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return true;
#else
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer) || \
    __has_feature(memory_sanitizer) ||                                     \
    __has_feature(undefined_behavior_sanitizer)
  return true;
#endif
#endif
  // UBSan defines no macro under GCC; the recorded flags still show it.
  return std::strstr(E2E_CXX_FLAGS, "-fsanitize") != nullptr;
#endif
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

std::string json_escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

/// The process's resident-set high-water mark.
double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// ---------------------------------------------------------------------------
// Workloads.
//
// A workload is a set of registry entries (or the scale system) crossed with
// a seed range. Pass 0 is the warm-up pass; timed passes 1, 2, ... cross the
// same entries with fresh seed ranges, as a batch sweep or the explorer
// does, so seed-bound signature memos start cold on every timed run while
// topology-level memos carry over.

struct Point {
  std::string scenario;
  std::uint64_t seed = 0;
};

struct Workload {
  std::string name;
  std::uint64_t seed = 0;
  std::vector<std::string> entries;  ///< registry entries (empty for scale)
  std::size_t seeds_per_entry = 1;  ///< per timed pass
  /// Per warm-up pass: a third of a timed pass fills the memos that carry
  /// over, and keeps repeated set-ups cheap.
  std::size_t warmup_seeds = 1;
  bool scale = false;
  /// A timed pass's wall time on a 4-core Xeon host. The timed phase runs a
  /// pass count derived from it and --seconds, so every run of a workload
  /// measures the same work whatever the machine's speed at the time.
  double nominal_pass_s = 1;
};

bool has_prefix(const std::string& s, const char* prefix) {
  return s.rfind(prefix, 0) == 0;
}

bool in_paper_sweep(const std::string& name) {
  for (const char* prefix :
       {"fig1a/", "fig1b/", "fig3b/", "fig4a/cupft-", "fig4b/", "price-of-f/",
        "table1/sync/", "table1/partial-sync/", "dyn/", "adhoc/"}) {
    if (has_prefix(name, prefix)) return true;
  }
  for (const char* exact :
       {"fig2/system-a-naive", "fig2/system-b-naive",
        "fig4a/bridge-hiding-attack", "blockchain/committee"}) {
    if (name == exact) return true;
  }
  return false;
}

/// fig4a/closure-guard-cost makes the entry count odd: with ten entries the
/// median run fell in the gap between the async cells (4-8 ms) and
/// fig2/system-ab-cupft (8-15 ms), and run_ms_p50 jumped between the two.
bool in_msg_storm(const std::string& name) {
  if (has_prefix(name, "fig3a/") || has_prefix(name, "table1/async/")) {
    return true;
  }
  for (const char* exact :
       {"fig4a/bridge-hiding-guarded", "fig4a/closure-guard-cost",
        "fig2/system-ab-cupft", "wire/fig1b-bitflip", "wire/fig1b-burst",
        "wire/fig4a-splice-cert"}) {
    if (name == exact) return true;
  }
  return false;
}

constexpr std::size_t kScaleN = 10'000;
/// bench_scale's generator seed for n = 10 000. The graph stays fixed and
/// the workload seed drives the schedule and the keys: across generated
/// graphs the retained memo sizes, and with them peak RSS, vary by half.
constexpr std::uint64_t kScaleGraphSeed = 0xbf7c0bULL + kScaleN;
constexpr const char* kScaleName = "committee_of_committees/n10000";
/// Flight-recorder ceiling for the traced pass. The ring grows on demand,
/// so this bounds memory only; a run that overflows it counts as failed.
constexpr std::size_t kTraceCapacity = std::size_t{1} << 26;

std::optional<Workload> make_workload(const std::string& name,
                                      std::uint64_t seed) {
  Workload w;
  w.name = name;
  w.seed = seed;
  if (name == "scale-10k") {
    w.scale = true;
    w.nominal_pass_s = 3.3;
    return w;
  }
  bool (*member)(const std::string&) = nullptr;
  if (name == "paper-sweep") {
    w.seeds_per_entry = 90;
    w.warmup_seeds = 30;
    w.nominal_pass_s = 5.0;
    member = in_paper_sweep;
  } else if (name == "msg-storm") {
    // Its wire entries run 0.2 ms or 30-160 ms depending on the seed, so a
    // pass needs many seeds to carry a steady share of long runs.
    w.seeds_per_entry = 20;
    w.warmup_seeds = 7;
    w.nominal_pass_s = 8.5;
    member = in_msg_storm;
  } else {
    return std::nullopt;
  }
  for (const std::string& entry : cup::ScenarioRegistry::paper().names()) {
    if (member(entry)) w.entries.push_back(entry);
  }
  return w;
}

/// The points of pass `pass`, entry-major. Simulation seeds are distinct
/// across passes and workload seeds.
std::vector<Point> pass_points(const Workload& w, std::uint64_t pass) {
  const std::uint64_t base = w.seed * 1'000'000 + pass * 1'000;
  std::vector<Point> out;
  if (w.scale) {
    out.push_back({kScaleName, base + 1});
    return out;
  }
  const std::size_t seeds = pass == 0 ? w.warmup_seeds : w.seeds_per_entry;
  for (const std::string& entry : w.entries) {
    for (std::size_t k = 1; k <= seeds; ++k) {
      out.push_back({entry, base + k});
    }
  }
  return out;
}

std::shared_ptr<const protocol::SinkSearch> scale_search() {
  protocol::SearchOptions options;
  options.removal_cap = 1;
  options.big_scc_samples = 4;
  return std::make_shared<protocol::StructuredSinkSearch>(options);
}

/// Builds the scenario of one point; a nonzero capacity turns tracing on.
/// Every scale pass runs the same generated graph under a different
/// schedule and key seed.
cup::Scenario make_scenario(const Workload& w, const Point& p,
                            std::size_t trace_capacity = 0) {
  cup::ScenarioBuilder builder;
  if (w.scale) {
    Rng rng(kScaleGraphSeed);
    graph::generators::HierarchyParams params;
    params.total = kScaleN;
    builder = cup::ScenarioBuilder(
                  graph::generators::committee_of_committees(params, rng))
                  .mode(cup::Mode::kAuth)
                  .search(scale_search())
                  .seed(p.seed);
  } else {
    builder = cup::ScenarioRegistry::paper().builder(p.scenario, p.seed);
  }
  if (trace_capacity > 0) builder.trace_capacity(trace_capacity);
  return builder.build();
}

std::vector<cup::Scenario> make_all(const Workload& w,
                                    const std::vector<Point>& points,
                                    std::size_t trace_capacity = 0) {
  std::vector<cup::Scenario> out;
  out.reserve(points.size());
  for (const Point& p : points) {
    out.push_back(make_scenario(w, p, trace_capacity));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Outcome checks.

struct Tally {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<std::string> problems;  ///< first few, for the report line

  bool echo = false;  ///< print every failure as it is found

  void fail(std::string what) {
    ++failed;
    if (echo) std::printf("FAIL %s\n", what.c_str());
    if (problems.size() < 20) problems.push_back(std::move(what));
  }
  [[nodiscard]] bool correct() const { return failed == 0; }
};

std::string point_label(const Point& p) {
  return p.scenario + " seed " + std::to_string(p.seed);
}

/// A pooled run's outcome, kept for the check after the measurement.
struct Outcome {
  Point point;
  std::string digest;  ///< or "threw: ..." when the run threw
};

/// Digests of fresh run_scenario calls: the reference every pooled run is
/// checked against. Computed after the measurement, on a few threads, so
/// neither their time nor their memory shows in the metrics. A fresh scale
/// run must also solve consensus: the generated system meets Theorem 1's
/// requirements, so anything else is a defect.
std::vector<std::string> fresh_digests(const Workload& w,
                                       const std::vector<Point>& points,
                                       Tally& tally) {
  std::vector<std::string> digests(points.size());
  std::vector<std::string> errors(points.size());
  std::atomic<std::size_t> next{0};
  auto worker = [&] {
    for (std::size_t i = next++; i < points.size(); i = next++) {
      try {
        const cup::RunReport report =
            cup::run_scenario(make_scenario(w, points[i]));
        digests[i] = report.digest();
        if (w.scale && !(report.all_correct_decided && report.agreement &&
                         report.validity)) {
          errors[i] = "did not solve consensus (" + report.verdict() + ")";
        }
      } catch (const std::exception& e) {
        errors[i] = std::string("fresh run threw: ") + e.what();
      }
    }
  };
  {
    const unsigned threads =
        std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < threads; ++t) pool.emplace_back(worker);
    worker();
  }
  for (std::size_t i = 0; i < points.size(); ++i) {
    if (!errors[i].empty()) {
      ++tally.attempted;
      tally.fail(point_label(points[i]) + ": " + errors[i]);
    }
  }
  return digests;
}

/// Checks pooled outcomes against fresh runs of the same points, and the
/// golden (scenario, seed) digests of the workload's entries.
void check_outcomes(const Workload& w, const std::vector<Outcome>& outcomes,
                    Tally& tally) {
  // Each distinct point once: the warm-up points recur in every set-up.
  std::map<std::pair<std::string, std::uint64_t>, std::string> fresh;
  for (const Outcome& o : outcomes) fresh[{o.point.scenario, o.point.seed}];
  const std::set<std::string> entries(w.entries.begin(), w.entries.end());
  std::vector<const GoldenDigest*> goldens;
  for (const GoldenDigest& g : kGoldenDigests) {
    if (entries.count(g.scenario) != 0) {
      goldens.push_back(&g);
      fresh[{g.scenario, g.seed}];
    }
  }
  std::vector<Point> points;
  for (const auto& [key, digest] : fresh) points.push_back({key.first, key.second});
  const std::vector<std::string> digests = fresh_digests(w, points, tally);
  std::size_t index = 0;
  for (auto& [key, digest] : fresh) digest = digests[index++];

  for (const GoldenDigest* g : goldens) {
    ++tally.attempted;
    const std::string& got = fresh[{g->scenario, g->seed}];
    if (got != g->digest) {
      tally.fail(std::string(g->scenario) + " seed " + std::to_string(g->seed) +
                 ": digest " + got + " differs from golden " + g->digest);
    }
  }
  for (const Outcome& o : outcomes) {
    ++tally.attempted;
    const std::string& want = fresh[{o.point.scenario, o.point.seed}];
    if (o.digest != want) {
      tally.fail(point_label(o.point) + ": pooled digest " + o.digest +
                 " differs from fresh " + want);
    }
  }
}

// ---------------------------------------------------------------------------
// Passes over the workload on one recycled context.

struct PassResult {
  std::vector<double> run_ms;
  std::vector<Outcome> outcomes;
  std::uint64_t delivered = 0;
  std::uint64_t messages_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::map<std::string, std::uint64_t> counters;  ///< summed per-run deltas
  std::uint64_t arena_peak = 0;
  std::array<std::uint64_t, msg::kMsgTypeCount> sent_by_type{};
  std::map<std::string, SpanTime> spans;
  std::uint64_t spans_dropped = 0;

  [[nodiscard]] double wall_s() const {
    double total = 0;
    for (double ms : run_ms) total += ms;
    return total * 1e-3;
  }
};

constexpr const char* kCounterNames[] = {"sim.events", "eval.requested",
                                         "eval.cache_hits", "sig.verified",
                                         "sig.cached"};

PassResult run_pass(cup::RunContext& ctx, const std::vector<Point>& points,
                    const std::vector<cup::Scenario>& scs) {
  PassResult out;
  out.run_ms.reserve(scs.size());
  out.outcomes.reserve(scs.size());
  for (std::size_t i = 0; i < scs.size(); ++i) {
    Outcome outcome{points[i], {}};
    const Clock::time_point t0 = Clock::now();
    try {
      const cup::RunReport report = ctx.run(scs[i]);
      out.run_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      outcome.digest = report.digest();
      out.delivered += report.messages_delivered;
      out.messages_sent += report.messages_sent;
      out.bytes_sent += report.bytes_sent;
      for (const char* name : kCounterNames) {
        out.counters[name] += report.metrics.counter(name);
      }
      out.arena_peak = std::max(
          out.arena_peak, report.metrics.gauge("engine.arena_bytes_peak"));
      for (std::size_t t = 0; t < msg::kMsgTypeCount; ++t) {
        out.sent_by_type[t] += report.sent_by_type[t];
      }
      if (report.spans != nullptr) {
        add_span_times(*report.spans, out.spans);
        out.spans_dropped += report.spans->dropped;
      }
    } catch (const std::exception& e) {
      out.run_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
      outcome.digest = std::string("threw: ") + e.what();
    }
    out.outcomes.push_back(std::move(outcome));
  }
  return out;
}

struct Setup {
  std::vector<Point> points;
  std::vector<cup::Scenario> scenarios;
  std::unique_ptr<cup::RunContext> ctx;
  PassResult warmup;
  double make_s = 0;
  double total_s = 0;
};

/// Set-up as the metric counts it: scenario construction, RunContext
/// construction and the warm-up pass that fills the cross-run memos.
Setup set_up(const Workload& w) {
  Setup s;
  s.points = pass_points(w, 0);
  const Clock::time_point t0 = Clock::now();
  s.scenarios = make_all(w, s.points);
  const Clock::time_point t1 = Clock::now();
  s.ctx = std::make_unique<cup::RunContext>();
  s.warmup = run_pass(*s.ctx, s.points, s.scenarios);
  s.make_s = seconds_between(t0, t1);
  s.total_s = seconds_between(t0, Clock::now());
  return s;
}

// ---------------------------------------------------------------------------
// Direct probes of single layers, timed outside any run.

/// Runs `round` (which returns its own timed seconds per unit of work)
/// at least `min_rounds` times and until `budget_s` of probe time has
/// passed; returns the median.
template <typename Round>
double probe(Round round, double budget_s = 0.25, std::size_t min_rounds = 5) {
  std::vector<double> samples;
  const Clock::time_point begin = Clock::now();
  while (samples.size() < min_rounds ||
         seconds_between(begin, Clock::now()) < budget_s) {
    samples.push_back(round());
    if (samples.size() >= 1000) break;
  }
  return percentile(samples, 50);
}

/// One scenario per distinct registry entry: registry graphs do not depend
/// on the seed, and scale has one graph.
std::vector<const cup::Scenario*> distinct_graphs(
    const std::vector<Point>& points, const std::vector<cup::Scenario>& scs) {
  std::vector<const cup::Scenario*> out;
  for (std::size_t i = 0; i < scs.size(); ++i) {
    if (i == 0 || points[i].scenario != points[i - 1].scenario) {
      out.push_back(&scs[i]);
    }
  }
  return out;
}

double probe_add_pd_us(const std::vector<const cup::Scenario*>& graphs) {
  return probe([&graphs] {
    double seconds = 0;
    std::size_t calls = 0;
    for (const cup::Scenario* sc : graphs) {
      const IdSet vertices = sc->graph.vertices();
      std::vector<IdSet> pds;
      pds.reserve(vertices.size());
      for (ProcessId v : vertices) pds.push_back(sc->graph.out_neighbors(v));
      const ProcessId self = *vertices.begin();
      protocol::KnowledgeView view(self, pds.front());
      std::size_t index = 0;
      const Clock::time_point t0 = Clock::now();
      for (ProcessId v : vertices) view.add_pd(v, pds[index++]);
      seconds += seconds_between(t0, Clock::now());
      calls += vertices.size();
    }
    return seconds * 1e6 / static_cast<double>(calls);
  });
}

double probe_candidates_ms(const std::vector<const cup::Scenario*>& graphs,
                           Tally& tally) {
  std::vector<std::shared_ptr<const protocol::SinkSearch>> searches;
  for (const cup::Scenario* sc : graphs) {
    searches.push_back(sc->search != nullptr
                           ? sc->search
                           : std::make_shared<protocol::ExhaustiveSinkSearch>());
  }
  bool any_found = false;
  const double ms = probe([&] {
    double seconds = 0;
    for (std::size_t i = 0; i < graphs.size(); ++i) {
      const protocol::KnowledgeView view =
          protocol::KnowledgeView::omniscient(graphs[i]->graph);
      const Clock::time_point t0 = Clock::now();
      const std::vector<protocol::SinkCandidate> found =
          searches[i]->candidates(view);
      seconds += seconds_between(t0, Clock::now());
      any_found = any_found || !found.empty();
    }
    return seconds * 1e3 / static_cast<double>(graphs.size());
  }, 0.25, 3);
  ++tally.attempted;
  if (!any_found) tally.fail("membership probe: no sink candidate on any graph");
  return ms;
}

/// The SETPDS-sized payload: the largest PD of the workload's graphs.
std::pair<ProcessId, Bytes> setpds_payload(
    const std::vector<const cup::Scenario*>& graphs) {
  ProcessId owner;
  IdSet best;
  for (const cup::Scenario* sc : graphs) {
    for (ProcessId v : sc->graph.vertices()) {
      IdSet pd = sc->graph.out_neighbors(v);
      if (pd.size() > best.size() || best.empty()) {
        best = std::move(pd);
        owner = v;
      }
    }
  }
  return {owner, msg::SignedPd::payload(owner, best)};
}

struct CryptoTimes {
  double sign_us = 0;
  double verify_us = 0;
};

CryptoTimes probe_crypto(const std::vector<const cup::Scenario*>& graphs,
                         std::uint64_t seed, Tally& tally) {
  const auto [owner, payload] = setpds_payload(graphs);
  crypto::KeyRegistry keys(seed);
  constexpr int kCalls = 200;
  CryptoTimes out;
  crypto::Signature sig{};
  out.sign_us = probe([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      sig = keys.compute_signature(owner, payload);
    }
    return seconds_between(t0, Clock::now()) * 1e6 / kCalls;
  });
  bool accepted = true;
  out.verify_us = probe([&] {
    const Clock::time_point t0 = Clock::now();
    for (int i = 0; i < kCalls; ++i) {
      accepted = keys.verify(owner, payload, sig) && accepted;
    }
    return seconds_between(t0, Clock::now()) * 1e6 / kCalls;
  });
  crypto::Signature forged = sig;
  forged.bytes[0] ^= 1;
  ++tally.attempted;
  if (!accepted || keys.verify(owner, payload, forged)) {
    tally.fail("crypto probe: verify accepted a forgery or refused a valid sig");
  }
  return out;
}

/// One message of type `type`, shaped like the protocol's: signed PDs for
/// SETPDS, a quorum certificate for view changes and decisions, a relay
/// path for RRB.
msg::Message sample_message(msg::MsgType type, const cup::Scenario& sc,
                            crypto::KeyRegistry& keys) {
  const IdSet vertices = sc.graph.vertices();
  const ProcessId first = *vertices.begin();
  msg::Message m;
  m.type = type;
  auto sign = [&keys](ProcessId id, const Bytes& payload) {
    return keys.compute_signature(id, payload);
  };
  switch (type) {
    case msg::MsgType::kSetPds: {
      std::size_t taken = 0;
      for (ProcessId v : vertices) {
        if (taken++ == 32) break;
        msg::SignedPd spd;
        spd.owner = v;
        spd.pd = sc.graph.out_neighbors(v);
        spd.sig = sign(v, msg::SignedPd::payload(v, spd.pd));
        m.pds.push_back(std::move(spd));
      }
      break;
    }
    case msg::MsgType::kDecidedVal:
      m.value = cup::default_proposal(first);
      m.sig = sign(first, msg::decided_val_payload(m.value));
      break;
    case msg::MsgType::kPbftPrePrepare:
    case msg::MsgType::kPbftPrepare:
    case msg::MsgType::kPbftCommit:
      m.value = cup::default_proposal(first);
      m.view = 1;
      m.sig = sign(first, msg::pbft_payload(type, m.view, m.value));
      break;
    case msg::MsgType::kPbftViewChange:
    case msg::MsgType::kPbftNewView:
    case msg::MsgType::kPbftDecide: {
      m.value = cup::default_proposal(first);
      m.view = 2;
      m.sig = sign(first, msg::pbft_payload(type, m.view, m.value));
      msg::QuorumCert cert;
      cert.view = 1;
      cert.value = m.value;
      const Bytes payload =
          msg::pbft_payload(msg::MsgType::kPbftCommit, cert.view, cert.value);
      std::size_t taken = 0;
      for (ProcessId v : vertices) {
        if (taken++ == 3 * sc.f + 1) break;
        cert.shares.push_back({v, sign(v, payload)});
      }
      m.cert = std::move(cert);
      break;
    }
    case msg::MsgType::kRrbForward: {
      m.origin = first;
      m.origin_pd = sc.graph.out_neighbors(first);
      std::size_t taken = 0;
      for (ProcessId v : vertices) {
        if (taken++ == 4) break;
        m.path.push_back(v);
      }
      break;
    }
    case msg::MsgType::kGetPds:
    case msg::MsgType::kGetDecidedVal:
      break;
  }
  return m;
}

struct CodecTimes {
  double encode_ns = 0;
  double decode_ns = 0;
};

/// encode_frame / decode_frame over a deck of messages drawn in the
/// workload's sent_by_type mix (counted over the warm-up pass).
CodecTimes probe_codec(const std::vector<const cup::Scenario*>& graphs,
                       const std::array<std::uint64_t, msg::kMsgTypeCount>& mix,
                       std::uint64_t seed, Tally& tally) {
  constexpr std::size_t kDeck = 512;
  crypto::KeyRegistry keys(seed);
  std::uint64_t total = 0;
  for (std::uint64_t count : mix) total += count;
  std::vector<msg::Message> deck;
  for (std::size_t t = 0; t < msg::kMsgTypeCount && total > 0; ++t) {
    if (mix[t] == 0) continue;
    const std::size_t copies = std::max<std::size_t>(
        1, static_cast<std::size_t>(std::llround(
               static_cast<double>(kDeck) * static_cast<double>(mix[t]) /
               static_cast<double>(total))));
    for (std::size_t c = 0; c < copies; ++c) {
      deck.push_back(sample_message(static_cast<msg::MsgType>(t),
                                    *graphs[c % graphs.size()], keys));
    }
  }
  CodecTimes out;
  ++tally.attempted;
  if (deck.empty()) {
    tally.fail("codec probe: the workload sent no messages");
    return out;
  }
  std::vector<Bytes> frames(deck.size());
  out.encode_ns = probe([&] {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < deck.size(); ++i) {
      frames[i] = msg::encode_frame(deck[i]);
    }
    return seconds_between(t0, Clock::now()) * 1e9 /
           static_cast<double>(deck.size());
  });
  std::vector<std::optional<msg::Message>> decoded(deck.size());
  out.decode_ns = probe([&] {
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < frames.size(); ++i) {
      decoded[i] = msg::decode_frame(frames[i]);
    }
    return seconds_between(t0, Clock::now()) * 1e9 /
           static_cast<double>(frames.size());
  });
  for (std::size_t i = 0; i < frames.size(); ++i) {
    if (!decoded[i] || msg::encode_frame(*decoded[i]) != frames[i]) {
      tally.fail("codec probe: frame of type " +
                 std::string(msg::to_string(deck[i].type)) +
                 " did not round-trip");
      break;
    }
  }
  return out;
}

// ---------------------------------------------------------------------------
// Output.

struct Metric {
  std::string name;
  double value;
  const char* unit;
};

void print_result(const Tally& tally, const std::vector<Metric>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
              ", \"failed\": %" PRIu64 ", \"metrics\": {",
              tally.correct() ? "true" : "false", tally.attempted,
              tally.failed);
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                i == 0 ? "" : ", ", metrics[i].name.c_str(),
                metrics[i].value, metrics[i].unit);
  }
  std::printf("}}\n");
}

double ratio(double num, double den) { return den > 0 ? num / den : 0.0; }

/// The line before the result: environment block, sample counts, the
/// failure share and the first few problems.
void print_context(const Workload& w, const std::string& commit,
                   const Tally& tally,
                   const std::map<std::string, double>& samples) {
  std::printf("{\"environment\": {\"commit\": \"%s\", \"compiler\": \"%s\", "
              "\"build_type\": \"%s\", \"cxx_flags\": \"%s\", "
              "\"optimize\": %s, \"ndebug\": %s, \"sanitizer\": %s, "
              "\"host_cpus\": %u, \"workload\": \"%s\", \"seed\": %" PRIu64
              "}, \"samples\": {",
              json_escape(commit).c_str(), json_escape(compiler()).c_str(),
              E2E_BUILD_TYPE, json_escape(E2E_CXX_FLAGS).c_str(),
              kOptimized ? "true" : "false", kNdebug ? "true" : "false",
              sanitizer_build() ? "true" : "false",
              std::thread::hardware_concurrency(), w.name.c_str(), w.seed);
  bool first = true;
  for (const auto& [name, value] : samples) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}, \"fail_share\": %.17g, \"problems\": [",
              ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)));
  for (std::size_t i = 0; i < tally.problems.size(); ++i) {
    std::printf("%s\"%s\"", i == 0 ? "" : ", ",
                json_escape(tally.problems[i]).c_str());
  }
  std::printf("]}\n");
}

// ---------------------------------------------------------------------------
// Modes.

constexpr int kSetups = 3;

void append(std::vector<Outcome>& to, const std::vector<Outcome>& from) {
  to.insert(to.end(), from.begin(), from.end());
}

/// --trace 0: kSetups segments, each a set-up (the metric is their median)
/// followed by round(seconds / (kSetups * nominal pass time)) timed passes
/// on the context it set up. Segments start from equal state, so their
/// timed passes measure the same thing on independent contexts.
int run_end_to_end(const Workload& w, double seconds,
                   const std::string& commit) {
  std::vector<Outcome> outcomes;
  std::vector<double> setup_s;
  std::vector<double> run_ms;
  std::uint64_t delivered = 0;
  double timed_s = 0;
  // At most 333 passes a segment: pass seed ranges are 1000 wide.
  const std::uint64_t per_segment = std::clamp<std::uint64_t>(
      static_cast<std::uint64_t>(
          std::llround(seconds / (kSetups * w.nominal_pass_s))),
      1, 333);
  std::uint64_t passes = 0;
  for (int k = 0; k < kSetups; ++k) {
    const Setup setup = set_up(w);
    setup_s.push_back(setup.total_s);
    append(outcomes, setup.warmup.outcomes);
    for (std::uint64_t p = 0; p < per_segment; ++p) {
      const std::vector<Point> points = pass_points(w, ++passes);
      const PassResult pass =
          run_pass(*setup.ctx, points, make_all(w, points));
      run_ms.insert(run_ms.end(), pass.run_ms.begin(), pass.run_ms.end());
      delivered += pass.delivered;
      timed_s += pass.wall_s();
      append(outcomes, pass.outcomes);
    }
  }
  const double peak_rss = peak_rss_mb();

  Tally tally;
  check_outcomes(w, outcomes, tally);
  const double runs = static_cast<double>(run_ms.size());
  print_context(w, commit, tally,
                {{"points_per_pass",
                  static_cast<double>(pass_points(w, 0).size())},
                 {"timed_passes", static_cast<double>(passes)},
                 {"timed_s", timed_s},
                 {"run_ms", runs},
                 {"setup_s", static_cast<double>(setup_s.size())}});
  print_result(
      tally,
      {{"runs_per_s", runs / timed_s, "1/s"},
       {"run_ms_p50", percentile(run_ms, 50), "ms"},
       {"run_ms_p90", percentile(run_ms, 90), "ms"},
       {"events_per_s", static_cast<double>(delivered) / timed_s, "1/s"},
       {"setup_s", percentile(setup_s, 50), "s"},
       {"peak_rss_mb", peak_rss, "MB"},
       {"pass_share",
        1.0 - ratio(static_cast<double>(tally.failed),
                    static_cast<double>(tally.attempted)),
        "ratio"}});
  return 0;
}

/// --trace 1: an untraced pass and a traced pass over the first timed
/// pass's points, each on a context set up the same way, then the probes.
int run_per_layer(const Workload& w, const std::string& commit) {
  std::vector<Outcome> outcomes;
  Setup setup = set_up(w);
  const double rss_after_setup = peak_rss_mb();
  std::vector<double> make_ms = {setup.make_s * 1e3};
  for (int k = 1; k < kSetups; ++k) {
    const Clock::time_point t0 = Clock::now();
    const std::vector<cup::Scenario> again = make_all(w, setup.points);
    make_ms.push_back(seconds_between(t0, Clock::now()) * 1e3);
  }
  append(outcomes, setup.warmup.outcomes);

  const std::vector<Point> points = pass_points(w, 1);
  const PassResult plain = run_pass(*setup.ctx, points, make_all(w, points));
  append(outcomes, plain.outcomes);
  setup.ctx.reset();

  PassResult traced;
  {
    const Setup twin = set_up(w);
    append(outcomes, twin.warmup.outcomes);
    traced = run_pass(*twin.ctx, points, make_all(w, points, kTraceCapacity));
    append(outcomes, traced.outcomes);
  }

  Tally tally;
  if (traced.spans_dropped != 0) {
    tally.fail("traced pass dropped " + std::to_string(traced.spans_dropped) +
               " span records");
  }
  // Shares of the traced wall time: the sum of the traced runs' walls.
  const double traced_ns = traced.wall_s() * 1e9;
  auto exclusive_ns = [&traced](const char* name, bool family) {
    double ns = 0;
    for (const auto& [span, t] : traced.spans) {
      if (family ? has_prefix(span, name) : span == name) {
        ns += static_cast<double>(t.exclusive_ns);
      }
    }
    return ns;
  };
  auto share = [&](const char* name, bool family = false) {
    return ratio(exclusive_ns(name, family), traced_ns);
  };
  const auto execute = traced.spans.find("run.execute");
  const double execute_ns =
      execute == traced.spans.end()
          ? 0.0
          : static_cast<double>(execute->second.inclusive_ns);
  const double loop = share("run.execute");
  const double delivery = share("sim.dispatch.delivery");
  const double timer = share("sim.dispatch.timer");
  const double outside = ratio(traced_ns - execute_ns, traced_ns);
  const double accounted = share("", true) + outside;
  ++tally.attempted;
  if (execute == traced.spans.end() || std::fabs(accounted - 1.0) > 0.02) {
    tally.fail("traced pass: spans account for " + std::to_string(accounted) +
               " of the traced wall time, not 1 +- 0.02");
  }

  const std::vector<const cup::Scenario*> graphs =
      distinct_graphs(setup.points, setup.scenarios);
  const double add_pd_us = probe_add_pd_us(graphs);
  const double candidates_ms = probe_candidates_ms(graphs, tally);
  const CryptoTimes crypto_times = probe_crypto(graphs, w.seed, tally);
  const CodecTimes codec_times =
      probe_codec(graphs, setup.warmup.sent_by_type, w.seed, tally);
  setup = Setup{};

  check_outcomes(w, outcomes, tally);
  const double runs = static_cast<double>(plain.run_ms.size());
  auto per_run = [&plain, runs](const char* name) {
    const auto it = plain.counters.find(name);
    return it == plain.counters.end()
               ? 0.0
               : static_cast<double>(it->second) / runs;
  };
  print_context(w, commit, tally,
                {{"points_per_pass", static_cast<double>(points.size())},
                 {"untraced_runs", runs},
                 {"traced_runs", static_cast<double>(traced.run_ms.size())},
                 {"traced_accounted_share", accounted},
                 {"setup_make", static_cast<double>(make_ms.size())}});
  print_result(
      tally,
      {{"sim.loop_share", loop, "ratio"},
       {"sim.delivery_share", delivery, "ratio"},
       {"sim.timer_share", timer, "ratio"},
       {"discovery.round_share", share("discovery.round"), "ratio"},
       {"membership.scc_eval_share", share("membership.", true), "ratio"},
       {"pbft.share", share("pbft.", true), "ratio"},
       {"run.outside_share", outside, "ratio"},
       {"trace.residual_share", loop + delivery + timer + outside, "ratio"},
       {"trace.overhead", ratio(traced.wall_s(), plain.wall_s()), "x"},
       {"sim.events", per_run("sim.events"), "count"},
       {"eval.requested", per_run("eval.requested"), "count"},
       {"eval.hit_ratio",
        ratio(per_run("eval.cache_hits"), per_run("eval.requested")),
        "ratio"},
       {"sig.verified", per_run("sig.verified"), "count"},
       {"sig.hit_ratio",
        ratio(per_run("sig.cached"),
              per_run("sig.cached") + per_run("sig.verified")),
        "ratio"},
       {"engine.arena_bytes_peak", static_cast<double>(plain.arena_peak),
        "bytes"},
       {"bytes_per_msg",
        ratio(static_cast<double>(plain.bytes_sent),
              static_cast<double>(plain.messages_sent)),
        "B"},
       {"view.add_pd_us", add_pd_us, "us"},
       {"membership.candidates_ms", candidates_ms, "ms"},
       {"crypto.sign_us", crypto_times.sign_us, "us"},
       {"crypto.verify_us", crypto_times.verify_us, "us"},
       {"codec.encode_ns", codec_times.encode_ns, "ns"},
       {"codec.decode_ns", codec_times.decode_ns, "ns"},
       {"setup.make_ms", percentile(make_ms, 50), "ms"},
       {"rss.after_setup_mb", rss_after_setup, "MB"}});
  return 0;
}

/// Correctness only: the warm-up and first timed pass, each point once
/// recycled and once fresh, every failure listed by (scenario, seed), plus
/// the golden digests.
int run_check(const Workload& w, const std::string& commit) {
  std::vector<Point> points = pass_points(w, 0);
  const std::vector<Point> first = pass_points(w, 1);
  points.insert(points.end(), first.begin(), first.end());
  cup::RunContext ctx;
  const PassResult pass = run_pass(ctx, points, make_all(w, points));
  Tally tally;
  tally.echo = true;
  check_outcomes(w, pass.outcomes, tally);
  print_context(w, commit, tally,
                {{"points", static_cast<double>(points.size())}});
  print_result(tally, {});
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: e2e_bench --workload paper-sweep|msg-storm|scale-10k "
               "--seed N (--seconds S --trace 0|1 | --check) [--commit SHA]\n"
               "       e2e_bench --self-test\n");
  return 2;
}

}  // namespace
}  // namespace e2ebench

int main(int argc, char** argv) {
  using namespace e2ebench;
  std::string workload_name;
  std::string commit = "unknown";
  std::uint64_t seed = 0;
  double seconds = -1;
  int trace = -1;
  bool check = false;
  bool self_test_only = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload_name = argv[++i];
    } else if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--commit" && has_value) {
      commit = argv[++i];
    } else if (arg == "--check") {
      check = true;
    } else if (arg == "--self-test") {
      self_test_only = true;
    } else {
      return usage();
    }
  }

  if (!self_test()) return 1;
  if (self_test_only) {
    std::printf("self-test passed\n");
    return 0;
  }
  // Seeds above this would overflow the pass seed ranges.
  constexpr std::uint64_t kMaxSeed = 1'000'000'000;
  const std::optional<Workload> workload = make_workload(workload_name, seed);
  if (!workload || seed == 0 || seed > kMaxSeed) return usage();
  try {
    if (check) return run_check(*workload, commit);
    if (seconds <= 0 || (trace != 0 && trace != 1)) return usage();
    if (!kOptimized || sanitizer_build()) {
      std::fprintf(stderr,
                   "e2e_bench: refusing to time an %s build (flags: %s); "
                   "configure with -DCMAKE_BUILD_TYPE=Release\n",
                   sanitizer_build() ? "sanitizer" : "unoptimised",
                   E2E_CXX_FLAGS);
      return 3;
    }
    return trace == 1 ? run_per_layer(*workload, commit)
                      : run_end_to_end(*workload, seconds, commit);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "e2e_bench: %s\n", e.what());
    return 1;
  }
}
