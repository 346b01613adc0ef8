/**
 * @file
 * Coverage for the --trace observability surface: the Chrome-trace
 * JSON written by TraceWriter must parse, its spans must be properly
 * nested per track, counter tracks emitted from level-2 telemetry's
 * per-tile rows must be well-formed, and the StatRegistry tree
 * populated alongside it must satisfy the
 * parent-totals-equal-sum-of-children invariant.
 *
 * TraceWriter is a process global that stays enabled once switched on,
 * so everything that needs tracing runs inside this one binary. The
 * batch runs at telemetry level 2 so the trace carries counter
 * ("ph":"C") events alongside the spans.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/json.hh"
#include "common/stat_registry.hh"
#include "common/trace.hh"
#include "core/engine.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

struct Span
{
    std::string name;
    std::string cat;
    std::uint64_t ts = 0;
    std::uint64_t dur = 0;
    std::uint64_t tid = 0;
};

struct Counter
{
    std::string name;
    std::uint64_t ts = 0;
    std::uint64_t value = 0;
    std::uint64_t tid = 0;
};

/**
 * Shared fixture state: run one traced batch for the whole binary and
 * let every test interrogate the resulting file and registry.
 */
class TraceOutput : public ::testing::Test
{
  protected:
    /**
     * Per-process file: ctest runs each TraceOutput case as its own
     * process, possibly in parallel, and a shared name would let one
     * case read another's half-written trace.
     */
    static std::string
    path()
    {
        return "test_trace_out." + std::to_string(::getpid()) + ".json";
    }

    static void
    SetUpTestSuite()
    {
        TraceWriter::global().enable(path());

        GpuConfig cfg;
        cfg.screenWidth = 256;
        cfg.screenHeight = 128;
        // Level 2 so the per-tile rows populate counter tracks.
        cfg.telemetryLevel = 2;

        static Scene swa =
            generateScene(benchmarkByAlias("SWa"), cfg, 0);
        static Scene gtr =
            generateScene(benchmarkByAlias("GTr"), cfg, 0);

        registry() = new StatRegistry("trace-test");
        std::vector<BatchJob> jobs;
        jobs.push_back({"SWa/a", cfg,
                        [](std::uint32_t) -> const Scene & {
                            return swa;
                        },
                        2});
        jobs.push_back({"GTr/b", cfg,
                        [](std::uint32_t) -> const Scene & {
                            return gtr;
                        },
                        1});
        results() = runBatch(jobs, 2, registry());
        TraceWriter::global().flush();

        std::ifstream in(path(), std::ios::binary);
        std::ostringstream os;
        os << in.rdbuf();
        text() = os.str();
    }

    static void
    TearDownTestSuite()
    {
        delete registry();
        registry() = nullptr;
        std::remove(path().c_str());
    }

    static StatRegistry *&
    registry()
    {
        static StatRegistry *r = nullptr;
        return r;
    }

    static std::vector<BatchResult> &
    results()
    {
        static std::vector<BatchResult> r;
        return r;
    }

    static std::string &
    text()
    {
        static std::string t;
        return t;
    }

    /** Complete ("X") events only; counter events carry no "dur". */
    static void
    spans(std::vector<Span> &out)
    {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(text(), doc, err)) << err;
        const JsonValue *events = doc.find("traceEvents");
        ASSERT_NE(events, nullptr);
        for (const JsonValue &e : events->items) {
            ASSERT_NE(e.find("ph"), nullptr);
            if (e.find("ph")->text != "X")
                continue;
            for (const char *k : {"name", "cat", "ts", "dur", "tid"})
                ASSERT_NE(e.find(k), nullptr) << k;
            Span s;
            s.name = e.find("name")->text;
            s.cat = e.find("cat")->text;
            s.ts = static_cast<std::uint64_t>(e.find("ts")->number);
            s.dur = static_cast<std::uint64_t>(e.find("dur")->number);
            s.tid = static_cast<std::uint64_t>(e.find("tid")->number);
            out.push_back(std::move(s));
        }
    }

    /** Counter ("C") events emitted from the per-tile rows. */
    static void
    counters(std::vector<Counter> &out)
    {
        JsonValue doc;
        std::string err;
        ASSERT_TRUE(parseJson(text(), doc, err)) << err;
        const JsonValue *events = doc.find("traceEvents");
        ASSERT_NE(events, nullptr);
        for (const JsonValue &e : events->items) {
            ASSERT_NE(e.find("ph"), nullptr);
            if (e.find("ph")->text != "C")
                continue;
            for (const char *k : {"cat", "name", "ts", "tid", "args"})
                ASSERT_NE(e.find(k), nullptr) << k;
            EXPECT_EQ(e.find("cat")->text, "counter");
            EXPECT_EQ(e.find("dur"), nullptr)
                << "counter events must not carry a duration";
            Counter c;
            c.name = e.find("name")->text;
            c.ts = static_cast<std::uint64_t>(e.find("ts")->number);
            c.tid = static_cast<std::uint64_t>(e.find("tid")->number);
            const JsonValue &args = *e.find("args");
            EXPECT_EQ(args.kind, JsonValue::Kind::Object);
            const JsonValue *value = args.find("value");
            EXPECT_TRUE(value != nullptr)
                << "counter '" << c.name << "' lacks args.value";
            if (value != nullptr) {
                EXPECT_EQ(value->kind, JsonValue::Kind::Number);
                c.value = static_cast<std::uint64_t>(value->number);
            }
            out.push_back(std::move(c));
        }
    }
};

TEST_F(TraceOutput, FileParsesAsJson)
{
    ASSERT_FALSE(text().empty());
    JsonValue doc;
    std::string err;
    ASSERT_TRUE(parseJson(text(), doc, err)) << text();
    ASSERT_EQ(doc.kind, JsonValue::Kind::Object);
    ASSERT_TRUE(doc.find("traceEvents") != nullptr);
    EXPECT_EQ(doc.find("traceEvents")->kind, JsonValue::Kind::Array);
}

TEST_F(TraceOutput, EventsCarryExpectedSpans)
{
    std::vector<Span> ss;
    ASSERT_NO_FATAL_FAILURE(spans(ss));

    // 3 frames total: one geometry + one raster phase span each, and
    // one job span per job.
    std::map<std::string, int> by_name;
    for (const Span &s : ss)
        ++by_name[s.cat + ":" + s.name];
    EXPECT_EQ(by_name["phase:geometry"], 3);
    EXPECT_EQ(by_name["phase:raster"], 3);
    EXPECT_EQ(by_name["job:SWa/a"], 1);
    EXPECT_EQ(by_name["job:GTr/b"], 1);
}

TEST_F(TraceOutput, SpansWellNestedPerTrack)
{
    std::vector<Span> ss;
    ASSERT_NO_FATAL_FAILURE(spans(ss));

    // Within a track, complete events must be properly nested: sort by
    // (start asc, duration desc) and sweep with a stack of open end
    // times; a span that starts inside an open span must also end
    // inside it.
    std::map<std::uint64_t, std::vector<Span>> tracks;
    for (Span &s : ss)
        tracks[s.tid].push_back(s);
    for (auto &[tid, track] : tracks) {
        std::sort(track.begin(), track.end(),
                  [](const Span &a, const Span &b) {
                      if (a.ts != b.ts)
                          return a.ts < b.ts;
                      return a.dur > b.dur;
                  });
        std::vector<std::uint64_t> open;
        for (const Span &s : track) {
            while (!open.empty() && open.back() <= s.ts)
                open.pop_back();
            if (!open.empty()) {
                EXPECT_LE(s.ts + s.dur, open.back())
                    << "span '" << s.name << "' on tid " << tid
                    << " straddles its parent";
            }
            open.push_back(s.ts + s.dur);
        }
    }
}

TEST_F(TraceOutput, JobSpanContainsItsPhaseSpans)
{
    std::vector<Span> ss;
    ASSERT_NO_FATAL_FAILURE(spans(ss));
    for (const Span &job : ss) {
        if (job.cat != "job")
            continue;
        int contained = 0;
        for (const Span &ph : ss) {
            if (ph.cat != "phase" || ph.tid != job.tid)
                continue;
            if (ph.ts >= job.ts &&
                ph.ts + ph.dur <= job.ts + job.dur)
                ++contained;
        }
        // Every frame of the job contributes a geometry and a raster
        // span on the same worker track.
        const int frames = job.name == "SWa/a" ? 2 : 1;
        EXPECT_GE(contained, 2 * frames) << job.name;
    }
}

TEST_F(TraceOutput, CounterTracksPresentAndValid)
{
    std::vector<Counter> cs;
    ASSERT_NO_FATAL_FAILURE(counters(cs));

    // Level 2 records one row per tile; each row emits one event per
    // source.
    ASSERT_FALSE(cs.empty());

    // Counter names are "<job prefix>.<source>"; both jobs must have
    // rows, and the per-SC occupancy sources must be among them.
    std::map<std::string, int> by_name;
    for (const Counter &c : cs)
        ++by_name[c.name];
    bool swa_seen = false, gtr_seen = false, sc_seen = false;
    for (const auto &[name, n] : by_name) {
        EXPECT_GT(n, 0);
        swa_seen |= name.rfind("job.SWa/a.", 0) == 0;
        gtr_seen |= name.rfind("job.GTr/b.", 0) == 0;
        sc_seen |= name.find(".sc0.busy") != std::string::npos;
    }
    EXPECT_TRUE(swa_seen);
    EXPECT_TRUE(gtr_seen);
    EXPECT_TRUE(sc_seen);
}

TEST_F(TraceOutput, CounterTimestampsMonotonicPerTrack)
{
    std::vector<Counter> cs;
    ASSERT_NO_FATAL_FAILURE(counters(cs));
    ASSERT_FALSE(cs.empty());

    // Events appear in emission order; within one (tid, name) counter
    // track timestamps must never go backwards, or the viewer would
    // draw a garbled track.
    std::map<std::pair<std::uint64_t, std::string>, std::uint64_t> last;
    for (const Counter &c : cs) {
        const auto key = std::make_pair(c.tid, c.name);
        const auto it = last.find(key);
        if (it != last.end()) {
            EXPECT_GE(c.ts, it->second)
                << "counter '" << c.name << "' on tid " << c.tid
                << " went backwards";
        }
        last[key] = c.ts;
    }
}

TEST_F(TraceOutput, RegistryParentTotalsEqualChildSums)
{
    const StatRegistry &reg = *registry();

    // Leaf keys: each job has exactly a .geometry and a .raster child
    // holding these keys (the telemetry nodes use busy/stall_*/idle,
    // so they contribute nothing to these sums).
    for (const char *job : {"job.SWa/a", "job.GTr/b"}) {
        const std::string base(job);
        for (const char *key : {"frames", "cycles", "wall_us"}) {
            EXPECT_EQ(reg.total(base, key),
                      reg.total(base + ".geometry", key) +
                          reg.total(base + ".raster", key))
                << base << "." << key;
        }
    }

    // Root totals aggregate every job.
    EXPECT_EQ(reg.total("job", "frames"),
              reg.total("job.SWa/a", "frames") +
                  reg.total("job.GTr/b", "frames"));
    // 3 frames, each with one geometry and one raster phase entry.
    EXPECT_EQ(reg.total("job", "frames"), 6u);

    // The registry's cycle totals agree with the FrameStats the batch
    // returned — the two observability surfaces cannot drift apart.
    std::uint64_t geom = 0, raster = 0;
    for (const BatchResult &r : results()) {
        for (const FrameStats &fs : r.frames) {
            geom += fs.geometryCycles;
            raster += fs.rasterCycles;
        }
    }
    EXPECT_EQ(reg.total("job", "cycles"), geom + raster);

    // An unrelated prefix sums nothing.
    EXPECT_EQ(reg.total("nonexistent", "cycles"), 0u);
}

TEST_F(TraceOutput, TelemetryNodesPublishedPerJob)
{
    const StatRegistry &reg = *registry();

    // publish() writes cumulative busy/stall_*/idle/total per unit
    // under "<job>.telemetry.<unit>"; the invariant itself is covered
    // in depth by test_telemetry — here we check the registry surface
    // exists and is self-consistent after a batch run.
    for (const char *job : {"job.SWa/a", "job.GTr/b"}) {
        const std::string base = std::string(job) + ".telemetry";
        const std::uint64_t total = reg.total(base, "total");
        EXPECT_GT(total, 0u) << base;
        EXPECT_EQ(reg.total(base, "busy") + reg.total(base, "idle") +
                      reg.total(base, "stall_barrier_wait") +
                      reg.total(base, "stall_no_ready_warp") +
                      reg.total(base, "stall_upstream_starve") +
                      reg.total(base, "stall_downstream_backpressure") +
                      reg.total(base, "stall_mshr_full") +
                      reg.total(base, "stall_bank_conflict") +
                      reg.total(base, "stall_channel_busy"),
                  total)
            << base;
    }
}

} // namespace
} // namespace dtexl
