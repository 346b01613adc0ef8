/**
 * @file
 * Run-event ledger tests (obs/event_bus.hh): the JSONL ledger must be
 * well-formed line by line, bracketed by run_start/run_end with a
 * monotonic seq, carry the full batch lifecycle (submit → start →
 * frame → complete), record result-cache traffic as events, survive a
 * failing job with a valid job_error line already on disk,
 * and hold content-identical events for any worker count. Arming the
 * bus must never change a simulated statistic.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <map>
#include <string>
#include <unistd.h>
#include <vector>

#include "cache/result_store.hh"
#include "common/json.hh"
#include "common/log.hh"
#include "common/serial.hh"
#include "common/sim_error.hh"
#include "core/dtexl.hh"
#include "obs/event_bus.hh"
#include "workloads/scenegen.hh"

namespace dtexl {
namespace {

GpuConfig
smallCfg()
{
    GpuConfig cfg;
    cfg.screenWidth = 256;
    cfg.screenHeight = 128;
    return cfg;
}

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "dtexl_events_" + name + "." +
           std::to_string(::getpid()) + ".jsonl";
}

/** Parse every non-empty ledger line; any syntax error fails here. */
std::vector<JsonValue>
readLedger(const std::string &path)
{
    std::vector<JsonValue> events;
    std::ifstream in(path);
    EXPECT_TRUE(in.good()) << path;
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        JsonValue v;
        std::string err;
        EXPECT_TRUE(parseJson(line, v, err)) << "bad JSON line: " << line;
        events.push_back(std::move(v));
    }
    return events;
}

std::string
eventName(const JsonValue &v)
{
    return v.str("event");
}

std::map<std::string, int>
countByEvent(const std::vector<JsonValue> &events)
{
    std::map<std::string, int> counts;
    for (const JsonValue &v : events)
        ++counts[eventName(v)];
    return counts;
}

/** Two jobs x two frames over the given worker count. */
std::vector<BatchResult>
runSmallBatch(const std::vector<std::vector<Scene>> &scenes,
              unsigned workers)
{
    std::vector<BatchJob> jobs;
    const char *labels[] = {"Mze", "CRa"};
    for (std::size_t j = 0; j < scenes.size(); ++j) {
        BatchJob bj;
        bj.label = labels[j];
        bj.cfg = smallCfg();
        const std::vector<Scene> *s = &scenes[j];
        bj.scene = [s](std::uint32_t f) -> const Scene & {
            return (*s)[f];
        };
        bj.frames = static_cast<std::uint32_t>(s->size());
        jobs.push_back(std::move(bj));
    }
    return runBatch(jobs, workers, nullptr);
}

std::vector<std::vector<Scene>>
makeScenes()
{
    std::vector<std::vector<Scene>> scenes;
    for (const char *alias : {"Mze", "CRa"}) {
        scenes.emplace_back();
        for (std::uint32_t f = 0; f < 2; ++f)
            scenes.back().push_back(
                generateScene(benchmarkByAlias(alias), smallCfg(), f));
    }
    return scenes;
}

class EventBusTest : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        setLogQuiet(true);
        EventBus::global().resetForTests();
    }

    void
    TearDown() override
    {
        EventBus::global().resetForTests();
        ResultCache::global().resetForTests();
        setLogQuiet(false);
    }
};

TEST_F(EventBusTest, LedgerIsWellFormedAndComplete)
{
    const std::string path = tempPath("complete");
    EventBus::global().enable(path);
    EventBus::global().emitRunStart(0x1111, 0x2222);

    const auto scenes = makeScenes();
    const std::vector<BatchResult> results = runSmallBatch(scenes, 2);
    ASSERT_EQ(results.size(), 2u);
    EXPECT_TRUE(results[0].ok);
    EXPECT_TRUE(results[1].ok);
    EventBus::global().finish();

    const std::vector<JsonValue> events = readLedger(path);
    ASSERT_GE(events.size(), 2u);

    // Bracketing and the schema marker on the first line.
    EXPECT_EQ(eventName(events.front()), "run_start");
    ASSERT_NE(events.front().find("schema"), nullptr);
    ASSERT_NE(events.front().find("config"), nullptr);
    EXPECT_EQ(events.front().find("schema")->text, "dtexl-events-v1");
    EXPECT_EQ(events.front().find("config")->text, "0000000000001111");
    EXPECT_EQ(eventName(events.back()), "run_end");

    // seq is exactly 0..N-1 in file order (single-writer contract).
    for (std::size_t i = 0; i < events.size(); ++i) {
        ASSERT_NE(events[i].find("seq"), nullptr) << "at line " << i;
        EXPECT_EQ(events[i].find("seq")->number, static_cast<double>(i))
            << "at line " << i;
    }

    // Full lifecycle: 2 submits, 2 starts, 4 frames, 2 completes.
    std::map<std::string, int> counts = countByEvent(events);
    EXPECT_EQ(counts["job_submit"], 2);
    EXPECT_EQ(counts["job_start"], 2);
    EXPECT_EQ(counts["job_frame"], 4);
    EXPECT_EQ(counts["job_complete"], 2);
    EXPECT_EQ(counts["job_error"], 0);

    // run_end totals agree with the counted events.
    const JsonValue &end = events.back();
    for (const char *k : {"jobs", "ok", "failed", "frames"})
        ASSERT_NE(end.find(k), nullptr) << k;
    EXPECT_EQ(end.find("jobs")->number, 2.0);
    EXPECT_EQ(end.find("ok")->number, 2.0);
    EXPECT_EQ(end.find("failed")->number, 0.0);
    EXPECT_EQ(end.find("frames")->number, 4.0);

    // Every job-scoped event names its job.
    for (const JsonValue &v : events) {
        const std::string name = eventName(v);
        if (name == "run_start" || name == "run_end")
            continue;
        ASSERT_TRUE(v.find("job") != nullptr) << name;
        const std::string &job = v.find("job")->text;
        EXPECT_TRUE(job == "Mze" || job == "CRa") << job;
    }

    std::remove(path.c_str());
}

TEST_F(EventBusTest, ContentIdenticalForAnyWorkerCount)
{
    const auto scenes = makeScenes();
    std::map<std::string, int> counts[2];
    std::string paths[2];
    const unsigned workers[2] = {1, 2};
    for (int i = 0; i < 2; ++i) {
        paths[i] = tempPath("workers" + std::to_string(workers[i]));
        EventBus::global().resetForTests();
        EventBus::global().enable(paths[i]);
        runSmallBatch(scenes, workers[i]);
        EventBus::global().finish();
        counts[i] = countByEvent(readLedger(paths[i]));
    }
    // Same multiset of events whatever the interleaving; seq order and
    // timestamps are the only legitimate differences (run_report.py
    // --canon strips exactly those for full-line comparison in CI).
    EXPECT_EQ(counts[0], counts[1]);
    std::remove(paths[0].c_str());
    std::remove(paths[1].c_str());
}

TEST_F(EventBusTest, FailingJobLeavesValidLedgerWithJobError)
{
    const std::string path = tempPath("fault");
    EventBus::global().enable(path);

    const auto scenes = makeScenes();
    std::vector<BatchJob> jobs;
    BatchJob ok;
    ok.label = "Mze";
    ok.cfg = smallCfg();
    const std::vector<Scene> *s = &scenes[0];
    ok.scene = [s](std::uint32_t f) -> const Scene & { return (*s)[f]; };
    ok.frames = 1;
    jobs.push_back(std::move(ok));

    BatchJob bad;
    bad.label = "broken";
    bad.cfg = smallCfg();
    bad.scene = [](std::uint32_t) -> const Scene & {
        throwUserError("scene provider exploded");
    };
    bad.frames = 1;
    jobs.push_back(std::move(bad));

    const std::vector<BatchResult> results = runBatch(jobs, 2, nullptr);
    EXPECT_TRUE(results[0].ok);
    EXPECT_FALSE(results[1].ok);

    // emit() writes synchronously: the job_error line is on disk
    // BEFORE finish() closes the ledger.
    {
        const std::vector<JsonValue> mid = readLedger(path);
        EXPECT_EQ(countByEvent(mid)["job_error"], 1);
    }

    EventBus::global().finish();
    const std::vector<JsonValue> events = readLedger(path);
    EXPECT_EQ(eventName(events.back()), "run_end");
    std::map<std::string, int> counts = countByEvent(events);
    EXPECT_EQ(counts["job_error"], 1);
    EXPECT_EQ(counts["job_complete"], 1);
    const JsonValue &end = events.back();
    ASSERT_NE(end.find("failed"), nullptr);
    ASSERT_NE(end.find("ok"), nullptr);
    EXPECT_EQ(end.find("failed")->number, 1.0);
    EXPECT_EQ(end.find("ok")->number, 1.0);

    for (const JsonValue &v : events) {
        if (eventName(v) != "job_error")
            continue;
        for (const char *k : {"job", "kind", "error"})
            ASSERT_NE(v.find(k), nullptr) << k;
        EXPECT_EQ(v.find("job")->text, "broken");
        EXPECT_EQ(v.find("kind")->text, "user-input");
        EXPECT_NE(v.find("error")->text.find("exploded"),
                  std::string::npos);
    }
    std::remove(path.c_str());
}

TEST_F(EventBusTest, CacheTrafficMirroredAsEvents)
{
    const std::string path = tempPath("cache");
    const std::string cache_dir =
        ::testing::TempDir() + "dtexl_events_cache." +
        std::to_string(::getpid());
    ensureDirectory(cache_dir);
    EventBus::global().enable(path);
    ResultCache::global().resetForTests();
    ResultCache::global().configure(cache_dir, CacheMode::ReadWrite, 0,
                                    false);

    const auto scenes = makeScenes();
    runSmallBatch(scenes, 1);  // cold: misses + stores
    runSmallBatch(scenes, 1);  // warm: hits
    EventBus::global().finish();

    std::map<std::string, int> counts =
        countByEvent(readLedger(path));
    EXPECT_EQ(counts["job_cache_miss"], 2);
    EXPECT_EQ(counts["job_cache_store"], 2);
    EXPECT_EQ(counts["job_cache_hit"], 2);
    // Warm jobs complete without rendering: 4 frames, not 8.
    EXPECT_EQ(counts["job_frame"], 4);
    std::remove(path.c_str());
}

TEST_F(EventBusTest, ArmingTheBusNeverChangesResults)
{
    const auto scenes = makeScenes();
    const std::vector<BatchResult> plain = runSmallBatch(scenes, 1);

    const std::string path = tempPath("identity");
    EventBus::global().enable(path);
    const std::vector<BatchResult> armed = runSmallBatch(scenes, 1);
    EventBus::global().finish();

    ASSERT_EQ(plain.size(), armed.size());
    for (std::size_t j = 0; j < plain.size(); ++j) {
        ASSERT_EQ(plain[j].frames.size(), armed[j].frames.size());
        for (std::size_t f = 0; f < plain[j].frames.size(); ++f) {
            EXPECT_EQ(plain[j].frames[f].totalCycles,
                      armed[j].frames[f].totalCycles);
            EXPECT_EQ(plain[j].frames[f].imageHash,
                      armed[j].frames[f].imageHash);
        }
    }
    std::remove(path.c_str());
}

TEST_F(EventBusTest, ProgressLineReachesStderr)
{
    ::testing::internal::CaptureStderr();
    EventBus::global().enableProgress();
    const auto scenes = makeScenes();
    runSmallBatch(scenes, 1);
    EventBus::global().finish();
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_NE(err.find("progress:"), std::string::npos) << err;
    EXPECT_NE(err.find("frames/s"), std::string::npos) << err;
}

} // namespace
} // namespace dtexl
