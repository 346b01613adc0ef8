/**
 * @file
 * Byte pins for every JSON form the simulator writes: the Chrome
 * trace, the stats-JSON file, a ledger line of each envelope shape,
 * a dtexld journal submit line and a daemon error response. Each is
 * rendered from fixed inputs and compared as an exact string, so a
 * change to quoting, number formatting, member order or line framing
 * fails here even when the output still parses. Wall-clock and
 * host-dependent ledger values are masked before the comparison.
 */

#include <gtest/gtest.h>

#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <mutex>
#include <regex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/signals.hh"
#include "common/stat_registry.hh"
#include "common/trace.hh"
#include "core/dtexl.hh"
#include "obs/event_bus.hh"
#include "serve/daemon.hh"
#include "serve/journal.hh"
#include "telemetry/export.hh"

namespace dtexl {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + "dtexl_bytes_" + name + "." +
           std::to_string(::getpid());
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream os;
    os << in.rdbuf();
    return os.str();
}

/** Replace the value of each listed ledger member with '#'. */
std::string
maskMembers(std::string line)
{
    static const std::regex re(
        R"re("(ts_ms|t_ms|pid|nproc|host)":("[^"]*"|[0-9.]+))re");
    return std::regex_replace(line, re, "\"$1\":#");
}

/** One request/response round trip over the daemon's socket. */
std::string
rpc(const std::string &socketPath, const std::string &request)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);
    std::string resp;
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) == 0) {
        const std::string line = request + "\n";
        if (::send(fd, line.data(), line.size(), MSG_NOSIGNAL) ==
            static_cast<ssize_t>(line.size())) {
            char c;
            while (::read(fd, &c, 1) == 1) {
                resp += c;
                if (c == '\n')
                    break;
            }
        }
    }
    ::close(fd);
    return resp;
}

TEST(SerialisedBytes, EveryJsonFormMatchesPinnedText)
{
    // ---- Chrome trace: one span, one counter ----
    const std::string tracePath = tempPath("trace.json");
    TraceWriter::global().enable(tracePath);
    TraceWriter::global().complete("span \"q\"\\", "phase", 10, 20, 3);
    TraceWriter::global().counter("l2.hits\t", 15, 42, 3);
    TraceWriter::global().flush();
    TraceWriter::global().enable(""); // disarm the exit-time rewrite
    EXPECT_EQ(slurp(tracePath),
              "{\"traceEvents\":[\n"
              "{\"name\":\"span \\\"q\\\"\\\\\",\"cat\":\"phase\","
              "\"ph\":\"X\",\"ts\":10,\"dur\":20,\"pid\":1,\"tid\":3},\n"
              "{\"name\":\"l2.hits\\t\",\"cat\":\"counter\","
              "\"ph\":\"C\",\"ts\":15,\"pid\":1,\"tid\":3,"
              "\"args\":{\"value\":42}}\n"
              "]}\n");
    std::remove(tracePath.c_str());

    // ---- stats JSON: two nodes whose names need escaping ----
    const std::string statsPath = tempPath("stats.json");
    {
        StatRegistry reg("reg \"x\"");
        reg.inc("a.b", "hits", 7);
        reg.inc("a.b", "miss\\es", 2);
        reg.inc("a.\"c\"", "n\x01", 18446744073709551615ull);
        TelemetryExport::global().setStatsJsonPath(statsPath);
        TelemetryExport::global().attachRegistry(&reg);
        TelemetryExport::global().flush();
        TelemetryExport::global().setStatsJsonPath("");
    }
    EXPECT_EQ(slurp(statsPath),
              "{\n\"schema\":\"dtexl-stats-v1\",\n"
              "\"registry\":\"reg \\\"x\\\"\",\n\"nodes\":{\n"
              "\"a.\\\"c\\\"\":{\"n\\u0001\":18446744073709551615},\n"
              "\"a.b\":{\"hits\":7,\"miss\\\\es\":2}\n"
              "}\n}\n");
    std::remove(statsPath.c_str());

    // ---- ledger lines through the bus tap ----
    const std::string ledgerPath = tempPath("events.jsonl");
    std::mutex mu;
    std::vector<std::string> lines;
    EventBus::global().resetForTests();
    EventBus::global().setTap(
        [&](std::uint64_t, const std::string &line) {
            std::lock_guard<std::mutex> lk(mu);
            lines.push_back(line);
        });
    EventBus::global().enable(ledgerPath);
    EventBus::global().setInvocation("sim_cli --bench=\"SoD\"");
    EventBus::global().emitRunStart(0x1111, 0xabcdef);
    RunEvent submit(EventKind::JobSubmit, "SoD/\"d\"");
    submit.u64("frames", 3);
    EventBus::global().emit(std::move(submit));
    RunEvent done(EventKind::JobComplete, "SoD/\"d\"");
    done.u64("frames", 3)
        .u64("cycles", 123456789012ull)
        .f64("wall_ms", 1.25)
        .f64("neg", -0.0005)
        .str("note", "a\"b\\c\n\t\x1f")
        .u64("cached", 0);
    EventBus::global().emit(std::move(done));
    EventBus::global().finish();
    EventBus::global().resetForTests();
    std::remove(ledgerPath.c_str());
    ASSERT_EQ(lines.size(), 4u);
    EXPECT_EQ(maskMembers(lines[0]),
              "{\"schema\":\"dtexl-events-v1\",\"seq\":0,\"ts_ms\":#,"
              "\"t_ms\":#,\"event\":\"run_start\","
              "\"args\":\"sim_cli --bench=\\\"SoD\\\"\","
              "\"config\":\"0000000000001111\","
              "\"build\":\"0000000000abcdef\","
              "\"pid\":#,\"nproc\":#,\"host\":#}\n");
    EXPECT_EQ(maskMembers(lines[1]),
              "{\"seq\":1,\"ts_ms\":#,\"t_ms\":#,"
              "\"event\":\"job_submit\",\"job\":\"SoD/\\\"d\\\"\","
              "\"frames\":3}\n");
    EXPECT_EQ(maskMembers(lines[2]),
              "{\"seq\":2,\"ts_ms\":#,\"t_ms\":#,"
              "\"event\":\"job_complete\",\"job\":\"SoD/\\\"d\\\"\","
              "\"frames\":3,\"cycles\":123456789012,"
              "\"wall_ms\":1.250,\"neg\":-0.001,"
              "\"note\":\"a\\\"b\\\\c\\n\\t\\u001f\",\"cached\":0}\n");
    EXPECT_EQ(maskMembers(lines[3]),
              "{\"seq\":3,\"ts_ms\":#,\"t_ms\":#,"
              "\"event\":\"run_end\",\"jobs\":1,\"ok\":1,"
              "\"failed\":0,\"frames\":0,\"cache_hits\":0}\n");

    // ---- journal submit line ----
    const std::string journalPath = tempPath("jobs.journal");
    {
        JobSpec spec;
        spec.label = "j\"1";
        spec.bench = "SWa";
        spec.frames = 4;
        spec.preset = "dtexl";
        spec.options = {{"width", "256"}, {"note", "a\\b"}};
        spec.deadlineMs = 1500.5;
        spec.retryMax = 2;
        JobJournal journal(journalPath);
        journal.reset({});
        journal.recordSubmit(spec);
        journal.recordDone(spec.label, "done");
    }
    EXPECT_EQ(slurp(journalPath),
              "{\"op\":\"submit\",\"spec\":{\"job\":\"j\\\"1\","
              "\"bench\":\"SWa\",\"frames\":4,\"preset\":\"dtexl\","
              "\"options\":[{\"k\":\"width\",\"v\":\"256\"},"
              "{\"k\":\"note\",\"v\":\"a\\\\b\"}],"
              "\"deadline_ms\":1500.500,\"retry_max\":2}}\n"
              "{\"op\":\"done\",\"job\":\"j\\\"1\",\"state\":\"done\"}\n");
    std::remove(journalPath.c_str());

    // ---- daemon error responses ----
    char dirTemplate[] = "/tmp/dtexl_bytes_XXXXXX";
    ASSERT_NE(::mkdtemp(dirTemplate), nullptr);
    const std::string stateDir = dirTemplate;
    resetDrainForTests();
    DaemonConfig cfg;
    cfg.stateDir = stateDir;
    cfg.socketPath = stateDir + "/d.sock";
    cfg.installSignals = false;
    cfg.baseCfg = makeBaselineConfig();
    cfg.baseCfg.screenWidth = 256;
    cfg.baseCfg.screenHeight = 128;
    cfg.baseCfg.validate();
    Daemon daemon(cfg);
    int exitCode = -1;
    std::thread runner([&] { exitCode = daemon.run(); });
    std::string pong;
    for (int i = 0; i < 2000 && pong.empty(); ++i) {
        pong = rpc(cfg.socketPath, R"({"cmd":"ping"})");
        if (pong.empty())
            std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    ASSERT_FALSE(pong.empty()) << "daemon never answered ping";
    EXPECT_EQ(rpc(cfg.socketPath, R"({"cmd":"x\"y\\z"})"),
              "{\"ok\":false,"
              "\"error\":\"unknown command 'x\\\"y\\\\z'\"}\n");
    EXPECT_EQ(rpc(cfg.socketPath, R"({"cmd":)"),
              "{\"ok\":false,\"error\":\"bad request: unexpected end "
              "of input at offset 7\"}\n");
    rpc(cfg.socketPath, R"({"cmd":"drain"})");
    runner.join();
    EXPECT_EQ(exitCode, 0);
    resetDrainForTests();
    std::remove((stateDir + "/jobs.journal").c_str());
    std::remove(cfg.socketPath.c_str());
    ::rmdir(stateDir.c_str());
}

} // namespace
} // namespace dtexl
