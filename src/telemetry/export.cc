#include "telemetry/export.hh"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <vector>

#include "common/json.hh"
#include "common/log.hh"
#include "common/sim_error.hh"

namespace dtexl {

struct TelemetryExport::Impl
{
    struct Row
    {
        std::string label;
        std::uint32_t frame;
        Cycle cycle;
        std::string source;
        std::uint64_t value;
    };

    std::mutex mu;
    std::string statsJsonPath;
    std::string timelineCsvPath;
    const StatRegistry *registry = nullptr;
    std::vector<Row> rows;
    bool timelineOn = false;

    void
    armAtexit()
    {
        static bool hooked = false;
        if (!hooked) {
            hooked = true;
            std::atexit([] { TelemetryExport::global().flush(); });
            // Exceptional unwinds (a failed job, a guarded main)
            // flush through the non-detaching checkpoint so partial
            // artifacts survive even if the process never reaches a
            // clean exit, while the registry stays attached for the
            // batch's final flush().
            registerFailureFlush(
                [] { TelemetryExport::global().checkpoint(); });
        }
    }

    /** Write both files; caller holds mu. */
    void writeLocked();
};

TelemetryExport::Impl &
TelemetryExport::impl()
{
    static Impl instance;
    return instance;
}

TelemetryExport &
TelemetryExport::global()
{
    static TelemetryExport exporter;
    return exporter;
}

void
TelemetryExport::setStatsJsonPath(const std::string &path)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.statsJsonPath = path;
    im.armAtexit();
}

void
TelemetryExport::setTimelineCsvPath(const std::string &path)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.timelineCsvPath = path;
    im.timelineOn = !path.empty();
    im.armAtexit();
}

void
TelemetryExport::attachRegistry(const StatRegistry *reg)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.registry = reg;
}

bool
TelemetryExport::statsJsonEnabled() const
{
    Impl &im = const_cast<TelemetryExport *>(this)->impl();
    std::lock_guard<std::mutex> lock(im.mu);
    return !im.statsJsonPath.empty();
}

bool
TelemetryExport::timelineEnabled() const
{
    // Racy-read tolerable: set once during argv parsing, before any
    // worker thread exists.
    return const_cast<TelemetryExport *>(this)->impl().timelineOn;
}

void
TelemetryExport::appendTimelineRow(const std::string &label,
                                   std::uint32_t frame, Cycle cycle,
                                   const std::string &source,
                                   std::uint64_t value)
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    if (im.timelineCsvPath.empty())
        return;
    im.rows.push_back({label, frame, cycle, source, value});
}

void
TelemetryExport::Impl::writeLocked()
{
    Impl &im = *this;
    if (!im.statsJsonPath.empty() && im.registry) {
        FILE *f = std::fopen(im.statsJsonPath.c_str(), "w");
        if (!f) {
            warn("cannot open stats JSON file '%s'",
                 im.statsJsonPath.c_str());
        } else {
            std::fprintf(f,
                         "{\n\"schema\":\"dtexl-stats-v1\",\n"
                         "\"registry\":%s,\n\"nodes\":{\n",
                         JsonWriter::quote(im.registry->name()).c_str());
            const std::vector<std::string> paths = im.registry->paths();
            for (std::size_t i = 0; i < paths.size(); ++i) {
                JsonWriter node;
                for (const auto &[key, value] :
                     im.registry->find(paths[i])->counters())
                    node.u64(key.c_str(), value);
                std::fprintf(f, "%s:%s%s\n",
                             JsonWriter::quote(paths[i]).c_str(),
                             node.object().c_str(),
                             i + 1 == paths.size() ? "" : ",");
            }
            std::fprintf(f, "}\n}\n");
            std::fclose(f);
        }
    }

    if (!im.timelineCsvPath.empty() && !im.rows.empty()) {
        FILE *f = std::fopen(im.timelineCsvPath.c_str(), "w");
        if (!f) {
            warn("cannot open timeline CSV file '%s'",
                 im.timelineCsvPath.c_str());
        } else {
            std::fprintf(f, "label,frame,cycle,source,value\n");
            for (const Impl::Row &r : im.rows) {
                std::fprintf(f, "%s,%u,%llu,%s,%llu\n",
                             r.label.c_str(), r.frame,
                             static_cast<unsigned long long>(r.cycle),
                             r.source.c_str(),
                             static_cast<unsigned long long>(r.value));
            }
            std::fclose(f);
        }
    }
}

void
TelemetryExport::flush()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.writeLocked();
    // Detach: the registry may be a stack local of main(); the atexit
    // backstop must not touch it after an explicit flush.
    im.registry = nullptr;
    im.rows.clear();
}

void
TelemetryExport::checkpoint()
{
    Impl &im = impl();
    std::lock_guard<std::mutex> lock(im.mu);
    im.writeLocked();
}

} // namespace dtexl
