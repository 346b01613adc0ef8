/**
 * @file
 * Machine-readable telemetry exporters, process-global like
 * TraceWriter: `--stats-json=FILE` writes a flat JSON dump of an
 * attached StatRegistry (schema "dtexl-stats-v1"), `--timeline-csv=FILE`
 * writes the level-2 per-tile counter rows as CSV lines
 * (label,frame,cycle,source,value). Rows are buffered in memory and
 * written by flush(); enabling either path installs an atexit backstop
 * so files appear even when a binary exits through fatal().
 */

#ifndef DTEXL_TELEMETRY_EXPORT_HH
#define DTEXL_TELEMETRY_EXPORT_HH

#include <cstdint>
#include <string>

#include "common/stat_registry.hh"
#include "common/types.hh"

namespace dtexl {

/** Process-global exporter; inert until a path is set. */
class TelemetryExport
{
  public:
    static TelemetryExport &global();

    /** Set the --stats-json output path and arm the atexit backstop. */
    void setStatsJsonPath(const std::string &path);
    /** Set the --timeline-csv output path (same backstop). */
    void setTimelineCsvPath(const std::string &path);

    /**
     * Registry dumped by the stats-JSON exporter. flush() detaches it,
     * so a stack-allocated registry is safe as long as the owner calls
     * flush() before the registry dies (the CLIs do, at end of main).
     */
    void attachRegistry(const StatRegistry *reg);

    bool statsJsonEnabled() const;
    bool timelineEnabled() const;

    /** Buffer one timeline line (thread-safe). */
    void appendTimelineRow(const std::string &label, std::uint32_t frame,
                           Cycle cycle, const std::string &source,
                           std::uint64_t value);

    /**
     * Write both files (if their paths are set), then detach the
     * registry and drop the buffered rows; subsequent calls are no-ops
     * until new data arrives.
     */
    void flush();

    /**
     * Failure-path flush: write both files like flush() but keep the
     * registry attached and the rows buffered, so a batch that
     * continues after one job fails still produces complete final
     * artifacts. Registered with registerFailureFlush() when a path is
     * armed; every failure unwind calls it via
     * flushFailureArtifacts().
     */
    void checkpoint();

  private:
    struct Impl;
    Impl &impl();
};

} // namespace dtexl

#endif // DTEXL_TELEMETRY_EXPORT_HH
