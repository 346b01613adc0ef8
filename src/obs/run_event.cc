#include "obs/run_event.hh"

#include <cstring>

#include "common/json.hh"

namespace dtexl {

const char *
toString(EventKind kind)
{
    switch (kind) {
    case EventKind::RunStart:      return "run_start";
    case EventKind::JobSubmit:     return "job_submit";
    case EventKind::JobStart:      return "job_start";
    case EventKind::JobFrame:      return "job_frame";
    case EventKind::JobCheckpoint: return "job_checkpoint";
    case EventKind::JobCacheHit:   return "job_cache_hit";
    case EventKind::JobCacheMiss:  return "job_cache_miss";
    case EventKind::JobCacheStore: return "job_cache_store";
    case EventKind::JobResume:     return "job_resume";
    case EventKind::JobComplete:   return "job_complete";
    case EventKind::JobError:      return "job_error";
    case EventKind::Watchdog:      return "watchdog";
    case EventKind::RunEnd:        return "run_end";
    }
    return "unknown";
}

RunEvent &
RunEvent::u64(const char *key, std::uint64_t value)
{
    if (std::strcmp(key, "frames") == 0)
        frames = value;
    else if (std::strcmp(key, "cached") == 0)
        cached = value;
    fields.push_back({key, std::to_string(value)});
    return *this;
}

RunEvent &
RunEvent::f64(const char *key, double value)
{
    fields.push_back({key, JsonWriter::number(value)});
    return *this;
}

RunEvent &
RunEvent::str(const char *key, const std::string &value)
{
    fields.push_back({key, JsonWriter::quote(value)});
    return *this;
}

} // namespace dtexl
