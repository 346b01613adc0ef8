#include "serve/job_table.hh"

#include <algorithm>

namespace dtexl {

const char *
toString(JobState state)
{
    switch (state) {
    case JobState::Queued: return "queued";
    case JobState::Running: return "running";
    case JobState::RetryWait: return "retry_wait";
    case JobState::Done: return "done";
    case JobState::Failed: return "failed";
    case JobState::Cancelled: return "cancelled";
    case JobState::Expired: return "expired";
    case JobState::Interrupted: return "interrupted";
    }
    return "?";
}

bool
jobStateTerminal(JobState state)
{
    return state == JobState::Done || state == JobState::Failed ||
           state == JobState::Cancelled || state == JobState::Expired;
}

// ---- JobSpec <-> JSON ---------------------------------------------

std::string
renderJobSpec(const JobSpec &spec)
{
    JsonWriter w;
    w.str("job", spec.label);
    if (!spec.bench.empty())
        w.str("bench", spec.bench);
    if (!spec.scenePath.empty())
        w.str("scene", spec.scenePath);
    w.u64("frames", spec.frames);
    if (!spec.preset.empty())
        w.str("preset", spec.preset);
    if (!spec.options.empty()) {
        std::vector<std::string> opts;
        for (const auto &kv : spec.options)
            opts.push_back(
                JsonWriter().str("k", kv.first).str("v", kv.second).object());
        w.objects("options", opts);
    }
    if (spec.deadlineMs > 0.0)
        w.f64("deadline_ms", spec.deadlineMs);
    if (spec.retryMax >= 0)
        w.i64("retry_max", spec.retryMax);
    return w.object();
}

bool
parseJobSpec(const JsonValue &v, JobSpec &out, std::string &err)
{
    out = JobSpec{};
    if (!v.isObject()) {
        err = "job spec must be a JSON object";
        return false;
    }
    out.label = v.str("job");
    out.bench = v.str("bench");
    out.scenePath = v.str("scene");
    out.preset = v.str("preset");
    if (out.bench.empty() && out.scenePath.empty()) {
        err = "job spec needs a \"bench\" alias or a \"scene\" path";
        return false;
    }
    if (!out.bench.empty() && !out.scenePath.empty()) {
        err = "\"bench\" and \"scene\" are mutually exclusive";
        return false;
    }

    const double frames = v.num("frames", 1.0);
    if (frames < 1.0 || frames > 100000.0 ||
        frames != static_cast<double>(
                      static_cast<std::uint32_t>(frames))) {
        err = "\"frames\" must be an integer in [1, 100000]";
        return false;
    }
    out.frames = static_cast<std::uint32_t>(frames);
    // A scene file is a single frame; rendering it N times would just
    // repeat frame 0, so pin the count rather than surprise the meter.
    if (!out.scenePath.empty())
        out.frames = 1;

    const double deadline = v.num("deadline_ms", 0.0);
    if (deadline < 0.0) {
        err = "\"deadline_ms\" must be >= 0";
        return false;
    }
    out.deadlineMs = deadline;

    const double retryMax = v.num("retry_max", -1.0);
    if (retryMax < -1.0 || retryMax > 100.0) {
        err = "\"retry_max\" must be in [-1, 100]";
        return false;
    }
    out.retryMax = static_cast<std::int32_t>(retryMax);

    if (const JsonValue *opts = v.find("options")) {
        if (!opts->isArray()) {
            err = "\"options\" must be an array of {\"k\",\"v\"}";
            return false;
        }
        for (const JsonValue &o : opts->items) {
            const std::string k = o.str("k");
            if (!o.isObject() || k.empty()) {
                err = "each option needs a non-empty \"k\" and a "
                      "\"v\" string";
                return false;
            }
            out.options.emplace_back(k, o.str("v"));
        }
    }
    return true;
}

// ---- JobTable -----------------------------------------------------

JobRecord *
JobTable::insert(JobSpec spec, GpuConfig cfg)
{
    std::lock_guard<std::mutex> lk(mu);
    if (byLabel.count(spec.label))
        return nullptr;
    auto rec = std::make_unique<JobRecord>();
    rec->spec = std::move(spec);
    rec->cfg = std::move(cfg);
    JobRecord *raw = rec.get();
    byLabel.emplace(raw->spec.label, raw);
    order.push_back(std::move(rec));
    return raw;
}

void
JobTable::erase(const std::string &label)
{
    std::lock_guard<std::mutex> lk(mu);
    auto it = byLabel.find(label);
    if (it == byLabel.end())
        return;
    JobRecord *rec = it->second;
    byLabel.erase(it);
    order.erase(std::remove_if(order.begin(), order.end(),
                               [&](const auto &p) {
                                   return p.get() == rec;
                               }),
                order.end());
}

JobRecord *
JobTable::find(const std::string &label)
{
    std::lock_guard<std::mutex> lk(mu);
    auto it = byLabel.find(label);
    return it == byLabel.end() ? nullptr : it->second;
}

std::vector<JobRecord *>
JobTable::all()
{
    std::lock_guard<std::mutex> lk(mu);
    std::vector<JobRecord *> out;
    out.reserve(order.size());
    for (const auto &p : order)
        out.push_back(p.get());
    return out;
}

std::size_t
JobTable::size() const
{
    std::lock_guard<std::mutex> lk(mu);
    return order.size();
}

} // namespace dtexl
