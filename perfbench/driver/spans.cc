#include "spans.hh"

#include <cstdio>

#include "json_out.hh"

namespace perfbench {

std::int64_t
SpanRecorder::open(std::string name, std::string job)
{
    const std::int64_t parent = stack_.empty() ? -1 : stack_.back();
    spans_.push_back(Span{std::move(name), now(), 0, parent,
                          std::move(job)});
    const auto index = static_cast<std::int64_t>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
SpanRecorder::close(std::int64_t index)
{
    spans_[static_cast<std::size_t>(index)].end = now();
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

void
SpanRecorder::add(std::string name, std::string job, Nanos start,
                  Nanos end, std::int64_t parent)
{
    if (enabled_)
        spans_.push_back(
            Span{std::move(name), start, end, parent, std::move(job)});
}

bool
SpanRecorder::write(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fputs("{\"unit\": \"ns\", \"spans\": [\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "{\"id\": %zu, \"name\": %s, \"start\": %lld, "
                     "\"end\": %lld, \"parent\": %lld, \"job\": %s}%s\n",
                     i, jsonQuote(s.name).c_str(),
                     static_cast<long long>(s.start),
                     static_cast<long long>(s.end),
                     static_cast<long long>(s.parent),
                     jsonQuote(s.job).c_str(),
                     i + 1 < spans_.size() ? "," : "");
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace perfbench
