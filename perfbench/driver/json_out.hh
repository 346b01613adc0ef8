/**
 * @file
 * Minimal JSON text builder for the driver's result files, which
 * perfbench/run.py parses. Values are appended in call order; the
 * caller keeps the structure well formed.
 */

#ifndef PERFBENCH_JSON_OUT_HH
#define PERFBENCH_JSON_OUT_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace perfbench {

inline std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
            out += c;
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out += c;
        }
    }
    return out + "\"";
}

/** Object builder: obj.num("k", 1).str("s", "v").raw("o", "{...}"). */
class JsonObject
{
  public:
    JsonObject &
    raw(const std::string &key, const std::string &json)
    {
        body_ += (body_.empty() ? "" : ", ") + jsonQuote(key) + ": " + json;
        return *this;
    }
    JsonObject &
    num(const std::string &key, double v)
    {
        char buf[64];
        std::snprintf(buf, sizeof(buf), "%.17g", v);
        return raw(key, buf);
    }
    JsonObject &
    u64(const std::string &key, std::uint64_t v)
    {
        return raw(key, std::to_string(v));
    }
    JsonObject &
    str(const std::string &key, const std::string &v)
    {
        return raw(key, jsonQuote(v));
    }
    JsonObject &
    nums(const std::string &key, const std::vector<double> &vs)
    {
        std::string a = "[";
        char buf[64];
        for (std::size_t i = 0; i < vs.size(); ++i) {
            std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "",
                          vs[i]);
            a += buf;
        }
        return raw(key, a + "]");
    }
    std::string text() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

inline std::string
jsonArray(const std::vector<std::string> &items)
{
    std::string a = "[";
    for (std::size_t i = 0; i < items.size(); ++i)
        a += (i ? ", " : "") + items[i];
    return a + "]";
}

} // namespace perfbench

#endif // PERFBENCH_JSON_OUT_HH
