#include "common/json.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <limits>

namespace dtexl {

// ---- JsonValue accessors ------------------------------------------

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::Object)
        return nullptr;
    for (const auto &m : members) {
        if (m.first == key)
            return &m.second;
    }
    return nullptr;
}

std::string
JsonValue::str(const std::string &key, const std::string &dflt) const
{
    const JsonValue *v = find(key);
    return (v && v->kind == Kind::String) ? v->text : dflt;
}

double
JsonValue::num(const std::string &key, double dflt) const
{
    const JsonValue *v = find(key);
    return (v && v->kind == Kind::Number) ? v->number : dflt;
}

bool
JsonValue::flag(const std::string &key, bool dflt) const
{
    const JsonValue *v = find(key);
    return (v && v->kind == Kind::Bool) ? v->boolean : dflt;
}

// ---- Parser -------------------------------------------------------

namespace {

/**
 * Recursive-descent JSON parser over one document. Depth is bounded
 * so hostile input cannot blow the reader's stack with ten thousand
 * '['s.
 */
class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string &err)
        : s(text), err_(err)
    {}

    bool
    parse(JsonValue &out)
    {
        if (!value(out, 0))
            return false;
        skipWs();
        if (pos != s.size())
            return fail("trailing data after JSON value");
        return true;
    }

  private:
    static constexpr int kMaxDepth = 32;

    bool
    fail(const char *what)
    {
        char buf[96];
        std::snprintf(buf, sizeof(buf), "%s at offset %zu", what, pos);
        err_ = buf;
        return false;
    }

    void
    skipWs()
    {
        while (pos < s.size() &&
               (s[pos] == ' ' || s[pos] == '\t' || s[pos] == '\n' ||
                s[pos] == '\r'))
            ++pos;
    }

    bool
    literal(const char *word, std::size_t n)
    {
        if (s.compare(pos, n, word) != 0)
            return fail("invalid literal");
        pos += n;
        return true;
    }

    bool
    value(JsonValue &out, int depth)
    {
        if (depth > kMaxDepth)
            return fail("nesting too deep");
        skipWs();
        if (pos >= s.size())
            return fail("unexpected end of input");
        const char c = s[pos];
        switch (c) {
        case '{':
            return object(out, depth);
        case '[':
            return array(out, depth);
        case '"':
            out.kind = JsonValue::Kind::String;
            return string(out.text);
        case 't':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = true;
            return literal("true", 4);
        case 'f':
            out.kind = JsonValue::Kind::Bool;
            out.boolean = false;
            return literal("false", 5);
        case 'n':
            out.kind = JsonValue::Kind::Null;
            return literal("null", 4);
        default:
            return number(out);
        }
    }

    bool
    object(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Object;
        ++pos; // '{'
        skipWs();
        if (pos < s.size() && s[pos] == '}') {
            ++pos;
            return true;
        }
        for (;;) {
            skipWs();
            if (pos >= s.size() || s[pos] != '"')
                return fail("expected member name");
            std::string key;
            if (!string(key))
                return false;
            skipWs();
            if (pos >= s.size() || s[pos] != ':')
                return fail("expected ':'");
            ++pos;
            JsonValue member;
            if (!value(member, depth + 1))
                return false;
            out.members.emplace_back(std::move(key),
                                     std::move(member));
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == '}') {
                ++pos;
                return true;
            }
            return fail("expected ',' or '}'");
        }
    }

    bool
    array(JsonValue &out, int depth)
    {
        out.kind = JsonValue::Kind::Array;
        ++pos; // '['
        skipWs();
        if (pos < s.size() && s[pos] == ']') {
            ++pos;
            return true;
        }
        for (;;) {
            JsonValue item;
            if (!value(item, depth + 1))
                return false;
            out.items.push_back(std::move(item));
            skipWs();
            if (pos < s.size() && s[pos] == ',') {
                ++pos;
                continue;
            }
            if (pos < s.size() && s[pos] == ']') {
                ++pos;
                return true;
            }
            return fail("expected ',' or ']'");
        }
    }

    bool
    string(std::string &out)
    {
        ++pos; // opening quote
        out.clear();
        while (pos < s.size()) {
            const char c = s[pos];
            if (c == '"') {
                ++pos;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20)
                return fail("raw control character in string");
            if (c != '\\') {
                out += c;
                ++pos;
                continue;
            }
            ++pos;
            if (pos >= s.size())
                return fail("truncated escape");
            const char e = s[pos++];
            switch (e) {
            case '"': out += '"'; break;
            case '\\': out += '\\'; break;
            case '/': out += '/'; break;
            case 'b': out += '\b'; break;
            case 'f': out += '\f'; break;
            case 'n': out += '\n'; break;
            case 'r': out += '\r'; break;
            case 't': out += '\t'; break;
            case 'u': {
                if (!unicodeEscape(out))
                    return false;
                break;
            }
            default:
                return fail("unknown escape");
            }
        }
        return fail("unterminated string");
    }

    /** Decode \uXXXX (with surrogate pairs) to UTF-8. */
    bool
    unicodeEscape(std::string &out)
    {
        unsigned cp = 0;
        if (!hex4(cp))
            return false;
        if (cp >= 0xd800 && cp <= 0xdbff) {
            // High surrogate: a low surrogate must follow.
            if (pos + 1 >= s.size() || s[pos] != '\\' ||
                s[pos + 1] != 'u')
                return fail("unpaired surrogate");
            pos += 2;
            unsigned lo = 0;
            if (!hex4(lo))
                return false;
            if (lo < 0xdc00 || lo > 0xdfff)
                return fail("invalid low surrogate");
            cp = 0x10000 + ((cp - 0xd800) << 10) + (lo - 0xdc00);
        } else if (cp >= 0xdc00 && cp <= 0xdfff) {
            return fail("unpaired surrogate");
        }
        appendUtf8(out, cp);
        return true;
    }

    bool
    hex4(unsigned &out)
    {
        if (pos + 4 > s.size())
            return fail("truncated \\u escape");
        out = 0;
        for (int i = 0; i < 4; ++i) {
            const char c = s[pos++];
            out <<= 4;
            if (c >= '0' && c <= '9')
                out |= static_cast<unsigned>(c - '0');
            else if (c >= 'a' && c <= 'f')
                out |= static_cast<unsigned>(c - 'a' + 10);
            else if (c >= 'A' && c <= 'F')
                out |= static_cast<unsigned>(c - 'A' + 10);
            else
                return fail("bad hex digit in \\u escape");
        }
        return true;
    }

    static void
    appendUtf8(std::string &out, unsigned cp)
    {
        if (cp < 0x80) {
            out += static_cast<char>(cp);
        } else if (cp < 0x800) {
            out += static_cast<char>(0xc0 | (cp >> 6));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else if (cp < 0x10000) {
            out += static_cast<char>(0xe0 | (cp >> 12));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        } else {
            out += static_cast<char>(0xf0 | (cp >> 18));
            out += static_cast<char>(0x80 | ((cp >> 12) & 0x3f));
            out += static_cast<char>(0x80 | ((cp >> 6) & 0x3f));
            out += static_cast<char>(0x80 | (cp & 0x3f));
        }
    }

    bool
    digits()
    {
        const std::size_t start = pos;
        while (pos < s.size() && s[pos] >= '0' && s[pos] <= '9')
            ++pos;
        return pos > start;
    }

    /** RFC 8259 number: -?(0|[1-9][0-9]*)(.[0-9]+)?([eE][+-]?[0-9]+)? */
    bool
    number(JsonValue &out)
    {
        const std::size_t start = pos;
        if (pos < s.size() && s[pos] == '-')
            ++pos;
        if (pos >= s.size() || s[pos] < '0' || s[pos] > '9')
            return pos == start ? fail("expected value")
                                : fail("malformed number");
        if (s[pos] == '0')
            ++pos;
        else
            digits();
        if (pos < s.size() && s[pos] == '.') {
            ++pos;
            if (!digits())
                return fail("malformed number");
        }
        if (pos < s.size() && (s[pos] == 'e' || s[pos] == 'E')) {
            ++pos;
            if (pos < s.size() && (s[pos] == '+' || s[pos] == '-'))
                ++pos;
            if (!digits())
                return fail("malformed number");
        }
        out.number =
            std::strtod(s.substr(start, pos - start).c_str(), nullptr);
        if (!std::isfinite(out.number)) {
            pos = start;
            return fail("number out of range");
        }
        out.kind = JsonValue::Kind::Number;
        return true;
    }

    const std::string &s;
    std::string &err_;
    std::size_t pos = 0;
};

} // namespace

bool
parseJson(const std::string &text, JsonValue &out, std::string &err)
{
    out = JsonValue{};
    err.clear();
    return JsonParser(text, err).parse(out);
}

// ---- JsonWriter ---------------------------------------------------

namespace {

/** Escape @p s for the inside of a JSON string literal. */
std::string
jsonEscape(const std::string &s)
{
    std::string out;
    out.reserve(s.size());
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

} // namespace

std::string
JsonWriter::quote(const std::string &s)
{
    return '"' + jsonEscape(s) + '"';
}

std::string
JsonWriter::number(double v)
{
    if (!std::isfinite(v))
        return "null";
    // Wide enough for every digit of DBL_MAX in fixed notation.
    char tmp[std::numeric_limits<double>::max_exponent10 + 8];
    std::snprintf(tmp, sizeof(tmp), "%.3f", v);
    return tmp;
}

void
JsonWriter::sep(const char *key)
{
    if (!first)
        buf += ',';
    first = false;
    buf += quote(key);
    buf += ':';
}

JsonWriter &
JsonWriter::str(const char *key, const std::string &value)
{
    return raw(key, quote(value));
}

JsonWriter &
JsonWriter::u64(const char *key, std::uint64_t value)
{
    return raw(key, std::to_string(value));
}

JsonWriter &
JsonWriter::i64(const char *key, std::int64_t value)
{
    return raw(key, std::to_string(value));
}

JsonWriter &
JsonWriter::f64(const char *key, double value)
{
    return raw(key, number(value));
}

JsonWriter &
JsonWriter::boolean(const char *key, bool value)
{
    return raw(key, value ? "true" : "false");
}

JsonWriter &
JsonWriter::raw(const char *key, const std::string &json)
{
    sep(key);
    buf += json;
    return *this;
}

JsonWriter &
JsonWriter::objects(const char *key,
                    const std::vector<std::string> &objects)
{
    sep(key);
    buf += '[';
    for (std::size_t i = 0; i < objects.size(); ++i) {
        if (i)
            buf += ',';
        buf += objects[i];
    }
    buf += ']';
    return *this;
}

std::string
JsonWriter::object()
{
    buf += '}';
    return std::move(buf);
}

std::string
JsonWriter::finish()
{
    buf += "}\n";
    return std::move(buf);
}

} // namespace dtexl
