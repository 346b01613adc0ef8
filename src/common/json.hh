/**
 * @file
 * The simulator's one JSON module: a writer every artefact renders
 * through (Chrome trace, stats JSON, event ledger, dtexld responses
 * and journal) and a parser for the text that comes back in (dtexld
 * requests and journal replay, and the tests that read the artefacts).
 *
 *  - JsonValue / parseJson(): a small recursive-descent parser for one
 *    document, tolerant of whitespace, strict about everything else:
 *    trailing junk after the value is an error, numbers follow the
 *    RFC 8259 grammar and must be finite, strings may not hold raw
 *    control characters, and nesting depth is capped;
 *  - typed accessors that read optional object members with defaults;
 *  - JsonWriter: an append-only object builder. Integers are written
 *    raw, doubles with 3 decimals, and a non-finite double as null, so
 *    every artefact quotes and formats alike and none holds a token a
 *    JSON reader rejects.
 */

#ifndef DTEXL_COMMON_JSON_HH
#define DTEXL_COMMON_JSON_HH

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace dtexl {

/** One parsed JSON value (tree-owning; copies are deep). */
struct JsonValue
{
    enum class Kind : std::uint8_t
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Kind kind = Kind::Null;
    bool boolean = false;
    double number = 0.0;
    std::string text;                ///< Kind::String payload
    std::vector<JsonValue> items;    ///< Kind::Array payload
    /** Kind::Object payload, insertion-ordered (duplicates kept). */
    std::vector<std::pair<std::string, JsonValue>> members;

    bool isObject() const { return kind == Kind::Object; }
    bool isArray() const { return kind == Kind::Array; }
    bool isString() const { return kind == Kind::String; }
    bool isNumber() const { return kind == Kind::Number; }

    /** First member named @p key, or null when absent / not object. */
    const JsonValue *find(const std::string &key) const;

    /** Member @p key as a string; @p dflt when absent or not string. */
    std::string str(const std::string &key,
                    const std::string &dflt = "") const;

    /** Member @p key as a number; @p dflt when absent or not number. */
    double num(const std::string &key, double dflt = 0.0) const;

    /** Member @p key as a bool; @p dflt when absent or not bool. */
    bool flag(const std::string &key, bool dflt = false) const;
};

/**
 * Parse @p text (one document) into @p out. Returns false and fills
 * @p err with a position-tagged message on malformed input; never
 * throws, so a bad request produces an error response rather than
 * killing its reader.
 */
bool parseJson(const std::string &text, JsonValue &out,
               std::string &err);

/**
 * Append-only JSON object builder. Values are rendered immediately
 * into an internal buffer; object() closes it as a nested value and
 * finish() as one '\n'-terminated JSONL line.
 */
class JsonWriter
{
  public:
    JsonWriter() : buf("{") {}

    /** @p s as a JSON string literal: quoted and escaped. */
    static std::string quote(const std::string &s);
    /** @p v as a JSON number (3 decimals), or null when not finite. */
    static std::string number(double v);

    JsonWriter &str(const char *key, const std::string &value);
    JsonWriter &u64(const char *key, std::uint64_t value);
    JsonWriter &i64(const char *key, std::int64_t value);
    JsonWriter &f64(const char *key, double value);
    JsonWriter &boolean(const char *key, bool value);
    /** Append @p json verbatim (a value rendered by this module). */
    JsonWriter &raw(const char *key, const std::string &json);
    /** Append an array of objects, each rendered by object(). */
    JsonWriter &objects(const char *key,
                        const std::vector<std::string> &objects);

    /** Close the object; returns it without a line terminator. */
    std::string object();
    /** Close the object; returns the '\n'-terminated line. */
    std::string finish();

  private:
    void sep(const char *key);

    std::string buf;
    bool first = true;
};

} // namespace dtexl

#endif // DTEXL_COMMON_JSON_HH
