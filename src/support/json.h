/**
 * @file
 * Minimal JSON reader for tooling that consumes the repo's own
 * exports (benchmark trajectories, telemetry snapshots).
 *
 * The repo *writes* JSON by hand everywhere (stable key order,
 * deterministic number formatting); this is the other half — a small
 * recursive-descent parser producing an immutable value tree. It
 * accepts standard JSON (RFC 8259): objects, arrays, strings with
 * escapes, numbers, booleans, null. Object member order is preserved
 * as parsed. Errors are reported with byte offsets, not exceptions,
 * so command-line tools can print a usable message and exit.
 */

#ifndef PROTEAN_SUPPORT_JSON_H
#define PROTEAN_SUPPORT_JSON_H

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace protean {

/** One parsed JSON value (tree node). */
class JsonValue
{
  public:
    enum class Type
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    /**
     * Parse a complete JSON document. On failure returns a Null
     * value and, when `err` is non-null, stores a message with the
     * byte offset of the first error. Trailing non-whitespace after
     * the document is an error.
     */
    static JsonValue parse(const std::string &text,
                           std::string *err = nullptr);

    Type type() const { return type_; }
    bool isNull() const { return type_ == Type::Null; }
    bool isNumber() const { return type_ == Type::Number; }
    bool isString() const { return type_ == Type::String; }
    bool isArray() const { return type_ == Type::Array; }
    bool isObject() const { return type_ == Type::Object; }

    /** Value accessors; type-checked, fatal on mismatch. */
    bool asBool() const;
    double asNumber() const;
    /** asNumber() truncated toward zero (counters, indices). */
    int64_t asInt() const;
    const std::string &asString() const;
    const std::vector<JsonValue> &items() const;
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const;

    /** Object member lookup; nullptr when absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    /** find() chained with a numeric/string default. */
    double numberOr(const std::string &key, double fallback) const;
    std::string stringOr(const std::string &key,
                         const std::string &fallback) const;

  private:
    Type type_ = Type::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> arr_;
    std::vector<std::pair<std::string, JsonValue>> obj_;

    friend class JsonParser;
};

} // namespace protean

#endif // PROTEAN_SUPPORT_JSON_H
