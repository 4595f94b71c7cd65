/**
 * @file
 * Minimal JSON utilities for the telemetry subsystem and the service
 * wire protocol: a writer that appends into one string (handles commas,
 * escaping, and non-finite numbers), a small read-only DOM (JsonValue /
 * ParseJsonValue) for the newline-delimited request/response messages
 * `xtalkd` exchanges with its clients, and a syntax check built on the
 * same parser for tests. Not a general-purpose JSON library — the DOM
 * is parse-only and keeps every number as a double.
 *
 * Both directions sit on every daemon request, so neither goes through
 * a stream: text is escaped and unescaped a run of plain bytes at a
 * time, numbers are formatted and read with <charconv>, and keys are
 * looked up as string_views.
 */
#ifndef XTALK_TELEMETRY_JSON_H
#define XTALK_TELEMETRY_JSON_H

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace xtalk::telemetry {

/**
 * Escape @p text for embedding inside JSON double quotes: `"` and `\\`
 * get a backslash, control bytes a short or \u00xx escape, and every
 * other byte (UTF-8 included) passes as-is.
 */
std::string JsonEscape(std::string_view text);

/**
 * JSON writer appending into one string. The caller provides structure
 * (Begin/End calls must balance, one top-level value); the writer puts
 * a comma before every value or key that does not open a container or
 * follow a key.
 *
 *   JsonWriter w;
 *   w.BeginObject().Key("shots").Number(uint64_t{1024}).EndObject();
 *   w.str();  // {"shots":1024}
 */
class JsonWriter {
  public:
    JsonWriter& BeginObject();
    JsonWriter& EndObject();
    JsonWriter& BeginArray();
    JsonWriter& EndArray();
    JsonWriter& Key(std::string_view name);
    JsonWriter& String(std::string_view value);
    /** snprintf("%.12g") bytes; non-finite values become null. */
    JsonWriter& Number(double value);
    JsonWriter& Number(uint64_t value);
    JsonWriter& Number(int64_t value);
    JsonWriter& Bool(bool value);
    JsonWriter& Null();

    const std::string& str() const& { return out_; }
    /** The document, moved out of a writer that is done. */
    std::string str() && { return std::move(out_); }

  private:
    void Separate();

    std::string out_;
};

/**
 * Parsed JSON value. Objects keep their members in file order
 * (duplicate keys: last one wins on lookup); numbers are doubles —
 * integers up to 2^53 round-trip exactly, which covers every field of
 * the service protocol.
 */
class JsonValue {
  public:
    enum class Kind { kNull, kBool, kNumber, kString, kArray, kObject };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool is_null() const { return kind_ == Kind::kNull; }
    bool is_object() const { return kind_ == Kind::kObject; }
    bool is_array() const { return kind_ == Kind::kArray; }
    bool is_string() const { return kind_ == Kind::kString; }
    bool is_number() const { return kind_ == Kind::kNumber; }
    bool is_bool() const { return kind_ == Kind::kBool; }

    bool as_bool() const { return bool_; }
    double as_number() const { return number_; }
    const std::string& as_string() const { return string_; }
    const std::vector<JsonValue>& items() const { return items_; }
    const std::vector<std::pair<std::string, JsonValue>>& members() const
    {
        return members_;
    }

    /** Object member lookup; null when absent or not an object. */
    const JsonValue* Find(std::string_view key) const;
    JsonValue* Find(std::string_view key);

    /** Typed member accessors with defaults (objects only). */
    std::string GetString(std::string_view key,
                          std::string_view fallback = {}) const;
    double GetNumber(std::string_view key, double fallback = 0.0) const;

    /** Move the string out of a kString value, leaving it empty. */
    std::string ReleaseString() { return std::move(string_); }

    static JsonValue MakeNull() { return JsonValue(); }
    static JsonValue MakeBool(bool v);
    static JsonValue MakeNumber(double v);
    static JsonValue MakeString(std::string v);
    static JsonValue MakeArray(std::vector<JsonValue> items);
    static JsonValue MakeObject(
        std::vector<std::pair<std::string, JsonValue>> members);

  private:
    Kind kind_ = Kind::kNull;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/**
 * Parse exactly one JSON value (RFC 8259 grammar, no extensions;
 * \uXXXX escapes decode to UTF-8, surrogate pairs included). False
 * (with @p error set to a message with a byte offset) on malformed
 * input; @p out is untouched on failure.
 */
bool ParseJsonValue(std::string_view text, JsonValue* out,
                    std::string* error = nullptr);

/** Syntax check: ParseJsonValue with the value discarded. */
bool ValidateJson(std::string_view text, std::string* error = nullptr);

}  // namespace xtalk::telemetry

#endif  // XTALK_TELEMETRY_JSON_H
