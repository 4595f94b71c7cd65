#include "telemetry/json.h"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace xtalk::telemetry {

std::string
JsonEscape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\b':
            out += "\\b";
            break;
          case '\f':
            out += "\\f";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(c));
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

void
JsonWriter::Separate()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (!has_member_.empty()) {
        if (has_member_.back()) {
            out_ << ",";
        }
        has_member_.back() = true;
    }
}

JsonWriter&
JsonWriter::BeginObject()
{
    Separate();
    out_ << "{";
    has_member_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::EndObject()
{
    has_member_.pop_back();
    out_ << "}";
    return *this;
}

JsonWriter&
JsonWriter::BeginArray()
{
    Separate();
    out_ << "[";
    has_member_.push_back(false);
    return *this;
}

JsonWriter&
JsonWriter::EndArray()
{
    has_member_.pop_back();
    out_ << "]";
    return *this;
}

JsonWriter&
JsonWriter::Key(const std::string& name)
{
    Separate();
    out_ << "\"" << JsonEscape(name) << "\":";
    after_key_ = true;
    return *this;
}

JsonWriter&
JsonWriter::String(const std::string& value)
{
    Separate();
    out_ << "\"" << JsonEscape(value) << "\"";
    return *this;
}

JsonWriter&
JsonWriter::Number(double value)
{
    if (!std::isfinite(value)) {
        return Null();
    }
    Separate();
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.12g", value);
    out_ << buf;
    return *this;
}

JsonWriter&
JsonWriter::Number(uint64_t value)
{
    Separate();
    out_ << value;
    return *this;
}

JsonWriter&
JsonWriter::Number(int64_t value)
{
    Separate();
    out_ << value;
    return *this;
}

JsonWriter&
JsonWriter::Bool(bool value)
{
    Separate();
    out_ << (value ? "true" : "false");
    return *this;
}

JsonWriter&
JsonWriter::Null()
{
    Separate();
    out_ << "null";
    return *this;
}

const JsonValue*
JsonValue::Find(const std::string& key) const
{
    const JsonValue* found = nullptr;
    for (const auto& [name, value] : members_) {
        if (name == key) {
            found = &value;  // Last duplicate wins, like most parsers.
        }
    }
    return found;
}

std::string
JsonValue::GetString(const std::string& key,
                     const std::string& fallback) const
{
    const JsonValue* v = Find(key);
    return (v != nullptr && v->is_string()) ? v->as_string() : fallback;
}

double
JsonValue::GetNumber(const std::string& key, double fallback) const
{
    const JsonValue* v = Find(key);
    return (v != nullptr && v->is_number()) ? v->as_number() : fallback;
}

JsonValue
JsonValue::MakeBool(bool v)
{
    JsonValue out;
    out.kind_ = Kind::kBool;
    out.bool_ = v;
    return out;
}

JsonValue
JsonValue::MakeNumber(double v)
{
    JsonValue out;
    out.kind_ = Kind::kNumber;
    out.number_ = v;
    return out;
}

JsonValue
JsonValue::MakeString(std::string v)
{
    JsonValue out;
    out.kind_ = Kind::kString;
    out.string_ = std::move(v);
    return out;
}

JsonValue
JsonValue::MakeArray(std::vector<JsonValue> items)
{
    JsonValue out;
    out.kind_ = Kind::kArray;
    out.items_ = std::move(items);
    return out;
}

JsonValue
JsonValue::MakeObject(std::vector<std::pair<std::string, JsonValue>> members)
{
    JsonValue out;
    out.kind_ = Kind::kObject;
    out.members_ = std::move(members);
    return out;
}

namespace {

/** Recursive-descent parser building the JsonValue DOM. */
class Parser {
  public:
    explicit Parser(const std::string& text) : text_(text) {}

    bool
    Run(JsonValue* out, std::string* error)
    {
        SkipWs();
        JsonValue value;
        if (!Value(&value)) {
            Report(error);
            return false;
        }
        SkipWs();
        if (pos_ != text_.size()) {
            message_ = "trailing data after JSON value";
            Report(error);
            return false;
        }
        *out = std::move(value);
        return true;
    }

  private:
    void
    SkipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r')) {
            ++pos_;
        }
    }

    bool
    Fail(const char* why)
    {
        if (message_.empty()) {
            message_ = why;
        }
        return false;
    }

    void
    Report(std::string* error) const
    {
        if (error) {
            *error = message_ + " at byte " + std::to_string(pos_);
        }
    }

    bool
    Literal(const char* word)
    {
        const size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0) {
            return Fail("bad literal");
        }
        pos_ += len;
        return true;
    }

    bool
    Value(JsonValue* out)
    {
        if (++depth_ > 256) {
            return Fail("nesting too deep");
        }
        bool ok = false;
        if (pos_ >= text_.size()) {
            ok = Fail("unexpected end of input");
        } else {
            switch (text_[pos_]) {
              case '{':
                ok = Object(out);
                break;
              case '[':
                ok = Array(out);
                break;
              case '"': {
                std::string s;
                ok = StringValue(&s);
                if (ok) {
                    *out = JsonValue::MakeString(std::move(s));
                }
                break;
              }
              case 't':
                ok = Literal("true");
                if (ok) {
                    *out = JsonValue::MakeBool(true);
                }
                break;
              case 'f':
                ok = Literal("false");
                if (ok) {
                    *out = JsonValue::MakeBool(false);
                }
                break;
              case 'n':
                ok = Literal("null");
                if (ok) {
                    *out = JsonValue::MakeNull();
                }
                break;
              default:
                ok = NumberValue(out);
                break;
            }
        }
        --depth_;
        return ok;
    }

    bool
    Object(JsonValue* out)
    {
        ++pos_;  // '{'
        std::vector<std::pair<std::string, JsonValue>> members;
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            ++pos_;
            *out = JsonValue::MakeObject(std::move(members));
            return true;
        }
        while (true) {
            SkipWs();
            std::string key;
            if (pos_ >= text_.size() || text_[pos_] != '"' ||
                !StringValue(&key)) {
                return Fail("expected object key");
            }
            SkipWs();
            if (pos_ >= text_.size() || text_[pos_] != ':') {
                return Fail("expected ':'");
            }
            ++pos_;
            SkipWs();
            JsonValue value;
            if (!Value(&value)) {
                return false;
            }
            members.emplace_back(std::move(key), std::move(value));
            SkipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                *out = JsonValue::MakeObject(std::move(members));
                return true;
            }
            return Fail("expected ',' or '}'");
        }
    }

    bool
    Array(JsonValue* out)
    {
        ++pos_;  // '['
        std::vector<JsonValue> items;
        SkipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            ++pos_;
            *out = JsonValue::MakeArray(std::move(items));
            return true;
        }
        while (true) {
            SkipWs();
            JsonValue value;
            if (!Value(&value)) {
                return false;
            }
            items.push_back(std::move(value));
            SkipWs();
            if (pos_ < text_.size() && text_[pos_] == ',') {
                ++pos_;
                continue;
            }
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                *out = JsonValue::MakeArray(std::move(items));
                return true;
            }
            return Fail("expected ',' or ']'");
        }
    }

    void
    AppendUtf8(uint32_t code, std::string* s)
    {
        if (code < 0x80) {
            *s += static_cast<char>(code);
        } else if (code < 0x800) {
            *s += static_cast<char>(0xC0 | (code >> 6));
            *s += static_cast<char>(0x80 | (code & 0x3F));
        } else if (code < 0x10000) {
            *s += static_cast<char>(0xE0 | (code >> 12));
            *s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *s += static_cast<char>(0x80 | (code & 0x3F));
        } else {
            *s += static_cast<char>(0xF0 | (code >> 18));
            *s += static_cast<char>(0x80 | ((code >> 12) & 0x3F));
            *s += static_cast<char>(0x80 | ((code >> 6) & 0x3F));
            *s += static_cast<char>(0x80 | (code & 0x3F));
        }
    }

    /** Four hex digits after a \u; pos_ is left on the last digit. */
    bool
    HexQuad(uint32_t* code)
    {
        uint32_t value = 0;
        for (int k = 1; k <= 4; ++k) {
            if (pos_ + k >= text_.size() ||
                !std::isxdigit(
                    static_cast<unsigned char>(text_[pos_ + k]))) {
                return Fail("bad \\u escape");
            }
            const char h = text_[pos_ + k];
            value = value * 16 +
                    static_cast<uint32_t>(
                        h <= '9' ? h - '0'
                                 : (h | 0x20) - 'a' + 10);
        }
        pos_ += 4;
        *code = value;
        return true;
    }

    bool
    StringValue(std::string* out)
    {
        ++pos_;  // '"'
        std::string s;
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                ++pos_;
                *out = std::move(s);
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                return Fail("unescaped control character in string");
            }
            if (c == '\\') {
                ++pos_;
                if (pos_ >= text_.size()) {
                    break;
                }
                const char e = text_[pos_];
                switch (e) {
                  case '"':
                  case '\\':
                  case '/':
                    s += e;
                    break;
                  case 'b':
                    s += '\b';
                    break;
                  case 'f':
                    s += '\f';
                    break;
                  case 'n':
                    s += '\n';
                    break;
                  case 'r':
                    s += '\r';
                    break;
                  case 't':
                    s += '\t';
                    break;
                  case 'u': {
                    uint32_t code = 0;
                    if (!HexQuad(&code)) {
                        return false;
                    }
                    if (code >= 0xD800 && code <= 0xDBFF &&
                        pos_ + 2 < text_.size() &&
                        text_[pos_ + 1] == '\\' &&
                        text_[pos_ + 2] == 'u') {
                        pos_ += 2;
                        uint32_t low = 0;
                        if (!HexQuad(&low)) {
                            return false;
                        }
                        if (low >= 0xDC00 && low <= 0xDFFF) {
                            code = 0x10000 + ((code - 0xD800) << 10) +
                                   (low - 0xDC00);
                        } else {
                            return Fail("bad surrogate pair");
                        }
                    }
                    AppendUtf8(code, &s);
                    break;
                  }
                  default:
                    return Fail("bad escape character");
                }
            } else {
                s += c;
            }
            ++pos_;
        }
        return Fail("unterminated string");
    }

    bool
    NumberValue(JsonValue* out)
    {
        const size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            ++pos_;
        }
        if (pos_ >= text_.size() ||
            !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
            return Fail("expected a JSON value");
        }
        if (text_[pos_] == '0') {
            ++pos_;
        } else {
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                return Fail("bad number fraction");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-')) {
                ++pos_;
            }
            if (pos_ >= text_.size() ||
                !std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                return Fail("bad number exponent");
            }
            while (pos_ < text_.size() &&
                   std::isdigit(static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
            }
        }
        // strtod, not stod: stod throws out_of_range on valid JSON like
        // 1e400, and this parser sees untrusted network input. strtod
        // saturates to +/-HUGE_VAL on overflow and ~0 on underflow
        // (ERANGE), both acceptable doubles for a syntactically valid
        // number, so the parse itself never fails here.
        const std::string token = text_.substr(start, pos_ - start);
        *out = JsonValue::MakeNumber(std::strtod(token.c_str(), nullptr));
        return true;
    }

    const std::string& text_;
    size_t pos_ = 0;
    int depth_ = 0;
    std::string message_;
};

}  // namespace

bool
ParseJsonValue(const std::string& text, JsonValue* out, std::string* error)
{
    return Parser(text).Run(out, error);
}

bool
ValidateJson(const std::string& text, std::string* error)
{
    JsonValue discarded;
    return ParseJsonValue(text, &discarded, error);
}

}  // namespace xtalk::telemetry
