#include "telemetry/json.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>
#include <system_error>

namespace xtalk::telemetry {

namespace {

/** Append @p text to @p out as JsonEscape would return it. */
void
AppendJsonEscaped(std::string_view text, std::string* out)
{
    static constexpr char kHex[] = "0123456789abcdef";
    size_t run = 0;  // Start of the pending run of plain bytes.
    for (size_t i = 0; i < text.size(); ++i) {
        const unsigned char c = static_cast<unsigned char>(text[i]);
        if (c >= 0x20 && c != '"' && c != '\\') {
            continue;
        }
        out->append(text.data() + run, i - run);
        run = i + 1;
        switch (c) {
          case '"':
            out->append("\\\"");
            break;
          case '\\':
            out->append("\\\\");
            break;
          case '\b':
            out->append("\\b");
            break;
          case '\f':
            out->append("\\f");
            break;
          case '\n':
            out->append("\\n");
            break;
          case '\r':
            out->append("\\r");
            break;
          case '\t':
            out->append("\\t");
            break;
          default: {
            const char escape[] = {'\\', 'u', '0', '0', kHex[c >> 4],
                                   kHex[c & 0xF]};
            out->append(escape, sizeof(escape));
          }
        }
    }
    out->append(text.data() + run, text.size() - run);
}

}  // namespace

std::string
JsonEscape(std::string_view text)
{
    std::string out;
    out.reserve(text.size());
    AppendJsonEscaped(text, &out);
    return out;
}

void
JsonWriter::Separate()
{
    // Right after '{', '[' or a key's ':' nothing separates; anything
    // else before a value or key is a sibling, and takes a comma.
    if (!out_.empty() && out_.back() != '{' && out_.back() != '[' &&
        out_.back() != ':') {
        out_ += ',';
    }
}

JsonWriter&
JsonWriter::BeginObject()
{
    Separate();
    out_ += '{';
    return *this;
}

JsonWriter&
JsonWriter::EndObject()
{
    out_ += '}';
    return *this;
}

JsonWriter&
JsonWriter::BeginArray()
{
    Separate();
    out_ += '[';
    return *this;
}

JsonWriter&
JsonWriter::EndArray()
{
    out_ += ']';
    return *this;
}

JsonWriter&
JsonWriter::Key(std::string_view name)
{
    Separate();
    out_ += '"';
    AppendJsonEscaped(name, &out_);
    out_ += "\":";
    return *this;
}

JsonWriter&
JsonWriter::String(std::string_view value)
{
    Separate();
    out_ += '"';
    AppendJsonEscaped(value, &out_);
    out_ += '"';
    return *this;
}

JsonWriter&
JsonWriter::Number(double value)
{
    if (!std::isfinite(value)) {
        return Null();
    }
    Separate();
    // Shortest of %e/%f at 12 significant digits, trailing zeros cut:
    // the same bytes as snprintf("%.12g") (the C++ standard defines
    // this overload by printf), without the format-string parse.
    char buf[32];
    const std::to_chars_result written = std::to_chars(
        buf, buf + sizeof(buf), value, std::chars_format::general, 12);
    out_.append(buf, written.ptr);
    return *this;
}

JsonWriter&
JsonWriter::Number(uint64_t value)
{
    Separate();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    return *this;
}

JsonWriter&
JsonWriter::Number(int64_t value)
{
    Separate();
    char buf[24];
    out_.append(buf, std::to_chars(buf, buf + sizeof(buf), value).ptr);
    return *this;
}

JsonWriter&
JsonWriter::Bool(bool value)
{
    Separate();
    out_ += value ? "true" : "false";
    return *this;
}

JsonWriter&
JsonWriter::Null()
{
    Separate();
    out_ += "null";
    return *this;
}

const JsonValue*
JsonValue::Find(std::string_view key) const
{
    // Last duplicate wins, like most parsers: search from the back.
    for (auto it = members_.rbegin(); it != members_.rend(); ++it) {
        if (it->first == key) {
            return &it->second;
        }
    }
    return nullptr;
}

JsonValue*
JsonValue::Find(std::string_view key)
{
    return const_cast<JsonValue*>(std::as_const(*this).Find(key));
}

std::string
JsonValue::GetString(std::string_view key, std::string_view fallback) const
{
    const JsonValue* v = Find(key);
    return (v != nullptr && v->is_string()) ? v->as_string()
                                            : std::string(fallback);
}

double
JsonValue::GetNumber(std::string_view key, double fallback) const
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
    explicit Parser(std::string_view text) : text_(text) {}

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
    Literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word) {
            return Fail("bad literal");
        }
        pos_ += word.size();
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

    /** A string token into @p out (cleared first), its plain runs
     *  appended whole; @p out is left partial on failure. */
    bool
    StringValue(std::string* out)
    {
        ++pos_;  // '"'
        std::string& s = *out;
        s.clear();
        size_t run = pos_;  // Start of the pending run of plain bytes.
        while (pos_ < text_.size()) {
            const char c = text_[pos_];
            if (c == '"') {
                s.append(text_.data() + run, pos_ - run);
                ++pos_;
                return true;
            }
            if (static_cast<unsigned char>(c) < 0x20) {
                return Fail("unescaped control character in string");
            }
            if (c != '\\') {
                ++pos_;
                continue;
            }
            s.append(text_.data() + run, pos_ - run);
            ++pos_;
            if (pos_ >= text_.size()) {
                break;
            }
            switch (const char e = text_[pos_]) {
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
                    pos_ + 2 < text_.size() && text_[pos_ + 1] == '\\' &&
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
            ++pos_;
            run = pos_;
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
        // from_chars rounds the token exactly as strtod does. Where it
        // reports a result out of a double's range (1e400, 1e-400),
        // fall back to strtod itself, which saturates to +/-HUGE_VAL or
        // goes to ~0: this parser sees untrusted network input, and a
        // syntactically valid number never fails the parse.
        const std::string_view token = text_.substr(start, pos_ - start);
        double value = 0.0;
        if (std::from_chars(token.data(), token.data() + token.size(),
                            value)
                .ec != std::errc()) {
            value = std::strtod(std::string(token).c_str(), nullptr);
        }
        *out = JsonValue::MakeNumber(value);
        return true;
    }

    std::string_view text_;
    size_t pos_ = 0;
    int depth_ = 0;
    std::string message_;
};

}  // namespace

bool
ParseJsonValue(std::string_view text, JsonValue* out, std::string* error)
{
    return Parser(text).Run(out, error);
}

bool
ValidateJson(std::string_view text, std::string* error)
{
    JsonValue discarded;
    return ParseJsonValue(text, &discarded, error);
}

}  // namespace xtalk::telemetry
