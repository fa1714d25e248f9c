#include "util/json.hpp"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <fstream>
#include <iomanip>
#include <limits>
#include <ostream>
#include <sstream>

#include "util/logging.hpp"

namespace wss::util {

namespace {

const char *
kindName(JsonValue::Kind kind)
{
    static const char *const kNames[] = {"null",   "bool",   "number",
                                         "string", "object", "array"};
    return kNames[static_cast<int>(kind)];
}

} // namespace

/// Recursive-descent parser over the whole document.
class JsonParser
{
  public:
    JsonParser(std::string_view text, std::string_view what)
        : text_(text), what_(what)
    {
    }

    JsonValue
    document()
    {
        JsonValue v = value();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing characters after document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &msg) const
    {
        fatal(what_, ": malformed JSON at byte ", pos_, ": ", msg);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
    }

    char
    peek()
    {
        skipSpace();
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "'");
        ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && peek() == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    void
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            fail("bad literal");
        pos_ += word.size();
    }

    std::string
    parseString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            char e = text_[pos_++];
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
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                const std::string_view hex = text_.substr(pos_, 4);
                unsigned code = 0;
                const auto [end, ec] = std::from_chars(
                    hex.data(), hex.data() + hex.size(), code, 16);
                if (ec != std::errc() || end != hex.data() + hex.size())
                    fail("bad \\u escape");
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else {
                    // Preserve the escape text verbatim — lossless
                    // for reporting, and avoids UTF-8 encoding here.
                    out += "\\u";
                    out += hex;
                }
                pos_ += 4;
                break;
            }
            default: fail("unknown escape");
            }
        }
    }

    double
    parseNumber()
    {
        const std::size_t start = pos_;
        if (pos_ < text_.size() && text_[pos_] == '-')
            ++pos_;
        auto digits = [&] {
            std::size_t n = 0;
            while (pos_ < text_.size() &&
                   std::isdigit(
                       static_cast<unsigned char>(text_[pos_]))) {
                ++pos_;
                ++n;
            }
            return n;
        };
        if (digits() == 0)
            fail("bad number");
        if (pos_ < text_.size() && text_[pos_] == '.') {
            ++pos_;
            if (digits() == 0)
                fail("bad number fraction");
        }
        if (pos_ < text_.size() &&
            (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            ++pos_;
            if (pos_ < text_.size() &&
                (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            if (digits() == 0)
                fail("bad number exponent");
        }
        double v = 0.0;
        const auto [end, ec] = std::from_chars(text_.data() + start,
                                               text_.data() + pos_, v);
        if (ec == std::errc::result_out_of_range)
            fail("number '" +
                 std::string(text_.substr(start, pos_ - start)) +
                 "' is out of range for a double");
        if (ec != std::errc() || end != text_.data() + pos_)
            fail("bad number");
        return v;
    }

    /// fatal() when two members of one object share a key: readers
    /// look members up by name, so a duplicate would silently pick
    /// one of the two values.
    void
    checkUniqueKeys(const JsonValue &object)
    {
        keys_.clear();
        for (const auto &member : object.object_)
            keys_.push_back(member.first);
        std::sort(keys_.begin(), keys_.end());
        const auto dup = std::adjacent_find(keys_.begin(), keys_.end());
        if (dup != keys_.end())
            fail("duplicate key \"" + std::string(*dup) + "\"");
    }

    JsonValue
    value()
    {
        JsonValue v;
        const char c = peek();
        if ((c == '{' || c == '[') && ++depth_ > JsonValue::kMaxDepth)
            fail("nesting deeper than " +
                 std::to_string(JsonValue::kMaxDepth));
        switch (c) {
        case '{': {
            ++pos_;
            v.kind_ = JsonValue::Kind::Object;
            skipSpace();
            if (!consume('}')) {
                do {
                    skipSpace();
                    std::string key = parseString();
                    expect(':');
                    v.object_.emplace_back(std::move(key), value());
                } while (consume(','));
                expect('}');
                if (v.object_.size() > 1)
                    checkUniqueKeys(v);
            }
            --depth_;
            return v;
        }
        case '[': {
            ++pos_;
            v.kind_ = JsonValue::Kind::Array;
            skipSpace();
            if (!consume(']')) {
                do {
                    v.array_.push_back(value());
                } while (consume(','));
                expect(']');
            }
            --depth_;
            return v;
        }
        case '"':
            v.kind_ = JsonValue::Kind::String;
            v.string_ = parseString();
            return v;
        case 't':
            literal("true");
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = true;
            return v;
        case 'f':
            literal("false");
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = false;
            return v;
        case 'n':
            literal("null");
            v.kind_ = JsonValue::Kind::Null;
            return v;
        default:
            v.kind_ = JsonValue::Kind::Number;
            v.number_ = parseNumber();
            return v;
        }
    }

    std::string_view text_;
    std::string_view what_;
    std::size_t pos_ = 0;
    int depth_ = 0;
    /// checkUniqueKeys() scratch, reused across objects.
    std::vector<std::string_view> keys_;
};

const JsonValue *
JsonValue::find(std::string_view key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &[k, v] : object_)
        if (k == key)
            return &v;
    return nullptr;
}

const JsonValue &
JsonValue::require(std::string_view key, std::string_view what) const
{
    const JsonValue *v = find(key);
    if (!v)
        fatal(what, ": missing required member \"", key, "\"");
    return *v;
}

const JsonValue &
JsonValue::expect(Kind kind, std::string_view what) const
{
    if (kind_ != kind)
        fatal(what, ": expected ", kindName(kind), ", got ", kindName(kind_));
    return *this;
}

bool
JsonValue::asBool(std::string_view what) const
{
    return expect(Kind::Bool, what).bool_;
}

double
JsonValue::asNumber(std::string_view what) const
{
    return expect(Kind::Number, what).number_;
}

std::int64_t
JsonValue::asInteger(std::string_view what, std::int64_t min,
                     std::int64_t max) const
{
    const double v = asNumber(what);
    // 2^63, the first double past INT64_MAX: the bound is exclusive.
    constexpr double kTwo63 = 9223372036854775808.0;
    if (!(v >= -kTwo63 && v < kTwo63) || v != std::trunc(v) ||
        static_cast<std::int64_t>(v) < min ||
        static_cast<std::int64_t>(v) > max)
        fatal(what, ": ", v, " is not an integer in [", min, ", ", max,
              "]");
    return static_cast<std::int64_t>(v);
}

const std::string &
JsonValue::asString(std::string_view what) const
{
    return expect(Kind::String, what).string_;
}

const std::vector<JsonValue> &
JsonValue::asArray(std::string_view what) const
{
    return expect(Kind::Array, what).array_;
}

const std::vector<std::pair<std::string, JsonValue>> &
JsonValue::asObject(std::string_view what) const
{
    return expect(Kind::Object, what).object_;
}

double
JsonValue::numberOr(std::string_view key, double fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asNumber(key) : fallback;
}

std::int64_t
JsonValue::integerOr(std::string_view key, std::int64_t fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asInteger(key) : fallback;
}

std::string
JsonValue::stringOr(std::string_view key, std::string_view fallback) const
{
    const JsonValue *v = find(key);
    return v ? v->asString(key) : std::string(fallback);
}

JsonValue
JsonValue::parse(std::string_view text, std::string_view what)
{
    return JsonParser(text, what).document();
}

JsonValue
JsonValue::parseFile(const std::string &path, std::string_view what)
{
    std::ifstream is(path);
    if (!is)
        fatal(what, ": cannot read '", path, "'");
    std::ostringstream buffer;
    buffer << is.rdbuf();
    return parse(buffer.str(), what);
}

// ---------------------------------------------------------------------
// JsonWriter
// ---------------------------------------------------------------------

std::string
JsonWriter::number(double v)
{
    // Default float format at max_digits10: what %.17g prints.
    char buf[32];
    const auto res =
        std::to_chars(buf, buf + sizeof(buf), v, std::chars_format::general,
                      std::numeric_limits<double>::max_digits10);
    return std::string(buf, res.ptr);
}

int
JsonWriter::memberColumn(const Frame &frame)
{
    if (!frame.layout.lines)
        return frame.open_col;
    return frame.layout.indent >= 0 ? frame.layout.indent
                                    : frame.open_col + 2;
}

void
JsonWriter::prepareValue()
{
    if (after_key_) {
        after_key_ = false;
        return;
    }
    if (stack_.empty())
        return;
    Frame &top = stack_.back();
    if (top.close == '}')
        panic("JsonWriter: object member without a key");
    separate(top);
}

/// Emit what precedes the next member of @p top: nothing, ", ", or a
/// line break to the member column.
void
JsonWriter::separate(Frame &top)
{
    const bool first = top.members++ == 0;
    if (!top.layout.lines) {
        if (!first)
            os_ << ", ";
    } else if (!first || !top.layout.first_on_open_line) {
        os_ << (first ? "\n" : ",\n") << std::setw(memberColumn(top))
            << "";
    }
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    if (stack_.empty() || stack_.back().close != '}' || after_key_)
        panic("JsonWriter: key \"", name, "\" outside an object");
    separate(stack_.back());
    os_ << '"';
    escape(name);
    os_ << "\": ";
    key_ = name;
    after_key_ = true;
    return *this;
}

JsonWriter &
JsonWriter::begin(char open, char close, const JsonLayout &layout)
{
    // Errors inside the container name the key it was opened under.
    std::string name = after_key_        ? key_
                       : stack_.empty() ? std::string()
                                        : stack_.back().name;
    prepareValue();
    const int open_col = stack_.empty() ? 0 : memberColumn(stack_.back());
    stack_.push_back({close, layout, open_col, 0, std::move(name)});
    os_ << open;
    return *this;
}

JsonWriter &
JsonWriter::end()
{
    if (stack_.empty() || after_key_)
        panic("JsonWriter: end() without an open container");
    const Frame &top = stack_.back();
    if (top.layout.lines && (top.members > 0 || !top.layout.compact_empty))
        os_ << '\n'
            << std::setw(top.layout.close >= 0 ? top.layout.close
                                               : top.open_col)
            << "";
    os_ << top.close;
    stack_.pop_back();
    if (stack_.empty())
        os_ << '\n';
    return *this;
}

void
JsonWriter::escape(std::string_view s)
{
    for (char c : s) {
        switch (c) {
        case '"': os_ << "\\\""; break;
        case '\\': os_ << "\\\\"; break;
        case '\n': os_ << "\\n"; break;
        case '\t': os_ << "\\t"; break;
        default: os_ << (static_cast<unsigned char>(c) < 0x20 ? ' ' : c);
        }
    }
}

JsonWriter &
JsonWriter::value(std::string_view s)
{
    prepareValue();
    os_ << '"';
    escape(s);
    os_ << '"';
    return *this;
}

JsonWriter &
JsonWriter::value(bool b)
{
    prepareValue();
    os_ << (b ? "true" : "false");
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    if (!std::isfinite(v))
        fatal("JSON writer: \"",
              after_key_       ? key_
              : stack_.empty() ? std::string()
                               : stack_.back().name,
              "\" is ", v, ", which JSON cannot represent");
    prepareValue();
    os_ << number(v);
    return *this;
}

} // namespace wss::util
