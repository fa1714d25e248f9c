/**
 * @file
 * The repo's one JSON reader and one JSON writer (stdlib only).
 *
 * Every JSON artifact (switch profiles, campaign summaries, run
 * manifests, Chrome traces, `wss report`'s JSON twin, BENCH_*.json)
 * is written through JsonWriter, and every document read back is
 * parsed into a JsonValue tree. The one exception is the crash.json
 * of obs/crash_dump.cpp, formatted by hand because a signal handler
 * must not allocate.
 *
 * Reader: RFC 8259 minus \u surrogate pairs (\uXXXX below 0x80
 * decodes; higher escapes are kept verbatim). Malformed input —
 * bad syntax, nesting deeper than kMaxDepth, a duplicate key, a
 * number outside the range of a double — is a fatal() with the byte
 * offset, never UB or a silent default.
 *
 * Writer: strings escape `"`, `\`, newline and tab and turn any
 * other control byte into a space; integers print as integers and
 * doubles at max_digits10 (bit-exact round trip); a non-finite double
 * is a fatal() naming its key. Each container picks a JsonLayout, so
 * no writer places commas, brackets or indentation by hand.
 */

#ifndef WSS_UTIL_JSON_HPP
#define WSS_UTIL_JSON_HPP

#include <concepts>
#include <cstddef>
#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace wss::util {

/**
 * One node of a parsed JSON document.
 *
 * Object members keep their file order (writers in this repo emit
 * sorted keys where determinism matters, so order-preservation makes
 * round-trip comparisons meaningful).
 */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Object, Array };

    /// Deepest nesting of arrays/objects parse() accepts.
    static constexpr int kMaxDepth = 256;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }

    /// Member lookup; nullptr when absent or not an object.
    const JsonValue *find(std::string_view key) const;

    /// find() that fatal()s when the member is missing. @p what names
    /// the document in the error message.
    const JsonValue &require(std::string_view key,
                             std::string_view what) const;

    /// Typed accessors; fatal() on kind mismatch (@p what for context).
    bool asBool(std::string_view what) const;
    double asNumber(std::string_view what) const;
    /// asNumber() that also fatal()s unless the number is integral
    /// and in [@p min, @p max] (by default, the range of int64).
    std::int64_t asInteger(std::string_view what,
                           std::int64_t min = INT64_MIN,
                           std::int64_t max = INT64_MAX) const;
    const std::string &asString(std::string_view what) const;
    const std::vector<JsonValue> &asArray(std::string_view what) const;
    const std::vector<std::pair<std::string, JsonValue>> &
    asObject(std::string_view what) const;

    /// Convenience: member @p key as number/integer/string, or
    /// @p fallback when the member is absent (kind mismatch still
    /// fatal()s).
    double numberOr(std::string_view key, double fallback) const;
    std::int64_t integerOr(std::string_view key,
                           std::int64_t fallback) const;
    std::string stringOr(std::string_view key,
                         std::string_view fallback) const;

    /**
     * Parse one complete document from @p text; trailing non-space
     * characters and malformed input fatal() with @p what and the
     * byte offset of the problem.
     */
    static JsonValue parse(std::string_view text, std::string_view what);

    /// parse() on the contents of @p path; fatal() when unreadable.
    static JsonValue parseFile(const std::string &path,
                               std::string_view what);

  private:
    friend class JsonParser;

    /// *this, or fatal() when it is not of @p kind.
    const JsonValue &expect(Kind kind, std::string_view what) const;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0.0;
    std::string string_;
    std::vector<std::pair<std::string, JsonValue>> object_;
    std::vector<JsonValue> array_;
};

/// Where a JsonWriter container puts its members. A column of -1 is
/// relative: members two columns right of the line the container
/// opens on, the closing bracket back at that line's column.
struct JsonLayout
{
    /// One member per line; otherwise inline, ", "-separated.
    bool lines = false;
    /// Column of the member lines (-1: relative).
    int indent = -1;
    /// Column of the closing bracket's line (-1: relative).
    int close = -1;
    /// The first member stays on the opening bracket's line.
    bool first_on_open_line = false;
    /// Empty prints "[]", not "[\n  ]".
    bool compact_empty = false;
};

/**
 * Streaming JSON writer. Open a container, write members (key() then
 * a value, or field() for both; array elements are bare values), and
 * end() it; ending the outermost container terminates the document
 * with a newline.
 */
class JsonWriter
{
  public:
    static constexpr JsonLayout kInline{};
    static constexpr JsonLayout kLines{.lines = true};
    static constexpr JsonLayout kLinesCompact{.lines = true,
                                              .compact_empty = true};

    explicit JsonWriter(std::ostream &os) : os_(os) {}

    JsonWriter &
    beginObject(const JsonLayout &layout = kInline)
    {
        return begin('{', '}', layout);
    }
    JsonWriter &
    beginArray(const JsonLayout &layout = kInline)
    {
        return begin('[', ']', layout);
    }
    /// Close the innermost open container.
    JsonWriter &end();

    /// Name the next value of the enclosing object.
    JsonWriter &key(std::string_view name);

    JsonWriter &value(std::string_view s);
    JsonWriter &value(const char *s) { return value(std::string_view(s)); }
    JsonWriter &value(bool b);
    /// fatal() when @p v is not finite.
    JsonWriter &value(double v);
    template <std::integral T>
        requires(!std::same_as<T, bool>)
    JsonWriter &
    value(T v)
    {
        prepareValue();
        os_ << v;
        return *this;
    }

    /// key(@p name) followed by value(@p v).
    template <typename T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /// max_digits10 text of @p v in the default float format (no
    /// finiteness check: for numbers embedded in strings).
    static std::string number(double v);

  private:
    struct Frame
    {
        char close;
        JsonLayout layout;
        /// Column of the line the container opened on.
        int open_col;
        std::size_t members = 0;
        /// Key the container was opened under (for error messages).
        std::string name;
    };

    static int memberColumn(const Frame &frame);
    void separate(Frame &top);
    void prepareValue();
    JsonWriter &begin(char open, char close, const JsonLayout &layout);
    void escape(std::string_view s);

    std::ostream &os_;
    std::vector<Frame> stack_;
    /// key() was written and its value is still due.
    bool after_key_ = false;
    std::string key_;
};

} // namespace wss::util

#endif // WSS_UTIL_JSON_HPP
