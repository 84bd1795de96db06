/**
 * @file
 * The simulator's one JSON module. Writer is the streaming emitter
 * every stats, trace and profile block goes through, so the format has
 * one escaper, one number rule and one layout. parse() reads it back
 * for tests and tools/check_stats_json: it takes the full JSON grammar
 * into a small value tree; not a performance-oriented parser and not
 * meant for untrusted megabyte inputs.
 */
#ifndef TRIAGE_OBS_JSON_HPP
#define TRIAGE_OBS_JSON_HPP

#include <charconv>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace triage::obs::json {

/** A parsed JSON value. */
class Value
{
  public:
    enum class Type : unsigned char {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object
    };

    Type type = Type::Null;
    bool boolean = false;
    double number = 0.0;
    std::string str;
    std::vector<Value> array;
    std::map<std::string, Value> object;

    bool is_null() const { return type == Type::Null; }
    bool is_bool() const { return type == Type::Bool; }
    bool is_number() const { return type == Type::Number; }
    bool is_string() const { return type == Type::String; }
    bool is_array() const { return type == Type::Array; }
    bool is_object() const { return type == Type::Object; }

    /** Object member lookup; null when absent or not an object. */
    const Value* get(const std::string& key) const;

    /** Dotted-path lookup ("cores" inside nested objects). */
    const Value* find_path(const std::string& dotted) const;
};

/**
 * Parse @p text as one JSON document (trailing whitespace allowed).
 * @return nullopt on any syntax error; when @p error is non-null it
 *         receives a short description with a byte offset.
 */
std::optional<Value> parse(std::string_view text,
                           std::string* error = nullptr);

/**
 * Streaming JSON emitter. A block container puts each member on its
 * own line, indented two spaces per level; a compact one keeps its
 * members on one line (and so does everything nested in it). Keys are
 * followed by ": ", compact members separated by ", ".
 *
 * Numbers follow one rule: integer types are written exactly;
 * integral doubles below 2^53 are written as integers, so they are
 * exact too; other doubles use "%.10g"; inf and nan become 0, which
 * JSON cannot otherwise carry.
 *
 * Top-level values get no separator, so one Writer can emit a JSONL
 * stream with the caller writing the newlines.
 */
class Writer
{
  public:
    explicit Writer(std::ostream& os) : os_(os) {}

    Writer& begin_object(bool block = true);
    Writer& begin_array(bool block = true);
    /** Close the innermost open object or array. */
    Writer& end();

    /** Key the next value of the enclosing object. */
    Writer& key(std::string_view k);

    Writer& value(std::string_view s);
    Writer& value(const char* s) { return value(std::string_view(s)); }
    Writer& value(bool b);
    Writer& value(double v);

    template <typename T,
              std::enable_if_t<std::is_integral_v<T> &&
                                   !std::is_same_v<T, bool>,
                               int> = 0>
    Writer&
    value(T v)
    {
        char buf[24];
        const auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
        return scalar(std::string_view(buf, end - buf));
    }

    /** key(k) then value(v). */
    template <typename T>
    Writer&
    field(std::string_view k, const T& v)
    {
        key(k);
        return value(v);
    }

    /**
     * Key the next value by a dotted name inside an object whose
     * members arrive in sorted name order: close the objects the
     * previous name opened that this one does not share, open the
     * ones it adds ("a.b.c" opens "a" and "b"), then key "c".
     * @p open carries the opened segments between calls; the caller
     * closes what is left in it.
     */
    Writer& dotted_key(std::string_view name,
                       std::vector<std::string>& open);

  private:
    struct Frame {
        bool object;
        bool block;
        bool empty = true;
    };

    Writer& open(char bracket, bool block);
    /** Separator and indentation before a member or an element. */
    void separate();
    void indent(std::size_t depth);
    void escaped(std::string_view s);
    /** One value, already formatted. */
    Writer& scalar(std::string_view text);

    std::ostream& os_;
    std::vector<Frame> frames_;
    bool keyed_ = false;
};

/**
 * Write @p sorted, a map keyed by dotted names, as one block object in
 * which "a.b.c" nests as {"a": {"b": {"c": ...}}}; @p leaf(w, value)
 * writes each value.
 */
template <typename Map, typename Leaf>
void
write_nested(Writer& w, const Map& sorted, Leaf leaf)
{
    std::vector<std::string> open;
    w.begin_object();
    for (const auto& [name, v] : sorted) {
        w.dotted_key(name, open);
        leaf(w, v);
    }
    for (; !open.empty(); open.pop_back())
        w.end();
    w.end();
}

} // namespace triage::obs::json

#endif // TRIAGE_OBS_JSON_HPP
