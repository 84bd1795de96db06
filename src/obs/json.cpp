#include "obs/json.hpp"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ostream>

#include "util/log.hpp"

namespace triage::obs::json {

const Value*
Value::get(const std::string& key) const
{
    if (type != Type::Object)
        return nullptr;
    auto it = object.find(key);
    return it == object.end() ? nullptr : &it->second;
}

const Value*
Value::find_path(const std::string& dotted) const
{
    const Value* cur = this;
    std::size_t start = 0;
    while (cur != nullptr && start <= dotted.size()) {
        std::size_t dot = dotted.find('.', start);
        std::string seg = dot == std::string::npos
                              ? dotted.substr(start)
                              : dotted.substr(start, dot - start);
        cur = cur->get(seg);
        if (dot == std::string::npos)
            return cur;
        start = dot + 1;
    }
    return cur;
}

namespace {

/** Recursive-descent parser over a string_view. */
class Parser
{
  public:
    Parser(std::string_view text, std::string* error)
        : text_(text), error_(error)
    {
    }

    std::optional<Value>
    run()
    {
        skip_ws();
        Value v;
        if (!parse_value(v))
            return std::nullopt;
        skip_ws();
        if (pos_ != text_.size()) {
            fail("trailing content");
            return std::nullopt;
        }
        return v;
    }

  private:
    void
    fail(const char* what)
    {
        if (error_ != nullptr && error_->empty())
            *error_ = std::string(what) + " at byte " +
                      std::to_string(pos_);
    }

    bool eof() const { return pos_ >= text_.size(); }
    char peek() const { return text_[pos_]; }

    void
    skip_ws()
    {
        while (!eof() && (peek() == ' ' || peek() == '\t' ||
                          peek() == '\n' || peek() == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (eof() || peek() != c)
            return false;
        ++pos_;
        return true;
    }

    bool
    expect(char c, const char* what)
    {
        if (consume(c))
            return true;
        fail(what);
        return false;
    }

    bool
    parse_literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word) {
            fail("bad literal");
            return false;
        }
        pos_ += word.size();
        return true;
    }

    bool
    parse_string(std::string& out)
    {
        if (!expect('"', "expected string"))
            return false;
        out.clear();
        while (!eof()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (eof()) {
                    fail("truncated escape");
                    return false;
                }
                char e = text_[pos_++];
                switch (e) {
                  case '"': out.push_back('"'); break;
                  case '\\': out.push_back('\\'); break;
                  case '/': out.push_back('/'); break;
                  case 'b': out.push_back('\b'); break;
                  case 'f': out.push_back('\f'); break;
                  case 'n': out.push_back('\n'); break;
                  case 'r': out.push_back('\r'); break;
                  case 't': out.push_back('\t'); break;
                  case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                        return false;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else {
                            fail("bad \\u escape");
                            return false;
                        }
                    }
                    // UTF-8 encode the BMP code point (surrogate pairs
                    // degrade to two 3-byte sequences; fine for our
                    // machine-generated inputs).
                    if (code < 0x80) {
                        out.push_back(static_cast<char>(code));
                    } else if (code < 0x800) {
                        out.push_back(
                            static_cast<char>(0xc0 | (code >> 6)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    } else {
                        out.push_back(
                            static_cast<char>(0xe0 | (code >> 12)));
                        out.push_back(static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f)));
                        out.push_back(
                            static_cast<char>(0x80 | (code & 0x3f)));
                    }
                    break;
                  }
                  default:
                    fail("bad escape");
                    return false;
                }
            } else {
                out.push_back(c);
            }
        }
        fail("unterminated string");
        return false;
    }

    bool
    parse_number(double& out)
    {
        std::size_t start = pos_;
        if (!eof() && peek() == '-')
            ++pos_;
        while (!eof() && std::isdigit(static_cast<unsigned char>(peek())))
            ++pos_;
        if (consume('.'))
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        if (!eof() && (peek() == 'e' || peek() == 'E')) {
            ++pos_;
            if (!eof() && (peek() == '+' || peek() == '-'))
                ++pos_;
            while (!eof() &&
                   std::isdigit(static_cast<unsigned char>(peek())))
                ++pos_;
        }
        if (pos_ == start) {
            fail("expected number");
            return false;
        }
        std::string tok(text_.substr(start, pos_ - start));
        char* end = nullptr;
        out = std::strtod(tok.c_str(), &end);
        if (end == nullptr || *end != '\0') {
            fail("malformed number");
            return false;
        }
        return true;
    }

    bool
    parse_value(Value& v)
    {
        if (++depth_ > MAX_DEPTH) {
            fail("nesting too deep");
            return false;
        }
        bool ok = parse_value_inner(v);
        --depth_;
        return ok;
    }

    bool
    parse_value_inner(Value& v)
    {
        skip_ws();
        if (eof()) {
            fail("unexpected end of input");
            return false;
        }
        switch (peek()) {
          case '{': {
            ++pos_;
            v.type = Value::Type::Object;
            skip_ws();
            if (consume('}'))
                return true;
            while (true) {
                skip_ws();
                std::string key;
                if (!parse_string(key))
                    return false;
                skip_ws();
                if (!expect(':', "expected ':'"))
                    return false;
                Value member;
                if (!parse_value(member))
                    return false;
                v.object.emplace(std::move(key), std::move(member));
                skip_ws();
                if (consume('}'))
                    return true;
                if (!expect(',', "expected ',' or '}'"))
                    return false;
            }
          }
          case '[': {
            ++pos_;
            v.type = Value::Type::Array;
            skip_ws();
            if (consume(']'))
                return true;
            while (true) {
                Value elem;
                if (!parse_value(elem))
                    return false;
                v.array.push_back(std::move(elem));
                skip_ws();
                if (consume(']'))
                    return true;
                if (!expect(',', "expected ',' or ']'"))
                    return false;
            }
          }
          case '"':
            v.type = Value::Type::String;
            return parse_string(v.str);
          case 't':
            v.type = Value::Type::Bool;
            v.boolean = true;
            return parse_literal("true");
          case 'f':
            v.type = Value::Type::Bool;
            v.boolean = false;
            return parse_literal("false");
          case 'n':
            v.type = Value::Type::Null;
            return parse_literal("null");
          default:
            v.type = Value::Type::Number;
            return parse_number(v.number);
        }
    }

    static constexpr int MAX_DEPTH = 128;

    std::string_view text_;
    std::string* error_;
    std::size_t pos_ = 0;
    int depth_ = 0;
};

} // namespace

std::optional<Value>
parse(std::string_view text, std::string* error)
{
    return Parser(text, error).run();
}

void
Writer::indent(std::size_t depth)
{
    os_ << '\n';
    for (std::size_t i = 0; i < depth; ++i)
        os_ << "  ";
}

void
Writer::separate()
{
    if (keyed_) {
        keyed_ = false;
        return;
    }
    if (frames_.empty())
        return;
    Frame& f = frames_.back();
    if (!f.empty)
        os_ << (f.block ? "," : ", ");
    f.empty = false;
    if (f.block)
        indent(frames_.size());
}

Writer&
Writer::open(char bracket, bool block)
{
    separate();
    os_ << bracket;
    // Everything inside a compact container stays on its line.
    frames_.push_back(
        {bracket == '{', block && (frames_.empty() || frames_.back().block)});
    return *this;
}

Writer&
Writer::begin_object(bool block)
{
    return open('{', block);
}

Writer&
Writer::begin_array(bool block)
{
    return open('[', block);
}

Writer&
Writer::end()
{
    TRIAGE_ASSERT(!frames_.empty() && !keyed_, "unbalanced JSON end()");
    const Frame f = frames_.back();
    frames_.pop_back();
    if (f.block && !f.empty)
        indent(frames_.size());
    os_ << (f.object ? '}' : ']');
    return *this;
}

Writer&
Writer::key(std::string_view k)
{
    TRIAGE_ASSERT(!frames_.empty() && frames_.back().object && !keyed_,
                  "JSON key outside an object");
    separate();
    escaped(k);
    os_ << ": ";
    keyed_ = true;
    return *this;
}

void
Writer::escaped(std::string_view s)
{
    os_ << '"';
    for (char ch : s) {
        switch (ch) {
          case '"': os_ << "\\\""; break;
          case '\\': os_ << "\\\\"; break;
          case '\n': os_ << "\\n"; break;
          case '\t': os_ << "\\t"; break;
          default:
            if (static_cast<unsigned char>(ch) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x",
                              static_cast<unsigned>(ch));
                os_ << buf;
            } else {
                os_ << ch;
            }
        }
    }
    os_ << '"';
}

Writer&
Writer::scalar(std::string_view text)
{
    separate();
    os_ << text;
    return *this;
}

Writer&
Writer::value(std::string_view s)
{
    separate();
    escaped(s);
    return *this;
}

Writer&
Writer::value(bool b)
{
    return scalar(b ? "true" : "false");
}

Writer&
Writer::value(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    if (std::fabs(v) < 9007199254740992.0 && v == std::trunc(v))
        return value(static_cast<std::int64_t>(v));
    char buf[32];
    const int n = std::snprintf(buf, sizeof(buf), "%.10g", v);
    return scalar(std::string_view(buf, static_cast<std::size_t>(n)));
}

Writer&
Writer::dotted_key(std::string_view name, std::vector<std::string>& open)
{
    std::vector<std::string_view> segs;
    for (std::size_t start = 0;;) {
        const std::size_t dot = name.find('.', start);
        segs.push_back(name.substr(start, dot - start));
        if (dot == std::string_view::npos)
            break;
        start = dot + 1;
    }
    std::size_t shared = 0;
    while (shared < open.size() && shared + 1 < segs.size() &&
           open[shared] == segs[shared])
        ++shared;
    while (open.size() > shared) {
        end();
        open.pop_back();
    }
    for (std::size_t d = shared; d + 1 < segs.size(); ++d) {
        key(segs[d]).begin_object();
        open.emplace_back(segs[d]);
    }
    return key(segs.back());
}

} // namespace triage::obs::json
