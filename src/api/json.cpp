#include "api/json.hpp"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstring>

namespace hpe::api::json {

namespace {

void
dumpString(const std::string &s, std::string &out)
{
    out += '"';
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
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x",
                              static_cast<unsigned>(c) & 0xff);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
}

void
dumpValue(const Value &v, std::string &out)
{
    switch (v.kind()) {
      case Value::Kind::Null:
        out += "null";
        break;
      case Value::Kind::Bool:
        out += v.asBool() ? "true" : "false";
        break;
      case Value::Kind::Uint: {
        char buf[24];
        auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v.asUint());
        (void)ec;
        out.append(buf, p);
        break;
      }
      case Value::Kind::Int: {
        char buf[24];
        auto [p, ec] = std::to_chars(buf, buf + sizeof buf, v.asInt());
        (void)ec;
        out.append(buf, p);
        break;
      }
      case Value::Kind::Double: {
        const double d = v.asDouble();
        // Range first: casting a double outside int64 is undefined.
        if (std::fabs(d) < 1e15
            && d == static_cast<double>(static_cast<std::int64_t>(d))) {
            // Integral doubles print without an exponent or trailing
            // zeros so canonical bytes are stable ("1" not "1.000000").
            char buf[24];
            auto [p, ec] = std::to_chars(buf, buf + sizeof buf,
                                         static_cast<std::int64_t>(d));
            (void)ec;
            out.append(buf, p);
        } else {
            char buf[32];
            std::snprintf(buf, sizeof buf, "%.17g", d);
            out += buf;
        }
        break;
      }
      case Value::Kind::String:
        dumpString(v.asString(), out);
        break;
      case Value::Kind::Array: {
        out += '[';
        bool first = true;
        for (const Value &e : v.asArray()) {
            if (!first)
                out += ',';
            first = false;
            dumpValue(e, out);
        }
        out += ']';
        break;
      }
      case Value::Kind::Object: {
        out += '{';
        bool first = true;
        for (const auto &[k, e] : v.asObject()) {
            if (!first)
                out += ',';
            first = false;
            dumpString(k, out);
            out += ':';
            dumpValue(e, out);
        }
        out += '}';
        break;
      }
    }
}

/** Recursive-descent parser over a byte range. */
class Parser
{
  public:
    Parser(const std::string &text, ParseError *err)
        : text_(text), err_(err)
    {}

    std::optional<Value>
    run()
    {
        skipWs();
        auto v = parseValue(0);
        if (!v)
            return std::nullopt;
        skipWs();
        if (pos_ != text_.size()) {
            fail("trailing bytes after JSON value");
            return std::nullopt;
        }
        return v;
    }

  private:
    static constexpr int kMaxDepth = 64;

    void
    fail(const std::string &msg)
    {
        if (err_ != nullptr && err_->message.empty())
            *err_ = ParseError{msg, pos_};
    }

    void
    skipWs()
    {
        while (pos_ < text_.size()
               && (text_[pos_] == ' ' || text_[pos_] == '\t'
                   || text_[pos_] == '\n' || text_[pos_] == '\r'))
            ++pos_;
    }

    bool
    consume(char c)
    {
        if (pos_ < text_.size() && text_[pos_] == c) {
            ++pos_;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        const std::size_t n = std::strlen(word);
        if (text_.compare(pos_, n, word) == 0) {
            pos_ += n;
            return true;
        }
        return false;
    }

    std::optional<std::string>
    parseString()
    {
        if (!consume('"')) {
            fail("expected '\"'");
            return std::nullopt;
        }
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                const char esc = text_[pos_++];
                switch (esc) {
                  case '"':
                    out += '"';
                    break;
                  case '\\':
                    out += '\\';
                    break;
                  case '/':
                    out += '/';
                    break;
                  case 'n':
                    out += '\n';
                    break;
                  case 'r':
                    out += '\r';
                    break;
                  case 't':
                    out += '\t';
                    break;
                  case 'b':
                    out += '\b';
                    break;
                  case 'f':
                    out += '\f';
                    break;
                  case 'u': {
                    if (pos_ + 4 > text_.size()) {
                        fail("truncated \\u escape");
                        return std::nullopt;
                    }
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        const char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |= static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |= static_cast<unsigned>(h - 'A' + 10);
                        else {
                            fail("bad hex digit in \\u escape");
                            return std::nullopt;
                        }
                    }
                    // Encode as UTF-8 (basic multilingual plane only; the
                    // schema never carries surrogate pairs).
                    if (code < 0x80) {
                        out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        out += static_cast<char>(0xc0 | (code >> 6));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        out += static_cast<char>(0xe0 | (code >> 12));
                        out += static_cast<char>(0x80 | ((code >> 6) & 0x3f));
                        out += static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                  }
                  default:
                    fail("unknown escape");
                    return std::nullopt;
                }
            } else {
                out += c;
            }
        }
        fail("unterminated string");
        return std::nullopt;
    }

    std::optional<Value>
    parseNumber()
    {
        const std::size_t start = pos_;
        if (consume('-')) {
        }
        const std::size_t intStart = pos_;
        while (pos_ < text_.size()
               && std::isdigit(static_cast<unsigned char>(text_[pos_])))
            ++pos_;
        // RFC 8259: no leading zeros ("01" is two tokens, i.e. malformed).
        if (pos_ - intStart > 1 && text_[intStart] == '0') {
            fail("malformed number");
            return std::nullopt;
        }
        bool isFloat = false;
        if (pos_ < text_.size() && text_[pos_] == '.') {
            isFloat = true;
            ++pos_;
            while (pos_ < text_.size()
                   && std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
            isFloat = true;
            ++pos_;
            if (pos_ < text_.size()
                && (text_[pos_] == '+' || text_[pos_] == '-'))
                ++pos_;
            while (pos_ < text_.size()
                   && std::isdigit(static_cast<unsigned char>(text_[pos_])))
                ++pos_;
        }
        const std::string_view tok{text_.data() + start, pos_ - start};
        if (tok.empty() || tok == "-") {
            fail("malformed number");
            return std::nullopt;
        }
        if (!isFloat) {
            if (tok[0] == '-') {
                std::int64_t v = 0;
                auto [p, ec] =
                    std::from_chars(tok.data(), tok.data() + tok.size(), v);
                if (ec == std::errc() && p == tok.data() + tok.size())
                    return Value(v);
            } else {
                std::uint64_t v = 0;
                auto [p, ec] =
                    std::from_chars(tok.data(), tok.data() + tok.size(), v);
                if (ec == std::errc() && p == tok.data() + tok.size())
                    return Value(v);
            }
            // Integer overflow: fall through to double.
        }
        double d = 0.0;
        auto [p, ec] = std::from_chars(tok.data(), tok.data() + tok.size(), d);
        if (ec != std::errc() || p != tok.data() + tok.size()) {
            fail("malformed number");
            return std::nullopt;
        }
        return Value(d);
    }

    std::optional<Value>
    parseValue(int depth)
    {
        if (depth > kMaxDepth) {
            fail("nesting too deep");
            return std::nullopt;
        }
        skipWs();
        if (pos_ >= text_.size()) {
            fail("unexpected end of input");
            return std::nullopt;
        }
        const char c = text_[pos_];
        if (c == '{') {
            ++pos_;
            Object obj;
            skipWs();
            if (consume('}'))
                return Value(std::move(obj));
            for (;;) {
                skipWs();
                auto key = parseString();
                if (!key)
                    return std::nullopt;
                skipWs();
                if (!consume(':')) {
                    fail("expected ':' after object key");
                    return std::nullopt;
                }
                auto val = parseValue(depth + 1);
                if (!val)
                    return std::nullopt;
                obj.insert_or_assign(std::move(*key), std::move(*val));
                skipWs();
                if (consume(','))
                    continue;
                if (consume('}'))
                    return Value(std::move(obj));
                fail("expected ',' or '}' in object");
                return std::nullopt;
            }
        }
        if (c == '[') {
            ++pos_;
            Array arr;
            skipWs();
            if (consume(']'))
                return Value(std::move(arr));
            for (;;) {
                auto val = parseValue(depth + 1);
                if (!val)
                    return std::nullopt;
                arr.push_back(std::move(*val));
                skipWs();
                if (consume(','))
                    continue;
                if (consume(']'))
                    return Value(std::move(arr));
                fail("expected ',' or ']' in array");
                return std::nullopt;
            }
        }
        if (c == '"') {
            auto s = parseString();
            if (!s)
                return std::nullopt;
            return Value(std::move(*s));
        }
        if (c == 't') {
            if (literal("true"))
                return Value(true);
            fail("bad literal");
            return std::nullopt;
        }
        if (c == 'f') {
            if (literal("false"))
                return Value(false);
            fail("bad literal");
            return std::nullopt;
        }
        if (c == 'n') {
            if (literal("null"))
                return Value(nullptr);
            fail("bad literal");
            return std::nullopt;
        }
        return parseNumber();
    }

    const std::string &text_;
    ParseError *err_;
    std::size_t pos_ = 0;
};

} // namespace

std::string
Value::dump() const
{
    std::string out;
    dumpValue(*this, out);
    return out;
}

std::optional<Value>
parse(const std::string &text, ParseError *err)
{
    if (err != nullptr)
        *err = ParseError{};
    return Parser(text, err).run();
}

} // namespace hpe::api::json
