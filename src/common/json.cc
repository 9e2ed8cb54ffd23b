/**
 * @file
 * Implementation of the minimal JSON parser.
 */

#include "common/json.hh"

#include <cctype>
#include <cstdlib>
#include <sstream>
#include <string>

namespace casim {
namespace json {

const Value *
Value::find(const std::string &key) const
{
    if (!isObject())
        return nullptr;
    const Object &obj = object();
    const auto it = obj.find(key);
    return it == obj.end() ? nullptr : &it->second;
}

namespace {

/** Recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : text_(text) {}

    bool
    parse(Value &out, std::string *error)
    {
        out = parseValue();
        skipSpace();
        if (ok_ && pos_ != text_.size())
            fail("trailing content after JSON value");
        if (!ok_ && error != nullptr)
            *error = error_;
        if (ok_ && error != nullptr)
            error->clear();
        return ok_;
    }

  private:
    void
    fail(const std::string &what)
    {
        if (!ok_)
            return;
        ok_ = false;
        std::ostringstream os;
        os << what << " at offset " << pos_;
        error_ = os.str();
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
        return pos_ < text_.size() ? text_[pos_] : '\0';
    }

    bool
    consume(char c)
    {
        if (peek() != c) {
            fail(std::string("expected '") + c + "'");
            return false;
        }
        ++pos_;
        return true;
    }

    bool
    consumeWord(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0) {
            fail("invalid literal");
            return false;
        }
        pos_ += len;
        return true;
    }

    Value
    parseValue()
    {
        if (!ok_)
            return {};
        const char c = peek();
        switch (c) {
          case '{':
          case '[': {
            // Bound the recursion: a hostile line of brackets must
            // fail with a diagnostic, not overflow the stack.
            if (depth_ == kMaxNestingDepth) {
                fail("nesting deeper than " +
                     std::to_string(kMaxNestingDepth) + " levels");
                return {};
            }
            ++depth_;
            Value value = c == '{' ? parseObject() : parseArray();
            --depth_;
            return value;
          }
          case '"':
            return Value(parseString());
          case 't':
            return consumeWord("true") ? Value(true) : Value();
          case 'f':
            return consumeWord("false") ? Value(false) : Value();
          case 'n':
            return consumeWord("null") ? Value(nullptr) : Value();
          default:
            return parseNumber();
        }
    }

    Value
    parseObject()
    {
        if (!consume('{'))
            return {};
        Object object;
        if (peek() == '}') {
            ++pos_;
            return Value(std::move(object));
        }
        while (ok_) {
            if (peek() != '"') {
                fail("expected object key string");
                break;
            }
            std::string key = parseString();
            if (!consume(':'))
                break;
            object[std::move(key)] = parseValue();
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            consume('}');
            break;
        }
        return Value(std::move(object));
    }

    Value
    parseArray()
    {
        if (!consume('['))
            return {};
        Array array;
        if (peek() == ']') {
            ++pos_;
            return Value(std::move(array));
        }
        while (ok_) {
            array.push_back(parseValue());
            const char c = peek();
            if (c == ',') {
                ++pos_;
                continue;
            }
            consume(']');
            break;
        }
        return Value(std::move(array));
    }

    std::string
    parseString()
    {
        if (!consume('"'))
            return {};
        std::string out;
        while (pos_ < text_.size()) {
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                break;
            const char esc = text_[pos_++];
            switch (esc) {
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
                    return out;
                }
                const std::string hex = text_.substr(pos_, 4);
                pos_ += 4;
                char *end = nullptr;
                const unsigned long cp =
                    std::strtoul(hex.c_str(), &end, 16);
                if (end != hex.c_str() + 4) {
                    fail("invalid \\u escape");
                    return out;
                }
                // Encode the BMP code point as UTF-8; our own emitter
                // only escapes control characters, so this is already
                // more than round-trip needs.
                if (cp < 0x80) {
                    out.push_back(static_cast<char>(cp));
                } else if (cp < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (cp >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (cp >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((cp >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (cp & 0x3F)));
                }
                break;
              }
              default:
                fail("unknown escape");
                return out;
            }
        }
        fail("unterminated string");
        return out;
    }

    Value
    parseNumber()
    {
        skipSpace();
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        const double value = std::strtod(start, &end);
        if (end == start) {
            fail("invalid JSON value");
            return {};
        }
        pos_ += static_cast<std::size_t>(end - start);
        return Value(value);
    }

    const std::string &text_;
    std::size_t pos_ = 0;
    bool ok_ = true;
    std::string error_;
    /** Objects and arrays currently open around the parse position. */
    unsigned depth_ = 0;
};

} // namespace

bool
parse(const std::string &text, Value &out, std::string *error)
{
    return Parser(text).parse(out, error);
}

} // namespace json
} // namespace casim
