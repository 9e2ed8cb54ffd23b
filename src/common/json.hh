/**
 * @file
 * Minimal JSON reading for the experiment request/queue protocol.
 *
 * The simulator has long *emitted* JSON (StatGroup::dumpJson,
 * ResultSink) without ever parsing it; the casimd protocol makes both
 * directions first-class.  This is a small recursive-descent parser for
 * the constructs our emitters produce — objects, arrays, strings,
 * numbers, booleans and null — returning error strings instead of
 * throwing, so a malformed daemon request becomes a clean error reply
 * rather than a crash.  Writing stays with the existing helpers
 * (stats::printJsonString / printJsonNumber); this header only adds the
 * value model and the parser.
 */

#ifndef CASIM_COMMON_JSON_HH
#define CASIM_COMMON_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <variant>
#include <vector>

namespace casim {
namespace json {

class Value;

/** JSON object; keys are unique, iteration is name-ordered. */
using Object = std::map<std::string, Value>;

/** JSON array. */
using Array = std::vector<Value>;

/** One parsed JSON value of any kind. */
class Value
{
  public:
    Value() : data_(nullptr) {}
    Value(std::nullptr_t) : data_(nullptr) {}
    Value(bool b) : data_(b) {}
    Value(double n) : data_(n) {}
    Value(std::string s) : data_(std::move(s)) {}
    Value(Array a) : data_(std::move(a)) {}
    Value(Object o) : data_(std::move(o)) {}

    bool isNull() const
    {
        return std::holds_alternative<std::nullptr_t>(data_);
    }
    bool isBool() const { return std::holds_alternative<bool>(data_); }
    bool isNumber() const
    {
        return std::holds_alternative<double>(data_);
    }
    bool isString() const
    {
        return std::holds_alternative<std::string>(data_);
    }
    bool isArray() const { return std::holds_alternative<Array>(data_); }
    bool isObject() const
    {
        return std::holds_alternative<Object>(data_);
    }

    /** Typed accessors; the caller must check the kind first. */
    bool boolean() const { return std::get<bool>(data_); }
    double number() const { return std::get<double>(data_); }
    const std::string &str() const
    {
        return std::get<std::string>(data_);
    }
    const Array &array() const { return std::get<Array>(data_); }
    const Object &object() const { return std::get<Object>(data_); }

    /** Member lookup on an object; nullptr when absent. */
    const Value *find(const std::string &key) const;

  private:
    std::variant<std::nullptr_t, bool, double, std::string, Array,
                 Object>
        data_;
};

/**
 * Deepest nesting of objects and arrays parse() accepts.  Our own
 * documents nest a handful of levels; the bound keeps a hostile
 * document from overflowing the stack of the recursive parser.
 */
constexpr unsigned kMaxNestingDepth = 64;

/**
 * Parse one complete JSON document.
 *
 * @param text  The document; trailing content after the value is an
 *              error (one request per line is enforced by the caller).
 * @param out   Receives the parsed value on success.
 * @param error Receives a one-line diagnostic (with a byte offset) on
 *              failure, including nesting deeper than
 *              kMaxNestingDepth; cleared on success.  May be nullptr.
 * @return True on success.
 */
bool parse(const std::string &text, Value &out, std::string *error);

} // namespace json
} // namespace casim

#endif // CASIM_COMMON_JSON_HH
