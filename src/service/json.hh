/**
 * @file
 * Minimal JSON document model + recursive-descent parser for the
 * campaign service. The simulator only ever *wrote* JSON (JsonWriter);
 * the service also has to read it back — cache manifests, campaign
 * spec lines, completion records. This parser covers exactly the JSON
 * the repo's writers emit (objects, arrays, strings with the JsonWriter
 * escape set, integers, doubles, bools, null) and preserves 64-bit
 * integer precision, which stats counters need and a double-only model
 * would silently round.
 */

#ifndef ASF_SERVICE_JSON_HH
#define ASF_SERVICE_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace asf::service
{

class JsonValue
{
  public:
    enum class Kind : uint8_t
    {
        Null,
        Bool,
        Int,    ///< fits int64 (negative) or uint64 (non-negative)
        Double,
        String,
        Array,
        Object,
    };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isObject() const { return kind_ == Kind::Object; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isString() const { return kind_ == Kind::String; }
    bool isNumber() const
    {
        return kind_ == Kind::Int || kind_ == Kind::Double;
    }
    bool isBool() const { return kind_ == Kind::Bool; }

    bool asBool(bool dflt = false) const;
    uint64_t asU64(uint64_t dflt = 0) const;
    int64_t asI64(int64_t dflt = 0) const;
    double asDouble(double dflt = 0.0) const;
    const std::string &asString() const; ///< empty when not a string

    /** Object member by key; a shared Null when absent or not an
     *  object — lookups chain safely. */
    const JsonValue &operator[](const std::string &key) const;
    bool has(const std::string &key) const;

    const std::vector<JsonValue> &items() const;          ///< array
    const std::map<std::string, JsonValue> &members() const;

    // Mutating builders (parser + tests).
    void setBool(bool v);
    void setInt(int64_t v, bool negative);
    void setUint(uint64_t v); ///< full u64 magnitude, never negative
    void setDouble(double v);
    void setString(std::string v);
    std::vector<JsonValue> &makeArray();
    std::map<std::string, JsonValue> &makeObject();

  private:
    Kind kind_ = Kind::Null;
    bool boolV_ = false;
    bool negative_ = false; ///< Int kind: value is -int64
    uint64_t intV_ = 0;
    double doubleV_ = 0.0;
    std::string stringV_;
    std::shared_ptr<std::vector<JsonValue>> arrayV_;
    std::shared_ptr<std::map<std::string, JsonValue>> objectV_;
};

/**
 * Parse one JSON document. Returns false (and fills `error` with
 * position + reason) on malformed input; trailing non-whitespace after
 * the document is an error.
 */
bool parseJson(std::string_view text, JsonValue &out, std::string &error);

} // namespace asf::service

#endif // ASF_SERVICE_JSON_HH
