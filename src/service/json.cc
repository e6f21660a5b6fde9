#include "service/json.hh"

#include <cctype>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace asf::service
{

bool
JsonValue::asBool(bool dflt) const
{
    return kind_ == Kind::Bool ? boolV_ : dflt;
}

uint64_t
JsonValue::asU64(uint64_t dflt) const
{
    if (kind_ == Kind::Int)
        return negative_ ? dflt : intV_;
    if (kind_ == Kind::Double && doubleV_ >= 0)
        return uint64_t(doubleV_);
    return dflt;
}

int64_t
JsonValue::asI64(int64_t dflt) const
{
    if (kind_ == Kind::Int)
        return negative_ ? -int64_t(intV_) : int64_t(intV_);
    if (kind_ == Kind::Double)
        return int64_t(doubleV_);
    return dflt;
}

double
JsonValue::asDouble(double dflt) const
{
    if (kind_ == Kind::Double)
        return doubleV_;
    if (kind_ == Kind::Int)
        return negative_ ? -double(intV_) : double(intV_);
    return dflt;
}

const std::string &
JsonValue::asString() const
{
    static const std::string empty;
    return kind_ == Kind::String ? stringV_ : empty;
}

const JsonValue &
JsonValue::operator[](const std::string &key) const
{
    static const JsonValue null;
    if (kind_ != Kind::Object || !objectV_)
        return null;
    auto it = objectV_->find(key);
    return it == objectV_->end() ? null : it->second;
}

bool
JsonValue::has(const std::string &key) const
{
    return kind_ == Kind::Object && objectV_ && objectV_->count(key);
}

const std::vector<JsonValue> &
JsonValue::items() const
{
    static const std::vector<JsonValue> empty;
    return kind_ == Kind::Array && arrayV_ ? *arrayV_ : empty;
}

const std::map<std::string, JsonValue> &
JsonValue::members() const
{
    static const std::map<std::string, JsonValue> empty;
    return kind_ == Kind::Object && objectV_ ? *objectV_ : empty;
}

void
JsonValue::setBool(bool v)
{
    kind_ = Kind::Bool;
    boolV_ = v;
}

void
JsonValue::setInt(int64_t v, bool negative)
{
    kind_ = Kind::Int;
    negative_ = negative && v != 0;
    intV_ = negative ? uint64_t(-v) : uint64_t(v);
}

void
JsonValue::setUint(uint64_t v)
{
    kind_ = Kind::Int;
    negative_ = false;
    intV_ = v;
}

void
JsonValue::setDouble(double v)
{
    kind_ = Kind::Double;
    doubleV_ = v;
}

void
JsonValue::setString(std::string v)
{
    kind_ = Kind::String;
    stringV_ = std::move(v);
}

std::vector<JsonValue> &
JsonValue::makeArray()
{
    kind_ = Kind::Array;
    arrayV_ = std::make_shared<std::vector<JsonValue>>();
    return *arrayV_;
}

std::map<std::string, JsonValue> &
JsonValue::makeObject()
{
    kind_ = Kind::Object;
    objectV_ = std::make_shared<std::map<std::string, JsonValue>>();
    return *objectV_;
}

namespace
{

class Parser
{
  public:
    Parser(std::string_view text, std::string &error)
        : text_(text), error_(error)
    {
    }

    bool
    parse(JsonValue &out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after the document");
        return true;
    }

  private:
    bool
    fail(const std::string &why)
    {
        error_ = format("offset %zu: %s", pos_, why.c_str());
        return false;
    }

    void
    skipWs()
    {
        while (pos_ < text_.size() &&
               (text_[pos_] == ' ' || text_[pos_] == '\t' ||
                text_[pos_] == '\n' || text_[pos_] == '\r'))
            pos_++;
    }

    bool
    literal(std::string_view word)
    {
        if (text_.substr(pos_, word.size()) != word)
            return fail(format("expected '%.*s'", int(word.size()),
                               word.data()));
        pos_ += word.size();
        return true;
    }

    bool
    parseValue(JsonValue &out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"': {
            std::string s;
            if (!parseString(s))
                return false;
            out.setString(std::move(s));
            return true;
          }
          case 't':
            out.setBool(true);
            return literal("true");
          case 'f':
            out.setBool(false);
            return literal("false");
          case 'n':
            out = JsonValue();
            return literal("null");
          default:
            return parseNumber(out);
        }
    }

    bool
    parseString(std::string &out)
    {
        if (text_[pos_] != '"')
            return fail("expected a string");
        pos_++;
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos_ >= text_.size())
                break;
            char e = text_[pos_++];
            switch (e) {
              case '"':  out += '"'; break;
              case '\\': out += '\\'; break;
              case '/':  out += '/'; break;
              case 'b':  out += '\b'; break;
              case 'f':  out += '\f'; break;
              case 'n':  out += '\n'; break;
              case 'r':  out += '\r'; break;
              case 't':  out += '\t'; break;
              case 'u': {
                if (pos_ + 4 > text_.size())
                    return fail("truncated \\u escape");
                unsigned v = 0;
                for (int i = 0; i < 4; i++) {
                    char h = text_[pos_++];
                    v <<= 4;
                    if (h >= '0' && h <= '9')
                        v |= unsigned(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        v |= unsigned(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        v |= unsigned(h - 'A' + 10);
                    else
                        return fail("bad \\u escape digit");
                }
                // The writers only escape control chars (< 0x20), so a
                // Latin-1 rendering of the code point suffices; anything
                // beyond is preserved as UTF-8 bytes.
                if (v < 0x80) {
                    out += char(v);
                } else if (v < 0x800) {
                    out += char(0xc0 | (v >> 6));
                    out += char(0x80 | (v & 0x3f));
                } else {
                    out += char(0xe0 | (v >> 12));
                    out += char(0x80 | ((v >> 6) & 0x3f));
                    out += char(0x80 | (v & 0x3f));
                }
                break;
              }
              default:
                return fail(format("unknown escape '\\%c'", e));
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue &out)
    {
        size_t start = pos_;
        bool negative = false;
        if (pos_ < text_.size() && text_[pos_] == '-') {
            negative = true;
            pos_++;
        }
        bool integral = true;
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (std::isdigit(uint8_t(c))) {
                pos_++;
            } else if (c == '.' || c == 'e' || c == 'E' || c == '+' ||
                       c == '-') {
                integral = false;
                pos_++;
            } else {
                break;
            }
        }
        std::string token(text_.substr(start, pos_ - start));
        if (token.empty() || token == "-")
            return fail("malformed number");
        if (integral) {
            errno = 0;
            uint64_t mag = std::strtoull(
                token.c_str() + (negative ? 1 : 0), nullptr, 10);
            if (errno == 0) {
                if (negative)
                    out.setInt(-int64_t(mag), true);
                else
                    out.setUint(mag);
                return true;
            }
        }
        errno = 0;
        double v = std::strtod(token.c_str(), nullptr);
        if (errno != 0 || !std::isfinite(v))
            return fail(format("unparseable number '%s'", token.c_str()));
        out.setDouble(v);
        return true;
    }

    bool
    parseArray(JsonValue &out)
    {
        pos_++; // '['
        auto &items = out.makeArray();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == ']') {
            pos_++;
            return true;
        }
        while (true) {
            JsonValue v;
            skipWs();
            if (!parseValue(v))
                return false;
            items.push_back(std::move(v));
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated array");
            char c = text_[pos_++];
            if (c == ']')
                return true;
            if (c != ',')
                return fail("expected ',' or ']' in array");
        }
    }

    bool
    parseObject(JsonValue &out)
    {
        pos_++; // '{'
        auto &members = out.makeObject();
        skipWs();
        if (pos_ < text_.size() && text_[pos_] == '}') {
            pos_++;
            return true;
        }
        while (true) {
            skipWs();
            std::string key;
            if (!parseString(key))
                return false;
            skipWs();
            if (pos_ >= text_.size() || text_[pos_++] != ':')
                return fail("expected ':' after object key");
            skipWs();
            JsonValue v;
            if (!parseValue(v))
                return false;
            members[std::move(key)] = std::move(v);
            skipWs();
            if (pos_ >= text_.size())
                return fail("unterminated object");
            char c = text_[pos_++];
            if (c == '}')
                return true;
            if (c != ',')
                return fail("expected ',' or '}' in object");
        }
    }

    std::string_view text_;
    std::string &error_;
    size_t pos_ = 0;
};

} // namespace

bool
parseJson(std::string_view text, JsonValue &out, std::string &error)
{
    return Parser(text, error).parse(out);
}

} // namespace asf::service
