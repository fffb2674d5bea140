#include "obs/json.hpp"

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <stdexcept>

namespace minicost::obs::json {
namespace {

[[noreturn]] void fail(std::size_t pos, const std::string& what) {
  throw std::runtime_error("json: " + what + " at offset " +
                           std::to_string(pos));
}

}  // namespace

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Value document() {
    Value value = parse_value();
    skip_space();
    if (pos_ != text_.size()) fail(pos_, "trailing characters");
    return value;
  }

 private:
  void skip_space() noexcept {
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c != ' ' && c != '\t' && c != '\n' && c != '\r') break;
      ++pos_;
    }
  }

  char peek() {
    if (pos_ >= text_.size()) fail(pos_, "unexpected end of input");
    return text_[pos_];
  }

  void expect(char c) {
    if (peek() != c) fail(pos_, std::string("expected '") + c + "'");
    ++pos_;
  }

  bool consume_literal(std::string_view literal) {
    if (text_.substr(pos_, literal.size()) != literal) return false;
    pos_ += literal.size();
    return true;
  }

  Value parse_value() {
    skip_space();
    const char c = peek();
    switch (c) {
      case '{':
        return parse_object();
      case '[':
        return parse_array();
      case '"': {
        Value v;
        v.kind_ = Value::Kind::kString;
        v.scalar_ = parse_string();
        return v;
      }
      case 't': {
        if (!consume_literal("true")) fail(pos_, "bad literal");
        Value v;
        v.kind_ = Value::Kind::kBool;
        return v;
      }
      case 'f': {
        if (!consume_literal("false")) fail(pos_, "bad literal");
        Value v;
        v.kind_ = Value::Kind::kBool;
        return v;
      }
      case 'n': {
        if (!consume_literal("null")) fail(pos_, "bad literal");
        return Value{};
      }
      default:
        return parse_number();
    }
  }

  Value parse_object() {
    expect('{');
    Value v;
    v.kind_ = Value::Kind::kObject;
    skip_space();
    if (peek() == '}') {
      ++pos_;
      return v;
    }
    while (true) {
      skip_space();
      std::string key = parse_string();
      skip_space();
      expect(':');
      v.members_.emplace_back(std::move(key), parse_value());
      skip_space();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect('}');
      return v;
    }
  }

  Value parse_array() {
    expect('[');
    Value v;
    v.kind_ = Value::Kind::kArray;
    skip_space();
    if (peek() == ']') {
      ++pos_;
      return v;
    }
    while (true) {
      v.items_.push_back(parse_value());
      skip_space();
      const char c = peek();
      if (c == ',') {
        ++pos_;
        continue;
      }
      expect(']');
      return v;
    }
  }

  std::string parse_string() {
    expect('"');
    std::string out;
    while (true) {
      if (pos_ >= text_.size()) fail(pos_, "unterminated string");
      const char c = text_[pos_++];
      if (c == '"') return out;
      if (c != '\\') {
        out.push_back(c);
        continue;
      }
      if (pos_ >= text_.size()) fail(pos_, "dangling escape");
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
          if (pos_ + 4 > text_.size()) fail(pos_, "truncated \\u escape");
          unsigned code = 0;
          for (int i = 0; i < 4; ++i) {
            const char h = text_[pos_++];
            code <<= 4U;
            if (h >= '0' && h <= '9') code |= static_cast<unsigned>(h - '0');
            else if (h >= 'a' && h <= 'f') code |= static_cast<unsigned>(h - 'a' + 10);
            else if (h >= 'A' && h <= 'F') code |= static_cast<unsigned>(h - 'A' + 10);
            else fail(pos_, "bad \\u escape");
          }
          // BMP code points only (our writer emits \u only for controls).
          if (code < 0x80U) {
            out.push_back(static_cast<char>(code));
          } else if (code < 0x800U) {
            out.push_back(static_cast<char>(0xC0U | (code >> 6U)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          } else {
            out.push_back(static_cast<char>(0xE0U | (code >> 12U)));
            out.push_back(static_cast<char>(0x80U | ((code >> 6U) & 0x3FU)));
            out.push_back(static_cast<char>(0x80U | (code & 0x3FU)));
          }
          break;
        }
        default:
          fail(pos_, "unknown escape");
      }
    }
  }

  Value parse_number() {
    const std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    const auto digits = [&] {
      std::size_t n = 0;
      while (pos_ < text_.size() && text_[pos_] >= '0' && text_[pos_] <= '9') {
        ++pos_;
        ++n;
      }
      return n;
    };
    if (digits() == 0) fail(start, "bad number");
    if (pos_ < text_.size() && text_[pos_] == '.') {
      ++pos_;
      if (digits() == 0) fail(start, "bad number");
    }
    if (pos_ < text_.size() && (text_[pos_] == 'e' || text_[pos_] == 'E')) {
      ++pos_;
      if (pos_ < text_.size() && (text_[pos_] == '+' || text_[pos_] == '-'))
        ++pos_;
      if (digits() == 0) fail(start, "bad number");
    }
    Value v;
    v.kind_ = Value::Kind::kNumber;
    v.scalar_ = std::string(text_.substr(start, pos_ - start));
    return v;
  }

  std::string_view text_;
  std::size_t pos_ = 0;
};

Value Value::parse(std::string_view text) { return Parser(text).document(); }

double Value::as_double() const {
  if (kind_ != Kind::kNumber) throw std::runtime_error("json: not a number");
  return std::strtod(scalar_.c_str(), nullptr);
}

std::uint64_t Value::as_u64() const {
  if (kind_ != Kind::kNumber || scalar_.empty() || scalar_[0] == '-' ||
      scalar_.find_first_of(".eE") != std::string::npos)
    throw std::runtime_error("json: not an unsigned integer");
  errno = 0;
  char* end = nullptr;
  const unsigned long long v = std::strtoull(scalar_.c_str(), &end, 10);
  if (errno != 0 || end != scalar_.c_str() + scalar_.size())
    throw std::runtime_error("json: unsigned integer out of range");
  return v;
}

std::int64_t Value::as_i64() const {
  if (kind_ != Kind::kNumber ||
      scalar_.find_first_of(".eE") != std::string::npos)
    throw std::runtime_error("json: not an integer");
  errno = 0;
  char* end = nullptr;
  const long long v = std::strtoll(scalar_.c_str(), &end, 10);
  if (errno != 0 || end != scalar_.c_str() + scalar_.size())
    throw std::runtime_error("json: integer out of range");
  return v;
}

const std::string& Value::as_string() const {
  if (kind_ != Kind::kString) throw std::runtime_error("json: not a string");
  return scalar_;
}

const Value* Value::find(std::string_view key) const noexcept {
  if (kind_ != Kind::kObject) return nullptr;
  for (const auto& [name, value] : members_)
    if (name == key) return &value;
  return nullptr;
}

const Value& Value::at(std::string_view key) const {
  const Value* v = find(key);
  if (v == nullptr)
    throw std::runtime_error("json: missing key '" + std::string(key) + "'");
  return *v;
}

const std::vector<std::pair<std::string, Value>>& Value::members() const {
  if (kind_ != Kind::kObject) throw std::runtime_error("json: not an object");
  return members_;
}

const std::vector<Value>& Value::items() const {
  if (kind_ != Kind::kArray) throw std::runtime_error("json: not an array");
  return items_;
}

std::string quote(std::string_view text) {
  std::string out;
  out.reserve(text.size() + 2);
  out.push_back('"');
  for (const char c : text) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20U) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

std::string number(double value) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

}  // namespace minicost::obs::json
