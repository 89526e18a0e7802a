#include "src/common/json_writer.h"

#include <algorithm>
#include <cassert>
#include <charconv>
#include <cmath>
#include <cstdio>

namespace faascost {

void JsonWriter::BeforeValue() {
  if (pending_key_) {
    // The comma (if any) was written with the key.
    pending_key_ = false;
    return;
  }
  if (!has_items_.empty()) {
    assert(stack_.back() == Scope::kArray);
    if (has_items_.back()) {
      out_.push_back(',');
    }
    has_items_.back() = true;
  }
}

void JsonWriter::BeginObject() {
  BeforeValue();
  out_.push_back('{');
  stack_.push_back(Scope::kObject);
  has_items_.push_back(false);
}

void JsonWriter::EndObject() {
  assert(!stack_.empty() && stack_.back() == Scope::kObject);
  assert(!pending_key_);
  out_.push_back('}');
  stack_.pop_back();
  has_items_.pop_back();
}

void JsonWriter::BeginArray() {
  BeforeValue();
  out_.push_back('[');
  stack_.push_back(Scope::kArray);
  has_items_.push_back(false);
}

void JsonWriter::EndArray() {
  assert(!stack_.empty() && stack_.back() == Scope::kArray);
  out_.push_back(']');
  stack_.pop_back();
  has_items_.pop_back();
}

void JsonWriter::Key(std::string_view key) {
  assert(!stack_.empty() && stack_.back() == Scope::kObject);
  assert(!pending_key_);
  if (has_items_.back()) {
    out_.push_back(',');
  }
  has_items_.back() = true;
  AppendEscaped(&out_, key);
  out_.push_back(':');
  pending_key_ = true;
}

void JsonWriter::Value(std::string_view v) {
  BeforeValue();
  AppendEscaped(&out_, v);
}

void JsonWriter::Value(bool v) {
  BeforeValue();
  out_.append(v ? "true" : "false");
}

void JsonWriter::Value(int64_t v) {
  BeforeValue();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
}

void JsonWriter::Value(uint64_t v) {
  BeforeValue();
  char buf[24];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  out_.append(buf, res.ptr);
}

void JsonWriter::Value(double v) {
  BeforeValue();
  out_.append(FormatDouble(v));
}

void JsonWriter::Null() {
  BeforeValue();
  out_.append("null");
}

void JsonWriter::AppendEscaped(std::string* out, std::string_view v) {
  out->push_back('"');
  const bool plain = std::none_of(v.begin(), v.end(), [](char c) {
    return c == '"' || c == '\\' || static_cast<unsigned char>(c) < 0x20;
  });
  if (plain) {
    out->append(v);
    out->push_back('"');
    return;
  }
  for (const char c : v) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(c);
        }
    }
  }
  out->push_back('"');
}

std::string JsonWriter::FormatDouble(double v) {
  if (!std::isfinite(v)) {
    return "null";
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

}  // namespace faascost
