// Minimal JSON value type with parser and serializer.
//
// NSFlow uses JSON in three places, mirroring the paper's toolflow (Fig. 2):
//   * the program trace exchanged between workload profiler and frontend
//     ("Program Trace (.json)"),
//   * the system design configuration emitted by the DAG
//     ("System Design Config (.json)"),
//   * machine-readable experiment reports from the bench harness.
//
// The implementation is deliberately small: it supports the JSON subset those
// files need (objects, arrays, strings, numbers, bools, null; UTF-8 passed
// through verbatim; \uXXXX escapes decoded for the BMP).
#pragma once

#include <cstdint>
#include <initializer_list>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "common/error.h"

namespace nsflow {

class Json;

using JsonArray = std::vector<Json>;
// std::map keeps key order deterministic, which keeps emitted configs diffable.
using JsonObject = std::map<std::string, Json>;

/// A JSON document node.
class Json {
 public:
  enum class Type { kNull, kBool, kNumber, kString, kArray, kObject };

  Json() : value_(nullptr) {}
  Json(std::nullptr_t) : value_(nullptr) {}
  Json(bool b) : value_(b) {}
  Json(double d) : value_(d) {}
  Json(int i) : value_(static_cast<double>(i)) {}
  Json(std::int64_t i) : value_(static_cast<double>(i)) {}
  Json(std::uint64_t u) : value_(static_cast<double>(u)) {}
  Json(const char* s) : value_(std::string(s)) {}
  Json(std::string s) : value_(std::move(s)) {}
  Json(JsonArray a) : value_(std::move(a)) {}
  Json(JsonObject o) : value_(std::move(o)) {}

  Type type() const { return static_cast<Type>(value_.index()); }
  bool is_null() const { return type() == Type::kNull; }
  bool is_bool() const { return type() == Type::kBool; }
  bool is_number() const { return type() == Type::kNumber; }
  bool is_string() const { return type() == Type::kString; }
  bool is_array() const { return type() == Type::kArray; }
  bool is_object() const { return type() == Type::kObject; }

  /// Typed accessors; throw ParseError on type mismatch so that malformed
  /// configs surface with a useful message rather than UB.
  bool AsBool() const;
  double AsDouble() const;
  std::int64_t AsInt() const;
  const std::string& AsString() const;
  const JsonArray& AsArray() const;
  JsonArray& AsArray();
  const JsonObject& AsObject() const;
  JsonObject& AsObject();

  /// Object member access. `At` throws if missing; `Get` returns fallback.
  const Json& At(const std::string& key) const;
  bool Contains(const std::string& key) const;
  Json& operator[](const std::string& key);
  double GetNumberOr(const std::string& key, double fallback) const;
  std::string GetStringOr(const std::string& key,
                          const std::string& fallback) const;

  /// Array element access with bounds checking.
  const Json& At(std::size_t index) const;
  std::size_t size() const;

  /// Serialize. `indent` <= 0 produces compact single-line output.
  std::string Dump(int indent = 0) const;

  /// Parse a complete JSON document; trailing garbage is an error.
  static Json Parse(std::string_view text);

  friend bool operator==(const Json& a, const Json& b) {
    return a.value_ == b.value_;
  }

 private:
  void DumpTo(std::string& out, int indent, int depth) const;

  std::variant<std::nullptr_t, bool, double, std::string, JsonArray,
               JsonObject>
      value_;
};

/// The number and string formatters Json::Dump uses, for writers that
/// stream JSON text without building a tree (obs/chrome_trace.cpp).
///
/// Integral values below 1e15 in magnitude print as plain integers; every
/// other value prints as printf's "%.17g" would (std::to_chars, general
/// format, precision 17), which round-trips every double bit-exactly.
void AppendJsonNumber(std::string& out, double d);
/// `s` quoted, with '"', '\\' and control characters escaped.
void AppendJsonString(std::string& out, std::string_view s);

}  // namespace nsflow
