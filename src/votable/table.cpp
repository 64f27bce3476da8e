#include "votable/table.hpp"

#include <charconv>
#include <cmath>

#include "common/strings.hpp"

namespace nvo::votable {

const Value Table::kNull{};

const char* to_votable_datatype(DataType t) {
  switch (t) {
    case DataType::kDouble:
      return "double";
    case DataType::kLong:
      return "long";
    case DataType::kString:
      return "char";
    case DataType::kBool:
      return "boolean";
  }
  return "char";
}

std::optional<DataType> datatype_from_votable(const std::string& s) {
  if (s == "double" || s == "float") return DataType::kDouble;
  if (s == "long" || s == "int" || s == "short") return DataType::kLong;
  if (s == "char" || s == "unicodeChar") return DataType::kString;
  if (s == "boolean") return DataType::kBool;
  return std::nullopt;
}

std::optional<double> Value::as_double() const {
  if (!payload_) return std::nullopt;
  if (const double* v = std::get_if<double>(&*payload_)) return *v;
  return std::nullopt;
}

std::optional<long long> Value::as_long() const {
  if (!payload_) return std::nullopt;
  if (const long long* v = std::get_if<long long>(&*payload_)) return *v;
  return std::nullopt;
}

std::optional<std::string> Value::as_string() const {
  if (!payload_) return std::nullopt;
  if (const std::string* v = std::get_if<std::string>(&*payload_)) return *v;
  return std::nullopt;
}

std::optional<bool> Value::as_bool() const {
  if (!payload_) return std::nullopt;
  if (const bool* v = std::get_if<bool>(&*payload_)) return *v;
  return std::nullopt;
}

const std::string* Value::string_ref() const {
  if (!payload_) return nullptr;
  return std::get_if<std::string>(&*payload_);
}

std::optional<double> Value::as_number() const {
  if (!payload_) return std::nullopt;
  if (const double* v = std::get_if<double>(&*payload_)) return *v;
  if (const long long* v = std::get_if<long long>(&*payload_)) {
    return static_cast<double>(*v);
  }
  return std::nullopt;
}

std::string Value::to_text() const {
  std::string out;
  append_text_to(out);
  return out;
}

void Value::append_text_to(std::string& out) const {
  if (!payload_) return;
  if (const double* v = std::get_if<double>(&*payload_)) {
    if (std::isnan(*v)) return;
    // The characters printf's "%.10g" writes, without the format parsing.
    char buf[32];
    const auto r = std::to_chars(buf, buf + sizeof buf, *v, std::chars_format::general, 10);
    out.append(buf, r.ptr);
    return;
  }
  if (const long long* v = std::get_if<long long>(&*payload_)) {
    char buf[24];
    const auto r = std::to_chars(buf, buf + sizeof buf, *v);
    out.append(buf, r.ptr);
    return;
  }
  if (const std::string* v = std::get_if<std::string>(&*payload_)) {
    out.append(*v);
    return;
  }
  if (const bool* v = std::get_if<bool>(&*payload_)) {
    out.append(*v ? "true" : "false");
  }
}

Expected<Value> Value::parse(const std::string& text, DataType type) {
  Value v;
  const Status s = v.assign_parse(text, type);
  if (!s.ok()) return s.error();
  return v;
}

namespace {

/// Case-insensitive match against a lowercase literal, without allocating.
bool iequals_lower(std::string_view s, std::string_view lower_literal) {
  if (s.size() != lower_literal.size()) return false;
  for (std::size_t i = 0; i < s.size(); ++i) {
    char c = s[i];
    if (c >= 'A' && c <= 'Z') c = static_cast<char>(c - 'A' + 'a');
    if (c != lower_literal[i]) return false;
  }
  return true;
}

}  // namespace

Status Value::assign_parse(std::string_view text, DataType type) {
  const std::string_view t = trim(text);
  if (t.empty()) {
    payload_.reset();
    return Status::Ok();
  }
  switch (type) {
    case DataType::kDouble: {
      double v = 0.0;
      const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      if (ec != std::errc() || ptr != t.data() + t.size()) {
        // from_chars rejects forms strtod accepts (leading '+', "INF" case
        // variants); fall back for those rather than losing them.
        const auto slow = parse_double(t);
        if (!slow) {
          return Error(ErrorCode::kParseError, "bad double: '" + std::string(t) + "'");
        }
        v = *slow;
      }
      payload_ = Payload(v);
      return Status::Ok();
    }
    case DataType::kLong: {
      long long v = 0;
      const auto [ptr, ec] = std::from_chars(t.data(), t.data() + t.size(), v);
      if (ec != std::errc() || ptr != t.data() + t.size()) {
        const auto slow = parse_int(t);
        if (!slow) {
          return Error(ErrorCode::kParseError, "bad long: '" + std::string(t) + "'");
        }
        v = *slow;
      }
      payload_ = Payload(v);
      return Status::Ok();
    }
    case DataType::kString: {
      if (payload_.has_value()) {
        if (std::string* s = std::get_if<std::string>(&*payload_)) {
          s->assign(t.data(), t.size());  // reuse capacity
          return Status::Ok();
        }
      }
      payload_.emplace(std::in_place_type<std::string>, t.data(), t.size());
      return Status::Ok();
    }
    case DataType::kBool: {
      if (iequals_lower(t, "true") || iequals_lower(t, "t") || t == "1") {
        payload_ = Payload(true);
        return Status::Ok();
      }
      if (iequals_lower(t, "false") || iequals_lower(t, "f") || t == "0") {
        payload_ = Payload(false);
        return Status::Ok();
      }
      return Error(ErrorCode::kParseError, "bad boolean: '" + std::string(t) + "'");
    }
  }
  return Error(ErrorCode::kParseError, "unknown datatype");
}

bool Value::operator==(const Value& other) const {
  if (is_null() || other.is_null()) return is_null() && other.is_null();
  return *payload_ == *other.payload_;
}

std::optional<std::size_t> Table::column_index(const std::string& name) const {
  for (std::size_t i = 0; i < fields_.size(); ++i) {
    if (fields_[i].name == name) return i;
  }
  return std::nullopt;
}

void Table::add_column(Field field) {
  fields_.push_back(std::move(field));
  for (auto& r : rows_) r.emplace_back();
}

Status Table::append_row(Row row) {
  if (row.size() != fields_.size()) {
    return Error(ErrorCode::kInvalidArgument,
                 format("row arity %zu != %zu columns", row.size(), fields_.size()));
  }
  rows_.push_back(std::move(row));
  return Status::Ok();
}

void Table::resize_rows(std::size_t n) {
  const std::size_t old = rows_.size();
  rows_.resize(n);
  for (std::size_t i = old; i < rows_.size(); ++i) rows_[i].resize(fields_.size());
}

const Value& Table::cell(std::size_t row_index, const std::string& column) const {
  const auto idx = column_index(column);
  if (!idx || row_index >= rows_.size()) return kNull;
  return rows_[row_index][*idx];
}

void Table::set_cell(std::size_t row_index, const std::string& column, Value v) {
  const auto idx = column_index(column);
  if (!idx || row_index >= rows_.size()) return;
  rows_[row_index][*idx] = std::move(v);
}

}  // namespace nvo::votable
