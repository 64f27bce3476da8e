#include "votable/table_ops.hpp"

#include <algorithm>
#include <unordered_map>

#include "common/strings.hpp"

namespace nvo::votable {

namespace {

/// Join keys compare by canonical text, so a long 42 matches a string "42"
/// coming from a different archive's schema — the heterogeneity the paper's
/// catalogs actually exhibited.
std::string key_text(const Value& v) { return v.to_text(); }

/// Fills `keys` with canonical key texts and reports whether every key is
/// non-null and strictly increasing. When both operands of a join satisfy
/// this (the common case for catalogs keyed on generator-ordered galaxy
/// ids), a single forward merge reproduces the hash join's output — keys
/// are unique, so each left row has at most one match and output order is
/// left order either way — without materializing the index.
bool strictly_increasing_keys(const Table& t, std::size_t key_col,
                              std::vector<std::string>& keys) {
  keys.clear();
  keys.reserve(t.num_rows());
  for (std::size_t r = 0; r < t.num_rows(); ++r) {
    const Value& v = t.row(r)[key_col];
    if (v.is_null()) return false;
    keys.push_back(key_text(v));
    if (r > 0 && !(keys[r - 1] < keys[r])) return false;
  }
  return true;
}

}  // namespace

Expected<Table> join(const Table& left, const Table& right,
                     const std::string& left_key, const std::string& right_key,
                     JoinKind kind) {
  const auto lk = left.column_index(left_key);
  if (!lk) return Error(ErrorCode::kNotFound, "left key column '" + left_key + "'");
  const auto rk = right.column_index(right_key);
  if (!rk) return Error(ErrorCode::kNotFound, "right key column '" + right_key + "'");

  // Output schema.
  std::vector<Field> fields = left.fields();
  std::vector<std::size_t> right_cols;  // column indices copied from right
  for (std::size_t c = 0; c < right.num_columns(); ++c) {
    if (c == *rk) continue;
    Field f = right.fields()[c];
    const bool clash = std::any_of(fields.begin(), fields.end(),
                                   [&](const Field& g) { return g.name == f.name; });
    if (clash) f.name += "_2";
    fields.push_back(std::move(f));
    right_cols.push_back(c);
  }
  Table out(std::move(fields));
  out.name = left.name;
  out.description = "join(" + left.name + ", " + right.name + ") on " + left_key;

  // Merge fast path: both key columns pre-sorted (strictly increasing) —
  // one synchronized forward pass, no hash table.
  std::vector<std::string> lkeys, rkeys;
  if (strictly_increasing_keys(left, *lk, lkeys) &&
      strictly_increasing_keys(right, *rk, rkeys)) {
    std::size_t ri = 0;
    for (std::size_t lr = 0; lr < left.num_rows(); ++lr) {
      while (ri < right.num_rows() && rkeys[ri] < lkeys[lr]) ++ri;
      if (ri < right.num_rows() && rkeys[ri] == lkeys[lr]) {
        Row row = left.row(lr);
        row.reserve(row.size() + right_cols.size());
        for (std::size_t c : right_cols) row.push_back(right.row(ri)[c]);
        (void)out.append_row(std::move(row));
      } else if (kind == JoinKind::kLeft) {
        Row row = left.row(lr);
        row.resize(row.size() + right_cols.size());  // null-filled right side
        (void)out.append_row(std::move(row));
      }
    }
    return out;
  }

  // Build hash index over the right table.
  std::unordered_multimap<std::string, std::size_t> index;
  index.reserve(right.num_rows());
  for (std::size_t r = 0; r < right.num_rows(); ++r) {
    const Value& v = right.row(r)[*rk];
    if (v.is_null()) continue;  // null keys never match
    index.emplace(key_text(v), r);
  }

  for (std::size_t lr = 0; lr < left.num_rows(); ++lr) {
    const Value& key = left.row(lr)[*lk];
    bool matched = false;
    if (!key.is_null()) {
      auto [begin, end] = index.equal_range(key_text(key));
      for (auto it = begin; it != end; ++it) {
        Row row = left.row(lr);
        row.reserve(row.size() + right_cols.size());
        for (std::size_t c : right_cols) row.push_back(right.row(it->second)[c]);
        (void)out.append_row(std::move(row));
        matched = true;
      }
    }
    if (!matched && kind == JoinKind::kLeft) {
      Row row = left.row(lr);
      row.resize(row.size() + right_cols.size());  // null-filled right side
      (void)out.append_row(std::move(row));
    }
  }
  return out;
}

Expected<Table> vstack(const Table& top, const Table& bottom) {
  // Map bottom columns onto top's schema by name.
  std::vector<std::size_t> mapping(top.num_columns());
  for (std::size_t c = 0; c < top.num_columns(); ++c) {
    const Field& f = top.fields()[c];
    const auto idx = bottom.column_index(f.name);
    if (!idx) {
      return Error(ErrorCode::kInvalidArgument,
                   "vstack: bottom table lacks column '" + f.name + "'");
    }
    if (bottom.fields()[*idx].datatype != f.datatype) {
      return Error(ErrorCode::kInvalidArgument,
                   "vstack: datatype mismatch on column '" + f.name + "'");
    }
    mapping[c] = *idx;
  }
  Table out(top.fields());
  out.name = top.name;
  out.description = top.description;
  out.reserve_rows(top.num_rows() + bottom.num_rows());
  for (const Row& r : top.rows()) (void)out.append_row(r);
  for (const Row& r : bottom.rows()) {
    Row row;
    row.reserve(mapping.size());
    for (std::size_t c : mapping) row.push_back(r[c]);
    (void)out.append_row(std::move(row));
  }
  return out;
}

Expected<Table> vstack_all(std::vector<Table> parts) {
  if (parts.empty()) return Table();
  Table out(parts.front().fields());
  out.name = parts.front().name;
  out.description = parts.front().description;
  std::size_t total_rows = 0;
  for (const Table& t : parts) total_rows += t.num_rows();
  out.reserve_rows(total_rows);
  for (Table& t : parts) {
    // Map this part's columns onto the output schema by name (same rules as
    // vstack), then move its rows across.
    std::vector<std::size_t> mapping(out.num_columns());
    bool identity = true;
    for (std::size_t c = 0; c < out.num_columns(); ++c) {
      const Field& f = out.fields()[c];
      const auto idx = t.column_index(f.name);
      if (!idx) {
        return Error(ErrorCode::kInvalidArgument,
                     "vstack: table lacks column '" + f.name + "'");
      }
      if (t.fields()[*idx].datatype != f.datatype) {
        return Error(ErrorCode::kInvalidArgument,
                     "vstack: datatype mismatch on column '" + f.name + "'");
      }
      mapping[c] = *idx;
      identity = identity && *idx == c;
    }
    for (std::size_t r = 0; r < t.num_rows(); ++r) {
      if (identity) {
        (void)out.append_row(std::move(t.row(r)));
      } else {
        Row row;
        row.reserve(mapping.size());
        for (std::size_t c : mapping) row.push_back(std::move(t.row(r)[c]));
        (void)out.append_row(std::move(row));
      }
    }
  }
  return out;
}

Table select(const Table& table, const std::function<bool(const Row&)>& predicate) {
  Table out(table.fields());
  out.name = table.name;
  out.description = table.description;
  for (const Row& r : table.rows()) {
    if (predicate(r)) (void)out.append_row(r);
  }
  return out;
}

}  // namespace nvo::votable
