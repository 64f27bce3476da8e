// Generic VOTable manipulations. The paper singles these out: "the ability
// to join VOTables in a general way ... is one of a few general-purpose
// VOTable manipulations that should be implemented as a generic, external
// service" (§4.2) and "we also discovered the general utility of a service
// that could join two VOTables on an arbitrary column" (§5). This module is
// that service, implemented as a library the portal calls internally.
#pragma once

#include <functional>
#include <string>

#include "common/expected.hpp"
#include "votable/table.hpp"

namespace nvo::votable {

enum class JoinKind { kInner, kLeft };

/// Hash join of two tables on arbitrary key columns. Result columns are all
/// of `left` followed by all of `right` except the right key; name clashes
/// on non-key columns get a "_2" suffix. With kLeft, unmatched left rows are
/// kept with null right cells — exactly what the portal needs to merge
/// computed morphology back into the galaxy catalog when some galaxies
/// failed to compute.
Expected<Table> join(const Table& left, const Table& right,
                     const std::string& left_key, const std::string& right_key,
                     JoinKind kind = JoinKind::kInner);

/// Concatenates rows of `top` and `bottom`; schemas must match by column
/// name and datatype (order-insensitive; bottom columns are permuted). This
/// is the "final concatenation of results" the web service performs.
Expected<Table> vstack(const Table& top, const Table& bottom);

/// One-pass concatenation of many tables under vstack's schema rules, with
/// the first table supplying the output schema/name/description. Rows are
/// moved out of `parts`, so with k tables of n rows each this is O(k·n)
/// where a pairwise vstack fold re-copies the accumulator k times.
Expected<Table> vstack_all(std::vector<Table> parts);

/// Rows satisfying the predicate.
Table select(const Table& table, const std::function<bool(const Row&)>& predicate);

}  // namespace nvo::votable
