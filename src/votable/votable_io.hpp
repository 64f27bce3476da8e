// VOTable serialization: Table <-> the VOTABLE XML dialect the paper's
// portal, web service, and visualization tools exchanged ("by virtue of
// being XML, VOTable is readily created and manipulated with off-the-shelf
// tools"). We emit the 1.1-style layout the NVO prototypes used:
//
//   <VOTABLE version="1.1">
//     <RESOURCE>
//       <TABLE name="...">
//         <DESCRIPTION>...</DESCRIPTION>
//         <FIELD name="ra" datatype="double" unit="deg" ucd="pos.eq.ra"/>
//         ...
//         <DATA><TABLEDATA><TR><TD>...</TD>...</TR>...</TABLEDATA></DATA>
//       </TABLE>
//     </RESOURCE>
//   </VOTABLE>
#pragma once

#include <string>

#include "common/expected.hpp"
#include "votable/table.hpp"
#include "votable/xml.hpp"

namespace nvo::votable {

/// Serializes a Table to VOTable XML text.
std::string to_votable_xml(const Table& table);

/// Single-pass, reserve-ahead serializer into a caller-owned buffer
/// (cleared first). Output is byte-identical to the tree-based path; a
/// reused buffer makes steady-state serialization allocation-free.
void to_votable_xml(const Table& table, std::string& out);

/// Builds the XML document tree without flattening to text. No request path
/// calls it: it is the tree-based reference that the single-pass writers
/// above are checked byte-identical against.
std::unique_ptr<XmlNode> to_votable_tree(const Table& table);

/// Incremental VOTable serializer: begin(schema) + N x row(...) + end()
/// append exactly the bytes to_votable_xml would produce for the same
/// schema and row sequence (to_votable_xml is itself implemented on top of
/// this class), but one row at a time — a survey-scale catalog can stream
/// through a small reused buffer instead of ever existing as a Table.
/// The caller may drain the buffer between calls (e.g. flush to a file);
/// the writer only ever appends.
class VotableXmlStream {
 public:
  /// Document prologue from the schema (fields + name/description; any rows
  /// in `schema` are ignored). Emits everything up to the TABLEDATA
  /// element, which is deferred to row()/end() so an empty table
  /// self-closes exactly as the batch serializer does.
  void begin(const Table& schema, std::string& out);
  /// One TR element. Cells render through the same Value text path as the
  /// batch serializer (null/NaN/empty cells self-close).
  void row(const Row& row, std::string& out);
  /// TABLEDATA closer + document epilogue.
  void end(std::string& out);

 private:
  bool any_rows_ = false;
};

/// Parses the first TABLE of the first RESOURCE of a VOTable document.
Expected<Table> from_votable_xml(const std::string& xml_text);

/// Parses from an already-built document tree.
Expected<Table> from_votable_tree(const XmlNode& root);

/// Reusable single-pass VOTable parser. `read` refills `out` in place: when
/// the document's schema matches the table's current fields, row and cell
/// storage is recycled, so re-parsing same-shaped documents performs zero
/// heap allocations. Documents that deviate from the canonical layout our
/// serializer emits (comments, CDATA, foreign elements) fall back to the
/// tree parser transparently.
class VotableReader {
 public:
  Status read(const std::string& xml_text, Table& out);

 private:
  enum class FastResult { kOk, kFallback, kError };
  FastResult try_fast(Table& out);
  FastResult parse_rows(Table& out);
  bool match(std::string_view token);
  void skip_ws();
  int parse_attr(std::string_view& key, std::string_view& raw_value);
  bool read_text_until_lt(std::string_view& raw);
  std::string_view unescaped(std::string_view raw);
  static void assign_unescaped(std::string_view raw, std::string& target);

  std::string_view s_;
  std::size_t pos_ = 0;
  Error error_{ErrorCode::kParseError, ""};
  std::string scratch_;          ///< entity-unescape buffer, capacity reused
  std::vector<Field> fields_;    ///< parsed schema, storage reused
};

/// File-system convenience wrappers.
Status write_votable_file(const std::string& path, const Table& table);
Expected<Table> read_votable_file(const std::string& path);

}  // namespace nvo::votable
