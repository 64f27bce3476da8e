// Tests for the XML substrate, the typed table model, VOTable round-trips,
// and the generic table operations (join/vstack/select).
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "votable/table.hpp"
#include "votable/table_ops.hpp"
#include "votable/votable_io.hpp"
#include "votable/xml.hpp"

namespace nvo::votable {
namespace {

// ---------------------------------------------------------------------------
// XML
// ---------------------------------------------------------------------------

TEST(Xml, EscapeAllSpecials) {
  EXPECT_EQ(xml_escape("a<b>&\"'c"), "a&lt;b&gt;&amp;&quot;&apos;c");
}

TEST(Xml, SerializeParseRoundTrip) {
  XmlNode root;
  root.name = "VOTABLE";
  root.set_attr("version", "1.1");
  XmlNode& child = root.append_child("RESOURCE");
  child.set_attr("name", "r<1>");
  child.append_child("INFO").text = "text & more";
  const std::string xml = xml_serialize(root);
  auto parsed = xml_parse(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ((*parsed)->name, "VOTABLE");
  EXPECT_EQ((*parsed)->attr("version").value(), "1.1");
  const XmlNode* resource = (*parsed)->child("RESOURCE");
  ASSERT_NE(resource, nullptr);
  EXPECT_EQ(resource->attr("name").value(), "r<1>");
  EXPECT_EQ(resource->child("INFO")->text, "text & more");
}

TEST(Xml, ParsesDeclarationAndComments) {
  const std::string doc =
      "<?xml version=\"1.0\"?>\n<!-- comment -->\n<root><!-- inner --><a/></root>";
  auto parsed = xml_parse(doc);
  ASSERT_TRUE(parsed.ok());
  EXPECT_NE((*parsed)->child("a"), nullptr);
}

TEST(Xml, ParsesCdata) {
  auto parsed = xml_parse("<r><![CDATA[<raw> & stuff]]></r>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->text, "<raw> & stuff");
}

TEST(Xml, ParsesNumericEntities) {
  auto parsed = xml_parse("<r>&#65;&#x42;</r>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->text, "AB");
}

TEST(Xml, RejectsMismatchedTags) {
  EXPECT_FALSE(xml_parse("<a><b></a></b>").ok());
}

TEST(Xml, RejectsTrailingGarbage) {
  EXPECT_FALSE(xml_parse("<a/>junk").ok());
}

TEST(Xml, RejectsUnterminated) {
  EXPECT_FALSE(xml_parse("<a><b>").ok());
  EXPECT_FALSE(xml_parse("<a attr=\"x>").ok());
}

TEST(Xml, ChildrenNamed) {
  auto parsed = xml_parse("<t><TR/><TR/><TD/></t>");
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ((*parsed)->children_named("TR").size(), 2u);
  EXPECT_EQ((*parsed)->children_named("TD").size(), 1u);
}

// ---------------------------------------------------------------------------
// Value / Table
// ---------------------------------------------------------------------------

TEST(Value, NullByDefault) {
  Value v;
  EXPECT_TRUE(v.is_null());
  EXPECT_FALSE(v.as_double().has_value());
  EXPECT_EQ(v.to_text(), "");
}

TEST(Value, TypedAccessRejectsWrongType) {
  const Value v = Value::of_string("abc");
  EXPECT_FALSE(v.as_double().has_value());
  EXPECT_EQ(v.as_string().value(), "abc");
}

TEST(Value, NumberCoercesLong) {
  EXPECT_DOUBLE_EQ(Value::of_long(42).as_number().value(), 42.0);
  EXPECT_DOUBLE_EQ(Value::of_double(1.5).as_number().value(), 1.5);
  EXPECT_FALSE(Value::of_string("5").as_number().has_value());
}

TEST(Value, ParseByType) {
  EXPECT_DOUBLE_EQ(Value::parse("2.5", DataType::kDouble)->as_double().value(), 2.5);
  EXPECT_EQ(Value::parse("17", DataType::kLong)->as_long().value(), 17);
  EXPECT_EQ(Value::parse("true", DataType::kBool)->as_bool().value(), true);
  EXPECT_EQ(Value::parse("F", DataType::kBool)->as_bool().value(), false);
  EXPECT_TRUE(Value::parse("", DataType::kDouble)->is_null());
  EXPECT_FALSE(Value::parse("xyz", DataType::kDouble).ok());
  EXPECT_FALSE(Value::parse("maybe", DataType::kBool).ok());
}

TEST(Value, NumericTextMatchesPrintf) {
  // Numeric cells are written with std::to_chars; the catalog bytes must be
  // exactly what snprintf "%.10g" / "%lld" wrote, on a fixed sample of bit
  // patterns plus the edge values.
  const auto printf_text = [](const char* fmt, auto v) {
    char buf[64];
    const int n = std::snprintf(buf, sizeof buf, fmt, v);
    return std::string(buf, static_cast<std::size_t>(n));
  };
  std::vector<double> doubles = {0.0,
                                 -0.0,
                                 1.0,
                                 -1.5,
                                 0.1,
                                 1e300,
                                 -1e300,
                                 1e-300,
                                 -1e-300,
                                 123456789012.0,
                                 9999999999.5,
                                 1e-5,
                                 1e10,
                                 std::numeric_limits<double>::denorm_min(),
                                 -std::numeric_limits<double>::denorm_min(),
                                 std::numeric_limits<double>::min() / 3,
                                 std::numeric_limits<double>::min(),
                                 std::numeric_limits<double>::max(),
                                 std::numeric_limits<double>::lowest(),
                                 std::numeric_limits<double>::infinity(),
                                 -std::numeric_limits<double>::infinity()};
  Rng rng(20031115);
  for (int i = 0; i < 20000; ++i) {
    doubles.push_back(std::bit_cast<double>(rng.next_u64()));
    doubles.push_back(rng.uniform(-1e6, 1e6));
  }
  for (const double v : doubles) {
    const std::string want = std::isnan(v) ? "" : printf_text("%.10g", v);
    EXPECT_EQ(Value::of_double(v).to_text(), want) << printf_text("%a", v);
  }
  std::vector<long long> longs = {0, 1, -1, std::numeric_limits<long long>::max(),
                                  std::numeric_limits<long long>::min()};
  for (int i = 0; i < 2000; ++i) longs.push_back(static_cast<long long>(rng.next_u64()));
  for (const long long v : longs) {
    EXPECT_EQ(Value::of_long(v).to_text(), printf_text("%lld", v));
  }
}

TEST(Table, AppendRowArityChecked) {
  Table t({Field{"a", DataType::kDouble}, Field{"b", DataType::kString}});
  EXPECT_TRUE(t.append_row({Value::of_double(1), Value::of_string("x")}).ok());
  EXPECT_FALSE(t.append_row({Value::of_double(1)}).ok());
  EXPECT_EQ(t.num_rows(), 1u);
}

TEST(Table, AddColumnBackfillsNull) {
  Table t({Field{"a", DataType::kDouble}});
  (void)t.append_row({Value::of_double(1)});
  t.add_column({"b", DataType::kString, "", "", ""});
  EXPECT_TRUE(t.row(0)[1].is_null());
  EXPECT_EQ(t.num_columns(), 2u);
}

TEST(Table, CellAccessByName) {
  Table t({Field{"a", DataType::kDouble}});
  (void)t.append_row({Value::of_double(3)});
  EXPECT_DOUBLE_EQ(t.cell(0, "a").as_double().value(), 3.0);
  EXPECT_TRUE(t.cell(0, "missing").is_null());
  EXPECT_TRUE(t.cell(5, "a").is_null());
  t.set_cell(0, "a", Value::of_double(9));
  EXPECT_DOUBLE_EQ(t.cell(0, "a").as_double().value(), 9.0);
}

// ---------------------------------------------------------------------------
// VOTable IO
// ---------------------------------------------------------------------------

Table sample_table() {
  Table t({
      Field{"id", DataType::kString, "", "meta.id", "identifier"},
      Field{"ra", DataType::kDouble, "deg", "pos.eq.ra", ""},
      Field{"n", DataType::kLong, "", "", ""},
      Field{"ok", DataType::kBool, "", "", ""},
  });
  t.name = "sample";
  t.description = "test table";
  (void)t.append_row({Value::of_string("g1"), Value::of_double(137.25),
                      Value::of_long(5), Value::of_bool(true)});
  (void)t.append_row({Value::of_string("g2"), Value(), Value::of_long(-2),
                      Value::of_bool(false)});
  return t;
}

TEST(VoTable, RoundTrip) {
  const Table t = sample_table();
  const std::string xml = to_votable_xml(t);
  auto parsed = from_votable_xml(xml);
  ASSERT_TRUE(parsed.ok()) << parsed.error().to_string();
  EXPECT_EQ(parsed->name, "sample");
  EXPECT_EQ(parsed->description, "test table");
  ASSERT_EQ(parsed->num_rows(), 2u);
  ASSERT_EQ(parsed->num_columns(), 4u);
  EXPECT_EQ(parsed->cell(0, "id").as_string().value(), "g1");
  EXPECT_DOUBLE_EQ(parsed->cell(0, "ra").as_double().value(), 137.25);
  EXPECT_TRUE(parsed->cell(1, "ra").is_null());  // null survives
  EXPECT_EQ(parsed->cell(1, "n").as_long().value(), -2);
  EXPECT_EQ(parsed->cell(1, "ok").as_bool().value(), false);
  EXPECT_EQ(parsed->fields()[1].unit, "deg");
  EXPECT_EQ(parsed->fields()[1].ucd, "pos.eq.ra");
}

TEST(VoTable, HeaderOnlyTable) {
  Table t({Field{"a", DataType::kDouble}});
  auto parsed = from_votable_xml(to_votable_xml(t));
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 0u);
}

TEST(VoTable, RejectsWrongRoot) {
  EXPECT_FALSE(from_votable_xml("<NOTVOT/>").ok());
}

TEST(VoTable, RejectsCellCountMismatch) {
  const std::string bad =
      "<VOTABLE><RESOURCE><TABLE>"
      "<FIELD name=\"a\" datatype=\"double\"/>"
      "<FIELD name=\"b\" datatype=\"double\"/>"
      "<DATA><TABLEDATA><TR><TD>1</TD></TR></TABLEDATA></DATA>"
      "</TABLE></RESOURCE></VOTABLE>";
  EXPECT_FALSE(from_votable_xml(bad).ok());
}

TEST(VoTable, FileRoundTrip) {
  const Table t = sample_table();
  const std::string path = ::testing::TempDir() + "/nvo_table.vot";
  ASSERT_TRUE(write_votable_file(path, t).ok());
  auto parsed = read_votable_file(path);
  ASSERT_TRUE(parsed.ok());
  EXPECT_EQ(parsed->num_rows(), 2u);
}

// ---------------------------------------------------------------------------
// table ops
// ---------------------------------------------------------------------------

Table left_table() {
  Table t({Field{"id", DataType::kString}, Field{"ra", DataType::kDouble}});
  t.name = "left";
  (void)t.append_row({Value::of_string("a"), Value::of_double(1)});
  (void)t.append_row({Value::of_string("b"), Value::of_double(2)});
  (void)t.append_row({Value::of_string("c"), Value::of_double(3)});
  return t;
}

Table right_table() {
  Table t({Field{"key", DataType::kString}, Field{"ra", DataType::kDouble},
           Field{"v", DataType::kLong}});
  t.name = "right";
  (void)t.append_row({Value::of_string("a"), Value::of_double(10), Value::of_long(1)});
  (void)t.append_row({Value::of_string("c"), Value::of_double(30), Value::of_long(3)});
  (void)t.append_row({Value::of_string("d"), Value::of_double(40), Value::of_long(4)});
  return t;
}

TEST(TableOps, InnerJoinMatchesOnly) {
  auto j = join(left_table(), right_table(), "id", "key", JoinKind::kInner);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 2u);  // a, c
  EXPECT_EQ(j->cell(0, "id").as_string().value(), "a");
  EXPECT_EQ(j->cell(0, "v").as_long().value(), 1);
}

TEST(TableOps, LeftJoinKeepsUnmatchedWithNulls) {
  auto j = join(left_table(), right_table(), "id", "key", JoinKind::kLeft);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 3u);
  EXPECT_TRUE(j->cell(1, "v").is_null());  // "b" had no match
}

TEST(TableOps, JoinRenamesClashingColumns) {
  auto j = join(left_table(), right_table(), "id", "key", JoinKind::kInner);
  ASSERT_TRUE(j.ok());
  EXPECT_TRUE(j->column_index("ra").has_value());
  EXPECT_TRUE(j->column_index("ra_2").has_value());
  EXPECT_DOUBLE_EQ(j->cell(0, "ra").as_double().value(), 1.0);
  EXPECT_DOUBLE_EQ(j->cell(0, "ra_2").as_double().value(), 10.0);
}

TEST(TableOps, JoinMissingKeyColumnErrors) {
  EXPECT_FALSE(join(left_table(), right_table(), "nope", "key").ok());
  EXPECT_FALSE(join(left_table(), right_table(), "id", "nope").ok());
}

TEST(TableOps, JoinNullKeysNeverMatch) {
  Table l({Field{"id", DataType::kString}});
  (void)l.append_row({Value()});
  Table r({Field{"id", DataType::kString}, Field{"x", DataType::kLong}});
  (void)r.append_row({Value(), Value::of_long(1)});
  auto j = join(l, r, "id", "id", JoinKind::kInner);
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 0u);
}

TEST(TableOps, JoinCoercesNumericKeyText) {
  // A long 42 in one catalog matches the string "42" in another.
  Table l({Field{"k", DataType::kLong}});
  (void)l.append_row({Value::of_long(42)});
  Table r({Field{"k", DataType::kString}, Field{"x", DataType::kLong}});
  (void)r.append_row({Value::of_string("42"), Value::of_long(7)});
  auto j = join(l, r, "k", "k");
  ASSERT_TRUE(j.ok());
  EXPECT_EQ(j->num_rows(), 1u);
}

TEST(TableOps, VstackReordersColumnsByName) {
  Table top({Field{"a", DataType::kLong}, Field{"b", DataType::kString}});
  (void)top.append_row({Value::of_long(1), Value::of_string("x")});
  Table bottom({Field{"b", DataType::kString}, Field{"a", DataType::kLong}});
  (void)bottom.append_row({Value::of_string("y"), Value::of_long(2)});
  auto v = vstack(top, bottom);
  ASSERT_TRUE(v.ok());
  EXPECT_EQ(v->num_rows(), 2u);
  EXPECT_EQ(v->cell(1, "a").as_long().value(), 2);
  EXPECT_EQ(v->cell(1, "b").as_string().value(), "y");
}

TEST(TableOps, VstackRejectsSchemaMismatch) {
  Table top({Field{"a", DataType::kLong}});
  Table missing({Field{"z", DataType::kLong}});
  EXPECT_FALSE(vstack(top, missing).ok());
  Table wrong_type({Field{"a", DataType::kString}});
  EXPECT_FALSE(vstack(top, wrong_type).ok());
}

TEST(TableOps, SelectFilters) {
  const Table t = left_table();
  const auto ra = t.column_index("ra").value();
  const Table s = select(t, [&](const Row& r) { return r[ra].as_double() > 1.5; });
  EXPECT_EQ(s.num_rows(), 2u);
}

}  // namespace
}  // namespace nvo::votable
