// Tests for the Virtual Data System: DAG structure, VDL printing/parsing,
// the Virtual Data Catalog's validation rules, and Chimera composition.
#include <gtest/gtest.h>

#include <algorithm>

#include "vds/chimera.hpp"
#include "vds/dag.hpp"
#include "vds/vdl.hpp"
#include "vds/vdl_parser.hpp"

namespace nvo::vds {
namespace {

// ---------------------------------------------------------------------------
// Dag
// ---------------------------------------------------------------------------

Dag chain3() {
  Dag d;
  for (const char* id : {"a", "b", "c"}) {
    DagNode n;
    n.id = id;
    (void)d.add_node(n);
  }
  (void)d.add_edge("a", "b");
  (void)d.add_edge("b", "c");
  return d;
}

TEST(Dag, AddNodeRejectsDuplicates) {
  Dag d;
  DagNode n;
  n.id = "x";
  EXPECT_TRUE(d.add_node(n).ok());
  EXPECT_FALSE(d.add_node(n).ok());
}

TEST(Dag, EdgesAndDegrees) {
  const Dag d = chain3();
  EXPECT_EQ(d.num_nodes(), 3u);
  EXPECT_EQ(d.num_edges(), 2u);
  EXPECT_EQ(d.parents("b").size(), 1u);
  EXPECT_EQ(d.children("b").size(), 1u);
  EXPECT_EQ(d.roots(), std::vector<std::string>{"a"});
  EXPECT_EQ(d.leaves(), std::vector<std::string>{"c"});
}

TEST(Dag, EdgeToMissingNodeErrors) {
  Dag d = chain3();
  EXPECT_FALSE(d.add_edge("a", "zz").ok());
  EXPECT_FALSE(d.add_edge("zz", "a").ok());
}

TEST(Dag, DuplicateEdgeIgnored) {
  Dag d = chain3();
  EXPECT_TRUE(d.add_edge("a", "b").ok());
  EXPECT_EQ(d.num_edges(), 2u);
}

TEST(Dag, TopologicalOrderRespectsEdges) {
  Dag d;
  for (const char* id : {"d", "c", "b", "a"}) {  // inserted in reverse
    DagNode n;
    n.id = id;
    (void)d.add_node(n);
  }
  (void)d.add_edge("a", "b");
  (void)d.add_edge("b", "c");
  (void)d.add_edge("b", "d");
  auto order = d.topological_order();
  ASSERT_TRUE(order.ok());
  const auto& v = order.value();
  const auto pos = [&](const char* id) {
    return std::find(v.begin(), v.end(), id) - v.begin();
  };
  EXPECT_LT(pos("a"), pos("b"));
  EXPECT_LT(pos("b"), pos("c"));
  EXPECT_LT(pos("b"), pos("d"));
}

TEST(Dag, CycleDetected) {
  Dag d = chain3();
  (void)d.add_edge("c", "a");
  EXPECT_FALSE(d.topological_order().ok());
}

TEST(Dag, ToStringMentionsNodes) {
  const std::string s = chain3().to_string();
  EXPECT_NE(s.find("a"), std::string::npos);
  EXPECT_NE(s.find("->"), std::string::npos);
}

// ---------------------------------------------------------------------------
// VDL print / parse
// ---------------------------------------------------------------------------

// The paper's own example, verbatim modulo whitespace (§3.2).
const char* kPaperVdl = R"(
TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om, in flat,
             in image, out galMorph ) { }

DV d1->galMorph( redshift="0.027886",
                 image=@{in:"NGP9_F323-0927589.fit"},
                 pixScale="2.831933107035062E-4", zeroPoint="0", Ho="100",
                 om="0.3", flat="1",
                 galMorph=@{out:"NGP9_F323-0927589.txt"} );
)";

TEST(VdlParser, ParsesPaperExample) {
  auto doc = parse_vdl(kPaperVdl);
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  ASSERT_EQ(doc->transformations.size(), 1u);
  ASSERT_EQ(doc->derivations.size(), 1u);
  const Transformation& tr = doc->transformations[0];
  EXPECT_EQ(tr.name, "galMorph");
  ASSERT_EQ(tr.args.size(), 8u);
  EXPECT_EQ(tr.args[6].name, "image");
  EXPECT_EQ(tr.args[6].direction, Direction::kIn);
  EXPECT_EQ(tr.args[7].name, "galMorph");
  EXPECT_EQ(tr.args[7].direction, Direction::kOut);

  const Derivation& dv = doc->derivations[0];
  EXPECT_EQ(dv.name, "d1");
  EXPECT_EQ(dv.transformation, "galMorph");
  EXPECT_EQ(dv.bindings.at("redshift").value, "0.027886");
  EXPECT_FALSE(dv.bindings.at("redshift").is_file);
  EXPECT_TRUE(dv.bindings.at("image").is_file);
  EXPECT_EQ(dv.bindings.at("image").direction, Direction::kIn);
  EXPECT_EQ(dv.input_files(), std::vector<std::string>{"NGP9_F323-0927589.fit"});
  EXPECT_EQ(dv.output_files(), std::vector<std::string>{"NGP9_F323-0927589.txt"});
  EXPECT_EQ(dv.scalar_args().size(), 6u);
}

TEST(VdlParser, PrintParseRoundTrip) {
  auto doc = parse_vdl(kPaperVdl);
  ASSERT_TRUE(doc.ok());
  const std::string printed =
      to_vdl(doc->transformations[0]) + "\n" + to_vdl(doc->derivations[0]) + "\n";
  auto again = parse_vdl(printed);
  ASSERT_TRUE(again.ok()) << again.error().to_string() << "\n" << printed;
  EXPECT_EQ(again->transformations[0].args.size(), 8u);
  EXPECT_EQ(again->derivations[0].bindings.size(), 8u);
  EXPECT_EQ(again->derivations[0].bindings.at("image").value,
            "NGP9_F323-0927589.fit");
}

TEST(VdlParser, CommentsSkipped) {
  auto doc = parse_vdl("# comment\n// another\nTR t( in x ) { body { nested } }\n");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc->transformations.size(), 1u);
}

TEST(VdlParser, KeywordPrefixArgNames) {
  // Argument names starting with "in"/"out" must not confuse the lexer.
  auto doc = parse_vdl("TR t( in input, out output ) { }");
  ASSERT_TRUE(doc.ok()) << doc.error().to_string();
  EXPECT_EQ(doc->transformations[0].args[0].name, "input");
  EXPECT_EQ(doc->transformations[0].args[1].name, "output");
}

TEST(VdlParser, Malformed) {
  EXPECT_FALSE(parse_vdl("TR ( in x ) { }").ok());            // no name
  EXPECT_FALSE(parse_vdl("TR t( x ) { }").ok());              // no direction
  EXPECT_FALSE(parse_vdl("TR t( in x ) ").ok());              // no body
  EXPECT_FALSE(parse_vdl("DV d->t( x=1 );").ok());            // unquoted literal
  EXPECT_FALSE(parse_vdl("DV d->t( x=\"1\" )").ok());         // missing ';'
  EXPECT_FALSE(parse_vdl("DV d t( );").ok());                 // missing ->
  EXPECT_FALSE(parse_vdl("XX").ok());                         // unknown statement
  EXPECT_FALSE(parse_vdl("DV d->t( x=\"1\", x=\"2\" );").ok());  // dup binding
}

// ---------------------------------------------------------------------------
// VirtualDataCatalog validation
// ---------------------------------------------------------------------------

Transformation simple_tr(const std::string& name) {
  Transformation tr;
  tr.name = name;
  tr.args = {{"input", Direction::kIn}, {"output", Direction::kOut}};
  return tr;
}

Derivation simple_dv(const std::string& name, const std::string& tr,
                     const std::string& in_file, const std::string& out_file) {
  Derivation dv;
  dv.name = name;
  dv.transformation = tr;
  dv.bindings["input"] = ActualArg{true, in_file, Direction::kIn};
  dv.bindings["output"] = ActualArg{true, out_file, Direction::kOut};
  return dv;
}

TEST(Vdc, DefineAndLookup) {
  VirtualDataCatalog vdc;
  ASSERT_TRUE(vdc.define_transformation(simple_tr("t")).ok());
  ASSERT_TRUE(vdc.define_derivation(simple_dv("d1", "t", "a", "b")).ok());
  EXPECT_NE(vdc.transformation("t"), nullptr);
  EXPECT_NE(vdc.derivation("d1"), nullptr);
  EXPECT_EQ(vdc.producer("b")->name, "d1");
  EXPECT_EQ(vdc.producer("a"), nullptr);
}

TEST(Vdc, RejectsUnknownTransformation) {
  VirtualDataCatalog vdc;
  EXPECT_FALSE(vdc.define_derivation(simple_dv("d", "nope", "a", "b")).ok());
}

TEST(Vdc, RejectsUnboundFormal) {
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  Derivation dv;
  dv.name = "d";
  dv.transformation = "t";
  dv.bindings["input"] = ActualArg{true, "a", Direction::kIn};
  // "output" left unbound.
  EXPECT_FALSE(vdc.define_derivation(dv).ok());
}

TEST(Vdc, RejectsUnknownBinding) {
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  Derivation dv = simple_dv("d", "t", "a", "b");
  dv.bindings["bogus"] = ActualArg{false, "1", Direction::kIn};
  EXPECT_FALSE(vdc.define_derivation(dv).ok());
}

TEST(Vdc, RejectsDirectionMismatch) {
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  Derivation dv = simple_dv("d", "t", "a", "b");
  dv.bindings["input"].direction = Direction::kOut;  // formal says in
  EXPECT_FALSE(vdc.define_derivation(dv).ok());
}

TEST(Vdc, RejectsScalarBoundToOut) {
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  Derivation dv = simple_dv("d", "t", "a", "b");
  dv.bindings["output"] = ActualArg{false, "literal", Direction::kIn};
  EXPECT_FALSE(vdc.define_derivation(dv).ok());
}

TEST(Vdc, EnforcesSingleProducer) {
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  ASSERT_TRUE(vdc.define_derivation(simple_dv("d1", "t", "a", "b")).ok());
  EXPECT_FALSE(vdc.define_derivation(simple_dv("d2", "t", "x", "b")).ok());
}

// ---------------------------------------------------------------------------
// Chimera composition
// ---------------------------------------------------------------------------

TEST(Chimera, PaperFigure1Chain) {
  // d1: a -> b; d2: b -> c; requesting c composes d1 -> d2 (Fig. 1).
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  (void)vdc.define_derivation(simple_dv("d1", "t", "a", "b"));
  (void)vdc.define_derivation(simple_dv("d2", "t", "b", "c"));
  auto dag = compose_abstract_workflow(vdc, {"c"});
  ASSERT_TRUE(dag.ok()) << dag.error().to_string();
  EXPECT_EQ(dag->num_nodes(), 2u);
  EXPECT_EQ(dag->children("d1"), std::vector<std::string>{"d2"});
  EXPECT_EQ(raw_inputs(dag.value()), std::vector<std::string>{"a"});
}

TEST(Chimera, RequestingIntermediateStopsThere) {
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  (void)vdc.define_derivation(simple_dv("d1", "t", "a", "b"));
  (void)vdc.define_derivation(simple_dv("d2", "t", "b", "c"));
  auto dag = compose_abstract_workflow(vdc, {"b"});
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_nodes(), 1u);
  EXPECT_TRUE(dag->has_node("d1"));
}

TEST(Chimera, FanInComposition) {
  // concat consumes outputs of N independent derivations — the galMorph
  // workflow shape.
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  Transformation concat;
  concat.name = "concat";
  concat.args = {{"r0", Direction::kIn}, {"r1", Direction::kIn},
                 {"out", Direction::kOut}};
  (void)vdc.define_transformation(concat);
  (void)vdc.define_derivation(simple_dv("m0", "t", "img0", "res0"));
  (void)vdc.define_derivation(simple_dv("m1", "t", "img1", "res1"));
  Derivation dc;
  dc.name = "dc";
  dc.transformation = "concat";
  dc.bindings["r0"] = ActualArg{true, "res0", Direction::kIn};
  dc.bindings["r1"] = ActualArg{true, "res1", Direction::kIn};
  dc.bindings["out"] = ActualArg{true, "table.vot", Direction::kOut};
  ASSERT_TRUE(vdc.define_derivation(dc).ok());

  auto dag = compose_abstract_workflow(vdc, {"table.vot"});
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_nodes(), 3u);
  EXPECT_EQ(dag->parents("dc").size(), 2u);
  const auto raw = raw_inputs(dag.value());
  EXPECT_EQ(raw.size(), 2u);  // img0, img1
}

TEST(Chimera, SharedUpstreamNotDuplicated) {
  // Diamond: d0 produces base; d1 and d2 both consume it; d3 consumes both.
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  Transformation merge;
  merge.name = "merge";
  merge.args = {{"x", Direction::kIn}, {"y", Direction::kIn}, {"z", Direction::kOut}};
  (void)vdc.define_transformation(merge);
  (void)vdc.define_derivation(simple_dv("d0", "t", "raw", "base"));
  (void)vdc.define_derivation(simple_dv("d1", "t", "base", "left"));
  (void)vdc.define_derivation(simple_dv("d2", "t", "base", "right"));
  Derivation d3;
  d3.name = "d3";
  d3.transformation = "merge";
  d3.bindings["x"] = ActualArg{true, "left", Direction::kIn};
  d3.bindings["y"] = ActualArg{true, "right", Direction::kIn};
  d3.bindings["z"] = ActualArg{true, "final", Direction::kOut};
  (void)vdc.define_derivation(d3);

  auto dag = compose_abstract_workflow(vdc, {"final"});
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_nodes(), 4u);  // d0 appears once
  EXPECT_EQ(dag->children("d0").size(), 2u);
}

TEST(Chimera, UnknownRequestErrors) {
  VirtualDataCatalog vdc;
  auto dag = compose_abstract_workflow(vdc, {"nothing"});
  EXPECT_FALSE(dag.ok());
  EXPECT_EQ(dag.error().code, ErrorCode::kNotFound);
}

TEST(Chimera, MultiRequestComposesUnion) {
  VirtualDataCatalog vdc;
  (void)vdc.define_transformation(simple_tr("t"));
  (void)vdc.define_derivation(simple_dv("d1", "t", "a1", "b1"));
  (void)vdc.define_derivation(simple_dv("d2", "t", "a2", "b2"));
  auto dag = compose_abstract_workflow(vdc, {"b1", "b2"});
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_nodes(), 2u);
  EXPECT_EQ(dag->num_edges(), 0u);
}

TEST(Chimera, IngestDocument) {
  auto doc = parse_vdl(kPaperVdl);
  ASSERT_TRUE(doc.ok());
  VirtualDataCatalog vdc;
  ASSERT_TRUE(vdc.ingest(doc.value()).ok());
  auto dag = compose_abstract_workflow(vdc, {"NGP9_F323-0927589.txt"});
  ASSERT_TRUE(dag.ok());
  EXPECT_EQ(dag->num_nodes(), 1u);
  const DagNode* n = dag->node("d1");
  ASSERT_NE(n, nullptr);
  EXPECT_EQ(n->transformation, "galMorph");
  EXPECT_EQ(n->args.at("Ho"), "100");
}

}  // namespace
}  // namespace nvo::vds
