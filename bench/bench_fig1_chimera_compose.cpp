// F1 — Paper Figure 1: the abstract workflow Chimera composes from
// derivations ("if a user requests file c, Chimera will produce the
// workflow d1 -> b -> d2 -> c"). Prints the composed Fig.-1 DAG and the
// galMorph fan-in DAGs of the paper's smallest, middle and largest clusters.
// Claims: requesting f2 composes d1 -> d2 with raw input a, and a fan-in of
// N galaxies has N+1 nodes and N edges.
#include <cstdio>

#include "shape_claims.hpp"
#include "vds/chimera.hpp"

namespace {

using namespace nvo;

/// The paper's exact scenario: d1: a -> f1, d2: f1 -> f2 (the figure's b
/// and c).
vds::VirtualDataCatalog paper_chain() {
  vds::VirtualDataCatalog vdc;
  vds::Transformation tr;
  tr.name = "t";
  tr.args = {{"input", vds::Direction::kIn}, {"output", vds::Direction::kOut}};
  (void)vdc.define_transformation(tr);
  auto dv = [&](const char* name, const char* in, const char* out) {
    vds::Derivation d;
    d.name = name;
    d.transformation = "t";
    d.bindings["input"] = vds::ActualArg{true, in, vds::Direction::kIn};
    d.bindings["output"] = vds::ActualArg{true, out, vds::Direction::kOut};
    (void)vdc.define_derivation(d);
  };
  dv("d1", "a", "f1");
  dv("d2", "f1", "f2");
  return vdc;
}

/// The galMorph shape: N leaf derivations fanning into one concat.
vds::VirtualDataCatalog fanin_catalog(int width) {
  vds::VirtualDataCatalog vdc;
  vds::Transformation leaf;
  leaf.name = "galMorph";
  leaf.args = {{"image", vds::Direction::kIn}, {"galMorph", vds::Direction::kOut}};
  (void)vdc.define_transformation(leaf);
  vds::Transformation concat;
  concat.name = "concat";
  for (int i = 0; i < width; ++i) {
    concat.args.push_back({"r" + std::to_string(i), vds::Direction::kIn});
  }
  concat.args.push_back({"votable", vds::Direction::kOut});
  (void)vdc.define_transformation(concat);
  vds::Derivation dc;
  dc.name = "concat_all";
  dc.transformation = "concat";
  for (int i = 0; i < width; ++i) {
    vds::Derivation d;
    d.name = "m" + std::to_string(i);
    d.transformation = "galMorph";
    d.bindings["image"] =
        vds::ActualArg{true, "img" + std::to_string(i) + ".fit", vds::Direction::kIn};
    d.bindings["galMorph"] =
        vds::ActualArg{true, "res" + std::to_string(i) + ".txt", vds::Direction::kOut};
    (void)vdc.define_derivation(d);
    dc.bindings["r" + std::to_string(i)] =
        vds::ActualArg{true, "res" + std::to_string(i) + ".txt", vds::Direction::kIn};
  }
  dc.bindings["votable"] = vds::ActualArg{true, "out.vot", vds::Direction::kOut};
  (void)vdc.define_derivation(dc);
  return vdc;
}

int run_figure1() {
  bench::ShapeClaims claims;
  std::printf("=== Figure 1: abstract workflow composed by Chimera ===\n");
  vds::VirtualDataCatalog vdc = paper_chain();
  auto dag = vds::compose_abstract_workflow(vdc, {"f2"});
  if (!dag.ok()) {
    claims.check(false, "f2 composes: " + dag.error().to_string());
    return claims.exit_code();
  }
  std::printf("request: f2 (the paper's 'c')\n%s", dag->to_string().c_str());
  std::printf("raw inputs: ");
  const std::vector<std::string> raw = vds::raw_inputs(dag.value());
  for (const std::string& lfn : raw) std::printf("%s ", lfn.c_str());
  std::printf("\n\n");
  claims.check(dag->num_nodes() == 2 && dag->num_edges() == 1 &&
                   dag->children("d1") == std::vector<std::string>{"d2"},
               "requesting f2 composes d1 -> d2");
  claims.check(raw == std::vector<std::string>{"a"}, "the only raw input is a");

  std::printf("composition scaling (galMorph fan-in shape):\n");
  std::printf("%10s %12s %12s\n", "galaxies", "dag nodes", "dag edges");
  for (int width : {37, 152, 561}) {  // the paper's min/mid/max cluster sizes
    vds::VirtualDataCatalog fan = fanin_catalog(width);
    auto fan_dag = vds::compose_abstract_workflow(fan, {"out.vot"});
    const std::size_t n = static_cast<std::size_t>(width);
    const std::size_t nodes = fan_dag.ok() ? fan_dag->num_nodes() : 0;
    const std::size_t edges = fan_dag.ok() ? fan_dag->num_edges() : 0;
    std::printf("%10d %12zu %12zu\n", width, nodes, edges);
    claims.check(nodes == n + 1 && edges == n,
                 "a fan-in of " + std::to_string(width) + " galaxies has " +
                     std::to_string(n + 1) + " nodes and " +
                     std::to_string(n) + " edges");
  }
  return claims.exit_code();
}

}  // namespace

int main() { return run_figure1(); }
