#include "vds/vdl.hpp"

#include "common/strings.hpp"

namespace nvo::vds {

std::vector<std::string> Derivation::input_files() const {
  std::vector<std::string> out;
  for (const auto& [name, actual] : bindings) {
    if (actual.is_file && actual.direction == Direction::kIn) {
      out.push_back(actual.value);
    }
  }
  return out;
}

std::vector<std::string> Derivation::output_files() const {
  std::vector<std::string> out;
  for (const auto& [name, actual] : bindings) {
    if (actual.is_file && actual.direction == Direction::kOut) {
      out.push_back(actual.value);
    }
  }
  return out;
}

std::map<std::string, std::string> Derivation::scalar_args() const {
  std::map<std::string, std::string> out;
  for (const auto& [name, actual] : bindings) {
    if (!actual.is_file) out[name] = actual.value;
  }
  return out;
}

std::string to_vdl(const Transformation& tr) {
  std::vector<std::string> parts;
  for (const FormalArg& a : tr.args) {
    parts.push_back(std::string(a.direction == Direction::kIn ? "in " : "out ") +
                    a.name);
  }
  return "TR " + tr.name + "( " + join(parts, ", ") + " ) { }";
}

std::string to_vdl(const Derivation& dv) {
  std::vector<std::string> parts;
  for (const auto& [name, actual] : dv.bindings) {
    if (actual.is_file) {
      parts.push_back(format("%s=@{%s:\"%s\"}", name.c_str(),
                             actual.direction == Direction::kIn ? "in" : "out",
                             actual.value.c_str()));
    } else {
      parts.push_back(format("%s=\"%s\"", name.c_str(), actual.value.c_str()));
    }
  }
  return "DV " + dv.name + "->" + dv.transformation + "( " + join(parts, ", ") + " );";
}

}  // namespace nvo::vds
