// The Chimera Virtual Data Language (VDL), per paper §3.2: transformations
// ("general descriptions of the transformation ... applied to data") and
// derivations ("instantiations of these transformations on specific
// datasets"). The concrete syntax follows the paper's example:
//
//   TR galMorph( in redshift, in pixScale, in zeroPoint, in Ho, in om,
//                in flat, in image, out galMorph ) { ... }
//
//   DV d1->galMorph( redshift="0.027886",
//                    image=@{in:"NGP9_F323-0927589.fit"},
//                    pixScale="2.831933107035062E-4", zeroPoint="0",
//                    Ho="100", om="0.3", flat="1",
//                    galMorph=@{out:"NGP9_F323-0927589.txt"} );
#pragma once

#include <map>
#include <optional>
#include <string>
#include <vector>

#include "common/expected.hpp"

namespace nvo::vds {

/// Formal-argument direction. Scalars are declared `in` in the paper's
/// example; files are distinguished at the derivation level by the @{...}
/// binding, so the TR only records direction.
enum class Direction { kIn, kOut };

struct FormalArg {
  std::string name;
  Direction direction = Direction::kIn;
};

/// A transformation template: logical name + formal arguments.
struct Transformation {
  std::string name;
  std::vector<FormalArg> args;
};

/// An actual argument in a derivation: either a scalar literal or a logical
/// file with a direction marker (@{in:"lfn"} / @{out:"lfn"}).
struct ActualArg {
  bool is_file = false;
  std::string value;  ///< scalar literal, or logical file name
  Direction direction = Direction::kIn;  ///< meaningful when is_file
};

/// A derivation: named instantiation of a transformation.
struct Derivation {
  std::string name;            ///< e.g. "d1"
  std::string transformation;  ///< TR it instantiates
  std::map<std::string, ActualArg> bindings;  ///< formal name -> actual

  /// Logical files consumed / produced (in binding order by formal name).
  std::vector<std::string> input_files() const;
  std::vector<std::string> output_files() const;
  /// Scalar parameters only.
  std::map<std::string, std::string> scalar_args() const;
};

/// Pretty-printers producing the concrete VDL syntax above (used by the
/// portal transform that writes derivation files, and in round-trip tests).
std::string to_vdl(const Transformation& tr);
std::string to_vdl(const Derivation& dv);

}  // namespace nvo::vds
