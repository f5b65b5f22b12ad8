// Errors for the rckAlign application layer.
//
// Part of the rck::Error taxonomy (DESIGN.md, "Error taxonomy"): invalid
// run parameters (bad slave counts, empty datasets, mismatched caches)
// across app/pairs/blocked/extensions/distributed raise AlignError.
#pragma once

#include <string>

#include "rck/error.hpp"

namespace rck::rckalign {

/// Invalid rckAlign run parameters. Code "rck.align.invalid".
class AlignError : public rck::Error {
 public:
  explicit AlignError(const std::string& message)
      : Error("rck.align.invalid", message) {}
};

}  // namespace rck::rckalign
