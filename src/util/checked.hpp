// Overflow-checked integer arithmetic for sizes derived from external input
// (tensor extents): a product that does not fit std::int64_t is reported as
// a structured spttn::Error, never wrapped into a bogus size.
#pragma once

#include <cstdint>

#include "util/error.hpp"

namespace spttn {

/// a * b, throwing spttn::Error when the product overflows std::int64_t.
inline std::int64_t checked_mul(std::int64_t a, std::int64_t b) {
  std::int64_t out = 0;
  SPTTN_CHECK_MSG(!__builtin_mul_overflow(a, b, &out),
                  "extent product " << a << " * " << b
                                    << " overflows a 64-bit size");
  return out;
}

}  // namespace spttn
