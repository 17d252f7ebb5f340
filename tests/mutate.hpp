// Seeded, deterministic mutation driver for decoder fuzz tests: feeds a
// decoder every truncation of a valid encoding plus `flips` copies with one
// to three random bit flips. The decoder callback catches the exceptions its
// contract documents; anything else escapes and fails the calling test.
#pragma once

#include <cstdint>
#include <vector>

#include "util/rng.hpp"

namespace gemfi::testfuzz {

template <typename Decode>
void truncate_and_flip(const std::vector<std::uint8_t>& base, std::uint64_t seed,
                       unsigned flips, Decode&& decode) {
  for (std::size_t n = 0; n < base.size(); ++n)
    decode(std::vector<std::uint8_t>(base.begin(), base.begin() + std::ptrdiff_t(n)));
  util::Rng rng(seed);
  for (unsigned i = 0; i < flips; ++i) {
    std::vector<std::uint8_t> bytes = base;
    const unsigned bits = 1 + unsigned(rng.below(3));
    for (unsigned b = 0; b < bits; ++b)
      bytes[rng.below(bytes.size())] ^= std::uint8_t(1u << rng.below(8));
    decode(bytes);
  }
}

}  // namespace gemfi::testfuzz
