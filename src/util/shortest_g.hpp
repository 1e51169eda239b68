// Shortest exactly round-tripping decimal spelling of a double, in printf's
// `%g` style: `%.{P}g` for the smallest precision P whose text parses back
// to the same value. Every serializer that must reproduce a double
// bit-for-bit (JSON trajectories and cache records, .conf values, synth
// spec names) spells numbers with it, so one value has one spelling
// everywhere; the output is locale-independent.
//
// Non-finite values come out as `%g` spells them (inf, -inf, nan, -nan);
// callers that need another policy (JSON null, .conf `nan`) apply it first.
#pragma once

#include <cstddef>
#include <string>

namespace vexsim {

// Room for any rendering: the longest, a negative `%.17g` with a
// three-digit exponent, is 24 characters.
inline constexpr std::size_t kShortestGChars = 32;

// Writes the spelling of `v` to `out`, which must have room for
// kShortestGChars characters, and returns one past its last character.
char* shortest_g(char* out, double v);

[[nodiscard]] std::string shortest_g(double v);

}  // namespace vexsim
