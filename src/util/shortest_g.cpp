#include "util/shortest_g.hpp"

#include <charconv>
#include <cmath>
#include <system_error>

namespace vexsim {

char* shortest_g(char* out, double v) {
  char* const end = out + kShortestGChars;
  if (!std::isfinite(v)) return std::to_chars(out, end, v).ptr;
  // The shortest round-tripping digit string has D significant digits, so
  // no precision below D can parse back. %.{D}g usually does, but it picks
  // the nearest D-digit decimal, which can miss the round-trip interval
  // where another D-digit decimal hits it (the interval is lopsided at
  // powers of two); the search then climbs from D.
  char sci[kShortestGChars];
  const char* const sci_end =
      std::to_chars(sci, sci + sizeof sci, v, std::chars_format::scientific)
          .ptr;
  int digits = 0;
  for (const char* p = sci; p != sci_end && *p != 'e'; ++p)
    digits += (*p >= '0' && *p <= '9') ? 1 : 0;
  for (int precision = digits; precision < 17; ++precision) {
    char* const stop =
        std::to_chars(out, end, v, std::chars_format::general, precision).ptr;
    double parsed = 0.0;
    if (std::from_chars(out, stop, parsed).ec == std::errc() && parsed == v)
      return stop;
  }
  return std::to_chars(out, end, v, std::chars_format::general, 17).ptr;
}

std::string shortest_g(double v) {
  char buf[kShortestGChars];
  return {buf, shortest_g(buf, v)};
}

}  // namespace vexsim
