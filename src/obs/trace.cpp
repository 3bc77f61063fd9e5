#include "obs/trace.hpp"

#include <chrono>

namespace caraoke::obs {

double monotonicSeconds() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point start = clock::now();
  return std::chrono::duration<double>(clock::now() - start).count();
}

std::string traceHex(std::uint64_t id) {
  static const char* kDigits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = kDigits[id & 0xf];
    id >>= 4;
  }
  return out;
}

std::uint64_t parseTraceHex(const std::string& hex) {
  if (hex.size() != 16) return 0;
  std::uint64_t id = 0;
  for (char c : hex) {
    std::uint64_t nibble = 0;
    if (c >= '0' && c <= '9')
      nibble = static_cast<std::uint64_t>(c - '0');
    else if (c >= 'a' && c <= 'f')
      nibble = static_cast<std::uint64_t>(c - 'a') + 10;
    else
      return 0;
    id = (id << 4) | nibble;
  }
  return id;
}

ObsSpan::ObsSpan(Histogram& histogram)
    : histogram_(histogram), startSec_(monotonicSeconds()) {}

ObsSpan::~ObsSpan() { histogram_.observe(monotonicSeconds() - startSec_); }

}  // namespace caraoke::obs
