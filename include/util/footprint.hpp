#pragma once
// Location hashing and distinct-location counting, shared by the shadow
// tables (race/stream/shadow_shards.hpp) and the parse tree that sizes
// them (sptree/sp_maintenance.hpp).

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstddef>
#include <cstdint>

namespace spr::util {

/// splitmix64 finalizer: full-avalanche location mixing, so contiguous
/// array fills spread evenly across shards and table slots.
inline std::uint64_t mix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// HyperLogLog sketch (Flajolet et al.) of the distinct locations added:
/// 2^12 one-byte registers over mix64(loc), standard error ~1.6%, with
/// linear counting for small counts (0 for no locations, ~1 for one).
/// The sum of the registers' weights and the count of zero registers
/// are kept up to date as registers rise, so estimate() reads no
/// register and add() never revisits the sketch.
class FootprintSketch {
 public:
  void add(std::uint64_t loc) {
    const std::uint64_t h = mix64(loc);
    // Rank of the first set bit below the register index; the guard bit
    // caps it at 64 - kBits + 1.
    const auto rank = static_cast<std::uint8_t>(
        std::countl_zero((h << kBits) | (std::uint64_t{1} << (kBits - 1))) +
        1);
    std::uint8_t& r = reg_[h >> (64 - kBits)];
    if (rank <= r) return;
    inv_sum_ -= weight(r) - weight(rank);
    if (r == 0) --zeros_;
    r = rank;
  }

  std::size_t estimate() const {
    constexpr double m = kRegs;
    double e = 0.7213 / (1 + 1.079 / m) * m * m /
               std::ldexp(static_cast<double>(inv_sum_), -51);
    if (e <= 2.5 * m && zeros_ > 0)
      e = m * std::log(m / static_cast<double>(zeros_));
    return static_cast<std::size_t>(std::llround(e));
  }

 private:
  static constexpr unsigned kBits = 12;
  static constexpr std::size_t kRegs = std::size_t{1} << kBits;

  /// 2^-r in integer units of 2^-51 (ranks above 51 count as 51; a
  /// register reaches them only after ~2^51 of its own locations).
  static std::uint64_t weight(unsigned r) {
    return std::uint64_t{1} << (51 - std::min(r, 51u));
  }

  std::array<std::uint8_t, kRegs> reg_{};
  std::uint64_t inv_sum_ = std::uint64_t{kRegs} << 51;
  std::size_t zeros_ = kRegs;
};

}  // namespace spr::util
