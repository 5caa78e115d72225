#include "common/rng.h"

#include <numeric>

namespace nsflow {

Mt19937_64::Mt19937_64(std::uint64_t seed) {
  state_[0] = seed;
  for (std::size_t i = 1; i < kWords; ++i) {
    const std::uint64_t prev = state_[i - 1];
    state_[i] = 6364136223846793005ULL * (prev ^ (prev >> 62)) + i;
  }
}

void Mt19937_64::Refill() {
  constexpr std::size_t kShift = 156;  // The recurrence's middle offset m.
  constexpr std::uint64_t kUpper = ~std::uint64_t{0} << 31;
  constexpr std::uint64_t kLower = ~kUpper;
  constexpr std::uint64_t kMatrix = 0xb5026f5aa96619e9ULL;
  const auto twist = [](std::uint64_t word, std::uint64_t next,
                        std::uint64_t far) {
    const std::uint64_t y = (word & kUpper) | (next & kLower);
    return far ^ (y >> 1) ^ ((std::uint64_t{0} - (y & 1)) & kMatrix);
  };
  std::size_t k = 0;
  for (; k < kWords - kShift; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift]);
  }
  for (; k < kWords - 1; ++k) {
    state_[k] = twist(state_[k], state_[k + 1], state_[k + kShift - kWords]);
  }
  state_[kWords - 1] = twist(state_[kWords - 1], state_[0], state_[kShift - 1]);

  for (k = 0; k < kWords; ++k) {
    std::uint64_t z = state_[k];
    z ^= (z >> 29) & 0x5555555555555555ULL;
    z ^= (z << 17) & 0x71d67fffeda60000ULL;
    z ^= (z << 37) & 0xfff7eee000000000ULL;
    z ^= z >> 43;
    block_[k] = z;
  }
  next_ = 0;
}

std::vector<std::size_t> Rng::SampleWithoutReplacement(std::size_t n,
                                                       std::size_t k) {
  NSF_CHECK_MSG(k <= n, "cannot sample more elements than the population");
  std::vector<std::size_t> indices(n);
  std::iota(indices.begin(), indices.end(), std::size_t{0});
  // Partial Fisher–Yates: only the first k positions need to be randomized.
  for (std::size_t i = 0; i < k; ++i) {
    const auto j = static_cast<std::size_t>(
        UniformInt(static_cast<std::int64_t>(i),
                   static_cast<std::int64_t>(n) - 1));
    std::swap(indices[i], indices[j]);
  }
  indices.resize(k);
  return indices;
}

}  // namespace nsflow
