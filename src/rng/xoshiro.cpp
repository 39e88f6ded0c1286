#include "rng/xoshiro.h"

namespace divpp::rng {

std::uint64_t splitmix64_next(std::uint64_t& state) noexcept {
  state += 0x9e3779b97f4a7c15ULL;
  std::uint64_t z = state;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Xoshiro256::Xoshiro256(std::uint64_t seed) noexcept {
  // Expand the seed into 256 bits of state; splitmix64 guarantees the
  // all-zero state (which xoshiro cannot leave) is never produced.
  std::uint64_t s = seed;
  for (auto& word : state_) word = splitmix64_next(s);
}

void Xoshiro256::jump() noexcept {
  static constexpr std::array<std::uint64_t, 4> kJump = {
      0x180ec6d33cfd0abaULL, 0xd5a61266f0c9392cULL, 0xa9582618e03fc9aaULL,
      0x39abdc4529b1661cULL};

  std::array<std::uint64_t, 4> acc{};
  for (const std::uint64_t word : kJump) {
    for (int bit = 0; bit < 64; ++bit) {
      if ((word & (std::uint64_t{1} << bit)) != 0) {
        for (std::size_t i = 0; i < acc.size(); ++i) acc[i] ^= state_[i];
      }
      (void)(*this)();
    }
  }
  state_ = acc;
}

Xoshiro256 Xoshiro256::from_state(
    const std::array<std::uint64_t, 4>& state) {
  if (state[0] == 0 && state[1] == 0 && state[2] == 0 && state[3] == 0)
    throw std::invalid_argument(
        "Xoshiro256::from_state: the all-zero state is not a valid "
        "xoshiro256** state");
  Xoshiro256 gen;
  gen.state_ = state;
  return gen;
}

Xoshiro256 Xoshiro256::fork() noexcept {
  jump();
  Xoshiro256 child = *this;
  child.jump();
  return child;
}

}  // namespace divpp::rng
