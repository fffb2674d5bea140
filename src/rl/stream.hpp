#pragma once
// RNG stream derivation for A3C training (DESIGN.md §14).
//
// Every training episode draws its randomness (file choice, window start,
// initial tier, ε-exploration) from one util::Rng forked off the agent seed
// at a stream id derived here. The derivation is a pure function of the
// *lifetime episode ordinal* — never of the worker id or the worker count —
// so retuning parallelism can neither alias two episodes onto one stream nor
// reshuffle which episode sees which stream.
// (The previous scheme, fork(1 + epoch*1013 + round*131 + worker_id),
// aliased freely: epoch 0/round 0/worker 131 collided with round 1/worker 0,
// and raising the worker count re-dealt every stream.)
//
// Stream-id space layout: the agent's other fork() streams are small
// constants or counter offsets (0 for network init, 0xAC7 + env_steps for
// deployment-time sampling, 0xBEEF00 + candidate for init racing) — all far
// below 2^56 for any reachable counter value. Episode streams therefore
// carry a tag in the top byte, which no legacy stream can reach, and the
// ordinal in the low 56 bits.

#include <cstdint>

namespace minicost::rl {

/// Top-byte tag of every episode stream id ('E').
inline constexpr std::uint64_t kEpisodeStreamTag = 0x45ULL;

/// Legacy stream bases (documented here so the disjointness argument is
/// checkable in one place; the call sites are in a3c.cpp).
inline constexpr std::uint64_t kInitStream = 0;            ///< network init
inline constexpr std::uint64_t kActStreamBase = 0xAC7;     ///< act() sampling
inline constexpr std::uint64_t kRacingStreamBase = 0xBEEF00;  ///< init racing

/// Stream id for the `ordinal`-th training episode of the agent's lifetime.
/// Injective for ordinal < 2^56 (~7.2e16 episodes — unreachable).
constexpr std::uint64_t episode_stream(std::uint64_t ordinal) noexcept {
  return (kEpisodeStreamTag << 56) | (ordinal & 0x00FF'FFFF'FFFF'FFFFULL);
}

// The derivation takes only the ordinal: worker count and worker id cannot
// enter by construction. These pin the space layout.
static_assert(episode_stream(0) == 0x4500'0000'0000'0000ULL);
static_assert(episode_stream(1) - episode_stream(0) == 1,
              "episode streams must be consecutive (injective in ordinal)");
static_assert(episode_stream(0x00FF'FFFF'FFFF'FFFFULL) >> 56 ==
                  kEpisodeStreamTag,
              "the tag must survive the largest representable ordinal");
// Disjointness from every legacy stream family: legacy ids stay below 2^56
// for any counter value that fits the tagged payload, episode ids never do.
static_assert(kInitStream >> 56 == 0 && kActStreamBase >> 56 == 0 &&
              kRacingStreamBase >> 56 == 0);
static_assert(episode_stream(0) > kRacingStreamBase + 0xFFFF'FFFFULL,
              "episode streams must clear the racing stream family");

}  // namespace minicost::rl
