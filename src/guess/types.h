// Core identifiers for the GUESS protocol library.
#pragma once

#include <cstdint>

namespace guess {

/// A peer's identity — stands in for its IP address. Ids are allocated
/// densely at birth and never reused: a peer that dies never returns (the
/// paper's worst-case churn assumption), so a stale id in someone's cache is
/// permanently dead.
using PeerId = std::uint64_t;

inline constexpr PeerId kInvalidPeer = ~PeerId{0};

/// Ids stay below 2^32 − 1: a query execution's dedup set keys on their low
/// 32 bits (EpochSet). GuessNetwork's id allocator enforces the bound.
inline constexpr PeerId kPeerIdLimit = 0xFFFFFFFFu;

}  // namespace guess
