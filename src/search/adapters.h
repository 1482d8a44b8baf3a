// Factories for the two adapted engines (DESIGN.md §12.2): GUESS wraps
// GuessNetwork and iterative deepening wraps the static-population baseline,
// each unchanged, so outputs are bitwise-identical to the engines' own
// drivers. The native backends declare their factories beside their classes
// (flood.h, onehop.h, gossip.h).
#pragma once

#include <memory>

#include "search/backend.h"

namespace guess::search {

std::unique_ptr<SearchBackend> make_guess_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);
std::unique_ptr<SearchBackend> make_iterative_backend(
    const SimulationConfig& config, sim::Simulator& simulator, Rng rng);

}  // namespace guess::search
