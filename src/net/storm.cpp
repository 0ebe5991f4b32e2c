#include "net/storm.hpp"

#include <memory>
#include <span>
#include <utility>

#include "check/ownership.hpp"
#include "net/registry.hpp"
#include "obs/cost_model.hpp"
#include "util/assert.hpp"
#include "util/hashing.hpp"

namespace arbor::net {

using engine::Word;

engine::RoundProgram make_storm_program(std::shared_ptr<StormState> state) {
  ARBOR_CHECK(state && state->machines > 0);
  ARBOR_CHECK(state->slabs.size() == state->machines);
  engine::RoundProgram program;
  for (std::size_t round = 0; round < state->rounds; ++round) {
    program.independent("net.storm.scatter", [state, round](
                                                 std::size_t m, const auto&,
                                                 engine::Sender& send) {
      const std::vector<Word>& slab = state->slabs[m];
      if (slab.empty()) return;
      for (std::size_t i = 0; i < state->batch; ++i) {
        const Word w = slab[(round * state->batch + i) % slab.size()];
        const std::size_t dst =
            util::hash_words(13, w, round) % state->machines;
        send.send(dst, std::span<const Word>(&w, 1));
      }
    });
  }
  // The steps only read the slabs, but declaring them lets checked runs
  // prove exactly that — any write would be a named violation.
  auto own = std::make_shared<check::Ownership>();
  own->slabs("slabs", &state->slabs).keep_alive(state);
  program.owned(std::move(own));

  // Each machine scatters `batch` one-word messages; destinations are
  // hashed, so the worst-case concentration is every machine's batch
  // landing on one receiver — p*batch words, the exact adversarial bound.
  auto cost = std::make_shared<obs::CostModel>("net.storm");
  cost->bound("net.storm.scatter", state->machines * state->batch,
              state->rounds,
              "p*batch (hashed destinations; worst-case all batches "
              "concentrate on one machine)");
  program.costed(std::move(cost));
  return program;
}

engine::RoundProgram make_distributable_storm_program(
    std::shared_ptr<StormState> state) {
  engine::RoundProgram program = make_storm_program(state);
  engine::RemoteSpec spec;
  spec.name = "net.storm";
  spec.scalars = {static_cast<Word>(state->batch),
                  static_cast<Word>(state->rounds)};
  spec.inputs = state->slabs;
  program.distributable(std::move(spec));
  return program;
}

void register_storm_program(Registry& registry) {
  registry.add("net.storm", 2, [](const ProgramInputs& in) {
    auto state = std::make_shared<StormState>();
    state->machines = in.machines;
    state->batch = static_cast<std::size_t>(in.scalars[0]);
    state->rounds = static_cast<std::size_t>(in.scalars[1]);
    state->slabs.resize(in.machines);
    for (std::size_t m = in.block_begin; m < in.block_end; ++m)
      state->slabs[m] = in.inputs[m - in.block_begin];
    WorkerProgram out;
    out.program = make_storm_program(state);
    out.state = state;
    return out;
  });
}

}  // namespace arbor::net
