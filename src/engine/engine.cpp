#include "engine/engine.hpp"

#include <algorithm>
#include <thread>
#include <utility>

#include "util/assert.hpp"

namespace arbor::engine {

Engine::Engine(ExecutionPolicy policy) : policy_(policy) {
  // Oversubscribing a synchronous-round executor past the core count only
  // adds scheduler thrash between the barriers, so the pool is capped at
  // the hardware concurrency; the policy keeps recording the request.
  std::size_t workers = policy_.effective_threads();
  const unsigned hw = std::thread::hardware_concurrency();
  if (hw > 0) workers = std::min<std::size_t>(workers, hw);
  if (workers > 1) pool_ = std::make_unique<ThreadPool>(workers);
  scheduler_ = std::make_unique<Scheduler>(policy_, pool_.get());
}

Engine::~Engine() = default;

ProgramStats Engine::run_program(RoundState& state, std::size_t capacity,
                                 std::size_t first_round_index,
                                 const RoundProgram& program,
                                 const RoundHook& on_round) {
  if (backend_ && program.remote)
    return backend_->run_program(state, capacity, first_round_index, program,
                                 on_round);
  return scheduler_->run(state, capacity, first_round_index, program,
                         on_round);
}

}  // namespace arbor::engine
