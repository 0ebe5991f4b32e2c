// Deliberately-broken RoundPrograms that checked execution must catch.
//
// The model-race detector is itself code; these programs are its ground
// truth. Each one violates exactly one contract from engine/program.hpp —
// a cross-machine write, a mis-tagged machine-independent step, a shared
// accumulator behind owned_span(), a continue callback mutating state an
// independent step reads — and tests/check_test.cpp asserts every backend
// ({in-process, loopback, tcp}) rejects it with a RaceError naming the
// step and the machines involved. They are registered in
// net::Registry::builtin() under "check.*" names so the stock
// arbor-worker binary can rebuild them: the negative tests exercise the
// same worker code path real protocols use, not a test-only registry.
#pragma once

#include <cstddef>

#include "engine/program.hpp"

namespace arbor::net {
class Registry;
}  // namespace arbor::net

namespace arbor::check {

/// "check.cross_write": a machine-independent step where machine m writes
/// slots[(m+1) % M] — a cross-machine write, caught by the ownership
/// write check on every invocation.
engine::RoundProgram make_cross_write_selfcheck(std::size_t machines);

/// "check.order_dependent": each machine writes its own slot but SENDS its
/// predecessor's — legal writes, illegal read. Tagged machine-independent,
/// so the adversarial-order replay sees different sends and rejects the
/// tag.
engine::RoundProgram make_order_dependent_selfcheck(std::size_t machines);

/// "check.shared_accumulator": machines register their own slot via
/// owned_span() then all add into slots[0] — the classic shared
/// accumulator the StepFn contract bans. A barrier step: the write check
/// applies to every step kind, not just independent ones.
engine::RoundProgram make_shared_accumulator_selfcheck(std::size_t machines);

/// "check.underdeclared": a contract-CLEAN program (no race, no ownership
/// violation) whose CostModel declares 1 word/machine while the step sends
/// 8 — ground truth for the post-run bound audit: checked execution must
/// reject it with a VerifyError naming "bound audit" on every backend.
engine::RoundProgram make_underdeclared_selfcheck(std::size_t machines);

/// "check.continue_mutation": a clean machine-independent step that reads
/// slots[m], plus a repeat_while callback that mutates slots[0] between
/// passes — exactly the "global aggregates updated between rounds" the
/// machine-independent contract forbids the step to depend on.
engine::RoundProgram make_continue_mutation_selfcheck(std::size_t machines);

/// Register the worker-side factories for all of the above.
void register_selfcheck_programs(net::Registry& registry);

}  // namespace arbor::check
