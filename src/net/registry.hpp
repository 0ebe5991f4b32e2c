// Named worker-side program factories.
//
// A RoundProgram's step functions are closures over driver state; they
// cannot cross a process boundary. What crosses instead is the program's
// RemoteSpec (engine/program.hpp): a registry NAME plus the serializable
// inputs. On the worker side, this registry maps the name to a factory
// that rebuilds the exact same program — same step count, same step
// bodies — over worker-local state initialized from the decoded inputs.
// Driver and worker therefore run one protocol implementation compiled
// into both binaries, parameterized by where its state lives; the
// protocol files (mpc/sample_sort.cpp, mpc/broadcast.cpp, ...) define
// both sides next to each other and register here.
//
// A factory receives only its worker's machine block share of the inputs
// but builds a program whose step functions are indexed by GLOBAL machine
// id — the worker runtime only ever invokes them for machines of its
// block, so factories typically allocate machine-indexed arrays full-size
// and fill the block entries.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "engine/program.hpp"
#include "engine/types.hpp"

namespace arbor::net {

/// What a factory gets to rebuild its block's share of a program.
struct ProgramInputs {
  std::size_t machines = 0;     ///< global machine count
  std::size_t capacity = 0;     ///< per-machine word budget (S)
  std::size_t block_begin = 0;  ///< this worker's machines: [begin, end)
  std::size_t block_end = 0;
  std::vector<engine::Word> scalars;  ///< RemoteSpec::scalars, verbatim
  /// RemoteSpec::inputs for the block, indexed (machine - block_begin).
  std::vector<std::vector<engine::Word>> inputs;
};

/// A rebuilt program plus the worker-side halves of the spec's optional
/// contracts. `state` keeps whatever the closures capture alive.
struct WorkerProgram {
  engine::RoundProgram program;
  std::shared_ptr<void> state;
  /// Per-machine output slab extracted after the final round, shipped to
  /// the driver's RemoteSpec::output_sink. Null when has_output is false.
  std::function<std::vector<engine::Word>(std::size_t machine)> output;
  /// Per-machine pass-barrier vote, summed over the block and reduced at
  /// the driver (RemoteSpec::continue_with_votes). Null without votes.
  std::function<engine::Word(std::size_t machine)> vote;
  /// Pass-boundary state update, applied when the driver decides another
  /// pass runs (the worker-side half of a repeat_while counter).
  std::function<void()> on_continue;
};

using ProgramFactory = std::function<WorkerProgram(const ProgramInputs&)>;

class Registry {
 public:
  /// Register `factory` under `name`. Every spec of the program carries
  /// exactly `scalars` RemoteSpec scalars: the registered factory rejects
  /// any other count with an InvariantError naming the program before the
  /// wrapped factory runs, so factories index their scalars unchecked.
  void add(std::string name, std::size_t scalars, ProgramFactory factory);
  /// Throws InvariantError naming the program when it is not registered.
  const ProgramFactory& find(const std::string& name) const;
  std::vector<std::string> names() const;

  /// The process-wide registry with every built-in protocol registered
  /// (sample sorts, broadcast trees, bundle fetch, embedded peeling, the
  /// routing storm).
  static Registry& builtin();

 private:
  std::map<std::string, ProgramFactory> factories_;
};

}  // namespace arbor::net
