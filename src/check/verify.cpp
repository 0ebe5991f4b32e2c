#include "check/verify.hpp"

#include <map>
#include <sstream>

#include "net/registry.hpp"
#include "obs/cost_model.hpp"

namespace arbor::check {
namespace {

[[noreturn]] void fail(const std::string& what) {
  throw VerifyError("program verifier: " + what);
}

const char* kind_name(engine::StepKind kind) {
  return kind == engine::StepKind::kMachineIndependent ? "machine-independent"
                                                       : "barrier";
}

std::string quoted(const std::string& name) { return "\"" + name + "\""; }

/// Shallow rules: the program object alone.
void verify_steps(const engine::RoundProgram& program) {
  if (program.steps.empty()) fail("program has no steps");

  // A step NAME is a ledger label; reusing one across steps is legal and
  // deliberate (sample sort charges every tree level to the same label).
  // What a name must not do is flip kind: the kind decides whether the
  // checked-execution Monitor replays the step under an adversarial
  // machine order, and a label that is sometimes independent and sometimes
  // a barrier makes every per-label race diagnostic ambiguous about which
  // contract the step was held to.
  std::map<std::string, engine::StepKind> kinds;
  for (std::size_t i = 0; i < program.steps.size(); ++i) {
    const engine::ProgramStep& step = program.steps[i];
    if (!step.fn)
      fail("step " + std::to_string(i) + " (" + quoted(step.name) +
           ") has a null step function");
    if (step.name.empty())
      fail("step " + std::to_string(i) + " has an empty name");
    // The default label carries no identity claim — two anonymous steps
    // of different kinds are fine (only DISTRIBUTABLE programs must name
    // everything, enforced in verify_spec).
    if (step.name == engine::kDefaultStepName) continue;
    const auto [it, inserted] = kinds.emplace(step.name, step.kind);
    if (!inserted && it->second != step.kind)
      fail("step name " + quoted(step.name) + " is declared both " +
           kind_name(it->second) + " and " + kind_name(step.kind));
  }

  if (!program.continue_fn && program.max_passes != 1)
    fail("max_passes is " + std::to_string(program.max_passes) +
         " but there is no continue callback (use repeat_while)");
  if (program.continue_fn && program.max_passes == 0)
    fail("repeat_while with max_passes 0: the first pass always executes, "
         "so a zero bound cannot be honored (guard the run_program call)");
}

/// RemoteSpec completeness: the declared flags and the callbacks they
/// promise must agree, in both directions, before the spec ships anywhere.
void verify_spec(const engine::RoundProgram& program,
                 const VerifyContext& context) {
  const engine::RemoteSpec& spec = *program.remote;
  if (spec.name.empty()) fail("RemoteSpec has an empty registry name");

  for (std::size_t i = 0; i < program.steps.size(); ++i)
    if (program.steps[i].name == engine::kDefaultStepName)
      fail("program " + quoted(spec.name) + ": step " + std::to_string(i) +
           " is unnamed; every step of a distributable program must be "
           "named so worker-side diagnostics stay attributable");

  if (spec.has_output && !spec.output_sink)
    fail("program " + quoted(spec.name) +
         ": RemoteSpec field has_output is true but output_sink is null");
  if (!spec.has_output && spec.output_sink)
    fail("program " + quoted(spec.name) +
         ": RemoteSpec field output_sink is set but has_output is false");
  if (spec.has_vote && !spec.continue_with_votes)
    fail("program " + quoted(spec.name) +
         ": RemoteSpec field has_vote is true but continue_with_votes is "
         "null");
  if (!spec.has_vote && spec.continue_with_votes)
    fail("program " + quoted(spec.name) +
         ": RemoteSpec field continue_with_votes is set but has_vote is "
         "false");
  if (program.continue_fn && !spec.has_vote)
    fail("program " + quoted(spec.name) +
         ": declares repeat_while but RemoteSpec field has_vote is false "
         "(workers cannot evaluate the driver's continue callback)");

  if (!spec.inputs.empty() && spec.inputs.size() != context.machines)
    fail("program " + quoted(spec.name) + ": RemoteSpec field inputs has " +
         std::to_string(spec.inputs.size()) + " slabs for " +
         std::to_string(context.machines) +
         " machines (cover every machine or none)");
  for (std::size_t m = 0; m < spec.inputs.size(); ++m)
    if (spec.inputs[m].size() > context.capacity)
      fail("program " + quoted(spec.name) + ": input slab for machine " +
           std::to_string(m) + " holds " +
           std::to_string(spec.inputs[m].size()) +
           " words, over the per-machine budget S = " +
           std::to_string(context.capacity));

  // Distributable programs carry the paper's per-round claims as data: a
  // registered protocol must declare its analytic CostModel (or opt out by
  // name — reserved for the adversarial check.* self-checks). The model's
  // labels and the program's step labels must agree in both directions,
  // or the post-run bound audit would silently skip steps.
  if (!program.cost && !program.cost_exempt)
    fail("program " + quoted(spec.name) +
         ": no CostModel declared; attach the analytic bounds with "
         "costed(...) or opt out explicitly with exempt_cost()");
  if (program.cost) {
    for (const engine::ProgramStep& step : program.steps)
      if (program.cost->find(step.name) == nullptr)
        fail("program " + quoted(spec.name) + ": step " + quoted(step.name) +
             " has no declared bound in CostModel " +
             quoted(program.cost->name()));
    for (const obs::StepBound& bound : program.cost->bounds()) {
      bool matched = false;
      for (const engine::ProgramStep& step : program.steps)
        if (step.name == bound.label) {
          matched = true;
          break;
        }
      if (!matched)
        fail("program " + quoted(spec.name) + ": CostModel " +
             quoted(program.cost->name()) + " declares a bound for " +
             quoted(bound.label) + ", which names no step");
    }
  }
}

/// Deep rule: rebuild through the registered factory (the code path every
/// worker runs) and cross-check the rebuilt shape against the driver's.
void verify_rebuild(const engine::RoundProgram& program,
                    const VerifyContext& context) {
  const engine::RemoteSpec& spec = *program.remote;
  const net::ProgramFactory& factory = context.registry->find(spec.name);

  net::ProgramInputs inputs;
  inputs.machines = context.machines;
  inputs.capacity = context.capacity;
  inputs.block_begin = 0;
  inputs.block_end = context.machines;
  inputs.scalars = spec.scalars;
  inputs.inputs = spec.inputs;
  if (inputs.inputs.empty())
    inputs.inputs.resize(context.machines);  // workers decode empty slabs

  net::WorkerProgram rebuilt;
  try {
    rebuilt = factory(inputs);
  } catch (const VerifyError&) {
    throw;
  } catch (const std::exception& e) {
    fail("program " + quoted(spec.name) +
         ": worker-side factory rejected the spec's scalars/inputs: " +
         e.what());
  }

  if (rebuilt.program.steps.size() != program.steps.size())
    fail("program " + quoted(spec.name) + ": driver declares " +
         std::to_string(program.steps.size()) +
         " steps but the registered factory rebuilds " +
         std::to_string(rebuilt.program.steps.size()));
  for (std::size_t i = 0; i < program.steps.size(); ++i) {
    const engine::ProgramStep& d = program.steps[i];
    const engine::ProgramStep& w = rebuilt.program.steps[i];
    if (d.name != w.name)
      fail("program " + quoted(spec.name) + ": step " + std::to_string(i) +
           " is named " + quoted(d.name) + " on the driver but " +
           quoted(w.name) + " in the factory rebuild");
    if (d.kind != w.kind)
      fail("program " + quoted(spec.name) + ": step " + quoted(d.name) +
           " is " + kind_name(d.kind) + " on the driver but " +
           kind_name(w.kind) + " in the factory rebuild");
  }
  if (spec.has_output && !rebuilt.output)
    fail("program " + quoted(spec.name) +
         ": RemoteSpec field has_output is true but the factory rebuild "
         "supplies no output function");
  if (spec.has_vote && !rebuilt.vote)
    fail("program " + quoted(spec.name) +
         ": RemoteSpec field has_vote is true but the factory rebuild "
         "supplies no vote function");
  // max_passes intentionally not compared: workers take it from the
  // ProgramFrame, so factories do not (and need not) redeclare it.
}

}  // namespace

void verify_program(const engine::RoundProgram& program,
                    const VerifyContext& context) {
  verify_steps(program);
  if (program.remote) verify_spec(program, context);
  if (program.remote && context.registry) verify_rebuild(program, context);
}

}  // namespace arbor::check
