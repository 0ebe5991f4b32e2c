#include "check/selfcheck.hpp"

#include <memory>
#include <utility>
#include <vector>

#include "check/monitor.hpp"
#include "check/ownership.hpp"
#include "net/registry.hpp"
#include "obs/cost_model.hpp"
#include "util/assert.hpp"

namespace arbor::check {
namespace {

struct SelfCheckState {
  std::size_t machines = 0;
  std::vector<engine::Word> slots;
};

std::shared_ptr<SelfCheckState> make_state(std::size_t machines) {
  auto st = std::make_shared<SelfCheckState>();
  st->machines = machines;
  st->slots.assign(machines, 0);
  return st;
}

std::shared_ptr<Ownership> slots_ownership(
    const std::shared_ptr<SelfCheckState>& st) {
  auto own = std::make_shared<Ownership>();
  own->elems("slots", &st->slots).keep_alive(st);
  return own;
}

engine::RoundProgram build_cross_write(std::shared_ptr<SelfCheckState> st) {
  engine::RoundProgram program;
  program.independent("check.cross_write.step",
                      [st](std::size_t m, const engine::InboxView&,
                           engine::Sender&) {
                        // The violation: machine m writes its successor's
                        // slot.
                        st->slots[(m + 1) % st->machines] =
                            static_cast<engine::Word>(m + 1);
                      });
  program.owned(slots_ownership(st));
  // The check.* programs are adversarial fixtures, not protocols with
  // analytic claims — exempted from the CostModel requirement by name.
  program.exempt_cost();
  return program;
}

engine::RoundProgram build_order_dependent(
    std::shared_ptr<SelfCheckState> st) {
  engine::RoundProgram program;
  program.independent(
      "check.order_dependent.step",
      [st](std::size_t m, const engine::InboxView&, engine::Sender& send) {
        st->slots[m] = static_cast<engine::Word>(m + 1);
        // The violation: reads the predecessor's slot, whose value depends
        // on whether the predecessor's invocation ran yet — writes are
        // clean, so only the adversarial-order replay can see it.
        const engine::Word peek =
            st->slots[(m + st->machines - 1) % st->machines];
        send.send(m, std::vector<engine::Word>{peek});
      });
  program.owned(slots_ownership(st));
  program.exempt_cost();
  return program;
}

engine::RoundProgram build_shared_accumulator(
    std::shared_ptr<SelfCheckState> st) {
  engine::RoundProgram program;
  program.barrier("check.shared_accumulator.step",
                  [st](std::size_t m, const engine::InboxView&,
                       engine::Sender&) {
                    owned_span(m, {st->slots.data() + m, 1});
                    // The violation: every machine accumulates into
                    // machine 0's slot.
                    st->slots[0] += static_cast<engine::Word>(m + 1);
                  });
  program.exempt_cost();
  return program;
}

engine::RoundProgram build_continue_mutation(
    std::shared_ptr<SelfCheckState> st) {
  engine::RoundProgram program;
  program.independent(
      "check.continue_mutation.step",
      [st](std::size_t m, const engine::InboxView&, engine::Sender& send) {
        send.send(m, std::vector<engine::Word>{st->slots[m]});
      });
  program.owned(slots_ownership(st));
  program.exempt_cost();
  return program;
}

engine::RoundProgram build_underdeclared(std::shared_ptr<SelfCheckState> st) {
  engine::RoundProgram program;
  program.independent(
      "check.underdeclared.step",
      [st](std::size_t m, const engine::InboxView&, engine::Sender& send) {
        // Contract-clean: writes nothing shared and sends only to itself —
        // but moves 8 words against the single word its CostModel declares,
        // so the post-run bound audit (not the race monitor) must reject it.
        send.send(m, std::vector<engine::Word>(
                         8, static_cast<engine::Word>(m + 1)));
      });
  program.owned(slots_ownership(st));
  auto cost = std::make_shared<obs::CostModel>("check.underdeclared");
  cost->bound("check.underdeclared.step", 1, 1,
              "1 word/machine (deliberately under-declared)");
  program.costed(std::move(cost));
  return program;
}

engine::RoundProgram build_stale_fetch_cache(
    std::shared_ptr<SelfCheckState> st) {
  engine::RoundProgram program;
  program.barrier(
      "check.stale_fetch_cache.step",
      [st](std::size_t m, const engine::InboxView&, engine::Sender& send) {
        const auto build = [st, m](std::vector<engine::Word>& out) {
          out.push_back(st->slots[m]);
        };
        send.send_fetched(m, /*key=*/7, /*epoch=*/0, build);
        // The violation: mutate the state the build reads WITHOUT bumping
        // the epoch — the second fetch serves the stale cached payload,
        // and checked execution's verifying rebuild must reject it.
        st->slots[m] += 1;
        send.send_fetched(m, /*key=*/7, /*epoch=*/0, build);
      });
  program.owned(slots_ownership(st));
  program.cached_fetches();
  program.exempt_cost();
  return program;
}

void attach_spec(engine::RoundProgram& program, const char* name) {
  engine::RemoteSpec spec;
  spec.name = name;
  program.distributable(std::move(spec));
}

}  // namespace

engine::RoundProgram make_cross_write_selfcheck(std::size_t machines) {
  engine::RoundProgram program = build_cross_write(make_state(machines));
  attach_spec(program, "check.cross_write");
  return program;
}

engine::RoundProgram make_order_dependent_selfcheck(std::size_t machines) {
  engine::RoundProgram program = build_order_dependent(make_state(machines));
  attach_spec(program, "check.order_dependent");
  return program;
}

engine::RoundProgram make_shared_accumulator_selfcheck(std::size_t machines) {
  engine::RoundProgram program =
      build_shared_accumulator(make_state(machines));
  attach_spec(program, "check.shared_accumulator");
  return program;
}

engine::RoundProgram make_underdeclared_selfcheck(std::size_t machines) {
  engine::RoundProgram program = build_underdeclared(make_state(machines));
  attach_spec(program, "check.underdeclared");
  return program;
}

engine::RoundProgram make_stale_fetch_cache_selfcheck(std::size_t machines) {
  engine::RoundProgram program = build_stale_fetch_cache(make_state(machines));
  attach_spec(program, "check.stale_fetch_cache");
  return program;
}

engine::RoundProgram make_continue_mutation_selfcheck(std::size_t machines) {
  auto st = make_state(machines);
  engine::RoundProgram program = build_continue_mutation(st);
  program.repeat_while(
      [st](std::size_t passes) {
        // The violation: mutates state the independent step reads, between
        // passes.
        st->slots[0] += 1;
        return passes < 2;
      },
      4);
  engine::RemoteSpec spec;
  spec.name = "check.continue_mutation";
  spec.has_vote = true;
  spec.continue_with_votes = [](std::size_t passes, engine::Word) {
    return passes < 2;
  };
  program.distributable(std::move(spec));
  return program;
}

void register_selfcheck_programs(net::Registry& registry) {
  // The fixtures take no scalars: a worker rebuilds each one over fresh
  // zeroed slots.
  using Builder = engine::RoundProgram (*)(std::shared_ptr<SelfCheckState>);
  const std::pair<const char*, Builder> fixtures[] = {
      {"check.cross_write", build_cross_write},
      {"check.order_dependent", build_order_dependent},
      {"check.shared_accumulator", build_shared_accumulator},
      {"check.underdeclared", build_underdeclared},
      {"check.stale_fetch_cache", build_stale_fetch_cache},
  };
  for (const auto& [name, build] : fixtures)
    registry.add(name, 0, [build](const net::ProgramInputs& in) {
      auto st = make_state(in.machines);
      net::WorkerProgram out;
      out.program = build(st);
      out.state = st;
      return out;
    });
  registry.add("check.continue_mutation", 0,
               [](const net::ProgramInputs& in) {
    auto st = make_state(in.machines);
    net::WorkerProgram out;
    out.program = build_continue_mutation(st);
    out.state = st;
    out.vote = [](std::size_t) { return engine::Word{0}; };
    out.on_continue = [st] { st->slots[0] += 1; };
    return out;
  });
}

}  // namespace arbor::check
