#include "net/registry.hpp"

#include "check/selfcheck.hpp"
#include "local/mpc_embedding.hpp"
#include "mpc/broadcast.hpp"
#include "mpc/bundle_fetch.hpp"
#include "mpc/sample_sort.hpp"
#include "net/storm.hpp"
#include "util/assert.hpp"

namespace arbor::net {

void Registry::add(std::string name, std::size_t scalars,
                   ProgramFactory factory) {
  ARBOR_CHECK_MSG(!name.empty(), "program name must not be empty");
  ProgramFactory checked = [name, scalars, factory = std::move(factory)](
                               const ProgramInputs& in) {
    ARBOR_CHECK_MSG(in.scalars.size() == scalars,
                    name + " expects " + std::to_string(scalars) +
                        " scalars, got " + std::to_string(in.scalars.size()));
    return factory(in);
  };
  const auto [it, inserted] =
      factories_.emplace(std::move(name), std::move(checked));
  ARBOR_CHECK_MSG(inserted, "program \"" + it->first + "\" registered twice");
}

const ProgramFactory& Registry::find(const std::string& name) const {
  const auto it = factories_.find(name);
  ARBOR_CHECK_MSG(it != factories_.end(),
                  "program \"" + name + "\" is not registered");
  return it->second;
}

std::vector<std::string> Registry::names() const {
  std::vector<std::string> out;
  out.reserve(factories_.size());
  for (const auto& [name, factory] : factories_) out.push_back(name);
  return out;
}

Registry& Registry::builtin() {
  // Explicit registration instead of static-initializer self-registration:
  // the library is static, and a linker is free to drop a translation unit
  // nothing references — a worker binary that silently knows no programs
  // is exactly the failure mode this avoids.
  static Registry registry = [] {
    Registry r;
    mpc::register_sample_sort_programs(r);
    mpc::register_broadcast_programs(r);
    mpc::register_bundle_fetch_program(r);
    local::register_embedded_peeling_program(r);
    register_storm_program(r);
    // Deliberately-broken programs checked execution must reject — in the
    // builtin registry so the stock arbor-worker can rebuild them and the
    // negative tests cover the real remote code path (check/selfcheck.hpp).
    check::register_selfcheck_programs(r);
    return r;
  }();
  return registry;
}

}  // namespace arbor::net
