#include "mpc/config.hpp"

#include "util/env_knob.hpp"

namespace arbor::mpc {

bool parse_bool_flag(std::string_view value, std::string_view what) {
  return util::parse_bool_knob(value, what);
}

TransportConfig parse_transport_flag(std::string_view value,
                                     std::string_view what) {
  const auto [kind, arg] = util::split_knob(value);
  // "tcp:" is a truncated "tcp:N" (or a script interpolating an empty
  // variable) — strict means strict, not "fall back to the default".
  if (arg && arg->empty())
    util::reject_knob(what, value, "worker count is empty");

  TransportConfig cfg;
  if (kind == "inprocess" || kind == "in-process") {
    cfg.kind = TransportConfig::Kind::kInProcess;
    if (arg)
      util::reject_knob(what, value,
                        "the in-process transport takes no worker count");
    return cfg;
  } else if (kind == "loopback") {
    cfg.kind = TransportConfig::Kind::kLoopback;
  } else if (kind == "tcp") {
    cfg.kind = TransportConfig::Kind::kTcp;
  } else {
    util::reject_knob(what, value,
                      "not a transport (use inprocess, loopback[:workers], "
                      "or tcp[:workers])");
  }

  if (arg)
    cfg.workers = util::parse_count_knob(*arg, "worker count", 1, 1024, what,
                                         value);
  return cfg;
}

bool distributed_level1_env_default() {
  static const bool value = [] {
    const auto env = util::env_knob("ARBOR_DISTRIBUTED_LEVEL1");
    if (!env) return false;
    return parse_bool_flag(*env, "ARBOR_DISTRIBUTED_LEVEL1");
  }();
  return value;
}

TransportConfig transport_env_default() {
  static const TransportConfig value = [] {
    const auto env = util::env_knob("ARBOR_TRANSPORT");
    if (!env) return TransportConfig{};
    return parse_transport_flag(*env, "ARBOR_TRANSPORT");
  }();
  return value;
}

}  // namespace arbor::mpc
