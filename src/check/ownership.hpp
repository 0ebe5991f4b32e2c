// Ownership registration for checked execution (src/check/README.md).
//
// The StepFn concurrency contract and the machine-independent contract
// (engine/program.hpp) are phrased in terms of "state owned by machine m" —
// but the scheduler cannot see which slots of a protocol's state belong to
// which machine. An Ownership object closes that gap: a protocol builder
// declares its mutable per-machine state as named FAMILIES, each mapping a
// machine id to the slice of a container that machine owns. The checked
// executor (monitor.hpp) then content-hashes every slice around every step
// invocation: a slice that changes while a DIFFERENT machine's invocation
// runs is a cross-machine write, named by family, writer, owner, and
// address range.
//
// Families are declared by pointer into protocol state the program's step
// closures already keep alive (the builders capture the state shared_ptr);
// keep_alive() pins it explicitly so an Ownership outliving its program
// copy stays valid. Registration is declaration only — zero cost until a
// checked run actually hashes the slices.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "util/hashing.hpp"

namespace arbor::check {

/// One named piece of mutable per-machine state. All callables are total
/// over machine ids [0, machines): a machine that owns nothing in the
/// family hashes to a constant.
struct Family {
  std::string name;
  /// Content hash of machine m's slice (order- and size-sensitive).
  std::function<std::uint64_t(std::size_t m)> hash;
  /// Human-readable location of machine m's slice for error messages,
  /// e.g. "holds[3] @ [0x5594f1c0, 0x5594f200)".
  std::function<std::string(std::size_t m)> describe;
  /// Copy the whole family out / back in, so the checked executor can
  /// replay a step under a second machine order without double-applying
  /// its writes.
  std::function<std::shared_ptr<void>()> snapshot;
  std::function<void(const std::shared_ptr<void>&)> restore;
};

namespace detail {

template <typename T>
std::uint64_t hash_span(const T* data, std::size_t count) {
  std::uint64_t h = util::mix64(0x6f776e);  // "own"
  h = util::hash_combine(h, count);
  for (std::size_t i = 0; i < count; ++i)
    h = util::hash_combine(h, static_cast<std::uint64_t>(data[i]));
  return h;
}

template <typename T>
std::string describe_span(const std::string& name, std::size_t m,
                          const T* data, std::size_t count) {
  std::ostringstream os;
  os << name << "[" << m << "] @ ["
     << static_cast<const void*>(data) << ", "
     << static_cast<const void*>(data + count) << ")";
  return os.str();
}

}  // namespace detail

/// The ownership declaration a RoundProgram carries (program.hpp holds a
/// shared_ptr so driver- and worker-side rebuilds share the declaration
/// code path exactly like the step closures do).
class Ownership {
 public:
  /// vector-of-vectors indexed by machine: (*v)[m] is owned by machine m
  /// (BroadcastState::holds, SortState::slabs/fine, ...).
  template <typename T>
  Ownership& slabs(std::string name, std::vector<std::vector<T>>* v) {
    Family f;
    f.name = name;
    f.hash = [v](std::size_t m) {
      if (m >= v->size()) return detail::hash_span<T>(nullptr, 0);
      std::uint64_t h = detail::hash_span((*v)[m].data(), (*v)[m].size());
      return h;
    };
    f.describe = [name, v](std::size_t m) {
      if (m >= v->size()) return name + "[" + std::to_string(m) + "] (empty)";
      return detail::describe_span(name, m, (*v)[m].data(), (*v)[m].size());
    };
    f.snapshot = [v]() -> std::shared_ptr<void> {
      return std::make_shared<std::vector<std::vector<T>>>(*v);
    };
    f.restore = [v](const std::shared_ptr<void>& snap) {
      *v = *std::static_pointer_cast<std::vector<std::vector<T>>>(snap);
    };
    families_.push_back(std::move(f));
    return *this;
  }

  /// Flat vector with element m owned by machine m (ConvergeState::partial,
  /// BroadcastState::has, PeelState::peeled_now).
  template <typename T>
  Ownership& elems(std::string name, std::vector<T>* v) {
    Family f;
    f.name = name;
    f.hash = [v](std::size_t m) {
      if (m >= v->size()) return detail::hash_span<T>(nullptr, 0);
      return detail::hash_span(v->data() + m, 1);
    };
    f.describe = [name, v](std::size_t m) {
      if (m >= v->size()) return name + "[" + std::to_string(m) + "] (empty)";
      return detail::describe_span(name, m, v->data() + m, 1);
    };
    f.snapshot = [v]() -> std::shared_ptr<void> {
      return std::make_shared<std::vector<T>>(*v);
    };
    f.restore = [v](const std::shared_ptr<void>& snap) {
      *v = *std::static_pointer_cast<std::vector<T>>(snap);
    };
    families_.push_back(std::move(f));
    return *this;
  }

  /// Flat vector partitioned into contiguous per-machine ranges:
  /// range_of(m) -> [lo, hi) owned by machine m (PeelState::degree/layer
  /// under vertex_range). `range_of` must be pure.
  template <typename T>
  Ownership& range(std::string name, std::vector<T>* v,
                   std::function<std::pair<std::size_t, std::size_t>(
                       std::size_t)> range_of) {
    Family f;
    f.name = name;
    f.hash = [v, range_of](std::size_t m) {
      const auto [lo, hi] = range_of(m);
      if (lo >= hi || hi > v->size()) return detail::hash_span<T>(nullptr, 0);
      return detail::hash_span(v->data() + lo, hi - lo);
    };
    f.describe = [name, v, range_of](std::size_t m) {
      const auto [lo, hi] = range_of(m);
      if (lo >= hi || hi > v->size())
        return name + "[" + std::to_string(m) + "] (empty range)";
      return detail::describe_span(name, m, v->data() + lo, hi - lo);
    };
    f.snapshot = [v]() -> std::shared_ptr<void> {
      return std::make_shared<std::vector<T>>(*v);
    };
    f.restore = [v](const std::shared_ptr<void>& snap) {
      *v = *std::static_pointer_cast<std::vector<T>>(snap);
    };
    families_.push_back(std::move(f));
    return *this;
  }

  /// Doubly-nested container with per-entry owners: (*v)[i] (a vector of
  /// slabs) is owned by machine owner_of(i) (FetchState::delivered under
  /// the requester block mapping). `owner_of` must be pure.
  template <typename T>
  Ownership& nested(std::string name,
                    std::vector<std::vector<std::vector<T>>>* v,
                    std::function<std::size_t(std::size_t)> owner_of) {
    Family f;
    f.name = name;
    f.hash = [v, owner_of](std::size_t m) {
      std::uint64_t h = util::mix64(0x6f776e32);
      for (std::size_t i = 0; i < v->size(); ++i) {
        if (owner_of(i) != m) continue;
        h = util::hash_combine(h, i);
        h = util::hash_combine(h, (*v)[i].size());
        for (const std::vector<T>& slab : (*v)[i])
          h = util::hash_combine(h, detail::hash_span(slab.data(),
                                                      slab.size()));
      }
      return h;
    };
    f.describe = [name](std::size_t m) {
      return name + " entries owned by machine " + std::to_string(m);
    };
    f.snapshot = [v]() -> std::shared_ptr<void> {
      return std::make_shared<std::vector<std::vector<std::vector<T>>>>(*v);
    };
    f.restore = [v](const std::shared_ptr<void>& snap) {
      *v = *std::static_pointer_cast<std::vector<std::vector<std::vector<T>>>>(
          snap);
    };
    families_.push_back(std::move(f));
    return *this;
  }

  /// Pin the protocol state the family pointers refer into, so the
  /// Ownership is valid even if it outlives the program's step closures.
  Ownership& keep_alive(std::shared_ptr<void> state) {
    pinned_.push_back(std::move(state));
    return *this;
  }

  const std::vector<Family>& families() const noexcept { return families_; }

 private:
  std::vector<Family> families_;
  std::vector<std::shared_ptr<void>> pinned_;
};

}  // namespace arbor::check
