// Per-cluster message state: inboxes, and double-buffered outboxes.
//
// Inside a running program the scheduler's delivery leaves each inbox as
// spans into the outbox bank of the round that sent them, so outboxes come
// in two banks: each round's compute writes the front bank, and the banks
// flip at delivery so the next compute writes the other one while the
// delivered spans stay valid. Outside a program every inbox's spans point
// into its own `held` arena (preloads, and the final inboxes the scheduler
// holds on every exit path).
#pragma once

#include <array>
#include <cstddef>
#include <span>
#include <string>
#include <vector>

#include "engine/inbox.hpp"
#include "engine/outbox.hpp"
#include "engine/types.hpp"
#include "util/assert.hpp"

namespace arbor::engine {

struct RoundState {
  explicit RoundState(std::size_t machines) : inboxes(machines) {
    for (std::vector<Outbox>& bank : outbox_banks) bank.resize(machines);
  }

  std::size_t num_machines() const noexcept { return inboxes.size(); }

  InboxView inbox(std::size_t m) const { return InboxView(inboxes[m]); }

  /// Deliver `payload` into machine `dst`'s inbox outside of any round
  /// (input loading). Preloads count against the same receiver-side word
  /// cap a round's delivery is validated with: the model's machines hold at
  /// most `capacity` words, however those words arrived.
  void preload(std::size_t dst, std::span<const Word> payload,
               std::size_t capacity) {
    const std::size_t queued = inboxes[dst].words + payload.size();
    ARBOR_CHECK_MSG(queued <= capacity,
                    "machine " + std::to_string(dst) +
                        " exceeded receive capacity: " +
                        std::to_string(queued) + " > " +
                        std::to_string(capacity) + " words in preload");
    inboxes[dst].append(payload);
  }

  /// Drop every queued message, keeping arena capacity (Inbox::clear
  /// semantics) — the reset a pooled cluster performs between programs so
  /// the next program neither re-reads a previous program's final inboxes
  /// nor re-ships them as preinbox frames over the net/ transport. After
  /// the first few programs a pooled steady state allocates nothing here.
  void clear_inboxes() noexcept {
    for (Inbox& inbox : inboxes) inbox.clear();
  }

  /// Outbox bank the current round's compute writes and its delivery reads.
  std::vector<Outbox>& front_outboxes() noexcept {
    return outbox_banks[front];
  }
  const std::vector<Outbox>& front_outboxes() const noexcept {
    return outbox_banks[front];
  }

  /// Swap banks after a delivery: the delivered bank stays frozen for the
  /// next round's reads, and the other one takes that round's sends.
  void flip() noexcept { front = 1 - front; }

  std::vector<Inbox> inboxes;
  std::array<std::vector<Outbox>, 2> outbox_banks;
  std::size_t front = 0;
};

}  // namespace arbor::engine
