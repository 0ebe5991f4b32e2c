// Per-machine inboxes and the views the step functions read them through.
//
// An Inbox is a list of message spans plus their total word count. The
// spans point into storage that outlives the round that reads them: the
// frozen outbox bank of the round that delivered them (the scheduler), the
// frames a worker received (src/net/), or the inbox's own `held` arena —
// for contents that must outlive their source: preloads, a program's final
// inboxes, and inbox dumps written back at the driver. Delivery records
// spans and moves no payload word; only hold() and append() copy. Step
// functions and tests read messages through InboxView/MessageView.
#pragma once

#include <algorithm>
#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "engine/types.hpp"
#include "util/assert.hpp"

namespace arbor::engine {

/// One machine's received messages as spans over storage that outlives
/// the round reading them.
struct Inbox {
  std::vector<std::span<const Word>> msgs;
  std::size_t words = 0;  ///< total payload words across msgs
  /// Storage this inbox owns; only spans recorded by hold() and append()
  /// point into it.
  std::vector<Word> held;

  // Move-only (declaring the moves deletes the copies): a copy would alias
  // the source's `held` arena.
  Inbox() = default;
  Inbox(Inbox&&) noexcept = default;
  Inbox& operator=(Inbox&&) noexcept = default;

  /// Drop every message; `held` keeps its capacity.
  void clear() noexcept {
    msgs.clear();
    words = 0;
    held.clear();
  }

  /// Record `payload` where it lies; its storage must outlive every read.
  void refer(std::span<const Word> payload) {
    msgs.push_back(payload);
    words += payload.size();
  }

  /// Copy `payload` into `held` and record it. Growth doubles `held` and
  /// re-points the spans into it, so a run of appends stays amortized
  /// linear in the words appended.
  void append(std::span<const Word> payload) {
    const std::size_t size = held.size();
    if (size + payload.size() > held.capacity()) {
      std::vector<Word> grown;
      grown.reserve(std::max(2 * held.capacity(), size + payload.size()));
      grown.assign(held.begin(), held.end());
      for (std::span<const Word>& msg : msgs)
        if (in_held(msg))
          msg = {grown.data() + (msg.data() - held.data()), msg.size()};
      held.swap(grown);
    }
    held.insert(held.end(), payload.begin(), payload.end());
    refer({held.data() + size, payload.size()});
  }

  /// Copy every message into `held` (one exact-size copy) and re-point the
  /// spans there, so the inbox no longer depends on where its messages
  /// were delivered from.
  void hold() {
    std::vector<Word> kept;
    if (std::none_of(msgs.begin(), msgs.end(),
                     [this](std::span<const Word> m) { return in_held(m); }))
      kept.swap(held);  // nothing reads the old contents: reuse capacity
    kept.clear();
    kept.reserve(words);
    for (std::span<const Word>& msg : msgs) {
      const Word* at = kept.data() + kept.size();
      kept.insert(kept.end(), msg.begin(), msg.end());
      msg = {at, msg.size()};
    }
    held.swap(kept);
  }

 private:
  bool in_held(std::span<const Word> msg) const {
    const std::less_equal<const Word*> le;
    return !msg.empty() && le(held.data(), msg.data()) &&
           le(msg.data() + msg.size(), held.data() + held.size());
  }
};

/// Read-only view of one message.
class MessageView {
 public:
  MessageView() = default;
  /*implicit*/ MessageView(std::span<const Word> s) : span_(s) {}

  std::size_t size() const noexcept { return span_.size(); }
  bool empty() const noexcept { return span_.empty(); }
  Word operator[](std::size_t i) const { return span_[i]; }
  const Word* begin() const noexcept { return span_.data(); }
  const Word* end() const noexcept { return span_.data() + span_.size(); }
  Word front() const { return span_.front(); }
  Word back() const { return span_.back(); }
  std::span<const Word> span() const noexcept { return span_; }

  friend bool operator==(const MessageView& a, const std::vector<Word>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<Word>& a, const MessageView& b) {
    return b == a;
  }

 private:
  std::span<const Word> span_;
};

/// Read-only view over one machine's inbox. It reads the Inbox object it
/// was made from; a delivery swaps the live inboxes with staged ones, so
/// take a fresh view after running rounds.
class InboxView {
 public:
  explicit InboxView(const Inbox& inbox) : inbox_(&inbox) {}

  std::size_t size() const noexcept { return inbox_->msgs.size(); }
  bool empty() const noexcept { return size() == 0; }

  MessageView operator[](std::size_t i) const {
    ARBOR_DCHECK(i < size());
    return MessageView(inbox_->msgs[i]);
  }
  MessageView front() const { return (*this)[0]; }

  /// Total words across all messages.
  std::size_t total_words() const noexcept { return inbox_->words; }

  class iterator {
   public:
    using value_type = MessageView;
    using difference_type = std::ptrdiff_t;

    iterator(const InboxView* view, std::size_t i) : view_(view), i_(i) {}
    MessageView operator*() const { return (*view_)[i_]; }
    iterator& operator++() {
      ++i_;
      return *this;
    }
    iterator operator++(int) {
      iterator copy = *this;
      ++i_;
      return copy;
    }
    friend bool operator==(const iterator& a, const iterator& b) {
      return a.i_ == b.i_;
    }
    friend bool operator!=(const iterator& a, const iterator& b) {
      return a.i_ != b.i_;
    }

   private:
    const InboxView* view_;
    std::size_t i_;
  };

  iterator begin() const { return {this, 0}; }
  iterator end() const { return {this, size()}; }

 private:
  const Inbox* inbox_;
};

}  // namespace arbor::engine
