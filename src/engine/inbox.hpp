// Flat per-machine inboxes and the views the step functions read them
// through.
//
// The engine never materializes a std::vector per message: an Inbox is one
// Word arena plus an (offset, length) record per message, both reused across
// rounds (clear() keeps capacity). Step functions and tests access messages
// through InboxView/MessageView, which read the flat arena and the
// scheduler's zero-copy ScatterInbox alike — so the same program text runs
// unchanged over either.
#pragma once

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "engine/types.hpp"
#include "util/assert.hpp"

namespace arbor::engine {

/// One machine's received messages as a flat arena + offset records.
struct Inbox {
  struct Msg {
    std::size_t offset = 0;
    std::size_t length = 0;
  };

  std::vector<Word> words;
  std::vector<Msg> msgs;

  void clear() noexcept {
    words.clear();
    msgs.clear();
  }

  std::size_t word_count() const noexcept { return words.size(); }
  std::size_t message_count() const noexcept { return msgs.size(); }

  void append(std::span<const Word> payload) {
    msgs.push_back({words.size(), payload.size()});
    words.insert(words.end(), payload.begin(), payload.end());
  }

  std::span<const Word> message(std::size_t i) const {
    const Msg& m = msgs[i];
    return {words.data() + m.offset, m.length};
  }
};

/// One machine's received messages as spans into the sender arenas — the
/// zero-copy inbox the scheduler's delivery produces.
/// The spans alias the frozen outbox bank of the round that delivered
/// them, so they stay valid for exactly one round (the banks alternate);
/// the scheduler materializes them into flat Inboxes at program end, which
/// is the only point anything outlives the round.
struct ScatterInbox {
  std::vector<std::span<const Word>> msgs;
  std::size_t words = 0;  ///< total payload words across msgs

  void clear() noexcept {
    msgs.clear();
    words = 0;
  }
};

/// Read-only view of one message; converts to std::vector<Word> so code
/// written against the vector-based inboxes keeps compiling.
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

  operator std::vector<Word>() const {  // NOLINT(google-explicit-constructor)
    return {span_.begin(), span_.end()};
  }

  friend bool operator==(const MessageView& a, const std::vector<Word>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end());
  }
  friend bool operator==(const std::vector<Word>& a, const MessageView& b) {
    return b == a;
  }

 private:
  std::span<const Word> span_;
};

/// Read-only view over one machine's inbox, independent of whether the
/// storage is a flat arena or scatter spans.
class InboxView {
 public:
  InboxView() = default;
  explicit InboxView(const Inbox& flat) : flat_(&flat) {}
  explicit InboxView(const ScatterInbox& scatter) : scatter_(&scatter) {}

  std::size_t size() const noexcept {
    if (flat_) return flat_->message_count();
    if (scatter_) return scatter_->msgs.size();
    return 0;
  }
  bool empty() const noexcept { return size() == 0; }

  MessageView operator[](std::size_t i) const {
    ARBOR_DCHECK(i < size());
    if (flat_) return MessageView(flat_->message(i));
    return MessageView(scatter_->msgs[i]);
  }
  MessageView front() const { return (*this)[0]; }

  /// Total words across all messages.
  std::size_t total_words() const noexcept {
    if (flat_) return flat_->word_count();
    if (scatter_) return scatter_->words;
    return 0;
  }

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
  const Inbox* flat_ = nullptr;
  const ScatterInbox* scatter_ = nullptr;
};

}  // namespace arbor::engine
