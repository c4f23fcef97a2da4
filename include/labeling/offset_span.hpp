#pragma once
// Offset-span labeling (Mellor-Crummey, Figure 3 row 2): each thread
// carries a sequence of [offset, span] pairs of length Theta(d), where d
// is the fork-join nesting depth. A P-node (fork of span 2) extends the
// current label with a fresh pair; sequencing (an S-node moving to its
// right child, or the continuation after a join) bumps the last pair's
// offset by its span, so offsets within one fork context stay congruent
// modulo the span.
//
// Ordering test: u precedes v iff, at the first differing pair position
// (o1, s) vs (o2, s), o1 < o2 and o1 ≡ o2 (mod s) — same branch, earlier
// sync round; differing residues mean the threads sit in sibling branches
// of the fork and are parallel. A label that is a prefix of another
// precedes it.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sptree/sp_maintenance.hpp"

namespace spr::label {

class OffsetSpan final : public tree::SpMaintenance {
 public:
  explicit OffsetSpan(const tree::ParseTree& t) : labels_(t.leaf_count()) {
    cur_.push_back({0, 1});
  }

  void on_fork(bool series) override {
    series_.push_back(series);
    if (!series) {
      saved_.push_back(cur_);
      cur_.push_back({0, 2});
    }
  }

  void on_switch() override {
    if (!series_.back()) {
      // Sibling branch of the fork: offset 1 in the same span-2 context.
      cur_ = saved_.back();
      cur_.push_back({1, 2});
    } else {
      // Serial successor: bump the last pair by its span.
      cur_.back().offset += cur_.back().span;
    }
  }

  void on_join() override {
    if (!series_.back()) {
      // Join: the continuation resumes from the pre-fork label, advanced
      // one sync round.
      cur_ = saved_.back();
      cur_.back().offset += cur_.back().span;
      saved_.pop_back();
    }
    series_.pop_back();
  }

  void on_thread_begin(tree::ThreadId t) override { labels_[t] = cur_; }

  bool precedes(tree::ThreadId u, tree::ThreadId v) override {
    if (u == v) return false;
    const Label& a = labels_[u];
    const Label& b = labels_[v];
    const std::size_t n = a.size() < b.size() ? a.size() : b.size();
    for (std::size_t i = 0; i < n; ++i) {
      if (a[i].offset == b[i].offset) continue;
      const std::uint64_t span = a[i].span;
      return a[i].offset < b[i].offset &&
             a[i].offset % span == b[i].offset % span;
    }
    return a.size() < b.size();
  }

  std::uint32_t label_pairs(tree::ThreadId u) const {
    return static_cast<std::uint32_t>(labels_[u].size());
  }

  std::size_t memory_bytes() const override {
    std::size_t bytes = sizeof(*this);
    for (const auto& l : labels_) bytes += l.capacity() * sizeof(Pair);
    return bytes;
  }

 private:
  struct Pair {
    std::uint64_t offset = 0;
    std::uint64_t span = 1;
  };
  using Label = std::vector<Pair>;

  std::vector<Label> labels_;
  Label cur_;
  std::vector<bool> series_;  ///< kinds of the open forks
  std::vector<Label> saved_;  ///< pre-fork labels of open P-nodes
};

}  // namespace spr::label
