#pragma once
// English-Hebrew labeling (Nudler-Rudolph style, Figure 3 row 1): each
// thread carries two materialized bit-string labels, its path in English
// orientation (left child 0, right child 1 at every node) and in Hebrew
// orientation (P-nodes flip: left 1, right 0). Lexicographic comparison
// of the paths gives the English and Hebrew orders, and
//   u precedes v  iff  engl(u) < engl(v) and hebr(u) < hebr(v).
// Labels are Theta(f) bits in the worst case (a spawn chain), which is
// the space/query blow-up the paper's Figure 3 charges this scheme.

#include <cstddef>
#include <cstdint>
#include <vector>

#include "sptree/sp_maintenance.hpp"

namespace spr::label {

class EnglishHebrew final : public tree::SpMaintenance {
 public:
  explicit EnglishHebrew(const tree::ParseTree& t)
      : eng_(t.leaf_count()), heb_(t.leaf_count()) {}

  // The open forks' path bits double as the stack of per-fork series
  // flags: a series fork starts its Hebrew bit at 0, a parallel one at 1,
  // and the switch to the right branch flips it either way.
  void on_fork(bool series) override {
    path_eng_.push_back(0);
    path_heb_.push_back(series ? 0 : 1);
  }

  void on_switch() override {
    path_eng_.back() = 1;
    path_heb_.back() ^= 1;
  }

  void on_join() override {
    path_eng_.pop_back();
    path_heb_.pop_back();
  }

  void on_thread_begin(tree::ThreadId t) override {
    eng_[t] = path_eng_;
    heb_[t] = path_heb_;
  }

  bool precedes(tree::ThreadId u, tree::ThreadId v) override {
    if (u == v) return false;
    return lex_less(eng_[u], eng_[v]) && lex_less(heb_[u], heb_[v]);
  }

  std::uint32_t label_bits(tree::ThreadId u) const {
    return static_cast<std::uint32_t>(eng_[u].size() + heb_[u].size());
  }

  std::size_t memory_bytes() const override {
    std::size_t bytes = sizeof(*this);
    for (const auto& l : eng_) bytes += l.capacity() * sizeof(std::uint8_t);
    for (const auto& l : heb_) bytes += l.capacity() * sizeof(std::uint8_t);
    return bytes;
  }

 private:
  using Label = std::vector<std::uint8_t>;

  // Paths to distinct leaves always diverge before either ends, but keep
  // the prefix rule (shorter first) for robustness.
  static bool lex_less(const Label& a, const Label& b) {
    const std::size_t n = a.size() < b.size() ? a.size() : b.size();
    for (std::size_t i = 0; i < n; ++i)
      if (a[i] != b[i]) return a[i] < b[i];
    return a.size() < b.size();
  }

  Label path_eng_;
  Label path_heb_;
  std::vector<Label> eng_;
  std::vector<Label> heb_;
};

}  // namespace spr::label
