#pragma once
// Trace recording: serializes a parse-tree execution into the streaming
// service's event vocabulary (race/stream/event.hpp). The recorder is a
// WalkVisitor, so any parse tree a serial walk can drive — the
// generators' lowered programs, the trees SP-hybrid runs — can be
// captured once and replayed through the service at any batch size.

#include <cstddef>
#include <vector>

#include "race/stream/event.hpp"
#include "sptree/sp_maintenance.hpp"
#include "sptree/walk.hpp"

namespace spr::fj {

/// Appends the event-stream serialization of a serial walk to `out`.
class EventRecorder final : public tree::WalkVisitor {
 public:
  EventRecorder(const tree::ParseTree& t, std::vector<race::stream::Event>& out)
      : tree_(t), out_(&out) {}

  void enter_internal(const tree::Node& n) override {
    out_->push_back(
        race::stream::fork_event(n.kind == tree::NodeKind::kSeries));
  }
  void between_children(const tree::Node&) override {
    out_->push_back(race::stream::switch_event());
  }
  void leave_internal(const tree::Node&) override {
    out_->push_back(race::stream::join_event());
  }
  void visit_leaf(const tree::Node& n) override {
    out_->push_back(race::stream::thread_begin_event(n.thread));
    for (const tree::Access& a : tree_.accesses(n.thread))
      out_->push_back(race::stream::access_event(a.loc, a.write, a.locks));
  }
  void leave_leaf(const tree::Node&) override {
    out_->push_back(race::stream::thread_end_event());
  }

 private:
  const tree::ParseTree& tree_;
  std::vector<race::stream::Event>* out_;
};

inline std::vector<race::stream::Event> record_events(
    const tree::ParseTree& t) {
  std::vector<race::stream::Event> out;
  EventRecorder rec(t, out);
  serial_walk(t, rec);
  return out;
}

/// Chops an event vector into epoch-numbered batches of at most
/// `batch_size` events for stream `s` (batch_size 0 = one whole-trace
/// batch).
inline std::vector<race::stream::Batch> make_batches(
    const std::vector<race::stream::Event>& events, race::stream::StreamId s,
    std::size_t batch_size) {
  std::vector<race::stream::Batch> out;
  if (batch_size == 0) batch_size = events.size() > 0 ? events.size() : 1;
  for (std::size_t lo = 0; lo < events.size(); lo += batch_size) {
    const std::size_t hi =
        lo + batch_size < events.size() ? lo + batch_size : events.size();
    race::stream::Batch b;
    b.stream = s;
    b.epoch = out.size();
    b.events.assign(events.begin() + static_cast<std::ptrdiff_t>(lo),
                    events.begin() + static_cast<std::ptrdiff_t>(hi));
    out.push_back(std::move(b));
  }
  return out;
}

}  // namespace spr::fj
