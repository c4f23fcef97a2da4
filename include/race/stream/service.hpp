#pragma once
// Session layer of the streaming race-detection service: many concurrent
// client streams, each an independent fork-join program trace, ingested
// as epoch-numbered event batches (race/stream/event.hpp) and answered
// with per-stream race verdicts.
//
//   Service<Sp, Shadow> svc;
//   StreamId s = svc.open_stream();          // Sp and Shadow per stream
//   svc.submit({s, /*epoch=*/0, events});    // typed reject on bad input
//   svc.finish(s);                           // rejects truncated traces
//   svc.report(s).races.has_race();
//
// Concurrency contract: one submitter per stream at a time (enforced by a
// per-stream mutex — a second client of the same stream serializes, it
// does not corrupt), any number of streams in parallel. Each stream owns
// its SP engine and its shadow memory (race/stream/shadow_shards.hpp's
// one-owner shadows), and only the stream mutex guards them, so streams
// share nothing but the stream table. Verdicts are deterministic: they
// depend only on each stream's own event order, never on cross-stream
// interleaving — the mc stream scenarios check exactly this.
//
// Applying a batch is one pass in event order: each structural event
// goes to the stream's SP engine and each access to the stream's shadow,
// while the thread that issued it is the one executing. finish() frees
// the engine and the shadow, so a finished stream keeps only its report.
//
// Validation: every batch is trial-run against the stream's trace
// grammar BEFORE any of it is applied, so a rejected batch leaves the
// stream byte-identical (atomic reject) and the client can repair and
// resubmit the same epoch.

#include <cstdint>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "race/shadow_protocol.hpp"
#include "race/stream/event.hpp"
#include "race/stream/shadow_shards.hpp"
#include "sporder/sp_order.hpp"
#include "util/atomics.hpp"

namespace spr::race::stream {

/// The native per-stream SP engine: SP-order driven by the stream's events.
using StreamingSpOrder = order::StreamingSpOrder;

/// Trace-grammar validator (see event.hpp for the grammar). Copyable so
/// submit() can trial-run a batch and commit only on success; state is
/// O(fork nesting depth).
class TraceValidator {
 public:
  IngestError step(const Event& e) {
    switch (e.kind) {
      case EventKind::kFork:
        if (in_thread_ || !expect_subtree_) return IngestError::kMisplacedFork;
        stages_.push_back(0);
        return IngestError::kOk;
      case EventKind::kThreadBegin:
        if (in_thread_ || !expect_subtree_)
          return IngestError::kMisplacedThreadBegin;
        if (e.thread != next_thread_) return IngestError::kThreadIdMismatch;
        ++next_thread_;
        in_thread_ = true;
        expect_subtree_ = false;
        return IngestError::kOk;
      case EventKind::kAccess:
        if (!in_thread_) return IngestError::kMisplacedAccess;
        return IngestError::kOk;
      case EventKind::kThreadEnd:
        if (!in_thread_) return IngestError::kMisplacedThreadEnd;
        in_thread_ = false;  // a subtree just completed
        return IngestError::kOk;
      case EventKind::kSwitch:
        if (in_thread_ || expect_subtree_ || stages_.empty() ||
            stages_.back() != 0)
          return IngestError::kMisplacedSwitch;
        stages_.back() = 1;
        expect_subtree_ = true;
        return IngestError::kOk;
      case EventKind::kJoin:
        if (in_thread_ || expect_subtree_ || stages_.empty() ||
            stages_.back() != 1)
          return IngestError::kMisplacedJoin;
        stages_.pop_back();  // the fork's subtree just completed
        return IngestError::kOk;
    }
    return IngestError::kMisplacedAccess;  // unreachable
  }

  /// True once exactly one whole subtree has been consumed.
  bool complete() const {
    return !in_thread_ && !expect_subtree_ && stages_.empty();
  }

 private:
  std::vector<std::uint8_t> stages_;  ///< open forks: 0 = in left branch,
                                      ///< 1 = in right branch
  bool in_thread_ = false;
  bool expect_subtree_ = true;  ///< a subtree must start next
  tree::ThreadId next_thread_ = 0;
};

struct ServiceOptions {
  /// Ignored: every stream owns an unsharded shadow. It remains only
  /// because bench/spbench constructs `Service({kShards})`; drop it with
  /// that call.
  std::uint32_t shards = 16;
};

struct StreamReport {
  RaceReport races;
  std::uint64_t events = 0;
  std::uint64_t batches = 0;
  bool finished = false;
};

/// `Sp` answers precedes(u, v) for u an earlier thread and v the thread
/// now executing, as strictly on-the-fly engines do: an access is applied
/// before any later structural event, so SP-order and SP-bags both serve.
template <typename Sp = StreamingSpOrder,
          typename Shadow = OwnedDeterminacyShadow>
class Service {
 public:
  explicit Service(ServiceOptions = {}) {}

  /// Opens a new stream whose SP engine is constructed from `args`
  /// (in place: SP engines hold OM lists and are not movable).
  template <typename... Args>
  StreamId open_stream(Args&&... args) {
    auto st = std::make_unique<StreamState>(std::forward<Args>(args)...);
    spr::lock_guard<spr::mutex> lock(streams_mu_);
    streams_.push_back(std::move(st));
    return static_cast<StreamId>(streams_.size() - 1);
  }

  IngestResult submit(const Batch& b) {
    StreamState* st = stream(b.stream);
    if (st == nullptr) return {IngestError::kUnknownStream, 0};
    spr::lock_guard<spr::mutex> lock(st->mu);
    if (st->rep.finished) return {IngestError::kStreamFinished, 0};
    if (b.epoch < st->next_epoch) return {IngestError::kEpochReplayed, 0};
    if (b.epoch > st->next_epoch) return {IngestError::kEpochGap, 0};
    // Trial pass: nothing is applied unless the whole batch is valid.
    TraceValidator trial = st->validator;
    for (std::size_t i = 0; i < b.events.size(); ++i) {
      const IngestError err = trial.step(b.events[i]);
      if (err != IngestError::kOk)
        return {err, static_cast<std::uint32_t>(i)};
    }
    st->validator = std::move(trial);
    ++st->next_epoch;
    apply(b, *st);
    return {IngestError::kOk, 0};
  }

  IngestResult finish(StreamId s) {
    StreamState* st = stream(s);
    if (st == nullptr) return {IngestError::kUnknownStream, 0};
    spr::lock_guard<spr::mutex> lock(st->mu);
    if (st->rep.finished) return {IngestError::kStreamFinished, 0};
    if (!st->validator.complete()) return {IngestError::kTruncated, 0};
    st->rep.finished = true;
    st->sp.reset();
    st->shadow.reset();
    return {IngestError::kOk, 0};
  }

  StreamReport report(StreamId s) const {
    StreamState* st = stream(s);
    if (st == nullptr) return {};
    spr::lock_guard<spr::mutex> lock(st->mu);
    return st->rep;
  }

  std::size_t memory_bytes() const {
    spr::lock_guard<spr::mutex> lock(streams_mu_);
    std::size_t n = sizeof(*this);
    for (const auto& st : streams_) {
      spr::lock_guard<spr::mutex> stream_lock(st->mu);
      n += sizeof(StreamState);
      if (st->sp) n += st->sp->memory_bytes();
      if (st->shadow) n += st->shadow->memory_bytes();
    }
    return n;
  }

  /// What memory_bytes() counts for a finished stream.
  static constexpr std::size_t finished_stream_bytes() {
    return sizeof(StreamState);
  }

 private:
  struct StreamState {
    template <typename... Args>
    explicit StreamState(Args&&... args)
        : sp(std::in_place, std::forward<Args>(args)...) {}
    mutable spr::mutex mu;  ///< serializes submitters; guards all below
    std::optional<Sp> sp;   ///< empty once finished
    std::optional<Shadow> shadow{std::in_place};  ///< empty once finished
    TraceValidator validator;
    std::uint64_t next_epoch = 0;
    tree::ThreadId current = tree::kNoThread;  ///< open leaf thread
    StreamReport rep;
  };

  StreamState* stream(StreamId s) const {
    spr::lock_guard<spr::mutex> lock(streams_mu_);
    if (s >= streams_.size()) return nullptr;
    return streams_[s].get();
  }

  void apply(const Batch& b, StreamState& st) {
    Sp& sp = *st.sp;
    Shadow& shadow = *st.shadow;
    const auto serial = counted_serial(
        [&sp](tree::ThreadId u, tree::ThreadId v) { return sp.precedes(u, v); },
        st.rep.races.queries);
    for (const Event& e : b.events) {
      if (e.kind == EventKind::kAccess) {
        shadow.apply(b.stream, tree::Access{e.loc, e.write, e.locks},
                     st.current, serial, st.rep.races.race_count);
        continue;
      }
      feed_sp(sp, e);
      if (e.kind == EventKind::kThreadBegin) st.current = e.thread;
    }
    st.rep.events += b.events.size();
    ++st.rep.batches;
  }

  mutable spr::mutex streams_mu_;
  std::vector<std::unique_ptr<StreamState>> streams_;
};

/// The service most deployments want: native per-stream SP-order over the
/// determinacy shadow protocol.
using IngestService = Service<>;

}  // namespace spr::race::stream
