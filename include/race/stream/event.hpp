#pragma once
// Event vocabulary of the streaming race-detection service: a fork-join
// execution trace serialized as fork/switch/join/thread/access records,
// shipped in per-stream batches tagged with an epoch (the batch sequence
// number). The grammar is exactly the event protocol of
// tree::SpMaintenance (sptree/sp_maintenance.hpp), plus thread ends and
// accesses —
//
//   trace  := subtree
//   subtree := kFork subtree kSwitch subtree kJoin
//            | kThreadBegin kAccess* kThreadEnd
//
// — which is all an on-the-fly SP-maintenance algorithm gets to see, so
// any client that can drive a serial walk can also feed the service.
// Thread ids must arrive in English (serial) order: the n-th kThreadBegin
// of a stream carries thread id n-1. The service validates every batch
// against this grammar before applying any of it and rejects malformed
// input with the typed errors below.

#include <cstdint>
#include <vector>

#include "sptree/sp_maintenance.hpp"

namespace spr::race::stream {

using StreamId = std::uint32_t;
inline constexpr StreamId kNoStream = ~StreamId{0};

enum class EventKind : std::uint8_t {
  kFork = 0,     ///< enter a series/parallel composition (Event::series)
  kSwitch,       ///< left branch done; the right branch starts
  kJoin,         ///< close the innermost open composition
  kThreadBegin,  ///< begin leaf thread Event::thread (ids are sequential)
  kThreadEnd,    ///< end the current leaf thread
  kAccess,       ///< memory access by the current leaf thread
};

struct Event {
  EventKind kind = EventKind::kAccess;
  bool series = false;  ///< kFork: series (true) or parallel (false)
  bool write = false;   ///< kAccess
  tree::ThreadId thread = tree::kNoThread;  ///< kThreadBegin
  std::uint64_t loc = 0;                    ///< kAccess
  std::uint64_t locks = 0;  ///< kAccess: bitmask of held locks (ALL-SETS)
};

inline Event fork_event(bool series) {
  Event e;
  e.kind = EventKind::kFork;
  e.series = series;
  return e;
}
inline Event switch_event() {
  Event e;
  e.kind = EventKind::kSwitch;
  return e;
}
inline Event join_event() {
  Event e;
  e.kind = EventKind::kJoin;
  return e;
}
inline Event thread_begin_event(tree::ThreadId t) {
  Event e;
  e.kind = EventKind::kThreadBegin;
  e.thread = t;
  return e;
}
inline Event thread_end_event() {
  Event e;
  e.kind = EventKind::kThreadEnd;
  return e;
}
inline Event access_event(std::uint64_t loc, bool write,
                          std::uint64_t locks = 0) {
  Event e;
  e.kind = EventKind::kAccess;
  e.loc = loc;
  e.write = write;
  e.locks = locks;
  return e;
}

/// Feeds `e` to an SP-maintenance engine (tree::SpMaintenance or a type
/// with the same on_* methods) if it is one of the four structural
/// events; thread-end and access events are not SP maintenance's concern.
template <typename Sp>
inline void feed_sp(Sp& sp, const Event& e) {
  switch (e.kind) {
    case EventKind::kFork: sp.on_fork(e.series); break;
    case EventKind::kSwitch: sp.on_switch(); break;
    case EventKind::kJoin: sp.on_join(); break;
    case EventKind::kThreadBegin: sp.on_thread_begin(e.thread); break;
    case EventKind::kThreadEnd:
    case EventKind::kAccess: break;
  }
}

struct Batch {
  StreamId stream = kNoStream;
  std::uint64_t epoch = 0;  ///< per-stream batch sequence number, 0-based
  std::vector<Event> events;
};

enum class IngestError : std::uint8_t {
  kOk = 0,
  kUnknownStream,   ///< stream id was never opened
  kStreamFinished,  ///< batch arrived after finish()
  kEpochReplayed,   ///< duplicate batch: epoch below the next expected
  kEpochGap,        ///< reordered or lost batch: epoch above the next
  kMisplacedFork,   ///< fork inside a thread or after the trace closed
  kMisplacedSwitch,    ///< no open fork is awaiting its right branch
  kMisplacedJoin,      ///< no open fork has completed its right branch
  kMisplacedThreadBegin,  ///< thread begun inside a thread / closed trace
  kThreadIdMismatch,      ///< duplicate or gapped thread id
  kMisplacedAccess,       ///< access outside a thread
  kMisplacedThreadEnd,    ///< thread end without an open thread
  kTruncated,  ///< finish() with open forks or an open thread
};

inline const char* to_string(IngestError e) {
  switch (e) {
    case IngestError::kOk: return "ok";
    case IngestError::kUnknownStream: return "unknown stream";
    case IngestError::kStreamFinished: return "stream already finished";
    case IngestError::kEpochReplayed: return "duplicate batch epoch";
    case IngestError::kEpochGap: return "batch epoch gap (reordered/lost)";
    case IngestError::kMisplacedFork: return "misplaced fork";
    case IngestError::kMisplacedSwitch: return "misplaced switch";
    case IngestError::kMisplacedJoin: return "misplaced join";
    case IngestError::kMisplacedThreadBegin: return "misplaced thread begin";
    case IngestError::kThreadIdMismatch: return "thread id mismatch";
    case IngestError::kMisplacedAccess: return "access outside a thread";
    case IngestError::kMisplacedThreadEnd: return "misplaced thread end";
    case IngestError::kTruncated: return "truncated trace at finish";
  }
  return "?";
}

struct IngestResult {
  IngestError error = IngestError::kOk;
  std::uint32_t event_index = 0;  ///< first offending event, when relevant
  bool ok() const { return error == IngestError::kOk; }
};

}  // namespace spr::race::stream
