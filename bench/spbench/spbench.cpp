// spbench: the repository benchmark. One process runs one workload:
//
//   spbench --workload <name> --seed <n> [--seconds <s>] [--trace <file>]
//
// It sets the workload up five times (the median is setup_s), runs one
// untimed warm-up round, then runs rounds for --seconds and prints, as the
// last line of stdout, one JSON object with the keys correct, attempted,
// failed and metrics. Without --trace the metrics are the end-to-end
// ones. With --trace the first half of the time runs untraced and the
// second half records spans around every layer call; the metrics are then
// the per-layer ones, and the spans are written to <file>. --seconds 0 is
// the smoke mode: one set-up, no warm-up, one round per phase.
//
// Every output is checked against a reference verdict computed in set-up
// through a different path; each mismatch or reject counts as failed.
// README.md beside this file lists the workloads, the metrics and the
// self-time algebra of the traced run.

#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <exception>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "layers.hpp"

namespace {

namespace L = spbench::layers;

// ---- workload sizes -------------------------------------------------------

constexpr std::uint64_t kDetectN = 1u << 17;   // per detect_serial kernel
constexpr std::uint64_t kIngestN = 1u << 17;   // stencil: ~1.2 M events
constexpr std::size_t kSubmitEvents = 256;     // events per submit()
constexpr std::uint32_t kChurnPrograms = 128;  // distinct churn programs
constexpr std::uint32_t kChurnStreams = 512;   // streams per churn service
constexpr std::uint64_t kChurnPool = 4096;     // churn location pool
constexpr std::uint64_t kHybridN = 1u << 19;   // dnc_fill size
constexpr int kSetupReps = 5;

// ---- time and statistics --------------------------------------------------

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

double secs_since(std::int64_t t0) { return 1e-9 * double(now_ns() - t0); }

/// Nearest-rank quantile; 0 for an empty sample.
double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(std::ceil(q * double(v.size())));
  return v[rank == 0 ? 0 : rank - 1];
}

double median(const std::vector<double>& v) { return quantile(v, 0.5); }

double ratio(double a, double b) { return b > 0 ? a / b : 0; }

unsigned cpu_count() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  const int n = CPU_COUNT(&set);
  return n > 0 ? static_cast<unsigned>(n) : 1;
}

double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return double(ru.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

// ---- spans ----------------------------------------------------------------

enum SpanKind : std::uint8_t {
  kRound,
  kDetect,
  kWalk,
  kMaintain,
  kQuery,
  kStream,
  kReplay,
  kOpen,
  kSubmit,
  kFinish,
  kReport,
  kValidate,
  kSpEvents,
  kShadow,
  kSpQuery,
  kHybridP1,
  kHybridPN,
  kPlainPN,
  kSpanKinds
};

const char* const kSpanName[kSpanKinds] = {
    "round",
    "race.detect_races",
    "sptree.walk",
    "sporder.maintain",
    "sporder.query",
    "stream",
    "replay.stream",
    "race.stream.open_stream",
    "race.stream.submit",
    "race.stream.finish",
    "race.stream.report",
    "replay.validate",
    "replay.sp_events",
    "replay.shadow",
    "replay.sp_query",
    "sphybrid.run_p1",
    "sphybrid.run_pn",
    "sphybrid.plain_pn",
};

struct Span {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;  ///< index in the same log, -1 for none
  std::uint32_t round = 0;
  SpanKind kind = kRound;
};

/// One thread's spans, kept in memory until the run ends. Opening a span
/// on a log that is off costs one branch and returns -1.
struct SpanLog {
  bool on = false;
  std::vector<Span> spans;

  std::int32_t open(SpanKind k, std::int32_t parent, std::uint32_t round) {
    if (!on) return -1;
    spans.push_back(Span{now_ns(), 0, parent, round, k});
    return static_cast<std::int32_t>(spans.size() - 1);
  }
  void close(std::int32_t i) {
    if (i >= 0) spans[static_cast<std::size_t>(i)].end = now_ns();
  }
};

struct SpanTotals {
  double ns[kSpanKinds] = {};       ///< summed duration
  double self_ns[kSpanKinds] = {};  ///< duration minus child spans
  std::uint64_t count[kSpanKinds] = {};
};

SpanTotals totals(const std::vector<SpanLog>& logs) {
  SpanTotals t;
  for (const SpanLog& log : logs) {
    std::vector<double> child(log.spans.size(), 0.0);
    for (const Span& s : log.spans)
      if (s.parent >= 0)
        child[static_cast<std::size_t>(s.parent)] += double(s.end - s.start);
    for (std::size_t i = 0; i < log.spans.size(); ++i) {
      const Span& s = log.spans[i];
      t.ns[s.kind] += double(s.end - s.start);
      t.self_ns[s.kind] += double(s.end - s.start) - child[i];
      ++t.count[s.kind];
    }
  }
  return t;
}

// ---- correctness tally ----------------------------------------------------

struct Tally {
  std::atomic<std::uint64_t> attempted{0};
  std::atomic<std::uint64_t> failed{0};

  void check(bool ok, const char* what) {
    attempted.fetch_add(1, std::memory_order_relaxed);
    if (ok) return;
    if (failed.fetch_add(1, std::memory_order_relaxed) < 5)
      std::fprintf(stderr, "spbench: check failed: %s\n", what);
  }
};

// ---- phases and workloads -------------------------------------------------

/// Everything one phase (untraced or traced) of a run measured.
struct Phase {
  bool traced = false;
  std::uint32_t rounds = 0;
  std::vector<double> op_ms;          ///< one per headline operation
  std::vector<double> round_maccess;  ///< M accesses/s, one per round
  std::vector<SpanLog> logs;          ///< [0] main thread, [1 + c] client c
};

using LayerMap = std::map<std::string, double>;

struct SetupTimes {
  std::vector<double> lower_s, record_s, verdict_s;
};

class Workload {
 public:
  virtual ~Workload() = default;
  /// Generates the inputs from `seed`, lowers and records them, and
  /// computes the reference verdicts, adding each part's time to `st`.
  virtual void setup(std::uint64_t seed, SetupTimes& st) = 0;
  /// Extra inputs the traced phase needs; not part of setup_s.
  virtual void prepare_trace() {}
  virtual void round(Phase& p, Tally& t) = 0;
  /// Fills the per-layer metrics this workload exercises.
  virtual void layers(const Phase& untraced, const Phase& traced,
                      LayerMap& out) = 0;
};

/// Seeded bijection on 48-bit locations: the same programs touch
/// different addresses under different seeds, so shard and table
/// placement vary with the seed while the program structure does not.
struct Remap {
  std::uint64_t mul = 1, add = 0;
  explicit Remap(L::Rng& rng) : mul(rng.next_u64() | 1), add(rng.next_u64()) {}
  std::uint64_t operator()(std::uint64_t x) const {
    return (x * mul + add) & ((std::uint64_t{1} << 48) - 1);
  }
};

std::uint64_t count_accesses(const std::vector<L::Event>& ev) {
  std::uint64_t n = 0;
  for (const L::Event& e : ev) n += e.kind == L::EventKind::kAccess;
  return n;
}

void add_om(LayerMap& out, const L::OmStats& s, double per) {
  out["om.inserts"] = ratio(double(s.inserts), per);
  out["om.items_moved_per_insert"] =
      ratio(double(s.items_moved), double(s.inserts));
  out["om.bucket_splits"] = ratio(double(s.bucket_splits), per);
  out["om.top_relabels"] = ratio(double(s.top_relabels), per);
}

// ---- detect_serial --------------------------------------------------------

/// Corollary 6: the serial detector (race::detect_races over SpOrder) on
/// three access-carrying kernels.
class DetectSerial final : public Workload {
 public:
  void setup(std::uint64_t seed, SetupTimes& st) override {
    kernels_.clear();
    L::Rng rng(seed);
    const Remap remap(rng);
    std::vector<L::Prog> progs;
    progs.push_back(L::stencil(kDetectN, 8, rng.next_bool()));
    progs.push_back(L::reduce_sum(kDetectN, 8, rng.next_bool()));
    progs.push_back(L::dnc_fill(kDetectN, 4, true));
    double lower = 0, record = 0, verdict = 0;
    for (L::Prog& p : progs) {
      L::map_locations(p, remap);
      std::int64_t t0 = now_ns();
      Kernel k;
      k.tree = L::lower(p);
      lower += secs_since(t0);
      p = L::Prog{};
      t0 = now_ns();
      const std::vector<L::Event> ev = L::record(k.tree);
      record += secs_since(t0);
      t0 = now_ns();
      if (!L::service_detect(ev, k.ref))
        throw std::runtime_error("reference trace rejected by the service");
      verdict += secs_since(t0);
      k.accesses = count_accesses(ev);
      k.threads = k.tree.leaf_count();
      kernels_.push_back(std::move(k));
    }
    st.lower_s.push_back(lower);
    st.record_s.push_back(record);
    st.verdict_s.push_back(verdict);
  }

  void prepare_trace() override {
    for (Kernel& k : kernels_) {
      k.pairs.clear();
      L::detect_races_logging(k.tree, k.pairs);
    }
  }

  void round(Phase& p, Tally& t) override {
    SpanLog& log = p.logs[0];
    const std::int32_t rs = log.open(kRound, -1, p.rounds);
    double detect_s = 0;
    std::uint64_t accesses = 0;
    om_ = {};
    for (const Kernel& k : kernels_) {
      const std::int64_t t0 = now_ns();
      const std::int32_t s = log.open(kDetect, rs, p.rounds);
      const L::RaceReport r = L::detect_races(k.tree);
      log.close(s);
      const double dt = secs_since(t0);
      detect_s += dt;
      accesses += k.accesses;
      p.op_ms.push_back(dt * 1e3);
      t.check(r.race_count == k.ref.race_count && r.queries == k.ref.queries,
              "detect_races verdict differs from the service reference");
      if (p.traced) probe(k, log, rs, p.rounds);
    }
    log.close(rs);
    p.round_maccess.push_back(ratio(double(accesses), detect_s) / 1e6);
  }

  void layers(const Phase&, const Phase& tr, LayerMap& out) override {
    const SpanTotals T = totals(tr.logs);
    double threads = 0, accesses = 0, pairs = 0;
    for (const Kernel& k : kernels_) {
      threads += double(k.threads);
      accesses += double(k.accesses);
      pairs += double(k.pairs.size());
    }
    const double rounds = tr.rounds;
    out["sptree.walk_ns_per_thread"] = ratio(T.ns[kWalk], threads * rounds);
    out["detect.slowdown"] = ratio(T.ns[kDetect], T.ns[kWalk]);
    out["sporder.maintain_ns_per_thread"] =
        ratio(T.ns[kMaintain], threads * rounds);
    out["sporder.query_ns"] = ratio(T.ns[kQuery], pairs * rounds);
    out["race.detector.self_ns_per_access"] = ratio(
        T.ns[kDetect] - T.ns[kWalk] - T.ns[kMaintain] - T.ns[kQuery],
        accesses * rounds);
    out["race.detector.batches"] = threads;  // one flush per leaf
    add_om(out, om_, 1);
  }

 private:
  struct Kernel {
    L::Tree tree;
    L::RaceReport ref;
    std::uint64_t accesses = 0;
    std::uint64_t threads = 0;
    std::vector<L::QueryPair> pairs;  ///< the detector's SP queries
  };

  /// Re-runs the detector's layers one at a time: the plain walk, the SP
  /// maintenance callbacks alone, and the detector's recorded queries.
  void probe(const Kernel& k, SpanLog& log, std::int32_t parent,
             std::uint32_t round) {
    std::int32_t s = log.open(kWalk, parent, round);
    L::plain_walk(k.tree);
    log.close(s);
    s = log.open(kMaintain, parent, round);
    auto sp = std::make_unique<L::SerialSp>(k.tree);
    L::maintain(k.tree, *sp);
    log.close(s);
    s = log.open(kQuery, parent, round);
    L::replay_queries(*sp, k.pairs);
    log.close(s);
    om_ = L::sum(om_, L::om_stats(*sp));
  }

  std::vector<Kernel> kernels_;
  L::OmStats om_;
};

// ---- stream_ingest and stream_churn ---------------------------------------

/// A recorded trace with its reference verdict.
struct Trace {
  std::vector<L::Event> events;
  L::RaceReport ref;
  std::uint64_t accesses = 0;
};

/// What one client's traced replays added up to.
struct ReplayTotals {
  std::uint64_t streams = 0, events = 0, accesses = 0, batches = 0;
  std::uint64_t sp_events = 0, queries = 0, races = 0, sp_bytes = 0;
  L::OmStats om;

  void add(const ReplayTotals& o) {
    streams += o.streams;
    events += o.events;
    accesses += o.accesses;
    batches += o.batches;
    sp_events += o.sp_events;
    queries += o.queries;
    races += o.races;
    sp_bytes += o.sp_bytes;
    om = L::sum(om, o.om);
  }
};

/// One client's view of a round of a stream workload.
struct Client {
  SpanLog* log = nullptr;
  std::uint32_t round = 0;
  Tally* tally = nullptr;
  std::vector<double> submit_ms;
  std::vector<double> stream_ms;
  /// Service pass: each stream's id and verdict, in plan order.
  std::vector<std::pair<L::StreamId, L::RaceReport>> verdicts;
  ReplayTotals rt;
};

/// Loads events [lo, lo + kSubmitEvents) of `tr` into `b`.
void slice(L::Batch& b, const Trace& tr, std::size_t lo) {
  const std::size_t hi = std::min(lo + kSubmitEvents, tr.events.size());
  b.events.assign(tr.events.begin() + static_cast<std::ptrdiff_t>(lo),
                  tr.events.begin() + static_cast<std::ptrdiff_t>(hi));
}

/// Service pass: open -> submit* -> finish -> report on one stream,
/// checked against the reference verdict.
void serve_stream(L::Service& svc, Client& c, const Trace& tr) {
  SpanLog& log = *c.log;
  Tally& t = *c.tally;
  const std::int64_t t0 = now_ns();
  const std::int32_t ss = log.open(kStream, -1, c.round);
  std::int32_t s = log.open(kOpen, ss, c.round);
  L::Batch b;
  b.stream = svc.open_stream();
  log.close(s);
  for (std::size_t lo = 0; lo < tr.events.size(); lo += kSubmitEvents) {
    slice(b, tr, lo);
    const std::int64_t q0 = now_ns();
    s = log.open(kSubmit, ss, c.round);
    const L::IngestResult r = svc.submit(b);
    log.close(s);
    c.submit_ms.push_back(secs_since(q0) * 1e3);
    t.check(r.ok(), "submit rejected a recorded trace");
    ++b.epoch;
  }
  s = log.open(kFinish, ss, c.round);
  t.check(svc.finish(b.stream).ok(), "finish rejected a complete trace");
  log.close(s);
  s = log.open(kReport, ss, c.round);
  const L::StreamReport rep = svc.report(b.stream);
  log.close(s);
  log.close(ss);
  c.stream_ms.push_back(secs_since(t0) * 1e3);
  t.check(rep.races.race_count == tr.ref.race_count &&
              rep.races.queries == tr.ref.queries,
          "stream verdict differs from the detect_races reference");
  c.verdicts.emplace_back(b.stream, rep.races);
}

/// Replay pass (traced rounds): the same batches of the same stream id
/// through a validator copy, a StreamingSpOrder and the shared replay
/// shadow, one span per part; its verdict must equal the service's.
void replay_stream(L::Shadow& shadow, Client& c, const Trace& tr,
                   L::StreamId id, const L::RaceReport& service) {
  SpanLog& log = *c.log;
  const std::int32_t ss = log.open(kReplay, -1, c.round);
  L::StreamSp sp;
  L::Validator v;
  L::ThreadId cur = L::kNoThread;
  std::uint64_t races = 0, queries = 0;
  std::vector<L::QueryPair> pairs;
  L::Batch b;
  b.stream = id;
  for (std::size_t lo = 0; lo < tr.events.size(); lo += kSubmitEvents) {
    slice(b, tr, lo);
    std::int32_t s = log.open(kValidate, ss, c.round);
    const bool valid = L::validate(v, b);
    log.close(s);
    c.tally->check(valid, "replay validator rejected a batch");
    s = log.open(kSpEvents, ss, c.round);
    c.rt.sp_events += L::sp_apply(sp, b);
    log.close(s);
    pairs.clear();
    s = log.open(kShadow, ss, c.round);
    races += L::shadow_apply(shadow, id, b, sp, cur, pairs);
    log.close(s);
    s = log.open(kSpQuery, ss, c.round);
    L::replay_queries(sp, pairs);
    log.close(s);
    queries += pairs.size();
    ++c.rt.batches;
  }
  log.close(ss);
  c.tally->check(races == service.race_count && queries == service.queries,
                 "replay verdict differs from the service");
  c.rt.streams += 1;
  c.rt.events += tr.events.size();
  c.rt.accesses += tr.accesses;
  c.rt.queries += queries;
  c.rt.races += races;
  c.rt.sp_bytes += sp.memory_bytes();
  c.rt.om = L::sum(c.rt.om, L::om_stats(sp));
}

/// Shared round driver of the two stream workloads: a fresh service and
/// `clients` closed-loop client threads, each running the streams
/// `plan(c)` names. A traced round then tears the service down and replays
/// every stream through the service's parts with the same clients, so
/// the replay never shares caches or shard locks with the service.
class StreamWorkload : public Workload {
 public:
  explicit StreamWorkload(unsigned clients) : clients_(clients) {}

  void round(Phase& p, Tally& t) override {
    std::vector<Client> cs(clients_);
    for (unsigned c = 0; c < clients_; ++c) {
      cs[c].log = &p.logs[1 + c];
      cs[c].round = p.rounds;
      cs[c].tally = &t;
    }
    double wall = 0;
    {
      L::Service svc({L::kShards});
      wall = on_clients([&](unsigned c) {
        for (const Trace* tr : plan(c)) serve_stream(svc, cs[c], *tr);
      });
      service_bytes_ = svc.memory_bytes();
    }
    std::uint64_t accesses = 0;
    for (unsigned c = 0; c < clients_; ++c)
      for (const Trace* tr : plan(c)) accesses += tr->accesses;
    p.round_maccess.push_back(ratio(double(accesses), wall) / 1e6);
    for (const Client& c : cs) {
      const std::vector<double>& ops =
          headline_is_stream() ? c.stream_ms : c.submit_ms;
      p.op_ms.insert(p.op_ms.end(), ops.begin(), ops.end());
    }
    if (!p.traced) return;
    L::Shadow replay(L::kShards);
    on_clients([&](unsigned c) {
      const std::vector<const Trace*>& pl = plan(c);
      for (std::size_t i = 0; i < pl.size(); ++i)
        replay_stream(replay, cs[c], *pl[i], cs[c].verdicts[i].first,
                      cs[c].verdicts[i].second);
    });
    for (const Client& c : cs) replay_.add(c.rt);
    replay_cells_ = replay.cell_count();
    replay_shadow_bytes_ = replay.memory_bytes();
  }

  void layers(const Phase& un, const Phase& tr, LayerMap& out) override {
    const SpanTotals T = totals(tr.logs);
    const ReplayTotals& r = replay_;
    const double streams_per_round = double(r.streams) / tr.rounds;
    out["race.stream.validate_ns_per_event"] =
        ratio(T.ns[kValidate], double(r.events));
    out["race.stream.sp_event_ns"] =
        ratio(T.ns[kSpEvents], double(r.sp_events));
    out["race.stream.shadow_ns_per_access"] =
        ratio(T.ns[kShadow] - T.ns[kSpQuery], double(r.accesses));
    out["race.stream.sp_query_ns"] = ratio(T.ns[kSpQuery], double(r.queries));
    out["race.stream.queries_per_access"] =
        ratio(double(r.queries), double(r.accesses));
    out["race.stream.submit_self_ns_per_batch"] =
        ratio(T.ns[kSubmit] - T.ns[kValidate] - T.ns[kSpEvents] - T.ns[kShadow],
              double(r.batches));
    out["race.stream.cells"] = double(replay_cells_);
    out["race.stream.shard_skew"] = shard_skew();
    out["race.stream.open_stream_us"] =
        ratio(T.ns[kOpen], double(T.count[kOpen])) / 1e3;
    out["race.stream.sp_bytes_per_stream"] =
        ratio(double(r.sp_bytes), double(r.streams));
    out["race.stream.shadow_bytes_per_stream"] =
        ratio(double(replay_shadow_bytes_), streams_per_round);
    out["race.stream.races_per_stream"] =
        ratio(double(r.races), double(r.streams));
    add_om(out, r.om, tr.rounds);
    double events = 0, accesses = 0;
    for (unsigned c = 0; c < clients_; ++c)
      for (const Trace* t : plan(c)) {
        events += double(t->events.size());
        accesses += double(t->accesses);
      }
    per_workload_layers(un, events, accesses, out);
  }

 protected:
  /// The traces client `c` replays in one round, in order.
  virtual const std::vector<const Trace*>& plan(unsigned c) const = 0;
  /// Whether the headline operation is a whole stream (else a submit).
  virtual bool headline_is_stream() const = 0;
  virtual void per_workload_layers(const Phase& un, double events,
                                   double accesses, LayerMap& out) = 0;

  /// Runs `f(c)` on one thread per client; returns the wall time. An
  /// exception in a client is rethrown after every thread has joined.
  template <typename F>
  double on_clients(F&& f) const {
    std::vector<std::exception_ptr> errors(clients_);
    const std::int64_t t0 = now_ns();
    {
      std::vector<std::jthread> threads;
      threads.reserve(clients_);
      for (unsigned c = 0; c < clients_; ++c)
        threads.emplace_back([&f, &errors, c] {
          try {
            f(c);
          } catch (...) {
            errors[c] = std::current_exception();
          }
        });
    }
    const double wall = secs_since(t0);
    for (const std::exception_ptr& e : errors)
      if (e) std::rethrow_exception(e);
    return wall;
  }

  /// max/mean accesses per shard over one round's traces, by shard_of.
  double shard_skew() const {
    const L::Shadow probe(L::kShards);
    std::vector<double> per(probe.shard_count(), 0.0);
    for (unsigned c = 0; c < clients_; ++c)
      for (const Trace* t : plan(c))
        for (const L::Event& e : t->events)
          if (e.kind == L::EventKind::kAccess) per[probe.shard_of(e.loc)] += 1;
    double sum = 0, max = 0;
    for (const double x : per) {
      sum += x;
      max = std::max(max, x);
    }
    return ratio(max, sum / double(per.size()));
  }

  /// Lowers, records and checks one program into a Trace.
  static Trace make_trace(const L::Prog& p, double& lower, double& record,
                          double& verdict) {
    std::int64_t t0 = now_ns();
    const L::Tree tree = L::lower(p);
    lower += secs_since(t0);
    t0 = now_ns();
    Trace tr;
    tr.events = L::record(tree);
    record += secs_since(t0);
    t0 = now_ns();
    tr.ref = L::detect_races(tree);
    verdict += secs_since(t0);
    tr.accesses = count_accesses(tr.events);
    return tr;
  }

  unsigned clients_;
  std::size_t service_bytes_ = 0;  ///< memory_bytes() at round end
  ReplayTotals replay_;
  std::size_t replay_cells_ = 0;
  std::size_t replay_shadow_bytes_ = 0;
};

/// Steady ingest: each client replays one long recorded stencil trace
/// (clean or racy by client parity) over shared, overlapping locations.
class StreamIngest final : public StreamWorkload {
 public:
  using StreamWorkload::StreamWorkload;

  void setup(std::uint64_t seed, SetupTimes& st) override {
    L::Rng rng(seed);
    const Remap remap(rng);
    double lower = 0, record = 0, verdict = 0;
    for (int racy = 0; racy < 2; ++racy) {
      L::Prog p = L::stencil(kIngestN, 8, racy == 1);
      L::map_locations(p, remap);
      traces_[racy] = make_trace(p, lower, record, verdict);
    }
    st.lower_s.push_back(lower);
    st.record_s.push_back(record);
    st.verdict_s.push_back(verdict);
    plans_.assign(clients_, {});
    const unsigned first = static_cast<unsigned>(rng.next_below(2));
    for (unsigned c = 0; c < clients_; ++c)
      plans_[c] = {&traces_[(c + first) % 2]};
  }

 private:
  const std::vector<const Trace*>& plan(unsigned c) const override {
    return plans_[c];
  }
  bool headline_is_stream() const override { return false; }
  void per_workload_layers(const Phase& un, double events, double accesses,
                           LayerMap& out) override {
    out["race.stream.mev_per_s"] =
        median(un.round_maccess) * ratio(events, accesses);
    out["race.stream.submit_p99_us"] = quantile(un.op_ms, 0.99) * 1e3;
    out["race.stream.bytes_per_event"] = ratio(double(service_bytes_), events);
  }

  Trace traces_[2];
  std::vector<std::vector<const Trace*>> plans_;
};

/// Stream churn: many small random programs, each its own short stream,
/// so per-stream set-up and retained memory dominate.
class StreamChurn final : public StreamWorkload {
 public:
  using StreamWorkload::StreamWorkload;

  void setup(std::uint64_t seed, SetupTimes& st) override {
    traces_.clear();
    traces_.reserve(kChurnPrograms);
    double lower = 0, record = 0, verdict = 0;
    L::Rng rng(seed);
    for (std::uint32_t i = 0; i < kChurnPrograms; ++i) {
      // Sizes are evenly spread over [64, 1024] threads rather than drawn,
      // so every seed has the same size mix and only shapes and accesses
      // vary with it.
      const std::uint32_t leaves = 64 + 960 * i / (kChurnPrograms - 1);
      L::Prog p = L::random_program(rng.next_u64(), leaves);
      L::for_each_leaf(p.root, [&rng](L::ProgNode& leaf) {
        const std::uint64_t n = 1 + rng.next_below(16);
        for (std::uint64_t a = 0; a < n; ++a) {
          const double u = rng.next_double();  // skew toward low locations
          const auto loc = static_cast<std::uint64_t>(u * u * kChurnPool);
          L::add_access(leaf, loc, rng.next_below(8) == 0);
        }
      });
      traces_.push_back(make_trace(p, lower, record, verdict));
    }
    st.lower_s.push_back(lower);
    st.record_s.push_back(record);
    st.verdict_s.push_back(verdict);
    const std::uint32_t per = kChurnStreams / clients_;
    plans_.assign(clients_, {});
    for (unsigned c = 0; c < clients_; ++c)
      for (std::uint32_t j = 0; j < per; ++j)
        plans_[c].push_back(&traces_[(c * per + j) % kChurnPrograms]);
  }

 private:
  const std::vector<const Trace*>& plan(unsigned c) const override {
    return plans_[c];
  }
  bool headline_is_stream() const override { return true; }
  void per_workload_layers(const Phase& un, double, double accesses,
                           LayerMap& out) override {
    double streams = 0;
    for (const auto& pl : plans_) streams += double(pl.size());
    out["race.stream.streams_per_s"] =
        median(un.round_maccess) * 1e6 * ratio(streams, accesses);
    out["race.stream.stream_p99_ms"] = quantile(un.op_ms, 0.99);
    out["race.stream.bytes_per_stream"] =
        ratio(double(service_bytes_), streams);
  }

  std::vector<Trace> traces_;
  std::vector<std::vector<const Trace*>> plans_;
};

// ---- hybrid_detect --------------------------------------------------------

/// Theorem 10: SP-hybrid's parallel detection, on a clean and a racy
/// divide-and-conquer fill, alternating.
class HybridDetect final : public Workload {
 public:
  explicit HybridDetect(unsigned workers) : workers_(workers) {}

  void setup(std::uint64_t seed, SetupTimes& st) override {
    L::Rng rng(seed);
    const Remap remap(rng);
    double lower = 0, verdict = 0;
    for (int racy = 0; racy < 2; ++racy) {
      L::Prog p = L::dnc_fill(kHybridN, 16, racy == 1);
      L::map_locations(p, remap);
      std::int64_t t0 = now_ns();
      trees_[racy] = std::make_unique<L::Tree>(L::lower(p));
      lower += secs_since(t0);
      t0 = now_ns();
      ref_[racy] = L::run_parallel(*trees_[racy], 1,
                                   L::HybridMode::kSerialReference);
      verdict += secs_since(t0);
      if (ref_[racy].has_race() != (racy == 1))
        throw std::runtime_error(
            "serial reference missed the constructed verdict");
      accesses_[racy] = 0;
      for (L::ThreadId th = 0; th < trees_[racy]->leaf_count(); ++th)
        accesses_[racy] += trees_[racy]->accesses(th).size();
    }
    st.lower_s.push_back(lower);
    st.record_s.push_back(0);  // the engine runs the tree; nothing recorded
    st.verdict_s.push_back(verdict);
    next_ = static_cast<unsigned>(rng.next_below(2));
  }

  void round(Phase& p, Tally& t) override {
    const unsigned racy = next_++ % 2;
    const L::Tree& tree = *trees_[racy];
    SpanLog& log = p.logs[0];
    const double acc = double(accesses_[racy]);
    const double pn = run(tree, racy, workers_, L::HybridMode::kHybrid,
                          kHybridPN, log, p.rounds, t);
    p.op_ms.push_back(pn * 1e3);
    p.round_maccess.push_back(ratio(acc, pn) / 1e6);
    if (!p.traced) return;
    p1_s_.push_back(run(tree, racy, 1, L::HybridMode::kHybrid, kHybridP1, log,
                        p.rounds, t));
    plain_s_.push_back(run(tree, racy, workers_, L::HybridMode::kPlain,
                           kPlainPN, log, p.rounds, t));
    p1_maccess_.push_back(ratio(acc, p1_s_.back()) / 1e6);
  }

  void layers(const Phase&, const Phase& tr, LayerMap& out) override {
    const double runs = double(counted_runs_);
    out["sphybrid.steals"] = ratio(double(sum_.steals), runs);
    out["sphybrid.splits"] = ratio(double(sum_.splits), runs);
    out["sphybrid.om_inserts"] = ratio(double(sum_.om_inserts), runs);
    out["sphybrid.lock_wait_ms"] = ratio(double(sum_.lock_wait_ns), runs) / 1e6;
    out["sphybrid.query_retries"] = ratio(double(sum_.query_retries), runs);
    out["sphybrid.fast_query_ratio"] =
        ratio(double(sum_.fast_queries), double(sum_.queries));
    out["sphybrid.p1_maccess_per_s"] = median(p1_maccess_);
    out["sphybrid.speedup_p4"] = ratio(median(p1_s_), median(tr.op_ms) / 1e3);
    out["sphybrid.overhead_vs_plain"] =
        ratio(median(tr.op_ms) / 1e3, median(plain_s_));
  }

 private:
  /// One timed run_parallel call, checked against the serial reference.
  double run(const L::Tree& tree, unsigned racy, unsigned workers,
             L::HybridMode mode, SpanKind kind, SpanLog& log,
             std::uint32_t round, Tally& t) {
    const std::int64_t t0 = now_ns();
    const std::int32_t s = log.open(kind, -1, round);
    const L::ExecResult r = L::run_parallel(tree, workers, mode);
    log.close(s);
    const double wall = secs_since(t0);
    t.check(r.checksum == ref_[racy].checksum,
            "run_parallel checksum differs from the serial reference");
    if (mode == L::HybridMode::kPlain) return wall;
    t.check(r.race_count == ref_[racy].race_count,
            "run_parallel race verdict differs from the serial reference");
    t.check(r.om_inserts == 3 * r.splits, "om_inserts != 3 * splits");
    if (kind == kHybridPN && log.on) {
      sum_.steals += r.steals;
      sum_.splits += r.splits;
      sum_.om_inserts += r.om_inserts;
      sum_.lock_wait_ns += r.lock_wait_ns;
      sum_.query_retries += r.query_retries;
      sum_.fast_queries += r.fast_queries;
      sum_.queries += r.queries;
      ++counted_runs_;
    }
    return wall;
  }

  unsigned workers_;
  std::unique_ptr<L::Tree> trees_[2];
  L::ExecResult ref_[2];
  std::uint64_t accesses_[2] = {};
  unsigned next_ = 0;
  L::ExecResult sum_;  ///< summed counters of the traced P = workers runs
  std::uint64_t counted_runs_ = 0;
  std::vector<double> p1_s_, plain_s_, p1_maccess_;
};

// ---- output ---------------------------------------------------------------

struct Metric {
  const char* name;
  const char* unit;
};

/// Per-layer metrics, reported on every workload; a layer the workload
/// does not run reads 0. BENCHMARK.json lists the same names and units.
const Metric kLayerMetrics[] = {
    {"fjprog.lower_s", "s"},
    {"fjprog.record_s", "s"},
    {"ref.verdict_s", "s"},
    {"sptree.walk_ns_per_thread", "ns"},
    {"detect.slowdown", "ratio"},
    {"sporder.maintain_ns_per_thread", "ns"},
    {"sporder.query_ns", "ns"},
    {"om.inserts", "count"},
    {"om.items_moved_per_insert", "ratio"},
    {"om.bucket_splits", "count"},
    {"om.top_relabels", "count"},
    {"race.detector.self_ns_per_access", "ns"},
    {"race.detector.batches", "count"},
    {"race.stream.validate_ns_per_event", "ns"},
    {"race.stream.sp_event_ns", "ns"},
    {"race.stream.shadow_ns_per_access", "ns"},
    {"race.stream.sp_query_ns", "ns"},
    {"race.stream.queries_per_access", "ratio"},
    {"race.stream.submit_self_ns_per_batch", "ns"},
    {"race.stream.cells", "count"},
    {"race.stream.shard_skew", "ratio"},
    {"race.stream.open_stream_us", "us"},
    {"race.stream.sp_bytes_per_stream", "B"},
    {"race.stream.shadow_bytes_per_stream", "B"},
    {"race.stream.races_per_stream", "count"},
    {"race.stream.mev_per_s", "Mev/s"},
    {"race.stream.submit_p99_us", "us"},
    {"race.stream.bytes_per_event", "B"},
    {"race.stream.streams_per_s", "1/s"},
    {"race.stream.stream_p99_ms", "ms"},
    {"race.stream.bytes_per_stream", "B"},
    {"sphybrid.steals", "count"},
    {"sphybrid.splits", "count"},
    {"sphybrid.om_inserts", "count"},
    {"sphybrid.lock_wait_ms", "ms"},
    {"sphybrid.query_retries", "count"},
    {"sphybrid.fast_query_ratio", "ratio"},
    {"sphybrid.p1_maccess_per_s", "Macc/s"},
    {"sphybrid.speedup_p4", "ratio"},
    {"sphybrid.overhead_vs_plain", "ratio"},
    {"trace.overhead", "ratio"},
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char ch : s) {
    if (ch == '"' || ch == '\\') o += '\\';
    o += ch;
  }
  return o;
}

std::string num(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", std::isfinite(v) ? v : 0.0);
  return buf;
}

void write_spans(const std::string& path, const std::string& workload,
                 const std::vector<SpanLog>& logs) {
  constexpr std::size_t kMaxSpans = 200000;
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) throw std::runtime_error("cannot write " + path);
  const SpanTotals T = totals(logs);
  std::size_t total = 0;
  for (const SpanLog& l : logs) total += l.spans.size();
  std::fprintf(f,
               "{\"workload\":\"%s\",\"spans_total\":%zu,"
               "\"spans_written\":%zu,",
               workload.c_str(), total, std::min(total, kMaxSpans));
  std::fprintf(f, "\"summary\":{");
  bool first = true;
  for (int k = 0; k < kSpanKinds; ++k) {
    if (T.count[k] == 0) continue;
    std::fprintf(f,
                 "%s\"%s\":{\"count\":%llu,\"total_ns\":%.0f,"
                 "\"self_ns\":%.0f}",
                 first ? "" : ",", kSpanName[k],
                 static_cast<unsigned long long>(T.count[k]), T.ns[k],
                 T.self_ns[k]);
    first = false;
  }
  std::fprintf(f, "},\"fields\":[\"log\",\"name\",\"start_ns\",\"end_ns\","
                  "\"parent\",\"round\"],\"spans\":[");
  std::size_t written = 0;
  for (std::size_t li = 0; li < logs.size(); ++li)
    for (const Span& s : logs[li].spans) {
      if (written == kMaxSpans) break;
      std::fprintf(f, "%s[%zu,\"%s\",%lld,%lld,%d,%u]", written ? "," : "", li,
                   kSpanName[s.kind], static_cast<long long>(s.start),
                   static_cast<long long>(s.end), s.parent, s.round);
      ++written;
    }
  std::fprintf(f, "]}\n");
  if (std::fclose(f) != 0) throw std::runtime_error("cannot write " + path);
}

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 15;
  std::string trace_file;  ///< empty = untraced
};

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "spbench: %s\nusage: spbench --workload "
               "<detect_serial|stream_ingest|stream_churn|hybrid_detect> "
               "--seed <n> [--seconds <s>] [--trace <file>]\n",
               why);
  std::exit(2);
}

Options parse(int argc, char** argv) {
  Options o;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (i + 1 >= argc) usage(("missing value for " + a).c_str());
    const std::string v = argv[++i];
    if (a == "--workload") {
      o.workload = v;
    } else if (a == "--seed") {
      o.seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds") {
      o.seconds = std::strtod(v.c_str(), nullptr);
      if (!(o.seconds >= 0)) usage("--seconds must be >= 0");
    } else if (a == "--trace") {
      o.trace_file = v;
    } else {
      usage(("unknown option " + a).c_str());
    }
  }
  if (o.workload.empty()) usage("--workload is required");
  return o;
}

std::unique_ptr<Workload> make_workload(const std::string& name,
                                        unsigned clients) {
  if (name == "detect_serial") return std::make_unique<DetectSerial>();
  if (name == "stream_ingest") return std::make_unique<StreamIngest>(clients);
  if (name == "stream_churn") return std::make_unique<StreamChurn>(clients);
  if (name == "hybrid_detect") return std::make_unique<HybridDetect>(clients);
  usage(("unknown workload " + name).c_str());
}

void run_phase(Workload& w, Phase& p, double seconds, Tally& t) {
  const std::int64_t t0 = now_ns();
  do {
    w.round(p, t);
    ++p.rounds;
  } while (secs_since(t0) < seconds);
}

Phase make_phase(bool traced, unsigned clients) {
  Phase p;
  p.traced = traced;
  p.logs.resize(1 + clients);
  for (SpanLog& l : p.logs) l.on = traced;
  return p;
}

int run(const Options& o) {
  const unsigned nproc = cpu_count();
  const unsigned clients = std::min(4u, nproc);
  const bool smoke = o.seconds == 0;
  const bool traced = !o.trace_file.empty();
  std::unique_ptr<Workload> w = make_workload(o.workload, clients);

  std::vector<double> setup_s;
  SetupTimes st;
  for (int rep = 0; rep < (smoke ? 1 : kSetupReps); ++rep) {
    const std::int64_t t0 = now_ns();
    w->setup(o.seed, st);
    setup_s.push_back(secs_since(t0));
  }
  if (traced) w->prepare_trace();

  Tally tally;
  if (!smoke) {
    Phase warm = make_phase(false, clients);
    w->round(warm, tally);
  }
  Phase un = make_phase(false, clients);
  Phase tr = make_phase(true, clients);
  run_phase(*w, un, traced ? o.seconds / 2 : o.seconds, tally);
  if (traced) run_phase(*w, tr, o.seconds / 2, tally);

  std::vector<std::pair<Metric, double>> out;
  if (!traced) {
    out.push_back({{"setup_s", "s"}, median(setup_s)});
    out.push_back({{"maccess_per_s", "Macc/s"}, median(un.round_maccess)});
    out.push_back({{"op_p50_ms", "ms"}, quantile(un.op_ms, 0.5)});
    out.push_back({{"op_p90_ms", "ms"}, quantile(un.op_ms, 0.9)});
    out.push_back({{"peak_rss_mb", "MiB"}, peak_rss_mib()});
  } else {
    LayerMap layer;
    w->layers(un, tr, layer);
    layer["fjprog.lower_s"] = median(st.lower_s);
    layer["fjprog.record_s"] = median(st.record_s);
    layer["ref.verdict_s"] = median(st.verdict_s);
    layer["trace.overhead"] =
        ratio(median(tr.op_ms), median(un.op_ms)) - 1.0;
    for (const Metric& m : kLayerMetrics) {
      const auto it = layer.find(m.name);
      out.push_back({m, it == layer.end() ? 0.0 : it->second});
      if (it != layer.end()) layer.erase(it);
    }
    if (!layer.empty())
      throw std::logic_error("unlisted per-layer metric " +
                             layer.begin()->first);
    write_spans(o.trace_file, o.workload, tr.logs);
  }

  char date[32];
  const std::time_t now = std::time(nullptr);
  std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ", std::gmtime(&now));
  std::printf(
      "#provenance {\"workload\":\"%s\",\"seed\":%llu,\"seconds\":%s,"
      "\"traced\":%s,\"clients\":%u,\"nproc\":%u,\"compiler\":\"%s\","
      "\"build_type\":\"%s\",\"cxx_flags\":\"%s\",\"date\":\"%s\"}\n",
      o.workload.c_str(), static_cast<unsigned long long>(o.seed),
      num(o.seconds).c_str(), traced ? "true" : "false", clients, nproc,
      json_escape(SPB_COMPILER).c_str(), json_escape(SPB_BUILD_TYPE).c_str(),
      json_escape(SPB_CXX_FLAGS).c_str(), date);
  const std::size_t n = un.op_ms.size();
  const auto beyond_p90 =
      n - static_cast<std::size_t>(std::ceil(0.9 * double(n)));
  std::printf(
      "#samples {\"setup_reps\":%zu,\"rounds\":%u,\"op_samples\":%zu,"
      "\"op_p90_samples_beyond\":%zu,\"traced_rounds\":%u}\n",
      setup_s.size(), un.rounds, n, beyond_p90, tr.rounds);

  const std::uint64_t attempted = tally.attempted.load();
  const std::uint64_t failed = tally.failed.load();
  std::string line = "{\"correct\": ";
  line += failed == 0 && attempted > 0 ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(attempted);
  line += ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < out.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + std::string(out[i].first.name) + "\": {\"value\": " +
            num(out[i].second) + ", \"unit\": \"" + out[i].first.unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "spbench: %s\n", e.what());
    return 1;
  }
}
