// Extension bench: throughput of the streaming race-detection service
// (race/stream/) — events/second as a function of concurrent client
// streams and batch size. One fork-join trace (dnc_fill) is recorded once
// and replayed by every client, so all work is ingestion: batch
// validation, per-stream SP-order maintenance, and per-stream
// shadow-memory application.
//
// Expectations on a multi-core host: streams share no shadow state and
// take no common lock per access, so aggregate throughput rises with
// streams up to the core count. On a 1-core container the stream sweep
// only measures oversubscription overhead — read S>1 rows as
// correctness-under-concurrency, not scaling. Emits `#METRIC {...}` JSON
// lines for scripts/bench.sh.

#include <cstdint>
#include <iostream>
#include <thread>
#include <vector>

#include "fjprog/generators.hpp"
#include "fjprog/lower.hpp"
#include "fjprog/record.hpp"
#include "race/stream/service.hpp"
#include "sporder/sp_order.hpp"
#include "race/detector.hpp"
#include "util/table.hpp"
#include "util/timing.hpp"

namespace {

using spr::race::stream::Batch;
using spr::race::stream::Event;
using spr::race::stream::StreamId;

struct RunResult {
  double elapsed_s = 0;
  std::uint64_t events = 0;
  std::uint64_t races_per_stream = 0;
  std::size_t memory_bytes = 0;
};

RunResult run(const std::vector<Event>& events, unsigned streams,
              std::size_t batch_size) {
  spr::race::stream::IngestService svc;
  std::vector<StreamId> sids;
  std::vector<std::vector<Batch>> batches;
  for (unsigned s = 0; s < streams; ++s) {
    sids.push_back(svc.open_stream());
    batches.push_back(spr::fj::make_batches(events, sids.back(), batch_size));
  }
  const spr::util::Stopwatch sw;
  {
    std::vector<std::thread> threads;
    threads.reserve(streams);
    for (unsigned s = 0; s < streams; ++s)
      threads.emplace_back([&svc, &batches, &sids, s] {
        for (const Batch& b : batches[s])
          if (!svc.submit(b).ok()) std::abort();  // recorded trace is valid
        if (!svc.finish(sids[s]).ok()) std::abort();
      });
    for (auto& th : threads) th.join();
  }
  RunResult r;
  r.elapsed_s = sw.elapsed_s();
  r.events = static_cast<std::uint64_t>(events.size()) * streams;
  r.races_per_stream = svc.report(sids[0]).races.race_count;
  for (unsigned s = 1; s < streams; ++s)
    if (svc.report(sids[s]).races.race_count != r.races_per_stream)
      std::abort();  // streams are independent: verdicts must agree
  r.memory_bytes = svc.memory_bytes();
  return r;
}

}  // namespace

int main() {
  std::cout << "Extension — streaming ingestion throughput "
               "(events/s x streams x batch)\n";
  const spr::tree::ParseTree t =
      spr::fj::lower_to_parse_tree(spr::fj::make_dnc_fill(65536, 4));
  const std::vector<Event> events = spr::fj::record_events(t);

  // Reference verdict from the in-process serial detector over the tree.
  spr::order::SpOrder ref_algo(t);
  const auto ref = spr::race::detect_races(t, ref_algo);
  std::cout << "trace: " << t.leaf_count() << " threads, " << events.size()
            << " events, reference races = " << ref.race_count << "\n";

  spr::util::Table table({"streams", "batch", "total events", "elapsed",
                          "Mev/s", "races/stream"});
  for (unsigned streams : {1u, 2u, 4u}) {
    for (std::size_t batch : {std::size_t{256}, std::size_t{8192}}) {
      const RunResult r = run(events, streams, batch);
      if (r.races_per_stream != ref.race_count) {
        std::cerr << "verdict mismatch vs in-process detector\n";
        return 1;
      }
      const double evps =
          r.elapsed_s > 0 ? static_cast<double>(r.events) / r.elapsed_s : 0;
      table.add_row({std::to_string(streams), std::to_string(batch),
                     std::to_string(r.events),
                     spr::util::fmt_double(r.elapsed_s, 3),
                     spr::util::fmt_double(evps / 1e6, 2),
                     std::to_string(r.races_per_stream)});
      std::cout << "#METRIC {\"bench\":\"ext_stream_ingest\",\"streams\":"
                << streams << ",\"batch\":" << batch
                << ",\"events\":" << r.events
                << ",\"elapsed_s\":" << r.elapsed_s
                << ",\"events_per_s\":" << evps
                << ",\"races_per_stream\":" << r.races_per_stream
                << ",\"memory_bytes\":" << r.memory_bytes << "}\n";
    }
  }
  table.print(std::cout);
  return 0;
}
