// Host microbenchmarks: each times batches of calls into one public function
// of one simulator layer and reports the per-operation cost of the median
// and the 95th-percentile batch. README.md lists which end-to-end metric
// each one should move.
#include <functional>
#include <numeric>

#include "bm.hpp"
#include "ds/avl.hpp"
#include "htm/env.hpp"
#include "mem/directory.hpp"
#include "mem/interconnect.hpp"
#include "mem/l1.hpp"
#include "mem/memsystem.hpp"
#include "obs/trace.hpp"
#include "sim/machine.hpp"
#include "sim/topology.hpp"
#include "sync/natle.hpp"
#include "sync/tle.hpp"
#include "traffic/arrival.hpp"
#include "traffic/latency.hpp"

namespace natle::bm {

namespace {

constexpr int kBatches = 200;     // timed batches per microbenchmark
constexpr int kWarmBatches = 10;  // untimed batches run first
constexpr int kRounds = kWarmBatches + kBatches;

// Results feed this so the optimizer cannot drop the timed calls.
volatile uint64_t g_sink = 0;

using Clock = std::chrono::steady_clock;

double nsSince(Clock::time_point t0) {
  return std::chrono::duration<double, std::nano>(Clock::now() - t0).count();
}

// Per-op nanoseconds of each timed batch; `batch` performs `ops` operations
// and `prep` (untimed) readies the next batch.
std::vector<double> timeBatches(int ops, const std::function<void()>& prep,
                                const std::function<void()>& batch) {
  std::vector<double> per_op;
  for (int b = 0; b < kRounds; ++b) {
    prep();
    const Clock::time_point t0 = Clock::now();
    batch();
    const double ns = nsSince(t0);
    if (b >= kWarmBatches) per_op.push_back(ns / ops);
  }
  return per_op;
}

std::vector<double> timeBatches(int ops, const std::function<void()>& batch) {
  return timeBatches(ops, [] {}, batch);
}

// n indices drawn uniformly from [0, range).
std::vector<uint32_t> randomIndices(size_t n, uint32_t range, uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<uint32_t> v(n);
  for (uint32_t& x : v) x = static_cast<uint32_t>(rng.below(range));
  return v;
}

// Runs `body` on one simulated thread of a fresh Env, so ThreadCtx calls go
// through the running machine exactly as in a workload.
void inFiber(htm::Env& env, const std::function<void(htm::ThreadCtx&)>& body) {
  env.spawnWorker(body, sim::placeThread(env.cfg(),
                                         sim::PinPolicy::kFillSocketFirst, 0));
  env.run();
}

// 64 fibers at equal clocks each charging and calling maybeYield: every
// call hands the core to the next fiber in the scheduler wheel.
std::vector<double> handoff(uint64_t) {
  constexpr int kFibers = 64;
  constexpr int kIters = 64;  // per fiber per batch
  sim::Machine m(sim::LargeMachine());
  std::vector<double> per_op;
  Clock::time_point last;
  const int total = (kRounds + 1) * kIters;
  for (int f = 0; f < kFibers; ++f) {
    m.spawn(
        [&, f](sim::SimThread& t) {
          for (int i = 0; i < total; ++i) {
            if (f == 0 && i % kIters == 0) {
              const Clock::time_point now = Clock::now();
              if (i / kIters > kWarmBatches) {
                per_op.push_back(
                    std::chrono::duration<double, std::nano>(now - last)
                        .count() /
                    (kFibers * kIters));
              }
              last = now;
            }
            m.charge(t, 10);
            m.maybeYield(t);
          }
        },
        sim::placeThread(m.cfg(), sim::PinPolicy::kFillSocketFirst, f));
  }
  m.run();
  return per_op;
}

// Machine construction plus spawn and run of 1024 empty fibers, per fiber.
std::vector<double> spawn(uint64_t) {
  constexpr int kFibers = 1024;
  const sim::MachineConfig mc = sim::Mesh2D(8, 8, 8);
  std::vector<double> ns = timeBatches(kFibers, [&] {
    sim::Machine m(mc);
    for (int i = 0; i < kFibers; ++i) {
      m.spawn([](sim::SimThread&) {},
              sim::placeThread(mc, sim::PinPolicy::kAlternateSockets, i));
    }
    m.run();
  });
  for (double& x : ns) x /= 1e3;  // microseconds
  return ns;
}

constexpr uint64_t kLineBase = uint64_t{1} << 20;  // multiple of the L1 sets
constexpr int kOps = 1024;

// Lookups of existing lines in a directory holding 65536 (an AVL prefill's
// worth).
std::vector<double> dirHit(uint64_t seed) {
  constexpr uint32_t kLines = 65536;
  mem::Directory dir;
  for (uint32_t i = 0; i < kLines; ++i) dir.lookup(kLineBase + i, 0);
  const std::vector<uint32_t> order = randomIndices(kLines, kLines, seed);
  size_t pos = 0;
  return timeBatches(kOps, [&] {
    uint64_t acc = 0;
    for (int k = 0; k < kOps; ++k) {
      acc += dir.lookup(kLineBase + order[pos++ % kLines], 0).version;
    }
    g_sink = g_sink + acc;
  });
}

// First-touch inserts of new lines.
std::vector<double> dirInsert(uint64_t) {
  mem::Directory dir;
  uint64_t next = kLineBase;
  return timeBatches(kOps, [&] {
    for (int k = 0; k < kOps; ++k) dir.lookup(next++, 0);
    g_sink = g_sink + dir.size();
  });
}

// Probes of resident lines in a full 64-set x 8-way L1.
std::vector<double> l1Probe(uint64_t seed) {
  constexpr uint32_t kResident = 512;
  mem::L1Cache l1(64, 8);
  std::vector<mem::LineState> states(kResident);
  for (uint32_t i = 0; i < kResident; ++i) {
    l1.insert(kLineBase + i, &states[i], nullptr);
  }
  const std::vector<uint32_t> order = randomIndices(4096, kResident, seed);
  size_t pos = 0;
  return timeBatches(kOps, [&] {
    uint64_t acc = 0;
    for (int k = 0; k < kOps; ++k) {
      acc += l1.probe(kLineBase + order[pos++ % order.size()]) != nullptr;
    }
    g_sink = g_sink + acc;
  });
}

// Plain inserts cycling through 8x the L1's capacity: every insert evicts.
std::vector<double> l1Insert(uint64_t) {
  constexpr uint32_t kPool = 4096;
  mem::L1Cache l1(64, 8);
  std::vector<mem::LineState> states(kPool);
  uint32_t i = 0;
  return timeBatches(kOps, [&] {
    for (int k = 0; k < kOps; ++k, i = (i + 1) % kPool) {
      l1.insert(kLineBase + i, &states[i], nullptr);
    }
  });
}

// AvlTree::insert in setup mode, in the random order the set workloads
// prefill with.
std::vector<double> avlSetupInsert(uint64_t seed) {
  constexpr int kPerBatch = 256;
  htm::Env env(sim::LargeMachine());
  ds::AvlTree tree(env);
  std::vector<int64_t> keys(131072);
  std::iota(keys.begin(), keys.end(), 0);
  sim::Rng rng(seed);
  for (size_t i = keys.size(); i > 1; --i) {
    std::swap(keys[i - 1], keys[rng.below(i)]);
  }
  htm::ThreadCtx& sc = env.setupCtx();
  size_t pos = 0;
  return timeBatches(kPerBatch, [&] {
    for (int k = 0; k < kPerBatch; ++k) tree.insert(sc, keys[pos++]);
  });
}

// Two-socket fills: each timed read pulls a line the other socket modified
// (a remote transfer with a link reservation); each timed write takes
// ownership from the other socket.
struct TwoSocketLines {
  TwoSocketLines()
      : cfg(sim::LargeMachine()),
        ms(cfg, true, mem::PlacePolicy::kFirstTouch) {
    const uint64_t first = mem::lineOf(ms.allocator().alloc(kOps * 64, 0));
    for (int i = 0; i < kOps; ++i) {
      lines.push_back(first + static_cast<uint64_t>(i));
      states.push_back(&ms.lookup(lines.back()));
    }
  }
  void writeAll(int socket) {
    for (int i = 0; i < kOps; ++i) {
      g_sink = g_sink + ms.fillWrite(lines[i], *states[i], socket,
                                     socket * cfg.cores_per_socket, now)
                            .latency;
      now += 50;
    }
  }
  sim::MachineConfig cfg;
  mem::MemorySystem ms;
  std::vector<uint64_t> lines;
  std::vector<mem::LineState*> states;
  uint64_t now = 0;
  int socket = 0;
};

std::vector<double> fillRead(uint64_t) {
  TwoSocketLines t;
  return timeBatches(
      kOps, [&] { t.writeAll(t.socket ^= 1); },
      [&] {
        uint64_t acc = 0;
        for (int i = 0; i < kOps; ++i) {
          acc += t.ms.fillRead(t.lines[i], *t.states[i], t.socket ^ 1, t.now)
                     .latency;
          t.now += 50;
        }
        g_sink = g_sink + acc;
      });
}

std::vector<double> fillWrite(uint64_t) {
  TwoSocketLines t;
  return timeBatches(kOps, [&] { t.writeAll(t.socket ^= 1); });
}

// Transfer pricing (hop scaling plus link reservation) between random
// domain pairs.
std::vector<double> netPricing(const sim::MachineConfig& cfg, uint64_t seed) {
  mem::Interconnect net(cfg);
  sim::Rng rng(seed);
  std::vector<std::pair<int, int>> pairs;
  while (pairs.size() < 4096) {
    const int a = static_cast<int>(rng.below(cfg.sockets));
    const int b = static_cast<int>(rng.below(cfg.sockets));
    if (a != b) pairs.emplace_back(a, b);
  }
  size_t pos = 0;
  uint64_t now = 0;
  return timeBatches(kOps, [&] {
    uint64_t acc = 0;
    for (int k = 0; k < kOps; ++k) {
      const auto [a, b] = pairs[pos++ % pairs.size()];
      acc += net.scaled(500, a, b) + net.transferDelay(a, b, now);
      now += 30;
    }
    g_sink = g_sink + acc;
  });
}

std::vector<double> netDense(uint64_t seed) {
  return netPricing(sim::LargeMachine(), seed);
}

std::vector<double> netLazy(uint64_t seed) {
  return netPricing(sim::Mesh2D(8, 8, 8), seed);
}

// A 1024-line working set (twice the L1) of one word per line.
struct WorkingSet {
  explicit WorkingSet(htm::Env& env)
      : words(static_cast<uint64_t*>(env.allocShared(kLines * 64))) {
    for (uint32_t i = 0; i < kLines; ++i) word(i) = i;
  }
  uint64_t& word(uint32_t line) { return words[line * 8]; }
  static constexpr uint32_t kLines = 1024;
  uint64_t* words;
};

// Plain ThreadCtx loads at random over the working set: about half hit the
// L1, the rest go through the directory.
std::vector<double> htmLoad(uint64_t seed) {
  htm::Env env(sim::LargeMachine());
  WorkingSet ws(env);
  const std::vector<uint32_t> order =
      randomIndices(4096, WorkingSet::kLines, seed);
  std::vector<double> ns;
  inFiber(env, [&](htm::ThreadCtx& ctx) {
    size_t pos = 0;
    ns = timeBatches(kOps, [&] {
      uint64_t acc = 0;
      for (int k = 0; k < kOps; ++k) {
        acc += ctx.load(ws.word(order[pos++ % order.size()]));
      }
      g_sink = g_sink + acc;
    });
  });
  return ns;
}

// Loads inside a transaction: 64 distinct lines (one per L1 set), a
// different block of the working set each batch. Only the loads are timed.
std::vector<double> htmTxLoad(uint64_t) {
  constexpr int kLoads = 64;
  htm::Env env(sim::LargeMachine());
  WorkingSet ws(env);
  std::vector<double> ns;
  inFiber(env, [&](htm::ThreadCtx& ctx) {
    for (int b = 0; b < kRounds;) {
      const uint32_t first = static_cast<uint32_t>(b * kLoads) %
                             WorkingSet::kLines;
      unsigned status;
      NATLE_TX_BEGIN(ctx, status);
      if (status != htm::kTxStarted) continue;  // spurious abort: redo
      const Clock::time_point t0 = Clock::now();
      uint64_t acc = 0;
      for (uint32_t k = 0; k < kLoads; ++k) acc += ctx.load(ws.word(first + k));
      const double elapsed = nsSince(t0);
      ctx.txCommit();
      g_sink = g_sink + acc;
      if (b >= kWarmBatches) ns.push_back(elapsed / kLoads);
      ++b;
    }
  });
  return ns;
}

constexpr int kTxPerBatch = 64;
constexpr uint32_t kWriteSet = 8;

// Begin, 8 stores to distinct lines, commit: per transaction.
std::vector<double> htmBeginCommit(uint64_t) {
  htm::Env env(sim::LargeMachine());
  WorkingSet ws(env);
  std::vector<double> ns;
  inFiber(env, [&](htm::ThreadCtx& ctx) {
    ns = timeBatches(kTxPerBatch, [&] {
      for (int i = 0; i < kTxPerBatch; ++i) {
        unsigned status;
        NATLE_TX_BEGIN(ctx, status);
        if (status != htm::kTxStarted) continue;
        for (uint32_t k = 0; k < kWriteSet; ++k) {
          ctx.store(ws.word(k), static_cast<uint64_t>(i));
        }
        ctx.txCommit();
      }
    });
  });
  return ns;
}

// Begin, 8 stores, explicit abort with rollback of all 8: per transaction.
std::vector<double> htmAbort(uint64_t) {
  htm::Env env(sim::LargeMachine());
  WorkingSet ws(env);
  std::vector<double> ns;
  inFiber(env, [&](htm::ThreadCtx& ctx) {
    ns = timeBatches(kTxPerBatch, [&] {
      for (int i = 0; i < kTxPerBatch; ++i) {
        unsigned status;
        NATLE_TX_BEGIN(ctx, status);
        if (status != htm::kTxStarted) continue;
        for (uint32_t k = 0; k < kWriteSet; ++k) {
          ctx.store(ws.word(k), static_cast<uint64_t>(i));
        }
        ctx.txAbort(1);
      }
    });
  });
  return ns;
}

// An uncontended elided critical section (one load, one store) through a
// lock's execute(): per critical section.
template <typename Lock>
std::vector<double> criticalSection(uint64_t) {
  htm::Env env(sim::LargeMachine());
  WorkingSet ws(env);
  Lock lock(env);
  std::vector<double> ns;
  inFiber(env, [&](htm::ThreadCtx& ctx) {
    ns = timeBatches(kTxPerBatch, [&] {
      for (int i = 0; i < kTxPerBatch; ++i) {
        lock.execute(ctx, [&] {
          ctx.store(ws.word(0), ctx.load(ws.word(0)) + 1);
        });
      }
    });
  });
  return ns;
}

// Poisson arrivals at the service workload's point-class rate.
std::vector<double> arrival(uint64_t seed) {
  traffic::ArrivalSpec spec;
  spec.kind = traffic::ArrivalKind::kPoisson;
  spec.rate = 20000;
  traffic::ArrivalProcess p(spec, sim::LargeMachine().ghz, seed);
  return timeBatches(kOps, [&] {
    uint64_t acc = 0;
    for (int k = 0; k < kOps; ++k) acc += p.next();
    g_sink = g_sink + acc;
  });
}

std::vector<double> latencyAdd(uint64_t seed) {
  traffic::LatencyAccum acc(sim::LargeMachine().ghz);
  sim::Rng rng(seed);
  return timeBatches(kOps, [&] {
    for (int k = 0; k < kOps; ++k) acc.add(rng.below(100000));
  });
}

// Tracer::record of a begin / conflict-abort / commit mix on the two-socket
// topology (streaming attribution, no raw retention).
std::vector<double> obsRecord(uint64_t seed) {
  obs::Tracer tracer;
  tracer.setTopology(2, {0, 1, 1, 0});
  sim::Rng rng(seed);
  std::vector<obs::TraceEvent> events(4096);
  for (size_t i = 0; i < events.size(); ++i) {
    obs::TraceEvent& e = events[i];
    e.clock = i * 100;
    e.tid = static_cast<int16_t>(rng.below(72));
    e.socket = static_cast<int16_t>(e.tid / 36);
    switch (i % 3) {
      case 0: e.kind = obs::EventKind::kTxBegin; break;
      case 1:
        e.kind = obs::EventKind::kTxAbort;
        e.reason = htm::AbortReason::kConflict;
        e.may_retry = true;
        e.killer_tid = static_cast<int16_t>(rng.below(72));
        e.killer_socket = static_cast<int16_t>(e.killer_tid / 36);
        e.line = (uint64_t{1} << 32) | rng.below(1024);
        break;
      default: e.kind = obs::EventKind::kTxCommit; break;
    }
  }
  size_t pos = 0;
  return timeBatches(kOps, [&] {
    for (int k = 0; k < kOps; ++k) tracer.record(events[pos++ % events.size()]);
  });
}

struct Micro {
  const char* name;
  const char* unit;
  std::vector<double> (*run)(uint64_t seed);
};

const std::vector<Micro>& micros() {
  static const std::vector<Micro> all = {
      {"sim.handoff_ns", "ns", handoff},
      {"sim.spawn_us", "us", spawn},
      {"mem.dir_hit_ns", "ns", dirHit},
      {"mem.l1_probe_ns", "ns", l1Probe},
      {"mem.dir_insert_ns", "ns", dirInsert},
      {"mem.l1_insert_ns", "ns", l1Insert},
      {"ds.avl_setup_insert_ns", "ns", avlSetupInsert},
      {"mem.fill_read_ns", "ns", fillRead},
      {"mem.fill_write_ns", "ns", fillWrite},
      {"mem.net_dense_ns", "ns", netDense},
      {"mem.net_lazy_ns", "ns", netLazy},
      {"htm.load_ns", "ns", htmLoad},
      {"htm.tx_load_ns", "ns", htmTxLoad},
      {"htm.begin_commit_ns", "ns", htmBeginCommit},
      {"htm.abort_ns", "ns", htmAbort},
      {"sync.tle_cs_ns", "ns", criticalSection<sync::TleLock>},
      {"sync.natle_cs_ns", "ns", criticalSection<sync::NatleLock>},
      {"traffic.arrival_ns", "ns", arrival},
      {"traffic.latency_add_ns", "ns", latencyAdd},
      {"obs.record_ns", "ns", obsRecord},
  };
  return all;
}

}  // namespace

const std::vector<std::string>& microNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const Micro& m : micros()) n.push_back(m.name);
    return n;
  }();
  return names;
}

const char* microUnit(const std::string& metric) {
  for (const Micro& m : micros()) {
    if (metric.rfind(m.name, 0) == 0) return m.unit;
  }
  return "ns";
}

ChildResult runMicrobenchmarks(uint64_t seed) {
  ChildResult out;
  for (const Micro& m : micros()) {
    const double start = monotonicSeconds();
    const std::vector<double> samples = m.run(seed);
    out.spans.push_back({m.name, start, monotonicSeconds()});
    if (samples.size() < static_cast<size_t>(kBatches) - 1) {
      out.failures.push_back(std::string(m.name) + ": only " +
                             std::to_string(samples.size()) + " batches");
      continue;
    }
    out.host[std::string(m.name) + ".p50"] = quantile(samples, 0.5);
    out.host[std::string(m.name) + ".p95"] = quantile(samples, 0.95);
  }
  return out;
}

}  // namespace natle::bm
