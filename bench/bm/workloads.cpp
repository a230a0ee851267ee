// The benchmark's workloads: fixed simulator configurations, each chosen to
// load a different part of the simulator (see README.md for the reasons).
#include <sstream>

#include "bm.hpp"
#include "obs/attribution.hpp"
#include "sim/config.hpp"
#include "sync/tle.hpp"
#include "traffic/service.hpp"
#include "workload/setbench.hpp"

namespace natle::bm {

namespace {

using workload::SetBenchConfig;
using workload::SetBenchResult;

const char* const kAvlUpdate = "avl-update-2s72";
const char* const kAvlLookup = "avl-lookup-2s36";
const char* const kService = "service-natle-2s72";
const char* const kMesh = "mesh-update-1024";
const char* const kSuite = "figures-s0.02";

// The one registered experiment the suite workload leaves out: its TLE
// 1024-thread point is mesh-update-1024, and it alone would double the
// suite's host time.
const char* const kSuiteExcluded = "manycore_scaling";

SetBenchConfig setConfig(const std::string& name, uint64_t seed) {
  SetBenchConfig c;
  c.seed = seed;
  c.sync = workload::SyncKind::kTle;
  c.tle = sync::Tle20();
  if (name == kMesh) {
    // manycore_scaling's tle x=1024 point at NATLE_SIM_SCALE=0.02.
    c.machine = sim::Mesh2D(8, 8, 8);
    c.pin = sim::PinPolicy::kAlternateSockets;
    c.nthreads = 1024;
    c.key_range = 2048;
    c.update_pct = 100;
    c.warmup_ms = 0.2 * 0.02;
    c.measure_ms = 0.5 * 0.02;
    c.watchdog_ms = 2.0;
    return c;
  }
  // sim_throughput's Figure 2 point at NATLE_SIM_SCALE=5.
  c.machine = sim::LargeMachine();
  c.key_range = 131072;
  c.warmup_ms = 0.8 * 5;
  c.measure_ms = 2.0 * 5;
  if (name == kAvlLookup) {
    c.nthreads = 36;  // socket 0 only under fill-socket-first pinning
    c.update_pct = 0;
  } else {
    c.nthreads = 72;
    c.update_pct = 100;
  }
  return c;
}

traffic::ServiceConfig serviceConfig(uint64_t seed) {
  traffic::ServiceConfig c;
  c.machine = sim::LargeMachine();
  c.model = traffic::ClientModel::kOpen;
  c.nthreads = 72;
  c.key_range = 65536;
  c.sync = workload::SyncKind::kNatle;
  c.seed = seed;
  c.warmup_ms = 2.5;
  c.measure_ms = 20;
  traffic::ClassSpec point;
  point.name = "point";
  point.kind = traffic::RequestKind::kPoint;
  point.arrival.kind = traffic::ArrivalKind::kPoisson;
  point.arrival.rate = 20000;
  point.update_pct = 50;
  point.slo_us = 100;
  traffic::ClassSpec scan;
  scan.name = "scan";
  scan.kind = traffic::RequestKind::kScan;
  scan.arrival.kind = traffic::ArrivalKind::kPoisson;
  scan.arrival.rate = 500;
  scan.scan_len = 64;
  scan.slo_us = 400;
  c.classes = {point, scan};
  return c;
}

double ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0;
}

void putStats(Values& v, const htm::TxStats& s) {
  auto n = [](uint64_t x) { return static_cast<double>(x); };
  v["workload.ops"] = n(s.ops);
  v["htm.tx_begins"] = n(s.tx_begins);
  v["htm.tx_commits"] = n(s.tx_commits);
  for (int r = 1; r < htm::kAbortReasonCount; ++r) {
    v[std::string("htm.aborts.") +
      htm::toString(static_cast<htm::AbortReason>(r))] = n(s.tx_aborts[r]);
  }
  v["htm.commit_ratio"] = ratio(s.tx_commits, s.tx_begins);
  v["sync.lock_fallbacks"] = n(s.lock_acquires);
  v["mem.l1_hits"] = n(s.l1_hits);
  v["mem.local_hits"] = n(s.local_hits);
  v["mem.remote_transfers"] = n(s.remote_transfers);
  v["mem.dram_misses"] = n(s.dram_misses);
  const uint64_t accesses =
      s.l1_hits + s.local_hits + s.remote_transfers + s.dram_misses;
  v["mem.accesses"] = n(accesses);
  v["mem.remote_share"] = ratio(s.remote_transfers, accesses);
}

// Attribution must agree with TxStats event for event: both gate on the same
// stats-window test, and every abort lands in exactly one of the three
// killer buckets.
void putAttribution(ChildResult& out, const obs::Attribution& a,
                    const htm::TxStats& s) {
  auto n = [](uint64_t x) { return static_cast<double>(x); };
  out.sim["obs.cross_domain_aborts"] = n(a.crossSocketAborts());
  out.sim["obs.intra_domain_aborts"] = n(a.intraSocketAborts());
  out.sim["obs.self_aborts"] = n(a.selfOrUnknownAborts());
  out.sim["obs.fallback_episodes"] = n(a.fallbackEpisodes());
  auto expect = [&out](const char* what, uint64_t got, uint64_t want) {
    if (got == want) return;
    out.failures.push_back(std::string("attribution ") + what + " " +
                           std::to_string(got) + " != TxStats " +
                           std::to_string(want));
  };
  expect("begins", a.txBegins(), s.tx_begins);
  expect("commits", a.txCommits(), s.tx_commits);
  expect("aborts", a.txAborts(), s.totalAborts());
  expect("fallbacks", a.lockFallbacks(), s.lock_acquires);
  expect("cross+intra+self aborts",
         a.crossSocketAborts() + a.intraSocketAborts() +
             a.selfOrUnknownAborts(),
         a.txAborts());
}

void putService(ChildResult& out, const traffic::ServiceResult& r) {
  putStats(out.sim, r.stats);
  uint64_t offered = 0;
  uint64_t completed = 0;
  int64_t unserved = 0;
  for (const traffic::ClassMetrics& m : r.classes) {
    offered += m.offered;
    completed += m.completed;
    unserved += static_cast<int64_t>(m.offered) -
                static_cast<int64_t>(m.completed);
    if (m.latency.count != m.completed) {
      out.failures.push_back("service class " + m.name + ": latency.count " +
                             std::to_string(m.latency.count) +
                             " != completed " + std::to_string(m.completed));
    }
  }
  if (unserved != static_cast<int64_t>(r.backlog_end)) {
    out.failures.push_back("service: sum(offered - completed) " +
                           std::to_string(unserved) + " != backlog_end " +
                           std::to_string(r.backlog_end));
  }
  out.sim["workload.sim_mops"] = r.total_krps / 1e3;
  out.sim["traffic.offered"] = static_cast<double>(offered);
  out.sim["traffic.completed"] = static_cast<double>(completed);
  out.sim["traffic.backlog_end"] = static_cast<double>(r.backlog_end);
  out.sim["traffic.peak_queue"] = static_cast<double>(r.peak_queue);
  const traffic::LatencySummary& point = r.classes.at(0).latency;
  out.sim["traffic.point_p50_us"] = point.p50_us;
  out.sim["traffic.point_p99_us"] = point.p99_us;
  out.sim["traffic.point_p999_us"] = point.p999_us;
  out.sim["traffic.scan_p99_us"] = r.classes.at(1).latency.p99_us;
}

// Runs one simulation of `w`; with `zero_window` the same configuration
// with no warmup and no measurement window, i.e. set-up alone. Returns the
// host seconds it took.
double simulate(const Workload& w, uint64_t seed, bool trace,
                bool zero_window, ChildResult& out) {
  const double t0 = monotonicSeconds();
  if (w.kind == Kind::kService) {
    traffic::ServiceConfig c = serviceConfig(seed);
    c.trace = trace;
    if (zero_window) c.warmup_ms = c.measure_ms = 0;
    const traffic::ServiceResult r = traffic::runService(c);
    const double wall = monotonicSeconds() - t0;
    if (zero_window) {
      // mops and latency quantiles divide by the empty window: take the
      // counts only.
      putStats(out.sim, r.stats);
    } else {
      putService(out, r);
      if (trace) putAttribution(out, r.attribution, r.stats);
    }
    return wall;
  }
  SetBenchConfig c = setConfig(w.name, seed);
  c.trace = trace;
  if (zero_window) c.warmup_ms = c.measure_ms = 0;
  const SetBenchResult r = workload::runSetBench(c);
  const double wall = monotonicSeconds() - t0;
  putStats(out.sim, r.stats);
  // runSetBench divides ops by measure_ms, so a zero window yields NaN mops:
  // setup runs report counts only.
  if (!zero_window) {
    out.sim["workload.sim_mops"] = r.mops;
    if (trace) putAttribution(out, r.attribution, r.stats);
  }
  return wall;
}

}  // namespace

const std::vector<Workload>& workloads() {
  static const std::vector<Workload> all = {
      {kAvlUpdate, Kind::kSet},   {kAvlLookup, Kind::kSet},
      {kService, Kind::kService}, {kMesh, Kind::kSet},
      {kSuite, Kind::kSuite},
  };
  return all;
}

const Workload* findWorkload(const std::string& name) {
  for (const Workload& w : workloads()) {
    if (name == w.name) return &w;
  }
  return nullptr;
}

ChildResult runSimulation(const Workload& w, uint64_t seed, bool trace) {
  ChildResult out;
  out.host["wall_s"] = simulate(w, seed, trace, /*zero_window=*/false, out);
  return out;
}

ChildResult runSetups(const Workload& w, uint64_t seed, int n) {
  ChildResult out;
  std::vector<double> times;
  for (int i = 0; i < n; ++i) {
    ChildResult one;
    times.push_back(simulate(w, seed, /*trace=*/false, /*zero_window=*/true,
                             one));
    for (const auto& [name, value] : one.sim) {
      if (value != 0) {
        out.failures.push_back("setup run counted " + name + " = " +
                               std::to_string(value) + " (expected 0)");
      }
    }
    if (i == 0) out.sim = one.sim;
  }
  out.host["setup_s"] = quantile(times, 0.5);
  return out;
}

std::vector<std::string> suiteExperiments(const std::string& list_output) {
  std::vector<std::string> names;
  std::istringstream in(list_output);
  std::string line;
  while (std::getline(in, line)) {
    std::istringstream words(line);
    std::string name;
    if (words >> name && name != kSuiteExcluded) names.push_back(name);
  }
  return names;
}

}  // namespace natle::bm
