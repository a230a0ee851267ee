// natle-bm: host-cost benchmark of the natle-sim simulator.
//
// main.cpp forks one child per measured run; a child calls the
// functions declared here and reports back a ChildResult. Everything is
// measured from outside the simulator: by timing calls into its public
// functions, never by instrumenting src/.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace natle::bm {

using Values = std::map<std::string, double>;

// A span recorded inside a child (a microbenchmark's batch set). Times are
// seconds on the monotonic clock, which every process of the run shares.
struct ChildSpan {
  std::string name;
  double start = 0;
  double end = 0;
};

// What one child run reports to its parent.
struct ChildResult {
  // Simulated outputs: deterministic per (workload, seed), so they must
  // repeat exactly across reps and between traced and untraced runs.
  Values sim;
  // Host measurements (seconds, nanoseconds): these vary run to run.
  Values host;
  std::vector<ChildSpan> spans;
  // Checks the child could make on its own result; each fails the run.
  std::vector<std::string> failures;
};

inline double monotonicSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// Quantile q in [0, 1] of `v`, interpolating linearly between closest ranks
// (so q = 0.5 is the usual median). `v` must be non-empty.
inline double quantile(std::vector<double> v, double q) {
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const size_t lo = static_cast<size_t>(pos);
  const size_t hi = lo + 1 < v.size() ? lo + 1 : lo;
  return v[lo] + (pos - static_cast<double>(lo)) * (v[hi] - v[lo]);
}

// --- workloads (workloads.cpp) ---------------------------------------------

enum class Kind { kSet, kService, kSuite };

struct Workload {
  const char* name;
  Kind kind;
};

// The five workloads, in run order (README.md says why each was chosen).
const std::vector<Workload>& workloads();
const Workload* findWorkload(const std::string& name);

// One full simulation run of a set or service workload. sim gets the exact
// counters (plus obs.* attribution when `trace`), host gets wall_s.
ChildResult runSimulation(const Workload& w, uint64_t seed, bool trace);

// `n` back-to-back zero-window runs of the same configuration (Env
// construction, prefill, lock construction, fiber spawn). host gets setup_s,
// the median; sim gets the counters, which must all be zero.
ChildResult runSetups(const Workload& w, uint64_t seed, int n);

// Experiment names the suite workload runs: every registered experiment
// except the one the mesh workload already covers, read from the output of
// `natle-bench list`.
std::vector<std::string> suiteExperiments(const std::string& list_output);

// --- host microbenchmarks (micro.cpp) ---------------------------------------

// Runs every microbenchmark; host gets "<name>.p50" and "<name>.p95" per-op
// costs, spans one entry per microbenchmark.
ChildResult runMicrobenchmarks(uint64_t seed);

// Unit ("ns" or "us") of a microbenchmark metric name.
const char* microUnit(const std::string& metric);

// Names of every microbenchmark, in run order.
const std::vector<std::string>& microNames();

}  // namespace natle::bm
