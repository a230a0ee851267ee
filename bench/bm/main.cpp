// natle-bm: one-command benchmark of the simulator's host cost.
//
//   natle-bm [--seed S] [--reps N] [--out DIR]             report mode
//   natle-bm --workload W --seed S --seconds T --trace 0|1  single-run mode
//
// Report mode runs every workload --reps times (rep-major, so host drift
// spreads over all workloads), the host microbenchmarks once per rep and a
// traced pass per simulation workload; it prints one line per metric
// (workload metric value unit n p25 p75), writes DIR/result.json and
// DIR/spans.json, and exits nonzero if any run fails.
//
// Single-run mode measures one workload for about T seconds and prints, as
// its last line, one JSON object {correct, attempted, failed, metrics}: the
// end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
//
// Every measured run happens in a forked child, one at a time; each child
// is single-threaded. Children report over a pipe, so a crash, a tripped
// watchdog or a timeout fails that run and nothing else.
#include <fcntl.h>
#include <signal.h>
#include <sys/personality.h>
#include <sys/prctl.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <functional>
#include <sstream>
#include <thread>

#include "bm.hpp"
#include "workload/json.hpp"
#include "workload/json_parse.hpp"

namespace natle::bm {

namespace {

namespace fs = std::filesystem;
using workload::JsonWriter;

struct Options {
  std::string workload;  // empty: all (report mode only)
  uint64_t seed = 1;
  int reps = 3;
  int seconds = 0;  // single-run mode: measuring budget
  int trace = -1;   // -1: report mode; 0/1: single-run mode
  std::string out = "build-bm/results";
  std::string natle_bench = "build-bm/bench/natle-bench";
  std::string git_sha = "unknown";
};

constexpr int kSetupsPerRun = 20;     // zero-window runs per setup child
constexpr double kSuiteScale = 0.02;  // NATLE_SIM_SCALE of the suite workload

// calibrationSeconds() on the host baseline.json comes from (median of 296).
constexpr double kReferenceCalibrationS = 0.224;

// One finished run as the parent saw it.
struct Run {
  std::string workload;
  std::string kind;  // measure | setup | traced | micro
  int rep = 0;
  ChildResult r{};
  double wall_s = 0;    // fork to reap
  double rss_mb = 0;    // the child's ru_maxrss
  double cal_s = 0;     // calibration time around the run
  std::string error{};  // nonempty: the run failed
};

struct Span {
  int id;
  int parent;
  std::string name;
  double start;
  double end;
};

// One printed metric: the median of its samples and their quartiles.
struct Row {
  std::string workload;
  std::string metric;
  std::vector<double> samples;
};

std::string oneLine(std::string s) {
  for (char& c : s) {
    if (c == '\n' || c == '\r') c = ' ';
  }
  return s;
}

std::string fmt(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

// --- child -> parent wire format -------------------------------------------
// One record per line: "S key value" (sim), "H key value" (host),
// "P start end name" (span), "F text" (failed check), "E text" (exception),
// and "K" once the child finished normally.

std::string encode(const ChildResult& r) {
  std::string s;
  for (const auto& [k, v] : r.sim) s += "S " + k + " " + fmt(v) + "\n";
  for (const auto& [k, v] : r.host) s += "H " + k + " " + fmt(v) + "\n";
  for (const ChildSpan& p : r.spans) {
    s += "P " + fmt(p.start) + " " + fmt(p.end) + " " + oneLine(p.name) + "\n";
  }
  for (const std::string& f : r.failures) s += "F " + oneLine(f) + "\n";
  return s + "K\n";
}

// Returns an error message, or "" when the child completed.
std::string decode(const std::string& text, ChildResult* r) {
  std::istringstream in(text);
  std::string line;
  bool complete = false;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    const std::string rest = line.size() > 2 ? line.substr(2) : "";
    std::istringstream f(rest);
    std::string key;
    std::string a;
    std::string b;
    // strtod, unlike operator>>, reads "nan" and "inf" back, so a
    // non-finite value reaches crossCheck instead of turning into 0.
    switch (line[0]) {
      case 'S':
      case 'H':
        f >> key >> a;
        (line[0] == 'S' ? r->sim : r->host)[key] =
            std::strtod(a.c_str(), nullptr);
        break;
      case 'P':
        f >> a >> b;
        std::getline(f >> std::ws, key);
        r->spans.push_back({key, std::strtod(a.c_str(), nullptr),
                            std::strtod(b.c_str(), nullptr)});
        break;
      case 'F': r->failures.push_back(rest); break;
      case 'E': return "exception: " + rest;
      case 'K': complete = true; break;
      default: return "garbled child output: " + line;
    }
  }
  return complete ? "" : "child ended without a result";
}

std::string readAll(int fd) {
  std::string s;
  char buf[65536];
  for (;;) {
    const ssize_t n = ::read(fd, buf, sizeof buf);
    if (n > 0) {
      s.append(buf, static_cast<size_t>(n));
    } else if (n == 0 || errno != EINTR) {
      return s;
    }
  }
}

void writeAll(int fd, const std::string& s) {
  size_t off = 0;
  while (off < s.size()) {
    const ssize_t n = ::write(fd, s.data() + off, s.size() - off);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) return;
    off += static_cast<size_t>(n);
  }
}

std::string statusError(int status) {
  if (WIFSIGNALED(status)) {
    return WTERMSIG(status) == SIGALRM
               ? "timeout"
               : std::string("crash: ") + strsignal(WTERMSIG(status));
  }
  if (WIFEXITED(status) && WEXITSTATUS(status) != 0) {
    return "exit status " + std::to_string(WEXITSTATUS(status));
  }
  return "";
}

// In a freshly forked child: end it if the parent dies (so killing natle-bm
// leaves nothing running) and after `timeout` seconds (SIGALRM, reported as
// a timeout). Both survive exec.
void dieWithParent(pid_t parent, unsigned timeout) {
  ::prctl(PR_SET_PDEATHSIG, SIGKILL);
  if (::getppid() != parent) ::_exit(1);  // it died before prctl
  ::alarm(timeout);
}

bool readFile(const fs::path& p, std::string* out) {
  std::FILE* f = std::fopen(p.c_str(), "rb");
  if (f == nullptr) return false;
  char buf[65536];
  size_t n;
  out->clear();
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out->append(buf, n);
  std::fclose(f);
  return true;
}

bool writeFile(const fs::path& p, const std::string& body) {
  std::FILE* f = std::fopen(p.c_str(), "wb");
  if (f == nullptr) return false;
  const bool ok = std::fwrite(body.data(), 1, body.size(), f) == body.size();
  return std::fclose(f) == 0 && ok;
}

const char* unitOf(const std::string& metric) {
  auto ends = [&metric](const char* suffix) {
    const size_t n = std::strlen(suffix);
    return metric.size() >= n &&
           metric.compare(metric.size() - n, n, suffix) == 0;
  };
  for (const std::string& m : microNames()) {
    if (metric.rfind(m, 0) == 0) return microUnit(m);
  }
  if (metric == "peak_rss_mb") return "MB";
  if (metric == "workload.sim_mops") return "Mops/s";
  if (metric == "htm.commit_ratio" || metric == "mem.remote_share") {
    return "ratio";
  }
  if (ends("_pct")) return "%";
  if (ends("_us")) return "us";
  if (ends("_ns") || ends("_ns_per_access")) return "ns";
  if (ends("_s")) return "s";
  return "count";
}

volatile uint64_t g_calibration_sink = 0;

// Host speed probe: a fixed serial integer loop. The shared host this
// benchmark was built on runs 10-40% slower for minutes at a time without
// descheduling the process, so the loop is timed right before and after each
// run and end-to-end times are scaled by kReferenceCalibrationS / that time
// (README.md, "Scaling to the reference host").
[[gnu::noinline]] double calibrationSeconds() {
  const double t0 = monotonicSeconds();
  uint64_t x = 88172645463325252ULL;
  uint64_t acc = 0;
  for (int i = 0; i < 100'000'000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    acc += x * 0x9e3779b97f4a7c15ULL;
  }
  g_calibration_sink = acc;
  return monotonicSeconds() - t0;
}

uint32_t fnv1a(const std::string& s, uint32_t h = 2166136261u) {
  for (unsigned char c : s) h = (h ^ c) * 16777619u;
  return h;
}

class Bench {
 public:
  explicit Bench(Options opt) : opt_(std::move(opt)), t0_(monotonicSeconds()) {
    spans_.push_back({0, -1, "natle-bm", 0, 0});
  }

  int reportMode();
  int singleRunMode(const Workload& w);

 private:
  // Seconds a child may run before it is killed as a timeout. Single-run
  // mode must finish within its 180 s allowance as a whole.
  unsigned childTimeout() const {
    if (opt_.trace < 0) return 900;
    const double left = 170 - (monotonicSeconds() - t0_);
    return left > 10 ? static_cast<unsigned>(left) : 10;
  }

  Run& child(const std::string& workload, const std::string& kind, int rep,
             const std::function<ChildResult()>& body);
  // Fork and exec the natle-bench binary; stdout goes to `log` or, when
  // `log` is empty, into *captured. Returns the failure text ("" = ok).
  std::string execBench(const std::vector<std::string>& args,
                        const fs::path& log, std::string* captured,
                        double* wall_s, double* rss_mb);
  Run& suiteSetup(const Workload& w, int rep);
  Run& suiteMeasure(const Workload& w, int rep);
  Run& measure(const Workload& w, int rep);
  Run& setup(const Workload& w, int rep);
  Run& traced(const Workload& w);
  Run& micro(int rep);
  void addSpan(const Run& run, double start, double end);
  // Calibration right before a run: the one taken right after the previous
  // run, when there was one (nothing ran in between).
  double calibrationBefore() {
    return last_cal_ > 0 ? last_cal_ : calibrationSeconds();
  }
  void calibrationAfter(Run& run, double before) {
    last_cal_ = calibrationSeconds();
    run.cal_s = (before + last_cal_) / 2;
  }

  void crossCheck();
  std::vector<Row> rows(const Workload* only) const;
  std::vector<const Run*> runsOf(const std::string& workload,
                                 const std::string& kind, bool ok_only) const;
  std::pair<size_t, size_t> counts() const;
  std::vector<std::string> failures() const;
  void writeOutputs(const std::vector<Row>& rows) const;

  Options opt_;
  double t0_;
  std::deque<Run> runs_;  // deque: Run& stays valid as runs are added
  std::vector<Span> spans_;
  std::vector<std::string> suite_names_;  // cached `natle-bench list` result
  double last_cal_ = 0;
};

Run& Bench::child(const std::string& workload, const std::string& kind,
                   int rep, const std::function<ChildResult()>& body) {
  runs_.push_back(Run{workload, kind, rep});
  Run& run = runs_.back();
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2];
  if (::pipe(fds) != 0) {
    run.error = std::string("pipe: ") + std::strerror(errno);
    return run;
  }
  const unsigned timeout = childTimeout();
  const double cal = calibrationBefore();
  const double start = monotonicSeconds();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    dieWithParent(parent, timeout);
    ::close(fds[0]);
    std::string msg;
    try {
      msg = encode(body());
    } catch (const std::exception& e) {
      msg = "E " + oneLine(e.what()) + "\n";
    }
    writeAll(fds[1], msg);
    ::_exit(0);
  }
  ::close(fds[1]);
  if (pid < 0) {
    ::close(fds[0]);
    run.error = std::string("fork: ") + std::strerror(errno);
    return run;
  }
  const std::string text = readAll(fds[0]);
  ::close(fds[0]);
  int status = 0;
  struct rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  const double end = monotonicSeconds();
  calibrationAfter(run, cal);
  run.wall_s = end - start;
  run.rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  run.error = statusError(status);
  if (run.error.empty()) run.error = decode(text, &run.r);
  if (run.error.empty() && !run.r.failures.empty()) {
    run.error = "check failed: " + run.r.failures.front();
  }
  addSpan(run, start, end);
  return run;
}

void Bench::addSpan(const Run& run, double start, double end) {
  const int id = static_cast<int>(spans_.size());
  spans_.push_back({id, 0,
                    run.workload + "/" + run.kind + "#" +
                        std::to_string(run.rep),
                    start - t0_, end - t0_});
  for (const ChildSpan& s : run.r.spans) {
    spans_.push_back({static_cast<int>(spans_.size()), id, s.name,
                      s.start - t0_, s.end - t0_});
  }
}

std::string Bench::execBench(const std::vector<std::string>& args,
                              const fs::path& log, std::string* captured,
                              double* wall_s, double* rss_mb) {
  std::fflush(stdout);
  std::fflush(stderr);
  int fds[2] = {-1, -1};
  if (log.empty() && ::pipe(fds) != 0) {
    return std::string("pipe: ") + std::strerror(errno);
  }
  std::vector<char*> argv;
  argv.push_back(const_cast<char*>(opt_.natle_bench.c_str()));
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);
  const std::string scale = fmt(kSuiteScale);
  const unsigned timeout = childTimeout();
  const double start = monotonicSeconds();
  const pid_t parent = ::getpid();
  const pid_t pid = ::fork();
  if (pid == 0) {
    const int out =
        log.empty() ? fds[1]
                    : ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (out < 0) ::_exit(126);
    ::dup2(out, STDOUT_FILENO);
    if (!log.empty()) ::dup2(out, STDERR_FILENO);
    if (fds[0] >= 0) ::close(fds[0]);
    ::setenv("NATLE_SIM_SCALE", scale.c_str(), 1);
    dieWithParent(parent, timeout);
    ::execv(argv[0], argv.data());
    ::_exit(127);
  }
  if (fds[1] >= 0) ::close(fds[1]);
  if (pid < 0) {
    if (fds[0] >= 0) ::close(fds[0]);
    return std::string("fork: ") + std::strerror(errno);
  }
  if (fds[0] >= 0) {
    *captured = readAll(fds[0]);
    ::close(fds[0]);
  }
  int status = 0;
  struct rusage ru{};
  while (::wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
  }
  *wall_s = monotonicSeconds() - start;
  *rss_mb = static_cast<double>(ru.ru_maxrss) / 1024.0;
  const std::string err = statusError(status);
  return err.empty() ? "" : opt_.natle_bench + " " + args.front() + ": " + err;
}

// Suite set-up: `natle-bench list`, i.e. process start plus experiment
// registration, run back to back; the median is the sample.
Run& Bench::suiteSetup(const Workload& w, int rep) {
  runs_.push_back(Run{w.name, "setup", rep});
  Run& run = runs_.back();
  const double cal = calibrationBefore();
  const double start = monotonicSeconds();
  std::vector<double> times;
  for (int i = 0; i < kSetupsPerRun && run.error.empty(); ++i) {
    std::string listing;
    double wall = 0;
    run.error = execBench({"list"}, {}, &listing, &wall, &run.rss_mb);
    times.push_back(wall);
    if (suite_names_.empty()) suite_names_ = suiteExperiments(listing);
  }
  if (run.error.empty() && suite_names_.empty()) {
    run.error = "natle-bench list printed no experiments";
  }
  if (run.error.empty()) run.r.host["setup_s"] = quantile(times, 0.5);
  run.wall_s = monotonicSeconds() - start;
  calibrationAfter(run, cal);
  addSpan(run, start, start + run.wall_s);
  return run;
}

Run& Bench::suiteMeasure(const Workload& w, int rep) {
  runs_.push_back(Run{w.name, "measure", rep});
  Run& run = runs_.back();
  if (suite_names_.empty()) {
    run.error = "no experiment list (the set-up run failed)";
    return run;
  }
  const fs::path dir =
      fs::path(opt_.out) / w.name / ("rep" + std::to_string(rep));
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir, ec);
  std::vector<std::string> args = {"run", "-j1", "--out-dir", dir.string()};
  for (const std::string& n : suite_names_) {
    args.push_back("--filter");
    args.push_back(n);
  }
  const double cal = calibrationBefore();
  const double start = monotonicSeconds();
  run.error = execBench(args, dir / "natle-bench.log", nullptr, &run.wall_s,
                        &run.rss_mb);
  calibrationAfter(run, cal);
  addSpan(run, start, start + run.wall_s);
  if (!run.error.empty()) return run;

  // The manifest gives the point count and the summed per-point wall time;
  // the CSVs (all byte-deterministic) are digested for the cross-rep check.
  std::string text;
  workload::JsonValue manifest;
  std::string err;
  if (!readFile(dir / "manifest.json", &text) ||
      !workload::parseJson(text, &manifest, &err)) {
    run.error = "unreadable manifest.json " + err;
    return run;
  }
  double points = 0;
  double job_wall_ms = 0;
  double failed = 0;
  uint32_t digest = fnv1a("");
  size_t csvs = 0;
  if (const workload::JsonValue* exps = manifest.find("experiments")) {
    for (const workload::JsonValue& e : exps->items) {
      auto num = [&e](const char* k) {
        const workload::JsonValue* v = e.find(k);
        return v != nullptr && v->isNumber() ? v->number : 0.0;
      };
      points += num("data_points");
      job_wall_ms += num("job_wall_ms");
      failed += num("failed");
      const workload::JsonValue* csv = e.find("csv");
      std::string body;
      if (csv != nullptr && readFile(dir / csv->str, &body)) {
        digest = fnv1a(csv->str + "\n" + body, digest);
        csvs++;
      }
    }
  }
  if (csvs != suite_names_.size() || failed != 0) {
    run.error = "suite wrote " + std::to_string(csvs) + " of " +
                std::to_string(suite_names_.size()) + " CSVs, " +
                fmt(failed) + " failed points";
    return run;
  }
  run.r.sim["exp.points"] = points;
  run.r.sim["exp.csv_fnv1a"] = digest;
  run.r.host["wall_s"] = run.wall_s;
  run.r.host["exp.job_wall_s"] = job_wall_ms / 1e3;
  run.r.host["exp.runner_overhead_s"] = run.wall_s - job_wall_ms / 1e3;
  return run;
}

Run& Bench::measure(const Workload& w, int rep) {
  if (w.kind == Kind::kSuite) return suiteMeasure(w, rep);
  const uint64_t seed = opt_.seed;
  return child(w.name, "measure", rep,
               [&w, seed] { return runSimulation(w, seed, false); });
}

Run& Bench::setup(const Workload& w, int rep) {
  if (w.kind == Kind::kSuite) return suiteSetup(w, rep);
  const uint64_t seed = opt_.seed;
  return child(w.name, "setup", rep,
               [&w, seed] { return runSetups(w, seed, kSetupsPerRun); });
}

Run& Bench::traced(const Workload& w) {
  const uint64_t seed = opt_.seed;
  return child(w.name, "traced", 0,
               [&w, seed] { return runSimulation(w, seed, true); });
}

Run& Bench::micro(int rep) {
  const uint64_t seed = opt_.seed;
  return child("micro", "micro", rep,
               [seed] { return runMicrobenchmarks(seed); });
}

std::vector<const Run*> Bench::runsOf(const std::string& workload,
                                       const std::string& kind,
                                       bool ok_only) const {
  std::vector<const Run*> out;
  for (const Run& r : runs_) {
    if (r.workload == workload && r.kind == kind &&
        (!ok_only || r.error.empty())) {
      out.push_back(&r);
    }
  }
  return out;
}

// Simulated outputs are a pure function of (workload, seed): every rep, and
// the traced run minus its obs.* additions, must match the first rep
// exactly. Any value that is not finite fails its run too, so NaN is never
// printed or stored.
void Bench::crossCheck() {
  for (Run& run : runs_) {
    for (const Values* vals : {&run.r.sim, &run.r.host}) {
      for (const auto& [k, v] : *vals) {
        if (!std::isfinite(v) && run.error.empty()) {
          run.error = "non-finite " + k;
        }
      }
    }
  }
  for (const Workload& w : workloads()) {
    const std::vector<const Run*> ref = runsOf(w.name, "measure", true);
    if (ref.empty()) continue;
    const Values& want = ref.front()->r.sim;
    for (Run& run : runs_) {
      if (run.workload != w.name || !run.error.empty() ||
          (run.kind != "measure" && run.kind != "traced")) {
        continue;
      }
      for (const auto& [k, v] : want) {
        const auto it = run.r.sim.find(k);
        if (it == run.r.sim.end() || it->second != v) {
          run.error = "simulated " + k + " differs from rep 0: " +
                      (it == run.r.sim.end() ? "missing" : fmt(it->second)) +
                      " vs " + fmt(v);
          break;
        }
      }
    }
  }
}

std::pair<size_t, size_t> Bench::counts() const {
  size_t failed = 0;
  for (const Run& r : runs_) failed += !r.error.empty();
  return {runs_.size(), failed};
}

std::vector<std::string> Bench::failures() const {
  std::vector<std::string> out;
  for (const Run& r : runs_) {
    if (!r.error.empty()) {
      out.push_back(r.workload + "/" + r.kind + "#" + std::to_string(r.rep) +
                    ": " + r.error);
    }
  }
  return out;
}

// Every metric of every workload (or only `only`) and every microbenchmark,
// from the finished runs. Rows without samples are not printed.
std::vector<Row> Bench::rows(const Workload* only) const {
  std::vector<Row> out;
  auto samples = [this](const std::string& wl, const std::string& kind,
                        const std::string& key, bool host) {
    std::vector<double> v;
    for (const Run* r : runsOf(wl, kind, true)) {
      const Values& vals = host ? r->r.host : r->r.sim;
      const auto it = vals.find(key);
      if (it != vals.end()) v.push_back(it->second);
    }
    return v;
  };
  // Host seconds on the reference host: raw x reference / calibration.
  auto scaled = [this](const std::string& wl, const std::string& kind,
                       const std::string& key) {
    std::vector<double> v;
    for (const Run* r : runsOf(wl, kind, true)) {
      v.push_back(r->r.host.at(key) * kReferenceCalibrationS / r->cal_s);
    }
    return v;
  };
  for (const Workload& w : workloads()) {
    if (only != nullptr && only != &w) continue;
    const std::string wl = w.name;
    double n_runs = 0;
    double n_failed = 0;
    for (const Run& r : runs_) {
      if (r.workload != wl) continue;
      n_runs++;
      n_failed += !r.error.empty();
    }
    const std::vector<const Run*> measured = runsOf(wl, "measure", true);
    const std::vector<double> wall = scaled(wl, "measure", "wall_s");
    const std::vector<double> setup = scaled(wl, "setup", "setup_s");
    std::vector<double> rss;
    std::vector<double> cal;
    for (const Run* r : measured) rss.push_back(r->rss_mb);
    for (const Run& r : runs_) {
      if (r.workload == wl && r.cal_s > 0) cal.push_back(r.cal_s);
    }
    out.push_back({wl, "wall_s", wall});
    out.push_back({wl, "setup_s", setup});
    out.push_back({wl, "peak_rss_mb", rss});
    out.push_back({wl, "wall_raw_s", samples(wl, "measure", "wall_s", true)});
    out.push_back({wl, "setup_raw_s", samples(wl, "setup", "setup_s", true)});
    out.push_back({wl, "host.calibration_s", cal});
    out.push_back({wl, "runs", {n_runs}});
    out.push_back({wl, "runs_failed", {n_failed}});
    if (measured.empty()) continue;

    // Simulated outputs repeat exactly, so these rows have p25 == p75.
    for (const auto& [k, v] : measured.front()->r.sim) {
      if (k != "mem.accesses" && k != "exp.csv_fnv1a") {
        out.push_back({wl, k, samples(wl, "measure", k, false)});
      }
    }
    if (w.kind == Kind::kSuite) {
      for (const char* k : {"exp.job_wall_s", "exp.runner_overhead_s"}) {
        out.push_back({wl, k, samples(wl, "measure", k, true)});
      }
      continue;
    }
    const double accesses = measured.front()->r.sim.at("mem.accesses");
    if (!setup.empty() && accesses > 0) {
      const double busy = quantile(wall, 0.5) - quantile(setup, 0.5);
      out.push_back(
          {wl, "workload.host_ns_per_access", {busy / accesses * 1e9}});
    }
    for (const Run* t : runsOf(wl, "traced", true)) {
      for (const char* k :
           {"obs.cross_domain_aborts", "obs.intra_domain_aborts",
            "obs.self_aborts", "obs.fallback_episodes"}) {
        out.push_back({wl, k, {t->r.sim.at(k)}});
      }
      const double base = quantile(wall, 0.5);
      const double traced =
          t->r.host.at("wall_s") * kReferenceCalibrationS / t->cal_s;
      out.push_back({wl, "obs.trace_overhead_pct",
                     {(traced - base) / base * 100}});
    }
  }
  for (const std::string& m : microNames()) {
    for (const char* q : {".p50", ".p95"}) {
      out.push_back({"micro", m + q, samples("micro", "micro", m + q, true)});
    }
  }
  return out;
}

void Bench::writeOutputs(const std::vector<Row>& rows) const {
  std::error_code ec;
  fs::create_directories(opt_.out, ec);
  const auto [n_runs, n_failed] = counts();
  JsonWriter w;
  w.beginObject();
  w.key("tool").value("natle-bm");
  w.key("seed").value(opt_.seed);
  w.key("reps").value(opt_.reps);
  w.key("host");
  w.beginObject();
  w.key("nproc").value(
      static_cast<uint64_t>(std::thread::hardware_concurrency()));
  w.key("compiler").value(__VERSION__);
  w.key("git_sha").value(opt_.git_sha);
  w.endObject();
  w.key("runs").value(static_cast<uint64_t>(n_runs));
  w.key("runs_failed").value(static_cast<uint64_t>(n_failed));
  w.key("failures");
  w.beginArray();
  for (const std::string& f : failures()) w.value(f);
  w.endArray();
  w.key("metrics");
  w.beginArray().newline();
  for (const Row& r : rows) {
    if (r.samples.empty()) continue;
    w.beginObject();
    w.key("workload").value(r.workload);
    w.key("metric").value(r.metric);
    w.key("value").value(quantile(r.samples, 0.5));
    w.key("unit").value(unitOf(r.metric));
    w.key("n").value(static_cast<uint64_t>(r.samples.size()));
    w.key("p25").value(quantile(r.samples, 0.25));
    w.key("p75").value(quantile(r.samples, 0.75));
    w.endObject().newline();
  }
  w.endArray();
  w.endObject().newline();
  const fs::path result = fs::path(opt_.out) / "result.json";
  if (!writeFile(result, w.take())) {
    std::fprintf(stderr, "natle-bm: cannot write %s\n", result.c_str());
  }

  JsonWriter s;
  s.beginArray().newline();
  for (const Span& sp : spans_) {
    s.beginObject();
    s.key("id").value(sp.id);
    s.key("parent").value(sp.parent);
    s.key("name").value(sp.name);
    s.key("start").value(sp.start);
    s.key("end").value(sp.id == 0 ? monotonicSeconds() - t0_ : sp.end);
    s.endObject().newline();
  }
  s.endArray().newline();
  writeFile(fs::path(opt_.out) / "spans.json", s.take());
}

void printRows(const std::vector<Row>& rows) {
  std::printf("%-20s %-32s %14s %-7s %3s %14s %14s\n", "workload", "metric",
              "value", "unit", "n", "p25", "p75");
  for (const Row& r : rows) {
    if (r.samples.empty()) continue;
    std::printf("%-20s %-32s %14.6g %-7s %3zu %14.6g %14.6g\n",
                r.workload.c_str(), r.metric.c_str(),
                quantile(r.samples, 0.5), unitOf(r.metric), r.samples.size(),
                quantile(r.samples, 0.25), quantile(r.samples, 0.75));
  }
}

int Bench::reportMode() {
  const Workload* only =
      opt_.workload.empty() ? nullptr : findWorkload(opt_.workload);
  for (int rep = 0; rep < opt_.reps; ++rep) {
    micro(rep);
    for (const Workload& w : workloads()) {
      if (only != nullptr && only != &w) continue;
      std::fprintf(stderr, "natle-bm: rep %d/%d %s\n", rep + 1, opt_.reps,
                   w.name);
      setup(w, rep);
      measure(w, rep);
    }
  }
  for (const Workload& w : workloads()) {
    if ((only == nullptr || only == &w) && w.kind != Kind::kSuite) traced(w);
  }
  crossCheck();
  const std::vector<Row> all = rows(only);
  printRows(all);
  writeOutputs(all);
  const auto [n_runs, n_failed] = counts();
  for (const std::string& f : failures()) {
    std::fprintf(stderr, "natle-bm: FAILED %s\n", f.c_str());
  }
  std::printf("natle-bm: %zu runs, %zu failed; results in %s\n", n_runs,
              n_failed, opt_.out.c_str());
  return n_failed == 0 ? 0 : 1;
}

// The metric names single-run mode reports, in BENCHMARK.json order.
const std::vector<std::string>& endToEndNames() {
  static const std::vector<std::string> names = {"wall_s", "setup_s",
                                                 "peak_rss_mb"};
  return names;
}

const std::vector<std::string>& perLayerNames() {
  static const std::vector<std::string> names = [] {
    std::vector<std::string> n;
    for (const std::string& m : microNames()) {
      n.push_back(m + ".p50");
      n.push_back(m + ".p95");
    }
    for (const char* k :
         {"wall_raw_s", "setup_raw_s", "host.calibration_s", "workload.ops",
          "workload.sim_mops", "workload.host_ns_per_access",
          "htm.tx_begins", "htm.tx_commits", "htm.aborts.conflict",
          "htm.aborts.capacity", "htm.aborts.explicit", "htm.aborts.spurious",
          "htm.commit_ratio", "sync.lock_fallbacks", "mem.l1_hits",
          "mem.local_hits", "mem.remote_transfers", "mem.dram_misses",
          "mem.remote_share", "traffic.offered", "traffic.completed",
          "traffic.backlog_end", "traffic.peak_queue", "traffic.point_p50_us",
          "traffic.point_p99_us", "traffic.point_p999_us",
          "traffic.scan_p99_us", "exp.points", "exp.job_wall_s",
          "exp.runner_overhead_s", "obs.cross_domain_aborts",
          "obs.intra_domain_aborts", "obs.self_aborts",
          "obs.fallback_episodes", "obs.trace_overhead_pct"}) {
      n.push_back(k);
    }
    return n;
  }();
  return names;
}

int Bench::singleRunMode(const Workload& w) {
  if (opt_.trace == 1) {
    // Per-layer pass: microbenchmarks, then one untraced and one traced
    // run for the exact counters and the tracing overhead.
    micro(0);
    setup(w, 0);
    measure(w, 0);
    if (w.kind != Kind::kSuite) traced(w);
  } else {
    // End-to-end pass: (set-up child, measured rep) pairs, as in report
    // mode, until the budget is spent. A rep is never cut short: the loop
    // stops before a pair that would end over half a pair past the budget.
    const double start = monotonicSeconds();
    for (int rep = 0;; ++rep) {
      const double pair_start = monotonicSeconds();
      const bool ok = setup(w, rep).error.empty() &&
                      measure(w, rep).error.empty();
      const double now = monotonicSeconds();
      if (!ok || (now - start) + 0.5 * (now - pair_start) >
                     static_cast<double>(opt_.seconds)) {
        break;
      }
    }
  }
  crossCheck();
  const std::vector<Row> all = rows(&w);
  printRows(all);
  writeOutputs(all);
  const auto [n_runs, n_failed] = counts();
  for (const std::string& f : failures()) {
    std::fprintf(stderr, "natle-bm: FAILED %s\n", f.c_str());
  }

  // Per-layer metrics a workload does not have (traffic counters of a set
  // workload, say) report 0. A missing end-to-end metric means its runs
  // failed, which already makes the result incorrect.
  const std::vector<std::string>& names =
      opt_.trace == 1 ? perLayerNames() : endToEndNames();
  JsonWriter j;
  j.beginObject();
  j.key("correct").value(n_failed == 0);
  j.key("attempted").value(static_cast<uint64_t>(n_runs));
  j.key("failed").value(static_cast<uint64_t>(n_failed));
  j.key("metrics");
  j.beginObject();
  for (const std::string& name : names) {
    double value = 0;
    for (const Row& r : all) {
      if (r.metric == name && !r.samples.empty()) {
        value = quantile(r.samples, 0.5);
      }
    }
    j.key(name);
    j.beginObject();
    j.key("value").value(value);
    j.key("unit").value(unitOf(name));
    j.endObject();
  }
  j.endObject();
  j.endObject();
  std::printf("%s\n", j.str().c_str());
  return 0;
}

void usage(std::FILE* to) {
  std::fputs(
      "usage: natle-bm [options]\n"
      "  --seed S          workload seed (default 1)\n"
      "  --reps N          report mode: runs per workload (default 3)\n"
      "  --out DIR         result directory (default build-bm/results)\n"
      "  --workload W      only this workload\n"
      "  --seconds T       single-run mode: measuring budget in seconds\n"
      "  --trace 0|1       single-run mode: end-to-end (0) or per-layer (1)\n"
      "                    metrics as one JSON line; needs --workload and\n"
      "                    --seconds\n"
      "  --natle-bench P   natle-bench binary (default"
      " build-bm/bench/natle-bench)\n"
      "  --git-sha SHA     recorded in result.json\n"
      "workloads:\n",
      to);
  for (const Workload& w : workloads()) std::fprintf(to, "  %s\n", w.name);
}

bool parseInt(const char* s, long lo, long hi, long* out) {
  char* end = nullptr;
  errno = 0;
  const long v = std::strtol(s, &end, 10);
  if (errno != 0 || end == s || *end != '\0' || v < lo || v > hi) return false;
  *out = v;
  return true;
}

}  // namespace

}  // namespace natle::bm

int main(int argc, char** argv) {
  using namespace natle::bm;
  // Peak RSS depends on where address-space randomization puts the heap and
  // mappings: the suite's peak moved by 4% between identical runs. Re-exec
  // once with a fixed layout, which every child inherits; if the host
  // refuses, carry on randomized.
  const int persona = ::personality(0xffffffff);
  if (persona != -1 && (persona & ADDR_NO_RANDOMIZE) == 0 &&
      ::personality(static_cast<unsigned long>(persona) | ADDR_NO_RANDOMIZE) !=
          -1) {
    ::execv("/proc/self/exe", argv);
  }
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    if (a == "--help" || a == "-h") {
      usage(stdout);
      return 0;
    }
    if (i + 1 >= argc) {
      std::fprintf(stderr, "natle-bm: %s needs a value\n", a.c_str());
      usage(stderr);
      return 2;
    }
    const char* v = argv[++i];
    long n = 0;
    bool ok = true;
    if (a == "--seed") {
      ok = parseInt(v, 0, 1L << 62, &n);
      opt.seed = static_cast<uint64_t>(n);
    } else if (a == "--reps") {
      ok = parseInt(v, 1, 100, &n);
      opt.reps = static_cast<int>(n);
    } else if (a == "--seconds") {
      ok = parseInt(v, 1, 3600, &n);
      opt.seconds = static_cast<int>(n);
    } else if (a == "--trace") {
      ok = parseInt(v, 0, 1, &n);
      opt.trace = static_cast<int>(n);
    } else if (a == "--workload") {
      opt.workload = v;
      ok = findWorkload(v) != nullptr;
    } else if (a == "--out") {
      opt.out = v;
    } else if (a == "--natle-bench") {
      opt.natle_bench = v;
    } else if (a == "--git-sha") {
      opt.git_sha = v;
    } else {
      std::fprintf(stderr, "natle-bm: unknown argument %s\n", a.c_str());
      usage(stderr);
      return 2;
    }
    if (!ok) {
      std::fprintf(stderr, "natle-bm: invalid %s value \"%s\"\n", a.c_str(), v);
      usage(stderr);
      return 2;
    }
  }
  if ((opt.trace >= 0) != (opt.seconds > 0) ||
      (opt.trace >= 0 && opt.workload.empty())) {
    std::fprintf(stderr,
                 "natle-bm: --trace, --seconds and --workload go together\n");
    return 2;
  }
  Bench d(opt);
  if (opt.trace >= 0) return d.singleRunMode(*findWorkload(opt.workload));
  return d.reportMode();
}
