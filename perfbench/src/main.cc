// grs_perfbench: one run of one benchmark workload, ending in one JSON line.
//
//   grs_perfbench --workload paper_serial|study_cold|study_warm --seed N
//                 --seconds S --trace 0|1 --root REPO --work DIR
//
// --trace 0 times the workload with every observer and profiler pointer null
// and prints the end-to-end metrics. --trace 1 runs the same fixed work once
// untraced and twice traced (bench-side spans around each layer's public
// calls, plus prof::HostProfiler inside simulate()), checks that the exact
// counts repeat, and prints the per-layer metrics. Progress and a readable
// metric table go to stderr; stdout carries only the result line.
#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cache/key.h"
#include "cache/result_cache.h"
#include "common/config.h"
#include "expect.h"
#include "gpu/simulator.h"
#include "prof/prof.h"
#include "runner/engine.h"
#include "runner/registry.h"
#include "runner/sink.h"
#include "study/aggregate.h"
#include "study/plan.h"
#include "study/report.h"
#include "workloads/format/gkd.h"
#include "workloads/gen/generator.h"
#include "workloads/suites.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using grs::prof::Phase;

// --- clocks and statistics --------------------------------------------------

double clock_seconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}
double wall_now() { return clock_seconds(CLOCK_MONOTONIC); }
double process_cpu() { return clock_seconds(CLOCK_PROCESS_CPUTIME_ID); }
double thread_cpu() { return clock_seconds(CLOCK_THREAD_CPUTIME_ID); }

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double mean(const std::vector<double>& v) {
  double s = 0;
  for (double x : v) s += x;
  return v.empty() ? 0.0 : s / static_cast<double>(v.size());
}

/// High-water resident set of this process image, from VmHWM. getrusage's
/// ru_maxrss is no use here: it carries over the launching process's peak
/// across fork and exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stod(line.substr(6)) / 1024.0;  // kB
  }
  throw std::runtime_error("no VmHWM in /proc/self/status");
}

// --- files ------------------------------------------------------------------

std::string read_file(const std::string& path) {
  std::ifstream f(path, std::ios::binary);
  if (!f) throw std::runtime_error("cannot read " + path);
  std::ostringstream s;
  s << f.rdbuf();
  return s.str();
}

void write_file(const std::string& path, const std::string& body) {
  std::ofstream f(path, std::ios::binary | std::ios::trunc);
  f << body;
  if (!f) throw std::runtime_error("cannot write " + path);
}

FileSet read_dir(const std::string& dir) {
  FileSet files;
  for (const auto& entry : fs::directory_iterator(dir)) {
    if (entry.is_regular_file())
      files[entry.path().filename().string()] = read_file(entry.path().string());
  }
  return files;
}

// --- what a pass reports ----------------------------------------------------

/// Bench-side spans and counts of one traced pass.
struct Trace {
  grs::prof::HostProfiler prof;
  double simulate_cpu_s = 0;  ///< thread CPU around direct simulate() calls
  double sweep_s = 0, busy_ms = 0, point_max_ms = 0, sink_s = 0;
  double key_s = 0, aggregate_s = 0, report_s = 0;
  unsigned workers = 1;
  grs::cache::CacheStats cache;
};

struct Pass {
  double wall = 0;  ///< wall seconds of the fixed work
  double cpu = 0;   ///< process CPU seconds of the fixed work
  std::uint64_t warp_instructions = 0;  ///< in the results the pass delivers
  std::uint64_t points = 0;
};

/// Modelled totals over one copy of the workload's points.
Counts modelled_counts(const std::vector<grs::SimResult>& results) {
  Counts c;
  for (const char* name :
       {"gpu.sim_cycles", "sm.stall_cycles", "sm.idle_cycles", "core.resident_blocks",
        "core.lock_wait_cycles", "memory.l1_misses", "memory.l2_misses", "memory.dram_requests"})
    c[name] = 0;
  for (const grs::SimResult& r : results) {
    c["gpu.sim_cycles"] += r.stats.cycles;
    c["sm.stall_cycles"] += r.stats.sm_total.stall_cycles;
    c["sm.idle_cycles"] += r.stats.sm_total.idle_cycles;
    c["core.resident_blocks"] += r.occupancy.total_blocks;
    c["core.lock_wait_cycles"] += r.stats.sm_total.lock_wait_cycles;
    c["memory.l1_misses"] += r.stats.sm_total.l1_misses;
    c["memory.l2_misses"] += r.stats.l2_misses;
    c["memory.dram_requests"] += r.stats.dram_requests;
  }
  return c;
}

/// |mean % IPC gain of `shared` over `base` − paper|, over matching pairs.
double gain_error(const std::vector<std::pair<double, double>>& base_shared, double paper) {
  if (base_shared.empty()) throw std::runtime_error("no kernels for a sharing-gain figure");
  double sum = 0;
  for (const auto& [base, shared] : base_shared) sum += 100.0 * (shared - base) / base;
  return std::abs(sum / static_cast<double>(base_shared.size()) - paper);
}

constexpr double kPaperRegisterGain = 11.0;    // §VI: Set-1, Shared-OWF-Unroll-Dyn
constexpr double kPaperScratchpadGain = 12.5;  // §VI: Set-2, Shared-OWF

// --- workloads ----------------------------------------------------------------

class Workload {
 public:
  virtual ~Workload() = default;
  /// Repeatable set-up (building every kernel and the point list).
  virtual void setup() = 0;
  /// Set-up that runs once after the repeated part (store filling).
  virtual void setup_once() {}
  /// Set-ups per timed block: enough that one block lasts about 0.1 s.
  [[nodiscard]] virtual int setup_batch() const = 0;
  /// The kernel builders' public calls alone (a traced-run span).
  virtual void build_kernels() = 0;
  /// Expected values and keys, worked out after set-up and outside its time.
  virtual void prepare_checks() = 0;
  /// The run's fixed work once; `trace` is null in timed runs.
  virtual Pass pass(Trace* trace) = 0;
  /// One copy of the workload's results, in point order, from the last pass.
  [[nodiscard]] virtual const std::vector<grs::SimResult>& results() const = 0;
  [[nodiscard]] virtual double reg_gain_err() const = 0;
  [[nodiscard]] virtual double smem_gain_err() const = 0;

  std::vector<std::string> errors;  ///< failed output checks

 protected:
  void fail(const std::string& what) {
    if (errors.size() < 20) errors.push_back(what);
  }
};

struct PaperPoint {
  std::string label;
  grs::GpuConfig config;
  const grs::KernelInfo* kernel = nullptr;
  PointExpectation expect;
};

/// Fig. 8 at t = 0.1: Set-1 × {Unshared-LRR, Shared-OWF-Unroll-Dyn} and
/// Set-2 × {Unshared-LRR, Shared-OWF}, simulated one point after another.
class PaperSerial final : public Workload {
 public:
  void setup() override {
    set1_ = grs::workloads::set1();
    set2_ = grs::workloads::set2();
    points_.clear();
    const grs::GpuConfig base = grs::configs::unshared();
    const grs::GpuConfig reg =
        grs::configs::shared_owf_unroll_dyn(grs::Resource::kRegisters, 0.1);
    const grs::GpuConfig smem = grs::configs::shared_owf(grs::Resource::kScratchpad, 0.1);
    for (const grs::KernelInfo& k : set1_) {
      points_.push_back({"base", base, &k, {}});
      points_.push_back({"shared", reg, &k, {}});
    }
    for (const grs::KernelInfo& k : set2_) {
      points_.push_back({"base", base, &k, {}});
      points_.push_back({"shared", smem, &k, {}});
    }
  }
  int setup_batch() const override { return 4000; }

  void build_kernels() override {
    const auto a = grs::workloads::set1();
    const auto b = grs::workloads::set2();
    if (a.size() != set1_.size() || b.size() != set2_.size()) fail("kernel builders disagree");
  }

  void prepare_checks() override {
    for (PaperPoint& p : points_) p.expect = expect_point(p.config, *p.kernel);
  }

  Pass pass(Trace* trace) override {
    std::vector<grs::SimResult> got(points_.size());
    Pass out;
    const double w0 = wall_now();
    const double c0 = process_cpu();
    for (std::size_t i = 0; i < points_.size(); ++i) {
      const PaperPoint& p = points_[i];
      if (trace != nullptr) {
        const double t0 = thread_cpu();
        got[i] = grs::simulate(p.config, *p.kernel, nullptr, &trace->prof);
        trace->simulate_cpu_s += thread_cpu() - t0;
      } else {
        got[i] = grs::simulate(p.config, *p.kernel);
      }
    }
    out.wall = wall_now() - w0;
    out.cpu = process_cpu() - c0;
    out.points = points_.size();
    for (std::size_t i = 0; i < got.size(); ++i) {
      out.warp_instructions += got[i].stats.sm_total.warp_instructions;
      const std::string bad = check_point(points_[i].expect, got[i]);
      if (!bad.empty()) fail(points_[i].kernel->name + " " + points_[i].label + ": " + bad);
    }
    if (first_.empty()) {
      first_ = got;
    } else if (const std::string bad = check_same_results(got, first_); !bad.empty()) {
      fail("repeat pass: " + bad);
    }
    last_ = std::move(got);
    return out;
  }

  const std::vector<grs::SimResult>& results() const override { return last_; }

  double reg_gain_err() const override { return gain(0, set1_.size(), kPaperRegisterGain); }
  double smem_gain_err() const override {
    return gain(2 * set1_.size(), set2_.size(), kPaperScratchpadGain);
  }

 private:
  /// Points come in (base, shared) pairs starting at `first`.
  double gain(std::size_t first, std::size_t kernels, double paper) const {
    std::vector<std::pair<double, double>> pairs;
    for (std::size_t k = 0; k < kernels; ++k) {
      pairs.emplace_back(first_.at(first + 2 * k).stats.ipc(),
                         first_.at(first + 2 * k + 1).stats.ipc());
    }
    return gain_error(pairs, paper);
  }

  std::vector<grs::KernelInfo> set1_, set2_;
  std::vector<PaperPoint> points_;
  std::vector<grs::SimResult> first_, last_;
};

/// The sharing-study grid through runner::run_sweep with a result cache,
/// followed by the aggregate, the reports and the CSV/JSON sinks.
class Study : public Workload {
 public:
  Study(std::uint64_t seed, std::string root, std::string work, unsigned workers)
      : work_(std::move(work)), workers_(workers), root_(std::move(root)) {
    grid_ = grs::study::default_grid();
    grid_.seed = seed;
  }

  void setup() override {
    plan_ = grs::study::build_plan(grid_, corpus_dir());
    spec_ = grs::study::to_sweep_spec(plan_);
  }
  int setup_batch() const override { return 50; }

  void build_kernels() override {
    std::size_t cells = 0, files = 0;
    for (const grs::study::StudyCell& c : plan_.cells) {
      const grs::KernelInfo k =
          grs::workloads::gen::generate(grs::workloads::gen::study_profile(c.axes), grid_.seed);
      cells += k.name == c.kernel.name ? 1 : 0;
    }
    for (const std::string& path : corpus_files_) {
      const grs::KernelInfo k = grs::workloads::gkd::load_file(path);
      files += k.grid_blocks > 0 ? 1 : 0;
    }
    if (cells != plan_.cells.size() || files != corpus_files_.size())
      fail("kernel builders disagree with the plan");
  }

  void prepare_checks() override {
    for (const auto& entry : fs::directory_iterator(corpus_dir())) {
      if (entry.path().extension() == ".gkd") corpus_files_.push_back(entry.path().string());
    }
    std::sort(corpus_files_.begin(), corpus_files_.end());
    if (plan_.corpus.size() != corpus_files_.size())
      fail("plan loaded " + std::to_string(plan_.corpus.size()) + " of " +
           std::to_string(corpus_files_.size()) + " corpus files");
    expect_.clear();
    std::set<std::string> keys;
    for (const grs::runner::SweepPoint& p : spec_.points) {
      expect_.push_back(expect_point(p.config, p.kernel));
      keys.insert(grs::cache::result_cache_key(p.config, p.kernel));
    }
    distinct_keys_ = keys.size();
    if (grid_.seed == 1) docs_ = read_dir(root_ + "/docs/study");
  }

  const std::vector<grs::SimResult>& results() const override { return last_results_; }

  double reg_gain_err() const override {
    return corpus_gain(grs::Resource::kRegisters, kPaperRegisterGain);
  }
  double smem_gain_err() const override {
    return corpus_gain(grs::Resource::kScratchpad, kPaperScratchpadGain);
  }

 protected:
  struct Outputs {
    std::vector<grs::runner::SweepRow> rows;
    grs::cache::CacheStats cache;
    FileSet files;  ///< reports plus the sink outputs
  };

  /// One sweep through the store in `mode` on `threads` workers, then
  /// aggregate, reports, sinks. Adds the wall and CPU seconds of that work to
  /// `out`.
  Outputs sweep(const std::string& store, grs::cache::CacheMode mode, unsigned threads,
                Trace* trace, Pass& out) {
    Outputs o;
    grs::runner::RunOptions opts;
    opts.threads = threads;
    opts.cache_dir = store;
    opts.cache_mode = mode;
    opts.cache_stats = &o.cache;
    if (trace != nullptr) {
      opts.prof = &trace->prof;
      std::size_t key_digits = 0;
      const double k0 = wall_now();
      for (const grs::runner::SweepPoint& p : spec_.points)
        key_digits += grs::cache::result_cache_key(p.config, p.kernel).size();
      trace->key_s += wall_now() - k0;
      if (key_digits != 64 * spec_.points.size()) fail("a result-cache key is not 64 hex digits");
    }
    const std::string reports = work_ + "/reports";
    const double w0 = wall_now();
    const double c0 = process_cpu();
    o.rows = grs::runner::run_sweep(spec_, opts);
    const double w1 = wall_now();
    const grs::study::StudyAggregation agg =
        grs::study::aggregate(plan_, grs::runner::BenchView(o.rows));
    const double w2 = wall_now();
    const std::vector<std::string> names = grs::study::write_reports(agg, reports);
    const double w3 = wall_now();
    std::ostringstream csv, json;
    grs::runner::CsvSink csv_sink(csv);
    grs::runner::JsonSink json_sink(json);
    csv_sink.begin();
    json_sink.begin();
    for (const grs::runner::SweepRow& row : o.rows) {
      csv_sink.add("study", row);
      json_sink.add("study", row);
    }
    csv_sink.end();
    json_sink.end();
    write_file(work_ + "/rows.csv", csv.str());
    write_file(work_ + "/rows.json", json.str());
    const double w4 = wall_now();
    out.wall += w4 - w0;
    out.cpu += process_cpu() - c0;
    out.points += o.rows.size();

    if (trace != nullptr) {
      trace->sweep_s += w1 - w0;
      trace->aggregate_s += w2 - w1;
      trace->report_s += w3 - w2;
      trace->sink_s += w4 - w3;
      trace->workers = std::min<unsigned>(threads, static_cast<unsigned>(o.rows.size()));
      for (const grs::runner::SweepRow& row : o.rows) {
        trace->busy_ms += row.wall_ms;
        trace->point_max_ms = std::max(trace->point_max_ms, row.wall_ms);
      }
      trace->cache += o.cache;
    }

    std::vector<grs::SimResult> results;
    results.reserve(o.rows.size());
    for (std::size_t i = 0; i < o.rows.size(); ++i) {
      out.warp_instructions += o.rows[i].result.stats.sm_total.warp_instructions;
      const std::string bad = check_point(expect_.at(i), o.rows[i].result);
      if (!bad.empty())
        fail(o.rows[i].point.kernel.name + " " + o.rows[i].point.variant + ": " + bad);
      results.push_back(o.rows[i].result);
    }
    for (const std::string& name : names) o.files[name] = read_file(reports + "/" + name);
    o.files["rows.csv"] = csv.str();
    o.files["rows.json"] = json.str();
    if (first_results_.empty()) {
      first_results_ = results;
      first_files_ = o.files;
      first_rows_ = o.rows;
      if (!docs_.empty()) {
        FileSet reports_only = o.files;
        reports_only.erase("rows.csv");
        reports_only.erase("rows.json");
        if (const std::string bad = check_same_files(reports_only, docs_); !bad.empty())
          fail("docs/study at seed 1: " + bad);
      }
    } else {
      if (const std::string bad = check_same_results(results, first_results_); !bad.empty())
        fail("results: " + bad);
      if (const std::string bad = check_same_files(o.files, first_files_); !bad.empty())
        fail("outputs: " + bad);
    }
    last_results_ = std::move(results);
    return o;
  }

  std::string corpus_dir() const { return root_ + "/examples/kernels"; }

  std::size_t points() const { return spec_.points.size(); }
  std::size_t distinct_keys() const { return distinct_keys_; }

  std::string work_;
  unsigned workers_;  ///< min(4, nproc): the pool size of cold sweeps

 private:
  /// The seed-independent part of the grid: corpus kernels bound by the
  /// family's resource, at 90% sharing (t = 0.1) against the family's 0%.
  double corpus_gain(grs::Resource resource, double paper) const {
    const grs::runner::BenchView view(first_rows_);
    const std::string base = grs::study::variant_label(resource, 0);
    const std::string shared = grs::study::variant_label(resource, 90);
    std::vector<std::pair<double, double>> pairs;
    for (const grs::KernelInfo& k : plan_.corpus) {
      const BlockPlan b = expected_blocks(kTableI, k.resources, false, resource, 0);
      if (resource == grs::Resource::kRegisters ? !b.register_limited : !b.scratchpad_limited)
        continue;
      const grs::SimResult* r0 = view.find(base, k.name);
      const grs::SimResult* r1 = view.find(shared, k.name);
      if (r0 != nullptr && r1 != nullptr) pairs.emplace_back(r0->stats.ipc(), r1->stats.ipc());
    }
    return gain_error(pairs, paper);
  }

  std::string root_;
  grs::study::StudyGrid grid_;
  grs::study::StudyPlan plan_;
  grs::runner::SweepSpec spec_;
  std::vector<std::string> corpus_files_;
  std::vector<PointExpectation> expect_;
  std::size_t distinct_keys_ = 0;
  FileSet docs_;
  FileSet first_files_;
  std::vector<grs::runner::SweepRow> first_rows_;
  std::vector<grs::SimResult> first_results_, last_results_;
};

/// Every pass simulates the whole grid into an empty store.
class StudyCold final : public Study {
 public:
  using Study::Study;

  Pass pass(Trace* trace) override {
    const std::string store = work_ + "/cold-store";
    fs::remove_all(store);
    Pass out;
    const Outputs o = sweep(store, grs::cache::CacheMode::kReadWrite, workers_, trace, out);
    if (const std::string bad = check_cold_stores(o.cache, distinct_keys(), points());
        !bad.empty())
      fail(bad);
    fs::remove_all(store);
    return out;
  }
};

/// The grid served from a store filled during set-up; one pass is a round of
/// kSweepsPerPass sweeps, so that the timed unit lasts seconds. The fill uses
/// the pool; the timed sweeps run on one worker, because a warm point costs
/// tens of microseconds and on a shared 4-vCPU host a 4-worker round's wall
/// time follows vCPU availability more than the read path (run-to-run spread
/// 0.24 against 0.12 on one worker).
class StudyWarm final : public Study {
 public:
  using Study::Study;
  static constexpr int kSweepsPerPass = 40;

  void setup_once() override {
    store_ = work_ + "/warm-store";
    fs::remove_all(store_);
    Pass ignored;
    const Outputs o = sweep(store_, grs::cache::CacheMode::kReadWrite, workers_, nullptr, ignored);
    if (const std::string bad = check_cold_stores(o.cache, distinct_keys(), points());
        !bad.empty())
      fail("fill: " + bad);
  }

  Pass pass(Trace* trace) override {
    Pass out;
    for (int i = 0; i < kSweepsPerPass; ++i) {
      const Outputs o = sweep(store_, grs::cache::CacheMode::kRead, 1, trace, out);
      if (const std::string bad = check_warm_lookups(o.cache, points()); !bad.empty()) fail(bad);
    }
    return out;
  }

 private:
  std::string store_;
};

// --- the run ------------------------------------------------------------------

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string root = ".";
  std::string work;
};

[[noreturn]] void usage(const std::string& why) {
  std::fprintf(stderr,
               "grs_perfbench: %s\nusage: grs_perfbench --workload "
               "paper_serial|study_cold|study_warm --seed N --seconds S --trace 0|1 "
               "--root REPO --work DIR\n",
               why.c_str());
  std::exit(2);
}

std::uint64_t parse_u64(const std::string& flag, const std::string& v) {
  if (v.empty() || v.find_first_not_of("0123456789") != std::string::npos || v.size() > 18)
    usage("bad value for " + flag + ": '" + v + "'");
  return std::stoull(v);
}

Args parse_args(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string v = argv[++i];
    if (flag == "--workload") {
      a.workload = v;
    } else if (flag == "--seed") {
      a.seed = parse_u64(flag, v);
    } else if (flag == "--seconds") {
      a.seconds = static_cast<double>(parse_u64(flag, v));
    } else if (flag == "--trace") {
      if (v != "0" && v != "1") usage("--trace takes 0 or 1");
      a.trace = v == "1";
    } else if (flag == "--root") {
      a.root = v;
    } else if (flag == "--work") {
      a.work = v;
    } else {
      usage("unknown flag " + flag);
    }
  }
  if (a.work.empty()) usage("--work is required");
  if (a.seconds < 1) usage("--seconds must be at least 1");
  return a;
}

struct Metric {
  std::string name, unit;
  double value;
};

struct Result {
  bool correct = true;
  std::uint64_t attempted = 0, failed = 0;
  std::vector<Metric> metrics;
};

constexpr int kSetupBlocks = 9;

/// Median seconds of one call of `fn`, over kSetupBlocks blocks of `batch`
/// calls each: a single set-up lasts microseconds to milliseconds, too short
/// to time on its own.
template <typename Fn>
double per_call_median(int batch, Fn fn) {
  std::vector<double> blocks;
  for (int b = 0; b < kSetupBlocks; ++b) {
    const double t0 = wall_now();
    for (int i = 0; i < batch; ++i) fn();
    blocks.push_back((wall_now() - t0) / batch);
  }
  return median(blocks);
}

/// The repeatable set-up (median per set-up) plus the once-only part, in
/// seconds. `builders_s`, when non-null, receives the per-set-up time of the
/// kernel builders' own calls.
double run_setup(Workload& w, double* builders_s) {
  const double repeated = per_call_median(w.setup_batch(), [&] { w.setup(); });
  w.prepare_checks();
  if (builders_s != nullptr)
    *builders_s = per_call_median(w.setup_batch(), [&] { w.build_kernels(); });
  const double t0 = wall_now();
  w.setup_once();
  return repeated + (wall_now() - t0);
}

Result timed_run(Workload& w, const Args& a) {
  Result res;
  const double setup_s = run_setup(w, nullptr);
  std::vector<double> walls, rates;
  const double start = wall_now();
  do {
    const Pass p = w.pass(nullptr);
    walls.push_back(p.wall);
    rates.push_back(static_cast<double>(p.warp_instructions) / p.cpu);
    res.attempted += p.points;
    std::fprintf(stderr,
                 "[perfbench] %s pass %zu: %.3f s wall, %.3f s CPU, %" PRIu64
                 " points, %" PRIu64 " warp instructions\n",
                 a.workload.c_str(), walls.size(), p.wall, p.cpu, p.points, p.warp_instructions);
  } while (wall_now() - start < a.seconds);
  res.metrics = {
      {"setup_s", "s", setup_s},
      {"wall_s", "s", median(walls)},
      {"sim_winst_per_s", "warp-instr/s", median(rates)},
      {"peak_rss_mb", "MB", peak_rss_mb()},
      {"reg_gain_err_pp", "pp", w.reg_gain_err()},
      {"smem_gain_err_pp", "pp", w.smem_gain_err()},
  };
  return res;
}

/// Exact counts of one traced pass: modelled totals plus host-side counts.
Counts exact_counts(const Trace& t, const Counts& modelled) {
  Counts c = modelled;
  c["sm.steps"] = t.prof.calls(Phase::kSchedulerScan);
  c["sm.event_sleep_calls"] = t.prof.calls(Phase::kEventSleep);
  c["cache.bytes_read"] = t.cache.bytes_read;
  c["cache.bytes_written"] = t.cache.bytes_written;
  return c;
}

Result traced_run(Workload& w, const Args& a) {
  Result res;
  double builders = 0;
  run_setup(w, &builders);
  const Pass plain = w.pass(nullptr);
  res.attempted += plain.points;
  std::fprintf(stderr, "[perfbench] %s untraced pass: %.3f s wall\n", a.workload.c_str(),
               plain.wall);

  std::vector<std::unique_ptr<Trace>> traces;
  std::vector<Counts> counts;
  std::vector<double> walls;
  for (int i = 0; i < 2; ++i) {
    traces.push_back(std::make_unique<Trace>());
    const Pass p = w.pass(traces.back().get());
    res.attempted += p.points;
    walls.push_back(p.wall);
    counts.push_back(exact_counts(*traces.back(), modelled_counts(w.results())));
    std::fprintf(stderr, "[perfbench] %s traced pass %d: %.3f s wall\n", a.workload.c_str(),
                 i + 1, p.wall);
  }
  if (const std::string bad = check_same_counts(counts[0], counts[1]); !bad.empty())
    w.errors.push_back("traced passes disagree: " + bad);

  // Times: mean of the two traced passes. Counts: exact, from the first.
  auto avg = [&](auto get) { return 0.5 * (get(*traces[0]) + get(*traces[1])); };
  auto self = [&](Phase ph) {
    return avg([ph](const Trace& t) { return t.prof.self_seconds(ph); });
  };
  auto total = [&](Phase ph) {
    return avg([ph](const Trace& t) { return t.prof.total_seconds(ph); });
  };
  const double simulate_s = avg([](const Trace& t) {
    return t.simulate_cpu_s > 0 ? t.simulate_cpu_s : t.prof.total_seconds(Phase::kSimulate);
  });
  const double pool_busy = avg([](const Trace& t) {
    return t.sweep_s > 0 ? t.busy_ms / 1000.0 / (t.workers * t.sweep_s) : 0.0;
  });
  const Counts& c = counts[0];
  auto count = [&](const char* name) { return static_cast<double>(c.at(name)); };
  res.metrics = {
      {"workloads.build_s", "s", builders},
      {"gpu.simulate_s", "s", simulate_s},
      {"gpu.loop_self_s", "s", self(Phase::kSimulate)},
      {"gpu.sim_cycles", "cycles", count("gpu.sim_cycles")},
      {"sm.scan_self_s", "s", self(Phase::kSchedulerScan)},
      {"sm.issue_self_s", "s", self(Phase::kIssue)},
      {"sm.writeback_self_s", "s", self(Phase::kExecute)},
      {"sm.event_sleep_self_s", "s", self(Phase::kEventSleep)},
      {"sm.steps", "count", count("sm.steps")},
      {"sm.event_sleep_calls", "count", count("sm.event_sleep_calls")},
      {"sm.stall_cycles", "sched-cycles", count("sm.stall_cycles")},
      {"sm.idle_cycles", "sched-cycles", count("sm.idle_cycles")},
      {"core.resident_blocks", "blocks", count("core.resident_blocks")},
      {"core.lock_wait_cycles", "warp-cycles", count("core.lock_wait_cycles")},
      {"memory.l2_self_s", "s", self(Phase::kMemsys)},
      {"memory.dram_self_s", "s", self(Phase::kDram)},
      {"memory.l1_misses", "count", count("memory.l1_misses")},
      {"memory.l2_misses", "count", count("memory.l2_misses")},
      {"memory.dram_requests", "count", count("memory.dram_requests")},
      {"runner.sweep_s", "s", avg([](const Trace& t) { return t.sweep_s; })},
      {"runner.pool_busy", "ratio", pool_busy},
      {"runner.point_max_ms", "ms", avg([](const Trace& t) { return t.point_max_ms; })},
      {"runner.sink_s", "s", avg([](const Trace& t) { return t.sink_s; })},
      {"cache.key_s", "s", avg([](const Trace& t) { return t.key_s; })},
      {"cache.lookup_s", "s", total(Phase::kCacheLookup)},
      {"cache.bytes_read", "bytes", count("cache.bytes_read")},
      {"cache.store_s", "s", total(Phase::kCacheStore)},
      {"cache.bytes_written", "bytes", count("cache.bytes_written")},
      {"study.aggregate_s", "s", avg([](const Trace& t) { return t.aggregate_s; })},
      {"study.report_s", "s", avg([](const Trace& t) { return t.report_s; })},
      {"trace.overhead_ratio", "ratio", mean(walls) / plain.wall},
  };
  return res;
}

void print_result(const Result& r) {
  for (const Metric& m : r.metrics)
    std::fprintf(stderr, "  %-24s %20.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  std::string line = std::string("{\"correct\": ") + (r.correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(r.attempted) +
                     ", \"failed\": " + std::to_string(r.failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < r.metrics.size(); ++i) {
    char value[64];
    std::snprintf(value, sizeof(value), "%.17g", r.metrics[i].value);
    line += (i == 0 ? "" : ", ") + std::string("\"") + r.metrics[i].name + "\": {\"value\": " +
            value + ", \"unit\": \"" + r.metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

int run(int argc, char** argv) {
  const Args a = parse_args(argc, argv);
  fs::create_directories(a.work);
  const unsigned workers = std::min(4u, std::max(1u, std::thread::hardware_concurrency()));
  std::unique_ptr<Workload> w;
  if (a.workload == "paper_serial") {
    w = std::make_unique<PaperSerial>();
  } else if (a.workload == "study_cold") {
    w = std::make_unique<StudyCold>(a.seed, a.root, a.work, workers);
  } else if (a.workload == "study_warm") {
    w = std::make_unique<StudyWarm>(a.seed, a.root, a.work, workers);
  } else {
    usage("unknown workload '" + a.workload + "'");
  }
  Result r = a.trace ? traced_run(*w, a) : timed_run(*w, a);
  for (const std::string& e : w->errors)
    std::fprintf(stderr, "[perfbench] CHECK FAILED: %s\n", e.c_str());
  r.correct = w->errors.empty();
  print_result(r);
  return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  try {
    return perfbench::run(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "grs_perfbench: %s\n", e.what());
    return 1;
  }
}
