// Shared vocabulary of the perfbench driver: the span tracer, the sample
// sink, the correctness gate, and the entry points of the workloads and the
// per-layer probes.  The driver is a client of the sdsm public headers only;
// every timing here is taken from outside a library call.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "src/api/backend.hpp"
#include "src/apps/moldyn/moldyn_common.hpp"
#include "src/common/timer.hpp"

namespace perfbench {

using sdsm::Timer;

/// Nodes per DSM/CHAOS job.  A node is a compute thread plus a service
/// thread, so two nodes fill a 4-vCPU host without oversubscribing it.
inline constexpr std::uint32_t kNodes = 2;

/// The four parallel backends, in the order every workload runs them.
inline constexpr sdsm::api::Backend kBackends[] = {
    sdsm::api::Backend::kChaos, sdsm::api::Backend::kTmkBase,
    sdsm::api::Backend::kTmkOptimized, sdsm::api::Backend::kHybrid};

/// Metric-name suffix of a backend: chaos | tmk_base | tmk_opt | hybrid.
const char* backend_key(sdsm::api::Backend b);

/// Records spans (name, start, end, parent, run id) in memory while
/// enabled and writes them as Chrome trace-event JSON.  A span's layer is
/// the part of its name before the first '.'.  Single-threaded: spans are
/// opened only on the driver's client thread.
class Tracer {
 public:
  class Scope {
   public:
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    ~Scope();

   private:
    friend class Tracer;
    Scope(Tracer* tracer, int index) : tracer_(tracer), index_(index) {}
    Tracer* tracer_;
    int index_;
  };

  void enable(bool on) { enabled_ = on; }
  /// Spans opened from now on carry this run id.
  void set_run(int run) { run_ = run; }

  /// Opens a span closed when the returned scope ends; a no-op while
  /// disabled.
  [[nodiscard]] Scope span(const std::string& name);

  /// Writes every closed span as Chrome trace-event JSON ("X" events, in
  /// microseconds; args carry id, parent and run).
  bool write_chrome_json(const std::string& path) const;

 private:
  struct Span {
    std::string name;
    double start_us = 0;
    double end_us = -1;
    int parent = -1;
    int run = 0;
  };
  double now_us() const { return origin_.elapsed_us(); }

  bool enabled_ = false;
  int run_ = 0;
  Timer origin_;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// Named measurements of one benchmark process.  `samples` lists are
/// reduced by run.py (median, or a percentile for job_ms); a name of the
/// form "metric@class" is one class of a metric reduced as the geometric
/// mean of its class medians.  `exact` holds counts that must repeat
/// exactly on every repetition.
struct Sink {
  std::map<std::string, std::vector<double>> samples;
  std::map<std::string, double> exact;

  void add(const std::string& name, double v) { samples[name].push_back(v); }
};

/// The correctness gate.  Every checked operation (a kernel run, a serve
/// job, a proc job, a probe) is attempted once and failed when any of its
/// checks failed.
class Gate {
 public:
  /// Starts an operation; problems accumulate until finish().
  void begin(std::string what) {
    what_ = std::move(what);
    problems_.clear();
  }
  void expect(bool ok, const std::string& problem) {
    if (!ok) problems_.push_back(problem);
  }
  /// Checks `value` against the first value recorded under `key` (exact
  /// equality: checksums that must be bit-exact, traffic that must repeat).
  void same(const std::string& key, double value);
  void finish();

  std::uint64_t attempted() const { return attempted_; }
  std::uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }

 private:
  std::string what_;
  std::vector<std::string> problems_;
  std::map<std::string, double> first_;
  std::uint64_t attempted_ = 0;
  std::uint64_t failed_ = 0;
  std::vector<std::string> failures_;  ///< first few, for the report
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string work_dir;  ///< scratch space for proc logs (inside the checkout)
};

/// Everything one workload run produces.  In a traced run `sink` holds the
/// untraced half of the window and `traced` the traced half.
struct Context {
  const Args& args;
  Tracer& tracer;
  Gate& gate;
  Sink& sink;    ///< end-to-end samples (untraced window) + set-up
  Sink& traced;  ///< end-to-end samples of the traced window
  Sink& layer;   ///< per-layer samples and counts
};

/// A 64-bit seed for one input stream of the workload, never zero (the
/// apps read a zero seed as "use the default").
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream);

/// Runs `round` repeatedly until the next round would end past `seconds`
/// (estimated from the last round), always at least once.
template <typename F>
void run_rounds(double seconds, F&& round) {
  const Timer window;
  double last = 0;
  do {
    const Timer t;
    round();
    last = t.elapsed_s();
  } while (window.elapsed_s() + last <= seconds);
}

// --- Workloads (workloads.cpp) ---------------------------------------------

bool known_workload(const std::string& name);
/// True when the workload's own path covers the layer (the traced run then
/// skips that layer's stand-alone probe).
bool workload_covers(const std::string& workload, const std::string& layer);
void run_workload(Context& ctx);
/// moldyn-paper's input for `seed` (also the apps/partition probe's).
struct MoldynInput {
  sdsm::apps::moldyn::Params params;
  sdsm::apps::moldyn::System sys;
};
MoldynInput moldyn_paper_input(std::uint64_t seed);

// --- Per-layer probes (probes.cpp) -----------------------------------------

/// The layer probes every traced run adds: moldyn rebuild + RCB (apps,
/// partition), a local fault (vm), a remote fault (core), ping-pong RTTs
/// (net) and the serve codec; plus stand-alone serve and proc probes where
/// the workload itself does not exercise those layers.
void run_layer_probes(Context& ctx);

}  // namespace perfbench
