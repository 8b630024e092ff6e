// The four workloads.  Each one is a set-up pass (inputs, references,
// warm-up; repeated, and the median reported as setup_s) followed by a
// timed window of complete rounds.  Why each workload exists is in
// README.md; the shapes below are the README's, scaled so a round fits the
// window several times over.
#include <algorithm>
#include <cmath>
#include <memory>
#include <random>
#include <stdexcept>

#include "perfbench/bench.hpp"
#include "src/api/api.hpp"
#include "src/apps/moldyn/moldyn_kernel.hpp"
#include "src/apps/pagerank/pagerank.hpp"
#include "src/apps/spmv/spmv.hpp"
#include "src/proc/proc.hpp"
#include "src/serve/client.hpp"
#include "src/serve/server.hpp"
#include "src/serve/workloads.hpp"

namespace perfbench {
namespace {

using namespace sdsm;
using api::Backend;
using apps::checksum_close;

/// Set-up passes per process; setup_s is their median.
constexpr int kSetupPasses = 3;

// --- Shared helpers --------------------------------------------------------

struct ApiJob {
  api::KernelResult r;
  double wall_s = 0;
  double make_s = 0;
};

/// One job through the api layer, timed from outside: make_runtime, run,
/// teardown.
template <typename T>
ApiJob run_api(Tracer& tracer, Backend b, const api::KernelSpec<T>& spec,
               const api::BackendOptions& options) {
  auto job = tracer.span(std::string("api.job.") + backend_key(b));
  ApiJob out;
  const Timer wall;
  std::unique_ptr<api::IrregularRuntime> rt;
  {
    auto s = tracer.span("api.make_runtime");
    const Timer t;
    rt = api::make_runtime(b, kNodes, options);
    out.make_s = t.elapsed_s();
  }
  {
    auto s = tracer.span("api.run");
    out.r = rt->run(spec);
  }
  {
    auto s = tracer.span("api.teardown");
    rt.reset();
  }
  out.wall_s = wall.elapsed_s();
  return out;
}

double step_ms(const api::KernelResult& r) {
  return r.steps_run > 0 ? r.seconds * 1e3 / static_cast<double>(r.steps_run)
                         : 0;
}

/// The api and core per-layer figures of one job.  Only pairs a backend
/// can make non-zero are recorded: CHAOS has no page protocol, base
/// TreadMarks runs no Validate (no prefetch, Read_indices, list-scan
/// overhead or WRITE_ALL pages), and hybrid leaves the page-protocol
/// counters of its result at zero.
void record_layers(Sink& layer, Backend b, const ApiJob& j) {
  const std::string k = backend_key(b);
  const api::KernelResult& r = j.r;
  layer.add("api.make_runtime_ms." + k, j.make_s * 1e3);
  layer.add("api.untimed_s." + k, j.wall_s - r.seconds);
  if (b != Backend::kTmkBase) {
    layer.add("api.overhead_s." + k, r.overhead_seconds);
  }
  layer.add("api.barriers_per_step." + k, r.barriers_per_step);
  layer.add("api.rebuilds." + k, static_cast<double>(r.rebuilds));
  if (b != Backend::kTmkBase && b != Backend::kTmkOptimized) return;
  layer.add("core.diff_create_s." + k, r.diff_create_seconds);
  layer.add("core.diff_apply_s." + k, r.diff_apply_seconds);
  layer.add("core.read_faults." + k, static_cast<double>(r.tmk.read_faults));
  layer.add("core.twins_created." + k,
            static_cast<double>(r.tmk.twins_created));
  layer.add("core.diff_bytes." + k, static_cast<double>(r.tmk.diff_bytes));
  if (b == Backend::kTmkBase) return;
  layer.add("core.whole_pages." + k, static_cast<double>(r.tmk.whole_pages));
  layer.add("core.pages_prefetched." + k,
            static_cast<double>(r.tmk.pages_prefetched));
  layer.add("core.validate_recomputes." + k,
            static_cast<double>(r.tmk.validate_recomputes));
}

/// The correctness checks every kernel run gets: its checksum against the
/// run_seq reference (checksum_close), bit-exact against every other run of
/// the same job on any backend, traffic identical on every repetition, and
/// the full step count.
void check_kernel(Gate& gate, const std::string& job, Backend b,
                  const api::KernelResult& r, double seq_checksum,
                  std::int64_t steps) {
  const std::string k = backend_key(b);
  gate.begin(job + "/" + k);
  gate.expect(checksum_close(r.checksum, seq_checksum),
              "checksum differs from run_seq");
  gate.same(job + ":checksum", r.checksum);
  gate.same(job + ":messages:" + k, static_cast<double>(r.messages));
  gate.same(job + ":bytes:" + k, static_cast<double>(r.bytes));
  gate.expect(r.steps_run == steps, "steps_run differs from num_steps");
  gate.expect(r.messages > 0, "no messages on 2 nodes");
  gate.finish();
}

void record_traffic(Sink& sink, Backend b, std::uint64_t messages,
                    std::uint64_t bytes) {
  const std::string k = backend_key(b);
  sink.exact["messages." + k] = static_cast<double>(messages);
  sink.exact["megabytes." + k] = static_cast<double>(bytes) / 1e6;
}

/// One workload: a set-up pass that (re)builds all state the window needs,
/// and one round of the timed window.
class Workload {
 public:
  explicit Workload(Context& ctx) : ctx_(ctx) {}
  virtual ~Workload() = default;
  virtual void setup_pass() = 0;
  virtual void round(Sink& e2e) = 0;
  /// Checks deferred past the window (outside every timing).
  virtual void finish() {}

 protected:
  Context& ctx_;
};

// --- moldyn-paper / pagerank-powerlaw: the api kernel workloads -------------

/// Runs run_seq and the four backends on one kernel.  The spec and the
/// reference are rebuilt in every set-up pass; a round runs each backend
/// once.
template <typename T>
class KernelWorkload : public Workload {
 public:
  using Workload::Workload;

  void setup_pass() override {
    spec_.reset();
    {
      auto s = ctx_.tracer.span("apps.input");
      const Timer t;
      make_inputs();
      ctx_.layer.add("apps.input_s", t.elapsed_s());
    }
    {
      auto s = ctx_.tracer.span("apps.run_seq");
      seq_ = run_seq();
      ctx_.layer.add("apps.seq_step_ms", seq_.seconds * 1e3 / seq_steps());
    }
    // Warm-up: the first run in the process pays the region mmap and the
    // first-touch faults; it counts here, never in step_ms.
    for (const Backend b : kBackends) {
      const ApiJob j = run_api(ctx_.tracer, b, *spec_, options_);
      check_kernel(ctx_.gate, name(), b, j.r, seq_.checksum,
                   spec_->num_steps);
      record_traffic(ctx_.sink, b, j.r.messages, j.r.bytes);
    }
  }

  void round(Sink& e2e) override {
    for (const Backend b : kBackends) {
      const ApiJob j = run_api(ctx_.tracer, b, *spec_, options_);
      check_kernel(ctx_.gate, name(), b, j.r, seq_.checksum,
                   spec_->num_steps);
      e2e.add(std::string("step_ms.") + backend_key(b), step_ms(j.r));
      e2e.add("job_ms", j.wall_s * 1e3);
      record_layers(ctx_.layer, b, j);
    }
  }

 protected:
  virtual std::string name() const = 0;
  virtual void make_inputs() = 0;
  virtual apps::AppRunResult run_seq() = 0;
  virtual double seq_steps() const = 0;

  std::unique_ptr<api::KernelSpec<T>> spec_;
  api::BackendOptions options_;
  apps::AppRunResult seq_;
};

class MoldynPaper : public KernelWorkload<double3> {
 public:
  explicit MoldynPaper(Context& ctx) : KernelWorkload(ctx) {
    options_ = apps::moldyn::default_options();
  }

 private:
  std::string name() const override { return "moldyn-paper"; }
  void make_inputs() override {
    MoldynInput in = moldyn_paper_input(ctx_.args.seed);
    params_ = in.params;
    sys_ = std::move(in.sys);
    spec_ = std::make_unique<api::KernelSpec<double3>>(
        apps::moldyn::make_kernel(params_, sys_));
  }
  apps::AppRunResult run_seq() override {
    return apps::moldyn::run_seq(params_, sys_);
  }
  double seq_steps() const override { return params_.num_steps; }

  apps::moldyn::Params params_;
  apps::moldyn::System sys_;
};

/// pagerank on the preferential-attachment graph, 65536 vertices x 8
/// edges: static structure (built in the untimed warm-up step), light
/// per-edge compute, heavy degree skew.
class PagerankPowerlaw : public KernelWorkload<double> {
 public:
  explicit PagerankPowerlaw(Context& ctx) : KernelWorkload(ctx) {
    params_.num_vertices = 65536;
    params_.edges_per_vertex = 8;
    params_.num_steps = 30;
    params_.warmup_steps = 1;
    params_.seed = derive_seed(ctx.args.seed, 2);
    params_.nprocs = kNodes;
    options_ = apps::pagerank::default_options();
  }

 private:
  std::string name() const override { return "pagerank-powerlaw"; }
  void make_inputs() override {
    spec_ = std::make_unique<api::KernelSpec<double>>(
        apps::pagerank::make_kernel(params_));
  }
  apps::AppRunResult run_seq() override {
    return apps::pagerank::run_seq(params_);
  }
  double seq_steps() const override { return params_.num_steps; }

  apps::pagerank::Params params_;
};

// --- serve-socket ------------------------------------------------------------

/// The two job shapes of the serve stream, resolved exactly as
/// serve::prepare_job resolves a GraphSpec, so the client can compute the
/// run_seq reference of any job it sends.
struct ServeShape {
  std::string kernel;
  serve::GraphSpec graph;
};

apps::moldyn::Params moldyn_params_of(const serve::GraphSpec& g) {
  apps::moldyn::Params p;
  p.nprocs = kNodes;
  p.num_molecules = g.num_elements;
  p.num_steps = g.num_steps;
  p.update_interval = g.update_interval;
  p.seed = g.seed;
  return p;
}

apps::pagerank::Params pagerank_params_of(const serve::GraphSpec& g) {
  apps::pagerank::Params p;
  p.nprocs = kNodes;
  p.num_vertices = g.num_elements;
  p.num_steps = g.num_steps;
  p.edges_per_vertex = g.edges_per_vertex;
  p.seed = g.seed;
  return p;
}

apps::AppRunResult seq_of(const ServeShape& shape, std::uint64_t seed) {
  serve::GraphSpec g = shape.graph;
  g.seed = seed;
  if (shape.kernel == "moldyn") {
    const apps::moldyn::Params p = moldyn_params_of(g);
    return apps::moldyn::run_seq(p, apps::moldyn::make_system(p));
  }
  return apps::pagerank::run_seq(pagerank_params_of(g));
}

std::vector<ServeShape> serve_shapes(std::uint64_t seed) {
  ServeShape moldyn{"moldyn", {}};
  moldyn.graph.num_elements = 1024;
  moldyn.graph.num_steps = 8;
  moldyn.graph.update_interval = 4;
  moldyn.graph.seed = derive_seed(seed, 3);
  ServeShape pagerank{"pagerank", {}};
  pagerank.graph.num_elements = 8192;
  pagerank.graph.num_steps = 8;
  pagerank.graph.edges_per_vertex = 4;
  pagerank.graph.seed = derive_seed(seed, 4);
  return {moldyn, pagerank};
}

constexpr net::TransportKind kFabrics[] = {net::TransportKind::kInProc,
                                           net::TransportKind::kSocket};

/// Closed loop, one client, over the real control socket of a
/// KernelServer{nprocs=2, workers=1}.  A round is one deck of 20 jobs in a
/// seeded order: every (shape, backend, fabric) once, plus one job per
/// backend carrying a fresh graph seed (a schedule-cache miss).
class ServeSocket : public Workload {
 public:
  explicit ServeSocket(Context& ctx)
      : Workload(ctx),
        shapes_(serve_shapes(ctx.args.seed)),
        rng_(derive_seed(ctx.args.seed, 5)) {}

  ~ServeSocket() override { stop_server(); }

  void setup_pass() override {
    stop_server();
    {
      auto s = ctx_.tracer.span("apps.input");
      const Timer t;
      // The client-side inputs: the kernels of both shapes, for the direct
      // api reference runs below (the server builds its own copies).
      const apps::moldyn::Params moldyn = moldyn_params_of(shapes_[0].graph);
      moldyn_spec_ = apps::moldyn::make_kernel(
          moldyn, apps::moldyn::make_system(moldyn));
      pagerank_spec_ =
          apps::pagerank::make_kernel(pagerank_params_of(shapes_[1].graph));
      ctx_.layer.add("apps.input_s", t.elapsed_s());
    }
    seq_.clear();
    for (const ServeShape& shape : shapes_) {
      auto s = ctx_.tracer.span("apps.run_seq");
      seq_.push_back(seq_of(shape, shape.graph.seed));
      ctx_.layer.add("apps.seq_step_ms",
                     seq_.back().seconds * 1e3 / shape.graph.num_steps);
    }
    // The same jobs straight through the api layer: the bit-exact
    // reference the served checksums must match.
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      for (const Backend b : kBackends) {
        const ApiJob j =
            i == 0 ? run_api(ctx_.tracer, b, moldyn_spec_,
                             apps::moldyn::default_options())
                   : run_api(ctx_.tracer, b, pagerank_spec_,
                             apps::pagerank::default_options());
        check_kernel(ctx_.gate, "serve-ref/" + shapes_[i].kernel, b, j.r,
                     seq_[i].checksum, shapes_[i].graph.num_steps);
        record_layers(ctx_.layer, b, j);
      }
    }
    {
      auto s = ctx_.tracer.span("serve.start");
      serve::ServerConfig cfg;
      cfg.nprocs = kNodes;
      cfg.workers = 1;
      cfg.listen = true;
      server_ = std::make_unique<serve::KernelServer>(cfg);
      client_ = std::make_unique<serve::Client>(
          serve::Client::connect_local(server_->port()));
      if (!client_->connected()) throw std::runtime_error("serve: no connection");
    }
    // Warm every engine with one cold deck (all misses, base seeds); its
    // traffic is the workload's messages/megabytes figure.
    std::map<Backend, std::pair<std::uint64_t, double>> traffic;
    for (std::size_t i = 0; i < shapes_.size(); ++i) {
      for (const Backend b : kBackends) {
        for (const net::TransportKind fabric : kFabrics) {
          const serve::JobStats st = submit(i, b, fabric, 0, nullptr);
          traffic[b].first += st.messages;
          traffic[b].second += st.megabytes;
        }
      }
    }
    ctx_.gate.begin("serve-socket/warm-deck traffic");
    for (const auto& [b, t] : traffic) {
      const std::string k = backend_key(b);
      ctx_.gate.same("serve:messages:" + k, static_cast<double>(t.first));
      ctx_.gate.same("serve:megabytes:" + k, t.second);
      ctx_.sink.exact["messages." + k] = static_cast<double>(t.first);
      ctx_.sink.exact["megabytes." + k] = t.second;
    }
    ctx_.gate.finish();
  }

  void round(Sink& e2e) override {
    struct Entry {
      std::size_t shape;
      Backend backend;
      net::TransportKind fabric;
      bool fresh;
    };
    // Per backend: every (shape, fabric) at its cached base seed, plus one
    // fresh-seed job whose shape alternates by deck and fabric by backend,
    // so the mix (and with it every percentile) is the same in each deck.
    std::vector<Entry> deck;
    std::size_t index = 0;
    for (const Backend b : kBackends) {
      for (std::size_t i = 0; i < shapes_.size(); ++i) {
        for (const net::TransportKind fabric : kFabrics) {
          deck.push_back({i, b, fabric, false});
        }
      }
      deck.push_back({decks_ % shapes_.size(), b, kFabrics[index++ % 2],
                      true});
    }
    ++decks_;
    std::shuffle(deck.begin(), deck.end(), rng_);

    double hits = 0, misses = 0, inspector_runs = 0;
    for (const Entry& e : deck) {
      const std::uint64_t seed =
          e.fresh ? derive_seed(ctx_.args.seed, 1000 + fresh_.size()) : 0;
      double latency_ms = 0;
      const serve::JobStats st =
          submit(e.shape, e.backend, e.fabric, seed, &latency_ms);
      e2e.add("job_ms", latency_ms);
      if (!e.fresh && st.ok && st.steps_run > 0) {
        e2e.add(std::string("step_ms.") + backend_key(e.backend) + "@" +
                    shapes_[e.shape].kernel + "/" +
                    net::transport_name(e.fabric),
                st.run_seconds * 1e3 / static_cast<double>(st.steps_run));
      }
      ctx_.layer.add("serve.queue_ms", st.queue_seconds * 1e3);
      ctx_.layer.add("serve.run_ms", st.run_seconds * 1e3);
      ctx_.layer.add("serve.control_ms",
                     latency_ms - (st.queue_seconds + st.run_seconds) * 1e3);
      if (st.cache_eligible) (st.cache_hit ? hits : misses) += 1;
      inspector_runs += static_cast<double>(st.inspector_runs);
    }
    ctx_.layer.add("serve.hits", hits);
    ctx_.layer.add("serve.misses", misses);
    ctx_.layer.add("serve.inspector_runs", inspector_runs);
  }

  void finish() override {
    // Fresh-seed jobs are checked against run_seq here, after the window,
    // so their references cost the window nothing.
    for (const Fresh& f : fresh_) {
      ctx_.gate.begin("serve-socket/fresh " + shapes_[f.shape].kernel);
      ctx_.gate.expect(
          checksum_close(f.checksum, seq_of(shapes_[f.shape], f.seed).checksum),
          "checksum differs from run_seq");
      ctx_.gate.finish();
    }
  }

 private:
  struct Fresh {
    std::size_t shape;
    std::uint64_t seed;
    double checksum;
  };

  /// One job, submit to result, over the control socket.  `fresh_seed`
  /// (non-zero) replaces the shape's graph seed.  A rejected submit or a
  /// job with ok=false counts as failed.
  serve::JobStats submit(std::size_t shape, Backend b,
                         net::TransportKind fabric, std::uint64_t fresh_seed,
                         double* latency_ms) {
    serve::JobRequest req;
    req.kernel = shapes_[shape].kernel;
    req.graph = shapes_[shape].graph;
    if (fresh_seed != 0) req.graph.seed = fresh_seed;
    req.backend = b;
    req.transport = fabric;

    auto s = ctx_.tracer.span("serve.job");
    const Timer t;
    const serve::JobStats st = client_->run(req);
    if (latency_ms != nullptr) *latency_ms = t.elapsed_ms();

    const std::string k = backend_key(b);
    ctx_.gate.begin("serve-socket/" + req.kernel + "/" + k + "/" +
                    net::transport_name(fabric));
    ctx_.gate.expect(st.ok, "job failed: " + st.error);
    ctx_.gate.expect(st.steps_run == req.graph.num_steps,
                     "steps_run differs from num_steps");
    if (fresh_seed == 0) {
      ctx_.gate.expect(checksum_close(st.checksum, seq_[shape].checksum),
                       "checksum differs from run_seq");
      ctx_.gate.same("serve-ref/" + req.kernel + ":checksum", st.checksum);
    } else {
      fresh_.push_back({shape, fresh_seed, st.checksum});
    }
    ctx_.gate.finish();
    return st;
  }

  void stop_server() {
    auto s = ctx_.tracer.span("serve.shutdown");
    client_.reset();
    server_.reset();
  }

  std::vector<ServeShape> shapes_;
  std::mt19937_64 rng_;
  std::size_t decks_ = 0;
  api::KernelSpec<double3> moldyn_spec_;
  api::KernelSpec<double> pagerank_spec_;
  std::vector<apps::AppRunResult> seq_;
  std::unique_ptr<serve::KernelServer> server_;
  std::unique_ptr<serve::Client> client_;
  std::vector<Fresh> fresh_;
};

// --- proc-spmv ---------------------------------------------------------------

/// spmv deployed as two sdsm_worker processes on the TCP mesh
/// (proc::run_job) for the three DSM backends, against a threaded
/// socket-fabric run of the identical job.  CHAOS is not deployed
/// multi-process, so its figures come from the threaded socket run.
class ProcSpmv : public Workload {
 public:
  explicit ProcSpmv(Context& ctx) : Workload(ctx) {
    req_.kernel = "spmv";
    req_.graph.num_elements = 65536;
    req_.graph.num_steps = 16;
    req_.graph.edges_per_vertex = 8;
    req_.graph.seed = derive_seed(ctx.args.seed, 6);
    req_.transport = net::TransportKind::kSocket;
    params_.nprocs = kNodes;
    params_.num_rows = req_.graph.num_elements;
    params_.num_steps = req_.graph.num_steps;
    params_.edges_per_vertex = req_.graph.edges_per_vertex;
    params_.seed = req_.graph.seed;
    launch_.nprocs = kNodes;
    launch_.log_dir = ctx.args.work_dir + "/proc-logs";
  }

  void setup_pass() override {
    {
      auto s = ctx_.tracer.span("apps.input");
      const Timer t;
      prepared_ = serve::prepare_job(req_, kNodes);
      ctx_.layer.add("apps.input_s", t.elapsed_s());
    }
    {
      auto s = ctx_.tracer.span("apps.run_seq");
      seq_ = apps::spmv::run_seq(params_);
      ctx_.layer.add("apps.seq_step_ms",
                     seq_.seconds * 1e3 / params_.num_steps);
    }
    // The threaded socket-fabric reference of every backend.
    for (const Backend b : kBackends) {
      const ApiJob j = threaded(b);
      threaded_[b] = j.r;
      record_traffic(ctx_.sink, b, j.r.messages, j.r.bytes);
    }
    // One deployment warm-up (worker binary paged in, first fork).
    deploy(Backend::kTmkOptimized, nullptr);
  }

  void round(Sink& e2e) override {
    for (const Backend b : kBackends) {
      if (b == Backend::kChaos) {
        const ApiJob j = threaded(b);
        e2e.add("step_ms.chaos", step_ms(j.r));
        e2e.add("job_ms", j.wall_s * 1e3);
        continue;
      }
      deploy(b, &e2e);
    }
  }

 private:
  ApiJob threaded(Backend b) {
    api::BackendOptions options = prepared_.base_options;
    options.transport = net::TransportKind::kSocket;
    const ApiJob j = run_api(ctx_.tracer, b, prepared_.spec, options);
    check_kernel(ctx_.gate, "proc-spmv", b, j.r, seq_.checksum,
                 params_.num_steps);
    record_layers(ctx_.layer, b, j);
    return j;
  }

  /// One process-mode job; its checksum and counts must equal the
  /// threaded socket run of the same job.
  void deploy(Backend b, Sink* e2e) {
    serve::JobRequest req = req_;
    req.backend = b;
    auto s = ctx_.tracer.span(std::string("proc.job.") + backend_key(b));
    const Timer t;
    const proc::LaunchResult lr = proc::run_job(req, launch_);
    const double wall = t.elapsed_s();

    const std::string k = backend_key(b);
    const api::KernelResult& ref = threaded_[b];
    ctx_.gate.begin("proc-spmv/process/" + k);
    ctx_.gate.expect(lr.ok, "launch failed: " + lr.error);
    if (lr.ok) {
      const api::KernelResult& r = lr.result;
      ctx_.gate.expect(r.checksum == ref.checksum,
                       "checksum differs from the threaded run");
      ctx_.gate.expect(r.messages == ref.messages,
                       "messages differ from the threaded run");
      ctx_.gate.expect(r.bytes == ref.bytes,
                       "bytes differ from the threaded run");
      ctx_.gate.expect(r.steps_run == ref.steps_run,
                       "steps_run differs from the threaded run");
      ctx_.gate.expect(checksum_close(r.checksum, seq_.checksum),
                       "checksum differs from run_seq");
      ctx_.layer.add("proc.deploy_s", wall - r.seconds);
      if (e2e != nullptr) {
        e2e->add("step_ms." + k, step_ms(r));
        e2e->add("job_ms", wall * 1e3);
      }
    }
    ctx_.gate.finish();
  }

  serve::JobRequest req_;
  apps::spmv::Params params_;
  proc::LaunchOptions launch_;
  serve::PreparedJob prepared_;
  apps::AppRunResult seq_;
  std::map<Backend, api::KernelResult> threaded_;
};

std::unique_ptr<Workload> make_workload(Context& ctx) {
  const std::string& w = ctx.args.workload;
  if (w == "moldyn-paper") return std::make_unique<MoldynPaper>(ctx);
  if (w == "pagerank-powerlaw") return std::make_unique<PagerankPowerlaw>(ctx);
  if (w == "serve-socket") return std::make_unique<ServeSocket>(ctx);
  return std::make_unique<ProcSpmv>(ctx);
}

}  // namespace

namespace {

/// The axis of a 2-node RCB split: node 0's molecules all lie at or below
/// node 1's along it.  -1 when no axis separates them.
int split_axis(const apps::moldyn::System& sys) {
  auto coord = [](const double3& q, int a) {
    return a == 0 ? q.x : (a == 1 ? q.y : q.z);
  };
  const auto split = static_cast<std::size_t>(sys.owner_range[0].end);
  for (int a = 0; a < 3; ++a) {
    double lo_max = -1e300, hi_min = 1e300;
    for (std::size_t i = 0; i < sys.pos0.size(); ++i) {
      if (i < split) {
        lo_max = std::max(lo_max, coord(sys.pos0[i], a));
      } else {
        hi_min = std::min(hi_min, coord(sys.pos0[i], a));
      }
    }
    if (lo_max <= hi_min) return a;
  }
  return -1;
}

}  // namespace

/// The paper's density (~400 partners per molecule: box 25.4 and cutoff 4.6
/// at 16384 molecules), 40 steps, list rebuilt every 20.  The molecule
/// count is scaled down with the box edge so the density stays.
///
/// In a cubic box RCB bisects along whichever axis the jitter happens to
/// make widest, and the Tmk traffic differs by up to 25% between the three
/// orientations (the renumbering lays node boundaries across a different
/// number of pages).  The partition orientation is part of the workload's
/// shape, so the position seed is the first one derived from --seed whose
/// split is along z.
MoldynInput moldyn_paper_input(std::uint64_t seed) {
  constexpr std::int64_t kMolecules = 4096;
  constexpr int kSplitAxis = 2;
  MoldynInput in;
  in.params.num_molecules = kMolecules;
  in.params.num_steps = 40;
  in.params.update_interval = 20;
  in.params.box =
      25.4 * std::cbrt(static_cast<double>(kMolecules) / 16384.0);
  in.params.cutoff = 4.6;
  in.params.nprocs = kNodes;
  for (std::uint64_t k = 0;; ++k) {
    in.params.seed = derive_seed(seed, 100 + k);
    in.sys = apps::moldyn::make_system(in.params);
    if (split_axis(in.sys) == kSplitAxis) return in;
  }
}

bool known_workload(const std::string& name) {
  return name == "moldyn-paper" || name == "pagerank-powerlaw" ||
         name == "serve-socket" || name == "proc-spmv";
}

bool workload_covers(const std::string& workload, const std::string& layer) {
  return (workload == "serve-socket" && layer == "serve") ||
         (workload == "proc-spmv" && layer == "proc");
}

void run_workload(Context& ctx) {
  const std::unique_ptr<Workload> w = make_workload(ctx);
  Tracer& tracer = ctx.tracer;
  // Set-up passes; a traced run adds one traced pass, whose state then
  // serves the window.
  const int passes = kSetupPasses + (ctx.args.trace ? 1 : 0);
  for (int i = 0; i < passes; ++i) {
    const bool traced = i == kSetupPasses;
    tracer.enable(traced);
    tracer.set_run(i);
    auto s = tracer.span("bench.setup");
    const Timer t;
    w->setup_pass();
    (traced ? ctx.traced : ctx.sink).add("setup_s", t.elapsed_s());
  }
  int run = passes;
  auto window = [&](double seconds, Sink& e2e, bool traced) {
    tracer.enable(traced);
    run_rounds(seconds, [&] {
      tracer.set_run(run++);
      auto s = tracer.span("bench.round");
      w->round(e2e);
    });
  };
  if (ctx.args.trace) {
    window(ctx.args.seconds / 2, ctx.sink, false);
    window(ctx.args.seconds / 2, ctx.traced, true);
  } else {
    window(ctx.args.seconds, ctx.sink, false);
  }
  tracer.enable(false);
  w->finish();
  tracer.enable(ctx.args.trace);
}

}  // namespace perfbench
