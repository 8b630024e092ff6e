// Per-layer probes of the traced run.  Each probe drives one layer's public
// surface with a small seeded input and times it from outside, so a layer
// that no workload path isolates (vm, net, partition, the serve codec) still
// has a figure, and the serve and proc layers have one on every workload.
#include <atomic>
#include <memory>
#include <thread>

#include "perfbench/bench.hpp"
#include "src/apps/moldyn/moldyn_common.hpp"
#include "src/apps/spmv/spmv.hpp"
#include "src/common/buffer.hpp"
#include "src/core/dsm.hpp"
#include "src/net/transport.hpp"
#include "src/partition/partition.hpp"
#include "src/proc/proc.hpp"
#include "src/serve/client.hpp"
#include "src/serve/job.hpp"
#include "src/serve/server.hpp"
#include "src/vm/fault_dispatcher.hpp"
#include "src/vm/page_region.hpp"

namespace perfbench {
namespace {

using namespace sdsm;

/// apps + partition: one moldyn list rebuild (build_pairs) and one RCB
/// bisection of the moldyn-paper system.
void probe_apps_partition(Context& ctx) {
  const MoldynInput in = moldyn_paper_input(ctx.args.seed);
  const apps::moldyn::Params& p = in.params;
  const apps::moldyn::System& sys = in.sys;
  std::vector<part::Point3> points;
  points.reserve(sys.pos0.size());
  for (const double3& q : sys.pos0) points.push_back({q.x, q.y, q.z});
  for (int rep = 0; rep < 3; ++rep) {
    {
      auto s = ctx.tracer.span("partition.rcb");
      const Timer t;
      const auto owner = part::rcb_partition(points, kNodes);
      ctx.layer.add("partition.rcb_ms", t.elapsed_ms());
      ctx.gate.begin("probe/partition.rcb");
      ctx.gate.expect(owner.size() == points.size(), "owner count");
      ctx.gate.finish();
    }
    {
      auto s = ctx.tracer.span("apps.rebuild");
      const Timer t;
      const auto pairs = apps::moldyn::build_pairs(p, sys, sys.pos0);
      ctx.layer.add("apps.rebuild_ms", t.elapsed_ms());
      std::size_t total = 0;
      for (const auto& group : pairs) total += group.size();
      ctx.gate.begin("probe/apps.rebuild");
      ctx.gate.same("probe:pairs", static_cast<double>(total));
      ctx.gate.expect(total > 0, "no pairs");
      ctx.gate.finish();
    }
  }
}

/// vm: a local SIGSEGV -> FaultDispatcher -> handler -> unprotect, per page,
/// with no protocol and no network behind it.
void probe_vm(Context& ctx) {
  constexpr std::size_t kPages = 256;
  vm::PageRegion region(kPages * vm::system_page_size(), vm::Prot::kNone);
  std::atomic<std::size_t> faults{0};
  vm::FaultDispatcher::instance().register_region(
      region.base(), region.size(), [&](void* addr, vm::FaultAccess) {
        faults.fetch_add(1, std::memory_order_relaxed);
        region.protect(region.page_of(addr), 1, vm::Prot::kRead);
      });
  auto s = ctx.tracer.span("vm.fault");
  for (int rep = 0; rep < 8; ++rep) {
    region.protect(0, kPages, vm::Prot::kNone);
    faults.store(0);
    const Timer t;
    unsigned sum = 0;
    for (std::size_t pg = 0; pg < kPages; ++pg) {
      sum += *reinterpret_cast<volatile const unsigned char*>(
          region.page_ptr(static_cast<PageId>(pg)));
    }
    ctx.layer.add("vm.fault_us", t.elapsed_us() / kPages);
    ctx.gate.begin("probe/vm.fault");
    ctx.gate.expect(faults.load() == kPages && sum == 0, "fault count");
    ctx.gate.finish();
  }
  vm::FaultDispatcher::instance().unregister_region(region.base());
}

/// core: node 1 reads pages node 0 wrote before a barrier — one remote
/// fault (SIGSEGV, diff request, diff apply) per page.  The first round in
/// a fresh runtime is cold (first touch of the region); later rounds warm.
void probe_core(Context& ctx) {
  constexpr std::size_t kPages = 128;
  constexpr int kRounds = 6;
  for (int rep = 0; rep < 3; ++rep) {
    core::DsmConfig cfg;
    cfg.num_nodes = kNodes;
    cfg.region_bytes = 4u << 20;
    auto s = ctx.tracer.span("core.fault");
    core::DsmRuntime rt(std::move(cfg));
    const std::size_t words = vm::system_page_size() / sizeof(std::uint64_t);
    const auto arr = rt.alloc_global<std::uint64_t>(kPages * words);
    std::vector<double> per_page_us(kRounds, 0);
    std::atomic<int> wrong{0};
    rt.run([&](core::DsmNode& self) {
      std::uint64_t* p = self.ptr(arr);
      for (int round = 0; round < kRounds; ++round) {
        const std::uint64_t value = static_cast<std::uint64_t>(round) + 1;
        if (self.id() == 0) {
          for (std::size_t pg = 0; pg < kPages; ++pg) p[pg * words] = value;
        }
        self.barrier();
        if (self.id() == 1) {
          const Timer t;
          for (std::size_t pg = 0; pg < kPages; ++pg) {
            if (*static_cast<volatile std::uint64_t*>(&p[pg * words]) !=
                value) {
              wrong.fetch_add(1);
            }
          }
          per_page_us[static_cast<std::size_t>(round)] =
              t.elapsed_us() / kPages;
        }
        self.barrier();
      }
    });
    ctx.layer.add("core.fault_us.cold", per_page_us[0]);
    for (int round = 1; round < kRounds; ++round) {
      ctx.layer.add("core.fault_us.warm",
                    per_page_us[static_cast<std::size_t>(round)]);
    }
    ctx.gate.begin("probe/core.fault");
    ctx.gate.expect(wrong.load() == 0, "stale page read after barrier");
    ctx.gate.finish();
  }
}

/// net: a 2-node post/wait ping-pong through make_transport, node 1's
/// service loop echoing the payload.
void probe_net(Context& ctx) {
  constexpr std::uint32_t kEcho = 1, kReplyType = 2;
  for (const net::TransportKind kind : {net::TransportKind::kInProc,
                                        net::TransportKind::kSocket}) {
    auto s = ctx.tracer.span(std::string("net.pingpong.") +
                             net::transport_name(kind));
    std::unique_ptr<net::Transport> t = net::make_transport(kind, kNodes);
    std::thread echo([&t] {
      for (;;) {
        net::Message req = t->recv(net::Port::kService, 1);
        if (req.type == net::kControlStop) return;
        net::Message rep;
        rep.type = kReplyType;
        rep.src = 1;
        rep.dst = req.src;
        rep.request_id = req.request_id;
        rep.payload = std::move(req.payload);
        t->send(net::Port::kReply, std::move(rep));
      }
    });
    for (const std::size_t bytes : {std::size_t{64}, std::size_t{4096}}) {
      const std::string name = std::string("net.rtt_us.") +
                               net::transport_name(kind) + "." +
                               (bytes == 64 ? "64" : "4k");
      const int iters = kind == net::TransportKind::kInProc ? 2000 : 500;
      bool intact = true;
      for (int i = -iters / 10; i < iters; ++i) {  // first tenth warms up
        net::Message req;
        req.type = kEcho;
        req.src = 0;
        req.dst = 1;
        req.payload.assign(bytes, static_cast<std::uint8_t>(i));
        const Timer timer;
        const net::Ticket ticket = t->post(std::move(req));
        const net::Message rep = t->wait(ticket);
        const double us = timer.elapsed_us();
        intact = intact && rep.payload.size() == bytes &&
                 rep.payload[0] == static_cast<std::uint8_t>(i);
        if (i >= 0) ctx.layer.add(name, us);
      }
      ctx.gate.begin("probe/" + name);
      ctx.gate.expect(intact, "echo payload corrupted");
      ctx.gate.finish();
    }
    t->stop_service(1);
    echo.join();
  }
}

serve::JobRequest probe_request(const std::string& kernel, api::Backend b,
                                std::uint64_t seed) {
  serve::JobRequest req;
  req.kernel = kernel;
  req.graph.num_elements = kernel == "moldyn" ? 512 : 4096;
  req.graph.num_steps = 4;
  req.graph.update_interval = 2;
  req.graph.edges_per_vertex = 4;
  req.graph.seed = seed;
  req.backend = b;
  return req;
}

/// serve codec: encode + decode_request of a request mix, per request.
void probe_serve_codec(Context& ctx) {
  std::vector<serve::JobRequest> reqs;
  for (const char* kernel : {"moldyn", "pagerank"}) {
    for (const api::Backend b : kBackends) {
      for (const net::TransportKind kind : {net::TransportKind::kInProc,
                                            net::TransportKind::kSocket}) {
        reqs.push_back(probe_request(kernel, b, derive_seed(ctx.args.seed, 7)));
        reqs.back().transport = kind;
      }
    }
  }
  auto s = ctx.tracer.span("serve.codec");
  constexpr int kLoops = 500;
  for (int rep = 0; rep < 5; ++rep) {
    bool intact = true;
    const Timer t;
    for (int loop = 0; loop < kLoops; ++loop) {
      for (const serve::JobRequest& req : reqs) {
        Writer w;
        serve::encode(w, req);
        Reader r(w.bytes());
        const serve::JobRequest back = serve::decode_request(r);
        intact = intact && back.kernel == req.kernel &&
                 back.graph.seed == req.graph.seed &&
                 back.backend == req.backend;
      }
    }
    ctx.layer.add("serve.codec_us",
                  t.elapsed_us() / (kLoops * static_cast<double>(reqs.size())));
    ctx.gate.begin("probe/serve.codec");
    ctx.gate.expect(intact, "request changed in a codec round trip");
    ctx.gate.finish();
  }
}

/// serve session (workloads other than serve-socket): four requests over
/// the control socket, each sent twice — a cold miss, then a cache hit.
void probe_serve_session(Context& ctx) {
  auto s = ctx.tracer.span("serve.session");
  serve::ServerConfig cfg;
  cfg.nprocs = kNodes;
  cfg.workers = 1;
  cfg.listen = true;
  serve::KernelServer server(cfg);
  serve::Client client = serve::Client::connect_local(server.port());
  double hits = 0, misses = 0, inspector_runs = 0;
  for (const char* kernel : {"moldyn", "pagerank"}) {
    for (const api::Backend b :
         {api::Backend::kTmkOptimized, api::Backend::kChaos}) {
      const serve::JobRequest req =
          probe_request(kernel, b, derive_seed(ctx.args.seed, 8));
      for (int repeat = 0; repeat < 2; ++repeat) {
        auto js = ctx.tracer.span("serve.job");
        const Timer t;
        const serve::JobStats st = client.run(req);
        const double latency_ms = t.elapsed_ms();
        ctx.gate.begin(std::string("probe/serve.job/") + kernel);
        ctx.gate.expect(st.ok, "job failed: " + st.error);
        ctx.gate.same(std::string("probe:serve:") + kernel, st.checksum);
        ctx.gate.finish();
        ctx.layer.add("serve.queue_ms", st.queue_seconds * 1e3);
        ctx.layer.add("serve.run_ms", st.run_seconds * 1e3);
        ctx.layer.add("serve.control_ms",
                      latency_ms - (st.queue_seconds + st.run_seconds) * 1e3);
        if (st.cache_eligible) (st.cache_hit ? hits : misses) += 1;
        inspector_runs += static_cast<double>(st.inspector_runs);
      }
    }
  }
  ctx.layer.add("serve.hits", hits);
  ctx.layer.add("serve.misses", misses);
  ctx.layer.add("serve.inspector_runs", inspector_runs);
}

/// proc (workloads other than proc-spmv): a small spmv deployed as two
/// worker processes, checked against run_seq.
void probe_proc(Context& ctx) {
  serve::JobRequest req;
  req.kernel = "spmv";
  req.graph.num_elements = 8192;
  req.graph.num_steps = 4;
  req.graph.edges_per_vertex = 4;
  req.graph.seed = derive_seed(ctx.args.seed, 9);
  req.backend = api::Backend::kTmkOptimized;
  req.transport = net::TransportKind::kSocket;
  apps::spmv::Params p;
  p.nprocs = kNodes;
  p.num_rows = req.graph.num_elements;
  p.num_steps = req.graph.num_steps;
  p.edges_per_vertex = req.graph.edges_per_vertex;
  p.seed = req.graph.seed;
  const double seq = apps::spmv::run_seq(p).checksum;
  proc::LaunchOptions launch;
  launch.nprocs = kNodes;
  launch.log_dir = ctx.args.work_dir + "/proc-logs";
  for (int rep = 0; rep < 3; ++rep) {
    auto s = ctx.tracer.span("proc.job.tmk_opt");
    const Timer t;
    const proc::LaunchResult lr = proc::run_job(req, launch);
    const double wall = t.elapsed_s();
    ctx.gate.begin("probe/proc.job");
    ctx.gate.expect(lr.ok, "launch failed: " + lr.error);
    ctx.gate.expect(lr.ok && apps::checksum_close(lr.result.checksum, seq),
                    "checksum differs from run_seq");
    ctx.gate.finish();
    if (lr.ok) ctx.layer.add("proc.deploy_s", wall - lr.result.seconds);
  }
}

}  // namespace

void run_layer_probes(Context& ctx) {
  ctx.tracer.set_run(-1);
  probe_apps_partition(ctx);
  probe_vm(ctx);
  probe_core(ctx);
  probe_net(ctx);
  probe_serve_codec(ctx);
  if (!workload_covers(ctx.args.workload, "serve")) probe_serve_session(ctx);
  if (!workload_covers(ctx.args.workload, "proc")) probe_proc(ctx);
}

}  // namespace perfbench
