// perfbench: the driver binary behind perfbench/run.py.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//             --out RESULT.json [--trace-out TRACE.json] [--work-dir DIR]
//
// Runs one workload (see README.md), checks every output, and writes the
// raw samples, the correctness tally and the host stamp to RESULT.json;
// run.py reduces them to the named metrics.  With --trace 1 the window is
// split into an untraced and a traced half, the layer probes run, and the
// spans go to TRACE.json as Chrome trace-event JSON.
#include <sched.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>
#include <thread>

#include "perfbench/bench.hpp"

namespace perfbench {

const char* backend_key(sdsm::api::Backend b) {
  switch (b) {
    case sdsm::api::Backend::kChaos:
      return "chaos";
    case sdsm::api::Backend::kTmkBase:
      return "tmk_base";
    case sdsm::api::Backend::kTmkOptimized:
      return "tmk_opt";
    case sdsm::api::Backend::kHybrid:
      return "hybrid";
  }
  return "unknown";
}

std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  // splitmix64 of (seed, stream).
  std::uint64_t z = seed + 0x9e3779b97f4a7c15ull * (stream + 1);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
  z ^= z >> 31;
  return z == 0 ? 1 : z;
}

Tracer::Scope Tracer::span(const std::string& name) {
  if (!enabled_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.start_us = now_us();
  s.parent = open_.empty() ? -1 : open_.back();
  s.run = run_;
  spans_.push_back(std::move(s));
  const int index = static_cast<int>(spans_.size()) - 1;
  open_.push_back(index);
  return Scope(this, index);
}

Tracer::Scope::~Scope() {
  if (tracer_ == nullptr) return;
  tracer_->spans_[static_cast<std::size_t>(index_)].end_us = tracer_->now_us();
  tracer_->open_.pop_back();
}

namespace {

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

}  // namespace

bool Tracer::write_chrome_json(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  std::fputs("{\"displayTimeUnit\":\"ns\",\"traceEvents\":[", f);
  bool first = true;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    if (s.end_us < 0) continue;
    const std::string layer = s.name.substr(0, s.name.find('.'));
    std::fprintf(f,
                 "%s\n{\"name\":%s,\"cat\":%s,\"ph\":\"X\",\"pid\":1,"
                 "\"tid\":1,\"ts\":%s,\"dur\":%s,\"args\":{\"id\":%zu,"
                 "\"parent\":%d,\"run\":%d}}",
                 first ? "" : ",", json_string(s.name).c_str(),
                 json_string(layer).c_str(), json_number(s.start_us).c_str(),
                 json_number(s.end_us - s.start_us).c_str(), i, s.parent,
                 s.run);
    first = false;
  }
  std::fputs("\n]}\n", f);
  return std::fclose(f) == 0;
}

void Gate::same(const std::string& key, double value) {
  const auto [it, inserted] = first_.emplace(key, value);
  if (!inserted && it->second != value) {
    problems_.push_back(key + ": " + json_number(value) + " != first " +
                        json_number(it->second));
  }
}

void Gate::finish() {
  ++attempted_;
  if (problems_.empty()) return;
  ++failed_;
  if (failures_.size() < 20) {
    std::string line = what_ + ":";
    for (const std::string& p : problems_) line += " " + p + ";";
    failures_.push_back(line);
  }
  problems_.clear();
}

namespace {

#if defined(__clang__)
constexpr const char* kCompiler = "clang " __clang_version__;
#elif defined(__GNUC__)
constexpr const char* kCompiler = "gcc " __VERSION__;
#else
constexpr const char* kCompiler = "unknown";
#endif

std::string affinity_list() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return "unknown";
  std::string out;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (!CPU_ISSET(c, &set)) continue;
    int last = c;
    while (last + 1 < CPU_SETSIZE && CPU_ISSET(last + 1, &set)) ++last;
    if (!out.empty()) out += ",";
    out += std::to_string(c);
    if (last > c) out += "-" + std::to_string(last);
    c = last;
  }
  return out;
}

void write_sink(std::FILE* f, const char* key, const Sink& sink) {
  std::fprintf(f, "%s:{\"samples\":{", json_string(key).c_str());
  bool first = true;
  for (const auto& [name, values] : sink.samples) {
    std::fprintf(f, "%s%s:[", first ? "" : ",", json_string(name).c_str());
    for (std::size_t i = 0; i < values.size(); ++i) {
      std::fprintf(f, "%s%s", i ? "," : "", json_number(values[i]).c_str());
    }
    std::fputs("]", f);
    first = false;
  }
  std::fputs("},\"exact\":{", f);
  first = true;
  for (const auto& [name, value] : sink.exact) {
    std::fprintf(f, "%s%s:%s", first ? "" : ",", json_string(name).c_str(),
                 json_number(value).c_str());
    first = false;
  }
  std::fputs("}}", f);
}

bool write_result(const std::string& path, const Args& args, const Gate& gate,
                  const Sink& sink, const Sink& traced, const Sink& layer) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const unsigned hw = std::thread::hardware_concurrency();
  std::fprintf(
      f,
      "{\"host\":{\"nproc\":%ld,\"affinity\":%s,\"hardware_concurrency\":%u,"
      "\"spin_budget\":%d,\"compiler\":%s,\"build_type\":%s,\"nodes\":%u},\n",
      ::sysconf(_SC_NPROCESSORS_ONLN), json_string(affinity_list()).c_str(),
      hw, hw > 1 ? 100000 : 0, json_string(kCompiler).c_str(),
      json_string(PERFBENCH_BUILD_TYPE).c_str(), kNodes);
  std::fprintf(f,
               "\"workload\":%s,\"seed\":%llu,\"trace\":%s,\"attempted\":%llu,"
               "\"failed\":%llu,\"failures\":[",
               json_string(args.workload).c_str(),
               static_cast<unsigned long long>(args.seed),
               args.trace ? "true" : "false",
               static_cast<unsigned long long>(gate.attempted()),
               static_cast<unsigned long long>(gate.failed()));
  for (std::size_t i = 0; i < gate.failures().size(); ++i) {
    std::fprintf(f, "%s%s", i ? "," : "",
                 json_string(gate.failures()[i]).c_str());
  }
  std::fputs("],\n", f);
  write_sink(f, "e2e", sink);
  std::fputs(",\n", f);
  write_sink(f, "traced", traced);
  std::fputs(",\n", f);
  write_sink(f, "layer", layer);
  std::fputs("}\n", f);
  return std::fclose(f) == 0;
}

[[noreturn]] void usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 --out RESULT.json "
               "[--trace-out TRACE.json] [--work-dir DIR]\n",
               why);
  std::exit(2);
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  Args args;
  std::string out, trace_out;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      args.workload = value;
    } else if (key == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (key == "--trace") {
      args.trace = value == "1";
    } else if (key == "--out") {
      out = value;
    } else if (key == "--trace-out") {
      trace_out = value;
    } else if (key == "--work-dir") {
      args.work_dir = value;
    } else {
      usage(("unknown flag " + key).c_str());
    }
  }
  if (argc % 2 == 0) usage("flags take one value each");
  if (!known_workload(args.workload)) usage("unknown --workload");
  if (out.empty()) usage("--out is required");
  if (!(args.seconds > 0)) usage("--seconds must be positive");
  if (args.trace && trace_out.empty()) usage("--trace 1 needs --trace-out");

  Tracer tracer;
  Gate gate;
  Sink sink, traced, layer;
  Context ctx{args, tracer, gate, sink, traced, layer};
  try {
    run_workload(ctx);
    if (args.trace) run_layer_probes(ctx);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
  if (args.trace && !tracer.write_chrome_json(trace_out)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", trace_out.c_str());
    return 1;
  }
  if (!write_result(out, args, gate, sink, traced, layer)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n", out.c_str());
    return 1;
  }
  return 0;
}
