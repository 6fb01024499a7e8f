// aquabench: runs one benchmark workload and prints its result.
//
//   aquabench --workload <train_epa|corpus_city|serve_districts> --seed <n>
//             --seconds <s> --trace <0|1> --scratch <dir> [--git-sha <sha>]
//
// Output: "# ..." note lines (host stamp, gate verdicts, the workload's
// own figures), then one JSON line {"correct", "attempted", "failed",
// "metrics"}. Exit status 0 only when every gate passed. perfbench/run.py
// builds this program and wraps it.
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <exception>
#include <filesystem>
#include <fstream>
#include <string>
#include <thread>

#include "common/thread_pool.hpp"
#include "workload.hpp"

#ifndef AQUABENCH_BUILD_TYPE
#define AQUABENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(line.find_first_not_of(' ', colon + 1));
    }
  }
  return "unknown";
}

std::string compiler() {
#if defined(__clang__)
  return std::string("clang ") + __clang_version__;
#elif defined(__GNUC__)
  return std::string("gcc ") + __VERSION__;
#else
  return "unknown";
#endif
}

/// CPU time the hypervisor gave to other guests (the "steal" column of
/// /proc/stat), in seconds summed over CPUs; 0 when unavailable.
double steal_seconds() {
  std::ifstream stat("/proc/stat");
  std::string cpu;
  double fields[8] = {};
  stat >> cpu;
  for (double& field : fields) stat >> field;
  const long ticks = sysconf(_SC_CLK_TCK);
  return cpu == "cpu" && ticks > 0 ? fields[7] / static_cast<double>(ticks) : 0.0;
}

/// JSON string escaping for the few free-text fields of the host stamp.
std::string quoted(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    out += (c >= 0x20) ? c : ' ';
  }
  return out + "\"";
}

void print_host_stamp(const Options& options, const std::string& git_sha) {
  std::printf(
      "# host {\"nproc\": %u, \"cpu\": %s, \"compiler\": %s, \"build_type\": %s, "
      "\"git_sha\": %s, \"pool_threads\": %zu, \"workload\": %s, \"seed\": %" PRIu64
      ", \"seconds\": %g, \"trace\": %d}\n",
      std::thread::hardware_concurrency(), quoted(cpu_model()).c_str(), quoted(compiler()).c_str(),
      quoted(AQUABENCH_BUILD_TYPE).c_str(), quoted(git_sha).c_str(),
      aqua::ThreadPool::global().size(), quoted(options.workload).c_str(), options.seed,
      options.seconds, options.trace ? 1 : 0);
}

void print_result(const Outcome& outcome) {
  for (const std::string& note : outcome.notes) std::printf("# %s\n", note.c_str());
  std::printf("{\"correct\": %s, \"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
              ", \"metrics\": {",
              outcome.correct ? "true" : "false", outcome.attempted, outcome.failed);
  for (std::size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i == 0 ? "" : ", ",
                m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("}}\n");
}

int usage(const char* message) {
  std::fprintf(stderr,
               "aquabench: %s\nusage: aquabench --workload <train_epa|corpus_city|"
               "serve_districts> --seed <n> --seconds <s> --trace <0|1> --scratch <dir> "
               "[--git-sha <sha>]\n",
               message);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  Options options;
  std::string git_sha = "unknown";
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    try {
      if (key == "--workload") options.workload = value;
      else if (key == "--seed") options.seed = std::stoull(value);
      else if (key == "--seconds") options.seconds = std::stod(value);
      else if (key == "--trace") options.trace = value == "1";
      else if (key == "--scratch") options.scratch_dir = value;
      else if (key == "--git-sha") git_sha = value;
      else return usage(("unknown option " + key).c_str());
    } catch (const std::exception&) {
      return usage(("bad value for " + key).c_str());
    }
  }
  if (argc % 2 == 0) return usage("options come in --key value pairs");
  if (options.scratch_dir.empty()) return usage("--scratch is required");
  if (!(options.seconds > 0.0)) return usage("--seconds must be positive");

  Outcome (*run)(const Options&) = nullptr;
  if (options.workload == "train_epa") run = run_train_epa;
  else if (options.workload == "corpus_city") run = run_corpus_city;
  else if (options.workload == "serve_districts") run = run_serve_districts;
  else return usage(("unknown workload '" + options.workload + "'").c_str());

  print_host_stamp(options, git_sha);
  const double steal_at_start = steal_seconds();
  try {
    std::filesystem::create_directories(options.scratch_dir);
    tracer().set_enabled(options.trace);
    Outcome outcome = run(options);
    if (!options.trace) {
      outcome.add("peak_rss_mb", peak_rss_mb(), "MB");
      const double attempted = static_cast<double>(std::max<std::uint64_t>(1, outcome.attempted));
      outcome.add("ok_fraction", 1.0 - static_cast<double>(outcome.failed) / attempted, "ratio");
    }
    // Time stolen by other guests slows every workload; a run with much
    // of it is not comparable to one without.
    outcome.note("cpu steal during run: " + std::to_string(steal_seconds() - steal_at_start) +
                 " s over " + std::to_string(std::thread::hardware_concurrency()) + " CPUs");
    print_result(outcome);
    std::fflush(stdout);
    return outcome.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fflush(stdout);
    std::fprintf(stderr, "aquabench: %s failed: %s\n", options.workload.c_str(), error.what());
    return 3;
  }
}
