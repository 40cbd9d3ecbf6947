// Single-threaded perf benchmark of the nicsched simulator.
//
//   perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//             [--commit <id>] [--out <result.json>]
//   perfbench --workload <name> --seed <n> --digest
//
// --trace 0 runs the untraced end-to-end pass, --trace 1 the traced
// per-layer pass (README.md lists every metric). The last stdout line is
// one JSON object {"correct", "attempted", "failed", "metrics"}; --out
// also writes it, with the run's manifest, to a result file. --digest
// prints the model digest of one run (for recording goldens).
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "bench.h"
#include "net/packet.h"

extern char** environ;

namespace nicsched::perfbench {
namespace {

struct Args {
  std::string workload;
  std::uint64_t seed = 42;
  double seconds = 10.0;
  int trace = 0;
  bool digest = false;
  std::string commit = "unknown";
  std::string out;
};

[[noreturn]] void usage(const std::string& error) {
  std::cerr << "perfbench: " << error
            << "\nusage: perfbench --workload <name> --seed <n> --seconds <s> "
               "--trace <0|1> [--commit <id>] [--out <file>]\n"
               "       perfbench --workload <name> --seed <n> --digest\n"
               "workloads:";
  for (const Workload& w : workloads()) std::cerr << " " << w.name;
  std::cerr << "\n";
  std::exit(2);
}

Args parse_args(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--digest") {
      args.digest = true;
      continue;
    }
    if (i + 1 >= argc) usage("missing value for " + flag);
    const std::string value = argv[++i];
    try {
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        args.trace = std::stoi(value);
      } else if (flag == "--commit") {
        args.commit = value;
      } else if (flag == "--out") {
        args.out = value;
      } else {
        usage("unknown flag " + flag);
      }
    } catch (const std::exception&) {
      usage("bad value '" + value + "' for " + flag);
    }
  }
  if (find_workload(args.workload) == nullptr) {
    usage("unknown workload '" + args.workload + "'");
  }
  if (args.trace != 0 && args.trace != 1) usage("--trace must be 0 or 1");
  if (!(args.seconds > 0.0)) usage("--seconds must be positive");
  return args;
}

/// run_experiment silently reads NICSCHED_* variables (trace capture,
/// faults, chaos, shards, overload, tenants, rack knobs, fast mode); the
/// workloads pin every such field, but chaos has no explicit "off", so any
/// NICSCHED_* variable makes the benchmark refuse to run.
bool environment_clean() {
  bool clean = true;
  for (char** entry = environ; *entry != nullptr; ++entry) {
    const std::string var = *entry;
    if (var.rfind("NICSCHED_", 0) == 0) {
      std::cerr << "perfbench: refusing to run with " << var.substr(0, var.find('='))
                << " set; it can change the modelled system\n";
      clean = false;
    }
  }
  return clean;
}

std::string cpu_model() {
  std::ifstream cpuinfo("/proc/cpuinfo");
  std::string line;
  while (std::getline(cpuinfo, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') out += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    out += c;
  }
  return out + "\"";
}

std::string hex(std::uint64_t value) {
  std::ostringstream out;
  out << "0x" << std::hex << std::setw(16) << std::setfill('0') << value;
  return out.str();
}

std::string result_line(const PassResult& pass) {
  std::ostringstream out;
  out << std::setprecision(17);
  out << "{\"correct\": " << (pass.failed == 0 ? "true" : "false")
      << ", \"attempted\": " << pass.attempted
      << ", \"failed\": " << pass.failed << ", \"metrics\": {";
  for (std::size_t i = 0; i < pass.metrics.size(); ++i) {
    const Metric& m = pass.metrics[i];
    out << (i == 0 ? "" : ", ") << json_string(m.name)
        << ": {\"value\": " << m.value << ", \"unit\": " << json_string(m.unit)
        << "}";
  }
  out << "}}";
  return out.str();
}

std::string manifest(const Args& args, const Workload& workload) {
  const core::ExperimentConfig config = workload.config(args.seed);
  std::ostringstream out;
  out << "{\"cpu_model\": " << json_string(cpu_model())
      << ", \"nproc\": " << std::thread::hardware_concurrency()
      << ", \"compiler\": " << json_string(PERFBENCH_COMPILER)
      << ", \"build_type\": " << json_string(PERFBENCH_BUILD_TYPE)
      << ", \"commit\": " << json_string(args.commit)
      << ", \"workload\": " << json_string(workload.name)
      << ", \"seed\": " << args.seed
      << ", \"config_hash\": " << json_string(hex(config_hash(config)))
      << ", \"trace\": " << args.trace
      << ", \"seconds\": " << args.seconds
      << ", \"checksum_elision\": "
      << (net::checksum_elision_enabled() ? "true" : "false") << "}";
  return out.str();
}

int run(const Args& args) {
  const Workload& workload = *find_workload(args.workload);
  if (args.digest) {
    const core::ExperimentResult result =
        core::run_experiment(workload.config(args.seed));
    std::cout << workload.name << " " << args.seed << " "
              << hex(model_digest(result)) << "\n";
    return 0;
  }

  const std::string run_manifest = manifest(args, workload);
  std::cout << "manifest " << run_manifest << "\n";
  PassResult pass = args.trace == 0
                        ? run_end_to_end(workload, args.seed, args.seconds)
                        : run_per_layer(workload, args.seed, args.seconds);
  if (net::checksum_elision_enabled()) {
    // The simulator must be measured with its always-verify default.
    pass.failures.push_back("checksum elision is on");
  }
  for (const Metric& m : pass.metrics) {
    if (!std::isfinite(m.value)) {
      pass.failures.push_back("metric " + m.name + " is not finite");
    }
  }
  // Any mismatch fails every operation of the run.
  if (!pass.failures.empty()) pass.failed = pass.attempted;
  for (const std::string& failure : pass.failures) {
    std::cout << "FAIL  " << workload.name << " seed=" << args.seed << ": "
              << failure << "\n";
  }
  std::cout << "digest " << workload.name << " seed=" << args.seed << " "
            << hex(pass.digest) << "\n";
  const std::string line = result_line(pass);
  if (!args.out.empty()) {
    std::ofstream file(args.out);
    file << "{\"manifest\": " << run_manifest << ", \"digest\": "
         << json_string(hex(pass.digest)) << ", \"result\": " << line
         << "}\n";
    if (!file) std::cerr << "perfbench: could not write " << args.out << "\n";
  }
  std::cout << line << "\n";
  return 0;
}

}  // namespace
}  // namespace nicsched::perfbench

int main(int argc, char** argv) {
  using namespace nicsched::perfbench;
  const Args args = parse_args(argc, argv);
  if (!environment_clean()) return 2;
  try {
    return run(args);
  } catch (const std::exception& error) {
    std::cerr << "perfbench: " << error.what() << "\n";
    return 1;
  }
}
