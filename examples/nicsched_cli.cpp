// nicsched_cli — run any experiment the library supports from the command
// line, without writing C++.
//
//   $ ./nicsched_cli --system=shinjuku-offload --workers=4 --k=4
//         --dist=bimodal:5us,100us,0.005 --slice=10us --load=300
//   $ ./nicsched_cli --system=shinjuku --workers=15 --dist=fixed:1us
//         --no-preemption --sweep=250:4250:9
//   $ ./nicsched_cli --system=ideal-nic --dist=exp:10us --load=500 --csv
//
// Loads are in kRPS. Durations accept ns/us/ms suffixes. Sweeps fan out
// across a thread pool (NICSCHED_THREADS); every run also drops
// BENCH_nicsched_cli.json / .csv into NICSCHED_RESULT_DIR (or the cwd).
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "exp/exp.h"
#include "stats/table.h"
#include "workload/replay.h"

namespace {

using namespace nicsched;

[[noreturn]] void usage(const char* error = nullptr) {
  if (error) std::cerr << "error: " << error << "\n\n";
  std::cerr <<
      "usage: nicsched_cli [options]\n"
      "  --system=NAME     shinjuku | shinjuku-offload | rss-rtc | flow-director |\n"
      "                    work-stealing | elastic-rss | ideal-nic | rpcvalet\n"
      "  --workers=N       worker cores (default 4)\n"
      "  --dispatchers=N   shinjuku dispatcher groups (default 1)\n"
      "  --k=N             outstanding requests per worker (default 4)\n"
      "  --dist=SPEC       fixed:5us | bimodal:5us,100us,0.005 | exp:10us |\n"
      "                    lognormal:10us,2.0 | pareto:1us,500us,1.1 |\n"
      "                    trace:FILE (CSV gap_ns,work_ns[,kind]; service\n"
      "                    times replayed, arrivals stay Poisson at --load)\n"
      "  --load=KRPS       offered load in kRPS (default 300)\n"
      "  --sweep=LO:HI:N   sweep N load points from LO to HI kRPS instead\n"
      "  --slice=DUR       preemption time slice (default 10us)\n"
      "  --no-preemption   disable preemption\n"
      "  --policy=NAME     fcfs | sjf | multi-class | bvt (default fcfs)\n"
      "  --placement=NAME  dram | ddio-llc | ddio-l1 (default per system)\n"
      "  --timer=NAME      dune | linux (default dune)\n"
      "  --samples=N       target measured requests per point (default 100000)\n"
      "  --seed=N          RNG seed (default 42)\n"
      "  --csv             CSV output instead of an aligned table\n"
      "  --latency-csv=F   dump per-request records of the (single) load\n"
      "                    point to file F\n";
  std::exit(2);
}

std::optional<std::string> flag_value(const std::string& arg,
                                      const char* name) {
  const std::string prefix = std::string("--") + name + "=";
  if (arg.rfind(prefix, 0) == 0) return arg.substr(prefix.size());
  return std::nullopt;
}

sim::Duration parse_duration(const std::string& text) {
  char* end = nullptr;
  const double value = std::strtod(text.c_str(), &end);
  const std::string unit = end;
  if (unit == "ns") return sim::Duration::nanos(value);
  if (unit == "us") return sim::Duration::micros(value);
  if (unit == "ms") return sim::Duration::millis(value);
  if (unit == "s") return sim::Duration::seconds(value);
  usage(("bad duration '" + text + "' (use ns/us/ms/s)").c_str());
}

core::SystemKind parse_system(const std::string& name) {
  // Round-trips core::to_string, with a legacy alias for the seed CLI's
  // spelling of the RSS baseline.
  if (name == "rss") return core::SystemKind::kRss;
  if (const auto kind = core::try_from_string(name)) return *kind;
  usage(("unknown system '" + name + "'").c_str());
}

std::shared_ptr<workload::ServiceDistribution> parse_dist(
    const std::string& spec) {
  const auto colon = spec.find(':');
  if (colon == std::string::npos) usage("bad --dist (missing ':')");
  const std::string kind = spec.substr(0, colon);
  std::vector<std::string> args;
  std::string rest = spec.substr(colon + 1);
  while (!rest.empty()) {
    const auto comma = rest.find(',');
    args.push_back(rest.substr(0, comma));
    if (comma == std::string::npos) break;
    rest = rest.substr(comma + 1);
  }
  if (kind == "fixed" && args.size() == 1) {
    return std::make_shared<workload::FixedDistribution>(
        parse_duration(args[0]));
  }
  if (kind == "bimodal" && args.size() == 3) {
    return std::make_shared<workload::BimodalDistribution>(
        parse_duration(args[0]), parse_duration(args[1]),
        std::atof(args[2].c_str()));
  }
  if (kind == "exp" && args.size() == 1) {
    return std::make_shared<workload::ExponentialDistribution>(
        parse_duration(args[0]));
  }
  if (kind == "lognormal" && args.size() == 2) {
    return std::make_shared<workload::LogNormalDistribution>(
        parse_duration(args[0]), std::atof(args[1].c_str()));
  }
  if (kind == "pareto" && args.size() == 3) {
    return std::make_shared<workload::BoundedParetoDistribution>(
        parse_duration(args[0]), parse_duration(args[1]),
        std::atof(args[2].c_str()));
  }
  if (kind == "trace" && args.size() == 1) {
    std::ifstream file(args[0]);
    if (!file) usage(("cannot open trace file '" + args[0] + "'").c_str());
    std::ostringstream contents;
    contents << file.rdbuf();
    std::string error;
    auto trace = workload::WorkloadTrace::parse_csv(contents.str(), &error);
    if (!trace) usage(("bad trace file: " + error).c_str());
    return std::make_shared<workload::TraceService>(
        std::make_shared<workload::WorkloadTrace>(std::move(*trace)));
  }
  usage(("bad --dist spec '" + spec + "'").c_str());
}

hw::PlacementPolicy parse_placement(const std::string& name) {
  if (name == "dram") return hw::PlacementPolicy::kDram;
  if (name == "ddio-llc") return hw::PlacementPolicy::kDdioLlc;
  if (name == "ddio-l1") return hw::PlacementPolicy::kDdioL1;
  usage(("unknown placement '" + name + "'").c_str());
}

core::QueuePolicy parse_policy(const std::string& name) {
  if (name == "fcfs") return core::QueuePolicy::kFcfs;
  if (name == "sjf") return core::QueuePolicy::kSjf;
  if (name == "multi-class") return core::QueuePolicy::kMultiClass;
  if (name == "bvt") return core::QueuePolicy::kBvt;
  usage(("unknown queue policy '" + name + "'").c_str());
}

}  // namespace

int main(int argc, char** argv) {
  core::ExperimentConfig config;
  config.service = std::make_shared<workload::FixedDistribution>(
      sim::Duration::micros(5));
  config.offered_rps = 300e3;
  config.target_samples = 100'000;

  std::vector<double> sweep_loads;
  bool csv = false;
  std::string latency_csv_path;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (auto v = flag_value(arg, "system")) {
      config.system = parse_system(*v);
    } else if (auto v2 = flag_value(arg, "workers")) {
      config.worker_count = static_cast<std::size_t>(std::atoi(v2->c_str()));
    } else if (auto v3 = flag_value(arg, "dispatchers")) {
      config.dispatcher_count =
          static_cast<std::size_t>(std::atoi(v3->c_str()));
    } else if (auto v4 = flag_value(arg, "k")) {
      config.outstanding_per_worker =
          static_cast<std::uint32_t>(std::atoi(v4->c_str()));
    } else if (auto v5 = flag_value(arg, "dist")) {
      config.service = parse_dist(*v5);
    } else if (auto v6 = flag_value(arg, "load")) {
      config.offered_rps = std::atof(v6->c_str()) * 1e3;
    } else if (auto v7 = flag_value(arg, "sweep")) {
      double lo = 0, hi = 0;
      int points = 0;
      if (std::sscanf(v7->c_str(), "%lf:%lf:%d", &lo, &hi, &points) != 3 ||
          points < 1) {
        usage("bad --sweep (want LO:HI:N)");
      }
      sweep_loads = exp::load_grid(lo * 1e3, hi * 1e3, points);
    } else if (auto v8 = flag_value(arg, "slice")) {
      config.time_slice = parse_duration(*v8);
    } else if (arg == "--no-preemption") {
      config.preemption_enabled = false;
    } else if (auto v9 = flag_value(arg, "policy")) {
      config.queue_policy = parse_policy(*v9);
    } else if (auto v10 = flag_value(arg, "placement")) {
      config.placement = parse_placement(*v10);
    } else if (auto v11 = flag_value(arg, "timer")) {
      if (*v11 == "dune") {
        config.timer_costs = hw::TimerCosts::dune();
      } else if (*v11 == "linux") {
        config.timer_costs = hw::TimerCosts::linux_signal();
      } else {
        usage("unknown --timer (dune|linux)");
      }
    } else if (auto v12 = flag_value(arg, "samples")) {
      config.target_samples =
          static_cast<std::uint64_t>(std::atoll(v12->c_str()));
    } else if (auto v13 = flag_value(arg, "seed")) {
      config.seed = static_cast<std::uint64_t>(std::atoll(v13->c_str()));
    } else if (auto v14 = flag_value(arg, "latency-csv")) {
      latency_csv_path = *v14;
    } else if (arg == "--csv") {
      csv = true;
    } else if (arg == "--help" || arg == "-h") {
      usage();
    } else {
      usage(("unknown flag '" + arg + "'").c_str());
    }
  }

  if (sweep_loads.empty()) sweep_loads.push_back(config.offered_rps);

  stats::ResponseLog response_log;
  if (!latency_csv_path.empty()) {
    if (sweep_loads.size() > 1) usage("--latency-csv needs a single --load");
    config.response_log = &response_log;
  }

  if (!csv) {
    std::cout << "system=" << core::to_string(config.system)
              << " workers=" << config.worker_count
              << " K=" << config.outstanding_per_worker
              << " dist=" << config.service->name() << " preemption="
              << (config.preemption_enabled
                      ? config.time_slice.to_string()
                      : std::string("off"))
              << " policy=" << core::to_string(config.queue_policy) << "\n\n";
  }

  // A per-request log pins the run to the serial single-point primitive;
  // everything else goes through the parallel runner.
  std::vector<core::ExperimentResult> results;
  if (config.response_log != nullptr) {
    config.offered_rps = sweep_loads[0];
    results.push_back(core::run_experiment(config));
  } else {
    results = exp::SweepRunner().run(config, sweep_loads);
  }
  if (!latency_csv_path.empty()) {
    std::ofstream file(latency_csv_path);
    if (!file) usage(("cannot write '" + latency_csv_path + "'").c_str());
    response_log.write_csv(file);
    if (!csv) {
      std::cout << "wrote " << response_log.records().size()
                << " per-request records to " << latency_csv_path << "\n\n";
    }
  }

  exp::Figure fig("nicsched_cli",
                  std::string("nicsched_cli: ") +
                      core::to_string(config.system) + " on " +
                      config.service->name());
  std::vector<stats::RunSummary> summaries;
  for (const auto& result : results) {
    summaries.push_back(result.summary);
    fig.add_row(core::to_string(config.system), result);
  }
  const stats::Table table = stats::make_sweep_table(summaries);
  if (csv) {
    table.print_csv(std::cout);
  } else {
    table.print(std::cout);
  }
  return fig.finish();
}
