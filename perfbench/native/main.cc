// perfbench_native --workload <wdrift|ddrift|serve> --seed <n> --seconds <s>
//                  --trace <0|1>
//
// Runs one benchmark workload and prints three JSON lines on stdout: the
// stamp (machine, build, kernels, threads, seed), the detail record (mode
// sequence, open-loop accounting, failed checks), and last the result
// {"correct", "attempted", "failed", "metrics"}. Exit code 1 when an output
// check failed, 2 on bad arguments. perfbench/run.py builds and wraps it.
#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>

#include "common.h"
#include "core/config.h"
#include "nn/matrix.h"
#include "storage/annotate_kernels.h"
#include "util/cpu_features.h"
#include "util/logging.h"
#include "workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

bool ParseArgs(int argc, char** argv, perfbench::Args* args) {
  for (int i = 1; i + 1 < argc; i += 2) {
    std::string key = argv[i];
    std::string value = argv[i + 1];
    char* end = nullptr;
    if (key == "--workload") {
      args->workload = value;
    } else if (key == "--seed") {
      args->seed = std::strtoull(value.c_str(), &end, 10);
      if (*end != '\0') return false;
    } else if (key == "--seconds") {
      args->seconds = std::strtod(value.c_str(), &end);
      if (*end != '\0' || !(args->seconds > 0.0)) return false;
    } else if (key == "--trace") {
      if (value != "0" && value != "1") return false;
      args->trace = value == "1";
    } else {
      return false;
    }
  }
  return argc % 2 == 1 && (args->workload == "wdrift" ||
                           args->workload == "ddrift" ||
                           args->workload == "serve");
}

std::string CpuModel() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      size_t colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

std::string StampJson(const perfbench::Args& args) {
  using perfbench::JsonNumber;
  using perfbench::JsonString;
  const warper::util::CpuFeatures& cpu = warper::util::GetCpuFeatures();
  std::string out = "{\"stamp\": {";
  out += "\"cpu\": " + JsonString(CpuModel());
  out += ", \"avx2\": " + std::string(cpu.avx2 ? "true" : "false");
  out += ", \"avx512f\": " + std::string(cpu.avx512f ? "true" : "false");
  out += ", \"build_type\": " + JsonString(PERFBENCH_BUILD_TYPE);
  out += ", \"nn_kernel\": " + JsonString(warper::nn::ActiveKernelName());
  out += ", \"annotate_kernel\": " +
         JsonString(warper::storage::internal::ActiveAnnotateKernelName());
  out += ", \"pool_threads\": " + JsonNumber(perfbench::kPoolThreads);
  out += ", \"nproc\": " + JsonNumber(std::thread::hardware_concurrency());
  out += ", \"workload\": " + JsonString(args.workload);
  out += ", \"seed\": " + std::to_string(args.seed);
  out += ", \"seconds\": " + JsonNumber(args.seconds);
  out += ", \"trace\": " + std::string(args.trace ? "1" : "0");
  return out + "}}";
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::cerr << "usage: perfbench_native --workload wdrift|ddrift|serve "
                 "--seed N --seconds S --trace 0|1\n";
    return 2;
  }
  // Pin the pool, nn::Matrix and the annotate kernels before the first
  // setup trains M; Warper::Initialize applies the same config again.
  warper::core::WarperConfig config;
  config.parallel.threads = perfbench::kPoolThreads;
  warper::core::ApplyParallelConfig(config.parallel);

  perfbench::Report report;
  if (args.workload == "serve") {
    perfbench::RunServeWorkload(args, &report);
  } else {
    perfbench::RunAdaptWorkload(args, &report);
  }
  // failed_share reads 0 in a healthy run, which no gated metric may, so
  // it rides in the detail line beside the result's failed count.
  report.Detail("failed_share",
                static_cast<double>(report.failed) /
                    static_cast<double>(std::max<uint64_t>(1, report.attempted)));
  // The kernels are resolved by now (first use), so the stamp names them.
  std::cout << StampJson(args) << "\n";
  std::cout << "{\"detail\": " << report.DetailJson() << "}\n";
  std::cout << "{\"correct\": " << (report.correct() ? "true" : "false")
            << ", \"attempted\": " << report.attempted
            << ", \"failed\": " << report.failed
            << ", \"metrics\": " << report.MetricsJson() << "}" << std::endl;
  for (const std::string& failure : report.failures()) {
    std::cerr << "check failed: " << failure << "\n";
  }
  return report.correct() ? 0 : 1;
}
