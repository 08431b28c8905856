// adaptidx_perfbench: runs one workload of the repository benchmark and
// prints its metrics as the last line of stdout. `run.py` builds and
// invokes it; see README.md.
//
//   adaptidx_perfbench --workload <name> --seed <n> --seconds <s>
//                      --trace <0|1> --work-dir <dir> [--spans <file>]

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "bench.h"

namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "adaptidx_perfbench: %s\nusage: adaptidx_perfbench --workload "
               "<cold_converge|hot_wire|durable_mix> --seed <n> --seconds "
               "<s> --trace <0|1> --work-dir <dir> [--spans <file>]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  perfbench::RunConfig cfg;
  std::string workload;
  int trace = -1;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string key = argv[i];
    const std::string value = argv[i + 1];
    if (key == "--workload") {
      workload = value;
    } else if (key == "--seed") {
      cfg.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (key == "--seconds") {
      cfg.seconds = std::atoi(value.c_str());
    } else if (key == "--trace") {
      trace = std::atoi(value.c_str());
    } else if (key == "--work-dir") {
      cfg.work_dir = value;
    } else if (key == "--spans") {
      cfg.spans_path = value;
    } else {
      return Usage(("unknown argument " + key).c_str());
    }
  }
  if (argc % 2 != 1) return Usage("arguments come in pairs");
  if (!perfbench::WorkloadByName(workload, &cfg.workload)) {
    return Usage("unknown workload");
  }
  if (cfg.seconds < 1 || (trace != 0 && trace != 1) || cfg.work_dir.empty()) {
    return Usage("missing or invalid --seconds, --trace or --work-dir");
  }
  std::filesystem::create_directories(cfg.work_dir);

  const double fsync_us = perfbench::FsyncFloorUs(cfg.work_dir, 100);
  std::printf("%s\n", perfbench::HostFingerprint(cfg, fsync_us).c_str());
  std::fflush(stdout);

  const perfbench::RunResult res =
      trace == 1 ? perfbench::RunTraced(cfg) : perfbench::RunEndToEnd(cfg);
  for (const std::string& e : res.wrong) {
    std::fprintf(stderr, "wrong answer: %s\n", e.c_str());
  }
  std::printf("%s\n", perfbench::ToJson(res).c_str());
  return res.correct ? 0 : 1;
}
