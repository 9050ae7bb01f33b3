#include <cstdio>
#include <cstring>
#include <string>

#include "harness.h"
#include "spans.h"
#include "util/error.h"

namespace {

#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kSanitized = true;
#else
constexpr bool kSanitized = false;
#endif

#ifdef NDEBUG
constexpr bool kAssertsOff = true;
#else
constexpr bool kAssertsOff = false;
#endif

bool sanitized() {
  return kSanitized ||
         std::string(PERFBENCH_CXX_FLAGS).find("-fsanitize") != std::string::npos;
}

/// A timing taken from a debug or sanitizer build says nothing about the
/// program's speed.
bool optimized_build() {
  return kAssertsOff && !sanitized() &&
         std::strcmp(PERFBENCH_BUILD_TYPE, "Debug") != 0;
}

int host() {
  perfbench::JsonObject out;
  out.str("compiler", __VERSION__);
  out.str("build_type", PERFBENCH_BUILD_TYPE);
  out.str("cxx_flags", PERFBENCH_CXX_FLAGS);
  out.boolean("ndebug", kAssertsOff);
  out.boolean("sanitized", sanitized());
  out.boolean("optimized", optimized_build());
  out.print();
  return 0;
}

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_harness "
               "{pipeline|pipeline-trace|schedule|schedule-trace|schedule-input|host} "
               "[--flag value ...]\n");
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  if (mode == "host") return host();
  if (!optimized_build()) {
    std::fprintf(stderr,
                 "perfbench_harness: refusing to time a %s build "
                 "(flags: %s)\n",
                 PERFBENCH_BUILD_TYPE, PERFBENCH_CXX_FLAGS);
    return 3;
  }
  try {
    const dtfe::CliArgs args(argc, argv);
    if (mode == "pipeline") return perfbench::run_pipeline(args);
    if (mode == "pipeline-trace") return perfbench::run_pipeline_trace(args);
    if (mode == "schedule") return perfbench::run_schedule(args, false);
    if (mode == "schedule-trace") return perfbench::run_schedule(args, true);
    if (mode == "schedule-input") return perfbench::run_schedule_input(args);
  } catch (const dtfe::Error& e) {
    std::fprintf(stderr, "perfbench_harness: %s\n", e.what());
    return 1;
  }
  return usage();
}
