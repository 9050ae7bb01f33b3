// perfbench_harness: the benchmark's timing program. perfbench/run.py runs
// one mode per fresh process and reads the JSON object printed as the last
// line of stdout.
//
//   pipeline        one end-to-end repetition of `pdtfe pipeline`'s public
//                   call sequence, metrics and tracing off, each call timed
//                   from outside
//   pipeline-trace  the traced pass: a single-threaded layer-by-layer
//                   replay of every item (spans written as Chrome trace),
//                   then run_batch with metrics on for the program counters
//   schedule        simulate_work_sharing over a generated cost file
//   schedule-trace  the same, with the schedule layer timed alone
//   schedule-input  write the scheduling workload's cost file for a seed
//   host            compiler / build type / sanitizer stanza
//
// Pipeline modes take `pdtfe pipeline`'s flags (--in, --ranks, --fields,
// --grid, --length, --field, --audit, --checkpoint-dir, --threads,
// --compute-ahead) and parse them with EngineConfig::from_cli, exactly as
// the CLI does.
#pragma once

#include "util/cli.h"

namespace perfbench {

int run_pipeline(const dtfe::CliArgs& args);
int run_pipeline_trace(const dtfe::CliArgs& args);
int run_schedule(const dtfe::CliArgs& args, bool traced);
int run_schedule_input(const dtfe::CliArgs& args);

}  // namespace perfbench
