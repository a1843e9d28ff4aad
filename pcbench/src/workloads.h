#ifndef PCBENCH_WORKLOADS_H_
#define PCBENCH_WORKLOADS_H_

/**
 * @file
 * The benchmark's workloads. Each runs one timed window of @p seconds
 * (tracing on when @p traced), checks its outputs, runs its crash leg,
 * and returns every metric it measured. A failed check throws
 * GateFailure.
 */

#include "workload_common.h"

namespace pcbench {

RunResult run_full_mem(const Options& opt, double seconds, bool traced);
RunResult run_delta_file(const Options& opt, double seconds, bool traced);
RunResult run_fleet(const Options& opt, double seconds, bool traced);

}  // namespace pcbench

#endif  // PCBENCH_WORKLOADS_H_
