#ifndef PCBENCH_WORKLOAD_COMMON_H_
#define PCBENCH_WORKLOAD_COMMON_H_

/**
 * @file
 * Shared pieces of the three workloads: options, the metric record,
 * seeded state contents and their oracle, latency assembly, process
 * counters and the calibration leg.
 */

#include <cstdint>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/orchestrator.h"
#include "gpusim/gpu.h"
#include "probes.h"
#include "trainsim/training_state.h"

namespace pcbench {

/** Command-line options of one workload run. */
struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    /** Scratch directory for file-backed media (inside the checkout). */
    std::string workdir = ".";
};

/** A correctness-gate failure: the run prints no metrics. */
class GateFailure : public std::runtime_error {
  public:
    using std::runtime_error::runtime_error;
};

/** Abort the run through GateFailure unless @p ok. */
void gate(bool ok, const std::string& what);

struct Metric {
    double value = 0;
    std::string unit;
};
using Metrics = std::map<std::string, Metric>;

/** What one workload run measured. */
struct RunResult {
    Metrics end_to_end;
    Metrics per_layer;
    /** Durability requests the drivers made, and how many of those
     *  calls raised an error. */
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
};

/**
 * Fill @p len bytes of tenant @p tenant's state with seeded contents
 * (a counter-based hash, so any block can be regenerated alone).
 */
void fill_state(std::uint8_t* data, Bytes len, std::uint64_t seed,
                std::uint64_t tenant);

/** A SimGpu of @p memory bytes whose copies are not bandwidth-paced
 *  (pcie_bytes_per_sec = 0), so they time the copy code. */
pccheck::GpuConfig unthrottled_gpu(Bytes memory);

/** Iteration of the newest checkpoint @p ck durably published
 *  (nullopt before the first, or when @p ck is null). */
std::optional<std::uint64_t> published_iteration(
    pccheck::PCcheckCheckpointer* ck);

/** Seed @p state's device memory with fill_state and stamp iteration 0. */
void seed_state(pccheck::TrainingState& state, std::uint64_t seed,
                std::uint64_t tenant);

/**
 * True when @p image is byte for byte the state a stamped tenant holds
 * at @p iteration: fill_state contents with stamp markers on top.
 */
bool matches_stamp_oracle(const std::vector<std::uint8_t>& image,
                          std::uint64_t seed, std::uint64_t tenant,
                          std::uint64_t iteration);

/** Raw latency samples of one run, by kind of durability point. */
struct Latencies {
    /** Synchronous points (delta frames, coalesced records): the
     *  duration of the call that made each durable. */
    std::vector<LatencySample> sync;
    /** Asynchronous full checkpoints: request until the pointer record
     *  is persisted. */
    std::vector<LatencySample> full;
};

/** Latency samples of asynchronous checkpoints: durable time minus
 *  request time, for every durable point the probe resolved. */
void append_async_latencies(
    const std::vector<std::pair<std::uint64_t, double>>& durable,
    const TimedCheckpointer::Calls& calls, std::vector<LatencySample>* out);

/** Samples the p90 needs: at least ten beyond it. */
constexpr std::size_t kMinLatencySamples = 100;
/** Full checkpoints full_ckpt_latency_ms needs. */
constexpr std::size_t kMinFullSamples = 5;
/** Request-ordered windows the latency percentiles are taken over when
 *  the workload has no load cycle: as many as give each window
 *  kLatencyWindowSamples, at most kLatencyWindows. */
constexpr std::size_t kLatencyWindowSamples = 50;
constexpr std::size_t kLatencyWindows = 10;

/**
 * Latency metrics of one run. Into @p end_to_end: ckpt_latency_p50_ms
 * and ckpt_latency_p90_ms over every sample, each the median of the
 * windows' percentiles, and full_ckpt_latency_ms, the median over the
 * full checkpoints. Into @p per_layer: the sample counts.
 *
 * With two or more @p cycle_starts (request times that open a load
 * cycle), each window is one whole cycle [c_j, c_{j+1}), so every
 * window holds the same load mix; samples outside whole cycles are left
 * out of the percentiles. Otherwise the windows are equal
 * request-ordered slices. When @p reported (an end-to-end run) at least
 * kMinLatencySamples in windows and kMinFullSamples full checkpoints
 * are required.
 */
void put_latency(const Latencies& latencies,
                 std::vector<double> cycle_starts, bool reported,
                 Metrics* end_to_end, Metrics* per_layer);

/** VmHWM of this process in MiB. */
double peak_rss_mib();
/** Threads of this process right now. */
std::uint64_t thread_count();

/**
 * Calibration leg at @p chunk bytes: memcpy, crc32c and
 * SimGpu::copy_to_host throughput in GB/s, each the median of several
 * timed repetitions.
 */
void calibrate(Bytes chunk, Metrics* per_layer);

/** Per-layer metrics every workload prints, zero where the layer does
 *  not take part (the workloads overwrite what they measure). */
Metrics empty_per_layer();

/** Storage write-side metrics of the timed window from @p c;
 *  @p payload_bytes is the checkpoint data made durable (write_amp). */
void put_storage(const CountingStorage::Counters& c, double payload_bytes,
                 Metrics* per_layer);

/** Storage read metrics per recovery, from the counters of
 *  @p recoveries back-to-back recoveries. */
void put_recovery_reads(const CountingStorage::Counters& c, int recoveries,
                        Metrics* per_layer);

/** Trace-derived per-layer metrics common to the orchestrator
 *  workloads (copy, CRC self time, persist chunks, commit waits). */
void put_trace_layers(const std::map<std::string, SpanTotals>& spans,
                      Metrics* per_layer);

/** Orchestrator-boundary metrics from the driver-side decorators. */
void put_orch(const std::vector<const TimedCheckpointer*>& drivers,
              const pccheck::CheckpointerStats& stats, Metrics* per_layer);

/**
 * Modeled compute of one iteration: the driver spins until @p seconds
 * have passed, yielding its vCPU on every pass, as a CUDA host thread
 * waits on its stream under cudaDeviceScheduleYield. A driver that
 * sleeps instead leaves its vCPU idle every iteration, and on a shared
 * VM the wake-ups and cold caches that follow made fleet's round
 * throughput vary about twice as much from run to run, and
 * delta_file's frame p90 more. A driver that spins without yielding
 * holds its vCPU against the program's own snapshot and writer
 * threads: with one busy process beside fleet, its p90 rose 3.3x
 * spinning against 1.1-1.35x yielding.
 */
void spin_for(double seconds);

/** Run-wide tracing switch: resets and enables (or disables) the
 *  program's global Tracer. */
void set_tracing(bool on);

}  // namespace pcbench

#endif  // PCBENCH_WORKLOAD_COMMON_H_
