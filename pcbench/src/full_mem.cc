/**
 * @file
 * Workload full_mem: one job with 64 MiB of state on MemStorage,
 * N=2 concurrent checkpoints, p=3 writers, 4 MiB chunks, CRC on, a
 * checkpoint every iteration after 20 ms of modeled compute. The
 * paper's core pipeline does the work (GPU copy -> CRC -> striped
 * write -> commit CAS), then one full-image recovery.
 */

#include <atomic>
#include <cstring>
#include <memory>
#include <mutex>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/slot_store.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "util/rng.h"
#include "percentile.h"
#include "workloads.h"

namespace pcbench {
namespace {

using namespace pccheck;

constexpr Bytes kState = 64 * kMiB;
constexpr Bytes kChunk = 4 * kMiB;
constexpr Seconds kCompute = 0.020;
constexpr int kSetups = 5;
/** Requests an end-to-end run makes at least, so the p90 has its
 *  samples even when checkpoints run slower than the window allows. */
constexpr std::uint64_t kMinRequests = kMinLatencySamples + 10;
constexpr int kRecoveries = 9;
constexpr std::uint64_t kWarmupIterations = 3;

PCcheckConfig
job_config(Bytes chunk)
{
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.writers_per_checkpoint = 3;
    config.chunk_bytes = chunk;
    config.compute_crc = true;
    config.per_writer_bytes_per_sec = 0;
    config.psan = false;
    return config;
}

/** What a crash at one storage op left behind. */
struct Capture {
    bool taken = false;
    std::optional<std::uint64_t> acked;
    std::vector<std::uint8_t> image;
};

/** Storage ops of one crash run: total, and spent formatting. */
struct OpCount {
    std::uint64_t total = 0;
    std::uint64_t format = 0;
};

/** Short seeded run on CrashSimStorage; captures the durable image at
 *  storage op @p crash_op (0: never). */
OpCount
crash_run(std::uint64_t seed, std::uint64_t crash_op, Capture* capture)
{
    constexpr Bytes kSmall = kMiB;
    constexpr std::uint64_t kIterations = 24;
    SimGpu gpu(unthrottled_gpu(kSmall));
    TrainingState state(gpu, kSmall);
    seed_state(state, seed, 0);
    CrashSimStorage media(SlotStore::required_size(3, kSmall),
                          StorageKind::kSsdMsync, seed, 0.5);
    std::atomic<std::uint64_t> ops{0};
    std::atomic<PCcheckCheckpointer*> live{nullptr};
    std::mutex capture_mu;
    media.set_observe_hook([&](const StorageOp&) {
        if (ops.fetch_add(1) + 1 != crash_op) {
            return;
        }
        std::lock_guard<std::mutex> lock(capture_mu);
        // Acknowledged before the image is taken, so it must survive.
        capture->acked = published_iteration(live.load());
        capture->image = media.crash_image();
        capture->taken = true;
    });
    OpCount count;
    {
        PCcheckCheckpointer ck(state, media, job_config(256 * kKiB));
        count.format = ops.load();
        live = &ck;
        for (std::uint64_t it = 1; it <= kIterations; ++it) {
            ck.before_update(it);
            state.stamp(it);
            ck.request_checkpoint(it);
        }
        ck.finish();
        live = nullptr;
        if (capture != nullptr && !capture->taken) {
            capture->acked = ck.slot_store().last_published()->iteration;
            capture->image = media.crash_image();
            capture->taken = true;
        }
    }
    media.set_observe_hook(nullptr);
    count.total = ops.load();
    return count;
}

/** Crash at a seeded op after the device is formatted, discard
 *  unflushed lines, recover, and require a full checkpoint at or past
 *  the last acknowledged one. */
void
crash_leg(std::uint64_t seed)
{
    const OpCount ops = crash_run(seed, 0, nullptr);
    Rng rng(seed ^ 0xC4A5400000000001ULL);
    Capture capture;
    crash_run(seed, ops.format + 1 + rng.next_below(ops.total - ops.format),
              &capture);
    MemStorage dead(capture.image.size());
    std::memcpy(dead.raw(), capture.image.data(), capture.image.size());
    std::vector<std::uint8_t> image;
    const auto recovered = recover_latest(dead, &image);
    if (capture.acked) {
        gate(recovered && recovered->iteration >= *capture.acked,
             "full_mem crash leg: recovery lost an acknowledged "
             "checkpoint");
    }
    if (recovered) {
        gate(matches_stamp_oracle(image, seed, 0, recovered->iteration),
             "full_mem crash leg: recovered image is not the stamped "
             "state");
    }
}

}  // namespace

RunResult
run_full_mem(const Options& opt, double seconds, bool traced)
{
    RunResult out;
    out.per_layer = empty_per_layer();
    calibrate(kChunk, &out.per_layer);

    SimGpu gpu(unthrottled_gpu(kState));
    TrainingState state(gpu, kState);
    seed_state(state, opt.seed, 0);
    MemStorage media(SlotStore::required_size(3, kState));
    CountingStorage device(media);

    // Set-up: format + staging allocation, repeated; the last one runs.
    std::vector<double> setup_s;
    std::unique_ptr<PCcheckCheckpointer> ck;
    for (int i = 0; i < kSetups; ++i) {
        ck.reset();
        const double t0 = now_s();
        ck = std::make_unique<PCcheckCheckpointer>(state, device,
                                                   job_config(kChunk));
        setup_s.push_back(now_s() - t0);
    }
    const std::uint64_t threads_peak = thread_count();
    // Warm-up, untimed: one checkpoint per slot, so every slot's pages
    // are touched before the window opens.
    std::uint64_t it = 0;
    for (; it < kWarmupIterations; ++it) {
        gpu.launch_kernel(kCompute);
        ck->before_update(it + 1);
        state.stamp(it + 1);
        ck->request_checkpoint(it + 1);
    }
    ck->finish();
    const CheckpointerStats warm = ck->stats();

    DurabilityProbe probe({[&ck] { return published_iteration(ck.get()); }});
    device.watch_records({0}, SlotStore::required_size(1, 0),
                         [&probe](std::size_t w, double t) {
                             probe.on_record_persisted(w, t);
                         });
    device.reset_counters();
    set_tracing(traced);

    TimedCheckpointer driver(*ck, /*sync_checkpoints=*/false);
    const double start = now_s();
    const double deadline = start + seconds;
    const double hard_stop = start + 3 * seconds;
    const std::uint64_t min_requests = opt.trace ? 0 : kMinRequests;
    for (;;) {
        const double now = now_s();
        if ((now >= deadline && driver.calls().requests >= min_requests) ||
            now >= hard_stop) {
            break;
        }
        ++it;
        gpu.launch_kernel(kCompute);
        driver.before_update(it);
        state.stamp(it);
        driver.request_checkpoint(it);
    }
    const double window = now_s() - start;
    driver.finish();
    const double drained = now_s();
    probe.close();
    device.watch_records({}, 0, nullptr);
    const auto spans = summarize_trace(Tracer::global().snapshot());
    set_tracing(false);
    const CountingStorage::Counters io = device.counters();
    CheckpointerStats stats = driver.stats();
    stats.requested -= warm.requested;
    stats.completed -= warm.completed;
    stats.aborted -= warm.aborted;
    const auto durable = probe.durable(0);
    ck.reset();

    Latencies latency;
    append_async_latencies(durable, driver.calls(), &latency.full);
    gate(!durable.empty(), "full_mem: no checkpoint became durable");
    const std::uint64_t newest = durable.back().first;

    // Recovery from the media the run left behind, into a fresh buffer
    // each time; each image is then checked against the stamp oracle,
    // outside the timed call.
    std::vector<double> recover_s;
    device.reset_counters();
    for (int r = 0; r < kRecoveries; ++r) {
        std::vector<std::uint8_t> image;
        const double t0 = now_s();
        const auto recovered = recover_latest(device, &image);
        recover_s.push_back(now_s() - t0);
        gate(recovered && recovered->iteration >= newest &&
                 matches_stamp_oracle(image, opt.seed, 0,
                                      recovered->iteration),
             "full_mem: recovered image is not the newest durable "
             "stamped state");
    }
    const CountingStorage::Counters recovery_io = device.counters();
    crash_leg(opt.seed);

    out.attempted = driver.calls().requests;
    out.failed = 0;
    Metrics& e = out.end_to_end;
    e["train_it_s"] = {
        static_cast<double>(it - kWarmupIterations) / window, "it/s"};
    e["durable_points_s"] = {
        static_cast<double>(stats.completed) /
            (drained - driver.calls().first_request),
        "1/s"};
    put_latency(latency, {}, !opt.trace, &e, &out.per_layer);
    e["stall_frac"] = {driver.blocked_s() / window, "ratio"};
    e["ckpt_durable_frac"] = {static_cast<double>(stats.completed) /
                                  static_cast<double>(out.attempted),
                              "ratio"};
    e["recover_s"] = {median(recover_s), "s"};
    e["setup_s"] = {median(setup_s), "s"};
    e["peak_rss_mib"] = {peak_rss_mib(), "MiB"};

    Metrics& m = out.per_layer;
    put_orch({&driver}, stats, &m);
    put_trace_layers(spans, &m);
    put_storage(io, static_cast<double>(stats.completed) * kState, &m);
    put_recovery_reads(recovery_io, kRecoveries, &m);
    m["proc.threads_peak"].value = static_cast<double>(threads_peak);

    if (traced) {
        // Recovery split: time outside storage reads, and read rate.
        std::vector<double> plain_s;
        std::vector<double> read_s;
        for (int r = 0; r < kRecoveries; ++r) {
            std::vector<std::uint8_t> image;
            device.reset_counters();
            const double t0 = now_s();
            const auto recovered = recover_to_buffer(device, &image);
            plain_s.push_back(now_s() - t0);
            read_s.push_back(device.counters().read_s);
            gate(recovered.has_value(), "full_mem: recover_to_buffer failed");
        }
        const double plain = median(plain_s);
        m["core.recovery.gbps"].value =
            static_cast<double>(kState) / plain * 1e-9;
        m["core.recovery.cpu_s"].value =
            std::max(0.0, plain - median(read_s));
    }
    return out;
}

}  // namespace pcbench
