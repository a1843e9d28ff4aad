/**
 * @file
 * Workload delta_file: one job with 64 MiB of state on a FileStorage
 * (mmap + msync) over an in-memory file, 10 ms of modeled compute
 * (spun, see spin_for) per iteration. Sparse updates touch 1% of the
 * state per iteration; every iteration seals a delta frame, every 100th
 * also requests a full checkpoint, which streams to one in-process peer
 * replica at quorum 1.
 * The run stops mid-chain, so recovery replays frames. Small CRC-framed
 * appends, msync, replication and delta replay do the work here.
 */

#include <fcntl.h>
#include <sys/mman.h>
#include <unistd.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <memory>
#include <mutex>

#include "core/orchestrator.h"
#include "core/recovery.h"
#include "core/recovery_planner.h"
#include "core/slot_store.h"
#include "net/network.h"
#include "remote/replica_source.h"
#include "remote/replica_store.h"
#include "remote/replication.h"
#include "storage/crash_sim.h"
#include "storage/file_storage.h"
#include "storage/mem_storage.h"
#include "util/rng.h"
#include "percentile.h"
#include "workloads.h"

namespace pcbench {
namespace {

using namespace pccheck;

constexpr Bytes kState = 64 * kMiB;
constexpr Bytes kChunk = 4 * kMiB;
constexpr Bytes kDeltaLog = 192 * kMiB;
constexpr Seconds kCompute = 0.010;
constexpr std::uint64_t kFullEvery = 100;
constexpr double kFraction = 0.01;
/** Frames on the newest full checkpoint's chain when the run ends. */
constexpr std::uint64_t kMidChain = 10;
constexpr int kSetups = 5;
constexpr int kRecoveries = 5;

PCcheckConfig
job_config(Bytes chunk, Bytes delta_log)
{
    PCcheckConfig config;
    config.concurrent_checkpoints = 2;
    config.writers_per_checkpoint = 3;
    config.chunk_bytes = chunk;
    config.compute_crc = true;
    config.per_writer_bytes_per_sec = 0;
    config.delta_log_bytes = delta_log;
    config.psan = false;
    return config;
}

/** The state after sparse updates 1..@p iteration (shadow replay). */
std::vector<std::uint8_t>
shadow_at(Bytes len, std::uint64_t seed, std::uint64_t iteration)
{
    std::vector<std::uint8_t> shadow(len);
    fill_state(shadow.data(), len, seed, 0);
    TrainingState::stamp_buffer(shadow.data(), len, 0);
    for (std::uint64_t it = 1; it <= iteration; ++it) {
        TrainingState::sparse_update_buffer(shadow.data(), len, it,
                                            kFraction, seed);
    }
    return shadow;
}

/**
 * An anonymous in-memory file (memfd) reachable by path, so FileStorage
 * runs its real mmap + msync path without a disk underneath. The
 * shared VM disk's flush latency drifts by tens of percent from minute
 * to minute, which would swamp any code change; the disk's own msync
 * cost is reported by disk_persist_ms instead.
 */
class MemFile {
  public:
    /** Allocates all @p bytes up front, so the timed window never
     *  pays first-touch page allocation. */
    explicit MemFile(Bytes bytes)
        : fd_(::memfd_create("pcbench-delta-file", 0))
    {
        gate(fd_ >= 0 && ::posix_fallocate(fd_, 0,
                                           static_cast<off_t>(bytes)) == 0,
             "delta_file: cannot allocate the in-memory file");
    }
    ~MemFile() { ::close(fd_); }
    MemFile(const MemFile&) = delete;
    MemFile& operator=(const MemFile&) = delete;
    std::string path() const { return "/proc/self/fd/" + std::to_string(fd_); }

  private:
    int fd_;
};

/**
 * Reference for the real disk under the checkout: median milliseconds
 * of one frame-sized write + msync on a FileStorage in @p dir (the
 * file is kept between runs).
 */
double
disk_persist_ms(const std::string& dir)
{
    constexpr Bytes kFrame = 656 * kKiB;
    constexpr int kReps = 15;
    std::filesystem::create_directories(dir);
    FileStorage disk(dir + "/disk_probe.img", 4 * kMiB);
    std::vector<std::uint8_t> frame(kFrame);
    fill_state(frame.data(), kFrame, 3, 3);
    std::vector<double> ms;
    for (int r = 0; r < kReps; ++r) {
        const Bytes offset = (r % 4) * kMiB;
        const double t0 = now_s();
        gate(disk.write(offset, frame.data(), kFrame).ok() &&
                 disk.persist(offset, kFrame).ok(),
             "delta_file: disk reference write failed");
        ms.push_back((now_s() - t0) * 1e3);
    }
    return median(ms);
}

/** One in-process peer on an unthrottled, zero-latency fabric. */
struct PeerReplica {
    SimNetwork net{[] {
        NetworkConfig config;
        config.nodes = 2;
        config.nic_bytes_per_sec = 0;
        config.latency = 0;
        return config;
    }()};
    ReplicaStore store;
    ReplicationEngine engine{net, 0,
                             [] {
                                 ReplicationConfig config;
                                 config.replicas = 1;
                                 config.quorum = 1;
                                 return config;
                             }(),
                             {ReplicaPeer{1, &store}}};
};

/**
 * Crash leg: a short seeded delta run on CrashSimStorage, crashed at
 * kCrashPoints seeded storage ops after the format (unflushed lines
 * discarded by the simulator). Gates the documented floor (docs/DELTA_LOG.md): recovery
 * finds a full checkpoint at or past the last acknowledged (published)
 * one, is no newer than the last frame requested, and equals the
 * shadow replay byte for byte. Acknowledged frames that recovery does
 * not reach are counted, not gated: recover_latest bases on the newest
 * full checkpoint even when an older base's chain reaches further.
 * @return acknowledged frames lost, summed over the crash points.
 */
std::uint64_t
crash_leg(std::uint64_t seed)
{
    constexpr Bytes kSmall = kMiB;
    constexpr std::uint64_t kIterations = 30;
    constexpr std::uint64_t kSmallFullEvery = 8;
    constexpr int kCrashPoints = 4;
    struct Capture {
        bool taken = false;
        std::optional<std::uint64_t> acked_full;
        std::uint64_t acked_frame = 0;
        std::uint64_t requested = 0;
        std::vector<std::uint8_t> image;
    };
    std::uint64_t format_ops = 0;
    const auto run = [&](std::uint64_t crash_op, Capture* capture) {
        SimGpu gpu(unthrottled_gpu(kSmall));
        TrainingState state(gpu, kSmall);
        seed_state(state, seed, 0);
        CrashSimStorage media(SlotStore::required_size(3, kSmall, kMiB),
                              StorageKind::kSsdMsync, seed, 0.5);
        std::atomic<std::uint64_t> ops{0};
        std::atomic<std::uint64_t> acked_frame{0};
        std::atomic<std::uint64_t> requested{0};
        std::atomic<PCcheckCheckpointer*> live{nullptr};
        std::mutex capture_mu;
        const auto take = [&] {
            // Acknowledgements are read before the image is taken.
            capture->acked_full = published_iteration(live.load());
            capture->acked_frame = acked_frame.load();
            capture->requested = requested.load();
            capture->image = media.crash_image();
            capture->taken = true;
        };
        media.set_observe_hook([&](const StorageOp&) {
            if (ops.fetch_add(1) + 1 == crash_op) {
                std::lock_guard<std::mutex> lock(capture_mu);
                take();
            }
        });
        {
            PCcheckCheckpointer ck(state, media,
                                   job_config(256 * kKiB, kMiB));
            format_ops = ops.load();
            live = &ck;
            ck.request_checkpoint(0);
            ck.finish();
            for (std::uint64_t it = 1; it <= kIterations; ++it) {
                ck.before_update(it);
                state.sparse_update(it, kFraction, seed);
                requested.store(it);
                const std::uint64_t frames = ck.stats().delta_frames;
                ck.request_delta(it);
                if (ck.stats().delta_frames > frames) {
                    acked_frame.store(it);
                }
                if (it % kSmallFullEvery == 0) {
                    ck.request_checkpoint(it);
                }
            }
            ck.finish();
            std::lock_guard<std::mutex> lock(capture_mu);
            if (capture != nullptr && !capture->taken) {
                take();
            }
            live = nullptr;
        }
        media.set_observe_hook(nullptr);
        return ops.load();
    };
    const std::uint64_t total = run(0, nullptr);
    Rng rng(seed ^ 0xC4A5400000000002ULL);
    std::uint64_t lost = 0;
    for (int c = 0; c < kCrashPoints; ++c) {
        Capture capture;
        run(format_ops + 1 + rng.next_below(total - format_ops), &capture);
        MemStorage dead(capture.image.size());
        std::memcpy(dead.raw(), capture.image.data(), capture.image.size());
        std::vector<std::uint8_t> image;
        const auto recovered = recover_latest(dead, &image);
        if (capture.acked_full) {
            gate(recovered && recovered->iteration >= *capture.acked_full,
                 "delta_file crash leg: recovery lost an acknowledged full "
                 "checkpoint");
        }
        if (recovered) {
            gate(recovered->iteration <= capture.requested,
                 "delta_file crash leg: recovered a frame never requested");
            gate(image == shadow_at(kSmall, seed, recovered->iteration),
                 "delta_file crash leg: recovered image differs from the "
                 "shadow replay");
        }
        const std::uint64_t reached = recovered ? recovered->iteration : 0;
        lost += capture.acked_frame > reached ? capture.acked_frame - reached
                                              : 0;
    }
    return lost;
}

/**
 * True once the newest full checkpoint requested (@p full_iteration) is
 * published and the delta chain has re-based onto it, so recovery
 * replays this run's last frames on top of that checkpoint.
 */
bool
chain_on_newest_full(PCcheckCheckpointer& ck, std::uint64_t full_iteration)
{
    const auto base = ck.slot_store().last_published();
    return base && base->iteration == full_iteration &&
           ck.delta_log()->epoch_base() == base->counter;
}

}  // namespace

RunResult
run_delta_file(const Options& opt, double seconds, bool traced)
{
    RunResult out;
    out.per_layer = empty_per_layer();
    calibrate(kChunk, &out.per_layer);

    SimGpu gpu(unthrottled_gpu(kState));
    TrainingState state(gpu, kState);
    seed_state(state, opt.seed, 0);
    out.per_layer["ref.disk_persist_ms"].value = disk_persist_ms(opt.workdir);
    const Bytes file_bytes = SlotStore::required_size(3, kState, kDeltaLog);
    const MemFile media(file_bytes);
    FileStorage file(media.path(), file_bytes);
    CountingStorage device(file);
    PeerReplica peer;

    std::vector<double> setup_s;
    std::unique_ptr<PCcheckCheckpointer> ck;
    for (int i = 0; i < kSetups; ++i) {
        ck.reset();
        const double t0 = now_s();
        ck = std::make_unique<PCcheckCheckpointer>(
            state, device, job_config(kChunk, kDeltaLog));
        ck->attach_replication(&peer.engine);
        setup_s.push_back(now_s() - t0);
    }
    const std::uint64_t threads_peak = thread_count();
    // Warm-up, untimed: the base full checkpoint the chain hangs off,
    // then one whole cycle (frames, and the full checkpoint at its end)
    // so replica, log and slot pages are in place when the window opens.
    ck->request_checkpoint(0);
    ck->finish();
    std::uint64_t it = 0;
    for (; it < kFullEvery; ++it) {
        spin_for(kCompute);
        ck->before_update(it + 1);
        state.sparse_update(it + 1, kFraction, opt.seed);
        ck->request_delta(it + 1);
    }
    ck->request_checkpoint(it);
    ck->finish();
    const CheckpointerStats warm = ck->stats();
    const std::uint64_t warm_degraded = peer.engine.degraded();

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
    // The run ends at the first iteration past the deadline at which
    // the chain based on the newest full checkpoint holds exactly
    // kMidChain frames, so every run's recovery replays the same count.
    std::uint64_t epoch_frames = 0;
    for (;;) {
        const double now = now_s();
        if ((now >= deadline && epoch_frames == kMidChain) ||
            now >= hard_stop) {
            break;
        }
        ++it;
        spin_for(kCompute);
        driver.before_update(it);
        state.sparse_update(it, kFraction, opt.seed);
        driver.request_delta(it);
        if (epoch_frames > 0) {
            ++epoch_frames;
        } else if (chain_on_newest_full(*ck, it - it % kFullEvery)) {
            epoch_frames = 1;
        }
        if (it % kFullEvery == 0) {
            driver.request_checkpoint(it);
            epoch_frames = 0;
        }
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
    stats.delta_frames -= warm.delta_frames;
    stats.delta_bytes -= warm.delta_bytes;
    stats.delta_skipped -= warm.delta_skipped;
    const std::uint64_t degraded = peer.engine.degraded() - warm_degraded;
    const auto durable_full = probe.durable(0);
    ck.reset();

    Latencies latency;
    latency.sync = driver.calls().sync_latency;
    append_async_latencies(durable_full, driver.calls(), &latency.full);
    // Latency windows are whole 100-iteration cycles, each opened by a
    // full checkpoint request, so every window holds the same mix.
    std::vector<double> cycle_starts;
    for (const auto& [iteration, t] : driver.calls().request_time) {
        cycle_starts.push_back(t);
    }
    std::uint64_t newest = driver.calls().last_sync_iteration;
    if (!durable_full.empty()) {
        newest = std::max(newest, durable_full.back().first);
    }
    gate(newest > 0, "delta_file: nothing became durable");

    // Recovery (base image + frame replay) from the file the run left
    // behind; each image is then compared byte for byte with the shadow
    // replay, outside the timed call.
    const std::vector<std::uint8_t> shadow = shadow_at(kState, opt.seed, newest);
    std::vector<double> recover_s;
    std::uint64_t replayed = 0;
    device.reset_counters();
    for (int r = 0; r < kRecoveries; ++r) {
        std::vector<std::uint8_t> image;
        const double t0 = now_s();
        const auto recovered = recover_latest(device, &image);
        recover_s.push_back(now_s() - t0);
        gate(recovered && recovered->iteration == newest && image == shadow,
             "delta_file: recovered image is not the shadow replay of the "
             "newest durable frame");
        replayed = recovered->delta_frames;
    }
    const CountingStorage::Counters recovery_io = device.counters();
    const std::uint64_t crash_frames_lost = crash_leg(opt.seed);

    const std::uint64_t points = stats.completed + stats.delta_frames;
    const std::uint64_t durable_points = points - std::min(points, degraded);
    out.attempted = driver.calls().requests + driver.calls().deltas;
    out.failed = 0;
    Metrics& e = out.end_to_end;
    e["train_it_s"] = {static_cast<double>(it - kFullEvery) / window,
                       "it/s"};
    e["durable_points_s"] = {static_cast<double>(durable_points) /
                                 (drained - driver.calls().first_request),
                             "1/s"};
    put_latency(latency, cycle_starts, !opt.trace, &e, &out.per_layer);
    e["stall_frac"] = {driver.blocked_s() / window, "ratio"};
    e["ckpt_durable_frac"] = {static_cast<double>(durable_points) /
                                  static_cast<double>(out.attempted),
                              "ratio"};
    e["recover_s"] = {median(recover_s), "s"};
    e["setup_s"] = {median(setup_s), "s"};
    e["peak_rss_mib"] = {peak_rss_mib(), "MiB"};

    Metrics& m = out.per_layer;
    put_orch({&driver}, stats, &m);
    put_trace_layers(spans, &m);
    put_storage(io,
                static_cast<double>(stats.completed) * kState +
                    static_cast<double>(stats.delta_bytes),
                &m);
    put_recovery_reads(recovery_io, kRecoveries, &m);
    m["proc.threads_peak"].value = static_cast<double>(threads_peak);
    m["delta.frames"].value = static_cast<double>(stats.delta_frames);
    m["delta.bytes"].value = static_cast<double>(stats.delta_bytes);
    m["delta.skipped"].value = static_cast<double>(stats.delta_skipped);
    m["delta.replayed_frames"].value = static_cast<double>(replayed);
    m["delta.crash_frames_lost"].value =
        static_cast<double>(crash_frames_lost);
    m["remote.bytes_sent"].value =
        static_cast<double>(peer.engine.bytes_sent());
    m["remote.acks"].value = static_cast<double>(peer.engine.acks());
    m["remote.degraded"].value = static_cast<double>(degraded);

    if (traced) {
        // Replay cost: the same media with and without the frame chain,
        // and the base-image recovery split into reads and the rest.
        std::vector<double> latest_s;
        std::vector<double> plain_s;
        std::vector<double> read_s;
        std::vector<double> remote_s;
        for (int r = 0; r < kRecoveries; ++r) {
            std::vector<std::uint8_t> image;
            double t0 = now_s();
            gate(recover_latest(device, &image).has_value(),
                 "delta_file: recover_latest failed");
            latest_s.push_back(now_s() - t0);

            image = {};
            device.reset_counters();
            t0 = now_s();
            gate(recover_to_buffer(device, &image).has_value(),
                 "delta_file: recover_to_buffer failed");
            plain_s.push_back(now_s() - t0);
            read_s.push_back(device.counters().read_s);

            // Node-loss recovery: no local media, the peer's replica.
            image = {};
            RecoveryPlanner::Options options;
            options.salvage = false;
            options.replay_delta = false;
            options.quarantine = false;
            RecoveryPlanner planner(nullptr, options);
            ReplicaRecoverySource source(peer.net, 0,
                                         {ReplicaPeer{1, &peer.store}});
            planner.add_source(&source);
            t0 = now_s();
            const auto remote = planner.recover(&image);
            remote_s.push_back(now_s() - t0);
            gate(remote && remote->from_replica &&
                     image == shadow_at(kState, opt.seed,
                                        remote->result.iteration),
                 "delta_file: replica image is not the shadow replay");
        }
        const double plain = median(plain_s);
        m["delta.replay_s"].value =
            std::max(0.0, median(latest_s) - plain);
        m["core.recovery.gbps"].value =
            static_cast<double>(kState) / plain * 1e-9;
        m["core.recovery.cpu_s"].value =
            std::max(0.0, plain - median(read_s));
        m["remote.recover_s"].value = median(remote_s);
    }
    return out;
}

}  // namespace pcbench
