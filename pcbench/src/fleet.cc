/**
 * @file
 * Workload fleet: a CheckpointService over 2 MemStorage shards with
 * 32 tenants - 28 coalesced tenants of 4 KiB and 4 private-arena
 * tenants of 64 KiB. Four driver threads run lockstep rounds with a
 * barrier per round, so which tenant lags is set by the seeded
 * schedule rather than the OS scheduler. Most tenants checkpoint every
 * round after 2 ms of modeled compute (spun, see spin_for); one in
 * eight (two coalesced tenants per shard, at staggered phases)
 * checkpoints only once per 1.5 segment-ring laps. Per-request
 * coordination does the work: admission, arbiter, segment group
 * commit and reclaim gate, the shared writer pool.
 */

#include <algorithm>
#include <atomic>
#include <barrier>
#include <cstring>
#include <functional>
#include <malloc.h>
#include <memory>
#include <mutex>
#include <thread>

#include "core/slot_store.h"
#include "service/service.h"
#include "service/service_config.h"
#include "storage/crash_sim.h"
#include "storage/mem_storage.h"
#include "util/rng.h"
#include "percentile.h"
#include "workloads.h"

namespace pcbench {
namespace {

using namespace pccheck;

constexpr int kShards = 2;
constexpr int kTenants = 32;
constexpr int kDrivers = 4;
constexpr Bytes kSmall = 4 * kKiB;
constexpr Bytes kBig = 64 * kKiB;
/** Device memory holding every tenant's state. */
constexpr Bytes kGpuMemory = 4 * kMiB;
constexpr int kPrivatePerShard = 2;
constexpr int kRarePerShard = 2;
constexpr Bytes kRecordHeader = 64;
/** Set-ups timed together as one sample: one takes a fraction of a
 *  millisecond, and single set-ups fall into two modes about 2x apart
 *  whose mix varies from run to run. The batches together span about
 *  half a second, so a brief burst of host load moves a minority of
 *  them rather than the whole figure. */
constexpr int kSetupBatch = 40;
constexpr int kSetupBatches = 25;
/** Recoveries of the whole fleet (about 16 ms each), so together they
 *  span most of a second rather than a fraction. */
constexpr int kRecoveries = 45;
/** Allocation size below which freed memory stays in the process
 *  (glibc's largest mmap threshold). */
constexpr int kKeepAllocations = 32 << 20;
constexpr std::uint64_t kMinRounds = 100;
/** Untimed rounds before the window: three segment-ring laps. */
constexpr std::uint64_t kWarmupRounds = 450;
/** Rounds between samples of the process's thread count. */
constexpr std::uint64_t kThreadSampleRounds = 256;
/** Modeled compute of one training round, per driver. */
constexpr Seconds kRoundCompute = 0.002;

/** Service description; private tenants are the first kPrivatePerShard
 *  ids routed to each shard, everyone else coalesces. */
ServiceConfig
fleet_config(int tenants, Bytes segment_bytes, std::uint32_t segments)
{
    ServiceConfig config;
    config.shards = kShards;
    config.writer_threads = kDrivers;
    config.qos.enabled = true;
    // Far above the offered load: admission and the arbiter run their
    // bookkeeping but never refuse or pace.
    config.qos.device_budget_bytes_per_sec = 1e12;
    config.coalescer.threshold_bytes = 16 * kKiB;
    config.coalescer.segment_bytes = segment_bytes;
    config.coalescer.segments_per_backend = segments;
    int big_on_shard[kShards] = {0, 0};
    for (int id = 0; id < tenants; ++id) {
        TenantSpec spec;
        spec.id = static_cast<std::uint64_t>(id);
        spec.state_bytes = kSmall;
        int& big = big_on_shard[service_shard_of(spec.id, kShards)];
        if (big < kPrivatePerShard) {
            ++big;
            spec.state_bytes = kBig;
            spec.checkpoint.concurrent_checkpoints = 2;
            spec.checkpoint.writers_per_checkpoint = 1;
            spec.checkpoint.chunk_bytes = kBig;
            spec.checkpoint.compute_crc = true;
            spec.checkpoint.per_writer_bytes_per_sec = 0;
            spec.checkpoint.psan = false;
        }
        config.tenants.push_back(spec);
    }
    return config;
}

/** Per-tenant checkpoint cadence: every round, or (rare tenants) once
  *  every `period` rounds at a fixed phase. */
struct Schedule {
    std::vector<std::uint64_t> period;
    std::vector<std::uint64_t> phase;
    bool due(std::size_t tenant, std::uint64_t round) const
    {
        return (round + phase[tenant]) % period[tenant] == 0;
    }
};

Schedule
make_schedule(const ServiceConfig& config)
{
    Schedule schedule;
    schedule.period.assign(config.tenants.size(), 1);
    schedule.phase.assign(config.tenants.size(), 0);
    for (int s = 0; s < kShards; ++s) {
        std::vector<std::size_t> coalesced;
        for (std::size_t t = 0; t < config.tenants.size(); ++t) {
            const TenantSpec& spec = config.tenants[t];
            if (service_shard_of(spec.id, kShards) == s &&
                tenant_coalesced(spec, config.coalescer)) {
                coalesced.push_back(t);
            }
        }
        // One ring lap in rounds, at one record per coalesced tenant
        // per round; rare tenants wait 1.5 laps between checkpoints, at
        // staggered phases. The schedule is fixed so every seed offers
        // the same load (and the same abort pattern); the seed sets
        // the state contents.
        const Bytes ring = config.coalescer.segment_bytes *
                           config.coalescer.segments_per_backend;
        const std::uint64_t lap =
            ring / (coalesced.size() * (kSmall + kRecordHeader));
        const std::uint64_t period = lap + lap / 2;
        for (int k = 0; k < kRarePerShard; ++k) {
            schedule.period[coalesced[k]] = period;
            schedule.phase[coalesced[k]] = k * period / kRarePerShard;
        }
    }
    return schedule;
}

/** Resolve every tenant from @p backends and check it against the
 *  stamp oracle and its watermark; returns the seconds spent inside
 *  resolve_tenant (the checks are not timed). */
double
resolve_all(const ServiceConfig& config,
            const std::vector<StorageDevice*>& backends,
            const std::vector<TenantWatermark>& floor, std::uint64_t seed,
            const char* what)
{
    double resolve_s = 0;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        const std::uint64_t id = config.tenants[t].id;
        const double t0 = now_s();
        const TenantRecovery rec =
            CheckpointService::resolve_tenant(config, backends, id);
        resolve_s += now_s() - t0;
        if (floor[t].valid) {
            gate(rec.found && rec.result.iteration >= floor[t].iteration,
                 std::string(what) + ": tenant " + std::to_string(id) +
                     " recovered older than its durable watermark");
        }
        if (rec.found) {
            gate(matches_stamp_oracle(rec.image, seed, id,
                                      rec.result.iteration),
                 std::string(what) + ": tenant " + std::to_string(id) +
                     " image is not its stamped state");
        }
    }
    return resolve_s;
}

/** Crash one shard at a seeded op (after the format) of a short
 *  single-driver run;
 *  every tenant must resolve at or past its acknowledged watermark. */
void
crash_leg(std::uint64_t seed)
{
    constexpr int kCrashTenants = 8;
    constexpr std::uint64_t kRounds = 40;
    const ServiceConfig config = fleet_config(kCrashTenants, 64 * kKiB, 4);
    struct Capture {
        bool taken = false;
        std::vector<TenantWatermark> acked;
        std::vector<std::vector<std::uint8_t>> images;
    };
    std::uint64_t format_ops = 0;
    const auto run = [&](std::uint64_t crash_op, Capture* capture) {
        SimGpu gpu(unthrottled_gpu(kGpuMemory));
        std::vector<std::unique_ptr<TrainingState>> states;
        for (const TenantSpec& spec : config.tenants) {
            states.push_back(
                std::make_unique<TrainingState>(gpu, spec.state_bytes));
            seed_state(*states.back(), seed, spec.id);
        }
        std::vector<std::unique_ptr<CrashSimStorage>> media;
        std::vector<StorageDevice*> backends;
        for (int s = 0; s < kShards; ++s) {
            media.push_back(std::make_unique<CrashSimStorage>(
                plan_shard_layout(config, s).required_bytes,
                StorageKind::kSsdMsync, seed + s, 0.5));
            backends.push_back(media.back().get());
        }
        std::atomic<std::uint64_t> ops{0};
        std::atomic<CheckpointService*> live{nullptr};
        std::mutex capture_mu;
        const auto take = [&] {
            for (const TenantSpec& spec : config.tenants) {
                capture->acked.push_back(live.load()->watermark(spec.id));
            }
            for (auto& device : media) {
                capture->images.push_back(device->crash_image());
            }
            capture->taken = true;
        };
        media[0]->set_observe_hook([&](const StorageOp&) {
            if (ops.fetch_add(1) + 1 != crash_op) {
                return;
            }
            std::lock_guard<std::mutex> lock(capture_mu);
            if (live.load() != nullptr) {
                take();
            }
        });
        {
            CheckpointService service(config, backends);
            std::vector<Checkpointer*> sessions;
            for (std::size_t t = 0; t < config.tenants.size(); ++t) {
                sessions.push_back(
                    service.attach_tenant(config.tenants[t].id, *states[t]));
            }
            format_ops = ops.load();
            live = &service;
            for (std::uint64_t round = 1; round <= kRounds; ++round) {
                for (std::size_t t = 0; t < sessions.size(); ++t) {
                    sessions[t]->before_update(round);
                    states[t]->stamp(round);
                    sessions[t]->request_checkpoint(round);
                }
            }
            service.finish();
            {
                std::lock_guard<std::mutex> lock(capture_mu);
                if (capture != nullptr && !capture->taken) {
                    take();
                }
                live = nullptr;
            }
        }
        media[0]->set_observe_hook(nullptr);
        return ops.load();
    };
    const std::uint64_t total = run(0, nullptr);
    Rng rng(seed ^ 0xC4A5400000000003ULL);
    Capture capture;
    run(format_ops + 1 + rng.next_below(total - format_ops), &capture);
    std::vector<std::unique_ptr<MemStorage>> dead;
    std::vector<StorageDevice*> backends;
    for (const auto& image : capture.images) {
        dead.push_back(std::make_unique<MemStorage>(image.size()));
        std::memcpy(dead.back()->raw(), image.data(), image.size());
        backends.push_back(dead.back().get());
    }
    resolve_all(config, backends, capture.acked, seed, "fleet crash leg");
}

}  // namespace

RunResult
run_fleet(const Options& opt, double seconds, bool traced)
{
    RunResult out;
    out.per_layer = empty_per_layer();
    calibrate(kSmall, &out.per_layer);

    const ServiceConfig config = fleet_config(kTenants, kMiB, 8);
    const Schedule schedule = make_schedule(config);
    SimGpu gpu(unthrottled_gpu(kGpuMemory));
    std::vector<std::unique_ptr<TrainingState>> states;
    for (const TenantSpec& spec : config.tenants) {
        states.push_back(
            std::make_unique<TrainingState>(gpu, spec.state_bytes));
        seed_state(*states.back(), opt.seed, spec.id);
    }
    std::vector<std::unique_ptr<MemStorage>> media;
    std::vector<std::unique_ptr<CountingStorage>> shards;
    std::vector<StorageDevice*> backends;
    for (int s = 0; s < kShards; ++s) {
        media.push_back(std::make_unique<MemStorage>(
            plan_shard_layout(config, s).required_bytes));
        shards.push_back(std::make_unique<CountingStorage>(*media.back()));
        backends.push_back(shards.back().get());
    }

    // Set-up: service construction (backend format, writer pool) plus
    // tenant attach, repeated; the last one runs. One sample is the mean
    // over a batch of kSetupBatch set-ups (tear-down not timed); the
    // first batch warms the allocator and pages and is not kept. The
    // allocator keeps freed memory for reuse: by default it hands some
    // buffers back to the kernel at tear-down, and the set-ups that
    // fault them in again took about 1.8x longer, in a share that
    // varied from run to run.
    mallopt(M_MMAP_THRESHOLD, kKeepAllocations);
    mallopt(M_TRIM_THRESHOLD, kKeepAllocations);
    std::vector<double> setup_s;
    std::unique_ptr<CheckpointService> service;
    std::vector<Checkpointer*> sessions;
    for (int b = 0; b <= kSetupBatches; ++b) {
        double batch_s = 0;
        for (int i = 0; i < kSetupBatch; ++i) {
            service.reset();
            sessions.clear();
            const double t0 = now_s();
            service = std::make_unique<CheckpointService>(config, backends);
            for (std::size_t t = 0; t < config.tenants.size(); ++t) {
                sessions.push_back(service->attach_tenant(
                    config.tenants[t].id, *states[t]));
            }
            batch_s += now_s() - t0;
        }
        if (b > 0) {
            setup_s.push_back(batch_s / kSetupBatch);
        }
    }

    // Lockstep rounds on kDrivers threads, each owning every kDrivers-th
    // tenant; `done` is asked once per round, at the barrier.
    std::uint64_t rounds = 0;
    std::uint64_t threads_peak = thread_count();
    const auto run_rounds = [&](const std::vector<Checkpointer*>& ckpts,
                                const std::function<bool()>& done) {
        std::atomic<bool> stop{false};
        std::barrier round_end(kDrivers, [&]() noexcept {
            if (++rounds % kThreadSampleRounds == 0) {
                threads_peak = std::max(threads_peak, thread_count());
            }
            if (done()) {
                stop.store(true, std::memory_order_relaxed);
            }
        });
        std::vector<std::thread> threads;
        for (int d = 0; d < kDrivers; ++d) {
            threads.emplace_back([&, d] {
                for (;;) {
                    const std::uint64_t round = rounds + 1;
                    spin_for(kRoundCompute);
                    for (std::size_t t = d; t < ckpts.size(); t += kDrivers) {
                        ckpts[t]->before_update(round);
                        states[t]->stamp(round);
                        if (schedule.due(t, round)) {
                            ckpts[t]->request_checkpoint(round);
                        }
                    }
                    round_end.arrive_and_wait();
                    if (stop.load(std::memory_order_relaxed)) {
                        return;
                    }
                }
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
    };

    // Warm-up, untimed: long enough for the segment rings to lap past
    // the rare tenants' records, so the window sees the steady state.
    run_rounds(sessions, [&] { return rounds >= kWarmupRounds; });
    service->finish();
    std::vector<CheckpointerStats> warm;
    for (Checkpointer* session : sessions) {
        warm.push_back(session->stats());
    }
    const ServiceStats warm_service = service->stats();

    // Private tenants' pointer records: one probe window each.
    std::vector<DurabilityProbe::Query> queries;
    std::vector<std::size_t> window_tenant;
    std::vector<std::vector<Bytes>> bases(kShards);
    std::vector<std::vector<std::size_t>> base_window(kShards);
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        if (tenant_coalesced(config.tenants[t], config.coalescer)) {
            continue;
        }
        const std::uint64_t id = config.tenants[t].id;
        const int s = service_shard_of(id, kShards);
        for (const TenantPlacement& p : plan_shard_layout(config, s).tenants) {
            if (p.id == id) {
                base_window[s].push_back(queries.size());
                bases[s].push_back(p.window_offset);
            }
        }
        window_tenant.push_back(t);
        CheckpointService* svc = service.get();
        queries.push_back([svc, id]() -> std::optional<std::uint64_t> {
            const TenantWatermark wm = svc->watermark(id);
            return wm.valid ? std::optional<std::uint64_t>(wm.iteration)
                            : std::nullopt;
        });
    }
    DurabilityProbe probe(queries);
    for (int s = 0; s < kShards; ++s) {
        const std::vector<std::size_t> to_window = base_window[s];
        shards[s]->watch_records(
            bases[s], SlotStore::required_size(1, 0),
            [&probe, to_window](std::size_t w, double t) {
                probe.on_record_persisted(to_window[w], t);
            });
        shards[s]->reset_counters();
    }

    std::vector<std::unique_ptr<TimedCheckpointer>> drivers;
    for (std::size_t t = 0; t < config.tenants.size(); ++t) {
        drivers.push_back(std::make_unique<TimedCheckpointer>(
            *sessions[t],
            tenant_coalesced(config.tenants[t], config.coalescer)));
    }
    std::vector<Checkpointer*> timed;
    for (const auto& driver : drivers) {
        timed.push_back(driver.get());
    }
    set_tracing(traced);
    const double start = now_s();
    const double deadline = start + seconds;
    const double hard_stop = start + 3 * seconds;
    const std::uint64_t first_round = rounds;
    run_rounds(timed, [&] {
        const double now = now_s();
        return (now >= deadline && rounds - first_round >= kMinRounds) ||
               now >= hard_stop;
    });
    const double window = now_s() - start;
    service->finish();
    const double drained = now_s();
    probe.close();
    const auto spans = summarize_trace(Tracer::global().snapshot());
    set_tracing(false);
    CountingStorage::Counters io;
    for (auto& shard : shards) {
        shard->watch_records({}, 0, nullptr);
        const CountingStorage::Counters c = shard->counters();
        io.writes += c.writes;
        io.write_bytes += c.write_bytes;
        io.write_s += c.write_s;
        io.persists += c.persists;
        io.persist_s += c.persist_s;
        io.fences += c.fences;
    }
    ServiceStats service_stats = service->stats();
    service_stats.admitted -= warm_service.admitted;
    service_stats.rejected -= warm_service.rejected;
    service_stats.throttled -= warm_service.throttled;
    service_stats.aborted -= warm_service.aborted;
    service_stats.coalesced_records -= warm_service.coalesced_records;
    service_stats.segment_seals -= warm_service.segment_seals;
    service_stats.segment_recycles -= warm_service.segment_recycles;
    std::vector<TenantWatermark> watermarks;
    for (const TenantSpec& spec : config.tenants) {
        watermarks.push_back(service->watermark(spec.id));
    }

    Latencies latency;
    CheckpointerStats stats;
    std::uint64_t requests = 0;
    double blocked = 0;
    double first_request = drained;
    double payload = 0;
    for (std::size_t t = 0; t < drivers.size(); ++t) {
        const TimedCheckpointer& driver = *drivers[t];
        const CheckpointerStats s = driver.stats();
        const std::uint64_t completed = s.completed - warm[t].completed;
        stats.requested += s.requested - warm[t].requested;
        stats.completed += completed;
        stats.aborted += s.aborted - warm[t].aborted;
        requests += driver.calls().requests;
        blocked += driver.blocked_s();
        if (driver.calls().requests > 0) {
            first_request = std::min(first_request, driver.calls().first_request);
        }
        payload += static_cast<double>(completed) *
                   static_cast<double>(config.tenants[t].state_bytes);
        latency.sync.insert(latency.sync.end(),
                            driver.calls().sync_latency.begin(),
                            driver.calls().sync_latency.end());
    }
    for (std::size_t w = 0; w < window_tenant.size(); ++w) {
        append_async_latencies(probe.durable(w),
                               drivers[window_tenant[w]]->calls(),
                               &latency.full);
    }
    std::vector<const TimedCheckpointer*> driver_views;
    for (const auto& driver : drivers) {
        driver_views.push_back(driver.get());
    }
    Metrics& m = out.per_layer;
    put_orch(driver_views, stats, &m);
    drivers.clear();
    sessions.clear();
    service.reset();

    std::vector<double> recover_s;
    for (auto& shard : shards) {
        shard->reset_counters();
    }
    for (int r = 0; r < kRecoveries; ++r) {
        recover_s.push_back(
            resolve_all(config, backends, watermarks, opt.seed, "fleet"));
    }
    CountingStorage::Counters recovery_io;
    for (auto& shard : shards) {
        const CountingStorage::Counters c = shard->counters();
        recovery_io.reads += c.reads;
        recovery_io.read_bytes += c.read_bytes;
        recovery_io.read_s += c.read_s;
    }
    crash_leg(opt.seed);

    out.attempted = requests;
    out.failed = 0;
    Metrics& e = out.end_to_end;
    e["train_it_s"] = {static_cast<double>(rounds - first_round) * kTenants /
                           window,
                       "it/s"};
    e["durable_points_s"] = {
        static_cast<double>(stats.completed) / (drained - first_request),
        "1/s"};
    put_latency(latency, {}, !opt.trace, &e, &out.per_layer);
    e["stall_frac"] = {blocked / (kDrivers * window), "ratio"};
    e["ckpt_durable_frac"] = {static_cast<double>(stats.completed) /
                                  static_cast<double>(requests),
                              "ratio"};
    e["recover_s"] = {median(recover_s), "s"};
    e["setup_s"] = {median(setup_s), "s"};
    e["peak_rss_mib"] = {peak_rss_mib(), "MiB"};

    put_trace_layers(spans, &m);
    put_storage(io, payload, &m);
    put_recovery_reads(recovery_io, kRecoveries, &m);
    m["proc.threads_peak"].value = static_cast<double>(threads_peak);
    m["service.admitted"].value = static_cast<double>(service_stats.admitted);
    m["service.rejected"].value = static_cast<double>(service_stats.rejected);
    m["service.throttled"].value =
        static_cast<double>(service_stats.throttled);
    m["service.aborted"].value = static_cast<double>(service_stats.aborted);
    m["service.segment_seals"].value =
        static_cast<double>(service_stats.segment_seals);
    m["service.segment_recycles"].value =
        static_cast<double>(service_stats.segment_recycles);
    // With no record appended this reads the seal count, so the
    // metric still falls as the ring starvation eases.
    m["service.seals_per_record"].value =
        static_cast<double>(service_stats.segment_seals) /
        static_cast<double>(
            std::max<std::uint64_t>(service_stats.coalesced_records, 1));
    if (traced) {
        std::vector<double> per_tenant_s;
        for (const TenantSpec& spec : config.tenants) {
            const double t0 = now_s();
            gate(CheckpointService::resolve_tenant(config, backends, spec.id)
                     .found,
                 "fleet: resolve_tenant found nothing");
            per_tenant_s.push_back(now_s() - t0);
        }
        m["service.resolve_s"].value = median(per_tenant_s);
    }
    return out;
}

}  // namespace pcbench
