#include "workload_common.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include "obs/trace.h"
#include "percentile.h"
#include "util/crc32.h"

namespace pcbench {
namespace {

std::uint64_t
splitmix64(std::uint64_t x)
{
    x += 0x9E3779B97F4A7C15ULL;
    x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ULL;
    x = (x ^ (x >> 27)) * 0x94D049BB133111EBULL;
    return x ^ (x >> 31);
}

/** fill_state for the bytes [offset, offset + len) of the state. */
void
fill_range(std::uint8_t* data, Bytes offset, Bytes len, std::uint64_t seed,
           std::uint64_t tenant)
{
    const std::uint64_t key = splitmix64(seed) ^ splitmix64(~tenant);
    for (Bytes i = 0; i < len;) {
        const Bytes word = (offset + i) / 8;
        const std::uint64_t value = splitmix64(key ^ word);
        const Bytes skip = (offset + i) % 8;
        const Bytes take = std::min<Bytes>(8 - skip, len - i);
        std::memcpy(data + i,
                    reinterpret_cast<const std::uint8_t*>(&value) + skip,
                    take);
        i += take;
    }
}

/** The "Key:   value kB" field of /proc/self/status. */
std::uint64_t
proc_status_field(const std::string& key)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind(key + ":", 0) == 0) {
            std::istringstream fields(line.substr(key.size() + 1));
            std::uint64_t value = 0;
            fields >> value;
            return value;
        }
    }
    return 0;
}

/** Median GB/s of @p reps timed calls of @p op over @p bytes. */
template <typename Op>
double
median_gbps(Bytes bytes, int reps, Op op)
{
    op();  // warm caches and first-touch pages
    std::vector<double> gbps;
    for (int r = 0; r < reps; ++r) {
        const double t0 = now_s();
        op();
        gbps.push_back(static_cast<double>(bytes) / (now_s() - t0) * 1e-9);
    }
    return median(gbps);
}

}  // namespace

void
gate(bool ok, const std::string& what)
{
    if (!ok) {
        throw GateFailure(what);
    }
}

void
fill_state(std::uint8_t* data, Bytes len, std::uint64_t seed,
           std::uint64_t tenant)
{
    fill_range(data, 0, len, seed, tenant);
}

pccheck::GpuConfig
unthrottled_gpu(Bytes memory)
{
    pccheck::GpuConfig config;
    config.memory_bytes = memory;
    config.pcie_bytes_per_sec = 0;
    return config;
}

std::optional<std::uint64_t>
published_iteration(pccheck::PCcheckCheckpointer* ck)
{
    if (ck == nullptr) {
        return std::nullopt;
    }
    const auto ptr = ck->slot_store().last_published();
    return ptr ? std::optional<std::uint64_t>(ptr->iteration)
               : std::nullopt;
}

void
seed_state(pccheck::TrainingState& state, std::uint64_t seed,
           std::uint64_t tenant)
{
    fill_state(state.gpu().device_data(state.device_ptr()), state.size(),
               seed, tenant);
    state.stamp(0);
}

bool
matches_stamp_oracle(const std::vector<std::uint8_t>& image,
                     std::uint64_t seed, std::uint64_t tenant,
                     std::uint64_t iteration)
{
    // Markers first: every one must sit at its offset and carry the
    // expected iteration. Then every other byte must be the seeded
    // fill, compared block by block against regenerated contents.
    const auto stamped = pccheck::TrainingState::verify_buffer(
        image.data(), image.size());
    if (!stamped || *stamped != iteration) {
        return false;
    }
    constexpr Bytes kBlock = 64 * pccheck::kKiB;
    constexpr Bytes kStride = pccheck::TrainingState::kMarkerStride;
    constexpr Bytes kMarker = 16;
    static_assert(kBlock % kStride == 0);
    std::vector<std::uint8_t> expected(kBlock);
    for (Bytes off = 0; off < image.size(); off += kBlock) {
        const Bytes len = std::min<Bytes>(kBlock, image.size() - off);
        fill_range(expected.data(), off, len, seed, tenant);
        for (Bytes m = 0; m + kMarker <= len; m += kStride) {
            std::memcpy(expected.data() + m, image.data() + off + m,
                        kMarker);
        }
        if (std::memcmp(expected.data(), image.data() + off, len) != 0) {
            return false;
        }
    }
    return true;
}

void
append_async_latencies(
    const std::vector<std::pair<std::uint64_t, double>>& durable,
    const TimedCheckpointer::Calls& calls, std::vector<LatencySample>* out)
{
    for (const auto& [iteration, t] : durable) {
        const auto it = calls.request_time.find(iteration);
        if (it != calls.request_time.end() && t >= it->second) {
            out->push_back({it->second, t - it->second});
        }
    }
}

void
put_latency(const Latencies& latencies, std::vector<double> cycle_starts,
            bool reported, Metrics* end_to_end, Metrics* per_layer)
{
    std::vector<LatencySample> samples = latencies.sync;
    samples.insert(samples.end(), latencies.full.begin(),
                   latencies.full.end());
    std::sort(samples.begin(), samples.end(),
              [](const LatencySample& a, const LatencySample& b) {
                  return a.requested < b.requested;
              });
    std::vector<std::vector<double>> windows;
    if (cycle_starts.size() >= 2) {
        std::vector<std::pair<double, double>> timed;
        for (const LatencySample& sample : samples) {
            timed.emplace_back(sample.requested, sample.latency_s);
        }
        windows = split_at(timed, std::move(cycle_starts));
    } else if (!samples.empty()) {
        std::vector<double> ordered_s;
        for (const LatencySample& sample : samples) {
            ordered_s.push_back(sample.latency_s);
        }
        windows = split_windows(
            ordered_s, std::clamp<std::size_t>(
                           samples.size() / kLatencyWindowSamples, 1,
                           kLatencyWindows));
    }
    std::size_t windowed = 0;
    for (const std::vector<double>& window : windows) {
        windowed += window.size();
    }
    if (reported) {
        gate(windowed >= kMinLatencySamples,
             "fewer than 100 latency samples (" + std::to_string(windowed) +
                 ")");
        gate(latencies.full.size() >= kMinFullSamples,
             "fewer than 5 full checkpoints became durable (" +
                 std::to_string(latencies.full.size()) + ")");
    }
    Metrics& m = *per_layer;
    m["ckpt.latency_samples"].value = static_cast<double>(windowed);
    m["ckpt.sync_samples"].value = static_cast<double>(latencies.sync.size());
    m["ckpt.full_samples"].value = static_cast<double>(latencies.full.size());
    Metrics& e = *end_to_end;
    if (!windows.empty()) {
        e["ckpt_latency_p50_ms"] = {median_of_percentiles(windows, 0.5) * 1e3,
                                    "ms"};
        e["ckpt_latency_p90_ms"] = {median_of_percentiles(windows, 0.9) * 1e3,
                                    "ms"};
    }
    if (!latencies.full.empty()) {
        std::vector<double> full_s;
        for (const LatencySample& sample : latencies.full) {
            full_s.push_back(sample.latency_s);
        }
        e["full_ckpt_latency_ms"] = {median(full_s) * 1e3, "ms"};
    }
}

double
peak_rss_mib()
{
    return static_cast<double>(proc_status_field("VmHWM")) / 1024.0;
}

std::uint64_t
thread_count()
{
    return proc_status_field("Threads");
}

void
calibrate(Bytes chunk, Metrics* per_layer)
{
    std::vector<std::uint8_t> src(chunk);
    std::vector<std::uint8_t> dst(chunk);
    fill_state(src.data(), chunk, 7, 7);
    constexpr int kReps = 9;
    (*per_layer)["ref.memcpy_gbps"] = {
        median_gbps(chunk, kReps,
                    [&] { std::memcpy(dst.data(), src.data(), chunk); }),
        "GB/s"};
    volatile std::uint32_t sink = 0;
    (*per_layer)["util.crc32_gbps"] = {
        median_gbps(chunk, kReps,
                    [&] { sink = pccheck::crc32c(src.data(), chunk); }),
        "GB/s"};
    (void)sink;
    pccheck::SimGpu gpu(unthrottled_gpu(chunk));
    const pccheck::DevPtr ptr = gpu.alloc(chunk);
    (*per_layer)["gpusim.copy_gbps"] = {
        median_gbps(chunk, kReps,
                    [&] { gpu.copy_to_host(dst.data(), ptr, 0, chunk); }),
        "GB/s"};
}

Metrics
empty_per_layer()
{
    Metrics m;
    const char* const counts[] = {
        "core.orch.requested", "core.orch.completed", "core.orch.aborted",
        "core.persist.chunks", "core.persist.retries", "storage.writes",
        "storage.persists", "storage.fences", "storage.reads",
        "delta.frames", "delta.skipped", "delta.replayed_frames",
        "delta.crash_frames_lost", "remote.acks", "remote.degraded",
        "service.admitted", "service.rejected", "service.throttled",
        "service.aborted", "service.segment_seals",
        "service.segment_recycles", "proc.threads_peak",
        "ckpt.latency_samples", "ckpt.sync_samples", "ckpt.full_samples",
        "trace.dropped"};
    for (const char* name : counts) {
        m[name] = {0, "count"};
    }
    const char* const times[] = {
        "core.orch.before_update_s", "core.orch.request_s",
        "core.orch.delta_s", "gpusim.copy_s", "util.crc32_s",
        "core.persist.chunk_s", "core.commit.slot_wait_s",
        "core.commit.cas_s", "core.commit.buffer_wait_s",
        "storage.write_s", "storage.persist_s", "storage.read_s",
        "delta.replay_s", "core.recovery.cpu_s", "remote.recover_s",
        "service.resolve_s"};
    for (const char* name : times) {
        m[name] = {0, "s"};
    }
    const char* const ratios[] = {"storage.write_amp",
                                  "service.seals_per_record",
                                  "trace.overhead_frac"};
    for (const char* name : ratios) {
        m[name] = {0, "ratio"};
    }
    for (const char* name : {"storage.write_bytes", "storage.read_bytes",
                             "delta.bytes", "remote.bytes_sent"}) {
        m[name] = {0, "B"};
    }
    m["core.recovery.gbps"] = {0, "GB/s"};
    m["ref.disk_persist_ms"] = {0, "ms"};
    return m;
}

void
put_storage(const CountingStorage::Counters& c, double payload_bytes,
            Metrics* per_layer)
{
    Metrics& m = *per_layer;
    const auto mean = [](double total, std::uint64_t n) {
        return n ? total / static_cast<double>(n) : 0.0;
    };
    m["storage.writes"].value = static_cast<double>(c.writes);
    m["storage.write_bytes"].value = static_cast<double>(c.write_bytes);
    m["storage.write_s"].value = mean(c.write_s, c.writes);
    m["storage.persists"].value = static_cast<double>(c.persists);
    m["storage.persist_s"].value = mean(c.persist_s, c.persists);
    m["storage.fences"].value = static_cast<double>(c.fences);
    m["storage.write_amp"].value =
        payload_bytes > 0 ? static_cast<double>(c.write_bytes) / payload_bytes
                          : 0.0;
}

void
put_recovery_reads(const CountingStorage::Counters& c, int recoveries,
                   Metrics* per_layer)
{
    Metrics& m = *per_layer;
    m["storage.reads"].value = static_cast<double>(c.reads) / recoveries;
    m["storage.read_bytes"].value =
        static_cast<double>(c.read_bytes) / recoveries;
    m["storage.read_s"].value =
        c.reads ? c.read_s / static_cast<double>(c.reads) : 0.0;
}

void
put_trace_layers(const std::map<std::string, SpanTotals>& spans,
                 Metrics* per_layer)
{
    Metrics& m = *per_layer;
    const auto get = [&spans](const char* name) {
        const auto it = spans.find(name);
        return it == spans.end() ? SpanTotals{} : it->second;
    };
    const SpanTotals snapshot = get("checkpoint.snapshot");
    const SpanTotals pinned_copy = get("gpu.copy_to_host.pinned");
    const SpanTotals buffer_wait = get("snapshot.buffer_wait");
    m["gpusim.copy_s"].value = get("gpu.copy_to_host").mean_s();
    if (snapshot.count > 0) {
        // Snapshot self time: the span minus the staging copies and
        // buffer waits nested in it is the CRC (plus the hand-off).
        m["util.crc32_s"].value =
            std::max(0.0, snapshot.total_s - pinned_copy.total_s -
                              buffer_wait.total_s) /
            static_cast<double>(snapshot.count);
    }
    const SpanTotals chunk = get("persist.chunk");
    m["core.persist.chunks"].value = static_cast<double>(chunk.count);
    m["core.persist.chunk_s"].value = chunk.mean_s();
    m["core.persist.retries"].value =
        static_cast<double>(get("persist.retry").count);
    m["core.commit.slot_wait_s"].value = get("commit.slot_wait").mean_s();
    m["core.commit.cas_s"].value = get("commit.cas").mean_s();
    m["core.commit.buffer_wait_s"].value = buffer_wait.mean_s();
    m["trace.dropped"].value =
        static_cast<double>(pccheck::Tracer::global().dropped_count());
}

void
put_orch(const std::vector<const TimedCheckpointer*>& drivers,
         const pccheck::CheckpointerStats& stats, Metrics* per_layer)
{
    TimedCheckpointer::Calls sum;
    for (const TimedCheckpointer* driver : drivers) {
        const TimedCheckpointer::Calls& c = driver->calls();
        sum.before_update += c.before_update;
        sum.before_update_s += c.before_update_s;
        sum.requests += c.requests;
        sum.request_s += c.request_s;
        sum.deltas += c.deltas;
        sum.delta_s += c.delta_s;
    }
    const auto mean = [](double total, std::uint64_t n) {
        return n ? total / static_cast<double>(n) : 0.0;
    };
    Metrics& m = *per_layer;
    m["core.orch.before_update_s"].value =
        mean(sum.before_update_s, sum.before_update);
    m["core.orch.request_s"].value = mean(sum.request_s, sum.requests);
    m["core.orch.delta_s"].value = mean(sum.delta_s, sum.deltas);
    m["core.orch.requested"].value = static_cast<double>(stats.requested);
    m["core.orch.completed"].value = static_cast<double>(stats.completed);
    m["core.orch.aborted"].value = static_cast<double>(stats.aborted);
}

void
spin_for(double seconds)
{
    const double until = now_s() + seconds;
    while (now_s() < until) {
        std::this_thread::yield();
    }
}

void
set_tracing(bool on)
{
    pccheck::Tracer& tracer = pccheck::Tracer::global();
    tracer.set_enabled(false);
    tracer.reset();
    tracer.set_enabled(on);
}

}  // namespace pcbench
