#include "probes.h"

#include <chrono>
#include <cstring>

namespace pcbench {
namespace {

std::uint64_t
now_ns()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
add(std::atomic<std::uint64_t>& counter, std::uint64_t value)
{
    // relaxed: statistics only, read after the workload has joined.
    counter.fetch_add(value, std::memory_order_relaxed);
}

double
seconds(const std::atomic<std::uint64_t>& ns)
{
    return static_cast<double>(ns.load(std::memory_order_relaxed)) * 1e-9;
}

}  // namespace

double
now_s()
{
    return static_cast<double>(now_ns()) * 1e-9;
}

pccheck::StorageStatus
CountingStorage::write(Bytes offset, const void* src, Bytes len)
{
    const std::uint64_t t0 = now_ns();
    const pccheck::StorageStatus status = inner_.write(offset, src, len);
    add(write_ns_, now_ns() - t0);
    add(writes_, 1);
    add(write_bytes_, len);
    return status;
}

pccheck::StorageStatus
CountingStorage::read(Bytes offset, void* dst, Bytes len) const
{
    const std::uint64_t t0 = now_ns();
    const pccheck::StorageStatus status = inner_.read(offset, dst, len);
    add(read_ns_, now_ns() - t0);
    add(reads_, 1);
    add(read_bytes_, len);
    return status;
}

pccheck::StorageStatus
CountingStorage::persist(Bytes offset, Bytes len)
{
    const std::uint64_t t0 = now_ns();
    const pccheck::StorageStatus status = inner_.persist(offset, len);
    const std::uint64_t t1 = now_ns();
    add(persist_ns_, t1 - t0);
    add(persists_, 1);
    if (status.ok() && record_hook_) {
        for (std::size_t w = 0; w < window_bases_.size(); ++w) {
            const Bytes base = window_bases_[w];
            if (offset > base && offset < base + meta_bytes_) {
                record_hook_(w, static_cast<double>(t1) * 1e-9);
                break;
            }
        }
    }
    return status;
}

pccheck::StorageStatus
CountingStorage::fence()
{
    add(fences_, 1);
    return inner_.fence();
}

void
CountingStorage::watch_records(std::vector<Bytes> window_bases,
                               Bytes meta_bytes, RecordHook hook)
{
    window_bases_ = std::move(window_bases);
    meta_bytes_ = meta_bytes;
    record_hook_ = window_bases_.empty() ? RecordHook{} : std::move(hook);
}

CountingStorage::Counters
CountingStorage::counters() const
{
    Counters c;
    c.writes = writes_.load(std::memory_order_relaxed);
    c.write_bytes = write_bytes_.load(std::memory_order_relaxed);
    c.write_s = seconds(write_ns_);
    c.persists = persists_.load(std::memory_order_relaxed);
    c.persist_s = seconds(persist_ns_);
    c.fences = fences_.load(std::memory_order_relaxed);
    c.reads = reads_.load(std::memory_order_relaxed);
    c.read_bytes = read_bytes_.load(std::memory_order_relaxed);
    c.read_s = seconds(read_ns_);
    return c;
}

void
CountingStorage::reset_counters()
{
    for (auto* counter :
         {&writes_, &write_bytes_, &write_ns_, &persists_, &persist_ns_,
          &fences_, &reads_, &read_bytes_, &read_ns_}) {
        counter->store(0, std::memory_order_relaxed);
    }
}

DurabilityProbe::DurabilityProbe(std::vector<Query> queries)
    : queries_(std::move(queries))
{
    for (std::size_t w = 0; w < queries_.size(); ++w) {
        windows_.push_back(std::make_unique<Window>());
    }
}

void
DurabilityProbe::resolve(Window& window,
                         std::optional<std::uint64_t> iteration)
{
    if (!window.pending || !iteration) {
        return;
    }
    if (!window.durable.empty() &&
        window.durable.back().first == *iteration) {
        return;  // the pending persist did not publish a new record
    }
    window.durable.emplace_back(*iteration, *window.pending);
}

void
DurabilityProbe::on_record_persisted(std::size_t w, double t)
{
    // Runs on the publishing thread between the record's persist and
    // its fence: last_published() still names the previous publish.
    const std::optional<std::uint64_t> previous = queries_[w]();
    Window& window = *windows_[w];
    std::lock_guard<std::mutex> lock(window.mu);
    resolve(window, previous);
    window.pending = t;
}

void
DurabilityProbe::close()
{
    for (std::size_t w = 0; w < windows_.size(); ++w) {
        const std::optional<std::uint64_t> last = queries_[w]();
        Window& window = *windows_[w];
        std::lock_guard<std::mutex> lock(window.mu);
        resolve(window, last);
        window.pending.reset();
    }
}

std::vector<std::pair<std::uint64_t, double>>
DurabilityProbe::durable(std::size_t w) const
{
    std::lock_guard<std::mutex> lock(windows_[w]->mu);
    return windows_[w]->durable;
}

void
TimedCheckpointer::note_request(double t)
{
    if (calls_.requests + calls_.deltas == 0) {
        calls_.first_request = t;
    }
}

void
TimedCheckpointer::before_update(std::uint64_t iteration)
{
    const double t0 = now_s();
    inner_.before_update(iteration);
    calls_.before_update_s += now_s() - t0;
    ++calls_.before_update;
}

void
TimedCheckpointer::request_checkpoint(std::uint64_t iteration)
{
    const std::uint64_t completed_before =
        sync_checkpoints_ ? inner_.stats().completed : 0;
    const double t0 = now_s();
    note_request(t0);
    inner_.request_checkpoint(iteration);
    const double elapsed = now_s() - t0;
    calls_.request_s += elapsed;
    ++calls_.requests;
    if (!sync_checkpoints_) {
        calls_.request_time[iteration] = t0;
    } else if (inner_.stats().completed > completed_before) {
        calls_.sync_latency.push_back({t0, elapsed});
        calls_.last_sync_iteration = iteration;
    }
}

void
TimedCheckpointer::request_delta(std::uint64_t iteration)
{
    const std::uint64_t frames_before = inner_.stats().delta_frames;
    const double t0 = now_s();
    note_request(t0);
    inner_.request_delta(iteration);
    const double elapsed = now_s() - t0;
    calls_.delta_s += elapsed;
    ++calls_.deltas;
    if (inner_.stats().delta_frames > frames_before) {
        calls_.sync_latency.push_back({t0, elapsed});
        calls_.last_sync_iteration = iteration;
    }
}

std::map<std::string, SpanTotals>
summarize_trace(const std::vector<pccheck::TraceEvent>& events)
{
    std::map<std::string, SpanTotals> totals;
    for (const pccheck::TraceEvent& event : events) {
        const double span_s =
            static_cast<double>(event.end_ns - event.begin_ns) * 1e-9;
        SpanTotals& named = totals[event.name];
        ++named.count;
        named.total_s += span_s;
        if (std::strcmp(event.name, "gpu.copy_to_host") != 0) {
            continue;
        }
        for (std::uint32_t a = 0; a < event.nargs; ++a) {
            if (std::strcmp(event.args[a].key, "pinned") == 0 &&
                event.args[a].value != 0) {
                SpanTotals& pinned = totals["gpu.copy_to_host.pinned"];
                ++pinned.count;
                pinned.total_s += span_s;
            }
        }
    }
    return totals;
}

}  // namespace pcbench
