#ifndef PCBENCH_PROBES_H_
#define PCBENCH_PROBES_H_

/**
 * @file
 * The benchmark's own wrappers around each layer's public calls.
 *
 *  - CountingStorage: a StorageDevice decorator between the program
 *    and the media. Counts and times every write/read/persist/fence,
 *    and reports each persist that lands on a slot-store pointer
 *    record (the durable point of a full checkpoint).
 *  - DurabilityProbe: turns those record persists into (iteration,
 *    durable time) pairs using only SlotStore::last_published-style
 *    queries, without decoding the on-media record.
 *  - TimedCheckpointer: a Checkpointer decorator between the driver
 *    and the orchestrator or service session. Times every call and
 *    keeps the raw per-request samples the latency percentiles use.
 *  - summarize_trace: folds the program's own Tracer spans into
 *    per-name counts and busy time.
 */

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "obs/trace.h"
#include "storage/device.h"
#include "trainsim/checkpointer.h"

namespace pcbench {

using pccheck::Bytes;

/** Seconds on the steady clock (shared epoch for every thread). */
double now_s();

/** StorageDevice decorator that counts and times every operation. */
class CountingStorage final : public pccheck::StorageDevice {
  public:
    struct Counters {
        std::uint64_t writes = 0;
        std::uint64_t write_bytes = 0;
        double write_s = 0;
        std::uint64_t persists = 0;
        double persist_s = 0;
        std::uint64_t fences = 0;
        std::uint64_t reads = 0;
        std::uint64_t read_bytes = 0;
        double read_s = 0;
    };

    /** Called with (window index, steady time) after a successful
     *  persist of a pointer record inside that window. */
    using RecordHook = std::function<void(std::size_t, double)>;

    explicit CountingStorage(pccheck::StorageDevice& inner)
        : inner_(inner)
    {
    }
    CountingStorage(const CountingStorage&) = delete;
    CountingStorage& operator=(const CountingStorage&) = delete;

    Bytes size() const override { return inner_.size(); }
    pccheck::StorageStatus write(Bytes offset, const void* src,
                                 Bytes len) override;
    pccheck::StorageStatus read(Bytes offset, void* dst,
                                Bytes len) const override;
    pccheck::StorageStatus persist(Bytes offset, Bytes len) override;
    pccheck::StorageStatus fence() override;
    pccheck::StorageKind kind() const override { return inner_.kind(); }
    void set_observe_hook(
        std::function<void(const pccheck::StorageOp&)> hook) override
    {
        inner_.set_observe_hook(std::move(hook));
    }

    /**
     * Report persists inside the slot-store metadata block of each
     * window: [base + 1, base + meta_bytes) holds the two pointer
     * records (offset base is the device header). Set before any
     * checkpoint traffic; pass an empty list to stop.
     */
    void watch_records(std::vector<Bytes> window_bases, Bytes meta_bytes,
                       RecordHook hook);

    Counters counters() const;
    void reset_counters();

  private:
    pccheck::StorageDevice& inner_;
    std::vector<Bytes> window_bases_;
    Bytes meta_bytes_ = 0;
    RecordHook record_hook_;

    std::atomic<std::uint64_t> writes_{0};
    std::atomic<std::uint64_t> write_bytes_{0};
    std::atomic<std::uint64_t> write_ns_{0};
    std::atomic<std::uint64_t> persists_{0};
    std::atomic<std::uint64_t> persist_ns_{0};
    std::atomic<std::uint64_t> fences_{0};
    mutable std::atomic<std::uint64_t> reads_{0};
    mutable std::atomic<std::uint64_t> read_bytes_{0};
    mutable std::atomic<std::uint64_t> read_ns_{0};
};

/**
 * Maps pointer-record persists to the checkpoint they published.
 *
 * SlotStore serializes publishes and updates last_published() only
 * after the record's persist and fence return, so when publish j's
 * persist completes, last_published() still names publish j-1. Each
 * record persist therefore resolves the previous one; close() resolves
 * the last after the checkpointer has drained.
 */
class DurabilityProbe {
  public:
    /** Newest published iteration of one window (nullopt: none yet). */
    using Query = std::function<std::optional<std::uint64_t>()>;

    explicit DurabilityProbe(std::vector<Query> queries);

    /** CountingStorage::RecordHook target. */
    void on_record_persisted(std::size_t window, double t);
    /** Resolve the pending record of every window (after finish()). */
    void close();
    /** (iteration, durable time) pairs of window @p w, in order. */
    std::vector<std::pair<std::uint64_t, double>> durable(
        std::size_t w) const;

  private:
    struct Window {
        mutable std::mutex mu;
        std::optional<double> pending;
        std::vector<std::pair<std::uint64_t, double>> durable;
    };
    void resolve(Window& window, std::optional<std::uint64_t> iteration);

    std::vector<Query> queries_;
    std::vector<std::unique_ptr<Window>> windows_;
};

/** One durability point: when it was requested, and how long it took
 *  from request to durable. */
struct LatencySample {
    double requested = 0;
    double latency_s = 0;
};

/** Checkpointer decorator; one driver thread per instance. */
class TimedCheckpointer final : public pccheck::Checkpointer {
  public:
    struct Calls {
        std::uint64_t before_update = 0;
        double before_update_s = 0;
        std::uint64_t requests = 0;
        double request_s = 0;
        std::uint64_t deltas = 0;
        double delta_s = 0;
        /** Synchronous durability points (coalesced records, delta
         *  frames) and the duration of each call that made one. */
        std::vector<LatencySample> sync_latency;
        /** Iteration of the newest synchronous durability point. */
        std::uint64_t last_sync_iteration = 0;
        /** Request time of each asynchronous full checkpoint. */
        std::unordered_map<std::uint64_t, double> request_time;
        double first_request = 0;
    };

    /**
     * @param sync_checkpoints true when request_checkpoint returns
     *        with the checkpoint durable (coalesced sessions): its
     *        duration is then the latency sample.
     */
    TimedCheckpointer(pccheck::Checkpointer& inner, bool sync_checkpoints)
        : inner_(inner), sync_checkpoints_(sync_checkpoints)
    {
    }

    std::string name() const override { return inner_.name(); }
    void before_update(std::uint64_t iteration) override;
    void request_checkpoint(std::uint64_t iteration) override;
    void request_delta(std::uint64_t iteration) override;
    void finish() override { inner_.finish(); }
    pccheck::CheckpointerStats stats() const override
    {
        return inner_.stats();
    }

    const Calls& calls() const { return calls_; }
    /** Time the driver spent blocked inside checkpointer calls. */
    double blocked_s() const
    {
        return calls_.before_update_s + calls_.request_s + calls_.delta_s;
    }

  private:
    void note_request(double t);

    pccheck::Checkpointer& inner_;
    const bool sync_checkpoints_;
    Calls calls_;
};

/** Per-name count and summed duration of captured spans. */
struct SpanTotals {
    std::uint64_t count = 0;
    double total_s = 0;
    double mean_s() const { return count ? total_s / count : 0.0; }
};

/**
 * Fold @p events by span name. Copies made with pinned staging (the
 * orchestrator's snapshot path) are also totalled under
 * "gpu.copy_to_host.pinned".
 */
std::map<std::string, SpanTotals> summarize_trace(
    const std::vector<pccheck::TraceEvent>& events);

}  // namespace pcbench

#endif  // PCBENCH_PROBES_H_
