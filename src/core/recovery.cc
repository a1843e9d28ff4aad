#include "core/recovery.h"

#include "core/recovery_planner.h"
#include "core/slot_store.h"
#include "psan/psan.h"
#include "util/check.h"

namespace pccheck {
namespace {

/** The local helpers' one body: a read-only RecoveryPlanner run over
 *  @p device alone (no quarantine, no salvage). */
std::optional<RecoveryResult>
recover_local(StorageDevice& device, std::vector<std::uint8_t>* out,
              const Clock& clock, bool replay_delta)
{
    RecoveryPlanner::Options options;
    options.salvage = false;
    options.quarantine = false;
    options.replay_delta = replay_delta;
    RecoveryPlanner planner(&device, options, clock);
    const auto planned = planner.recover(out);
    if (!planned.has_value()) {
        // The planner reads a destroyed header as "no local
        // candidates"; for the local helpers it stays fatal.
        psan::RecoveryScope psan_scope;
        SlotStore::open(device);
        return std::nullopt;
    }
    return planned->result;
}

}  // namespace

std::optional<RecoveryResult>
recover_to_buffer(StorageDevice& device, std::vector<std::uint8_t>* out,
                  const Clock& clock)
{
    return recover_local(device, out, clock, /*replay_delta=*/false);
}

std::optional<RecoveryResult>
recover_latest(StorageDevice& device, std::vector<std::uint8_t>* out,
               const Clock& clock)
{
    return recover_local(device, out, clock, /*replay_delta=*/true);
}

#if !defined(PCCHECK_MC)

std::optional<RecoveryResult>
recover_into_state(StorageDevice& device, TrainingState& state, bool pinned,
                   const Clock& clock)
{
    Stopwatch watch(clock);
    std::vector<std::uint8_t> buffer;
    auto result = recover_latest(device, &buffer, clock);
    if (!result.has_value()) {
        return std::nullopt;
    }
    PCCHECK_CHECK_MSG(buffer.size() <= state.size(),
                      "checkpoint larger than training state: "
                          << buffer.size() << " > " << state.size());
    // Validate the stamp before touching GPU memory: a checkpoint the
    // markers reject must never be restored. Without a delta region an
    // image carries one iteration in every marker. With one, training
    // updates sparsely, so even a base image with no frame applied
    // holds chunks at older iterations (as do frames, and an empty
    // frame advances the iteration without touching any marker); but
    // no marker may be newer than what the record + sealed frames claim.
    const bool exact = SlotStore::open(device).delta_bytes() == 0;
    const auto stamped =
        exact ? TrainingState::verify_buffer(buffer.data(), buffer.size())
              : TrainingState::verify_buffer_sparse(buffer.data(),
                                                    buffer.size());
    if (!stamped.has_value()) {
        return std::nullopt;
    }
    PCCHECK_CHECK_MSG(exact ? *stamped == result->iteration
                            : *stamped <= result->iteration,
                      "state stamped " << *stamped
                                       << " does not match recovered "
                                       << result->iteration);
    state.restore(buffer.data(), buffer.size(), result->iteration, pinned);
    result->load_time = watch.elapsed();
    return result;
}

#endif  // !PCCHECK_MC

}  // namespace pccheck
