#ifndef PCCHECK_CORE_RECOVERY_H_
#define PCCHECK_CORE_RECOVERY_H_

/**
 * @file
 * Recovery path (§4.2): locate the latest consistent checkpoint via
 * the durable CHECK_ADDR records, validate it, and load it back into
 * GPU memory so training can resume. Every entry point here is a
 * read-only adapter over RecoveryPlanner::recover, the one loop that
 * chooses a checkpoint to restore.
 */

#include <cstdint>
#include <optional>
#include <vector>

#include "storage/device.h"
#include "util/clock.h"

#if defined(PCCHECK_MC)
// The model-checking closure (src/mc/) links recover_to_buffer but
// never restores into a simulated GPU; forward-declaring keeps
// trainsim/gpusim out of the checker binary.
namespace pccheck {
class TrainingState;
}
#else
#include "trainsim/training_state.h"
#endif

namespace pccheck {

/** What recovery found and how long loading took. */
struct RecoveryResult {
    std::uint64_t iteration = 0;  ///< training iteration to resume from
    std::uint64_t counter = 0;    ///< checkpoint counter that survived
    Bytes data_len = 0;
    Seconds load_time = 0;        ///< l in the §4.2 recovery bound
    /** CRC-32C recorded with the checkpoint (0 = none computed). */
    std::uint32_t data_crc = 0;
    /** Delta frames replayed on top of the full image
     *  (docs/DELTA_LOG.md). iteration then reflects the last
     *  applied frame, not the base checkpoint. */
    std::uint64_t delta_frames = 0;
    /** Sequence number of the last applied frame (0 = none). */
    std::uint64_t delta_seq = 0;
};

/**
 * Read the latest valid checkpoint from @p device into a host buffer.
 * A read-only adapter over RecoveryPlanner (core/recovery_planner.h):
 * local candidates only, no delta replay, no quarantine, no salvage.
 * @return std::nullopt when the device holds no valid checkpoint.
 * @throws FatalError when the device header is destroyed.
 */
std::optional<RecoveryResult> recover_to_buffer(
    StorageDevice& device, std::vector<std::uint8_t>* out,
    const Clock& clock = MonotonicClock::instance());

/**
 * Three-tier recovery (docs/DELTA_LOG.md): recover_to_buffer plus the
 * planner's replay of the base's delta-frame chain, stopping cleanly
 * at the first torn or CRC-failing frame. On a device without a delta
 * region this is exactly recover_to_buffer.
 * @return std::nullopt when the device holds no valid checkpoint.
 * @throws FatalError when the device header is destroyed.
 */
std::optional<RecoveryResult> recover_latest(
    StorageDevice& device, std::vector<std::uint8_t>* out,
    const Clock& clock = MonotonicClock::instance());

/**
 * Full recovery: recover_latest, then load the image into @p state's
 * GPU memory (paying the PCIe H2D transfer) and re-mark the state's
 * iteration. The stamp oracle is exact (every marker == the
 * iteration) on a device without a delta region, and sparse (no marker
 * newer than the iteration) on one with a delta region: sparse updates
 * legitimately leave chunks stamped at older iterations, in the base
 * image as well as in replayed frames.
 * @return std::nullopt when no valid checkpoint exists or the stamp
 *         markers reject the image.
 */
std::optional<RecoveryResult> recover_into_state(
    StorageDevice& device, TrainingState& state, bool pinned = true,
    const Clock& clock = MonotonicClock::instance());

}  // namespace pccheck

#endif  // PCCHECK_CORE_RECOVERY_H_
