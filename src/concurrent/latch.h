#ifndef PCCHECK_CONCURRENT_LATCH_H_
#define PCCHECK_CONCURRENT_LATCH_H_

/**
 * @file
 * Cyclic barrier for coordinating the writer-thread pools and
 * distributed-checkpoint rendezvous.
 */

#include <cstddef>

#include "util/annotations.h"
#include "util/check.h"

namespace pccheck {

/** Cyclic barrier: @p parties threads rendezvous repeatedly. */
class CyclicBarrier {
  public:
    explicit CyclicBarrier(std::size_t parties)
        : parties_(parties), waiting_(0), generation_(0)
    {
        PCCHECK_CHECK(parties > 0);
    }

    /** Block until all parties arrive; returns the generation index. */
    std::size_t
    arrive_and_wait()
    {
        MutexLock lock(mu_);
        const std::size_t gen = generation_;
        if (++waiting_ == parties_) {
            waiting_ = 0;
            ++generation_;
            cv_.notify_all();
            return gen;
        }
        while (generation_ == gen) {
            cv_.wait(mu_);
        }
        return gen;
    }

  private:
    Mutex mu_;
    CondVar cv_;
    std::size_t parties_;
    std::size_t waiting_ PCCHECK_GUARDED_BY(mu_);
    std::size_t generation_ PCCHECK_GUARDED_BY(mu_);
};

}  // namespace pccheck

#endif  // PCCHECK_CONCURRENT_LATCH_H_
