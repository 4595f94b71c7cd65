/**
 * @file
 * Bounded retry.
 *
 * The daily characterize -> schedule -> execute loop talks to flaky
 * backends: jobs get lost, calibration reads fail transiently. Every
 * retry loop in the library gives an operation kMaxAttempts tries and
 * retries at once: the simulator backend has no congestion worth
 * waiting out.
 *
 * RetryCall() is the generic driver, used for single-shot operations
 * such as loading a characterization file. The characterizer runs its
 * own loop over batched work (it retries a whole round of failed SRB
 * experiments at once) under the same kMaxAttempts.
 *
 * xtalk::InternalError is never retried: it flags a library bug and
 * retrying would only mask it. Telemetry (when enabled): the counters
 * `retry.attempts` (extra attempts after a failure) and
 * `retry.giveups` (budgets exhausted).
 */
#ifndef XTALK_COMMON_RETRY_H
#define XTALK_COMMON_RETRY_H

#include <functional>
#include <string>

namespace xtalk {

/** Total tries per operation, including the first. */
constexpr int kMaxAttempts = 3;

/** What a retry loop did (for reports and tests). */
struct RetryStats {
    int attempts = 0;          ///< Calls actually made.
    bool succeeded = false;
    std::string last_error;    ///< what() of the final failure.
};

/**
 * Run @p fn up to kMaxAttempts times, retrying any failure except
 * xtalk::InternalError, which is rethrown at once. Returns true on
 * success; on an exhausted budget the final exception is rethrown —
 * unless @p stats is non-null, in which case exhaustion returns false
 * with the details in @p stats.
 */
bool RetryCall(const std::function<void()>& fn, RetryStats* stats = nullptr);

}  // namespace xtalk

#endif  // XTALK_COMMON_RETRY_H
