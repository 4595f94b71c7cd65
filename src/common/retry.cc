#include "common/retry.h"

#include "common/error.h"
#include "telemetry/telemetry.h"

namespace xtalk {

bool
RetryCall(const std::function<void()>& fn, RetryStats* stats)
{
    RetryStats local;
    RetryStats& s = stats ? *stats : local;
    s = RetryStats{};
    for (int attempt = 1;; ++attempt) {
        ++s.attempts;
        try {
            fn();
            s.succeeded = true;
            return true;
        } catch (const InternalError&) {
            throw;  // A bug is never transient; retrying would mask it.
        } catch (const std::exception& e) {
            s.last_error = e.what();
            if (attempt >= kMaxAttempts) {
                if (telemetry::Enabled()) {
                    telemetry::GetCounter("retry.giveups").Add(1);
                }
                if (stats) {
                    return false;
                }
                throw;
            }
            if (telemetry::Enabled()) {
                telemetry::GetCounter("retry.attempts").Add(1);
            }
        }
    }
}

}  // namespace xtalk
