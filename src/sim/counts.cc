#include "sim/counts.h"

#include <algorithm>
#include <sstream>

#include "common/error.h"

namespace xtalk {

void
Counts::Record(uint64_t bits)
{
    ++histogram_[bits];
    ++shots_;
}

void
Counts::Record(uint64_t bits, int shots)
{
    histogram_[bits] += shots;
    shots_ += shots;
}

void
Counts::Merge(const Counts& other)
{
    num_clbits_ = std::max(num_clbits_, other.num_clbits_);
    shots_ += other.shots_;
    for (const auto& [bits, count] : other.histogram_) {
        histogram_[bits] += count;
    }
}

int
Counts::CountOf(uint64_t bits) const
{
    const auto it = histogram_.find(bits);
    return it == histogram_.end() ? 0 : it->second;
}

double
Counts::Probability(uint64_t bits) const
{
    if (shots_ == 0) {
        return 0.0;
    }
    return static_cast<double>(CountOf(bits)) / shots_;
}

std::vector<double>
Counts::ToProbabilities() const
{
    XTALK_REQUIRE(num_clbits_ > 0 && num_clbits_ <= 24,
                  "ToProbabilities supports 1..24 clbits");
    std::vector<double> probs(size_t{1} << num_clbits_, 0.0);
    if (shots_ == 0) {
        return probs;
    }
    for (const auto& [bits, count] : histogram_) {
        XTALK_ASSERT(bits < probs.size(), "outcome exceeds clbit register");
        probs[bits] = static_cast<double>(count) / shots_;
    }
    return probs;
}

std::string
Counts::BitsToString(uint64_t bits, int num_clbits)
{
    std::string s;
    for (int b = num_clbits - 1; b >= 0; --b) {
        s.push_back(((bits >> b) & 1) ? '1' : '0');
    }
    return s;
}

std::string
Counts::ToString() const
{
    std::vector<std::pair<uint64_t, int>> rows(histogram_.begin(),
                                               histogram_.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        return a.second > b.second;
    });
    std::ostringstream oss;
    oss << "counts(" << shots_ << " shots)\n";
    for (const auto& [bits, count] : rows) {
        oss << "  " << BitsToString(bits, num_clbits_) << ": " << count
            << "\n";
    }
    return oss.str();
}

}  // namespace xtalk
