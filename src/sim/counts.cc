#include "sim/counts.h"

#include <algorithm>
#include <charconv>

#include "common/error.h"

namespace xtalk {

namespace {

/** std::lower_bound's order of rows against an outcome's bits. */
bool
RowBefore(const Counts::Row& row, uint64_t bits)
{
    return row.first < bits;
}

void
AppendInt(std::string& out, int value)
{
    char buffer[16];
    const auto [end, ec] = std::to_chars(buffer, buffer + sizeof buffer, value);
    out.append(buffer, end);
}

}  // namespace

void
Counts::Record(uint64_t bits)
{
    Record(bits, 1);
}

void
Counts::Record(uint64_t bits, int shots)
{
    shots_ += shots;
    if (histogram_.empty() || histogram_.back().first < bits) {
        histogram_.emplace_back(bits, shots);
        return;
    }
    const auto it = std::lower_bound(histogram_.begin(), histogram_.end(),
                                     bits, RowBefore);
    if (it->first == bits) {
        it->second += shots;
    } else {
        histogram_.insert(it, Row{bits, shots});
    }
}

void
Counts::RecordShots(std::span<uint64_t> outcomes)
{
    std::sort(outcomes.begin(), outcomes.end());
    shots_ += static_cast<int>(outcomes.size());
    size_t distinct = outcomes.empty() ? 0 : 1;
    for (size_t i = 1; i < outcomes.size(); ++i) {
        distinct += outcomes[i] != outcomes[i - 1] ? 1 : 0;
    }
    std::vector<Row> runs;
    runs.reserve(distinct);
    for (size_t i = 0; i < outcomes.size();) {
        size_t j = i + 1;
        while (j < outcomes.size() && outcomes[j] == outcomes[i]) {
            ++j;
        }
        runs.emplace_back(outcomes[i], static_cast<int>(j - i));
        i = j;
    }
    if (histogram_.empty()) {
        histogram_ = std::move(runs);
    } else {
        MergeRows(runs);
    }
}

void
Counts::Merge(const Counts& other)
{
    if (&other == this) {
        const Counts copy = other;  // MergeRows resizes what it reads.
        Merge(copy);
        return;
    }
    num_clbits_ = std::max(num_clbits_, other.num_clbits_);
    shots_ += other.shots_;
    MergeRows(other.histogram_);
}

void
Counts::MergeRows(std::span<const Row> rows)
{
    if (histogram_.empty()) {
        histogram_.assign(rows.begin(), rows.end());
        return;
    }
    // In place, back to front: count the outcomes both hold, grow to
    // the union's size, then fill it from the largest bits down.
    size_t shared = 0;
    for (size_t i = 0, j = 0; i < histogram_.size() && j < rows.size();) {
        if (histogram_[i].first < rows[j].first) {
            ++i;
        } else if (rows[j].first < histogram_[i].first) {
            ++j;
        } else {
            ++shared;
            ++i;
            ++j;
        }
    }
    size_t i = histogram_.size();
    size_t j = rows.size();
    size_t k = i + j - shared;
    histogram_.resize(k);
    while (j > 0) {
        const Row& row = rows[j - 1];
        if (i > 0 && histogram_[i - 1].first > row.first) {
            histogram_[k - 1] = histogram_[i - 1];
            --i;
        } else if (i > 0 && histogram_[i - 1].first == row.first) {
            histogram_[k - 1] = {row.first, histogram_[i - 1].second +
                                                row.second};
            --i;
            --j;
        } else {
            histogram_[k - 1] = row;
            --j;
        }
        --k;
    }
}

int
Counts::CountOf(uint64_t bits) const
{
    const auto it = std::lower_bound(histogram_.begin(), histogram_.end(),
                                     bits, RowBefore);
    return it != histogram_.end() && it->first == bits ? it->second : 0;
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
    // std::sort of the ascending rows: tied counts come out in the order
    // the std::map histogram's rows did.
    std::vector<Row> rows = histogram_;
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
        return a.second > b.second;
    });
    std::string out = "counts(";
    out.reserve(out.size() + 16 +
                rows.size() * (static_cast<size_t>(num_clbits_) + 16));
    AppendInt(out, shots_);
    out += " shots)\n";
    for (const auto& [bits, count] : rows) {
        out += "  ";
        for (int b = num_clbits_ - 1; b >= 0; --b) {
            out.push_back(((bits >> b) & 1) ? '1' : '0');
        }
        out += ": ";
        AppendInt(out, count);
        out.push_back('\n');
    }
    return out;
}

}  // namespace xtalk
