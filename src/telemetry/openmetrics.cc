#include "telemetry/openmetrics.h"

#include <cctype>
#include <cmath>
#include <cstdint>
#include <map>
#include <sstream>
#include <vector>

#include "telemetry/telemetry.h"

namespace xtalk::telemetry {

namespace {

/** Escape a label value per the OpenMetrics text format. */
std::string
EscapeLabelValue(const std::string& value)
{
    std::string out;
    out.reserve(value.size());
    for (const char c : value) {
        switch (c) {
          case '\\':
            out += "\\\\";
            break;
          case '"':
            out += "\\\"";
            break;
          case '\n':
            out += "\\n";
            break;
          default:
            out += c;
        }
    }
    return out;
}

/** Format a sample value: integral doubles without a fraction, NaN and
 *  infinities in the spec's spelling. */
std::string
FormatValue(double v)
{
    if (std::isnan(v)) {
        return "NaN";
    }
    if (std::isinf(v)) {
        return v > 0 ? "+Inf" : "-Inf";
    }
    if (v == static_cast<double>(static_cast<int64_t>(v)) &&
        std::fabs(v) < 1e15) {
        return std::to_string(static_cast<int64_t>(v));
    }
    // Shortest representation that round-trips, so bucket bounds read
    // as "0.003", not "0.0030000000000000001".
    for (int precision = 6; precision <= 17; ++precision) {
        std::ostringstream oss;
        oss.precision(precision);
        oss << v;
        if (std::stod(oss.str()) == v) {
            return oss.str();
        }
    }
    std::ostringstream oss;
    oss.precision(17);
    oss << v;
    return oss.str();
}

void
EmitFamily(std::ostringstream& out, const std::string& family,
           const char* type, const std::string& dotted)
{
    out << "# HELP " << family << " xtalk metric "
        << EscapeLabelValue(dotted) << "\n";
    out << "# TYPE " << family << " " << type << "\n";
}

}  // namespace

std::string
OpenMetricsName(const std::string& dotted)
{
    std::string out = "xtalk_";
    out.reserve(dotted.size() + out.size());
    for (const char c : dotted) {
        const bool ok = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
                        (c >= '0' && c <= '9') || c == '_';
        out += ok ? c : '_';
    }
    return out;
}

std::string
OpenMetricsText()
{
    Registry& reg = Registry::Global();
    std::ostringstream out;

    for (const auto& [name, value] : reg.CounterSamples()) {
        const std::string family = OpenMetricsName(name);
        EmitFamily(out, family, "counter", name);
        out << family << "_total " << value << "\n";
    }

    for (const auto& [name, value] : reg.GaugeSamples()) {
        const std::string family = OpenMetricsName(name);
        EmitFamily(out, family, "gauge", name);
        out << family << " " << FormatValue(value) << "\n";
    }

    for (const auto& [name, hist] : reg.HistogramSamples()) {
        const std::string family = OpenMetricsName(name);
        EmitFamily(out, family, "histogram", name);
        const std::vector<double>& bounds = hist->bounds();
        const std::vector<uint64_t> counts = hist->BucketCounts();
        uint64_t cumulative = 0;
        for (size_t i = 0; i < bounds.size(); ++i) {
            cumulative += counts[i];
            out << family << "_bucket{le=\"" << FormatValue(bounds[i])
                << "\"} " << cumulative << "\n";
        }
        cumulative += counts.back();
        out << family << "_bucket{le=\"+Inf\"} " << cumulative << "\n";
        out << family << "_sum " << FormatValue(hist->sum()) << "\n";
        out << family << "_count " << hist->count() << "\n";
    }

    const auto labels = reg.LabelSamples();
    if (!labels.empty()) {
        EmitFamily(out, "xtalk_run_info", "gauge", "labels");
        out << "xtalk_run_info{";
        bool first = true;
        for (const auto& [key, value] : labels) {
            if (!first) {
                out << ",";
            }
            first = false;
            // Label *names* share the metric-name alphabet; reuse the
            // sanitizer and strip its metric prefix.
            out << OpenMetricsName(key).substr(6) << "=\""
                << EscapeLabelValue(value) << "\"";
        }
        out << "} 1\n";
    }

    out << "# EOF\n";
    return out.str();
}

bool
WriteOpenMetrics(const std::string& path, std::string* error)
{
    return WriteTextFile(path, OpenMetricsText(), error);
}

namespace {

struct FamilyState {
    uint64_t last_bucket = 0;
    bool saw_inf = false;
    bool saw_sum = false;
    bool saw_count = false;
    uint64_t inf_value = 0;
    uint64_t count_value = 0;
    bool any_bucket = false;
};

bool
Fail(std::string* error, const std::string& message)
{
    if (error) {
        *error = message;
    }
    return false;
}

/** Parse `name{labels} value` into its parts. */
bool
SplitSample(const std::string& line, std::string* name, std::string* value)
{
    size_t name_end = 0;
    while (name_end < line.size() &&
           (std::isalnum(static_cast<unsigned char>(line[name_end])) ||
            line[name_end] == '_')) {
        ++name_end;
    }
    if (name_end == 0) {
        return false;
    }
    *name = line.substr(0, name_end);
    size_t pos = name_end;
    if (pos < line.size() && line[pos] == '{') {
        const size_t close = line.find('}', pos);
        if (close == std::string::npos) {
            return false;
        }
        pos = close + 1;
    }
    if (pos >= line.size() || line[pos] != ' ') {
        return false;
    }
    *value = line.substr(pos + 1);
    return !value->empty();
}

}  // namespace

bool
ValidateOpenMetrics(const std::string& text, std::string* error)
{
    std::istringstream in(text);
    std::string line;
    bool saw_eof = false;
    std::map<std::string, FamilyState> hist_families;
    std::map<std::string, std::string> family_types;
    while (std::getline(in, line)) {
        if (saw_eof) {
            return Fail(error, "content after # EOF: " + line);
        }
        if (line.empty()) {
            return Fail(error, "empty line");
        }
        if (line[0] == '#') {
            if (line == "# EOF") {
                saw_eof = true;
                continue;
            }
            std::istringstream meta(line);
            std::string hash, kind, family, rest;
            meta >> hash >> kind >> family;
            if (kind == "TYPE") {
                meta >> rest;
                if (rest != "counter" && rest != "gauge" &&
                    rest != "histogram") {
                    return Fail(error, "unknown TYPE: " + line);
                }
                family_types[family] = rest;
            } else if (kind != "HELP") {
                return Fail(error, "unknown comment: " + line);
            }
            continue;
        }
        std::string name, value;
        if (!SplitSample(line, &name, &value)) {
            return Fail(error, "malformed sample: " + line);
        }
        if (value != "NaN" && value != "+Inf" && value != "-Inf") {
            try {
                size_t used = 0;
                std::stod(value, &used);
                if (used != value.size()) {
                    return Fail(error, "bad sample value: " + line);
                }
            } catch (const std::exception&) {
                return Fail(error, "bad sample value: " + line);
            }
        }
        // Histogram bookkeeping: cumulative buckets, +Inf, _sum/_count.
        auto ends_with = [&name](const char* suffix) {
            const std::string s(suffix);
            return name.size() > s.size() &&
                   name.compare(name.size() - s.size(), s.size(), s) == 0;
        };
        auto family_of = [&name](size_t suffix_len) {
            return name.substr(0, name.size() - suffix_len);
        };
        if (ends_with("_bucket")) {
            FamilyState& st = hist_families[family_of(7)];
            const uint64_t v =
                static_cast<uint64_t>(std::stod(value));
            const bool inf = line.find("le=\"+Inf\"") != std::string::npos;
            if (st.any_bucket && v < st.last_bucket) {
                return Fail(error, "non-cumulative bucket: " + line);
            }
            st.any_bucket = true;
            st.last_bucket = v;
            if (inf) {
                st.saw_inf = true;
                st.inf_value = v;
            }
        } else if (ends_with("_sum")) {
            hist_families[family_of(4)].saw_sum = true;
        } else if (ends_with("_count")) {
            FamilyState& st = hist_families[family_of(6)];
            st.saw_count = true;
            st.count_value = static_cast<uint64_t>(std::stod(value));
        }
    }
    if (!saw_eof) {
        return Fail(error, "missing # EOF terminator");
    }
    for (const auto& [family, st] : hist_families) {
        if (family_types.count(family) &&
            family_types.at(family) != "histogram") {
            continue;  // _sum/_count-looking names of another type.
        }
        if (!st.any_bucket) {
            continue;
        }
        if (!st.saw_inf) {
            return Fail(error, family + ": no +Inf bucket");
        }
        if (!st.saw_sum || !st.saw_count) {
            return Fail(error, family + ": missing _sum or _count");
        }
        if (st.count_value != st.inf_value) {
            return Fail(error, family + ": _count != +Inf bucket");
        }
    }
    return true;
}

}  // namespace xtalk::telemetry
