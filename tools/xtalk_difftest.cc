/**
 * @file
 * Differential-oracle runner: sweep adversarial circuit families across
 * devices and cross-check every simulation backend on the compiled
 * schedules (src/difftest). The CI nightly pins a seed and fails the
 * build on any divergence.
 *
 *   xtalk_difftest --seed 2020 --shots 2048
 *   xtalk_difftest --families clifford-only,depth-chain --devices 0,2
 *   xtalk_difftest --faults 'smt.solve:n=1;seed=7' --json report.json
 *
 * Exit codes follow common/status.h: 0 = all cases agree, 2 = at least
 * one divergence (or bad usage), 3 = internal error.
 */
#include <algorithm>
#include <cstring>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "common/status.h"
#include "difftest/difftest.h"
#include "device/ibmq_devices.h"

namespace {

using xtalk::difftest::OracleOptions;
using xtalk::difftest::OracleReport;

void
PrintUsage()
{
    std::cout <<
        "usage: xtalk_difftest [options]\n"
        "  --seed N          base seed for generation and simulation "
        "(default 2020)\n"
        "  --shots N         shots per sampled backend (default 2048)\n"
        "  --max-qubits N    active-window cap, 2..10 (default 5)\n"
        "  --intensity N     depth/density knob (default 2)\n"
        "  --families LIST   comma-separated family names (default all: "
        "parallel-cx-mesh,depth-chain,readout-heavy,clifford-only)\n"
        "  --devices LIST    comma-separated paper devices, by index or "
        "name: 0=ibmq_poughkeepsie 1=ibmq_johannesburg 2=ibmq_boeblingen "
        "(default all)\n"
        "  --scheduler NAME  compile policy (default greedy)\n"
        "  --base-tvd X      TVD slack over sampling error (default 0.03)\n"
        "  --faults PLAN     re-run every case under this fault plan\n"
        "  --json PATH       write the machine-readable report ('-' = "
        "stdout, with the per-case lines on stderr)\n"
        "  --quiet           suppress the per-case report lines\n";
}

std::vector<std::string>
SplitCommas(const std::string& s)
{
    std::vector<std::string> out;
    std::istringstream iss(s);
    std::string item;
    while (std::getline(iss, item, ',')) {
        if (!item.empty()) {
            out.push_back(item);
        }
    }
    return out;
}

}  // namespace

int
main(int argc, char** argv)
{
    OracleOptions options;
    std::string json_path;
    bool quiet = false;
    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            auto need_value = [&]() -> std::string {
                XTALK_REQUIRE(i + 1 < argc, arg << " needs a value");
                return argv[++i];
            };
            if (arg == "--help" || arg == "-h") {
                PrintUsage();
                return static_cast<int>(xtalk::StatusCode::kOk);
            } else if (arg == "--seed") {
                options.seed = std::stoull(need_value());
            } else if (arg == "--shots") {
                options.shots = std::stoi(need_value());
            } else if (arg == "--max-qubits") {
                options.max_qubits = std::stoi(need_value());
            } else if (arg == "--intensity") {
                options.intensity = std::stoi(need_value());
            } else if (arg == "--base-tvd") {
                options.base_tvd = std::stod(need_value());
            } else if (arg == "--families") {
                for (const std::string& name : SplitCommas(need_value())) {
                    options.families.push_back(
                        xtalk::ParseAdversarialFamily(name));
                }
            } else if (arg == "--devices") {
                const std::vector<xtalk::Device> all =
                    xtalk::MakePaperDevices();
                for (const std::string& item : SplitCommas(need_value())) {
                    // Accept an index or a device name; either way the
                    // diagnostic names the choices instead of leaking a
                    // std::stoul exception.
                    const auto by_name = std::find_if(
                        all.begin(), all.end(), [&](const xtalk::Device& d) {
                            return d.name() == item;
                        });
                    if (by_name != all.end()) {
                        options.devices.push_back(*by_name);
                        continue;
                    }
                    size_t parsed = 0;
                    size_t d = all.size();
                    try {
                        d = std::stoul(item, &parsed);
                    } catch (const std::exception&) {
                        parsed = 0;
                    }
                    std::ostringstream known;
                    for (size_t k = 0; k < all.size(); ++k) {
                        known << (k == 0 ? "" : ", ") << k << "="
                              << all[k].name();
                    }
                    XTALK_REQUIRE(parsed == item.size() && d < all.size(),
                                  "unknown device '"
                                      << item << "' (choices: " << known.str()
                                      << ")");
                    options.devices.push_back(all[d]);
                }
            } else if (arg == "--scheduler") {
                const std::string name = need_value();
                XTALK_REQUIRE(
                    xtalk::ParseSchedulerPolicy(name, &options.scheduler),
                    "unknown scheduler '" << name << "'");
            } else if (arg == "--faults") {
                options.fault_plan = need_value();
            } else if (arg == "--json") {
                json_path = need_value();
            } else if (arg == "--quiet") {
                quiet = true;
            } else {
                PrintUsage();
                XTALK_REQUIRE(false, "unknown argument '" << arg << "'");
            }
        }

        const OracleReport report =
            xtalk::difftest::RunDifferentialOracle(options);
        if (!quiet) {
            // With the report on stdout, stdout holds JSON alone.
            (json_path == "-" ? std::cerr : std::cout)
                << report.Summary() << "\n";
        }
        if (!json_path.empty()) {
            if (json_path == "-") {
                std::cout << report.ToJson() << "\n";
            } else {
                std::ofstream out(json_path);
                XTALK_REQUIRE(out.good(),
                              "cannot open " << json_path << " for writing");
                out << report.ToJson() << "\n";
            }
        }
        return static_cast<int>(report.ok() ? xtalk::StatusCode::kOk
                                            : xtalk::StatusCode::kError);
    } catch (const xtalk::InternalError& e) {
        std::cerr << "internal error: " << e.what() << "\n";
        return static_cast<int>(xtalk::StatusCode::kInternal);
    } catch (const std::exception& e) {
        std::cerr << "error: " << e.what() << "\n";
        return static_cast<int>(xtalk::StatusCode::kError);
    }
}
