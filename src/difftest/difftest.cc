#include "difftest/difftest.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <sstream>

#include "common/error.h"
#include "common/rng.h"
#include "common/statistics.h"
#include "device/ibmq_devices.h"
#include "faults/faults.h"
#include "sim/density_replay.h"
#include "sim/exact_distribution.h"
#include "sim/noisy_simulator.h"
#include "sim/stabilizer.h"
#include "telemetry/json.h"
#include "telemetry/telemetry.h"

namespace xtalk::difftest {

namespace {

/** Seed-stream tags so every stochastic arm draws independently. */
constexpr uint64_t kSvStream = 0xA;
constexpr uint64_t kStabStream = 0xB;

/** Extra TVD slack for the stabilizer arm (Pauli-twirl is O(gamma^2)
 *  approximate per decoherence step). */
constexpr double kStabilizerMargin = 0.05;

bool
SameHistogram(const Counts& a, const Counts& b)
{
    return a.histogram() == b.histogram();
}

/**
 * The first bit pattern at which two distributions differ by more than
 * @p tolerance, as "bit pattern i: a vs b" (a shorter one reads as
 * zeros past its end); nullopt when they agree.
 */
std::optional<std::string>
Divergence(const std::vector<double>& a, const std::vector<double>& b,
           double tolerance)
{
    for (size_t i = 0; i < std::max(a.size(), b.size()); ++i) {
        const double x = i < a.size() ? a[i] : 0.0;
        const double y = i < b.size() ? b[i] : 0.0;
        if (std::abs(x - y) > tolerance) {
            std::ostringstream oss;
            oss << "bit pattern " << i << ": " << x << " vs " << y;
            return oss.str();
        }
    }
    return std::nullopt;
}

/** Run one (family, device) case end to end. */
CaseResult
RunCase(const Device& device, AdversarialFamily family, uint64_t case_seed,
        const OracleOptions& options)
{
    CaseResult result;
    result.family = ToString(family);
    result.device = device.name();
    result.seed = case_seed;
    result.clifford = IsCliffordFamily(family);

    AdversarialOptions gen;
    gen.family = family;
    gen.max_qubits = options.max_qubits;
    gen.intensity = options.intensity;
    gen.seed = case_seed;
    const Circuit circuit = BuildAdversarialCircuit(device, gen);
    result.depth = circuit.Depth();

    // A perfect characterization stands in for a full SRB run, so the
    // oracle spends its time in the backends.
    const CrosstalkCharacterization characterization =
        GroundTruthCharacterization(device);
    CompilerOptions copts;
    copts.scheduler = options.scheduler;

    // The baseline must be fault-free even when the process carries an
    // ambient XTALK_FAULTS plan (the fault arm re-installs it below).
    Counts baseline_counts(1);
    CompileResult compiled;
    {
        faults::ScopedFaultPlan clean{faults::FaultPlan{}};
        compiled = Compile(device, characterization, circuit, copts);
        result.width =
            static_cast<int>(compiled.executable.ActiveQubits().size());
        result.degradation = compiled.degradation;
        if (compiled.degradation != "none") {
            result.failures.push_back("fault-free compile degraded to '" +
                                      compiled.degradation +
                                      "': " + compiled.degradation_reason);
        }

        // Exact reference distribution.
        const DensityReplayResult exact =
            ReplayScheduleDensity(device, compiled.schedule);
        if (std::abs(exact.trace - 1.0) > 1e-6) {
            std::ostringstream oss;
            oss << "density replay trace drifted to " << exact.trace;
            result.failures.push_back(oss.str());
        }
        size_t support = 0;
        for (double p : exact.probabilities) {
            if (p > 1e-9) {
                ++support;
            }
        }
        result.threshold =
            options.base_tvd +
            std::sqrt(static_cast<double>(std::max<size_t>(support, 2)) /
                      options.shots);

        // Sampled arm 1: statevector trajectories.
        const RunSpec sv_spec(options.shots,
                              DeriveSeed(case_seed, kSvStream));
        NoisySimulator sv(device);
        baseline_counts = sv.Run(compiled.schedule, sv_spec);
        result.tvd_sv_dm = TotalVariationDistance(
            baseline_counts.ToProbabilities(), exact.probabilities);
        if (result.tvd_sv_dm > result.threshold) {
            std::ostringstream oss;
            oss << "statevector vs density-matrix TVD " << result.tvd_sv_dm
                << " exceeds threshold " << result.threshold;
            result.failures.push_back(oss.str());
        }

        // Deterministic projection 1: a same-seed trajectory rerun is
        // bit-identical (the engine is a pure function of its seed).
        NoisySimulator sv_replay(device);
        if (!SameHistogram(baseline_counts,
                           sv_replay.Run(compiled.schedule, sv_spec))) {
            result.failures.push_back(
                "same-seed statevector rerun is not bit-identical");
        }

        // Deterministic projection 2: the noise-free replay equals the
        // trajectory engine's ideal distribution exactly.
        NoisySimOptions noiseless;
        noiseless.gate_noise = false;
        noiseless.crosstalk = false;
        noiseless.decoherence = false;
        noiseless.readout_noise = false;
        const std::vector<double> ideal_dm =
            ReplayScheduleDensity(device, compiled.schedule, noiseless)
                .probabilities;
        const std::vector<double> ideal_sv =
            sv.IdealProbabilities(compiled.schedule);
        if (const auto at = Divergence(ideal_dm, ideal_sv, 1e-9)) {
            result.failures.push_back(
                "noise-free replay diverges from ideal at " + *at);
        }

        // Deterministic projection 3: the exact engine, which
        // default-backend Executor jobs sample, computes the replay's
        // distribution.
        const std::vector<double> engine =
            ExactDistribution(
                BuildRunPlan(device, NoisySimOptions{}, compiled.schedule))
                .Probabilities();
        if (const auto at = Divergence(engine, exact.probabilities, 1e-12)) {
            result.failures.push_back(
                "exact engine diverges from density replay at " + *at);
        }

        // Sampled arm 2: Pauli-twirled stabilizer, Clifford inputs only.
        if (result.clifford) {
            StabilizerSimulator stab(device);
            const Counts stab_counts =
                stab.Run(compiled.schedule,
                         RunSpec(options.shots,
                                 DeriveSeed(case_seed, kStabStream)));
            result.tvd_stab_dm = TotalVariationDistance(
                stab_counts.ToProbabilities(), exact.probabilities);
            const double stab_threshold =
                result.threshold + kStabilizerMargin;
            if (result.tvd_stab_dm > stab_threshold) {
                std::ostringstream oss;
                oss << "stabilizer vs density-matrix TVD "
                    << result.tvd_stab_dm << " exceeds threshold "
                    << stab_threshold;
                result.failures.push_back(oss.str());
            }
        }
    }

    // Fault arm: every injected Error must heal bit-identically or
    // surface as a structured degradation — never silently diverge.
    if (!options.fault_plan.empty()) {
        faults::ScopedFaultPlan plan(options.fault_plan);
        try {
            const CompileResult faulted =
                Compile(device, characterization, circuit, copts);
            NoisySimulator sv(device);
            const Counts faulted_counts =
                sv.Run(faulted.schedule,
                       RunSpec(options.shots,
                               DeriveSeed(case_seed, kSvStream)));
            if (SameHistogram(faulted_counts, baseline_counts)) {
                result.fault_outcome = "healed";
            } else if (faulted.degradation != "none") {
                result.fault_outcome = "degraded: " + faulted.degradation;
            } else {
                result.fault_outcome = "silent-divergence";
                result.failures.push_back(
                    "fault run diverged numerically with no structured "
                    "degradation (degradation == 'none')");
            }
        } catch (const InternalError&) {
            throw;  // Simulated bugs must escape the oracle too.
        } catch (const Error& e) {
            result.fault_outcome = std::string("error: ") + e.what();
        }
    }

    if (telemetry::Enabled()) {
        telemetry::GetCounter("difftest.cases").Add(1);
        if (!result.passed()) {
            telemetry::GetCounter("difftest.divergences").Add(1);
        }
    }
    return result;
}

}  // namespace

std::string
CaseResult::Line() const
{
    std::ostringstream oss;
    oss << (passed() ? "PASS" : "FAIL") << " " << family << " x " << device
        << " seed=" << seed << " width=" << width << " depth=" << depth
        << " tvd(sv,dm)=" << tvd_sv_dm;
    if (clifford) {
        oss << " tvd(stab,dm)=" << tvd_stab_dm;
    }
    oss << " thresh=" << threshold;
    if (!fault_outcome.empty()) {
        oss << " faults=" << fault_outcome;
    }
    for (const std::string& f : failures) {
        oss << "\n  divergence: " << f;
    }
    return oss.str();
}

int
OracleReport::divergences() const
{
    int n = 0;
    for (const CaseResult& c : cases) {
        if (!c.passed()) {
            ++n;
        }
    }
    return n;
}

std::string
OracleReport::Summary() const
{
    std::ostringstream oss;
    for (const CaseResult& c : cases) {
        oss << c.Line() << "\n";
    }
    oss << cases.size() << " cases, " << divergences() << " divergences";
    return oss.str();
}

std::string
OracleReport::ToJson() const
{
    using telemetry::JsonEscape;
    std::ostringstream oss;
    oss << "{\"cases\":[";
    for (size_t i = 0; i < cases.size(); ++i) {
        const CaseResult& c = cases[i];
        if (i) {
            oss << ",";
        }
        oss << "{\"family\":\"" << JsonEscape(c.family) << "\""
            << ",\"device\":\"" << JsonEscape(c.device) << "\""
            << ",\"seed\":" << c.seed << ",\"width\":" << c.width
            << ",\"depth\":" << c.depth
            << ",\"clifford\":" << (c.clifford ? "true" : "false")
            << ",\"tvd_sv_dm\":" << c.tvd_sv_dm
            << ",\"tvd_stab_dm\":" << c.tvd_stab_dm
            << ",\"threshold\":" << c.threshold << ",\"degradation\":\""
            << JsonEscape(c.degradation) << "\""
            << ",\"fault_outcome\":\"" << JsonEscape(c.fault_outcome)
            << "\",\"failures\":[";
        for (size_t j = 0; j < c.failures.size(); ++j) {
            if (j) {
                oss << ",";
            }
            oss << "\"" << JsonEscape(c.failures[j]) << "\"";
        }
        oss << "]}";
    }
    oss << "],\"divergences\":" << divergences()
        << ",\"ok\":" << (ok() ? "true" : "false") << "}";
    return oss.str();
}

OracleReport
RunDifferentialOracle(const OracleOptions& options)
{
    XTALK_REQUIRE(options.shots > 0, "shots must be positive");
    XTALK_REQUIRE(options.max_qubits >= 2 && options.max_qubits <= 10,
                  "max_qubits must be in [2, 10] (exact replay limit)");
    std::vector<AdversarialFamily> families = options.families;
    if (families.empty()) {
        families = AllAdversarialFamilies();
    }
    std::vector<Device> devices = options.devices;
    if (devices.empty()) {
        devices = MakePaperDevices();
    }

    OracleReport report;
    uint64_t case_index = 0;
    for (const Device& device : devices) {
        for (AdversarialFamily family : families) {
            const uint64_t case_seed =
                DeriveSeed(options.seed, case_index++);
            report.cases.push_back(
                RunCase(device, family, case_seed, options));
        }
    }
    return report;
}

}  // namespace xtalk::difftest
