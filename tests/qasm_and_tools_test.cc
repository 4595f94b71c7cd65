/**
 * @file
 * Tests for the auxiliary library surfaces: OpenQASM export, calibration
 * reports, model-guided omega selection, and the xtalkc CLI's telemetry
 * output (runs the real binary via XTALK_XTALKC_BIN).
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iomanip>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#ifdef __unix__
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "circuit/qasm.h"
#include "circuit/qasm_parser.h"
#include "common/error.h"
#include "device/calibration_report.h"
#include "device/ibmq_devices.h"
#include "scheduler/omega_tuning.h"
#include "sim/statevector.h"
#include "telemetry/json.h"
#include "telemetry/openmetrics.h"
#include "transpile/routing.h"
#include "workloads/hidden_shift.h"
#include "workloads/swap_circuits.h"

namespace xtalk {
namespace {

TEST(Qasm, EmitsHeaderAndRegisters)
{
    Circuit c(3);
    c.H(0).CX(0, 1).Measure(1, 0);
    const std::string qasm = ToQasm(c);
    EXPECT_NE(qasm.find("OPENQASM 2.0;"), std::string::npos);
    EXPECT_NE(qasm.find("include \"qelib1.inc\";"), std::string::npos);
    EXPECT_NE(qasm.find("qreg q[3];"), std::string::npos);
    EXPECT_NE(qasm.find("creg c[1];"), std::string::npos);
    EXPECT_NE(qasm.find("h q[0];"), std::string::npos);
    EXPECT_NE(qasm.find("cx q[0], q[1];"), std::string::npos);
    EXPECT_NE(qasm.find("measure q[1] -> c[0];"), std::string::npos);
}

TEST(Qasm, OmitsCregWithoutMeasures)
{
    Circuit c(1);
    c.H(0);
    EXPECT_EQ(ToQasm(c).find("creg"), std::string::npos);
}

TEST(Qasm, ParameterizedGatesCarryAngles)
{
    Circuit c(1);
    c.U3(0.5, 0.25, 0.125, 0);
    const std::string qasm = ToQasm(c);
    EXPECT_NE(qasm.find("u3(0.5,0.25,0.125) q[0];"), std::string::npos);
}

TEST(Qasm, BarriersAndSwapsLowered)
{
    Circuit c(2);
    c.Swap(0, 1).Barrier({0, 1});
    const std::string qasm = ToQasm(c);
    // Swap -> 3 CNOTs.
    size_t count = 0, pos = 0;
    while ((pos = qasm.find("cx ", pos)) != std::string::npos) {
        ++count;
        ++pos;
    }
    EXPECT_EQ(count, 3u);
    EXPECT_NE(qasm.find("barrier q[0], q[1];"), std::string::npos);
}

TEST(Qasm, MatchesSetprecision17Reference)
{
    // The emitter's bytes against a reference written with
    // std::ostringstream << std::setprecision(17), for angles that need
    // every digit, signed zero, the smallest denormal, non-finite
    // values, and every statement form.
    constexpr double kInf = std::numeric_limits<double>::infinity();
    const std::vector<double> angles{
        0.1,  1e-05, -0.0, 5e-324, 1e300, M_PI / 2, -M_PI / 2,
        kInf, -kInf, std::numeric_limits<double>::quiet_NaN()};
    Circuit c(3);
    std::ostringstream body;
    body << std::setprecision(17);
    for (double angle : angles) {
        c.RZ(angle, 0);
        body << "rz(" << angle << ") q[0];\n";
    }
    c.U3(0.1, M_PI / 2, -M_PI / 2, 2).U2(1e300, 5e-324, 1);
    body << "u3(" << 0.1 << "," << M_PI / 2 << "," << -M_PI / 2
         << ") q[2];\n"
         << "u2(" << 1e300 << "," << 5e-324 << ") q[1];\n";
    c.I(1).Swap(0, 2).Barrier({2, 0, 1}).CZ(1, 2).CX(2, 1);
    body << "id q[1];\n"
         << "cx q[0], q[2];\ncx q[2], q[0];\ncx q[0], q[2];\n"
         << "barrier q[2], q[0], q[1];\n"
         << "cz q[1], q[2];\ncx q[2], q[1];\n";
    c.Measure(2, 1).Measure(0, 0);
    body << "measure q[2] -> c[1];\nmeasure q[0] -> c[0];\n";
    EXPECT_EQ(ToQasm(c), "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
                         "qreg q[3];\ncreg c[2];\n" +
                             body.str());
}

TEST(QasmParser, ParsesBasicProgram)
{
    const Circuit c = ParseQasm(
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[3];\n"
        "creg c[2];\n"
        "h q[0];\n"
        "cx q[0], q[1];\n"
        "u3(0.5,0.25,0.125) q[2];\n"
        "barrier q[0], q[1];\n"
        "measure q[1] -> c[0];\n");
    EXPECT_EQ(c.num_qubits(), 3);
    EXPECT_EQ(c.size(), 5);
    EXPECT_EQ(c.gate(0).kind, GateKind::kH);
    EXPECT_EQ(c.gate(1).qubits, (Gate::Qubits{0, 1}));
    EXPECT_DOUBLE_EQ(c.gate(2).params[1], 0.25);
    EXPECT_EQ(c.gate(3).kind, GateKind::kBarrier);
    EXPECT_EQ(c.gate(4).cbit, 0);
}

TEST(QasmParser, WholeRegisterBarrierRoundTrips)
{
    // `barrier q;` spans the register: on the widest one allowed its
    // operands spill out of the gate's inline storage.
    const std::string program =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[1024];\n"
        "creg c[2];\nh q[1023];\nbarrier q;\ncx q[1023],q[0];\n"
        "measure q[0] -> c[1];\n";
    const Circuit parsed = ParseQasm(program);
    ASSERT_EQ(parsed.size(), 4);
    const Gate& barrier = parsed.gate(1);
    ASSERT_TRUE(barrier.IsBarrier());
    ASSERT_EQ(barrier.qubits.size(), 1024u);
    for (QubitId q = 0; q < 1024; ++q) {
        EXPECT_EQ(barrier.qubits[q], q);
    }
    const std::string emitted = ToQasm(parsed);
    const Circuit reparsed = ParseQasm(emitted);
    EXPECT_EQ(reparsed.gates(), parsed.gates());
    EXPECT_EQ(ToQasm(reparsed), emitted);
    EXPECT_THROW(ParseQasm("OPENQASM 2.0;\nbarrier q;\nqreg q[2];\n"),
                 Error);
}

TEST(QasmParser, PiExpressions)
{
    const Circuit c = ParseQasm(
        "OPENQASM 2.0;\nqreg q[1];\n"
        "rz(pi) q[0]; rz(-pi) q[0]; rz(pi/2) q[0]; rz(2*pi) q[0];\n"
        "rz(3*pi/4) q[0]; rz(0.5) q[0];\n");
    EXPECT_DOUBLE_EQ(c.gate(0).params[0], M_PI);
    EXPECT_DOUBLE_EQ(c.gate(1).params[0], -M_PI);
    EXPECT_DOUBLE_EQ(c.gate(2).params[0], M_PI / 2);
    EXPECT_DOUBLE_EQ(c.gate(3).params[0], 2 * M_PI);
    EXPECT_DOUBLE_EQ(c.gate(4).params[0], 3 * M_PI / 4);
    EXPECT_DOUBLE_EQ(c.gate(5).params[0], 0.5);
}

TEST(QasmParser, AcceptedSpellingsGiveTheSameGates)
{
    Circuit expected(2);
    expected.H(0).CX(0, 1).U3(0.1, -M_PI / 2, M_PI, 1).Measure(0, 0).Measure(
        1, 1);
    const std::string header =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n";
    const std::string u3 = "u3(0.1,-pi/2,pi) q[1];\n";
    const std::string measures =
        "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n";
    for (const std::string& source : {
             header + "h q[0];\ncx q[0],q[1];\n" + u3 + measures,
             // Two statements on one line.
             header + "h q[0]; cx q[0],q[1];\n" + u3 + measures,
             header + "h q[0];\ncx q[0],q[1];\n" + u3 +
                 "measure q[0]->c[0];\nmeasure q[1]->c[1];\n",
             header + "h q[0];\ncx q[0] , q[1];\n" + u3 + measures,
             // Tabs and CRLF line ends.
             std::string("OPENQASM 2.0;\r\nqreg q[2];\r\ncreg c[2];\r\n") +
                 "\th q[0];\r\n\tcx q[0],\tq[1];\r\n" +
                 "u3(0.1,-pi/2,pi) q[1];\r\n" +
                 "measure q[0] -> c[0];\r\nmeasure q[1] -> c[1];\r\n",
             header + "h q[0]; // the first gate\ncx q[0],q[1];\n" + u3 +
                 measures,
             // The last statement has no ';'.
             header + "h q[0];\ncx q[0],q[1];\n" + u3 +
                 "measure q[0] -> c[0];\nmeasure q[1] -> c[1]",
             std::string("OPENQASM 2.0; qreg q[2]; creg c[2]; h q[0]; ") +
                 "cx q[0],q[1]; u3(0.1,-pi/2,pi) q[1]; measure q -> c;",
             header + "h q[0];\ncx q[0],q[1];\n" + u3 + "measure q -> c;\n",
             header + "h q[0];\ncx q[0],q[1];\nu3(0.1, -pi/2 ,pi) q[1];\n" +
                 measures,
         }) {
        const Circuit parsed = ParseQasm(source);
        EXPECT_EQ(parsed.num_qubits(), 2) << source;
        EXPECT_EQ(parsed.num_clbits(), 2) << source;
        EXPECT_EQ(parsed.gates(), expected.gates()) << source;
    }
    for (const char* statement : {"h q[ 0 ];", "H q[0];"}) {
        EXPECT_THROW(ParseQasm(header + statement + "\n"), Error)
            << statement;
    }
}

TEST(QasmParser, DecimalSpellingsKeepTheirExactValue)
{
    const std::vector<std::pair<std::string, double>> spellings{
        {".5", 0.5},           {"5.", 5.0},        {"1E-5", 1e-5},
        {"+0.5", 0.5},         {"- pi / 2", -M_PI / 2},
        {"-2.5e+1*pi/-4", -1.0 * 25.0 * M_PI / -4.0},
        // The smallest denormal, as the emitter writes it.
        {"4.9406564584124654e-324", 5e-324}};
    for (const auto& [spelling, value] : spellings) {
        const Circuit c = ParseQasm("OPENQASM 2.0;\nqreg q[1];\nrz(" +
                                    spelling + ") q[0];\n");
        EXPECT_EQ(c.gate(0).params[0], value) << spelling;
    }
    Circuit denormal(1);
    denormal.RZ(5e-324, 0).RZ(-0.0, 0);
    EXPECT_EQ(ParseQasm(ToQasm(denormal)).gates(), denormal.gates());
    EXPECT_TRUE(std::signbit(
        ParseQasm(ToQasm(denormal)).gate(1).params[0]));
}

TEST(QasmParser, RejectsMalformedPrograms)
{
    EXPECT_THROW(ParseQasm("qreg q[2];\ncx q[0], q[1];\n"), Error);
    EXPECT_THROW(ParseQasm("OPENQASM 2.0;\nh q[0];\n"), Error);
    EXPECT_THROW(
        ParseQasm("OPENQASM 2.0;\nqreg q[2];\nmagic q[0];\n"), Error);
    EXPECT_THROW(
        ParseQasm("OPENQASM 2.0;\nqreg q[2];\ncx q[0], q[7];\n"), Error);
    EXPECT_THROW(
        ParseQasm("OPENQASM 2.0;\nqreg q[2];\nmeasure q[0];\n"), Error);
}

TEST(QasmParser, OverflowingIndexIsALineNumberedError)
{
    for (const char* statement :
         {"h q[99999999999];", "h q[2147483648];", "qreg q[99999999999];",
          "measure q[0] -> c[99999999999];"}) {
        const std::string source =
            std::string("OPENQASM 2.0;\n") +
            (std::string(statement).rfind("qreg", 0) == 0 ? ""
                                                           : "qreg q[2];\n") +
            statement + "\n";
        try {
            ParseQasm(source);
            ADD_FAILURE() << statement << " parsed";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("out of range"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("line "), std::string::npos)
                << e.what();
        }
    }
    // The largest int still parses as an index (and then fails the
    // register bound like any other out-of-register qubit).
    EXPECT_THROW(ParseQasm("OPENQASM 2.0;\nqreg q[2];\nh q[2147483647];\n"),
                 Error);
}

TEST(QasmParser, RejectsRegistersPastTheLimit)
{
    const std::string past = std::to_string(kMaxQasmRegisterSize + 1);
    for (const std::string& registers :
         {"qreg q[" + past + "];\n", "creg c[" + past + "];\nqreg q[2];\n",
          // 10^8 whole-register measures, rejected before any is built.
          std::string("qreg q[100000000];\ncreg c[100000000];\n"
                      "measure q -> c;\n")}) {
        try {
            ParseQasm("OPENQASM 2.0;\n" + registers);
            ADD_FAILURE() << registers << " parsed";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("line 2"),
                      std::string::npos)
                << e.what();
            EXPECT_NE(std::string(e.what()).find("exceeds"),
                      std::string::npos)
                << e.what();
        }
    }
    const std::string at = std::to_string(kMaxQasmRegisterSize);
    const Circuit c = ParseQasm("OPENQASM 2.0;\nqreg q[" + at +
                                "];\ncreg c[" + at + "];\nmeasure q -> c;\n");
    EXPECT_EQ(c.num_qubits(), kMaxQasmRegisterSize);
    EXPECT_EQ(c.size(), kMaxQasmRegisterSize);
}

TEST(QasmParser, UnparsableOrOverflowingPiFactorIsABadParameter)
{
    for (const char* param :
         {"x*pi", "pi/1e999", "1e999*pi",
          // Literals read only in part, or read into non-finite angles.
          "1.5abc", "pi/2x", "2*pi/3/4", "0x10", "inf", "nan", "1e308*pi"}) {
        const std::string source = std::string("OPENQASM 2.0;\nqreg q[1];\n") +
                                   "rx(" + param + ") q[0];\n";
        try {
            ParseQasm(source);
            ADD_FAILURE() << param << " parsed";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("line 3: bad parameter"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(QasmParser, WholeRegisterMeasureExpandsInIndexOrder)
{
    const std::string bell =
        "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[2];\ncreg c[2];\n"
        "h q[0];\ncx q[0], q[1];\n";
    const Circuit whole = ParseQasm(bell + "measure q -> c;\n");
    const Circuit indexed =
        ParseQasm(bell + "measure q[0] -> c[0];\nmeasure q[1] -> c[1];\n");
    EXPECT_EQ(whole.num_qubits(), indexed.num_qubits());
    EXPECT_EQ(whole.num_clbits(), indexed.num_clbits());
    EXPECT_EQ(whole.gates(), indexed.gates());
}

TEST(QasmParser, WholeRegisterMeasureNeedsAMatchingCreg)
{
    for (const char* creg : {"creg c[1];", "creg c[3];", "// no creg"}) {
        const std::string source = std::string("OPENQASM 2.0;\nqreg q[2];\n") +
                                   creg + "\nmeasure q -> c;\n";
        try {
            ParseQasm(source);
            ADD_FAILURE() << creg << " parsed";
        } catch (const Error& e) {
            EXPECT_NE(std::string(e.what()).find("line 4: measure q -> c"),
                      std::string::npos)
                << e.what();
        }
    }
}

TEST(QasmParser, RoundTripsExporterOutput)
{
    Circuit original(4);
    original.H(0)
        .CX(0, 1)
        .T(1)
        .U2(0.3, 1.1, 2)
        .RZ(0.7, 3)
        .Swap(2, 3)
        .Barrier({0, 1, 2, 3})
        .SX(1)
        .MeasureAll();
    const Circuit parsed = ParseQasm(ToQasm(original));
    ASSERT_EQ(parsed.num_qubits(), original.num_qubits());
    // Swap was lowered to 3 CX by the exporter: compare semantics via
    // unitary equivalence of the non-measure prefix.
    Circuit original_u(4), parsed_u(4);
    for (const Gate& g : original.gates()) {
        if (g.IsUnitary()) {
            original_u.Add(g);
        }
    }
    for (const Gate& g : parsed.gates()) {
        if (g.IsUnitary()) {
            parsed_u.Add(g);
        }
    }
    EXPECT_TRUE(CircuitUnitary(LowerSwaps(original_u))
                    .EqualsUpToPhase(CircuitUnitary(parsed_u), 1e-9));
    // Measures preserved with their classical targets.
    EXPECT_EQ(parsed.CountKind(GateKind::kMeasure), 4);
}

TEST(CalibrationReport, ListsEveryQubitAndCoupler)
{
    const Device device = MakePoughkeepsie();
    const std::string report = DescribeCalibration(device);
    EXPECT_NE(report.find(device.name()), std::string::npos);
    // 20 qubit rows + 23 coupler rows present.
    EXPECT_NE(report.find("CX18,19"), std::string::npos);
    EXPECT_NE(report.find("T1(us)"), std::string::npos);
}

TEST(CalibrationReport, GroundTruthShowsInjectedPairs)
{
    const Device device = MakePoughkeepsie();
    const std::string report = DescribeGroundTruth(device);
    const bool found =
        report.find("CX10,15 | CX11,12") != std::string::npos ||
        report.find("CX11,12 | CX10,15") != std::string::npos;
    EXPECT_TRUE(found) << report;
}

TEST(OmegaTuning, PicksCrosstalkAwareOmegaOnConflictedCircuit)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    HiddenShiftOptions options;
    options.redundant_cnots = true;
    const Circuit circuit =
        BuildHiddenShiftCircuit(device, {10, 15, 11, 12}, options);
    const OmegaSelection selection =
        SelectOmegaByModel(device, characterization, circuit);
    ASSERT_EQ(selection.sweep.size(), 8u);
    // On a crosstalk-heavy circuit, pure parallelism must lose.
    EXPECT_GT(selection.omega, 0.0);
    EXPECT_GT(selection.estimate.success_probability,
              selection.sweep.front().second);
    EXPECT_EQ(selection.estimate.crosstalk_overlaps, 0);
}

TEST(OmegaTuning, IndifferentOnCrosstalkFreeCircuit)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    const SwapBenchmark bench = BuildSwapBenchmark(device, 0, 3);
    Circuit circuit = bench.circuit;
    circuit.Measure(bench.bell_left, 0).Measure(bench.bell_right, 1);
    const OmegaSelection selection = SelectOmegaByModel(
        device, characterization, circuit, {0.0, 0.5, 1.0});
    // All candidates produce (nearly) the same modeled success.
    for (const auto& [omega, success] : selection.sweep) {
        EXPECT_NEAR(success, selection.estimate.success_probability, 0.02)
            << "omega " << omega;
    }
}

#ifdef XTALK_XTALKC_BIN

std::string
SlurpFile(const std::string& path)
{
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

TEST(XtalkcCli, StatsAndTraceJsonOutputsAreValid)
{
    const std::string dir = ::testing::TempDir();
    const std::string qasm_path = dir + "/xtalkc_cli_in.qasm";
    const std::string stats_path = dir + "/xtalkc_cli_stats.json";
    const std::string trace_path = dir + "/xtalkc_cli_trace.json";
    {
        std::ofstream qasm(qasm_path);
        qasm << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
             << "qreg q[3];\ncreg c[1];\n"
             << "h q[0];\ncx q[0], q[1];\nmeasure q[1] -> c[0];\n";
    }
    // serial + trivial avoids on-the-fly characterization: the test
    // exercises the flag plumbing, not the SRB pipeline.
    const std::string command = std::string(XTALK_XTALKC_BIN) +
                                " --scheduler serial --layout trivial"
                                " --simulate 8 --log-level quiet"
                                " --stats-json " + stats_path +
                                " --trace-json " + trace_path + " " +
                                qasm_path + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;

    const std::string stats = SlurpFile(stats_path);
    std::string error;
    EXPECT_TRUE(telemetry::ValidateJson(stats, &error)) << error;
    EXPECT_NE(stats.find("\"xtalk.stats.v1\""), std::string::npos);
    EXPECT_NE(stats.find("\"compile.invocations\":1"), std::string::npos);
    EXPECT_NE(stats.find("\"sim.shots\":8"), std::string::npos);
    EXPECT_NE(stats.find("compiler.pass.layout.duration_us"),
              std::string::npos);
    EXPECT_NE(stats.find("compiler.pass.schedule.duration_us"),
              std::string::npos);
    EXPECT_NE(stats.find("compiler.pass.lower-barriers.duration_us"),
              std::string::npos);

    const std::string trace = SlurpFile(trace_path);
    EXPECT_TRUE(telemetry::ValidateJson(trace, &error)) << error;
    EXPECT_NE(trace.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(trace.find("compile.total"), std::string::npos);
    EXPECT_NE(trace.find("compiler.pass.schedule"), std::string::npos);

    std::remove(qasm_path.c_str());
    std::remove(stats_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(XtalkcCli, ProfileOutputsCostTreeAndCollapsedStacks)
{
    const std::string dir = ::testing::TempDir();
    const std::string qasm_path = dir + "/xtalkc_profile_in.qasm";
    const std::string profile_path = dir + "/xtalkc_profile.json";
    const std::string folded_path = dir + "/xtalkc_profile.folded";
    const std::string trace_path = dir + "/xtalkc_profile_trace.json";
    {
        std::ofstream qasm(qasm_path);
        qasm << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
             << "qreg q[3];\ncreg c[1];\n"
             << "h q[0];\ncx q[0], q[1];\nmeasure q[1] -> c[0];\n";
    }
    const std::string command = std::string(XTALK_XTALKC_BIN) +
                                " --scheduler serial --layout trivial"
                                " --simulate 8 --threads 2"
                                " --log-level quiet"
                                " --profile " + profile_path +
                                " --profile-collapsed " + folded_path +
                                " --trace-json " + trace_path + " " +
                                qasm_path + " > /dev/null 2>&1";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;

    const std::string profile = SlurpFile(profile_path);
    std::string error;
    EXPECT_TRUE(telemetry::ValidateJson(profile, &error)) << error;
    EXPECT_NE(profile.find("\"xtalk.profile.v1\""), std::string::npos);
    // The merged cost tree roots at the synthetic process node and
    // attributes the compiler pipeline below it.
    EXPECT_NE(profile.find("\"name\":\"process\""), std::string::npos);
    EXPECT_NE(profile.find("\"compile.total\""), std::string::npos);
    EXPECT_NE(profile.find("\"compiler.pass.schedule\""),
              std::string::npos);
    EXPECT_NE(profile.find("\"wall_ms\":"), std::string::npos);

    // Collapsed lines are "path;to;node <integer microseconds>".
    const std::string folded = SlurpFile(folded_path);
    ASSERT_FALSE(folded.empty());
    std::istringstream lines(folded);
    std::string line;
    while (std::getline(lines, line)) {
        const size_t space = line.rfind(' ');
        ASSERT_NE(space, std::string::npos) << line;
        EXPECT_EQ(line.substr(space + 1).find_first_not_of("0123456789"),
                  std::string::npos)
            << line;
        EXPECT_EQ(line.rfind("process", 0), 0u) << line;
    }

    // Perfetto lane names: process_name plus the named main thread.
    const std::string trace = SlurpFile(trace_path);
    EXPECT_NE(trace.find("\"process_name\""), std::string::npos);
    EXPECT_NE(trace.find("\"thread_name\""), std::string::npos);
    EXPECT_NE(trace.find("\"main\""), std::string::npos);

    std::remove(qasm_path.c_str());
    std::remove(profile_path.c_str());
    std::remove(folded_path.c_str());
    std::remove(trace_path.c_str());
}

TEST(XtalkcCli, RejectsUnknownLogLevel)
{
    const std::string command = std::string(XTALK_XTALKC_BIN) +
                                " --log-level chatty /dev/null"
                                " > /dev/null 2>&1";
    const int status = std::system(command.c_str());
    EXPECT_NE(status, 0);
}

/** Exit code of a std::system status, or -1 on abnormal termination. */
int
ExitCode(int status)
{
#ifdef WIFEXITED
    return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
#else
    return status;
#endif
}

TEST(XtalkcCli, ListPassesNamesEveryRegisteredPass)
{
    const std::string dir = ::testing::TempDir();
    const std::string out_path = dir + "/xtalkc_list_passes.txt";
    const std::string command = std::string(XTALK_XTALKC_BIN) +
                                " --list-passes > " + out_path +
                                " 2>/dev/null";
    ASSERT_EQ(ExitCode(std::system(command.c_str())), 0) << command;
    const std::string out = SlurpFile(out_path);
    for (const char* name :
         {"layout", "layout:trivial", "layout:noise-aware", "route",
          "schedule", "schedule:serial", "schedule:parallel",
          "schedule:greedy", "schedule:anneal", "schedule:xtalk",
          "schedule:auto", "schedule:portfolio", "lower-barriers",
          "estimate", "verify-layout",
          "verify-connectivity", "verify-order", "verify-readout",
          "verify-executable"}) {
        EXPECT_NE(out.find(name), std::string::npos) << name;
    }
    std::remove(out_path.c_str());
}

std::string
WriteNonAdjacentQasm(const std::string& path)
{
    std::ofstream qasm(path);
    qasm << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
         << "qreg q[4];\ncreg c[2];\n"
         << "h q[0];\ncx q[0], q[3];\n"
         << "measure q[0] -> c[0];\nmeasure q[3] -> c[1];\n";
    return path;
}

TEST(XtalkcCli, CustomPipelineWithVerificationSucceeds)
{
    const std::string dir = ::testing::TempDir();
    const std::string qasm_path =
        WriteNonAdjacentQasm(dir + "/xtalkc_pipeline_in.qasm");
    const std::string command =
        std::string(XTALK_XTALKC_BIN) +
        " --scheduler serial --layout trivial"
        " --passes layout,route,schedule,lower-barriers --verify-passes"
        " --log-level quiet " + qasm_path + " > /dev/null 2>&1";
    EXPECT_EQ(ExitCode(std::system(command.c_str())), 0) << command;
    std::remove(qasm_path.c_str());
}

TEST(XtalkcCli, BrokenOrderingFailsNamingTheOffendingPass)
{
    const std::string dir = ::testing::TempDir();
    const std::string qasm_path =
        WriteNonAdjacentQasm(dir + "/xtalkc_broken_in.qasm");
    const std::string err_path = dir + "/xtalkc_broken_err.txt";
    // Scheduling before routing: the non-adjacent CX must be rejected
    // with a diagnostic naming the schedule pass, exit code 2.
    const std::string command = std::string(XTALK_XTALKC_BIN) +
                                " --scheduler serial --layout trivial"
                                " --passes layout,schedule"
                                " --log-level quiet " + qasm_path +
                                " > /dev/null 2> " + err_path;
    EXPECT_EQ(ExitCode(std::system(command.c_str())), 2) << command;
    const std::string err = SlurpFile(err_path);
    EXPECT_NE(err.find("pass 'schedule'"), std::string::npos) << err;
    EXPECT_NE(err.find("uncoupled"), std::string::npos) << err;
    std::remove(qasm_path.c_str());
    std::remove(err_path.c_str());
}

TEST(XtalkcCli, UnknownPassNameExitsWithUsageError)
{
    const std::string dir = ::testing::TempDir();
    const std::string qasm_path =
        WriteNonAdjacentQasm(dir + "/xtalkc_unknown_pass.qasm");
    const std::string err_path = dir + "/xtalkc_unknown_pass_err.txt";
    const std::string command = std::string(XTALK_XTALKC_BIN) +
                                " --passes layout,bogus"
                                " --log-level quiet " + qasm_path +
                                " > /dev/null 2> " + err_path;
    EXPECT_EQ(ExitCode(std::system(command.c_str())), 2) << command;
    const std::string err = SlurpFile(err_path);
    EXPECT_NE(err.find("unknown pass 'bogus'"), std::string::npos) << err;
    std::remove(qasm_path.c_str());
    std::remove(err_path.c_str());
}

/**
 * A tiny self-contained workbench for fault smokes: a 3-qubit linear
 * device spec, its full characterization, and an adjacent-CX program,
 * so --scheduler xtalk runs without on-the-fly SRB.
 */
struct FaultSmokeFixture {
    // Each gtest case is its own ctest process and they run
    // concurrently under `ctest -j`, so the fixture files must be
    // per-process unique or parallel tests truncate each other's specs.
    std::string dir = ::testing::TempDir();
    std::string tag = std::to_string(static_cast<long>(::getpid()));
    std::string device_path =
        dir + "/xtalkc_faults_device_" + tag + ".txt";
    std::string charz_path = dir + "/xtalkc_faults_charz_" + tag + ".txt";
    std::string qasm_path = dir + "/xtalkc_faults_in_" + tag + ".qasm";
    std::string err_path = dir + "/xtalkc_faults_err_" + tag + ".txt";

    FaultSmokeFixture()
    {
        std::ofstream device(device_path);
        device << "device tiny\nqubits 3\ntraits 1 1\n";
        for (int q = 0; q < 3; ++q) {
            device << "qubit " << q
                   << " t1_us 50 t2_us 40 readout_err 0.03"
                      " sq_err 0.0005 sq_ns 50 readout_ns 1000\n";
        }
        device << "edge 0 1 cx_err 0.015 cx_ns 400\n"
               << "edge 1 2 cx_err 0.02 cx_ns 450\n";
        std::ofstream charz(charz_path);
        charz << "independent 0 0.015\nindependent 1 0.02\n"
              << "conditional 0 1 0.06\nconditional 1 0 0.07\n";
        std::ofstream qasm(qasm_path);
        qasm << "OPENQASM 2.0;\ninclude \"qelib1.inc\";\n"
             << "qreg q[3];\ncreg c[2];\n"
             << "h q[0];\ncx q[0], q[1];\ncx q[1], q[2];\n"
             << "measure q[0] -> c[0];\nmeasure q[2] -> c[1];\n";
    }

    ~FaultSmokeFixture()
    {
        std::remove(device_path.c_str());
        std::remove(charz_path.c_str());
        std::remove(qasm_path.c_str());
        std::remove(err_path.c_str());
    }

    /** Exit code of xtalkc with @p extra flags; stderr to err_path. */
    int Run(const std::string& extra) const
    {
        const std::string command =
            std::string(XTALK_XTALKC_BIN) + " --device-file " +
            device_path + " --layout trivial " + extra + " " + qasm_path +
            " > /dev/null 2> " + err_path;
        return ExitCode(std::system(command.c_str()));
    }
};

TEST(XtalkcCliFaults, SolverFaultDegradesAndStillExitsZero)
{
    const FaultSmokeFixture fx;
    EXPECT_EQ(fx.Run("--scheduler xtalk --characterization " +
                     fx.charz_path + " --verify-passes"
                     " --faults smt.solve:n=1"),
              0);
    const std::string err = SlurpFile(fx.err_path);
    EXPECT_NE(err.find("degrading to GreedySched"), std::string::npos)
        << err;
}

TEST(XtalkcCliFaults, TransientLoadFaultIsRetriedToSuccess)
{
    const FaultSmokeFixture fx;
    EXPECT_EQ(fx.Run("--scheduler serial --characterization " +
                     fx.charz_path + " --faults io.load:n=1"),
              0);
}

TEST(XtalkcCliFaults, PersistentLoadFaultExhaustsRetriesExitsTwo)
{
    const FaultSmokeFixture fx;
    EXPECT_EQ(fx.Run("--scheduler serial --characterization " +
                     fx.charz_path + " --faults io.load:p=1"),
              2);
    const std::string err = SlurpFile(fx.err_path);
    EXPECT_NE(err.find("injected fault"), std::string::npos) << err;
}

TEST(XtalkcCliFaults, InternalFaultIsReportedAsBugExitsThree)
{
    const FaultSmokeFixture fx;
    EXPECT_EQ(fx.Run("--scheduler xtalk --characterization " +
                     fx.charz_path +
                     " --faults smt.solve:n=1,kind=internal"),
              3);
}

TEST(XtalkcCliFaults, MalformedPlanIsAUsageErrorExitsTwo)
{
    const FaultSmokeFixture fx;
    EXPECT_EQ(fx.Run("--scheduler serial --faults totally%%bogus"), 2);
}


TEST(XtalkcCliObservability, JournalLedgerAndPromOutputsAreWellFormed)
{
    const FaultSmokeFixture fx;
    const std::string journal_path =
        fx.dir + "/xtalkc_obs_journal_" + fx.tag + ".jsonl";
    const std::string prom_path =
        fx.dir + "/xtalkc_obs_metrics_" + fx.tag + ".prom";
    const std::string ledger_path =
        fx.dir + "/xtalkc_obs_ledger_" + fx.tag + ".jsonl";
    ASSERT_EQ(fx.Run("--scheduler xtalk --characterization " +
                     fx.charz_path + " --simulate 16 --journal " +
                     journal_path + " --metrics-prom " + prom_path +
                     " --ledger " + ledger_path),
              0);

    // Journal: a schema header line, then one valid JSON object per
    // event, covering compiler and executor lifecycle types.
    const std::string journal = SlurpFile(journal_path);
    std::istringstream journal_in(journal);
    std::string line;
    int lines = 0;
    std::string error;
    while (std::getline(journal_in, line)) {
        EXPECT_TRUE(telemetry::ValidateJson(line, &error))
            << error << "\n" << line;
        ++lines;
    }
    EXPECT_GT(lines, 5);
    EXPECT_NE(journal.find("\"schema\":\"xtalk.journal.v1\""),
              std::string::npos);
    EXPECT_NE(journal.find("\"type\":\"pass.begin\""),
              std::string::npos);
    EXPECT_NE(journal.find("\"type\":\"sched.solve\""),
              std::string::npos);
    EXPECT_NE(journal.find("\"type\":\"exec.chunk\""),
              std::string::npos);

    // OpenMetrics: the exposition passes the format checker and maps
    // dotted names to the xtalk_ namespace.
    const std::string prom = SlurpFile(prom_path);
    EXPECT_TRUE(telemetry::ValidateOpenMetrics(prom, &error)) << error;
    EXPECT_NE(prom.find("xtalk_compile_invocations_total 1"),
              std::string::npos);
    EXPECT_NE(prom.find("xtalk_sched_xtalk_solve_ms_bucket"),
              std::string::npos);

    // Ledger: one appended record naming the run, scheduler, and the
    // characterization snapshot.
    const std::string ledger = SlurpFile(ledger_path);
    EXPECT_TRUE(telemetry::ValidateJson(ledger, &error)) << error;
    EXPECT_NE(ledger.find("\"schema\":\"xtalk.ledger.v1\""),
              std::string::npos);
    EXPECT_NE(ledger.find("\"scheduler\":\"XtalkSched\""),
              std::string::npos);
    EXPECT_NE(ledger.find("\"exit\":0"), std::string::npos);
    EXPECT_EQ(ledger.find("\"characterization\":\"\""),
              std::string::npos)
        << "snapshot id missing: " << ledger;

    // The run id cross-references journal and ledger.
    const size_t run_key = journal.find("\"run\":\"");
    ASSERT_NE(run_key, std::string::npos);
    const size_t run_begin = run_key + 7;  // strlen("\"run\":\"")
    const std::string run_id = journal.substr(
        run_begin, journal.find('"', run_begin) - run_begin);
    EXPECT_NE(ledger.find("\"run\":\"" + run_id + "\""),
              std::string::npos)
        << "ledger does not reference run " << run_id;

    std::remove(journal_path.c_str());
    std::remove(prom_path.c_str());
    std::remove(ledger_path.c_str());
}

TEST(XtalkcCliObservability, FaultedRunStillWritesParseableEvidence)
{
    const FaultSmokeFixture fx;
    const std::string journal_path =
        fx.dir + "/xtalkc_ev_journal_" + fx.tag + ".jsonl";
    const std::string ledger_path =
        fx.dir + "/xtalkc_ev_ledger_" + fx.tag + ".jsonl";
    // kind=internal propagates: exit 3, but the journal must still be
    // written (with the injected fault recorded) and the ledger must
    // still gain a record carrying the exit code.
    ASSERT_EQ(fx.Run("--scheduler xtalk --characterization " +
                     fx.charz_path +
                     " --faults smt.solve:n=1,kind=internal --journal " +
                     journal_path + " --ledger " + ledger_path),
              3);
    const std::string journal = SlurpFile(journal_path);
    std::istringstream journal_in(journal);
    std::string line;
    std::string error;
    while (std::getline(journal_in, line)) {
        EXPECT_TRUE(telemetry::ValidateJson(line, &error))
            << error << "\n" << line;
    }
    EXPECT_NE(journal.find("\"type\":\"fault.injected\""),
              std::string::npos)
        << journal;
    EXPECT_NE(journal.find("\"site\":\"smt.solve\""),
              std::string::npos);

    const std::string ledger = SlurpFile(ledger_path);
    EXPECT_TRUE(telemetry::ValidateJson(ledger, &error)) << error;
    EXPECT_NE(ledger.find("\"exit\":3"), std::string::npos) << ledger;

    std::remove(journal_path.c_str());
    std::remove(ledger_path.c_str());
}

/** The worker-pool thread count resolved for one xtalkc run, read from
 *  the runtime.pool.threads gauge in --stats-json (published when the
 *  shared pool is first built). @p prefix sets the environment. */
int
ResolvedPoolThreads(const FaultSmokeFixture& fx, const std::string& prefix,
                    const std::string& extra)
{
    const std::string stats_path =
        fx.dir + "/xtalkc_threads_stats_" + fx.tag + ".json";
    const std::string command =
        prefix + " " + std::string(XTALK_XTALKC_BIN) + " --device-file " +
        fx.device_path + " --layout trivial --scheduler serial" +
        " --simulate 8 " + extra + " --stats-json " + stats_path + " " +
        fx.qasm_path + " > /dev/null 2>&1";
    EXPECT_EQ(ExitCode(std::system(command.c_str())), 0) << command;
    const std::string stats = SlurpFile(stats_path);
    std::remove(stats_path.c_str());
    const std::string key = "\"runtime.pool.threads\":";
    const size_t at = stats.find(key);
    EXPECT_NE(at, std::string::npos) << stats;
    if (at == std::string::npos) {
        return -1;
    }
    return std::atoi(stats.c_str() + at + key.size());
}

TEST(XtalkcCliThreads, FlagBeatsEnvBeatsHardware)
{
    const FaultSmokeFixture fx;
    // --threads wins over XTALK_THREADS...
    EXPECT_EQ(ResolvedPoolThreads(fx, "XTALK_THREADS=3", "--threads 2"),
              2);
    // ...and XTALK_THREADS wins over the hardware default.
    EXPECT_EQ(ResolvedPoolThreads(fx, "XTALK_THREADS=3", ""), 3);
}

TEST(XtalkcCliThreads, HelpDocumentsThePrecedence)
{
    const FaultSmokeFixture fx;
    const std::string help_path =
        fx.dir + "/xtalkc_help_" + fx.tag + ".txt";
    const std::string command = std::string(XTALK_XTALKC_BIN) +
                                " --help > " + help_path + " 2>&1";
    ASSERT_EQ(ExitCode(std::system(command.c_str())), 0) << command;
    const std::string help = SlurpFile(help_path);
    std::remove(help_path.c_str());
    // The precedence chain is part of the CLI contract; keep --help
    // explicit about all three tiers and where to observe the result.
    EXPECT_NE(help.find("--threads beats"), std::string::npos) << help;
    EXPECT_NE(help.find("XTALK_THREADS"), std::string::npos) << help;
    EXPECT_NE(help.find("hardware thread"), std::string::npos) << help;
    EXPECT_NE(help.find("runtime.pool.threads"), std::string::npos)
        << help;
}

#endif  // XTALK_XTALKC_BIN

TEST(OmegaTuning, RejectsEmptyCandidateList)
{
    const Device device = MakePoughkeepsie();
    const auto characterization = GroundTruthCharacterization(device);
    Circuit c(20);
    c.CX(0, 1);
    EXPECT_THROW(
        SelectOmegaByModel(device, characterization, c, {}), Error);
}

}  // namespace
}  // namespace xtalk
