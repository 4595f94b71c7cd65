/**
 * @file
 * Seeded mutation fuzzing of every text input the service parses: QASM
 * programs, wire requests (parse plus validation), device specs and
 * characterization files. Each target mutates one valid input by
 * deleting, inserting or replacing bytes, or by duplicating a span.
 * Every mutant must parse or throw xtalk::Error, which the service
 * answers as `error`. Any other exception would be answered as
 * `io_error` (std::bad_alloc, std::out_of_range, ...) or `internal`
 * (InternalError) and fails the test.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <exception>
#include <functional>
#include <string>

#include "characterization/io.h"
#include "circuit/qasm_parser.h"
#include "common/error.h"
#include "common/rng.h"
#include "device/device_io.h"
#include "device/ibmq_devices.h"
#include "service/api.h"

namespace xtalk {
namespace {

constexpr int kMutantsPerTarget = 2000;

/** A byte for an insertion or replacement: half the time one of the
 *  input's own bytes (digits, keywords, separators), else any byte. */
char
RandomByte(const std::string& input, Rng& rng)
{
    if (rng.Bernoulli(0.5)) {
        return input[rng.UniformInt(input.size())];
    }
    return static_cast<char>(rng.UniformInt(256));
}

/** @p input with one to three random edits. */
std::string
Mutate(const std::string& input, Rng& rng)
{
    std::string out = input;
    const int edits = 1 + static_cast<int>(rng.UniformInt(3));
    for (int e = 0; e < edits && !out.empty(); ++e) {
        const size_t pos = rng.UniformInt(out.size());
        const size_t len = 1 + rng.UniformInt(8);
        switch (rng.UniformInt(4)) {
          case 0:
            out.erase(pos, len);
            break;
          case 1:
            for (size_t k = 0; k < len; ++k) {
                out.insert(out.begin() + static_cast<long>(pos),
                           RandomByte(input, rng));
            }
            break;
          case 2:
            for (size_t k = pos; k < std::min(out.size(), pos + len); ++k) {
                out[k] = RandomByte(input, rng);
            }
            break;
          default: {
            const std::string span = out.substr(pos, len);
            out.insert(rng.UniformInt(out.size() + 1), span);
            break;
          }
        }
    }
    return out;
}

/**
 * Feed kMutantsPerTarget mutants of @p valid to @p parse, which returns
 * whether it accepted its input. Each mutant must return or throw
 * Error; some must be accepted and some rejected, or the mutator is not
 * reaching the parser.
 */
void
FuzzTarget(const std::string& valid, uint64_t seed,
           const std::function<bool(const std::string&)>& parse)
{
    ASSERT_TRUE(parse(valid));
    Rng rng(seed);
    int rejected = 0;
    for (int k = 0; k < kMutantsPerTarget; ++k) {
        const std::string mutant = Mutate(valid, rng);
        try {
            rejected += parse(mutant) ? 0 : 1;
        } catch (const Error&) {
            ++rejected;
        } catch (const std::exception& e) {
            ADD_FAILURE() << "mutant " << k << " threw a non-Error: "
                          << e.what() << "\n--- input ---\n" << mutant;
        } catch (...) {
            ADD_FAILURE() << "mutant " << k << " threw a non-exception"
                          << "\n--- input ---\n" << mutant;
        }
    }
    EXPECT_GT(rejected, 0);
    EXPECT_LT(rejected, kMutantsPerTarget);
}

TEST(MutationFuzz, QasmParserAnswersEveryMutant)
{
    const std::string program =
        "OPENQASM 2.0;\n"
        "include \"qelib1.inc\";\n"
        "qreg q[5];\n"
        "creg c[5];\n"
        "h q[0];\n"
        "cx q[0],q[1];\n"
        "u3(pi/2,-pi,0.25) q[2];\n"
        "rz(3*pi/4) q[3];\n"
        "barrier q[0],q[1],q[2];\n"
        "swap q[3],q[4];\n"
        "measure q[1] -> c[0];\n"
        "measure q -> c;\n";
    FuzzTarget(program, 1, [](const std::string& text) {
        ParseQasm(text);
        return true;
    });
}

TEST(MutationFuzz, ServiceRequestAnswersEveryMutant)
{
    service::ServiceRequest request;
    request.id = "fuzz-7";
    request.trace_id = "0123456789abcdef0123456789abcdef";
    request.span_id = 42;
    request.qasm = "OPENQASM 2.0;\nqreg q[2];\ncreg c[2];\nh q[0];\n"
                   "cx q[0],q[1];\nmeasure q -> c;\n";
    request.layout = "trivial";
    request.scheduler = "portfolio";
    request.schedulers = {"xtalk", "greedy", "parallel"};
    request.omega = 0.25;
    request.simulate_shots = 64;
    request.deadline_ms = 500;
    FuzzTarget(request.ToJson(), 2, [](const std::string& text) {
        service::ServiceRequest parsed;
        std::string error;
        return service::ServiceRequest::FromJson(text, &parsed, &error) &&
               parsed.Validate(&error);
    });
}

TEST(MutationFuzz, DeviceSpecParserAnswersEveryMutant)
{
    FuzzTarget(SerializeDeviceSpec(MakePoughkeepsie()), 3,
               [](const std::string& text) {
                   ParseDeviceSpec(text);
                   return true;
               });
}

TEST(MutationFuzz, CharacterizationParserAnswersEveryMutant)
{
    const Device device = MakePoughkeepsie();
    FuzzTarget(SerializeCharacterization(GroundTruthCharacterization(device),
                                         device.name()),
               4,
               [](const std::string& text) {
                   ParseCharacterization(text);
                   return true;
               });
}

}  // namespace
}  // namespace xtalk
