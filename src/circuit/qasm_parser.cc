#include "circuit/qasm_parser.h"

#include <cctype>
#include <cmath>
#include <limits>
#include <map>
#include <optional>
#include <sstream>
#include <vector>

#include "common/error.h"

namespace xtalk {

namespace {

/** Strip comments and surrounding whitespace. */
std::string
CleanLine(std::string line)
{
    const size_t comment = line.find("//");
    if (comment != std::string::npos) {
        line.erase(comment);
    }
    const size_t begin = line.find_first_not_of(" \t\r\n");
    if (begin == std::string::npos) {
        return "";
    }
    const size_t end = line.find_last_not_of(" \t\r\n");
    return line.substr(begin, end - begin + 1);
}

/** Parse "q[3]" -> 3 (validating the register name). */
int
ParseIndexedRef(const std::string& token, const std::string& reg,
                int line_number)
{
    const size_t open = token.find('[');
    const size_t close = token.find(']');
    XTALK_REQUIRE(open != std::string::npos && close != std::string::npos &&
                      close > open + 0,
                  "line " << line_number << ": malformed reference '"
                          << token << "'");
    const std::string name = token.substr(0, open);
    XTALK_REQUIRE(name == reg, "line " << line_number
                                       << ": unknown register '" << name
                                       << "' (expected '" << reg << "')");
    const std::string index = token.substr(open + 1, close - open - 1);
    XTALK_REQUIRE(!index.empty() &&
                      index.find_first_not_of("0123456789") ==
                          std::string::npos,
                  "line " << line_number << ": bad index '" << index << "'");
    int value = 0;
    for (char digit : index) {
        XTALK_REQUIRE(value <= (std::numeric_limits<int>::max() -
                                (digit - '0')) / 10,
                      "line " << line_number << ": index '" << index
                              << "' out of range");
        value = 10 * value + (digit - '0');
    }
    return value;
}

/**
 * Evaluate a parameter expression: decimal literal, optionally involving
 * pi as "pi", "-pi", "a*pi", "pi/b", "a*pi/b".
 */
double
ParseParam(std::string expr, int line_number)
{
    // Remove whitespace.
    std::string s;
    for (char c : expr) {
        if (!std::isspace(static_cast<unsigned char>(c))) {
            s.push_back(c);
        }
    }
    XTALK_REQUIRE(!s.empty(), "line " << line_number << ": empty parameter");
    double sign = 1.0;
    if (s[0] == '-') {
        sign = -1.0;
        s.erase(0, 1);
    }
    // Every literal goes through here: std::stod throws on text that is
    // not a number and on overflow, and both are bad input.
    const auto number = [&](const std::string& text) {
        try {
            return std::stod(text);
        } catch (const std::exception&) {
            XTALK_REQUIRE(false, "line " << line_number
                                         << ": bad parameter '" << expr
                                         << "'");
        }
        return 0.0;
    };
    const size_t pi_pos = s.find("pi");
    if (pi_pos == std::string::npos) {
        return sign * number(s);
    }
    double multiplier = 1.0;
    double divisor = 1.0;
    const std::string before = s.substr(0, pi_pos);
    const std::string after = s.substr(pi_pos + 2);
    if (!before.empty()) {
        XTALK_REQUIRE(before.back() == '*',
                      "line " << line_number << ": bad parameter '" << expr
                              << "'");
        multiplier = number(before.substr(0, before.size() - 1));
    }
    if (!after.empty()) {
        XTALK_REQUIRE(after.front() == '/',
                      "line " << line_number << ": bad parameter '" << expr
                              << "'");
        divisor = number(after.substr(1));
        XTALK_REQUIRE(divisor != 0.0,
                      "line " << line_number << ": division by zero");
    }
    return sign * multiplier * M_PI / divisor;
}

/** Split "a, b, c" into trimmed tokens. */
std::vector<std::string>
SplitArgs(const std::string& text)
{
    std::vector<std::string> out;
    std::string current;
    for (char c : text) {
        if (c == ',') {
            out.push_back(CleanLine(current));
            current.clear();
        } else {
            current.push_back(c);
        }
    }
    const std::string last = CleanLine(current);
    if (!last.empty()) {
        out.push_back(last);
    }
    return out;
}

const std::map<std::string, GateKind>&
GateNameTable()
{
    static const std::map<std::string, GateKind> table{
        {"id", GateKind::kI},    {"x", GateKind::kX},
        {"y", GateKind::kY},     {"z", GateKind::kZ},
        {"h", GateKind::kH},     {"s", GateKind::kS},
        {"sdg", GateKind::kSdg}, {"t", GateKind::kT},
        {"tdg", GateKind::kTdg}, {"sx", GateKind::kSX},
        {"rx", GateKind::kRX},   {"ry", GateKind::kRY},
        {"rz", GateKind::kRZ},   {"u1", GateKind::kU1},
        {"u2", GateKind::kU2},   {"u3", GateKind::kU3},
        {"cx", GateKind::kCX},   {"cz", GateKind::kCZ},
        {"swap", GateKind::kSwap},
    };
    return table;
}

}  // namespace

Circuit
ParseQasm(const std::string& source)
{
    std::istringstream stream(source);
    std::string raw;
    int line_number = 0;
    std::optional<Circuit> circuit;
    int num_qubits = -1;
    int num_clbits = -1;
    bool saw_header = false;

    auto require_circuit = [&](int line) -> Circuit& {
        XTALK_REQUIRE(circuit.has_value(),
                      "line " << line << ": statement before qreg");
        return *circuit;
    };

    while (std::getline(stream, raw)) {
        ++line_number;
        // A line may hold several ';'-terminated statements.
        std::string cleaned = CleanLine(raw);
        std::istringstream statements(cleaned);
        std::string stmt;
        while (std::getline(statements, stmt, ';')) {
            stmt = CleanLine(stmt);
            if (stmt.empty()) {
                continue;
            }
            if (stmt.rfind("OPENQASM", 0) == 0) {
                saw_header = true;
                continue;
            }
            if (stmt.rfind("include", 0) == 0) {
                continue;
            }
            if (stmt.rfind("qreg", 0) == 0) {
                XTALK_REQUIRE(num_qubits < 0,
                              "line " << line_number
                                      << ": multiple qreg declarations");
                num_qubits = ParseIndexedRef(CleanLine(stmt.substr(4)), "q",
                                             line_number);
                XTALK_REQUIRE(num_qubits > 0,
                              "line " << line_number << ": empty qreg");
                XTALK_REQUIRE(num_qubits <= kMaxQasmRegisterSize,
                              "line " << line_number << ": qreg of "
                                      << num_qubits << " qubits exceeds "
                                      << kMaxQasmRegisterSize);
                circuit.emplace(num_qubits);
                continue;
            }
            if (stmt.rfind("creg", 0) == 0) {
                XTALK_REQUIRE(num_clbits < 0,
                              "line " << line_number
                                      << ": multiple creg declarations");
                num_clbits = ParseIndexedRef(CleanLine(stmt.substr(4)), "c",
                                             line_number);
                XTALK_REQUIRE(num_clbits <= kMaxQasmRegisterSize,
                              "line " << line_number << ": creg of "
                                      << num_clbits << " bits exceeds "
                                      << kMaxQasmRegisterSize);
                continue;
            }
            if (stmt.rfind("barrier", 0) == 0) {
                std::vector<QubitId> qubits;
                for (const std::string& tok :
                     SplitArgs(stmt.substr(7))) {
                    qubits.push_back(
                        ParseIndexedRef(tok, "q", line_number));
                }
                require_circuit(line_number).Barrier(std::move(qubits));
                continue;
            }
            if (stmt.rfind("measure", 0) == 0) {
                const size_t arrow = stmt.find("->");
                XTALK_REQUIRE(arrow != std::string::npos,
                              "line " << line_number
                                      << ": measure without '->'");
                const std::string qref = CleanLine(stmt.substr(7, arrow - 7));
                const std::string cref = CleanLine(stmt.substr(arrow + 2));
                Circuit& target = require_circuit(line_number);
                if (qref == "q" && cref == "c") {
                    // Whole-register form: measure q[i] -> c[i] in order.
                    XTALK_REQUIRE(num_clbits == num_qubits,
                                  "line " << line_number
                                          << ": measure q -> c needs creg c["
                                          << num_qubits << "] to match qreg");
                    for (int i = 0; i < num_qubits; ++i) {
                        target.Measure(i, i);
                    }
                    continue;
                }
                target.Measure(ParseIndexedRef(qref, "q", line_number),
                               ParseIndexedRef(cref, "c", line_number));
                continue;
            }

            // Gate statement: name[(params)] q[a][, q[b]].
            size_t name_end = 0;
            while (name_end < stmt.size() &&
                   (std::isalnum(static_cast<unsigned char>(
                        stmt[name_end])) ||
                    stmt[name_end] == '_')) {
                ++name_end;
            }
            const std::string name = stmt.substr(0, name_end);
            const auto it = GateNameTable().find(name);
            XTALK_REQUIRE(it != GateNameTable().end(),
                          "line " << line_number << ": unsupported gate '"
                                  << name << "'");
            std::string rest = CleanLine(stmt.substr(name_end));
            std::vector<double> params;
            if (!rest.empty() && rest[0] == '(') {
                const size_t close = rest.find(')');
                XTALK_REQUIRE(close != std::string::npos,
                              "line " << line_number
                                      << ": unterminated parameter list");
                for (const std::string& tok :
                     SplitArgs(rest.substr(1, close - 1))) {
                    params.push_back(ParseParam(tok, line_number));
                }
                rest = CleanLine(rest.substr(close + 1));
            }
            std::vector<QubitId> qubits;
            for (const std::string& tok : SplitArgs(rest)) {
                qubits.push_back(ParseIndexedRef(tok, "q", line_number));
            }
            Gate gate{it->second, std::move(qubits), std::move(params), -1};
            try {
                require_circuit(line_number).Add(std::move(gate));
            } catch (const Error& e) {
                XTALK_REQUIRE(false, "line " << line_number << ": "
                                             << e.what());
            }
        }
    }
    XTALK_REQUIRE(saw_header, "missing OPENQASM 2.0 header");
    XTALK_REQUIRE(circuit.has_value(), "missing qreg declaration");
    return *circuit;
}

}  // namespace xtalk
