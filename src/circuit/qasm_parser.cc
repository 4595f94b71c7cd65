#include "circuit/qasm_parser.h"

#include <cctype>
#include <charconv>
#include <cmath>
#include <optional>
#include <string_view>
#include <utility>
#include <vector>

#include "common/error.h"

namespace xtalk {

namespace {

/** Strip surrounding whitespace. */
std::string_view
Trim(std::string_view text)
{
    constexpr std::string_view kSpace = " \t\r\n";
    const size_t begin = text.find_first_not_of(kSpace);
    if (begin == std::string_view::npos) {
        return {};
    }
    return text.substr(begin, text.find_last_not_of(kSpace) - begin + 1);
}

/** Parse "q[3]" -> 3 (validating the register name). */
int
ParseIndexedRef(std::string_view token, std::string_view reg,
                int line_number)
{
    const size_t open = token.find('[');
    const size_t close = token.find(']');
    XTALK_REQUIRE(open != std::string_view::npos &&
                      close != std::string_view::npos && close > open,
                  "line " << line_number << ": malformed reference '"
                          << token << "'");
    const std::string_view name = token.substr(0, open);
    XTALK_REQUIRE(name == reg, "line " << line_number
                                       << ": unknown register '" << name
                                       << "' (expected '" << reg << "')");
    const std::string_view index = token.substr(open + 1, close - open - 1);
    XTALK_REQUIRE(!index.empty() &&
                      index.find_first_not_of("0123456789") ==
                          std::string_view::npos,
                  "line " << line_number << ": bad index '" << index << "'");
    int value = 0;
    const auto [end, ec] =
        std::from_chars(index.data(), index.data() + index.size(), value);
    XTALK_REQUIRE(ec == std::errc(), "line " << line_number << ": index '"
                                             << index << "' out of range");
    return value;
}

/**
 * A decimal literal, all of @p text: an optional sign, digits with an
 * optional point, an optional exponent. Empty on anything else, and on
 * a value that overflows or underflows to zero.
 */
std::optional<double>
ParseLiteral(std::string_view text)
{
    bool negative = false;
    if (!text.empty() && (text[0] == '+' || text[0] == '-')) {
        negative = text[0] == '-';
        text.remove_prefix(1);
    }
    // from_chars also reads "inf", "nan" and a second '-'.
    if (text.empty() ||
        !(std::isdigit(static_cast<unsigned char>(text[0])) ||
          text[0] == '.')) {
        return std::nullopt;
    }
    double value = 0.0;
    const auto [end, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || end != text.data() + text.size()) {
        return std::nullopt;
    }
    return negative ? -value : value;
}

/**
 * Evaluate a parameter expression: decimal literal, optionally involving
 * pi as "pi", "-pi", "a*pi", "pi/b", "a*pi/b". Whitespace anywhere is
 * ignored; @p compact is scratch space for the expression without it.
 */
double
ParseParam(std::string_view expr, int line_number, std::string* compact)
{
    compact->clear();
    for (char c : expr) {
        if (!std::isspace(static_cast<unsigned char>(c))) {
            compact->push_back(c);
        }
    }
    std::string_view s = *compact;
    XTALK_REQUIRE(!s.empty(), "line " << line_number << ": empty parameter");
    const auto literal = [&](std::string_view text) {
        const std::optional<double> value = ParseLiteral(text);
        XTALK_REQUIRE(value.has_value(), "line " << line_number
                                                 << ": bad parameter '"
                                                 << expr << "'");
        return *value;
    };
    double sign = 1.0;
    if (s[0] == '-') {
        sign = -1.0;
        s.remove_prefix(1);
    }
    double value = 0.0;
    const size_t pi_pos = s.find("pi");
    if (pi_pos == std::string_view::npos) {
        value = sign * literal(s);
    } else {
        double multiplier = 1.0;
        double divisor = 1.0;
        const std::string_view before = s.substr(0, pi_pos);
        const std::string_view after = s.substr(pi_pos + 2);
        if (!before.empty()) {
            XTALK_REQUIRE(before.back() == '*',
                          "line " << line_number << ": bad parameter '"
                                  << expr << "'");
            multiplier = literal(before.substr(0, before.size() - 1));
        }
        if (!after.empty()) {
            XTALK_REQUIRE(after.front() == '/',
                          "line " << line_number << ": bad parameter '"
                                  << expr << "'");
            divisor = literal(after.substr(1));
            XTALK_REQUIRE(divisor != 0.0,
                          "line " << line_number << ": division by zero");
        }
        value = sign * multiplier * M_PI / divisor;
    }
    XTALK_REQUIRE(std::isfinite(value), "line " << line_number
                                                << ": bad parameter '"
                                                << expr << "'");
    return value;
}

/**
 * Call @p f on each trimmed token of "a, b, c", in order; a trailing
 * empty token is dropped, any other empty token is passed on.
 */
template <typename F>
void
ForEachArg(std::string_view text, F&& f)
{
    for (size_t comma = text.find(','); comma != std::string_view::npos;
         comma = text.find(',')) {
        f(Trim(text.substr(0, comma)));
        text.remove_prefix(comma + 1);
    }
    const std::string_view last = Trim(text);
    if (!last.empty()) {
        f(last);
    }
}

/** The unitary gate kind @p name spells (GateKindName's inverse). */
std::optional<GateKind>
FindGateKind(std::string_view name)
{
    for (int k = static_cast<int>(GateKind::kI);
         k <= static_cast<int>(GateKind::kSwap); ++k) {
        if (GateKindName(static_cast<GateKind>(k)) == name) {
            return static_cast<GateKind>(k);
        }
    }
    return std::nullopt;
}

}  // namespace

Circuit
ParseQasm(const std::string& source)
{
    std::optional<Circuit> circuit;
    int num_qubits = -1;
    int num_clbits = -1;
    bool saw_header = false;
    std::string compact_param;

    auto require_circuit = [&](int line) -> Circuit& {
        XTALK_REQUIRE(circuit.has_value(),
                      "line " << line << ": statement before qreg");
        return *circuit;
    };

    const std::string_view text = source;
    int line_number = 0;
    for (size_t line_begin = 0; line_begin < text.size();) {
        size_t line_end = text.find('\n', line_begin);
        if (line_end == std::string_view::npos) {
            line_end = text.size();
        }
        std::string_view line =
            text.substr(line_begin, line_end - line_begin);
        line_begin = line_end + 1;
        ++line_number;
        line = line.substr(0, line.find("//"));
        // A line may hold several ';'-terminated statements.
        while (!line.empty()) {
            const size_t semicolon = line.find(';');
            const std::string_view stmt = Trim(line.substr(0, semicolon));
            line.remove_prefix(semicolon == std::string_view::npos
                                   ? line.size()
                                   : semicolon + 1);
            if (stmt.empty()) {
                continue;
            }
            if (stmt.starts_with("OPENQASM")) {
                saw_header = true;
                continue;
            }
            if (stmt.starts_with("include")) {
                continue;
            }
            if (stmt.starts_with("qreg")) {
                XTALK_REQUIRE(num_qubits < 0,
                              "line " << line_number
                                      << ": multiple qreg declarations");
                num_qubits =
                    ParseIndexedRef(Trim(stmt.substr(4)), "q", line_number);
                XTALK_REQUIRE(num_qubits > 0,
                              "line " << line_number << ": empty qreg");
                XTALK_REQUIRE(num_qubits <= kMaxQasmRegisterSize,
                              "line " << line_number << ": qreg of "
                                      << num_qubits << " qubits exceeds "
                                      << kMaxQasmRegisterSize);
                circuit.emplace(num_qubits);
                continue;
            }
            if (stmt.starts_with("creg")) {
                XTALK_REQUIRE(num_clbits < 0,
                              "line " << line_number
                                      << ": multiple creg declarations");
                num_clbits =
                    ParseIndexedRef(Trim(stmt.substr(4)), "c", line_number);
                XTALK_REQUIRE(num_clbits <= kMaxQasmRegisterSize,
                              "line " << line_number << ": creg of "
                                      << num_clbits << " bits exceeds "
                                      << kMaxQasmRegisterSize);
                continue;
            }
            if (stmt.starts_with("barrier")) {
                Gate barrier{GateKind::kBarrier, {}, {}, -1};
                ForEachArg(stmt.substr(7), [&](std::string_view token) {
                    if (token == "q") {
                        // Whole-register form: every qubit of q, in order.
                        for (QubitId q = 0; q < num_qubits; ++q) {
                            barrier.qubits.push_back(q);
                        }
                        return;
                    }
                    barrier.qubits.push_back(
                        ParseIndexedRef(token, "q", line_number));
                });
                require_circuit(line_number).Add(std::move(barrier));
                continue;
            }
            if (stmt.starts_with("measure")) {
                const size_t arrow = stmt.find("->");
                XTALK_REQUIRE(arrow != std::string_view::npos,
                              "line " << line_number
                                      << ": measure without '->'");
                const std::string_view qref = Trim(stmt.substr(7, arrow - 7));
                const std::string_view cref = Trim(stmt.substr(arrow + 2));
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
                // With both references bad, the classical one is reported.
                const ClbitId clbit = ParseIndexedRef(cref, "c", line_number);
                target.Measure(ParseIndexedRef(qref, "q", line_number),
                               clbit);
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
            const std::string_view name = stmt.substr(0, name_end);
            const std::optional<GateKind> kind = FindGateKind(name);
            XTALK_REQUIRE(kind.has_value(), "line " << line_number
                                                    << ": unsupported gate '"
                                                    << name << "'");
            std::string_view rest = Trim(stmt.substr(name_end));
            Gate gate{*kind, {}, {}, -1};
            if (!rest.empty() && rest[0] == '(') {
                const size_t close = rest.find(')');
                XTALK_REQUIRE(close != std::string_view::npos,
                              "line " << line_number
                                      << ": unterminated parameter list");
                ForEachArg(rest.substr(1, close - 1),
                           [&](std::string_view token) {
                               gate.params.push_back(ParseParam(
                                   token, line_number, &compact_param));
                           });
                rest = Trim(rest.substr(close + 1));
            }
            ForEachArg(rest, [&](std::string_view token) {
                gate.qubits.push_back(
                    ParseIndexedRef(token, "q", line_number));
            });
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
    return std::move(*circuit);
}

}  // namespace xtalk
