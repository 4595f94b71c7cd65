#include "service/api.h"

#include <cmath>
#include <limits>
#include <sstream>

#include "compiler/compiler.h"
#include "scheduler/portfolio.h"
#include "telemetry/json.h"
#include "telemetry/ledger.h"
#include "telemetry/trace_context.h"

namespace xtalk::service {

namespace {

bool
KnownKind(const std::string& kind)
{
    return kind == "compile" || kind == "ping" || kind == "stats" ||
           kind == "shutdown";
}

/** Comma-join for the config hash (pass lists are order-sensitive). */
std::string
JoinPasses(const std::vector<std::string>& passes)
{
    std::ostringstream joined;
    for (size_t i = 0; i < passes.size(); ++i) {
        joined << (i == 0 ? "" : ",") << passes[i];
    }
    return joined.str();
}

void
WriteStringArray(telemetry::JsonWriter& w, const char* key,
                 const std::vector<std::string>& values)
{
    w.Key(key).BeginArray();
    for (const std::string& v : values) {
        w.String(v);
    }
    w.EndArray();
}

void
WriteIntArray(telemetry::JsonWriter& w, const char* key,
              const std::vector<int>& values)
{
    w.Key(key).BeginArray();
    for (int v : values) {
        w.Number(static_cast<int64_t>(v));
    }
    w.EndArray();
}

/**
 * Typed member extraction: absent is fine, a wrong type is an error.
 * A string is moved out of the parsed message, which each field is
 * taken from once.
 */
bool
TakeString(telemetry::JsonValue& object, const char* key, std::string* out,
           std::string* error)
{
    telemetry::JsonValue* v = object.Find(key);
    if (v == nullptr) {
        return true;
    }
    if (!v->is_string()) {
        *error = std::string("field '") + key + "' must be a string";
        return false;
    }
    *out = v->ReleaseString();
    return true;
}

bool
TakeNumber(const telemetry::JsonValue& object, const char* key, double* out,
           std::string* error)
{
    const telemetry::JsonValue* v = object.Find(key);
    if (v == nullptr) {
        return true;
    }
    if (!v->is_number()) {
        *error = std::string("field '") + key + "' must be a number";
        return false;
    }
    *out = v->as_number();
    return true;
}

/**
 * Narrow a wire double to int. Casting a value outside int's range (or
 * NaN) is undefined behaviour, so range-check first: both bounds are
 * exactly representable as doubles, and NaN fails the comparison.
 */
bool
WireInt(double d, const char* key, int* out, std::string* error)
{
    if (!(d >= static_cast<double>(std::numeric_limits<int>::min()) &&
          d <= static_cast<double>(std::numeric_limits<int>::max()))) {
        *error = std::string("field '") + key +
                 "' is out of range for a 32-bit integer";
        return false;
    }
    if (d != std::trunc(d)) {
        *error = std::string("field '") + key + "' must be an integer";
        return false;
    }
    *out = static_cast<int>(d);
    return true;
}

bool
TakeInt(const telemetry::JsonValue& object, const char* key, int* out,
        std::string* error)
{
    double d = static_cast<double>(*out);
    return TakeNumber(object, key, &d, error) &&
           WireInt(d, key, out, error);
}

bool
TakeBool(const telemetry::JsonValue& object, const char* key, bool* out,
         std::string* error)
{
    const telemetry::JsonValue* v = object.Find(key);
    if (v == nullptr) {
        return true;
    }
    if (!v->is_bool()) {
        *error = std::string("field '") + key + "' must be a boolean";
        return false;
    }
    *out = v->as_bool();
    return true;
}

bool
TakeStringArray(const telemetry::JsonValue& object, const char* key,
                std::vector<std::string>* out, std::string* error)
{
    const telemetry::JsonValue* v = object.Find(key);
    if (v == nullptr) {
        return true;
    }
    if (!v->is_array()) {
        *error = std::string("field '") + key + "' must be an array";
        return false;
    }
    out->clear();
    for (const telemetry::JsonValue& item : v->items()) {
        if (!item.is_string()) {
            *error = std::string("field '") + key +
                     "' must contain only strings";
            return false;
        }
        out->push_back(item.as_string());
    }
    return true;
}

bool
TakeIntArray(const telemetry::JsonValue& object, const char* key,
             std::vector<int>* out, std::string* error)
{
    const telemetry::JsonValue* v = object.Find(key);
    if (v == nullptr) {
        return true;
    }
    if (!v->is_array()) {
        *error = std::string("field '") + key + "' must be an array";
        return false;
    }
    out->clear();
    for (const telemetry::JsonValue& item : v->items()) {
        int value = 0;
        if (!item.is_number()) {
            *error = std::string("field '") + key +
                     "' must contain only numbers";
            return false;
        }
        if (!WireInt(item.as_number(), key, &value, error)) {
            return false;
        }
        out->push_back(value);
    }
    return true;
}

/** Shared front half of both FromJson overloads: parse + schema gate. */
bool
ParseEnvelope(const std::string& text, const char* schema,
              telemetry::JsonValue* object, std::string* error)
{
    std::string parse_error;
    if (!telemetry::ParseJsonValue(text, object, &parse_error)) {
        if (error != nullptr) {
            *error = parse_error;
        }
        return false;
    }
    if (!object->is_object()) {
        if (error != nullptr) {
            *error = "message must be a JSON object";
        }
        return false;
    }
    const telemetry::JsonValue* field = object->Find("schema");
    const std::string_view got = field != nullptr && field->is_string()
                                     ? std::string_view(field->as_string())
                                     : std::string_view();
    if (got != schema) {
        if (error != nullptr) {
            *error = got.empty()
                         ? std::string("missing 'schema' field (expected ") +
                               schema + ")"
                         : "unsupported schema '" + std::string(got) +
                               "' (expected " + schema + ")";
        }
        return false;
    }
    return true;
}

}  // namespace

bool
ServiceRequest::Validate(std::string* error) const
{
    auto fail = [&](const std::string& why) {
        if (error != nullptr) {
            *error = why;
        }
        return false;
    };
    if (!KnownKind(kind)) {
        return fail("unknown kind '" + kind +
                    "' (expected compile, ping, stats, or shutdown)");
    }
    if (!trace_id.empty()) {
        telemetry::TraceContext parsed;
        if (!telemetry::ParseTraceId(trace_id, &parsed)) {
            return fail("'trace.id' must be 32 hex chars and non-zero");
        }
    }
    if (kind != "compile") {
        return true;  // ping/stats/shutdown carry no work payload.
    }
    if (qasm.empty()) {
        return fail("compile request needs a non-empty 'qasm' field");
    }
    if (device.empty() && device_file.empty()) {
        return fail("compile request needs 'device' or 'device_file'");
    }
    LayoutPolicy layout_policy;
    if (!ParseLayoutPolicy(layout, &layout_policy)) {
        return fail("unknown layout '" + layout + "'");
    }
    if (!IsSchedulerPolicy(scheduler)) {
        return fail("unknown scheduler '" + scheduler + "'");
    }
    if (!(omega >= 0.0 && omega <= 1.0)) {
        return fail("omega must be in [0, 1]");
    }
    if (!schedulers.empty()) {
        if (scheduler != kPortfolioPolicy) {
            return fail("'schedulers' requires scheduler 'portfolio'");
        }
        for (const std::string& member : schedulers) {
            if (FindPortfolioMember(member) == nullptr) {
                return fail("unknown portfolio member '" + member + "'");
            }
        }
    }
    if (!characterization_text.empty() && !characterization_path.empty()) {
        return fail("'characterization' and 'characterization_path' are "
                    "mutually exclusive");
    }
    if (simulate_shots < 0) {
        return fail("simulate_shots must be >= 0");
    }
    if (deadline_ms < 0) {
        return fail("deadline_ms must be >= 0");
    }
    return true;
}

bool
ServiceRequest::NeedsCharacterization() const
{
    // A scheduling pass needs measured data when a member of its lineup
    // does (the registry says which); a layout pass when it places
    // noise-aware.
    const auto policy_needs = [&](const std::string& policy) {
        return IsSchedulerPolicy(policy) &&
               LineupFor(policy, schedulers).NeedsCharacterization();
    };
    const bool layout_needs = layout == "noise-aware";
    if (passes.empty()) {
        return layout_needs || policy_needs(scheduler);
    }
    const std::string forced_schedule = "schedule:";
    for (const std::string& name : passes) {
        if ((name == "layout" && layout_needs) ||
            name == "layout:noise-aware" ||
            (name == "schedule" && policy_needs(scheduler)) ||
            (name.rfind(forced_schedule, 0) == 0 &&
             policy_needs(name.substr(forced_schedule.size())))) {
            return true;
        }
    }
    return false;
}

std::string
ServiceRequest::ConfigHash() const
{
    std::ostringstream canon;
    canon << "device=" << device << ";device_file=" << device_file
          << ";scheduler=" << scheduler
          << ";schedulers=" << JoinPasses(schedulers)
          << ";layout=" << layout
          << ";omega=" << omega << ";passes=" << JoinPasses(passes)
          << ";characterization=" << characterization_path
          << ";characterization_text=" << telemetry::FnvHex(
                 characterization_text)
          << ";verify=" << verify_passes << ";simulate=" << simulate_shots;
    return telemetry::FnvHex(canon.str());
}

std::string
ServiceRequest::ToJson() const
{
    telemetry::JsonWriter w;
    w.BeginObject();
    w.Key("schema").String(kRequestSchema);
    w.Key("id").String(id);
    w.Key("kind").String(kind);
    if (!trace_id.empty()) {
        w.Key("trace").BeginObject();
        w.Key("id").String(trace_id);
        if (span_id != 0) {
            w.Key("span").String(telemetry::SpanIdHex(span_id));
        }
        w.EndObject();
    }
    w.Key("qasm").String(qasm);
    w.Key("device").String(device);
    w.Key("device_file").String(device_file);
    w.Key("layout").String(layout);
    w.Key("scheduler").String(scheduler);
    WriteStringArray(w, "schedulers", schedulers);
    w.Key("omega").Number(omega);
    WriteStringArray(w, "passes", passes);
    w.Key("verify_passes").Bool(verify_passes);
    w.Key("characterization").String(characterization_text);
    w.Key("characterization_path").String(characterization_path);
    w.Key("save_characterization_path").String(save_characterization_path);
    w.Key("simulate_shots").Number(static_cast<int64_t>(simulate_shots));
    w.Key("want_report").Bool(want_report);
    w.Key("deadline_ms").Number(static_cast<int64_t>(deadline_ms));
    w.EndObject();
    return std::move(w).str();
}

bool
ServiceRequest::FromJson(const std::string& text, ServiceRequest* out,
                         std::string* error)
{
    telemetry::JsonValue object;
    if (!ParseEnvelope(text, kRequestSchema, &object, error)) {
        return false;
    }
    ServiceRequest request;
    std::string field_error;
    bool ok =
        TakeString(object, "id", &request.id, &field_error) &&
        TakeString(object, "kind", &request.kind, &field_error) &&
        TakeString(object, "qasm", &request.qasm, &field_error) &&
        TakeString(object, "device", &request.device, &field_error) &&
        TakeString(object, "device_file", &request.device_file,
                   &field_error) &&
        TakeString(object, "layout", &request.layout, &field_error) &&
        TakeString(object, "scheduler", &request.scheduler, &field_error) &&
        TakeStringArray(object, "schedulers", &request.schedulers,
                        &field_error) &&
        TakeNumber(object, "omega", &request.omega, &field_error) &&
        TakeStringArray(object, "passes", &request.passes, &field_error) &&
        TakeBool(object, "verify_passes", &request.verify_passes,
                 &field_error) &&
        TakeString(object, "characterization",
                   &request.characterization_text, &field_error) &&
        TakeString(object, "characterization_path",
                   &request.characterization_path, &field_error) &&
        TakeString(object, "save_characterization_path",
                   &request.save_characterization_path, &field_error) &&
        TakeInt(object, "simulate_shots", &request.simulate_shots,
                &field_error) &&
        TakeBool(object, "want_report", &request.want_report,
                 &field_error) &&
        TakeInt(object, "deadline_ms", &request.deadline_ms, &field_error);
    const telemetry::JsonValue* trace = object.Find("trace");
    if (ok && trace != nullptr) {
        if (!trace->is_object()) {
            field_error = "field 'trace' must be an object";
            ok = false;
        } else {
            request.trace_id = trace->GetString("id");
            const std::string span_hex = trace->GetString("span");
            if (!span_hex.empty() &&
                !telemetry::ParseSpanId(span_hex, &request.span_id)) {
                field_error = "field 'trace.span' must be 16 hex chars";
                ok = false;
            }
        }
    }
    if (!ok) {
        if (error != nullptr) {
            *error = field_error;
        }
        return false;
    }
    *out = std::move(request);
    return true;
}

std::string
ServiceResponse::ToJson(bool include_timing) const
{
    telemetry::JsonWriter w;
    w.BeginObject();
    w.Key("schema").String(kResponseSchema);
    w.Key("id").String(id);
    w.Key("status").String(status());
    w.Key("error").String(error);
    w.Key("qasm").String(qasm);
    w.Key("report").String(report);
    w.Key("counts").String(counts);
    w.Key("scheduler").String(scheduler_name);
    w.Key("degradation").String(degradation);
    w.Key("degradation_reason").String(degradation_reason);
    w.Key("portfolio").BeginArray();
    for (const ServicePortfolioOutcome& outcome : portfolio) {
        w.BeginObject();
        w.Key("member").String(outcome.member);
        w.Key("scheduler").String(outcome.scheduler);
        w.Key("status").String(outcome.status);
        if (outcome.has_score) {
            w.Key("score").Number(outcome.score);
        } else {
            w.Key("score").Null();
        }
        if (include_timing) {
            w.Key("wall_ms").Number(outcome.wall_ms);
        }
        w.Key("reason").String(outcome.reason);
        w.EndObject();
    }
    w.EndArray();
    if (omega.has_value()) {
        w.Key("omega").Number(*omega);
    } else {
        w.Key("omega").Null();
    }
    w.Key("has_estimate").Bool(has_estimate);
    w.Key("duration_ns").Number(duration_ns);
    w.Key("success_probability").Number(success_probability);
    w.Key("crosstalk_overlaps")
        .Number(static_cast<int64_t>(crosstalk_overlaps));
    WriteIntArray(w, "initial_layout", initial_layout);
    WriteIntArray(w, "final_layout", final_layout);
    WriteStringArray(w, "diagnostics", diagnostics);
    w.Key("characterization_id").String(characterization_id);
    w.Key("cache_hit").Bool(cache_hit);
    if (!diag.empty()) {
        w.Key("diag").BeginObject();
        for (const auto& [key, value] : diag) {
            w.Key(key).Number(value);
        }
        w.EndObject();
    }
    if (!stats_json.empty()) {
        w.Key("stats").String(stats_json);
    }
    // A service-minted trace id is fresh randomness each run, so the
    // deterministic projection only carries client-supplied ids (which
    // the client controls, and therefore repeat byte-for-byte).
    if (!trace_id.empty() && (include_timing || trace_client_supplied)) {
        w.Key("trace").BeginObject();
        w.Key("id").String(trace_id);
        w.Key("origin").String(trace_client_supplied ? "client"
                                                     : "service");
        w.EndObject();
    }
    if (include_timing) {
        w.Key("timing").BeginObject();
        w.Key("queue_ms").Number(queue_ms);
        w.Key("run_ms").Number(run_ms);
        if (!phases.empty()) {
            w.Key("phases").BeginArray();
            for (const ServicePhase& phase : phases) {
                w.BeginObject();
                w.Key("phase").String(phase.phase);
                w.Key("ms").Number(phase.ms);
                if (phase.pct_of_deadline.has_value()) {
                    w.Key("pct_of_deadline")
                        .Number(*phase.pct_of_deadline);
                }
                w.EndObject();
            }
            w.EndArray();
        }
        w.EndObject();
    }
    w.EndObject();
    return std::move(w).str();
}

bool
ServiceResponse::FromJson(const std::string& text, ServiceResponse* out,
                          std::string* error)
{
    telemetry::JsonValue object;
    if (!ParseEnvelope(text, kResponseSchema, &object, error)) {
        return false;
    }
    ServiceResponse response;
    std::string field_error;
    std::string status_name = "ok";
    bool ok =
        TakeString(object, "id", &response.id, &field_error) &&
        TakeString(object, "status", &status_name, &field_error) &&
        TakeString(object, "error", &response.error, &field_error) &&
        TakeString(object, "qasm", &response.qasm, &field_error) &&
        TakeString(object, "report", &response.report, &field_error) &&
        TakeString(object, "counts", &response.counts, &field_error) &&
        TakeString(object, "scheduler", &response.scheduler_name,
                   &field_error) &&
        TakeString(object, "degradation", &response.degradation,
                   &field_error) &&
        TakeString(object, "degradation_reason",
                   &response.degradation_reason, &field_error) &&
        TakeBool(object, "has_estimate", &response.has_estimate,
                 &field_error) &&
        TakeNumber(object, "duration_ns", &response.duration_ns,
                   &field_error) &&
        TakeNumber(object, "success_probability",
                   &response.success_probability, &field_error) &&
        TakeInt(object, "crosstalk_overlaps", &response.crosstalk_overlaps,
                &field_error) &&
        TakeIntArray(object, "initial_layout", &response.initial_layout,
                     &field_error) &&
        TakeIntArray(object, "final_layout", &response.final_layout,
                     &field_error) &&
        TakeStringArray(object, "diagnostics", &response.diagnostics,
                        &field_error) &&
        TakeString(object, "characterization_id",
                   &response.characterization_id, &field_error) &&
        TakeBool(object, "cache_hit", &response.cache_hit, &field_error);
    if (ok && !ParseStatusName(status_name, &response.code)) {
        field_error = "unknown status '" + status_name + "'";
        ok = false;
    }
    const telemetry::JsonValue* portfolio_field = object.Find("portfolio");
    if (ok && portfolio_field != nullptr) {
        if (!portfolio_field->is_array()) {
            field_error = "field 'portfolio' must be an array";
            ok = false;
        } else {
            for (const telemetry::JsonValue& item :
                 portfolio_field->items()) {
                if (!item.is_object()) {
                    field_error =
                        "field 'portfolio' must contain only objects";
                    ok = false;
                    break;
                }
                ServicePortfolioOutcome outcome;
                outcome.member = item.GetString("member");
                outcome.scheduler = item.GetString("scheduler");
                outcome.status = item.GetString("status");
                const telemetry::JsonValue* score = item.Find("score");
                if (score != nullptr && score->is_number()) {
                    outcome.score = score->as_number();
                    outcome.has_score = true;
                }
                outcome.wall_ms = item.GetNumber("wall_ms");
                outcome.reason = item.GetString("reason");
                response.portfolio.push_back(std::move(outcome));
            }
        }
    }
    const telemetry::JsonValue* omega_field = object.Find("omega");
    if (ok && omega_field != nullptr && !omega_field->is_null()) {
        if (!omega_field->is_number()) {
            field_error = "field 'omega' must be a number or null";
            ok = false;
        } else {
            response.omega = omega_field->as_number();
        }
    }
    const telemetry::JsonValue* trace = object.Find("trace");
    if (ok && trace != nullptr && trace->is_object()) {
        response.trace_id = trace->GetString("id");
        response.trace_client_supplied =
            trace->GetString("origin") == "client";
    }
    const telemetry::JsonValue* diag = object.Find("diag");
    if (ok && diag != nullptr) {
        if (!diag->is_object()) {
            field_error = "field 'diag' must be an object";
            ok = false;
        } else {
            for (const auto& [key, value] : diag->members()) {
                if (value.is_number()) {
                    response.diag[key] = value.as_number();
                }
            }
        }
    }
    if (ok &&
        !TakeString(object, "stats", &response.stats_json, &field_error)) {
        ok = false;
    }
    const telemetry::JsonValue* timing = object.Find("timing");
    if (ok && timing != nullptr && timing->is_object()) {
        response.queue_ms = timing->GetNumber("queue_ms");
        response.run_ms = timing->GetNumber("run_ms");
        const telemetry::JsonValue* phases = timing->Find("phases");
        if (phases != nullptr && phases->is_array()) {
            for (const telemetry::JsonValue& item : phases->items()) {
                if (!item.is_object()) {
                    continue;
                }
                ServicePhase phase;
                phase.phase = item.GetString("phase");
                phase.ms = item.GetNumber("ms");
                const telemetry::JsonValue* pct =
                    item.Find("pct_of_deadline");
                if (pct != nullptr && pct->is_number()) {
                    phase.pct_of_deadline = pct->as_number();
                }
                response.phases.push_back(std::move(phase));
            }
        }
    }
    if (!ok) {
        if (error != nullptr) {
            *error = field_error;
        }
        return false;
    }
    *out = std::move(response);
    return true;
}

ServiceResponse
MakeErrorResponse(const ServiceRequest& request, StatusCode code,
                  const std::string& error)
{
    ServiceResponse response;
    response.id = request.id;
    response.code = code;
    response.error = error;
    return response;
}

}  // namespace xtalk::service
