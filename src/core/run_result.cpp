#include "core/run_result.hpp"

#include <cstdio>
#include <sstream>

#include "support/check.hpp"

namespace papc::core {

bool consistent(const RunResult& result) {
    if (result.epsilon_time >= 0.0 && result.consensus_time >= 0.0 &&
        result.epsilon_time > result.consensus_time) {
        return false;
    }
    if (result.epsilon_time > result.end_time) return false;
    if (result.consensus_time > result.end_time) return false;
    // A plurality win implies the ε-threshold was crossed no later than
    // the consensus sample (support is 1 at consensus).
    if (result.plurality_won && result.consensus_time >= 0.0 &&
        result.epsilon_time < 0.0) {
        return false;
    }
    for (std::size_t i = 1; i < result.plurality_fraction.size(); ++i) {
        if (result.plurality_fraction[i].time <
            result.plurality_fraction[i - 1].time) {
            return false;
        }
    }
    return true;
}

namespace {

void append_double(std::ostringstream& out, const char* key, double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%a", value);
    out << key << ' ' << buffer << '\n';
}

}  // namespace

std::string serialize(const RunResult& result) {
    std::ostringstream out;
    out << "converged " << (result.converged ? 1 : 0) << '\n';
    out << "winner " << result.winner << '\n';
    out << "plurality_won " << (result.plurality_won ? 1 : 0) << '\n';
    append_double(out, "epsilon_time", result.epsilon_time);
    append_double(out, "consensus_time", result.consensus_time);
    append_double(out, "end_time", result.end_time);
    out << "steps " << result.steps << '\n';
    out << "series " << result.plurality_fraction.name() << '\n';
    for (const TimePoint& p : result.plurality_fraction.points()) {
        char time_buffer[64];
        char value_buffer[64];
        std::snprintf(time_buffer, sizeof(time_buffer), "%a", p.time);
        std::snprintf(value_buffer, sizeof(value_buffer), "%a", p.value);
        out << "point " << time_buffer << ' ' << value_buffer << '\n';
    }
    return out.str();
}

void write_json(JsonWriter& writer, const RunResult& result) {
    writer.begin_object();
    writer.kv("converged", result.converged);
    writer.kv("winner", static_cast<std::uint64_t>(result.winner));
    writer.kv("plurality_won", result.plurality_won);
    writer.kv("epsilon_time", result.epsilon_time);
    writer.kv("consensus_time", result.consensus_time);
    writer.kv("end_time", result.end_time);
    writer.kv("steps", result.steps);
    writer.key("series");
    writer.begin_object();
    writer.kv("name", result.plurality_fraction.name());
    writer.key("points");
    writer.begin_array();
    for (const TimePoint& p : result.plurality_fraction.points()) {
        writer.begin_array();
        writer.value(p.time);
        writer.value(p.value);
        writer.end_array();
    }
    writer.end_array();
    writer.end_object();
    writer.end_object();
}

std::string to_json(const RunResult& result) {
    JsonWriter writer;
    write_json(writer, result);
    return writer.str();
}

RunResult run_result_from_json(const JsonValue& value) {
    PAPC_CHECK(value.is_object());
    RunResult result;
    if (const JsonValue* v = value.find("converged")) {
        result.converged = v->as_bool();
    }
    if (const JsonValue* v = value.find("winner")) {
        result.winner = static_cast<Opinion>(v->as_number());
    }
    if (const JsonValue* v = value.find("plurality_won")) {
        result.plurality_won = v->as_bool();
    }
    result.epsilon_time = value.number_or("epsilon_time", result.epsilon_time);
    result.consensus_time =
        value.number_or("consensus_time", result.consensus_time);
    result.end_time = value.number_or("end_time", result.end_time);
    if (const JsonValue* v = value.find("steps")) {
        result.steps = static_cast<std::uint64_t>(v->as_number());
    }
    if (const JsonValue* series = value.find("series")) {
        PAPC_CHECK(series->is_object());
        std::string name;
        if (const JsonValue* v = series->find("name")) name = v->as_string();
        result.plurality_fraction = TimeSeries(name);
        if (const JsonValue* points = series->find("points")) {
            for (const JsonValue& point : points->elements()) {
                PAPC_CHECK(point.is_array() && point.size() == 2);
                result.plurality_fraction.record(point[0].as_number(),
                                                 point[1].as_number());
            }
        }
    }
    return result;
}

}  // namespace papc::core
