#include "api/scenario.hpp"

#include <cmath>
#include <limits>
#include <sstream>
#include <type_traits>

#include "support/parse.hpp"

namespace papc::api {

const char* to_string(Workload workload) {
    switch (workload) {
        case Workload::kBiased: return "biased";
        case Workload::kTwoFrontRunners: return "two-front-runners";
        case Workload::kAdditiveGap: return "gap";
        case Workload::kUniform: return "uniform";
        case Workload::kZipf: return "zipf";
    }
    return "?";
}

bool try_parse_workload(const std::string& name, Workload* out) {
    if (name == "biased") *out = Workload::kBiased;
    else if (name == "two-front-runners") *out = Workload::kTwoFrontRunners;
    else if (name == "gap") *out = Workload::kAdditiveGap;
    else if (name == "uniform") *out = Workload::kUniform;
    else if (name == "zipf") *out = Workload::kZipf;
    else return false;
    return true;
}

namespace {

// The per-type rules behind every table row: parse_value (strict; on
// rejection *out keeps its value), text_of (the get_field and --help form)
// and write_value (the JSON form).

bool parse_value(const std::string& v, std::string* out) {
    if (!v.empty()) *out = v;
    return !v.empty();
}

/// size_t, u64 and u32 (which rejects values above 0xFFFFFFFF).
template <typename T>
std::enable_if_t<std::is_unsigned_v<T>, bool> parse_value(const std::string& v,
                                                          T* out) {
    std::uint64_t parsed = 0;
    if (!try_parse_u64(v, &parsed)) return false;
    if constexpr (sizeof(T) < sizeof(parsed)) {
        if (parsed > std::numeric_limits<T>::max()) return false;
    }
    *out = static_cast<T>(parsed);
    return true;
}

bool parse_value(const std::string& v, double* out) { return try_parse_double(v, out); }
bool parse_value(const std::string& v, bool* out) { return try_parse_bool(v, out); }
bool parse_value(const std::string& v, Workload* out) {
    return try_parse_workload(v, out);
}
bool parse_value(const std::string& v, fault::ByzantinePolicy* out) {
    return fault::try_parse_byzantine_policy(v, out);
}
bool parse_value(const std::string& v, sim::QueueKind* out) {
    const auto parsed = sim::try_parse_queue_kind(v);
    if (parsed.has_value()) *out = *parsed;
    return parsed.has_value();
}

std::string text_of(const std::string& value) { return value; }
std::string text_of(bool value) { return value ? "true" : "false"; }
std::string text_of(double value) {
    std::ostringstream out;
    out << value;
    return out.str();
}
template <typename T>
std::string text_of(T value) {
    if constexpr (std::is_enum_v<T>) return to_string(value);  // api::, sim::, fault::
    else return std::to_string(value);
}

template <typename T>
void write_value(JsonWriter& writer, const T& value) {
    if constexpr (std::is_enum_v<T>) writer.value(to_string(value));
    else if constexpr (std::is_unsigned_v<T> && !std::is_same_v<T, bool>)
        writer.value(static_cast<std::uint64_t>(value));
    else writer.value(value);  // std::string, double, bool
}

struct FieldSpec {
    const char* name;
    const char* help;
    const char* expected;  ///< accepted values, for the bad-value error
    bool (*parse)(Scenario&, const std::string&);
    std::string (*text)(const Scenario&);
    void (*json)(JsonWriter&, const Scenario&);
};

/// One row for the Scenario member `Member`; its rules follow its type.
template <auto Member>
constexpr FieldSpec field(const char* name, const char* help, const char* expected) {
    return {name, help, expected,
            [](Scenario& s, const std::string& v) {
                return parse_value(v, &(s.*Member));
            },
            [](const Scenario& s) { return text_of(s.*Member); },
            [](JsonWriter& w, const Scenario& s) { write_value(w, s.*Member); }};
}

constexpr const char* kNumber = "a number";
constexpr const char* kCount = "a non-negative integer";

// One row per Scenario field, in declaration order: the order of --help,
// scenario_field_names() and the JSON object.
constexpr FieldSpec kFields[] = {
    field<&Scenario::protocol>("protocol",
                               "protocol name from the registry (see --list-protocols)",
                               "a protocol name"),
    field<&Scenario::n>("n", "population size", kCount),
    field<&Scenario::k>("k", "number of opinions", kCount),
    field<&Scenario::alpha>("alpha", "initial multiplicative bias of opinion 0",
                            kNumber),
    field<&Scenario::workload>("workload",
                               "biased | two-front-runners | gap | uniform | zipf",
                               "biased, two-front-runners, gap, uniform or zipf"),
    field<&Scenario::zipf_s>("zipf-s", "Zipf exponent (workload=zipf)", kNumber),
    field<&Scenario::gap>("gap", "additive gap in nodes (workload=gap; 0 = n/10)",
                          kCount),
    field<&Scenario::tail_fraction>("tail-fraction",
                                    "background mass (workload=two-front-runners)",
                                    kNumber),
    field<&Scenario::lambda>("lambda",
                             "channel-establishment rate (async/cluster families)",
                             kNumber),
    field<&Scenario::msg_rate>("msg-rate", "per-message rate (validated protocol)",
                               kNumber),
    field<&Scenario::gamma>("gamma", "generation-density threshold (sync Algorithm 1)",
                            kNumber),
    field<&Scenario::threads>("threads",
                              "intra-run worker threads (sync + event-driven families; "
                              "results identical at any count)",
                              "a positive integer"),
    field<&Scenario::window>("window",
                             "event-executor window width in time units (0 = auto "
                             "from lambda)",
                             kNumber),
    field<&Scenario::epsilon>("epsilon", "(1-eps)-agreement threshold", kNumber),
    field<&Scenario::max_steps>(
        "max-steps", "round/interaction budget (0 = family default)", kCount),
    field<&Scenario::max_time>(
        "max-time", "simulated-time budget (event-driven families)", kNumber),
    field<&Scenario::record_series>("record-series",
                                    "record the plurality-fraction series (true/false)",
                                    "true or false"),
    field<&Scenario::record_every>(
        "record-every", "recording cadence in rounds/interactions (0 = default)",
        kCount),
    field<&Scenario::sample_interval>(
        "sample-interval", "event-driven sampling metronome (time steps)", kNumber),
    field<&Scenario::queue_kind>(
        "queue", "heap | calendar | ladder scheduler queue (event-driven families)",
        "heap, calendar or ladder"),
    field<&Scenario::fault_loss>("fault_loss",
                                 "per-message drop probability (fault layer)", kNumber),
    field<&Scenario::fault_dup>(
        "fault_dup", "per-message duplication probability (fault layer)", kNumber),
    field<&Scenario::fault_corrupt>(
        "fault_corrupt", "per-message payload-corruption probability (fault layer)",
        kNumber),
    field<&Scenario::fault_crash_rate>(
        "fault_crash_rate", "per-node exponential crash rate (fault layer)", kNumber),
    field<&Scenario::fault_recover_rate>(
        "fault_recover_rate",
        "per-node exponential recover rate (0 = crashed nodes stay down)", kNumber),
    field<&Scenario::fault_straggler_frac>(
        "fault_straggler_frac", "fraction of messages with heavy-tailed extra delay",
        kNumber),
    field<&Scenario::fault_straggler_scale>(
        "fault_straggler_scale", "scale of the Pareto straggler multiplier", kNumber),
    field<&Scenario::byzantine_frac>(
        "byzantine_frac", "fraction of byzantine (adversarial) nodes", kNumber),
    field<&Scenario::byzantine_policy>(
        "byzantine_policy", "fixed | random | adaptive byzantine reporting policy",
        "fixed, random or adaptive"),
};

const FieldSpec* find_field(const std::string& name) {
    for (const FieldSpec& spec : kFields) {
        if (name == spec.name) return &spec;
    }
    return nullptr;
}

}  // namespace

std::vector<std::string> validate(const Scenario& scenario) {
    std::vector<std::string> problems;
    const auto complain = [&problems](const std::string& message) {
        problems.push_back(message);
    };
    if (scenario.protocol.empty()) complain("protocol must be non-empty");
    if (scenario.n < 2) complain("n must be >= 2");
    if (scenario.k < 2) complain("k must be >= 2");
    // The generation schedules take log_k n (analysis/theory), so the
    // engines would abort on n <= k instead of returning an error.
    if (scenario.k >= scenario.n) complain("k must be < n");
    if (!(scenario.alpha >= 1.0) || !std::isfinite(scenario.alpha)) {
        complain("alpha must be >= 1");
    }
    if (!(scenario.zipf_s > 0.0)) complain("zipf-s must be > 0");
    if (scenario.gap >= scenario.n && scenario.gap != 0) {
        complain("gap must be < n");
    }
    if (!(scenario.tail_fraction >= 0.0) || scenario.tail_fraction >= 1.0) {
        complain("tail-fraction must be in [0, 1)");
    }
    if (!(scenario.lambda > 0.0)) complain("lambda must be > 0");
    if (!(scenario.msg_rate > 0.0)) complain("msg-rate must be > 0");
    if (!(scenario.gamma > 0.0) || scenario.gamma > 1.0) {
        complain("gamma must be in (0, 1]");
    }
    if (scenario.threads < 1 || scenario.threads > 1024) {
        complain("threads must be in [1, 1024]");
    }
    if (!(scenario.window >= 0.0) || !std::isfinite(scenario.window)) {
        complain("window must be >= 0");
    }
    if (!(scenario.epsilon > 0.0) || scenario.epsilon >= 1.0) {
        complain("epsilon must be in (0, 1)");
    }
    if (!(scenario.max_time > 0.0)) complain("max-time must be > 0");
    if (!(scenario.sample_interval > 0.0)) {
        complain("sample-interval must be > 0");
    }
    // Fault-field constraints live with the plan (the messages name the
    // scenario fields).
    fault_plan(scenario).validate(&problems);
    return problems;
}

fault::FaultPlan fault_plan(const Scenario& scenario) {
    fault::FaultPlan plan;
    plan.loss = scenario.fault_loss;
    plan.duplication = scenario.fault_dup;
    plan.corruption = scenario.fault_corrupt;
    plan.crash_rate = scenario.fault_crash_rate;
    plan.recover_rate = scenario.fault_recover_rate;
    plan.straggler_fraction = scenario.fault_straggler_frac;
    plan.straggler_scale = scenario.fault_straggler_scale;
    plan.byzantine_fraction = scenario.byzantine_frac;
    plan.byzantine_policy = scenario.byzantine_policy;
    return plan;
}

const std::vector<std::string>& scenario_field_names() {
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const FieldSpec& spec : kFields) out.emplace_back(spec.name);
        return out;
    }();
    return names;
}

std::string set_field(Scenario& scenario, const std::string& field,
                      const std::string& value) {
    const FieldSpec* spec = find_field(field);
    if (spec == nullptr) return "unknown scenario field '" + field + "'";
    if (spec->parse(scenario, value)) return {};
    return std::string("invalid value '") + value + "' for field '" +
           spec->name + "' (expected " + spec->expected + ")";
}

std::string get_field(const Scenario& scenario, const std::string& field) {
    const FieldSpec* spec = find_field(field);
    if (spec == nullptr) return {};
    return spec->text(scenario);
}

std::string field_help(const std::string& field) {
    const FieldSpec* spec = find_field(field);
    if (spec == nullptr) return {};
    return spec->help;
}

void write_json(JsonWriter& writer, const Scenario& scenario) {
    writer.begin_object();
    for (const FieldSpec& spec : kFields) {
        writer.key(spec.name);
        spec.json(writer, scenario);
    }
    writer.end_object();
}

}  // namespace papc::api
