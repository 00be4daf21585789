#include "api/scenario.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "support/json_value.hpp"
#include "support/json_writer.hpp"

namespace papc::api {
namespace {

bool mentions(const std::vector<std::string>& problems,
              const std::string& needle) {
    return std::any_of(problems.begin(), problems.end(),
                       [&needle](const std::string& p) {
                           return p.find(needle) != std::string::npos;
                       });
}

/// Every field with a value other than its default, in the canonical
/// string form get_field gives back.
const std::pair<const char*, const char*> kNonDefault[] = {
    {"protocol", "multi"},          {"n", "4096"},
    {"k", "7"},                     {"alpha", "2.25"},
    {"workload", "zipf"},           {"zipf-s", "1.5"},
    {"gap", "11"},                  {"tail-fraction", "0.3"},
    {"lambda", "2"},                {"msg-rate", "3.5"},
    {"gamma", "0.4"},               {"threads", "3"},
    {"window", "0.75"},             {"epsilon", "0.05"},
    {"max-steps", "123"},           {"max-time", "77.5"},
    {"record-series", "false"},     {"record-every", "9"},
    {"sample-interval", "0.5"},     {"queue", "calendar"},
    {"fault_loss", "0.125"},        {"fault_dup", "0.0625"},
    {"fault_corrupt", "0.03125"},   {"fault_crash_rate", "0.001"},
    {"fault_recover_rate", "0.01"}, {"fault_straggler_frac", "0.2"},
    {"fault_straggler_scale", "3"}, {"byzantine_frac", "0.0123"},
    {"byzantine_policy", "adaptive"},
};

Scenario non_default_scenario() {
    Scenario s;
    for (const auto& [field, value] : kNonDefault) {
        EXPECT_EQ(set_field(s, field, value), "") << field;
    }
    return s;
}

TEST(Scenario, NonDefaultScenarioChangesEveryField) {
    const Scenario s = non_default_scenario();
    std::vector<std::string> fields;
    for (const auto& [field, value] : kNonDefault) {
        fields.emplace_back(field);
        EXPECT_EQ(get_field(s, field), value) << field;
        EXPECT_NE(get_field(Scenario{}, field), value) << field;
    }
    EXPECT_EQ(fields, scenario_field_names());
}

TEST(Scenario, JsonKeysAreTheFieldNamesInOrder) {
    JsonWriter writer;
    write_json(writer, non_default_scenario());
    const JsonParseResult parsed = parse_json(writer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    std::vector<std::string> keys;
    for (const auto& member : parsed.value.members()) keys.push_back(member.first);
    EXPECT_EQ(keys, scenario_field_names());
}

TEST(Scenario, JsonValuesRoundTripThroughSetField) {
    // Each JSON value, passed back as the field's string form, reproduces
    // get_field (what the CI round-trip smoke does through papc_cli).
    Scenario original = non_default_scenario();
    original.byzantine_frac = 0.123456789;  // more digits than get_field shows
    JsonWriter writer;
    write_json(writer, original);
    const JsonParseResult parsed = parse_json(writer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    Scenario copy;
    for (const std::string& field : scenario_field_names()) {
        const JsonValue& v = parsed.value.at(field);
        const std::string text =
            v.is_string()  ? v.as_string()
            : v.is_bool() ? std::string(v.as_bool() ? "true" : "false")
                          : JsonWriter::format_double(v.as_number());
        ASSERT_EQ(set_field(copy, field, text), "") << field << " = " << text;
        EXPECT_EQ(get_field(copy, field), get_field(original, field)) << field;
    }
    JsonWriter again;
    write_json(again, copy);
    EXPECT_EQ(again.str(), writer.str());
}

TEST(Scenario, BadValueErrorsNameTheExpectedForm) {
    // One bad value per type rule: string, size_t, u64, u32 (range),
    // size_t with its own wording, double, bool and the three enums.
    const auto error = [](const char* field, const char* value) {
        Scenario s;
        return set_field(s, field, value);
    };
    EXPECT_EQ(error("protocol", ""),
              "invalid value '' for field 'protocol' (expected a protocol name)");
    EXPECT_EQ(error("n", "ten"),
              "invalid value 'ten' for field 'n' (expected a non-negative integer)");
    EXPECT_EQ(error("max-steps", "-1"),
              "invalid value '-1' for field 'max-steps' (expected a non-negative "
              "integer)");
    EXPECT_EQ(error("k", "99999999999"),
              "invalid value '99999999999' for field 'k' (expected a non-negative "
              "integer)");
    EXPECT_EQ(error("threads", "x"),
              "invalid value 'x' for field 'threads' (expected a positive integer)");
    EXPECT_EQ(error("alpha", "1.5x"),
              "invalid value '1.5x' for field 'alpha' (expected a number)");
    EXPECT_EQ(error("record-series", "maybe"),
              "invalid value 'maybe' for field 'record-series' (expected true or "
              "false)");
    EXPECT_EQ(error("workload", "zipfian"),
              "invalid value 'zipfian' for field 'workload' (expected biased, "
              "two-front-runners, gap, uniform or zipf)");
    EXPECT_EQ(error("queue", "fifo"),
              "invalid value 'fifo' for field 'queue' (expected heap, calendar or "
              "ladder)");
    EXPECT_EQ(error("byzantine_policy", "evil"),
              "invalid value 'evil' for field 'byzantine_policy' (expected fixed, "
              "random or adaptive)");
    EXPECT_EQ(error("threads", "2"), "");
    EXPECT_EQ(error("k", "4294967295"), "");
    EXPECT_NE(error("k", "4294967296"), "");
}

TEST(Scenario, RejectedValueLeavesItsFieldUntouched) {
    const Scenario original = non_default_scenario();
    for (const std::string& field : scenario_field_names()) {
        int rejected = 0;
        for (const char* bad : {"", "not a value", "-1", "4294967296x"}) {
            Scenario s = original;
            // Some are valid for some types: any non-empty protocol name,
            // "" for a bool (a bare flag), "-1" for a double.
            if (set_field(s, field, bad).empty()) continue;
            ++rejected;
            EXPECT_EQ(get_field(s, field), get_field(original, field))
                << field << " after '" << bad << "'";
        }
        EXPECT_GT(rejected, 0) << field;
    }
}

TEST(Scenario, DefaultsAreValid) {
    EXPECT_TRUE(validate(Scenario{}).empty());
}

TEST(Scenario, ValidationCatchesEachBadKnob) {
    Scenario s;
    s.n = 1;
    s.k = 1;
    s.alpha = 0.5;
    s.lambda = 0.0;
    s.msg_rate = -1.0;
    s.gamma = 1.5;
    s.epsilon = 1.0;
    s.zipf_s = 0.0;
    s.tail_fraction = 1.0;
    s.max_time = 0.0;
    s.sample_interval = 0.0;
    const std::vector<std::string> problems = validate(s);
    EXPECT_TRUE(mentions(problems, "n must"));
    EXPECT_TRUE(mentions(problems, "k must"));
    EXPECT_TRUE(mentions(problems, "alpha"));
    EXPECT_TRUE(mentions(problems, "lambda"));
    EXPECT_TRUE(mentions(problems, "msg-rate"));
    EXPECT_TRUE(mentions(problems, "gamma"));
    EXPECT_TRUE(mentions(problems, "epsilon"));
    EXPECT_TRUE(mentions(problems, "zipf-s"));
    EXPECT_TRUE(mentions(problems, "tail-fraction"));
    EXPECT_TRUE(mentions(problems, "max-time"));
    EXPECT_TRUE(mentions(problems, "sample-interval"));
}

TEST(Scenario, GapMustStayBelowN) {
    Scenario s;
    s.n = 100;
    s.gap = 100;
    EXPECT_TRUE(mentions(validate(s), "gap"));
    s.gap = 99;
    EXPECT_TRUE(validate(s).empty());
    s.gap = 0;  // 0 = derive n/10
    EXPECT_TRUE(validate(s).empty());
}

TEST(Scenario, WorkloadNamesRoundTrip) {
    for (const Workload w :
         {Workload::kBiased, Workload::kTwoFrontRunners, Workload::kAdditiveGap,
          Workload::kUniform, Workload::kZipf}) {
        Workload parsed = Workload::kBiased;
        ASSERT_TRUE(try_parse_workload(to_string(w), &parsed));
        EXPECT_EQ(parsed, w);
    }
    Workload unused = Workload::kBiased;
    EXPECT_FALSE(try_parse_workload("nope", &unused));
}

TEST(Scenario, SetFieldRoundTripsEveryField) {
    // set(get(x)) is the identity on every field: the canonical string
    // forms and the parsers agree.
    const Scenario modified = non_default_scenario();
    for (const std::string& field : scenario_field_names()) {
        Scenario copy;
        const std::string rendered = get_field(modified, field);
        ASSERT_TRUE(set_field(copy, field, rendered).empty())
            << field << " = " << rendered;
        EXPECT_EQ(get_field(copy, field), rendered) << field;
    }
    EXPECT_EQ(modified.queue_kind, sim::QueueKind::kCalendar);
    EXPECT_EQ(modified.workload, Workload::kZipf);
    EXPECT_FALSE(modified.record_series);
}

TEST(Scenario, SetFieldRejectsUnknownFieldAndBadValues) {
    Scenario s;
    EXPECT_NE(set_field(s, "lamda", "2"), "");  // the classic typo
    EXPECT_NE(set_field(s, "n", "ten"), "");
    EXPECT_NE(set_field(s, "n", "-5"), "");
    EXPECT_NE(set_field(s, "n", "10x"), "");
    EXPECT_NE(set_field(s, "alpha", ""), "");
    EXPECT_NE(set_field(s, "workload", "zipfian"), "");
    EXPECT_NE(set_field(s, "queue", "fifo"), "");
    EXPECT_NE(set_field(s, "record-series", "maybe"), "");
    // Failed sets leave the scenario untouched.
    EXPECT_EQ(s.n, Scenario{}.n);
    EXPECT_EQ(s.queue_kind, Scenario{}.queue_kind);
}

TEST(Scenario, FieldTableIsComplete) {
    const std::vector<std::string>& names = scenario_field_names();
    // +threads in PR 5, +window in PR 6, +9 fault knobs in PR 9.
    EXPECT_EQ(names.size(), 29U);
    for (const std::string& field : names) {
        EXPECT_FALSE(field_help(field).empty()) << field;
        EXPECT_FALSE(get_field(Scenario{}, field).empty()) << field;
    }
    EXPECT_EQ(get_field(Scenario{}, "record-series"), "true");
}

TEST(Scenario, JsonEmitsEveryField) {
    Scenario s;
    s.protocol = "validated";
    s.n = 123;
    JsonWriter writer;
    write_json(writer, s);
    const JsonParseResult parsed = parse_json(writer.str());
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.value.at("protocol").as_string(), "validated");
    EXPECT_DOUBLE_EQ(parsed.value.at("n").as_number(), 123.0);
    for (const std::string& field : scenario_field_names()) {
        EXPECT_NE(parsed.value.find(field), nullptr) << field;
    }
}

}  // namespace
}  // namespace papc::api
