#include "api/sweep.hpp"

#include <gtest/gtest.h>

#include <map>
#include <string>
#include <vector>

#include "support/random.hpp"
#include "support/stats.hpp"

namespace papc::api {
namespace {

// ------------------------------------------------------------ spec parsing

TEST(SweepSpec, ParsesListsAndRanges) {
    const SweepSpecParse parsed = parse_sweep_spec("n=1000,10000;k=2..8");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    ASSERT_EQ(parsed.axes.size(), 2U);
    EXPECT_EQ(parsed.axes[0].field, "n");
    EXPECT_EQ(parsed.axes[0].values,
              (std::vector<std::string>{"1000", "10000"}));
    EXPECT_EQ(parsed.axes[1].field, "k");
    EXPECT_EQ(parsed.axes[1].values,
              (std::vector<std::string>{"2", "3", "4", "5", "6", "7", "8"}));
}

TEST(SweepSpec, ParsesSteppedRangesAndMixedItems) {
    const SweepSpecParse parsed =
        parse_sweep_spec("n=512,1024..4096..1024;alpha=1.5,2.0");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.axes[0].values,
              (std::vector<std::string>{"512", "1024", "2048", "3072", "4096"}));
    EXPECT_EQ(parsed.axes[1].values,
              (std::vector<std::string>{"1.5", "2.0"}));
}

TEST(SweepSpec, ParsesNonNumericAxes) {
    const SweepSpecParse parsed =
        parse_sweep_spec("protocol=sync,two-choices;queue=heap,calendar");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.axes[0].values,
              (std::vector<std::string>{"sync", "two-choices"}));
    EXPECT_EQ(parsed.axes[1].values,
              (std::vector<std::string>{"heap", "calendar"}));
}

TEST(SweepSpec, RangeAtInt64MaxTerminates) {
    // Regression: the naive `v <= hi` loop overflowed (UB, infinite loop)
    // when hi == INT64_MAX; the count-based loop must produce exactly the
    // two values.
    const SweepSpecParse parsed = parse_sweep_spec(
        "n=9223372036854775806..9223372036854775807");
    ASSERT_TRUE(parsed.ok()) << parsed.error;
    EXPECT_EQ(parsed.axes[0].values,
              (std::vector<std::string>{"9223372036854775806",
                                        "9223372036854775807"}));
}

TEST(SweepSpec, OversizedRangesAreRejectedNotMaterialized) {
    // A fat-fingered range must error out before allocating anything.
    const SweepSpecParse parsed = parse_sweep_spec("n=1..10000000000");
    ASSERT_FALSE(parsed.ok());
    EXPECT_NE(parsed.error.find("limit"), std::string::npos);
    EXPECT_TRUE(parse_sweep_spec("n=0..9223372036854775807..2").ok() ==
                false);
}

TEST(SweepSpec, RejectsMalformedSpecs) {
    EXPECT_FALSE(parse_sweep_spec("").ok());
    EXPECT_FALSE(parse_sweep_spec("n").ok());
    EXPECT_FALSE(parse_sweep_spec("=5").ok());
    EXPECT_FALSE(parse_sweep_spec("n=").ok());
    EXPECT_FALSE(parse_sweep_spec("n=1,,2").ok());
    EXPECT_FALSE(parse_sweep_spec("n=5..2").ok());
    EXPECT_FALSE(parse_sweep_spec("n=1..9..0").ok());
    EXPECT_FALSE(parse_sweep_spec("n=a..b").ok());
    EXPECT_FALSE(parse_sweep_spec("n=1;n=2").ok());
}

// -------------------------------------------------------------- expansion

TEST(SweepExpand, CartesianProductCountsAndOrder) {
    Sweep sweep;
    sweep.axes = parse_sweep_spec("n=100,200,300;k=2..3;alpha=1.5,2.5").axes;
    std::vector<SweepCell> cells;
    ASSERT_EQ(expand(sweep, &cells), "");
    ASSERT_EQ(cells.size(), 3U * 2U * 2U);
    // Last axis fastest.
    EXPECT_EQ(cells[0].coordinates,
              (std::vector<std::pair<std::string, std::string>>{
                  {"n", "100"}, {"k", "2"}, {"alpha", "1.5"}}));
    EXPECT_EQ(cells[1].coordinates.back().second, "2.5");
    EXPECT_EQ(cells[11].coordinates,
              (std::vector<std::pair<std::string, std::string>>{
                  {"n", "300"}, {"k", "3"}, {"alpha", "2.5"}}));
    // The scenarios actually carry the coordinates.
    EXPECT_EQ(cells[11].scenario.n, 300U);
    EXPECT_EQ(cells[11].scenario.k, 3U);
    EXPECT_DOUBLE_EQ(cells[11].scenario.alpha, 2.5);
    // Un-swept fields keep the base value.
    EXPECT_EQ(cells[11].scenario.protocol, sweep.base.protocol);
}

TEST(SweepExpand, NoAxesMeansOneBaseCell) {
    Sweep sweep;
    sweep.base.n = 777;
    std::vector<SweepCell> cells;
    ASSERT_EQ(expand(sweep, &cells), "");
    ASSERT_EQ(cells.size(), 1U);
    EXPECT_EQ(cells[0].scenario.n, 777U);
    EXPECT_TRUE(cells[0].coordinates.empty());
}

TEST(SweepExpand, ReportsBadFieldOrValue) {
    Sweep sweep;
    sweep.axes = {{"lamda", {"1"}}};  // typo'd field name
    std::vector<SweepCell> cells;
    EXPECT_NE(expand(sweep, &cells), "");
    sweep.axes = {{"n", {"12", "snail"}}};
    EXPECT_NE(expand(sweep, &cells), "");
}

// -------------------------------------------------------------- execution

TEST(SweepRun, RunsEveryCellWithPerCellReps) {
    Sweep sweep;
    sweep.base.protocol = "two-choices";
    sweep.base.n = 128;
    sweep.base.alpha = 2.5;
    sweep.base.record_series = false;
    sweep.axes = parse_sweep_spec("n=128,256;k=2..3").axes;
    sweep.reps = 3;
    sweep.base_seed = 17;
    const SweepResult result = run_sweep(sweep);

    EXPECT_EQ(result.axis_names, (std::vector<std::string>{"n", "k"}));
    EXPECT_EQ(result.reps, 3U);
    ASSERT_EQ(result.cells.size(), 4U);
    for (const SweepCell& cell : result.cells) {
        EXPECT_EQ(cell.outcome.repetitions, 3U);
        // The unified metrics are always present with count == reps.
        EXPECT_EQ(cell.outcome.count("steps"), 3U);
        EXPECT_EQ(cell.outcome.count("converged"), 3U);
        EXPECT_GT(cell.outcome.mean("steps"), 0.0);
    }
}

TEST(SweepRun, ExtrasJoinTheCellMetrics) {
    Sweep sweep;
    sweep.base.protocol = "async";
    sweep.base.n = 128;
    sweep.base.alpha = 2.5;
    sweep.base.k = 2;
    sweep.base.record_series = false;
    sweep.reps = 2;
    const SweepResult result = run_sweep(sweep);
    ASSERT_EQ(result.cells.size(), 1U);
    EXPECT_EQ(result.cells[0].outcome.count("exchanges"), 2U);
    EXPECT_GT(result.cells[0].outcome.mean("steps_per_unit"), 0.0);
}

TEST(SweepRun, DeterministicAcrossThreadCounts) {
    Sweep sweep;
    sweep.base.protocol = "3-majority";
    sweep.base.n = 128;
    sweep.base.alpha = 2.0;
    sweep.base.record_series = false;
    sweep.axes = parse_sweep_spec("k=2..3").axes;
    sweep.reps = 4;
    sweep.base_seed = 23;
    sweep.threads = 1;
    const SweepResult serial = run_sweep(sweep);
    sweep.threads = 4;
    const SweepResult threaded = run_sweep(sweep);
    ASSERT_EQ(serial.cells.size(), threaded.cells.size());
    for (std::size_t i = 0; i < serial.cells.size(); ++i) {
        EXPECT_EQ(serial.cells[i].outcome.mean("steps"),
                  threaded.cells[i].outcome.mean("steps"))
            << i;
        EXPECT_EQ(serial.cells[i].outcome.mean("consensus_time"),
                  threaded.cells[i].outcome.mean("consensus_time"))
            << i;
    }
}

TEST(SweepRun, ProtocolItselfCanBeAnAxis) {
    Sweep sweep;
    sweep.base.n = 128;
    sweep.base.k = 2;
    sweep.base.alpha = 2.5;
    sweep.base.record_series = false;
    sweep.axes = parse_sweep_spec("protocol=two-choices,pp-undecided").axes;
    sweep.reps = 2;
    const SweepResult result = run_sweep(sweep);
    ASSERT_EQ(result.cells.size(), 2U);
    EXPECT_EQ(result.cells[0].scenario.protocol, "two-choices");
    EXPECT_EQ(result.cells[1].scenario.protocol, "pp-undecided");
    // Family extras differ per cell: only the population cell reports
    // undecided_final.
    EXPECT_EQ(result.cells[0].outcome.count("undecided_final"), 0U);
    EXPECT_EQ(result.cells[1].outcome.count("undecided_final"), 2U);
}

TEST(SweepRun, CellTrialsReplayWithApiRun) {
    // A bench table prints SweepCell outcomes; any one of its trials must
    // replay on its own as api::run(cell.scenario, derive_seed(derive_seed(
    // base_seed, i), r)), read through runner::metrics_from plus extras.
    Sweep sweep;
    sweep.base.n = 256;
    sweep.base.k = 2;
    sweep.base.alpha = 2.0;
    sweep.base.record_series = false;
    sweep.axes = parse_sweep_spec("protocol=sync,validated,pp-3-state").axes;
    sweep.reps = 3;
    sweep.base_seed = 29;
    sweep.threads = 2;
    const SweepResult result = run_sweep(sweep);
    ASSERT_EQ(result.cells.size(), 3U);
    for (std::size_t i = 0; i < result.cells.size(); ++i) {
        const SweepCell& cell = result.cells[i];
        std::map<std::string, std::vector<double>> replayed;
        for (std::size_t r = 0; r < sweep.reps; ++r) {
            const ScenarioResult run = api::run(
                cell.scenario, derive_seed(derive_seed(sweep.base_seed, i), r));
            runner::TrialMetrics metrics = runner::metrics_from(run.run);
            for (const auto& [name, value] : run.extras) metrics[name] = value;
            for (const auto& [name, value] : metrics) {
                replayed[name].push_back(value);
            }
        }
        ASSERT_EQ(replayed.size(), cell.outcome.metrics.size()) << i;
        for (const auto& [name, values] : replayed) {
            const auto it = cell.outcome.metrics.find(name);
            ASSERT_NE(it, cell.outcome.metrics.end()) << i << " " << name;
            const Summary expected = summarize(values);
            EXPECT_EQ(it->second.count, expected.count) << i << " " << name;
            EXPECT_EQ(it->second.mean, expected.mean) << i << " " << name;
            EXPECT_EQ(it->second.min, expected.min) << i << " " << name;
            EXPECT_EQ(it->second.max, expected.max) << i << " " << name;
            EXPECT_EQ(it->second.p90, expected.p90) << i << " " << name;
        }
    }
    // The extras a bench reads are among the replayed metrics.
    EXPECT_EQ(result.cells[1].outcome.count("abort_rate"), sweep.reps);
}

}  // namespace
}  // namespace papc::api
