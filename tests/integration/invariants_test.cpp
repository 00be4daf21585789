#include <gtest/gtest.h>

#include <cmath>

#include "async/sequential_simulation.hpp"
#include "async/simulation.hpp"
#include "async/validated_simulation.hpp"
#include "opinion/assignment.hpp"
#include "sync/algorithm1.hpp"
#include "sync/engine.hpp"

namespace papc {
namespace {

// DESIGN.md §6 invariants, checked over full runs. The §3.2 invariants for
// the single-leader protocol are partly enforced inside the simulation via
// PAPC_CHECK (node gen <= leader gen); here we verify the observable ones.

TEST(Invariants, AsyncNodeGenerationsBoundedByLeaderTrace) {
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 500.0;
    Rng wrng(11);
    const Assignment a = make_biased_plurality(1500, 3, 2.0, wrng);
    async::SingleLeaderSimulation sim(a, c, 12);
    const async::AsyncResult r = sim.run();
    ASSERT_TRUE(r.converged);
    const Generation leader_final = sim.leader().gen();
    for (NodeId v = 0; v < 1500; ++v) {
        EXPECT_LE(sim.node(v).gen, leader_final);
    }
}

TEST(Invariants, AsyncCensusMatchesNodeStates) {
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 500.0;
    Rng wrng(13);
    const Assignment a = make_biased_plurality(900, 4, 2.0, wrng);
    async::SingleLeaderSimulation sim(a, c, 14);
    (void)sim.run();
    // Rebuild an expected census from raw node states and compare counts.
    std::vector<std::uint64_t> counts(4, 0);
    for (NodeId v = 0; v < 900; ++v) ++counts[sim.node(v).col];
    for (Opinion j = 0; j < 4; ++j) {
        std::uint64_t total = 0;
        for (Generation g = 0; g <= sim.census().highest_populated(); ++g) {
            total += sim.census().count(g, j);
        }
        EXPECT_EQ(total, counts[j]) << "opinion " << j;
    }
}

TEST(Invariants, AsyncEveryGenerationBornByTwoChoices) {
    // Each generation in the leader trace must appear with prop == false
    // first (two-choices window precedes propagation for every generation).
    async::AsyncConfig c;
    c.alpha_hint = 1.8;
    c.max_time = 600.0;
    const async::AsyncResult r = async::run_single_leader(2500, 4, 1.8, c, 15);
    ASSERT_TRUE(r.converged);
    Generation seen = 0;
    for (const auto& tr : r.leader_trace) {
        if (tr.gen > seen) {
            EXPECT_FALSE(tr.prop)
                << "generation " << tr.gen << " did not open with two-choices";
            seen = tr.gen;
        }
    }
    EXPECT_GE(seen, 2U);
}

TEST(Invariants, SyncScheduleMatchesObservedBirths) {
    // Property 7 of DESIGN.md: generation birth rounds observed in the run
    // coincide with the schedule's t_i values (whp; fixed seed).
    const std::size_t n = 1 << 14;
    sync::ScheduleParams sp;
    sp.n = n;
    sp.k = 4;
    sp.alpha = 2.0;
    const sync::Schedule schedule{sp};
    Rng rng(16);
    const Assignment a = make_biased_plurality(n, 4, 2.0, rng);
    sync::Algorithm1 alg(a, schedule);
    sync::RunOptions opts;
    opts.max_rounds = 400;
    (void)run_to_consensus(alg, rng, opts);
    for (const auto& birth : alg.births()) {
        if (birth.generation == 0) continue;
        if (birth.generation > schedule.total_generations()) break;
        EXPECT_EQ(birth.round, schedule.birth_step(birth.generation))
            << "generation " << birth.generation;
    }
}

TEST(Invariants, SyncBiasSquaringWithinErrorBand) {
    // Proposition 8 shape: at the birth of generation i the bias is at
    // least (α(1-δ))^(2^i) for a small δ. We check the weaker, robust form
    // α_i >= α_{i-1}^1.5 while both are finite and the generation holds at
    // least 1000 nodes.
    const std::size_t n = 1 << 16;
    sync::ScheduleParams sp;
    sp.n = n;
    sp.k = 2;
    sp.alpha = 1.5;
    Rng rng(17);
    const Assignment a = make_biased_plurality(n, 2, 1.5, rng);
    sync::Algorithm1 alg(a, sync::Schedule(sp));
    sync::RunOptions opts;
    opts.max_rounds = 400;
    (void)run_to_consensus(alg, rng, opts);
    const auto& births = alg.births();
    for (std::size_t i = 1; i + 1 < births.size(); ++i) {
        const double prev = births[i].alpha;
        const double cur = births[i + 1].alpha;
        if (!std::isfinite(prev) || !std::isfinite(cur)) break;
        if (births[i + 1].size < 1000) continue;
        EXPECT_GE(cur, std::pow(prev, 1.5) * 0.8)
            << "generation " << i + 1 << ": " << prev << " -> " << cur;
    }
}

TEST(Invariants, AsyncExchangeAccounting) {
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 500.0;
    const async::AsyncResult r = async::run_single_leader(1200, 3, 2.0, c, 18);
    ASSERT_TRUE(r.converged);
    // Every exchange is classified into exactly one of the four outcomes;
    // promotions + refreshes cannot exceed total exchanges.
    EXPECT_LE(r.two_choices_count + r.propagation_count + r.refresh_count,
              r.exchanges);
}

TEST(Invariants, EverySingleLeaderEngineAccountsLeaderSignals) {
    // Fault-free: every tick sends a 0-signal, so each engine must report
    // delivered signals and a leader load peak. Validated opens the three
    // exchange channels at every good tick plus one per validation round.
    async::AsyncConfig c;
    c.alpha_hint = 2.0;
    c.max_time = 200.0;
    c.record_series = false;
    const async::AsyncResult plain = async::run_single_leader(400, 3, 2.0, c, 19);
    const async::AsyncResult sequential =
        async::run_sequential_single_leader(400, 3, 2.0, c, 19);
    const async::ValidatedResult validated =
        async::run_validated_single_leader(400, 3, 2.0, c, 2.0, 19);
    for (const async::AsyncResult* r : {&plain, &sequential, &validated.base}) {
        EXPECT_GT(r->signals_delivered, 0U);
        EXPECT_GT(r->leader_peak_load, 0.0);
    }
    EXPECT_GE(validated.base.channels_opened, 3 * validated.base.good_ticks);
    EXPECT_GT(validated.base.good_ticks, 0U);
    EXPECT_EQ(sequential.channels_opened, 0U);
}

}  // namespace
}  // namespace papc
