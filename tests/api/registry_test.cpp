#include "api/registry.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "async/simulation.hpp"
#include "cluster/simulation.hpp"
#include "core/run_result.hpp"

namespace papc::api {
namespace {

/// A scenario small enough that every family converges in well under a
/// second, yet large enough that the dynamics are non-trivial.
Scenario tiny_scenario(const std::string& protocol, std::uint32_t k) {
    Scenario s;
    s.protocol = protocol;
    // The multi-leader protocol needs enough nodes for clusters to reach
    // the derived participation floor; every other family is happy small.
    s.n = protocol == "multi" ? 1024 : 256;
    s.k = k;
    s.alpha = 2.5;
    s.max_time = 600.0;
    s.record_series = false;
    return s;
}

TEST(ProtocolRegistry, EveryProtocolRunsATinyScenarioToAValidResult) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::vector<std::string> names = registry.names();
    ASSERT_GE(names.size(), 12U);
    for (const std::string& name : names) {
        const ProtocolInfo* info = registry.find(name);
        ASSERT_NE(info, nullptr) << name;
        const Scenario scenario = tiny_scenario(name, info->min_k);
        ASSERT_TRUE(registry.check(scenario).empty()) << name;
        const ScenarioResult result = registry.run(scenario, 2020);
        EXPECT_TRUE(core::consistent(result.run)) << name;
        EXPECT_GT(result.run.steps, 0U) << name;
        EXPECT_GE(result.run.end_time, 0.0) << name;
        EXPECT_LT(result.run.winner, scenario.k) << name;
        // With bias 2.5 at n=256 every protocol here actually decides.
        EXPECT_TRUE(result.run.converged) << name;
    }
}

TEST(ProtocolRegistry, ExtrasMatchTheDeclaredMetadataExactly) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    for (const std::string& name : registry.names()) {
        const ProtocolInfo* info = registry.find(name);
        const ScenarioResult result =
            registry.run(tiny_scenario(name, info->min_k), 7);
        std::set<std::string> declared(info->extra_metrics.begin(),
                                       info->extra_metrics.end());
        ASSERT_EQ(declared.size(), info->extra_metrics.size())
            << name << ": duplicate extra_metrics entry";
        std::set<std::string> produced;
        for (const auto& [metric, value] : result.extras) {
            (void)value;
            produced.insert(metric);
        }
        EXPECT_EQ(produced, declared) << name;
    }
}

std::string result_json(const Scenario& scenario, std::uint64_t seed,
                        const ScenarioResult& result) {
    JsonWriter writer;
    write_json(writer, scenario, seed, result);
    return writer.str();
}

std::uint64_t fnv1a(const std::string& text) {
    std::uint64_t hash = 0xcbf29ce484222325ULL;
    for (const char c : text) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001b3ULL;
    }
    return hash;
}

/// The golden scenario: k = 3 where the protocol allows it, optionally with
/// a plan under which every fault counter is nonzero for some family.
Scenario golden_scenario(const std::string& protocol, bool faulted) {
    const ProtocolInfo* info = ProtocolRegistry::instance().find(protocol);
    Scenario s = tiny_scenario(protocol, info->max_k > 0 ? info->max_k : 3);
    if (faulted) {
        s.fault_loss = 0.05;
        s.fault_dup = 0.05;
        s.fault_corrupt = 0.05;
        s.fault_crash_rate = 0.002;
        s.fault_recover_rate = 0.05;
        s.fault_straggler_frac = 0.1;
        s.byzantine_frac = 0.05;
        // Faulted runs rarely converge; bound them to stay test-sized.
        if (info->family == "sync") s.max_steps = 200;
        s.max_time = 150.0;
    }
    return s;
}

/// FNV-1a of write_json(scenario, seed, result) per protocol, fault-free
/// and faulted: pins every extras key and value, not just the run.
struct Golden {
    std::uint64_t clean;
    std::uint64_t faulted;
};
const std::map<std::string, Golden>& golden_hashes() {
    static const std::map<std::string, Golden> hashes = {
        {"3-majority", {0x5da9502a08436f84ULL, 0x39f58629783d2405ULL}},
        {"async", {0xc445d990c7bcead8ULL, 0x3d7e375b75537388ULL}},
        {"multi", {0x209fa9703357069fULL, 0xae9fb2baa6227321ULL}},
        {"pp-3-state", {0x74e5e5a8f4a31ab6ULL, 0xe64b58775abf9d0aULL}},
        {"pp-4-state", {0x1b6d5036cf9e1cd5ULL, 0xf95702ca19239663ULL}},
        {"pp-undecided", {0x74fe33b573d8c1d5ULL, 0x84845076bf80d197ULL}},
        {"pull", {0xdf7a38b4d8cb12a7ULL, 0x1109ede7a7beb039ULL}},
        {"sequential", {0x3249f7e16b6054c9ULL, 0xb5ce4fd09bc0dff8ULL}},
        {"sync", {0xd1c2632dec297e94ULL, 0x5805401f50a8d2b6ULL}},
        {"two-choices", {0x6845813127a2679fULL, 0x1700b0ca9c891d9bULL}},
        {"undecided", {0x459f67ff485022c4ULL, 0x757569127720a9ebULL}},
        {"validated", {0x2b9a67421eefd7ecULL, 0x3804c231fec33267ULL}},
    };
    return hashes;
}

TEST(ProtocolRegistry, ResultsAndExtrasMatchTheGoldenHashes) {
    for (const auto& [name, golden] : golden_hashes()) {
        for (const bool faulted : {false, true}) {
            const Scenario s = golden_scenario(name, faulted);
            const std::uint64_t hash = fnv1a(result_json(s, 2020, run(s, 2020)));
            EXPECT_EQ(hash, faulted ? golden.faulted : golden.clean)
                << name << (faulted ? " (faulted)" : " (fault-free)") << ": 0x"
                << std::hex << hash;
        }
    }
}

/// The generation-census families at k = 100, far above the k <= 3 of the
/// goldens above: pins the census rows and stats of a wide opinion space.
TEST(ProtocolRegistry, HundredOpinionResultsMatchTheGoldenHashes) {
    const std::map<std::string, std::uint64_t> hashes = {
        {"async", 0x0d3061bcc29276a2ULL},
        {"multi", 0x5950410e4488523bULL},
        {"sync", 0xd0469fc5980bbda7ULL},
        {"validated", 0x365171b831901018ULL},
    };
    for (const auto& [name, golden] : hashes) {
        const Scenario s = tiny_scenario(name, 100);
        const std::uint64_t hash = fnv1a(result_json(s, 2020, run(s, 2020)));
        EXPECT_EQ(hash, golden) << name << " (k = 100): 0x" << std::hex << hash;
    }
}

/// Faulted goldens under each Byzantine reporting policy, with a fifth of
/// the nodes Byzantine so the policy shapes the trajectory, and the
/// plurality series recorded so the hash pins the whole trajectory.
TEST(ProtocolRegistry, ByzantinePolicyResultsMatchTheGoldenHashes) {
    const fault::ByzantinePolicy policies[] = {fault::ByzantinePolicy::kFixed,
                                               fault::ByzantinePolicy::kRandom,
                                               fault::ByzantinePolicy::kAdaptive};
    // Per protocol: fixed, random, adaptive.
    const std::map<std::string, std::vector<std::uint64_t>> hashes = {
        {"3-majority",
         {0xcacef075b8da73c8ULL, 0x61aa14ecaac515a2ULL, 0xaecf5c974e14d621ULL}},
        {"pp-undecided",
         {0x16caee3de4dd44aeULL, 0x406dea78ae984fb8ULL, 0xa2c6a77548f8ae6cULL}},
        {"sync",
         {0xf1aaad56fbbeb091ULL, 0x201390868ea9e45fULL, 0x918febe70efe0498ULL}},
        {"two-choices",
         {0xcf1d468fe37d8a64ULL, 0x03c4ab49447514beULL, 0xa371ac92d45d3472ULL}},
    };
    for (const auto& [name, golden] : hashes) {
        Scenario base = golden_scenario(name, true);
        base.byzantine_frac = 0.2;
        base.record_series = true;
        std::set<std::string> runs;
        for (std::size_t p = 0; p < 3; ++p) {
            Scenario s = base;
            s.byzantine_policy = policies[p];
            const ScenarioResult r = run(s, 2020);
            // Serialized against one scenario: only the run may differ.
            runs.insert(result_json(base, 2020, r));
            const std::uint64_t hash = fnv1a(result_json(s, 2020, r));
            EXPECT_EQ(hash, golden[p])
                << name << " (" << to_string(policies[p]) << "): 0x"
                << std::hex << hash;
        }
        EXPECT_EQ(runs.size(), 3U) << name << ": a policy left the run unchanged";
    }
}

TEST(ProtocolRegistry, FaultedGoldensExerciseEveryFaultCounter) {
    std::set<std::string> nonzero;
    for (const auto& [name, golden] : golden_hashes()) {
        (void)golden;
        const ScenarioResult r = run(golden_scenario(name, true), 2020);
        for (const auto& [metric, value] : r.extras) {
            if (value != 0.0) nonzero.insert(metric);
        }
    }
    for (const char* counter :
         {"faults_injected", "messages_lost", "messages_duplicated",
          "messages_corrupted", "messages_delayed", "crash_skips",
          "nodes_crashed", "byzantine_nodes"}) {
        EXPECT_EQ(nonzero.count(counter), 1U) << counter;
    }
}

TEST(ProtocolRegistry, UndeclaredKnobsLeaveTheRunUnchanged) {
    // Every non-universal field, with a value away from its default.
    const std::vector<std::pair<std::string, std::string>> moved = {
        {"lambda", "4"},         {"msg-rate", "5"},       {"gamma", "0.3"},
        {"threads", "2"},        {"window", "0.5"},       {"max-steps", "3"},
        {"max-time", "5"},       {"record-every", "7"},   {"sample-interval", "1"},
        {"queue", "ladder"}};
    for (const auto& [name, golden] : golden_hashes()) {
        (void)golden;
        const std::vector<std::string>& knobs =
            ProtocolRegistry::instance().find(name)->knobs;
        const Scenario base = tiny_scenario(name, 2);
        const std::string expected = result_json(base, 3, run(base, 3));
        for (const auto& [field, value] : moved) {
            if (std::find(knobs.begin(), knobs.end(), field) != knobs.end()) {
                continue;
            }
            Scenario s = base;
            ASSERT_EQ(set_field(s, field, value), "") << field;
            // Serialized against the base scenario: only result and extras
            // may differ.
            EXPECT_TRUE(result_json(base, 3, run(s, 3)) == expected)
                << name << " changes with undeclared knob " << field;
        }
    }
}

TEST(ProtocolRegistry, NamesAreSortedAndFamiliesKnown) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::vector<std::string> names = registry.names();
    EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
    const std::set<std::string> families = {"sync", "population", "async",
                                            "cluster"};
    std::set<std::string> seen;
    for (const std::string& name : names) {
        seen.insert(registry.find(name)->family);
    }
    EXPECT_EQ(seen, families);  // every engine family is reachable
}

TEST(ProtocolRegistry, CheckRejectsUnknownProtocolAndBadK) {
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    Scenario s = tiny_scenario("does-not-exist", 2);
    EXPECT_FALSE(registry.check(s).empty());

    s = tiny_scenario("pp-3-state", 3);  // two-opinion protocol, k = 3
    const std::vector<std::string> problems = registry.check(s);
    ASSERT_FALSE(problems.empty());
    EXPECT_NE(problems.front().find("requires k"), std::string::npos);
}

TEST(ProtocolRegistry, CheckRejectsAtLeastAsManyOpinionsAsNodes) {
    // The engines' generation schedules take log_k n and would abort on
    // n <= k, so check() must reject it for every protocol.
    const ProtocolRegistry& registry = ProtocolRegistry::instance();
    const std::vector<std::pair<std::uint32_t, std::uint32_t>> n_k = {
        {100, 200}, {64, 64}, {2, 2}};
    for (const std::string& name : registry.names()) {
        for (const auto& [n, k] : n_k) {
            Scenario s = tiny_scenario(name, k);
            s.n = n;
            const std::vector<std::string> problems = registry.check(s);
            EXPECT_TRUE(std::any_of(problems.begin(), problems.end(),
                                    [](const std::string& p) {
                                        return p == "k must be < n";
                                    }))
                << name << " n=" << n << " k=" << k;
        }
    }
}

TEST(ProtocolRegistry, WrapperDoesNotPerturbTheAsyncRngStream) {
    // api::run("async") must be bit-identical to the direct engine call —
    // the API layer wraps, it must not re-derive seeds differently.
    Scenario s = tiny_scenario("async", 4);
    s.record_series = true;
    const ScenarioResult via_api = run(s, 99);

    async::AsyncConfig config;
    config.lambda = s.lambda;
    config.alpha_hint = std::max(s.alpha, 1.05);
    config.epsilon = s.epsilon;
    config.max_time = s.max_time;
    config.sample_interval = s.sample_interval;
    config.record_series = true;
    config.queue_kind = s.queue_kind;
    const async::AsyncResult direct =
        async::run_single_leader(s.n, s.k, s.alpha, config, 99);

    EXPECT_EQ(core::serialize(via_api.run),
              core::serialize(static_cast<const core::RunResult&>(direct)));
    EXPECT_EQ(via_api.extras.at("exchanges"),
              static_cast<double>(direct.exchanges));
    EXPECT_EQ(via_api.extras.at("steps_per_unit"), direct.steps_per_unit);
}

TEST(ProtocolRegistry, WrapperDoesNotPerturbTheClusterRngStream) {
    Scenario s = tiny_scenario("multi", 3);
    const ScenarioResult via_api = run(s, 41);

    cluster::ClusterConfig config;
    config.lambda = s.lambda;
    config.alpha_hint = std::max(s.alpha, 1.05);
    config.epsilon = s.epsilon;
    config.max_time = s.max_time;
    config.sample_interval = s.sample_interval;
    config.record_series = false;
    config.queue_kind = s.queue_kind;
    const cluster::MultiLeaderResult direct =
        cluster::run_multi_leader(s.n, s.k, s.alpha, config, 41);

    EXPECT_EQ(core::serialize(via_api.run),
              core::serialize(static_cast<const core::RunResult&>(direct)));
    EXPECT_EQ(via_api.extras.at("clustering_time"), direct.clustering_time);
}

TEST(ProtocolRegistry, SameSeedSameResultAcrossCalls) {
    const Scenario s = tiny_scenario("validated", 3);
    const ScenarioResult a = run(s, 5);
    const ScenarioResult b = run(s, 5);
    EXPECT_EQ(core::serialize(a.run), core::serialize(b.run));
    EXPECT_EQ(a.extras, b.extras);
}

TEST(ProtocolRegistry, WorkloadsFlowThroughToTheEngines) {
    // A uniform workload (alpha irrelevant) must behave differently from
    // the biased default and still produce a consistent result.
    Scenario s = tiny_scenario("two-choices", 4);
    s.workload = Workload::kUniform;
    const ScenarioResult r = run(s, 11);
    EXPECT_TRUE(core::consistent(r.run));
    Scenario z = tiny_scenario("pp-undecided", 4);
    z.workload = Workload::kZipf;
    const ScenarioResult rz = run(z, 11);
    EXPECT_TRUE(core::consistent(rz.run));
}

TEST(ProtocolRegistry, CustomProtocolsCanRegister) {
    ProtocolRegistry& registry = ProtocolRegistry::instance();
    if (registry.find("test-custom") == nullptr) {
        ProtocolInfo info;
        info.name = "test-custom";
        info.family = "sync";
        info.description = "registration test stub";
        info.extra_metrics = {"answer"};
        registry.register_protocol(
            info, [](const Scenario&, std::uint64_t) {
                ScenarioResult out;
                out.run.converged = true;
                out.run.steps = 1;
                out.extras = {{"answer", 42.0}};
                return out;
            });
    }
    Scenario s = tiny_scenario("test-custom", 2);
    const ScenarioResult r = run(s, 1);
    EXPECT_EQ(r.extras.at("answer"), 42.0);
}

}  // namespace
}  // namespace papc::api
