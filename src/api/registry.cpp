#include "api/registry.hpp"

#include <algorithm>
#include <functional>
#include <memory>
#include <utility>

#include "async/sequential_simulation.hpp"
#include "async/simulation.hpp"
#include "async/validated_simulation.hpp"
#include "cluster/clustering.hpp"
#include "cluster/simulation.hpp"
#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "population/four_state.hpp"
#include "population/k_undecided.hpp"
#include "population/three_state.hpp"
#include "sim/latency.hpp"
#include "support/check.hpp"
#include "support/random.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/engine.hpp"

namespace papc::api {

namespace {

Assignment build_assignment(const Scenario& s, Rng& rng) {
    switch (s.workload) {
        case Workload::kBiased:
            return make_biased_plurality(s.n, s.k, s.alpha, rng);
        case Workload::kTwoFrontRunners:
            return make_two_front_runners(s.n, s.k, s.alpha, s.tail_fraction, rng);
        case Workload::kAdditiveGap:
            return make_additive_gap(s.n, s.k, s.gap > 0 ? s.gap : s.n / 10, rng);
        case Workload::kUniform:
            return make_uniform(s.n, s.k, rng);
        case Workload::kZipf:
            return make_zipf(s.n, s.k, s.zipf_s, rng);
    }
    PAPC_CHECK(false);
    return {};
}

// ------------------------------------------------------------ extras tables
//
// Each result type declares its extras once, as a table of emit(name, value)
// rows. Both ScenarioResult::extras and ProtocolInfo::extra_metrics come from it.

/// Receives one extras row; ScenarioResult::extras stores every value as a double.
using Emit = std::function<void(const char* name, double value)>;

/// The damage every protocol reports — zeros when the plan is inactive — so a
/// degradation sweep compares cells across families without special-casing keys.
void fault_extras(const fault::FaultCounters& faults, std::uint64_t nodes_crashed,
                  std::uint64_t byzantine_nodes, const Emit& emit) {
    emit("faults_injected", faults.total());
    emit("messages_lost", faults.lost);
    emit("messages_duplicated", faults.duplicated);
    emit("messages_corrupted", faults.corrupted);
    emit("messages_delayed", faults.delayed);
    emit("crash_skips", faults.crash_skips);
    emit("nodes_crashed", nodes_crashed);
    emit("byzantine_nodes", byzantine_nodes);
}

/// The counters AsyncResult and MultiLeaderResult share, plus their damage.
/// Byzantine reporting is a sampling-layer fault; the event-driven families
/// have no sampled-state channel to lie on, so that count is structurally zero.
void event_extras(const sim::EventRunResult& r, const Emit& emit) {
    emit("ticks", r.ticks);
    emit("exchanges", r.exchanges);
    emit("two_choices", r.two_choices_count);
    emit("propagation", r.propagation_count);
    emit("final_top_generation", r.final_top_generation);
    emit("signals_delivered", r.signals_delivered);
    emit("leader_peak_load", r.leader_peak_load);
    emit("events_processed", r.events_processed);
    emit("windows", r.windows);
    emit("window_stragglers", r.window_stragglers);
    fault_extras(r.faults, r.nodes_crashed, 0, emit);
}

void extras(const async::AsyncResult& r, const Emit& emit) {
    emit("good_ticks", r.good_ticks);
    emit("refreshes", r.refresh_count);
    emit("steps_per_unit", r.steps_per_unit);
    emit("channels_opened", r.channels_opened);
    event_extras(r, emit);
}

void extras(const async::ValidatedResult& r, const Emit& emit) {
    extras(r.base, emit);
    emit("commits", r.commits);
    emit("aborts", r.aborts);
    emit("abort_rate", r.abort_rate);
}

void extras(const cluster::MultiLeaderResult& r, const Emit& emit) {
    emit("clustering_time", r.clustering_time);
    emit("active_clusters", r.clustering.num_active);
    emit("fraction_clustered", r.clustering.fraction_clustered);
    emit("finished_fraction", r.finished_fraction);
    emit("finished_adoptions", r.finished_adoptions);
    emit("total_time", r.total_time());
    event_extras(r, emit);
}

/// A sync or population run, its damage, and a population protocol's final count.
struct Outcome {
    core::RunResult run;
    fault::FaultCounters faults;
    std::uint64_t nodes_crashed = 0;
    std::uint64_t byzantine_nodes = 0;
    const char* final_name = nullptr;
    double final_state = 0.0;
};

void extras(const Outcome& o, const Emit& emit) {
    if (o.final_name != nullptr) emit(o.final_name, o.final_state);
    fault_extras(o.faults, o.nodes_crashed, o.byzantine_nodes, emit);
}

// ------------------------------------------------------------- registration

const core::RunResult& run_part(const core::RunResult& r) { return r; }
const core::RunResult& run_part(const async::ValidatedResult& r) { return r.base; }
const core::RunResult& run_part(const Outcome& o) { return o.run; }

/// Registers a built-in protocol whose run yields an R: extras from R's table (named
/// off `blank`, a default result), knobs plus the fault knobs every family consumes.
template <typename R, typename Run>
void add(ProtocolRegistry& registry, ProtocolInfo info, const R& blank, Run run) {
    info.knobs.insert(info.knobs.end(),
                      {"fault_loss", "fault_dup", "fault_corrupt", "fault_crash_rate",
                       "fault_recover_rate", "fault_straggler_frac",
                       "fault_straggler_scale", "byzantine_frac", "byzantine_policy"});
    extras(blank, [&info](const char* name, double) {
        info.extra_metrics.emplace_back(name);
    });
    registry.register_protocol(
        std::move(info), [run = std::move(run)](const Scenario& s, std::uint64_t seed) {
            const R r = run(s, seed);
            ScenarioResult out{run_part(r), {}};
            extras(r, [&out](const char* name, double value) {
                out.extras[name] = value;
            });
            return out;
        });
}

std::vector<std::string> with(const char* knob, std::vector<std::string> knobs) {
    knobs.insert(knobs.begin(), knob);
    return knobs;
}

// ------------------------------------------------------------- sync family

using SyncFactory = std::unique_ptr<sync::SyncDynamics> (*)(const Scenario&,
                                                            const Assignment&);

/// Shared driver for the synchronous dynamics. The RNG scheme (run rng
/// seeded directly, workload rng from derive_seed(seed, 1)) matches what
/// papc_cli has always done, so historical CLI invocations reproduce.
Outcome run_sync_family(const Scenario& s, std::uint64_t seed, SyncFactory factory) {
    Rng rng(seed);
    Rng workload_rng(derive_seed(seed, 1));
    const Assignment assignment = build_assignment(s, workload_rng);
    const std::unique_ptr<sync::SyncDynamics> dynamics = factory(s, assignment);

    sync::RunOptions options;
    if (s.max_steps > 0) options.max_rounds = s.max_steps;
    options.record_every =
        s.record_series ? (s.record_every > 0 ? s.record_every : 1) : 0;
    options.epsilon = s.epsilon;

    // Fault layer: the injector reads `rng` through pure substreams (the
    // parent is never advanced), so a zero plan leaves the trajectory
    // byte-identical to the fault-free run.
    const fault::FaultPlan plan = fault_plan(s);
    std::unique_ptr<fault::Injector> injector;
    if (plan.active()) {
        injector = std::make_unique<fault::Injector>(
            plan, s.n, static_cast<double>(options.max_rounds), rng);
        dynamics->set_fault_injector(injector.get());
    }

    Outcome out;
    out.run = sync::run_to_consensus(*dynamics, rng, options);
    out.faults.crash_skips = dynamics->fault_crash_skips();
    if (injector) {
        out.nodes_crashed = injector->nodes_crashed();
        out.byzantine_nodes = injector->byzantine_count();
    }
    return out;
}

std::unique_ptr<sync::SyncDynamics> algorithm1(const Scenario& s,
                                               const Assignment& assignment) {
    sync::ScheduleParams params;
    params.n = s.n;
    params.k = s.k;
    params.alpha = std::max(s.alpha, 1.01);
    params.gamma = s.gamma;
    return std::make_unique<sync::Algorithm1>(assignment, sync::Schedule(params),
                                              s.threads);
}

template <typename Dynamics>
std::unique_ptr<sync::SyncDynamics> baseline(const Scenario& s,
                                             const Assignment& assignment) {
    return std::make_unique<Dynamics>(assignment, s.threads);
}

// ------------------------------------------------------- population family

/// Registers one population protocol; its extra `final_name` is what `final_state`
/// reads off the protocol after the run. The protocols take opinion counts: the
/// node shuffle is irrelevant to their exchangeable dynamics.
template <typename Protocol, typename Read, typename Make>
void add_population(ProtocolRegistry& registry, const char* name,
                    const char* description, std::uint32_t max_k,
                    const char* final_name, Read final_state, Make make) {
    Outcome blank;
    blank.final_name = final_name;
    add(registry,
        {name, "population", description, {"max-steps", "record-every"}, {}, 2, max_k},
        blank, [blank, final_state, make](const Scenario& s, std::uint64_t seed) {
            Rng workload_rng(derive_seed(seed, 0xB00));
            const Assignment assignment = build_assignment(s, workload_rng);
            std::vector<std::size_t> counts(s.k, 0);
            for (const Opinion opinion : assignment.opinions) ++counts[opinion];
            Protocol protocol = make(counts);
            Rng rng(derive_seed(seed, 0xB1));

            const fault::FaultPlan plan = fault_plan(s);
            Outcome out = blank;
            population::PopulationRunOptions options;
            options.max_interactions = s.max_steps;
            options.record_every =
                s.record_series ? (s.record_every > 0 ? s.record_every : s.n) : 0;
            options.epsilon = s.epsilon;
            options.fault = &plan;
            options.fault_counters = &out.faults;
            options.nodes_crashed = &out.nodes_crashed;
            options.byzantine_nodes = &out.byzantine_nodes;
            out.run = population::run_population(protocol, rng, options);
            out.final_state = static_cast<double>(final_state(protocol));
            return out;
        });
}

// ------------------------------------------------------ event-driven family

/// AsyncConfig or ClusterConfig from the scenario's event-family knobs.
template <typename Config>
Config event_config(const Scenario& s) {
    Config config;
    config.lambda = s.lambda;
    config.alpha_hint = std::max(s.alpha, 1.05);
    config.epsilon = s.epsilon;
    config.max_time = s.max_time;
    config.sample_interval = s.sample_interval;
    config.record_series = s.record_series;
    config.queue_kind = s.queue_kind;
    config.threads = s.threads;
    config.window = s.window;
    config.fault = fault_plan(s);
    return config;
}

/// The async and sequential engines share one driver.
template <typename Simulation>
async::AsyncResult single_leader(const Scenario& s, std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, Simulation::kWorkloadSalt));
    Simulation simulation(build_assignment(s, workload_rng),
                          event_config<async::AsyncConfig>(s),
                          derive_seed(seed, Simulation::kRunSalt));
    return simulation.run();
}

void register_builtins(ProtocolRegistry& registry) {
    struct SyncRow {
        const char* name;
        const char* description;
        SyncFactory factory;
        std::vector<std::string> knobs;
    };
    const std::vector<std::string> sync_knobs = {"threads", "max-steps",
                                                 "record-every"};
    const SyncRow sync_rows[] = {
        {"sync", "Algorithm 1 (generation-based synchronous protocol)", algorithm1,
         with("gamma", sync_knobs)},
        {"two-choices", "two-choices voting baseline [CER14]",
         baseline<sync::TwoChoices>, sync_knobs},
        {"3-majority", "3-majority baseline [BCN+14]", baseline<sync::ThreeMajority>,
         sync_knobs},
        {"undecided", "undecided-state dynamics baseline [AAE08, BCN+15]",
         baseline<sync::UndecidedState>, sync_knobs},
        {"pull", "pull-voting baseline [HP01, NIY99]", baseline<sync::PullVoting>,
         sync_knobs},
    };
    for (const SyncRow& row : sync_rows) {
        add(registry, {row.name, "sync", row.description, row.knobs, {}, 2, 0},
            Outcome(), [factory = row.factory](const Scenario& s, std::uint64_t seed) {
                return run_sync_family(s, seed, factory);
            });
    }

    add_population<population::ThreeStateMajority>(
        registry, "pp-3-state", "3-state approximate majority [AAE08]", 2,
        "blank_final", [](const auto& p) { return p.count_blank(); },
        [](const auto& c) { return population::ThreeStateMajority(c[0], c[1]); });
    add_population<population::FourStateExactMajority>(
        registry, "pp-4-state", "4-state exact majority [DV10, MNRS14]", 2,
        "strong_difference", [](const auto& p) { return p.strong_difference(); },
        [](const auto& c) { return population::FourStateExactMajority(c[0], c[1]); });
    add_population<population::KUndecided>(
        registry, "pp-undecided",
        "k-opinion undecided-state population protocol [BCN+15]", 0, "undecided_final",
        [](const auto& p) { return p.undecided_count(); },
        [](const auto& c) { return population::KUndecided(c); });

    // Each engine class names its seed salts, which its run_* helper
    // (async::run_single_leader and siblings, cluster::run_multi_leader)
    // uses too, so the biased workload reproduces them bit-for-bit (pinned
    // by the api tests). The sequential reference is a plain tick loop: no
    // threads and no queue, but lambda still sets its auto window.
    const std::vector<std::string> sequential_knobs = {"lambda", "max-time",
                                                       "sample-interval", "window"};
    const std::vector<std::string> event_knobs = {
        "threads", "lambda", "max-time", "sample-interval", "queue", "window"};
    add(registry,
        {"async", "async", "asynchronous single-leader protocol (Algorithms 2+3)",
         event_knobs, {}, 2, 0},
        async::AsyncResult(),
        single_leader<async::SingleLeaderSimulation>);
    add(registry,
        {"sequential", "async",
         "sequentialized single-leader reference (instant channels)",
         sequential_knobs, {}, 2, 0},
        async::AsyncResult(),
        single_leader<async::SequentialSingleLeaderSimulation>);
    add(registry,
        {"validated", "async",
         "single-leader with validated commits under message latencies (Section 5)",
         with("msg-rate", event_knobs), {}, 2, 0},
        async::ValidatedResult(), [](const Scenario& s, std::uint64_t seed) {
            using Simulation = async::ValidatedSingleLeaderSimulation;
            Rng workload_rng(derive_seed(seed, Simulation::kWorkloadSalt));
            Simulation simulation(
                build_assignment(s, workload_rng), event_config<async::AsyncConfig>(s),
                sim::make_exponential_latency(s.lambda),
                sim::make_exponential_latency(s.msg_rate),
                derive_seed(seed, Simulation::kRunSalt));
            return simulation.run();
        });
    add(registry,
        {"multi", "cluster", "decentralized multi-leader protocol (Algorithms 4+5)",
         event_knobs, {}, 2, 0},
        cluster::MultiLeaderResult(), [](const Scenario& s, std::uint64_t seed) {
            using Simulation = cluster::MultiLeaderSimulation;
            Rng workload_rng(derive_seed(seed, Simulation::kWorkloadSalt));
            Rng clustering_rng(derive_seed(seed, Simulation::kClusteringSalt));
            const auto config = event_config<cluster::ClusterConfig>(s);
            Simulation simulation(build_assignment(s, workload_rng),
                                  cluster::run_clustering(s.n, config, clustering_rng),
                                  config, derive_seed(seed, Simulation::kRunSalt));
            return simulation.run();
        });
}

}  // namespace

ProtocolRegistry& ProtocolRegistry::instance() {
    static ProtocolRegistry* registry = [] {
        auto* built = new ProtocolRegistry();
        register_builtins(*built);
        return built;
    }();
    return *registry;
}

void ProtocolRegistry::register_protocol(ProtocolInfo info, RunFn fn) {
    PAPC_CHECK(!info.name.empty());
    PAPC_CHECK(find(info.name) == nullptr);
    PAPC_CHECK(fn != nullptr);
    entries_.push_back(Entry{std::move(info), std::move(fn)});
}

const ProtocolInfo* ProtocolRegistry::find(const std::string& name) const {
    for (const Entry& entry : entries_) {
        if (entry.info.name == name) return &entry.info;
    }
    return nullptr;
}

std::vector<std::string> ProtocolRegistry::names() const {
    std::vector<std::string> out;
    out.reserve(entries_.size());
    for (const Entry& entry : entries_) out.push_back(entry.info.name);
    std::sort(out.begin(), out.end());
    return out;
}

ScenarioResult ProtocolRegistry::run(const Scenario& scenario,
                                     std::uint64_t seed) const {
    PAPC_CHECK(check(scenario).empty());  // so the protocol is registered
    for (const Entry& entry : entries_) {
        if (entry.info.name == scenario.protocol) return entry.fn(scenario, seed);
    }
    PAPC_CHECK(false);
    return ScenarioResult();
}

std::vector<std::string> ProtocolRegistry::check(const Scenario& scenario) const {
    std::vector<std::string> problems = validate(scenario);
    const ProtocolInfo* info = find(scenario.protocol);
    if (info == nullptr) {
        problems.push_back("unknown protocol '" + scenario.protocol +
                           "' (see --list-protocols)");
        return problems;
    }
    if (scenario.k < info->min_k || (info->max_k > 0 && scenario.k > info->max_k)) {
        problems.push_back("protocol '" + info->name + "' requires k in [" +
                           std::to_string(info->min_k) + ", " +
                           (info->max_k > 0 ? std::to_string(info->max_k) : "inf") +
                           "], got " + std::to_string(scenario.k));
    }
    return problems;
}

ScenarioResult run(const Scenario& scenario, std::uint64_t seed) {
    return ProtocolRegistry::instance().run(scenario, seed);
}

void write_json(JsonWriter& writer, const Scenario& scenario, std::uint64_t seed,
                const ScenarioResult& result) {
    writer.begin_object();
    writer.key("scenario");
    write_json(writer, scenario);
    writer.kv("seed", seed);
    writer.key("result");
    core::write_json(writer, result.run);
    writer.key("extras");
    writer.begin_object();
    for (const auto& [name, value] : result.extras) writer.kv(name, value);
    writer.end_object();
    writer.end_object();
}

}  // namespace papc::api
