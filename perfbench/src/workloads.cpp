#include <algorithm>
#include <memory>
#include <utility>

#include "async/sequential_simulation.hpp"
#include "async/simulation.hpp"
#include "async/validated_simulation.hpp"
#include "bench.hpp"
#include "cluster/clustering.hpp"
#include "cluster/simulation.hpp"
#include "fault/injector.hpp"
#include "opinion/assignment.hpp"
#include "population/four_state.hpp"
#include "population/k_undecided.hpp"
#include "population/three_state.hpp"
#include "sim/latency.hpp"
#include "support/json_value.hpp"
#include "support/check.hpp"
#include "support/json_writer.hpp"
#include "support/random.hpp"
#include "sync/algorithm1.hpp"
#include "sync/baselines.hpp"
#include "sync/engine.hpp"

namespace perfbench {

namespace api = papc::api;
namespace core = papc::core;
using papc::Assignment;
using papc::derive_seed;
using papc::Rng;

// ---------------------------------------------------------------- workloads

const std::vector<std::string>& workload_names() {
    static const std::vector<std::string> names = {"sync-huge", "event-core",
                                                   "sweep-mixed"};
    return names;
}

std::string family_of(const std::string& protocol) {
    const api::ProtocolInfo* info =
        api::ProtocolRegistry::instance().find(protocol);
    return info != nullptr ? info->family : std::string();
}

namespace {

api::Scenario base_scenario(const std::string& protocol, std::size_t n,
                            std::uint32_t k, std::size_t threads) {
    api::Scenario s;
    s.protocol = protocol;
    s.n = n;
    s.k = k;
    s.alpha = 1.5;
    s.threads = threads;
    s.record_series = false;
    return s;
}

void make_sync_huge(std::uint64_t seed, bool smoke, Workload* w) {
    const std::size_t n = smoke ? std::size_t{1} << 16U : std::size_t{1} << 22U;
    const std::vector<std::string> protocols = {"sync", "two-choices",
                                                "3-majority", "undecided",
                                                "pull"};
    std::uint64_t index = 0;
    for (const std::string& protocol : protocols) {
        RunSpec spec{protocol, base_scenario(protocol, n, 8, 4),
                     derive_seed(seed, ++index)};
        // Pull voting needs Theta(n) rounds to agree; a fixed round budget
        // keeps it comparable to the others (its gate checks the budget).
        if (protocol == "pull") spec.scenario.max_steps = 32;
        w->runs.push_back(spec);
    }
    // Same kernels with sparse census rows and 8-bit packed lanes.
    w->runs.push_back(RunSpec{"two-choices-k128",
                              base_scenario("two-choices", n, 128, 4),
                              derive_seed(seed, ++index)});
}

void make_event_core(std::uint64_t seed, bool smoke, Workload* w) {
    const std::size_t big =
        smoke ? std::size_t{1} << 11U : std::size_t{1} << 15U;
    const std::size_t small =
        smoke ? std::size_t{1} << 10U : std::size_t{1} << 13U;
    // Both async runs share one seed: results are thread-count invariant,
    // and the gate checks that they are byte-identical.
    const std::uint64_t async_seed = derive_seed(seed, 1);
    w->runs.push_back(
        {"async-t1", base_scenario("async", big, 8, 1), async_seed});
    w->runs.push_back(
        {"async-t4", base_scenario("async", big, 8, 4), async_seed});
    w->runs.push_back({"sequential", base_scenario("sequential", big, 8, 1),
                       derive_seed(seed, 2)});
    // validated and multi run single-threaded: at four threads their
    // thousands of window barriers per second wait on every vCPU wake-up,
    // which put 20% between repeated runs on a shared 4-vCPU host. The
    // async pair keeps the executor's parallel path and its scaling.
    w->runs.push_back({"validated", base_scenario("validated", small, 8, 1),
                       derive_seed(seed, 3)});
    w->runs.push_back({"multi", base_scenario("multi", small, 8, 1),
                       derive_seed(seed, 4)});
}

void make_sweep_mixed(std::uint64_t seed, bool smoke, Workload* w) {
    w->is_sweep = true;
    api::Sweep& sweep = w->sweep;
    // Every knob but n, k and alpha keeps its CLI default — including
    // record_series = true, as `papc_cli --sweep` runs it.
    sweep.base.n = smoke ? 512 : 1024;
    sweep.base.k = 2;
    sweep.base.alpha = 1.5;
    sweep.axes = {{"protocol", api::ProtocolRegistry::instance().names()},
                  {"fault_loss", {"0", "0.1"}}};
    sweep.reps = smoke ? 2 : 4;
    sweep.base_seed = seed;
    // One trial worker: with four, each cell lasts as long as its slowest
    // rep, so one delayed vCPU (or one long pull-voting trial) stretched
    // the whole pass, and repeated runs spread by about 30%. The traced
    // run still times four workers for api.sweep_parallel_efficiency.
    sweep.threads = 1;

    std::vector<api::SweepCell> cells;
    const std::string error = api::expand(sweep, &cells);
    PAPC_CHECK(error.empty());
    // The trials in run_sweep's order, with its seed derivation
    // (cell seed from (base_seed, cell), trial seed from (cell seed, rep)).
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const std::uint64_t cell_seed = derive_seed(sweep.base_seed, i);
        for (std::size_t r = 0; r < sweep.reps; ++r) {
            w->runs.push_back(
                {cells[i].scenario.protocol + "/loss=" +
                     cells[i].coordinates[1].second + "/rep" +
                     std::to_string(r),
                 cells[i].scenario, derive_seed(cell_seed, r)});
        }
    }
}

}  // namespace

bool make_workload(const std::string& name, std::uint64_t seed, bool smoke,
                   Workload* out) {
    *out = Workload{};
    out->name = name;
    if (name == "sync-huge") {
        make_sync_huge(seed, smoke, out);
        out->nominal_pass_s = 5.0;
    } else if (name == "event-core") {
        make_event_core(seed, smoke, out);
        out->nominal_pass_s = 6.0;
    } else if (name == "sweep-mixed") {
        make_sweep_mixed(seed, smoke, out);
        out->nominal_pass_s = 2.2;
    } else {
        return false;
    }
    return true;
}

// ------------------------------------------------- layer-by-layer execution
//
// Each family below mirrors its entry in src/api/registry.cpp: the same
// seed salts, workload generator, engine, options and fault plan. The
// traced pass checks the mirror byte for byte against api::run, so a
// registry change that this file does not follow fails the gate instead of
// silently timing a different program.

namespace {

/// Forwards every SyncDynamics call to the wrapped dynamics and records a
/// span around each step(): the sync round loop as core::run drives it.
class TracedDynamics final : public papc::sync::SyncDynamics {
public:
    TracedDynamics(papc::sync::SyncDynamics& inner, Tracer* tracer)
        : inner_(inner), tracer_(tracer) {}

    void step(Rng& rng) override {
        const Scope scope(tracer_, "sync.step");
        inner_.step(rng);
    }
    void set_fault_injector(const papc::fault::Injector* injector) override {
        inner_.set_fault_injector(injector);
    }
    [[nodiscard]] std::uint64_t fault_crash_skips() const override {
        return inner_.fault_crash_skips();
    }
    [[nodiscard]] std::size_t population() const override {
        return inner_.population();
    }
    [[nodiscard]] std::uint32_t num_opinions() const override {
        return inner_.num_opinions();
    }
    [[nodiscard]] std::uint64_t opinion_count(papc::Opinion j) const override {
        return inner_.opinion_count(j);
    }
    [[nodiscard]] std::uint64_t undecided_count() const override {
        return inner_.undecided_count();
    }
    [[nodiscard]] std::uint64_t rounds() const override {
        return inner_.rounds();
    }
    [[nodiscard]] std::size_t memory_bytes() const override {
        return inner_.memory_bytes();
    }
    [[nodiscard]] std::string name() const override { return inner_.name(); }

private:
    papc::sync::SyncDynamics& inner_;
    Tracer* tracer_;
};

std::unique_ptr<papc::sync::SyncDynamics> make_sync_dynamics(
    const api::Scenario& s, const Assignment& assignment) {
    namespace sync = papc::sync;
    if (s.protocol == "sync") {
        sync::ScheduleParams params;
        params.n = s.n;
        params.k = s.k;
        params.alpha = std::max(s.alpha, 1.01);
        params.gamma = s.gamma;
        return std::make_unique<sync::Algorithm1>(
            assignment, sync::Schedule(params), s.threads);
    }
    if (s.protocol == "two-choices") {
        return std::make_unique<sync::TwoChoices>(assignment, s.threads);
    }
    if (s.protocol == "3-majority") {
        return std::make_unique<sync::ThreeMajority>(assignment, s.threads);
    }
    if (s.protocol == "undecided") {
        return std::make_unique<sync::UndecidedState>(assignment, s.threads);
    }
    PAPC_CHECK(s.protocol == "pull");
    return std::make_unique<sync::PullVoting>(assignment, s.threads);
}

std::unique_ptr<papc::population::PopulationProtocol> make_population(
    const api::Scenario& s, const std::vector<std::size_t>& counts) {
    namespace population = papc::population;
    if (s.protocol == "pp-3-state") {
        return std::make_unique<population::ThreeStateMajority>(counts[0],
                                                                counts[1]);
    }
    if (s.protocol == "pp-4-state") {
        return std::make_unique<population::FourStateExactMajority>(counts[0],
                                                                    counts[1]);
    }
    PAPC_CHECK(s.protocol == "pp-undecided");
    return std::make_unique<population::KUndecided>(counts);
}

/// The event-driven families' config, filled from the scenario the way
/// the registry fills async::AsyncConfig and cluster::ClusterConfig.
template <typename Config>
Config event_config(const api::Scenario& s) {
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
    config.fault = api::fault_plan(s);
    return config;
}

/// Per-call wall seconds of one layered run, by layer role.
struct LayerClock {
    double assign = 0.0;
    double construct = 0.0;
    double clustering = 0.0;
    double run = 0.0;
};

Assignment biased(const api::Scenario& s, std::uint64_t salted_seed) {
    Rng workload_rng(salted_seed);
    return papc::make_biased_plurality(s.n, s.k, s.alpha, workload_rng);
}

/// One family's layered run; `run_engine` = false stops after set-up.
LayeredRun layered(const RunSpec& spec, Tracer* tracer, LayerClock* clock,
                   bool run_engine) {
    const api::Scenario& s = spec.scenario;
    const std::uint64_t seed = spec.seed;
    PAPC_CHECK(s.workload == api::Workload::kBiased);
    const std::string family = family_of(s.protocol);
    LayeredRun out;

    if (family == "sync") {
        Rng rng(seed);
        Assignment assignment;
        {
            const Scope scope(tracer, "opinion.assign", &clock->assign);
            assignment = biased(s, derive_seed(seed, 1));
        }
        std::unique_ptr<papc::sync::SyncDynamics> dynamics;
        papc::sync::RunOptions options;
        if (s.max_steps > 0) options.max_rounds = s.max_steps;
        options.record_every =
            s.record_series ? (s.record_every > 0 ? s.record_every : 1) : 0;
        options.epsilon = s.epsilon;
        options.plurality = 0;
        const papc::fault::FaultPlan plan = api::fault_plan(s);
        std::unique_ptr<papc::fault::Injector> injector;
        {
            const Scope scope(tracer, "sync.construct", &clock->construct);
            dynamics = make_sync_dynamics(s, assignment);
            if (plan.active()) {
                injector = std::make_unique<papc::fault::Injector>(
                    plan, s.n, static_cast<double>(options.max_rounds), rng);
                dynamics->set_fault_injector(injector.get());
            }
        }
        out.counts["bytes_per_node"] =
            static_cast<double>(dynamics->memory_bytes()) /
            static_cast<double>(s.n);
        if (!run_engine) return out;
        {
            const Scope scope(tracer, "sync.run", &clock->run);
            TracedDynamics traced(*dynamics, tracer);
            out.run = papc::sync::run_to_consensus(traced, rng, options);
        }
        out.counts["rounds"] = static_cast<double>(out.run.steps);
        return out;
    }

    if (family == "population") {
        std::vector<std::size_t> counts(s.k, 0);
        {
            const Scope scope(tracer, "opinion.assign", &clock->assign);
            const Assignment assignment = biased(s, derive_seed(seed, 0xB00));
            for (const papc::Opinion opinion : assignment.opinions) {
                ++counts[opinion];
            }
        }
        std::unique_ptr<papc::population::PopulationProtocol> protocol;
        {
            const Scope scope(tracer, "population.construct",
                              &clock->construct);
            protocol = make_population(s, counts);
        }
        if (!run_engine) return out;
        Rng rng(derive_seed(seed, 0xB1));
        const papc::fault::FaultPlan plan = api::fault_plan(s);
        papc::fault::FaultCounters faults;
        std::uint64_t crashed = 0;
        std::uint64_t byzantine = 0;
        papc::population::PopulationRunOptions options;
        options.max_interactions = s.max_steps;
        options.record_every =
            s.record_series ? (s.record_every > 0 ? s.record_every : s.n) : 0;
        options.epsilon = s.epsilon;
        options.plurality = 0;
        options.fault = &plan;
        options.fault_counters = &faults;
        options.nodes_crashed = &crashed;
        options.byzantine_nodes = &byzantine;
        {
            const Scope scope(tracer, "population.run", &clock->run);
            out.run = papc::population::run_population(*protocol, rng, options);
        }
        out.counts["interactions"] = static_cast<double>(out.run.steps);
        out.counts["faults_injected"] = static_cast<double>(faults.total());
        return out;
    }

    if (family == "async") {
        // Salts per protocol, as the registry assigns them.
        const bool sequential = s.protocol == "sequential";
        const bool validated = s.protocol == "validated";
        const std::uint64_t workload_salt =
            sequential ? 0xA553 : (validated ? 0xA552 : 0xA551);
        const std::uint64_t engine_salt =
            sequential ? 0x53 : (validated ? 0x52 : 0x51);
        const std::string layer = s.protocol;
        Assignment assignment;
        {
            const Scope scope(tracer, "opinion.assign", &clock->assign);
            assignment = biased(s, derive_seed(seed, workload_salt));
        }
        const auto config = event_config<papc::async::AsyncConfig>(s);
        std::unique_ptr<papc::async::SingleLeaderSimulation> plain;
        std::unique_ptr<papc::async::SequentialSingleLeaderSimulation> seq;
        std::unique_ptr<papc::async::ValidatedSingleLeaderSimulation> val;
        {
            const Scope scope(tracer, layer + ".construct", &clock->construct);
            if (sequential) {
                seq = std::make_unique<
                    papc::async::SequentialSingleLeaderSimulation>(
                    assignment, config, derive_seed(seed, engine_salt));
            } else if (validated) {
                val = std::make_unique<
                    papc::async::ValidatedSingleLeaderSimulation>(
                    assignment, config,
                    papc::sim::make_exponential_latency(s.lambda),
                    papc::sim::make_exponential_latency(s.msg_rate),
                    derive_seed(seed, engine_salt));
            } else {
                plain = std::make_unique<papc::async::SingleLeaderSimulation>(
                    assignment, config, derive_seed(seed, engine_salt));
            }
        }
        if (!run_engine) return out;
        papc::async::AsyncResult r;
        {
            const Scope scope(tracer, layer + ".run", &clock->run);
            if (sequential) {
                r = seq->run();
            } else if (validated) {
                const papc::async::ValidatedResult v = val->run();
                r = v.base;
                out.counts["commits"] = static_cast<double>(v.commits);
                out.counts["aborts"] = static_cast<double>(v.aborts);
            } else {
                r = plain->run();
            }
        }
        out.run = r;
        out.counts["events"] = static_cast<double>(r.events_processed);
        out.counts["windows"] = static_cast<double>(r.windows);
        out.counts["window_stragglers"] =
            static_cast<double>(r.window_stragglers);
        out.counts["signals_delivered"] =
            static_cast<double>(r.signals_delivered);
        out.counts["leader_peak_load"] = r.leader_peak_load;
        out.counts["faults_injected"] = static_cast<double>(r.faults.total());
        return out;
    }

    PAPC_CHECK(family == "cluster");
    Assignment assignment;
    {
        const Scope scope(tracer, "opinion.assign", &clock->assign);
        assignment = biased(s, derive_seed(seed, 0xC1A0));
    }
    const auto config = event_config<papc::cluster::ClusterConfig>(s);
    Rng clustering_rng(derive_seed(seed, 0xC1A1));
    papc::cluster::ClusteringResult clustering;
    {
        // The clustering phase is protocol execution, not set-up; it is
        // timed apart so set_up measurements can leave it out.
        const Scope scope(tracer, "cluster.clustering", &clock->clustering);
        clustering = papc::cluster::run_clustering(s.n, config, clustering_rng);
    }
    std::unique_ptr<papc::cluster::MultiLeaderSimulation> simulation;
    {
        const Scope scope(tracer, "cluster.construct", &clock->construct);
        simulation = std::make_unique<papc::cluster::MultiLeaderSimulation>(
            assignment, std::move(clustering), config,
            derive_seed(seed, 0xC1A2));
    }
    if (!run_engine) return out;
    papc::cluster::MultiLeaderResult r;
    {
        const Scope scope(tracer, "cluster.run", &clock->run);
        r = simulation->run();
    }
    out.run = r;
    out.counts["events"] = static_cast<double>(r.events_processed);
    out.counts["windows"] = static_cast<double>(r.windows);
    out.counts["window_stragglers"] = static_cast<double>(r.window_stragglers);
    out.counts["faults_injected"] = static_cast<double>(r.faults.total());
    return out;
}

}  // namespace

LayeredRun run_layered(const RunSpec& spec, Tracer* tracer) {
    LayerClock clock;
    const int span =
        tracer != nullptr ? tracer->begin("run:" + spec.label) : -1;
    LayeredRun out = layered(spec, tracer, &clock, /*run_engine=*/true);
    if (tracer != nullptr) tracer->end(span);
    out.span = span;
    out.counts["assign_s"] = clock.assign;
    out.counts["construct_s"] = clock.construct;
    out.counts["clustering_s"] = clock.clustering;
    out.counts["run_s"] = clock.run;
    return out;
}

double setup_seconds(const RunSpec& spec) {
    LayerClock clock;
    (void)layered(spec, nullptr, &clock, /*run_engine=*/false);
    return clock.assign + clock.construct;
}

// -------------------------------------------------------- correctness gate

std::string gate_run(const RunSpec& spec, const api::ScenarioResult& result) {
    const core::RunResult& run = result.run;
    if (!core::consistent(run)) return "core::consistent failed";
    if (spec.scenario.protocol == "pull") {
        // Pull voting picks a random winner; with a round budget it must
        // use the budget, without one it must still agree.
        if (spec.scenario.max_steps > 0) {
            if (run.steps != spec.scenario.max_steps && !run.converged) {
                return "pull stopped before its round budget";
            }
        } else if (!run.converged) {
            return "pull did not converge";
        }
    } else if (!run.converged || !run.plurality_won) {
        return "did not converge to the plurality";
    }
    papc::JsonWriter writer;
    api::write_json(writer, spec.scenario, spec.seed, result);
    const papc::JsonParseResult parsed = papc::parse_json(writer.str());
    if (!parsed.ok()) return "result JSON does not parse: " + parsed.error;
    const papc::JsonValue* value = parsed.value.find("result");
    if (value == nullptr) return "result JSON has no \"result\"";
    if (core::serialize(core::run_result_from_json(*value)) !=
        core::serialize(run)) {
        return "JSON round trip changed the result";
    }
    return {};
}

std::size_t gate_sweep(const api::SweepResult& table,
                       const std::string& table_json,
                       std::vector<std::string>* problems) {
    std::size_t failed = 0;
    for (const api::SweepCell& cell : table.cells) {
        const auto reps = static_cast<double>(table.reps);
        // metrics_from reports converged / plurality_won as 0/1 per trial.
        const double converged =
            cell.outcome.mean("converged") * reps + 0.5;
        const double won = cell.outcome.mean("plurality_won") * reps + 0.5;
        const auto good = static_cast<std::size_t>(
            cell.scenario.protocol == "pull" ? converged
                                             : std::min(converged, won));
        if (good < table.reps) {
            failed += table.reps - good;
            problems->push_back(cell.scenario.protocol + " (fault_loss " +
                                cell.coordinates[1].second + "): " +
                                std::to_string(table.reps - good) +
                                " trial(s) missed the plurality");
        }
    }
    const papc::JsonParseResult parsed = papc::parse_json(table_json);
    const papc::JsonValue* cells = parsed.ok() ? parsed.value.find("cells")
                                               : nullptr;
    if (cells == nullptr || !cells->is_array() ||
        cells->size() != table.cells.size()) {
        problems->push_back("sweep JSON table does not parse back");
        ++failed;
    }
    return failed;
}

}  // namespace perfbench
