#pragma once

/// \file scenario.hpp
/// The declarative experiment description at the heart of the api layer:
/// one plain value type naming a protocol plus every cross-family knob.
/// A Scenario says *what* to run; api::run (registry.hpp) resolves the
/// protocol name and drives the right engine family, and api::Sweep
/// (sweep.hpp) expands axes over any Scenario field.
///
/// Every knob has a canonical string field name (the same name is a CLI
/// flag of papc_cli and a sweep-axis key). scenario.cpp declares each field
/// once, as one row of a typed field table (member, name, help, accepted
/// values); the member's type picks the parse, text and JSON rules, and
/// set_field, get_field, field_help, scenario_field_names and write_json
/// all loop over the table. set_field() is the single mutation path, so the
/// CLI, the sweep expander and any config file share one parser and one set
/// of defaults. A new knob is one struct member plus one table row.

#include <cstdint>
#include <string>
#include <vector>

#include "fault/plan.hpp"
#include "sim/queue_kind.hpp"
#include "support/json_writer.hpp"

namespace papc::api {

/// Initial-opinion workload family (opinion/assignment.hpp generators).
/// Opinion 0 is the intended plurality for every workload (uniform has no
/// real plurality; 0 is still the reported target).
enum class Workload {
    kBiased,          ///< make_biased_plurality(alpha)
    kTwoFrontRunners, ///< make_two_front_runners(alpha, tail_fraction)
    kAdditiveGap,     ///< make_additive_gap(gap; 0 = n/10)
    kUniform,         ///< make_uniform (alpha ignored)
    kZipf,            ///< make_zipf(zipf_s)
};

[[nodiscard]] const char* to_string(Workload workload);
/// Parses "biased" / "two-front-runners" / "gap" / "uniform" / "zipf";
/// nullptr error message on success, else a description of the problem.
[[nodiscard]] bool try_parse_workload(const std::string& name, Workload* out);

/// A fully described run: protocol + population + workload + all
/// cross-family knobs. Knobs a protocol does not consume are ignored by
/// it (each registry entry lists the knobs that apply).
struct Scenario {
    std::string protocol = "async";  ///< registry name (registry.hpp)

    // Population and workload.
    std::size_t n = 10000;       ///< population size
    std::uint32_t k = 4;         ///< number of opinions
    double alpha = 1.8;          ///< multiplicative bias of opinion 0
    Workload workload = Workload::kBiased;
    double zipf_s = 1.0;         ///< Zipf exponent (workload=zipf)
    std::size_t gap = 0;         ///< additive gap (workload=gap; 0 = n/10)
    double tail_fraction = 0.2;  ///< background mass (two-front-runners)

    // Family knobs.
    double lambda = 1.0;    ///< channel-establishment rate (async/cluster)
    double msg_rate = 2.0;  ///< per-message rate (validated)
    double gamma = 0.5;     ///< generation-density threshold (sync Alg. 1)

    /// Intra-run worker threads (sync family: sharded round execution;
    /// event-driven families: sharded windowed executor). Results are
    /// bit-identical at every thread count; only throughput changes.
    /// Sweepable like any field ("threads=1,2,4").
    std::size_t threads = 1;

    /// Conservative window width of the event-driven executor in time
    /// units (0 = derive from lambda). Part of the trajectory: two runs
    /// only reproduce each other with equal windows.
    double window = 0.0;

    // Convergence reporting.
    double epsilon = 0.02;  ///< (1-eps)-agreement threshold

    // Budgets: steps for round/interaction families (0 = family default),
    // simulated time for the event-driven families.
    std::uint64_t max_steps = 0;
    double max_time = 3000.0;

    // Record cadence. record_series gates all series recording;
    // record_every is the round/interaction cadence (0 = family default:
    // every round / once per parallel step), sample_interval the
    // event-driven metronome in time steps.
    bool record_series = true;
    std::uint64_t record_every = 0;
    double sample_interval = 0.25;

    /// Scheduler queue behind the event-driven families (results are
    /// queue-independent; throughput is not).
    sim::QueueKind queue_kind = sim::QueueKind::kBinaryHeap;

    // Fault & adversary injection (src/fault/plan.hpp; every family).
    // All rates default to 0 = fault-free, and a zero plan is
    // byte-identical to no plan. These field names use underscores so
    // sweep axis specs like "fault_loss=0,0.2" need no quoting.
    double fault_loss = 0.0;             ///< per-message drop probability
    double fault_dup = 0.0;              ///< per-message duplication prob.
    double fault_corrupt = 0.0;          ///< per-message corruption prob.
    double fault_crash_rate = 0.0;       ///< per-node Exp crash rate
    double fault_recover_rate = 0.0;     ///< per-node Exp recover rate
                                         ///< (0 = crashed nodes stay down)
    double fault_straggler_frac = 0.0;   ///< fraction of messages delayed
    double fault_straggler_scale = 1.0;  ///< heavy-tail delay scale
    double byzantine_frac = 0.0;         ///< byzantine node fraction
    fault::ByzantinePolicy byzantine_policy = fault::ByzantinePolicy::kFixed;
};

/// The scenario's fault fields assembled as a FaultPlan (the registry
/// hands this to every engine family).
[[nodiscard]] fault::FaultPlan fault_plan(const Scenario& scenario);

/// All validation problems with the scenario's knob values (empty = valid).
/// Protocol-specific constraints (unknown name, k-range of the two-opinion
/// population protocols) are checked by the registry on top of this.
[[nodiscard]] std::vector<std::string> validate(const Scenario& scenario);

/// Canonical field names accepted by set_field, in declaration order.
[[nodiscard]] const std::vector<std::string>& scenario_field_names();

/// Sets one field from its string form ("n"="10000", "workload"="zipf",
/// "queue"="calendar", ...). Returns an empty string on success, else an
/// error message naming the field and the problem. This is the single
/// mutation path shared by the CLI flags and the sweep axes.
[[nodiscard]] std::string set_field(Scenario& scenario,
                                    const std::string& field,
                                    const std::string& value);

/// Reads one field back in its string form (inverse of set_field).
[[nodiscard]] std::string get_field(const Scenario& scenario,
                                    const std::string& field);

/// One-line usage help per field ("n: population size (default 10000)").
[[nodiscard]] std::string field_help(const std::string& field);

/// Emits the scenario as one JSON object (all fields, canonical names).
void write_json(JsonWriter& writer, const Scenario& scenario);

}  // namespace papc::api
