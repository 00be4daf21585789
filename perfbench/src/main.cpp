// papc_perfbench — the repository benchmark program (see perfbench/README.md).
//
//   papc_perfbench --workload sync-huge|event-core|sweep-mixed --seed N
//                  --seconds S --trace 0|1 [--smoke] [--out DIR]
//                  [--git-sha SHA] [--src-digest HEX]
//
// --trace 0 measures the named workload end to end through the public api
// (api::run / api::run_sweep + write_json) for about S seconds and prints
// its end-to-end metrics. --trace 1 is the separate traced run: every
// workload untraced and layer by layer under in-memory spans, plus the
// layer probes (S is not used); it prints the per-layer metrics and writes
// the spans as a Chrome trace. Either way the last stdout line is one JSON
// object {"correct", "attempted", "failed", "metrics"}, and DIR receives a
// result file with the run manifest.

#include <sys/resource.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "bench.hpp"
#include "probes.hpp"
#include "sim/queue_kind.hpp"
#include "sim/windowed_executor.hpp"
#include "support/cpu.hpp"
#include "support/json_value.hpp"
#include "support/json_writer.hpp"
#include "support/parse.hpp"

#ifndef PAPC_BENCH_BUILD_TYPE
#define PAPC_BENCH_BUILD_TYPE "unknown"
#endif
#ifndef PAPC_BENCH_COMPILER
#define PAPC_BENCH_COMPILER "unknown"
#endif

namespace perfbench {
namespace {

namespace api = papc::api;
namespace core = papc::core;

struct Options {
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    int trace = 0;
    bool smoke = false;
    std::string out_dir = ".bench_out";
    std::string git_sha = "unknown";
    std::string src_digest = "unknown";
};

struct Metric {
    double value = 0.0;
    std::string unit;
};

/// What one benchmark invocation reports.
struct Outcome {
    std::map<std::string, Metric> metrics;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::string> problems;
    /// Traced run only: self time (s) per span name, per workload.
    std::map<std::string, std::map<std::string, double>> self_times;
    /// Untraced run only: wall seconds of every pass, in order.
    std::vector<double> pass_s;
    /// Untraced run only: every set-up repeat's total seconds, in order.
    std::vector<double> setup_s;
    /// Traced run only: untraced api::run wall ms per run, per workload.
    std::map<std::string, std::vector<std::pair<std::string, double>>> run_ms;

    void put(const std::string& name, double value, const std::string& unit) {
        metrics[name] = Metric{value, unit};
    }
    void check(bool ok, const std::string& what) {
        ++attempted;
        if (!ok) {
            ++failed;
            problems.push_back(what);
        }
    }
};

/// The process's resident high-water mark. VmHWM belongs to this program's
/// own address space; getrusage's ru_maxrss would also count the parent's
/// footprint at fork, since Linux carries it across exec.
double peak_rss_mib() {
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) == 0) {
            return std::strtod(line.c_str() + 6, nullptr) / 1024.0;  // kB
        }
    }
    struct rusage usage {};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

/// Work units of one run: node updates for the round-based sync family,
/// interactions for population protocols, processed events for the
/// event-driven families.
double work_units(const RunSpec& spec, const api::ScenarioResult& result) {
    const std::string family = family_of(spec.scenario.protocol);
    if (family == "sync") {
        return static_cast<double>(result.run.steps) *
               static_cast<double>(spec.scenario.n);
    }
    if (family == "population") return static_cast<double>(result.run.steps);
    const auto it = result.extras.find("events_processed");
    return it != result.extras.end() ? it->second : 0.0;
}

std::string table_json(const api::SweepResult& table) {
    papc::JsonWriter writer;
    api::write_json(writer, table);
    return writer.str();
}

/// Every pass of an untraced run has its own inputs: pass 0 uses the
/// workload seed itself (the traced run's inputs), later passes seeds
/// derived from it, so the median over passes describes the workload
/// rather than one draw of it. The pass count is fixed by (workload,
/// seconds), so a seed always produces the same inputs.
std::vector<Workload> pass_inputs(const Workload& w, const Options& o) {
    const int passes =
        o.smoke ? 3
                : std::max(3, static_cast<int>(std::lround(
                                  o.seconds / w.nominal_pass_s)));
    std::vector<Workload> inputs(static_cast<std::size_t>(passes));
    for (int p = 0; p < passes; ++p) {
        const std::uint64_t seed =
            p == 0 ? o.seed
                   : papc::derive_seed(o.seed, static_cast<std::uint64_t>(p));
        PAPC_CHECK(make_workload(w.name, seed, o.smoke,
                                 &inputs[static_cast<std::size_t>(p)]));
    }
    return inputs;
}

/// Set-up time of every run of one pass (the assignment generators and
/// engine constructors called directly), repeated over the passes' inputs
/// in turn until at least two repeats and 0.2 s; each total is appended to
/// `totals`. It runs before every timed pass, so the samples spread over
/// the whole run rather than meeting one moment of a shared host, and
/// setup_s is their median.
void measure_setup(const std::vector<Workload>& inputs,
                   std::vector<double>* totals) {
    const Clock::time_point begin = Clock::now();
    const std::size_t first = totals->size();
    while (totals->size() - first < 2 ||
           (totals->size() - first < 50 && seconds_since(begin) < 0.2)) {
        double total = 0.0;
        for (const RunSpec& spec : inputs[totals->size() % inputs.size()].runs) {
            total += setup_seconds(spec);
        }
        totals->push_back(total);
    }
}

// ------------------------------------------------------- end-to-end runs

/// Runs the passes in order and stops early (after at least three) once
/// the run has used 1.5 x --seconds, so a slow host cannot stretch a run
/// far past its measuring time.
bool keep_going(std::size_t done, Clock::time_point begin, const Options& o) {
    return done < 3 || seconds_since(begin) < 1.5 * o.seconds;
}

void measure_run_list(const Workload& w, const Options& o, Outcome* out) {
    const std::vector<Workload> inputs = pass_inputs(w, o);
    // Per api::run call: its wall seconds and work units in every pass.
    std::vector<std::vector<double>> call_s(w.runs.size());
    std::vector<std::vector<double>> call_work(w.runs.size());
    const Clock::time_point begin = Clock::now();
    for (const Workload& pass : inputs) {
        if (!keep_going(out->pass_s.size(), begin, o)) break;
        measure_setup(inputs, &out->setup_s);
        std::vector<api::ScenarioResult> results;
        results.reserve(pass.runs.size());
        double pass_s = 0.0;
        for (std::size_t i = 0; i < pass.runs.size(); ++i) {
            const RunSpec& spec = pass.runs[i];
            const Clock::time_point start = Clock::now();
            results.push_back(api::run(spec.scenario, spec.seed));
            const double elapsed = seconds_since(start);
            pass_s += elapsed;
            call_s[i].push_back(elapsed);
            call_work[i].push_back(work_units(spec, results.back()));
        }
        out->pass_s.push_back(pass_s);

        // The gate, outside the timed region, on every run.
        for (std::size_t i = 0; i < pass.runs.size(); ++i) {
            const RunSpec& spec = pass.runs[i];
            const std::string reason = gate_run(spec, results[i]);
            bool ok = reason.empty();
            std::string what = spec.label + ": " + reason;
            // Runs that differ only in threads must agree exactly.
            for (std::size_t j = 0; j < i; ++j) {
                const api::Scenario& a = pass.runs[j].scenario;
                if (pass.runs[j].seed == spec.seed &&
                    a.protocol == spec.scenario.protocol &&
                    a.n == spec.scenario.n &&
                    core::serialize(results[j].run) !=
                        core::serialize(results[i].run)) {
                    ok = false;
                    what = spec.label + ": differs from " + pass.runs[j].label;
                }
            }
            out->check(ok, what);
        }
    }
    // A pass's typical wall time, composed call by call: each api::run's
    // median over the passes, summed. A burst of interference from the
    // host then costs one call one sample instead of a whole pass.
    double run_s = 0.0;
    double work = 0.0;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        run_s += median(call_s[i]);
        work += median(call_work[i]);
    }
    out->put("run_s", run_s, "s");
    out->put("setup_s", median(out->setup_s), "s");
    out->put("work_per_s", work / run_s, "1/s");
}

void measure_sweep(const Workload& w, const Options& o, Outcome* out) {
    const std::vector<Workload> inputs = pass_inputs(w, o);
    const auto trials = static_cast<double>(w.runs.size());
    std::vector<double> pass_s;
    std::vector<double> runs_per_s;
    const Clock::time_point begin = Clock::now();
    for (const Workload& pass : inputs) {
        if (!keep_going(pass_s.size(), begin, o)) break;
        measure_setup(inputs, &out->setup_s);
        const Clock::time_point start = Clock::now();
        const api::SweepResult table = api::run_sweep(pass.sweep);
        const std::string json = table_json(table);
        const double elapsed = seconds_since(start);
        pass_s.push_back(elapsed);
        runs_per_s.push_back(trials / elapsed);

        std::vector<std::string> problems;
        const std::size_t failed = gate_sweep(table, json, &problems);
        out->attempted += pass.runs.size();
        out->failed += failed;
        out->problems.insert(out->problems.end(), problems.begin(),
                             problems.end());
    }
    out->pass_s = pass_s;
    out->put("run_s", median(pass_s), "s");
    out->put("setup_s", median(out->setup_s), "s");
    out->put("work_per_s", median(runs_per_s), "1/s");
}

// ------------------------------------------------------------ traced run

/// Untraced api::run of every run (which also warms allocator and caches),
/// the same runs layer by layer under one "pass:<workload>" span, then the
/// untraced runs again for the overhead comparison; checks the layered
/// results against api::run's byte for byte.
struct RunListTrace {
    std::vector<LayeredRun> layered;
    double untraced_s = 0.0;
};

RunListTrace trace_run_list(const Workload& w, Tracer* tracer, Outcome* out) {
    RunListTrace t;
    std::vector<api::ScenarioResult> reference;
    for (const RunSpec& spec : w.runs) {
        reference.push_back(api::run(spec.scenario, spec.seed));
    }
    const int root = tracer->begin("pass:" + w.name);
    for (const RunSpec& spec : w.runs) {
        t.layered.push_back(run_layered(spec, tracer));
    }
    tracer->end(root);
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const RunSpec& spec = w.runs[i];
        const Clock::time_point start = Clock::now();
        const api::ScenarioResult again = api::run(spec.scenario, spec.seed);
        const double elapsed = seconds_since(start);
        t.untraced_s += elapsed;
        out->run_ms[w.name].emplace_back(spec.label, elapsed * 1e3);
        out->check(core::serialize(again.run) ==
                       core::serialize(reference[i].run),
                   spec.label + ": repeated api::run changed the result");
    }
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const std::string reason = gate_run(w.runs[i], reference[i]);
        out->check(reason.empty(), w.runs[i].label + ": " + reason);
        out->check(core::serialize(t.layered[i].run) ==
                       core::serialize(reference[i].run),
                   w.runs[i].label + ": layered run differs from api::run");
    }
    return t;
}

/// trace.coverage / trace.overhead_ratio of the last pass span, plus its
/// self times by span name.
void record_trace_shape(const std::string& workload, const Tracer& tracer,
                        double untraced_s, Outcome* out) {
    const std::vector<Span>& spans = tracer.spans();
    const std::vector<double> self = tracer.self_times_us();
    int root = -1;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].name == "pass:" + workload) root = static_cast<int>(i);
    }
    const double root_us = tracer.duration_us(root);
    const double unattributed_us = self[static_cast<std::size_t>(root)];
    out->put("trace.coverage." + workload, 1.0 - unattributed_us / root_us,
             "ratio");
    out->put("trace.overhead_ratio." + workload, root_us * 1e-6 / untraced_s,
             "ratio");
    std::map<std::string, double>& by_name = out->self_times[workload];
    for (auto i = static_cast<std::size_t>(root); i < spans.size(); ++i) {
        int up = static_cast<int>(i);
        while (up >= 0 && up != root) {
            up = spans[static_cast<std::size_t>(up)].parent;
        }
        if (up != root) continue;
        // Per-run spans are named run:<label>; fold them into one row.
        const std::string name = spans[i].name.rfind("run:", 0) == 0
                                     ? std::string("run:*")
                                     : spans[i].name;
        by_name[static_cast<int>(i) == root ? "unattributed" : name] +=
            self[i] * 1e-6;
    }
}

const LayeredRun& by_label(const Workload& w, const RunListTrace& t,
                           const std::string& label) {
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        if (w.runs[i].label == label) return t.layered[i];
    }
    PAPC_CHECK(false);
    return t.layered.front();
}

void trace_sync_huge(const Options& o, const ProbeSizes& sizes,
                     Tracer* tracer, Outcome* out) {
    Workload w;
    PAPC_CHECK(make_workload("sync-huge", o.seed, o.smoke, &w));
    const RunListTrace t = trace_run_list(w, tracer, out);
    record_trace_shape(w.name, *tracer, t.untraced_s, out);

    double updates = 0.0;
    double engine_s = 0.0;
    std::vector<double> assign_s;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const std::string& p = w.runs[i].label;
        const LayeredRun& r = t.layered[i];
        out->put("sync.construct_s." + p, r.counts.at("construct_s"), "s");
        out->put("sync.round_ms." + p,
                 median(tracer->durations_under(r.span, "sync.step")) * 1e-3,
                 "ms");
        out->put("sync.rounds." + p, r.counts.at("rounds"), "count");
        updates += r.counts.at("rounds") *
                   static_cast<double>(w.runs[i].scenario.n);
        engine_s += r.counts.at("run_s");
        assign_s.push_back(r.counts.at("assign_s"));
    }
    out->put("sync.node_updates_per_s", updates / engine_s, "1/s");
    out->put("opinion.assign_s", median(assign_s), "s");
    for (const std::string p : {"sync", "two-choices", "two-choices-k128"}) {
        out->put("opinion.bytes_per_node." + p,
                 by_label(w, t, p).counts.at("bytes_per_node"), "B");
    }

    out->put("support.rng_indices_per_s", rng_indices_per_s(sizes, o.seed),
             "1/s");
    for (const auto& [threads, ms] : algorithm1_round_ms(sizes, o.seed)) {
        out->put("sync.round_ms.sync.t" + std::to_string(threads), ms, "ms");
    }
    for (const auto& [path, rate] : gather_lanes_per_s(sizes, o.seed)) {
        out->put("sync.gather_lanes_per_s." + path, rate, "1/s");
    }
}

void trace_event_core(const Options& o, const ProbeSizes& sizes,
                      Tracer* tracer, Outcome* out) {
    Workload w;
    PAPC_CHECK(make_workload("event-core", o.seed, o.smoke, &w));
    const RunListTrace t = trace_run_list(w, tracer, out);
    record_trace_shape(w.name, *tracer, t.untraced_s, out);

    const LayeredRun& t1 = by_label(w, t, "async-t1");
    const LayeredRun& t4 = by_label(w, t, "async-t4");
    const auto count = [](const LayeredRun& r, const char* name) {
        return r.counts.at(name);
    };
    out->put("async.construct_s", count(t4, "construct_s"), "s");
    out->put("async.run_s.t1", count(t1, "run_s"), "s");
    out->put("async.run_s.t4", count(t4, "run_s"), "s");
    out->put("async.speedup_t4", count(t1, "run_s") / count(t4, "run_s"), "x");
    out->put("async.events_per_s.t1", count(t1, "events") / count(t1, "run_s"),
             "1/s");
    out->put("async.events_per_s.t4", count(t4, "events") / count(t4, "run_s"),
             "1/s");
    out->put("async.events", count(t4, "events"), "count");
    out->put("async.windows", count(t4, "windows"), "count");
    out->put("async.window_stragglers", count(t4, "window_stragglers"),
             "count");
    out->put("async.signals_delivered", count(t4, "signals_delivered"),
             "count");
    out->put("async.leader_peak_load", count(t4, "leader_peak_load"), "count");
    out->put("async.events_per_window",
             count(t4, "events") / count(t4, "windows"), "count");
    out->put("async.straggler_ratio",
             count(t4, "window_stragglers") / count(t4, "events"), "ratio");

    out->put("sequential.run_s", count(by_label(w, t, "sequential"), "run_s"),
             "s");
    const LayeredRun& validated = by_label(w, t, "validated");
    out->put("validated.run_s", count(validated, "run_s"), "s");
    const double commits = count(validated, "commits");
    out->put("validated.commit_ratio",
             commits / (commits + count(validated, "aborts")), "ratio");
    const LayeredRun& multi = by_label(w, t, "multi");
    out->put("cluster.clustering_s", count(multi, "clustering_s"), "s");
    out->put("cluster.construct_s", count(multi, "construct_s"), "s");
    out->put("cluster.run_s", count(multi, "run_s"), "s");
    out->put("cluster.events", count(multi, "events"), "count");
    out->put("cluster.windows", count(multi, "windows"), "count");
    out->put("cluster.window_stragglers", count(multi, "window_stragglers"),
             "count");

    const std::pair<const char*, papc::sim::QueueKind> queues[] = {
        {"heap", papc::sim::QueueKind::kBinaryHeap},
        {"calendar", papc::sim::QueueKind::kCalendar},
        {"ladder", papc::sim::QueueKind::kLadder}};
    for (const auto& [name, kind] : queues) {
        out->put(std::string("sim.queue_hold_ns.") + name,
                 queue_hold_ns(sizes, kind, o.seed), "ns");
    }
    const ExecutorHold hold1 = executor_hold(sizes, 1, o.seed);
    const ExecutorHold hold4 = executor_hold(sizes, 4, o.seed);
    out->put("sim.executor_hold_events_per_s.t1", hold1.events_per_s, "1/s");
    out->put("sim.executor_hold_events_per_s.t4", hold4.events_per_s, "1/s");
    out->put("sim.window_us.t4", hold4.window_us, "us");
    out->put("support.pool_dispatch_us", pool_dispatch_us(sizes), "us");
}

void trace_sweep_mixed(const Options& o, const ProbeSizes& sizes,
                       Tracer* tracer, Outcome* out) {
    Workload w;
    PAPC_CHECK(make_workload("sweep-mixed", o.seed, o.smoke, &w));

    // The sweep as the untraced run times it (one trial worker), then on
    // four workers for the parallel efficiency.
    Clock::time_point start = Clock::now();
    const api::SweepResult table = api::run_sweep(w.sweep);
    const double sweep1_s = seconds_since(start);
    const std::string json = table_json(table);
    std::vector<std::string> problems;
    out->attempted += w.runs.size();
    out->failed += gate_sweep(table, json, &problems);
    out->problems.insert(out->problems.end(), problems.begin(), problems.end());
    api::Sweep parallel = w.sweep;
    parallel.threads = 4;
    start = Clock::now();
    const api::SweepResult parallel_table = api::run_sweep(parallel);
    const double sweep4_s = seconds_since(start);
    out->check(table_json(parallel_table) == json,
               "sweep table depends on the worker count");

    // Every trial through api::run, one after another.
    std::vector<api::ScenarioResult> reference;
    std::vector<double> api_ms;
    for (const RunSpec& spec : w.runs) {
        start = Clock::now();
        reference.push_back(api::run(spec.scenario, spec.seed));
        api_ms.push_back(seconds_since(start) * 1e3);
        out->run_ms[w.name].emplace_back(spec.label, api_ms.back());
    }
    double api_total_s = 0.0;
    for (const double ms : api_ms) api_total_s += ms * 1e-3;

    // The same trials layer by layer.
    const int root = tracer->begin("pass:" + w.name);
    std::vector<LayeredRun> layered;
    for (const RunSpec& spec : w.runs) {
        layered.push_back(run_layered(spec, tracer));
    }
    tracer->end(root);
    record_trace_shape(w.name, *tracer, api_total_s, out);

    std::vector<std::string> docs;
    std::map<std::string, double> interactions;
    std::map<std::string, double> population_s;
    /// Per family: {clean ms, clean work, faulted ms, faulted work}.
    std::map<std::string, std::array<double, 4>> fault_cost;
    double injected = 0.0;
    for (std::size_t i = 0; i < w.runs.size(); ++i) {
        const RunSpec& spec = w.runs[i];
        const std::string reason = gate_run(spec, reference[i]);
        out->check(reason.empty(), spec.label + ": " + reason);
        out->check(core::serialize(layered[i].run) ==
                       core::serialize(reference[i].run),
                   spec.label + ": layered run differs from api::run");
        papc::JsonWriter writer;
        api::write_json(writer, spec.scenario, spec.seed, reference[i]);
        docs.push_back(writer.str());

        const std::string family = family_of(spec.scenario.protocol);
        if (family == "population") {
            interactions[spec.scenario.protocol] +=
                layered[i].counts.at("interactions");
            population_s[spec.scenario.protocol] +=
                layered[i].counts.at("run_s");
        }
        const auto faults = layered[i].counts.find("faults_injected");
        if (faults != layered[i].counts.end()) injected += faults->second;
        std::array<double, 4>& cost = fault_cost[family];
        const std::size_t side = spec.scenario.fault_loss > 0.0 ? 2 : 0;
        cost[side] += api_ms[i];
        cost[side + 1] += work_units(spec, reference[i]);
    }
    for (const auto& [protocol, count] : interactions) {
        out->put("population.interactions_per_s." + protocol,
                 count / population_s[protocol], "1/s");
    }
    out->put("fault.injected", injected, "count");
    // Time per unit of work, faulted over clean: what the fault layer
    // costs per node update / interaction / event. Loss leaves sync runs
    // untouched, so the sync row is a control that should read about 1.
    for (const auto& [family, cost] : fault_cost) {
        out->put("fault.overhead_ratio." + family,
                 (cost[2] / cost[3]) / (cost[0] / cost[1]), "ratio");
    }
    out->put("api.run_p50_ms", quantile(api_ms, 0.5), "ms");
    out->put("api.run_p90_ms", quantile(api_ms, 0.9), "ms");
    out->put("runner.harness_overhead_ratio", sweep1_s / api_total_s, "ratio");
    out->put("api.sweep_parallel_efficiency",
             sweep1_s / (static_cast<double>(parallel.threads) * sweep4_s),
             "ratio");

    // JSON emission and parsing at the sweep's document sizes.
    const double table_mib = static_cast<double>(json.size()) / (1 << 20);
    out->put("support.json_write_mib_per_s",
             median_rate(
                 [&] {
                     return table_json(table).size() > 0 ? table_mib : 0.0;
                 },
                 sizes.budget_s),
             "MiB/s");
    double docs_mib = 0.0;
    for (const std::string& doc : docs) {
        docs_mib += static_cast<double>(doc.size()) / (1 << 20);
    }
    out->put("support.json_parse_mib_per_s",
             median_rate(
                 [&] {
                     std::uint64_t steps = 0;
                     for (const std::string& doc : docs) {
                         const papc::JsonParseResult parsed =
                             papc::parse_json(doc);
                         steps += core::run_result_from_json(
                                      parsed.value.at("result"))
                                      .steps;
                     }
                     return steps > 0 ? docs_mib : 0.0;
                 },
                 sizes.budget_s),
             "MiB/s");

    api::Scenario faulted = w.sweep.base;
    faulted.fault_loss = 0.1;
    out->put("fault.injector_construct_ms",
             injector_construct_ms(sizes, api::fault_plan(faulted), faulted.n,
                                   faulted.max_time, o.seed),
             "ms");
    out->put("analysis.c1_estimate_ms", c1_estimate_ms(sizes, o.seed), "ms");
    out->put("api.dispatch_us", api_dispatch_us(sizes, o.seed), "us");
}

// -------------------------------------------------------------- reporting

std::string number(double value) {
    return papc::JsonWriter::format_double(value);
}

/// The last stdout line: exactly correct / attempted / failed / metrics.
std::string result_line(const Outcome& out) {
    std::ostringstream line;
    line << "{\"correct\": " << (out.failed == 0 ? "true" : "false")
         << ", \"attempted\": " << out.attempted
         << ", \"failed\": " << out.failed << ", \"metrics\": {";
    bool first = true;
    for (const auto& [name, metric] : out.metrics) {
        line << (first ? "" : ", ") << papc::JsonWriter::escape(name)
             << ": {\"value\": " << number(metric.value)
             << ", \"unit\": " << papc::JsonWriter::escape(metric.unit) << "}";
        first = false;
    }
    line << "}}";
    return line.str();
}

bool is_release() { return std::string(PAPC_BENCH_BUILD_TYPE) == "Release"; }

void write_manifest(papc::JsonWriter& writer, const Options& o,
                    const std::vector<Workload>& workloads) {
    writer.key("manifest");
    writer.begin_object();
    writer.kv("git_sha", o.git_sha);
    writer.kv("src_digest", o.src_digest);
    writer.kv("compiler", std::string(PAPC_BENCH_COMPILER));
    writer.kv("build_type", std::string(PAPC_BENCH_BUILD_TYPE));
    writer.kv("release_build", is_release());
    writer.kv("simd_active",
              std::string(papc::support::simd_level_name(
                  papc::support::active_simd())));
    writer.kv("simd_detected",
              std::string(papc::support::simd_level_name(
                  papc::support::detected_simd())));
    writer.kv("nproc",
              static_cast<std::uint64_t>(std::thread::hardware_concurrency()));
    writer.kv("seed", o.seed);
    writer.kv("seconds", o.seconds);
    writer.kv("trace", o.trace);
    writer.kv("smoke", o.smoke);
    writer.kv("event_shards",
              static_cast<std::uint64_t>(papc::sim::kDefaultWindowShards));
    writer.kv("event_window", papc::sim::default_window(1.0));
    writer.kv("queue", std::string(papc::sim::to_string(
                           papc::sim::QueueKind::kBinaryHeap)));
    writer.key("workloads");
    writer.begin_array();
    for (const Workload& w : workloads) {
        writer.begin_object();
        writer.kv("name", w.name);
        if (w.is_sweep) {
            writer.kv("sweep_workers",
                      static_cast<std::uint64_t>(w.sweep.threads));
            writer.kv("reps", static_cast<std::uint64_t>(w.sweep.reps));
            writer.key("base");
            api::write_json(writer, w.sweep.base);
        }
        writer.key("runs");
        writer.begin_array();
        for (const RunSpec& spec : w.runs) {
            writer.begin_object();
            writer.kv("label", spec.label);
            writer.kv("protocol", spec.scenario.protocol);
            writer.kv("n", static_cast<std::uint64_t>(spec.scenario.n));
            writer.kv("k", static_cast<std::uint64_t>(spec.scenario.k));
            writer.kv("threads",
                      static_cast<std::uint64_t>(spec.scenario.threads));
            writer.kv("fault_loss", spec.scenario.fault_loss);
            writer.kv("seed", spec.seed);
            writer.end_object();
        }
        writer.end_array();
        writer.end_object();
    }
    writer.end_array();
    writer.end_object();
}

std::string result_document(const Options& o, const Outcome& out,
                            const std::vector<Workload>& workloads) {
    papc::JsonWriter writer;
    writer.begin_object();
    write_manifest(writer, o, workloads);
    writer.kv("correct", out.failed == 0);
    writer.kv("attempted", out.attempted);
    writer.kv("failed", out.failed);
    writer.key("problems");
    writer.begin_array();
    for (const std::string& problem : out.problems) writer.value(problem);
    writer.end_array();
    writer.key("metrics");
    writer.begin_object();
    for (const auto& [name, metric] : out.metrics) {
        writer.key(name);
        writer.begin_object();
        writer.kv("value", metric.value);
        writer.kv("unit", metric.unit);
        writer.end_object();
    }
    writer.end_object();
    if (!out.pass_s.empty()) {
        writer.key("pass_s");
        writer.begin_array();
        for (const double seconds : out.pass_s) writer.value(seconds);
        writer.end_array();
        writer.key("setup_s");
        writer.begin_array();
        for (const double seconds : out.setup_s) writer.value(seconds);
        writer.end_array();
    }
    if (!out.self_times.empty()) {
        writer.key("self_time_s");
        writer.begin_object();
        for (const auto& [workload, rows] : out.self_times) {
            writer.key(workload);
            writer.begin_object();
            for (const auto& [name, seconds] : rows) writer.kv(name, seconds);
            writer.end_object();
        }
        writer.end_object();
    }
    if (!out.run_ms.empty()) {
        writer.key("run_ms");
        writer.begin_object();
        for (const auto& [workload, rows] : out.run_ms) {
            writer.key(workload);
            writer.begin_object();
            for (const auto& [label, ms] : rows) writer.kv(label, ms);
            writer.end_object();
        }
        writer.end_object();
    }
    writer.end_object();
    return writer.str();
}

bool write_file(const std::string& path, const std::string& text) {
    std::ofstream file(path, std::ios::binary);
    file << text << '\n';
    return static_cast<bool>(file);
}

int usage(const std::string& problem) {
    std::cerr << "papc_perfbench: " << problem
              << "\nusage: papc_perfbench --workload "
                 "sync-huge|event-core|sweep-mixed --seed N --seconds S "
                 "--trace 0|1 [--smoke] [--out DIR] [--git-sha SHA] "
                 "[--src-digest HEX]\n";
    return 2;
}

int run_main(int argc, char** argv) {
    Options o;
    bool have_seed = false;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--smoke") {
            o.smoke = true;
            continue;
        }
        if (i + 1 >= argc) return usage("missing value for " + flag);
        const std::string value = argv[++i];
        bool ok = true;
        if (flag == "--workload") {
            o.workload = value;
        } else if (flag == "--seed") {
            ok = papc::try_parse_u64(value, &o.seed);
            have_seed = ok;
        } else if (flag == "--seconds") {
            ok = papc::try_parse_double(value, &o.seconds) && o.seconds > 0.0;
        } else if (flag == "--trace") {
            ok = value == "0" || value == "1";
            o.trace = value == "1" ? 1 : 0;
        } else if (flag == "--out") {
            o.out_dir = value;
        } else if (flag == "--git-sha") {
            o.git_sha = value;
        } else if (flag == "--src-digest") {
            o.src_digest = value;
        } else {
            return usage("unknown flag " + flag);
        }
        if (!ok) return usage("bad value '" + value + "' for " + flag);
    }
    if (!have_seed) return usage("--seed is required");
    Workload probe;
    if (!make_workload(o.workload, o.seed, o.smoke, &probe)) {
        return usage("unknown workload '" + o.workload + "'");
    }
    if (!is_release()) {
        std::cerr << "\n*** WARNING: papc_perfbench is a " PAPC_BENCH_BUILD_TYPE
                     " build, not Release: its timings are not comparable "
                     "with any recorded baseline. ***\n\n";
    }

    Outcome out;
    std::vector<Workload> workloads;
    Tracer tracer;
    if (o.trace == 0) {
        workloads.push_back(probe);
        if (probe.is_sweep) {
            measure_sweep(probe, o, &out);
        } else {
            measure_run_list(probe, o, &out);
        }
        out.put("peak_rss_mib", peak_rss_mib(), "MiB");
    } else {
        // The per-layer metrics span all three workloads, so the traced
        // run always covers every workload, whichever one is named.
        const ProbeSizes sizes = probe_sizes(o.smoke);
        trace_sync_huge(o, sizes, &tracer, &out);
        trace_event_core(o, sizes, &tracer, &out);
        trace_sweep_mixed(o, sizes, &tracer, &out);
        for (const std::string& name : workload_names()) {
            Workload w;
            PAPC_CHECK(make_workload(name, o.seed, o.smoke, &w));
            workloads.push_back(std::move(w));
        }
    }

    const std::string stem = o.out_dir + "/" + o.workload + "-seed" +
                             std::to_string(o.seed) + "-trace" +
                             std::to_string(o.trace);
    bool written =
        write_file(stem + ".json", result_document(o, out, workloads));
    if (o.trace == 1) {
        written = written && write_file(stem + ".perfetto.json",
                                        tracer.chrome_json());
    }
    if (!written) {
        std::cerr << "papc_perfbench: cannot write results under " << o.out_dir
                  << "\n";
        return 1;
    }
    for (const std::string& problem : out.problems) {
        std::cerr << "papc_perfbench: FAILED " << problem << "\n";
    }
    for (const auto& [name, metric] : out.metrics) {
        std::cerr << "  " << name << " = " << number(metric.value) << " "
                  << metric.unit << "\n";
    }
    std::cout << result_line(out) << std::endl;
    return 0;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::run_main(argc, argv); }
