#pragma once

/// \file bench.hpp
/// Shared pieces of the repository benchmark (perfbench/README.md):
/// wall-clock helpers, the in-memory span tracer, the workload
/// definitions, and the layer-by-layer ("decomposed") execution of one
/// api::run that the traced pass times. Everything here calls the papc
/// library through its public headers only.

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/registry.hpp"
#include "api/scenario.hpp"
#include "api/sweep.hpp"
#include "core/run_result.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
    return std::chrono::duration<double>(Clock::now() - start).count();
}

[[nodiscard]] double median(std::vector<double> values);
/// Linear-interpolated quantile, q in [0, 1].
[[nodiscard]] double quantile(std::vector<double> values, double q);

// ------------------------------------------------------------------ tracing

/// One closed span: a call into a layer, timed from the benchmark side.
struct Span {
    std::string name;
    double start_us = 0.0;  ///< since the tracer's origin
    double end_us = 0.0;
    int parent = -1;        ///< index of the enclosing span, -1 = root
};

/// In-memory span recorder. Spans nest strictly (one driving thread), so
/// a span's parent is whatever span is open when it begins. Nothing is
/// written until the caller asks for the Chrome trace.
class Tracer {
public:
    Tracer() : origin_(Clock::now()) {}

    int begin(const std::string& name);
    void end(int id);

    [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
    [[nodiscard]] double duration_us(int id) const {
        return spans_[static_cast<std::size_t>(id)].end_us -
               spans_[static_cast<std::size_t>(id)].start_us;
    }
    /// Span duration minus the part of it its direct children cover.
    [[nodiscard]] std::vector<double> self_times_us() const;
    /// Durations (us) of the spans called `name` nested under `ancestor`.
    [[nodiscard]] std::vector<double> durations_under(
        int ancestor, const std::string& name) const;
    /// Chrome trace-event JSON (complete "X" events; loads in Perfetto).
    [[nodiscard]] std::string chrome_json() const;

private:
    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/// RAII span; a null tracer records nothing. `accumulate` (optional)
/// receives the span's wall seconds even when no tracer is attached —
/// the set-up measurement uses that without tracing.
class Scope {
public:
    Scope(Tracer* tracer, const std::string& name, double* accumulate = nullptr)
        : tracer_(tracer),
          accumulate_(accumulate),
          id_(tracer != nullptr ? tracer->begin(name) : -1),
          start_(Clock::now()) {}
    ~Scope() {
        if (accumulate_ != nullptr) *accumulate_ += seconds_since(start_);
        if (tracer_ != nullptr) tracer_->end(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

private:
    Tracer* tracer_;
    double* accumulate_;
    int id_;
    Clock::time_point start_;
};

// ---------------------------------------------------------------- workloads

/// One api::run call of a workload: a label (unique within the workload),
/// the scenario, and its seed.
struct RunSpec {
    std::string label;
    papc::api::Scenario scenario;
    std::uint64_t seed = 0;
};

/// A named workload. Run-list workloads issue one api::run per RunSpec;
/// the sweep workload issues one api::run_sweep + write_json, and `runs`
/// then lists the sweep's trials (cell scenario, trial seed) in the order
/// run_sweep derives them.
struct Workload {
    std::string name;
    std::vector<RunSpec> runs;
    bool is_sweep = false;
    papc::api::Sweep sweep;
    /// Typical wall seconds of one pass on a 4-core x86-64 box; sets how
    /// many passes an untraced run of --seconds makes.
    double nominal_pass_s = 1.0;
};

/// The workload's inputs as a pure function of (name, seed). `smoke`
/// shrinks every population so a whole run takes well under a second.
/// Returns false for an unknown name.
[[nodiscard]] bool make_workload(const std::string& name, std::uint64_t seed,
                                 bool smoke, Workload* out);
[[nodiscard]] const std::vector<std::string>& workload_names();

/// "sync" | "population" | "async" | "cluster".
[[nodiscard]] std::string family_of(const std::string& protocol);

// ------------------------------------------------- layer-by-layer execution

/// Result of one run executed layer by layer, with the counters the
/// per-layer metrics need (events, windows, commits, memory, ...).
struct LayeredRun {
    papc::core::RunResult run;
    std::map<std::string, double> counts;
    int span = -1;  ///< the run's span on the tracer (-1 = not traced)
};

/// Executes `spec` exactly as api::run does — same seed salts, assignment,
/// engine, options and fault plan — but calls each layer separately:
/// assignment, engine constructor, then the step() loop or run(). Each
/// call is a span on `tracer` under one "run:<label>" span, and its wall
/// seconds land in counts ("assign_s", "construct_s", "clustering_s",
/// "run_s").
[[nodiscard]] LayeredRun run_layered(const RunSpec& spec, Tracer* tracer);

/// Set-up only: the assignment and engine construction of `spec`, timed,
/// then torn down. Returns the seconds spent in those two layers.
[[nodiscard]] double setup_seconds(const RunSpec& spec);

// -------------------------------------------------------- correctness gate

/// The per-run gate: core::consistent, convergence to the plurality
/// (pull: the step budget is used up, or it converged), and the exact
/// JSON round trip. Returns "" when the run passes, else the reason.
[[nodiscard]] std::string gate_run(const RunSpec& spec,
                                   const papc::api::ScenarioResult& result);

/// The sweep gate on the aggregated table: every trial converged, every
/// plurality protocol won every trial, and the JSON table parses with one
/// entry per cell. Returns the number of failed trials; reasons are
/// appended to `problems`.
[[nodiscard]] std::size_t gate_sweep(const papc::api::SweepResult& table,
                                     const std::string& table_json,
                                     std::vector<std::string>* problems);

}  // namespace perfbench
