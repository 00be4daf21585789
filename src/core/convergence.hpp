#pragma once

/// \file convergence.hpp
/// Shared ε-threshold and consensus detection. Every engine family feeds
/// its census samples (plurality fraction + converged flag) through one
/// ConvergenceTracker so the RunResult semantics cannot drift apart:
/// epsilon_time is the first sample with support >= 1-ε, consensus_time the
/// first fully-converged sample, and both are latched (monotone — later
/// dips never un-set them).

namespace papc::core {

class ConvergenceTracker {
public:
    /// `epsilon` in [0, 1): the run is ε-converged once the plurality
    /// fraction reaches 1-ε.
    explicit ConvergenceTracker(double epsilon);

    /// Feeds one sample; returns true once full consensus has been seen
    /// (at this or an earlier sample).
    bool observe(double time, double plurality_fraction, bool converged);

    [[nodiscard]] double epsilon_time() const { return epsilon_time_; }
    [[nodiscard]] double consensus_time() const { return consensus_time_; }
    [[nodiscard]] bool done() const { return consensus_time_ >= 0.0; }

private:
    double target_;
    double epsilon_time_ = -1.0;
    double consensus_time_ = -1.0;
};

}  // namespace papc::core
