#pragma once

/// \file simulation.hpp
/// The full decentralized protocol (§4): clustering phase (Theorem 27) +
/// consensus phase (Algorithms 4 + 5, Theorem 26). Nodes in active clusters
/// execute Algorithm 4; everyone else is passive and receives the outcome
/// through the `finished` flag propagation (Algorithm 4 lines 5–7).
/// The run loop (budgets, sampling, ε/consensus detection) is owned by
/// core::run(); failure injection piggybacks on the driver's sample hook.
///
/// The consensus phase runs on the sharded windowed executor through
/// sim::EventEngine (sim/event_engine.hpp holds the shared porting notes).
/// Multi-leader specifics:
///   - cluster leader c is owned by shard c mod S: all member signals to c
///     route there, and only that shard touches c's counters and per-leader
///     congestion window;
///   - exchanges read sampled members and both leaders from window-start
///     snapshots (members_snap_ / leader_snap_);
///   - the finished-flag epidemic's *push* direction (Algorithm 4 line 5)
///     writes remote members, so it becomes a kAdopt event emitted to the
///     target's shard; the *pull* direction reads the snapshot and writes
///     only the node itself;
///   - failure injection stays observer-driven: leaders crash between
///     windows, so alive_ is read-only while shards run.
/// Fixed-seed trajectories are bit-identical at every thread count.

#include <memory>
#include <vector>

#include "cluster/cluster_leader.hpp"
#include "cluster/clustering.hpp"
#include "cluster/config.hpp"
#include "cluster/member.hpp"
#include "opinion/assignment.hpp"
#include "sim/event_engine.hpp"
#include "sim/latency.hpp"
#include "support/random.hpp"

namespace papc::cluster {

/// Aggregate outcome of one full multi-leader run: the counters shared with
/// the single-leader engines (sim::EventRunResult; the convergence semantics
/// use the consensus-phase clock, starting at 0) plus clustering and
/// finished-flag accounting. leader_peak_load is the max signals/step at any
/// one cluster leader: §4.5 spreads the load over all of them.
struct MultiLeaderResult : sim::EventRunResult {
    // Clustering phase.
    ClusteringResult clustering;
    double clustering_time = 0.0;

    // Consensus phase accounting.
    double finished_fraction = 0.0;  ///< nodes with the finished flag at end
    std::uint64_t finished_adoptions = 0;

    /// Per-active-cluster leader traces (Figure 2 source data).
    std::vector<std::vector<ClusterLeaderTransition>> leader_traces;

    /// Total time: clustering + consensus phases.
    [[nodiscard]] double total_time() const {
        return clustering_time + (consensus_time >= 0.0 ? consensus_time : end_time);
    }
};

/// One event of the multi-leader simulation (defined in the .cpp).
struct ClusterEvent;

/// Runs the consensus phase over an existing clustering.
class MultiLeaderSimulation final : public sim::EventEngine {
public:
    MultiLeaderSimulation(const Assignment& assignment,
                          ClusteringResult clustering,
                          const ClusterConfig& config, std::uint64_t seed);

    ~MultiLeaderSimulation() override;

    /// Runs to full consensus (or config.max_time). Clustering fields of
    /// the result are copied from the provided clustering.
    [[nodiscard]] MultiLeaderResult run();

    /// One window of events per call (driven by run()).
    bool advance() override;

    [[nodiscard]] const MemberState& member(NodeId v) const { return members_[v]; }
    [[nodiscard]] const ClusterLeader& leader(std::size_t c) const {
        return *leaders_[c];
    }
    [[nodiscard]] std::size_t num_clusters() const { return leaders_.size(); }

private:
    /// Shard-owned event counters for the whole run, cache-line aligned.
    struct alignas(64) ShardScratch {
        std::uint64_t ticks = 0;
        std::uint64_t exchanges = 0;
        std::uint64_t two_choices = 0;
        std::uint64_t propagation = 0;
        std::uint64_t adoptions = 0;
        std::uint64_t finished = 0;
        std::uint64_t signals = 0;
        std::uint64_t crash_skips = 0;
        double peak_load = 0.0;
    };

    /// Window-start snapshot of one cluster leader's public state.
    struct LeaderSnap {
        Generation gen = 1;
        LeaderState state = LeaderState::kTwoChoices;
    };

    /// Owning shard of cluster leader `c`'s signal events and counters.
    [[nodiscard]] std::size_t leader_shard(std::size_t cluster) const;

    void begin_window();
    void mark_finished(ShardScratch& scratch, NodeId v);
    void adopt_finished(std::size_t shard, NodeId v, Opinion col);
    void maybe_inject_failure();
    void record_leader_signal(ShardScratch& scratch, std::size_t cluster,
                              double time);

    ClusterConfig config_;
    ClusteringResult clustering_;
    Rng rng_;
    sim::ExponentialLatency latency_;
    std::vector<MemberState> members_;
    std::vector<MemberState> members_snap_;  ///< window-start copy
    std::vector<std::unique_ptr<ClusterLeader>> leaders_;
    std::vector<LeaderSnap> leader_snap_;    ///< window-start leader states
    std::unique_ptr<sim::WindowedExecutor<ClusterEvent>> executor_;
    std::vector<ShardScratch> scratch_;
    bool ran_ = false;

    MultiLeaderResult result_;
    Generation max_generation_ = 0;

    // Failure injection (§4 resilience) + per-leader congestion windows
    // (each entry only ever touched from leader_shard(cluster)).
    std::vector<bool> alive_;
    bool failure_injected_ = false;
    std::vector<std::int64_t> load_bucket_;
    std::vector<std::uint64_t> load_count_;
};

/// Convenience: clustering + consensus in one call on a biased-plurality
/// workload.
[[nodiscard]] MultiLeaderResult run_multi_leader(std::size_t n, std::uint32_t k,
                                                 double alpha,
                                                 const ClusterConfig& config,
                                                 std::uint64_t seed);

}  // namespace papc::cluster
