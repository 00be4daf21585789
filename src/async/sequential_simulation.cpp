#include "async/sequential_simulation.hpp"

#include "support/check.hpp"

namespace papc::async {

SequentialSingleLeaderSimulation::SequentialSingleLeaderSimulation(
    const Assignment& assignment, const AsyncConfig& config, std::uint64_t seed)
    : SingleLeaderCore(assignment, config, seed) {}

SequentialSingleLeaderSimulation::~SequentialSingleLeaderSimulation() = default;

void SequentialSingleLeaderSimulation::tick(double t, Rng& rng) {
    // Sequentialization: the next tick anywhere in the system is an Exp(n)
    // race won by a uniformly random node drawn after the race —
    // memorylessness makes the winner independent of the race time.
    // Everything below is serial and reads/writes live state directly.
    const std::size_t n = nodes_.size();
    ShardScratch& scratch = scratch_[0];
    const auto v_id = static_cast<NodeId>(rng.uniform_index(n));
    NodeState& v = nodes_[v_id];
    ++scratch.ticks;
    // A crashed node's tick races but acts on nothing.
    if (crash_on_ && injector_->is_down(v_id, t)) {
        ++scratch.crash_skips;
        return;
    }
    ++scratch.good_ticks;  // channels are instant: every tick is good

    // Line 1: the 0-signal arrives instantly. Channels are instant, so a
    // straggler multiplier has nothing to stretch; loss and duplication
    // still apply.
    std::size_t zero_copies = 1;
    if (msg_faults_on_) {
        const fault::MessageFate fate = injector_->draw_fate(fault_rng_);
        if (fate.drop) {
            ++message_faults_.lost;
            zero_copies = 0;
        } else if (fate.duplicate) {
            ++message_faults_.duplicated;
            zero_copies = 2;
        }
    }
    for (; zero_copies > 0; --zero_copies) deliver_zero_signal(t);

    // Lines 3-15 execute atomically at the tick.
    ++scratch.exchanges;
    const auto sample_peer = [&](NodeId self) {
        return static_cast<NodeId>(rng.uniform_index_excluding(n, self));
    };
    const NodeId p1 = sample_peer(v_id);
    const NodeId p2 = sample_peer(v_id);
    const ExchangeDecision decision =
        decide_exchange(v, leader_->gen(), leader_->prop(),
                        PeerSample{nodes_[p1].gen, nodes_[p1].col},
                        PeerSample{nodes_[p2].gen, nodes_[p2].col});
    const Generation old_gen = v.gen;
    const Opinion old_col = v.col;
    const bool changed =
        apply_decision(v, decision, leader_->gen(), leader_->prop());
    switch (decision.kind) {
        case ExchangeDecision::Kind::kTwoChoices:
            ++scratch.two_choices;
            break;
        case ExchangeDecision::Kind::kPropagation:
            ++scratch.propagation;
            break;
        case ExchangeDecision::Kind::kRefreshOnly:
            ++scratch.refresh;
            break;
        case ExchangeDecision::Kind::kNone:
            break;
    }
    if (!changed) return;
    census_.transition(old_gen, old_col, v.gen, v.col);
    PAPC_CHECK(v.gen <= leader_->gen());
    if (!decision.send_gen_signal) return;
    Generation sig_gen = v.gen;
    std::size_t copies = 1;
    if (msg_faults_on_) {
        const fault::MessageFate fate = injector_->draw_fate(fault_rng_);
        if (fate.drop) {
            ++message_faults_.lost;
            copies = 0;
        } else {
            if (fate.duplicate) {
                ++message_faults_.duplicated;
                copies = 2;
            }
            if (fate.corrupt) {
                ++message_faults_.corrupted;
                sig_gen = static_cast<Generation>(
                    1 + fault_rng_.uniform_index(sig_gen));
            }
        }
    }
    for (; copies > 0; --copies) deliver_gen_signal(t, sig_gen);
}

bool SequentialSingleLeaderSimulation::advance() {
    Rng rng = window_base_.substream(++windows_, 0);
    const double end = next_tick_ + window_;
    const double rate = static_cast<double>(nodes_.size());
    while (next_tick_ < end) {
        now_ = next_tick_;
        tick(now_, rng);
        // Next global race; chains within the window while it lands
        // before the window end.
        next_tick_ = now_ + rng.exponential(rate);
    }
    return true;
}

AsyncResult SequentialSingleLeaderSimulation::run() {
    // With instant channels one full action fits in every tick: a "time
    // unit" collapses to one time step.
    start([] { return 1.0; });
    if (injector_ != nullptr) {
        msg_faults_on_ = injector_->message_faults_active();
        fault_rng_ = injector_->serial_stream();
    }
    scratch_.resize(1);
    window_ = config_.window > 0.0 ? config_.window
                                   : sim::default_window(config_.lambda);
    window_base_ = rng_.split();
    // The first global Exp(n) race; advance() keeps exactly one pending.
    next_tick_ = rng_.exponential(static_cast<double>(nodes_.size()));
    drive();
    fold(scratch_[0].ticks, windows_, 0, message_faults_, result_);
    return finish();
}

AsyncResult run_sequential_single_leader(std::size_t n, std::uint32_t k,
                                         double alpha, const AsyncConfig& config,
                                         std::uint64_t seed) {
    Rng workload_rng(derive_seed(seed, SequentialSingleLeaderSimulation::kWorkloadSalt));
    const Assignment assignment = make_biased_plurality(n, k, alpha, workload_rng);
    SequentialSingleLeaderSimulation simulation(
        assignment, config,
        derive_seed(seed, SequentialSingleLeaderSimulation::kRunSalt));
    return simulation.run();
}

}  // namespace papc::async
