// batch.hpp — batch-oriented MPSoC cost evaluation.
//
// The DSE sweep estimates hundreds of clusterings of the *same* task
// graph under the *same* cost model; `simulate_mpsoc` re-derived the
// topological order and re-priced every edge from scratch for each one.
// This module factors the evaluation the way the sweep consumes it:
//
//  * `MpsocPrep` — the immutable per-(graph, params) precomputation
//    (topological order/positions, per-task compute cycles, per-edge
//    transfer prices), built once and shared read-only by every worker;
//  * `MpsocBatch` — a per-worker evaluator whose only state between
//    candidates is its scratch buffers (labels, member lists, finish
//    times, edge arrivals), so a group of candidates pays for those
//    allocations once. Every evaluation runs the full timed scan from
//    position 0.
//
// An evaluation is bitwise identical to a fresh one whatever ran before
// it; `simulate_mpsoc` is the batch of one, which makes it the natural
// oracle for `dse` verify mode.
#pragma once

#include <cstddef>
#include <vector>

#include "sim/mpsoc.hpp"
#include "taskgraph/clustering.hpp"
#include "taskgraph/graph.hpp"

namespace uhcg::sim {

/// Immutable per-(graph, cost-model) precomputation. Throws
/// std::logic_error when the graph is cyclic (no topological order), the
/// same contract the per-candidate simulation had.
class MpsocPrep {
public:
    MpsocPrep(const taskgraph::TaskGraph& graph, const MpsocParams& params);

    const taskgraph::TaskGraph& graph() const { return *graph_; }
    const MpsocParams& params() const { return params_; }

private:
    friend class MpsocBatch;
    const taskgraph::TaskGraph* graph_;
    MpsocParams params_;
    std::vector<taskgraph::TaskIndex> topo_;  ///< position → task
    std::vector<double> work_;                ///< weight × cycles_per_work
    std::vector<double> sw_delay_;            ///< per edge: cost × swfifo
    std::vector<double> bus_duration_;        ///< per edge: setup + cost × gfifo
};

/// Per-worker evaluator. Not thread-safe; create one per group of
/// candidates and worker.
class MpsocBatch {
public:
    explicit MpsocBatch(const MpsocPrep& prep);

    /// Prices one clustering. Bitwise identical to a fresh
    /// `simulate_mpsoc(prep.graph(), clustering, prep.params())` for any
    /// history of prior calls.
    MpsocResult evaluate(const taskgraph::Clustering& clustering);

private:
    const MpsocPrep& prep_;

    // Scratch, reused across evaluate() calls.
    std::vector<int> canon_;  ///< task → canonical cluster id
    std::vector<int> dense_;  ///< raw cluster id → canonical id
    std::vector<std::vector<taskgraph::TaskIndex>> members_;
    std::vector<double> finish_;        ///< per task
    std::vector<double> edge_arrival_;  ///< per edge
    std::vector<double> cpu_free_;      ///< per cluster
};

}  // namespace uhcg::sim
