// linear.hpp — Linear Clustering (Gerasoulis & Yang, IEEE TPDS 4(6), 1993),
// the thread-allocation algorithm of §4.2.3.
//
// The algorithm repeatedly finds the critical path of the still-unclustered
// subgraph, merges every node on that path into one cluster, and removes
// those nodes from further consideration. Properties the paper relies on:
//  * all threads on the system critical path land on the same processor
//    ("this algorithm allocates all threads that are in the system critical
//    path to the same processor");
//  * parallel (independent) tasks are separated into different clusters;
//  * threads with heavy mutual data dependencies group together, cutting
//    inter-processor traffic.
//
// The run splits into two steps. Extraction finds the sequence of critical
// paths; it depends on the graph only, never on the processor budget.
// Folding assigns those paths to at most k clusters. A sweep over budgets
// (dse::explore) extracts once and folds once per budget.
#pragma once

#include <vector>

#include "taskgraph/clustering.hpp"
#include "taskgraph/graph.hpp"

namespace uhcg::taskgraph {

struct LinearClusteringOptions {
    /// Upper bound on clusters (processors). 0 = unlimited: one cluster per
    /// critical-path iteration. When bounded, the lightest remaining
    /// critical paths are folded into the cluster with the least total
    /// weight, keeping the heaviest paths isolated.
    std::size_t max_clusters = 0;
};

/// The critical paths in extraction order, each source → sink. Path i is
/// the longest node+edge path among the tasks paths 0..i-1 left unmarked
/// (ties toward the smallest end index). With non-negative task weights
/// they cover every task exactly once.
using CriticalPaths = std::vector<std::vector<TaskIndex>>;

/// Extracts the path sequence with one topological sort. Throws
/// std::logic_error when the graph is cyclic.
CriticalPaths extract_critical_paths(const TaskGraph& graph);

/// Folds `paths` (from extract_critical_paths on `graph`) into clusters: a
/// new cluster per path while under budget, otherwise the path joins the
/// lightest cluster, ties toward the lowest id.
Clustering fold_critical_paths(const TaskGraph& graph, const CriticalPaths& paths,
                               const LinearClusteringOptions& options = {});

/// Runs linear clustering (extract + fold); the result is deterministic for
/// a given graph.
Clustering linear_clustering(const TaskGraph& graph,
                             const LinearClusteringOptions& options = {});

}  // namespace uhcg::taskgraph
