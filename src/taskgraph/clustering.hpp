// clustering.hpp — clusterings of a task graph and their quality metrics.
//
// A clustering assigns every task to a cluster; the mapping step turns
// clusters into processors (one CPU-SS per cluster). Quality metrics:
// inter-cluster traffic — what §4.2.3's optimization minimizes — and the
// scheduled makespan under the classic "zero intra-cluster, full
// inter-cluster" communication model of Gerasoulis & Yang.
#pragma once

#include <string>
#include <vector>

#include "taskgraph/graph.hpp"

namespace uhcg::taskgraph {

class Clustering {
public:
    /// Creates the discrete clustering: every task in its own cluster.
    explicit Clustering(std::size_t task_count);
    /// Builds from an explicit assignment vector (task → cluster id). Ids
    /// are normalized to a dense 0..k-1 range preserving first appearance;
    /// a negative id throws std::invalid_argument.
    static Clustering from_assignment(std::vector<int> assignment);

    std::size_t task_count() const { return assignment_.size(); }
    int cluster_of(TaskIndex t) const { return assignment_.at(t); }
    int cluster_count() const { return cluster_count_; }
    bool same_cluster(TaskIndex a, TaskIndex b) const {
        return assignment_.at(a) == assignment_.at(b);
    }

    /// Merges the clusters containing `a` and `b` (no-op when equal).
    void merge(TaskIndex a, TaskIndex b);

    /// Tasks per cluster, cluster id order.
    std::vector<std::vector<TaskIndex>> groups() const;
    /// Re-numbers ids densely in order of first appearance by task index.
    /// Throws std::invalid_argument on a negative id.
    void normalize();

private:
    std::vector<int> assignment_;
    int cluster_count_ = 0;
};

/// Total cost of edges crossing cluster boundaries (inter-processor
/// traffic — the paper's objective).
double inter_cluster_cost(const TaskGraph& graph, const Clustering& clustering);

/// Total cost of edges inside clusters.
double intra_cluster_cost(const TaskGraph& graph, const Clustering& clustering);

/// Makespan under list scheduling with one processor per cluster. Tasks
/// become ready when all predecessors finished plus edge cost when the
/// predecessor is in another cluster (scaled by `inter_comm_factor`;
/// intra-cluster communication costs `intra_comm_factor` × edge cost,
/// 0 by default as in the classic clustering model).
double scheduled_makespan(const TaskGraph& graph, const Clustering& clustering,
                          double inter_comm_factor = 1.0,
                          double intra_comm_factor = 0.0);

/// True when every cluster is *linear*: no two independent (parallel)
/// tasks share a cluster — the defining property of linear clustering.
bool is_linear(const TaskGraph& graph, const Clustering& clustering);

/// Human-readable dump: "CPU0 { A B C } CPU1 { D }".
std::string format(const TaskGraph& graph, const Clustering& clustering);

}  // namespace uhcg::taskgraph
