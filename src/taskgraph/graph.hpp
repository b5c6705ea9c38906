// graph.hpp — weighted directed acyclic task graphs.
//
// §4.2.3: "The data dependency between threads is captured from the
// sequence diagrams, and a task graph is built, where the nodes are
// threads and the edges have a cost ... determined by the amount of
// transferred data." Nodes additionally carry a computation weight used by
// the clustering algorithms' critical-path machinery.
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace uhcg::taskgraph {

using TaskIndex = std::size_t;

struct Edge {
    TaskIndex from = 0;
    TaskIndex to = 0;
    double cost = 0.0;  ///< communication cost (transferred data)
};

/// Kahn's algorithm, smallest ready index first, on successor lists (a
/// repeated successor is one more edge). `stuck`: vertices left with unmet
/// predecessors, ascending; empty iff acyclic.
struct TopoSort {
    std::vector<std::size_t> order, stuck;
};
TopoSort topological_sort(const std::vector<std::vector<std::size_t>>& successors);

/// A DAG of tasks. Parallel edges between the same pair are merged by
/// summing their costs (several messages between two threads accumulate).
class TaskGraph {
public:
    /// Adds a task; returns its index. Weight is the computation cost.
    TaskIndex add_task(std::string name, double weight = 1.0);
    /// Adds (or accumulates onto) the edge from → to.
    void add_edge(TaskIndex from, TaskIndex to, double cost);

    std::size_t task_count() const { return names_.size(); }
    std::size_t edge_count() const { return edges_.size(); }
    const std::string& name(TaskIndex t) const { return names_.at(t); }
    double weight(TaskIndex t) const { return weights_.at(t); }
    void set_weight(TaskIndex t, double w) { weights_.at(t) = w; }
    /// Index of the task with this name, if any.
    std::optional<TaskIndex> find(std::string_view name) const;

    const std::vector<Edge>& edges() const { return edges_; }
    /// Outgoing/incoming edges of a task (indices into edges()).
    const std::vector<std::size_t>& out_edges(TaskIndex t) const {
        return out_.at(t);
    }
    const std::vector<std::size_t>& in_edges(TaskIndex t) const { return in_.at(t); }
    const Edge& edge(std::size_t e) const { return edges_.at(e); }
    /// Cost of the from→to edge, 0 when absent.
    double edge_cost(TaskIndex from, TaskIndex to) const;

    /// Sum of all node weights (sequential execution time).
    double total_weight() const;
    /// Sum of all edge costs (total communication volume).
    double total_edge_cost() const;

    bool is_acyclic() const;
    /// Topological order; throws std::logic_error when cyclic.
    std::vector<TaskIndex> topological_order() const;

    /// Earliest start times ignoring communication ("top levels") and the
    /// longest node+edge path from each task to a sink ("bottom levels").
    /// Both include the task's own weight in blevel, per Gerasoulis-Yang.
    std::vector<double> top_levels() const;
    std::vector<double> bottom_levels() const;
    /// Length of the critical path (node weights + edge costs).
    double critical_path_length() const;
    /// One critical path, source → sink.
    std::vector<TaskIndex> critical_path() const;

private:
    std::vector<std::vector<TaskIndex>> successor_lists() const;

    std::vector<std::string> names_;
    std::vector<double> weights_;
    std::vector<Edge> edges_;
    std::vector<std::vector<std::size_t>> out_;
    std::vector<std::vector<std::size_t>> in_;
};

}  // namespace uhcg::taskgraph
