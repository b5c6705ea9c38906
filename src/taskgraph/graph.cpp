#include "taskgraph/graph.hpp"

#include <algorithm>
#include <functional>
#include <queue>
#include <stdexcept>

namespace uhcg::taskgraph {

TaskIndex TaskGraph::add_task(std::string name, double weight) {
    names_.push_back(std::move(name));
    weights_.push_back(weight);
    out_.emplace_back();
    in_.emplace_back();
    return names_.size() - 1;
}

void TaskGraph::add_edge(TaskIndex from, TaskIndex to, double cost) {
    if (from >= task_count() || to >= task_count())
        throw std::out_of_range("edge endpoint out of range");
    if (from == to) throw std::invalid_argument("self edge on task " + names_[from]);
    // Merge parallel edges: several messages between the same pair of
    // threads accumulate into one dependency with summed traffic.
    for (std::size_t e : out_[from]) {
        if (edges_[e].to == to) {
            edges_[e].cost += cost;
            return;
        }
    }
    edges_.push_back({from, to, cost});
    out_[from].push_back(edges_.size() - 1);
    in_[to].push_back(edges_.size() - 1);
}

std::optional<TaskIndex> TaskGraph::find(std::string_view name) const {
    for (TaskIndex t = 0; t < names_.size(); ++t)
        if (names_[t] == name) return t;
    return std::nullopt;
}

double TaskGraph::edge_cost(TaskIndex from, TaskIndex to) const {
    for (std::size_t e : out_.at(from))
        if (edges_[e].to == to) return edges_[e].cost;
    return 0.0;
}

double TaskGraph::total_weight() const {
    double sum = 0.0;
    for (double w : weights_) sum += w;
    return sum;
}

double TaskGraph::total_edge_cost() const {
    double sum = 0.0;
    for (const Edge& e : edges_) sum += e.cost;
    return sum;
}

bool TaskGraph::is_acyclic() const {
    // Kahn's algorithm: a DAG consumes every node.
    std::vector<std::size_t> indegree(task_count());
    for (const Edge& e : edges_) ++indegree[e.to];
    std::vector<TaskIndex> ready;
    for (TaskIndex t = 0; t < task_count(); ++t)
        if (indegree[t] == 0) ready.push_back(t);
    std::size_t seen = 0;
    while (!ready.empty()) {
        TaskIndex t = ready.back();
        ready.pop_back();
        ++seen;
        for (std::size_t e : out_[t])
            if (--indegree[edges_[e].to] == 0) ready.push_back(edges_[e].to);
    }
    return seen == task_count();
}

std::vector<TaskIndex> TaskGraph::topological_order() const {
    std::vector<std::size_t> indegree(task_count());
    for (const Edge& e : edges_) ++indegree[e.to];
    // Always pop the smallest ready index so the order is deterministic.
    std::vector<TaskIndex> order;
    order.reserve(task_count());
    std::priority_queue<TaskIndex, std::vector<TaskIndex>, std::greater<>> ready;
    for (TaskIndex t = 0; t < task_count(); ++t)
        if (indegree[t] == 0) ready.push(t);
    while (!ready.empty()) {
        TaskIndex t = ready.top();
        ready.pop();
        order.push_back(t);
        for (std::size_t e : out_[t])
            if (--indegree[edges_[e].to] == 0) ready.push(edges_[e].to);
    }
    if (order.size() != task_count())
        throw std::logic_error("task graph contains a cycle");
    return order;
}

std::vector<double> TaskGraph::top_levels() const {
    std::vector<double> tlevel(task_count(), 0.0);
    for (TaskIndex t : topological_order()) {
        for (std::size_t e : in_[t]) {
            const Edge& edge = edges_[e];
            tlevel[t] = std::max(tlevel[t],
                                 tlevel[edge.from] + weights_[edge.from] + edge.cost);
        }
    }
    return tlevel;
}

std::vector<double> TaskGraph::bottom_levels() const {
    std::vector<double> blevel(task_count(), 0.0);
    auto order = topological_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        TaskIndex t = *it;
        blevel[t] = weights_[t];
        for (std::size_t e : out_[t]) {
            const Edge& edge = edges_[e];
            blevel[t] = std::max(blevel[t],
                                 weights_[t] + edge.cost + blevel[edge.to]);
        }
    }
    return blevel;
}

double TaskGraph::critical_path_length() const {
    double best = 0.0;
    for (double b : bottom_levels()) best = std::max(best, b);
    return best;
}

std::vector<TaskIndex> TaskGraph::critical_path() const {
    if (task_count() == 0) return {};
    auto blevel = bottom_levels();
    // Start at a source maximizing tlevel+blevel (== blevel for sources).
    TaskIndex current = 0;
    double best = -1.0;
    for (TaskIndex t = 0; t < task_count(); ++t) {
        if (!in_[t].empty()) continue;
        if (blevel[t] > best) {
            best = blevel[t];
            current = t;
        }
    }
    std::vector<TaskIndex> path{current};
    for (;;) {
        // Follow the successor that continues the dominant path.
        double target = blevel[current] - weights_[current];
        const Edge* next = nullptr;
        for (std::size_t e : out_[current]) {
            const Edge& edge = edges_[e];
            if (std::abs(edge.cost + blevel[edge.to] - target) < 1e-9) {
                next = &edge;
                break;
            }
        }
        if (!next) break;
        current = next->to;
        path.push_back(current);
    }
    return path;
}

}  // namespace uhcg::taskgraph
