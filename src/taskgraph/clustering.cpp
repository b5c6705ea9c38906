#include "taskgraph/clustering.hpp"

#include <algorithm>
#include <limits>
#include <sstream>
#include <stdexcept>

namespace uhcg::taskgraph {

Clustering::Clustering(std::size_t task_count)
    : assignment_(task_count), cluster_count_(static_cast<int>(task_count)) {
    for (std::size_t t = 0; t < task_count; ++t) assignment_[t] = static_cast<int>(t);
}

Clustering Clustering::from_assignment(std::vector<int> assignment) {
    Clustering c(assignment.size());
    c.assignment_ = std::move(assignment);
    c.normalize();
    return c;
}

void Clustering::merge(TaskIndex a, TaskIndex b) {
    int from = assignment_.at(b);
    int to = assignment_.at(a);
    if (from == to) return;
    for (int& id : assignment_)
        if (id == from) id = to;
    normalize();
}

std::vector<std::vector<TaskIndex>> Clustering::groups() const {
    std::vector<std::vector<TaskIndex>> out(cluster_count_);
    for (TaskIndex t = 0; t < assignment_.size(); ++t)
        out[assignment_[t]].push_back(t);
    return out;
}

void Clustering::normalize() {
    int max_id = -1;
    for (int id : assignment_) {
        if (id < 0)
            throw std::invalid_argument("negative cluster id " +
                                        std::to_string(id));
        max_id = std::max(max_id, id);
    }
    std::vector<int> remap(static_cast<std::size_t>(max_id + 1), -1);
    int next = 0;
    for (int& id : assignment_) {
        int& dense = remap[static_cast<std::size_t>(id)];
        if (dense < 0) dense = next++;
        id = dense;
    }
    cluster_count_ = next;
}

double inter_cluster_cost(const TaskGraph& graph, const Clustering& clustering) {
    double cost = 0.0;
    for (const Edge& e : graph.edges())
        if (!clustering.same_cluster(e.from, e.to)) cost += e.cost;
    return cost;
}

double intra_cluster_cost(const TaskGraph& graph, const Clustering& clustering) {
    double cost = 0.0;
    for (const Edge& e : graph.edges())
        if (clustering.same_cluster(e.from, e.to)) cost += e.cost;
    return cost;
}

double scheduled_makespan(const TaskGraph& graph, const Clustering& clustering,
                          double inter_comm_factor, double intra_comm_factor) {
    if (graph.task_count() != clustering.task_count())
        throw std::invalid_argument("clustering does not match graph size");
    const auto order = graph.topological_order();
    std::vector<double> finish(graph.task_count(), 0.0);
    std::vector<double> processor_free(clustering.cluster_count(), 0.0);

    // List scheduling in topological order: each task starts when (a) its
    // processor is free and (b) all messages have arrived.
    for (TaskIndex t : order) {
        int cpu = clustering.cluster_of(t);
        double ready = processor_free[cpu];
        for (std::size_t e : graph.in_edges(t)) {
            const Edge& edge = graph.edge(e);
            double factor = clustering.same_cluster(edge.from, edge.to)
                                ? intra_comm_factor
                                : inter_comm_factor;
            ready = std::max(ready, finish[edge.from] + factor * edge.cost);
        }
        finish[t] = ready + graph.weight(t);
        processor_free[cpu] = finish[t];
    }
    double makespan = 0.0;
    for (double f : finish) makespan = std::max(makespan, f);
    return makespan;
}

bool is_linear(const TaskGraph& graph, const Clustering& clustering) {
    // Two tasks are independent iff neither reaches the other. A cluster is
    // linear iff its tasks form a chain under reachability.
    const std::size_t n = graph.task_count();
    std::vector<std::vector<bool>> reach(n, std::vector<bool>(n, false));
    auto order = graph.topological_order();
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        TaskIndex t = *it;
        for (std::size_t e : graph.out_edges(t)) {
            TaskIndex s = graph.edge(e).to;
            reach[t][s] = true;
            for (std::size_t u = 0; u < n; ++u)
                if (reach[s][u]) reach[t][u] = true;
        }
    }
    for (const auto& group : clustering.groups()) {
        for (std::size_t i = 0; i < group.size(); ++i) {
            for (std::size_t j = i + 1; j < group.size(); ++j) {
                TaskIndex a = group[i];
                TaskIndex b = group[j];
                if (!reach[a][b] && !reach[b][a]) return false;
            }
        }
    }
    return true;
}

std::string format(const TaskGraph& graph, const Clustering& clustering) {
    std::ostringstream out;
    auto groups = clustering.groups();
    for (std::size_t c = 0; c < groups.size(); ++c) {
        if (c > 0) out << ' ';
        out << "CPU" << c << " {";
        for (TaskIndex t : groups[c]) out << ' ' << graph.name(t);
        out << " }";
    }
    return out.str();
}

}  // namespace uhcg::taskgraph
