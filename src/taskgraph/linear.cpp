#include "taskgraph/linear.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <utility>

#include "obs/obs.hpp"

namespace uhcg::taskgraph {

CriticalPaths extract_critical_paths(const TaskGraph& graph) {
    static obs::Counter& extractions = obs::counter("taskgraph.path_extractions");
    static obs::Counter& extracted = obs::counter("taskgraph.critical_paths");
    const std::size_t n = graph.task_count();
    // The unmarked tasks, in topological and in index order. Marking never
    // changes the relative order of the rest, so both lists shrink in place.
    std::vector<TaskIndex> order = graph.topological_order();
    std::vector<TaskIndex> live(n);
    std::iota(live.begin(), live.end(), TaskIndex{0});
    std::vector<bool> marked(n, false);
    // Longest path ending at t using only unmarked nodes.
    std::vector<double> best(n);
    std::vector<std::ptrdiff_t> pred(n);
    CriticalPaths paths;
    while (!order.empty()) {
        for (TaskIndex t : order) {
            best[t] = -1.0;
            pred[t] = -1;
        }
        for (TaskIndex t : order) {
            best[t] = std::max(best[t], graph.weight(t));
            for (std::size_t e : graph.out_edges(t)) {
                const Edge& edge = graph.edge(e);
                if (marked[edge.to]) continue;
                double candidate = best[t] + edge.cost + graph.weight(edge.to);
                if (candidate > best[edge.to]) {
                    best[edge.to] = candidate;
                    pred[edge.to] = static_cast<std::ptrdiff_t>(t);
                }
            }
        }
        // Pick the maximal endpoint, scanning in index order so ties break
        // toward the smallest index and the algorithm is deterministic.
        std::ptrdiff_t end = -1;
        double best_len = -1.0;
        for (TaskIndex t : live) {
            if (best[t] > best_len + 1e-12) {
                best_len = best[t];
                end = static_cast<std::ptrdiff_t>(t);
            }
        }
        if (end < 0) break;
        std::vector<TaskIndex> path;
        for (std::ptrdiff_t t = end; t >= 0; t = pred[t])
            path.push_back(static_cast<TaskIndex>(t));
        std::reverse(path.begin(), path.end());
        for (TaskIndex t : path) marked[t] = true;
        auto is_marked = [&](TaskIndex t) { return marked[t]; };
        std::erase_if(order, is_marked);
        std::erase_if(live, is_marked);
        paths.push_back(std::move(path));
    }
    extractions.add(1);
    extracted.add(paths.size());
    return paths;
}

Clustering fold_critical_paths(const TaskGraph& graph, const CriticalPaths& paths,
                               const LinearClusteringOptions& options) {
    std::vector<int> assignment(graph.task_count(), -1);
    // (total node weight, id) of every open cluster, lightest first.
    using Load = std::pair<double, int>;
    std::priority_queue<Load, std::vector<Load>, std::greater<>> lightest;
    int next_cluster = 0;
    for (const std::vector<TaskIndex>& path : paths) {
        double path_weight = 0.0;
        for (TaskIndex t : path) path_weight += graph.weight(t);

        int cluster;
        if (options.max_clusters != 0 &&
            static_cast<std::size_t>(next_cluster) >= options.max_clusters) {
            // Processor budget exhausted: fold this path into the lightest
            // existing cluster instead of opening a new one.
            auto [weight, id] = lightest.top();
            lightest.pop();
            cluster = id;
            lightest.emplace(weight + path_weight, id);
        } else {
            cluster = next_cluster++;
            lightest.emplace(path_weight, cluster);
        }
        for (TaskIndex t : path) assignment[t] = cluster;
    }
    return Clustering::from_assignment(std::move(assignment));
}

Clustering linear_clustering(const TaskGraph& graph,
                             const LinearClusteringOptions& options) {
    return fold_critical_paths(graph, extract_critical_paths(graph), options);
}

}  // namespace uhcg::taskgraph
