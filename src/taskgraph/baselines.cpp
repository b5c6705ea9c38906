#include "taskgraph/baselines.hpp"

#include <algorithm>
#include <functional>
#include <numeric>
#include <queue>
#include <random>
#include <stdexcept>
#include <utility>

namespace uhcg::taskgraph {
namespace {

void require_k(std::size_t k) {
    if (k == 0) throw std::invalid_argument("cluster count must be positive");
}

}  // namespace

Clustering round_robin_clustering(const TaskGraph& graph, std::size_t k) {
    require_k(k);
    std::vector<int> assignment(graph.task_count());
    for (std::size_t t = 0; t < graph.task_count(); ++t)
        assignment[t] = static_cast<int>(t % k);
    return Clustering::from_assignment(std::move(assignment));
}

Clustering random_clustering(const TaskGraph& graph, std::size_t k,
                             std::uint64_t seed) {
    require_k(k);
    std::mt19937_64 rng(seed);
    std::uniform_int_distribution<int> dist(0, static_cast<int>(k) - 1);
    std::vector<int> assignment(graph.task_count());
    for (int& a : assignment) a = dist(rng);
    return Clustering::from_assignment(std::move(assignment));
}

Clustering single_cluster(const TaskGraph& graph) {
    return Clustering::from_assignment(
        std::vector<int>(graph.task_count(), 0));
}

Clustering load_balance_clustering(const TaskGraph& graph, std::size_t k) {
    require_k(k);
    std::vector<std::size_t> order(graph.task_count());
    std::iota(order.begin(), order.end(), 0);
    std::stable_sort(order.begin(), order.end(), [&](std::size_t a, std::size_t b) {
        return graph.weight(a) > graph.weight(b);
    });
    // (load, cluster) pairs, least first: the top is the first cluster
    // with the minimum load.
    using Load = std::pair<double, int>;
    std::priority_queue<Load, std::vector<Load>, std::greater<>> lightest;
    for (std::size_t c = 0; c < k; ++c) lightest.emplace(0.0, static_cast<int>(c));
    std::vector<int> assignment(graph.task_count(), 0);
    for (std::size_t t : order) {
        auto [load, cluster] = lightest.top();
        lightest.pop();
        assignment[t] = cluster;
        lightest.emplace(load + graph.weight(t), cluster);
    }
    return Clustering::from_assignment(std::move(assignment));
}

}  // namespace uhcg::taskgraph
